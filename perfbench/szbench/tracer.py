"""In-memory spans around the benchmark's calls into each layer.

The program under test carries no instrumentation.  The benchmark opens a
span around every layer call it makes itself, and, for calls a layer makes
on the benchmark's thread (the cluster router calling ``ServiceClient``,
for example), it wraps that public function for the length of the traced
run and restores it afterwards.  Calls that run on server threads are not
spanned; their time comes from the servers' own STATS counters.

Tracing is switched per request: :meth:`Tracer.request` opens a root span
only when asked to, and every span opened on that thread until it closes
becomes its descendant.  A layer's self time is its duration minus the
time covered by its direct children.
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, ContextManager, Iterator

#: Name of the per-request root span; it belongs to no layer.
REQUEST = "request"


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    #: Summed duration of the direct children, for self time.
    child_s: float = 0.0
    children: list[int] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.child_s


class Tracer:
    """Span recorder; cheap no-op on threads with no traced request open."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ recording

    @contextmanager
    def request(self, traced: bool, root: str = REQUEST) -> Iterator[None]:
        """Scope one request; span it (and everything under it) if ``traced``.

        Replays the benchmark runs after the window, to time a layer
        in-process, pass another ``root`` so they are not counted as requests.
        """
        if not traced:
            yield
            return
        self._local.stack = []
        try:
            with self._open(root):
                yield
        finally:
            self._local.stack = None

    def span(self, name: str) -> ContextManager[None]:
        """A child span of the open request, or nothing when none is traced."""
        if getattr(self._local, "stack", None) is None:
            return nullcontext()
        return self._open(name)

    @contextmanager
    def _open(self, name: str) -> Iterator[None]:
        stack: list[int] = self._local.stack
        span = Span(name, time.perf_counter(), parent=stack[-1] if stack else -1)
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        try:
            yield
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if span.parent >= 0:
                parent = self.spans[span.parent]
                parent.child_s += span.seconds
                parent.children.append(index)

    # ------------------------------------------------------------------ wrapping

    def wrap(self, owner: Any, attr: str, name: str) -> None:
        """Span every call of ``owner.attr`` until :meth:`unwrap_all`."""
        original = getattr(owner, attr)
        span = self.span

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with span(name):
                return original(*args, **kwargs)

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ summaries

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name and s.end]

    def mean_ms(self, name: str) -> float:
        """Mean duration of one ``name`` call in ms (0 when never called)."""
        spans = self.named(name)
        return 1e3 * sum(s.seconds for s in spans) / len(spans) if spans else 0.0

    def children_of(self, span: Span, name: str) -> list[Span]:
        return [self.spans[i] for i in span.children if self.spans[i].name == name]

    def per_parent(
        self, parent: str, child: str, fold: Callable[[list[float]], float]
    ) -> float:
        """Mean over ``parent`` spans of ``fold`` over their ``child`` durations."""
        parents = self.named(parent)
        if not parents:
            return 0.0
        total = 0.0
        for span in parents:
            total += fold([c.seconds for c in self.children_of(span, child)])
        return total / len(parents)

    def unattributed_ms(self) -> float:
        """Mean request time not covered by any layer span, in ms."""
        return self.mean_self_ms(REQUEST)

    def mean_self_ms(self, name: str) -> float:
        spans = self.named(name)
        return 1e3 * sum(s.self_seconds for s in spans) / len(spans) if spans else 0.0
