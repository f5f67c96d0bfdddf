"""Run machinery shared by the workloads.

One run is: set up ``SETUP_REPEATS`` times (the median is ``setup_s``; the
last set-up is kept), measure one closed-loop window, check every result
against references computed in set-up, tear down within a bound, and
report.  An untraced run reports the end-to-end metrics.  A traced run
alternates untraced and traced slices of the same window, reports the
per-layer metrics from the traced slices, and compares the two kinds of
slice for the tracing overhead.
"""

from __future__ import annotations

import gc
import math
import os
import platform
import resource
import statistics
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

import numpy as np

from szbench.tracer import Tracer

#: End-to-end metrics (tracing off), name -> unit.
E2E_METRICS: dict[str, str] = {
    "setup_s": "s",
    "req_per_s": "1/s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "write_p50_ms": "ms",
    "peak_rss_MB": "MB",
    "compression_ratio": "ratio",
    "max_err_over_eps": "ratio",
}

ENDPOINTS = ("put", "get", "op", "reduce", "preduce")

#: Per-layer metrics (traced run), name -> unit.
LAYER_METRICS: dict[str, str] = {
    "core.quantize_ms": "ms",
    "core.encode_ms": "ms",
    "core.decode_ms": "ms",
    "core.inverse_ms": "ms",
    "core.dequantize_ms": "ms",
    "core.const_block_share": "ratio",
    "core.bytes_moved_MB": "MB_computed",
    "runtime.chain_ms": "ms",
    "ops.mean_ms": "ms",
    "ops.variance_ms": "ms",
    "ops.minmax_ms": "ms",
    "runtime.cache_hits": "count",
    "runtime.cache_misses": "count",
    "runtime.cache_hit_rate": "ratio",
    **{f"service.client_ms.{ep}": "ms" for ep in ENDPOINTS},
    **{f"service.handler_ms.{ep}": "ms" for ep in ENDPOINTS},
    "service.transport_ms": "ms",
    "service.batch_wait_ms": "ms",
    "service.flights_per_batch": "flights/batch",
    "service.dedup_hits": "count",
    "service.put_ms": "ms",
    "analysis.verify_ms": "ms",
    "service.busy": "count",
    "service.timeouts": "count",
    "cluster.reduce_ms": "ms",
    "cluster.rpcs_per_reduce": "rpcs/reduce",
    "cluster.rpc_sum_ms": "ms",
    "cluster.rpc_max_ms": "ms",
    "cluster.preduce_handler_ms": "ms",
    "cluster.combine_ms": "ms",
    "cluster.split_ms": "ms",
    "cluster.replica_reads": "count",
    "cluster.failovers": "count",
    "cluster.epoch_retries": "count",
    "trace.overhead_pct": "%",
    "trace.unattributed_ms": "ms",
}

SETUP_REPEATS = 5
#: A traced run alternates untraced/traced slices, untraced first.
TRACE_SLICES = 6
#: Bound on joining one server's event-loop thread at teardown.
STOP_TIMEOUT_S = 10.0

#: Typed failure causes every workload reports (zero when absent).
FAILURE_CAUSES = (
    "ServerBusy",
    "RequestTimedOut",
    "ConnectionLost",
    "RemoteError",
    "NoLiveOwner",
    "identity",
)


class IdentityMismatch(Exception):
    """A result differed from the reference computed for it in set-up."""


def failure_cause(exc: BaseException) -> str:
    """The typed cause a failed request is counted under."""
    if isinstance(exc, IdentityMismatch):
        return "identity"
    for cls in type(exc).__mro__:
        if cls.__name__ in FAILURE_CAUSES:
            return cls.__name__
    return type(exc).__name__


@dataclass(frozen=True)
class Doctor:
    """Deliberate damage to references, so negative tests can see checks bite."""

    #: Flip one byte of every expected OP reply blob.
    flip_op_byte: bool = False
    #: Added to every expected mean.
    mean_offset: float = 0.0

    def op_blob(self, blob: bytes) -> bytes:
        if not self.flip_op_byte:
            return blob
        damaged = bytearray(blob)
        damaged[len(damaged) // 2] ^= 0xFF
        return bytes(damaged)


def expect_equal(got: Any, want: Any, what: str) -> None:
    if got != want:
        if isinstance(got, bytes) and isinstance(want, bytes):
            got, want = f"<{len(got)} bytes>", f"<{len(want)} other bytes>"
        raise IdentityMismatch(f"{what}: got {got!r}, expected {want!r}")


# ---------------------------------------------------------------------------
# windows and per-client tallies
# ---------------------------------------------------------------------------


class Window:
    """The timed window, cut into alternating untraced/traced slices."""

    def __init__(self, seconds: float, traced_run: bool) -> None:
        self.seconds = float(seconds)
        self.n_slices = TRACE_SLICES if traced_run else 1
        self.start = time.perf_counter()
        self.end = self.start + self.seconds

    def slice_at(self, t: float) -> int:
        return min(int((t - self.start) * self.n_slices / self.seconds), self.n_slices - 1)

    def traced_at(self, t: float) -> bool:
        return self.slice_at(t) % 2 == 1

    def boundaries(self) -> list[float]:
        return [
            self.start + self.seconds * i / self.n_slices
            for i in range(1, self.n_slices + 1)
        ]


@dataclass
class Tally:
    """What one client thread saw: every request's latency, and failures."""

    #: (completion time, kind, latency in s or None when failed, traced)
    #: per request.
    timeline: list[tuple[float, str, float | None, bool]] = field(default_factory=list)
    #: Timings of a part of a request (insitu's compress), not requests.
    parts: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    failures: Counter = field(default_factory=Counter)
    #: Failed requests, plus failures outside the window (warm-up, teardown).
    failed: int = 0
    first_error: str = ""
    stopped_at: float = 0.0

    def ok(self, kind: str, seconds: float, traced: bool) -> None:
        self.timeline.append((time.perf_counter(), kind, seconds, traced))

    def fail(self, kind: str, exc: BaseException, traced: bool) -> None:
        self.timeline.append((time.perf_counter(), kind, None, traced))
        self.failures[failure_cause(exc)] += 1
        self.failed += 1
        if not self.first_error:
            self.first_error = f"{kind}: {type(exc).__name__}: {exc}"

    def add_failures(self, other: "Tally", problems: list[str]) -> None:
        """Count another tally's failures (a warm-up's) and run problems."""
        self.failures.update(other.failures)
        self.failed += other.failed + len(problems)
        self.first_error = self.first_error or other.first_error or "; ".join(problems)

    def latencies(self) -> dict[str, list[float]]:
        """Completed requests' latencies by kind."""
        out: dict[str, list[float]] = defaultdict(list)
        for _end, kind, seconds, _traced in self.timeline:
            if seconds is not None:
                out[kind].append(seconds)
        return out


def merge(tallies: Iterable[Tally]) -> Tally:
    out = Tally()
    for t in tallies:
        out.timeline.extend(t.timeline)
        for kind, values in t.parts.items():
            out.parts[kind].extend(values)
        out.add_failures(t, [])
        out.stopped_at = max(out.stopped_at, t.stopped_at)
    return out


def percentile_ms(samples: list[float], failed: int, pct: float, window_s: float) -> float:
    """``pct``-th percentile in ms; a failed request scores the whole window."""
    values = sorted(samples) + [window_s] * failed
    if not values:
        return 0.0
    return 1e3 * float(np.percentile(np.asarray(values), pct))


# ---------------------------------------------------------------------------
# the record printed beside the metrics
# ---------------------------------------------------------------------------


def reset_peak_rss() -> bool:
    """Restart the kernel's peak-RSS mark (VmHWM) at the current RSS.

    Returns False where the kernel does not allow it; :func:`peak_rss_mb`
    then reads the peak over the whole process, set-ups included.
    """
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
            fh.write("5")
    except OSError:
        return False
    return True


def peak_rss_mb() -> float:
    """Peak RSS since the last :func:`reset_peak_rss` (VmHWM), in MB."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref: "):
            return text
        ref = text[5:]
        ref_file = root / ".git" / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        packed = root / ".git" / "packed-refs"
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def host_record(root: Path) -> dict[str, Any]:
    from repro.bitstream.kernels import resolve_kernel

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "bitpack_kernel": resolve_kernel("auto").name,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "library default"),
        "git_sha": _git_sha(root),
    }


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


@dataclass
class Measured:
    """What a workload's window returns to ``run_workload``."""

    tally: Tally
    #: Window start (perf_counter) and length up to the last reply.
    start: float
    wall_s: float
    #: Rates and latencies are medians over this many equal sub-windows.
    subwindows: int
    #: insitu is one thread: throughput is requests over time in requests,
    #: leaving out the benchmark's own data generation and checks.
    busy_throughput: bool
    write_kind: str
    tail_pct: float
    compression_ratio: float
    max_err_over_eps: float
    #: Peak RSS over the window, filled in by ``run_workload``.
    peak_rss_mb: float = 0.0
    layer: dict[str, float] = field(default_factory=dict)
    info: dict[str, Any] = field(default_factory=dict)


def end_to_end(m: Measured, setup_s: float) -> dict[str, float]:
    """End-to-end metrics; rates and latencies are medians over sub-windows."""
    t = m.tally
    n = m.subwindows
    width = m.wall_s / n
    ok: list[list[float]] = [[] for _ in range(n)]
    failed = [0] * n
    for end, _kind, seconds, _traced in t.timeline:
        k = min(max(int((end - m.start) / width), 0), n - 1)
        if seconds is None:
            failed[k] += 1
        else:
            ok[k].append(seconds)
    if m.busy_throughput:
        rates = [len(o) / sum(o) if o else 0.0 for o in ok]
    else:
        rates = [len(o) / width for o in ok]
    writes = t.latencies().get(m.write_kind) or t.parts.get(m.write_kind, [])
    return {
        "setup_s": setup_s,
        "req_per_s": statistics.median(rates),
        "p50_ms": statistics.median(
            percentile_ms(o, f, 50, m.wall_s) for o, f in zip(ok, failed)
        ),
        "tail_ms": statistics.median(
            percentile_ms(o, f, m.tail_pct, m.wall_s) for o, f in zip(ok, failed)
        ),
        "write_p50_ms": percentile_ms(writes, 0, 50, m.wall_s),
        "peak_rss_MB": m.peak_rss_mb,
        "compression_ratio": m.compression_ratio,
        "max_err_over_eps": m.max_err_over_eps,
    }


def slice_throughput(t: Tally, busy: bool, slice_s: float) -> tuple[float, float]:
    """(untraced, traced) requests per second over the alternating slices."""

    def rate(traced: bool) -> float:
        done = [s for _e, _k, s, tr in t.timeline if s is not None and tr == traced]
        if busy:
            return len(done) / sum(done) if done else 0.0
        return len(done) / (TRACE_SLICES // 2 * slice_s)

    return rate(False), rate(True)


def layer_metrics(m: Measured, tracer: Tracer, window_s: float) -> dict[str, float]:
    """Every per-layer metric: the workload's measurements, zero elsewhere."""
    untraced, traced = slice_throughput(
        m.tally, m.busy_throughput, window_s / TRACE_SLICES
    )
    values = {name: 0.0 for name in LAYER_METRICS}
    values.update(m.layer)
    values["trace.overhead_pct"] = (
        100.0 * (untraced - traced) / untraced if untraced else 0.0
    )
    values["trace.unattributed_ms"] = tracer.unattributed_ms()
    return values


def median_setup(setup: Callable[[], Any], teardown: Callable[[Any], list[str]]) -> tuple[Any, list[float], list[str]]:
    """Run ``setup`` ``SETUP_REPEATS`` times; keep the last, time them all.

    Each earlier state is torn down and freed before the next set-up is
    timed, so no two working sets are resident at once.
    """
    durations: list[float] = []
    problems: list[str] = []
    state = None
    for i in range(SETUP_REPEATS):
        if state is not None:
            problems += teardown(state)
            state = None
            gc.collect()
        t0 = time.perf_counter()
        state = setup()
        durations.append(time.perf_counter() - t0)
    return state, durations, problems


def result_line(
    trace: bool,
    m: Measured,
    setup_durations: list[float],
    problems: list[str],
    tracer: Tracer,
) -> dict[str, Any]:
    t = m.tally
    if not t.latencies():
        problems.append("no request completed in the window")
    failed = t.failed + len(problems)
    if trace:
        metrics = layer_metrics(m, tracer, m.info["window_s"])
        units = LAYER_METRICS
    else:
        metrics = end_to_end(m, statistics.median(setup_durations))
        units = E2E_METRICS
    for name, value in metrics.items():
        if not math.isfinite(value):
            problems.append(f"metric {name} is not finite: {value!r}")
            failed += 1
            metrics[name] = 0.0
    # Failures outside the window (warm-up, run problems) are attempts too.
    in_window_failed = sum(1 for _e, _k, s, _t in t.timeline if s is None)
    return {
        "correct": failed == 0,
        "attempted": len(t.timeline) + failed - in_window_failed,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in units
        },
    }


def run_record(
    root: Path,
    workload: str,
    seed: int,
    m: Measured,
    setup_durations: list[float],
    problems: list[str],
) -> dict[str, Any]:
    t = m.tally
    latencies = t.latencies()
    everything = [x for v in latencies.values() for x in v]
    return {
        "record": {
            "workload": workload,
            "seed": seed,
            "host": host_record(root),
            "setup_runs_s": setup_durations,
            "tail_percentile": m.tail_pct,
            "percentiles_ms": {
                f"p{p}": percentile_ms(everything, t.failed, p, m.wall_s)
                for p in (50, 90, 95, 99)
            },
            "samples": {k: len(v) for k, v in sorted({**t.parts, **latencies}.items())},
            "p50_ms_by_kind": {
                k: percentile_ms(v, 0, 50, m.wall_s)
                for k, v in sorted({**t.parts, **latencies}.items())
            },
            "attempted": len(t.timeline),
            "succeeded": len(everything),
            "failures": {c: t.failures.get(c, 0) for c in FAILURE_CAUSES}
            | {c: n for c, n in t.failures.items() if c not in FAILURE_CAUSES},
            "first_error": t.first_error,
            "problems": problems,
            **m.info,
        }
    }


# ---------------------------------------------------------------------------
# closed-loop clients
# ---------------------------------------------------------------------------

#: How long the run waits for a client thread to finish its last request.
JOIN_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Item:
    """One request of a deck: kind, target array, kind-specific argument."""

    kind: str
    name: str
    arg: str = ""


def closed_loop(
    send: Callable[[int, Item], Callable[[], None]],
    decks: list[Iterator[Item]],
    tracer: Tracer,
    *,
    writes: list[Iterator[Item]],
    write_period_s: float,
    window: Window | None = None,
    count: int = 0,
    on_boundary: Callable[[], None] | None = None,
) -> tuple[list[Tally], list[str]]:
    """Drive one client thread per deck; each waits for its reply.

    ``send(client, item)`` sends one request and returns the check of its
    reply; the check runs after the latency is taken.  Reads come from the
    client's deck back to back; a write from its write deck goes next
    whenever one is due, every ``write_period_s`` per client, like a
    producer saving on a fixed cadence.  The number of writes, and the
    memory the store keeps for them, therefore does not grow with
    throughput.  The loop stops at the window's end, or after ``count``
    requests per client when there is no window (warm-up).
    ``on_boundary`` runs on the calling thread at every slice boundary.
    """
    tallies = [Tally() for _ in decks]
    traced_run = window is not None and window.n_slices > 1
    start = window.start if window is not None else time.perf_counter()

    def client(i: int) -> None:
        tally, deck = tallies[i], decks[i]
        # Stagger the clients' writes across the period.
        next_write = start + write_period_s * (i + 1) / len(decks)
        sent = 0
        while True:
            now = time.perf_counter()
            if (window is not None and now >= window.end) or (
                window is None and sent >= count
            ):
                break
            sent += 1
            if now >= next_write:
                item = next(writes[i])
                next_write += write_period_s
            else:
                item = next(deck)
            traced = traced_run and window.traced_at(now)
            t0 = time.perf_counter()
            try:
                with tracer.request(traced):
                    check = send(i, item)
                elapsed = time.perf_counter() - t0
                check()
            except Exception as exc:  # counted by type; the loop goes on
                tally.fail(item.kind, exc, traced)
                continue
            tally.ok(item.kind, elapsed, traced)
        tally.stopped_at = time.perf_counter()

    threads = [
        threading.Thread(target=client, args=(i,), name=f"perfbench-client-{i}", daemon=True)
        for i in range(len(decks))
    ]
    for thread in threads:
        thread.start()
    if window is not None and on_boundary is not None:
        for boundary in window.boundaries():
            time.sleep(max(0.0, boundary - time.perf_counter()))
            on_boundary()
    problems = []
    for thread, tally in zip(threads, tallies):
        thread.join(JOIN_TIMEOUT_S)
        if thread.is_alive():
            problems.append(f"{thread.name} did not finish within {JOIN_TIMEOUT_S}s")
        elif not tally.latencies():
            problems.append(f"{thread.name} completed no request")
    return tallies, problems


def deck(
    rng: np.random.Generator, block: list[tuple[str, str]], names: list[str]
) -> Iterator[Item]:
    """Endless requests in rounds; a round is every (block entry, array) once.

    Balanced rounds keep the mix of request kinds and of arrays the same
    from seed to seed; only the order changes.
    """
    items = [Item(kind, name, arg) for kind, arg in block for name in names]
    while True:
        for j in rng.permutation(len(items)):
            yield items[j]


def stop_servers(handles: list[Any]) -> list[str]:
    """Stop servers within a bound; a loop thread still alive fails the run."""
    for handle in handles:
        handle.stop(timeout_s=STOP_TIMEOUT_S)
    stuck = [
        t.name for t in threading.enumerate() if t.name == "repro-service-loop" and t.is_alive()
    ]
    return [f"{len(stuck)} server loop thread(s) still running after stop"] if stuck else []


class StatsSampler:
    """Server STATS summed over nodes, sampled at every slice boundary."""

    def __init__(self, fetch: Callable[[], list[dict[str, Any]]]) -> None:
        #: Returns one telemetry snapshot per server, then any client-side
        #: ones (the cluster router's); the first must be a server's.
        self.fetch = fetch
        self.samples: list[Counter] = []

    def sample(self) -> None:
        docs = self.fetch()
        v: Counter = Counter()
        for doc in docs:
            for endpoint, entry in doc.get("endpoints", {}).items():
                latency = entry.get("latency")
                if latency:
                    v[f"{endpoint}.count"] += latency["count"]
                    v[f"{endpoint}.sum_ms"] += latency["mean_ms"] * latency["count"]
                for status, n in entry["by_status"].items():
                    v[f"status.{status}"] += n
            for name, n in doc["counters"].items():
                v[f"counter.{name}"] += n
            for group, per_key in doc["keyed_counters"].items():
                v[f"keyed.{group}"] += sum(per_key.values())
        # In-process nodes share one decoded-block cache: count it once.
        cache = docs[0].get("decoded_block_cache") or {}
        v["cache_hits"] += cache.get("hits", 0)
        v["cache_misses"] += cache.get("misses", 0)
        self.samples.append(v)

    def traced(self) -> Counter:
        """Change over the traced slices (the odd ones) of the window."""
        out: Counter = Counter()
        for i in range(1, len(self.samples) - 1, 2):
            out.update(self.samples[i + 1])
            out.subtract(self.samples[i])
        return out


def handler_ms(delta: Counter, endpoint: str) -> float:
    """Exact mean handler time of ``endpoint`` from STATS sum and count."""
    n = delta[f"{endpoint}.count"]
    return delta[f"{endpoint}.sum_ms"] / n if n else 0.0


def service_layer(tracer: Tracer, delta: Counter, replay_ms: float, batched: tuple[str, ...]) -> dict[str, float]:
    """The ``service.*`` and cache metrics of a traced window."""
    values: dict[str, float] = {}
    sent = total = 0.0
    for ep in ENDPOINTS:
        client = tracer.mean_ms(f"service.client.{ep}")
        handler = handler_ms(delta, ep.upper())
        values[f"service.client_ms.{ep}"] = client
        values[f"service.handler_ms.{ep}"] = handler
        n = len(tracer.named(f"service.client.{ep}"))
        if n and handler:
            sent += n
            total += n * (client - handler)
    values["service.transport_ms"] = total / sent if sent else 0.0
    n_batched = sum(delta[f"{ep}.count"] for ep in batched)
    handled = sum(delta[f"{ep}.sum_ms"] for ep in batched)
    values["service.batch_wait_ms"] = handled / n_batched - replay_ms if n_batched else 0.0
    batches = delta["counter.batches"]
    values["service.flights_per_batch"] = (
        delta["counter.batched_flights"] / batches if batches else 0.0
    )
    values["service.dedup_hits"] = float(delta["counter.batch_dedup_hits"])
    values["service.busy"] = float(delta["status.BUSY"])
    values["service.timeouts"] = float(delta["status.TIMEOUT"])
    hits, misses = delta["cache_hits"], delta["cache_misses"]
    values["runtime.cache_hits"] = float(hits)
    values["runtime.cache_misses"] = float(misses)
    values["runtime.cache_hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    values["service.put_ms"] = tracer.mean_ms("service.put")
    values["analysis.verify_ms"] = tracer.mean_ms("analysis.verify")
    return values
