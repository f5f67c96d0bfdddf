"""In-process replays that time, after a traced window, work a server did.

Server threads carry no spans, so the traced run replays a sample of the
window's requests in the benchmark's own thread: the same public calls the
handlers make, on the same containers, with a private decoded-block cache
warmed the way the server's was.  The replays run after the window and
never overlap the measured requests.
"""

from __future__ import annotations

import numpy as np

from repro import SZOps, SZOpsCompressed
from repro.analysis import assert_stream_ok
from repro.runtime import DecodedBlockCache, LazyStream, use_cache
from repro.service import CompressedArrayStore
from repro.service.client import steps_from_chain

from szbench import stages
from szbench.tracer import Tracer

REPLAY = "replay"
PROBE = "probe"

#: Most requests replayed per kind of replay.
SAMPLES = 48


def sample(rng: np.random.Generator, items: list, k: int = SAMPLES) -> list:
    if len(items) <= k:
        return list(items)
    return [items[int(i)] for i in rng.choice(len(items), size=k, replace=False)]


def chain(c: SZOpsCompressed, steps: tuple[str, ...]) -> LazyStream:
    out = LazyStream(c)
    for step in steps_from_chain(steps):
        out = out.apply(step.name, step.scalar)
    return out


def compute(tracer: Tracer, c: SZOpsCompressed, kind: str, arg: str, steps: tuple[str, ...]) -> None:
    """What an OP / REDUCE handler computes, spanned by layer."""
    if kind == "op":
        with tracer.span("runtime.chain"):
            chain(c, steps).materialize().to_bytes()
        return
    name = {"minimum": "ops.minmax", "maximum": "ops.minmax"}.get(arg, f"ops.{arg}")
    with tracer.span(name):
        getattr(chain(c, steps), arg)()


def replay_compute(tracer: Tracer, work: list[tuple[SZOpsCompressed, str, str, tuple[str, ...]]]) -> float:
    """Replay OP/REDUCE computations warm; mean ms per replayed request."""
    cache = DecodedBlockCache()
    with use_cache(cache):
        for c, *_ in work:
            cache.get_blocks(c)
        for c, kind, arg, steps in work:
            with tracer.request(True, root=REPLAY):
                compute(tracer, c, kind, arg, steps)
    return tracer.mean_ms(REPLAY)


def replay_puts(tracer: Tracer, blobs: list[bytes]) -> None:
    """Time what a PUT handler does: verify, parse, insert; and verify alone."""
    store = CompressedArrayStore()
    for i, blob in enumerate(blobs):
        with tracer.request(True, root=REPLAY + ".put"):
            with tracer.span("service.put"):
                store.put(f"a{i}", blob)
            with tracer.span("analysis.verify"):
                assert_stream_ok(blob)


def probe_core(tracer: Tracer, fields: list[np.ndarray], eps: float) -> dict[str, float]:
    """Compress and decompress the working set, its stages spanned."""
    moved = 0
    stages.wrap_codec(tracer)
    try:
        with SZOps() as codec:
            for x in fields:
                with tracer.request(True, root=PROBE):
                    c = codec.compress(x, eps)
                    codec.decompress(c)
                moved += stages.bytes_moved(c, decompressed=True)
    finally:
        tracer.unwrap_all()
    return {
        "core.quantize_ms": tracer.mean_ms("core.quantize"),
        "core.encode_ms": tracer.mean_ms("core.encode"),
        "core.decode_ms": tracer.mean_ms("core.decode"),
        "core.inverse_ms": tracer.mean_ms("core.inverse"),
        "core.dequantize_ms": tracer.mean_ms("core.dequantize"),
        "core.bytes_moved_MB": moved / 1e6 / max(len(fields), 1),
    }
