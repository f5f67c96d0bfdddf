"""``insitu``: one thread carries fresh fields through the in-situ cycle.

A simulation hands over Miranda fields every timestep (7 × 589,824
float32, eps 1e-4, the reference input).  A request is one field:

    compress (QZ, LZ + BF)  ->  fused chain  -x + 0.25, * 1.5  ->
    mean, variance, min, max in the compressed domain
    [-> decompress, for the one field per step that is checkpointed]

Set-up synthesizes the 7 base fields once; timestep ``t`` advects them
periodically (``np.roll``), which keeps their statistics and gives new
bytes every step, so the decoded-block cache starts cold on every field.
Advection and the checks run between requests and are not timed.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro import SZOps, SZOpsCompressed, lazy, ops
from repro.datasets import generate_fields
from repro.runtime import cache_stats

from szbench import stages
from szbench.harness import (
    Doctor,
    IdentityMismatch,
    Measured,
    Tally,
    Window,
)
from szbench.tracer import Tracer

EPS = 1e-4
SHIFT, SCALE = 0.25, 1.5
#: p95 repeats within a tenth across runs at ~20 requests/s.
TAIL_PCT = 95.0


#: Seed of the synthetic realizations; the run's seed picks the timestep.
DATA_SEED = 20240624


def first_step(seed: int) -> int:
    """The timestep a run starts at: runs differ in bytes, not in statistics."""
    return (37 * seed) % 9973


def advect(x: np.ndarray, t: int) -> np.ndarray:
    """Timestep ``t`` of a periodic field: a roll along the last two axes."""
    return np.roll(x, (t % x.shape[-2], (7 * t) % x.shape[-1]), axis=(-2, -1))


class Insitu:
    name = "insitu"

    def __init__(self, seed: int, scale: float, doctor: Doctor) -> None:
        self.seed = seed
        self.scale = scale
        self.doctor = doctor
        self.codec = SZOps()
        self.tracer = Tracer()

    # ------------------------------------------------------------------ set-up

    def setup(self) -> "Insitu":
        fields = generate_fields("Miranda", scale=self.scale, seed=DATA_SEED)
        self.base = list(fields.values())
        self.t0 = first_step(self.seed)
        # Warm-up: the first timestep through the whole cycle, every field
        # checkpointed.
        warm = Tally()
        self.step0 = []
        self.max_err = 0.0
        for x in self.base:
            c = self._request(advect(x, self.t0), True, warm, traced=False)
            if c is not None:
                self.step0.append(c)
        self.warm_failures = warm
        return self

    def teardown(self) -> list[str]:
        self.codec.close()
        return []

    # ------------------------------------------------------------------ one request

    def _request(
        self, x: np.ndarray, checkpoint: bool, tally: Tally, traced: bool
    ) -> SZOpsCompressed | None:
        """One field through the cycle; returns its compressed form."""
        span = self.tracer.span
        hits0 = cache_stats()
        hits0 = (hits0.hits, hits0.misses) if hits0 is not None else (0, 0)
        c = None
        t0 = time.perf_counter()
        try:
            with self.tracer.request(traced):
                c = self.codec.compress(x, EPS)
                t_write = time.perf_counter() - t0
                with span("runtime.chain"):
                    out = lazy(c).negate().scalar_add(SHIFT).scalar_multiply(SCALE).materialize()
                with span("ops.mean"):
                    mean = ops.mean(out)
                with span("ops.variance"):
                    var = ops.variance(out)
                with span("ops.minmax"):
                    lo = ops.minimum(out)
                with span("ops.minmax"):
                    hi = ops.maximum(out)
                xr = self.codec.decompress(c) if checkpoint else None
            elapsed = time.perf_counter() - t0
            self._check(x, c, out, xr, mean, var, lo, hi)
        except Exception as exc:  # counted by type; the loop goes on
            tally.fail("cycle", exc, traced)
            return c
        tally.ok("cycle", elapsed, traced)
        tally.parts["compress"].append(t_write)
        if traced:
            stats = cache_stats()
            if stats is not None:
                self.cache_delta[0] += stats.hits - hits0[0]
                self.cache_delta[1] += stats.misses - hits0[1]
            self.bytes_moved += stages.bytes_moved(c, checkpoint)
        return c

    def _check(
        self,
        x: np.ndarray,
        c: SZOpsCompressed,
        out: SZOpsCompressed,
        xr: np.ndarray | None,
        mean: float,
        var: float,
        lo: float,
        hi: float,
    ) -> None:
        """Compressed-domain results against NumPy, within error propagation."""
        if not (lo <= mean <= hi and var >= 0.0):
            raise IdentityMismatch(f"inconsistent reductions {lo}, {mean}, {hi}, {var}")
        if xr is None:
            return
        bad = stages.bound_violations(x, xr, c.eps)
        if bad:
            raise IdentityMismatch(f"{bad} elements exceed the error bound {c.eps}")
        self.max_err = max(self.max_err, stages.max_abs_err(x, xr) / c.eps)
        # The reductions equal NumPy on the decompressed field up to float
        # rounding; docs bound |mean| by eps and |std| by 2*eps.
        y = self.codec.decompress(out).astype(np.float64)
        want_mean = float(y.mean()) + self.doctor.mean_offset
        if abs(mean - want_mean) > out.eps:
            raise IdentityMismatch(f"mean {mean!r} vs NumPy {want_mean!r}")
        if abs(math.sqrt(var) - float(y.std())) > 2 * out.eps:
            raise IdentityMismatch(f"std {math.sqrt(var)!r} vs NumPy {float(y.std())!r}")
        if abs(lo - float(y.min())) > out.eps or abs(hi - float(y.max())) > out.eps:
            raise IdentityMismatch(f"min/max {lo!r}/{hi!r} vs NumPy {y.min()!r}/{y.max()!r}")

    # ------------------------------------------------------------------ window

    def run(self, seconds: float, trace: bool) -> Measured:
        self.cache_delta = [0, 0]
        self.bytes_moved = 0
        tally = Tally()
        if trace:
            stages.wrap_codec(self.tracer)
        try:
            window = Window(seconds, trace)
            t = self.t0 + 1
            while time.perf_counter() < window.end:
                checkpoint_field = t % len(self.base)
                for k, base in enumerate(self.base):
                    now = time.perf_counter()
                    if now >= window.end:
                        break
                    x = advect(base, t)
                    traced = trace and window.traced_at(now)
                    self._request(x, k == checkpoint_field, tally, traced)
                t += 1
        finally:
            self.tracer.unwrap_all()
        tally.stopped_at = time.perf_counter()
        tally.add_failures(self.warm_failures, [])
        blobs = [c.to_bytes() for c in self.step0]
        return Measured(
            tally=tally,
            start=window.start,
            wall_s=tally.stopped_at - window.start,
            subwindows=1,
            busy_throughput=True,
            write_kind="compress",
            tail_pct=TAIL_PCT,
            compression_ratio=stages.compression_ratio(self.base, blobs),
            max_err_over_eps=self.max_err,
            layer=self._layer() if trace else {},
            info={
                "window_s": seconds,
                "timesteps": t - 1 - self.t0,
                "inputs": {
                    "dataset": "Miranda",
                    "fields": len(self.base),
                    "elements_per_field": int(self.base[0].size),
                    "eps": EPS,
                },
            },
        )

    def _layer(self) -> dict[str, float]:
        tr = self.tracer
        hits, misses = self.cache_delta
        n_requests = len(tr.named("request"))
        return {
            "core.quantize_ms": tr.mean_ms("core.quantize"),
            "core.encode_ms": tr.mean_ms("core.encode"),
            "core.decode_ms": tr.mean_ms("core.decode"),
            "core.inverse_ms": tr.mean_ms("core.inverse"),
            "core.dequantize_ms": tr.mean_ms("core.dequantize"),
            "core.const_block_share": stages.const_block_share(self.step0),
            "core.bytes_moved_MB": self.bytes_moved / 1e6 / max(n_requests, 1),
            "runtime.chain_ms": tr.mean_ms("runtime.chain"),
            "ops.mean_ms": tr.mean_ms("ops.mean"),
            "ops.variance_ms": tr.mean_ms("ops.variance"),
            "ops.minmax_ms": tr.mean_ms("ops.minmax"),
            "runtime.cache_hits": float(hits),
            "runtime.cache_misses": float(misses),
            "runtime.cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        }
