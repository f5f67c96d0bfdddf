"""``serve``: two closed-loop clients against one in-process op server.

One ``ServiceServer`` with the default ``ServiceConfig`` is hosted by
``ThreadedServer``.  Its working set is every CESM-ATM and SCALE-LETKF
field at eps 1e-4, compressed in set-up: dense climate fields next to
hydrometeor fields that are mostly constant blocks.  Each client (there
are as many as CPUs on the reference host, 2) waits for every reply before
sending the next request.  Reads come in rounds that hold every entry of
this mix once for every array (an assumed mix, not a measured one; the
reasons are in perfbench/README.md):

    GET 4, OP 6 (4 × negate, * 1.5; 2 × + -1.0),
    REDUCE 10 (3 mean, 3 variance, 2 minimum, 2 maximum).

Each client also PUTs a new version (the array's other content) of one of
the arrays it alone writes every ``WRITE_PERIOD_S`` (also assumed), each
of them in turn.
The seed picks the timestep of fixed synthetic realizations and the order
of requests.

Reads name the latest acknowledged version explicitly, so every reply has
one reference: OP replies must equal ``apply_chain(..., fused=False)`` on
the stored container byte for byte, REDUCE replies must equal
``LazyStream`` bit for bit, GET replies must equal the PUT bytes, and a
PUT must create the version its writer expects.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro import SZOps
from repro.core.ops import apply_chain
from repro.datasets import generate_fields
from repro.runtime import DecodedBlockCache, use_cache
from repro.service import ServiceClient, ServiceConfig, ThreadedServer

from szbench import replay, stages
from szbench.harness import (
    ENDPOINTS,
    Doctor,
    Item,
    Measured,
    StatsSampler,
    Window,
    closed_loop,
    deck,
    expect_equal,
    merge,
    service_layer,
    stop_servers,
)
from szbench.insitu import DATA_SEED, advect, first_step
from szbench.tracer import Tracer

EPS = 1e-4
DATASETS = ("CESM-ATM", "SCALE-LETKF")
N_CLIENTS = 2
WARMUP_PER_CLIENT = 60
CHAINS = {
    "mul": ("negation", "scalar_multiply=1.5"),
    "add": ("scalar_add=-1.0",),
}
REDUCTIONS = ("mean", "variance", "minimum", "maximum")
WRITE_PERIOD_S = 0.2
BLOCK = (
    [("get", "")] * 4
    + [("op", "mul")] * 4
    + [("op", "add")] * 2
    + [("reduce", "mean")] * 3
    + [("reduce", "variance")] * 3
    + [("reduce", "minimum")] * 2
    + [("reduce", "maximum")] * 2
)
#: p95 repeats within a tenth across runs; p99 does not.
TAIL_PCT = 95.0
#: 5 s each at the benchmark's 30 s: over 10 samples beyond p95 in each.
SUBWINDOWS = 6


class Serve:
    name = "serve"

    def __init__(self, seed: int, scale: float, doctor: Doctor) -> None:
        self.seed = seed
        self.scale = scale
        self.doctor = doctor
        self.tracer = Tracer()
        self.handles: list[ThreadedServer] = []
        self.clients: list[ServiceClient] = []

    # ------------------------------------------------------------------ set-up

    def setup(self) -> "Serve":
        self.raw: dict[str, list[np.ndarray]] = {}
        t0 = first_step(self.seed)
        for dataset in DATASETS:
            fields = generate_fields(dataset, scale=self.scale, seed=DATA_SEED)
            for field, x in fields.items():
                # Version v of an array holds content (v - 1) % 2.
                self.raw[f"{dataset}.{field}"] = [advect(x, t0), advect(x, t0 + 1)]
        self.names = list(self.raw)
        self.containers: dict[str, list] = {}
        self.blobs: dict[str, list[bytes]] = {}
        with SZOps() as codec:
            for name, contents in self.raw.items():
                cs = [codec.compress(x, EPS) for x in contents]
                self.containers[name] = cs
                self.blobs[name] = [c.to_bytes() for c in cs]
            self.max_err = max(
                stages.max_abs_err(xs[0], codec.decompress(self.containers[n][0]))
                for n, xs in self.raw.items()
            ) / EPS
        self._references()
        self.handles = [ThreadedServer(ServiceConfig()).start()]
        host, port = self.handles[0].host, self.handles[0].port
        self.clients = [ServiceClient(host, port) for _ in range(N_CLIENTS)]
        self.stats_client = ServiceClient(host, port)
        self.latest = {}
        for name in self.names:
            expect_equal(self.clients[0].put(name, self.blobs[name][0]), 1, f"PUT {name}")
            self.latest[name] = 1
        rngs = [np.random.default_rng([self.seed, i]) for i in range(N_CLIENTS)]
        self.decks = [deck(rng, BLOCK, self.names) for rng in rngs]
        self.writes = [
            deck(rng, [("put", "")], self.names[i::N_CLIENTS]) for i, rng in enumerate(rngs)
        ]
        self.reads: list[tuple[str, int, Item]] = []
        tallies, problems = closed_loop(
            self._send, self.decks, self.tracer, writes=self.writes,
            write_period_s=WRITE_PERIOD_S, count=WARMUP_PER_CLIENT,
        )
        self.warm = merge(tallies)
        self.warm_problems = problems
        return self

    def _references(self) -> None:
        """Expected replies, computed with a private decoded-block cache."""
        self.op_ref: dict[tuple[str, int, str], bytes] = {}
        self.reduce_ref: dict[tuple[str, int, str], float] = {}
        with use_cache(DecodedBlockCache()):
            for name, cs in self.containers.items():
                for variant, c in enumerate(cs):
                    for key, steps in CHAINS.items():
                        blob = apply_chain(c, steps, fused=False).to_bytes()
                        self.op_ref[name, variant, key] = self.doctor.op_blob(blob)
                    for reduction in REDUCTIONS:
                        value = apply_chain(c, [reduction])
                        if reduction == "mean":
                            value += self.doctor.mean_offset
                        self.reduce_ref[name, variant, reduction] = value

    def teardown(self) -> list[str]:
        for client in [*self.clients, getattr(self, "stats_client", None)]:
            if client is not None:
                client.close()
        return stop_servers(self.handles)

    # ------------------------------------------------------------------ requests

    def _send(self, i: int, item: Item) -> Callable[[], None]:
        client, name = self.clients[i], item.name
        if item.kind == "put":
            want = self.latest[name] + 1
            got = client.put(name, self.blobs[name][(want - 1) % 2])
            self.latest[name] = got
            return lambda: expect_equal(got, want, f"PUT {name} version")
        version = self.latest[name]
        variant = (version - 1) % 2
        self.reads.append((name, variant, item))
        if item.kind == "get":
            blob = client.get(name, version)
            return lambda: expect_equal(blob, self.blobs[name][variant], f"GET {name}")
        if item.kind == "op":
            blob = client.op(name, CHAINS[item.arg], version=version)
            want_blob = self.op_ref[name, variant, item.arg]
            return lambda: expect_equal(blob, want_blob, f"OP {item.arg} {name}")
        value = client.reduce(name, item.arg, version=version)
        want_value = self.reduce_ref[name, variant, item.arg]
        return lambda: expect_equal(value, want_value, f"REDUCE {item.arg} {name}")

    # ------------------------------------------------------------------ window

    def run(self, seconds: float, trace: bool) -> Measured:
        sampler = StatsSampler(lambda: [self.stats_client.stats()])
        if trace:
            for ep in ENDPOINTS:
                self.tracer.wrap(ServiceClient, ep, f"service.client.{ep}")
        self.reads = []
        try:
            window = Window(seconds, trace)
            if trace:
                sampler.sample()
            tallies, problems = closed_loop(
                self._send, self.decks, self.tracer, writes=self.writes,
                write_period_s=WRITE_PERIOD_S, window=window,
                on_boundary=sampler.sample if trace else None,
            )
        finally:
            self.tracer.unwrap_all()
        tally = merge(tallies)
        tally.add_failures(self.warm, self.warm_problems + problems)
        return Measured(
            tally=tally,
            start=window.start,
            wall_s=tally.stopped_at - window.start,
            subwindows=SUBWINDOWS,
            busy_throughput=False,
            write_kind="put",
            tail_pct=TAIL_PCT,
            compression_ratio=stages.compression_ratio(
                [xs[0] for xs in self.raw.values()], [b[0] for b in self.blobs.values()]
            ),
            max_err_over_eps=self.max_err,
            layer=self._layer(sampler) if trace else {},
            info={
                "window_s": seconds,
                "clients": N_CLIENTS,
                "inputs": {
                    "datasets": list(DATASETS),
                    "arrays": len(self.names),
                    "elements": {n: int(xs[0].size) for n, xs in self.raw.items()},
                    "eps": EPS,
                },
            },
        )

    def _layer(self, sampler: StatsSampler) -> dict[str, float]:
        tr = self.tracer
        rng = np.random.default_rng(self.seed)
        work = [
            (self.containers[name][variant], item.kind, item.arg,
             CHAINS[item.arg] if item.kind == "op" else ())
            for name, variant, item in self.reads
            if item.kind in ("op", "reduce")
        ]
        replay_ms = replay.replay_compute(tr, replay.sample(rng, work))
        puts = [self.blobs[n][v] for n in self.names for v in (0, 1)]
        replay.replay_puts(tr, replay.sample(rng, puts))
        values = service_layer(tr, sampler.traced(), replay_ms, ("OP", "REDUCE"))
        values.update(replay.probe_core(tr, [xs[0] for xs in self.raw.values()], EPS))
        values["core.const_block_share"] = stages.const_block_share(
            [cs[0] for cs in self.containers.values()]
        )
        for name in ("runtime.chain", "ops.mean", "ops.variance", "ops.minmax"):
            values[name + "_ms"] = tr.mean_ms(name)
        return values
