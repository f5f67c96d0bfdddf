"""``cluster``: one router client against three in-process shard nodes.

Three ``ClusterNode``s, each hosted by ``ThreadedServer``, share a
``ShardMap`` with 2 replicas; one client thread drives a ``ClusterClient``.
Four Hurricane fields (dense, offset, plateau-heavy, sparse) at eps 1e-4
are PUT with ``chunks=6``, so every REDUCE fans out to six PREDUCEs and
combines their quantized moments.  The client waits for every reply;
reads come in rounds that hold every entry of this mix once per field (an
assumed mix, not a measured one; the reasons are in perfbench/README.md):

    REDUCE 16 (5 mean, 5 variance, 2 std, 2 minimum, 2 maximum),
    OP 4 (negate, * 1.5; fanned out per chunk, merged by the router).

Every ``WRITE_PERIOD_S`` (also assumed) the client also PUTs the other
content of one field, chunked, each field in turn.  The seed picks the timestep of fixed
synthetic realizations and the order of requests.  Checks follow docs/CLUSTER.md: mean, minimum and maximum
bit-identical to single-node ``LazyStream``; variance and std
bit-identical to the same array placed as one chunk (placement
invariance) and within 1e-12 relative of the single-node two-pass value;
OP replies byte-identical to ``apply_chain(..., fused=False)`` on the
unsplit container.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

import repro.cluster.router as router_module
from repro import SZOps
from repro.cluster import (
    ClusterClient,
    ClusterNode,
    NodeConfig,
    NodeInfo,
    ShardMap,
    combine_moments,
    finish_reduction,
    split_container,
)
from repro.core.ops import apply_chain
from repro.datasets import generate_fields
from repro.runtime import DecodedBlockCache, lazy, use_cache
from repro.service import Moments, ServiceClient, ThreadedServer

from szbench import replay, stages
from szbench.harness import (
    ENDPOINTS,
    Doctor,
    IdentityMismatch,
    Item,
    Measured,
    StatsSampler,
    Window,
    closed_loop,
    deck,
    expect_equal,
    handler_ms,
    merge,
    service_layer,
    stop_servers,
)
from szbench.insitu import DATA_SEED, advect, first_step
from szbench.tracer import Tracer

EPS = 1e-4
FIELDS = ("U", "TC", "QVAPOR", "PRECIP")
N_NODES, REPLICAS, CHUNKS = 3, 2, 6
WARMUP = 30
WRITE_PERIOD_S = 0.25
OP_CHAIN = ("negation", "scalar_multiply=1.5")
BLOCK = (
    [("reduce", "mean")] * 5
    + [("reduce", "variance")] * 5
    + [("reduce", "std")] * 2
    + [("reduce", "minimum")] * 2
    + [("reduce", "maximum")] * 2
    + [("op", "mul")] * 4
)
#: Two-pass variance agreement docs/CLUSTER.md states ("~1e-12 relative").
VARIANCE_RTOL = 1e-12
TAIL_PCT = 95.0
#: 5 s each at the benchmark's 30 s: over 10 samples beyond p95 in each.
SUBWINDOWS = 6


class Cluster:
    name = "cluster"

    def __init__(self, seed: int, scale: float, doctor: Doctor) -> None:
        self.seed = seed
        self.scale = scale
        self.doctor = doctor
        self.tracer = Tracer()
        self.handles: list[ThreadedServer] = []
        self.router: ClusterClient | None = None
        self.stats_clients: list[ServiceClient] = []

    # ------------------------------------------------------------------ set-up

    def setup(self) -> "Cluster":
        fields = generate_fields("Hurricane", scale=self.scale, seed=DATA_SEED, fields=list(FIELDS))
        t0 = first_step(self.seed)
        self.raw = {name: [advect(x, t0), advect(x, t0 + 1)] for name, x in fields.items()}
        with SZOps() as codec:
            self.containers = {
                name: [codec.compress(x, EPS) for x in xs]
                for name, xs in self.raw.items()
            }
        self._references()
        for i in range(N_NODES):
            node = ClusterNode(NodeConfig(node_id=f"node-{i}"))
            self.handles.append(ThreadedServer(server=node).start())
        shard_map = ShardMap(
            [NodeInfo(f"node-{i}", h.host, h.port) for i, h in enumerate(self.handles)],
            replicas=REPLICAS,
        )
        self.stats_clients = [ServiceClient(h.host, h.port) for h in self.handles]
        self.router = ClusterClient(shard_map)
        self.router.install_map()
        self.current = {}
        for name, cs in self.containers.items():
            expect_equal(self.router.put(name, cs[0], chunks=CHUNKS), CHUNKS, f"PUT {name}")
            self.current[name] = 0
        self.max_err = 0.0
        with SZOps() as codec:
            for name, xs in self.raw.items():
                back = codec.decompress(self.router.get_container(name))
                if stages.bound_violations(xs[0], back, EPS):
                    raise IdentityMismatch(f"GET {name} exceeds the error bound")
                self.max_err = max(self.max_err, stages.max_abs_err(xs[0], back) / EPS)
        rng = np.random.default_rng(self.seed)
        self.decks = [deck(rng, BLOCK, list(FIELDS))]
        self.writes = [deck(rng, [("put", "")], list(FIELDS))]
        self.reads: list[tuple[str, int, Item]] = []
        tallies, problems = closed_loop(
            self._send, self.decks, self.tracer, writes=self.writes,
            write_period_s=WRITE_PERIOD_S, count=WARMUP,
        )
        self.warm = merge(tallies)
        self.warm_problems = problems
        return self

    def _references(self) -> None:
        """Single-node answers, computed with a private decoded-block cache."""
        self.reduce_ref: dict[tuple[str, int, str], float] = {}
        self.two_pass: dict[tuple[str, int], float] = {}
        self.op_ref: dict[tuple[str, int], bytes] = {}
        self.chunks: dict[tuple[str, int], list] = {}
        with use_cache(DecodedBlockCache()):
            for name, cs in self.containers.items():
                for variant, c in enumerate(cs):
                    key = (name, variant)
                    stream = lazy(c)
                    s, s2, lo, hi, n = stream.quantized_moments()
                    one_chunk = combine_moments([Moments(s, s2, lo, hi, n, c.eps)])
                    for reduction in ("mean", "minimum", "maximum"):
                        self.reduce_ref[key + (reduction,)] = getattr(stream, reduction)()
                    self.reduce_ref[key + ("mean",)] += self.doctor.mean_offset
                    for reduction in ("variance", "std"):
                        self.reduce_ref[key + (reduction,)] = finish_reduction(reduction, one_chunk)
                    self.two_pass[key] = stream.variance()
                    blob = apply_chain(c, OP_CHAIN, fused=False).to_bytes()
                    self.op_ref[key] = self.doctor.op_blob(blob)
                    self.chunks[key] = split_container(c, CHUNKS)

    def teardown(self) -> list[str]:
        if self.router is not None:
            self.router.close()
        for client in self.stats_clients:
            client.close()
        return stop_servers(self.handles)

    # ------------------------------------------------------------------ requests

    def _send(self, _client: int, item: Item) -> Callable[[], None]:
        router, name, span = self.router, item.name, self.tracer.span
        if item.kind == "put":
            variant = 1 - self.current[name]
            with span("cluster.put"):
                placed = router.put(name, self.containers[name][variant], chunks=CHUNKS)
            self.current[name] = variant
            return lambda: expect_equal(placed, CHUNKS, f"PUT {name} chunks")
        variant = self.current[name]
        self.reads.append((name, variant, item))
        if item.kind == "op":
            with span("cluster.op"):
                blob = router.op(name, OP_CHAIN).to_bytes()
            want_blob = self.op_ref[name, variant]
            return lambda: expect_equal(blob, want_blob, f"OP {name}")
        with span("cluster.reduce"):
            value = router.reduce(name, item.arg)
        want = self.reduce_ref[name, variant, item.arg]

        def check() -> None:
            expect_equal(value, want, f"REDUCE {item.arg} {name}")
            if item.arg == "variance":
                ref = self.two_pass[name, variant]
                if abs(value - ref) > VARIANCE_RTOL * abs(ref):
                    raise IdentityMismatch(f"variance {value!r} vs two-pass {ref!r}")

        return check

    # ------------------------------------------------------------------ window

    def _snapshots(self) -> list[dict]:
        return [c.stats() for c in self.stats_clients] + [self.router.telemetry.snapshot()]

    def run(self, seconds: float, trace: bool) -> Measured:
        sampler = StatsSampler(self._snapshots)
        if trace:
            for ep in ENDPOINTS:
                self.tracer.wrap(ServiceClient, ep, f"service.client.{ep}")
            self.tracer.wrap(router_module, "combine_moments", "cluster.combine")
            self.tracer.wrap(router_module, "finish_reduction", "cluster.combine")
            self.tracer.wrap(router_module, "split_container", "cluster.split")
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
                [xs[0] for xs in self.raw.values()],
                [cs[0].to_bytes() for cs in self.containers.values()],
            ),
            max_err_over_eps=self.max_err,
            layer=self._layer(sampler) if trace else {},
            info={
                "window_s": seconds,
                "clients": 1,
                "nodes": N_NODES,
                "replicas": REPLICAS,
                "chunks": CHUNKS,
                "inputs": {
                    "dataset": "Hurricane",
                    "fields": list(FIELDS),
                    "elements_per_field": int(self.raw[FIELDS[0]][0].size),
                    "eps": EPS,
                },
            },
        )

    def _layer(self, sampler: StatsSampler) -> dict[str, float]:
        tr = self.tracer
        delta = sampler.traced()
        rng = np.random.default_rng(self.seed)
        ops = [(name, variant) for name, variant, item in self.reads if item.kind == "op"]
        work = [
            (chunk, "op", "mul", OP_CHAIN)
            for key in replay.sample(rng, ops, replay.SAMPLES // CHUNKS)
            for chunk in self.chunks[key]
        ]
        replay_ms = replay.replay_compute(tr, work)
        blobs = [c.to_bytes() for parts in self.chunks.values() for c in parts]
        replay.replay_puts(tr, replay.sample(rng, blobs))
        values = service_layer(tr, delta, replay_ms, ("OP",))
        values.update(replay.probe_core(tr, [xs[0] for xs in self.raw.values()], EPS))
        values["core.const_block_share"] = stages.const_block_share(
            [cs[0] for cs in self.containers.values()]
        )
        values["runtime.chain_ms"] = tr.mean_ms("runtime.chain")
        rpc = "service.client.preduce"
        values.update(
            {
                "cluster.reduce_ms": tr.mean_ms("cluster.reduce"),
                "cluster.rpcs_per_reduce": tr.per_parent("cluster.reduce", rpc, len),
                "cluster.rpc_sum_ms": 1e3 * tr.per_parent("cluster.reduce", rpc, sum),
                "cluster.rpc_max_ms": 1e3 * tr.per_parent(
                    "cluster.reduce", rpc, lambda xs: max(xs, default=0.0)
                ),
                "cluster.preduce_handler_ms": handler_ms(delta, "PREDUCE"),
                "cluster.combine_ms": 1e3 * tr.per_parent("cluster.reduce", "cluster.combine", sum),
                "cluster.split_ms": tr.mean_ms("cluster.split"),
                "cluster.replica_reads": float(delta["counter.replica_reads"]),
                "cluster.failovers": float(delta["keyed.read_failovers"]),
                "cluster.epoch_retries": float(delta["counter.epoch_retries"]),
            }
        )
        return values
