"""The repository's benchmark: workloads, tracing and reporting.

``run_workload`` is the one entry point; ``perfbench/run.py`` wraps it in
the command line and the benchmark's tests call it directly.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from szbench.cluster import Cluster
from szbench.harness import (
    Doctor,
    median_setup,
    peak_rss_mb,
    reset_peak_rss,
    result_line,
    run_record,
)
from szbench.insitu import Insitu
from szbench.serve import Serve

#: The benchmark's workloads, in BENCHMARK.json order.
WORKLOADS: dict[str, Any] = {"insitu": Insitu, "serve": Serve, "cluster": Cluster}


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    root: Path,
    scale: float = 1.0,
    doctor: Doctor = Doctor(),
) -> tuple[dict[str, Any], dict[str, Any]]:
    """One run; returns (record line, result line)."""
    cls = WORKLOADS[name]
    state, durations, problems = median_setup(
        lambda: cls(seed, scale, doctor).setup(), lambda s: s.teardown()
    )
    try:
        exact_peak = reset_peak_rss()
        measured = state.run(seconds, trace)
        measured.peak_rss_mb = peak_rss_mb()
        measured.info["peak_rss_scope"] = "window" if exact_peak else "process"
    finally:
        problems += state.teardown()
    result = result_line(trace, measured, durations, problems, state.tracer)
    return run_record(root, name, seed, measured, durations, problems), result
