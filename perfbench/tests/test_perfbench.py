"""The benchmark's own tests: it reports every declared metric, its checks
bite, and it refuses to run without the program.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
The runs here are tiny (``scale`` shrinks every input axis) and short, so
their numbers mean nothing; only names, units, counts and verdicts are
checked.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from szbench import WORKLOADS, run_workload
from szbench.harness import (
    E2E_METRICS,
    FAILURE_CAUSES,
    LAYER_METRICS,
    Doctor,
    Measured,
    Tally,
    result_line,
)
from szbench.tracer import Tracer

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SCALE = 0.25


def tiny(workload: str, trace: bool, doctor: Doctor = Doctor()):
    return run_workload(workload, 3, 0.6, trace, ROOT, scale=SCALE, doctor=doctor)


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == E2E_METRICS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == LAYER_METRICS


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_names_every_metric_with_its_unit(workload, trace):
    record, result = tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, record["record"]["first_error"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {
        name: (m["unit"], type(m["value"])) for name, m in result["metrics"].items()
    } == {m["name"]: (m["unit"], float) for m in declared}
    rec = record["record"]
    assert set(FAILURE_CAUSES) <= set(rec["failures"])
    for key in ("nproc", "cpu_model", "python", "numpy", "bitpack_kernel", "git_sha"):
        assert rec["host"][key]
    assert rec["seed"] == 3 and rec["inputs"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_spans_the_programs_codec_stages(workload):
    _record, result = tiny(workload, True)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    # Every workload compresses through SZOps.compress in a traced request;
    # serve and cluster also decompress in their probe after the window.
    stages = ["core.quantize_ms", "core.encode_ms"]
    if workload != "insitu":
        stages += ["core.decode_ms", "core.inverse_ms", "core.dequantize_ms"]
    assert all(metrics[name] > 0 for name in stages), metrics


def test_a_run_with_no_completed_request_fails():
    empty = Measured(
        tally=Tally(), start=0.0, wall_s=1.0, subwindows=1, busy_throughput=False,
        write_kind="put", tail_pct=95.0, compression_ratio=1.0, max_err_over_eps=0.0,
    )
    problems: list[str] = []
    result = result_line(False, empty, [0.1], problems, Tracer())
    assert result["correct"] is False
    assert result["attempted"] >= result["failed"] >= 1
    assert problems == ["no request completed in the window"]


def failures(workload: str, doctor: Doctor):
    record, result = tiny(workload, False, doctor)
    assert result["correct"] is False
    return record["record"]["failures"], result["failed"]


@pytest.mark.parametrize("workload", ["serve", "cluster"])
def test_a_flipped_byte_in_an_expected_op_blob_fails_requests(workload):
    causes, failed = failures(workload, Doctor(flip_op_byte=True))
    assert causes["identity"] >= 1 and failed >= causes["identity"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_wrong_expected_mean_fails_requests(workload):
    causes, failed = failures(workload, Doctor(mean_offset=1.0))
    assert causes["identity"] >= 1 and failed >= causes["identity"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "insitu", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
