"""Run one workload of the repository's benchmark and print its metrics.

    python3 perfbench/run.py --workload insitu --seed 1 --seconds 10 --trace 0

Workloads: ``insitu``, ``serve``, ``cluster`` (see perfbench/README.md).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the host, the inputs, sample counts and failures by cause.  With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones.  The package under test is imported from ``src/`` next to
this directory; without it the command exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: A run must end within this many seconds, or the process exits with 3.
DEADLINE_S = 170.0
#: Thread-pool sizes of the BLAS/OpenMP runtimes under NumPy, fixed before
#: NumPy is imported.  The process already hosts the clients and every
#: server thread; a BLAS pool on top of them oversubscribes the host's
#: CPUs, and OpenBLAS's spin-waiting workers then stall ``np.dot`` (used
#: by the quantized moments) whenever a neighbour takes a CPU.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("insitu", "serve", "cluster"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    # The program gets only generated inputs, never files found on the host.
    os.environ.pop("REPRO_SDRBENCH_DIR", None)
    for name in BLAS_ENV:
        os.environ[name] = BLAS_THREADS

    watchdog = threading.Timer(DEADLINE_S, _overrun)
    watchdog.daemon = True
    watchdog.start()
    from szbench import run_workload

    record, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    watchdog.cancel()
    print(json.dumps(record))
    print(json.dumps(result), flush=True)
    return 0


def _overrun() -> None:
    print(f"perfbench: run exceeded {DEADLINE_S}s; aborting", file=sys.stderr, flush=True)
    os._exit(3)


if __name__ == "__main__":
    sys.exit(main())
