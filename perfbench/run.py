#!/usr/bin/env python3
"""Benchmark of the gpselect pipeline, driven through its command-line interface.

Run from the repository root:

    python3 perfbench/run.py --workload replication --seed 1 --seconds 15 --trace 0

Workloads are `replication`, `chain_reuse` and `large_n`; BENCHMARK.json says
why each exists. With ``--trace 0`` the run sets up its inputs five times
(setup_s is their median), then repeats whole passes of the workload until
``--seconds`` have gone by (at least one) and reports the median of every
end-to-end metric over the passes. With ``--trace 1`` it runs one untraced pass and one traced pass and
reports the per-layer metrics; the spans go to ``perfbench/out/traces``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before it
print every metric with its unit, the failed operations by cause and the
machine; the full run record is written to ``perfbench/out/records``.
"""

import os
import sys

# one BLAS thread per process, set before anything imports numpy
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
from pathlib import Path  # noqa: E402

from metrics import RUN_SECONDS, WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="reduced input sizes, for the benchmark's self-test")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gpselect" / "cli.py").is_file() or not (TESTS / "oracles.py").is_file():
        print(f"error: the benchmark needs the gpselect sources in {SRC} and the test "
              f"oracles in {TESTS}; run it from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(TESTS)]
    import harness

    return harness.run(args)


if __name__ == "__main__":
    sys.exit(main())
