"""Start-up time of a fresh interpreter that imports the CLI, with no time assertion.

Each round starts one interpreter that runs `import gpselect.cli`, as every
`gpselect` command does before it reads its arguments; the rounds run one
after another. The benchmark's extra_info records the scipy modules that the
import loaded (none are needed until a command factors a matrix or runs an
optimizer). For a reading:

    PYTHONPATH=src python -m pytest tests/test_startup_bench.py \\
        --benchmark-columns=median,iqr
"""

import os
import subprocess
import sys
from pathlib import Path

import gpselect

PROBE = ("import sys, gpselect.cli; "
         "print(' '.join(sorted(m for m in sys.modules if m.startswith('scipy.'))))")


def test_cli_import_time(benchmark):
    env = dict(os.environ, PYTHONPATH=str(Path(gpselect.__file__).parents[1]))

    def fresh_import():
        return subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                              text=True, check=True).stdout

    out = benchmark.pedantic(fresh_import, rounds=5, iterations=1)
    benchmark.extra_info["scipy_modules"] = out.split()
