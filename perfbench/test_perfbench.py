"""Self-test of the benchmark at reduced input sizes.

    python3 -m pytest -q perfbench

Each workload runs once untraced and once traced with ``--small``; the test
asserts that every metric of BENCHMARK.json is emitted with its unit, that
every check passes, that the spans nest, that a failed stage still ends with
a result line, and that the benchmark refuses to run without the package
sources.
"""

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from metrics import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402
from tracer import Tracer, layer_metrics, nesting_errors  # noqa: E402

SEED = 3


def run_bench(workload: str, trace: int, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(SEED),
         "--seconds", "0", "--trace", str(trace), "--small"],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request):
    out = {}
    for trace in (0, 1):
        proc = run_bench(request.param, trace)
        assert proc.returncode == 0, proc.stderr[-2000:]
        out[trace] = (json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout)
    return request.param, out


def test_every_metric_is_emitted_with_its_unit(runs):
    _, out = runs
    for trace, table in ((0, END_TO_END), (1, PER_LAYER)):
        result, stdout = out[trace]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == table
        for name, m in result["metrics"].items():
            assert isinstance(m["value"], (int, float)) and np.isfinite(m["value"]), name
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, stdout
        assert "failed_frac" in stdout


def test_traced_spans_nest(runs):
    workload, _ = runs
    spans = np.load(HERE / "out" / "traces" / f"{workload}-seed{SEED}.npz")
    a = {k: spans[k] for k in ("start", "end", "parent", "name_id", "run_id", "error")}
    assert a["start"].size > 0
    assert nesting_errors(a) == 0
    names = list(spans["names"])
    roots = a["parent"] < 0
    assert {names[i] for i in a["name_id"][roots]} == {"cli.main"}
    record = json.loads(
        (HERE / "out" / "records" / f"{workload}-seed{SEED}-trace1.json").read_text())
    assert record["trace_checks"]["nesting_errors"] == 0
    assert record["trace_checks"]["negative_self_spans"] == 0
    for check in ("spans_nest", "span_self_times_nonnegative", "unattributed_time_small"):
        assert record["attempted"][check] == 1 and check not in record["failed"]


def test_tracer_restores_the_package_and_counts_from_outside():
    import gpselect as gs
    from gpselect import kernel, sampler

    originals = (kernel.cholesky_with_jitter, sampler.log_prior,
                 kernel.LikelihoodCache.__dict__["log_likelihood"])
    rng = np.random.default_rng(0)
    data = gs.Dataset(X=rng.uniform(size=(8, 2)), y=rng.normal(size=8),
                      column_names=["a", "b"])
    state = gs.ParameterState(beta0=0.0, beta=np.zeros(2), rho=np.array([0.5, 1.0]),
                              sigma2_z=1.0, lam=0.1, omega_r=0.5, omega_c=0.5)
    tracer = Tracer()
    with tracer:
        assert kernel.cholesky_with_jitter is not originals[0]
        assert sampler.log_prior is not originals[1]
        kernel.log_likelihood(data, state)
    assert (kernel.cholesky_with_jitter, sampler.log_prior,
            kernel.LikelihoodCache.__dict__["log_likelihood"]) == originals
    names = [tracer.names[i] for i in tracer.name_id]
    assert names[0] == "kernel.log_likelihood"
    assert "kernel.LikelihoodCache.log_likelihood" in names
    assert names.count("kernel.cholesky_with_jitter") == 1
    run_s = tracer.end[0] - tracer.start[0]
    metrics, info = layer_metrics(tracer, run_s, run_s)
    assert info["nesting_errors"] == 0 and info["negative_self_spans"] == 0
    assert metrics["kernel.cholesky.calls"] == 1
    assert metrics["kernel.cholesky.gflop_computed"] == pytest.approx(8**3 / 3e9)
    assert metrics["kernel.self_s"] == pytest.approx(run_s)


def test_a_failed_stage_still_ends_with_a_result_line(monkeypatch, capsys):
    import harness
    from gpselect import cli

    monkeypatch.setattr(cli, "main", lambda argv: 3)
    args = argparse.Namespace(workload="large_n", seed=SEED, seconds=0.0, trace=0, small=True)
    assert harness.run(args) == 1
    stdout = capsys.readouterr().out
    result = json.loads(stdout.strip().splitlines()[-1])
    assert result == {"correct": False, "attempted": 2, "failed": 1, "metrics": {}}
    assert "cli_exit 1/1" in stdout


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("large_n", 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
