import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import gpselect
from gpselect import Dataset, ValidationError, export_csv, ingest
from gpselect.cli import COMMANDS, RunConfig, _build_parser, _load_model_file, _resolve_args, main
from gpselect.data import read_sites_csv, split_rows
from gpselect.model import are_numbers
from gpselect.predict import POOL_MIN_ROWS, MleFit, _workers
from gpselect.sampler import Chain, load_chain


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_ingest_two_point_minmax(tmp_path):
    path = _write(tmp_path / "d.csv", "x1,y\n3.0,1.0\n5.0,2.0\n")
    ds = ingest(path, "y", standardize=True)
    assert sorted(ds.X[:, 0]) == [0.0, 1.0]
    assert ds.standardization == [(3.0, 5.0)]
    assert list(ds.y) == [1.0, 2.0]


def test_ingest_standardize_off_passthrough(tmp_path):
    path = _write(tmp_path / "d.csv", "x1,x2,y\n3,4,1\n5,8,2\n4,6,3\n")
    ds = ingest(path, "y", standardize=False)
    assert np.array_equal(ds.X, np.array([[3.0, 4.0], [5.0, 8.0], [4.0, 6.0]]))
    assert ds.standardization is None


def test_ingest_errors(tmp_path):
    with pytest.raises(ValidationError, match="response column"):
        ingest(_write(tmp_path / "a.csv", "x1,y\n1,2\n"), "z")
    with pytest.raises(ValidationError, match="non-numeric"):
        ingest(_write(tmp_path / "b.csv", "x1,y\n1,2\nfoo,3\n"), "y")
    with pytest.raises(ValidationError, match="constant column"):
        ingest(_write(tmp_path / "c.csv", "x1,y\n2,1\n2,2\n"), "y")
    with pytest.raises(ValidationError, match="non-finite"):
        ingest(_write(tmp_path / "d.csv", "x1,y\n1,2\nnan,3\n"), "y")
    with pytest.raises(ValidationError, match="no data rows"):
        ingest(_write(tmp_path / "e.csv", "x1,y\n"), "y")


def test_ingest_export_round_trip(tmp_path, rng):
    X = rng.uniform(size=(7, 3))
    y = rng.normal(size=7)
    ds = Dataset(X=X, y=y, column_names=["a", "b", "c"])
    p1 = tmp_path / "out.csv"
    export_csv(ds, p1)
    ds2 = ingest(p1, "y", standardize=False)
    assert np.array_equal(ds2.X, ds.X_raw)
    assert np.array_equal(ds2.y, ds.y)
    # second round trip is bit-exact
    p2 = tmp_path / "out2.csv"
    export_csv(ds2, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_transform_sites_uses_training_stats(tmp_path):
    path = _write(tmp_path / "d.csv", "x1,y\n0.0,1.0\n10.0,2.0\n5.0,0.5\n")
    ds = ingest(path, "y", standardize=True)
    sites = ds.transform_sites(np.array([[2.5], [12.0]]))
    assert sites[0, 0] == pytest.approx(0.25)
    assert sites[1, 0] == pytest.approx(1.2)  # extrapolation allowed


def test_read_sites_selects_columns_by_name(tmp_path):
    path = _write(tmp_path / "s.csv", "extra,x2,x1\n9,4,1\n9,5,2\n")
    X = read_sites_csv(path, ["x1", "x2"])
    assert np.array_equal(X, np.array([[1.0, 4.0], [2.0, 5.0]]))
    with pytest.raises(ValidationError, match="missing feature"):
        read_sites_csv(path, ["x1", "x3"])


def test_split_rows_partition():
    train, hold = split_rows(20, 0.25, seed=3)
    assert len(hold) == 5 and len(train) == 15
    assert sorted(np.concatenate([train, hold]).tolist()) == list(range(20))
    t2, h2 = split_rows(20, 0.25, seed=3)
    assert np.array_equal(train, t2) and np.array_equal(hold, h2)


def test_run_config_defaults_and_json(tmp_path):
    cfg = RunConfig()
    assert cfg.prior.tau == 5.0
    assert cfg.prior.sigma2_shape == 3.0 and cfg.prior.sigma2_scale == 2.0
    assert cfg.prior.lambda_shape == 3.0 and cfg.prior.lambda_scale == 0.2
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps(
            {
                "prior": {"tau": 2.0},
                "sampler": {"n_iter": 500, "burn_in": 100, "seed": 4},
                "predict": {"denoise_threshold": 0.05},
                "select": {"low": 0.2, "high": 0.8, "q": 0.5, "v_folds": 3},
            }
        )
    )
    cfg2 = RunConfig.from_json(path)
    assert cfg2.prior.tau == 2.0
    assert cfg2.sampler.n_iter == 500
    assert cfg2.denoise_threshold == 0.05
    assert cfg2.select.v_folds == 3


def test_run_config_rejects_bad_values(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"select": {"low": 0.9, "high": 0.3}}))
    with pytest.raises(ValidationError):
        RunConfig.from_json(path)
    path.write_text(json.dumps({"prior": {"nope": 1}}))
    with pytest.raises(ValidationError):
        RunConfig.from_json(path)
    path.write_text("{not json")
    with pytest.raises(ValidationError):
        RunConfig.from_json(path)
    # a config or a section that is not a JSON object
    for bad in ([], {"predict": []}):
        path.write_text(json.dumps(bad))
        with pytest.raises(ValidationError, match="must be a JSON object"):
            RunConfig.from_json(path)
    # threshold_model needs q strictly inside (0, 1)
    for q in (0.0, 1.0):
        path.write_text(json.dumps({"select": {"q": q}}))
        with pytest.raises(ValidationError, match=r"select\.q must lie in \(0, 1\)"):
            RunConfig.from_json(path)


@pytest.mark.parametrize("config, flags, key", [
    ({"select": {"v_folds": "8"}}, [], "select.v_folds"),
    ({"sampler": {"n_iter": "100"}}, [], "sampler.n_iter"),
    ({"simulate": {"noise_sd": "0.1"}}, [], "simulate.noise_sd"),
    ({"simulate": {"noise_sd": -0.5}}, [], "simulate.noise_sd"),
    ({"simulate": {"box": [-0.75, 0.0, 0.75]}}, [], "simulate.box"),
    ({"simulate": {"n_train": 1}}, [], "simulate.n_train"),
    ({"prior": {"tau": True}}, [], "prior.tau"),
    ({"io": {"data": 5}}, [], "io.data"),
    ({"priors": {"tau": 1}}, [], "priors"),
    ({"predict": {"denoise": 0.1}}, [], "predict.denoise"),
    ({"io": {"dta": "x.csv"}}, [], "io.dta"),
    ({"simulate": {"nope": 1}}, [], "simulate.nope"),
    ({"prior": {"tau": math.nan}}, [], "prior.tau"),
    ({"prior": {"sigma2_scale": math.inf}}, [], "prior.sigma2_scale"),
    ({"sampler": {"rw_sd": [0.2, 0.2, math.nan, 0.3, 0.3]}}, [], "sampler.rw_sd"),
    ({"sampler": {"seed": -1}}, [], "sampler.seed"),
    ({"sampler": {"thin": 0}}, [], "sampler.thin"),
    ({}, ["--seed", "-1"], "--seed"),
    ({"prior": {"tau": 10**400}}, [], "prior.tau"),
    ({"sampler": {"n_iter": 10**20}}, [], "sampler.n_iter"),
], ids=["v_folds_a_string", "n_iter_a_string", "noise_sd_a_string", "noise_sd_negative",
        "box_of_three", "n_train_1", "tau_a_flag", "io_data_a_number", "unknown_section",
        "unknown_predict_key", "unknown_io_key", "unknown_simulate_key", "tau_nan",
        "sigma2_scale_infinite", "rw_sd_with_nan", "seed_negative", "thin_0",
        "seed_flag_negative", "tau_beyond_every_double", "n_iter_beyond_every_index"])
def test_cli_malformed_config_is_one_line_validation_error(tmp_path, capsys, config, flags, key):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["--config", str(path), *flags, "--output-dir", str(out), "simulate"]) == 1
    stdout, stderr = capsys.readouterr()
    assert stdout == "" and not out.exists()
    err = stderr.splitlines()
    assert len(err) == 1
    error = json.loads(err[0])
    assert error["error"] == "ValidationError"
    assert key in error["message"]
    if not flags:  # a bad config value is named with its file
        assert str(path) in error["message"]


@pytest.fixture
def tiny_pipeline(tmp_path):
    """Small end-to-end material: data CSV, sites CSV, fast config."""
    rng = np.random.default_rng(17)
    X = np.empty((14, 2))
    X[:, 0] = (rng.permutation(14) + 0.5) / 14
    X[:, 1] = (rng.permutation(14) + 0.5) / 14
    y = 1.0 + 2.0 * X[:, 0] + np.sin(4 * X[:, 1]) + rng.normal(scale=0.05, size=14)
    data_csv = tmp_path / "data.csv"
    export_csv(Dataset(X=X, y=y, column_names=["x1", "x2"]), data_csv)
    sites_csv = tmp_path / "sites.csv"
    export_csv(
        Dataset(X=rng.uniform(size=(5, 2)), y=np.zeros(5), column_names=["x1", "x2"]),
        sites_csv,
    )
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "sampler": {"n_iter": 800, "burn_in": 200, "seed": 12},
                "select": {"low": 0.3, "high": 0.9, "q": 0.5, "v_folds": 3},
            }
        )
    )
    return {
        "data": str(data_csv),
        "sites": str(sites_csv),
        "config": str(cfg),
        "dir": tmp_path,
    }


def test_cli_sample_inclusion_select(tiny_pipeline, capsys):
    out1 = tiny_pipeline["dir"] / "run1"
    rc = main([
        "--config", tiny_pipeline["config"], "--output-dir", str(out1),
        "sample", "--data", tiny_pipeline["data"], "--response", "y",
    ])
    assert rc == 0
    chain_path = out1 / "chain.jsonl"
    assert chain_path.exists()
    assert (out1 / "run_meta.json").exists()

    out2 = tiny_pipeline["dir"] / "run2"
    rc = main([
        "--config", tiny_pipeline["config"], "--output-dir", str(out2),
        "inclusion", "--chain", str(chain_path),
    ])
    assert rc == 0
    report = json.loads((out2 / "inclusion_report.json").read_text())
    assert set(report) >= {"p_r", "p_c", "model_freqs", "map_model"}
    lines = (out2 / "inclusion_probs.csv").read_text().strip().splitlines()
    assert lines[0] == "part,column,probability"
    assert len(lines) == 1 + 2 * 2

    out3 = tiny_pipeline["dir"] / "run3"
    rc = main([
        "--config", tiny_pipeline["config"], "--output-dir", str(out3),
        "select", "--chain", str(chain_path),
        "--data", tiny_pipeline["data"], "--response", "y",
    ])
    assert rc == 0
    cv = json.loads((out3 / "cv_report.json").read_text())
    assert 0 <= cv["chosen"] < len(cv["candidates"])
    assert len(cv["candidates"]) <= 2 * 2
    assert (out3 / "cv_curve.csv").exists()
    meta = json.loads((out3 / "run_meta.json").read_text())
    fold_fits = len(cv["candidates"]) * meta["v_folds"]
    # each fold fit trains on the rows outside its fold
    rows = len(cv["candidates"]) * (meta["v_folds"] - 1) * ingest(tiny_pipeline["data"], "y").n
    assert meta["cv_workers"] == _workers(os.environ, len(os.sched_getaffinity(0)), fold_fits,
                                          rows, POOL_MIN_ROWS)
    assert 0.0 < meta["cv_s"] < meta["wall_s"]


def test_cli_run_meta_records_each_stage_wall_time(tiny_pipeline):
    cfg = ["--config", tiny_pipeline["config"], "--seed", "2"]
    root = tiny_pipeline["dir"]
    stages = {
        "simulate": ["simulate"],
        "sample": ["sample", "--data", tiny_pipeline["data"], "--response", "y"],
        "inclusion": ["inclusion", "--chain", str(root / "sample" / "chain.jsonl")],
    }
    for name, argv in stages.items():
        t0 = time.perf_counter()
        assert main(cfg + ["--output-dir", str(root / name)] + argv) == 0
        elapsed = time.perf_counter() - t0
        meta = json.loads((root / name / "run_meta.json").read_text())
        assert meta["command"] == name
        assert 0.0 < meta["wall_s"] <= elapsed


SCIPY_PARTS = ("scipy.linalg", "scipy.optimize", "scipy.special")

# run in a fresh interpreter: the scipy parts and multiprocessing (which only
# a pooled CV, fit or average loads) loaded after importing the CLI and after
# each stage, as one JSON line
IMPORT_PROBE = f"""
import json, sys
from gpselect.cli import main
loaded = lambda: [m for m in {SCIPY_PARTS + ("multiprocessing",)!r} if m in sys.modules]
stages = {{"import": loaded()}}
for name, argv in json.loads(sys.argv[1]).items():
    assert main(argv) == 0, name
    stages[name] = loaded()
print(json.dumps(stages))
"""


def test_cli_loads_scipy_only_in_the_commands_that_need_it(tiny_pipeline):
    root = tiny_pipeline["dir"]
    cfg = ["--config", tiny_pipeline["config"]]
    data = ["--data", tiny_pipeline["data"], "--response", "y"]
    chain = ["--chain", str(root / "sample" / "chain.jsonl")]
    assert main(cfg + ["--output-dir", str(root / "sample"), "sample"] + data) == 0
    (root / "model.json").write_text('{"gamma_r": [1, 0], "gamma_c": [1, 1]}')
    fit = cfg + ["--output-dir", str(root / "fit"), "fit", "--model", str(root / "model.json")]
    # the predict stages read a fit made here, and run before `fit` loads scipy.optimize
    assert main(fit + data) == 0
    predict = cfg + ["--output-dir", str(root / "predict"), "predict", "--sites",
                     tiny_pipeline["sites"]] + data
    stages = {
        "inclusion": cfg + ["--output-dir", str(root / "inclusion"), "inclusion"] + chain,
        "predict_mle": predict + ["--mode", "mle", "--fit", str(root / "fit" / "mle_fit.json")],
        "predict_average": predict + ["--mode", "average"] + chain,
        "fit": fit + data,
    }
    env = dict(os.environ, PYTHONPATH=str(Path(gpselect.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, json.dumps(stages)], env=env,
                          capture_output=True, text=True, check=True)
    loaded = json.loads(proc.stdout.splitlines()[-1])
    # the tiny chain and fit stay below the pools' floors: no multiprocessing
    assert loaded == {"import": [], "inclusion": [], "predict_mle": ["scipy.linalg"],
                      "predict_average": ["scipy.linalg"], "fit": list(SCIPY_PARTS)}
    meta = {name: json.loads((root / name / "run_meta.json").read_text())
            for name in ("inclusion", "fit")}
    assert meta["inclusion"]["import_s"] == 0.0
    assert 0.0 < meta["fit"]["import_s"] < meta["fit"]["wall_s"]


def test_cli_sample_reports_singular_rejects(tiny_pipeline, monkeypatch):
    # every 7th factorization fails, so run_meta.json must carry exactly the
    # tally kept here
    from gpselect import NumericalSingularityError, kernel

    factor = kernel.cholesky_with_jitter
    tally = {"calls": 0, "singular": 0}

    def flaky_factor(A):
        tally["calls"] += 1
        if tally["calls"] % 7 == 0:
            tally["singular"] += 1
            raise NumericalSingularityError("forced")
        return factor(A)

    monkeypatch.setattr(kernel, "cholesky_with_jitter", flaky_factor)
    out = tiny_pipeline["dir"] / "run"
    rc = main([
        "--config", tiny_pipeline["config"], "--output-dir", str(out),
        "sample", "--data", tiny_pipeline["data"], "--response", "y",
    ])
    assert rc == 0
    meta = json.loads((out / "run_meta.json").read_text())
    assert tally["singular"] > 0
    assert meta["singular_rejects"] == tally["singular"]
    assert "jittered_factors" not in meta
    # the per-move table covers all 800 iterations, burn-in included
    moves = meta["acceptance_by_flips"]
    assert list(moves) == ["0", "1", "2", "3+"]
    assert sum(m["proposed"] for m in moves.values()) == 800
    assert meta["acceptance_rate"] == sum(m["accepted"] for m in moves.values()) / 800


def test_cli_fit_and_predict_interpolates(tiny_pipeline):
    model_path = tiny_pipeline["dir"] / "model.json"
    model_path.write_text(json.dumps({"gamma_r": [1, 0], "gamma_c": [1, 1]}))
    fit_dir = tiny_pipeline["dir"] / "fit"
    rc = main([
        "--output-dir", str(fit_dir),
        "fit", "--data", tiny_pipeline["data"], "--response", "y",
        "--model", str(model_path), "--no-nugget",
    ])
    assert rc == 0
    fit = json.loads((fit_dir / "mle_fit.json").read_text())
    assert fit["lambda_hat"] == 0.0
    # 5 starts on the training rows; the worker count stays out of mle_fit.json
    n = ingest(tiny_pipeline["data"], "y").n
    meta = json.loads((fit_dir / "run_meta.json").read_text())
    assert meta["fit_workers"] == _workers(os.environ, len(os.sched_getaffinity(0)), 5, 5 * n,
                                           POOL_MIN_ROWS)
    assert "workers" not in fit
    # the reported values are those the best start's final point scored
    assert fit["neg_log_lik"] == min(start["objective"] for start in fit["starts"])

    # predicting at the training sites must reproduce the training responses
    pred_dir = tiny_pipeline["dir"] / "pred"
    rc = main([
        "--output-dir", str(pred_dir),
        "predict", "--mode", "mle",
        "--data", tiny_pipeline["data"], "--response", "y",
        "--sites", tiny_pipeline["data"], "--fit", str(fit_dir / "mle_fit.json"),
    ])
    assert rc == 0
    rows = (pred_dir / "predictions.csv").read_text().strip().splitlines()[1:]
    preds = np.array([float(r.split(",")[1]) for r in rows])
    truth = ingest(tiny_pipeline["data"], "y").y
    assert np.max(np.abs(preds - truth)) < 1e-6


def test_cli_predict_average(tiny_pipeline):
    out1 = tiny_pipeline["dir"] / "chainrun"
    assert main([
        "--config", tiny_pipeline["config"], "--output-dir", str(out1),
        "sample", "--data", tiny_pipeline["data"], "--response", "y",
    ]) == 0
    pred_dir = tiny_pipeline["dir"] / "avg"
    rc = main([
        "--config", tiny_pipeline["config"], "--output-dir", str(pred_dir),
        "predict", "--mode", "average",
        "--data", tiny_pipeline["data"], "--response", "y",
        "--sites", tiny_pipeline["sites"], "--chain", str(out1 / "chain.jsonl"),
    ])
    assert rc == 0
    lines = (pred_dir / "predictions.csv").read_text().strip().splitlines()
    assert lines[0] == "site,prediction,ensemble_size"
    assert len(lines) == 6
    # every draw is kept at the default threshold 0; a chain this small stays
    # below the averaging floor, so one process averages its runs
    meta = json.loads((pred_dir / "run_meta.json").read_text())
    chain = load_chain(out1 / "chain.jsonl")
    assert meta["distinct_draws"] == int(chain.run_starts().sum()) > 1
    assert meta["average_workers"] == 1


# run in a fresh interpreter whose OpenBLAS starts with one thread, with the
# averaging floor at 0 and one draw per block: a `predict --mode average`
# whose forked jobs end their processes at their first factor; prints the
# exit code of main(argv[1])
CLI_WORKER_DEATH_PROBE = """
import json, os, sys
from gpselect import kernel, predict
from gpselect.cli import main

predict.AVERAGE_MIN_WORK = 0
predict.CROSS_BLOCK_ELEMS = 800
parent, stack = os.getpid(), kernel.GpFactor.stack
kernel.GpFactor.stack = staticmethod(
    lambda *args: os._exit(1) if os.getpid() != parent else stack(*args))
print(main(json.loads(sys.argv[1])))
"""


def test_cli_reports_a_worker_that_dies_in_one_error_line(tiny_pipeline):
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("one CPU: the average runs in one process")
    root = tiny_pipeline["dir"]
    cfg = ["--config", tiny_pipeline["config"]]
    data = ["--data", tiny_pipeline["data"], "--response", "y"]
    assert main(cfg + ["--output-dir", str(root / "run"), "sample"] + data) == 0
    argv = cfg + ["--output-dir", str(root / "avg"), "predict", "--mode", "average",
                  "--sites", tiny_pipeline["sites"], "--chain", str(root / "run" / "chain.jsonl")]
    env = dict(os.environ, PYTHONPATH=str(Path(gpselect.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1")
    # a pool that waits for the lost jobs forever fails here on the timeout
    proc = subprocess.run([sys.executable, "-c", CLI_WORKER_DEATH_PROBE, json.dumps(argv + data)],
                          env=env, capture_output=True, text=True, check=True, timeout=60)
    assert proc.stdout.splitlines()[-1] == "1"
    [line] = proc.stderr.splitlines()
    assert json.loads(line)["error"] == "WorkerProcessError"
    assert not (root / "avg" / "predictions.csv").exists()


def _every_command(tiny_pipeline, root: Path) -> dict:
    """command label -> argv after the global flags, for one run of every
    subcommand into root, both predict modes and benchmark --simulate."""
    data = ["--data", tiny_pipeline["data"], "--response", "y"]
    sites = ["--sites", tiny_pipeline["sites"]]
    chain = ["--chain", str(root / "sample" / "chain.jsonl")]
    model = tiny_pipeline["dir"] / "model.json"
    model.write_text(json.dumps({"gamma_r": [1, 0], "gamma_c": [1, 1]}))
    return {
        "simulate": ["simulate"],
        "sample": ["sample"] + data,
        "inclusion": ["inclusion"] + chain,
        "select": ["select"] + chain + data,
        "fit": ["fit", "--model", str(model)] + data,
        "predict_mle": ["predict", "--mode", "mle", "--fit", str(root / "fit" / "mle_fit.json")]
        + data + sites,
        "predict_average": ["predict", "--mode", "average"] + chain + data + sites,
        "benchmark": ["benchmark", "--simulate"],
    }


def test_cli_determinism_byte_identical(tiny_pipeline, capsys):
    cfg = tiny_pipeline["dir"] / "cfg_all.json"
    cfg.write_text(json.dumps({
        **json.loads(Path(tiny_pipeline["config"]).read_text()),
        "simulate": {"n_train": 12, "n_validation": 10, "lhd_restarts": 1},
    }))
    roots = [tiny_pipeline["dir"] / "det1", tiny_pipeline["dir"] / "det2"]
    for root in roots:
        for label, argv in _every_command(tiny_pipeline, root).items():
            rc = main(["--config", str(cfg), "--output-dir", str(root / label)] + argv)
            out, err = capsys.readouterr()
            assert rc == 0 and err == "", label
            paths = [v for v in json.loads(out).values() if isinstance(v, str)]
            assert paths and all(Path(v).is_file() for v in paths), label
    files = sorted(p.relative_to(roots[0]) for p in roots[0].rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(roots[1]) for p in roots[1].rglob("*") if p.is_file())
    assert len(files) == 20
    for rel in files:
        if rel.name != "run_meta.json":
            assert (roots[0] / rel).read_bytes() == (roots[1] / rel).read_bytes(), rel


def test_cli_seed_replaces_the_config_seed(tiny_pipeline):
    root = tiny_pipeline["dir"]
    data = ["--data", tiny_pipeline["data"], "--response", "y"]
    config = {"sampler": {"n_iter": 800, "burn_in": 200},
              "select": {"low": 0.3, "high": 0.9, "q": 0.5, "v_folds": 3},
              "simulate": {"n_train": 12, "n_validation": 10, "lhd_restarts": 1}}
    for seed in (7, 12):
        config["sampler"]["seed"] = seed
        (root / f"cfg{seed}.json").write_text(json.dumps(config))
    assert main(["--config", str(root / "cfg7.json"), "--output-dir", str(root / "by_config"),
                 "sample"] + data) == 0
    commands = {"simulate": ["simulate"], "sample": ["sample"] + data,
                "select": ["select", "--chain", str(root / "sample" / "chain.jsonl")] + data}
    for name, argv in commands.items():
        assert main(["--config", str(root / "cfg12.json"), "--seed", "7",
                     "--output-dir", str(root / name)] + argv) == 0
        assert json.loads((root / name / "run_meta.json").read_text())["seed"] == 7
    assert ((root / "sample" / "chain.jsonl").read_bytes()
            == (root / "by_config" / "chain.jsonl").read_bytes())


def test_cli_simulate_row_counts(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"simulate": {"n_train": 35, "n_validation": 100,
                                            "lhd_restarts": 1}}))
    out = tmp_path / "sim"
    rc = main(["--config", str(cfg), "--seed", "3", "--output-dir", str(out), "simulate"])
    assert rc == 0
    train = (out / "train.csv").read_text().strip().splitlines()
    val = (out / "validation.csv").read_text().strip().splitlines()
    assert len(train) == 36 and len(val) == 101
    assert train[0] == "x1,x2,x3,x4,x5,y"
    ds = ingest(out / "train.csv", "y")
    assert ds.p == 5 and ds.n == 35
    assert ds.X_raw.min() >= -0.75 and ds.X_raw.max() <= 0.75


def test_cli_benchmark_five_rows(tmp_path):
    rng = np.random.default_rng(23)
    X = np.empty((20, 2))
    X[:, 0] = (rng.permutation(20) + 0.5) / 20
    X[:, 1] = (rng.permutation(20) + 0.5) / 20
    y = 0.5 + X[:, 0] + np.sin(5 * X[:, 1]) + rng.normal(scale=0.05, size=20)
    data_csv = tmp_path / "d.csv"
    export_csv(Dataset(X=X, y=y, column_names=["x1", "x2"]), data_csv)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sampler": {"n_iter": 600, "burn_in": 100, "seed": 2}}))
    out = tmp_path / "bench"
    rc = main([
        "--config", str(cfg), "--output-dir", str(out),
        "benchmark", "--data", str(data_csv), "--response", "y",
        "--holdout-fraction", "0.3",
    ])
    assert rc == 0
    lines = (out / "benchmark.csv").read_text().strip().splitlines()
    assert lines[0] == "method,rmspe"
    assert [l.split(",")[0] for l in lines[1:]] == [
        "ok", "uk", "averaging", "posterior_inclusion", "map",
    ]
    assert all(np.isfinite(float(l.split(",")[1])) for l in lines[1:])
    # OK is all-spatial/no-linear, UK all-spatial/all-linear, by definition
    detail = json.loads((out / "benchmark_models.json").read_text())
    assert detail["models"]["ok"] == {"gamma_r": [0, 0], "gamma_c": [1, 1]}
    assert detail["models"]["uk"] == {"gamma_r": [1, 1], "gamma_c": [1, 1]}


def test_cli_io_section_supplies_paths(tiny_pipeline):
    cfg_path = tiny_pipeline["dir"] / "cfg_io.json"
    cfg_path.write_text(
        json.dumps(
            {
                "sampler": {"n_iter": 400, "burn_in": 100, "seed": 9},
                "io": {"data": tiny_pipeline["data"], "response": "y"},
            }
        )
    )
    out = tiny_pipeline["dir"] / "io_run"
    rc = main(["--config", str(cfg_path), "--output-dir", str(out), "sample"])
    assert rc == 0
    assert (out / "chain.jsonl").exists()


def test_cli_missing_input_is_validation_error(tmp_path, capsys):
    rc = main(["--output-dir", str(tmp_path / "o"), "sample"])
    assert rc == 1
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert "needs --data" in record["message"]


# each command's required flags besides its inputs; the input checks come first
OTHER_FLAGS = {"select": ["--chain", "CHAIN"], "fit": ["--model", "MODEL"],
               "predict": ["--mode", "mle"]}
INPUTS = [(command, flag) for command, (_, _, inputs) in COMMANDS.items() for flag in inputs]


@pytest.mark.parametrize("command, flag", INPUTS, ids=[f"{c}-{f}" for c, f in INPUTS])
def test_cli_each_input_flag_falls_back_to_io_or_is_required(tiny_pipeline, capsys, command,
                                                             flag):
    values = {"data": tiny_pipeline["data"], "response": "y", "sites": tiny_pipeline["sites"]}
    argv = [command, *OTHER_FLAGS.get(command, ()),
            *(a for f in COMMANDS[command][2] if f != flag for a in (f"--{f}", values[f]))]
    out = tiny_pipeline["dir"] / "out"
    assert main(["--output-dir", str(out)] + argv) == 1
    stdout, stderr = capsys.readouterr()
    message = ("benchmark needs either --simulate or --data/--response" if command == "benchmark"
               else f"'{command}' needs --{flag} (or io.{flag} in the config)")
    assert stdout == "" and json.loads(stderr) == {"error": "ValidationError", "message": message}
    assert not out.exists()
    cfg_path = tiny_pipeline["dir"] / "io.json"
    cfg_path.write_text(json.dumps({"io": {flag: values[flag]}}))
    args = _build_parser().parse_args(argv)
    _resolve_args(args, RunConfig.from_json(cfg_path))
    assert getattr(args, flag) == values[flag]


def test_cli_subcommands_keep_their_option_strings_and_help_lines():
    expected = {
        "simulate": ("generate synthetic train/validation CSVs", set()),
        "sample": ("run the posterior sampler", {"--data", "--response"}),
        "inclusion": ("inclusion probabilities from a chain", {"--chain"}),
        "select": ("candidate ladder + cross-validation", {"--chain", "--data", "--response"}),
        "fit": ("maximum-likelihood fit of a fixed model",
                {"--data", "--response", "--model", "--no-nugget"}),
        "predict": ("predict at new sites", {"--mode", "--data", "--response", "--sites",
                                             "--fit", "--chain", "--denoise-threshold"}),
        "benchmark": ("five-method RMSPE comparison table",
                      {"--data", "--response", "--simulate", "--holdout-fraction",
                       "--split-seed"}),
    }
    parser = _build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(COMMANDS) == set(sub.choices)
    helps = {a.dest: a.help for a in sub._choices_actions}
    options = lambda p: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
    assert {name: (helps[name], options(sp)) for name, sp in sub.choices.items()} == expected
    assert options(parser) == {"--config", "--seed", "--threads", "--output-dir",
                               "--no-standardize", "-v", "--verbose"}


def test_cli_error_exit_codes(tmp_path, capsys):
    rc = main(["--output-dir", str(tmp_path / "x"),
               "sample", "--data", str(tmp_path / "missing.csv"), "--response", "y"])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()[-1]
    record = json.loads(err)
    assert "error" in record and "message" in record


_CHAIN_LINE = {"iter": 0, "gamma_r": [0, 0], "gamma_c": [0, 0], "beta0": 0.0,
               "beta": [0.0, 0.0], "rho": [1.0, 1.0], "sigma2_z": 1.0, "lambda": 0.1,
               "omega_r": 0.5, "omega_c": 0.5, "log_post": -1.0, "accepted": True}


def _json_line(record: dict) -> str:
    return json.dumps(record, separators=(",", ":"))


def _chain_line_without(key: str) -> str:
    return _json_line({k: v for k, v in _CHAIN_LINE.items() if k != key})


_FIT = {"gamma_r": [1, 0], "gamma_c": [1, 1], "beta0_hat": 0.0, "beta_hat": [1.0, 0.0],
        "rho_hat": [0.5, 0.5], "lambda_hat": 0.0, "sigma2_hat": 1.0, "neg_log_lik": 0.0}


def _repeated_row_data(tmp_path) -> str:
    """A data CSV whose rows 0 and 1 coincide, so R is singular at lambda = 0."""
    rng = np.random.default_rng(5)
    X = rng.uniform(size=(8, 2))
    X[1] = X[0]
    path = tmp_path / "repeated.csv"
    export_csv(Dataset(X=X, y=rng.normal(size=8), column_names=["x1", "x2"]), path)
    return str(path)


@pytest.mark.parametrize("mode, name, text", [
    ("mle", "fit.json", _json_line(_FIT)),
    # lambda = 1e-20 lies in the prior's support, but 1 + 1e-20 == 1: the
    # diagonal is that of a zero nugget
    ("average", "chain.jsonl", _json_line({**_CHAIN_LINE, "gamma_c": [1, 1], "rho": [0.5, 0.5]})
     + "\n" + _json_line({**_CHAIN_LINE, "iter": 1, "gamma_c": [1, 1], "rho": [0.5, 0.5],
                          "lambda": 1e-20})),
], ids=["zero_nugget_fit", "chain_draw_with_zero_effective_nugget"])
def test_cli_predict_exits_2_where_r_plus_lambda_i_does_not_factor(tmp_path, capsys,
                                                                   mode, name, text):
    # one Cholesky and no diagonal jitter: a zero (or negligible) nugget on
    # data with a repeated row is a numerical failure, not a prediction with
    # a nugget nobody declared; one such draw of a chain fails the whole average
    data = _repeated_row_data(tmp_path)
    path = tmp_path / name
    path.write_text(text + "\n")
    out = tmp_path / "out"
    rc = main(["--output-dir", str(out), "predict", "--mode", mode, "--data", data,
               "--response", "y", "--sites", data,
               "--fit" if mode == "mle" else "--chain", str(path)])
    assert rc == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "NumericalSingularityError"
    assert not out.exists()


@pytest.mark.parametrize("name, mode, text", [
    ("fit.json", "mle", _json_line({k: v for k, v in _FIT.items() if k != "beta_hat"})),
    ("chain.jsonl", "average", _chain_line_without("gamma_c")),
    ("chain.jsonl", "average", _chain_line_without("iter")),
    ("chain.jsonl", "average", "5"),
    ("fit.json", "mle", "{not json"),
    ("chain.jsonl", "average", "{not json"),
    ("chain.jsonl", "average", _json_line({**_CHAIN_LINE, "gamma_r": [0, 1.5]})),
    ("chain.jsonl", "average", _json_line({**_CHAIN_LINE, "gamma_r": [0, 300]})),
    ("chain.jsonl", "average", _json_line({**_CHAIN_LINE, "beta": [0.0, "x"]})),
    ("chain.jsonl", "average", _json_line({**_CHAIN_LINE, "beta0": None})),
    ("chain.jsonl", "average", _json_line(_CHAIN_LINE) + "\n"
     + _json_line({**_CHAIN_LINE, "iter": 1, "beta": [0.0, 0.0, 0.0]})),
    ("chain.jsonl", "average", json.dumps({**_CHAIN_LINE, "iter": 1.5})),
    ("fit.json", "mle", _json_line({**_FIT, "rho_hat": [1.5, 0.5]})),
    ("fit.json", "mle", _json_line({**_FIT, "beta0_hat": float("nan")})),
    ("fit.json", "mle", _json_line({**_FIT, "gamma_r": [0, 0], "beta_hat": [3.0, 0.0]})),
    ("fit.json", "mle", _json_line({**_FIT, "lambda_hat": -5.0})),
    ("fit.json", "mle", _json_line({**_FIT, "beta_hat": [1.0, 0.0, 0.0]})),
    ("chain.jsonl", "average", _json_line({**_CHAIN_LINE, "beta": [0.5, 0.0]})),
    ("chain.jsonl", "average", _json_line({**_CHAIN_LINE, "rho": [1.0, 0.5]})),
    ("chain.jsonl", "average", _json_line({**_CHAIN_LINE, "sigma2_z": -1.0})),
    ("chain.jsonl", "average", _json_line({**_CHAIN_LINE, "omega_r": 1.5})),
    ("chain.jsonl", "average", _json_line({**_CHAIN_LINE, "gamma_c": [1, 0], "rho": [0.0, 1.0]})),
    ("chain.jsonl", "average", _json_line(_CHAIN_LINE) + "\n"
     + _json_line({**_CHAIN_LINE, "iter": 1, "lambda": 0.0})),
    ("chain.jsonl", "average", _json_line({**_CHAIN_LINE, "beta0": float("nan")})),
    ("fit.json", "mle", _json_line({**_FIT, "beta0_hat": 10**400})),
    ("chain.jsonl", "average", _json_line({**_CHAIN_LINE, "iter": 10**20})),
    # more digits than Python converts to an int by default
    ("fit.json", "mle", _json_line(_FIT).replace('"beta0_hat":0.0', '"beta0_hat":' + "1" * 5000)),
    ("chain.jsonl", "average",
     _json_line(_CHAIN_LINE).replace('"beta0":0.0', '"beta0":' + "1" * 5000)),
    ("fit.json", "mle", _json_line({**_FIT, "beta0_hat": True})),
    ("fit.json", "mle", _json_line({**_FIT, "lambda_hat": "0.1"})),
    ("fit.json", "mle", _json_line({**_FIT, "beta_hat": ["1.0", 0.0]})),
], ids=["fit_without_beta_hat", "chain_line_without_gamma_c", "chain_line_without_iter",
        "chain_line_not_an_object", "fit_not_json", "chain_not_json",
        "chain_indicator_not_0_or_1", "chain_indicator_out_of_int8", "chain_beta_not_a_number",
        "chain_beta0_null", "chain_vector_length_differs_between_lines",
        "chain_iter_not_an_integer", "fit_rho_above_1", "fit_beta0_nan",
        "fit_inactive_beta_not_0", "fit_lambda_negative", "fit_beta_hat_longer_than_the_data",
        "chain_inactive_beta_not_0", "chain_inactive_rho_not_1", "chain_sigma2_z_negative",
        "chain_omega_above_1", "chain_active_rho_0", "chain_lambda_0_on_line_2",
        "chain_beta0_nan", "fit_beta0_beyond_every_double", "chain_iter_beyond_int64",
        "fit_integer_of_5000_digits", "chain_integer_of_5000_digits", "fit_beta0_true",
        "fit_lambda_a_string", "fit_beta_hat_strings"])
def test_cli_malformed_input_file_is_one_line_validation_error(tiny_pipeline, capsys,
                                                               name, mode, text):
    path = tiny_pipeline["dir"] / name
    path.write_text(text + "\n")
    rc = main(["--output-dir", str(tiny_pipeline["dir"] / "out"), "predict", "--mode", mode,
               "--data", tiny_pipeline["data"], "--response", "y",
               "--sites", tiny_pipeline["sites"], "--fit" if mode == "mle" else "--chain",
               str(path)])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    error = json.loads(err[0])
    assert error["error"] == "ValidationError" and str(path) in error["message"]
    if mode == "average":  # the last line is the malformed one
        assert f"line {len(text.splitlines())}" in error["message"]


@pytest.mark.parametrize("gamma_r", [[10**20, 0], [0.9, 1], ["1", "0"], [True, False]],
                         ids=["huge_int", "fraction", "strings", "booleans"])
def test_cli_model_indicator_beyond_every_integer_type_is_a_validation_error(tiny_pipeline,
                                                                             capsys, gamma_r):
    # a model file's indicators are 0 or 1 as JSON numbers, never coerced to them
    path = tiny_pipeline["dir"] / "model.json"
    path.write_text(json.dumps({"gamma_r": gamma_r, "gamma_c": [1, 1]}))
    out = tiny_pipeline["dir"] / "out"
    rc = main(["--output-dir", str(out), "fit", "--model", str(path),
               "--data", tiny_pipeline["data"], "--response", "y"])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    error = json.loads(err[0])
    assert error["error"] == "ValidationError" and str(path) in error["message"]
    assert not out.exists()


@pytest.mark.parametrize("value", [0.5, 2, True, "0.5", None, 10**400, math.nan],
                         ids=["float", "int", "true", "string", "null", "beyond_every_double",
                              "nan"])
def test_config_chain_and_fit_readers_accept_the_same_numbers(tmp_path, value):
    # one scalar as a config float key, a chain line's beta0 and a fit's beta0_hat
    files = {"cfg.json": json.dumps({"prior": {"tau": value}}),
             "chain.jsonl": json.dumps({**_CHAIN_LINE, "beta0": value}),
             "fit.json": json.dumps({**_FIT, "beta0_hat": value})}
    readers = {"cfg.json": RunConfig.from_json, "chain.jsonl": load_chain,
               "fit.json": lambda path: _load_model_file(path, MleFit.from_dict, "a fit", 2)}
    accepted = []
    for name, text in files.items():
        (tmp_path / name).write_text(text + "\n")
        try:
            readers[name](tmp_path / name)
            accepted.append(True)
        except ValidationError:
            accepted.append(False)
    assert accepted == [are_numbers([value])] * 3
    assert are_numbers([value]) == (value in (0.5, 2))


@pytest.mark.parametrize("argv", [
    ["inclusion"],
    ["select", "--data", "DATA", "--response", "y"],
    ["predict", "--mode", "average", "--denoise-threshold", "0.4", "--data", "DATA",
     "--response", "y", "--sites", "SITES"],
], ids=["inclusion", "select", "predict_average"])
def test_each_chain_command_counts_the_chain_models_once(tiny_pipeline, monkeypatch, argv):
    # two models, 2 draws and 1 draw: a threshold of 0.4 keeps the first
    chain = tiny_pipeline["dir"] / "chain.jsonl"
    chain.write_text("".join(_json_line({**_CHAIN_LINE, "iter": i, **model}) + "\n"
                             for i, model in enumerate([{}, {}, {"gamma_c": [1, 0],
                                                                 "rho": [0.5, 1.0]}])))
    model_counts, calls = Chain.model_counts, []
    monkeypatch.setattr(Chain, "model_counts", lambda self: calls.append(1) or model_counts(self))
    inputs = {"DATA": tiny_pipeline["data"], "SITES": tiny_pipeline["sites"]}
    out = tiny_pipeline["dir"] / "out"
    assert main(["--config", tiny_pipeline["config"], "--output-dir", str(out),
                 *(inputs.get(arg, arg) for arg in argv), "--chain", str(chain)]) == 0
    assert len(calls) == 1
    if argv[0] == "predict":
        rows = (out / "predictions.csv").read_text().splitlines()
        assert rows[0] == "site,prediction,ensemble_size"
        assert {row.split(",")[2] for row in rows[1:]} == {"2"}


def test_cli_chain_file_without_draws_is_a_validation_error(tmp_path, capsys):
    path = tmp_path / "chain.jsonl"
    path.write_text("\n  \n\n")
    out = tmp_path / "out"
    assert main(["--output-dir", str(out), "inclusion", "--chain", str(path)]) == 1
    stdout, stderr = capsys.readouterr()
    assert stdout == "" and json.loads(stderr) == {
        "error": "ValidationError", "message": f"{path}: chain file holds no draws"}
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--config", "--model", "--fit"])
def test_cli_missing_json_input_file_exits_1_naming_it(tiny_pipeline, capsys, flag):
    missing = str(tiny_pipeline["dir"] / "missing.json")
    data = ["--data", tiny_pipeline["data"], "--response", "y"]
    argv = {"--config": ["--config", missing, "simulate"],
            "--model": ["fit", "--model", missing, *data],
            "--fit": ["predict", "--mode", "mle", "--fit", missing, *data,
                      "--sites", tiny_pipeline["sites"]]}[flag]
    out = tiny_pipeline["dir"] / "out"
    assert main(["--output-dir", str(out), *argv]) == 1
    stdout, stderr = capsys.readouterr()
    err = stderr.splitlines()
    assert stdout == "" and len(err) == 1
    error = json.loads(err[0])
    # the config fails as every other missing input file does
    assert error["error"] == "FileNotFoundError" and missing in error["message"]
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["predict", "--mode", "mle", "--data", "DATA", "--response", "y", "--sites", "SITES"],
     "mode 'mle' requires a fit file"),
    (["predict", "--mode", "average", "--data", "DATA", "--response", "y", "--sites", "SITES"],
     "mode 'average' requires a chain file"),
    (["benchmark"], "benchmark needs either --simulate or --data/--response"),
    (["fit", "--model", "MISSING", "--data", "DATA", "--response", "y"], "MISSING"),
    (["inclusion", "--chain", "MISSING"], "MISSING"),
    (["--threads", "0", "sample", "--data", "DATA", "--response", "y"],
     "--threads must be 1 (cross-validation sets its own worker processes), got 0"),
    (["--threads", "2", "select", "--chain", "MISSING", "--data", "DATA", "--response", "y"],
     "--threads must be 1 (cross-validation sets its own worker processes), got 2"),
], ids=["predict_mle_without_fit", "predict_average_without_chain", "benchmark_without_input",
        "fit_model_missing", "inclusion_chain_missing", "threads_zero", "threads_two"])
def test_cli_failure_after_the_config_loads_writes_nothing(tiny_pipeline, capsys, argv,
                                                          message):
    paths = {"DATA": tiny_pipeline["data"], "SITES": tiny_pipeline["sites"],
             "MISSING": str(tiny_pipeline["dir"] / "missing.json")}
    out = tiny_pipeline["dir"] / "out"
    rc = main(["--config", tiny_pipeline["config"], "--output-dir", str(out)]
              + [paths.get(a, a) for a in argv])
    assert rc == 1
    stdout, stderr = capsys.readouterr()
    assert stdout == ""
    err = stderr.splitlines()
    assert len(err) == 1 and paths.get(message, message) in json.loads(err[0])["message"]
    assert not out.exists()


def test_output_lock_blocks_concurrent_writes(tmp_path):
    from gpselect.cli import output_lock

    target = tmp_path / "out"
    with output_lock(target):
        with pytest.raises(ValidationError, match="locked"):
            with output_lock(target):
                pass
    # released afterwards
    with output_lock(target):
        pass


def test_cli_sample_rejects_a_config_that_stores_no_draws(tiny_pipeline, capsys):
    # burn_in + thin > n_iter: the first stored iteration would be 11 of 0-9
    cfg = tiny_pipeline["dir"] / "no_draws.json"
    cfg.write_text(json.dumps({"sampler": {"n_iter": 10, "burn_in": 5, "thin": 7}}))
    out = tiny_pipeline["dir"] / "run"
    rc = main(["--config", str(cfg), "--output-dir", str(out),
               "sample", "--data", tiny_pipeline["data"], "--response", "y"])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "burn_in + thin <= n_iter" in json.loads(err[0])["message"]
    assert not out.exists()
