import json
import os
import time

import numpy as np
import pytest

from gpselect import Dataset, ValidationError, export_csv, ingest
from gpselect.cli import RunConfig, main
from gpselect.data import read_sites_csv, split_rows


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


def test_cli_sample_reports_singular_and_jittered_factors(tiny_pipeline, monkeypatch):
    # every 5th factorization reports jitter and every 7th fails outright, so
    # run_meta.json must carry exactly the tallies kept here
    from gpselect import NumericalSingularityError, kernel

    factor = kernel.cholesky_with_jitter
    tally = {"calls": 0, "jittered": 0, "singular": 0}

    def flaky_factor(A):
        tally["calls"] += 1
        if tally["calls"] % 7 == 0:
            tally["singular"] += 1
            raise NumericalSingularityError("forced", jitters=kernel.JITTER_LADDER)
        L, jitter = factor(A)
        if tally["calls"] % 5 == 0:
            tally["jittered"] += 1
            jitter = 1e-10
        return L, jitter

    monkeypatch.setattr(kernel, "cholesky_with_jitter", flaky_factor)
    out = tiny_pipeline["dir"] / "run"
    rc = main([
        "--config", tiny_pipeline["config"], "--output-dir", str(out),
        "sample", "--data", tiny_pipeline["data"], "--response", "y",
    ])
    assert rc == 0
    meta = json.loads((out / "run_meta.json").read_text())
    assert tally["singular"] > 0 and tally["jittered"] > 0
    assert meta["singular_rejects"] == tally["singular"]
    assert meta["jittered_factors"] == tally["jittered"]


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


def test_cli_determinism_byte_identical(tiny_pipeline):
    d1 = tiny_pipeline["dir"] / "det1"
    d2 = tiny_pipeline["dir"] / "det2"
    for d in (d1, d2):
        rc = main([
            "--config", tiny_pipeline["config"], "--output-dir", str(d),
            "sample", "--data", tiny_pipeline["data"], "--response", "y",
        ])
        assert rc == 0
    assert (d1 / "chain.jsonl").read_bytes() == (d2 / "chain.jsonl").read_bytes()


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


def test_cli_error_exit_codes(tmp_path, capsys):
    rc = main(["--output-dir", str(tmp_path / "x"),
               "sample", "--data", str(tmp_path / "missing.csv"), "--response", "y"])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()[-1]
    record = json.loads(err)
    assert "error" in record and "message" in record


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
