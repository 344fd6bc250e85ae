import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from gpselect import (
    Dataset,
    EmptyEnsembleError,
    GpFactor,
    ModelIndicator,
    NumericalSingularityError,
    OptimizationFailureError,
    ParameterState,
    PredictionRequest,
    PriorConfig,
    SamplerConfig,
    conditional_mean,
    fit_mle,
    kernel,
    maximin_lhd,
    model_average,
    predict_mle,
    run_chain,
    sim_response,
)
from gpselect import predict
from gpselect.predict import (
    LOG_LAMBDA_BOUNDS,
    RHO_BOUNDS,
    SIGMA2_DEGENERATE,
    MleFit,
    _concentrated_gls,
)

from oracles import dense_corr, dense_gls, profile_objective, random_dataset, random_state


def test_empty_request_gives_empty_vector(small_data):
    _, state = random_state(np.random.default_rng(0), 2)
    req = PredictionRequest(np.zeros((0, 2)))
    assert conditional_mean(small_data, state, req).shape == (0,)


def test_interpolation_at_zero_nugget(small_data):
    _, state = random_state(np.random.default_rng(1), 2)
    state.lam = 0.0
    state.rho = np.array([0.3, 0.5])
    req = PredictionRequest(small_data.X)
    pred = conditional_mean(small_data, state, req)
    assert np.max(np.abs(pred - small_data.y)) < 1e-8


def test_zero_residual_kills_spatial_term(rng):
    # y generated exactly from the trend: prediction is the trend everywhere
    X = rng.uniform(size=(12, 3))
    beta = np.array([2.0, -1.0, 0.5])
    y = 1.5 + X @ beta
    data = Dataset(X=X, y=y, column_names=["a", "b", "c"])
    _, state = random_state(rng, 3)
    state.beta0 = 1.5
    state.beta = beta
    X_new = rng.uniform(size=(7, 3))
    pred = conditional_mean(data, state, PredictionRequest(X_new))
    assert pred == pytest.approx(1.5 + X_new @ beta, abs=1e-9)


def test_model_average_single_draw_equals_conditional_mean(small_data):
    cfg = SamplerConfig(n_iter=11, burn_in=10, seed=2)
    chain = run_chain(small_data, PriorConfig(), cfg)
    assert len(chain) == 1
    req = PredictionRequest(np.random.default_rng(0).uniform(size=(4, 2)))
    avg = model_average(chain, small_data, req)
    single = conditional_mean(small_data, chain.state(0), req)
    assert avg == pytest.approx(single, rel=1e-12)


def test_model_average_idempotent_on_identical_draws(small_data):
    cfg = SamplerConfig(n_iter=60, burn_in=10, seed=3)
    chain = run_chain(small_data, PriorConfig(), cfg)
    # freeze the chain onto one state repeated
    for name in ("gamma_r", "gamma_c", "beta0", "beta", "rho", "sigma2_z",
                 "lam", "omega_r", "omega_c"):
        arr = getattr(chain, name)
        arr[:] = arr[0]
    req = PredictionRequest(np.random.default_rng(1).uniform(size=(3, 2)))
    avg = model_average(chain, small_data, req)
    single = conditional_mean(small_data, chain.state(0), req)
    assert avg == pytest.approx(single, rel=1e-12)


def test_model_average_is_arithmetic_mean(small_data):
    cfg = SamplerConfig(n_iter=200, burn_in=50, seed=4)
    chain = run_chain(small_data, PriorConfig(), cfg)
    req = PredictionRequest(np.random.default_rng(2).uniform(size=(5, 2)))
    avg = model_average(chain, small_data, req, denoise_threshold=0.0)
    brute = np.mean(
        [conditional_mean(small_data, chain.state(i), req) for i in range(len(chain))],
        axis=0,
    )
    assert avg == pytest.approx(brute, rel=1e-10)


def test_model_average_denoise_filters_rare_models(small_data):
    cfg = SamplerConfig(n_iter=400, burn_in=50, seed=5)
    chain = run_chain(small_data, PriorConfig(), cfg)
    from gpselect import inclusion_probabilities

    freqs = inclusion_probabilities(chain).model_freqs
    thresh = sorted(freqs.values())[-1]  # keep only the most frequent model
    avg = model_average(chain, small_data, req := PredictionRequest(small_data.X[:2]), thresh)
    keep = [i for i in range(len(chain)) if freqs[chain.indicator(i).key()] >= thresh]
    brute = np.mean([conditional_mean(small_data, chain.state(i), req) for i in keep], axis=0)
    assert avg == pytest.approx(brute, rel=1e-10)


@pytest.mark.parametrize("drop_a_model", [False, True], ids=["all_draws", "denoised"])
def test_model_average_gives_one_chain_the_same_runs_whoever_built_it(
        small_data, tmp_path, drop_a_model):
    """A chain in memory, saved and loaded, relaid with spaces and its keys
    reversed, and relaid on every other line only: the same rows and run_of,
    and the same average bit for bit."""
    from gpselect.sampler import load_chain, save_chain

    chain = run_chain(small_data, PriorConfig(), SamplerConfig(n_iter=400, burn_in=50, seed=5))
    assert len(chain.beta0) < len(chain)  # some runs hold several draws
    save_chain(chain, saved := tmp_path / "chain.jsonl")
    compact = saved.read_text(encoding="utf-8").splitlines()
    spaced = [json.dumps(dict(reversed(json.loads(line).items()))) for line in compact]
    (relaid := tmp_path / "relaid.jsonl").write_text(
        "".join(line + "\n" for line in spaced), encoding="utf-8")
    # neighbouring lines of a run differ in text, not in bits: load_chain
    # merges their rows
    (mixed := tmp_path / "mixed.jsonl").write_text(
        "".join(pair[k % 2] + "\n" for k, pair in enumerate(zip(compact, spaced))),
        encoding="utf-8")
    chains = [chain, load_chain(saved), load_chain(relaid), load_chain(mixed)]
    _, _, counts = chain.model_counts()
    threshold = counts.min() / len(chain) + 1e-9 if drop_a_model else 0.0
    keep = predict.denoise_mask(chain, threshold)
    assert keep.all() != drop_a_model and keep.any()
    req = PredictionRequest(np.random.default_rng(7).uniform(size=(6, 2)))
    results = [predict._average_and_mask(c, small_data, req, threshold) for c in chains]
    averages = [(mean.tobytes(), size, distinct) for mean, size, _, distinct in results]
    assert averages[1:] == averages[:1] * 3
    assert averages[0][2] == keep.sum()
    for c in chains[1:]:
        for name in (*oracles.STATE_FIELDS, "run_of"):
            assert np.array_equal(getattr(c, name), getattr(chain, name)), name


def test_model_average_all_filtered_raises(small_data):
    cfg = SamplerConfig(n_iter=40, burn_in=10, seed=6)
    chain = run_chain(small_data, PriorConfig(), cfg)
    with pytest.raises(EmptyEnsembleError):
        model_average(chain, small_data, PredictionRequest(small_data.X[:1]), 0.999999)


def test_gls_matches_dense_oracle(rng):
    for _ in range(10):
        data = random_dataset(rng, n=12, p=3)
        ind, state = random_state(rng, 3)
        lam = float(rng.uniform(0.05, 0.5))
        f = GpFactor(kernel.pairwise_sqdiffs(data.X), state.rho, lam)
        trend = predict._trend_matrix(data.X, ind.gamma_r)
        coef, sigma2, _, _ = _concentrated_gls(data.y, trend, f)
        R = dense_corr(data.X, state.rho)
        A = R + lam * np.eye(data.n)
        cols = [np.ones((data.n, 1))]
        active = np.where(ind.gamma_r == 1)[0]
        if active.size:
            cols.append(data.X[:, active])
        F = np.hstack(cols)
        coef_o, sigma2_o = dense_gls(data.y, F, A)
        assert coef == pytest.approx(coef_o, abs=1e-8)
        assert sigma2 == pytest.approx(sigma2_o, rel=1e-8)


def test_fit_mle_nonfinite_objective_reports_trace(rng):
    from gpselect import OptimizationFailureError

    X = rng.uniform(size=(8, 2))
    y = np.full(8, np.inf)  # no candidate can give a finite objective
    data = Dataset(X=X, y=y, column_names=["a", "b"])
    with pytest.raises(OptimizationFailureError) as err:
        fit_mle(data, ModelIndicator([0, 0], [1, 1]), n_starts=2)
    assert len(err.value.trace) > 0


def test_fit_mle_zero_residual_degeneracy(rng):
    X = rng.uniform(size=(10, 2))
    y = 0.7 + 2.0 * X[:, 0]
    data = Dataset(X=X, y=y, column_names=["a", "b"])
    model = ModelIndicator([1, 0], [0, 0])
    fit = fit_mle(data, model, lambda_allowed=False)
    assert fit.degenerate
    assert fit.sigma2_hat == pytest.approx(1e-12)


def test_fit_mle_beats_grid_oracle_1d():
    r = np.random.default_rng(8)
    X = ((r.permutation(15) + 0.5) / 15).reshape(-1, 1)
    y = np.sin(4.0 * X[:, 0]) + 0.1 * r.normal(size=15)
    data = Dataset(X=X, y=y, column_names=["x1"])
    model = ModelIndicator([0], [1])
    fit = fit_mle(data, model, lambda_allowed=True)
    grid_vals = []
    for rho in np.linspace(1e-6, 1 - 1e-6, 50):
        for loglam in np.linspace(-12, 3, 50):
            grid_vals.append(
                profile_objective(data, model, np.array([rho]), np.exp(loglam))
            )
    assert fit.neg_log_lik <= min(grid_vals) + 1e-6


def test_fit_mle_optimum_beats_random_points(rng):
    data = random_dataset(rng, n=12, p=2, spread=True)
    model = ModelIndicator([1, 0], [1, 1])
    fit = fit_mle(data, model, lambda_allowed=True)
    for _ in range(1000):
        rho = np.array([rng.uniform(1e-6, 1 - 1e-6), rng.uniform(1e-6, 1 - 1e-6)])
        lam = np.exp(rng.uniform(-12, 3))
        assert fit.neg_log_lik <= profile_objective(data, model, rho, lam) + 1e-6


def test_predict_mle_interpolates_at_zero_nugget(small_data):
    model = ModelIndicator([1, 0], [1, 1])
    fit = fit_mle(small_data, model, lambda_allowed=False)
    assert fit.lambda_hat == 0.0
    pred = predict_mle(fit, small_data, PredictionRequest(small_data.X))
    assert np.max(np.abs(pred - small_data.y)) < 1e-8


def _duplicate_row_data(rng):
    X = rng.uniform(size=(5, 2))
    X[1] = X[0]
    y = 1.0 + X[:, 0] + rng.normal(scale=0.3, size=5)
    return Dataset(X=X, y=y, column_names=["a", "b"])


def test_fit_mle_zero_nugget_refuses_jittered_factor(rng):
    # R is singular at every rho, so at lambda = 0 no point is feasible: no
    # diagonal jitter stands in for a nugget the fit would not report
    data = _duplicate_row_data(rng)
    with pytest.raises(OptimizationFailureError) as err:
        fit_mle(data, ModelIndicator([0, 0], [1, 1]), lambda_allowed=False)
    assert len(err.value.trace) > 0
    assert all(val == np.inf for _, val in err.value.trace)


# run in a fresh interpreter whose OpenBLAS starts with one thread, first
# on one CPU, then on two: a fit above the pool's row floor, a zero-nugget
# fit that fails on a duplicate row, and a job that itself maps jobs. Every
# objective call appends its process id to the file named by argv[1].
# Prints one JSON line per CPU set, with the processes of each fit.
FIT_WORKERS_PROBE = """
import json, multiprocessing, os, sys
import numpy as np
from gpselect import Dataset, ModelIndicator, OptimizationFailureError, fit_mle, predict

objective = predict._concentrated_objective

def logged(*args):
    with open(sys.argv[1], "a") as f:
        f.write(f"{os.getpid()}\\n")
    return objective(*args)

predict._concentrated_objective = logged
n = predict.POOL_MIN_ROWS // 5 + 10  # 5 starts clear the floor
rng = np.random.default_rng(4)
X = rng.uniform(size=(n, 3))
y = np.sin(3.0 * X[:, 0]) + X[:, 1] ** 2 + rng.normal(scale=0.05, size=n)
data = Dataset(X=X, y=y, column_names=["a", "b", "c"])
X_dup = X.copy()
X_dup[1] = X_dup[0]
duplicate = Dataset(X=X_dup, y=y, column_names=["a", "b", "c"])
model = ModelIndicator([1, 0, 0], [1, 1, 1])

def processes():
    # the processes that computed objectives since the last call
    with open(sys.argv[1]) as f:
        pids = sorted({int(line) for line in f})
    open(sys.argv[1], "w").close()
    return pids

def mapped(job, n_jobs):
    # (job's results, the processes that ran them) above the fits' floor
    workers = predict._pool_size(n_jobs, predict.POOL_MIN_ROWS, predict.POOL_MIN_ROWS)
    return list(predict._map_jobs(job, n_jobs, workers)), workers

def outer(i):
    # a job that maps jobs of its own: (its process, theirs, their workers)
    inner, workers = mapped(lambda j: os.getpid(), 3)
    return os.getpid(), inner, workers

for cpus in [[0]] + ([sorted(os.sched_getaffinity(0))[:2]] if os.environ["ALL_CPUS"] == "1" else []):
    os.sched_setaffinity(0, cpus)
    open(sys.argv[1], "w").close()
    fit = fit_mle(data, model)
    pids = [processes()]
    children = [len(multiprocessing.active_children())]
    try:
        fit_mle(duplicate, model, lambda_allowed=False)
        trace = None
    except OptimizationFailureError as exc:
        trace = [[z.tolist(), val] for z, val in exc.trace]
    pids.append(processes())
    children.append(len(multiprocessing.active_children()))
    nested, nested_workers = mapped(outer, 2)
    children.append(len(multiprocessing.active_children()))
    print(json.dumps({"workers": fit.workers, "fit": json.dumps(fit.to_dict()), "trace": trace,
                      "pids": pids, "parent": os.getpid(), "children": children,
                      "nested": nested, "nested_workers": nested_workers}))
"""


def test_fit_mle_in_worker_processes_matches_one_process(tmp_path):
    all_cpus = len(os.sched_getaffinity(0)) >= 2
    env = dict(os.environ, PYTHONPATH=str(Path(predict.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1", ALL_CPUS=str(int(all_cpus)))
    proc = subprocess.run([sys.executable, "-c", FIT_WORKERS_PROBE, str(tmp_path / "pids")],
                          env=env, capture_output=True, text=True, check=True, timeout=120)
    runs = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [run["workers"] for run in runs] == [1, 2][:len(runs)]
    for run in runs:
        assert run["trace"] and all(val == math.inf for _, val in run["trace"])
        assert run["children"] == [0, 0, 0]
        # one process per outer job; the jobs it maps run in it, not in a pool of their own
        assert run["nested_workers"] == run["workers"]
        for pid, inner, workers in run["nested"]:
            assert (workers, inner) == (1, [pid] * 3)
    assert runs[0]["pids"] == [[runs[0]["parent"]]] * 2
    if not all_cpus:
        pytest.skip("one CPU: the run in two worker processes needs two")
    pooled = runs[1]
    assert pooled["fit"] == runs[0]["fit"]
    assert pooled["trace"] == runs[0]["trace"]
    for pids in pooled["pids"]:
        assert len(pids) <= 2 and pooled["parent"] not in pids
    assert pooled["parent"] not in [pid for pid, _, _ in pooled["nested"]]


def test_predict_mle_raises_where_a_zero_nugget_fit_does_not_factor(rng):
    # e.g. a zero-nugget fit made on other data: R is singular on these rows
    data = _duplicate_row_data(rng)
    fit = MleFit(
        model=ModelIndicator([0, 0], [1, 1]), beta0_hat=1.0, beta_hat=np.zeros(2),
        rho_hat=np.array([0.5, 0.5]), lambda_hat=0.0, sigma2_hat=1.0, neg_log_lik=0.0,
    )
    with pytest.raises(NumericalSingularityError):
        predict_mle(fit, data, PredictionRequest(data.X))


def test_predict_mle_no_spatial_reduces_to_regression(rng):
    # all gamma_c = 0 with a nugget: compound-symmetry GLS oracle
    X = rng.uniform(size=(14, 2))
    y = 1.0 + 3.0 * X[:, 0] + rng.normal(scale=0.3, size=14)
    data = Dataset(X=X, y=y, column_names=["a", "b"])
    model = ModelIndicator([1, 0], [0, 0])
    fit = fit_mle(data, model, lambda_allowed=True)
    X_new = rng.uniform(size=(6, 2))
    pred = predict_mle(fit, data, PredictionRequest(X_new))
    # oracle: trend + ones-matrix kriging adjustment at the fitted lambda
    J = np.ones((14, 14))
    A = J + fit.lambda_hat * np.eye(14)
    resid = data.y - fit.beta0_hat - data.X @ fit.beta_hat
    oracle = (
        fit.beta0_hat
        + X_new @ fit.beta_hat
        + np.ones((6, 14)) @ np.linalg.solve(A, resid)
    )
    assert pred == pytest.approx(oracle, rel=1e-8)


def test_predict_mle_pure_ols_when_no_spatial_and_no_nugget(rng):
    X = rng.uniform(size=(12, 2))
    y = 2.0 - 1.0 * X[:, 1] + rng.normal(scale=0.2, size=12)
    data = Dataset(X=X, y=y, column_names=["a", "b"])
    model = ModelIndicator([0, 1], [0, 0])
    fit = fit_mle(data, model, lambda_allowed=False)
    F = np.column_stack([np.ones(12), X[:, 1]])
    coef, *_ = np.linalg.lstsq(F, y, rcond=None)
    X_new = rng.uniform(size=(5, 2))
    pred = predict_mle(fit, data, PredictionRequest(X_new))
    assert pred == pytest.approx(coef[0] + X_new[:, 1] * coef[1], rel=1e-8)


def test_predict_mle_ignores_inactive_columns(rng):
    data = random_dataset(rng, n=10, p=3, spread=True)
    model = ModelIndicator([1, 0, 0], [1, 0, 1])
    fit = fit_mle(data, model, lambda_allowed=True)
    X_new = rng.uniform(size=(4, 3))
    pred1 = predict_mle(fit, data, PredictionRequest(X_new))
    X_new2 = X_new.copy()
    X_new2[:, 1] = rng.normal(size=4) * 50  # inactive everywhere
    pred2 = predict_mle(fit, data, PredictionRequest(X_new2))
    assert pred1 == pytest.approx(pred2, rel=1e-12)


def test_uk_and_ok_models_give_distinct_predictions(small_data):
    ok = ModelIndicator([0, 0], [1, 1])
    uk = ModelIndicator([1, 1], [1, 1])
    X_new = np.random.default_rng(3).uniform(size=(6, 2))
    pred_ok = predict_mle(fit_mle(small_data, ok), small_data, PredictionRequest(X_new))
    pred_uk = predict_mle(fit_mle(small_data, uk), small_data, PredictionRequest(X_new))
    assert pred_ok.shape == pred_uk.shape == (6,)
    assert not np.allclose(pred_ok, pred_uk)


def test_mle_fit_round_trip_dict(small_data):
    from gpselect.predict import MleFit

    fit = fit_mle(small_data, ModelIndicator([1, 0], [0, 1]))
    d = fit.to_dict()
    back = MleFit.from_dict(d)
    assert back.model == fit.model
    assert back.beta0_hat == fit.beta0_hat
    assert np.array_equal(back.beta_hat, fit.beta_hat)
    assert np.array_equal(back.rho_hat, fit.rho_hat)
    assert back.lambda_hat == fit.lambda_hat


def test_mle_fit_reads_records_without_evaluation_count_or_bounds(small_data):
    from gpselect.predict import MleFit

    d = fit_mle(small_data, ModelIndicator([1, 0], [0, 1])).to_dict()
    assert d["n_evals"] > 0 and MleFit.from_dict(d).to_dict() == d
    old = {k: v for k, v in d.items() if k not in ("n_evals", "at_bound")}
    back = MleFit.from_dict(old)
    assert back.n_evals == 0 and back.at_bound == []


def test_mle_fit_counts_evaluations_and_reports_the_box_ends_it_stops_on(monkeypatch):
    # an ordinary-kriging fit at the paper's design size whose nugget ends on
    # the lower end of the box, log lambda = -12
    X = maximin_lhd(35, 5, seed=11, n_restarts=1).points
    y = sim_response(X, noise_sd=0.1, rng=np.random.default_rng(11))
    data = Dataset(X=X, y=(y - y.mean()) / y.std(), column_names=[f"x{j}" for j in range(1, 6)])
    factor = kernel.cholesky_with_jitter
    calls = []
    monkeypatch.setattr(kernel, "cholesky_with_jitter", lambda A: calls.append(1) or factor(A))

    fit = fit_mle(data, ModelIndicator(np.zeros(5, dtype=int), np.ones(5, dtype=int)))

    assert fit.lambda_hat == math.exp(LOG_LAMBDA_BOUNDS[0])
    ends = {RHO_BOUNDS[0]: "lower", RHO_BOUNDS[1]: "upper"}
    assert fit.at_bound == [f"rho[x{j + 1}]:{ends[r]}" for j, r in enumerate(fit.rho_hat)
                            if r in ends] + ["lambda:lower"]
    # one factorization per objective evaluation, and none after the search
    assert fit.n_evals == len(calls)


def test_mle_fit_at_p8_keeps_enough_correction_pairs(p8_data):
    # universal kriging over 8 columns: 9 free parameters, and flat valleys
    # toward rho = 1 that L-BFGS-B crosses slowly with its default 10 pairs.
    # With 10 pairs this fit computed 688 evaluations (1 BLAS thread) or 851
    # (2 threads), and with MLE_MAXCOR = 20 it computed 351 or 375.
    fit = fit_mle(p8_data, ModelIndicator(np.ones(8, dtype=int), np.ones(8, dtype=int)))

    assert fit.n_evals <= 450
    # ... and it reaches the optimum that the 10-pair search found
    ten_pairs = -584.085780291741
    assert fit.neg_log_lik <= ten_pairs + 1e-6 * abs(ten_pairs)


def test_mle_fit_reports_how_each_start_ended():
    # a universal-kriging fit at the paper's design size, from 5 starts
    X = maximin_lhd(35, 5, seed=11, n_restarts=1).points
    y = sim_response(X, noise_sd=0.1, rng=np.random.default_rng(11))
    data = Dataset(X=X, y=(y - y.mean()) / y.std(), column_names=[f"x{j}" for j in range(1, 6)])
    fit = fit_mle(data, ModelIndicator(np.ones(5, dtype=int), np.ones(5, dtype=int)))

    assert len(fit.starts) == 5
    for start in fit.starts:
        assert set(start) == {"status", "message", "nit", "nfev", "objective"}
        assert start["status"] in (0, 1, 2) and start["message"]
        assert 0 <= start["nit"] <= 200 and start["nfev"] >= 1
    best = fit.best_start
    assert best is fit.starts[[s["objective"] for s in fit.starts].index(best["objective"])]
    assert best["objective"] == fit.neg_log_lik
    # this search requests some points twice; each is computed once
    assert fit.n_evals < sum(s["nfev"] for s in fit.starts)
    from gpselect.predict import MleFit

    d = fit.to_dict()
    assert MleFit.from_dict(d).starts == fit.starts
    old = MleFit.from_dict({k: v for k, v in d.items() if k != "starts"})
    assert old.starts == [] and old.best_start is None


def _fd_gradient(fun, z, steps):
    """Fourth-order central differences of fun along each coordinate of z."""
    grad = np.empty(z.size)
    for i, h in enumerate(steps):
        e = np.zeros(z.size)
        e[i] = h
        grad[i] = (fun(z - 2 * e) - 8 * fun(z - e) + 8 * fun(z + e) - fun(z + 2 * e)) / (12 * h)
    return grad


def test_mle_objective_gradient_matches_finite_differences():
    """fit_mle's exact gradient against central differences of its objective.

    Random models with lambda free and fixed at 0, with k = 0 (lambda only)
    up to p active rho, and with some rho within 1e-4 of either end of the
    box. The objective varies on the scale of rho's distance to 0 or 1,
    so a rho step is 1% of it. Points with cond(R + lam I) > 1e6 are
    skipped, since differences of the objective cannot resolve the
    gradient there.
    """
    from gpselect.predict import _concentrated_objective

    rng = np.random.default_rng(2)
    seen = {"lambda free": 0, "lambda = 0": 0, "k = 0": 0, "k = p": 0,
            "near lower": 0, "near upper": 0}
    for _ in range(150):
        n, p = int(rng.integers(4, 30)), int(rng.integers(1, 6))
        X = rng.uniform(size=(n, p))
        y = rng.normal(size=n) + X @ rng.normal(size=p)
        k = int(rng.integers(0, p + 1))
        lambda_allowed = k == 0 or bool(rng.integers(0, 2))
        F = np.column_stack([np.ones(n), X[:, : int(rng.integers(0, min(p, n - 2) + 1))]])
        d2 = kernel.pairwise_sqdiffs(X)[:, :, :k]
        near = rng.integers(0, 3, size=k)  # 0: inside, 1: near the lower end, 2: the upper
        offset = rng.uniform(0.0, 1e-4, size=k)
        rho = np.select([near == 1, near == 2],
                        [RHO_BOUNDS[0] + offset, RHO_BOUNDS[1] - offset],
                        rng.uniform(0.05, 0.95, size=k))
        log_lam = [rng.uniform(-8.0, 2.0)] if lambda_allowed else []
        z = np.concatenate([rho, log_lam])
        lam = math.exp(log_lam[0]) if lambda_allowed else 0.0
        # R + lam I as GpFactor builds it, unfactored: it may not factor
        if np.linalg.cond(kernel.corr_from_sqdiffs(d2, rho) + lam * np.eye(n)) > 1e6:
            continue
        val, grad, _, _ = _concentrated_objective(z, y, F, d2, lambda_allowed)
        steps = [0.01 * min(0.1, r, 1.0 - r) for r in rho] + [1e-3] * lambda_allowed
        fd = _fd_gradient(lambda w: _concentrated_objective(w, y, F, d2, lambda_allowed)[0],
                          z, steps)
        assert np.max(np.abs(grad - fd)) <= 1e-6 * max(1.0, np.max(np.abs(fd)))
        seen["lambda free" if lambda_allowed else "lambda = 0"] += 1
        seen["k = 0"] += k == 0
        seen["k = p"] += k == p
        seen["near lower"] += bool(np.any(near == 1))
        seen["near upper"] += bool(np.any(near == 2))
    assert min(seen.values()) >= 10, seen


def _chain_of(states):
    """A Chain holding the given (beta0, beta, rho, lam) draws in order."""
    k = len(states)
    beta, rho = np.array([s[1] for s in states]), np.array([s[2] for s in states])
    return oracles.chain_of_draws({
        "gamma_r": beta != 0.0, "gamma_c": rho != 1.0, "beta0": [s[0] for s in states],
        "beta": beta, "rho": rho, "sigma2_z": np.ones(k), "lam": [s[3] for s in states],
        "omega_r": np.full(k, 0.5), "omega_c": np.full(k, 0.5), "log_posts": np.zeros(k),
        "iters": np.arange(k), "draw_accepted": np.zeros(k, dtype=bool),
    })


def _assert_agree(got, want, exact, factor, sum_bound=None):
    """Equal bit for bit when `exact`, or within `sum_bound` where given;
    otherwise within what a last-bit change of R can move a solve with
    R + lam I, about cond(R + lam I) * eps."""
    got = np.atleast_1d(np.asarray(got, dtype=float))
    want = np.atleast_1d(np.asarray(want, dtype=float))
    assert got.shape == want.shape
    if exact and sum_bound is not None:
        assert np.all(np.abs(got - want) <= sum_bound)
        return
    if exact:
        assert np.array_equal(got, want)
        return
    cond = np.linalg.cond(factor.L @ factor.L.T)
    bound = max(1e-12, 1e-14 * cond) * np.max(np.abs(want), initial=0.0)
    assert np.max(np.abs(got - want), initial=0.0) <= bound


def _reordered_sum_bound(data, req, draws):
    """Per-site bound on how far the average of the draws' kriging means can
    move when only the summation order and the cross-correlation build change.

    Each draw's mean sums 1 + p + n terms: beta0, the x_l beta_l and the
    R_new,old[i, j] alpha_j. Any order of summing T terms stays within
    T * eps * sum|terms| of the exact sum. Each cross term also carries the
    rounding of its correlation exp(d2 @ log rho), whose exponent is a sum of
    p same-signed terms: about (p |log K| + 1) eps relative. The bound is
    four times the two together, over the number of draws. It does not grow
    with cond(R + lam I), since alpha itself is the same bit for bit.
    """
    eps = np.finfo(float).eps
    n, p = data.X.shape
    d2_train = kernel.pairwise_sqdiffs(data.X)
    d2_cross = kernel.pairwise_sqdiffs(req.X_new, data.X)
    abs_sum = np.zeros(req.m)
    exp_err = np.zeros(req.m)
    for beta0, beta, rho, lam in draws:
        alpha = GpFactor(d2_train, rho, lam).solve(data.y - beta0 - data.X @ beta)
        log_k = d2_cross @ np.log(rho)
        cross = np.abs(np.exp(log_k) * alpha)
        abs_sum += abs(beta0) + np.abs(req.X_new * beta).sum(axis=1) + cross.sum(axis=1)
        exp_err += (cross * (p * np.abs(log_k) + 1.0)).sum(axis=1)
    n_terms = len(draws) * (1 + p + n)
    return 4.0 * eps * (n_terms * abs_sum + exp_err) / len(draws)


def _r_symmetric(X, rho) -> bool:
    R = kernel.corr_from_sqdiffs(kernel.pairwise_sqdiffs(X), rho)
    return np.array_equal(R, R.T)


@settings(max_examples=60, deadline=None, derandomize=True)
@example(seed=0, n=30, p=9, zero_nugget=False, duplicate=False, no_active_rho=False, m=3)
@example(seed=1, n=30, p=8, zero_nugget=True, duplicate=True, no_active_rho=False, m=2)
@example(seed=5, n=31, p=10, zero_nugget=True, duplicate=False, no_active_rho=False, m=1)
@example(seed=5, n=6, p=3, zero_nugget=True, duplicate=False, no_active_rho=True, m=4)
@example(seed=1, n=5, p=2, zero_nugget=False, duplicate=False, no_active_rho=False, m=0)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 32),
    p=st.integers(1, 10),
    zero_nugget=st.booleans(),
    duplicate=st.booleans(),
    no_active_rho=st.booleans(),
    m=st.sampled_from([0, 1, 3]),
)
def test_gp_paths_match_reference(seed, n, p, zero_nugget, duplicate, no_active_rho, m):
    """GpFactor and its callers against the copies of the code they replaced,
    and what fit_mle promises of the fit it returns.

    The old correlation_matrix symmetrised R as 0.5 * (R + R.T); GpFactor
    factors exp(d2 @ log rho) as computed, reading its lower triangle only.
    Where R comes out exactly symmetric the two are the same matrix, so the
    factor and the GLS fit must match bit for bit. The kriging means
    (conditional_mean, predict_mle, model_average) share one blocked path
    that keeps each draw's alpha bit for bit but builds the cross-correlation
    as one matrix product over a block of draws and sums in another order;
    there they must agree within _reordered_sum_bound. At p >= 8 the matmul
    can round R[i, j] and R[j, i] differently; there the outputs must agree
    to 1e-12 relative, widened in proportion to cond(R + lam I) since a
    last-bit change of R moves a solve by about cond * eps. Model averaging
    never symmetrised R, so its bound holds everywhere.

    Where R + lam I does not factor (a repeated row at lam = 0, or an R too
    near singular at lam = 0), every path that factors it raises
    NumericalSingularityError, as the reference's one Cholesky does. Of a
    fit, the test asks only what fit_mle promises: its neg_log_lik is the
    best start's objective, the point it returns factors, and its estimates
    are that point's GLS values; it raises OptimizationFailureError only
    where no start reached a factorable point.
    """
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(n, p))
    if duplicate:
        X[1] = X[0]  # singular R: at lam = 0, R + lam I does not factor
    y = rng.normal() + X @ rng.normal(scale=2.0, size=p) + rng.normal(scale=0.3, size=n)
    data = Dataset(X=X, y=y, column_names=[f"x{j + 1}" for j in range(p)])
    gamma_c = np.zeros(p, dtype=int) if no_active_rho else rng.integers(0, 2, size=p)
    gamma_r = rng.integers(0, 2, size=p)
    gamma_r[np.cumsum(gamma_r) > n - 2] = 0  # keep the GLS trend full rank
    model = ModelIndicator(gamma_r, gamma_c)
    rho = np.where(gamma_c == 1, rng.uniform(0.05, 0.95, size=p), 1.0)
    lam = 0.0 if zero_nugget else float(np.exp(rng.uniform(-8.0, 0.0)))
    beta0, beta = float(rng.normal()), np.where(gamma_r == 1, rng.normal(size=p), 0.0)
    req = PredictionRequest(rng.uniform(size=(m, p)))
    state = ParameterState(beta0=beta0, beta=beta, rho=rho, sigma2_z=1.0, lam=lam,
                           omega_r=0.5, omega_c=0.5)
    other = (beta0 + 1.0, beta, np.where(gamma_c == 1, rng.uniform(0.05, 0.95, size=p), 1.0),
             lam + 0.5)
    draws = [(beta0, beta, rho, lam)] * 2 + [other, (beta0, beta, rho, lam)]
    chain = _chain_of(draws)

    km = oracles.correlation_matrix_reference(X, rho)
    try:
        km.factor(lam)
    except NumericalSingularityError:
        assert zero_nugget
        paths = [lambda: GpFactor(kernel.pairwise_sqdiffs(X), rho, lam)]
        if m:  # an empty request factors nothing
            paths += [lambda: conditional_mean(data, state, req),
                      lambda: model_average(chain, data, req)]
        for path in paths:
            with pytest.raises(NumericalSingularityError):
                path()
    else:
        assert not (zero_nugget and duplicate)
        f = GpFactor(kernel.pairwise_sqdiffs(X), rho, lam)
        exact = _r_symmetric(X, rho)
        _assert_agree(f.L, km.factor(lam), exact, f)
        _assert_agree(conditional_mean(data, state, req),
                      oracles.conditional_mean_reference(data, state, req), exact, f,
                      _reordered_sum_bound(data, req, [(beta0, beta, rho, lam)]))
        _assert_agree(np.hstack(_concentrated_gls(y, predict._trend_matrix(X, gamma_r), f)[:3]),
                      np.hstack(oracles.gls_fit_reference(data, model, rho, lam)), exact, f)
        got = model_average(chain, data, req)
        want = oracles.model_average_reference(chain, data, req)
        assert np.all(np.abs(got - want) <= _reordered_sum_bound(data, req, draws))

    try:
        got = fit_mle(data, model, lambda_allowed=not zero_nugget, n_starts=2)
    except OptimizationFailureError as err:
        # with a nugget every point factors; at lam = 0 every point the
        # search computed last did not
        assert zero_nugget and gamma_c.any()
        assert all(val == np.inf for _, val in err.trace)
        return
    # a repeated row makes R singular at every rho
    assert not (zero_nugget and duplicate and gamma_c.any())
    if got.starts:
        assert got.neg_log_lik == got.best_start["objective"]
    b = np.zeros(p)
    ols = zero_nugget and not gamma_c.any()
    if ols:
        # plain least squares with no search
        F = predict._trend_matrix(X, gamma_r)
        coef = np.linalg.lstsq(F, y, rcond=None)[0]
        resid = y - F @ coef
        s2 = float(resid @ resid) / n
        obj = n * math.log(max(s2, SIGMA2_DEGENERATE))
    else:
        # the point factors: the GLS on the search's own tensor, the active
        # columns' squared differences, at the reported point
        active_c = np.flatnonzero(gamma_c)
        f_got = GpFactor(kernel.pairwise_sqdiffs(X[:, active_c]), got.rho_hat[active_c],
                         got.lambda_hat)
        coef, s2, obj, _ = oracles.concentrated_gls_reference(
            y, predict._trend_matrix(X, gamma_r), f_got)
    b0, b[gamma_r == 1] = coef[0], coef[1:]
    assert got.model == model and got.degenerate == (s2 < SIGMA2_DEGENERATE)
    assert np.array_equal([got.beta0_hat, *got.beta_hat, got.sigma2_hat, got.neg_log_lik],
                          [b0, *b, max(s2, SIGMA2_DEGENERATE), obj])
    pred, want = predict_mle(got, data, req), oracles.predict_mle_reference(got, data, req)
    if ols:  # the trend alone, factoring nothing
        assert np.array_equal(pred, want)
        return
    f_hat = GpFactor(kernel.pairwise_sqdiffs(X), got.rho_hat, got.lambda_hat)
    _assert_agree(pred, want, _r_symmetric(X, got.rho_hat), f_hat,
                  _reordered_sum_bound(data, req, [(got.beta0_hat, got.beta_hat,
                                                    got.rho_hat, got.lambda_hat)]))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(9, 59),
    k=st.integers(1, 9),
    lam=st.sampled_from([0.0, 1e-6, 0.1]),
)
def test_concentrated_gls_matches_the_scipy_wrapper_path(seed, n, k, lam):
    # the trend of a model with up to 8 active covariates
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(n, 3))
    F = np.hstack([np.ones((n, 1)), rng.normal(size=(n, k - 1))])
    y = rng.normal(size=n)
    f = GpFactor(kernel.pairwise_sqdiffs(X), rng.uniform(0.05, 0.95, size=3), lam)
    for got, want in zip(_concentrated_gls(y, F, f), oracles.concentrated_gls_reference(y, F, f)):
        assert np.array_equal(got, want)


def test_concentrated_gls_keeps_the_wrapper_errors():
    X = np.linspace(0.0, 1.0, 6)[:, None]
    f = GpFactor(kernel.pairwise_sqdiffs(X), [0.3], 0.1)
    y = np.arange(6.0)
    # a zero trend column makes the QR triangle singular
    F = np.column_stack([np.ones(6), np.zeros(6)])
    for gls in (_concentrated_gls, oracles.concentrated_gls_reference):
        with pytest.raises(np.linalg.LinAlgError):
            gls(y, F, f)
        # more trend columns than rows: an illegal argument, not a result
        with pytest.raises(ValueError):
            gls(y, np.ones((6, 7)), f)


def test_model_average_raises_when_a_distinct_draw_does_not_factor(monkeypatch):
    # rows 0 and 1 coincide, so R is singular: a zero-nugget draw does not
    # factor, a nugget draw does. In blocks of two draws, one such draw in
    # the first, a middle or the last block fails the whole average; without
    # it the same draws average as the reference does
    monkeypatch.setattr(predict, "CROSS_BLOCK_ELEMS", 800)
    assert predict._cross_blocks(10, 2)[0] == 2
    rng = np.random.default_rng(4)
    X = rng.uniform(size=(10, 2))
    X[1] = X[0]
    data = Dataset(X=X, y=rng.normal(size=10), column_names=["x1", "x2"])
    distinct = _random_draws(rng, 2, 9)
    req = PredictionRequest(X[:3])
    for bad in (0, 4, 8):
        draws = [(b0, b, r, 0.0 if i == bad else lam)
                 for i, (b0, b, r, lam) in enumerate(distinct) for _ in range(1 + i % 3)]
        with pytest.raises(NumericalSingularityError):
            model_average(_chain_of(draws), data, req)
    draws = [d for i, d in enumerate(distinct) for _ in range(1 + i % 3)]
    got = model_average(chain := _chain_of(draws), data, req)
    want = oracles.model_average_reference(chain, data, req)
    assert np.all(np.abs(got - want) <= _reordered_sum_bound(data, req, draws))


def _random_draws(rng, p, k):
    """k distinct (beta0, beta, rho, lam) draws over p covariates."""
    return [(float(rng.normal()), np.where(rng.random(p) < 0.5, rng.normal(size=p), 0.0),
             np.where(rng.random(p) < 0.7, rng.uniform(0.05, 0.95, size=p), 1.0),
             float(np.exp(rng.uniform(-6.0, 0.0)))) for _ in range(k)]


def test_model_average_over_several_blocks_matches_the_reference(small_data, monkeypatch):
    # 60 elements at 10 rows: stacks of one draw, so the 7 distinct draws
    # (10 kept, with repeats) take 7 blocks
    monkeypatch.setattr(predict, "CROSS_BLOCK_ELEMS", 60)
    rng = np.random.default_rng(8)
    distinct = _random_draws(rng, 2, 7)
    draws = [distinct[i] for i in (0, 0, 1, 2, 3, 3, 3, 4, 5, 6)]
    req = PredictionRequest(rng.uniform(size=(3, 2)))
    got = model_average(chain := _chain_of(draws), small_data, req)
    want = oracles.model_average_reference(chain, small_data, req)
    assert np.all(np.abs(got - want) <= _reordered_sum_bound(small_data, req, draws))


def test_model_average_with_part_full_blocks_and_tiles_matches_the_reference(
        small_data, monkeypatch):
    # 1,200 elements at 10 rows: stacks of 3 draws and tiles of 40 sites, so
    # the 7 distinct draws end in a block of one and the 50 sites in a tile of 10
    monkeypatch.setattr(predict, "CROSS_BLOCK_ELEMS", 1200)
    assert predict._cross_blocks(10, 2) == (3, 40)
    rng = np.random.default_rng(11)
    distinct = _random_draws(rng, 2, 7)
    draws = [distinct[i] for i in (0, 1, 1, 2, 3, 4, 4, 4, 5, 6, 6)]
    req = PredictionRequest(rng.uniform(size=(50, 2)))
    got = model_average(chain := _chain_of(draws), small_data, req)
    want = oracles.model_average_reference(chain, small_data, req)
    assert np.all(np.abs(got - want) <= _reordered_sum_bound(small_data, req, draws))


def test_model_average_of_a_state_that_recurs_apart_is_the_plain_mean(small_data, monkeypatch):
    # A, A, B, A: the runs are (A, 2), (B, 1), (A, 1), whatever the block size
    rng = np.random.default_rng(9)
    a, b = _random_draws(rng, 2, 2)
    draws = [a, a, b, a]
    req = PredictionRequest(rng.uniform(size=(4, 2)))
    brute = np.mean([oracles.conditional_mean_reference(
        small_data, ParameterState(beta0=d[0], beta=d[1], rho=d[2], sigma2_z=1.0, lam=d[3],
                                   omega_r=0.5, omega_c=0.5), req) for d in draws], axis=0)
    for block in (predict.CROSS_BLOCK_ELEMS, 12, 1):
        monkeypatch.setattr(predict, "CROSS_BLOCK_ELEMS", block)
        got = model_average(_chain_of(draws), small_data, req)
        assert got == pytest.approx(brute, rel=1e-12, abs=1e-12)


def test_model_average_memory_does_not_grow_with_the_distinct_draws(small_data):
    # 5,000 distinct draws at 1,000 sites: building every draw's 1000 x 10
    # cross-correlation at once would take 400 MB; one block takes 1 MB
    rng = np.random.default_rng(10)
    chain = _chain_of(_random_draws(rng, 2, 5000))
    req = PredictionRequest(rng.uniform(size=(1000, 2)))
    tracemalloc.start()
    try:
        model_average(chain, small_data, req)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@settings(max_examples=60, deadline=None, derandomize=True)
# p > b: 2-site tiles of one-draw blocks, 13 sites end in a tile of one
@example(seed=0, n=10, p=7, m=13, n_distinct=9, elems=200)
# blocks of 5 draws in chunks of 65: 70 distinct draws take two chunks
@example(seed=1, n=3, p=2, m=7, n_distinct=70, elems=200)
# one-draw blocks in chunks of 6 draws, p <= b
@example(seed=2, n=10, p=1, m=13, n_distinct=20, elems=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 12),
    p=st.integers(1, 9),
    m=st.integers(1, 40),
    n_distinct=st.integers(1, 20),
    elems=st.sampled_from([60, 200, 800, 1200, 2**17]),
)
def test_kriging_means_match_the_all_sites_reference(seed, n, p, m, n_distinct, elems):
    """The site tiles outside the draw chunks against the loop that built all
    m sites' squared differences first. Where p <= b the tiles keep their
    shape and each site adds the same terms in the same order, so the sums
    are equal bit for bit; where p > b the tiles shrink to count the p
    columns, and the sums agree within _reordered_sum_bound."""
    rng = np.random.default_rng(seed)
    data = Dataset(X=rng.uniform(size=(n, p)), y=rng.normal(size=n),
                   column_names=[f"x{j + 1}" for j in range(p)])
    draws = _random_draws(rng, p, n_distinct)
    weights = rng.integers(1, 4, size=n_distinct).astype(float)
    X_new = rng.uniform(size=(m, p))
    args = (data, X_new, *(list(field) for field in zip(*draws)), weights)
    with mock.patch.object(predict, "CROSS_BLOCK_ELEMS", elems):
        block = predict._cross_blocks(n, p)[0]
        got, _ = predict._kriging_means(*args)
        want = oracles.kriging_means_reference(*args)
    if p <= block:
        assert got.tobytes() == want.tobytes()
        return
    # the bound is on the mean of the weighted draws; the sums carry their total weight
    expanded = [draw for draw, w in zip(draws, weights) for _ in range(int(w))]
    bound = weights.sum() * _reordered_sum_bound(data, PredictionRequest(X_new), expanded)
    assert np.all(np.abs(got - want) <= bound)


def test_kriging_means_memory_does_not_grow_with_the_sites():
    # 20,000 sites at n = 20, p = 8: all sites' squared differences take
    # 25.6 MB; a tile of them, its correlations and a chunk of weighted
    # alphas take at most 1 MB each
    rng = np.random.default_rng(13)
    n, p, m = 20, 8, 20_000
    data = Dataset(X=rng.uniform(size=(n, p)), y=rng.normal(size=n),
                   column_names=[f"x{j + 1}" for j in range(p)])
    fit = MleFit(model=ModelIndicator(np.ones(p, dtype=int), np.ones(p, dtype=int)),
                 beta0_hat=0.5, beta_hat=rng.normal(size=p),
                 rho_hat=rng.uniform(0.05, 0.95, size=p), lambda_hat=1e-3, sigma2_hat=1.0,
                 neg_log_lik=0.0)
    chain = _chain_of(_random_draws(rng, p, 30))
    req = PredictionRequest(rng.uniform(size=(m, p)))
    for predict_at in (lambda: predict_mle(fit, data, req),
                       lambda: model_average(chain, data, req)):
        tracemalloc.start()
        try:
            predict_at()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


@settings(max_examples=80, deadline=None, derandomize=True)
# 14 one-draw blocks in jobs of at most 3 (60 elements, 13 sites): 5 uneven jobs
@example(seed=3, n=5, p=3, m=13, n_distinct=14, max_run=3, elems=60)
# blocks of 3 draws, tiles of 40 sites: the last block holds one draw, the last tile 10 sites
@example(seed=4, n=10, p=2, m=50, n_distinct=25, max_run=4, elems=1200)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 12),
    p=st.integers(1, 9),
    m=st.integers(1, 40),
    n_distinct=st.integers(1, 40),
    max_run=st.integers(1, 5),
    elems=st.sampled_from([60, 200, 800, 1200, 2**17]),
)
def test_kriging_means_in_jobs_match_the_one_process_sum(seed, n, p, m, n_distinct, max_run,
                                                          elems):
    """The jobs' per-block terms, added in block order, against the copy of
    the loop that added each block's terms to the total as it went: every
    site sums the same terms in the same order, so the two are equal bit for
    bit whatever the draws, run lengths, sites and block sizes."""
    rng = np.random.default_rng(seed)
    data = Dataset(X=rng.uniform(size=(n, p)), y=rng.normal(size=n),
                   column_names=[f"x{j + 1}" for j in range(p)])
    draws = _random_draws(rng, p, n_distinct)
    runs = rng.integers(1, max_run + 1, size=n_distinct).astype(float)
    args = (data, rng.uniform(size=(m, p)), *(list(field) for field in zip(*draws)), runs)
    with mock.patch.object(predict, "CROSS_BLOCK_ELEMS", elems):
        got, workers = predict._kriging_means(*args)
        want = oracles.kriging_means_one_process_reference(*args)
    assert workers == 1
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


# run in a fresh interpreter whose OpenBLAS starts with one thread, with the
# averaging floor at 0 and 1,200-element blocks (3 draws, tiles of 40 sites
# at n = 10, p = 2), first on one CPU, then on two: a chain of 316 distinct
# draws in runs of 1 to 3, averaged at 50 sites (106 blocks in 8 jobs of at
# most 15, with at most 4 in flight in two workers; the last tile holds 10
# sites) at denoise thresholds 0 and 0.05, then the same chain with one
# zero-nugget draw, which does not factor since rows 0 and 1 coincide.
# Prints one JSON line per CPU set.
AVERAGE_WORKERS_PROBE = """
import json, multiprocessing, os, sys
import numpy as np
from gpselect import Dataset, NumericalSingularityError, PredictionRequest, predict
from gpselect.sampler import Chain

predict.AVERAGE_MIN_WORK = 0
predict.CROSS_BLOCK_ELEMS = 1200
rng = np.random.default_rng(21)
X = rng.uniform(size=(10, 2))
X[1] = X[0]
data = Dataset(X=X, y=rng.normal(size=10), column_names=["x1", "x2"])
req = PredictionRequest(rng.uniform(size=(50, 2)))
k = 316
beta = np.where(rng.random((k, 2)) < 0.5, rng.normal(size=(k, 2)), 0.0)
rho = np.where(rng.random((k, 2)) < 0.7, rng.uniform(0.05, 0.95, size=(k, 2)), 1.0)
draws = [rng.normal(size=k), beta, rho, np.exp(rng.uniform(-6.0, 0.0, size=k))]
repeat = rng.integers(1, 4, size=k)

def chain_of(beta0, beta, rho, lam):
    # one row per distinct draw, its run repeat[i] draws long
    flags = np.zeros(repeat.sum(), dtype=bool)
    return Chain(gamma_r=(beta != 0.0).astype(np.int8), gamma_c=(rho != 1.0).astype(np.int8),
                 beta0=beta0, beta=beta, rho=rho, sigma2_z=np.ones(k), lam=lam,
                 omega_r=np.full(k, 0.5), omega_c=np.full(k, 0.5), log_posts=np.zeros(k),
                 run_of=np.repeat(np.arange(k), repeat), iters=np.arange(flags.size),
                 accepted=flags, draw_accepted=flags)

chain = chain_of(*draws)
draws[3] = draws[3].copy()
draws[3][150] = 0.0
singular = chain_of(*draws)
for cpus in [[0]] + ([sorted(os.sched_getaffinity(0))[:2]] if os.environ["ALL_CPUS"] == "1" else []):
    os.sched_setaffinity(0, cpus)
    runs = {}
    for threshold in (0.0, 0.05):
        mean, size, workers, distinct = predict._average_and_mask(chain, data, req, threshold)
        runs[str(threshold)] = [mean.view(np.int64).tolist(), workers, distinct, size]
    children = [len(multiprocessing.active_children())]
    try:
        predict.model_average(singular, data, req)
        raised = None
    except NumericalSingularityError as exc:
        raised = type(exc).__name__
    children.append(len(multiprocessing.active_children()))
    print(json.dumps({"runs": runs, "raised": raised, "children": children,
                      "optimize": "scipy.optimize" in sys.modules}))
"""


def test_model_average_in_worker_processes_matches_one_process():
    all_cpus = len(os.sched_getaffinity(0)) >= 2
    env = dict(os.environ, PYTHONPATH=str(Path(predict.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1", ALL_CPUS=str(int(all_cpus)))
    proc = subprocess.run([sys.executable, "-c", AVERAGE_WORKERS_PROBE], env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    results = [json.loads(line) for line in proc.stdout.splitlines()]
    for result, workers in zip(results, [1, 2]):
        assert [run[1] for run in result["runs"].values()] == [workers] * 2
        assert result["runs"]["0.0"][2] == 316
        # the threshold drops some models' draws, not all
        assert 0 < result["runs"]["0.05"][3] < result["runs"]["0.0"][3]
        assert result["raised"] == "NumericalSingularityError"
        assert result["children"] == [0, 0]
        # the jobs factor and solve: the optimizer stays unloaded
        assert not result["optimize"]
    if not all_cpus:
        pytest.skip("one CPU: the run in two worker processes needs two")
    assert results[0]["runs"] == {key: [mean, 1, *rest] for key, (mean, _, *rest)
                                  in results[1]["runs"].items()}


# run in a fresh interpreter: four jobs in two forked workers, the second of
# which ends its process; prints what _map_jobs raised and the children left
WORKER_DEATH_PROBE = """
import json, multiprocessing, os
from gpselect import WorkerProcessError, predict

def job(i):
    if i == 1:
        os._exit(1)
    return i

try:
    list(predict._map_jobs(job, 4, 2))
    raised = None
except WorkerProcessError as exc:
    raised = type(exc).__name__
print(json.dumps({"raised": raised, "children": len(multiprocessing.active_children())}))
"""


def test_a_worker_that_dies_raises_at_once():
    env = dict(os.environ, PYTHONPATH=str(Path(predict.__file__).parents[1]))
    # a pool that waits for the lost job forever fails here on the timeout
    proc = subprocess.run([sys.executable, "-c", WORKER_DEATH_PROBE], env=env,
                          capture_output=True, text=True, check=True, timeout=60)
    assert json.loads(proc.stdout) == {"raised": "WorkerProcessError", "children": 0}
