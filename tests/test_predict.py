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
    OptimizationFailureError,
    ParameterState,
    PredictionRequest,
    PriorConfig,
    SamplerConfig,
    conditional_mean,
    fit_mle,
    kernel,
    model_average,
    predict_mle,
    run_chain,
)
from gpselect.predict import gls_fit
from gpselect.sampler import Chain

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
        beta0_hat, beta_full, sigma2, _ = gls_fit(data, ind, state.rho, lam)
        R = dense_corr(data.X, state.rho)
        A = R + lam * np.eye(data.n)
        cols = [np.ones((data.n, 1))]
        active = np.where(ind.gamma_r == 1)[0]
        if active.size:
            cols.append(data.X[:, active])
        F = np.hstack(cols)
        coef_o, sigma2_o = dense_gls(data.y, F, A)
        assert beta0_hat == pytest.approx(coef_o[0], abs=1e-8)
        assert beta_full[active] == pytest.approx(coef_o[1:], abs=1e-8)
        assert sigma2 == pytest.approx(sigma2_o, rel=1e-8)
        inactive = np.setdiff1d(np.arange(3), active)
        assert np.all(beta_full[inactive] == 0.0)


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
    # R is singular at every rho, so at lambda = 0 only the jitter fallback
    # factors it; that jitter would be a nugget the fit does not report
    from gpselect import OptimizationFailureError

    data = _duplicate_row_data(rng)
    with pytest.raises(OptimizationFailureError) as err:
        fit_mle(data, ModelIndicator([0, 0], [1, 1]), lambda_allowed=False)
    assert len(err.value.trace) > 0
    assert all(val == np.inf for _, val in err.value.trace)


def test_predict_mle_warns_when_zero_nugget_fit_needs_jitter(rng, caplog):
    # e.g. a zero-nugget fit saved before the feasibility rule existed
    from gpselect.predict import MleFit

    data = _duplicate_row_data(rng)
    fit = MleFit(
        model=ModelIndicator([0, 0], [1, 1]), beta0_hat=1.0, beta_hat=np.zeros(2),
        rho_hat=np.array([0.5, 0.5]), lambda_hat=0.0, sigma2_hat=1.0, neg_log_lik=0.0,
    )
    with caplog.at_level("WARNING", logger="gpselect.predict"):
        predict_mle(fit, data, PredictionRequest(data.X))
    assert "jitter 1e-10" in caplog.text


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


def _chain_of(states):
    """A Chain holding the given (beta0, beta, rho, lam) draws in order."""
    k = len(states)
    gamma_r = np.array([(s[1] != 0.0).astype(np.int8) for s in states])
    gamma_c = np.array([(s[2] != 1.0).astype(np.int8) for s in states])
    flags = np.zeros(k, dtype=bool)
    return Chain(
        gamma_r=gamma_r, gamma_c=gamma_c,
        beta0=np.array([s[0] for s in states]), beta=np.array([s[1] for s in states]),
        rho=np.array([s[2] for s in states]), sigma2_z=np.ones(k),
        lam=np.array([s[3] for s in states]), omega_r=np.full(k, 0.5),
        omega_c=np.full(k, 0.5), log_posts=np.zeros(k), iters=np.arange(k), accepted=flags,
    )


def _assert_agree(got, want, exact, factor):
    """Equal bit for bit when `exact`; otherwise within what a last-bit change
    of R can move a solve with R + lam I, about cond(R + lam I) * eps."""
    got = np.atleast_1d(np.asarray(got, dtype=float))
    want = np.atleast_1d(np.asarray(want, dtype=float))
    assert got.shape == want.shape
    if exact:
        assert np.array_equal(got, want)
        return
    cond = np.linalg.cond(factor.L @ factor.L.T)
    bound = max(1e-12, 1e-14 * cond) * np.max(np.abs(want), initial=0.0)
    assert np.max(np.abs(got - want), initial=0.0) <= bound


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
    """GpFactor and its callers against the copies of the code they replaced.

    The old correlation_matrix symmetrised R as 0.5 * (R + R.T); GpFactor
    factors exp(d2 @ log rho) as computed, reading its lower triangle only.
    Where R comes out exactly symmetric the two are the same matrix, so every
    output must match bit for bit. At p >= 8 the matmul can round R[i, j] and
    R[j, i] differently; there the outputs must agree to 1e-12 relative,
    widened in proportion to cond(R + lam I) since a last-bit change of R
    moves a solve by about cond * eps. Model averaging never symmetrised R
    and must match bit for bit everywhere.
    """
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(n, p))
    if duplicate:
        X[1] = X[0]  # singular R at lam = 0: the jitter ladder steps in
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

    f = GpFactor(kernel.pairwise_sqdiffs(X), rho, lam)
    exact = _r_symmetric(X, rho)
    km = oracles.correlation_matrix_reference(X, rho)
    _assert_agree(f.L, km.factor(lam), exact, f)
    if exact:
        assert f.jitter == km.jitter(lam)
    state = ParameterState(beta0=beta0, beta=beta, rho=rho, sigma2_z=1.0, lam=lam,
                           omega_r=0.5, omega_c=0.5)
    _assert_agree(conditional_mean(data, state, req),
                  oracles.conditional_mean_reference(data, state, req), exact, f)
    _assert_agree(np.hstack(gls_fit(data, model, rho, lam)),
                  np.hstack(oracles.gls_fit_reference(data, model, rho, lam)), exact, f)

    other = (beta0 + 1.0, beta, np.where(gamma_c == 1, rng.uniform(0.05, 0.95, size=p), 1.0),
             lam + 0.5)
    chain = _chain_of([(beta0, beta, rho, lam)] * 2 + [other, (beta0, beta, rho, lam)])
    assert np.array_equal(model_average(chain, data, req),
                          oracles.model_average_reference(chain, data, req))

    try:
        want = oracles.fit_mle_reference(data, model, lambda_allowed=not zero_nugget, n_starts=2)
    except OptimizationFailureError:
        with pytest.raises(OptimizationFailureError):
            fit_mle(data, model, lambda_allowed=not zero_nugget, n_starts=2)
        return
    got = fit_mle(data, model, lambda_allowed=not zero_nugget, n_starts=2)
    # the search itself never symmetrised R, so it lands on the same point
    assert np.array_equal(got.rho_hat, want.rho_hat) and got.lambda_hat == want.lambda_hat
    assert got.model == want.model and got.degenerate == want.degenerate
    f_hat = GpFactor(kernel.pairwise_sqdiffs(X), want.rho_hat, want.lambda_hat)
    exact_hat = _r_symmetric(X, want.rho_hat)
    _assert_agree([got.beta0_hat, *got.beta_hat, got.sigma2_hat, got.neg_log_lik],
                  [want.beta0_hat, *want.beta_hat, want.sigma2_hat, want.neg_log_lik],
                  exact_hat, f_hat)
    _assert_agree(predict_mle(want, data, req),
                  oracles.predict_mle_reference(want, data, req), exact_hat, f_hat)


def test_model_average_warns_once_with_the_jittered_draw_count(small_data, monkeypatch, caplog):
    # every 2nd factorization reports jitter, so the warning must count
    # exactly the distinct draws whose factor did
    factor = kernel.cholesky_with_jitter
    tally = {"calls": 0, "jittered": 0}

    def flaky_factor(A):
        tally["calls"] += 1
        L, jitter = factor(A)
        if tally["calls"] % 2 == 0:
            tally["jittered"] += 1
            jitter = 1e-10
        return L, jitter

    chain = run_chain(small_data, PriorConfig(), SamplerConfig(n_iter=300, burn_in=50, seed=4))
    monkeypatch.setattr(kernel, "cholesky_with_jitter", flaky_factor)
    with caplog.at_level("WARNING", logger="gpselect.predict"):
        model_average(chain, small_data, PredictionRequest(small_data.X[:3]))
    warnings = [r.getMessage() for r in caplog.records if "jitter" in r.getMessage()]
    assert tally["jittered"] > 0 and tally["calls"] < len(chain)
    assert warnings == [
        f"model averaging: {tally['jittered']} distinct draws needed diagonal jitter on "
        "R + lambda*I, which acts as extra nugget in their predictions"
    ]
