import numpy as np
import pytest

from gpselect import (
    Dataset,
    DimensionMismatchError,
    GpFactor,
    NumericalSingularityError,
    correlation,
    log_likelihood,
)
from gpselect.kernel import cholesky_with_jitter, cross_correlation, pairwise_sqdiffs

from oracles import loglik_oracle, random_dataset, random_state


def test_zero_distance_gives_one():
    u = np.array([0.3, -1.2, 4.0])
    assert correlation(u, u, [0.2, 0.8, 0.5]) == 1.0


def test_all_inert_gives_one():
    assert correlation([0.1, 0.9], [5.0, -3.0], [1.0, 1.0]) == 1.0


def test_product_form_value():
    # 0.75^1 * (5e-6)^1 for unit squared distances in both coordinates
    val = correlation([0.0, 0.0], [1.0, 1.0], [0.75, 5e-6])
    assert val == pytest.approx(3.75e-6, rel=1e-10)


def test_zero_rho_convention():
    # 0^0 := 1 at zero distance; at positive distance the factor collapses
    assert correlation([0.5], [0.5], [0.0]) == 1.0
    assert correlation([0.0], [1.0], [0.0]) == pytest.approx(0.0, abs=1e-11)


def test_symmetry_random(rng):
    for _ in range(50):
        p = int(rng.integers(1, 6))
        u = rng.normal(size=p)
        v = rng.normal(size=p)
        rho = rng.uniform(size=p)
        assert correlation(u, v, rho) == pytest.approx(correlation(v, u, rho), rel=1e-14)
        assert 0.0 <= correlation(u, v, rho) <= 1.0


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        correlation([0.0, 1.0], [0.0], [0.5, 0.5])
    with pytest.raises(DimensionMismatchError):
        correlation([0.0], [1.0], [0.5, 0.5])


def _factored(f: GpFactor) -> np.ndarray:
    """R + lam * I (plus any jitter) back from the factor."""
    return f.L @ f.L.T


def test_matrix_single_point():
    f = GpFactor(pairwise_sqdiffs(np.array([[0.4, 0.6]])), [0.3, 0.9], 0.0)
    assert f.L.shape == (1, 1)
    assert f.L[0, 0] == 1.0
    assert f.jitter == 0.0 and f.logdet == 0.0


def test_matrix_all_inert():
    X = np.random.default_rng(1).uniform(size=(4, 3))
    f = GpFactor(pairwise_sqdiffs(X), [1.0, 1.0, 1.0], 0.5)
    assert np.allclose(_factored(f), 1.0 + 0.5 * np.eye(4))


def test_matrix_matches_entrywise(rng):
    X = rng.uniform(size=(3, 2))
    rho = rng.uniform(size=2)
    lam = 0.25
    A = _factored(GpFactor(pairwise_sqdiffs(X), rho, lam))
    for l in range(3):
        for m in range(3):
            want = correlation(X[l], X[m], rho) + (lam if l == m else 0.0)
            assert A[l, m] == pytest.approx(want, rel=1e-12)


def test_inert_column_invariance(rng):
    # rho_j = 1 makes the matrix blind to column j
    X = rng.uniform(size=(6, 3))
    rho = np.array([0.4, 1.0, 0.7])
    base = GpFactor(pairwise_sqdiffs(X), rho, 0.1).L
    X2 = X.copy()
    X2[:, 1] = rng.normal(size=6) * 100.0
    assert np.array_equal(base, GpFactor(pairwise_sqdiffs(X2), rho, 0.1).L)


def test_cross_correlation_consistent(rng):
    X_old = rng.uniform(size=(5, 2))
    X_new = rng.uniform(size=(3, 2))
    rho = [0.3, 0.8]
    rc = cross_correlation(X_new, X_old, rho)
    assert rc.shape == (3, 5)
    assert rc[1, 2] == pytest.approx(correlation(X_new[1], X_old[2], rho), rel=1e-12)


def test_loglik_single_point_standard_normal():
    data = Dataset(X=np.array([[0.5]]), y=np.array([2.0]), column_names=["x1"])
    _, state = random_state(np.random.default_rng(0), 1)
    state.beta0 = 2.0
    state.beta = np.array([0.0])
    state.rho = np.array([1.0])
    state.sigma2_z = 1.0
    state.lam = 0.0
    assert log_likelihood(data, state) == pytest.approx(-0.5 * np.log(2 * np.pi), rel=1e-12)


def test_loglik_matches_dense_oracle(rng):
    data = random_dataset(rng, n=10, p=3)
    _, state = random_state(rng, 3)
    ll = log_likelihood(data, state)
    assert ll == pytest.approx(loglik_oracle(data, state), rel=1e-10)


def test_loglik_residual_scaling(rng):
    # scaling the residual by c multiplies the quadratic form by c^2
    data = random_dataset(rng, n=8, p=2)
    _, state = random_state(rng, 2)
    ll1 = log_likelihood(data, state)
    c = 3.0
    mean = state.beta0 + data.X @ state.beta
    data2 = Dataset(
        X=data.X, y=mean + c * (data.y - mean), column_names=data.column_names
    )
    ll2 = log_likelihood(data2, state)
    quad1 = loglik_oracle(data, state) - ll_const(data, state)
    quad2 = loglik_oracle(data2, state) - ll_const(data2, state)
    assert quad2 == pytest.approx(c**2 * quad1, rel=1e-9)
    assert ll2 == pytest.approx(loglik_oracle(data2, state), rel=1e-10)
    assert ll2 < ll1


def ll_const(data, state):
    """Log-likelihood at zero residual (the determinant-only part)."""
    zero = Dataset(
        X=data.X,
        y=state.beta0 + data.X @ state.beta,
        column_names=data.column_names,
    )
    return loglik_oracle(zero, state)


def test_loglik_row_permutation_invariance(rng):
    data = random_dataset(rng, n=12, p=2)
    _, state = random_state(rng, 2)
    perm = rng.permutation(12)
    data_perm = Dataset(
        X=data.X[perm], y=data.y[perm], column_names=data.column_names
    )
    assert log_likelihood(data, state) == pytest.approx(
        log_likelihood(data_perm, state), rel=1e-12
    )


def test_sigma2_must_be_positive(small_data):
    _, state = random_state(np.random.default_rng(3), 2)
    state.sigma2_z = 0.0
    with pytest.raises(ValueError):
        log_likelihood(small_data, state)


def test_jitter_ladder_rescues_duplicates():
    # duplicate rows make R singular at lam = 0; the ladder must step in
    X = np.array([[0.5, 0.5], [0.5, 0.5], [0.2, 0.8]])
    f = GpFactor(pairwise_sqdiffs(X), [0.5, 0.5], 0.0)
    assert f.jitter > 0.0
    assert np.all(np.isfinite(f.L))


def test_jitter_ladder_exhaustion_reports_levels():
    A = -np.eye(3)  # negative definite, no jitter level can fix it
    with pytest.raises(NumericalSingularityError) as err:
        cholesky_with_jitter(A)
    assert err.value.jitters == (0.0, 1e-10, 1e-8, 1e-6)


def test_factor_reproduces_matrix():
    X = np.random.default_rng(2).uniform(size=(6, 2))
    d2 = pairwise_sqdiffs(X)
    f = GpFactor(d2, [0.4, 0.4], 0.1)
    A = np.array([[correlation(u, v, [0.4, 0.4]) for v in X] for u in X]) + 0.1 * np.eye(6)
    assert np.allclose(_factored(f), A)
    assert f.logdet == pytest.approx(np.linalg.slogdet(A)[1], rel=1e-12)
    b = np.random.default_rng(3).normal(size=(6, 2))
    assert np.allclose(f.whiten(b), np.linalg.solve(f.L, b))
    assert np.allclose(f.solve(b), np.linalg.solve(A, b))
