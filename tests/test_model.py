import math

import numpy as np
import pytest

from gpselect import (
    InvalidStateError,
    ModelIndicator,
    ParameterState,
    PriorConfig,
    TransformError,
    from_unconstrained,
    log_jacobian,
    log_posterior,
    log_prior,
    to_unconstrained,
)
from gpselect.model import draw_from_prior

from oracles import (
    _ref_validate_consistent as validate_consistent,
    fd_jacobian_logdet,
    log_prior_oracle,
    loglik_oracle,
    random_dataset,
    random_state,
)


def _base_state(p):
    return ParameterState(
        beta0=0.0,
        beta=np.zeros(p),
        rho=np.ones(p),
        sigma2_z=1.0,
        lam=0.1,
        omega_r=0.5,
        omega_c=0.5,
    )


def test_prior_all_inactive_is_pure_bernoulli():
    p = 3
    ind = ModelIndicator(np.zeros(p, int), np.zeros(p, int))
    state = _base_state(p)
    cfg = PriorConfig()
    expected_rest = log_prior_oracle(ind, state, cfg) - 2 * p * np.log(0.5)
    assert log_prior(ind, state, cfg) - expected_rest == pytest.approx(
        2 * p * np.log(0.5), rel=1e-12
    )


def test_prior_single_active_beta_at_zero():
    # an active coefficient exactly at zero contributes the slab density there
    p = 2
    ind = ModelIndicator([1, 0], [0, 0])
    state = _base_state(p)
    cfg = PriorConfig(tau=5.0)
    base = ModelIndicator([0, 0], [0, 0])
    delta = log_prior(ind, state, cfg) - log_prior(base, state, cfg)
    # indicator mass is unchanged at omega = 0.5, only the density is added
    assert delta == pytest.approx(-0.5 * math.log(2 * math.pi * 25.0), rel=1e-12)


def test_prior_matches_term_by_term_oracle(rng):
    cfg = PriorConfig()
    for _ in range(25):
        p = int(rng.integers(1, 6))
        ind, state = random_state(rng, p)
        assert log_prior(ind, state, cfg) == pytest.approx(
            log_prior_oracle(ind, state, cfg), rel=1e-10
        )


def test_prior_rejects_inconsistent_state():
    ind = ModelIndicator([0, 1], [1, 0])
    state = _base_state(2)
    state.beta = np.array([0.5, 1.0])  # beta_1 nonzero while gamma_r_1 = 0
    state.rho = np.array([0.5, 1.0])
    with pytest.raises(InvalidStateError):
        log_prior(ind, state, PriorConfig())


def test_prior_invariant_to_inactive_values(rng):
    # inactive coordinates are pinned, so only active ones can influence it
    cfg = PriorConfig()
    ind, state = random_state(rng, 4)
    lp = log_prior(ind, state, cfg)
    other = state.copy()
    active_r = np.where(ind.gamma_r == 1)[0]
    if active_r.size:
        other.beta[active_r[0]] += 0.7
        assert log_prior(ind, other, cfg) != pytest.approx(lp)


def test_posterior_is_likelihood_plus_prior(rng):
    cfg = PriorConfig()
    data = random_dataset(rng, n=9, p=3)
    ind, state = random_state(rng, 3)
    lp = log_posterior(ind, state, data, cfg)
    assert lp == pytest.approx(
        loglik_oracle(data, state) + log_prior_oracle(ind, state, cfg), rel=1e-10
    )


def test_posterior_difference_reduces_to_likelihood(rng):
    # same prior terms on both sides cancel in the difference
    cfg = PriorConfig()
    data = random_dataset(rng, n=8, p=2)
    ind, state = random_state(rng, 2)
    other = state.copy()
    other.beta0 += 0.0  # identical continuous parameters, different data rows
    data2 = random_dataset(rng, n=8, p=2)
    d_post = log_posterior(ind, state, data, cfg) - log_posterior(ind, state, data2, cfg)
    d_lik = loglik_oracle(data, state) - loglik_oracle(data2, state)
    assert d_post == pytest.approx(d_lik, rel=1e-9)


def test_lambda_prior_scale_isolated(rng):
    cfg = PriorConfig()
    cfg2 = PriorConfig(lambda_scale=0.4)
    data = random_dataset(rng, n=6, p=2)
    ind, state = random_state(rng, 2)
    delta = log_posterior(ind, state, data, cfg2) - log_posterior(ind, state, data, cfg)
    from scipy.stats import invgamma

    expected = invgamma.logpdf(state.lam, a=3.0, scale=0.4) - invgamma.logpdf(
        state.lam, a=3.0, scale=0.2
    )
    assert delta == pytest.approx(expected, rel=1e-9)


def test_transform_identity_points():
    state = _base_state(2)
    t = to_unconstrained(state)
    assert t.mu == 0.0
    assert t.psi_r == 0.0
    assert t.psi_c == 0.0


def test_transform_log_lambda():
    state = _base_state(1)
    state.lam = 0.2
    assert to_unconstrained(state).zeta == pytest.approx(math.log(0.2), rel=1e-12)
    assert to_unconstrained(state).zeta == pytest.approx(-1.6094379124341003, rel=1e-10)


def test_transform_round_trip(rng):
    for _ in range(50):
        _, state = random_state(rng, 3)
        back = from_unconstrained(to_unconstrained(state))
        assert back.sigma2_z == pytest.approx(state.sigma2_z, rel=1e-12)
        assert back.lam == pytest.approx(state.lam, rel=1e-12)
        assert back.omega_r == pytest.approx(state.omega_r, rel=1e-12)
        assert back.omega_c == pytest.approx(state.omega_c, rel=1e-12)
        assert np.allclose(back.beta, state.beta)
        assert np.allclose(back.rho, state.rho)


def test_transform_rejects_zero_lambda():
    state = _base_state(1)
    state.lam = 0.0
    with pytest.raises(TransformError):
        to_unconstrained(state)


def test_jacobian_plug_in():
    state = _base_state(1)
    t = to_unconstrained(state)
    assert log_jacobian(t) == pytest.approx(math.log(0.1 * 0.25 * 0.25), rel=1e-12)


def test_jacobian_additive_in_mu():
    state = _base_state(1)
    t = to_unconstrained(state)
    t2 = to_unconstrained(state)
    t2.mu += 1.0
    assert log_jacobian(t2) - log_jacobian(t) == pytest.approx(1.0, rel=1e-12)


def test_jacobian_matches_finite_differences(rng):
    for _ in range(30):
        _, state = random_state(rng, 2)
        t = to_unconstrained(state)
        assert log_jacobian(t) == pytest.approx(fd_jacobian_logdet(t), abs=1e-6)


def test_acceptance_ratio_shift_invariance(rng):
    # adding a constant to both log-posteriors leaves the ratio unchanged
    cfg = PriorConfig()
    data = random_dataset(rng, n=6, p=2)
    ind1, state1 = random_state(rng, 2)
    ind2, state2 = random_state(rng, 2)
    a = log_posterior(ind1, state1, data, cfg)
    b = log_posterior(ind2, state2, data, cfg)
    c = 123.456
    assert math.exp((a + c) - (b + c)) == pytest.approx(math.exp(a - b), rel=1e-9)


def test_draw_from_prior_consistent(rng):
    cfg = PriorConfig()
    for _ in range(50):
        ind, state = draw_from_prior(4, cfg, rng)
        validate_consistent(ind, state)
        assert state.sigma2_z > 0
        assert state.lam >= 1e-10
        assert 0 < state.omega_r < 1 and 0 < state.omega_c < 1
