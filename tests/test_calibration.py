"""Calibration of the sampler against the posterior it states (Cook, Gelman &
Rubin 2006, JCGS 15:675; Talts et al. 2018, arXiv:1804.06788; Geweke 2004,
JASA 99:799).

Draw theta* from the prior, simulate y from theta*, and run T sampler
iterations on y starting at theta*. If the kernel leaves p(theta | y)
invariant, the state theta_T after them is again an exact prior draw. Over R
independent replicates the differences g(theta_T) - g(theta*) of a prior
functional g are then iid with mean zero, so their mean has a plain iid
standard error and needs no ESS estimate. The functionals are the four
indicators, omega_r, omega_c, beta0 / 10, log sigma2 and log lambda.

The stated prior and the sampled one differ in one place: draw_from_prior
and propose floor lambda at LAMBDA_FLOOR (1e-10). Under the default
inverse-gamma(3, 0.2) prior the mass below the floor is P(Gamma(3) > 2e9),
under exp(-1e9), far below what R replicates can resolve.
"""

import math

import numpy as np

from gpselect import Dataset, GpFactor, PriorConfig, SamplerConfig, kernel, run_chain
from gpselect.model import draw_from_prior

N, P, T = 8, 2, 30
# |z| <= 3.9 for each of 9 functionals: a two-sided family-wise level of
# about 1e-3 (Bonferroni, 9 * 2 * Phi(-3.9) = 8.7e-4)
Z_BOUND = 3.9


def _functionals(gamma_r, gamma_c, omega_r, omega_c, beta0, sigma2_z, lam) -> list:
    return [*gamma_r, *gamma_c, omega_r, omega_c, beta0 / 10.0, math.log(sigma2_z),
            math.log(lam)]


def calibration_z(n_reps: int, slab_correction: bool, seed: int) -> np.ndarray:
    """The z-score of the mean of g(theta_T) - g(theta*) for each of the 9
    functionals, over n_reps replicates on one n = 8, p = 2 design."""
    prior = PriorConfig()
    X = np.random.default_rng([seed, 0]).uniform(size=(N, P))
    d2 = kernel.pairwise_sqdiffs(X)
    diffs = np.empty((n_reps, 2 * P + 5))
    for r in range(n_reps):
        rng = np.random.default_rng([seed, r + 1])
        ind, state = draw_from_prior(P, prior, rng)
        # y ~ N(beta0 + X beta, sigma2 (R + lam I)) through the factor L L^T
        L = GpFactor(d2, state.rho, state.lam).L
        y = state.beta0 + X @ state.beta + math.sqrt(state.sigma2_z) * (L @ rng.normal(size=N))
        cfg = SamplerConfig(n_iter=T, burn_in=T - 1, seed=int(rng.integers(2**31)),
                            slab_correction=slab_correction)
        chain = run_chain(Dataset(X=X, y=y, column_names=["x1", "x2"]), prior, cfg,
                          init=(ind, state))
        end = _functionals(chain.gamma_r[-1], chain.gamma_c[-1], chain.omega_r[-1],
                           chain.omega_c[-1], chain.beta0[-1], chain.sigma2_z[-1],
                           chain.lam[-1])
        start = _functionals(ind.gamma_r, ind.gamma_c, state.omega_r, state.omega_c,
                             state.beta0, state.sigma2_z, state.lam)
        diffs[r] = np.subtract(end, start)
    return diffs.mean(axis=0) / (diffs.std(axis=0, ddof=1) / math.sqrt(n_reps))


def test_default_sampler_leaves_the_posterior_invariant():
    # 2,000 replicates of 30 iterations: about 6-8 s on one core
    z = calibration_z(2000, slab_correction=True, seed=1)
    assert np.all(np.abs(z) <= Z_BOUND), np.round(z, 2)


def test_calibration_detects_the_plain_ratio_sampler():
    # without the slab correction activations are biased down by the slab
    # density (SamplerConfig): both gamma_r means fall, at z near -7 here
    z = calibration_z(500, slab_correction=False, seed=1)
    assert np.all(z[:P] < -Z_BOUND), np.round(z, 2)
