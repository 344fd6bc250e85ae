"""Model state, spike-and-slab priors, and the unnormalized log-posterior.

Each covariate may enter the linear trend (indicator gamma_r, coefficient
beta_j) and/or the spatial correlation (indicator gamma_c, parameter rho_j).
Inactive slots sit exactly at their point masses: beta_j = 0, rho_j = 1.
Densities are taken with respect to the mixed dominating measure, so a point
mass contributes only its Bernoulli weight, never a density term.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit, gammaln

from . import kernel
from .errors import InvalidStateError, TransformError

# Smallest nugget ratio the sampler will represent; log(lambda) must stay
# defined. Exact lambda = 0 is reserved for deterministic interpolation.
LAMBDA_FLOOR = 1e-10

_LOG_2PI = math.log(2.0 * math.pi)
_LOG_2 = math.log(2.0)


@dataclass(eq=False)
class ModelIndicator:
    """Binary inclusion vectors for the linear (gamma_r) and spatial (gamma_c) parts."""

    gamma_r: np.ndarray
    gamma_c: np.ndarray

    def __post_init__(self):
        self.gamma_r = np.asarray(self.gamma_r, dtype=np.int8).ravel()
        self.gamma_c = np.asarray(self.gamma_c, dtype=np.int8).ravel()
        if self.gamma_r.shape != self.gamma_c.shape:
            raise InvalidStateError("gamma_r and gamma_c must have equal length")
        for g in (self.gamma_r, self.gamma_c):
            if np.any((g != 0) & (g != 1)):
                raise InvalidStateError("indicators must be 0/1")

    @property
    def p(self) -> int:
        return self.gamma_r.shape[0]

    def n_active(self) -> int:
        return int(self.gamma_r.sum() + self.gamma_c.sum())

    def key(self) -> tuple:
        """Hashable identity, used for empirical model frequencies."""
        return (tuple(int(g) for g in self.gamma_r), tuple(int(g) for g in self.gamma_c))

    @classmethod
    def from_key(cls, key) -> "ModelIndicator":
        return cls(np.array(key[0]), np.array(key[1]))

    def __eq__(self, other):
        if not isinstance(other, ModelIndicator):
            return NotImplemented
        return np.array_equal(self.gamma_r, other.gamma_r) and np.array_equal(
            self.gamma_c, other.gamma_c
        )

    def copy(self) -> "ModelIndicator":
        return ModelIndicator(self.gamma_r.copy(), self.gamma_c.copy())


@dataclass(eq=False)
class ParameterState:
    """Full continuous state: intercept, coefficients, correlations, variances, weights."""

    beta0: float
    beta: np.ndarray
    rho: np.ndarray
    sigma2_z: float
    lam: float
    omega_r: float
    omega_c: float

    def __post_init__(self):
        self.beta = np.asarray(self.beta, dtype=float).ravel()
        self.rho = np.asarray(self.rho, dtype=float).ravel()

    def copy(self) -> "ParameterState":
        return dataclasses.replace(self, beta=self.beta.copy(), rho=self.rho.copy())


@dataclass
class TransformedState:
    """State with positivity/interval parameters mapped to the real line.

    mu = log sigma2_z, zeta = log lambda, psi_r = logit omega_r,
    psi_c = logit omega_c. beta0, beta and rho ride along unchanged.
    """

    beta0: float
    beta: np.ndarray
    rho: np.ndarray
    mu: float
    zeta: float
    psi_r: float
    psi_c: float


@dataclass
class PriorConfig:
    """Hyperparameters of the prior.

    tau is the slab standard deviation for active coefficients; sigma2_z and
    lambda carry inverse-gamma (shape, scale) priors; the mixture weights are
    uniform on (0, 1).
    """

    tau: float = 5.0
    beta0_sd: float = 10.0
    sigma2_shape: float = 3.0
    sigma2_scale: float = 2.0
    lambda_shape: float = 3.0
    lambda_scale: float = 0.2

    def __post_init__(self):
        for name, value in self.to_dict().items():
            if value <= 0.0:
                raise ValueError(f"PriorConfig.{name} must be positive")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "PriorConfig":
        unknown = set(d) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown prior config keys: {sorted(unknown)}")
        return cls(**d)


def validate_consistent(ind: ModelIndicator, state: ParameterState) -> None:
    """Inactive coordinates must sit exactly at their point masses."""
    _check_consistent(ind.gamma_r, ind.gamma_c, state.beta, state.rho)


def _check_consistent(gamma_r, gamma_c, beta, rho) -> None:
    # plain-list loops: at the sampler's p these beat numpy's per-call cost
    p = gamma_r.shape[0]
    if beta.shape[0] != p or rho.shape[0] != p:
        raise InvalidStateError(
            f"state vectors of length {beta.shape[0]}/{rho.shape[0]} "
            f"do not match {p} indicators"
        )
    for name, gamma, x, mass in (("beta", gamma_r, beta, 0.0), ("rho", gamma_c, rho, 1.0)):
        off = [j for j, (g, v) in enumerate(zip(gamma.tolist(), x.tolist()))
               if g == 0 and v != mass]
        if off:
            raise InvalidStateError(f"inactive {name} coordinates {off} are not {mass:g}")


def _norm_logpdf(x: float, sd: float) -> float:
    return -0.5 * (_LOG_2PI + 2.0 * math.log(sd)) - 0.5 * (x / sd) ** 2


@functools.lru_cache(maxsize=8)
def _invgamma_norm(shape: float, scale: float) -> float:
    return shape * math.log(scale) - float(gammaln(shape))


def _invgamma_logpdf(x: float, shape: float, scale: float) -> float:
    if x <= 0.0:
        return -math.inf
    return _invgamma_norm(shape, scale) - (shape + 1.0) * math.log(x) - scale / x


def log_prior(ind: ModelIndicator, state: ParameterState, cfg: PriorConfig) -> float:
    """Joint log-prior over indicators and parameters.

    Bernoulli(omega) mass for every indicator, N(0, tau^2) density for each
    active coefficient, uniform slab (zero contribution) for each active rho,
    Gaussian for the intercept, inverse-gamma for sigma2_z and lambda, and a
    uniform (zero) term for the weights. Returns -inf outside the support.
    """
    return log_prior_arrays(*flat_state(ind, state), cfg)


def flat_state(ind: ModelIndicator, state: ParameterState) -> tuple:
    """(gamma_r, gamma_c, beta, rho, scalars): a state as plain arrays and floats,
    with scalars = (beta0, sigma2_z, lambda, omega_r, omega_c)."""
    scalars = (state.beta0, state.sigma2_z, state.lam, state.omega_r, state.omega_c)
    return ind.gamma_r, ind.gamma_c, state.beta, state.rho, scalars


def log_prior_arrays(gamma_r, gamma_c, beta, rho, scalars, cfg) -> float:
    """`log_prior` of a `flat_state`, the form the sampler's loop holds."""
    beta0, sigma2_z, lam, omega_r, omega_c = scalars
    _check_consistent(gamma_r, gamma_c, beta, rho)
    if not (0.0 < omega_r < 1.0 and 0.0 < omega_c < 1.0):
        return -math.inf
    active_rho = [r for g, r in zip(gamma_c.tolist(), rho.tolist()) if g == 1]
    if any(r <= 0.0 or r >= 1.0 for r in active_rho):
        return -math.inf

    p = gamma_r.shape[0]
    nr = int(np.count_nonzero(gamma_r))
    nc = len(active_rho)
    lp = nr * math.log(omega_r) + (p - nr) * math.log1p(-omega_r)
    lp += nc * math.log(omega_c) + (p - nc) * math.log1p(-omega_c)

    if nr:
        active_beta = beta[gamma_r == 1]
        lp += -0.5 * nr * (_LOG_2PI + 2.0 * math.log(cfg.tau))
        lp += -0.5 * float(active_beta @ active_beta) / cfg.tau**2

    lp += _norm_logpdf(beta0, cfg.beta0_sd)
    lp += _invgamma_logpdf(sigma2_z, cfg.sigma2_shape, cfg.sigma2_scale)
    lp += _invgamma_logpdf(lam, cfg.lambda_shape, cfg.lambda_scale)
    return lp


def log_posterior(
    ind: ModelIndicator, state: ParameterState, data, cfg: PriorConfig
) -> float:
    """Unnormalized log-posterior: marginal log-likelihood plus log-prior."""
    lp = log_prior(ind, state, cfg)
    if lp == -math.inf:
        return -math.inf
    return kernel.log_likelihood(data, state) + lp


def to_unconstrained(state: ParameterState) -> TransformedState:
    if state.sigma2_z <= 0.0:
        raise TransformError(f"sigma2_z must be positive, got {state.sigma2_z}")
    if state.lam <= 0.0:
        raise TransformError(
            f"lambda must be positive for the log transform, got {state.lam}; "
            f"use lambda >= {LAMBDA_FLOOR}"
        )
    if not (0.0 < state.omega_r < 1.0 and 0.0 < state.omega_c < 1.0):
        raise TransformError("omega_r and omega_c must lie strictly inside (0, 1)")
    return TransformedState(
        state.beta0,
        state.beta.copy(),
        state.rho.copy(),
        *scalars_to_unconstrained(state.sigma2_z, state.lam, state.omega_r, state.omega_c),
    )


def from_unconstrained(t: TransformedState) -> ParameterState:
    return ParameterState(
        t.beta0,
        np.asarray(t.beta, dtype=float).copy(),
        np.asarray(t.rho, dtype=float).copy(),
        *scalars_from_unconstrained(t.mu, t.zeta, t.psi_r, t.psi_c),
    )


def log_jacobian(t: TransformedState) -> float:
    """Log-determinant of d(sigma2_z, lambda, omega_r, omega_c)/d(mu, zeta, psi_r, psi_c).

    The map is diagonal: exp for the log-transformed pair and the logistic
    derivative omega*(1-omega) for each weight, so the log-determinant is
    mu + zeta + log omega_r(1-omega_r) + log omega_c(1-omega_c).
    """
    return log_jacobian_scalars(t.mu, t.zeta, t.psi_r, t.psi_c)


def scalars_to_unconstrained(sigma2_z, lam, omega_r, omega_c) -> tuple:
    """(mu, zeta, psi_r, psi_c) of in-range scalars; `to_unconstrained` checks the range."""
    return (math.log(sigma2_z), math.log(lam),
            math.log(omega_r / (1.0 - omega_r)), math.log(omega_c / (1.0 - omega_c)))


def scalars_from_unconstrained(mu, zeta, psi_r, psi_c) -> tuple:
    """(sigma2_z, lambda, omega_r, omega_c), the inverse of `scalars_to_unconstrained`."""
    # expit output is clipped away from {0, 1} so downstream logs stay finite;
    # the walk never legitimately reaches |psi| ~ 36 where this matters.
    eps = 1e-15
    return (math.exp(mu), math.exp(zeta),
            min(max(float(expit(psi_r)), eps), 1.0 - eps),
            min(max(float(expit(psi_c)), eps), 1.0 - eps))


def log_jacobian_scalars(mu, zeta, psi_r, psi_c) -> float:
    """`log_jacobian` on the four unconstrained scalars."""
    # log sigma(psi) + log(1 - sigma(psi)) = -softplus(-psi) - softplus(psi)
    return float(
        mu + zeta - (_softplus(-psi_r) + _softplus(psi_r)) - (_softplus(-psi_c) + _softplus(psi_c))
    )


def _softplus(x: float) -> float:
    """log(1 + e^x), step for step as np.logaddexp(0.0, x) evaluates it."""
    if x == 0.0:
        return _LOG_2
    if x < 0.0:
        return math.log1p(math.exp(x))
    return x + math.log1p(math.exp(-x))


def draw_from_prior(p: int, cfg: PriorConfig, rng: np.random.Generator
                    ) -> tuple[ModelIndicator, ParameterState]:
    """One joint draw from the prior, lambda floored so transforms are defined."""
    omega_r = float(np.clip(rng.uniform(), 1e-12, 1.0 - 1e-12))
    omega_c = float(np.clip(rng.uniform(), 1e-12, 1.0 - 1e-12))
    gamma_r = (rng.uniform(size=p) < omega_r).astype(np.int8)
    gamma_c = (rng.uniform(size=p) < omega_c).astype(np.int8)
    beta = np.where(gamma_r == 1, rng.normal(0.0, cfg.tau, size=p), 0.0)
    rho = np.where(gamma_c == 1, rng.uniform(size=p), 1.0)
    # inverse-gamma(shape, scale) = scale / gamma(shape, 1)
    sigma2_z = float(cfg.sigma2_scale / rng.gamma(cfg.sigma2_shape))
    lam = max(float(cfg.lambda_scale / rng.gamma(cfg.lambda_shape)), LAMBDA_FLOOR)
    ind = ModelIndicator(gamma_r, gamma_c)
    state = ParameterState(
        beta0=float(rng.normal(0.0, cfg.beta0_sd)),
        beta=beta,
        rho=rho,
        sigma2_z=sigma2_z,
        lam=lam,
        omega_r=omega_r,
        omega_c=omega_c,
    )
    return ind, state
