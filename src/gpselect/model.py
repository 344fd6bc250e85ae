"""Model state, spike-and-slab priors, and the transforms the sampler walks on.

Each covariate may enter the linear trend (indicator gamma_r, coefficient
beta_j) and/or the spatial correlation (indicator gamma_c, parameter rho_j).
Inactive slots sit exactly at their point masses: beta_j = 0, rho_j = 1.
Densities are taken with respect to the mixed dominating measure, so a point
mass contributes only its Bernoulli weight, never a density term.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import kernel
from .errors import InvalidStateError
from .kernel import LOG_2PI

# Smallest nugget ratio the sampler will represent; log(lambda) must stay
# defined. Exact lambda = 0 is reserved for deterministic interpolation.
LAMBDA_FLOOR = 1e-10

_LOG_2 = math.log(2.0)

_NUMBER_TYPES = frozenset((int, float))  # not bool, which is a type of its own


def are_numbers(values) -> bool:
    """Whether every value is a number as every input file must hold one: an
    int or a float (not true or false), finite, and held by a double."""
    try:  # the types first: math.isfinite takes a bool and raises on a string
        return set(map(type, values)) <= _NUMBER_TYPES and all(map(math.isfinite, values))
    except OverflowError:  # an int beyond every double
        return False


def are_indicators(values) -> bool:
    """Whether every value is an indicator: of `are_numbers`' types, and 0 or 1."""
    # the types first: they make the values hashable
    return set(map(type, values)) <= _NUMBER_TYPES and set(values) <= {0, 1}


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
        if not are_indicators(self.gamma_r.tolist() + self.gamma_c.tolist()):
            raise InvalidStateError("indicators must be 0/1")

    @property
    def p(self) -> int:
        return self.gamma_r.shape[0]

    def n_active(self) -> int:
        return int(self.gamma_r.sum() + self.gamma_c.sum())

    def key(self) -> tuple:
        """Hashable identity, used for empirical model frequencies."""
        return (tuple(int(g) for g in self.gamma_r), tuple(int(g) for g in self.gamma_c))

    def __eq__(self, other):
        if not isinstance(other, ModelIndicator):
            return NotImplemented
        return np.array_equal(self.gamma_r, other.gamma_r) and np.array_equal(
            self.gamma_c, other.gamma_c
        )

    def copy(self) -> "ModelIndicator":
        return ModelIndicator(self.gamma_r.copy(), self.gamma_c.copy())

    def to_dict(self) -> dict:
        """The model's JSON form, which every report and model file uses."""
        return {"gamma_r": self.gamma_r.tolist(), "gamma_c": self.gamma_c.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "ModelIndicator":
        """The model of its JSON form, whose vectors must pass `are_indicators`."""
        if not (are_indicators(d["gamma_r"]) and are_indicators(d["gamma_c"])):
            raise ValueError('"gamma_r" and "gamma_c" must hold 0 or 1')
        return cls(np.array(d["gamma_r"]), np.array(d["gamma_c"]))


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


def check_positive(key: str, value: float) -> None:
    if not 0.0 < value < math.inf:
        raise ValueError(f"{key} must be finite and positive, got {value}")


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
        for name, value in vars(self).items():
            check_positive(f"prior.{name}", value)


def _check_consistent(gamma_r, gamma_c, beta, rho) -> None:
    """Inactive coordinates must sit exactly at their point masses."""
    p = len(gamma_r)
    if len(beta) != p or len(rho) != p:
        raise InvalidStateError(
            f"state vectors of length {len(beta)}/{len(rho)} do not match {p} indicators"
        )
    for g, b, c, r in zip(gamma_r, beta, gamma_c, rho):
        if not g and b != 0.0 or not c and r != 1.0:
            break
    else:
        return
    for name, gamma, x, mass in (("beta", gamma_r, beta, 0.0), ("rho", gamma_c, rho, 1.0)):
        off = [j for j, (g, v) in enumerate(zip(gamma, x)) if g == 0 and v != mass]
        if off:
            raise InvalidStateError(f"inactive {name} coordinates {off} are not {mass:g}")


def _norm_logpdf(x: float, sd: float) -> float:
    return -0.5 * (LOG_2PI + 2.0 * math.log(sd)) - 0.5 * (x / sd) ** 2


@functools.lru_cache(maxsize=8)
def _invgamma_norm(shape: float, scale: float) -> float:
    return shape * math.log(scale) - float(kernel._scipy("special").gammaln(shape))


def _invgamma_logpdf(x: float, shape: float, scale: float) -> float:
    return _invgamma_norm(shape, scale) - (shape + 1.0) * math.log(x) - scale / x


def flat_state(ind: ModelIndicator, state: ParameterState) -> tuple:
    """(gamma_r, gamma_c, beta, rho, scalars): a state as plain lists and floats,
    with scalars = (beta0, sigma2_z, lambda, omega_r, omega_c); the form the
    sampler's loop holds and `log_prior` takes."""
    scalars = (state.beta0, state.sigma2_z, state.lam, state.omega_r, state.omega_c)
    return (ind.gamma_r.tolist(), ind.gamma_c.tolist(), state.beta.tolist(), state.rho.tolist(),
            tuple(map(float, scalars)))


def support_violation(gamma_r, gamma_c, beta, rho, scalars) -> str | None:
    """The rule of the prior's support that a `flat_state` breaks, or None.

    Raises InvalidStateError where an inactive coordinate is off its point
    mass. lambda need only be positive: LAMBDA_FLOOR clamps the sampler's
    proposals and bounds no support. A NaN sigma2_z, lambda or active rho
    passes, so `log_prior` stays NaN there, which the sampler auto-rejects.
    """
    _check_consistent(gamma_r, gamma_c, beta, rho)
    _, sigma2_z, lam, omega_r, omega_c = scalars
    if not (0.0 < omega_r < 1.0 and 0.0 < omega_c < 1.0):
        return "omega_r and omega_c must lie in (0, 1)"
    if any(r <= 0.0 or r >= 1.0 for g, r in zip(gamma_c, rho) if g == 1):
        return "active rho must lie in (0, 1)"
    if sigma2_z <= 0.0 or lam <= 0.0:
        return "sigma2_z and lambda must be positive"
    return None


def log_prior(gamma_r, gamma_c, beta, rho, scalars, cfg: PriorConfig) -> float:
    """Joint log-prior over indicators and parameters of a `flat_state`.

    Bernoulli(omega) mass for every indicator, N(0, tau^2) density for each
    active coefficient, uniform slab (zero contribution) for each active rho,
    Gaussian for the intercept, inverse-gamma for sigma2_z and lambda, and a
    uniform (zero) term for the weights. Returns -inf outside the support.
    """
    if support_violation(gamma_r, gamma_c, beta, rho, scalars) is not None:
        return -math.inf
    beta0, sigma2_z, lam, omega_r, omega_c = scalars

    p = len(gamma_r)
    active_beta = [b for g, b in zip(gamma_r, beta) if g == 1]
    nr = len(active_beta)
    nc = sum(gamma_c)
    lp = nr * math.log(omega_r) + (p - nr) * math.log1p(-omega_r)
    lp += nc * math.log(omega_c) + (p - nc) * math.log1p(-omega_c)

    if nr:
        # numpy's dot, whose summation the chain's bits depend on
        active_beta = np.array(active_beta)
        lp += -0.5 * nr * (LOG_2PI + 2.0 * math.log(cfg.tau))
        lp += -0.5 * float(active_beta @ active_beta) / cfg.tau**2

    lp += _norm_logpdf(beta0, cfg.beta0_sd)
    lp += _invgamma_logpdf(sigma2_z, cfg.sigma2_shape, cfg.sigma2_scale)
    lp += _invgamma_logpdf(lam, cfg.lambda_shape, cfg.lambda_scale)
    return lp


def to_unconstrained(sigma2_z, lam, omega_r, omega_c) -> tuple:
    """(mu, zeta, psi_r, psi_c) = (log sigma2_z, log lambda, logit omega_r,
    logit omega_c) of scalars inside the support, where `log_prior` is finite."""
    return (math.log(sigma2_z), math.log(lam),
            math.log(omega_r / (1.0 - omega_r)), math.log(omega_c / (1.0 - omega_c)))


def from_unconstrained(mu, zeta, psi_r, psi_c) -> tuple:
    """(sigma2_z, lambda, omega_r, omega_c), the inverse of `to_unconstrained`."""
    # expit output is clipped away from {0, 1} so downstream logs stay finite;
    # the walk never legitimately reaches |psi| ~ 36 where this matters.
    return math.exp(mu), math.exp(zeta), _expit_clipped(psi_r), _expit_clipped(psi_c)


def _expit_clipped(x: float) -> float:
    """1 / (1 + e^-x), as scipy.special.expit computes it, clipped to [1e-15, 1 - 1e-15]."""
    if x < -700.0:
        return 1e-15  # e^-x would overflow; expit is far below the clip there
    return min(max(1.0 / (1.0 + math.exp(-x)), 1e-15), 1.0 - 1e-15)


def log_jacobian(mu, zeta, psi_r, psi_c) -> float:
    """Log-determinant of d(sigma2_z, lambda, omega_r, omega_c)/d(mu, zeta, psi_r, psi_c).

    The map is diagonal: exp for the log-transformed pair and the logistic
    derivative omega*(1-omega) for each weight, so the log-determinant is
    mu + zeta + log omega_r(1-omega_r) + log omega_c(1-omega_c).
    """
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
    state = ParameterState(float(rng.normal(0.0, cfg.beta0_sd)), beta, rho, sigma2_z, lam,
                           omega_r, omega_c)
    return ModelIndicator(gamma_r, gamma_c), state
