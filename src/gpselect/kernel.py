"""Separable Gaussian correlation and the marginal Gaussian log-likelihood.

The correlation between two points is prod_j rho_j ** (u_j - v_j)^2 with each
rho_j in [0, 1]; rho_j = 1 makes direction j inert. All matrix work goes
through `GpFactor`, a Cholesky factorization of R + lambda*I with an
escalating diagonal jitter fallback for nearly singular cases.
"""

from __future__ import annotations

import logging

import numpy as np
from scipy.linalg.lapack import dtrtrs

from .errors import DimensionMismatchError, NumericalSingularityError

logger = logging.getLogger(__name__)

# Active rho values are clamped below to keep 0**0 well defined (:= 1) and
# log(rho) finite; rho = 5e-6 style inputs are legitimate, exact zero is not
# distinguishable from this floor at any realistic distance.
RHO_FLOOR = 1e-12

# Diagonal jitter escalation when Cholesky fails on R + lambda*I.
JITTER_LADDER = (0.0, 1e-10, 1e-8, 1e-6)

LOG_2PI = float(np.log(2.0 * np.pi))


def _rho_array(rho) -> np.ndarray:
    return np.asarray(rho, dtype=float).ravel()


def _log_rho(rho: np.ndarray) -> np.ndarray:
    # np.clip's values, without its Python-level dispatch
    return np.log(np.minimum(np.maximum(rho, RHO_FLOOR), 1.0))


def correlation(u, v, rho) -> float:
    """Correlation prod_j rho_j ** (u_j - v_j)^2 between two points."""
    u = np.asarray(u, dtype=float).ravel()
    v = np.asarray(v, dtype=float).ravel()
    rho = _rho_array(rho)
    if u.shape != v.shape or u.shape[0] != rho.shape[0]:
        raise DimensionMismatchError(
            f"point dims {u.shape[0]}/{v.shape[0]} vs {rho.shape[0]} correlation parameters"
        )
    return float(np.exp(np.dot((u - v) ** 2, _log_rho(rho))))


def pairwise_sqdiffs(A: np.ndarray, B: np.ndarray | None = None) -> np.ndarray:
    """Coordinate-wise squared differences, shape (len(A), len(B), p)."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = A if B is None else np.atleast_2d(np.asarray(B, dtype=float))
    if A.shape[1] != B.shape[1]:
        raise DimensionMismatchError(f"column mismatch {A.shape[1]} vs {B.shape[1]}")
    return (A[:, None, :] - B[None, :, :]) ** 2


def corr_from_sqdiffs(d2: np.ndarray, rho) -> np.ndarray:
    """Correlation matrix from a precomputed squared-difference tensor."""
    rho = _rho_array(rho)
    if d2.shape[-1] != rho.shape[0]:
        raise DimensionMismatchError(
            f"sqdiff tensor has {d2.shape[-1]} coordinates, rho has {rho.shape[0]}"
        )
    return np.exp(d2 @ _log_rho(rho))


def cholesky_with_jitter(A: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of A, escalating diagonal jitter on failure.

    Returns (L, jitter_used). Raises NumericalSingularityError carrying the
    attempted jitter levels when the whole ladder fails.
    """
    n = A.shape[0]
    for jitter in JITTER_LADDER:
        try:
            M = A if jitter == 0.0 else A + jitter * np.eye(n)
            L = np.linalg.cholesky(M)
        except np.linalg.LinAlgError:
            continue
        if jitter > 0.0:
            logger.debug("cholesky required diagonal jitter %.0e", jitter)
        return L, jitter
    raise NumericalSingularityError(
        f"correlation matrix not positive definite after jitter {JITTER_LADDER}",
        jitters=JITTER_LADDER,
    )


class GpFactor:
    """Cholesky factor of R(rho) + lam * I over a squared-difference tensor.

    The one place the package builds R + lam * I, factors it and solves with
    the factor: the sampler's likelihood, the MLE objective, GLS, kriging
    and model averaging all go through it. R is exp(d2 @ log rho) as
    computed, not symmetrised, since the factorization reads only its lower
    triangle. `jitter` is the diagonal jitter the factor needed (0.0 if none).
    """

    __slots__ = ("L", "jitter")

    def __init__(self, d2: np.ndarray, rho, lam: float):
        A = corr_from_sqdiffs(d2, rho)
        A.flat[:: A.shape[0] + 1] = 1.0 + lam
        self.L, self.jitter = cholesky_with_jitter(A)

    @property
    def logdet(self) -> float:
        """log|R + lam * I| (jitter included) from the factor diagonal."""
        return float(2.0 * np.log(self.L.diagonal()).sum())

    def whiten(self, b: np.ndarray) -> np.ndarray:
        """L^{-1} b."""
        # solve_triangular(L, b, lower=True) runs exactly this LAPACK call
        # for the C-ordered factor numpy returns, minus its argument checks
        return _trtrs(self.L.T, b, 1)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """(R + lam * I)^{-1} b: L^{-1} b, then the back substitution with L^T."""
        return _trtrs(self.L.T, self.whiten(b), 0)


def _trtrs(U: np.ndarray, b: np.ndarray, trans: int) -> np.ndarray:
    x, info = dtrtrs(U, b, lower=0, trans=trans)
    if info != 0:
        raise np.linalg.LinAlgError(f"triangular solve failed (info {info})")
    return x


def log_likelihood(data, state) -> float:
    """Marginal log-likelihood of y under the Gaussian process model.

    y ~ N(beta0 * 1 + X beta, sigma2_z * (R(rho) + lambda * I)), evaluated
    via triangular factorization: log-determinant from the factor diagonal,
    quadratic form from one triangular solve.
    """
    if state.sigma2_z <= 0.0:
        raise ValueError(f"sigma2_z must be positive, got {state.sigma2_z}")
    cache = LikelihoodCache(data)
    return cache.log_likelihood(state)


class LikelihoodCache:
    """Precomputes the pairwise squared differences of a fixed dataset.

    The per-state cost is then one small matmul, an exp, and a Cholesky,
    which is what the sampler's inner loop needs.
    """

    def __init__(self, data):
        self.X = np.atleast_2d(np.asarray(data.X, dtype=float))
        self.y = np.asarray(data.y, dtype=float).ravel()
        self.n = self.X.shape[0]
        self.d2 = pairwise_sqdiffs(self.X)

    def log_likelihood(self, state) -> float:
        return self.log_likelihood_arrays(
            state.rho, state.lam, state.beta0, state.beta, state.sigma2_z
        )[0]

    def log_likelihood_arrays(self, rho, lam, beta0, beta, sigma2) -> tuple[float, float]:
        """Log-likelihood at plain parameter values, and the jitter its factor needed.

        log N(y; beta0 + X beta, sigma2 (R + lam I)): log-determinant from the
        factor diagonal, quadratic form from one triangular solve.
        """
        f = GpFactor(self.d2, rho, lam)
        z = f.whiten(self.y - beta0 - self.X @ beta)
        logdet = self.n * np.log(sigma2) + f.logdet
        quad = float(z @ z) / sigma2
        return -0.5 * (self.n * LOG_2PI + logdet + quad), f.jitter
