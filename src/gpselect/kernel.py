"""Separable Gaussian correlation and the marginal Gaussian log-likelihood.

The correlation between two points is prod_j rho_j ** (u_j - v_j)^2 with each
rho_j in [0, 1]; rho_j = 1 makes direction j inert. All matrix work goes
through `GpFactor`, one Cholesky factorization of R + lambda*I; a matrix it
cannot factor raises NumericalSingularityError, with no fallback.
"""

from __future__ import annotations

import functools
import importlib
import time

import numpy as np

from .errors import DimensionMismatchError, NumericalSingularityError

# Active rho values are clamped below to keep 0**0 well defined (:= 1) and
# log(rho) finite; rho = 5e-6 style inputs are legitimate, exact zero is not
# distinguishable from this floor at any realistic distance.
RHO_FLOOR = 1e-12

# kept only for perfbench's tracer, which reads it; goes with ROADMAP item 1
JITTER_LADDER = (0.0,)

LOG_2PI = float(np.log(2.0 * np.pi))

# seconds this process has spent importing scipy modules through _scipy
_import_s = 0.0


@functools.cache
def _scipy(name: str):
    """The module scipy.<name>, imported on its first use, so that a command
    which factors no matrix and runs no optimizer starts without scipy. The
    seconds each first import takes add to _import_s."""
    global _import_s
    t0 = time.perf_counter()
    module = importlib.import_module(f"scipy.{name}")
    _import_s += time.perf_counter() - t0
    return module


def _log_rho(rho: np.ndarray) -> np.ndarray:
    # np.clip's values, without its Python-level dispatch
    return np.log(np.minimum(np.maximum(rho, RHO_FLOOR), 1.0))


def pairwise_sqdiffs(A: np.ndarray, B: np.ndarray | None = None) -> np.ndarray:
    """Coordinate-wise squared differences, shape (len(A), len(B), p)."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = A if B is None else np.atleast_2d(np.asarray(B, dtype=float))
    if A.shape[1] != B.shape[1]:
        raise DimensionMismatchError(f"column mismatch {A.shape[1]} vs {B.shape[1]}")
    d = A[:, None, :] - B[None, :, :]
    return np.square(d, out=d)  # in place: one tensor per call


def corr_from_sqdiffs(d2: np.ndarray, rho) -> np.ndarray:
    """Correlations exp(d2 @ log rho) from a precomputed squared-difference
    tensor. rho is one (p,) vector, or a (p, b) stack whose b columns give
    the result a last axis of b correlations from one matrix product."""
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    if d2.shape[-1] != rho.shape[0]:
        raise DimensionMismatchError(
            f"sqdiff tensor has {d2.shape[-1]} coordinates, rho has {rho.shape[0]}"
        )
    K = d2 @ _log_rho(rho)
    return np.exp(K, out=K)


def cholesky_with_jitter(A: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of A, by one np.linalg.cholesky call, and 0.0.

    Raises NumericalSingularityError where A does not factor.
    """
    # the (L, 0.0) pair and the name stay for perfbench's tracer (ROADMAP item 1)
    try:
        return np.linalg.cholesky(A), 0.0
    except np.linalg.LinAlgError as exc:
        raise NumericalSingularityError(
            f"Cholesky factorization of R + lambda*I failed: {exc}") from exc


class GpFactor:
    """Cholesky factor of R(rho) + lam * I over a squared-difference tensor.

    The one place the package builds R + lam * I, factors it and solves with
    the factor: the sampler's likelihood, the MLE objective, GLS, kriging
    and model averaging all go through it. R is exp(d2 @ log rho) as
    computed, not symmetrised, since the factorization reads only its lower
    triangle. `A` is R + lam * I as built, so its off-diagonal is R. Where
    R + lam * I does not factor, NumericalSingularityError is raised.
    """

    __slots__ = ("A", "L")

    def __init__(self, d2: np.ndarray, rho, lam: float):
        A = corr_from_sqdiffs(d2, rho)
        A.ravel()[:: A.shape[0] + 1] = 1.0 + lam  # a view: A is C-ordered
        self.A = A
        self.L, _ = cholesky_with_jitter(A)

    @classmethod
    def stack(cls, d2: np.ndarray, rho, lam) -> list["GpFactor"]:
        """One factor per row of a (b, p) stack of rho and a length-b lam, each
        GpFactor(d2, rho_k, lam_k) bit for bit: the b matrices are built as
        __init__ builds one, into one (b, n, n) stack, and factored by one
        np.linalg.cholesky, which factors each as a single call would; the
        factors are views into the stacks. Where any of the b matrices does
        not factor, NumericalSingularityError is raised, as its GpFactor would.
        """
        rho = np.atleast_2d(np.asarray(rho, dtype=float))
        if d2.shape[-1] != rho.shape[1]:
            raise DimensionMismatchError(f"sqdiff tensor has {d2.shape[-1]} coordinates, "
                                         f"rho has {rho.shape[1]}")
        b, n = rho.shape[0], d2.shape[0]
        # one call, but per draw and row the matrix-vector product of d2 @ log rho
        A = np.matmul(d2, _log_rho(rho)[:, None, :, None]).reshape(b, n, n)
        np.exp(A, out=A)
        A.reshape(b, n * n)[:, :: n + 1] = 1.0 + np.asarray(lam, dtype=float)[:, None]
        try:
            L = np.linalg.cholesky(A)
        except np.linalg.LinAlgError as exc:
            raise NumericalSingularityError(
                f"Cholesky factorization of a stack of R + lambda*I failed: {exc}") from exc
        factors = [cls.__new__(cls) for _ in range(b)]
        for f, A_k, L_k in zip(factors, A, L):
            f.A, f.L = A_k, L_k
        return factors

    @property
    def logdet(self) -> float:
        """log|R + lam * I| from the factor diagonal."""
        return float(2.0 * np.log(self.L.diagonal()).sum())

    def whiten(self, b: np.ndarray) -> np.ndarray:
        """L^{-1} b."""
        # solve_triangular(L, b, lower=True) runs exactly this LAPACK call
        # for the C-ordered factor numpy returns, minus its argument checks
        return _trtrs(self.L.T, b, 1)

    def back_substitute(self, z: np.ndarray) -> np.ndarray:
        """L^{-T} z."""
        return _trtrs(self.L.T, z, 0)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """(R + lam * I)^{-1} b: L^{-1} b, then the back substitution with L^T."""
        return self.back_substitute(self.whiten(b))

    def inverse(self) -> np.ndarray:
        """(R + lam * I)^{-1} from the factor, by LAPACK dpotri."""
        # L.T is the upper factor U with U^T U = A; dpotri overwrites a copy of
        # its upper triangle and leaves the zero strict lower triangle as is
        U, info = _scipy("linalg.lapack").dpotri(self.L.T, lower=0)
        if info != 0:
            raise np.linalg.LinAlgError(f"inverse from the factor failed (info {info})")
        inv = U + U.T
        inv.flat[:: inv.shape[0] + 1] = U.diagonal()
        return inv


def _trtrs(U: np.ndarray, b: np.ndarray, trans: int, lower: int = 0) -> np.ndarray:
    x, info = _scipy("linalg.lapack").dtrtrs(U, b, lower=lower, trans=trans)
    if info != 0:
        raise np.linalg.LinAlgError(f"triangular solve failed (info {info})")
    return x


def log_likelihood(data, state) -> float:
    """Marginal log-likelihood of y under the Gaussian process model at a
    `ParameterState`; `LikelihoodCache.log_likelihood` evaluates it."""
    if state.sigma2_z <= 0.0:
        raise ValueError(f"sigma2_z must be positive, got {state.sigma2_z}")
    return LikelihoodCache(data).log_likelihood(state.rho, state.lam, state.beta0, state.beta,
                                                state.sigma2_z)


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

    def log_likelihood(self, rho, lam, beta0, beta, sigma2) -> float:
        """log N(y; beta0 + X beta, sigma2 (R + lam I)) at plain values (rho and
        beta as lists or arrays).

        The log-determinant comes from the factor diagonal and the quadratic
        form from one triangular solve. The logs are numpy's, whose last bits
        can differ from the math module's.
        """
        f = GpFactor(self.d2, rho, lam)
        z = f.whiten(self.y - beta0 - self.X @ np.asarray(beta, dtype=float))
        logdet = self.n * np.log(sigma2) + f.logdet
        quad = float(z @ z) / sigma2
        return float(-0.5 * (self.n * LOG_2PI + logdet + quad))
