"""Prediction: posterior-conditional means with model averaging, and
plug-in maximum-likelihood kriging with a nugget for a fixed model.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import qr, solve_triangular
from scipy.optimize import minimize

from . import kernel
from .errors import (
    DimensionMismatchError,
    EmptyEnsembleError,
    NumericalSingularityError,
    OptimizationFailureError,
)
from .model import ModelIndicator, ParameterState

logger = logging.getLogger(__name__)

# sigma2 estimates below this are reported as degenerate exact fits
SIGMA2_DEGENERATE = 1e-12

LOG_LAMBDA_BOUNDS = (-12.0, 3.0)
RHO_BOUNDS = (1e-6, 1.0 - 1e-6)


@dataclass
class PredictionRequest:
    """Prediction sites on the analysis (standardized) scale."""

    X_new: np.ndarray

    def __post_init__(self):
        self.X_new = np.asarray(self.X_new, dtype=float)
        if self.X_new.ndim == 1:
            self.X_new = self.X_new.reshape(1, -1)
        if self.X_new.size and not np.all(np.isfinite(self.X_new)):
            raise ValueError("prediction sites must be finite")

    @property
    def m(self) -> int:
        return int(self.X_new.shape[0])


@dataclass
class MleFit:
    """Plug-in estimates for a fixed model, fit by maximum likelihood.

    beta_hat is the full-length coefficient vector with exact zeros at
    inactive positions; rho_hat holds exact ones at inactive positions.
    neg_log_lik is the concentrated objective n*log(sigma2_hat) + log|R + lam*I|.
    lambda_hat = 0.0 from a zero-nugget fit means R itself was factored
    without diagonal jitter at rho_hat, so predict_mle interpolates the
    training data; a jittered factor would act as an undeclared nugget.
    """

    model: ModelIndicator
    beta0_hat: float
    beta_hat: np.ndarray
    rho_hat: np.ndarray
    lambda_hat: float
    sigma2_hat: float
    neg_log_lik: float
    degenerate: bool = False

    def to_dict(self) -> dict:
        return {
            "gamma_r": [int(g) for g in self.model.gamma_r],
            "gamma_c": [int(g) for g in self.model.gamma_c],
            "beta0_hat": float(self.beta0_hat),
            "beta_hat": [float(b) for b in self.beta_hat],
            "rho_hat": [float(r) for r in self.rho_hat],
            "lambda_hat": float(self.lambda_hat),
            "sigma2_hat": float(self.sigma2_hat),
            "neg_log_lik": float(self.neg_log_lik),
            "degenerate": bool(self.degenerate),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MleFit":
        return cls(
            model=ModelIndicator(np.array(d["gamma_r"]), np.array(d["gamma_c"])),
            beta0_hat=float(d["beta0_hat"]),
            beta_hat=np.asarray(d["beta_hat"], dtype=float),
            rho_hat=np.asarray(d["rho_hat"], dtype=float),
            lambda_hat=float(d["lambda_hat"]),
            sigma2_hat=float(d["sigma2_hat"]),
            neg_log_lik=float(d["neg_log_lik"]),
            degenerate=bool(d.get("degenerate", False)),
        )


def conditional_mean(data, state: ParameterState, req: PredictionRequest) -> np.ndarray:
    """Conditional mean of the responses at new sites given the training data.

    beta0 + X_new beta + R_new,old (R_old + lam I)^{-1} (y - beta0 - X_old beta).
    """
    X_new = req.X_new
    if X_new.shape[0] == 0:
        return np.zeros(0)
    if X_new.shape[1] != data.X.shape[1]:
        raise DimensionMismatchError(
            f"sites have {X_new.shape[1]} columns, training data has {data.X.shape[1]}"
        )
    km = kernel.correlation_matrix(data.X, state.rho)
    alpha = km.solve(state.lam, data.y - state.beta0 - data.X @ state.beta)
    r_cross = kernel.cross_correlation(X_new, data.X, state.rho)
    return state.beta0 + X_new @ state.beta + r_cross @ alpha


def model_average(
    chain,
    data,
    req: PredictionRequest,
    denoise_threshold: float = 0.0,
) -> np.ndarray:
    """Average of per-draw conditional means over the chain.

    With a positive threshold, draws whose model's empirical frequency in the
    chain falls below it are dropped and the average renormalizes over the
    remainder. Consecutive identical draws (rejected proposals) reuse the
    previous prediction vector.
    """
    if len(chain) == 0:
        raise ValueError("cannot average over an empty chain")
    if not 0.0 <= denoise_threshold < 1.0:
        raise ValueError("denoise_threshold must lie in [0, 1)")
    m = req.m
    if m == 0:
        return np.zeros(0)
    if req.X_new.shape[1] != data.X.shape[1]:
        raise DimensionMismatchError(
            f"sites have {req.X_new.shape[1]} columns, training data has {data.X.shape[1]}"
        )

    keep = denoise_mask(chain, denoise_threshold)
    if not keep.any():
        raise EmptyEnsembleError(f"denoise threshold {denoise_threshold} removed every draw")

    d2_train = kernel.pairwise_sqdiffs(data.X)
    d2_cross = kernel.pairwise_sqdiffs(req.X_new, data.X)
    diag = np.arange(data.X.shape[0])

    # a kept draw with the same beta0, beta, rho and lambda (by ==) as the
    # kept draw before it reuses that draw's prediction vector
    kept = np.flatnonzero(keep)
    cur, prev = kept[1:], kept[:-1]
    repeat = np.zeros(kept.size, dtype=bool)
    repeat[1:] = ((chain.beta0[cur] == chain.beta0[prev]) & (chain.lam[cur] == chain.lam[prev])
                  & np.all(chain.beta[cur] == chain.beta[prev], axis=1)
                  & np.all(chain.rho[cur] == chain.rho[prev], axis=1))
    total = np.zeros(m)
    for i, same in zip(kept.tolist(), repeat.tolist()):
        if not same:
            beta0, beta, rho, lam = chain.beta0[i], chain.beta[i], chain.rho[i], chain.lam[i]
            A = kernel.corr_from_sqdiffs(d2_train, rho)
            A[diag, diag] = 1.0 + lam
            L, _ = kernel.cholesky_with_jitter(A)
            resid = data.y - beta0 - data.X @ beta
            z = solve_triangular(L, resid, lower=True, check_finite=False)
            alpha = solve_triangular(L.T, z, lower=False, check_finite=False)
            r_cross = kernel.corr_from_sqdiffs(d2_cross, rho)
            pred = beta0 + req.X_new @ beta + r_cross @ alpha
        total += pred
    return total / kept.size


def denoise_mask(chain, denoise_threshold: float) -> np.ndarray:
    """Draws whose model's frequency in the chain is at least the threshold."""
    _, model, counts = chain.model_counts()
    return (counts / float(len(chain)) >= denoise_threshold)[model]


def _trend_matrix(X: np.ndarray, gamma_r: np.ndarray) -> np.ndarray:
    """Ones column plus the active covariate columns."""
    cols = [np.ones((X.shape[0], 1))]
    active = np.where(gamma_r == 1)[0]
    if active.size:
        cols.append(X[:, active])
    return np.hstack(cols)


def _gls_from_factor(y: np.ndarray, F: np.ndarray, L: np.ndarray):
    """GLS coefficients and variance given the Cholesky factor of R + lam*I.

    Decorrelates with the factor and solves the least-squares problem by QR,
    which is the standard stable route to
    (F^T A^{-1} F)^{-1} F^T A^{-1} y and sigma2 = resid^T A^{-1} resid / n.
    """
    n = y.shape[0]
    yt = solve_triangular(L, y, lower=True, check_finite=False)
    Ft = solve_triangular(L, F, lower=True, check_finite=False)
    Q, Rq = qr(Ft, mode="economic", check_finite=False)
    coef = solve_triangular(Rq, Q.T @ yt, lower=False, check_finite=False)
    resid_t = yt - Ft @ coef
    sigma2 = float(resid_t @ resid_t) / n
    return coef, sigma2


def gls_fit(data, model: ModelIndicator, rho, lam: float):
    """GLS trend fit at fixed correlation parameters.

    Returns (beta0_hat, beta_hat_full, sigma2_hat, objective) where objective
    is n*log(sigma2_hat) + log|R + lam*I|.
    """
    rho = np.asarray(rho, dtype=float)
    km = kernel.correlation_matrix(data.X, rho)
    L = km.factor(lam)
    F = _trend_matrix(data.X, model.gamma_r)
    coef, sigma2 = _gls_from_factor(data.y, F, L)
    beta_full = np.zeros(data.X.shape[1])
    active = np.where(model.gamma_r == 1)[0]
    beta_full[active] = coef[1:]
    logdet = 2.0 * float(np.sum(np.log(np.diag(L))))
    n = data.X.shape[0]
    objective = n * math.log(max(sigma2, 1e-300)) + logdet
    return float(coef[0]), beta_full, sigma2, objective


def _ols_fit(data, model: ModelIndicator) -> MleFit:
    """Plain least squares for a model with no spatial part and no nugget."""
    F = _trend_matrix(data.X, model.gamma_r)
    coef, *_ = np.linalg.lstsq(F, data.y, rcond=None)
    resid = data.y - F @ coef
    n = data.X.shape[0]
    sigma2 = float(resid @ resid) / n
    degenerate = sigma2 < SIGMA2_DEGENERATE
    beta_full = np.zeros(data.X.shape[1])
    active = np.where(model.gamma_r == 1)[0]
    beta_full[active] = coef[1:]
    rho_hat = np.ones(data.X.shape[1])
    return MleFit(
        model=model.copy(),
        beta0_hat=float(coef[0]),
        beta_hat=beta_full,
        rho_hat=rho_hat,
        lambda_hat=0.0,
        sigma2_hat=max(sigma2, SIGMA2_DEGENERATE),
        neg_log_lik=n * math.log(max(sigma2, SIGMA2_DEGENERATE)),
        degenerate=degenerate,
    )


def fit_mle(
    data,
    model: ModelIndicator,
    lambda_allowed: bool = True,
    n_starts: int = 5,
    seed: int = 0,
) -> MleFit:
    """Maximize the concentrated likelihood over the model's free (rho, lambda).

    At every candidate point the trend coefficients are the GLS solution and
    sigma2 its plug-in; the search is bounded L-BFGS-B from several starts
    (rho_j in [1e-6, 1-1e-6], log lambda in [-12, 3]). Deterministic for a
    fixed seed.

    With lambda_allowed=False the nugget is fixed at 0 and the feasible set
    is the rho at which R factors without diagonal jitter: a point that
    needs the jitter fallback scores like a singular one, since the jitter
    would be a nugget the fit does not report. OptimizationFailureError is
    raised when no start reaches such a point, e.g. for duplicate rows.
    """
    p = data.X.shape[1]
    if model.gamma_r.shape[0] != p:
        raise DimensionMismatchError(
            f"model has {model.gamma_r.shape[0]} indicators, data has {p} columns"
        )
    active_c = np.where(model.gamma_c == 1)[0]
    if active_c.size == 0 and not lambda_allowed:
        return _ols_fit(data, model)

    n = data.X.shape[0]
    F = _trend_matrix(data.X, model.gamma_r)
    d2 = kernel.pairwise_sqdiffs(data.X)[:, :, active_c] if active_c.size else None
    diag = np.arange(n)
    n_rho = active_c.size
    dim = n_rho + (1 if lambda_allowed else 0)
    trace: list = []

    def objective(z: np.ndarray) -> float:
        lam = math.exp(z[n_rho]) if lambda_allowed else 0.0
        if n_rho:
            A = np.exp(d2 @ np.log(np.clip(z[:n_rho], kernel.RHO_FLOOR, 1.0)))
        else:
            A = np.ones((n, n))
        A[diag, diag] = 1.0 + lam
        try:
            L, jitter = kernel.cholesky_with_jitter(A)
        except NumericalSingularityError:
            L = None
        if L is None or (jitter > 0.0 and not lambda_allowed):
            trace.append((z.copy(), np.inf))
            return 1e20
        _, sigma2 = _gls_from_factor(data.y, F, L)
        val = n * math.log(max(sigma2, 1e-300)) + 2.0 * float(
            np.sum(np.log(np.diag(L)))
        )
        trace.append((z.copy(), val))
        return val if np.isfinite(val) else 1e20

    bounds = [RHO_BOUNDS] * n_rho + ([LOG_LAMBDA_BOUNDS] if lambda_allowed else [])
    rng = np.random.default_rng(seed)
    starts = [np.concatenate([np.full(n_rho, 0.5), [math.log(0.1)] if lambda_allowed else []])]
    for _ in range(max(0, n_starts - 1)):
        z0 = np.empty(dim)
        z0[:n_rho] = rng.uniform(0.05, 0.95, size=n_rho)
        if lambda_allowed:
            z0[n_rho] = rng.uniform(*LOG_LAMBDA_BOUNDS)
        starts.append(z0)

    best_z = None
    best_val = np.inf
    for z0 in starts:
        res = minimize(
            objective,
            z0,
            method="L-BFGS-B",
            bounds=bounds,
            options={"maxiter": 200},
        )
        if np.isfinite(res.fun) and res.fun < best_val:
            best_val = float(res.fun)
            best_z = res.x.copy()

    if best_z is None or best_val >= 1e20:
        raise OptimizationFailureError(
            "no finite concentrated likelihood found", trace=trace[-50:]
        )

    rho_hat = np.ones(p)
    if n_rho:
        rho_hat[active_c] = best_z[:n_rho]
    lambda_hat = math.exp(best_z[n_rho]) if lambda_allowed else 0.0
    beta0_hat, beta_full, sigma2, objective_val = gls_fit(data, model, rho_hat, lambda_hat)
    degenerate = sigma2 < SIGMA2_DEGENERATE
    if degenerate:
        logger.warning("near-exact fit: sigma2 floored at %.1e", SIGMA2_DEGENERATE)
    return MleFit(
        model=model.copy(),
        beta0_hat=beta0_hat,
        beta_hat=beta_full,
        rho_hat=rho_hat,
        lambda_hat=lambda_hat,
        sigma2_hat=max(sigma2, SIGMA2_DEGENERATE),
        neg_log_lik=objective_val,
        degenerate=degenerate,
    )


def predict_mle(fit: MleFit, data, req: PredictionRequest) -> np.ndarray:
    """Kriging prediction with the plug-in estimates of a fitted model."""
    X_new = req.X_new
    if X_new.shape[0] == 0:
        return np.zeros(0)
    if X_new.shape[1] != data.X.shape[1]:
        raise DimensionMismatchError(
            f"sites have {X_new.shape[1]} columns, training data has {data.X.shape[1]}"
        )
    trend = fit.beta0_hat + X_new @ fit.beta_hat
    if fit.model.gamma_c.sum() == 0 and fit.lambda_hat == 0.0:
        # no spatial component and no nugget: the fit is plain regression
        return trend
    km = kernel.correlation_matrix(data.X, fit.rho_hat)
    resid = data.y - fit.beta0_hat - data.X @ fit.beta_hat
    alpha = km.solve(fit.lambda_hat, resid)
    if fit.lambda_hat == 0.0 and km.jitter(0.0) > 0.0:
        logger.warning(
            "zero-nugget fit: R needed diagonal jitter %.0e at rho_hat, which acts "
            "as an undeclared nugget; predictions will not interpolate the data",
            km.jitter(0.0),
        )
    r_cross = kernel.cross_correlation(X_new, data.X, fit.rho_hat)
    return trend + r_cross @ alpha


def predictions_to_csv(path, predictions: np.ndarray, ensemble_size: int | None = None) -> None:
    """Write predictions as CSV: site index, value, optional ensemble size."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = ["site", "prediction"]
        if ensemble_size is not None:
            header.append("ensemble_size")
        writer.writerow(header)
        for i, v in enumerate(predictions):
            row = [i, repr(float(v))]
            if ensemble_size is not None:
                row.append(ensemble_size)
            writer.writerow(row)
