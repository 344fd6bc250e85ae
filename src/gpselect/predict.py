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
    if not _has_sites(data, req):
        return np.zeros(0)
    return _kriging_mean(
        data, kernel.pairwise_sqdiffs(data.X), kernel.pairwise_sqdiffs(req.X_new, data.X),
        req.X_new, state.beta0, state.beta, state.rho, state.lam,
    )[0]


def _has_sites(data, req: PredictionRequest) -> bool:
    """False for an empty request; raises when the sites' columns do not match."""
    if req.m == 0:
        return False
    if req.X_new.shape[1] != data.X.shape[1]:
        raise DimensionMismatchError(
            f"sites have {req.X_new.shape[1]} columns, training data has {data.X.shape[1]}"
        )
    return True


def _kriging_mean(data, d2_train, d2_cross, X_new, beta0, beta, rho, lam):
    """Kriging mean at the sites and the diagonal jitter its factor needed.

    beta0 + X_new beta + R_new,old (R + lam I)^{-1} (y - beta0 - X beta), with R
    and R_new,old from the training and cross squared-difference tensors.
    """
    f = kernel.GpFactor(d2_train, rho, lam)
    alpha = f.solve(data.y - beta0 - data.X @ beta)
    return beta0 + X_new @ beta + kernel.corr_from_sqdiffs(d2_cross, rho) @ alpha, f.jitter


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
    previous prediction vector. One warning counts the distinct draws whose
    factor of R + lam I needed diagonal jitter.
    """
    if len(chain) == 0:
        raise ValueError("cannot average over an empty chain")
    if not 0.0 <= denoise_threshold < 1.0:
        raise ValueError("denoise_threshold must lie in [0, 1)")
    if not _has_sites(data, req):
        return np.zeros(0)

    keep = denoise_mask(chain, denoise_threshold)
    if not keep.any():
        raise EmptyEnsembleError(f"denoise threshold {denoise_threshold} removed every draw")

    d2_train = kernel.pairwise_sqdiffs(data.X)
    d2_cross = kernel.pairwise_sqdiffs(req.X_new, data.X)

    # a kept draw with the same beta0, beta, rho and lambda (by ==) as the
    # kept draw before it reuses that draw's prediction vector
    kept = np.flatnonzero(keep)
    cur, prev = kept[1:], kept[:-1]
    repeat = np.zeros(kept.size, dtype=bool)
    repeat[1:] = ((chain.beta0[cur] == chain.beta0[prev]) & (chain.lam[cur] == chain.lam[prev])
                  & np.all(chain.beta[cur] == chain.beta[prev], axis=1)
                  & np.all(chain.rho[cur] == chain.rho[prev], axis=1))
    total = np.zeros(req.m)
    n_jittered = 0
    for i, same in zip(kept.tolist(), repeat.tolist()):
        if not same:
            pred, jitter = _kriging_mean(data, d2_train, d2_cross, req.X_new, chain.beta0[i],
                                         chain.beta[i], chain.rho[i], chain.lam[i])
            n_jittered += jitter > 0.0
        total += pred
    if n_jittered:
        logger.warning(
            "model averaging: %d distinct draws needed diagonal jitter on R + lambda*I, "
            "which acts as extra nugget in their predictions", n_jittered,
        )
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


def _concentrated_gls(y: np.ndarray, F: np.ndarray, f: kernel.GpFactor):
    """GLS coefficients, variance and concentrated objective given the factor.

    Decorrelates with the factor and solves the least-squares problem by QR,
    which is the standard stable route to (F^T A^{-1} F)^{-1} F^T A^{-1} y,
    sigma2 = resid^T A^{-1} resid / n and n*log(sigma2) + log|A|.
    """
    n = y.shape[0]
    yt = f.whiten(y)
    Ft = f.whiten(F)
    Q, Rq = qr(Ft, mode="economic", check_finite=False)
    coef = solve_triangular(Rq, Q.T @ yt, lower=False, check_finite=False)
    resid_t = yt - Ft @ coef
    sigma2 = float(resid_t @ resid_t) / n
    return coef, sigma2, n * math.log(max(sigma2, 1e-300)) + f.logdet


def gls_fit(data, model: ModelIndicator, rho, lam: float):
    """GLS trend fit at fixed correlation parameters.

    Returns (beta0_hat, beta_hat_full, sigma2_hat, objective) where objective
    is n*log(sigma2_hat) + log|R + lam*I|.
    """
    f = kernel.GpFactor(kernel.pairwise_sqdiffs(data.X), rho, lam)
    coef, sigma2, objective = _concentrated_gls(data.y, _trend_matrix(data.X, model.gamma_r), f)
    beta_full = np.zeros(data.X.shape[1])
    beta_full[np.where(model.gamma_r == 1)[0]] = coef[1:]
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

    F = _trend_matrix(data.X, model.gamma_r)
    # only the active columns: exp(d2 @ log rho) over all of them (with
    # log 1 = 0 for the rest) can round differently, and so move the fit
    d2 = kernel.pairwise_sqdiffs(data.X)[:, :, active_c]
    n_rho = active_c.size
    dim = n_rho + (1 if lambda_allowed else 0)
    trace: list = []

    def objective(z: np.ndarray) -> float:
        lam = math.exp(z[n_rho]) if lambda_allowed else 0.0
        try:
            f = kernel.GpFactor(d2, z[:n_rho], lam)
        except NumericalSingularityError:
            f = None
        if f is None or (f.jitter > 0.0 and not lambda_allowed):
            trace.append((z.copy(), np.inf))
            return 1e20
        val = _concentrated_gls(data.y, F, f)[2]
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
    if not _has_sites(data, req):
        return np.zeros(0)
    if fit.model.gamma_c.sum() == 0 and fit.lambda_hat == 0.0:
        # no spatial component and no nugget: the fit is plain regression
        return fit.beta0_hat + req.X_new @ fit.beta_hat
    pred, jitter = _kriging_mean(
        data, kernel.pairwise_sqdiffs(data.X), kernel.pairwise_sqdiffs(req.X_new, data.X),
        req.X_new, fit.beta0_hat, fit.beta_hat, fit.rho_hat, fit.lambda_hat,
    )
    if fit.lambda_hat == 0.0 and jitter > 0.0:
        logger.warning(
            "zero-nugget fit: R needed diagonal jitter %.0e at rho_hat, which acts "
            "as an undeclared nugget; predictions will not interpolate the data", jitter,
        )
    return pred


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
