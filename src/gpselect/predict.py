"""Prediction: posterior-conditional means with model averaging, and
plug-in maximum-likelihood kriging with a nugget for a fixed model.
"""

from __future__ import annotations

import logging
import math
import os
import re
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import kernel
from .errors import (
    DimensionMismatchError,
    EmptyEnsembleError,
    NumericalSingularityError,
    OptimizationFailureError,
    WorkerProcessError,
)
from .model import ModelIndicator, ParameterState, _check_consistent, are_numbers

logger = logging.getLogger(__name__)

# sigma2 estimates below this are reported as degenerate exact fits
SIGMA2_DEGENERATE = 1e-12

LOG_LAMBDA_BOUNDS = (-12.0, 3.0)
RHO_BOUNDS = (1e-6, 1.0 - 1e-6)
MLE_START_SEED = 0
# L-BFGS-B's relative-decrease stop; near 0 so that starts stop on the gradient
MLE_FTOL = 1e-15
# L-BFGS-B's iteration limit per start: at 200, p = 8 fits stopped short of an optimum
MLE_MAXITER = 1000
# L-BFGS-B's correction pairs: with the default 10, p = 8 fits crawl valleys toward rho = 1
MLE_MAXCOR = 20
# sizes the kriging means' stacks and tiles (_cross_blocks): 2**17 doubles = 1 MB
CROSS_BLOCK_ELEMS = 2**17
# fits and CV fork workers for jobs training on this many rows in all (README)
POOL_MIN_ROWS = 400
# averaging forks workers for distinct draws of this many multiply-adds in all (README)
AVERAGE_MIN_WORK = 5 * 10**8


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
    neg_log_lik is the concentrated objective n*log(sigma2_hat) + log|R + lam*I|;
    from a search, it and the estimates are those computed at best_start's end.
    lambda_hat = 0.0 from a zero-nugget fit means R itself factored at
    rho_hat, so predict_mle interpolates the training data.
    n_evals counts the distinct points the starts requested (a start does not
    compute a point twice, but two starts, or two workers, may), and at_bound
    names each searched coordinate that ended on an end of its box, e.g.
    "rho[x4]:upper" or "lambda:lower". starts records each L-BFGS-B start's
    status (0 converged, 1 iteration limit, 2 other), message, nit, nfev
    (objective requests) and final objective. to_dict leaves out workers, the
    processes that ran the starts, so the fit's file is the same on any machine.
    """

    model: ModelIndicator
    beta0_hat: float
    beta_hat: np.ndarray
    rho_hat: np.ndarray
    lambda_hat: float
    sigma2_hat: float
    neg_log_lik: float
    degenerate: bool = False
    n_evals: int = 0
    at_bound: list = field(default_factory=list)
    starts: list = field(default_factory=list)
    workers: int = 1

    def to_dict(self) -> dict:
        return {
            **self.model.to_dict(),
            "beta0_hat": float(self.beta0_hat),
            "beta_hat": [float(b) for b in self.beta_hat],
            "rho_hat": [float(r) for r in self.rho_hat],
            "lambda_hat": float(self.lambda_hat),
            "sigma2_hat": float(self.sigma2_hat),
            "neg_log_lik": float(self.neg_log_lik),
            "degenerate": bool(self.degenerate),
            "n_evals": int(self.n_evals),
            "at_bound": list(self.at_bound),
            "starts": [dict(start) for start in self.starts],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MleFit":
        """The fit of an mle_fit.json record. Raises ValueError unless the model
        passes `ModelIndicator.from_dict`, every estimate `model.are_numbers`
        and the point masses `model._check_consistent`, with rho_hat in (0, 1],
        lambda_hat >= 0 and sigma2_hat > 0. The report-only fields are coerced."""
        model, beta_hat, rho_hat = ModelIndicator.from_dict(d), d["beta_hat"], d["rho_hat"]
        scalars = {key: d[key] for key in ("beta0_hat", "lambda_hat", "sigma2_hat", "neg_log_lik")}
        if not are_numbers([*beta_hat, *rho_hat, *scalars.values()]):
            raise ValueError("every estimate must be a finite number")
        _check_consistent(model.gamma_r, model.gamma_c, beta_hat, rho_hat)
        if not (all(0.0 < r <= 1.0 for r in rho_hat) and scalars["lambda_hat"] >= 0.0
                and scalars["sigma2_hat"] > 0.0):
            raise ValueError("need rho_hat in (0, 1], lambda_hat >= 0 and sigma2_hat > 0")
        return cls(model, beta_hat=np.asarray(beta_hat, dtype=float),
                   rho_hat=np.asarray(rho_hat, dtype=float),
                   **{key: float(value) for key, value in scalars.items()},
                   degenerate=bool(d.get("degenerate", False)), n_evals=int(d.get("n_evals", 0)),
                   at_bound=list(d.get("at_bound", [])),
                   starts=[dict(start) for start in d.get("starts", [])])

    @property
    def p(self) -> int:
        return self.model.p

    @property
    def best_start(self) -> dict | None:
        """The record of the start the fit reports: the first of the lowest."""
        return _best_of(self.starts)


def _best_of(starts: list) -> dict | None:
    """MleFit.best_start's rule: the first start record of the lowest objective."""
    return min(starts, key=lambda start: start["objective"], default=None)


def conditional_mean(data, state: ParameterState, req: PredictionRequest) -> np.ndarray:
    """Conditional mean of the responses at new sites given the training data.

    beta0 + X_new beta + R_new,old (R_old + lam I)^{-1} (y - beta0 - X_old beta).
    """
    if not _has_sites(data, req):
        return np.zeros(0)
    return _kriging_means(data, req.X_new, [state.beta0], [state.beta], [state.rho],
                          [state.lam], [1.0])[0]


def _has_sites(data, req: PredictionRequest) -> bool:
    """False for an empty request; raises when the sites' columns do not match."""
    if req.m == 0:
        return False
    if req.X_new.shape[1] != data.X.shape[1]:
        raise DimensionMismatchError(
            f"sites have {req.X_new.shape[1]} columns, training data has {data.X.shape[1]}"
        )
    return True


def _kriging_means(data, X_new, beta0, beta, rho, lam, weights):
    """Weighted sum of the kriging means of a stack of draws at the sites,
    and the processes that computed it.

    Draw k's mean is beta0_k + X_new beta_k + R_k,new,old alpha_k, alpha_k =
    (R_k + lam_k I)^{-1} (y - beta0_k - X beta_k), from GpFactor.stack over
    blocks of b draws, bit for bit as GpFactor's. The jobs, a multiple of
    the workers, take even ranges of whole blocks whose weighted alphas and
    (blocks, m) terms together fill at most CROSS_BLOCK_ELEMS; a tile of S
    sites' squared differences serves each block of a job in one product
    with log rho, one exp and one matrix-vector product (_cross_blocks
    sizes b and S). The jobs run in the workers _pool_size gives for their
    work against AVERAGE_MIN_WORK, and the parent adds the blocks' terms in
    block order: each site sums the same terms in draw order at any worker
    count, bit for bit, and memory does not grow with the draws or sites. A
    one-draw block keeps a single draw's bits where BLAS rounds a row alike
    in its matrix-vector routines (p <= 7, OpenBLAS 0.3.31). A draw whose
    R + lam I does not factor raises NumericalSingularityError.
    """
    beta0, beta, rho, lam, weights = (np.asarray(a, dtype=float)
                                      for a in (beta0, beta, rho, lam, weights))
    n, p = data.X.shape
    m = X_new.shape[0]
    d2_train = kernel.pairwise_sqdiffs(data.X)
    block, sites = _cross_blocks(n, p)
    starts = range(0, len(weights), block)
    workers = _pool_size(len(starts), len(weights) * (n**3 / 3 + m * n * (p + 1)), AVERAGE_MIN_WORK)
    n_jobs = -(-len(starts) // (max(1, CROSS_BLOCK_ELEMS // (n * block + m)) * workers)) * workers

    def job(j: int) -> np.ndarray:  # the (blocks, m) terms of job j's blocks
        blocks = []  # per block: its rho columns and its raveled weighted alphas
        for start in starts[len(starts) * j // n_jobs:len(starts) * (j + 1) // n_jobs]:
            stop = min(start + block, len(weights))
            factors = kernel.GpFactor.stack(d2_train, rho[start:stop], lam[start:stop])
            # per draw the matrix-vector product of data.X @ beta[k]
            resid = data.y - beta0[start:stop, None] - (data.X @ beta[start:stop, :, None])[..., 0]
            # column i is draw start + i's alpha: a tile's (S*n, b) correlations,
            # read as (S, n*b), meet the raveled weighted alphas in one product
            alphas = np.empty((n, stop - start))
            for i, (f, r) in enumerate(zip(factors, resid)):
                alphas[:, i] = f.solve(r)
            # C-ordered rho columns: a faster tile product
            blocks.append((rho[start:stop].T.copy(), (alphas * weights[start:stop]).ravel()))
        terms = np.empty((len(blocks), m))
        for s in range(0, m, sites):
            d2_cross = kernel.pairwise_sqdiffs(X_new[s:s + sites], data.X).reshape(-1, p)
            for row, (rho_cols, alphas) in zip(terms, blocks):  # one tile alive at a time
                row[s:s + sites] = kernel.corr_from_sqdiffs(
                    d2_cross, rho_cols).reshape(-1, alphas.size) @ alphas
        return terms

    kernel._scipy("linalg.lapack")  # the jobs' solves, imported before any fork
    total = weights @ beta0 + X_new @ (weights @ beta)
    for terms in _map_jobs(job, n_jobs, workers, window=2 * workers):
        for row in terms:
            total += row
    return total, workers


def _cross_blocks(n: int, p: int) -> tuple[int, int]:
    """Draws b per stack and sites S per tile at n training rows and p
    columns: b matrices and factors fill at most half of CROSS_BLOCK_ELEMS,
    and a tile's S*n*p squared differences and S*n*b correlations at most
    all of it, S = CROSS_BLOCK_ELEMS // (n * max(b, p))."""
    draws = max(1, CROSS_BLOCK_ELEMS // (4 * n * n))
    return draws, max(1, CROSS_BLOCK_ELEMS // (n * max(draws, p)))


def model_average(
    chain,
    data,
    req: PredictionRequest,
    denoise_threshold: float = 0.0,
) -> np.ndarray:
    """Average of per-draw conditional means over the chain.

    With a positive threshold, draws whose model's empirical frequency in the
    chain falls below it are dropped and the average renormalizes over the
    remainder. A run of the chain (`Chain.run_starts`, as after rejected
    proposals) is kept or dropped whole, and is one distinct draw weighted by
    its length. Distinct draws are factored in stacks, one Cholesky call each,
    with cross-correlations in cache-sized tiles of sites, in forked workers
    where their work passes AVERAGE_MIN_WORK, to the same bits in any number
    of processes. A distinct draw costs an n x n factor, two triangular
    solves, n*m*(p + 1) multiply-adds and n*m exp calls; a repeat costs
    nothing. A draw whose R + lambda*I does not factor raises
    NumericalSingularityError. Against a draw-by-draw loop the average
    differs at rounding level (the tile product, the order of the sum); each
    alpha is the same bit for bit, and a single draw's mean too for p <= 7.
    """
    return _average_and_mask(chain, data, req, denoise_threshold)[0]


def _average_and_mask(chain, data, req: PredictionRequest, denoise_threshold: float) -> tuple:
    """model_average's mean, the denoise_mask of the draws it averages, the
    processes that averaged them and the number of distinct draws (runs)."""
    if len(chain) == 0:
        raise ValueError("cannot average over an empty chain")
    if not 0.0 <= denoise_threshold < 1.0:
        raise ValueError("denoise_threshold must lie in [0, 1)")
    keep = denoise_mask(chain, denoise_threshold)
    if not _has_sites(data, req):
        return np.zeros(0), keep, 1, 0
    if not keep.any():
        raise EmptyEnsembleError(f"denoise threshold {denoise_threshold} removed every draw")

    kept = np.flatnonzero(keep)
    first = np.flatnonzero(chain.run_starts()[kept])
    runs = np.diff(first, append=kept.size)
    draws = kept[first]
    total, workers = _kriging_means(data, req.X_new, chain.beta0[draws], chain.beta[draws],
                                    chain.rho[draws], chain.lam[draws], runs)
    return total / kept.size, keep, workers, draws.size


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
    """GLS coefficients, variance, concentrated objective and whitened residual.

    Decorrelates with the factor and solves the least-squares problem by QR,
    which is the standard stable route to (F^T A^{-1} F)^{-1} F^T A^{-1} y,
    sigma2 = resid^T A^{-1} resid / n and n*log(sigma2) + log|A|. The last
    item is L^{-1} resid.
    """
    n, k = F.shape
    if k > n:
        raise ValueError(f"a trend of {k} columns needs at least {k} rows, got {n}")
    yt = f.whiten(y)
    Ft = f.whiten(F)
    # the LAPACK calls scipy.linalg's qr(mode="economic") and solve_triangular
    # make for these arrays, without their argument handling; R is the upper
    # triangle of the first k rows of the dgeqrf output
    qr, tau = _lapack("dgeqrf", Ft)
    (Q,) = _lapack("dorgqr", qr, tau)
    coef, info = kernel._scipy("linalg.lapack").dtrtrs(qr[:k].T, Q.T @ yt, lower=1, trans=1)
    if info > 0:
        raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dtrtrs")
    resid_t = yt - Ft @ coef
    sigma2 = float(resid_t @ resid_t) / n
    return coef, sigma2, n * math.log(max(sigma2, 1e-300)) + f.logdet, resid_t


# (routine name, argument shapes) -> the routine's optimal workspace there
_LWORK: dict = {}


def _lapack(name, *args):
    """The outputs of scipy's LAPACK routine `name`, called with its optimal
    workspace, as scipy.linalg's wrappers call it. The workspace query, which
    depends on the arguments' shapes only, runs once per name and shapes."""
    routine = getattr(kernel._scipy("linalg.lapack"), name)
    key = (name, *(a.shape for a in args))
    lwork = _LWORK.get(key)
    if lwork is None:
        lwork = _LWORK[key] = int(routine(*args, lwork=-1)[-2][0])
    *out, _, info = routine(*args, lwork=lwork)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of {name}")
    return out


def gls_fit(data, model: ModelIndicator, rho, lam: float):
    """GLS trend fit at fixed correlation parameters.

    Returns (beta0_hat, beta_hat_full, sigma2_hat, objective) where objective
    is n*log(sigma2_hat) + log|R + lam*I|.
    """
    f = kernel.GpFactor(kernel.pairwise_sqdiffs(data.X), rho, lam)
    coef, sigma2, objective, _ = _concentrated_gls(data.y, _trend_matrix(data.X, model.gamma_r), f)
    beta_full = np.zeros(data.X.shape[1])
    beta_full[np.where(model.gamma_r == 1)[0]] = coef[1:]
    return float(coef[0]), beta_full, sigma2, objective


def _ols_fit(data, model: ModelIndicator) -> MleFit:
    """Plain least squares for a model with no spatial part and no nugget."""
    F = _trend_matrix(data.X, model.gamma_r)
    coef, *_ = np.linalg.lstsq(F, data.y, rcond=None)
    resid = data.y - F @ coef
    sigma2 = float(resid @ resid) / data.y.shape[0]
    return _plug_in_fit(data, model, coef, sigma2, rho_hat=np.ones(data.X.shape[1]), lambda_hat=0.0,
                        neg_log_lik=data.y.shape[0] * math.log(max(sigma2, SIGMA2_DEGENERATE)))


def _plug_in_fit(data, model: ModelIndicator, coef, sigma2: float, **fields) -> MleFit:
    """The MleFit of a trend fit with coefficients coef (the intercept, then
    the active columns') and variance sigma2: beta_hat holds exact zeros at
    the inactive columns, and sigma2_hat is sigma2 floored at
    SIGMA2_DEGENERATE, with a warning where the floor binds."""
    beta_full = np.zeros(data.X.shape[1])
    beta_full[model.gamma_r == 1] = coef[1:]
    degenerate = sigma2 < SIGMA2_DEGENERATE
    if degenerate:
        logger.warning("near-exact fit: sigma2 floored at %.1e", SIGMA2_DEGENERATE)
    return MleFit(model=model.copy(), beta0_hat=float(coef[0]), beta_hat=beta_full,
                  sigma2_hat=max(sigma2, SIGMA2_DEGENERATE), degenerate=degenerate, **fields)


def _concentrated_objective(z: np.ndarray, y: np.ndarray, F: np.ndarray, d2: np.ndarray,
                            lambda_allowed: bool):
    """fit_mle's objective g, its gradient, and the GLS coefficients and
    sigma2 at z = (active rho, log lambda if free).

    d2 holds the active columns' squared differences. g is inf at an
    infeasible point, where R + lam I does not factor and no coefficients
    are computed (None). The gradient is None wherever g is not finite. See
    fit_mle for the gradient.
    """
    n_rho = d2.shape[2]
    rho = z[:n_rho]
    lam = math.exp(z[n_rho]) if lambda_allowed else 0.0
    try:
        f = kernel.GpFactor(d2, rho, lam)
    except NumericalSingularityError:
        return math.inf, None, None, None
    coef, sigma2, val, resid_t = _concentrated_gls(y, F, f)
    if not np.isfinite(val):
        return val, None, coef, sigma2
    alpha = f.back_substitute(resid_t)
    W = f.inverse() - np.outer(alpha, alpha) / max(sigma2, 1e-300)
    grad = np.empty(z.shape[0])
    # the diagonal of each D2_j is 0, so A's diagonal never enters
    grad[:n_rho] = (W * f.A).ravel() @ d2.reshape(W.size, n_rho) / rho
    if lambda_allowed:
        grad[n_rho] = lam * np.trace(W)
    return val, grad, coef, sigma2


def _workers(environ, cpus: int, n_jobs: int, work: float, floor: float) -> int:
    """Processes for n_jobs jobs of `work` in all, on cpus CPUs: one below the
    caller's floor on that work, else as many as fit beside each other's BLAS
    threads. OpenBLAS runs the first positive atoi (whitespace, a sign,
    ASCII digits) of OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS and OMP_NUM_THREADS, or
    one thread per CPU, so a default-BLAS run stays in one process."""
    if work < floor:
        return 1
    blas_threads = cpus
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        m = re.match(r"[ \t\n\v\f\r]*([+-]?[0-9]+)", environ.get(var, ""))
        if m and int(m[1]) > 0:
            blas_threads = int(m[1])
            break
    return max(1, min(n_jobs, cpus // blas_threads))


def _pool_size(n_jobs: int, work: float, floor: float) -> int:
    """_workers' count here: one in a worker (pools do not nest) or without an affinity call."""
    if _worker_job is not None or not hasattr(os, "sched_getaffinity"):
        return 1
    return _workers(os.environ, len(os.sched_getaffinity(0)), n_jobs, work, floor)


# the running pool's job, set by _map_jobs; every worker inherits it through the fork
_worker_job = None


def _run_job(index: int):
    return _worker_job(index)


def _map_jobs(job, n_jobs: int, workers: int, window: int = 0):
    """job(0), ..., job(n_jobs - 1), yielded in order: here for one worker, else
    from `workers` processes forked from this one, with at most `window` jobs
    (all if 0) submitted and not yet yielded. A worker gets only job indices:
    job and its data reach it through the fork, so the caller imports what
    the jobs use first. A worker that dies raises WorkerProcessError."""
    global _worker_job
    if workers == 1:
        yield from map(job, range(n_jobs))
        return
    # here, so that importing gpselect does not load them
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
    from multiprocessing import get_context

    _worker_job = job
    # forking, the executor starts every worker at the first submit, before its own thread
    pool = ProcessPoolExecutor(workers, get_context("fork"))
    try:
        pending = deque()
        for i in range(n_jobs):
            pending.append(pool.submit(_run_job, i))
            if len(pending) == window:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    except BrokenProcessPool as exc:
        raise WorkerProcessError(f"a worker process ended before its job did: {exc}") from exc
    finally:
        pool.shutdown(cancel_futures=True)  # joins every worker
        _worker_job = None


def fit_mle(
    data,
    model: ModelIndicator,
    lambda_allowed: bool = True,
    n_starts: int = 5,
) -> MleFit:
    """Maximize the concentrated likelihood over the model's free (rho, lambda).

    At every candidate point the trend coefficients are the GLS solution and
    sigma2 its plug-in; the search is bounded L-BFGS-B from several starts
    (rho_j in [1e-6, 1-1e-6], log lambda in [-12, 3]). Deterministic: the
    random starts come from the fixed seed MLE_START_SEED.

    The search runs on the exact gradient of g = n*log(sigma2) + log|A|,
    A = R + lam*I (Rasmussen & Williams 2006, GPML 5.4.1). With alpha =
    A^{-1} resid for the GLS residual, W = A^{-1} - alpha alpha^T / sigma2
    and dg/dz_k = sum_ij W_ij (dA/dz_k)_ij, where dA/drho_j = R o D2_j / rho_j
    and dA/dlog(lambda) = lam*I; the GLS coefficients drop out by the
    envelope theorem. L-BFGS-B's ftol is MLE_FTOL = 1e-15 so that a start
    stops on the projected-gradient test, not on a small relative decrease
    of the objective partway along a flat valley; such a valley can take
    hundreds of iterations, hence MLE_MAXITER = 1000. MLE_MAXCOR = 20 correction
    pairs (scipy's default is 10; Zhu, Byrd, Lu & Nocedal 1997 advise 3 to 20)
    cross such valleys at p = 8 in about half the evaluations. The gradient and the
    pairs change only how a start moves: the feasible set, box and starts stay as stated.

    The feasible set is the (rho, lambda) at which R + lambda*I factors by
    one Cholesky call; with lambda_allowed=False the nugget is fixed at 0.
    An infeasible point scores 1e20 with a zero gradient.
    OptimizationFailureError is raised when no start reaches a feasible
    point, e.g. for duplicate rows at lambda = 0.

    Each start keeps its own memo and the starts run in forked workers where
    _map_jobs allows (n_starts * n rows in all). The memos merge in start
    order, so the fit, n_evals (distinct points, which two starts may each
    compute) and the failure's trace are those of one process.
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
    d2 = kernel.pairwise_sqdiffs(data.X[:, active_c])
    n_rho = active_c.size
    dim = n_rho + (1 if lambda_allowed else 0)

    def evaluate(z: np.ndarray, memo: dict) -> tuple[float, np.ndarray]:
        key = z.tobytes()
        if key not in memo:
            memo[key] = _concentrated_objective(z, data.y, F, d2, lambda_allowed)
        val, grad, _, _ = memo[key]
        return (1e20, np.zeros(dim)) if grad is None else (val, grad)

    bounds = [RHO_BOUNDS] * n_rho + ([LOG_LAMBDA_BOUNDS] if lambda_allowed else [])
    rng = np.random.default_rng(MLE_START_SEED)
    starts = [np.concatenate([np.full(n_rho, 0.5), [math.log(0.1)] if lambda_allowed else []])]
    for _ in range(max(0, n_starts - 1)):
        z0 = np.empty(dim)
        z0[:n_rho] = rng.uniform(0.05, 0.95, size=n_rho)
        if lambda_allowed:
            z0[n_rho] = rng.uniform(*LOG_LAMBDA_BOUNDS)
        starts.append(z0)

    minimize = kernel._scipy("optimize").minimize

    def run_start(i: int):
        """Start i's end point, run record and memo, in first-request order."""
        memo: dict = {}
        # the value and the gradient as two callables on one memo: jac=True
        # would add scipy's own memo layer on top of it
        res = minimize(lambda z: evaluate(z, memo)[0], starts[i],
                       jac=lambda z: evaluate(z, memo)[1].copy(), method="L-BFGS-B",
                       bounds=bounds, options={"maxiter": MLE_MAXITER, "ftol": MLE_FTOL,
                                               "maxcor": MLE_MAXCOR})
        return res.x, {"status": int(res.status), "message": str(res.message),
                       "nit": int(res.nit), "nfev": int(res.nfev)}, list(memo.items())

    workers = _pool_size(len(starts), len(starts) * data.X.shape[0], POOL_MIN_ROWS)
    runs = list(_map_jobs(run_start, len(starts), workers))
    computed: dict = {}  # z.tobytes() -> _concentrated_objective(z), in first-request order
    for _, _, pairs in runs:
        for key, entry in pairs:
            computed.setdefault(key, entry)
    # a start's objective is the memo's at its final point res.x: after an
    # abnormal line-search stop, res.fun can be the value at another point
    records = [{**run, "objective": float(evaluate(x, computed)[0])} for x, run, _ in runs]
    best = _best_of(records)
    if not best["objective"] < 1e20:
        raise OptimizationFailureError("no finite concentrated likelihood found", trace=[
            (np.frombuffer(key), entry[0]) for key, entry in list(computed.items())[-50:]])
    best_z = runs[records.index(best)][0]
    objective, _, coef, sigma2 = computed[best_z.tobytes()]

    rho_hat = np.ones(p)
    if n_rho:
        rho_hat[active_c] = best_z[:n_rho]
    lambda_hat = math.exp(best_z[n_rho]) if lambda_allowed else 0.0
    names = [f"rho[{data.column_names[j]}]" for j in active_c]
    if lambda_allowed:
        names.append("lambda")
    at_bound = [f"{name}:{end}" for name, z, (lo, hi) in zip(names, best_z, bounds)
                for end, edge in (("lower", lo), ("upper", hi)) if z == edge]
    return _plug_in_fit(data, model, coef, sigma2, rho_hat=rho_hat, lambda_hat=lambda_hat,
                        neg_log_lik=objective, n_evals=len(computed), at_bound=at_bound,
                        starts=records, workers=workers)


def predict_mle(fit: MleFit, data, req: PredictionRequest) -> np.ndarray:
    """Kriging prediction with the plug-in estimates of a fitted model.

    Raises NumericalSingularityError where R + lambda_hat*I does not factor
    at rho_hat, e.g. a zero-nugget fit on data with a repeated row.
    """
    if not _has_sites(data, req):
        return np.zeros(0)
    if fit.model.gamma_c.sum() == 0 and fit.lambda_hat == 0.0:
        # no spatial component and no nugget: the fit is plain regression
        return fit.beta0_hat + req.X_new @ fit.beta_hat
    return _kriging_means(data, req.X_new, [fit.beta0_hat], [fit.beta_hat], [fit.rho_hat],
                          [fit.lambda_hat], [1.0])[0]
