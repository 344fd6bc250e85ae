"""Model choice from a chain: inclusion probabilities, MAP and threshold
models, the nested candidate ladder, and v-fold cross-validation with a
one-standard-error alternative.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import kernel
from .design import rmspe
from .errors import (
    GpSelectError,
    NumericalSingularityError,
    OptimizationFailureError,
    ValidationError,
)
from .model import ModelIndicator
from .predict import POOL_MIN_ROWS, PredictionRequest, _map_jobs, _pool_size, fit_mle, predict_mle

logger = logging.getLogger(__name__)


@dataclass
class InclusionReport:
    """Marginal inclusion probabilities and empirical model frequencies."""

    p_r: np.ndarray
    p_c: np.ndarray
    model_freqs: dict

    @property
    def p(self) -> int:
        return int(self.p_r.shape[0])

    def to_dict(self) -> dict:
        return {
            "columns": [f"x{j+1}" for j in range(self.p)],
            "p_r": [float(v) for v in self.p_r],
            "p_c": [float(v) for v in self.p_c],
            "model_freqs": [
                {**ModelIndicator(*k).to_dict(), "prob": float(v)}
                for k, v in sorted(self.model_freqs.items(), key=lambda kv: -kv[1])
            ],
            "map_model": map_model(self).to_dict(),
        }


@dataclass
class CvReport:
    """Cross-validation scores over a candidate list.

    chosen is the RMSPE minimizer; chosen_1se the sparsest candidate within
    one standard error of it. Candidates whose fit failed on more than a
    quarter of the folds are disqualified from both choices. fold_evals sums
    the fold fits' objective evaluations per candidate, and fold_at_bound
    counts per candidate how many fold fits ended on each box end, keyed like
    MleFit.at_bound (e.g. {"lambda:lower": 8}), and fold_status by the status
    of their best start (e.g. {"0": 7, "2": 1}). A failed fold adds to none.
    workers counts the processes that ran the fold fits; to_dict leaves it
    out, so the report's file does not depend on the machine.
    """

    candidates: list
    cv_rmspe: np.ndarray
    cv_se: np.ndarray
    chosen: int
    chosen_1se: int
    fold_failures: np.ndarray
    disqualified: np.ndarray
    fold_evals: np.ndarray
    fold_at_bound: list
    fold_status: list
    implied_cutoffs: np.ndarray | None = None
    workers: int = 1

    def to_dict(self) -> dict:
        out = {"candidates": [], "chosen": int(self.chosen), "chosen_1se": int(self.chosen_1se)}
        for i, cand in enumerate(self.candidates):
            entry = {
                **cand.to_dict(),
                "n_active": cand.n_active(),
                "cv_rmspe": float(self.cv_rmspe[i]),
                "cv_se": float(self.cv_se[i]),
                "failed_folds": int(self.fold_failures[i]),
                "disqualified": bool(self.disqualified[i]),
                "fold_evals": int(self.fold_evals[i]),
                "fold_at_bound": dict(self.fold_at_bound[i]),
                "fold_status": dict(self.fold_status[i]),
            }
            if self.implied_cutoffs is not None:
                entry["implied_cutoff"] = float(self.implied_cutoffs[i])
            out["candidates"].append(entry)
        return out


def inclusion_probabilities(chain) -> InclusionReport:
    """Fraction of draws including each indicator, plus model frequencies."""
    if len(chain) == 0:
        raise ValueError("chain holds no draws")
    p_r = chain.gamma_r.mean(axis=0)
    p_c = chain.gamma_c.mean(axis=0)
    first, _, counts = chain.model_counts()
    n = float(len(chain))
    freqs = {chain.indicator(i).key(): c / n for i, c in zip(first.tolist(), counts.tolist())}
    return InclusionReport(p_r=p_r, p_c=p_c, model_freqs=freqs)


def map_model(report: InclusionReport) -> ModelIndicator:
    """Highest empirical posterior probability model.

    Ties break toward fewer active indicators, then lexicographically.
    """
    if not report.model_freqs:
        raise ValueError("no model frequencies recorded")
    best_key = min(
        report.model_freqs,
        key=lambda k: (-report.model_freqs[k], sum(k[0]) + sum(k[1]), k),
    )
    return ModelIndicator(*best_key)


def threshold_model(report: InclusionReport, q: float) -> ModelIndicator:
    """Model containing exactly the indicators with inclusion probability >= q."""
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    return ModelIndicator(
        (report.p_r >= q).astype(np.int8), (report.p_c >= q).astype(np.int8)
    )


def candidate_ladder(
    report: InclusionReport, low: float = 0.30, high: float = 0.90
) -> list[ModelIndicator]:
    """Nested candidate models from the inclusion-probability bands.

    Indicators at or above `high` enter every candidate; those below `low`
    enter none; the band in between is sorted by descending probability and
    added one prefix at a time. At most 2p candidates are produced (the bare
    automatic model is dropped if the ladder would exceed that).
    """
    if not low < high:
        raise ValueError("need low < high")
    p = report.p
    auto_r = report.p_r >= high
    auto_c = report.p_c >= high
    # every linear indicator, then every spatial one, as (part, index, probability)
    band = [(part, j, prob) for part, probs in (("r", report.p_r), ("c", report.p_c))
            for j, prob in enumerate(map(float, probs)) if low <= prob < high]
    band.sort(key=lambda t: (-t[2], t[0], t[1]))

    candidates = []
    gamma_r = auto_r.astype(np.int8)
    gamma_c = auto_c.astype(np.int8)
    candidates.append(ModelIndicator(gamma_r.copy(), gamma_c.copy()))
    for part, j, _ in band:
        if part == "r":
            gamma_r[j] = 1
        else:
            gamma_c[j] = 1
        candidates.append(ModelIndicator(gamma_r.copy(), gamma_c.copy()))
    if len(candidates) > 2 * p:
        candidates = candidates[1:]
    return candidates


def implied_cutoffs(
    report: InclusionReport, candidates: list[ModelIndicator], high: float = 0.90
) -> np.ndarray:
    """Threshold each ladder candidate corresponds to.

    For a candidate, this is the smallest inclusion probability among its
    active indicators (thresholding there reproduces it), so the bare
    automatic model maps to its lowest active probability, at or above
    `high`. Only a candidate with no active indicator maps to `high`.
    """
    cutoffs = np.empty(len(candidates))
    for i, cand in enumerate(candidates):
        probs = [
            float(report.p_r[j]) for j in np.where(cand.gamma_r == 1)[0]
        ] + [float(report.p_c[j]) for j in np.where(cand.gamma_c == 1)[0]]
        cutoffs[i] = min(probs) if probs else high
    return cutoffs


def _cv_folds(n: int, v: int, seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [np.sort(f) for f in np.array_split(rng.permutation(n), v)]


def cross_validate(
    data,
    candidates: list[ModelIndicator],
    v: int,
    seed: int = 0,
) -> CvReport:
    """v-fold cross-validation of the candidates by per-fold RMSPE.

    Rows are partitioned into v seeded folds with sizes differing by at most
    one. The score of a candidate is the mean of its per-fold RMSPEs and the
    reported standard error is taken across folds. Each fold fit estimates
    the nugget (`fit_mle` with lambda free). Fold failures are skipped
    with a warning; a candidate failing more than 25% of folds is
    disqualified. The (candidate, fold) fits run in forked worker processes
    when they train on enough rows and the CPUs have room beside the BLAS
    threads (see predict._pool_size); the report and the failure warnings,
    logged in job order, are those of the serial run.
    """
    n = data.X.shape[0]
    if v < 2:
        raise ValidationError("need at least 2 folds")
    if v > n:
        raise ValidationError(f"cannot split {n} rows into {v} folds")
    if not candidates:
        raise ValidationError("no candidate models supplied")
    folds = _cv_folds(n, v, seed)
    all_rows = np.arange(n)

    def fit_fold(job: int):
        """Score candidate job // v on fold job % v: (rmspe, n_evals,
        at_bound, status) of its fit, or the text of the error it raised."""
        cand, fold = candidates[job // v], folds[job % v]
        train = data.subset(np.setdiff1d(all_rows, fold))
        test = data.subset(fold)
        try:
            fit = fit_mle(train, cand)
            pred = predict_mle(fit, train, PredictionRequest(test.X))
        except (NumericalSingularityError, OptimizationFailureError,
                np.linalg.LinAlgError) as exc:
            return str(exc)
        return rmspe(test.y, pred), fit.n_evals, fit.at_bound, str(fit.best_start["status"])

    # each candidate's v fold fits train on (v - 1) * n rows in all
    workers = _pool_size(len(candidates) * v, len(candidates) * (v - 1) * n, POOL_MIN_ROWS)
    kernel._scipy("optimize")  # the fold fits' search, imported before any fork
    results = _map_jobs(fit_fold, len(candidates) * v, workers)
    scores = np.full((len(candidates), v), np.nan)
    fold_evals = np.zeros(len(candidates), dtype=int)
    fold_at_bound = [Counter() for _ in candidates]
    fold_status = [Counter() for _ in candidates]
    for job, result in enumerate(results):
        ci, fi = divmod(job, v)
        if isinstance(result, str):
            logger.warning("candidate %d fold %d failed: %s", ci, fi, result)
            continue
        scores[ci, fi], n_evals, at_bound, status = result
        fold_evals[ci] += n_evals
        fold_at_bound[ci].update(at_bound)
        fold_status[ci][status] += 1

    n_fail = np.sum(np.isnan(scores), axis=1)
    disqualified = n_fail > 0.25 * v
    cv_rmspe = np.full(len(candidates), np.inf)
    cv_se = np.zeros(len(candidates))
    for ci in range(len(candidates)):
        ok = scores[ci][~np.isnan(scores[ci])]
        if ok.size:
            cv_rmspe[ci] = float(np.mean(ok))
            cv_se[ci] = float(np.std(ok, ddof=1) / np.sqrt(ok.size)) if ok.size > 1 else 0.0

    eligible = [ci for ci in range(len(candidates)) if not disqualified[ci]]
    if not eligible:
        raise GpSelectError("every candidate was disqualified during cross-validation")
    chosen = min(
        eligible,
        key=lambda ci: (cv_rmspe[ci], candidates[ci].n_active(), candidates[ci].key()),
    )
    one_se_limit = cv_rmspe[chosen] + cv_se[chosen]
    within = [ci for ci in eligible if cv_rmspe[ci] <= one_se_limit]
    chosen_1se = min(
        within,
        key=lambda ci: (candidates[ci].n_active(), cv_rmspe[ci], candidates[ci].key()),
    )
    return CvReport(
        candidates=list(candidates),
        cv_rmspe=cv_rmspe,
        cv_se=cv_se,
        chosen=int(chosen),
        chosen_1se=int(chosen_1se),
        fold_failures=n_fail,
        disqualified=disqualified,
        fold_evals=fold_evals,
        fold_at_bound=fold_at_bound,
        fold_status=fold_status,
        workers=workers,
    )
