"""Model choice from a chain: inclusion probabilities, MAP and threshold
models, the nested candidate ladder, and v-fold cross-validation with a
one-standard-error alternative.
"""

from __future__ import annotations

import csv
import json
import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .design import rmspe
from .errors import (
    GpSelectError,
    NumericalSingularityError,
    OptimizationFailureError,
    ValidationError,
)
from .model import ModelIndicator
from .predict import PredictionRequest, fit_mle, predict_mle

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

    def to_dict(self, column_names=None) -> dict:
        names = list(column_names) if column_names else [f"x{j+1}" for j in range(self.p)]
        return {
            "columns": names,
            "p_r": [float(v) for v in self.p_r],
            "p_c": [float(v) for v in self.p_c],
            "model_freqs": [
                {"gamma_r": list(k[0]), "gamma_c": list(k[1]), "prob": float(v)}
                for k, v in sorted(self.model_freqs.items(), key=lambda kv: -kv[1])
            ],
        }


@dataclass
class CvReport:
    """Cross-validation scores over a candidate list.

    chosen is the RMSPE minimizer; chosen_1se the sparsest candidate within
    one standard error of it. Candidates whose fit failed on more than a
    quarter of the folds are disqualified from both choices.
    """

    candidates: list
    cv_rmspe: np.ndarray
    cv_se: np.ndarray
    chosen: int
    chosen_1se: int
    fold_failures: np.ndarray = field(default=None)
    implied_cutoffs: np.ndarray = field(default=None)
    disqualified: np.ndarray = field(default=None)

    def to_dict(self) -> dict:
        out = {"candidates": [], "chosen": int(self.chosen), "chosen_1se": int(self.chosen_1se)}
        for i, cand in enumerate(self.candidates):
            entry = {
                "gamma_r": [int(g) for g in cand.gamma_r],
                "gamma_c": [int(g) for g in cand.gamma_c],
                "n_active": cand.n_active(),
                "cv_rmspe": float(self.cv_rmspe[i]),
                "cv_se": float(self.cv_se[i]),
            }
            if self.fold_failures is not None:
                entry["failed_folds"] = int(self.fold_failures[i])
            if self.disqualified is not None:
                entry["disqualified"] = bool(self.disqualified[i])
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
    freqs = {chain.model_key(i): c / n for i, c in zip(first.tolist(), counts.tolist())}
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
    return ModelIndicator.from_key(best_key)


def threshold_model(report: InclusionReport, q: float) -> ModelIndicator:
    """Model containing exactly the indicators with inclusion probability >= q."""
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    return ModelIndicator(
        (report.p_r >= q).astype(np.int8), (report.p_c >= q).astype(np.int8)
    )


def _band_items(report: InclusionReport):
    """All 2p indicators as (part, index, probability) triples."""
    items = [("r", j, float(report.p_r[j])) for j in range(report.p)]
    items += [("c", j, float(report.p_c[j])) for j in range(report.p)]
    return items


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
    band = [
        (part, j, prob)
        for part, j, prob in _band_items(report)
        if low <= prob < high
    ]
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
    active indicators (thresholding there reproduces it); the bare automatic
    model maps to `high`.
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


def _fit_and_score(data, cand, train_rows, test_rows, lambda_allowed):
    train = data.subset(train_rows)
    test = data.subset(test_rows)
    fit = fit_mle(train, cand, lambda_allowed=lambda_allowed)
    pred = predict_mle(fit, train, PredictionRequest(test.X))
    return rmspe(test.y, pred)


def cross_validate(
    data,
    candidates: list[ModelIndicator],
    v: int,
    seed: int = 0,
    lambda_allowed: bool = True,
    n_threads: int = 1,
) -> CvReport:
    """v-fold cross-validation of the candidates by per-fold RMSPE.

    Rows are partitioned into v seeded folds with sizes differing by at most
    one. The score of a candidate is the mean of its per-fold RMSPEs and the
    reported standard error is taken across folds. Fold failures are skipped
    with a warning; a candidate failing more than 25% of folds is
    disqualified.
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
    scores = np.full((len(candidates), v), np.nan)

    jobs = []
    for ci, cand in enumerate(candidates):
        for fi, fold in enumerate(folds):
            jobs.append((ci, fi, cand, np.setdiff1d(all_rows, fold), fold))

    def run(job):
        ci, fi, cand, train_rows, test_rows = job
        try:
            return ci, fi, _fit_and_score(data, cand, train_rows, test_rows, lambda_allowed)
        except (NumericalSingularityError, OptimizationFailureError, np.linalg.LinAlgError) as exc:
            logger.warning("candidate %d fold %d failed: %s", ci, fi, exc)
            return ci, fi, np.nan

    if n_threads > 1:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            results = list(pool.map(run, jobs))
    else:
        results = [run(job) for job in jobs]
    for ci, fi, val in results:
        scores[ci, fi] = val

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
    )


def inclusion_csv(path, report: InclusionReport, column_names=None) -> None:
    """Plot-ready CSV of inclusion probabilities (one bar per indicator)."""
    names = list(column_names) if column_names else [f"x{j+1}" for j in range(report.p)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["part", "column", "probability"])
        for j, name in enumerate(names):
            writer.writerow(["linear", name, repr(float(report.p_r[j]))])
        for j, name in enumerate(names):
            writer.writerow(["spatial", name, repr(float(report.p_c[j]))])


def cv_curve_csv(path, report: CvReport) -> None:
    """Plot-ready CSV of the CV curve with one-standard-error marks."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = [
            "candidate",
            "n_active",
            "cv_rmspe",
            "cv_se",
            "rmspe_minus_se",
            "rmspe_plus_se",
            "chosen",
            "chosen_1se",
        ]
        if report.implied_cutoffs is not None:
            header.insert(2, "implied_cutoff")
        writer.writerow(header)
        for i, cand in enumerate(report.candidates):
            row = [
                i,
                cand.n_active(),
                repr(float(report.cv_rmspe[i])),
                repr(float(report.cv_se[i])),
                repr(float(report.cv_rmspe[i] - report.cv_se[i])),
                repr(float(report.cv_rmspe[i] + report.cv_se[i])),
                int(i == report.chosen),
                int(i == report.chosen_1se),
            ]
            if report.implied_cutoffs is not None:
                row.insert(2, repr(float(report.implied_cutoffs[i])))
            writer.writerow(row)


def save_report_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
