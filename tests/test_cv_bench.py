"""Timing of one cross-validation, with no time assertion.

Times `cross_validate` of a single semiparametric candidate (x2, x3, x4 in
the trend, x1, x2, x3 in the correlation) over 8 folds at n=35, p=5 on a
maximin LHD, the paper's design size. Each fold fit is a
`fit_mle` with the nugget free on 30 or 31 rows, then a `predict_mle` on
the held-out rows. The benchmark's extra_info records the fold fits, the
objective evaluations they computed, how their best starts ended and the
worker processes that ran them. For a reading, pin BLAS to one thread:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest \\
        tests/test_cv_bench.py --benchmark-columns=median,iqr

Its 8 fold fits train on 245 rows in all, below the pool's floor
(predict.POOL_MIN_ROWS), so the reading times them in one process
(cv_workers = 1) whatever the BLAS threads: on 2 CPUs a pooled run of this
CV measured 0.187 s against 0.130 s in one process.
"""

import numpy as np

from gpselect import Dataset, ModelIndicator, cross_validate, maximin_lhd, sim_response

V_FOLDS = 8


def test_cv_time(benchmark):
    X = maximin_lhd(35, 5, seed=11, n_restarts=1).points
    y = sim_response(X, noise_sd=0.1, rng=np.random.default_rng(11))
    data = Dataset(X=X, y=(y - y.mean()) / y.std(), column_names=[f"x{j}" for j in range(1, 6)])
    cand = ModelIndicator([0, 1, 1, 1, 0], [1, 1, 1, 0, 0])

    # the warm-up round pays the first fit's scipy import
    report = benchmark.pedantic(cross_validate, args=(data, [cand], V_FOLDS), rounds=3,
                                iterations=1, warmup_rounds=1)

    entry = report.to_dict()["candidates"][0]
    benchmark.extra_info["fold_fits"] = V_FOLDS - entry["failed_folds"]
    benchmark.extra_info["fold_evals"] = entry["fold_evals"]
    benchmark.extra_info["fold_status"] = entry["fold_status"]
    benchmark.extra_info["cv_workers"] = report.workers
    assert np.isfinite(entry["cv_rmspe"])
