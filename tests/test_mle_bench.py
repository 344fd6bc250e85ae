"""Timing of one plug-in MLE fit, with no time assertion.

Times one universal-kriging `fit_mle` (all five covariates in the trend and
in the correlation, nugget free, 5 starts) at n=35, p=5 on a maximin LHD,
the paper's design size. The benchmark's extra_info records the objective
evaluations the fit computed next to the objective requests its optimizer
made over all starts; a point requested again is computed once. For a reading, pin BLAS to one thread:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest \\
        tests/test_mle_bench.py --benchmark-columns=median,iqr
"""

import numpy as np

from gpselect import Dataset, ModelIndicator, fit_mle, maximin_lhd, sim_response


def test_mle_fit_time(benchmark):
    X = maximin_lhd(35, 5, seed=11, n_restarts=1).points
    y = sim_response(X, noise_sd=0.1, rng=np.random.default_rng(11))
    data = Dataset(X=X, y=(y - y.mean()) / y.std(), column_names=[f"x{j}" for j in range(1, 6)])
    uk = ModelIndicator(np.ones(5, dtype=int), np.ones(5, dtype=int))

    fit = benchmark.pedantic(fit_mle, args=(data, uk), rounds=3, iterations=1)

    benchmark.extra_info["n_evals"] = fit.n_evals
    benchmark.extra_info["objective_requests"] = sum(start["nfev"] for start in fit.starts)
    assert np.isfinite(fit.neg_log_lik)
