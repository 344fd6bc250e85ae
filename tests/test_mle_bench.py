"""Timings of plug-in MLE fits, with no time assertion.

Times universal-kriging `fit_mle` runs (every covariate in the trend and in
the correlation, nugget free, 5 starts): one at n=35, p=5 on a maximin LHD,
the paper's design size, and one at n=100, p=8 on a random LHD, where the
search has 9 free parameters. The benchmark's extra_info records the
objective evaluations the fit computed next to the objective requests its
optimizer made over all starts (a point requested again is computed once),
and how each start ended. For a reading, pin BLAS to one thread:

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

    _time_fit(benchmark, data, uk)


def test_mle_fit_time_p8(benchmark, p8_data):
    _time_fit(benchmark, p8_data, ModelIndicator(np.ones(8, dtype=int), np.ones(8, dtype=int)))


def _time_fit(benchmark, data, model):
    fit = benchmark.pedantic(fit_mle, args=(data, model), rounds=3, iterations=1)

    benchmark.extra_info["n_evals"] = fit.n_evals
    benchmark.extra_info["objective_requests"] = sum(start["nfev"] for start in fit.starts)
    benchmark.extra_info["start_status"] = [start["status"] for start in fit.starts]
    assert np.isfinite(fit.neg_log_lik)
