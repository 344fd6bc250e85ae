"""Timing and peak memory of one kriging prediction on a large grid, with
no time or memory assertion.

Times one `predict_mle` at 20,000 sites with n=200 training rows and p=8
columns, the large_n workload's training shape on a grid twenty times its
site count. The benchmark's extra_info records the sites per
cross-correlation tile and the `tracemalloc` peak of one further call, in
MB: the kriging means hold one tile of sites at a time, so the peak should
not grow with the number of sites. For a reading, pin BLAS to one thread:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest \\
        tests/test_predict_bench.py --benchmark-columns=median,iqr
"""

import tracemalloc

import numpy as np

from gpselect import Dataset, ModelIndicator, PredictionRequest, predict_mle
from gpselect.predict import MleFit, _cross_blocks


def test_predict_mle_on_a_large_grid(benchmark):
    rng = np.random.default_rng(14)
    n, p, m = 200, 8, 20_000
    data = Dataset(X=rng.uniform(size=(n, p)), y=rng.normal(size=n),
                   column_names=[f"x{j}" for j in range(1, p + 1)])
    fit = MleFit(model=ModelIndicator(np.ones(p, dtype=int), np.ones(p, dtype=int)),
                 beta0_hat=0.3, beta_hat=rng.normal(size=p),
                 rho_hat=rng.uniform(0.05, 0.95, size=p), lambda_hat=1e-4, sigma2_hat=1.0,
                 neg_log_lik=0.0)
    req = PredictionRequest(rng.uniform(size=(m, p)))

    preds = benchmark.pedantic(predict_mle, args=(fit, data, req), rounds=3, iterations=1)

    tracemalloc.start()
    try:
        predict_mle(fit, data, req)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    benchmark.extra_info["sites"] = m
    benchmark.extra_info["sites_per_tile"] = _cross_blocks(n, p)[1]
    benchmark.extra_info["tracemalloc_peak_mb"] = peak / 2**20
    assert preds.shape == (m,) and np.all(np.isfinite(preds))
