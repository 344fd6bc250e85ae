"""Timing of one model-averaging call, with no time assertion.

Times one `model_average` at the scale of the benchmark's chain_reuse
workload: n=35 training rows, p=5 on a maximin LHD, 1,000 prediction sites
and a 50,000-draw chain holding 5,000 distinct draws (runs of repeated
states, as rejected proposals leave them). The benchmark's extra_info
records the number of distinct draws, the median microseconds per distinct
draw, and the shapes the kriging means work in: draws per factored stack
and sites per cross-correlation tile. For a reading, pin BLAS to one
thread:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest \\
        tests/test_average_bench.py --benchmark-columns=median,iqr
"""

import numpy as np

from gpselect import Chain, Dataset, PredictionRequest, maximin_lhd, model_average, sim_response
from gpselect.predict import _cross_blocks


def _chain_of_runs(rng, p, n_distinct, mean_run):
    """A chain of n_distinct random states, each repeated a geometric number of times."""
    runs = rng.geometric(1.0 / mean_run, size=n_distinct)
    gamma_r = (rng.random((n_distinct, p)) < 0.6).astype(np.int8)
    gamma_c = (rng.random((n_distinct, p)) < 0.6).astype(np.int8)
    beta = np.where(gamma_r == 1, rng.normal(size=(n_distinct, p)), 0.0)
    rho = np.where(gamma_c == 1, rng.uniform(0.05, 0.95, size=(n_distinct, p)), 1.0)
    k = int(runs.sum())
    return Chain(
        gamma_r=np.repeat(gamma_r, runs, axis=0), gamma_c=np.repeat(gamma_c, runs, axis=0),
        beta0=np.repeat(rng.normal(size=n_distinct), runs), beta=np.repeat(beta, runs, axis=0),
        rho=np.repeat(rho, runs, axis=0), sigma2_z=np.ones(k),
        lam=np.repeat(np.exp(rng.uniform(-6.0, 0.0, size=n_distinct)), runs),
        omega_r=np.full(k, 0.5), omega_c=np.full(k, 0.5), log_posts=np.zeros(k),
        iters=np.arange(k), accepted=np.zeros(k, dtype=bool),
    )


def test_model_average_time(benchmark):
    X = maximin_lhd(35, 5, seed=11, n_restarts=1).points
    y = sim_response(X, noise_sd=0.1, rng=np.random.default_rng(11))
    data = Dataset(X=X, y=(y - y.mean()) / y.std(), column_names=[f"x{j}" for j in range(1, 6)])
    rng = np.random.default_rng(12)
    chain = _chain_of_runs(rng, 5, n_distinct=5000, mean_run=10.0)
    req = PredictionRequest(rng.uniform(size=(1000, 5)))

    preds = benchmark.pedantic(model_average, args=(chain, data, req), rounds=3, iterations=1)

    benchmark.extra_info["draws"] = len(chain)
    benchmark.extra_info["distinct_draws"] = 5000
    benchmark.extra_info["us_per_distinct_draw"] = benchmark.stats.stats.median / 5000 * 1e6
    draws, sites = _cross_blocks(35, 5)
    benchmark.extra_info["draws_per_stack"] = draws
    benchmark.extra_info["sites_per_tile"] = sites
    assert preds.shape == (1000,) and np.all(np.isfinite(preds))
