"""Timing of one model-averaging call, with no time assertion.

Times one `model_average` at the scale of the benchmark's chain_reuse
workload: n=35 training rows, p=5 on a maximin LHD, 1,000 prediction sites
and a 50,000-draw chain holding 5,000 distinct draws (runs of repeated
states, as rejected proposals leave them). The benchmark's extra_info
records the number of distinct draws, the median microseconds per distinct
draw, the shapes the kriging means work in (draws per factored stack and
sites per cross-correlation tile) and the worker processes that ran them.
The call timed is the one model_average makes, which also returns those
workers. For a reading, pin BLAS to one thread:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest \\
        tests/test_average_bench.py --benchmark-columns=median,iqr

Its 5,000 distinct draws come to about 1.1e9 multiply-adds, above the
averaging floor (predict.AVERAGE_MIN_WORK), so with one BLAS thread on 2
CPUs the reading times two worker processes (workers = 2); with the BLAS
thread settings unset it times one.
"""

import numpy as np

from gpselect import Chain, Dataset, PredictionRequest, maximin_lhd, sim_response
from gpselect.predict import _average_and_mask, _cross_blocks


def _chain_of_runs(rng, p, n_distinct, mean_run):
    """A chain of n_distinct random states, each a run of a geometric number of draws."""
    runs = rng.geometric(1.0 / mean_run, size=n_distinct)
    gamma_r = (rng.random((n_distinct, p)) < 0.6).astype(np.int8)
    gamma_c = (rng.random((n_distinct, p)) < 0.6).astype(np.int8)
    beta = np.where(gamma_r == 1, rng.normal(size=(n_distinct, p)), 0.0)
    rho = np.where(gamma_c == 1, rng.uniform(0.05, 0.95, size=(n_distinct, p)), 1.0)
    k = int(runs.sum())
    flags = np.zeros(k, dtype=bool)
    return Chain(
        gamma_r=gamma_r, gamma_c=gamma_c, beta0=rng.normal(size=n_distinct), beta=beta,
        rho=rho, sigma2_z=np.ones(n_distinct),
        lam=np.exp(rng.uniform(-6.0, 0.0, size=n_distinct)),
        omega_r=np.full(n_distinct, 0.5), omega_c=np.full(n_distinct, 0.5),
        log_posts=np.zeros(n_distinct), run_of=np.repeat(np.arange(n_distinct), runs),
        iters=np.arange(k), accepted=flags, draw_accepted=flags,
    )


def test_model_average_time(benchmark):
    X = maximin_lhd(35, 5, seed=11, n_restarts=1).points
    y = sim_response(X, noise_sd=0.1, rng=np.random.default_rng(11))
    data = Dataset(X=X, y=(y - y.mean()) / y.std(), column_names=[f"x{j}" for j in range(1, 6)])
    rng = np.random.default_rng(12)
    chain = _chain_of_runs(rng, 5, n_distinct=5000, mean_run=10.0)
    req = PredictionRequest(rng.uniform(size=(1000, 5)))

    preds, _, workers, distinct = benchmark.pedantic(
        _average_and_mask, args=(chain, data, req, 0.0), rounds=3, iterations=1)

    benchmark.extra_info["draws"] = len(chain)
    benchmark.extra_info["distinct_draws"] = distinct
    benchmark.extra_info["us_per_distinct_draw"] = benchmark.stats.stats.median / distinct * 1e6
    draws, sites = _cross_blocks(35, 5)
    benchmark.extra_info["draws_per_stack"] = draws
    benchmark.extra_info["sites_per_tile"] = sites
    benchmark.extra_info["workers"] = workers
    assert preds.shape == (1000,) and np.all(np.isfinite(preds))
