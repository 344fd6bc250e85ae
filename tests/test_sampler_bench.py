"""Per-iteration timing of the sampler loop, with no time assertion.

Times 2,000 `run_chain` iterations at n=35, p=5 on a maximin LHD (the
paper's design size) and records microseconds per iteration in the
benchmark's extra_info. For a reading, pin BLAS to one thread:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest \\
        tests/test_sampler_bench.py --benchmark-columns=median,iqr
"""

import numpy as np

from gpselect import Dataset, PriorConfig, SamplerConfig, maximin_lhd, run_chain, sim_response

N_ITER = 2000


def test_sampler_iteration_time(benchmark):
    X = maximin_lhd(35, 5, seed=11, n_restarts=1).points
    y = sim_response(X, noise_sd=0.1, rng=np.random.default_rng(11))
    data = Dataset(X=X, y=(y - y.mean()) / y.std(), column_names=[f"x{j}" for j in range(1, 6)])
    cfg = SamplerConfig(n_iter=N_ITER, burn_in=N_ITER // 4, seed=11)

    chain = benchmark.pedantic(run_chain, args=(data, PriorConfig(), cfg), rounds=3, iterations=1)

    benchmark.extra_info["us_per_iter"] = benchmark.stats.stats.median / N_ITER * 1e6
    assert len(chain) == N_ITER - N_ITER // 4
