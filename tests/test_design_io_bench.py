"""Timing of the maximin LHD build and of chain file I/O, with no time assertion.

Times `maximin_lhd(100, 5, n_restarts=2)` and a `save_chain` + `load_chain`
round trip of a 50,000-draw chain at 8% acceptance (the share of stored
draws that differ from the one before in a paper-scale chain). For a
reading, pin BLAS to one thread:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest \\
        tests/test_design_io_bench.py --benchmark-columns=median,iqr
"""

import numpy as np

from gpselect import Chain, load_chain, maximin_lhd, save_chain

N_DRAWS = 50_000


def test_maximin_lhd_time(benchmark):
    design = benchmark.pedantic(maximin_lhd, args=(100, 5), kwargs={"n_restarts": 2},
                                rounds=3, iterations=1)
    assert design.points.shape == (100, 5)


def _chain(n_draws, p=5, accept=0.08, seed=0):
    rng = np.random.default_rng(seed)
    state = np.cumsum(rng.random(n_draws) < accept)
    n_states = int(state[-1]) + 1
    gamma_r, gamma_c = rng.integers(0, 2, size=(2, n_states, p), dtype=np.int8)
    flags = np.diff(state, prepend=0) > 0
    # one row per state, each its run
    return Chain(
        gamma_r=gamma_r, gamma_c=gamma_c,
        beta=np.where(gamma_r, rng.normal(size=(n_states, p)), 0.0),
        rho=np.where(gamma_c, rng.uniform(size=(n_states, p)), 1.0),
        # states inside the prior's support, the only ones load_chain reads
        **{k: draw(size=n_states)
           for k, draw in (("beta0", rng.normal), ("sigma2_z", rng.lognormal),
                           ("lam", rng.lognormal), ("omega_r", rng.uniform),
                           ("omega_c", rng.uniform), ("log_posts", rng.normal))},
        run_of=state, iters=np.arange(20_000, 20_000 + n_draws, dtype=np.int64),
        accepted=flags, draw_accepted=flags,
    )


def test_chain_round_trip_time(benchmark, tmp_path):
    chain = _chain(N_DRAWS)
    path = tmp_path / "chain.jsonl"

    def round_trip():
        save_chain(chain, path)
        return load_chain(path)

    loaded = benchmark.pedantic(round_trip, rounds=3, iterations=1)
    assert np.array_equal(loaded.beta, chain.beta)
    assert np.array_equal(loaded.run_of, chain.run_of)
