import numpy as np
import pytest

from gpselect import (
    Dataset,
    ModelIndicator,
    PriorConfig,
    SamplerConfig,
    ValidationError,
    candidate_ladder,
    cross_validate,
    inclusion_probabilities,
    map_model,
    run_chain,
    threshold_model,
)
from gpselect.select import InclusionReport, implied_cutoffs


def _chain_from_keys(keys):
    """Minimal chain stub: only the fields selection code touches."""
    from gpselect.sampler import Chain

    n = len(keys)
    p = len(keys[0][0])
    return Chain(
        gamma_r=np.array([k[0] for k in keys], dtype=np.int8),
        gamma_c=np.array([k[1] for k in keys], dtype=np.int8),
        beta0=np.zeros(n),
        beta=np.zeros((n, p)),
        rho=np.ones((n, p)),
        sigma2_z=np.ones(n),
        lam=np.full(n, 0.1),
        omega_r=np.full(n, 0.5),
        omega_c=np.full(n, 0.5),
        log_posts=np.zeros(n),
        iters=np.arange(n),
        accepted=np.ones(n, dtype=bool),
    )


def _report(p_r, p_c, freqs=None):
    return InclusionReport(
        p_r=np.asarray(p_r, dtype=float),
        p_c=np.asarray(p_c, dtype=float),
        model_freqs=freqs or {},
    )


def test_single_model_chain():
    key = ((1, 0), (0, 1))
    chain = _chain_from_keys([key] * 6)
    rep = inclusion_probabilities(chain)
    assert rep.model_freqs == {key: 1.0}
    assert list(rep.p_r) == [1.0, 0.0]
    assert list(rep.p_c) == [0.0, 1.0]


def test_inclusion_hand_count():
    keys = [
        ((1, 0, 0), (0, 0, 0)),
        ((1, 1, 0), (0, 0, 0)),
        ((0, 0, 0), (1, 0, 0)),
        ((1, 0, 0), (0, 0, 0)),
    ]
    rep = inclusion_probabilities(_chain_from_keys(keys))
    assert rep.p_r[0] == pytest.approx(0.75)
    assert rep.p_r[1] == pytest.approx(0.25)
    assert rep.p_c[0] == pytest.approx(0.25)
    # exact rational frequencies
    assert float(rep.p_r[0] * 4) == 3.0
    assert sum(rep.model_freqs.values()) == pytest.approx(1.0)
    # models in order of first appearance, which to_dict uses to break ties
    assert list(rep.model_freqs.items()) == [(keys[0], 0.5), (keys[1], 0.25), (keys[2], 0.25)]


def test_map_model_direct_max():
    a = ((1, 0), (0, 0))
    b = ((0, 1), (1, 1))
    rep = _report([0.6, 0.4], [0.4, 0.4], {a: 0.6, b: 0.4})
    assert map_model(rep).key() == a


def test_map_model_tie_breaks_to_sparser():
    sparse = ((1, 0), (0, 0))
    dense = ((1, 1), (1, 0))
    rep = _report([1, 0.5], [0.5, 0], {dense: 0.5, sparse: 0.5})
    assert map_model(rep).key() == sparse


def test_threshold_model_basic():
    rep = _report([0.9, 0.1], [0.3, 0.7])
    m = threshold_model(rep, 0.5)
    assert list(m.gamma_r) == [1, 0]
    assert list(m.gamma_c) == [0, 1]


def test_threshold_model_boundary_and_monotone(rng):
    for _ in range(30):
        p = int(rng.integers(1, 6))
        rep = _report(rng.uniform(size=p), rng.uniform(size=p))
        q1, q2 = sorted(rng.uniform(0.05, 0.95, size=2))
        m1 = threshold_model(rep, q1)
        m2 = threshold_model(rep, q2)
        # higher threshold keeps a subset
        assert np.all(m2.gamma_r <= m1.gamma_r)
        assert np.all(m2.gamma_c <= m1.gamma_c)
    rep = _report([0.9, 0.1], [0.3, 0.7])
    empty = threshold_model(rep, 0.9000001)
    assert empty.n_active() == 0


def test_ladder_rule_application():
    # probabilities (0.95, 0.5, 0.2): one automatic, one banded, one dropped
    rep = _report([0.95, 0.5], [0.2, 0.0])
    ladder = candidate_ladder(rep, 0.30, 0.90)
    assert len(ladder) == 2
    assert ladder[0].key() == ((1, 0), (0, 0))
    assert ladder[1].key() == ((1, 1), (0, 0))


def test_ladder_single_candidate_when_all_high():
    rep = _report([0.95, 0.99], [0.91, 0.97])
    ladder = candidate_ladder(rep)
    assert len(ladder) == 1
    assert ladder[0].n_active() == 4


def test_ladder_nested_and_bounded(rng):
    for _ in range(50):
        p = int(rng.integers(1, 7))
        rep = _report(rng.uniform(size=p), rng.uniform(size=p))
        ladder = candidate_ladder(rep)
        assert 1 <= len(ladder) <= 2 * p
        for a, b in zip(ladder, ladder[1:]):
            assert np.all(a.gamma_r <= b.gamma_r)
            assert np.all(a.gamma_c <= b.gamma_c)
            assert b.n_active() == a.n_active() + 1


def test_ladder_all_banded_still_bounded():
    # every indicator in the band would give 2p + 1 prefixes; the bare
    # automatic (empty) model is dropped to keep the 2p bound
    p = 3
    rep = _report(np.full(p, 0.5), np.full(p, 0.6))
    ladder = candidate_ladder(rep)
    assert len(ladder) == 2 * p
    assert ladder[0].n_active() == 1


def test_implied_cutoffs_reproduce_candidates():
    rep = _report([0.95, 0.5], [0.35, 0.1])
    ladder = candidate_ladder(rep)
    cuts = implied_cutoffs(rep, ladder)
    for cand, q in zip(ladder, cuts):
        assert threshold_model(rep, q) == cand


def test_cross_validate_single_candidate(small_data):
    cand = [ModelIndicator([1, 0], [0, 1])]
    rep = cross_validate(small_data, cand, v=3, seed=1)
    assert rep.chosen == 0
    assert rep.chosen_1se == 0
    assert np.isfinite(rep.cv_rmspe[0])


def test_cross_validate_generator_wins(rng):
    # noiseless linear truth: the generating model should dominate
    X = rng.uniform(size=(24, 2))
    y = 1.0 + 2.5 * X[:, 0]
    data = Dataset(X=X, y=y, column_names=["a", "b"])
    generator = ModelIndicator([1, 0], [0, 0])
    wrong = ModelIndicator([0, 1], [0, 0])
    rep = cross_validate(data, [wrong, generator], v=4, seed=2)
    assert rep.chosen == 1
    assert rep.cv_rmspe[1] < rep.cv_rmspe[0]


def test_cross_validate_deterministic_and_order_invariant(small_data):
    cands = [
        ModelIndicator([1, 0], [0, 1]),
        ModelIndicator([0, 0], [1, 1]),
        ModelIndicator([1, 1], [1, 1]),
    ]
    rep1 = cross_validate(small_data, cands, v=3, seed=7)
    rep2 = cross_validate(small_data, cands, v=3, seed=7)
    assert np.array_equal(rep1.cv_rmspe, rep2.cv_rmspe)
    assert rep1.chosen == rep2.chosen
    perm = [2, 0, 1]
    rep3 = cross_validate(small_data, [cands[i] for i in perm], v=3, seed=7)
    assert cands[rep1.chosen] == [cands[i] for i in perm][rep3.chosen]
    for i, pi in enumerate(perm):
        assert rep3.cv_rmspe[i] == pytest.approx(rep1.cv_rmspe[pi], rel=1e-12)


def test_cross_validate_threads_match_serial(small_data):
    cands = [ModelIndicator([1, 0], [0, 1]), ModelIndicator([0, 0], [1, 1])]
    rep1 = cross_validate(small_data, cands, v=3, seed=3, n_threads=1)
    rep2 = cross_validate(small_data, cands, v=3, seed=3, n_threads=4)
    assert np.array_equal(rep1.cv_rmspe, rep2.cv_rmspe)


def test_cross_validate_one_se_prefers_sparse(rng):
    # two near-equivalent candidates: 1-SE pick must not be denser than the
    # minimizer when both are within one standard error
    X = rng.uniform(size=(20, 2))
    y = 1.0 + 2.0 * X[:, 0] + rng.normal(scale=0.4, size=20)
    data = Dataset(X=X, y=y, column_names=["a", "b"])
    lean = ModelIndicator([1, 0], [0, 0])
    rich = ModelIndicator([1, 1], [1, 1])
    rep = cross_validate(data, [rich, lean], v=4, seed=5)
    cands = [rich, lean]
    if rep.cv_rmspe[rep.chosen_1se] <= rep.cv_rmspe[rep.chosen] + rep.cv_se[rep.chosen]:
        assert cands[rep.chosen_1se].n_active() <= cands[rep.chosen].n_active()


def test_cross_validate_validation_errors(small_data):
    with pytest.raises(ValidationError):
        cross_validate(small_data, [ModelIndicator([1, 0], [0, 0])], v=1)
    with pytest.raises(ValidationError):
        cross_validate(small_data, [ModelIndicator([1, 0], [0, 0])], v=99)
    with pytest.raises(ValidationError):
        cross_validate(small_data, [], v=3)


def test_fold_sizes_differ_by_at_most_one(small_data):
    from gpselect.select import _cv_folds

    folds = _cv_folds(10, 3, seed=0)
    sizes = sorted(len(f) for f in folds)
    assert sizes == [3, 3, 4]
    assert np.array_equal(np.sort(np.concatenate(folds)), np.arange(10))


def test_reports_from_real_chain(small_data, tmp_path):
    cfg = SamplerConfig(n_iter=400, burn_in=100, seed=1)
    chain = run_chain(small_data, PriorConfig(), cfg)
    rep = inclusion_probabilities(chain)
    assert np.all((rep.p_r >= 0) & (rep.p_r <= 1))
    assert sum(rep.model_freqs.values()) == pytest.approx(1.0)
    # exact rational frequencies over the chain length
    for prob in list(rep.model_freqs.values())[:5]:
        assert prob * len(chain) == pytest.approx(round(prob * len(chain)), abs=1e-9)
    ladder = candidate_ladder(rep)
    assert 1 <= len(ladder) <= 2 * small_data.p
