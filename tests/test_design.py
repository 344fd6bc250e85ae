import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gpselect import DimensionMismatchError, maximin_lhd, rmspe, sim_response
from gpselect.design import _hill_climb, _min_pairwise_dist, random_lhd, sim_response_batch

from oracles import hill_climb_reference


def test_two_point_design_is_forced():
    d = maximin_lhd(2, 1, box=(0.0, 1.0), seed=0)
    assert sorted(d.points[:, 0]) == [0.25, 0.75]


def test_latin_property(rng):
    for _ in range(10):
        n = int(rng.integers(3, 20))
        p = int(rng.integers(1, 5))
        d = maximin_lhd(n, p, seed=int(rng.integers(1 << 30)), n_restarts=2)
        for j in range(p):
            strata = np.floor(d.points[:, j] * n).astype(int)
            assert sorted(strata) == list(range(n))


def test_hill_climb_improves_on_plain_lhd():
    for seed in (1, 2, 3):
        plain = random_lhd(12, 3, np.random.default_rng(seed))
        improved = maximin_lhd(12, 3, seed=seed, n_restarts=1)
        assert improved.maximin_dist >= _min_pairwise_dist(plain) - 1e-12


@settings(max_examples=60, deadline=None, derandomize=True)
@example(n=35, p=5, seed=11, max_passes=30, kind="midpoint")
@example(n=12, p=3, seed=4, max_passes=30, kind="lattice")
@given(
    n=st.integers(2, 40),
    p=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    max_passes=st.integers(1, 3),
    kind=st.sampled_from(["midpoint", "lattice", "uniform"]),
)
def test_hill_climb_matches_reference(n, p, seed, max_passes, kind):
    # "lattice" puts the midpoints on integers, where many pairs tie exactly
    # at the minimum distance; "uniform" points are not a Latin design at all
    rng = np.random.default_rng(seed)
    start = rng.uniform(size=(n, p)) if kind == "uniform" else random_lhd(n, p, rng)
    if kind == "lattice":
        start *= n
    got = _hill_climb(start.copy(), max_passes=max_passes)
    want = hill_climb_reference(start.copy(), max_passes=max_passes)
    assert np.array_equal(got, want)


def test_box_scaling():
    d = maximin_lhd(35, 5, box=(-0.75, 0.75), seed=4, n_restarts=1)
    assert d.points.shape == (35, 5)
    assert d.points.min() >= -0.75 and d.points.max() <= 0.75
    # midpoint strata keep points off the box faces
    assert d.points.min() > -0.75 + 1e-9


def test_maximin_requires_two_points():
    with pytest.raises(ValueError):
        maximin_lhd(1, 2)


def test_sim_response_at_origin():
    assert sim_response(np.zeros(5), noise_sd=0.0) == pytest.approx(12.0, rel=1e-12)


def test_sim_response_plug_in_point():
    x = np.array([1.0 / 3.0, 0.0, 0.0, 0.0, 0.0])
    # 4 + 3 + 5*cos(pi/2) = 7
    assert sim_response(x, noise_sd=0.0) == pytest.approx(7.0, abs=1e-12)


def test_sim_response_x5_inert(rng):
    x = rng.uniform(-0.75, 0.75, size=5)
    base = sim_response(x, noise_sd=0.0)
    for _ in range(5):
        x2 = x.copy()
        x2[4] = rng.uniform(-10, 10)
        assert sim_response(x2, noise_sd=0.0) == base


def test_sim_response_needs_rng_for_noise():
    with pytest.raises(ValueError):
        sim_response(np.zeros(5), noise_sd=0.1)
    with pytest.raises(DimensionMismatchError):
        sim_response(np.zeros(4), noise_sd=0.0)


def test_sim_response_noise_is_additive(rng):
    x = np.zeros(5)
    draws = sim_response_batch(np.tile(x, (4000, 1)), noise_sd=0.1, rng=rng)
    assert abs(draws.mean() - 12.0) < 0.01
    assert abs(draws.std() - 0.1) < 0.01


def test_rmspe_identical_is_zero():
    assert rmspe([1.0, 2.0], [1.0, 2.0]) == 0.0


def test_rmspe_hand_value():
    assert rmspe([0.0, 0.0], [3.0, 4.0]) == pytest.approx(np.sqrt(12.5), rel=1e-12)


def test_rmspe_length_mismatch():
    with pytest.raises(DimensionMismatchError):
        rmspe([1.0], [1.0, 2.0])
