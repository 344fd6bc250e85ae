import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gpselect import (
    Dataset,
    GpSelectError,
    ModelIndicator,
    ParameterState,
    PriorConfig,
    SamplerConfig,
    log_jacobian,
    load_chain,
    run_chain,
    save_chain,
    to_unconstrained,
)
from gpselect import sampler
from gpselect.kernel import LikelihoodCache
from gpselect.model import _expit_clipped, flat_state
from gpselect.sampler import (
    _ROW_SCALARS,
    Chain,
    _log_target,
    _row_fields,
    log_alpha,
    proposal_log_correction,
    propose,
    reflect_unit,
)
from scipy.special import expit

from oracles import (
    STATE_FIELDS,
    _ref_reflect_unit,
    _ref_validate_consistent as validate_consistent,
    chain_of_draws,
    expand,
    load_chain_reference,
    log_prior_oracle,
    model_counts_reference,
    loglik_oracle,
    random_dataset,
    random_state,
    run_chain_reference,
    runs_reference,
    save_chain_reference,
)

CHAIN_ARRAYS = (*STATE_FIELDS, "run_of", "iters", "draw_accepted")


def _current(p, rng):
    ind, state = random_state(rng, p)
    return ind, state


def _unconstrained(state):
    return to_unconstrained(state.sigma2_z, state.lam, state.omega_r, state.omega_c)


def propose_pair(current, cfg, prior, rng):
    """One `propose` step from an (indicator, state) pair, as a pair."""
    gamma_r, gamma_c, beta, rho, scalars, _, _ = propose(
        *flat_state(*current), _unconstrained(current[1]), cfg, prior.tau, rng)
    return ModelIndicator(gamma_r, gamma_c), ParameterState(scalars[0], beta, rho, *scalars[1:])


def accept_probability(current, proposed, data, prior):
    """min(1, exp(log alpha)) of the sampler's acceptance rule between two pairs:
    `_log_target` of each, the flips' `proposal_log_correction`, `log_alpha`."""
    like = LikelihoodCache(data)
    prop_target, cur_target = (_log_target(*flat_state(*pair), like, prior)[0]
                               for pair in (proposed, current))
    gamma_r = current[0].gamma_r
    flips_r = np.flatnonzero(gamma_r != proposed[0].gamma_r).tolist()
    corr = proposal_log_correction(current[1].beta, proposed[1].beta, gamma_r, flips_r, prior.tau)
    return math.exp(min(log_alpha(prop_target, cur_target, corr), 0.0))


def test_reflect_unit_stays_inside(rng):
    r = np.array([reflect_unit(x) for x in rng.normal(scale=2.0, size=10000).tolist()])
    assert np.all(r > 0.0) and np.all(r < 1.0)
    # folding is exact for single reflections
    assert reflect_unit(1.2) == pytest.approx(0.8, rel=1e-12)
    assert reflect_unit(-0.3) == pytest.approx(0.3, rel=1e-12)


@settings(max_examples=300, deadline=None, derandomize=True)
@example(x=0.0)
@example(x=-0.0)
@example(x=1.0)
@example(x=2.0)
@example(x=-1.0)
@example(x=-2.0)
@example(x=1e-300)
@example(x=-12.75)
@example(x=3.0e15 + 0.5)
@given(x=st.one_of(st.floats(-4.0, 4.0), st.floats(-1e6, 1e6),
                   st.floats(allow_nan=False, allow_infinity=False)))
def test_reflect_unit_matches_the_array_form(x):
    # the scalar fold against np.mod / np.where / np.clip, bit for bit
    want = _ref_reflect_unit(np.array([x]))[0]
    assert np.float64(reflect_unit(x)).view(np.int64) == want.view(np.int64)


def test_expit_matches_scipy():
    # a dense grid and random points on [-40, 40], the edges, and the overflow guard
    x = np.concatenate([np.linspace(-40.0, 40.0, 200_001),
                        np.random.default_rng(0).uniform(-40.0, 40.0, 200_000),
                        [0.0, -0.0, 36.7, -36.7, 800.0, -800.0]])
    want = np.clip(expit(x), 1e-15, 1.0 - 1e-15)
    got = np.array([_expit_clipped(v) for v in x.tolist()])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_propose_keeps_consistency(rng):
    cfg = SamplerConfig()
    prior = PriorConfig()
    for _ in range(200):
        cur = _current(3, rng)
        ind, state = propose_pair(cur, cfg, prior, rng)
        validate_consistent(ind, state)
        active = state.rho[ind.gamma_c == 1]
        assert np.all((active > 0.0) & (active < 1.0))
        assert state.lam >= 1e-10
        assert state.sigma2_z > 0


def test_propose_deactivation_snaps_to_point_mass(rng):
    # with nu = 1 every indicator flips, so active slots must deactivate
    cfg = SamplerConfig(nu=1.0)
    prior = PriorConfig()
    p = 3
    ind = ModelIndicator(np.ones(p, int), np.ones(p, int))
    state = ParameterState(
        beta0=0.0,
        beta=np.array([1.0, -2.0, 0.5]),
        rho=np.array([0.2, 0.5, 0.9]),
        sigma2_z=1.0,
        lam=0.1,
        omega_r=0.5,
        omega_c=0.5,
    )
    new_ind, new_state = propose_pair((ind, state), cfg, prior, rng)
    assert np.all(new_ind.gamma_r == 0) and np.all(new_ind.gamma_c == 0)
    assert np.all(new_state.beta == 0.0)
    assert np.all(new_state.rho == 1.0)


def test_propose_activation_draws_fresh_values(rng):
    cfg = SamplerConfig(nu=1.0)
    prior = PriorConfig()
    p = 2
    ind = ModelIndicator(np.zeros(p, int), np.zeros(p, int))
    state = ParameterState(
        beta0=0.0, beta=np.zeros(p), rho=np.ones(p),
        sigma2_z=1.0, lam=0.1, omega_r=0.5, omega_c=0.5,
    )
    betas, rhos = [], []
    for _ in range(200):
        new_ind, new_state = propose_pair((ind, state), cfg, prior, rng)
        assert np.all(new_ind.gamma_r == 1) and np.all(new_ind.gamma_c == 1)
        betas.extend(new_state.beta)
        rhos.extend(new_state.rho)
    betas = np.array(betas)
    rhos = np.array(rhos)
    assert np.all((rhos > 0) & (rhos < 1))
    # activation draws follow N(0, tau^2): spread should be near tau = 5
    assert 4.0 < betas.std() < 6.0
    assert abs(rhos.mean() - 0.5) < 0.05


def test_propose_zero_flips_only_walks(rng):
    # nu tiny: flips essentially never happen, indicators stay put
    cfg = SamplerConfig(nu=1e-12)
    prior = PriorConfig()
    cur_ind, cur_state = _current(3, rng)
    ind, state = propose_pair((cur_ind, cur_state), cfg, prior, rng)
    assert ind == cur_ind
    # jitter moved the active values, the walk moved the scalars
    assert state.sigma2_z != cur_state.sigma2_z
    assert state.beta0 != cur_state.beta0


def test_accept_probability_identity_is_one(rng, small_data):
    prior = PriorConfig()
    cur = random_state(rng, 2)
    assert accept_probability(cur, cur, small_data, prior) == 1.0


def test_accept_probability_matches_oracle(rng, small_data):
    from scipy.stats import norm

    prior = PriorConfig()
    cur = random_state(rng, 2)
    prop = random_state(rng, 2)

    def target(pair):
        ind, state = pair
        return (
            loglik_oracle(small_data, state)
            + log_prior_oracle(ind, state, prior)
            + log_jacobian(*_unconstrained(state))
        )

    # fresh-slab flips exchange their proposal density against the slab prior
    corr = 0.0
    for j in range(2):
        if cur[0].gamma_r[j] == 1 and prop[0].gamma_r[j] == 0:
            corr += norm.logpdf(cur[1].beta[j], scale=prior.tau)
        if cur[0].gamma_r[j] == 0 and prop[0].gamma_r[j] == 1:
            corr -= norm.logpdf(prop[1].beta[j], scale=prior.tau)

    delta = target(prop) - target(cur) + corr
    expected = min(1.0, math.exp(min(delta, 700.0)))
    assert accept_probability(cur, prop, small_data, prior) == pytest.approx(
        expected, rel=1e-9
    )


def test_accept_probability_plain_ratio_without_flips(rng, small_data):
    # identical indicators: the ratio is the bare posterior + Jacobian delta
    prior = PriorConfig()
    ind, state = random_state(rng, 2)
    prop_state = dataclasses.replace(state, sigma2_z=state.sigma2_z * 1.3,
                                     beta0=state.beta0 + 0.2)

    def target(s):
        return (
            loglik_oracle(small_data, s)
            + log_prior_oracle(ind, s, prior)
            + log_jacobian(*_unconstrained(s))
        )

    delta = target(prop_state) - target(state)
    expected = min(1.0, math.exp(min(delta, 700.0)))
    assert accept_probability(
        (ind, state), (ind, prop_state), small_data, prior
    ) == pytest.approx(expected, rel=1e-9)


def test_accept_probability_capped_at_one(rng, small_data):
    prior = PriorConfig()
    cur = random_state(rng, 2)
    # make the proposal identical except for a much better-supported lambda;
    # either direction the probability must stay within [0, 1]
    prop_ind, prop_state = cur[0].copy(), dataclasses.replace(cur[1], lam=0.08)
    a = accept_probability(cur, (prop_ind, prop_state), small_data, prior)
    b = accept_probability((prop_ind, prop_state), cur, small_data, prior)
    assert 0.0 <= a <= 1.0 and 0.0 <= b <= 1.0
    assert a == 1.0 or b == 1.0  # one direction is uphill


def test_run_chain_single_draw(small_data):
    cfg = SamplerConfig(n_iter=6, burn_in=5, thin=1, seed=1)
    chain = run_chain(small_data, PriorConfig(), cfg)
    assert len(chain) == 1


def test_run_chain_rejects_empty_data():
    data = Dataset(X=np.zeros((0, 2)), y=np.zeros(0), column_names=["a", "b"])
    with pytest.raises(ValueError, match="empty dataset"):
        run_chain(data, PriorConfig(), SamplerConfig(n_iter=10, burn_in=1))


@pytest.mark.parametrize("change, named", [
    ({"rho": [1.0, 0.5]}, r"rho=\[1\.0, 0\.5\]"),
    ({"rho": [0.0, 0.5]}, r"rho=\[0\.0, 0\.5\]"),
    ({"beta0": math.nan}, r"beta0=nan"),
    ({"sigma2_z": -1.0}, r"sigma2_z.*-1\.0"),
], ids=["active_rho_one", "active_rho_zero", "beta0_nan", "sigma2_z_negative"])
def test_run_chain_rejects_an_init_outside_the_support(change, named):
    # both correlations active: at rho_j = 1 or 0 the uniform slab has no
    # density, and a NaN intercept leaves the target undefined
    data = random_dataset(np.random.default_rng(4), n=10, p=2)
    state = ParameterState(beta0=0.0, beta=[0.0, 0.0], rho=[0.5, 0.5], sigma2_z=1.0, lam=0.1,
                           omega_r=0.5, omega_c=0.5)
    init = (ModelIndicator([0, 0], [1, 1]), dataclasses.replace(state, **change))
    cfg = SamplerConfig(n_iter=50, burn_in=0, seed=1)
    with pytest.raises(GpSelectError, match=named) as info:
        run_chain(data, PriorConfig(), cfg, init=init)
    assert isinstance(info.value, ValueError)


def test_run_chain_thinning_arithmetic(small_data):
    cfg = SamplerConfig(n_iter=107, burn_in=7, thin=10, seed=1)
    chain = run_chain(small_data, PriorConfig(), cfg)
    assert len(chain) == (107 - 7) // 10


def test_run_chain_deterministic(small_data, tmp_path):
    cfg = SamplerConfig(n_iter=300, burn_in=50, seed=42)
    c1 = run_chain(small_data, PriorConfig(), cfg)
    c2 = run_chain(small_data, PriorConfig(), cfg)
    save_chain(c1, tmp_path / "a.jsonl")
    save_chain(c2, tmp_path / "b.jsonl")
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()


def test_run_chain_draws_are_consistent(small_data):
    cfg = SamplerConfig(n_iter=500, burn_in=100, seed=3)
    chain = run_chain(small_data, PriorConfig(), cfg)
    for i in range(0, len(chain), 37):
        ind, state = chain.indicator(i), chain.state(i)
        validate_consistent(ind, state)
        active = state.rho[ind.gamma_c == 1]
        assert np.all((active > 0.0) & (active < 1.0))


def test_acceptance_by_flips_partitions_every_iteration(small_data, tmp_path):
    cfg = SamplerConfig(n_iter=3000, burn_in=300, seed=7, nu=0.3)
    chain = run_chain(small_data, PriorConfig(), cfg)
    table = chain.acceptance_by_flips
    assert list(table) == ["0", "1", "2", "3+"]
    assert sum(m["proposed"] for m in table.values()) == cfg.n_iter
    assert sum(m["accepted"] for m in table.values()) == chain.accepted.sum()
    # the CLI reports chain.accepted.mean(): an exact count over n_iter, as is
    # the table's accepted share, so the two floats agree to the bit
    share = sum(m["accepted"] for m in table.values()) / cfg.n_iter
    assert float(chain.accepted.mean()) == share
    assert all(0 < m["proposed"] and 0 <= m["accepted"] <= m["proposed"] for m in table.values())
    # nu = 1 flips all 2p = 4 indicators every iteration; a tiny nu flips none
    for nu, bucket in ((1.0, "3+"), (1e-12, "0")):
        chain = run_chain(small_data, PriorConfig(), SamplerConfig(n_iter=200, burn_in=20, nu=nu))
        assert chain.acceptance_by_flips[bucket]["proposed"] == 200
        assert chain.acceptance_by_flips[bucket]["accepted"] == chain.accepted.sum()
        assert float(chain.accepted.mean()) == chain.accepted.sum() / 200
    save_chain(chain, tmp_path / "chain.jsonl")
    assert load_chain(tmp_path / "chain.jsonl").acceptance_by_flips is None


def test_draw_flags_survive_a_save_load_round_trip(small_data, tmp_path):
    # the file holds the flags of the stored iterations only: a loaded chain
    # has them as draw_accepted and no per-iteration flags
    cfg = SamplerConfig(n_iter=2000, burn_in=500, thin=3, seed=5)
    chain = run_chain(small_data, PriorConfig(), cfg)
    save_chain(chain, tmp_path / "chain.jsonl")
    loaded = load_chain(tmp_path / "chain.jsonl")
    assert np.array_equal(chain.draw_accepted, chain.accepted[chain.iters])
    assert np.array_equal(loaded.draw_accepted, chain.draw_accepted)
    assert loaded.accepted is None


def test_run_chain_acceptance_strictly_interior(small_data):
    cfg = SamplerConfig(n_iter=10000, burn_in=100, seed=11)
    chain = run_chain(small_data, PriorConfig(), cfg)
    assert chain.draw_accepted.any() and not chain.draw_accepted.all()
    assert chain.accepted.any() and not chain.accepted.all()


def test_flat_likelihood_recovers_indicator_prior(rng):
    # lighter version of the acceptance check: marginal P(gamma = 1) = 1/2;
    # a prior draw starts the chain in stationarity
    data = random_dataset(rng, n=5, p=3)
    cfg = SamplerConfig(n_iter=12000, burn_in=2000, seed=9, init="prior")
    chain = run_chain(data, PriorConfig(), cfg, flat_likelihood=True)
    draws = expand(chain)
    freqs = np.concatenate([draws["gamma_r"].mean(0), draws["gamma_c"].mean(0)])
    assert np.all(np.abs(freqs - 0.5) < 0.08)


def test_chain_round_trip(small_data, tmp_path):
    cfg = SamplerConfig(n_iter=200, burn_in=20, seed=5)
    chain = run_chain(small_data, PriorConfig(), cfg)
    path = tmp_path / "chain.jsonl"
    save_chain(chain, path)
    loaded = load_chain(path)
    assert len(loaded) == len(chain)
    assert np.array_equal(loaded.run_of, chain.run_of)
    assert np.array_equal(loaded.gamma_r, chain.gamma_r)
    assert np.array_equal(loaded.beta, chain.beta)
    assert np.array_equal(loaded.rho, chain.rho)
    assert np.array_equal(loaded.log_posts, chain.log_posts)
    assert np.array_equal(loaded.iters, chain.iters)


SPECIAL_FLOATS = (0.0, -0.0, 1.0, 0.1, 5e-324, 1e-300, 1e300)


def _draw_state(rng, p):
    """One chain state inside the prior's support (load_chain reads no other),
    with zeros of either sign and awkward magnitudes."""
    def value():
        if rng.random() < 0.3:
            return SPECIAL_FLOATS[rng.integers(len(SPECIAL_FLOATS))]
        return float(rng.normal() * 10.0 ** rng.integers(-8, 8))

    def positive():
        return abs(value()) or 0.5

    def unit():
        return min(positive(), 1.0 - 2.0 ** -53) if rng.random() < 0.5 else rng.uniform(0.01, 1.0)

    gamma_r, gamma_c = rng.integers(0, 2, size=(2, p))
    zero = (0.0, -0.0)
    return {
        "gamma_r": gamma_r, "gamma_c": gamma_c,
        "beta": [value() if g else zero[rng.integers(2)] for g in gamma_r],
        "rho": [unit() if g else 1.0 for g in gamma_c],
        "beta0": value(), "sigma2_z": positive(), "lam": positive(),
        "omega_r": unit(), "omega_c": unit(), "log_posts": value(),
    }


@st.composite
def stored_chains(draw):
    """Chains whose draws repeat, alternate between two states, or differ
    from the previous draw only in the sign of a zero."""
    n = draw(st.integers(1, 25))
    p = draw(st.integers(1, 4))
    thin = draw(st.sampled_from([1, 3]))
    moves = draw(st.lists(st.sampled_from(["new", "repeat", "alternate", "sign"]),
                          min_size=n, max_size=n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    states = []
    for move in moves:
        if move == "new" or not states:
            states.append(_draw_state(rng, p))
        elif move == "repeat" or len(states) < 2 and move == "alternate":
            states.append(states[-1])
        elif move == "alternate":
            states.append(states[-2])
        else:
            beta0 = states[-1]["beta0"]
            states.append({**states[-1], "beta0": -beta0 if beta0 == 0.0 else 0.0})
    fields = {k: np.array([s[k] for s in states]) for k in states[0]}
    return chain_of_draws({**fields, "iters": 2000 + thin - 1 + thin * np.arange(n),
                           "draw_accepted": rng.random(n) < 0.5})


def _assert_same_chain(got, want):
    """The same rows, per-draw arrays and per-iteration flags (None in both,
    or equal), floats bit for bit, and no two adjacent rows equal in their bits."""
    assert (got.accepted is None) == (want.accepted is None)
    for name in CHAIN_ARRAYS + (() if want.accepted is None else ("accepted",)):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
        if a.dtype == np.float64:
            assert np.array_equal(a.view(np.int64), b.view(np.int64)), name
    assert runs_reference({name: getattr(got, name) for name in STATE_FIELDS}).all()


@settings(max_examples=80, deadline=None, derandomize=True)
@given(chain=stored_chains())
def test_save_chain_matches_reference_bytes(chain, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("save")
    save_chain(chain, tmp / "got.jsonl")
    save_chain_reference(chain, tmp / "want.jsonl")
    assert (tmp / "got.jsonl").read_bytes() == (tmp / "want.jsonl").read_bytes()
    # one packed row per draw merges into the reference runs, and load_chain
    # builds the same rows and run_of
    draws = expand(chain)
    n, p = draws["gamma_r"].shape
    gammas = np.hstack([draws["gamma_r"], draws["gamma_c"]])
    values = np.column_stack([draws["beta"], draws["rho"], *(draws[k] for k in _ROW_SCALARS)])
    _assert_same_chain(Chain(**_row_fields(gammas, values, n, p, np.arange(n)),
                             iters=chain.iters, accepted=chain.accepted,
                             draw_accepted=chain.draw_accepted), chain)
    _assert_same_chain(load_chain(tmp / "got.jsonl"), chain)


def _relayout(line, style):
    """The same JSON object in another JSON-Lines layout."""
    rec = json.loads(line)
    if style == "spaces":
        return json.dumps(rec)
    if style == "reordered":
        return json.dumps(dict(reversed(list(rec.items()))), separators=(",", ":"))
    if style == "extra":
        return json.dumps({"iter": rec.pop("iter"), "note": [1, {"a": None}], **rec},
                          separators=(",", ":"))
    if style == "duplicate_keys":
        # json.loads keeps the last of repeated keys
        head, tail = line[:-1].rsplit(',"accepted":', 1)
        return f'{head},"iter":{rec["iter"] + 1},"accepted":{tail},"accepted":false}}'
    if style == "blank":
        return "\n   \n" + line
    return line


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    chain=stored_chains(),
    styles=st.lists(st.sampled_from(["same", "spaces", "reordered", "extra", "duplicate_keys",
                                     "blank"]), min_size=1, max_size=6),
)
def test_load_chain_matches_reference_in_any_layout(chain, styles, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("load")
    save_chain_reference(chain, tmp / "chain.jsonl")
    _assert_same_chain(load_chain(tmp / "chain.jsonl"), load_chain_reference(tmp / "chain.jsonl"))
    lines = (tmp / "chain.jsonl").read_text(encoding="utf-8").splitlines()
    text = "\n".join(_relayout(line, styles[k % len(styles)]) for k, line in enumerate(lines))
    (tmp / "relaid.jsonl").write_text(text + "\n\n", encoding="utf-8")
    _assert_same_chain(load_chain(tmp / "relaid.jsonl"), load_chain_reference(tmp / "relaid.jsonl"))


def test_traced_chain_counts_its_prior_likelihood_and_transforms(small_data, monkeypatch):
    # the benchmark's tracer times the functions the loop calls: one prior,
    # one likelihood and the transforms per iteration, plus the start's
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    from tracer import Tracer, layer_metrics

    n_iter = 60
    cfg = SamplerConfig(n_iter=n_iter, burn_in=10, seed=3)
    with Tracer() as tracer:
        sampler.run_chain(small_data, PriorConfig(), cfg)
    run_s = tracer.end[0] - tracer.start[0]
    metrics, _ = layer_metrics(tracer, run_s, run_s)
    assert metrics["model.log_prior.calls"] == n_iter + 1
    assert metrics["kernel.log_likelihood.calls"] == n_iter + 1
    assert metrics["model.transforms.s"] > 0.0


def test_load_chain_rejects_an_empty_file(tmp_path):
    (tmp_path / "chain.jsonl").write_text("\n  \n", encoding="utf-8")
    with pytest.raises(ValueError, match="no draws"):
        load_chain(tmp_path / "chain.jsonl")


def test_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(n_iter=10, burn_in=10).validate()
    with pytest.raises(ValueError):
        SamplerConfig(thin=0).validate()
    with pytest.raises(ValueError):
        SamplerConfig(nu=1.5).validate()
    with pytest.raises(ValueError):
        SamplerConfig(rw_sd=(0.1, 0.1)).validate()
    # the first stored iteration, burn_in + thin - 1, must lie inside the chain
    with pytest.raises(ValueError, match="burn_in \\+ thin <= n_iter"):
        SamplerConfig(n_iter=10, burn_in=5, thin=7).validate()
    SamplerConfig(n_iter=12, burn_in=5, thin=7).validate()


@pytest.mark.parametrize("key, value", [("rw_sd", (0.2, 0.2, math.nan, 0.3, 0.3)),
                                        ("rw_sd", (0.2, 0.2, 0.2, -0.3, 0.3)),
                                        ("jitter_sd_rho", math.nan),
                                        ("jitter_sd_beta", math.inf)])
def test_sampler_config_needs_finite_positive_step_sizes(key, value):
    with pytest.raises(ValueError, match=f"sampler.{key} must be finite and positive"):
        SamplerConfig(**{key: value}).validate()


@settings(max_examples=40, deadline=None, derandomize=True)
@example(n=8, p=3, n_iter=400, seed=1, slab_correction=True, thin=1,
         init="spatial", nu=0.3, flat_likelihood=False)
@example(n=6, p=2, n_iter=300, seed=2, slab_correction=False, thin=3,
         init="spatial", nu=None, flat_likelihood=True)
# the replication benchmark's sampler settings, and a p = 8 chain like large_n's
@example(n=35, p=5, n_iter=400, seed=11, slab_correction=False, thin=1,
         init="empty", nu=None, flat_likelihood=False)
@example(n=40, p=8, n_iter=300, seed=3, slab_correction=True, thin=1,
         init="spatial", nu=None, flat_likelihood=False)
@given(
    n=st.integers(2, 40),
    p=st.integers(1, 9),
    n_iter=st.integers(2, 400),
    seed=st.integers(0, 2**32 - 1),
    slab_correction=st.booleans(),
    thin=st.sampled_from([1, 3]),
    init=st.sampled_from(["prior", "empty", "spatial", "explicit"]),
    nu=st.sampled_from([None, 0.3]),
    flat_likelihood=st.booleans(),
)
def test_run_chain_matches_reference_bit_for_bit(
    n, p, n_iter, seed, slab_correction, thin, init, nu, flat_likelihood,
):
    rng = np.random.default_rng(seed)
    data = random_dataset(rng, n=n, p=p)
    start = random_state(rng, p) if init == "explicit" else None
    cfg = SamplerConfig(
        n_iter=n_iter, burn_in=n_iter // 4, thin=min(thin, n_iter - n_iter // 4),
        seed=seed, nu=nu, slab_correction=slab_correction,
        init="empty" if init == "explicit" else init,
    )
    prior = PriorConfig()
    chain = run_chain(data, prior, cfg, flat_likelihood=flat_likelihood, init=start)
    ref = run_chain_reference(data, prior, cfg, flat_likelihood=flat_likelihood, init=start)
    _assert_same_chain(chain, ref)


@settings(max_examples=80, deadline=None, derandomize=True)
@example(p=4, n_draws=1, density=0.5, seed=0)
@example(p=3, n_draws=20, density=0.0, seed=1)
@given(
    p=st.integers(1, 12),
    n_draws=st.integers(1, 60),
    density=st.sampled_from([0.0, 0.2, 0.5, 0.9]),
    seed=st.integers(0, 2**32 - 1),
)
def test_model_counts_match_the_row_unique_reference(p, n_draws, density, seed):
    # 2p runs over multiples of 8 (p = 4, 8, 12) and not; density 0 gives
    # all-zero rows; few distinct rows so that models recur
    rng = np.random.default_rng(seed)
    pool = (rng.random((4, 2 * p)) < density).astype(np.int8)
    rows = pool[rng.integers(0, pool.shape[0], size=n_draws)]
    chain = chain_of_draws({
        "gamma_r": rows[:, :p], "gamma_c": rows[:, p:], "beta0": np.zeros(n_draws),
        "beta": np.zeros((n_draws, p)), "rho": np.ones((n_draws, p)),
        "sigma2_z": np.ones(n_draws), "lam": np.ones(n_draws), "omega_r": np.full(n_draws, 0.5),
        "omega_c": np.full(n_draws, 0.5), "log_posts": np.zeros(n_draws),
        "iters": np.arange(n_draws), "draw_accepted": np.zeros(n_draws, dtype=bool),
    })
    # the package counts rows weighted by their runs, the reference draws
    first, model, counts = chain.model_counts()
    want_first, want_model, want_counts = model_counts_reference(chain)
    assert np.array_equal(first, chain.run_of[want_first])
    assert np.array_equal(model[chain.run_of], want_model)
    assert np.array_equal(counts, want_counts)
