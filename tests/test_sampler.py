import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gpselect import (
    Dataset,
    ModelIndicator,
    ParameterState,
    PriorConfig,
    SamplerConfig,
    load_chain,
    run_chain,
    save_chain,
    to_unconstrained,
)
from gpselect.kernel import LikelihoodCache
from gpselect.model import flat_state
from gpselect.sampler import (
    Chain,
    _log_target,
    log_alpha,
    proposal_log_correction,
    propose_arrays,
    reflect_unit,
)

from oracles import (
    _ref_validate_consistent as validate_consistent,
    load_chain_reference,
    log_prior_oracle,
    loglik_oracle,
    random_dataset,
    random_state,
    run_chain_reference,
    save_chain_reference,
)

CHAIN_ARRAYS = (
    "gamma_r", "gamma_c", "beta0", "beta", "rho", "sigma2_z", "lam",
    "omega_r", "omega_c", "log_posts", "iters", "accepted", "draw_accepted",
)


def _current(p, rng):
    ind, state = random_state(rng, p)
    return ind, state


def propose(current, cfg, prior, rng):
    """One `propose_arrays` step from an (indicator, state) pair, as a pair."""
    t = to_unconstrained(current[1])
    gamma_r, gamma_c, beta, rho, scalars, _ = propose_arrays(
        *flat_state(*current), (t.mu, t.zeta, t.psi_r, t.psi_c), cfg, prior.tau, rng)
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
    x = rng.normal(scale=2.0, size=10000)
    r = reflect_unit(x)
    assert np.all(r > 0.0) and np.all(r < 1.0)
    # folding is exact for single reflections
    assert reflect_unit(np.array([1.2]))[0] == pytest.approx(0.8, rel=1e-12)
    assert reflect_unit(np.array([-0.3]))[0] == pytest.approx(0.3, rel=1e-12)


def test_propose_keeps_consistency(rng):
    cfg = SamplerConfig()
    prior = PriorConfig()
    for _ in range(200):
        cur = _current(3, rng)
        ind, state = propose(cur, cfg, prior, rng)
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
    new_ind, new_state = propose((ind, state), cfg, prior, rng)
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
        new_ind, new_state = propose((ind, state), cfg, prior, rng)
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
    cfg = SamplerConfig(nu=1e-12, jitter_when_no_flip=True)
    prior = PriorConfig()
    cur_ind, cur_state = _current(3, rng)
    ind, state = propose((cur_ind, cur_state), cfg, prior, rng)
    assert ind == cur_ind
    # jitter moved the active values, the walk moved the scalars
    assert state.sigma2_z != cur_state.sigma2_z
    assert state.beta0 != cur_state.beta0


def test_propose_no_flip_jitter_flag(rng):
    cfg = SamplerConfig(nu=1e-12, jitter_when_no_flip=False)
    prior = PriorConfig()
    cur_ind, cur_state = _current(3, rng)
    ind, state = propose((cur_ind, cur_state), cfg, prior, rng)
    assert np.array_equal(state.beta, cur_state.beta)
    assert np.array_equal(state.rho, cur_state.rho)


def test_accept_probability_identity_is_one(rng, small_data):
    prior = PriorConfig()
    cur = random_state(rng, 2)
    assert accept_probability(cur, cur, small_data, prior) == 1.0


def test_accept_probability_matches_oracle(rng, small_data):
    from gpselect import log_jacobian, to_unconstrained
    from scipy.stats import norm

    prior = PriorConfig()
    cur = random_state(rng, 2)
    prop = random_state(rng, 2)

    def target(pair):
        ind, state = pair
        return (
            loglik_oracle(small_data, state)
            + log_prior_oracle(ind, state, prior)
            + log_jacobian(to_unconstrained(state))
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
    from gpselect import log_jacobian, to_unconstrained

    prior = PriorConfig()
    ind, state = random_state(rng, 2)
    prop_state = state.copy()
    prop_state.sigma2_z *= 1.3
    prop_state.beta0 += 0.2

    def target(s):
        return (
            loglik_oracle(small_data, s)
            + log_prior_oracle(ind, s, prior)
            + log_jacobian(to_unconstrained(s))
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
    prop_ind, prop_state = cur[0].copy(), cur[1].copy()
    prop_state.lam = 0.08
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


def test_run_chain_acceptance_strictly_interior(small_data):
    cfg = SamplerConfig(n_iter=10000, burn_in=100, seed=11)
    chain = run_chain(small_data, PriorConfig(), cfg)
    assert 0.0 < chain.acceptance_rate < 1.0
    assert chain.accepted.any() and not chain.accepted.all()


def test_flat_likelihood_recovers_indicator_prior(rng):
    # lighter version of the acceptance check: marginal P(gamma = 1) = 1/2;
    # a prior draw starts the chain in stationarity
    data = random_dataset(rng, n=5, p=3)
    cfg = SamplerConfig(n_iter=12000, burn_in=2000, seed=9, init="prior")
    chain = run_chain(data, PriorConfig(), cfg, flat_likelihood=True)
    freqs = np.concatenate([chain.gamma_r.mean(0), chain.gamma_c.mean(0)])
    assert np.all(np.abs(freqs - 0.5) < 0.08)


def test_chain_round_trip(small_data, tmp_path):
    cfg = SamplerConfig(n_iter=200, burn_in=20, seed=5)
    chain = run_chain(small_data, PriorConfig(), cfg)
    path = tmp_path / "chain.jsonl"
    save_chain(chain, path)
    loaded = load_chain(path)
    assert len(loaded) == len(chain)
    assert np.array_equal(loaded.gamma_r, chain.gamma_r)
    assert np.array_equal(loaded.beta, chain.beta)
    assert np.array_equal(loaded.rho, chain.rho)
    assert np.array_equal(loaded.log_posts, chain.log_posts)
    assert np.array_equal(loaded.iters, chain.iters)


SPECIAL_FLOATS = (0.0, -0.0, 1.0, 0.1, 5e-324, 1e-300, 1e300)


def _draw_state(rng, p):
    """One chain state with zeros of either sign and awkward magnitudes."""
    def value():
        if rng.random() < 0.3:
            return SPECIAL_FLOATS[rng.integers(len(SPECIAL_FLOATS))]
        return float(rng.normal() * 10.0 ** rng.integers(-8, 8))

    gamma_r, gamma_c = rng.integers(0, 2, size=(2, p))
    zero = (0.0, -0.0)
    return {
        "gamma_r": gamma_r, "gamma_c": gamma_c,
        "beta": [value() if g else zero[rng.integers(2)] for g in gamma_r],
        "rho": [rng.uniform() if g else 1.0 for g in gamma_c],
        **{k: value() for k in ("beta0", "sigma2_z", "lam", "omega_r", "omega_c", "log_posts")},
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
    flags = rng.random(n) < 0.5
    fields = {k: np.array([s[k] for s in states]) for k in states[0]}
    return Chain(
        **{**fields, "gamma_r": fields["gamma_r"].astype(np.int8),
           "gamma_c": fields["gamma_c"].astype(np.int8)},
        iters=2000 + thin - 1 + thin * np.arange(n, dtype=np.int64),
        accepted=flags, draw_accepted=flags.copy(),
    )


def _assert_same_chain(got, want):
    for name in CHAIN_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
        if a.dtype == np.float64:
            assert np.array_equal(a.view(np.int64), b.view(np.int64)), name


@settings(max_examples=80, deadline=None, derandomize=True)
@given(chain=stored_chains())
def test_save_chain_matches_reference_bytes(chain, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("save")
    save_chain(chain, tmp / "got.jsonl")
    save_chain_reference(chain, tmp / "want.jsonl")
    assert (tmp / "got.jsonl").read_bytes() == (tmp / "want.jsonl").read_bytes()


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


@settings(max_examples=40, deadline=None, derandomize=True)
@example(n=8, p=3, n_iter=400, seed=1, slab_correction=True, thin=1, jitter_when_no_flip=True,
         init="spatial", nu=0.3, flat_likelihood=False)
@example(n=6, p=2, n_iter=300, seed=2, slab_correction=False, thin=3, jitter_when_no_flip=False,
         init="spatial", nu=None, flat_likelihood=True)
@given(
    n=st.integers(2, 8),
    p=st.integers(1, 3),
    n_iter=st.integers(2, 400),
    seed=st.integers(0, 2**32 - 1),
    slab_correction=st.booleans(),
    thin=st.sampled_from([1, 3]),
    jitter_when_no_flip=st.booleans(),
    init=st.sampled_from(["prior", "empty", "spatial", "explicit"]),
    nu=st.sampled_from([None, 0.3]),
    flat_likelihood=st.booleans(),
)
def test_run_chain_matches_reference_bit_for_bit(
    n, p, n_iter, seed, slab_correction, thin, jitter_when_no_flip, init, nu,
    flat_likelihood,
):
    rng = np.random.default_rng(seed)
    data = random_dataset(rng, n=n, p=p)
    start = random_state(rng, p) if init == "explicit" else None
    cfg = SamplerConfig(
        n_iter=n_iter, burn_in=n_iter // 4, thin=min(thin, n_iter - n_iter // 4),
        seed=seed, nu=nu, slab_correction=slab_correction,
        jitter_when_no_flip=jitter_when_no_flip,
        init="empty" if init == "explicit" else init,
    )
    prior = PriorConfig()
    chain = run_chain(data, prior, cfg, flat_likelihood=flat_likelihood, init=start)
    ref = run_chain_reference(data, prior, cfg, flat_likelihood=flat_likelihood, init=start)
    for name in CHAIN_ARRAYS:
        assert np.array_equal(getattr(chain, name), getattr(ref, name)), name
