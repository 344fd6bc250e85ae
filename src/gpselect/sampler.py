"""Metropolis-Hastings sampler over indicators and parameters.

Each iteration proposes in two stages: (1) flip a Binomial(2p, nu) number of
randomly chosen indicators, drawing fresh slab values on activation and
snapping to the point mass on deactivation, with a small symmetric jitter on
the untouched active coefficients and correlations; (2) an independent
Gaussian random walk on (beta0, log sigma2_z, log lambda, logit omega_r,
logit omega_c).

Activation values are drawn from their slabs (N(0, tau^2) for coefficients,
U(0, 1) for correlations), so in the acceptance ratio the proposal density
of a flipped coordinate cancels against its slab prior: flipped coefficients
contribute no density factor, only the Bernoulli mass moves. The jitter and
the random walk are symmetric (the walk after the Jacobian correction), so
nothing else enters the ratio.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalSingularityError
from .kernel import LikelihoodCache
from .model import (
    LAMBDA_FLOOR,
    ModelIndicator,
    ParameterState,
    PriorConfig,
    _norm_logpdf,
    draw_from_prior,
    flat_state,
    log_jacobian,
    log_jacobian_scalars,
    log_prior,  # noqa: F401  kept bound here: perfbench traces sampler.log_prior
    log_prior_arrays,
    scalars_from_unconstrained,
    scalars_to_unconstrained,
    to_unconstrained,
)

logger = logging.getLogger(__name__)


@dataclass
class SamplerConfig:
    """Tuning knobs for the chain.

    nu is the per-indicator flip rate; None resolves to 1/(2p) at run time.
    rw_sd holds the random-walk standard deviations for
    (beta0, log sigma2_z, log lambda, logit omega_r, logit omega_c).
    jitter_when_no_flip controls whether the stage-1 jitter is applied on
    iterations whose Binomial draw is k = 0.
    """

    n_iter: int = 20000
    burn_in: int = 2000
    nu: float | None = None
    jitter_sd_beta: float = 0.1
    jitter_sd_rho: float = 0.02
    rw_sd: tuple = (0.2, 0.2, 0.2, 0.3, 0.3)
    seed: int = 0
    thin: int = 1
    jitter_when_no_flip: bool = True
    init: str = "empty"
    slab_correction: bool = True

    def validate(self) -> None:
        if self.n_iter <= 0 or self.burn_in < 0 or self.burn_in >= self.n_iter:
            raise ValueError("need 0 <= burn_in < n_iter")
        if self.thin < 1:
            raise ValueError("thin must be >= 1")
        if self.nu is not None and not (0.0 < self.nu <= 1.0):
            raise ValueError("nu must lie in (0, 1]")
        if self.jitter_sd_beta <= 0.0 or self.jitter_sd_rho <= 0.0:
            raise ValueError("jitter standard deviations must be positive")
        if len(self.rw_sd) != 5 or any(s <= 0.0 for s in self.rw_sd):
            raise ValueError("rw_sd must be 5 positive values")
        if self.init not in ("prior", "empty", "spatial"):
            raise ValueError("init must be one of 'prior', 'empty', 'spatial'")

    def to_dict(self) -> dict:
        return {**dataclasses.asdict(self), "rw_sd": list(self.rw_sd)}

    @classmethod
    def from_dict(cls, d: dict) -> "SamplerConfig":
        unknown = set(d) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown sampler config keys: {sorted(unknown)}")
        return cls(**{**d, "rw_sd": tuple(d.get("rw_sd", cls.rw_sd))})


@dataclass
class Chain:
    """Thinned post-burn-in draws in columnar form.

    accepted holds one flag per sampler iteration when the chain was produced
    in-process; a chain loaded from disk only has flags for the stored draws.
    n_singular counts the proposals auto-rejected because R + lambda*I could
    not be factored, n_jittered the likelihood factors that needed diagonal
    jitter; chain files do not store them, so a loaded chain has None.
    """

    gamma_r: np.ndarray
    gamma_c: np.ndarray
    beta0: np.ndarray
    beta: np.ndarray
    rho: np.ndarray
    sigma2_z: np.ndarray
    lam: np.ndarray
    omega_r: np.ndarray
    omega_c: np.ndarray
    log_posts: np.ndarray
    iters: np.ndarray
    accepted: np.ndarray
    draw_accepted: np.ndarray = field(default=None)
    n_singular: int | None = None
    n_jittered: int | None = None

    def __post_init__(self):
        if self.draw_accepted is None:
            self.draw_accepted = np.zeros(len(self.beta0), dtype=bool)

    def __len__(self) -> int:
        return int(self.beta0.shape[0])

    @property
    def p(self) -> int:
        return int(self.gamma_r.shape[1])

    @property
    def acceptance_rate(self) -> float:
        return float(np.mean(self.accepted)) if len(self.accepted) else float("nan")

    def indicator(self, i: int) -> ModelIndicator:
        return ModelIndicator(self.gamma_r[i], self.gamma_c[i])

    def state(self, i: int) -> ParameterState:
        return ParameterState(float(self.beta0[i]), self.beta[i].copy(), self.rho[i].copy(),
                              float(self.sigma2_z[i]), float(self.lam[i]),
                              float(self.omega_r[i]), float(self.omega_c[i]))

    def draw(self, i: int) -> tuple[ModelIndicator, ParameterState]:
        return self.indicator(i), self.state(i)

    def model_key(self, i: int) -> tuple:
        return (
            tuple(int(g) for g in self.gamma_r[i]),
            tuple(int(g) for g in self.gamma_c[i]),
        )

    def model_counts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The distinct models in order of first appearance: the first draw
        of each, each draw's model number, and each model's draw count."""
        _, first, inverse, counts = np.unique(
            np.column_stack([self.gamma_r, self.gamma_c]), axis=0,
            return_index=True, return_inverse=True, return_counts=True)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        return first[order], rank[inverse.reshape(-1)], counts[order]


def reflect_unit(x: np.ndarray) -> np.ndarray:
    """Fold values back into (0, 1) by reflection at both endpoints."""
    t = np.mod(x, 2.0)
    r = np.where(t > 1.0, 2.0 - t, t)
    # the fold lands exactly on an endpoint with probability zero; clamp so
    # the open-interval invariant survives even that
    return np.minimum(np.maximum(r, 1e-12), 1.0 - 1e-12)


def propose(current: tuple[ModelIndicator, ParameterState], cfg: SamplerConfig,
            prior: PriorConfig, rng: np.random.Generator) -> tuple[ModelIndicator, ParameterState]:
    """One symmetric proposal from the current state.

    The slab scale for newly activated coefficients comes from the prior
    config (activation draws are N(0, tau^2) and U(0, 1)).
    """
    t = to_unconstrained(current[1])
    gamma_r, gamma_c, beta, rho, scalars, _ = propose_arrays(
        *flat_state(*current), (t.mu, t.zeta, t.psi_r, t.psi_c), cfg, prior.tau, rng)
    return ModelIndicator(gamma_r, gamma_c), ParameterState(scalars[0], beta, rho, *scalars[1:])


def propose_arrays(gamma_r, gamma_c, beta, rho, scalars, t, cfg, tau, rng) -> tuple:
    """`propose` on a `flat_state`, given its unconstrained scalars
    t = (mu, zeta, psi_r, psi_c).

    Returns the proposed flat state followed by the flipped coefficient slots
    in ascending order.
    """
    p = gamma_r.shape[0]
    nu = cfg.nu if cfg.nu is not None else 1.0 / (2.0 * p)

    gamma_r, gamma_c, beta, rho = (a.copy() for a in (gamma_r, gamma_c, beta, rho))
    flips_r: list[int] = []
    flips_c: list[int] = []

    k = int(rng.binomial(2 * p, nu))
    if k > 0:
        for idx in rng.choice(2 * p, size=k, replace=False).tolist():
            # activation draws from the slab, deactivation snaps to the point mass
            if idx < p:
                flips_r.append(idx)
                gamma_r[idx] = 1 - gamma_r[idx]
                beta[idx] = rng.normal(0.0, tau) if gamma_r[idx] else 0.0
            else:
                j = idx - p
                flips_c.append(j)
                gamma_c[j] = 1 - gamma_c[j]
                rho[j] = rng.uniform() if gamma_c[j] else 1.0

    if k > 0 or cfg.jitter_when_no_flip:
        jit_r = gamma_r == 1
        jit_r[flips_r] = False
        n_jit = np.count_nonzero(jit_r)
        if n_jit:
            beta[jit_r] += rng.normal(0.0, cfg.jitter_sd_beta, size=n_jit)
        jit_c = gamma_c == 1
        jit_c[flips_c] = False
        n_jit = np.count_nonzero(jit_c)
        if n_jit:
            rho[jit_c] = reflect_unit(rho[jit_c] + rng.normal(0.0, cfg.jitter_sd_rho, size=n_jit))

    # stage 2: independent Gaussian walk on the transformed block
    steps = (rng.normal(0.0, 1.0, size=5) * np.asarray(cfg.rw_sd, dtype=float)).tolist()
    walked = (x + step for x, step in zip(t, steps[1:]))
    sigma2_z, lam, omega_r, omega_c = scalars_from_unconstrained(*walked)
    scalars = (scalars[0] + steps[0], sigma2_z, max(lam, LAMBDA_FLOOR), omega_r, omega_c)
    flips_r.sort()
    return gamma_r, gamma_c, beta, rho, scalars, flips_r


def _log_target(gamma_r, gamma_c, beta, rho, scalars, like, prior) -> tuple:
    """log posterior + log Jacobian of a `flat_state`, the quantity the
    acceptance ratio compares; like None stands for a flat likelihood. Also
    returns the log Jacobian and unconstrained scalars (None outside the
    support) and the jitter the likelihood's factor needed.
    """
    lp = log_prior_arrays(gamma_r, gamma_c, beta, rho, scalars, prior)
    if lp == -math.inf:
        return -math.inf, None, None, 0.0
    beta0, sigma2_z, lam, omega_r, omega_c = scalars
    ll, jitter = (0.0, 0.0) if like is None else like.log_likelihood_arrays(
        rho, lam, beta0, beta, sigma2_z
    )
    t = scalars_to_unconstrained(sigma2_z, lam, omega_r, omega_c)
    log_jac = log_jacobian_scalars(*t)
    return ll + lp + log_jac, log_jac, t, jitter


def proposal_log_correction(beta_cur, beta_prop, gamma_r_cur, flips_r, tau) -> float:
    """Log proposal-density ratio q(cur|prop)/q(prop|cur) for flip moves.

    A coefficient activated this move was drawn from the N(0, tau^2) slab;
    the reverse move would redraw the currently active value. The ratio is
    therefore prod_{1->0} phi_tau(beta_j) / prod_{0->1} phi_tau(beta_j~),
    which exactly cancels the slab densities of flipped coordinates in the
    posterior ratio. Uniform slabs (the rho flips) contribute nothing, as do
    the symmetric jitter and random-walk components. flips_r lists the
    flipped coefficient slots in ascending order.
    """
    corr = 0.0
    for j in flips_r:
        if gamma_r_cur[j] == 1:
            corr += _norm_logpdf(float(beta_cur[j]), tau)
        else:
            corr -= _norm_logpdf(float(beta_prop[j]), tau)
    return corr


def log_alpha(prop_target: float, cur_target: float, correction: float) -> float:
    """Log Metropolis-Hastings ratio of two log targets plus the proposal
    log-density ratio; an undefined (NaN) ratio is a logged auto-reject (-inf).
    """
    delta = prop_target - cur_target + correction
    if math.isnan(delta):
        logger.warning("auto-rejecting proposal with undefined posterior ratio")
        return -math.inf
    return delta


def accept_probability(
    current: tuple[ModelIndicator, ParameterState],
    proposed: tuple[ModelIndicator, ParameterState],
    data,
    cfg: PriorConfig,
    slab_correction: bool = True,
) -> float:
    """Metropolis-Hastings acceptance probability between two chain states.

    min(1, exp(delta)) where delta is the posterior-plus-Jacobian log
    difference plus, by default, the flip proposal correction (zero unless
    the two states disagree on gamma_r). With slab_correction off the plain
    posterior ratio is used, treating the whole proposal as symmetric; that
    variant biases coefficient activations down by the slab density and is
    kept for compatibility with plain-ratio runs. A proposal whose
    correlation matrix cannot be factorized is auto-rejected (probability 0)
    with a logged warning.
    """
    like = LikelihoodCache(data)
    try:
        lt_prop = _log_target(*flat_state(*proposed), like, cfg)[0]
    except NumericalSingularityError as exc:
        logger.warning("auto-rejecting singular proposal: %s", exc)
        return 0.0
    lt_cur = _log_target(*flat_state(*current), like, cfg)[0]
    corr = 0.0
    if slab_correction:
        gamma_r = current[0].gamma_r
        flips_r = np.flatnonzero(gamma_r != proposed[0].gamma_r).tolist()
        corr = proposal_log_correction(current[1].beta, proposed[1].beta, gamma_r, flips_r, cfg.tau)
    delta = log_alpha(lt_prop, lt_cur, corr)
    return math.exp(delta) if delta < 0.0 else 1.0


def initial_state(
    data, prior: PriorConfig, cfg: SamplerConfig, rng: np.random.Generator
) -> tuple[ModelIndicator, ParameterState]:
    """Starting point of the chain per cfg.init.

    'prior' draws the full state from the prior; 'empty' starts at the
    intercept-plus-nugget model; 'spatial' starts at the all-spatial
    (ordinary-kriging-like) model with mid-range correlations.
    """
    p = data.X.shape[1]
    if cfg.init == "prior":
        return draw_from_prior(p, prior, rng)
    y = np.asarray(data.y, dtype=float)
    base = ParameterState(
        beta0=float(y.mean()),
        beta=np.zeros(p),
        rho=np.ones(p),
        sigma2_z=max(float(y.var()), 1e-6),
        lam=prior.lambda_scale / (prior.lambda_shape - 1.0)
        if prior.lambda_shape > 1.0
        else 0.1,
        omega_r=0.5,
        omega_c=0.5,
    )
    if cfg.init == "empty":
        return ModelIndicator(np.zeros(p, int), np.zeros(p, int)), base
    base.rho = np.full(p, 0.5)
    return ModelIndicator(np.zeros(p, int), np.ones(p, int)), base


def run_chain(
    data,
    prior: PriorConfig,
    cfg: SamplerConfig,
    flat_likelihood: bool = False,
    init: tuple[ModelIndicator, ParameterState] | None = None,
) -> Chain:
    """Run the sampler and return the thinned post-burn-in draws.

    Deterministic given cfg.seed. The initial state follows cfg.init unless
    an explicit state pair is supplied. flat_likelihood replaces the
    likelihood with a constant, which turns the chain into a prior sampler
    (used for validation).
    """
    cfg.validate()
    if data.X.shape[0] == 0:
        raise ValueError("cannot sample from an empty dataset")
    p = data.X.shape[1]
    rng = np.random.default_rng(cfg.seed)
    like = None if flat_likelihood else LikelihoodCache(data)

    # the current state as plain arrays and floats, with its cached target,
    # log posterior and unconstrained scalars; the loop never writes into
    # these arrays, and the prior below validates an explicit init
    ind, state = init if init is not None else initial_state(data, prior, cfg, rng)
    gamma_r, gamma_c, beta, rho, scalars = flat_state(ind, state)
    try:
        cur_target, _, _, jitter = _log_target(gamma_r, gamma_c, beta, rho, scalars, like, prior)
    except NumericalSingularityError as exc:
        raise NumericalSingularityError(
            f"initial state is numerically singular: {exc}", jitters=exc.jitters
        ) from exc
    t = to_unconstrained(state)
    cur_logpost = cur_target - log_jacobian(t)
    t = (t.mu, t.zeta, t.psi_r, t.psi_c)

    # the stored iterations are burn_in + thin - 1, then every thin-th one
    iters = np.arange(cfg.burn_in + cfg.thin - 1, cfg.n_iter, cfg.thin, dtype=np.int64)
    gammas = np.zeros((2, iters.size, p), dtype=np.int8)  # gamma_r, gamma_c
    vectors = np.zeros((2, iters.size, p))  # beta, rho
    # beta0, sigma2_z, lam, omega_r, omega_c and log_posts, one row each
    stored_scalars = np.zeros((6, iters.size))
    accepted = np.zeros(cfg.n_iter, dtype=bool)
    n_singular = 0
    n_jittered = int(jitter > 0.0)

    store_idx = 0
    for it in range(cfg.n_iter):
        prop_gamma_r, prop_gamma_c, prop_beta, prop_rho, prop_scalars, flips_r = propose_arrays(
            gamma_r, gamma_c, beta, rho, scalars, t, cfg, prior.tau, rng)
        try:
            prop_target, prop_log_jac, prop_t, jitter = _log_target(
                prop_gamma_r, prop_gamma_c, prop_beta, prop_rho, prop_scalars, like, prior)
        except NumericalSingularityError:
            n_singular += 1
            prop_target = -math.inf
        else:
            n_jittered += jitter > 0.0
        corr = 0.0
        if cfg.slab_correction:
            corr = proposal_log_correction(beta, prop_beta, gamma_r, flips_r, prior.tau)
        # rng.random() draws the same double as rng.uniform() (0 + 1 * u),
        # without uniform's argument handling
        u = rng.random()
        if math.log(u) < log_alpha(prop_target, cur_target, corr):
            gamma_r, gamma_c, beta, rho = prop_gamma_r, prop_gamma_c, prop_beta, prop_rho
            scalars, t = prop_scalars, prop_t
            cur_target = prop_target
            cur_logpost = cur_target - prop_log_jac
            accepted[it] = True
        if it >= cfg.burn_in and (it - cfg.burn_in) % cfg.thin == cfg.thin - 1:
            gammas[0, store_idx] = gamma_r
            gammas[1, store_idx] = gamma_c
            vectors[0, store_idx] = beta
            vectors[1, store_idx] = rho
            stored_scalars[:, store_idx] = (*scalars, cur_logpost)
            store_idx += 1

    if n_singular:
        logger.warning("auto-rejected %d singular proposals", n_singular)
    names = ("beta0", "sigma2_z", "lam", "omega_r", "omega_c", "log_posts")
    chain = Chain(*gammas, beta=vectors[0], rho=vectors[1], **dict(zip(names, stored_scalars)),
                  iters=iters, accepted=accepted, draw_accepted=accepted[iters],
                  n_singular=n_singular, n_jittered=int(n_jittered))
    logger.info("chain finished: %d stored draws, acceptance rate %.3f, %d jittered factors",
                len(chain), chain.acceptance_rate, chain.n_jittered)
    return chain


# Chain field -> chain.jsonl key, in file order between "iter" and "accepted"
_FILE_KEYS = {"gamma_r": "gamma_r", "gamma_c": "gamma_c", "beta0": "beta0", "beta": "beta",
              "rho": "rho", "sigma2_z": "sigma2_z", "lam": "lambda", "omega_r": "omega_r",
              "omega_c": "omega_c", "log_posts": "log_post"}
# a line as save_chain writes it: the iteration, the draw's fields, the flag
_LINE = re.compile(r'\{"iter":(-?(?:0|[1-9][0-9]*)),(".*),"accepted":(true|false)\}')


def save_chain(chain: Chain, path) -> None:
    """Write the chain as JSON-Lines, one draw per line.

    Field order is fixed so identical chains produce byte-identical files.
    The fields between "iter" and "accepted" are encoded once per run of
    draws with the same bits (so -0.0 after 0.0 starts a new run).
    """
    gammas = np.column_stack([chain.gamma_r, chain.gamma_c]).astype(np.int64)
    floats = np.column_stack([np.asarray(getattr(chain, name), dtype=np.float64)
                              for name in list(_FILE_KEYS)[2:]])
    bits = np.column_stack([gammas, floats.view(np.int64)])
    changed = np.ones(len(chain), dtype=bool)
    changed[1:] = np.any(bits[1:] != bits[:-1], axis=1)
    p = chain.p
    middles = [
        json.dumps(dict(zip(_FILE_KEYS.values(), (g[:p], g[p:], f[0], f[1:p + 1],
                                                  f[p + 1:2 * p + 1], *f[-5:]))),
                   separators=(",", ":"))[1:-1]
        for g, f in zip(gammas[changed].tolist(), floats[changed].tolist())]
    draws = zip(np.asarray(chain.iters).astype(np.int64).tolist(),
                (np.cumsum(changed) - 1).tolist(),
                np.asarray(chain.draw_accepted).astype(bool).tolist())
    with open(path, "w", encoding="utf-8") as fh:
        for it, k, acc in draws:
            fh.write(f'{{"iter":{it},{middles[k]},"accepted":{"true" if acc else "false"}}}\n')


def load_chain(path) -> Chain:
    """Read a JSON-Lines chain file back into a Chain.

    Per-iteration acceptance flags for burn-in iterations are not in the
    file, so `accepted` covers only the stored draws. Any JSON-Lines layout
    loads; on lines in save_chain's own layout the fields between "iter"
    and "accepted" are parsed only when they differ from the previous line's.
    """
    records, runs, iters, flags = [], [], [], []
    middle = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            m = _LINE.fullmatch(line)
            if m is None or m[2] != middle:
                record = json.loads("{" + m[2] + "}") if m else None
                if record is None or "iter" in record or "accepted" in record:
                    # another layout, or repeated keys, of which json keeps the last
                    m, record = None, json.loads(line)
                records.append(record)
                middle = m and m[2]
            runs.append(len(records) - 1)
            iters.append(int(m[1]) if m else record["iter"])
            flags.append(m[3] == "true" if m else record["accepted"])
    if not records:
        raise ValueError(f"{path}: chain file holds no draws")
    accepted = np.array(flags, dtype=bool)
    return Chain(**{name: np.array([r[key] for r in records],
                                   dtype=np.int8 if name.startswith("gamma") else None)[runs]
                    for name, key in _FILE_KEYS.items()},
                 iters=np.array(iters, dtype=np.int64), accepted=accepted,
                 draw_accepted=accepted.copy())
