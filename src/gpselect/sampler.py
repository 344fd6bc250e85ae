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

import json
import logging
import math
import re
from array import array
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidStateError, NumericalSingularityError, ValidationError
from .kernel import LikelihoodCache
from .model import (
    LAMBDA_FLOOR,
    ModelIndicator,
    ParameterState,
    PriorConfig,
    _norm_logpdf,
    check_positive,
    draw_from_prior,
    flat_state,
    from_unconstrained,
    log_jacobian,
    log_prior,
    to_unconstrained,
)

logger = logging.getLogger(__name__)


@dataclass
class SamplerConfig:
    """Tuning knobs for the chain.

    nu is the per-indicator flip rate; None resolves to 1/(2p) at run time.
    rw_sd holds the random-walk standard deviations for
    (beta0, log sigma2_z, log lambda, logit omega_r, logit omega_c). With
    slab_correction off the acceptance ratio omits `proposal_log_correction`,
    treating the whole proposal as symmetric; that biases activations down by
    the slab density.
    """

    n_iter: int = 20000
    burn_in: int = 2000
    nu: float | None = None
    jitter_sd_beta: float = 0.1
    jitter_sd_rho: float = 0.02
    rw_sd: tuple = (0.2, 0.2, 0.2, 0.3, 0.3)
    seed: int = 0
    thin: int = 1
    init: str = "empty"
    slab_correction: bool = True

    def __post_init__(self):
        self.rw_sd = tuple(self.rw_sd)

    def validate(self) -> None:
        if self.thin < 1:
            raise ValueError("sampler.thin must be >= 1")
        # the first stored iteration is burn_in + thin - 1
        if self.burn_in < 0 or self.burn_in + self.thin > self.n_iter:
            raise ValueError("sampler.burn_in: need 0 <= burn_in and burn_in + thin <= n_iter, "
                             "so that the chain stores at least one draw")
        if self.nu is not None and not (0.0 < self.nu <= 1.0):
            raise ValueError("sampler.nu must lie in (0, 1]")
        if len(self.rw_sd) != 5:
            raise ValueError("sampler.rw_sd must be 5 positive values")
        for key in ("jitter_sd_beta", "jitter_sd_rho", "rw_sd"):
            for value in np.atleast_1d(getattr(self, key)):
                check_positive(f"sampler.{key}", value)
        if self.seed < 0:
            raise ValueError(f"sampler.seed must be at least 0, got {self.seed}")
        if self.init not in ("prior", "empty", "spatial"):
            raise ValueError("sampler.init must be one of 'prior', 'empty', 'spatial'")


@dataclass
class Chain:
    """Thinned post-burn-in draws in columnar form.

    accepted holds one flag per sampler iteration when the chain was produced
    in-process; a chain loaded from disk only has flags for the stored draws.
    n_singular counts the proposals auto-rejected because R + lambda*I could
    not be factored, and acceptance_by_flips the proposals and acceptances of
    every iteration by the number k of indicators flipped ("0", "1", "2",
    "3+"); chain files do not store them, so a loaded chain has None.
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
    acceptance_by_flips: dict | None = None

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
        """Share of the stored draws whose iteration accepted its proposal; a
        saved and loaded chain gives the same value."""
        return float(np.mean(self.draw_accepted)) if len(self) else float("nan")

    def indicator(self, i: int) -> ModelIndicator:
        return ModelIndicator(self.gamma_r[i], self.gamma_c[i])

    def state(self, i: int) -> ParameterState:
        return ParameterState(float(self.beta0[i]), self.beta[i].copy(), self.rho[i].copy(),
                              float(self.sigma2_z[i]), float(self.lam[i]),
                              float(self.omega_r[i]), float(self.omega_c[i]))

    def model_counts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The distinct models in order of first appearance: the first draw
        of each, each draw's model number, and each model's draw count."""
        # one fixed-width byte key per draw: the 2p indicator bits, packed
        packed = np.packbits(np.column_stack([self.gamma_r, self.gamma_c]) != 0, axis=1)
        keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
        _, first, inverse, counts = np.unique(
            keys, return_index=True, return_inverse=True, return_counts=True)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        return first[order], rank[inverse.reshape(-1)], counts[order]


def reflect_unit(x: float) -> float:
    """Fold a value back into (0, 1) by reflection at both endpoints."""
    t = x % 2.0  # the same remainder as np.mod
    r = 2.0 - t if t > 1.0 else t
    # the fold lands exactly on an endpoint with probability zero; clamp so
    # the open-interval invariant survives even that
    return min(max(r, 1e-12), 1.0 - 1e-12)


def propose(gamma_r, gamma_c, beta, rho, scalars, t, cfg, tau, rng) -> tuple:
    """One proposal (both stages) from a `flat_state`, given its unconstrained
    scalars t = (mu, zeta, psi_r, psi_c) and the slab scale tau.

    Returns the proposed flat state (new lists; the inputs are not written),
    the flipped coefficient slots in ascending order and the number k of
    indicators flipped.
    """
    p = len(gamma_r)
    nu = cfg.nu if cfg.nu is not None else 1.0 / (2.0 * p)

    gamma_r, gamma_c, beta, rho = gamma_r[:], gamma_c[:], beta[:], rho[:]
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

    # one vector draw per block, over its unflipped active slots in order
    jit = [j for j in range(p) if gamma_r[j] and j not in flips_r]
    if jit:
        for j, e in zip(jit, rng.normal(0.0, cfg.jitter_sd_beta, size=len(jit)).tolist()):
            beta[j] += e
    jit = [j for j in range(p) if gamma_c[j] and j not in flips_c]
    if jit:
        for j, e in zip(jit, rng.normal(0.0, cfg.jitter_sd_rho, size=len(jit)).tolist()):
            rho[j] = reflect_unit(rho[j] + e)

    # stage 2: independent Gaussian walk on the transformed block
    z0, z1, z2, z3, z4 = rng.normal(0.0, 1.0, size=5).tolist()
    sd0, sd1, sd2, sd3, sd4 = cfg.rw_sd
    mu, zeta, psi_r, psi_c = t
    sigma2_z, lam, omega_r, omega_c = from_unconstrained(
        mu + z1 * sd1, zeta + z2 * sd2, psi_r + z3 * sd3, psi_c + z4 * sd4)
    scalars = (scalars[0] + z0 * sd0, sigma2_z, max(lam, LAMBDA_FLOOR), omega_r, omega_c)
    flips_r.sort()
    return gamma_r, gamma_c, beta, rho, scalars, flips_r, k


def _log_target(gamma_r, gamma_c, beta, rho, scalars, like, prior) -> tuple:
    """log posterior + log Jacobian of a `flat_state`, the quantity the
    acceptance ratio compares; like None stands for a flat likelihood. Also
    returns the log Jacobian and unconstrained scalars (None outside the
    support).
    """
    lp = log_prior(gamma_r, gamma_c, beta, rho, scalars, prior)
    if lp == -math.inf:
        return -math.inf, None, None
    beta0, sigma2_z, lam, omega_r, omega_c = scalars
    ll = 0.0 if like is None else like.log_likelihood(rho, lam, beta0, beta, sigma2_z)
    t = to_unconstrained(sigma2_z, lam, omega_r, omega_c)
    log_jac = log_jacobian(*t)
    return ll + lp + log_jac, log_jac, t


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


def initial_state(data, prior: PriorConfig, cfg: SamplerConfig,
                  rng: np.random.Generator) -> tuple[ModelIndicator, ParameterState]:
    """Starting point of the chain per cfg.init.

    'prior' draws the full state from the prior; 'empty' starts at the
    intercept-plus-nugget model; 'spatial' starts at the all-spatial
    (ordinary-kriging-like) model with mid-range correlations.
    """
    p = data.X.shape[1]
    if cfg.init == "prior":
        return draw_from_prior(p, prior, rng)
    y = np.asarray(data.y, dtype=float)
    lam = prior.lambda_scale / (prior.lambda_shape - 1.0) if prior.lambda_shape > 1.0 else 0.1
    spatial = cfg.init == "spatial"
    base = ParameterState(float(y.mean()), np.zeros(p), np.full(p, 0.5 if spatial else 1.0),
                          max(float(y.var()), 1e-6), lam, omega_r=0.5, omega_c=0.5)
    return ModelIndicator(np.zeros(p, int), np.full(p, int(spatial))), base


def run_chain(data, prior: PriorConfig, cfg: SamplerConfig, flat_likelihood: bool = False,
              init: tuple[ModelIndicator, ParameterState] | None = None) -> Chain:
    """Run the sampler and return the thinned post-burn-in draws.

    Deterministic given cfg.seed. The initial state follows cfg.init unless
    an explicit state pair is supplied. flat_likelihood replaces the
    likelihood with a constant, which turns the chain into a prior sampler
    (used for validation).
    """
    cfg.validate()
    if data.X.shape[0] == 0:
        raise ValueError("cannot sample from an empty dataset")
    rng = np.random.default_rng(cfg.seed)
    like = None if flat_likelihood else LikelihoodCache(data)

    # the current state as a `flat_state` of plain lists and floats, with its
    # cached target, log posterior and unconstrained scalars; the loop never
    # writes into these lists, and the target below validates an explicit init
    ind, state = init if init is not None else initial_state(data, prior, cfg, rng)
    cur = flat_state(ind, state)
    try:
        cur_target, cur_log_jac, t = _log_target(*cur, like, prior)
    except NumericalSingularityError as exc:
        raise NumericalSingularityError(f"initial state is numerically singular: {exc}") from exc
    if not math.isfinite(cur_target):
        raise InvalidStateError(
            f"initial state has log target {cur_target}, outside the prior's support or "
            f"undefined: beta0={cur[4][0]}, sigma2_z={cur[4][1]}, lambda={cur[4][2]}, "
            f"omega_r={cur[4][3]}, omega_c={cur[4][4]}, beta={cur[2]}, rho={cur[3]}"
        )
    cur_logpost = cur_target - cur_log_jac

    # the stored draws by runs: one packed row per stored state, appended when it
    # is first stored (`stored` is the last), and per stored iteration its row
    gammas, values, run_of = array("b"), array("d"), array("q")
    n_runs, stored, next_store = 0, None, cfg.burn_in + cfg.thin - 1
    accepted = bytearray(cfg.n_iter)
    # proposals and acceptances by flip count k = 0, 1, 2, >= 3
    moves = [[0, 0] for _ in range(4)]
    n_singular = 0

    for it in range(cfg.n_iter):
        *prop, flips_r, k = propose(*cur, t, cfg, prior.tau, rng)
        move = moves[min(k, 3)]
        move[0] += 1
        try:
            prop_target, prop_log_jac, prop_t = _log_target(*prop, like, prior)
        except NumericalSingularityError:
            n_singular += 1
            prop_target = -math.inf
        corr = 0.0
        if cfg.slab_correction:
            corr = proposal_log_correction(cur[2], prop[2], cur[0], flips_r, prior.tau)
        # rng.random() draws the same double as rng.uniform() (0 + 1 * u),
        # without uniform's argument handling
        u = rng.random()
        if math.log(u) < log_alpha(prop_target, cur_target, corr):
            cur, t = prop, prop_t
            cur_target = prop_target
            cur_logpost = cur_target - prop_log_jac
            accepted[it] = 1
            move[1] += 1
        if it == next_store:
            if cur is not stored:
                stored = cur
                gammas.extend(cur[0] + cur[1])
                values.extend((*cur[2], *cur[3], *cur[4], cur_logpost))
                n_runs += 1
            run_of.append(n_runs - 1)
            next_store += cfg.thin

    if n_singular:
        logger.warning("auto-rejected %d singular proposals", n_singular)
    iters = np.arange(cfg.burn_in + cfg.thin - 1, cfg.n_iter, cfg.thin, dtype=np.int64)
    accepted = np.frombuffer(accepted, dtype=bool)
    table = {key: {"proposed": n, "accepted": a}
             for key, (n, a) in zip(("0", "1", "2", "3+"), moves)}
    chain = Chain(**_row_fields(gammas, values, n_runs, len(cur[0]), run_of),
                  iters=iters, accepted=accepted, draw_accepted=accepted[iters],
                  n_singular=n_singular, acceptance_by_flips=table)
    logger.info("chain finished: %d stored draws, acceptance rate %.3f over all iterations",
                len(chain), accepted.mean())
    return chain


# a packed state row of doubles: beta, rho, then these fields
_ROW_SCALARS = ("beta0", "sigma2_z", "lam", "omega_r", "omega_c", "log_posts")


def _row_fields(gammas: array, values: array, n_rows: int, p: int, run_of: array) -> dict:
    """The Chain's state fields from typed rows, each expanded from the rows
    to the stored draws: row run_of[k] is draw k's state. A row holds 2p
    int8 indicators and 2p + 6 doubles (beta, rho, _ROW_SCALARS)."""
    run_of = np.frombuffer(run_of, dtype=np.int64)
    gammas = np.frombuffer(gammas, dtype=np.int8).reshape(n_rows, 2 * p)
    values = np.frombuffer(values).reshape(n_rows, 2 * p + 6)
    return dict(gamma_r=gammas[run_of, :p], gamma_c=gammas[run_of, p:],
                beta=values[run_of, :p], rho=values[run_of, p:2 * p],
                **{name: values[run_of, 2 * p + i] for i, name in enumerate(_ROW_SCALARS)})


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
    gammas = np.column_stack([chain.gamma_r, chain.gamma_c]).astype(np.int8, copy=False)
    floats = np.column_stack([np.asarray(getattr(chain, name), dtype=np.float64)
                              for name in list(_FILE_KEYS)[2:]])
    # no stacked copy of the bits and no chain-long lists, to keep peak memory low
    changed = np.ones(len(chain), dtype=bool)
    changed[1:] = (np.any(gammas[1:] != gammas[:-1], axis=1)
                   | np.any(floats[1:].view(np.int64) != floats[:-1].view(np.int64), axis=1))
    p = chain.p
    middles = [
        json.dumps(dict(zip(_FILE_KEYS.values(), (g[:p], g[p:], f[0], f[1:p + 1],
                                                  f[p + 1:2 * p + 1], *f[-5:]))),
                   separators=(",", ":"))[1:-1]
        for g, f in zip(map(np.ndarray.tolist, gammas[changed]),
                        map(np.ndarray.tolist, floats[changed]))]
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
    Each parsed state is checked and packed into typed rows, as run_chain
    packs its states; a malformed one is a ValidationError naming its line.
    """
    gammas, values, runs, iters, flags = array("b"), array("d"), array("q"), [], []
    p, n_rows, middle = None, 0, None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            m = _LINE.fullmatch(line)
            if m is None or m[2] != middle:
                try:
                    record = json.loads("{" + m[2] + "}") if m else None
                    if record is None or "iter" in record or "accepted" in record:
                        # another layout, or repeated keys, of which json keeps the last
                        m, record = None, json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ValidationError(f"{path}: line {lineno}: invalid JSON: {exc}") from None
                if not isinstance(record, dict):
                    raise ValidationError(f"{path}: line {lineno} is not a JSON object")
                need = [*_FILE_KEYS.values(), *(() if m else ("iter", "accepted"))]
                missing = [key for key in need if key not in record]
                if missing:
                    raise ValidationError(f"{path}: line {lineno} has no field(s) {missing}")
                try:
                    if m is None and (type(record["iter"]) is not int
                                      or type(record["accepted"]) is not bool):
                        raise ValueError('"iter" must be an integer and "accepted" true or false')
                    p = _pack_state(record, p, gammas, values)
                except ValueError as exc:
                    raise ValidationError(f"{path}: line {lineno}: {exc}") from None
                n_rows += 1
                middle = m and m[2]
            runs.append(n_rows - 1)
            iters.append(int(m[1]) if m else record["iter"])
            flags.append(m[3] == "true" if m else record["accepted"])
    if not runs:
        raise ValueError(f"{path}: chain file holds no draws")
    accepted = np.array(flags, dtype=bool)
    return Chain(**_row_fields(gammas, values, n_rows, p, runs),
                 iters=np.array(iters, dtype=np.int64), accepted=accepted,
                 draw_accepted=accepted.copy())


_VECTOR_KEYS = ("gamma_r", "gamma_c", "beta", "rho")
_ROW_SCALAR_KEYS = tuple(_FILE_KEYS[name] for name in _ROW_SCALARS)
_NUMBER_TYPES = frozenset((int, float))  # not bool, which is a type of its own


def _pack_state(record: dict, p: int | None, gammas: array, values: array) -> int:
    """Append a chain file state to the typed rows of _row_fields and return
    p. Raises ValueError unless every vector holds p values (the first
    vector's count when p is None), each indicator is 0 or 1 and every other
    value is a number (not a boolean)."""
    vectors = [record[key] for key in _VECTOR_KEYS]
    for key, vector in zip(_VECTOR_KEYS, vectors):
        if type(vector) is not list:
            raise ValueError(f'"{key}" must be a list')
        p = len(vector) if p is None else p
        if len(vector) != p:
            raise ValueError(f'"{key}" holds {len(vector)} values, not {p}')
    indicators = vectors[0] + vectors[1]
    # the types first: they make the values hashable
    if not (set(map(type, indicators)) <= _NUMBER_TYPES and set(indicators) <= {0, 1}):
        raise ValueError('"gamma_r" and "gamma_c" must hold 0 or 1')
    row = [*vectors[2], *vectors[3], *map(record.__getitem__, _ROW_SCALAR_KEYS)]
    if not set(map(type, row)) <= _NUMBER_TYPES:
        raise ValueError(f"every value of beta, rho, {', '.join(_ROW_SCALAR_KEYS)} "
                         "must be a number")
    try:
        values.extend(row)
    except OverflowError:
        raise ValueError("a number is too large for a double") from None
    gammas.extend(map(int, indicators))
    return p
