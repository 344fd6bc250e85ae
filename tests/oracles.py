"""Independent reference implementations used to check the library.

Everything here is deliberately written the slow, direct way (explicit
inverses and determinants, term-by-term scalar densities, finite
differences) so it shares no code path with the package. The `*_reference`
functions are copies of replaced implementations (the sampler loop, the LHD
swap search, the per-row simulation recipe, chain file I/O, model counting,
the separate R + lambda*I factorizations of the prediction code,
the kriging means over all sites' squared differences at once, the kriging
means in one process) that the new ones must match exactly.
"""

import dataclasses
import json
import logging
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import qr, solve_triangular
from scipy.special import expit, gammaln
from scipy.stats import invgamma, norm

from gpselect import (
    Dataset,
    DimensionMismatchError,
    EmptyEnsembleError,
    InvalidStateError,
    ModelIndicator,
    NumericalSingularityError,
    ParameterState,
    PredictionRequest,
    kernel,
    maximin_lhd,
    predict,
)
from gpselect.kernel import corr_from_sqdiffs, pairwise_sqdiffs
from gpselect.model import LAMBDA_FLOOR
from gpselect.predict import MleFit, _trend_matrix, denoise_mask
from gpselect.sampler import Chain, initial_state


def cholesky_reference(A):
    """Lower Cholesky factor of A by one np.linalg.cholesky call; a matrix
    that does not factor raises NumericalSingularityError."""
    try:
        return np.linalg.cholesky(A)
    except np.linalg.LinAlgError as exc:
        raise NumericalSingularityError(str(exc)) from exc


def dense_corr(X, rho):
    """Correlation matrix by looping over the product definition."""
    X = np.atleast_2d(X)
    n, p = X.shape
    R = np.ones((n, n))
    for l in range(n):
        for m in range(n):
            val = 1.0
            for j in range(p):
                val *= max(rho[j], 1e-12) ** ((X[l, j] - X[m, j]) ** 2)
            R[l, m] = val
    return R


def dense_mvn_loglik(y, mean, cov):
    """Gaussian log-density via explicit determinant and inverse."""
    n = len(y)
    r = np.asarray(y) - np.asarray(mean)
    sign, logdet = np.linalg.slogdet(cov)
    assert sign > 0
    return -0.5 * (n * np.log(2 * np.pi) + logdet + r @ np.linalg.inv(cov) @ r)


def loglik_oracle(data, state):
    R = dense_corr(data.X, state.rho)
    C = state.sigma2_z * (R + state.lam * np.eye(data.n))
    mean = state.beta0 + data.X @ state.beta
    return dense_mvn_loglik(data.y, mean, C)


def log_prior_oracle(ind, state, cfg):
    """Term-by-term scalar-density sum using scipy.stats."""
    lp = 0.0
    for g in ind.gamma_r:
        lp += np.log(state.omega_r if g == 1 else 1.0 - state.omega_r)
    for g in ind.gamma_c:
        lp += np.log(state.omega_c if g == 1 else 1.0 - state.omega_c)
    for j in range(ind.p):
        if ind.gamma_r[j] == 1:
            lp += norm.logpdf(state.beta[j], scale=cfg.tau)
        if ind.gamma_c[j] == 1:
            # uniform(0,1) slab contributes log(1) inside the interval
            assert 0.0 < state.rho[j] < 1.0
    lp += norm.logpdf(state.beta0, scale=cfg.beta0_sd)
    lp += invgamma.logpdf(state.sigma2_z, a=cfg.sigma2_shape, scale=cfg.sigma2_scale)
    lp += invgamma.logpdf(state.lam, a=cfg.lambda_shape, scale=cfg.lambda_scale)
    return lp


def fd_jacobian_logdet(t, h=1e-6):
    """log |d(sigma2, lambda, omega_r, omega_c)/d(mu, zeta, psi_r, psi_c)| at
    t = (mu, zeta, psi_r, psi_c), by central differences of the package's
    `from_unconstrained`. The map is diagonal, so the determinant is the
    product of the four partials.
    """
    from gpselect import from_unconstrained

    base = np.array(t, dtype=float)
    logdet = 0.0
    for i in range(4):
        up = base.copy()
        dn = base.copy()
        up[i] += h
        dn[i] -= h
        deriv = (from_unconstrained(*up)[i] - from_unconstrained(*dn)[i]) / (2 * h)
        logdet += np.log(abs(deriv))
    return logdet


def dense_gls(y, F, A):
    """GLS coefficients and plug-in variance via explicit inverses."""
    Ainv = np.linalg.inv(A)
    coef = np.linalg.inv(F.T @ Ainv @ F) @ F.T @ Ainv @ y
    resid = y - F @ coef
    sigma2 = resid @ Ainv @ resid / len(y)
    return coef, sigma2


def profile_objective(data, model, rho_full, lam):
    """n log sigma2_hat + log|R + lam I| at fixed correlation parameters."""
    R = dense_corr(data.X, rho_full)
    A = R + lam * np.eye(data.n)
    cols = [np.ones((data.n, 1))]
    active = np.where(model.gamma_r == 1)[0]
    if active.size:
        cols.append(data.X[:, active])
    F = np.hstack(cols)
    _, sigma2 = dense_gls(data.y, F, A)
    sign, logdet = np.linalg.slogdet(A)
    return data.n * np.log(max(sigma2, 1e-300)) + logdet


def random_dataset(rng, n=None, p=None, spread=False):
    """Random instance with a smooth response; spread=True separates points
    by per-coordinate strata so correlation matrices stay well conditioned.
    """
    n = n if n is not None else int(rng.integers(4, 26))
    p = p if p is not None else int(rng.integers(1, 6))
    if spread:
        X = np.empty((n, p))
        for j in range(p):
            X[:, j] = (rng.permutation(n) + rng.uniform(0.2, 0.8, size=n)) / n
    else:
        X = rng.uniform(size=(n, p))
    beta = rng.normal(scale=2.0, size=p)
    y = rng.normal() + X @ beta + rng.normal(scale=0.5, size=n)
    return Dataset(X=X, y=y, column_names=[f"x{j+1}" for j in range(p)])


def random_state(rng, p, rho_range=(0.05, 0.95)):
    gamma_r = rng.integers(0, 2, size=p)
    gamma_c = rng.integers(0, 2, size=p)
    beta = np.where(gamma_r == 1, rng.normal(scale=2.0, size=p), 0.0)
    rho = np.where(gamma_c == 1, rng.uniform(*rho_range, size=p), 1.0)
    ind = ModelIndicator(gamma_r, gamma_c)
    state = ParameterState(
        beta0=float(rng.normal()),
        beta=beta,
        rho=rho,
        sigma2_z=float(rng.uniform(0.2, 3.0)),
        lam=float(rng.uniform(0.01, 0.5)),
        omega_r=float(rng.uniform(0.05, 0.95)),
        omega_c=float(rng.uniform(0.05, 0.95)),
    )
    return ind, state


# ---------------------------------------------------------------------------
# Reference sampler: a Metropolis-Hastings loop that builds dataclass states
# every iteration, with its own copy of the prior, transforms, reflection and
# likelihood written the direct way. It takes only the start state
# (`initial_state`), the squared-difference tensor and the dataclasses from
# the package.
# `run_chain` must reproduce its chains bit for bit.
# ---------------------------------------------------------------------------

_ref_logger = logging.getLogger("oracles.run_chain_reference")
_LOG_2PI = math.log(2.0 * math.pi)


def _ref_validate_consistent(ind, state):
    p = ind.p
    if state.beta.shape[0] != p or state.rho.shape[0] != p:
        raise InvalidStateError(
            f"state vectors of length {state.beta.shape[0]}/{state.rho.shape[0]} "
            f"do not match {p} indicators"
        )
    off_r = (ind.gamma_r == 0) & (state.beta != 0.0)
    if np.any(off_r):
        raise InvalidStateError(
            f"inactive beta coordinates {np.where(off_r)[0].tolist()} are nonzero"
        )
    off_c = (ind.gamma_c == 0) & (state.rho != 1.0)
    if np.any(off_c):
        raise InvalidStateError(
            f"inactive rho coordinates {np.where(off_c)[0].tolist()} are not 1"
        )


def _ref_norm_logpdf(x, sd):
    return -0.5 * (_LOG_2PI + 2.0 * math.log(sd)) - 0.5 * (x / sd) ** 2


def _ref_invgamma_logpdf(x, shape, scale):
    if x <= 0.0:
        return -math.inf
    return shape * math.log(scale) - gammaln(shape) - (shape + 1.0) * math.log(x) - scale / x


def _ref_log_prior(ind, state, cfg):
    _ref_validate_consistent(ind, state)
    p = ind.p
    if not (0.0 < state.omega_r < 1.0 and 0.0 < state.omega_c < 1.0):
        return -math.inf
    active_rho = state.rho[ind.gamma_c == 1]
    if active_rho.size and (np.any(active_rho <= 0.0) or np.any(active_rho >= 1.0)):
        return -math.inf

    nr = int(ind.gamma_r.sum())
    nc = int(ind.gamma_c.sum())
    lp = nr * math.log(state.omega_r) + (p - nr) * math.log1p(-state.omega_r)
    lp += nc * math.log(state.omega_c) + (p - nc) * math.log1p(-state.omega_c)

    active_beta = state.beta[ind.gamma_r == 1]
    if active_beta.size:
        lp += -0.5 * active_beta.size * (_LOG_2PI + 2.0 * math.log(cfg.tau))
        lp += -0.5 * float(active_beta @ active_beta) / cfg.tau**2

    lp += _ref_norm_logpdf(state.beta0, cfg.beta0_sd)
    lp += _ref_invgamma_logpdf(state.sigma2_z, cfg.sigma2_shape, cfg.sigma2_scale)
    lp += _ref_invgamma_logpdf(state.lam, cfg.lambda_shape, cfg.lambda_scale)
    return lp


class TransformError(ValueError):
    """A state outside the domain of the reference log/logit transforms."""


@dataclass
class TransformedState:
    """A state with sigma2_z, lambda and the weights mapped to the real line:
    mu = log sigma2_z, zeta = log lambda, psi = logit omega."""

    beta0: float
    beta: np.ndarray
    rho: np.ndarray
    mu: float
    zeta: float
    psi_r: float
    psi_c: float


def _ref_to_unconstrained(state):
    if state.sigma2_z <= 0.0:
        raise TransformError(f"sigma2_z must be positive, got {state.sigma2_z}")
    if state.lam <= 0.0:
        raise TransformError(f"lambda must be positive, got {state.lam}")
    if not (0.0 < state.omega_r < 1.0 and 0.0 < state.omega_c < 1.0):
        raise TransformError("omega_r and omega_c must lie strictly inside (0, 1)")
    return TransformedState(
        beta0=state.beta0,
        beta=state.beta.copy(),
        rho=state.rho.copy(),
        mu=math.log(state.sigma2_z),
        zeta=math.log(state.lam),
        psi_r=math.log(state.omega_r / (1.0 - state.omega_r)),
        psi_c=math.log(state.omega_c / (1.0 - state.omega_c)),
    )


def _ref_from_unconstrained(t):
    eps = 1e-15
    return ParameterState(
        beta0=t.beta0,
        beta=np.asarray(t.beta, dtype=float).copy(),
        rho=np.asarray(t.rho, dtype=float).copy(),
        sigma2_z=math.exp(t.mu),
        lam=math.exp(t.zeta),
        omega_r=float(np.clip(expit(t.psi_r), eps, 1.0 - eps)),
        omega_c=float(np.clip(expit(t.psi_c), eps, 1.0 - eps)),
    )


def _ref_log_jacobian(t):
    def _log_w_1mw(psi):
        return -(np.logaddexp(0.0, -psi) + np.logaddexp(0.0, psi))

    return float(t.mu + t.zeta + _log_w_1mw(t.psi_r) + _log_w_1mw(t.psi_c))


class _RefLikelihoodCache:
    def __init__(self, data):
        self.X = np.atleast_2d(np.asarray(data.X, dtype=float))
        self.y = np.asarray(data.y, dtype=float).ravel()
        self.n = self.X.shape[0]
        self.d2 = pairwise_sqdiffs(self.X)

    def corr(self, rho):
        R = np.exp(self.d2 @ np.log(np.clip(np.asarray(rho, dtype=float), 1e-12, 1.0)))
        np.fill_diagonal(R, 1.0)
        return R

    def factor(self, rho, lam):
        A = self.corr(rho)
        idx = np.arange(self.n)
        A[idx, idx] += lam
        return cholesky_reference(A)

    def log_likelihood(self, state):
        L = self.factor(state.rho, state.lam)
        resid = self.y - state.beta0 - self.X @ state.beta
        n = resid.shape[0]
        z = solve_triangular(L, resid, lower=True, check_finite=False)
        logdet = n * np.log(state.sigma2_z) + 2.0 * np.sum(np.log(np.diag(L)))
        quad = float(z @ z) / state.sigma2_z
        return -0.5 * (n * _LOG_2PI + logdet + quad)


def _ref_reflect_unit(x):
    t = np.mod(x, 2.0)
    r = np.where(t > 1.0, 2.0 - t, t)
    return np.clip(r, 1e-12, 1.0 - 1e-12)


def _ref_propose(current, cfg, prior, rng):
    ind, state = current
    p = ind.p
    nu = cfg.nu if cfg.nu is not None else 1.0 / (2.0 * p)

    gamma_r = ind.gamma_r.copy()
    gamma_c = ind.gamma_c.copy()
    beta = state.beta.copy()
    rho = state.rho.copy()
    flipped_r = np.zeros(p, dtype=bool)
    flipped_c = np.zeros(p, dtype=bool)

    k = int(rng.binomial(2 * p, nu))
    if k > 0:
        chosen = rng.choice(2 * p, size=k, replace=False)
        for idx in chosen:
            if idx < p:
                j = int(idx)
                flipped_r[j] = True
                if gamma_r[j] == 0:
                    gamma_r[j] = 1
                    beta[j] = rng.normal(0.0, prior.tau)
                else:
                    gamma_r[j] = 0
                    beta[j] = 0.0
            else:
                j = int(idx - p)
                flipped_c[j] = True
                if gamma_c[j] == 0:
                    gamma_c[j] = 1
                    rho[j] = rng.uniform()
                else:
                    gamma_c[j] = 0
                    rho[j] = 1.0

    jit_r = (gamma_r == 1) & ~flipped_r
    if jit_r.any():
        beta[jit_r] += rng.normal(0.0, cfg.jitter_sd_beta, size=int(jit_r.sum()))
    jit_c = (gamma_c == 1) & ~flipped_c
    if jit_c.any():
        rho[jit_c] = _ref_reflect_unit(
            rho[jit_c] + rng.normal(0.0, cfg.jitter_sd_rho, size=int(jit_c.sum()))
        )

    steps = rng.normal(0.0, 1.0, size=5) * np.asarray(cfg.rw_sd, dtype=float)
    t = _ref_to_unconstrained(state)
    t_new = TransformedState(
        beta0=state.beta0 + steps[0],
        beta=beta,
        rho=rho,
        mu=t.mu + steps[1],
        zeta=t.zeta + steps[2],
        psi_r=t.psi_r + steps[3],
        psi_c=t.psi_c + steps[4],
    )
    new_state = _ref_from_unconstrained(t_new)
    new_state.lam = max(new_state.lam, LAMBDA_FLOOR)
    return ModelIndicator(gamma_r, gamma_c), new_state


def _ref_log_target(ind, state, like, prior, flat_likelihood=False):
    lp = _ref_log_prior(ind, state, prior)
    if lp == -math.inf:
        return -math.inf
    ll = 0.0 if flat_likelihood else like.log_likelihood(state)
    return ll + lp + _ref_log_jacobian(_ref_to_unconstrained(state))


def _ref_proposal_log_correction(current, proposed, prior):
    cur_ind, cur_state = current
    prop_ind, prop_state = proposed
    tau = prior.tau

    def _phi_log(x):
        return -0.5 * (math.log(2.0 * math.pi) + 2.0 * math.log(tau)) - 0.5 * (x / tau) ** 2

    corr = 0.0
    for j in range(cur_ind.p):
        if cur_ind.gamma_r[j] == 1 and prop_ind.gamma_r[j] == 0:
            corr += _phi_log(float(cur_state.beta[j]))
        elif cur_ind.gamma_r[j] == 0 and prop_ind.gamma_r[j] == 1:
            corr -= _phi_log(float(prop_state.beta[j]))
    return corr


def run_chain_reference(data, prior, cfg, flat_likelihood=False, init=None):
    """The dataclass-per-iteration sampler loop, for exact-equivalence tests."""
    cfg.validate()
    p = data.X.shape[1]
    rng = np.random.default_rng(cfg.seed)
    like = None if flat_likelihood else _RefLikelihoodCache(data)
    if data.X.shape[0] == 0:
        raise ValueError("cannot sample from an empty dataset")

    if init is None:
        ind, state = initial_state(data, prior, cfg, rng)
    else:
        ind = init[0].copy()
        state = dataclasses.replace(init[1], beta=init[1].beta.copy(), rho=init[1].rho.copy())
        _ref_validate_consistent(ind, state)

    cur_target = _ref_log_target(ind, state, like, prior, flat_likelihood)
    cur_logpost = cur_target - _ref_log_jacobian(_ref_to_unconstrained(state))

    n_stored = (cfg.n_iter - cfg.burn_in) // cfg.thin
    out = {
        "gamma_r": np.zeros((n_stored, p), dtype=np.int8),
        "gamma_c": np.zeros((n_stored, p), dtype=np.int8),
        "beta0": np.zeros(n_stored),
        "beta": np.zeros((n_stored, p)),
        "rho": np.zeros((n_stored, p)),
        "sigma2_z": np.zeros(n_stored),
        "lam": np.zeros(n_stored),
        "omega_r": np.zeros(n_stored),
        "omega_c": np.zeros(n_stored),
        "log_posts": np.zeros(n_stored),
        "iters": np.zeros(n_stored, dtype=np.int64),
        "draw_accepted": np.zeros(n_stored, dtype=bool),
    }
    accepted = np.zeros(cfg.n_iter, dtype=bool)
    n_singular = 0

    store_idx = 0
    for it in range(cfg.n_iter):
        prop_ind, prop_state = _ref_propose((ind, state), cfg, prior, rng)
        try:
            prop_target = _ref_log_target(prop_ind, prop_state, like, prior, flat_likelihood)
        except NumericalSingularityError:
            n_singular += 1
            prop_target = -math.inf
        log_alpha = prop_target - cur_target
        if cfg.slab_correction:
            log_alpha += _ref_proposal_log_correction(
                (ind, state), (prop_ind, prop_state), prior
            )
        if math.isnan(log_alpha):
            log_alpha = -math.inf
        u = rng.uniform()
        if math.log(u) < log_alpha:
            ind, state = prop_ind, prop_state
            cur_target = prop_target
            cur_logpost = cur_target - _ref_log_jacobian(_ref_to_unconstrained(state))
            accepted[it] = True
        if it >= cfg.burn_in and (it - cfg.burn_in) % cfg.thin == cfg.thin - 1:
            out["gamma_r"][store_idx] = ind.gamma_r
            out["gamma_c"][store_idx] = ind.gamma_c
            out["beta0"][store_idx] = state.beta0
            out["beta"][store_idx] = state.beta
            out["rho"][store_idx] = state.rho
            out["sigma2_z"][store_idx] = state.sigma2_z
            out["lam"][store_idx] = state.lam
            out["omega_r"][store_idx] = state.omega_r
            out["omega_c"][store_idx] = state.omega_c
            out["log_posts"][store_idx] = cur_logpost
            out["iters"][store_idx] = it
            out["draw_accepted"][store_idx] = accepted[it]
            store_idx += 1

    if n_singular:
        _ref_logger.warning("auto-rejected %d singular proposals", n_singular)
    return Chain(accepted=accepted, **out)


# ---------------------------------------------------------------------------
# Reference simulation recipe: the per-row test function and the study built
# from it, verbatim before `design.sim_response` was vectorised. The package
# must reproduce their responses bit for bit.
# ---------------------------------------------------------------------------


def sim_response_reference(
    x, noise_sd: float = 0.1, rng: np.random.Generator | None = None
) -> float:
    """Synthetic 5-d response: linear in x2..x4, cosine in x1..x3, x5 inert.

    3*x2 + 4*x3 + 5*x4 + 5*cos(3*pi*x1/2) + 4*cos(2*pi*x2/2) + 3*cos(pi*x3/2)
    plus N(0, noise_sd^2) noise when noise_sd > 0.
    """
    x = np.asarray(x, dtype=float).ravel()
    if x.shape[0] != 5:
        raise DimensionMismatchError(f"expected a 5-d point, got length {x.shape[0]}")
    value = (
        3.0 * x[1]
        + 4.0 * x[2]
        + 5.0 * x[3]
        + 5.0 * np.cos(3.0 * np.pi * x[0] / 2.0)
        + 4.0 * np.cos(2.0 * np.pi * x[1] / 2.0)
        + 3.0 * np.cos(np.pi * x[2] / 2.0)
    )
    if noise_sd > 0.0:
        if rng is None:
            raise ValueError("rng required when noise_sd > 0")
        value += rng.normal(0.0, noise_sd)
    return float(value)


def sim_response_batch_reference(
    X: np.ndarray, noise_sd: float = 0.1, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Vector of sim_response values over the rows of X."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return np.array([sim_response_reference(row, noise_sd=noise_sd, rng=rng) for row in X])


def simulate_study_reference(sim, seed: int):
    """Training design and responses, then validation design and responses.

    sim gives n_train, n_validation, noise_sd, box and lhd_restarts. The
    5-d maximin LHDs use seed (training) and seed + 1 with half the restarts
    (validation); the noise comes from the third child of SeedSequence(seed).
    """
    rng_noise = np.random.default_rng(np.random.SeedSequence(seed).spawn(3)[2])
    train = maximin_lhd(sim.n_train, 5, box=sim.box, seed=seed, n_restarts=sim.lhd_restarts)
    val = maximin_lhd(sim.n_validation, 5, box=sim.box, seed=seed + 1,
                      n_restarts=max(1, sim.lhd_restarts // 2))
    y_train = sim_response_batch_reference(train.points, sim.noise_sd, rng_noise)
    return train, y_train, val, sim_response_batch_reference(val.points, sim.noise_sd, rng_noise)


def hill_climb_reference(points, max_passes=30):
    """The swap search that scores every (i, j), for exact-equivalence tests."""
    n, p = points.shape
    D = np.sum((points[:, None, :] - points[None, :, :]) ** 2, axis=-1)
    np.fill_diagonal(D, np.inf)
    best = D.min()
    for _ in range(max_passes):
        improved = False
        for col in range(p):
            for i in range(n - 1):
                for j in range(i + 1, n):
                    xi, xj = points[i, col], points[j, col]
                    c = points[:, col]
                    di_new = D[i] - (xi - c) ** 2 + (xj - c) ** 2
                    dj_new = D[j] - (xj - c) ** 2 + (xi - c) ** 2
                    di_new[j] = D[i, j]  # i-j gap is invariant under the swap
                    dj_new[i] = D[j, i]
                    di_new[i] = np.inf
                    dj_new[j] = np.inf
                    old_i, old_j = D[i].copy(), D[j].copy()
                    D[i], D[j] = di_new, dj_new
                    D[:, i], D[:, j] = di_new, dj_new
                    cand = D.min()
                    if cand > best:
                        best = cand
                        points[i, col], points[j, col] = xj, xi
                        improved = True
                    else:
                        D[i], D[j] = old_i, old_j
                        D[:, i], D[:, j] = old_i, old_j
        if not improved:
            break
    return points


def save_chain_reference(chain, path):
    """The one-json.dumps-per-draw chain writer, for byte-identity tests."""
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(len(chain)):
            record = {
                "iter": int(chain.iters[i]),
                "gamma_r": [int(g) for g in chain.gamma_r[i]],
                "gamma_c": [int(g) for g in chain.gamma_c[i]],
                "beta0": float(chain.beta0[i]),
                "beta": [float(b) for b in chain.beta[i]],
                "rho": [float(r) for r in chain.rho[i]],
                "sigma2_z": float(chain.sigma2_z[i]),
                "lambda": float(chain.lam[i]),
                "omega_r": float(chain.omega_r[i]),
                "omega_c": float(chain.omega_c[i]),
                "log_post": float(chain.log_posts[i]),
                "accepted": bool(chain.draw_accepted[i]),
            }
            fh.write(json.dumps(record, separators=(",", ":")) + "\n")


def load_chain_reference(path):
    """The one-json.loads-per-line chain reader, for exact-equivalence tests."""
    records = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    if not records:
        raise ValueError(f"{path}: chain file holds no draws")
    accepted = np.array([r["accepted"] for r in records], dtype=bool)
    return Chain(
        gamma_r=np.array([r["gamma_r"] for r in records], dtype=np.int8),
        gamma_c=np.array([r["gamma_c"] for r in records], dtype=np.int8),
        beta0=np.array([r["beta0"] for r in records]),
        beta=np.array([r["beta"] for r in records]),
        rho=np.array([r["rho"] for r in records]),
        sigma2_z=np.array([r["sigma2_z"] for r in records]),
        lam=np.array([r["lambda"] for r in records]),
        omega_r=np.array([r["omega_r"] for r in records]),
        omega_c=np.array([r["omega_c"] for r in records]),
        log_posts=np.array([r["log_post"] for r in records]),
        iters=np.array([r["iter"] for r in records], dtype=np.int64),
        accepted=accepted,
        draw_accepted=accepted.copy(),
    )

def model_counts_reference(chain):
    """The row-wise np.unique(axis=0) version of Chain.model_counts."""
    _, first, inverse, counts = np.unique(
        np.column_stack([chain.gamma_r, chain.gamma_c]), axis=0,
        return_index=True, return_inverse=True, return_counts=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return first[order], rank[inverse.reshape(-1)], counts[order]

# ---------------------------------------------------------------------------
# Reference GP paths: the correlation-matrix class with its per-lambda factor
# cache, and the kriging mean, model averaging, GLS and kriging prediction
# that built and factored R + lambda*I each their own way before they shared
# `kernel.GpFactor`. The package must match them exactly wherever R came out
# exactly symmetric.
# ---------------------------------------------------------------------------


def _rho_array_reference(params) -> np.ndarray:
    rho = getattr(params, "rho", params)
    return np.asarray(rho, dtype=float).ravel()


@dataclass
class KernelMatrixReference:
    """Correlation matrix R with a cached Cholesky factor of R + lambda*I."""

    values: np.ndarray
    _cache: dict = field(default_factory=dict, repr=False)

    def factor(self, lam: float) -> np.ndarray:
        """Lower Cholesky factor of values + lam * I (cached per lam)."""
        key = float(lam)
        if key not in self._cache:
            n = self.values.shape[0]
            self._cache[key] = cholesky_reference(self.values + key * np.eye(n))
        return self._cache[key]

    def solve(self, lam: float, b: np.ndarray) -> np.ndarray:
        """(values + lam*I)^{-1} b via two triangular solves."""
        L = self.factor(lam)
        z = solve_triangular(L, b, lower=True, check_finite=False)
        return solve_triangular(L.T, z, lower=False, check_finite=False)


def correlation_matrix_reference(X: np.ndarray, params) -> KernelMatrixReference:
    """Symmetric unit-diagonal correlation matrix over the rows of X."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    rho = _rho_array_reference(params)
    if X.shape[1] != rho.shape[0]:
        raise DimensionMismatchError(
            f"design has {X.shape[1]} columns, rho has {rho.shape[0]}"
        )
    R = corr_from_sqdiffs(pairwise_sqdiffs(X), rho)
    # exact symmetry / unit diagonal regardless of fp rounding in exp
    R = 0.5 * (R + R.T)
    np.fill_diagonal(R, 1.0)
    return KernelMatrixReference(values=R)


def conditional_mean_reference(data, state: ParameterState, req: PredictionRequest) -> np.ndarray:
    """Conditional mean of the responses at new sites given the training data.

    beta0 + X_new beta + R_new,old (R_old + lam I)^{-1} (y - beta0 - X_old beta).
    """
    X_new = req.X_new
    if X_new.shape[0] == 0:
        return np.zeros(0)
    if X_new.shape[1] != data.X.shape[1]:
        raise DimensionMismatchError(
            f"sites have {X_new.shape[1]} columns, training data has {data.X.shape[1]}"
        )
    km = correlation_matrix_reference(data.X, state.rho)
    alpha = km.solve(state.lam, data.y - state.beta0 - data.X @ state.beta)
    r_cross = corr_from_sqdiffs(pairwise_sqdiffs(X_new, data.X), state.rho)
    return state.beta0 + X_new @ state.beta + r_cross @ alpha


def model_average_reference(
    chain,
    data,
    req: PredictionRequest,
    denoise_threshold: float = 0.0,
) -> np.ndarray:
    """Average of per-draw conditional means over the chain.

    With a positive threshold, draws whose model's empirical frequency in the
    chain falls below it are dropped and the average renormalizes over the
    remainder. Consecutive identical draws (rejected proposals) reuse the
    previous prediction vector.
    """
    if len(chain) == 0:
        raise ValueError("cannot average over an empty chain")
    if not 0.0 <= denoise_threshold < 1.0:
        raise ValueError("denoise_threshold must lie in [0, 1)")
    m = req.m
    if m == 0:
        return np.zeros(0)
    if req.X_new.shape[1] != data.X.shape[1]:
        raise DimensionMismatchError(
            f"sites have {req.X_new.shape[1]} columns, training data has {data.X.shape[1]}"
        )

    keep = denoise_mask(chain, denoise_threshold)
    if not keep.any():
        raise EmptyEnsembleError(f"denoise threshold {denoise_threshold} removed every draw")

    d2_train = kernel.pairwise_sqdiffs(data.X)
    d2_cross = kernel.pairwise_sqdiffs(req.X_new, data.X)
    diag = np.arange(data.X.shape[0])

    # a kept draw with the same beta0, beta, rho and lambda (by ==) as the
    # kept draw before it reuses that draw's prediction vector
    kept = np.flatnonzero(keep)
    cur, prev = kept[1:], kept[:-1]
    repeat = np.zeros(kept.size, dtype=bool)
    repeat[1:] = ((chain.beta0[cur] == chain.beta0[prev]) & (chain.lam[cur] == chain.lam[prev])
                  & np.all(chain.beta[cur] == chain.beta[prev], axis=1)
                  & np.all(chain.rho[cur] == chain.rho[prev], axis=1))
    total = np.zeros(m)
    for i, same in zip(kept.tolist(), repeat.tolist()):
        if not same:
            beta0, beta, rho, lam = chain.beta0[i], chain.beta[i], chain.rho[i], chain.lam[i]
            A = kernel.corr_from_sqdiffs(d2_train, rho)
            A[diag, diag] = 1.0 + lam
            L = cholesky_reference(A)
            resid = data.y - beta0 - data.X @ beta
            z = solve_triangular(L, resid, lower=True, check_finite=False)
            alpha = solve_triangular(L.T, z, lower=False, check_finite=False)
            r_cross = kernel.corr_from_sqdiffs(d2_cross, rho)
            pred = beta0 + req.X_new @ beta + r_cross @ alpha
        total += pred
    return total / kept.size


def gls_from_factor_reference(y: np.ndarray, F: np.ndarray, L: np.ndarray):
    """GLS coefficients and variance given the Cholesky factor of R + lam*I.

    Decorrelates with the factor and solves the least-squares problem by QR,
    which is the standard stable route to
    (F^T A^{-1} F)^{-1} F^T A^{-1} y and sigma2 = resid^T A^{-1} resid / n.
    """
    n = y.shape[0]
    yt = solve_triangular(L, y, lower=True, check_finite=False)
    Ft = solve_triangular(L, F, lower=True, check_finite=False)
    Q, Rq = qr(Ft, mode="economic", check_finite=False)
    coef = solve_triangular(Rq, Q.T @ yt, lower=False, check_finite=False)
    resid_t = yt - Ft @ coef
    sigma2 = float(resid_t @ resid_t) / n
    return coef, sigma2


def concentrated_gls_reference(y: np.ndarray, F: np.ndarray, f):
    """predict._concentrated_gls through scipy's qr and solve_triangular
    wrappers, which it calls the LAPACK routines of directly."""
    n = y.shape[0]
    yt = f.whiten(y)
    Ft = f.whiten(F)
    Q, Rq = qr(Ft, mode="economic", check_finite=False)
    coef = solve_triangular(Rq, Q.T @ yt, lower=False, check_finite=False)
    resid_t = yt - Ft @ coef
    sigma2 = float(resid_t @ resid_t) / n
    return coef, sigma2, n * math.log(max(sigma2, 1e-300)) + f.logdet, resid_t


def gls_fit_reference(data, model: ModelIndicator, rho, lam: float):
    """GLS trend fit at fixed correlation parameters.

    Returns (beta0_hat, beta_hat_full, sigma2_hat, objective) where objective
    is n*log(sigma2_hat) + log|R + lam*I|.
    """
    rho = np.asarray(rho, dtype=float)
    km = correlation_matrix_reference(data.X, rho)
    L = km.factor(lam)
    F = _trend_matrix(data.X, model.gamma_r)
    coef, sigma2 = gls_from_factor_reference(data.y, F, L)
    beta_full = np.zeros(data.X.shape[1])
    active = np.where(model.gamma_r == 1)[0]
    beta_full[active] = coef[1:]
    logdet = 2.0 * float(np.sum(np.log(np.diag(L))))
    n = data.X.shape[0]
    objective = n * math.log(max(sigma2, 1e-300)) + logdet
    return float(coef[0]), beta_full, sigma2, objective


def predict_mle_reference(fit: MleFit, data, req: PredictionRequest) -> np.ndarray:
    """Kriging prediction with the plug-in estimates of a fitted model."""
    X_new = req.X_new
    if X_new.shape[0] == 0:
        return np.zeros(0)
    if X_new.shape[1] != data.X.shape[1]:
        raise DimensionMismatchError(
            f"sites have {X_new.shape[1]} columns, training data has {data.X.shape[1]}"
        )
    trend = fit.beta0_hat + X_new @ fit.beta_hat
    if fit.model.gamma_c.sum() == 0 and fit.lambda_hat == 0.0:
        # no spatial component and no nugget: the fit is plain regression
        return trend
    km = correlation_matrix_reference(data.X, fit.rho_hat)
    resid = data.y - fit.beta0_hat - data.X @ fit.beta_hat
    alpha = km.solve(fit.lambda_hat, resid)
    r_cross = corr_from_sqdiffs(pairwise_sqdiffs(X_new, data.X), fit.rho_hat)
    return trend + r_cross @ alpha


def _cross_blocks_reference(n: int) -> tuple[int, int]:
    """The tile sizing that counted only the draws: S*n*b <= CROSS_BLOCK_ELEMS.
    It reads the package's constant at call time, so a test that patches it
    sizes both versions alike."""
    elems = predict.CROSS_BLOCK_ELEMS
    draws = max(1, elems // (4 * n * n))
    return draws, max(1, elems // (n * draws))


def kriging_means_reference(data, X_new, beta0, beta, rho, lam, weights):
    """The blocked kriging means that built all m sites' (m, n, p) squared
    differences up front and looped over the draw blocks outside the site
    tiles."""
    beta0, beta, rho, lam, weights = (np.asarray(a, dtype=float)
                                      for a in (beta0, beta, rho, lam, weights))
    n, p = data.X.shape
    m = X_new.shape[0]
    d2_train = kernel.pairwise_sqdiffs(data.X)
    d2_cross = kernel.pairwise_sqdiffs(X_new, data.X).reshape(m * n, p)
    total = weights @ beta0 + X_new @ (weights @ beta)
    n_draws = weights.shape[0]
    block, sites = _cross_blocks_reference(n)
    for start in range(0, n_draws, block):
        stop = min(start + block, n_draws)
        factors = kernel.GpFactor.stack(d2_train, rho[start:stop], lam[start:stop])
        # per draw the matrix-vector product of data.X @ beta[k]
        resid = data.y - beta0[start:stop, None] - (data.X @ beta[start:stop, :, None])[..., 0]
        # column i is draw start + i's alpha: a tile's (S*n, b) correlations,
        # read as (S, n*b), meet the raveled weighted alphas in one product
        alphas = np.empty((n, stop - start))
        for i, (f, r) in enumerate(zip(factors, resid)):
            alphas[:, i] = f.solve(r)
        alphas = (alphas * weights[start:stop]).ravel()
        rho_cols = rho[start:stop].T.copy()  # C order: a faster tile product
        for s in range(0, m, sites):  # one expression: one tile alive at a time
            total[s:s + sites] += kernel.corr_from_sqdiffs(
                d2_cross[s * n:(s + sites) * n], rho_cols).reshape(-1, alphas.size) @ alphas
    return total


def kriging_means_one_process_reference(data, X_new, beta0, beta, rho, lam, weights):
    """The kriging means that ran every chunk of draw blocks in this process
    and added each block's terms to the running total, tile by tile. It reads
    the package's CROSS_BLOCK_ELEMS and _cross_blocks at call time."""
    beta0, beta, rho, lam, weights = (np.asarray(a, dtype=float)
                                      for a in (beta0, beta, rho, lam, weights))
    n, p = data.X.shape
    m = X_new.shape[0]
    d2_train = kernel.pairwise_sqdiffs(data.X)
    total = weights @ beta0 + X_new @ (weights @ beta)
    n_draws = weights.shape[0]
    block, sites = predict._cross_blocks(n, p)
    chunk = max(1, predict.CROSS_BLOCK_ELEMS // (n * block)) * block
    for first in range(0, n_draws, chunk):
        blocks = []  # per block: its rho columns and its raveled weighted alphas
        for start in range(first, min(first + chunk, n_draws), block):
            stop = min(start + block, n_draws)
            factors = kernel.GpFactor.stack(d2_train, rho[start:stop], lam[start:stop])
            # per draw the matrix-vector product of data.X @ beta[k]
            resid = data.y - beta0[start:stop, None] - (data.X @ beta[start:stop, :, None])[..., 0]
            # column i is draw start + i's alpha: a tile's (S*n, b) correlations,
            # read as (S, n*b), meet the raveled weighted alphas in one product
            alphas = np.empty((n, stop - start))
            for i, (f, r) in enumerate(zip(factors, resid)):
                alphas[:, i] = f.solve(r)
            # C-ordered rho columns: a faster tile product
            blocks.append((rho[start:stop].T.copy(), (alphas * weights[start:stop]).ravel()))
        for s in range(0, m, sites):
            d2_cross = kernel.pairwise_sqdiffs(X_new[s:s + sites], data.X).reshape(-1, p)
            for rho_cols, alphas in blocks:  # one expression: one tile alive at a time
                total[s:s + sites] += kernel.corr_from_sqdiffs(
                    d2_cross, rho_cols).reshape(-1, alphas.size) @ alphas
    return total
