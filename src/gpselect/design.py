"""Maximin Latin hypercube designs, the synthetic test function, and scoring."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError


@dataclass
class LhdDesign:
    """Design points in a box plus the achieved minimum pairwise distance."""

    points: np.ndarray
    maximin_dist: float


def _min_pairwise_dist(points: np.ndarray) -> float:
    d2 = np.sum((points[:, None, :] - points[None, :, :]) ** 2, axis=-1)
    np.fill_diagonal(d2, np.inf)
    return float(np.sqrt(d2.min()))


def random_lhd(n: int, p: int, rng: np.random.Generator) -> np.ndarray:
    """Random Latin hypercube on [0, 1]^p using stratum midpoints."""
    design = np.empty((n, p))
    for j in range(p):
        design[:, j] = (rng.permutation(n) + 0.5) / n
    return design


def _hill_climb(points: np.ndarray, max_passes: int = 30) -> np.ndarray:
    """Pairwise-swap ascent on the minimum interpoint distance.

    Swapping two entries within one column preserves the Latin property.
    Swaps are visited by column, then (i, j) with i < j, and kept only when
    they strictly raise the minimum distance. A swap rewrites only rows and
    columns i and j of the squared-distance matrix, so it can win only when
    every closest pair touches i or j but is not (i, j): with deg counting
    the closest pairs at each point, deg[i] + deg[j] equals their number.
    Just those j are scored, at once and with the single-swap arithmetic.
    """
    n, p = points.shape
    D = np.sum((points[:, None, :] - points[None, :, :]) ** 2, axis=-1)
    np.fill_diagonal(D, np.inf)
    best = D.min()
    deg = np.count_nonzero(D == best, axis=1)
    for _ in range(max_passes):
        improved = False
        for col in range(p):
            c = points[:, col]
            for i in range(n - 1):
                start = i + 1
                while True:
                    js = start + np.flatnonzero(deg[start:] == deg.sum() // 2 - deg[i])
                    js = js[D[i, js] != best]
                    if not js.size:
                        break
                    cross = (c[js, None] - c) ** 2
                    own = (c[i] - c) ** 2
                    di_new = D[i] - own + cross
                    dj_new = D[js] - cross + own
                    # the diagonal and the unchanged i-j gap (above best) cannot decide
                    rows = np.arange(js.size)
                    di_new[:, i] = dj_new[rows, js] = np.inf
                    di_new[rows, js] = dj_new[:, i] = np.inf
                    wins = np.flatnonzero((di_new.min(axis=1) > best) & (dj_new.min(axis=1) > best))
                    if not wins.size:
                        break
                    j = int(js[wins[0]])
                    di_new, dj_new = di_new[wins[0]], dj_new[wins[0]]
                    di_new[j] = D[i, j]  # i-j gap is invariant under the swap
                    dj_new[i] = D[j, i]
                    D[i], D[j] = di_new, dj_new
                    D[:, i], D[:, j] = di_new, dj_new
                    best = D.min()
                    deg = np.count_nonzero(D == best, axis=1)
                    c[i], c[j] = c[j], c[i]
                    improved = True
                    start = j + 1
        if not improved:
            break
    return points


def maximin_lhd(
    n: int,
    p: int,
    box: tuple[float, float] = (0.0, 1.0),
    seed: int = 0,
    n_restarts: int = 5,
) -> LhdDesign:
    """Best-of-restarts maximin Latin hypercube in [box[0], box[1]]^p.

    Each restart draws a fresh random LHD and improves it by swap
    hill-climbing; the restart with the largest minimum pairwise distance
    wins. Deterministic given the seed.
    """
    if n < 2:
        raise ValueError("need n >= 2 design points")
    if n_restarts < 1:
        raise ValueError("need n_restarts >= 1")
    a, b = float(box[0]), float(box[1])
    if not b > a:
        raise ValueError(f"box must satisfy a < b, got {box}")
    rng = np.random.default_rng(seed)
    best_pts = None
    best_dist = -np.inf
    for _ in range(n_restarts):
        pts = _hill_climb(random_lhd(n, p, rng))
        dist = _min_pairwise_dist(pts)
        if dist > best_dist:
            best_dist = dist
            best_pts = pts
    scaled = a + (b - a) * best_pts
    return LhdDesign(points=scaled, maximin_dist=_min_pairwise_dist(scaled))


def simulate_study(sim, seed: int) -> tuple[LhdDesign, np.ndarray, LhdDesign, np.ndarray]:
    """Training design and responses, then validation design and responses.

    sim gives n_train, n_validation, noise_sd, box and lhd_restarts. The
    5-d maximin LHDs use seed (training) and seed + 1 with half the restarts
    (validation); the noise comes from the third child of SeedSequence(seed).
    """
    rng_noise = np.random.default_rng(np.random.SeedSequence(seed).spawn(3)[2])
    train = maximin_lhd(sim.n_train, 5, box=sim.box, seed=seed, n_restarts=sim.lhd_restarts)
    val = maximin_lhd(sim.n_validation, 5, box=sim.box, seed=seed + 1,
                      n_restarts=max(1, sim.lhd_restarts // 2))
    y_train = sim_response_batch(train.points, sim.noise_sd, rng_noise)
    return train, y_train, val, sim_response_batch(val.points, sim.noise_sd, rng_noise)


def sim_response(x, noise_sd: float = 0.1, rng: np.random.Generator | None = None) -> float:
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


def sim_response_batch(
    X: np.ndarray, noise_sd: float = 0.1, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Vector of sim_response values over the rows of X."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return np.array([sim_response(row, noise_sd=noise_sd, rng=rng) for row in X])


def rmspe(y_true, y_pred) -> float:
    """Root mean squared prediction error."""
    y_true = np.asarray(y_true, dtype=float).ravel()
    y_pred = np.asarray(y_pred, dtype=float).ravel()
    if y_true.shape != y_pred.shape:
        raise DimensionMismatchError(
            f"length mismatch: {y_true.shape[0]} vs {y_pred.shape[0]}"
        )
    if y_true.shape[0] == 0:
        raise ValueError("rmspe needs at least one value")
    return float(np.sqrt(np.mean((y_true - y_pred) ** 2)))
