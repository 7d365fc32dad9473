"""Information-dimension estimators over empirical measures.

A measure is an (n, d) float array of n equally weighted points, each of
mass 1/n; an atom is a point repeated over as many rows as its mass takes.
Two routes: averaged log ball mass at sampled centers, and the entropy of
grid-cube masses.  Both report per-scale values and take the dimension
estimate from the least-squares slope over the scale ladder, where the
constant prefactors cancel.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import _integer, ambient_of_states, sample_model_states, SystemConfig
from .predictability import _check_ladder, _tree_balls


@dataclass(frozen=True)
class DimensionEstimate:
    """Scale ladder with per-level values and the fitted scaling exponent.

    levels_used records how many centers (ball route) or occupied cubes
    (box route) entered each level's value.
    """

    ladder: tuple          # (eps, value) pairs, eps strictly decreasing
    slope: float
    intercept: float
    r_squared: float
    levels_used: tuple = ()

    @property
    def estimate(self):
        return self.slope


def _fit(log_eps, values):
    """OLS fit values ~ slope * log_eps + intercept with degenerate-case care."""
    x = np.asarray(log_eps)
    y = np.asarray(values)
    if len(x) < 2:
        raise ValueError("fewer than 2 usable levels, estimate undefined")
    vx = x - x.mean()
    vy = y - y.mean()
    sxx = float(vx @ vx)
    slope = float(vx @ vy / sxx)
    intercept = float(y.mean() - slope * x.mean())
    ss_tot = float(vy @ vy)
    if ss_tot == 0.0:
        r2 = 1.0
    else:
        resid = y - (slope * x + intercept)
        r2 = 1.0 - float(resid @ resid) / ss_tot
    return slope, intercept, min(max(r2, 0.0), 1.0)


def _check_points(points):
    """points as an (n, d) float array with at least one row, every value finite."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.size == 0 or not np.all(np.isfinite(pts)):
        raise ValueError(f"points must be a non-empty (n, d) array of finite values, "
                         f"got shape {pts.shape}")
    return pts


def sample_model_measure(n, seed):
    """n draws from the half atom / half uniform-circle model measure.

    The samples of dynamics.sample_model_states under
    np.random.default_rng(seed) (a Generator is used as it is), as an (n, 5)
    array of equally weighted points of the R^5 product embedding.
    """
    if n < 2:
        raise ValueError("need n >= 2 samples")
    states = sample_model_states(n, np.random.default_rng(seed))
    return ambient_of_states(SystemConfig("model_T0"), states)


def ball_mass_dimension(points, ladder, n_centers, seed):
    """Scaling exponent of the averaged log ball mass of an (n, d) point array.

    Centers are drawn from the points themselves; per level the recorded
    value is the center average of log mu(B(x, eps)) / log eps (the
    pointwise-dimension form), while the returned estimate is the slope of
    the averaged log-mass against log eps over the ladder.  Balls are
    open, as in the predictability engines, whose k-d tree walk
    (predictability._tree_balls, with no successors) counts every level
    per center.
    """
    points = _check_points(points)
    ladder = _check_ladder(ladder)
    n_centers = _integer("n_centers", n_centers, 1)
    n = len(points)
    rng = np.random.default_rng(seed)
    # an explicit uniform p: p=None draws another stream
    idx = rng.choice(n, size=n_centers, replace=True, p=np.full(n, 1.0 / n))
    counts = _tree_balls(points, np.empty((n, 0)), points[idx], ladder)[0]
    values = []
    log_eps, log_mass = [], []
    for eps, count in zip(ladder, counts.T):
        # mass > 0: each center lies in its own open ball
        logm = np.log(count / n)
        values.append((eps, float(np.mean(logm / math.log(eps)))))
        log_eps.append(math.log(eps))
        log_mass.append(float(logm.mean()))
    slope, intercept, r2 = _fit(log_eps, log_mass)
    est = DimensionEstimate(tuple(values), slope, intercept, r2, (n_centers,) * len(ladder))
    return est, logm / math.log(ladder[-1])  # pointwise dimensions at the finest level


def pointwise_dim_quantiles(pointwise):
    """The 0.05, 0.1, 0.25 and 0.5 quantiles of per-center pointwise dimensions.

    A proxy for the Hausdorff dimension of the measure, not an estimate of it.
    """
    arr = np.asarray(pointwise)
    return {q: float(np.quantile(arr, q)) for q in (0.05, 0.1, 0.25, 0.5)}


def _cell_entropy(points, eps):
    """(sum of mass * log(mass), occupied-cube count) for side-eps origin-grid cubes."""
    with np.errstate(over="ignore"):  # an infinite quotient is rejected below
        scaled = points / eps
    if not np.all(np.abs(scaled) < 2.0**63):  # NaN fails too; int64 cube indices would wrap
        raise ValueError(f"eps = {eps!r}: a coordinate / eps is not finite or reaches 2^63")
    cells = np.floor(scaled).astype(np.int64)
    order = np.lexsort(cells.T[::-1])
    sorted_cells = cells[order]
    boundaries = np.any(sorted_cells[1:] != sorted_cells[:-1], axis=1)
    group_id = np.concatenate([[0], np.cumsum(boundaries)])
    # summing 1/n per point, not counts / n, which rounds differently
    masses = np.bincount(group_id, weights=np.full(len(points), 1.0 / len(points)))
    return float(np.sum(masses * np.log(masses))), int(len(masses))


def box_counting_idim(points, ladder):
    """Scaling exponent of the cube-entropy H(eps) = sum mu(C) log mu(C).

    mu puts mass 1/n on each row of the (n, d) point array.  Cubes have side
    eps and are anchored at the origin lattice; the estimate is the slope of
    H(eps) against log eps.
    """
    points = _check_points(points)
    ladder = _check_ladder(ladder)
    values = []
    used = []
    for eps in ladder:
        h, n_cells = _cell_entropy(points, eps)
        values.append((eps, h))
        used.append(n_cells)
    slope, intercept, r2 = _fit([math.log(e) for e, _ in values], [v for _, v in values])
    return DimensionEstimate(tuple(values), slope, intercept, r2, tuple(used))


def uniform_segment_measure(n, seed):
    """n uniform samples of the unit segment embedded on the first axis of R^2, as (n, 2)."""
    rng = np.random.default_rng(seed)
    x = rng.random(n)
    return np.column_stack([x, np.zeros(n)])


def point_mass_measure(n):
    """n copies of the point (0.25, -0.5) (a pure atom as an n-sample), as (n, 2)."""
    return np.tile(np.array([0.25, -0.5]), (n, 1))
