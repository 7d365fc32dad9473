"""Information-dimension estimators over empirical measures.

A measure is an (n, d) float array of n equally weighted points, each of
mass 1/n; an atom is a point repeated over as many rows as its mass takes.
Two routes: averaged log ball mass at sampled centers, and the entropy of
grid-cube masses.  Both report per-scale values and take the dimension
estimate from the least-squares slope over the scale ladder, where the
constant prefactors cancel.

Box counting sorts one int64 key per point and level, not the d columns of
cube indices.  The key reads a point's cube offsets from the column minima
as a mixed-radix number, column 0 most significant; where it would reach
2^63, the key so far, and then the column, is replaced by its dense rank.
Division by eps is monotone, so each column's min and max stand for all
its values in the check that no cube index reaches 2^63.  The sorted keys
give the cubes in the lexicographic order of their index tuples, and each
mass is 1/n added once per point, so the entropy (a pairwise sum, whose
last bits follow the cubes' order) equals that of sorting the tuples.
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


def _finite_ladder(ladder):
    """_check_ladder's ladder, whose first level must also be finite."""
    ladder = _check_ladder(ladder)
    if math.isinf(ladder[0]):
        raise ValueError(f"ladder must be finite, got {len(ladder)} levels, level 0 = inf")
    return ladder


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
    ladder = _finite_ladder(ladder)
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


def _dense_rank(values):
    """(rank of each value among the distinct values, number of distinct values)."""
    distinct, rank = np.unique(values, return_inverse=True)
    return rank, len(distinct)


def _cell_entropy(cols, lo, hi, eps):
    """(sum of mass * log(mass), occupied-cube count) for side-eps origin-grid cubes.

    cols is the (d, n) C-contiguous transpose of the points, lo and hi the
    min and max of its rows.  x -> x / eps is correctly rounded and monotone
    for eps > 0, so every x / eps lies between lo / eps and hi / eps: those
    2d quotients below 2^63 in size put every cube index in int64, and
    floor(lo / eps) and floor(hi / eps) are each column's least and greatest
    index.  A point's key is its offsets from the least indices read as a
    mixed-radix number, column 0 most significant, radix the column's span
    of indices, so sorted keys list the cubes in lexicographic order.
    Where the product of the spans would reach 2^63, the key so far is
    replaced by its dense rank, and the column's indices too if the product
    still would; ranks keep the order.  Each mass is 1/n added once per
    point of the cube (np.bincount), not count / n, which rounds differently.
    """
    n = cols.shape[1]
    with np.errstate(over="ignore"):  # an infinite quotient is rejected below
        first, last = lo / eps, hi / eps
    if not (np.all(np.abs(first) < 2.0**63) and np.all(np.abs(last) < 2.0**63)):
        raise ValueError(f"eps = {eps!r}: a coordinate / eps is not finite or reaches 2^63")
    first, last = np.floor(first).astype(np.int64), np.floor(last).astype(np.int64)
    key, radix = None, 1
    for col, low, high in zip(cols, first.tolist(), last.tolist()):
        cells = np.floor(col / eps).astype(np.int64)
        span = high - low + 1
        if radix * span >= 2**63:
            if key is not None:
                key, radix = _dense_rank(key)
            if radix * span >= 2**63:
                (cells, span), low = _dense_rank(cells), 0
        cells -= low
        if key is None:
            key = cells
        else:
            key *= span
            key += cells
        radix *= span
    key.sort()
    group_id = np.concatenate([[0], np.cumsum(key[1:] != key[:-1])])
    masses = np.bincount(group_id, weights=np.full(n, 1.0 / n))
    return float(np.sum(masses * np.log(masses))), int(len(masses))


def box_counting_idim(points, ladder):
    """Scaling exponent of the cube-entropy H(eps) = sum mu(C) log mu(C).

    mu puts mass 1/n on each row of the (n, d) point array.  Cubes have side
    eps and are anchored at the origin lattice; the estimate is the slope of
    H(eps) against log eps.  The columns and their min and max are taken
    once; each level then sorts one int64 key per point, ranked where the
    mixed-radix key would reach 2^63, and checks only the 2d bounds against
    2^63 (_cell_entropy says why both are exact).  A ValueError names a
    level where a coordinate / eps reaches 2^63, and an infinite level.
    """
    points = _check_points(points)
    ladder = _finite_ladder(ladder)
    cols = np.ascontiguousarray(points.T)
    lo, hi = cols.min(axis=1), cols.max(axis=1)
    values = []
    used = []
    for eps in ladder:
        h, n_cells = _cell_entropy(cols, lo, hi, eps)
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
