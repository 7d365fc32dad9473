"""Information-dimension estimators over empirical measures.

Two routes: averaged log ball mass at sampled centers, and the entropy of
grid-cube masses.  Both report per-scale values and take the dimension
estimate from the least-squares slope over the scale ladder, where the
constant prefactors cancel.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import ambient_of_states, sample_model_states, SystemConfig

_WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Finite weighted point set; weights normalized to total mass one."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if self.points.ndim != 2 or len(self.points) != len(self.weights):
            raise ValueError("points must be (n, d) with matching weights")
        if not np.all(np.isfinite(self.points)):
            raise ValueError("non-finite support point")
        if np.any(self.weights < 0.0) or abs(self.weights.sum() - 1.0) > _WEIGHT_TOL:
            raise ValueError("weights must be nonnegative and sum to 1")

    @classmethod
    def uniform(cls, points):
        points = np.asarray(points, dtype=float)
        n = len(points)
        return cls(points, np.full(n, 1.0 / n))

    def is_uniform(self):
        w = self.weights
        return bool(np.all(np.abs(w - 1.0 / len(w)) < _WEIGHT_TOL / len(w)))


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
    dropped_levels: tuple = ()
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


def _check_ladder(ladder):
    """The ladder as floats, non-empty, strictly decreasing and positive.

    Written as comparisons that must hold, so a NaN level, which compares
    false, is rejected. Used by the dimension estimators and predictability.
    """
    ladder = [float(e) for e in ladder]
    if not (ladder and all(b < a for a, b in zip(ladder, ladder[1:])) and ladder[-1] > 0.0):
        raise ValueError(f"ladder must be strictly decreasing and positive, got {ladder}")
    return ladder


def sample_model_measure(n, seed):
    """n draws from the half atom / half uniform-circle model measure.

    The samples of dynamics.sample_model_states under
    np.random.default_rng(seed) (a Generator is used as it is), as equally
    weighted points of the R^5 product embedding.
    """
    if n < 2:
        raise ValueError("need n >= 2 samples")
    states = sample_model_states(n, np.random.default_rng(seed))
    return EmpiricalMeasure.uniform(ambient_of_states(SystemConfig("model_T0"), states))


def ball_mass_dimension(mu, ladder, n_centers, seed):
    """Scaling exponent of the mu-averaged log ball mass.

    Centers are drawn from mu itself; per level the recorded value is the
    center average of log mu(B(x, eps)) / log eps (the pointwise-dimension
    form), while the returned estimate is the slope of the averaged
    log-mass against log eps over the ladder.
    """
    ladder = _check_ladder(ladder)
    if n_centers < 1:
        raise ValueError("n_centers must be >= 1")
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(mu.points), size=n_centers, replace=True, p=mu.weights)
    # atoms repeat centers: each distinct one is queried once, its mass indexed back
    centers, inverse = np.unique(mu.points[idx], axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    from scipy.spatial import cKDTree  # most of the time of `import delaylab`: imported on use

    tree = cKDTree(mu.points)
    uniform = mu.is_uniform()
    values = []
    log_mass_means = []
    pointwise = None
    dropped = []
    used = []
    for eps in ladder:
        if uniform:
            counts = tree.query_ball_point(centers, eps, return_length=True)
            mass = counts[inverse] / len(mu.points)
        else:
            balls = tree.query_ball_point(centers, eps)
            mass = np.array([mu.weights[b].sum() for b in balls])[inverse]
        if np.any(mass <= 0.0):
            dropped.append(eps)
            values.append((eps, float("nan")))
            used.append(0)
            continue
        used.append(len(mass))
        logm = np.log(mass)
        values.append((eps, float(np.mean(logm / math.log(eps)))))
        log_mass_means.append((math.log(eps), float(logm.mean())))
        pointwise = logm / math.log(eps)  # finest usable level wins
    if len(log_mass_means) < 2:
        raise ValueError("fewer than 2 usable levels, estimate undefined")
    slope, intercept, r2 = _fit([x for x, _ in log_mass_means], [y for _, y in log_mass_means])
    est = DimensionEstimate(tuple(values), slope, intercept, r2, tuple(dropped), tuple(used))
    return est, np.asarray(pointwise)


def pointwise_dim_quantiles(pointwise):
    """The 0.05, 0.1, 0.25 and 0.5 quantiles of per-center pointwise dimensions.

    A proxy for the Hausdorff dimension of the measure, not an estimate of it.
    """
    arr = np.asarray(pointwise)
    return {q: float(np.quantile(arr, q)) for q in (0.05, 0.1, 0.25, 0.5)}


def _cell_entropy(points, weights, eps):
    """(sum of mass * log(mass), occupied-cube count) for side-eps origin-grid cubes."""
    cells = np.floor(points / eps).astype(np.int64)
    order = np.lexsort(cells.T[::-1])
    sorted_cells = cells[order]
    boundaries = np.any(sorted_cells[1:] != sorted_cells[:-1], axis=1)
    group_id = np.concatenate([[0], np.cumsum(boundaries)])
    masses = np.bincount(group_id, weights=weights[order])
    masses = masses[masses > 0.0]
    return float(np.sum(masses * np.log(masses))), int(len(masses))


def box_counting_idim(mu, ladder):
    """Scaling exponent of the cube-entropy H(eps) = sum mu(C) log mu(C).

    Cubes have side eps and are anchored at the origin lattice; the estimate
    is the slope of H(eps) against log eps.
    """
    ladder = _check_ladder(ladder)
    if len(ladder) < 2:
        raise ValueError("fewer than 2 usable levels, estimate undefined")
    values = []
    used = []
    for eps in ladder:
        h, n_cells = _cell_entropy(mu.points, mu.weights, eps)
        values.append((eps, h))
        used.append(n_cells)
    slope, intercept, r2 = _fit([math.log(e) for e, _ in values], [v for _, v in values])
    return DimensionEstimate(tuple(values), slope, intercept, r2, (), tuple(used))


def uniform_segment_measure(n, seed):
    """n uniform samples of the unit segment embedded on the first axis of R^2."""
    rng = np.random.default_rng(seed)
    x = rng.random(n)
    return EmpiricalMeasure.uniform(np.column_stack([x, np.zeros(n)]))


def point_mass_measure(n):
    """n copies of the point (0.25, -0.5) (a pure atom as an n-sample)."""
    pts = np.tile(np.array([0.25, -0.5]), (n, 1))
    return EmpiricalMeasure.uniform(pts)
