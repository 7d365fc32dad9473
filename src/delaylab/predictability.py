"""Local-averaging prediction-error estimates over delay-vector series.

For a reference vector y, the in-ball successor cloud over an epsilon ladder
gives the empirical conditional mean (chi) and conditional deviation (sigma);
the reported sigma_hat is sigma at the smallest epsilon still holding at
least min_count neighbors, a conservative stand-in for the epsilon -> 0
limit.  A point is called predictable when sigma_hat falls below a fixed
absolute threshold.

predictability_report is the one entry to the engines: it takes a built
series and its reference vectors, so the caller owns the orbit, the
observable and the reference draw.
"""

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_MIN_COUNT = 20
DEFAULT_THRESHOLD = 1e-3
DEFAULT_LADDER_TOP = 0.2
DEFAULT_LADDER_LEVELS = 8

# ball populations up to this size are reduced with the exact two-pass
# formulas; larger ones go through centered prefix sums
_DIRECT_MAX = 16384


@dataclass(frozen=True)
class LadderEntry:
    eps: float
    count: int
    chi: np.ndarray | None
    sigma: float | None


@dataclass(frozen=True)
class SigmaEstimate:
    """Per-reference ladder of conditional statistics and its extrapolation.

    sigma_hat is None when no ladder level reaches min_count; predictable is
    None in that case as well.
    """

    ladder: tuple
    sigma_hat: float | None
    sigma_hat_eps: float | None
    sigma_hat_count: int
    predictable: bool | None

    @property
    def defined(self):
        return self.sigma_hat is not None


def chi_sigma(series, y, eps):
    """Conditional mean and RMS deviation of successors over the eps-ball.

    The one-level BruteEngine profile.  Returns (chi, sigma, count);
    count == 0 signals an empty ball and chi, sigma are None then (distinct
    from a zero sigma).
    """
    entry = BruteEngine(series).profile(y, [eps], min_count=2).ladder[0]
    return entry.chi, entry.sigma, entry.count


def default_ladder(series, levels=DEFAULT_LADDER_LEVELS, top=DEFAULT_LADDER_TOP):
    """Geometric ladder top * 2^-j scaled by the series diameter, the
    bounding-box diagonal of the delay vectors (1 when that is 0)."""
    pred = series.predecessors
    diam = float(np.linalg.norm(pred.max(axis=0) - pred.min(axis=0)))
    if diam <= 0.0:
        diam = 1.0
    return [top * diam * 0.5**j for j in range(levels)]


def _validate_ladder(ladder, min_count):
    ladder = [float(e) for e in ladder]
    if len(ladder) < 1 or any(b >= a for a, b in zip(ladder, ladder[1:])):
        raise ValueError("ladder must be strictly decreasing")
    if ladder[-1] <= 0.0:
        raise ValueError("ladder levels must be positive")
    if min_count < 2:
        raise ValueError("min_count must be >= 2")
    return ladder


def _finish_profile(entries, min_count, threshold):
    sigma_hat = None
    hat_eps = None
    hat_count = 0
    for e in entries:  # entries ordered by decreasing eps
        if e.count >= min_count:
            sigma_hat = e.sigma
            hat_eps = e.eps
            hat_count = e.count
    predictable = None if sigma_hat is None else bool(sigma_hat < threshold)
    return SigmaEstimate(
        ladder=tuple(entries),
        sigma_hat=sigma_hat,
        sigma_hat_eps=hat_eps,
        sigma_hat_count=hat_count,
        predictable=predictable,
    )


def _ball_entry(eps, cloud):
    """Ladder entry of one ball from its C-order (count, k) successor cloud.

    The exact two-pass formulas: chi is cloud.mean(axis=0); the squared
    deviations are summed column by column, which adds each row's terms in
    the order sum(axis=1) does.
    """
    if len(cloud) == 0:
        return LadderEntry(eps, 0, None, None)
    chi = cloud.mean(axis=0)
    dev = np.square(cloud[:, 0] - chi[0])
    for j in range(1, cloud.shape[1]):
        dev += np.square(cloud[:, j] - chi[j])
    return LadderEntry(eps, len(cloud), chi, float(np.sqrt(np.mean(dev))))


class BruteEngine:
    """Exact per-reference ball statistics via one distance pass per reference.

    The predecessor columns are stored contiguously, so a distance pass is a
    few elementwise passes over the series.  The ladder's balls are nested,
    so each level filters the survivors of the level above.
    """

    def __init__(self, series):
        self.pred, self.succ = series.predecessors, series.successors
        self.k = self.pred.shape[1]
        self.cols = np.ascontiguousarray(self.pred.T)

    def distances(self, y):
        """Euclidean distance of every predecessor to y.

        ((c0 - y0)^2 + (c1 - y1)^2) + ..., summed in the order of
        np.linalg.norm(pred - y, axis=1), so equal to it bitwise.
        """
        y = np.asarray(y, dtype=float).reshape(-1)
        if len(y) != self.k:
            raise ValueError(f"reference has {len(y)} coordinates, the series k = {self.k}")
        sq = np.square(self.cols[0] - y[0])
        if self.k > 1:
            term = np.empty_like(sq)
            for col, v in zip(self.cols[1:], y[1:]):
                np.subtract(col, v, out=term)
                sq += np.square(term, out=term)
        return np.sqrt(sq, out=sq)

    def profile(self, y, ladder, min_count=DEFAULT_MIN_COUNT, threshold=DEFAULT_THRESHOLD):
        ladder = _validate_ladder(ladder, min_count)
        y = np.asarray(y, dtype=float).reshape(-1)
        d = self.distances(y)
        idx = np.flatnonzero(d < ladder[0])
        d = d[idx]
        entries = [_ball_entry(ladder[0], self.succ.take(idx, axis=0))]
        for eps in ladder[1:]:
            inside = d < eps
            idx, d = idx[inside], d[inside]
            entries.append(_ball_entry(eps, self.succ.take(idx, axis=0)))
        return _finish_profile(entries, min_count, threshold)


class Sorted1DEngine:
    """Scalar-series engine: interval search on the sorted predecessors.

    Large balls are reduced through centered prefix sums (count > _DIRECT_MAX);
    small ones go through _ball_entry, like every BruteEngine ball.
    """

    def __init__(self, series):
        if series.k != 1:
            raise ValueError("Sorted1DEngine requires k = 1")
        order = np.argsort(series.predecessors[:, 0], kind="stable")
        self.ys = series.predecessors[order, 0]
        self.ss = series.successors[order, 0]
        del order  # freed before the prefix sums, which set the build's peak memory
        n = len(self.ss)
        self.center = float(self.ss.mean()) if n else 0.0
        centered = self.ss - self.center
        self.s1 = np.zeros(n + 1)
        np.cumsum(centered, out=self.s1[1:])
        centered *= centered
        self.s2 = np.zeros(n + 1)
        np.cumsum(centered, out=self.s2[1:])

    def interval(self, y, eps):
        """Index range [lo, hi) of the sorted predecessors x with sqrt((x - y)^2) < eps.

        That is BruteEngine's k = 1 test.  The rounded edges y -/+ eps place
        each end, which then moves, one run of equal values at a time, until
        the test holds just inside it and fails just outside.
        """
        ys, item = self.ys, self.ys.item

        def inside(i):
            d = item(i) - y
            return math.sqrt(d * d) < eps

        def run_end(i, side):
            return int(ys.searchsorted(item(i), side=side))

        hi = int(ys.searchsorted(y + eps, side="left"))
        while hi < len(ys) and inside(hi):
            hi = run_end(hi, "right")
        while hi > 0 and item(hi - 1) > y and not inside(hi - 1):
            hi = run_end(hi - 1, "left")
        lo = int(ys.searchsorted(y - eps, side="right"))
        while lo > 0 and inside(lo - 1):
            lo = run_end(lo - 1, "left")
        while lo < hi and item(lo) < y and not inside(lo):
            lo = run_end(lo, "right")
        return lo, hi

    def _stats(self, eps, lo, hi):
        count = hi - lo
        if count <= _DIRECT_MAX:
            return _ball_entry(eps, self.ss[lo:hi, None])
        m1 = (self.s1[hi] - self.s1[lo]) / count
        m2 = (self.s2[hi] - self.s2[lo]) / count
        var = max(m2 - m1 * m1, 0.0)
        return LadderEntry(eps, count, np.array([self.center + m1]), math.sqrt(var))

    def profile(self, y, ladder, min_count=DEFAULT_MIN_COUNT, threshold=DEFAULT_THRESHOLD):
        ladder = _validate_ladder(ladder, min_count)
        yv = float(np.asarray(y, dtype=float).reshape(-1)[0])
        entries = [self._stats(eps, *self.interval(yv, eps)) for eps in ladder]
        return _finish_profile(entries, min_count, threshold)


def predictability_report(series, ys, levels=DEFAULT_LADDER_LEVELS, top=DEFAULT_LADDER_TOP,
                          min_count=DEFAULT_MIN_COUNT, threshold=DEFAULT_THRESHOLD):
    """One SigmaEstimate per reference vector in ys, in order, on default_ladder(series, levels, top).

    series is a PairedVectors.  The engine depends on k alone:
    interval search for k = 1, distance passes otherwise.
    """
    ladder = default_ladder(series, levels, top)
    engine = (Sorted1DEngine if series.k == 1 else BruteEngine)(series)
    return tuple(engine.profile(y, ladder, min_count, threshold) for y in ys)
