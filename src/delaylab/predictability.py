"""Local-averaging prediction-error estimates over delay-vector series.

For a reference vector y, the in-ball successor cloud over an epsilon ladder
gives the empirical conditional mean (chi) and conditional deviation (sigma);
the reported sigma_hat is sigma at the smallest epsilon still holding at
least min_count neighbors, a conservative stand-in for the epsilon -> 0
limit.  A point is called predictable when sigma_hat falls below a fixed
absolute threshold.

predictability_report is the one entry to the engines: it takes a built
series and its reference vectors, so the caller owns the orbit, the
observable and the reference draw.  Both engines are built as
Engine(series, ys, ladder) into one (references x levels) table of count,
chi and sigma, and their one profile function reads a reference's row.
The engine depends on k alone, and both count a point inside a ball
exactly when its squared distance s = (x - y)^2 + ... is below the level's
exact cut T = _square_cut(eps), the smallest float with sqrt(T) >= eps, so
exactly when sqrt(s) < eps, with no sqrt taken:

- BruteEngine (k >= 2) sorts the series once into a uniform grid of about
  n cells (at most 2n), each with its tight bounding box and its
  successors' count, mean and centred M2 (_kernels._cell_grid).  The
  nested balls cut the top ball into shells.  Per reference
  (_kernels._grid_shells, compiled; numpy passes without gcc) a cell
  wholly inside one shell adds its cached moments to it, and only a cell
  that a sphere cuts is scanned point by point, so the cost follows the
  spheres, not the balls.  Counts stay exact: rounded subtraction,
  squaring and addition are monotone, so a point's s lies between the sums
  of the same form over the nearest and farthest coordinates of any box
  that holds it, here its cell's (and a k-d tree node's in
  _kernels._ball_counts, which counts E6's balls the same way).
  Each shell is its whole cells merged with its scanned points, and the
  balls are the shells merged from the innermost outward, one level at a
  time over all references; sigma's last digits depend on that merge
  order, the same on both backends.
- Sorted1DEngine (k = 1) bins the series once between the exact float
  edges of every ball, the floats where (x - y)^2 < T flips, with no sort,
  and merges each ball's bins from per-bin count, mean and centred M2
  (_kernels._moments, which the grid's cells and shells share).  The binning is
  _kernels.bin_right, a compiled lockstep binary search equal to
  searchsorted (searchsorted itself without gcc).

Both merge moments with the pairwise formulas of Chan, Golub and LeVeque
(_merge), and both hand per-level arrays to one result builder
(_estimate).
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import _kernels as _k
from .dimension import _check_ladder
from .dynamics import _integer

DEFAULT_MIN_COUNT = 20
DEFAULT_THRESHOLD = 1e-3
DEFAULT_LADDER_TOP = 0.2
DEFAULT_LADDER_LEVELS = 8


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

    The one-level profile of a one-reference BruteEngine.  Returns (chi,
    sigma, count); count == 0 signals an empty ball and chi, sigma are None
    then (distinct from a zero sigma).
    """
    entry = BruteEngine(series, [y], [eps]).profile(y, [eps], min_count=2).ladder[0]
    return entry.chi, entry.sigma, entry.count


def default_ladder(series, levels=DEFAULT_LADDER_LEVELS, top=DEFAULT_LADDER_TOP):
    """Geometric ladder top * 2^-j scaled by the series diameter, the
    bounding-box diagonal of the delay vectors (1 when that is 0)."""
    pred = series.predecessors
    if len(pred) == 0:
        raise ValueError(f"delay series of k = {series.k} has {len(pred)} pairs: "
                         f"it needs at least k + 1 = {series.k + 1} measurements")
    lo, hi = _k._extent(pred)
    diam = float(np.linalg.norm(hi - lo))
    if diam <= 0.0:
        diam = 1.0
    return [top * diam * 0.5**j for j in range(levels)]


def _estimate(ladder, count, chi, sigma, min_count, threshold):
    """SigmaEstimate of one reference from its per-level arrays: count (L,),
    chi (L, k) and sigma (L,).

    Each non-empty level's chi is a row view of chi; sigma_hat is sigma at
    the last level holding at least min_count points.
    """
    counts, sigmas = count.tolist(), sigma.tolist()
    entries = tuple([LadderEntry(eps, c, m, sd) if c else LadderEntry(eps, 0, None, None)
                     for eps, c, m, sd in zip(ladder, counts, chi, sigmas)])
    held = [j for j, c in enumerate(counts) if c >= min_count]
    if not held:
        return SigmaEstimate(entries, None, None, 0, None)
    j = held[-1]
    return SigmaEstimate(entries, sigmas[j], ladder[j], counts[j], bool(sigmas[j] < threshold))


def _merge(a, b):
    """Pairwise update of (count, mean, M2) moments (Chan, Golub & LeVeque,
    Am. Stat. 37, 1983); an empty side returns the other side unchanged.

    The means are k-vectors, with one more trailing axis than the counts,
    and M2 is summed over the k coordinates.
    """
    na, ma, qa = a
    nb, mb, qb = b
    n = na + nb
    w = nb / np.maximum(n, 1.0)
    d = mb - ma
    return n, ma + d * w[..., None], qa + qb + np.square(d).sum(axis=-1) * na * w


def _init(self, series, ys, ladder):
    """Check the ladder and the references ys, each k finite coordinates, then
    build the table: _balls gives count (m, L), chi (m, L, k) and sigma (m, L)."""
    self.pred, self.k = series.predecessors, series.k
    self.ladder = _check_ladder(ladder)
    if not len(ys):
        raise ValueError("an engine needs at least one reference")
    ys = np.asarray(ys, dtype=float).reshape(len(ys), -1)
    if ys.shape[1] != self.k:
        raise ValueError(f"reference 0 = {ys[0].tolist()} has {ys.shape[1]} coordinates, "
                         f"the series k = {self.k}")
    bad = np.flatnonzero(~np.isfinite(ys).all(axis=1))
    if len(bad):
        raise ValueError(f"reference {bad[0]} = {ys[bad[0]].tolist()} is not finite")
    self._rows = {y: i for i, y in enumerate(map(tuple, ys.tolist()))}
    self._table = self._balls(series, ys)


def _profile(self, y, ladder, min_count=DEFAULT_MIN_COUNT, threshold=DEFAULT_THRESHOLD):
    """SigmaEstimate of y, one of the engine's references, on the engine's ladder."""
    _integer("min_count", min_count, 2)
    row = self._rows.get(tuple(np.asarray(y, dtype=float).reshape(-1).tolist()))
    if row is None or list(ladder) != self.ladder:
        raise ValueError(f"reference {y} on ladder {list(ladder)} is not in the engine's table")
    return _estimate(self.ladder, *(t[row] for t in self._table), min_count, threshold)


class BruteEngine:
    """Exact ball statistics from a cell grid with cached moments (Moore,
    NIPS 1999), for any k; predictability_report uses it for k >= 2.

    The name is older than the grid.  It stays because the benchmark's
    tracer wraps BruteEngine by name, until ROADMAP item 1b lets the
    benchmark follow a rename.

    The series is sorted once into the cells of _kernels._cell_grid, each
    reference's shells are read from them by _kernels._grid_shells and
    merged into balls; the module docstring says how, and why the counts
    are exact.
    """

    __init__ = _init
    profile = _profile

    def _balls(self, series, ys):
        grid = _k._cell_grid(series.predecessors, series.successors)
        whole, scanned = _k._grid_shells(grid, ys, _square_cut(self.ladder))
        n, mean, m2 = _merge(whole, scanned)
        ball = (np.zeros(len(ys)), np.zeros((len(ys), self.k)), np.zeros(len(ys)))
        for j in reversed(range(len(self.ladder))):  # shell j's moments become ball j's
            ball = _merge(ball, (n[:, j], mean[:, j], m2[:, j]))
            n[:, j], mean[:, j], m2[:, j] = ball
        return n.astype(np.int64), mean, np.sqrt(m2 / np.maximum(n, 1.0))


def _square_cut(eps):
    """The smallest float T with sqrt(T) >= eps, elementwise for eps > 0, a
    scalar or an array (inf for an eps above sqrt of the largest float).

    sqrt is correctly rounded, so monotone: a sum of squares s (never
    negative) is below T exactly when sqrt(s) < eps, NaN and inf included.
    The search starts from eps * eps, a few floats from T unless it
    underflows to 0 or overflows to inf.
    """
    flat = np.asarray(eps, dtype=float).ravel()
    with np.errstate(over="ignore"):
        start = _keys(np.square(flat))
    cut = _first_key(_keys(np.full_like(flat, -0.0)), _keys(np.full_like(flat, np.inf)), start,
                     lambda t, sel: np.sqrt(t) >= flat[sel])
    return _floats(cut).reshape(np.shape(eps))[()]


_SIGN = np.uint64(1 << 63)


def _keys(x):
    """Order-preserving uint64 keys of floats: key(a) < key(b) when a < b,
    and consecutive floats have consecutive keys (-0.0 sits just below +0.0)."""
    bits = np.asarray(x, dtype=float).view(np.uint64)
    return np.where(bits & _SIGN, ~bits, bits | _SIGN)


def _floats(keys):
    return np.where(keys & _SIGN, keys ^ _SIGN, ~keys).view(float)


def _first_key(lo, hi, start, test):
    """Smallest key in (lo, hi] whose float passes the test, elementwise,
    for a start in [lo, hi].

    test(x, sel) is vectorised over the floats x of the keys at positions
    sel; it fails at lo, holds at hi and is monotone between them.  The
    search first splits the bracket at start, then steps away from start by
    1, 2, 4, ... keys until the test flips and bisects the last step, so a
    start a few ulps from the edge settles in a few vectorised passes.
    """
    down = test(_floats(start), slice(None))
    lo, hi = np.where(down, lo, start), np.where(down, start, hi)
    step = np.ones_like(lo)
    todo = np.flatnonzero(hi - lo > 1)
    while len(todo):
        l, h = lo[todo], hi[todo]
        s = np.minimum(step[todo], (h - l) >> 1)
        probe = np.where(down[todo], h - s, l + s)
        hit = test(_floats(probe), todo)
        lo[todo], hi[todo] = np.where(hit, l, probe), np.where(hit, probe, h)
        step[todo] = s << 1
        todo = todo[hi[todo] - lo[todo] > 1]
    return hi


def _ball_edges(ys, ladder):
    """Float edges [a, b) of BruteEngine's open k = 1 balls around each
    reference in ys at each level of the ladder, reference-major: x is
    inside the ball of (y, eps) exactly when a <= x < b, that is when
    (x - y)^2 < _square_cut(eps).

    a is the smallest float inside, b the smallest float above y outside;
    each search starts from the rounded edge y -/+ eps.
    """
    y, eps = np.repeat(ys, len(ladder)), np.tile(ladder, len(ys))
    cut = np.tile(_square_cut(ladder), len(ys))

    def inside(x, sel):
        return np.square(x - y[sel]) < cut[sel]

    ky = _keys(y)
    lo = _first_key(_keys(np.full_like(y, -np.inf)), ky, _keys(y - eps), inside)
    hi = _first_key(ky, _keys(np.full_like(y, np.inf)), _keys(y + eps),
                    lambda x, sel: ~inside(x, sel))
    return _floats(lo), _floats(hi)


class Sorted1DEngine:
    """Scalar-series engine: one binning of the series at its references' ball edges.

    It bins the series once between the exact float edges of every
    (reference, level) ball, takes each bin's count, mean and centred M2,
    and merges each ball's contiguous run of bins, about log2(bins)
    vectorised merges over all balls.
    """

    __init__ = _init
    profile = _profile

    def _balls(self, series, ys):
        if self.k != 1:
            raise ValueError("Sorted1DEngine requires k = 1")
        x = series.predecessors[:, 0]
        a, b = _ball_edges(ys[:, 0], self.ladder)
        cuts = np.unique(np.concatenate([a, b]))
        pos = cuts.searchsorted(a) + 1  # bin j holds cuts[j - 1] <= x < cuts[j]
        length = cuts.searchsorted(b) + 1 - pos
        table = [_k._moments(_k.bin_right(cuts, x), series.successors, len(cuts) + 1)]
        while 2 ** len(table) <= len(cuts) + 1:  # level j: runs of 2^j bins from each bin
            w = 2 ** (len(table) - 1)
            table.append(_merge([m[:-w] for m in table[-1]], [m[w:] for m in table[-1]]))

        acc = [np.zeros(len(pos)), np.zeros((len(pos), 1)), np.zeros(len(pos))]
        for j in reversed(range(len(table))):  # the binary digits of each run's length
            sel = np.flatnonzero((length >> j) & 1)
            merged = _merge([m[sel] for m in acc], [m[pos[sel]] for m in table[j]])
            for m, v in zip(acc, merged):
                m[sel] = v
            pos[sel] += 2**j
        n, chi, q = acc
        sigma = np.sqrt(q / np.maximum(n, 1.0))
        shape = (len(ys), len(self.ladder))
        return n.astype(np.int64).reshape(shape), chi.reshape(shape + (1,)), sigma.reshape(shape)


def predictability_report(series, ys, levels=DEFAULT_LADDER_LEVELS, top=DEFAULT_LADDER_TOP,
                          min_count=DEFAULT_MIN_COUNT, threshold=DEFAULT_THRESHOLD):
    """One SigmaEstimate per reference vector in ys, in order, on default_ladder(series, levels, top).

    series is a PairedVectors.  The engine, Sorted1DEngine for k = 1 and
    BruteEngine otherwise, builds its table over all references at once.
    A ValueError names levels or min_count unless it is an integer (not a
    bool) >= 1 or >= 2, and top or threshold unless it is a finite number
    > 0 (not a bool).
    """
    levels, min_count = _integer("levels", levels, 1), _integer("min_count", min_count, 2)
    for name, val in (("top", top), ("threshold", threshold)):
        if isinstance(val, bool) or not isinstance(val, numbers.Real) or not 0.0 < val < math.inf:
            raise ValueError(f"{name} must be a finite number > 0, not {val!r}")
    ladder = default_ladder(series, levels, top)
    if not len(ys):
        return ()
    engine = (Sorted1DEngine if series.k == 1 else BruteEngine)(series, ys, ladder)
    return tuple(engine.profile(y, ladder, min_count, threshold) for y in ys)
