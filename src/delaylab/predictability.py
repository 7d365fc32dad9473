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
chi and sigma by a ball function (pred, succ, ys, ladder), and their one
profile function reads a reference's row.  The engine depends on k alone;
both, and E6's ball masses, count a point inside a ball exactly when its
squared distance s = (x - y)^2 + ... is below the level's exact cut
T = _square_cut(eps), the smallest float with sqrt(T) >= eps, so exactly
when sqrt(s) < eps, with no sqrt taken:

- _tree_balls (BruteEngine, k >= 2; E6 with no successors) builds one k-d
  tree over the points (_kernels._tree), each node with its tight box and
  its successors' count, mean and centred M2.  The nested balls cut the top
  ball into shells.  Per reference (_kernels._tree_shells) the walk skips a
  node beyond the top sphere, adds a node inside one shell through its
  cached moments, and scans only the leaves a sphere cuts, so the cost
  follows the spheres, not the balls.  Counts stay exact: rounded
  subtraction, squaring and addition are monotone, so a point's s lies
  between the sums of the same form over the nearest and farthest
  coordinates of any box that holds it.  Each shell is its whole nodes
  merged with its scanned points, and the balls are the shells merged from
  the innermost outward, one level at a time over all references; sigma's
  last digits depend on that merge order, the same on both backends.
- _bin_balls (Sorted1DEngine, k = 1) bins the series once between the exact
  float edges of every ball, the floats where (x - y)^2 < T flips, with no
  sort, and merges each ball's bins from per-bin count, mean and centred M2
  (_kernels._moments, which the tree's leaves and shells share).  The
  binning is _kernels.bin_right, a compiled lockstep binary search equal to
  searchsorted (searchsorted itself without gcc).

Both merge moments with the pairwise formulas of Chan, Golub and LeVeque
(_merge), and both hand per-level arrays to one result builder
(_estimate).
"""

import math
import numbers
import reprlib
from dataclasses import dataclass

import numpy as np

from . import _kernels as _k
from ._kernels import _merge
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
    bounding-box diagonal of the delay vectors (1 when that is 0); a top
    level past the float range is the largest float."""
    pred = series.predecessors
    if len(pred) == 0:
        raise ValueError(f"delay series of k = {series.k} has {len(pred)} pairs: "
                         f"it needs at least k + 1 = {series.k + 1} measurements")
    lo, hi = (np.array([f(c) for c in pred.T]) for f in (np.min, np.max))  # by column: faster
    with np.errstate(over="ignore"):
        diam = float(np.linalg.norm(hi - lo))
    if math.isinf(diam):  # a square or a width overflowed: scale the half-widths, which cannot
        half = hi * 0.5 - lo * 0.5
        widest = float(half.max())
        peak = min(top * 2.0 * float(np.linalg.norm(half / widest)) * widest, np.finfo(float).max)
        return [peak * 0.5**j for j in range(levels)]
    return [top * (diam or 1.0) * 0.5**j for j in range(levels)]


def _check_ladder(ladder):
    """The ladder as floats, non-empty, strictly decreasing and positive.

    Written as comparisons that must hold, so a NaN level, which compares
    false, is rejected; the error names the first level that breaks the
    rule, or the ladder itself when it is not a 1-D sequence of numbers.
    Used by the engines and the dimension estimators.
    """
    try:
        levels = np.asarray(list(ladder), dtype=float)
    except (TypeError, ValueError, OverflowError):
        levels = None
    if levels is None or levels.ndim != 1:
        raise ValueError(f"ladder must be a 1-D sequence of numbers, got {reprlib.repr(ladder)}")
    ladder = levels.tolist()
    bad = [j for j, e in enumerate(ladder) if not (e > 0.0 and (j == 0 or e < ladder[j - 1]))]
    if not ladder or bad:
        at = f", level {bad[0]} = {ladder[bad[0]]!r}" if bad else ""
        raise ValueError(f"ladder must be strictly decreasing and positive, got {len(ladder)} "
                         f"levels{at}")
    return ladder


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


def _init(self, series, ys, ladder):
    """Check the ladder and the references ys, each k finite coordinates, then
    build the table: _balls gives count (m, L), chi (m, L, k) and sigma (m, L).
    Successors near the float range's square root overflow the moments; a
    ValueError names their magnitude then, rather than return inf or NaN."""
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
    with np.errstate(over="ignore", invalid="ignore"):  # checked below, once for both engines
        self._table = self._balls(self.pred, series.successors, ys, self.ladder)
    if not all(np.isfinite(t).all() for t in self._table[1:]):
        raise ValueError(f"successors of magnitude up to {np.abs(series.successors).max():.3g} "
                         "overflow the ball moments: a chi or sigma is not finite")


def _profile(self, y, ladder, min_count=DEFAULT_MIN_COUNT, threshold=DEFAULT_THRESHOLD):
    """SigmaEstimate of y, one of the engine's references, on the engine's ladder."""
    _integer("min_count", min_count, 2)
    row = self._rows.get(tuple(np.asarray(y, dtype=float).reshape(-1).tolist()))
    if row is None or list(ladder) != self.ladder:
        raise ValueError(f"reference {y} on ladder {list(ladder)} is not in the engine's table")
    return _estimate(self.ladder, *(t[row] for t in self._table), min_count, threshold)


def _tree_balls(pred, succ, ys, ladder):
    """count (m, L), mean (m, L, ks) and sigma (m, L) of the (n, ks) successors
    succ of the (n, k) points pred in the balls around the (m, k) references
    ys; the module docstring says how, and why the counts are exact."""
    tree = _k._tree(pred, succ)
    whole, scanned = _k._tree_shells(tree, ys, _square_cut(ladder))
    n, mean, m2 = _merge(whole, scanned)
    ball = (np.zeros(len(ys)), np.zeros((len(ys), tree.succ.shape[1])), np.zeros(len(ys)))
    for j in reversed(range(len(ladder))):  # shell j's moments become ball j's
        ball = _merge(ball, (n[:, j], mean[:, j], m2[:, j]))
        n[:, j], mean[:, j], m2[:, j] = ball
    return n.astype(np.int64), mean, np.sqrt(m2 / np.maximum(n, 1.0))


class BruteEngine:
    """Exact ball statistics from a k-d tree with cached moments (Moore,
    NIPS 1999), for any k; predictability_report uses it for k >= 2.

    The name is older than the tree.  It stays because the benchmark's
    tracer wraps BruteEngine by name, until ROADMAP item 1b lets the
    benchmark follow a rename.
    """

    __init__ = _init
    profile = _profile
    _balls = staticmethod(_tree_balls)


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


def _bin_balls(pred, succ, ys, ladder):
    """_tree_balls' table for k = 1: one binning of the series at its
    references' ball edges.

    It bins the series once between the exact float edges of every
    (reference, level) ball, takes each bin's count, mean and centred M2,
    and merges each ball's contiguous run of bins, about log2(bins)
    vectorised merges over all balls.
    """
    if pred.shape[1] != 1:
        raise ValueError("Sorted1DEngine requires k = 1")
    x = pred[:, 0]
    a, b = _ball_edges(ys[:, 0], ladder)
    cuts = np.unique(np.concatenate([a, b]))
    pos = cuts.searchsorted(a) + 1  # bin j holds cuts[j - 1] <= x < cuts[j]
    length = cuts.searchsorted(b) + 1 - pos
    table = [_k._moments(_k.bin_right(cuts, x), succ, len(cuts) + 1)]
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
    shape = (len(ys), len(ladder))
    return n.astype(np.int64).reshape(shape), chi.reshape(shape + (1,)), sigma.reshape(shape)


class Sorted1DEngine:
    """Scalar-series engine: the table of _bin_balls."""

    __init__ = _init
    profile = _profile
    _balls = staticmethod(_bin_balls)


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
