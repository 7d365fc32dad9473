"""Local-averaging prediction-error estimates over delay-vector series.

For a reference vector y, the in-ball successor cloud over an epsilon ladder
gives the empirical conditional mean (chi) and conditional deviation (sigma);
the reported sigma_hat is sigma at the smallest epsilon still holding at
least min_count neighbors, a conservative stand-in for the epsilon -> 0
limit.  A point is called predictable when sigma_hat falls below a fixed
absolute threshold.

predictability_report is the one entry to the engines: it takes a built
series and its reference vectors, so the caller owns the orbit, the
observable and the reference draw.  The engine depends on k alone, and both
count a point inside a ball exactly when sqrt((x - y)^2 + ...) < eps:

- BruteEngine (k >= 2) makes one pass per reference, _kernels.ball_shells,
  compiled (numpy passes without gcc).  It takes no sqrt: it compares each
  point's squared distance s with the level's exact cut T, the smallest
  float with sqrt(T) >= eps (_square_cut), and s < T holds exactly when
  sqrt(s) < eps.  The nested balls cut the top ball into shells; the pass
  takes each shell's count, mean and centred M2, and the balls are the
  shells merged from the innermost outward.
- Sorted1DEngine (k = 1) takes all references and the ladder at once.  It
  bins the series once between the exact float edges of every ball, with
  no sort, and merges each ball's bins from per-bin count, mean and
  centred M2.  The binning is _kernels.bin_right, a compiled lockstep
  binary search equal to searchsorted (searchsorted itself without gcc).

Both merge moments with the pairwise formulas of Chan, Golub and LeVeque
(_merge), and both hand per-level arrays to one result builder
(_estimate).
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels as _k
from .dimension import _check_ladder

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
    if len(pred) == 0:
        raise ValueError(f"delay series of k = {series.k} has {len(pred)} pairs: "
                         f"it needs at least k + 1 = {series.k + 1} measurements")
    diam = float(np.linalg.norm(pred.max(axis=0) - pred.min(axis=0)))
    if diam <= 0.0:
        diam = 1.0
    return [top * diam * 0.5**j for j in range(levels)]


def _validate_ladder(ladder, min_count=DEFAULT_MIN_COUNT):
    ladder = _check_ladder(ladder)
    if min_count < 2:
        raise ValueError("min_count must be >= 2")
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


class BruteEngine:
    """Exact per-reference ball statistics via one distance pass per reference.

    The predecessor columns are stored contiguously.  The ladder's balls are
    nested: each point of the top ball falls in one shell, the points of
    ball j outside ball j + 1.  One pass per reference (_kernels.ball_shells)
    compares each point's squared distance with the levels' exact cuts
    (_square_cut) and takes every shell's count, mean and centred M2; the
    balls are the shells merged from the innermost outward with Chan's
    pairwise formulas.
    """

    def __init__(self, series):
        self.pred, self.k = series.predecessors, series.k
        self.cols = np.ascontiguousarray(self.pred.T, dtype=float)
        self.succ = np.ascontiguousarray(series.successors, dtype=float)

    def profile(self, y, ladder, min_count=DEFAULT_MIN_COUNT, threshold=DEFAULT_THRESHOLD):
        ladder = _validate_ladder(ladder, min_count)
        y = np.asarray(y, dtype=float).reshape(-1)
        if len(y) != self.k:
            raise ValueError(f"reference has {len(y)} coordinates, the series k = {self.k}")
        n, mean, m2 = _k.ball_shells(self.cols, self.succ, y, [_square_cut(eps) for eps in ladder])
        ball = (0.0, np.zeros(self.k), 0.0)
        for j in reversed(range(len(ladder))):  # shell j's moments become ball j's
            ball = _merge(ball, (n[j], mean[j], m2[j]))
            n[j], mean[j], m2[j] = ball
        sigma = np.sqrt(m2 / np.maximum(n, 1.0))
        return _estimate(ladder, n.astype(np.int64), mean, sigma, min_count, threshold)


def _square_cut(eps):
    """The smallest float T with sqrt(T) >= eps, for eps > 0 (inf for an eps
    above sqrt of the largest float).

    sqrt is correctly rounded, so monotone: a sum of squares s (never
    negative) is below T exactly when sqrt(s) < eps, NaN and inf included.
    eps * eps lies within a few floats of T, or is 0 or inf when it
    underflows or overflows, so each walk below takes a few steps.
    """
    cut = eps * eps
    while cut > 0.0 and math.sqrt(math.nextafter(cut, 0.0)) >= eps:
        cut = math.nextafter(cut, 0.0)
    while math.sqrt(cut) < eps:
        cut = math.nextafter(cut, math.inf)
    return cut


_SIGN = np.uint64(1 << 63)


def _keys(x):
    """Order-preserving uint64 keys of floats: key(a) < key(b) when a < b,
    and consecutive floats have consecutive keys (-0.0 sits just below +0.0)."""
    bits = np.asarray(x, dtype=float).view(np.uint64)
    return np.where(bits & _SIGN, ~bits, bits | _SIGN)


def _floats(keys):
    return np.where(keys & _SIGN, keys ^ _SIGN, ~keys).view(float)


def _first_key(lo, hi, start, y, eps, outside):
    """Smallest key in (lo, hi] whose float passes the test, elementwise,
    for a start in [lo, hi].

    The test is BruteEngine's k = 1 membership sqrt((x - y)^2) < eps, or
    its negation when outside is True; it fails at lo, holds at hi and is
    monotone between them.  The search first splits the bracket at start,
    then steps away from start by 1, 2, 4, ... keys until the test flips
    and bisects the last step, so a start a few ulps from the edge settles
    in a few vectorised passes.
    """
    def test(k, sel):
        return (np.sqrt(np.square(_floats(k) - y[sel])) < eps[sel]) != outside

    down = test(start, slice(None))
    lo, hi = np.where(down, lo, start), np.where(down, start, hi)
    step = np.ones_like(lo)
    todo = np.flatnonzero(hi - lo > 1)
    while len(todo):
        l, h = lo[todo], hi[todo]
        s = np.minimum(step[todo], (h - l) >> 1)
        probe = np.where(down[todo], h - s, l + s)
        hit = test(probe, todo)
        lo[todo], hi[todo] = np.where(hit, l, probe), np.where(hit, probe, h)
        step[todo] = s << 1
        todo = todo[hi[todo] - lo[todo] > 1]
    return hi


def _ball_edges(y, eps):
    """Float edges [a, b) of BruteEngine's open k = 1 balls, elementwise:
    x is inside the ball of (y, eps) exactly when a <= x < b.

    a is the smallest float inside, b the smallest float above y outside;
    each search starts from the rounded edge y -/+ eps.
    """
    ky = _keys(y)
    lo = _first_key(_keys(np.full_like(y, -np.inf)), ky, _keys(y - eps), y, eps, False)
    hi = _first_key(ky, _keys(np.full_like(y, np.inf)), _keys(y + eps), y, eps, True)
    return _floats(lo), _floats(hi)


class Sorted1DEngine:
    """Scalar-series engine: one binning of the series at its references' ball edges.

    Built with the references ys and the ladder, it finds the exact float
    edges of every (reference, level) ball, bins the series once between
    those edges, takes each bin's count, mean and centred M2, and merges
    each ball's contiguous run of bins with Chan's pairwise formulas, about
    log2(bins) vectorised merges over all balls.  profile then answers from
    that (references x levels) table; any other (y, ladder) is binned
    alone the same way.
    """

    def __init__(self, series, ys=(), ladder=None):
        if series.k != 1:
            raise ValueError("Sorted1DEngine requires k = 1")
        self.x = series.predecessors[:, 0]
        self.s = series.successors[:, 0]
        self._ladder, self._rows, self._table = None, {}, None
        if len(ys):
            self._ladder = _validate_ladder(ladder)
            ys = np.asarray(ys, dtype=float).reshape(len(ys), -1)
            self._table = self._balls(ys, self._ladder)
            self._rows = {y: i for i, y in enumerate(ys[:, 0].tolist())}

    def _balls(self, ys, ladder):
        """(count, chi, sigma) arrays of shapes (m, L), (m, L, 1) and (m, L) for
        the (m, 1) references ys and the L levels of ladder."""
        if ys.shape[1] != 1:
            raise ValueError(f"reference has {ys.shape[1]} coordinates, the series k = 1")
        if not np.isfinite(ys).all():
            raise ValueError("references must be finite")
        shape = (len(ys), len(ladder))
        a, b = _ball_edges(np.repeat(ys[:, 0], len(ladder)), np.tile(ladder, len(ys)))
        cuts = np.unique(np.concatenate([a, b]))
        pos = cuts.searchsorted(a) + 1  # bin j holds cuts[j - 1] <= x < cuts[j]
        length = cuts.searchsorted(b) + 1 - pos

        bins = _k.bin_right(cuts, self.x)
        count = np.bincount(bins, minlength=len(cuts) + 1).astype(float)
        mean = np.bincount(bins, weights=self.s, minlength=len(count)) / np.maximum(count, 1.0)
        dev = mean.take(bins)
        np.subtract(self.s, dev, out=dev)
        dev *= dev
        table = [(count, mean[:, None], np.bincount(bins, weights=dev, minlength=len(count)))]
        del bins, dev
        while 2 ** len(table) <= len(count):  # level j: runs of 2^j bins from each bin
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
        return n.astype(np.int64).reshape(shape), chi.reshape(shape + (1,)), sigma.reshape(shape)

    def profile(self, y, ladder, min_count=DEFAULT_MIN_COUNT, threshold=DEFAULT_THRESHOLD):
        ladder = _validate_ladder(ladder, min_count)
        y = np.asarray(y, dtype=float).reshape(1, -1)
        row = self._rows.get(y[0, 0]) if ladder == self._ladder and y.shape[1] == 1 else None
        table, row = (self._balls(y, ladder), 0) if row is None else (self._table, row)
        return _estimate(ladder, *(t[row] for t in table), min_count, threshold)


def predictability_report(series, ys, levels=DEFAULT_LADDER_LEVELS, top=DEFAULT_LADDER_TOP,
                          min_count=DEFAULT_MIN_COUNT, threshold=DEFAULT_THRESHOLD):
    """One SigmaEstimate per reference vector in ys, in order, on default_ladder(series, levels, top).

    series is a PairedVectors.  The engine depends on k alone: for k = 1 one
    table over all references, built before the first profile call; distance
    passes otherwise.
    """
    ladder = default_ladder(series, levels, top)
    engine = Sorted1DEngine(series, ys, ladder) if series.k == 1 else BruteEngine(series)
    return tuple(engine.profile(y, ladder, min_count, threshold) for y in ys)
