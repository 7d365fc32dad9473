"""Scalar map cores and the compiled loops: the long orbits, the k = 1 bin
search, and the k-d tree of the k >= 2 engine and of E6's ball counts.

dynamics.step_state calls the cores one step at a time; it is the one Python
definition of each map.  ``_orbits.c`` repeats the cores and iterates them
in two loops: the skew product, whose first two rows are the orbit of the
planar spiral map (its base) and whose first row, the radius, depends on r
alone, and the Henon map.  Each loop fills a (state_dim, n) block, so the
(n, state_dim) view that dynamics.trajectory returns has contiguous columns.
A third loop, ``bin_right``, bins the k = 1 engine's series at its sorted
ball edges, running 16 binary searches in lockstep over whole sets of 16
values; searchsorted bins the last n % 16.  ``_tree`` builds one k-d tree
over a point set, each node with its tight box and its successors' cached
moments; ``_tree_shells`` walks it once per reference, taking each shell's
moments from the nodes wholly inside it and from the points of the leaves
a sphere cuts.  ``_ball_counts`` is the same build and walk for counts
alone.  Why the tree's counts are exact is in the predictability module
docstring.

The first call to any of them compiles ``_orbits.c`` with gcc into
``__pycache__`` beside this file (the file name carries the sha256 of the
source and flags; builds of other sources are deleted) and loads it with
ctypes; later processes load the cached library.  The C computes every
double as CPython does, so its blocks are bitwise equal to step_state
iterated, its bins are numpy's, and its leaf and shell moments add in the
order of the np.bincount passes of _moments.  The orbit loops only
iterate, from a start that dynamics.trajectory has checked and reduced.
``skew_orbit`` and ``henon_orbit`` return None only when the C is
unavailable: gcc is missing, or the build or load failed.
dynamics.trajectory then iterates step_state instead; ``bin_right`` falls
back to ``searchsorted``, and ``_tree`` and ``_tree_shells`` to numpy
passes that build the same tree and add in the same order.  BACKEND names
the code in use, "c" or "python", once any of them has been called.
"""

import ctypes
import hashlib
import math
import os
import shutil
import subprocess
import threading
import warnings
from pathlib import Path
from typing import NamedTuple

import numpy as np

TWO_PI = 2.0 * math.pi
G_AMPLITUDE = 1.0 / 100.0


def smooth_step(x):
    """C-infinity step: 0 for x <= 0, 1 for x >= 1, strictly monotone between."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    a = math.exp(-1.0 / x)
    b = math.exp(-1.0 / (1.0 - x))
    return a / (a + b)


def r_core(r, kappa):
    omr = 1.0 - r
    return r + kappa * r * omr * omr * omr / (1.0 + r * r * r * r)


def theta_core(phi):
    s = math.sin(phi)
    return s * s


def eta_core(r):
    # 1 on [1/2, 3/2]; decays fast enough for (1-r)^2 * eta to vanish at 0+ and inf
    lo = smooth_step((0.5 - r) * 4.0)
    hi = smooth_step(r - 1.5)
    out = 1.0
    if lo > 0.0:
        out *= math.exp(-lo / r)
    if hi > 0.0:
        out *= math.exp(-hi * r)
    return out


def phi_core(r, phi, kappa):
    omr = 1.0 - r
    return phi + kappa * theta_core(phi) + omr * omr * eta_core(r)


def angle_dist_core(phi, target):
    d = abs(phi - target) % TWO_PI
    if d > math.pi:
        d = TWO_PI - d
    return d


def bump_core(r, phi, delta, target):
    """1 on the delta box around the circle point at angle target, 0 outside
    the 2*delta box; smooth in between.  U_p has target 0, U_q target pi."""
    fr = smooth_step(2.0 - abs(1.0 - r) / delta)
    fa = smooth_step(2.0 - angle_dist_core(phi, target) / delta)
    return fr * fa


def fiber_core(r, phi, t, delta, alpha):
    lam = bump_core(r, phi, delta, 0.0)
    rho = bump_core(r, phi, delta, math.pi)
    s = math.sin(math.pi * t)
    return (t + lam * G_AMPLITUDE * s * s + rho * alpha) % 1.0


def wrap(x, period):
    """x mod period in [0, period): a tiny negative x rounds x % period up to period."""
    w = x % period
    return 0.0 if w == period else w


# -- the compiled loops ---------------------------------------------------------

_SOURCE = Path(__file__).with_name("_orbits.c")
_CFLAGS = ("-O2", "-ffp-contract=off", "-fno-fast-math", "-shared", "-fPIC")
_D, _I64 = ctypes.c_double, ctypes.c_int64
_P = ctypes.c_void_p
_SIGNATURES = {  # name: (restype, argtypes); the last argument is the output array
    "skew_orbit": (None, (_D, _D, _D, _D, _D, _D, _I64, _I64, _P)),
    "henon_orbit": (_I64, (_D, _D, _D, _D, _I64, _I64, _P)),
    "bin_right": (_I64, (_P, _I64, _P, _I64, _P)),
    "tree_build": (_I64, (_P, _P, _I64, _I64, _I64, _P, _P, _P)),
    "tree_free": (None, (_P,)),
    "tree_shells": (_I64, (_P, _P, _P, _I64, _I64) + (_P,) * 7 + (_I64, _P, _I64, _P, _I64, _P)),
}

BACKEND = None  # "c" or "python" once an orbit, a binning or a tree is asked for
_lib = None
_load_lock = threading.Lock()


def _build_library():
    """Path of the compiled _orbits.c, compiling it into __pycache__ if absent."""
    source = _SOURCE.read_bytes()
    key = hashlib.sha256(source + " ".join(_CFLAGS).encode()).hexdigest()[:16]
    cache = _SOURCE.with_name("__pycache__")
    target = cache / f"_orbits-{key}.so"
    if target.exists():
        return target
    cache.mkdir(exist_ok=True)
    tmp = cache / f"_orbits-{key}.{os.getpid()}.tmp"  # other processes may build at once
    try:
        subprocess.run([shutil.which("gcc"), *_CFLAGS, "-o", str(tmp), str(_SOURCE), "-lm"],
                       check=True, capture_output=True, text=True)
        os.replace(tmp, target)
    finally:
        tmp.unlink(missing_ok=True)
    for stale in cache.glob("_orbits-*.so"):  # builds of an older source; .tmp files stay
        if stale != target:
            stale.unlink(missing_ok=True)
    return target


def _library():
    """The loaded C library, or None when it cannot be built here."""
    global BACKEND, _lib
    with _load_lock:
        if BACKEND is None:
            if shutil.which("gcc") is not None:
                try:
                    lib = ctypes.CDLL(str(_build_library()))
                    for name, (restype, argtypes) in _SIGNATURES.items():
                        getattr(lib, name).restype = restype
                        getattr(lib, name).argtypes = argtypes
                    _lib = lib
                except (OSError, subprocess.SubprocessError, AttributeError) as exc:
                    detail = getattr(exc, "stderr", None) or exc
                    warnings.warn(f"orbit loops run interpreted, k = 1 bins by searchsorted, "
                                  f"the k-d tree by numpy passes: "
                                  f"{_SOURCE.name} did not build or load: {detail}",
                                  RuntimeWarning, stacklevel=3)
            BACKEND = "python" if _lib is None else "c"
    return _lib


def skew_orbit(r0, phi0, t0, kappa, delta, alpha, n, burn_in):
    """(3, n) block of (r_i, phi_i, t_i) along the skew product from a start with
    r0 > 0, phi0 in [0, 2*pi) and t0 in [0, 1); None when the C is unavailable."""
    lib = _library()
    if lib is None:
        return None
    out = np.empty((3, n))
    lib.skew_orbit(r0, phi0, t0, kappa, delta, alpha, n, burn_in, out.ctypes.data)
    return out


def henon_orbit(x0, y0, a, b, n, burn_in):
    """(block, index) of Henon iterates, block the (2, n) array of (x_i, y_i);
    None when the C is unavailable.

    index is 0, or the index of the first iterate before burn_in + n that is
    not finite, counted from the start; only the block's first
    max(index - burn_in, 0) columns are then filled.
    """
    lib = _library()
    if lib is None:
        return None
    out = np.empty((2, n))
    return out, lib.henon_orbit(x0, y0, a, b, n, burn_in, out.ctypes.data)


def bin_right(cuts, x):
    """cuts.searchsorted(x, side="right") as int64 for sorted, NaN-free float cuts
    and float values x, NaN values included (they land after every cut)."""
    cuts, x = np.ascontiguousarray(cuts, dtype=float), np.ascontiguousarray(x, dtype=float)
    if cuts.ndim != 1 or x.ndim != 1:
        raise ValueError(f"cuts and values must be 1-D, not {cuts.ndim}-D and {x.ndim}-D")
    lib, out, done = _library(), np.empty(len(x), dtype=np.int64), 0
    if lib is not None and len(cuts):  # the C bins whole sets of 16 values against >= 1 cut
        done = lib.bin_right(cuts.ctypes.data, len(cuts), x.ctypes.data, len(x), out.ctypes.data)
    out[done:] = cuts.searchsorted(x[done:], side="right")
    return out


def _moments(labels, values, groups, weights=None, m2=None):
    """Per-group (count, mean, M2) of the rows of the (n, k) values, labelled
    in [0, groups), as float arrays of shapes (groups,), (groups, k) and
    (groups,): np.bincount passes, so each sum adds in index order.  M2 is
    centred on each group's mean and summed over the k coordinates.

    With weights and m2, row i stands for weights[i] points of mean
    values[i] and centred M2 m2[i], a tree node's cached moments: the count
    adds the weights, the mean weighs each row, and M2 adds the rows' m2,
    then each coordinate's squared deviations times the weights.
    """
    if weights is None:
        count, out = np.bincount(labels, minlength=groups).astype(float), np.zeros(groups)
    else:
        count = np.bincount(labels, weights=weights, minlength=groups)
        out = np.bincount(labels, weights=m2, minlength=groups)
    mean = np.empty((groups, values.shape[1]))
    for c, col in enumerate(values.T):
        sums = np.bincount(labels, weights=col if weights is None else weights * col,
                           minlength=groups)
        mean[:, c] = sums / np.maximum(count, 1.0)
        dev = mean[:, c].take(labels)  # col may be the caller's own data: subtract into dev
        np.square(np.subtract(col, dev, out=dev), out=dev)
        if weights is not None:
            dev *= weights
        out += np.bincount(labels, weights=dev, minlength=groups)
    return count, mean, out


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


LEAF = 32  # the most points a node holds unsplit, unless its box is one point


class Tree(NamedTuple):
    """The k-d tree of _tree over n points, the rows of an (n, k) block,
    whose successors are the rows of the (n, ks) block succ.

    Its nodes are numbered depth first: node j holds the run start[j]:stop[j]
    of order, the points' row indices, and of pts, their rows in that
    order; it is a leaf when right[j] == 0, else its children are j + 1
    and right[j].  box is the (nodes, 2, k) block of each node's tight
    bounds, the min and the max of its points' coordinates; count, mean
    (nodes, ks) and m2 are the moments of its points' successors.
    """

    pts: np.ndarray
    order: np.ndarray
    start: np.ndarray
    stop: np.ndarray
    right: np.ndarray
    box: np.ndarray
    count: np.ndarray
    mean: np.ndarray
    m2: np.ndarray
    succ: np.ndarray


def _tree(points, succ):
    """The Tree of the (n, k) finite points with the (n, ks) successors succ
    (ks = 0 for counts alone), split as tree_build in _orbits.c says.  The C
    or, without it, numpy passes (_split, then _moments of the leaves) build
    the same arrays; one numpy step _merges the internal nodes' moments on
    both backends, so the two trees are equal byte for byte."""
    points, succ = np.ascontiguousarray(points, dtype=float), np.ascontiguousarray(succ, dtype=float)
    if (points.ndim != 2 or not points.shape[1] or succ.ndim != 2 or len(succ) != len(points)
            or len(points) >= 2**31 or not np.isfinite(points).all()):
        raise ValueError(f"need (n < 2^31, k >= 1) finite points and (n, ks) successors, not "
                         f"{points.shape} and {succ.shape}")
    (n, k), ks, lib = points.shape, succ.shape[1], _library()
    if lib is None:
        pts, order, start, stop, right, box = _split(points)
        leaf = np.flatnonzero(right == 0)
        count, mean, m2 = _moments(np.repeat(leaf, stop[leaf] - start[leaf]),
                                   succ.take(order, axis=0), len(start))
    else:  # the C grows its seven node arrays by realloc; numpy copies them, then they are freed
        pts, order, node = np.empty((n, k)), np.empty(n, dtype=np.int32), (_P * 7)()
        try:
            nodes = lib.tree_build(points.ctypes.data, succ.ctypes.data, n, k, ks,
                                   pts.ctypes.data, order.ctypes.data, node)
            if nodes < 0:
                raise MemoryError(f"no memory for the k-d tree of {n} points")
            shapes = [(nodes,)] * 3 + [(nodes, 2, k), (nodes,), (nodes, ks), (nodes,)]
            start, stop, right, box, count, mean, m2 = (
                np.frombuffer((ctypes.c_char * (8 * math.prod(shape))).from_address(at or 0),
                              np.int64 if i < 3 else float).reshape(shape).copy()
                for i, (at, shape) in enumerate(zip(node, shapes)))
        finally:
            lib.tree_free(node)
    depths, todo = [], np.zeros(min(n, 1), dtype=np.int64)
    while len(todo):  # the internal nodes one depth at a time, then merged from the deepest up
        todo = todo[right[todo] > 0]
        depths.append(todo)
        todo = np.concatenate([todo + 1, right[todo]])
    for inner in reversed(depths):
        kids = [(count[c], mean[c], m2[c]) for c in (inner + 1, right[inner])]
        count[inner], mean[inner], m2[inner] = _merge(*kids)
    return Tree(pts, order, start, stop, right, box, count, mean, m2, succ)


def _split(points):
    """(pts, order, start, stop, right, box) of _tree's nodes, by numpy
    passes over all nodes of one depth at once; the nodes are then
    numbered depth first, which is ascending (run start, depth)."""
    n, k = points.shape
    order, cols = np.arange(n, dtype=np.int32), points.T.copy()
    a, b, parent = (np.full(min(n, 1), v, dtype=np.int64) for v in (0, n, -1))
    nodes = [] if n else [(a, b, np.empty((0, 2, k)), parent)]
    while len(a):  # nodes: per depth its runs [a, b), their boxes and each right child's parent
        ends = np.union1d(a, b[b < n])  # every run is one segment between consecutive ends
        lo, hi = (f.reduceat(cols, ends, axis=1)[:, ends.searchsorted(a)].T
                  for f in (np.minimum, np.maximum))
        with np.errstate(over="ignore"):
            width = hi - lo
        ax = width.argmax(axis=1)
        split = np.flatnonzero((b - a > LEAF) & (width[np.arange(len(a)), ax] > 0.0))
        base = sum(len(d[0]) for d in nodes)
        nodes.append((a, b, np.stack([lo, hi], axis=1), parent))
        a, b, ax, lo, hi = a[split], b[split], ax[split], lo[split, ax[split]], hi[split, ax[split]]
        m = 0.5 * lo + 0.5 * hi
        owner = np.repeat(np.arange(len(a)), b - a)
        pos = np.arange(len(owner)) + np.repeat(a - np.cumsum(b - a) + b - a, b - a)
        left = cols[ax[owner], pos] <= np.where(m < hi, m, lo)[owner]
        moved = pos[np.argsort(2 * owner + ~left, kind="stable")]  # each run: left, then right
        order[pos], cols[:, pos] = order[moved], cols[:, moved]
        mid = a + np.bincount(owner, left, len(a)).astype(np.int64)
        a, b = np.stack([a, mid], axis=1).ravel(), np.stack([mid, b], axis=1).ravel()
        parent = np.stack([np.full(len(split), -1), base + split], axis=1).ravel()
    start, stop, box, parent = (np.concatenate(c) for c in zip(*nodes))
    depth = np.repeat(np.arange(len(nodes)), [len(d[0]) for d in nodes])
    first = np.lexsort((depth, start))
    rank = np.empty(len(start), dtype=np.int64)
    rank[first] = np.arange(len(start))
    right = np.zeros(len(start), dtype=np.int64)
    right[rank[parent[parent >= 0]]] = rank[parent >= 0]
    return points.take(order, axis=0), order, start[first], stop[first], right, box[first]


def _tree_shells(tree, ys, cuts):
    """Per-shell moments of the successors near each reference in ys, walked
    and added as tree_shells in _orbits.c says: two parts, the whole nodes'
    and the scanned points', each a (count (m, L), mean (m, L, ks), M2 (m,
    L)) triple for the m references and the L non-increasing cuts.  numpy
    sorts what its walk gathers into the C's order: both agree bit for bit."""
    ys, cuts = np.ascontiguousarray(ys, dtype=float), np.ascontiguousarray(cuts, dtype=float)
    (n, k), ks, levels, lib = tree.pts.shape, tree.succ.shape[1], len(cuts), _library()
    if ys.ndim != 2 or ys.shape[1] != k or cuts.ndim != 1 or not levels:
        raise ValueError(f"need (m, {k}) references and non-empty 1-D cuts, not {ys.shape} and "
                         f"{cuts.shape}")
    if lib is None:
        parts = [_walk(tree, ys[i:i + WALK_REFS], cuts)
                 for i in range(0, max(len(ys), 1), WALK_REFS)]
        return [tuple(np.concatenate(t) for t in zip(*(p[i] for p in parts))) for i in (0, 1)]
    out = np.empty((len(ys), 2, 2 + 2 * ks, levels + 1))
    if lib.tree_shells(tree.pts.ctypes.data, tree.order.ctypes.data, tree.succ.ctypes.data, k, ks,
                       tree.start.ctypes.data, tree.stop.ctypes.data, tree.right.ctypes.data,
                       tree.box.ctypes.data, tree.count.ctypes.data, tree.mean.ctypes.data,
                       tree.m2.ctypes.data, len(tree.start), ys.ctypes.data, len(ys),
                       cuts.ctypes.data, levels, out.ctypes.data):
        raise MemoryError(f"no memory for the walks of {len(tree.start)} nodes")
    return [(part[:, 0, 1:], part[:, 2:2 + ks].reshape(len(ys), levels + 1, ks)[:, 1:],
             part[:, 1, 1:]) for part in (out[:, 0], out[:, 1])]


WALK_REFS = 64  # references per numpy walk: its scanned points stay a few leaves per reference


def _walk(tree, ys, cuts):
    """_tree_shells' two parts for the references ys, by numpy passes over
    every (reference, node) pair of one depth at a time.  As in the C loop,
    squares that overflow to inf pass silently."""
    m, levels, nodes, ks = len(ys), len(cuts), len(tree.start), tree.succ.shape[1]
    rising, slots = cuts[::-1], levels + 1

    def slot(s):  # the number of cuts s is below
        return levels - rising.searchsorted(s, side="right")

    ref, node = np.arange(m if nodes else 0), np.zeros(m if nodes else 0, dtype=np.int64)
    seen = [(ref[:0], node[:0], node[:0])]  # (ref, node, slot) as in tree_shells' seen
    with np.errstate(over="ignore"):
        while len(ref):
            lo, hi = tree.box[node, 0] - ys[ref], tree.box[node, 1] - ys[ref]
            near, far = np.maximum(np.maximum(lo, -hi), 0.0), np.maximum(-lo, hi)
            dmin, dmax = np.square(near[:, 0]), np.square(far[:, 0])
            for d in range(1, ys.shape[1]):
                dmin += np.square(near[:, d])
                dmax += np.square(far[:, d])
            top, low = slot(dmin), slot(dmax)
            done = (tree.right[node] == 0) | (low == top)
            keep, inner = (top > 0) & done, (top > 0) & ~done
            seen.append((ref[keep], node[keep], np.where(low == top, top, -1 - low)[keep]))
            ref, node = np.tile(ref[inner], 2), np.concatenate([node[inner] + 1,
                                                                tree.right[node[inner]]])
        ref, node, tag = (np.concatenate(c) for c in zip(*seen))
        rank = np.argsort(ref * nodes + node)  # depth-first order is ascending run start
        ref, node, tag = ref[rank], node[rank], tag[rank]
        one = tag > 0
        w = _moments(ref[one] * slots + tag[one], tree.mean[node[one]], m * slots,
                     tree.count[node[one]], tree.m2[node[one]])
        ref, node = ref[~one], node[~one]
        size = tree.stop[node] - tree.start[node]
        pos = np.arange(size.sum()) + np.repeat(tree.start[node] - np.cumsum(size) + size, size)
        ref = np.repeat(ref, size)
        s = np.square(tree.pts[pos, 0] - ys[ref, 0])
        for d in range(1, ys.shape[1]):
            s += np.square(tree.pts[pos, d] - ys[ref, d])
    p = _moments(ref * slots + slot(s), tree.succ.take(tree.order[pos], axis=0), m * slots)
    return [(c.reshape(m, slots)[:, 1:], mu.reshape(m, slots, ks)[:, 1:],
             q.reshape(m, slots)[:, 1:]) for c, mu, q in (w, p)]


def _ball_counts(points, centers, ladder):
    """(m, L) int64 counts of the rows of the (n, d) finite points, n >= 1,
    in the closed balls around the m finite centres, the rows of an (m, d)
    block, with the L non-increasing radii of ladder: s <= eps * eps, s =
    ((x0 - y0)^2 + (x1 - y1)^2) + ..., is s below nextafter(eps * eps, inf)
    in _tree_shells, or, when eps * eps overflows to inf, always true."""
    points = np.asarray(points, dtype=float)
    centers, ladder = np.asarray(centers, dtype=float), np.asarray(ladder, dtype=float)
    if (points.ndim != 2 or not points.size or centers.ndim != 2
            or centers.shape[1] != points.shape[1] or ladder.ndim != 1 or not len(ladder)
            or not (ladder[1:] <= ladder[:-1]).all() or not np.isfinite(points).all()
            or not np.isfinite(centers).all()):
        raise ValueError(f"need (n >= 1, d >= 1) finite points, (m, d) finite centres and a "
                         f"non-empty, non-increasing 1-D ladder, not {points.shape}, "
                         f"{centers.shape} and {ladder.shape}")
    with np.errstate(over="ignore"):
        square = ladder * ladder
    full = np.count_nonzero(square == np.inf)
    out = np.full((len(centers), len(ladder)), len(points), dtype=np.int64)
    if full < len(ladder):
        tree = _tree(points, np.empty((len(points), 0)))
        whole, scanned = _tree_shells(tree, centers, np.nextafter(square[full:], np.inf))
        shells = (whole[0] + scanned[0])[:, ::-1]
        out[:, full:] = np.cumsum(shells, axis=1)[:, ::-1]
    return out
