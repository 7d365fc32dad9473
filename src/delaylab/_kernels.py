"""Scalar map cores and the compiled loops: the long orbits, the k = 1 bin
search and the k >= 2 cell grid.

dynamics.step_state calls the cores one step at a time; it is the one Python
definition of each map.  ``_orbits.c`` repeats the cores and iterates them
in two loops: the skew product, whose first two rows are the orbit of the
planar spiral map (its base) and whose first row, the radius, depends on r
alone, and the Henon map.  Each loop fills a (state_dim, n) block, so the
(n, state_dim) view that dynamics.trajectory returns has contiguous columns.
A third loop, ``bin_right``, bins the k = 1 engine's series at its sorted
ball edges, running 16 binary searches in lockstep over whole sets of 16
values; searchsorted bins the last n % 16.  ``_cell_grid`` sorts the k >= 2
engine's series into a uniform grid by a stable O(n) counting sort and
caches each cell's tight bounding box and successor moments;
``_grid_shells`` takes per reference each shell's moments from the cells
wholly inside it and from the points of the cells a sphere cuts.  Counts
are exact: rounded subtraction, squaring and addition are monotone, so a
point's squared distance lies between the sums of the same form over its
cell box's nearest and farthest coordinates.

The first call to any of them compiles ``_orbits.c`` with gcc into
``__pycache__`` beside this file (the file name carries the sha256 of the
source and flags; builds of other sources are deleted) and loads it with
ctypes; later processes load the cached library.  The C computes every
double as CPython does, so its blocks are bitwise equal to step_state
iterated, its bins are numpy's, and its cell and shell moments add in the
order of the np.bincount passes of _moments; sigma's last digits depend on
that order and on the merges the engine then makes in numpy, the same on
both backends.  The orbit loops only iterate, from a start that
dynamics.trajectory has checked and reduced.  ``skew_orbit`` and
``henon_orbit`` return None only when the C is unavailable: gcc is missing,
or the build or load failed.  dynamics.trajectory then iterates step_state
instead; ``bin_right`` falls back to ``searchsorted``, and ``_cell_grid`` and
``_grid_shells`` to numpy passes over the same cells in the same order.
BACKEND names the code in use, "c" or "python", once any of them has been
called.
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
    "grid_count": (_I64, (_P, _I64, _I64, _P, _P, _P, _I64, _P, _P)),
    "grid_fill": (None, (_P, _P, _I64, _I64, _P, _P, _P, _I64, _P, _I64, _I64) + (_P,) * 7),
    "grid_shells": (None, (_P, _P, _P, _I64, _I64, _P, _P, _P, _P, _P, _I64, _P, _I64, _P, _I64,
                           _P, _P)),
}

BACKEND = None  # "c" or "python" once an orbit, a binning or a grid has been asked for
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
                    warnings.warn(f"orbit loops run interpreted, k = 1 bins by searchsorted and "
                                  f"the k >= 2 grid by numpy passes: {_SOURCE.name} did not build "
                                  f"or load: {detail}", RuntimeWarning, stacklevel=3)
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
    values[i] and centred M2 m2[i], a grid cell's cached moments: the count
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


class Grid(NamedTuple):
    """A cell grid over the finite rows of an (n, k) predecessor block: its m
    points sorted into their occupied cells in dense order, index order
    within a cell (run order).

    cols is the (k, m) block of their coordinates and order their row
    indices; cell c holds run start[c]:start[c + 1].  box is the (2, k,
    cells) block of each cell's tight bounds, the min and the max of its
    own points' coordinates; total, mean and m2 are the (count, mean, M2) of
    its points' successors, the rows of the (n, k) block succ, added in run
    order as _moments adds.
    """

    cols: np.ndarray
    order: np.ndarray
    start: np.ndarray
    box: np.ndarray
    total: np.ndarray
    mean: np.ndarray
    m2: np.ndarray
    succ: np.ndarray


def _cell_grid(pred, succ, lo, scale, side):
    """The Grid of the (n, k) predecessors pred, n < 2^31, whose successors
    are the rows of succ.  Along an axis d with side[d] > 1 a point lies in
    cell (x_d - lo[d]) * scale[d], cut to side[d] - 1 and truncated (lo[d]
    at most every finite x_d), along any other axis in cell 0; a row with a
    coordinate that is not finite is in no cell.  The C sorts the points by
    a stable O(n) counting sort over the prod(side) dense cells, numpy by a
    stable argsort."""
    pred, succ = np.ascontiguousarray(pred, dtype=float), np.ascontiguousarray(succ, dtype=float)
    lo, scale = np.ascontiguousarray(lo, dtype=float), np.ascontiguousarray(scale, dtype=float)
    side = np.ascontiguousarray(side, dtype=np.int64)
    if (pred.ndim != 2 or not pred.shape[1] or succ.shape != pred.shape or len(pred) >= 2**31
            or not lo.shape == scale.shape == side.shape == pred.shape[1:] or (side < 1).any()):
        raise ValueError(f"need (n, k) predecessors with n < 2^31 and k >= 1, (n, k) successors "
                         f"and k bounds, scales and sides >= 1, not {pred.shape}, {succ.shape}, "
                         f"{lo.shape}, {scale.shape} and {side.tolist()}")
    (n, k), lib = pred.shape, _library()
    if lib is None:
        order = np.flatnonzero(np.isfinite(pred).all(axis=1))
        dense = np.zeros(len(order), dtype=np.int64)
        for d in np.flatnonzero(side > 1):
            t, last = (pred[order, d] - lo[d]) * scale[d], float(side[d] - 1)
            dense = dense * side[d] + np.where(t < last, t, last).astype(np.int64)
        rank = np.argsort(dense, kind="stable")
        order, dense = order.take(rank), dense.take(rank)
        first = np.flatnonzero(np.diff(dense, prepend=-1))  # each cell's first point
        start = np.append(first, len(order))
        cols = np.ascontiguousarray(pred.take(order, axis=0).T)
        box = np.stack([f.reduceat(cols, first, axis=1) if len(first) else cols[:, :0]
                        for f in (np.minimum, np.maximum)])
        label = np.repeat(np.arange(len(first)), np.diff(start))
        return Grid(cols, order, start, box, *_moments(label, succ.take(order, axis=0), len(first)),
                    succ)
    count, points = np.empty(int(np.prod(side)), dtype=np.int32), np.empty(1, dtype=np.int64)
    cells = lib.grid_count(pred.ctypes.data, n, k, lo.ctypes.data, scale.ctypes.data,
                           side.ctypes.data, len(count), count.ctypes.data, points.ctypes.data)
    m = int(points[0])
    grid = Grid(np.empty((k, m)), np.empty(m, dtype=np.int32), np.empty(cells + 1, dtype=np.int64),
                np.empty((2, k, cells)), np.empty(cells), np.empty((cells, k)), np.empty(cells),
                succ)
    lib.grid_fill(pred.ctypes.data, succ.ctypes.data, n, k, lo.ctypes.data, scale.ctypes.data,
                  side.ctypes.data, len(count), count.ctypes.data, cells, m,
                  *(a.ctypes.data for a in grid[:-1]))
    return grid


def _grid_shells(grid, ys, cuts):
    """Per-shell moments of the successors near each reference in ys, from
    the Grid of their series: two parts, the whole cells' and the scanned
    points', each a (count (m, L), mean (m, L, k), M2 (m, L)) triple for the
    m references and the L non-increasing cuts.

    A point of squared distance s = ((x0 - y0)^2 + (x1 - y1)^2) + ... lies
    in shell j, the deepest level whose cut s is below.  A cell's tight box
    bounds s by dmin and dmax, the same sums over its nearest and farthest
    coordinates, since rounded subtraction, squaring and addition are
    monotone.  A cell with dmin >= cuts[0] is skipped, a cell with dmin and
    dmax in one shell adds its cached moments to that shell (_moments with
    weights, in cell order), and every other cell is scanned point by point
    (_moments of its points below cuts[0], in run order).  The C loop adds in
    the same order as the numpy passes without it, so the two agree bit for
    bit.
    """
    ys, cuts = np.ascontiguousarray(ys, dtype=float), np.ascontiguousarray(cuts, dtype=float)
    (k, m), cells, levels, lib = grid.cols.shape, len(grid.total), len(cuts), _library()
    if ys.ndim != 2 or ys.shape[1] != k or cuts.ndim != 1 or not levels:
        raise ValueError(f"need (m, {k}) references and non-empty 1-D cuts, not {ys.shape} and "
                         f"{cuts.shape}")
    if lib is None:
        parts = [_grid_parts(grid, y, cuts) for y in ys]
        return [tuple(np.stack(t) for t in zip(*(p[i] for p in parts))) for i in (0, 1)]
    out = np.empty((len(ys), 2, 2 + 2 * k, levels + 1))
    kind = np.empty(cells, dtype=np.int32)  # per cell: whole, skipped or scanned
    lib.grid_shells(grid.cols.ctypes.data, grid.order.ctypes.data, grid.succ.ctypes.data, m, k,
                    grid.start.ctypes.data, grid.box.ctypes.data, grid.total.ctypes.data,
                    grid.mean.ctypes.data, grid.m2.ctypes.data, cells, ys.ctypes.data, len(ys),
                    cuts.ctypes.data, levels, kind.ctypes.data, out.ctypes.data)
    return [(part[:, 0, 1:], part[:, 2:2 + k].reshape(len(ys), levels + 1, k)[:, 1:],
             part[:, 1, 1:]) for part in (out[:, 0], out[:, 1])]


def _grid_parts(grid, y, cuts):
    """_grid_shells' two parts for one reference y, by numpy passes.  As in
    the C loop, squares that overflow to inf pass silently."""
    with np.errstate(over="ignore"):
        lo, hi = grid.box - y[:, None]
        near, far = np.maximum(np.maximum(lo, -hi), 0.0), np.maximum(-lo, hi)
        dmin, dmax = np.square(near[0]), np.square(far[0])
        for d in range(1, len(y)):
            dmin += np.square(near[d])
            dmax += np.square(far[d])
        shell = (dmin[:, None] < cuts[1:]).sum(axis=1)
        inside, one = dmin < cuts[0], dmax < cuts[shell]
        whole, scan = np.flatnonzero(inside & one), np.flatnonzero(inside & ~one)
        runs = grid.start[scan + 1] - grid.start[scan]
        pos = np.arange(runs.sum()) + np.repeat(grid.start[scan] - np.cumsum(runs) + runs, runs)
        s = np.square(grid.cols[0, pos] - y[0])
        for d in range(1, len(y)):
            s += np.square(grid.cols[d, pos] - y[d])
    pos, s = pos[s < cuts[0]], s[s < cuts[0]]
    return (_moments(shell[whole], grid.mean[whole], len(cuts), grid.total[whole], grid.m2[whole]),
            _moments((s[:, None] < cuts[1:]).sum(axis=1), grid.succ.take(grid.order[pos], axis=0),
                     len(cuts)))
