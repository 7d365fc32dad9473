"""Scalar map cores and the compiled loops: the long orbits, the k = 1 bin
search and the k >= 2 shell moments.

dynamics.step_state calls the cores one step at a time; it is the one Python
definition of each map.  ``_orbits.c`` repeats the cores and iterates them
in two loops: the skew product, whose first two rows are the orbit of the
planar spiral map (its base) and whose first row, the radius, depends on r
alone, and the Henon map.  Each loop fills a (state_dim, n) block, so the
(n, state_dim) view that dynamics.trajectory returns has contiguous columns.
A third loop, ``bin_right``, bins the k = 1 engine's series at its sorted
ball edges, running 16 binary searches in lockstep.  A fourth,
``ball_shells``, makes the k >= 2 engine's one pass per reference: squared
distances against the levels' exact cuts, no sqrt, and each shell's count,
mean and M2.

The first call to any of them compiles ``_orbits.c`` with gcc into
``__pycache__`` beside this file (the file name carries the sha256 of the
source and flags; builds of other sources are deleted) and loads it with
ctypes; later processes load the cached library.  The C computes every
double as CPython does, so its blocks are bitwise equal to step_state
iterated, its bins are numpy's and its shell sums add in np.bincount's
order.  ``skew_orbit`` and ``henon_orbit`` return None when the C cannot
run: gcc is missing, the build or load failed, or (skew product) CPython
would raise on the orbit.  dynamics.trajectory then iterates step_state
instead; ``bin_right`` falls back to ``searchsorted`` and ``ball_shells``
to numpy passes with the same cuts.  BACKEND names the code in use, "c" or
"python", once any of the four has been called.
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
    "skew_orbit": (ctypes.c_int, (_D, _D, _D, _D, _D, _D, _I64, _I64, _P)),
    "henon_orbit": (_I64, (_D, _D, _D, _D, _I64, _I64, _P)),
    "bin_right": (None, (_P, _I64, _P, _I64, _P)),
    "ball_shells": (None, (_P, _P, _I64, _I64, _P, _P, _I64, _P, _P)),
}

_NUMPY_BLOCK = 1 << 14  # points per block of ball_shells' distance pass without the C: 128 KB
BACKEND = None  # "c" or "python" once an orbit, a binning or a shell pass has been asked for
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
                                  f"k >= 2 shells by numpy passes: {_SOURCE.name} did not build "
                                  f"or load: {detail}", RuntimeWarning, stacklevel=3)
            BACKEND = "python" if _lib is None else "c"
    return _lib


def skew_orbit(r0, phi0, t0, kappa, delta, alpha, n, burn_in):
    """(3, n) block of (r_i, phi_i, t_i) along the skew product, phi and t
    wrapped to [0, 2*pi) and [0, 1); None when the C cannot run it."""
    lib = _library()
    if lib is None:
        return None
    out = np.empty((3, n))
    if lib.skew_orbit(r0, phi0, t0, kappa, delta, alpha, n, burn_in, out.ctypes.data):
        return None  # CPython raises on this orbit
    return out


def henon_orbit(x0, y0, a, b, n, burn_in):
    """Henon iterates as (block, fail) for a (2, n) block of (x_i, y_i); None
    when the C cannot run.

    fail == 0 on success; fail < 0 means divergence at burn-in step -fail
    (block empty); fail > 0 means the state at output index fail went
    non-finite and only the prefix [:, :fail] is returned.
    """
    lib = _library()
    if lib is None:
        return None
    out = np.empty((2, n))
    fail = lib.henon_orbit(x0, y0, a, b, n, burn_in, out.ctypes.data)
    if fail < 0:
        return out[:, :0], fail
    if fail > 0:
        return out[:, :fail], fail
    return out, 0


def bin_right(cuts, x):
    """cuts.searchsorted(x, side="right") as int64 for sorted, NaN-free float cuts
    and float values x, NaN values included (they land after every cut)."""
    cuts, x = np.ascontiguousarray(cuts, dtype=float), np.ascontiguousarray(x, dtype=float)
    if cuts.ndim != 1 or x.ndim != 1:
        raise ValueError(f"cuts and values must be 1-D, not {cuts.ndim}-D and {x.ndim}-D")
    lib = _library()
    if lib is None:
        return cuts.searchsorted(x, side="right")
    out = np.empty(len(x), dtype=np.int64)
    lib.bin_right(cuts.ctypes.data, len(cuts), x.ctypes.data, len(x), out.ctypes.data)
    return out


def _squares(cols, y):
    """((c0 - y0)^2 + (c1 - y1)^2) + ... for the columns c of cols, in blocks
    of _NUMPY_BLOCK points: no n-length temporary besides the result.  As in
    the C loop, overflow to inf and NaN from inf - inf pass silently."""
    s = np.empty(cols.shape[1])
    t = np.empty(min(len(s), _NUMPY_BLOCK))
    with np.errstate(over="ignore", invalid="ignore"):
        for a in range(0, len(s), _NUMPY_BLOCK):
            block = s[a:a + _NUMPY_BLOCK]
            tb = t[:len(block)]
            np.square(np.subtract(cols[0, a:a + _NUMPY_BLOCK], y[0], out=block), out=block)
            for col, v in zip(cols[1:], y[1:]):
                block += np.square(np.subtract(col[a:a + _NUMPY_BLOCK], v, out=tb), out=tb)
    return s


def ball_shells(cols, succ, y, cuts):
    """Per-shell (count, mean, M2) of the successors near y, as float arrays of
    shapes (L,), (L, k) and (L,) for the L non-increasing cuts.

    cols is the (k, n) block of predecessor columns and succ the (n, k)
    block of their successors.  Point i lies in shell j, the deepest level
    whose cut is above its squared distance s_i = ((c0_i - y0)^2 +
    (c1_i - y1)^2) + ..., and in no shell when s_i is not below cuts[0].
    Each shell's sums add in index order, as np.bincount does, so the C
    loop and the numpy passes without it agree bit for bit.
    """
    cols, succ = np.ascontiguousarray(cols, dtype=float), np.ascontiguousarray(succ, dtype=float)
    y, cuts = np.ascontiguousarray(y, dtype=float), np.ascontiguousarray(cuts, dtype=float)
    (k, n), levels = cols.shape, len(cuts)
    if not k or succ.shape != (n, k) or y.shape != (k,) or cuts.ndim != 1 or not levels:
        raise ValueError(f"need (k, n) columns with k >= 1, (n, k) successors, k coordinates "
                         f"and non-empty 1-D cuts, not {cols.shape}, {succ.shape}, {y.shape} "
                         f"and {cuts.shape}")
    lib = _library()
    if lib is None or max(n, levels) >= 2**31:  # the C loop indexes points and shells in int32
        s = _squares(cols, y)
        ball = np.flatnonzero(s < cuts[0])
        s = s.take(ball)
        shell = np.zeros(len(ball), np.min_scalar_type(levels))
        for cut in cuts[1:]:
            shell += s < cut
        shell = shell.astype(np.intp)
        count = np.bincount(shell, minlength=levels).astype(float)
        cloud = succ.take(ball, axis=0)
        mean = np.empty((levels, k))
        m2 = np.zeros(levels)
        for c in range(k):
            col = np.ascontiguousarray(cloud[:, c])
            mean[:, c] = np.bincount(shell, weights=col, minlength=levels) / np.maximum(count, 1.0)
            col -= mean[:, c].take(shell)
            m2 += np.bincount(shell, weights=np.square(col, out=col), minlength=levels)
        return count, mean, m2
    work = np.empty(2 * n, dtype=np.int32)  # the top ball's indices and shells
    out = np.empty((2 + 2 * k) * levels)  # count, m2, mean, and the C loop's per-coordinate M2
    lib.ball_shells(cols.ctypes.data, succ.ctypes.data, n, k, y.ctypes.data, cuts.ctypes.data,
                    levels, work.ctypes.data, out.ctypes.data)
    return out[:levels], out[2 * levels:(2 + k) * levels].reshape(levels, k), out[levels:2 * levels]
