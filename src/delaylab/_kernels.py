"""Scalar map cores and the long-orbit loops that iterate them.

dynamics.step_state calls the same cores one step at a time and is the
scalar reference the loops are tested against, so the two cannot drift
apart.  There is one loop per map: the skew product, whose first two rows
are the orbit of the planar spiral map (its base) and whose first row, the
radius, depends on r alone, and the Henon map.  Each loop fills a
(state_dim, n) block, so the (n, state_dim) view that dynamics.trajectory
returns has contiguous columns; it writes through 1-D row views, which cost
an interpreted loop half as much per store as 2-D indexing.

The loops exist twice.  The ``*_py`` functions here are the reference;
``_orbits.c`` repeats them statement for statement.  The first orbit call
compiles it with gcc into ``__pycache__`` beside this file (the file name
carries the sha256 of the source and flags; builds of other sources are
deleted) and loads it with ctypes; later processes load the cached library.
The public ``*_orbit`` names run the C loops and fall back to the Python ones
when gcc is missing or the build or load fails.  BACKEND names the loops in
use, "c" or "python", once an orbit has been asked for.  Both compute every
double as CPython does, so their blocks are bitwise equal.
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


def lambda_bump_core(r, phi, delta):
    """1 on U_p, 0 outside the 2*delta box around p; smooth in between."""
    fr = smooth_step(2.0 - abs(1.0 - r) / delta)
    fa = smooth_step(2.0 - angle_dist_core(phi, 0.0) / delta)
    return fr * fa


def rho_bump_core(r, phi, delta):
    """Same bump shape around q (angle pi)."""
    fr = smooth_step(2.0 - abs(1.0 - r) / delta)
    fa = smooth_step(2.0 - angle_dist_core(phi, math.pi) / delta)
    return fr * fa


def fiber_core(r, phi, t, kappa, delta, alpha):
    lam = lambda_bump_core(r, phi, delta)
    rho = rho_bump_core(r, phi, delta)
    s = math.sin(math.pi * t)
    return (t + lam * G_AMPLITUDE * s * s + rho * alpha) % 1.0


def wrap(x, period):
    """x mod period in [0, period): a tiny negative x rounds x % period up to period."""
    w = x % period
    return 0.0 if w == period else w


# -- the reference loops --------------------------------------------------------


def skew_orbit_py(r0, phi0, t0, kappa, delta, alpha, n, burn_in):
    """(3, n) block of (r_i, phi_i, t_i) along the skew product; phi kept wrapped to [0, 2*pi)."""
    r, phi, t = float(r0), wrap(float(phi0), TWO_PI), wrap(float(t0), 1.0)
    kappa, delta, alpha = float(kappa), float(delta), float(alpha)
    out = np.empty((3, n))
    rs, ps, ts = out[0], out[1], out[2]
    for _ in range(burn_in):
        tn = fiber_core(r, phi, t, kappa, delta, alpha)
        phi = phi_core(r, phi, kappa) % TWO_PI
        r = r_core(r, kappa)
        t = tn
    for i in range(n):
        rs[i] = r
        ps[i] = phi
        ts[i] = t
        tn = fiber_core(r, phi, t, kappa, delta, alpha)
        phi = phi_core(r, phi, kappa) % TWO_PI
        r = r_core(r, kappa)
        t = tn
    return out


def henon_orbit_py(x0, y0, a, b, n, burn_in):
    """Henon iterates as a (2, n) block of (x_i, y_i).

    Returns (block, fail): fail == 0 on success; fail < 0 means divergence at
    burn-in step -fail (block empty); fail > 0 means the state at output index
    fail went non-finite and only the prefix [:, :fail] is returned.
    """
    x, y, a, b = float(x0), float(y0), float(a), float(b)
    out = np.empty((2, n))
    xs, ys = out[0], out[1]
    for i in range(burn_in):
        xn = 1.0 - a * x * x + y
        y = b * x
        x = xn
        if not (math.isfinite(x) and math.isfinite(y)):
            return out[:, :0], -(i + 1)
    for i in range(n):
        xs[i] = x
        ys[i] = y
        xn = 1.0 - a * x * x + y
        y = b * x
        x = xn
        if not (math.isfinite(x) and math.isfinite(y)):
            if i + 1 < n:
                return out[:, : i + 1], i + 1
    return out, 0


# -- the compiled loops ---------------------------------------------------------

_SOURCE = Path(__file__).with_name("_orbits.c")
_CFLAGS = ("-O2", "-ffp-contract=off", "-fno-fast-math", "-shared", "-fPIC")
_D, _I64 = ctypes.c_double, ctypes.c_int64
_SIGNATURES = {  # name: (restype, argtypes); the last argument is the block
    "skew_orbit": (ctypes.c_int, (_D, _D, _D, _D, _D, _D, _I64, _I64, ctypes.c_void_p)),
    "henon_orbit": (_I64, (_D, _D, _D, _D, _I64, _I64, ctypes.c_void_p)),
}

BACKEND = None  # "c" or "python" once an orbit has been asked for
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
    """The loaded C loops, or None when they cannot be built here."""
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
                    warnings.warn(f"orbit loops run interpreted: {_SOURCE.name} did not build "
                                  f"or load: {detail}", RuntimeWarning, stacklevel=3)
            BACKEND = "python" if _lib is None else "c"
    return _lib


def skew_orbit(r0, phi0, t0, kappa, delta, alpha, n, burn_in):
    """(3, n) block of (r_i, phi_i, t_i) along the skew product, as skew_orbit_py."""
    lib = _library()
    if lib is None:
        return skew_orbit_py(r0, phi0, t0, kappa, delta, alpha, n, burn_in)
    out = np.empty((3, n))
    if lib.skew_orbit(r0, phi0, t0, kappa, delta, alpha, n, burn_in, out.ctypes.data):
        return skew_orbit_py(r0, phi0, t0, kappa, delta, alpha, n, burn_in)  # raises
    return out


def henon_orbit(x0, y0, a, b, n, burn_in):
    """Henon iterates as (block, fail), with the fail convention of henon_orbit_py."""
    lib = _library()
    if lib is None:
        return henon_orbit_py(x0, y0, a, b, n, burn_in)
    out = np.empty((2, n))
    fail = lib.henon_orbit(x0, y0, a, b, n, burn_in, out.ctypes.data)
    if fail < 0:
        return out[:, :0], fail
    if fail > 0:
        return out[:, :fail], fail
    return out, 0
