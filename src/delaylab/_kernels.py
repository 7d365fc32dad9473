"""Scalar map cores and long-orbit loops, jitted when numba is present.

Everything here is written in the nopython subset.  dynamics.step_state
calls the same cores one step at a time and is the scalar reference the
loops are tested against, so the two cannot drift apart.  Each loop fills a
(state_dim, n) block, so the (n, state_dim) view that dynamics.trajectory
returns has contiguous columns; it writes through 1-D row views, which cost
an interpreted loop half as much per store as 2-D indexing.
"""

import math

import numpy as np

try:
    from numba import njit
except ImportError:  # pragma: no cover - numba is a declared dependency
    def njit(*args, **kwargs):
        if args and callable(args[0]):
            return args[0]

        def wrap(f):
            return f

        return wrap

TWO_PI = 2.0 * math.pi
G_AMPLITUDE = 1.0 / 100.0


@njit(cache=False)
def smooth_step(x):
    """C-infinity step: 0 for x <= 0, 1 for x >= 1, strictly monotone between."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    a = math.exp(-1.0 / x)
    b = math.exp(-1.0 / (1.0 - x))
    return a / (a + b)


@njit(cache=False)
def r_core(r, kappa):
    omr = 1.0 - r
    return r + kappa * r * omr * omr * omr / (1.0 + r * r * r * r)


@njit(cache=False)
def theta_core(phi):
    s = math.sin(phi)
    return s * s


@njit(cache=False)
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


@njit(cache=False)
def phi_core(r, phi, kappa):
    omr = 1.0 - r
    return phi + kappa * theta_core(phi) + omr * omr * eta_core(r)


@njit(cache=False)
def angle_dist_core(phi, target):
    d = abs(phi - target) % TWO_PI
    if d > math.pi:
        d = TWO_PI - d
    return d


@njit(cache=False)
def lambda_bump_core(r, phi, delta):
    """1 on U_p, 0 outside the 2*delta box around p; smooth in between."""
    fr = smooth_step(2.0 - abs(1.0 - r) / delta)
    fa = smooth_step(2.0 - angle_dist_core(phi, 0.0) / delta)
    return fr * fa


@njit(cache=False)
def rho_bump_core(r, phi, delta):
    """Same bump shape around q (angle pi)."""
    fr = smooth_step(2.0 - abs(1.0 - r) / delta)
    fa = smooth_step(2.0 - angle_dist_core(phi, math.pi) / delta)
    return fr * fa


@njit(cache=False)
def fiber_core(r, phi, t, kappa, delta, alpha):
    lam = lambda_bump_core(r, phi, delta)
    rho = rho_bump_core(r, phi, delta)
    s = math.sin(math.pi * t)
    return (t + lam * G_AMPLITUDE * s * s + rho * alpha) % 1.0


@njit(cache=False)
def radial_orbit(r0, kappa, n):
    """n iterates of the radial map, r_1 .. r_n from r_0."""
    out = np.empty(n)
    r = r0
    for i in range(n):
        r = r_core(r, kappa)
        out[i] = r
    return out


@njit(cache=False)
def spiral_orbit(r0, phi0, kappa, n, burn_in):
    """(2, n) block of (r_i, phi_i) after burn_in; phi kept wrapped to [0, 2*pi)."""
    out = np.empty((2, n))
    rs, ps = out[0], out[1]
    r = r0
    phi = phi0 % TWO_PI
    for _ in range(burn_in):
        phi = phi_core(r, phi, kappa) % TWO_PI
        r = r_core(r, kappa)
    for i in range(n):
        rs[i] = r
        ps[i] = phi
        phi = phi_core(r, phi, kappa) % TWO_PI
        r = r_core(r, kappa)
    return out


@njit(cache=False)
def skew_orbit(r0, phi0, t0, kappa, delta, alpha, n, burn_in):
    """(3, n) block of (r_i, phi_i, t_i) along the skew product; base as in spiral_orbit."""
    out = np.empty((3, n))
    rs, ps, ts = out[0], out[1], out[2]
    r = r0
    phi = phi0 % TWO_PI
    t = t0 % 1.0
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


@njit(cache=False)
def henon_orbit(x0, y0, a, b, n, burn_in):
    """Henon iterates as a (2, n) block of (x_i, y_i).

    Returns (block, fail): fail == 0 on success; fail < 0 means divergence at
    burn-in step -fail (block empty); fail > 0 means the state at output index
    fail went non-finite and only the prefix [:, :fail] is returned.
    """
    out = np.empty((2, n))
    xs, ys = out[0], out[1]
    x = x0
    y = y0
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
