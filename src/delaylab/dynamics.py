"""Dynamical systems: circle rotation, the planar spiral diffeomorphism, its
skew-product extension over the circle, the two-piece model system, and the
Henon benchmark map.

Every state is a tuple (one step) or an (n, state_dim) float array (an
orbit).  ``step_state`` is the one Python definition of each map: it
advances one state through the cores of _kernels.  ``trajectory`` runs the
C loops of _orbits.c, which are tested bitwise against step_state, and
iterates step_state itself where the C cannot run.  Rotation and model_T0
circle orbits are the closed form (wrap(t0) + (burn_in + i) * alpha) mod 1
at row i, not step_state iterated, from which they can differ in the last
bits.  The caller names every start state; ``ambient_of_states`` maps a
whole orbit to the ambient rows that observables are evaluated on.
``visit_statistics`` finds a spiral orbit's completed stays in the boxes
around p and q with one scan of the ``box_flags`` masks and returns them,
and the gaps between them, as int arrays.

Layout: every (n, d) point array returned here, orbit or ambient, is the .T
view of a coordinate-major (d, n) block, so each coordinate is a contiguous
column.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import _kernels as _k
from .manifold import circle_ambient_array, product_ambient_array, sphere_ambient_array

GOLDEN_ROTATION = (math.sqrt(5.0) - 1.0) / 2.0

SYSTEM_IDS = ("rotation", "spiral_f", "skew_T", "model_T0", "henon")
_STATE_DIM = {"rotation": 1, "spiral_f": 2, "skew_T": 3, "model_T0": 2, "henon": 2}

HENON_A = 1.4
HENON_B = 0.3


class DivergenceError(RuntimeError):
    """Orbit left the finite range; carries the first failing iterate index."""

    def __init__(self, index):
        super().__init__(f"orbit diverged at iterate {index}")
        self.index = index


@dataclass(frozen=True)
class SystemConfig:
    """Which system to iterate and with which constants.

    kappa is the spiral perturbation strength, delta the half-width of the
    angular boxes around the two circle fixed points, alpha the rotation
    angle in turns; all three are stored as floats, so the maps compute in
    double.  The Henon map has the fixed constants HENON_A, HENON_B.
    """

    system_id: str
    alpha: float = GOLDEN_ROTATION
    kappa: float = 0.05
    delta: float = 0.1

    def __post_init__(self):
        for name in ("alpha", "kappa", "delta"):
            val = getattr(self, name)
            if isinstance(val, bool) or not isinstance(val, numbers.Real):  # float() parses a str
                raise TypeError(f"{name} {val!r} is not a real number")
            object.__setattr__(self, name, float(val))
        if self.system_id not in SYSTEM_IDS:
            raise ValueError(f"unknown system {self.system_id!r}")
        if not math.isfinite(self.alpha):
            raise ValueError(f"alpha {self.alpha!r} is not finite")
        if not 0.0 < self.kappa <= 0.1:
            raise ValueError(f"kappa {self.kappa!r} outside (0, 0.1]")
        if not 0.0 < self.delta <= 0.2:
            raise ValueError(f"delta {self.delta!r} outside (0, 0.2]")


# -- one step and ambient coordinates -----------------------------------------


def step_state(cfg, state):
    """Advance one tuple-encoded state of the configured system.

    Encodings: rotation (t,), spiral_f (r, phi), skew_T (r, phi, t),
    model_T0 (component, t) with component 0 = marked point / 1 = circle,
    henon (x, y).  The image angle phi is taken mod 2*pi, as in the C loops.
    """
    sid = cfg.system_id
    if sid == "rotation":
        return ((state[0] + cfg.alpha) % 1.0,)
    if sid == "spiral_f":
        r, phi = state
        return (_k.r_core(r, cfg.kappa), _k.phi_core(r, phi, cfg.kappa) % _k.TWO_PI)
    if sid == "skew_T":
        r, phi, t = state
        return (
            _k.r_core(r, cfg.kappa),
            _k.phi_core(r, phi, cfg.kappa) % _k.TWO_PI,
            _k.fiber_core(r, phi, t, cfg.delta, cfg.alpha),
        )
    if sid == "model_T0":
        comp, t = state
        if comp == 0.0:
            return state
        return (1.0, (t + cfg.alpha) % 1.0)
    if sid == "henon":
        x, y = state
        return (1.0 - HENON_A * x * x + y, HENON_B * x)
    raise ValueError(sid)


def sample_model_states(n, rng):
    """n iid model_T0 states drawn from the model's invariant measure.

    Each draw is the marked point (0, 0) with probability one half, else
    (1, t) with t uniform on the circle.  The atom mask is drawn before t,
    so a generator in a given state yields the same sample for every caller.
    """
    atom = rng.random(n) < 0.5
    t = rng.random(n)
    block = np.zeros((2, n))
    np.copyto(block[0], 1.0, where=~atom)
    np.copyto(block[1], t, where=~atom)
    return block.T


def ambient_of_states(cfg, states):
    """Ambient coordinate rows for an (n, state_dim) array of tuple states.

    The circle embeds in R^2, the spiral base in R^3 (sphere coordinates),
    product systems in R^5; the Henon map is its own ambient.
    """
    states = np.atleast_2d(np.asarray(states, dtype=float))
    sid = cfg.system_id
    if sid == "rotation":
        return circle_ambient_array(states[:, 0])
    if sid == "spiral_f":
        return sphere_ambient_array(states[:, 0], states[:, 1])
    if sid == "skew_T":
        return product_ambient_array(states[:, 0], states[:, 1], states[:, 2])
    if sid == "model_T0":
        comp = states[:, 0]
        t = states[:, 1]
        r = np.ones_like(t)
        phi = np.where(comp == 0.0, 0.0, math.pi)
        tt = np.where(comp == 0.0, 0.0, t)
        return product_ambient_array(r, phi, tt)
    if sid == "henon":
        return np.asfortranarray(states)  # no copy for a trajectory's own view
    raise ValueError(sid)


# -- trajectories --------------------------------------------------------------


def _integer(name, val, least):
    """val as an int; ValueError naming it unless it is a Python or numpy
    integer (not a bool, not a float such as 5.0) of at least least."""
    if isinstance(val, bool) or not isinstance(val, numbers.Integral) or val < least:
        raise ValueError(f"{name} must be an integer >= {least}, not {val!r}")
    return int(val)


def trajectory(cfg, x0, n, burn_in=0):
    """n states of the configured system after discarding burn_in iterates.

    Returns an (n, state_dim) float array in the encoding of step_state, the
    .T view of a (state_dim, n) block.  This is the one place a start state
    is checked and wrapped: angles go into [0, 2*pi) and fiber and circle
    coordinates into [0, 1), and the orbit loops only iterate.  Raises
    ValueError naming n or burn_in unless it is a Python or numpy integer
    (not a bool, not a float such as 5.0) of at least 1 or 0; ValueError for
    a start of the wrong length or with a non-finite coordinate, for a
    model_T0 start whose component is neither 0 nor 1, and for a spiral_f or
    skew_T start whose radius is not positive or too large for the map's
    arithmetic; DivergenceError with the failing absolute iterate index if a
    Henon state leaves the finite range.  The other systems cannot diverge.
    """
    n, burn_in = _integer("n", n, 1), _integer("burn_in", burn_in, 0)
    sid = cfg.system_id
    if len(x0) != _STATE_DIM[sid]:
        raise ValueError(f"start state {tuple(x0)!r} of {sid} has {len(x0)} coordinates, "
                         f"not {_STATE_DIM[sid]}")
    if not all(math.isfinite(v) for v in x0):
        raise ValueError(f"non-finite start state {tuple(x0)!r}")
    if sid in ("spiral_f", "skew_T") and not x0[0] > 0.0:
        raise ValueError(f"start state {tuple(x0)!r} of {sid} needs a radius r0 > 0")
    if sid == "rotation":
        t0 = _k.wrap(x0[0], 1.0)
        idx = np.arange(burn_in, burn_in + n, dtype=float)
        return ((t0 + idx * cfg.alpha) % 1.0)[:, None]
    if sid == "model_T0":
        comp, t0 = float(x0[0]), _k.wrap(float(x0[1]), 1.0)
        if comp not in (0.0, 1.0):
            raise ValueError(f"start state {tuple(x0)!r} of model_T0 needs component 0 (the "
                             "marked point) or 1 (the circle)")
        block = np.zeros((2, n))
        if comp != 0.0:
            block[0] = 1.0
            block[1] = (t0 + np.arange(burn_in, burn_in + n, dtype=float) * cfg.alpha) % 1.0
        return block.T
    if sid == "henon":
        start = (float(x0[0]), float(x0[1]))
    else:
        start = (float(x0[0]), _k.wrap(float(x0[1]), _k.TWO_PI))
        if sid == "skew_T":
            start += (_k.wrap(float(x0[2]), 1.0),)
        # each step moves the radius monotonically toward 1 and keeps the angles wrapped, so when
        # the first image is finite every later one is, no later step raises in CPython, and the
        # loops need no check
        if not all(map(math.isfinite, step_state(cfg, start))):
            raise ValueError(f"start radius r0 = {start[0]!r} of {sid} leaves the finite range "
                             f"on the first step")
    block, index = _orbit(cfg, start, n, burn_in)
    if index:
        raise DivergenceError(index)
    return block.T


def _orbit(cfg, start, n, burn_in):
    """(block, index) of a spiral_f, skew_T or Henon orbit from a checked, wrapped start, as
    _kernels.henon_orbit returns it: the C loop's, or step_state iterated when the C is
    unavailable.  A spiral_f block is rows (r, phi) of a skew block from fiber start 0, which
    they do not read."""
    if cfg.system_id == "henon":
        run = _k.henon_orbit(*start, HENON_A, HENON_B, n, burn_in)
    else:
        t0 = start[2] if len(start) == 3 else 0.0
        block = _k.skew_orbit(start[0], start[1], t0, cfg.kappa, cfg.delta, cfg.alpha, n, burn_in)
        run = None if block is None else (block[:len(start)], 0)
    return _iterate(cfg, start, n, burn_in) if run is None else run


def _iterate(cfg, state, n, burn_in):
    """The interpreted orbit: step_state iterated into a (state_dim, n) block, as (block, index)
    like _kernels.henon_orbit.  As in the C loops, only Henon states are checked for leaving
    the finite range."""
    checked = cfg.system_id == "henon"
    block = np.empty((len(state), n))
    for i in range(-burn_in, n):
        if i >= 0:
            block[:, i] = state
        state = step_state(cfg, state)
        if checked and i + 1 < n and not all(map(math.isfinite, state)):
            return block, burn_in + i + 1
    return block, 0


# -- visit statistics ----------------------------------------------------------


def box_flags(r, phi, delta):
    """Boolean masks (in U_p, in U_q) for polar arrays; angles taken mod 2*pi."""
    r = np.asarray(r)
    phi = np.asarray(phi) % (2.0 * math.pi)
    radial = np.abs(1.0 - r) < delta
    dp = np.minimum(phi, 2.0 * math.pi - phi)
    dq = np.abs(phi - math.pi)
    return radial & (dp < delta), radial & (dq < delta)


def _stays(mask):
    """(starts, stops) of a mask's completed True runs: a run from index 0 counts, one still open
    at the last index is dropped, since its exit is not observed."""
    edges = np.flatnonzero(np.diff(mask, prepend=False))  # bool diff: True where the flag flips
    starts, stops = edges[mask[edges]], edges[~mask[edges]]
    return starts[:len(stops)], stops


def visit_statistics(traj, delta):
    """Completed stays of a spiral-map trajectory in the boxes around p and q, and the gaps
    between them.

    traj is an (n, 2) array of polar states (r, phi), or the base rows of a skew-product
    trajectory.  Returns (visits, gap_pair, gap).  Row i - 1 of the (m, 4) int array visits is
    (n_minus_p, n_plus_p, n_minus_q, n_plus_q): the entry and exit index of the i-th completed
    stay in each box, so N_p = n_plus_p - n_minus_p.  gap[j] is the time from the exit of the
    j-th stay in either box, in order of entry, to the entry of the next, and gap_pair[j] the
    1-based index of the visit pair that stay belongs to.  Gaps end at the first stay of a pair
    beyond m.
    """
    traj = np.asarray(traj, dtype=float)
    (start_p, stop_p), (start_q, stop_q) = map(_stays, box_flags(traj[:, 0], traj[:, 1], delta))
    m = min(len(stop_p), len(stop_q))
    visits = np.column_stack([start_p[:m], stop_p[:m], start_q[:m], stop_q[:m]])
    start = np.concatenate([start_p, start_q])
    order = np.argsort(start, kind="stable")
    in_q = order >= len(start_p)
    start, stop = start[order], np.concatenate([stop_p, stop_q])[order]
    # a stay's pair index: the larger of the two boxes' stay counts up to and including it
    pair = np.maximum(np.cumsum(~in_q), np.cumsum(in_q))[:-1]
    kept = pair <= m
    return visits, pair[kept], (start[1:] - stop[:-1])[kept]
