import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from delaylab import _kernels as _k
from delaylab.dynamics import (
    box_flags,
    DivergenceError,
    GOLDEN_ROTATION,
    step_state,
    SYSTEM_IDS,
    SystemConfig,
    trajectory,
    visit_statistics,
)

ALPHA = GOLDEN_ROTATION
DELTA = 0.1


def fiber(r, phi, t, alpha=ALPHA):
    return _k.fiber_core(r, phi, t, DELTA, alpha)


def lam(r, phi, delta):
    return _k.bump_core(r, phi, delta, 0.0)


def rho(r, phi, delta):
    return _k.bump_core(r, phi, delta, math.pi)


def test_rotation_step_examples():
    assert step_state(SystemConfig("rotation"), (0.0,))[0] == pytest.approx(ALPHA, abs=1e-15)
    quarter = SystemConfig("rotation", alpha=0.25)
    assert step_state(quarter, (0.5,))[0] == pytest.approx(0.75, abs=1e-15)
    assert step_state(quarter, (0.9,))[0] == pytest.approx(0.15, abs=1e-15)


def test_g_step_examples():
    # on U_p the fiber map is g(t) = t + sin^2(pi t)/100, which fixes 0
    assert fiber(1.0, 0.0, 0.0) == 0.0
    assert fiber(1.0, 0.0, 0.5) == pytest.approx(0.51, abs=1e-15)
    assert fiber(1.0, 0.0, 0.25) == pytest.approx(0.255, abs=1e-15)


def test_g_derivative_positive():
    """Every fiber map h_z is orientation preserving: a finite difference in t
    of fiber_core is positive on U_p (where h_z = g), on U_q (the rotation), in
    the transition annuli of both bumps, and far from both boxes."""
    bases = [
        (1.0, 0.0), (1.05, -0.05),                      # U_p
        (1.0, math.pi), (0.95, math.pi + 0.05),         # U_q
        (1.0, 1.5 * DELTA), (1.15, 0.0),                # annulus around p
        (1.0, math.pi - 1.5 * DELTA), (0.85, math.pi),  # annulus around q
        (1.0, math.pi / 2), (0.5, 1.0), (2.0, 4.0),     # far from both
    ]
    h = 1e-7
    t = np.linspace(0.0, 1.0 - h, 2_001)
    for r, phi in bases:
        for alpha in (ALPHA, 0.9):
            for s in t:
                # the shorter signed arc, so an image crossing the cut at 0 still counts
                step = (fiber(r, phi, s + h, alpha) - fiber(r, phi, s, alpha) + 0.5) % 1.0 - 0.5
                assert step > 0.0, (r, phi, alpha, s)


def test_R_map_fixed_points_and_value():
    assert _k.r_core(1.0, 0.05) == 1.0  # (1-r)^3 is exactly zero at r = 1
    assert _k.r_core(0.0, 0.05) == 0.0
    assert _k.r_core(0.5, 0.05) == pytest.approx(0.5029411764705882, abs=1e-16)


@pytest.mark.parametrize("kappa", [0.01, 0.05, 0.1])
def test_R_map_strictly_monotone(kappa):
    r = np.linspace(0.0, 3.0, 10_000)
    vals = np.array([_k.r_core(x, kappa) for x in r])
    assert np.all(np.diff(vals) > 0)


def test_R_map_pushes_toward_unit_circle():
    assert _k.r_core(0.5, 0.05) > 0.5
    assert _k.r_core(1.5, 0.05) < 1.5


def test_theta_examples():
    assert _k.theta_core(0.0) == 0.0
    assert _k.theta_core(math.pi) < 1e-30
    assert _k.theta_core(math.pi / 2) == pytest.approx(1.0, abs=1e-15)
    # quadratic tangency at zero
    assert _k.theta_core(1e-4) == pytest.approx(1e-8, rel=1e-6)


def test_eta_examples():
    assert _k.eta_core(1.0) == 1.0
    assert _k.eta_core(0.75) == 1.0
    r = 1e-6
    assert (1.0 - r) ** 2 * _k.eta_core(r) < 1e-3
    assert (1.0 - 10.0) ** 2 * _k.eta_core(10.0) < 1e-2
    assert _k.eta_core(2.0) > 0.0


def test_Phi_examples():
    assert _k.phi_core(1.0, 0.0, 0.05) == 0.0
    assert _k.phi_core(1.0, math.pi, 0.05) == pytest.approx(math.pi, abs=1e-15)
    assert _k.phi_core(1.0, math.pi / 2, 0.05) == pytest.approx(math.pi / 2 + 0.05, abs=1e-15)


def test_Phi_strictly_increasing_in_phi():
    phi = np.linspace(-7, 7, 20_001)
    for r in (0.3, 1.0, 1.7):
        vals = np.array([_k.phi_core(r, p, 0.1) for p in phi])
        assert np.all(np.diff(vals) > 0)


def test_f_step_fixed_points():
    cfg = SystemConfig("spiral_f", kappa=0.05)
    assert step_state(cfg, (1.0, 0.0)) == (1.0, 0.0)
    r, phi = step_state(cfg, (1.0, math.pi))
    assert r == 1.0 and abs(phi - math.pi) < 1e-15


def test_f_step_generic_value():
    r, phi = step_state(SystemConfig("spiral_f", kappa=0.05), (0.5, 0.1))
    r_exp = 0.5 + 0.05 * 0.5 * 0.125 / 1.0625
    phi_exp = 0.1 + 0.05 * math.sin(0.1) ** 2 + 0.25 * 1.0  # eta == 1 at r = 0.5
    assert r == pytest.approx(r_exp, abs=1e-16)
    assert phi == pytest.approx(phi_exp, abs=1e-15)


def test_fiber_map_regimes():
    far = (1.0, math.pi / 2)
    assert fiber(1.0, 0.0, 0.5) == pytest.approx(0.51, abs=1e-15)  # g on U_p
    assert fiber(1.0, math.pi, 0.1) == pytest.approx((0.1 + ALPHA) % 1, abs=1e-15)  # rotation on U_q
    assert lam(*far, DELTA) == 0.0
    assert rho(*far, DELTA) == 0.0
    assert fiber(*far, 0.37) == 0.37  # identity far from both boxes


def test_bump_supports():
    assert lam(1.05, 0.05, DELTA) == 1.0
    assert lam(1.0, 2.5 * DELTA, DELTA) == 0.0
    assert lam(1.35, 0.0, DELTA) == 0.0
    assert 0.0 < lam(1.0, 1.5 * DELTA, DELTA) < 1.0
    assert rho(1.0, math.pi + 0.05, DELTA) == 1.0
    assert rho(1.0, math.pi + 2.5 * DELTA, DELTA) == 0.0
    # both bumps vanish outside the 2*delta boxes, on a grid around the circle
    for r in np.linspace(0.5, 1.5, 41):
        for phi in np.linspace(0.0, 2 * math.pi, 181):
            outside_r = abs(1.0 - r) >= 2 * DELTA
            if outside_r or _k.angle_dist_core(phi, 0.0) >= 2 * DELTA:
                assert lam(r, phi, DELTA) == 0.0
            if outside_r or _k.angle_dist_core(phi, math.pi) >= 2 * DELTA:
                assert rho(r, phi, DELTA) == 0.0


def test_skew_step_fixed_point_and_q_rotation():
    cfg = SystemConfig("skew_T")
    assert step_state(cfg, (1.0, 0.0, 0.0)) == (1.0, 0.0, 0.0)
    r, phi, t = step_state(cfg, (1.0, math.pi, 0.3))
    assert r == 1.0 and abs(phi - math.pi) < 1e-15
    assert t == pytest.approx((0.3 + ALPHA) % 1, abs=1e-15)


def test_model_T0_step():
    cfg = SystemConfig("model_T0")
    assert step_state(cfg, (0.0, 0.0)) == (0.0, 0.0)
    assert step_state(cfg, (1.0, 0.0))[1] == pytest.approx(ALPHA, abs=1e-15)
    assert step_state(cfg, (1.0, 0.5))[1] == pytest.approx((0.5 + ALPHA) % 1, abs=1e-15)
    traj = trajectory(cfg, (1.0, 0.5), 3)
    assert traj[2, 1] == pytest.approx((0.5 + 2 * ALPHA) % 1, abs=1e-15)
    assert np.all(trajectory(cfg, (0.0, 0.0), 4) == 0.0)


def test_henon_examples():
    cfg = SystemConfig("henon")
    assert step_state(cfg, (0.0, 0.0)) == (1.0, 0.0)
    assert step_state(cfg, (1.0, 0.0)) == pytest.approx((-0.4, 0.3), abs=1e-15)
    # fixed point from the quadratic formula, residual below 1e-12
    a, b = 1.4, 0.3
    x_star = (b - 1 + math.sqrt((1 - b) ** 2 + 4 * a)) / (2 * a)
    y_star = b * x_star
    nx, ny = step_state(cfg, (x_star, y_star))
    assert abs(nx - x_star) < 1e-12 and abs(ny - y_star) < 1e-12


def test_trajectory_rotation():
    cfg = SystemConfig("rotation", alpha=0.25)
    traj = trajectory(cfg, (0.0,), 3)
    assert traj[:, 0] == pytest.approx([0.0, 0.25, 0.5], abs=1e-15)


@pytest.mark.parametrize("system,x0", [
    ("rotation", (0.3,)),
    ("spiral_f", (0.5, 1.0)),
    ("skew_T", (0.5, 1.0, 0.3)),
    ("henon", (0.0, 0.0)),
])
def test_trajectory_single_point_is_start(system, x0):
    cfg = SystemConfig(system)
    traj = trajectory(cfg, x0, 1, 0)
    assert traj[0] == pytest.approx(np.asarray(x0), abs=1e-15)


@pytest.mark.parametrize("system", SYSTEM_IDS)
def test_trajectory_rejects_start_of_wrong_length(system):
    # a start one coordinate short used to raise a bare IndexError, one too long lost its tail
    dim = {"rotation": 1, "skew_T": 3}.get(system, 2)
    start = (1.0, 0.5) if system == "model_T0" else (0.5,) * dim  # a model component is 0 or 1
    assert trajectory(SystemConfig(system), start, 3).shape == (3, dim)
    for x0 in [(0.5,) * (dim - 1), (0.5,) * (dim + 1)]:
        with pytest.raises(ValueError, match=rf"of {system} has {len(x0)} coordinates, not {dim}"):
            trajectory(SystemConfig(system), x0, 3)


START = {"rotation": (0.2,), "spiral_f": (0.5, 1.0), "skew_T": (0.5, 1.0, 0.3),
         "model_T0": (1.0, 0.2), "henon": (0.0, 0.0)}


@pytest.mark.parametrize("system", SYSTEM_IDS)
def test_trajectory_lengths_are_integers(system):
    # a float n used to round (rotation: 10.5 gave 11 rows) or raise a TypeError naming
    # no argument, and n = True gave one row
    cfg, x0 = SystemConfig(system), START[system]
    want = trajectory(cfg, x0, 5, 2)
    for n, burn_in in ((np.int64(5), 2), (5, np.int32(2)), (np.uint8(5), np.int64(2))):
        assert trajectory(cfg, x0, n, burn_in).tobytes() == want.tobytes()
    for bad in (10.5, 5.0, True, np.float64(5.0), np.bool_(True), "5", None):
        with pytest.raises(ValueError, match=r"^n must be an integer >= 1, not "):
            trajectory(cfg, x0, bad)
    for bad in (1.5, 0.0, False, True, np.float64(2.0)):
        with pytest.raises(ValueError, match=r"^burn_in must be an integer >= 0, not "):
            trajectory(cfg, x0, 5, bad)
    with pytest.raises(ValueError, match=r"^n must be an integer >= 1, not 0"):
        trajectory(cfg, x0, 0)
    with pytest.raises(ValueError, match=r"^burn_in must be an integer >= 0, not -1"):
        trajectory(cfg, x0, 5, -1)


@pytest.mark.parametrize("system", SYSTEM_IDS)
def test_system_config_rejects_bool(system):
    # bool is a numbers.Real, so alpha=True used to become alpha = 1.0
    for name in ("alpha", "kappa", "delta"):
        for bad in (True, False, np.bool_(True)):
            with pytest.raises(TypeError, match=rf"^{name} .* is not a real number"):
                SystemConfig(system, **{name: bad})


@pytest.mark.parametrize("system,x0", [("rotation", (1.2,)), ("model_T0", (1.0, -0.8))])
def test_circle_trajectory_is_the_closed_form(system, x0):
    # rotation and model_T0 circle orbits are not iterated: row i is
    # (wrap(t0) + (burn_in + i) * alpha) mod 1, which at the golden angle drifts
    # from step_state iterated in the last bits
    cfg = SystemConfig(system, alpha=GOLDEN_ROTATION)
    n, burn_in = 20_000, 1_000
    t0 = _k.wrap(x0[-1], 1.0)
    want = [(t0 + i * GOLDEN_ROTATION) % 1.0 for i in range(burn_in, burn_in + n)]
    rows = trajectory(cfg, x0, n, burn_in)
    assert rows[:, -1].tobytes() == np.array(want).tobytes()
    if system == "model_T0":
        assert np.all(rows[:, 0] == 1.0)
    state, iterated = x0, []
    for i in range(burn_in + n):
        if i >= burn_in:
            iterated.append(state[-1])
        state = step_state(cfg, state)
    assert iterated != want  # step_state iterated is not the same orbit


@pytest.mark.parametrize("comp", [0.5, -3.0, 2.0])
def test_trajectory_rejects_model_component_other_than_0_or_1(comp):
    # every nonzero component used to be taken as the circle, so the first row was not the start
    with pytest.raises(ValueError, match=rf"start state \({comp}, 0.25\) of model_T0"):
        trajectory(SystemConfig("model_T0"), (comp, 0.25), 2)


def test_trajectory_model_components_0_and_1():
    cfg = SystemConfig("model_T0", alpha=0.25)
    assert trajectory(cfg, (0.0, 0.25), 3).tobytes() == np.zeros((3, 2)).tobytes()
    circle = np.array([[1.0, 0.25], [1.0, 0.5], [1.0, 0.75]])
    assert trajectory(cfg, (1.0, 0.25), 3).tobytes() == circle.tobytes()


def test_trajectory_spiral_radius_monotone():
    cfg = SystemConfig("spiral_f", kappa=0.05)
    traj = trajectory(cfg, (0.5, 0.0), 5_000)
    r = traj[:, 0]
    assert np.all(np.diff(r) > 0)
    assert r[-1] < 1.0


def test_trajectory_burn_in_consistency():
    cfg = SystemConfig("skew_T")
    full = trajectory(cfg, (0.5, 1.0, 0.3), 600, 0)
    burned = trajectory(cfg, (0.5, 1.0, 0.3), 500, 100)
    assert np.array_equal(full[100:], burned)


def test_trajectory_matches_step_state(monkeypatch):
    # bit for bit, on the C loops where they build and on the step_state fallback
    for system, x0, n in [
        ("spiral_f", (0.5, 1.0), 1_000),
        ("skew_T", (0.5, 1.0, 0.3), 1_000),
        ("henon", (0.0, 0.0), 1_000),
    ]:
        cfg = SystemConfig(system)
        state, want = x0, []
        for _ in range(n):
            want.append(state)
            state = step_state(cfg, state)
        for lib in (_k._library(), None):
            monkeypatch.setattr(_k, "_lib", lib)
            assert trajectory(cfg, x0, n).tobytes() == np.array(want).tobytes(), system


def test_trajectory_divergence_reports_index():
    with pytest.raises(DivergenceError) as err:
        trajectory(SystemConfig("henon"), (2.0, 2.0), 1_000)
    assert err.value.index == 11


def test_visit_statistics_start_inside_box():
    cfg = SystemConfig("spiral_f", kappa=0.05, delta=0.1)
    traj = trajectory(cfg, (0.95, 0.0), 60_000)
    visits = visit_statistics(traj, 0.1)[0]
    assert len(visits)
    assert visits[0, 0] == 0
    assert np.all(visits[:, 1] - visits[:, 0] >= 1) and np.all(visits[:, 3] - visits[:, 2] >= 1)


def test_visit_interleaving_strict():
    cfg = SystemConfig("spiral_f", kappa=0.092, delta=0.2)
    traj = trajectory(cfg, (0.5, 2.0), 150_000)
    visits = visit_statistics(traj, 0.2)[0]
    assert len(visits) >= 50
    q_first = visits[0, 2] < visits[0, 0]
    markers = (visits[:, [2, 3, 0, 1]] if q_first else visits).ravel()
    assert np.all(np.diff(markers) > 0)


def test_visit_band_stable_across_starts():
    cfg = SystemConfig("spiral_f", kappa=0.092, delta=0.2)
    spreads = []
    for x0 in [(0.5, 2.0), (0.7, 4.5)]:
        traj = trajectory(cfg, x0, 200_000)
        visits = visit_statistics(traj, 0.2)[0]
        i = np.arange(1, len(visits) + 1)
        n_p = (visits[:, 1] - visits[:, 0]).astype(float)
        band = (i >= 10) & (i <= 100)
        ratios = n_p[band] / i[band]
        spreads.append(ratios.max() / ratios.min())
    assert all(s <= 4.0 for s in spreads)


def test_parabolic_decay_quick():
    rs = trajectory(SystemConfig("spiral_f", kappa=0.05), (0.5, 0.0), 100_000, burn_in=1)[:, 0]
    rho = 1.0 - rs
    ns = np.unique(np.round(np.logspace(3, 5, 80)).astype(int))
    x = np.log(ns)
    y = np.log(rho[ns - 1])
    vx = x - x.mean()
    slope = float(vx @ (y - y.mean()) / (vx @ vx))
    assert -0.55 <= slope <= -0.45


def test_partial_visits_never_reported():
    cfg = SystemConfig("spiral_f", kappa=0.092, delta=0.2)
    traj = trajectory(cfg, (0.5, 2.0), 30_000)
    visits = visit_statistics(traj, 0.2)[0]
    in_p, in_q = box_flags(traj[:, 0], traj[:, 1], 0.2)
    for _, n_plus_p, _, n_plus_q in visits:
        assert not in_p[n_plus_p]
        assert in_p[n_plus_p - 1]
        assert not in_q[n_plus_q]
        assert in_q[n_plus_q - 1]


def test_visit_statistics_gaps_positive_and_indexed():
    cfg = SystemConfig("spiral_f", kappa=0.092, delta=0.2)
    traj = trajectory(cfg, (0.5, 2.0), 100_000)
    _, idx, gaps = visit_statistics(traj, 0.2)
    assert len(idx) == len(gaps) > 0
    assert np.all(gaps >= 1)
    assert np.all(np.diff(idx) >= 0)


def _reference_visits(in_p, in_q):
    """visit_statistics's three arrays by a plain Python scan of the two masks: each box's
    completed stays, then a walk over all stays in order of entry."""

    def runs(mask):
        found, start = [], None
        for i, flag in enumerate(mask):
            if flag and start is None:
                start = i
            elif not flag and start is not None:
                found.append((start, i))
                start = None
        return found  # a stay still open at the end is not a run: its exit is not observed

    runs_p, runs_q = runs(in_p), runs(in_q)
    n_pairs = min(len(runs_p), len(runs_q))
    visits = [[ap, bp, aq, bq] for (ap, bp), (aq, bq) in zip(runs_p, runs_q)]
    events = sorted([("p", a, b) for a, b in runs_p] + [("q", a, b) for a, b in runs_q],
                    key=lambda e: e[1])
    pairs, gaps, seen = [], [], {"p": 0, "q": 0}
    for (side, _, stop), (_, next_start, _) in zip(events, events[1:]):
        seen[side] += 1
        pair = max(seen.values())
        if pair > n_pairs:
            break
        pairs.append(pair)
        gaps.append(next_start - stop)
    return visits, pairs, gaps


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([None, "p", "q"]), max_size=60))  # masks that never overlap
@example([])
@example(["p"] * 7)  # all True
@example(["q", "q", None, "p", None, "q", None, "p"])  # stays at index 0 and open at the end
@example([None, "p", "p", None, "q", "q"])
def test_visit_statistics_matches_python_scan(steps):
    in_p = np.array([s == "p" for s in steps], dtype=bool)
    in_q = np.array([s == "q" for s in steps], dtype=bool)
    # r = 1 on the circle; phi = 0 is p, pi is q and pi / 2 is in neither box
    phi = np.where(in_p, 0.0, np.where(in_q, math.pi, math.pi / 2))
    traj = np.column_stack([np.ones(len(steps)), phi])
    got_p, got_q = box_flags(traj[:, 0], traj[:, 1], DELTA)
    assert np.array_equal(got_p, in_p) and np.array_equal(got_q, in_q)
    visits, gap_pair, gap = visit_statistics(traj, DELTA)
    want_visits, want_pairs, want_gaps = _reference_visits(in_p.tolist(), in_q.tolist())
    assert visits.shape == (len(want_visits), 4)
    assert visits.tolist() == want_visits
    assert gap_pair.tolist() == want_pairs
    assert gap.tolist() == want_gaps


def test_system_config_validation():
    with pytest.raises(ValueError):
        SystemConfig("nope")
    with pytest.raises(ValueError):
        SystemConfig("rotation", kappa=0.5)
    with pytest.raises(ValueError):
        SystemConfig("rotation", delta=0.3)
    with pytest.raises(TypeError, match="alpha"):
        SystemConfig("rotation", alpha="0.3")
    for alpha in (math.inf, -math.inf, math.nan):  # would fill rotation and fiber rows with NaN
        with pytest.raises(ValueError, match="alpha"):
            SystemConfig("rotation", alpha=alpha)
