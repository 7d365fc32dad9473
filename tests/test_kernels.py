"""The compiled loops against step_state iterated, searchsorted and bincount, bit for bit."""

import math
import re
import shutil
import subprocess

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from delaylab import _kernels as _k, dynamics
from delaylab.dynamics import (DivergenceError, GOLDEN_ROTATION, HENON_A, HENON_B, SystemConfig,
                               _iterate, step_state, trajectory)
from delaylab.embedding import delay_series, PairedVectors
from delaylab.experiments import ExperimentConfig, run_experiment
from delaylab.predictability import _merge, _square_cut, BruteEngine, Sorted1DEngine

HAVE_GCC = shutil.which("gcc") is not None
needs_c = pytest.mark.skipif(not HAVE_GCC, reason="no C compiler on PATH")


@pytest.fixture(params=["c", "python"])
def backend(request, monkeypatch):
    """Run the test once on the compiled loops and once with them unavailable."""
    if request.param == "c":
        if _k._library() is None:
            pytest.skip("the C loops cannot be built here")
    else:
        monkeypatch.setattr(_k, "_lib", None)
        monkeypatch.setattr(_k, "BACKEND", "python")
    return request.param


def same_bytes(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def wrapped(r0, phi0, t0, *rest):
    """The arguments of _k.skew_orbit with phi0 and t0 wrapped, as dynamics.trajectory passes them."""
    return (r0, _k.wrap(phi0, _k.TWO_PI), _k.wrap(t0, 1.0), *rest)


def skew_steps(r0, phi0, t0, kappa, delta, alpha, n, burn_in):
    """step_state iterated from a wrapped start, as a (3, n) block."""
    return _iterate(SystemConfig("skew_T", alpha, kappa, delta), (r0, phi0, t0), n, burn_in)[0]


def henon_steps(x0, y0, n, burn_in):
    """(block, index) of step_state iterated on the Henon map."""
    return _iterate(SystemConfig("henon"), (x0, y0), n, burn_in)


def same_run(got, want, burn_in):
    """Equal divergence indices and equal blocks up to the first non-finite iterate."""
    (got, got_index), (want, want_index) = got, want
    valid = max(want_index - burn_in, 0) if want_index else want.shape[1]
    return got_index == want_index and same_bytes(got[:, :valid], want[:, :valid])


def test_backend_is_c_when_gcc_present(monkeypatch):
    # a compiler that is present but unused would silently cost 24-230x on every orbit
    if not HAVE_GCC:
        pytest.skip("no C compiler on PATH")
    monkeypatch.setattr(_k, "_lib", None)
    monkeypatch.setattr(_k, "BACKEND", None)
    _k.skew_orbit(0.5, 1.0, 0.3, 0.05, 0.1, GOLDEN_ROTATION, 1, 0)
    assert _k.BACKEND == "c"


@needs_c
def test_build_into_empty_cache(tmp_path, monkeypatch):
    source = tmp_path / "_orbits.c"
    source.write_bytes(_k._SOURCE.read_bytes())
    monkeypatch.setattr(_k, "_SOURCE", source)
    cache = tmp_path / "__pycache__"
    cache.mkdir()
    (cache / "_orbits-0123456789abcdef.so").write_bytes(b"a build of an older source")
    (cache / "_orbits-0123456789abcdef.99.tmp").write_bytes(b"another process building")
    path = _k._build_library()
    assert path.parent == cache
    # the stale library is deleted, the other builder's temporary kept and ours not left behind
    assert {p.name for p in cache.iterdir()} == {path.name, "_orbits-0123456789abcdef.99.tmp"}
    assert _k._build_library() == path


@needs_c
def test_source_builds_without_warnings(tmp_path):
    # -Wextra reports unused parameters and signed/unsigned mixes, among others
    build = subprocess.run([shutil.which("gcc"), *_k._CFLAGS, "-Wall", "-Wextra", "-Werror",
                            "-o", str(tmp_path / "_orbits.so"), str(_k._SOURCE), "-lm"],
                           capture_output=True, text=True)
    assert build.returncode == 0, build.stderr


@needs_c
def test_failed_build_warns_and_runs_python(tmp_path, monkeypatch):
    broken = tmp_path / "_orbits.c"
    broken.write_text("this is not C\n")
    monkeypatch.setattr(_k, "_SOURCE", broken)
    monkeypatch.setattr(_k, "_lib", None)
    monkeypatch.setattr(_k, "BACKEND", None)
    with pytest.warns(RuntimeWarning, match="did not build"):
        out = trajectory(SystemConfig("skew_T"), (0.5, 1.0, 0.3), 10)
    assert _k.BACKEND == "python"
    assert same_bytes(out.T, skew_steps(0.5, 1.0, 0.3, 0.05, 0.1, GOLDEN_ROTATION, 10, 0))


@needs_c
@pytest.mark.parametrize("r0,phi0,t0,kappa,delta", [
    (0.5, 1.0, 0.3, 0.05, 0.1),
    (0.95, 0.0, 0.0, 0.092, 0.2),
    (1.4, 9.0, -0.7, 0.02, 0.05),
])
@pytest.mark.parametrize("burn_in", [0, 1_000])
def test_skew_orbit_bytes_equal(r0, phi0, t0, kappa, delta, burn_in):
    args = wrapped(r0, phi0, t0, kappa, delta, GOLDEN_ROTATION, 100_000, burn_in)
    assert same_bytes(_k.skew_orbit(*args), skew_steps(*args))


@needs_c
@pytest.mark.parametrize("x0,y0,a,b", [(0.0, 0.0, HENON_A, HENON_B), (0.1, -0.2, 1.2, 0.25)])
@pytest.mark.parametrize("burn_in", [0, 1_000])
def test_henon_orbit_bytes_equal(x0, y0, a, b, burn_in, monkeypatch):
    # the C loop takes the constants as arguments, step_state reads them from dynamics
    monkeypatch.setattr(dynamics, "HENON_A", a)
    monkeypatch.setattr(dynamics, "HENON_B", b)
    (got, got_index), (want, want_index) = (_k.henon_orbit(x0, y0, a, b, 100_000, burn_in),
                                            henon_steps(x0, y0, 100_000, burn_in))
    assert got_index == want_index == 0
    assert same_bytes(got, want)


@needs_c
@pytest.mark.parametrize("n,burn_in", [(1_000, 0), (1_000, 3), (1_000, 1_000)])
def test_henon_divergence_same_fail_and_prefix(n, burn_in):
    # from (2, 2) the map diverges at iterate 11: in the output, or in the burn-in
    got = _k.henon_orbit(2.0, 2.0, HENON_A, HENON_B, n, burn_in)
    want = henon_steps(2.0, 2.0, n, burn_in)
    assert got[1] == want[1] == 11
    assert same_run(got, want, burn_in)


@needs_c
def test_henon_divergence_on_last_step_keeps_block():
    # an orbit whose last stored state is finite but whose next image is not
    _, index = henon_steps(2.0, 2.0, 1_000, 0)
    got, got_index = _k.henon_orbit(2.0, 2.0, HENON_A, HENON_B, index, 0)
    want, want_index = henon_steps(2.0, 2.0, index, 0)
    assert got_index == want_index == 0
    assert same_bytes(got, want)


@pytest.mark.parametrize("burn_in", [0, 1_000])
def test_henon_divergence_index_same_across_backends(backend, burn_in):
    # from (2, 2) the default map diverges at iterate 11: after the output starts
    # with burn_in = 0, inside the burn-in with burn_in = 1000
    with pytest.raises(DivergenceError) as err:
        trajectory(SystemConfig("henon"), (2.0, 2.0), 1_000, burn_in)
    assert err.value.index == henon_steps(2.0, 2.0, 1_000, burn_in)[1] == 11


@pytest.mark.parametrize("system,start", [
    ("spiral_f", (0.0, 1.0)), ("skew_T", (0.0, 1.0, 0.3)),
    ("spiral_f", (-1e-300, 1.0)), ("skew_T", (-1e-300, 1.0, 0.3)),
])
def test_trajectory_rejects_nonpositive_radius(system, start):
    # the loops would raise a bare ZeroDivisionError (r0 = 0) or OverflowError (r0 < 0)
    with pytest.raises(ValueError, match=r"start state .* r0 > 0"):
        trajectory(SystemConfig(system), start, 10)


@pytest.mark.parametrize("system,start", [
    ("spiral_f", (1e100, 1.0)), ("skew_T", (1e100, 1.0, 0.3)),
    ("spiral_f", (3e77, 1.0)), ("skew_T", (3e77, 1.0, 0.3)),
])
def test_trajectory_rejects_radius_that_overflows(backend, system, start):
    # from 3e77 on, r_core's numerator and denominator overflow and the next radius is NaN
    with pytest.raises(ValueError, match=re.escape(f"{start[0]!r} of {system}")):
        trajectory(SystemConfig(system), start, 5)


@pytest.mark.parametrize("system,start", [("spiral_f", (1e6, 1.0)), ("skew_T", (1e6, 1.0, 0.3))])
def test_trajectory_accepts_large_finite_radius(backend, system, start):
    traj = trajectory(SystemConfig(system), start, 1_000, 10)
    assert np.isfinite(traj).all() and (np.diff(traj[:, 0]) < 0).all()


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    system=st.sampled_from(["spiral_f", "skew_T"]),
    r0=st.one_of(st.floats(-323.3, 80.0).map(lambda e: 10.0 ** e), st.sampled_from([5e-324, 3e77, 1e80])),
    phi0=st.floats(allow_nan=False, allow_infinity=False),
    t0=st.floats(allow_nan=False, allow_infinity=False),
    kappa=st.floats(0.0, 0.1, exclude_min=True), delta=st.floats(0.0, 0.2, exclude_min=True),
    alpha=st.floats(allow_nan=False, allow_infinity=False),
    n=st.integers(1, 40), burn_in=st.integers(0, 20),
)
def test_trajectory_start_check_property(backend, system, r0, phi0, t0, kappa, delta, alpha, n,
                                         burn_in):
    # r0 log-uniform from 5e-324 to 1e80: trajectory names the start in a ValueError, or
    # returns a finite block equal to step_state iterated.  The C loops check nothing, so no
    # start that trajectory accepts may reach a step on which CPython raises.
    cfg = SystemConfig(system, alpha, kappa, delta)
    start = (r0, phi0, t0)[:2 if system == "spiral_f" else 3]
    try:
        traj = trajectory(cfg, start, n, burn_in)
    except ValueError as exc:
        assert f"{r0!r} of {system}" in str(exc)
        return
    state = (r0, _k.wrap(phi0, _k.TWO_PI), _k.wrap(t0, 1.0))[:len(start)]
    assert np.isfinite(traj).all()
    assert same_bytes(traj.T, _iterate(cfg, state, n, burn_in)[0])


def test_numpy_scalar_arguments_compute_in_double(monkeypatch):
    # the C loops take doubles; step_state must not round in the inputs' float32
    f32 = np.float32
    for cfg, start in [
        (SystemConfig("skew_T", f32(GOLDEN_ROTATION), f32(0.05), f32(0.1)),
         (f32(0.9), f32(0.1), f32(0.3))),
        (SystemConfig("henon"), (f32(0.1), f32(0.2))),
    ]:
        state, want = tuple(map(float, start)), []
        for _ in range(7):
            want.append(state)
            state = step_state(cfg, state)
            assert all(type(v) is float for v in state)
        for lib in (_k._library(), None):  # the C loops where they build, then step_state
            monkeypatch.setattr(_k, "_lib", lib)
            assert same_bytes(trajectory(cfg, start, 5, 2), np.array(want[2:]))


@needs_c
@settings(max_examples=60, deadline=None)
@given(
    r0=st.floats(0.01, 3.0), phi0=st.floats(-20.0, 20.0), t0=st.floats(-3.0, 3.0),
    kappa=st.floats(1e-4, 0.1), delta=st.floats(1e-3, 0.2), alpha=st.floats(0.0, 1.0),
    n=st.integers(1, 60), burn_in=st.integers(0, 30),
)
def test_skew_orbit_equal_property(r0, phi0, t0, kappa, delta, alpha, n, burn_in):
    args = wrapped(r0, phi0, t0, kappa, delta, alpha, n, burn_in)
    assert same_bytes(_k.skew_orbit(*args), skew_steps(*args))


fiber = st.tuples(st.floats(-3.0, 3.0), st.floats(1e-3, 0.2), st.floats(0.0, 1.0))  # (t0, delta, alpha)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    r0=st.floats(0.01, 3.0), phi0=st.floats(-20.0, 20.0), phi1=st.floats(-20.0, 20.0),
    kappa=st.floats(1e-4, 0.1), fiber0=fiber, fiber1=fiber,
    n=st.integers(1, 60), burn_in=st.integers(0, 30),
)
def test_skew_base_rows_property(backend, r0, phi0, phi1, kappa, fiber0, fiber1, n, burn_in):
    # the spiral orbit is rows 0-1 of any skew block, and its radius row iterates r_core alone
    (t0, delta0, alpha0), (t1, delta1, alpha1) = fiber0, fiber1

    def skew(phi, t, delta, alpha, burn_in):
        return trajectory(SystemConfig("skew_T", alpha, kappa, delta), (r0, phi, t), n, burn_in).T

    block = skew(phi0, t0, delta0, alpha0, burn_in)
    assert same_bytes(block[:2], skew(phi0, t1, delta1, alpha1, burn_in)[:2])
    spiral = trajectory(SystemConfig("spiral_f", alpha1, kappa, delta1), (r0, phi0), n, burn_in).T
    assert same_bytes(block[:2], spiral)
    radius = skew(phi0, t0, delta0, alpha0, 1)[0]
    assert same_bytes(radius, skew(phi1, t1, delta1, alpha1, 1)[0])
    r, want = r0, np.empty(n)
    for i in range(n):
        r = _k.r_core(r, kappa)
        want[i] = r
    assert same_bytes(radius, want)


@needs_c
@settings(max_examples=60, deadline=None)
@given(x0=st.floats(-2.0, 2.0), y0=st.floats(-2.0, 2.0), a=st.floats(0.0, 5.0),
       b=st.floats(-1.0, 1.0), n=st.integers(1, 80), burn_in=st.integers(0, 40))
def test_henon_orbit_equal_property(x0, y0, a, b, n, burn_in):
    # many of these orbits diverge, in the burn-in or in the output
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "HENON_A", a)
        mp.setattr(dynamics, "HENON_B", b)
        got, want = _k.henon_orbit(x0, y0, a, b, n, burn_in), henon_steps(x0, y0, n, burn_in)
    assert same_run(got, want, burn_in)


# -- the k = 1 bin search is searchsorted(side="right") --------------------------

SPECIAL = [0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1.0]
finite_or_inf = st.one_of(st.floats(allow_nan=False, allow_subnormal=True), st.sampled_from(SPECIAL))
n_values = st.one_of(st.sampled_from([0, 1, 15, 16, 17]), st.integers(18, 300))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cuts=st.one_of(st.lists(finite_or_inf, min_size=1, max_size=2),
                      st.lists(finite_or_inf, min_size=3, max_size=80)),
       data=st.data())
def test_bin_right_equals_searchsorted(backend, cuts, data):
    cuts = np.sort(np.array(cuts))
    value = st.one_of(finite_or_inf, st.just(math.nan), st.sampled_from(cuts.tolist()))
    n = data.draw(n_values)
    x = np.array(data.draw(st.lists(value, min_size=n, max_size=n)), dtype=float)
    got, want = _k.bin_right(cuts, x), cuts.searchsorted(x, side="right")
    assert got.dtype == np.int64 and np.array_equal(got, want)


def test_bin_right_large_and_empty(backend):
    rng = np.random.default_rng(3)
    cuts = np.unique(rng.normal(size=5_000))
    x = np.concatenate([rng.normal(size=10_001), cuts, [math.nan, -0.0, math.inf, -math.inf]])
    assert np.array_equal(_k.bin_right(cuts, x), cuts.searchsorted(x, side="right"))
    assert np.array_equal(_k.bin_right(cuts[:0], x), np.zeros(len(x), dtype=np.int64))
    assert len(_k.bin_right(cuts, x[:0])) == 0


def test_bin_right_every_tail_length(backend):
    # 0-40 values straddle one and two whole sets of 16 lanes; the C leaves the rest to searchsorted
    rng = np.random.default_rng(5)
    cuts = np.sort(rng.normal(size=37))
    for n in range(41):
        x = rng.normal(size=n)
        x[::3] = rng.choice(cuts, size=len(x[::3]))  # values on a cut land after it
        x[1::7] = math.nan
        for c in (cuts, cuts[:1], cuts[:0]):
            got = _k.bin_right(c, x)
            assert got.dtype == np.int64 and np.array_equal(got, c.searchsorted(x, side="right"))


# -- the k-d tree: its shells are bincounts over sqrt distances -----------------


def bincount_shells(pred, succ, y, ladder):
    """Per-shell (count, mean, M2) by numpy passes: point i is in ball j when
    sqrt(((p0 - y0)^2 + (p1 - y1)^2) + ...) < ladder[j], and in the shell of
    the deepest such j."""
    levels, k = len(ladder), pred.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        s = np.square(pred[:, 0] - y[0])
        for c in range(1, k):
            s += np.square(pred[:, c] - y[c])
    d = np.sqrt(s)
    ball = np.flatnonzero(d < ladder[0])
    shell = np.zeros(len(ball), np.intp)
    for eps in ladder[1:]:
        shell += d[ball] < eps
    count = np.bincount(shell, minlength=levels).astype(float)
    mean, m2 = np.empty((levels, k)), np.zeros(levels)
    for c in range(k):
        col = succ[ball, c]
        mean[:, c] = np.bincount(shell, weights=col, minlength=levels) / np.maximum(count, 1.0)
        dev = col - mean[shell, c]
        m2 += np.bincount(shell, weights=dev * dev, minlength=levels)
    return count, mean, m2


SHELL_CASES = ["normal", "duplicated rows", "non-finite", "empty top ball", "innermost shell",
               "no points", "300 levels"]


def shell_case(case, k):
    rng = np.random.default_rng([k, SHELL_CASES.index(case)])
    n = 0 if case == "no points" else 1_000 + 37 * k
    pred, succ = 1e3 + rng.normal(size=(n, k)), rng.normal(size=(n, k))
    y, ladder = pred[0] if n else np.full(k, 1e3), [2.0, 1.0, 0.5, 0.25, 0.125, 0.0625]
    if case == "duplicated rows":
        pred[rng.integers(0, n, n // 2)] = pred[0]  # at distance 0, in the innermost shell
        dist = np.unique(np.linalg.norm(pred - y, axis=1))  # levels at exactly a point's distance
        ladder = [float(dist[-1]), float(dist[len(dist) // 2]), float(dist[1])]
    elif case == "non-finite":  # _tree rejects it; PairedVectors is finite by construction
        pred[rng.integers(0, n, 40), rng.integers(0, k, 40)] = [math.nan, math.inf, -math.inf, 1e200] * 10
    elif case == "empty top ball":
        y = y + 100.0
    elif case == "innermost shell":
        ladder = [20.0, 10.0]
    elif case == "300 levels":
        ladder = np.geomspace(4.0, 1e-3, 300).tolist()
    return pred, succ, y, ladder


def tree_shells_merged(pred, succ, ys, ladder):
    """Per-shell (count, mean, M2) of the references ys: the tree's whole and
    scanned parts of each shell, merged as BruteEngine merges them."""
    tree = _k._tree(pred, succ)
    return _merge(*_k._tree_shells(tree, np.reshape(ys, (-1, pred.shape[1])), _square_cut(ladder)))


def on_both_backends(backend, monkeypatch, compute):
    """The arrays compute() returns on the fixture's backend; on "c", checked
    byte for byte against those of the numpy passes."""
    got = compute()
    if backend == "c":
        with monkeypatch.context() as m:
            m.setattr(_k, "_lib", None)
            m.setattr(_k, "BACKEND", "python")
            assert all(same_bytes(a, b) for a, b in zip(got, compute()))
    return got


@pytest.mark.parametrize("case", SHELL_CASES)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_ball_shells_equal_bincount(backend, monkeypatch, case, k):
    # the tree's shells against the sqrt-distance passes: counts exact, moments
    # to rounding, and the two backends' shells bit for bit
    pred, succ, y, ladder = shell_case(case, k)
    if case == "non-finite":
        with pytest.raises(ValueError, match="finite points"):
            _k._tree(pred, succ)
        return
    count, mean, m2 = on_both_backends(
        backend, monkeypatch, lambda: tree_shells_merged(pred, succ, y, ladder))
    want = bincount_shells(pred, succ, y, ladder)
    assert np.array_equal(count[0], want[0])
    assert np.allclose(mean[0], want[1], rtol=0.0, atol=1e-12 * np.abs(succ).max(initial=1.0))
    assert np.allclose(m2[0], want[2], rtol=1e-12, atol=0.0)
    if case == "empty top ball" or case == "no points":
        assert count.sum() == 0
    elif case == "innermost shell":
        assert count[0, -1] == len(pred)
    elif case == "300 levels":
        assert count[0, 256:].sum() > 0  # shell indices past a uint8


# -- the tree engine against enumeration ---------------------------------------


def enumerated_table(pred, succ, ys, ladder):
    """count (m, L), chi (m, L, k) and sigma (m, L) by enumeration: a point is
    in the ball of (y, eps) when its squared distance, summed column by
    column, is below _square_cut(eps); chi and sigma by math.fsum."""
    count, chi = np.zeros((len(ys), len(ladder))), np.zeros((len(ys), len(ladder), pred.shape[1]))
    sigma = np.zeros((len(ys), len(ladder)))
    for r, y in enumerate(ys):
        with np.errstate(over="ignore", invalid="ignore"):
            s = np.square(pred[:, 0] - y[0])
            for c in range(1, pred.shape[1]):
                s += np.square(pred[:, c] - y[c])
        for j, eps in enumerate(ladder):
            cloud = succ[s < _square_cut(eps)]
            if len(cloud):
                count[r, j] = len(cloud)
                chi[r, j] = [math.fsum(col) / len(cloud) for col in cloud.T]
                sigma[r, j] = math.sqrt(math.fsum(((cloud - chi[r, j]) ** 2).ravel()) / len(cloud))
    return count, chi, sigma


def point_at(s, k):
    """A point x with ((x0^2 + x1^2) + ...) == s exactly, near the axis of x0."""
    for x1 in np.linspace(0.0, 1e-3, 200):
        x0 = math.sqrt(s - x1 * x1)
        for step in range(-4, 5):
            x = np.zeros(k)
            x[0], x[1] = x0 + step * math.ulp(x0), x1
            got = np.square(x[0]) + np.square(x[1])
            if got == s:
                return x
    raise AssertionError(f"no point at squared distance {s!r}")


ENGINE_CASES = ["cell faces", "on a sphere", "duplicate rows", "one cell", "reference outside",
              "random", "300 levels", "one pair", "widths past the float range", "atom and circle"]


def engine_case(case, k):
    """(pred, succ, ys, ladder): a series, its references and a ladder.  A node
    of more than _k.LEAF equal rows is never split, so the "cell faces", "on a
    sphere" and "one cell" cases put such a node's box, one point, exactly on a
    sphere: its dmin and dmax both equal a cut."""
    rng = np.random.default_rng([k, ENGINE_CASES.index(case)])
    atom = _k.LEAF + 8
    if case == "cell faces":  # every coordinate an integer; 40 rows at s == 4 from y = 0
        pred = rng.integers(0, 4, (300, k)).astype(float)
        pred[:atom] = 2.0 * np.eye(k)[0]
        ys, ladder = np.concatenate([np.zeros((1, k)), pred[atom:atom + 20]]), \
            [3.0, 2.0, 1.5, 1.0, 0.5]
    elif case == "on a sphere":
        # from y = 0: the rows at b, at s == cut[0], are outside; those at c, at
        # the float below the cut, and a are inside the top ball
        cut = _square_cut(1.5)
        b = point_at(cut, k)
        c = point_at(np.nextafter(cut, 0.0), k)[::-1].copy()
        a = np.zeros(k)
        a[0] = 1.1
        pred = np.array([a] + [b] * atom + [c] * atom + [c + 0.2, np.full(k, 2.5)])
        ys, ladder = np.zeros((1, k)), [1.5, 1.0]
    elif case == "duplicate rows":  # half the rows one point
        pred = rng.uniform(0.0, 3.0, (400, k))
        pred[::2] = pred[1]
        ys, ladder = np.concatenate([pred[:3], pred[1:2] + 0.05]), [2.0, 1.0, 0.1, 0.01]
    elif case == "one cell":  # the series one node, at s == 1 and s == 0.25 from two references
        b = np.full(k, 0.25)
        pred = np.tile(b, (300, 1))
        ys, ladder = b - np.array([[0.0], [1.0], [0.5], [0.375]]) * np.eye(k)[0], \
            [3.0, 1.0, 0.5, 0.25]
    elif case == "reference outside":
        pred = rng.uniform(0.0, 1.0, (500, k))
        ys, ladder = np.array([np.full(k, 1.5), np.full(k, -0.7), np.full(k, 40.0)]), \
            [3.0, 1.2, 0.8, 0.6]
    elif case == "random":
        pred = rng.normal(size=(2_000, k))
        ys, ladder = pred[:25], [2.0, 1.0, 0.5, 0.25, 0.125]
    elif case == "300 levels":  # levels down to 1e-10
        pred = rng.uniform(0.0, 1.0, (600, k))
        pred[:50] = pred[0]
        pred[50:60] = pred[0] + np.logspace(-2, -8, 10)[:, None]
        ys, ladder = pred[:3], np.geomspace(1.0, 1e-10, 300).tolist()
    elif case == "one pair":
        pred = rng.normal(size=(1, k))
        ys, ladder = np.concatenate([pred, pred + 0.1]), [1.0, 0.1, 0.01]
    elif case == "widths past the float range":  # box widths and squares that overflow to inf
        pred = rng.normal(size=(300, k))
        pred[:2, 0], pred[2:4, -1] = [1.5e308, -1.5e308], [1e300, -1e300]
        ys, ladder = pred[4:10], [math.inf, 1e300, 1.0, 0.5]
    else:  # E4's p side: 2,000 rows within 1e-9 of one point, the others on a circle
        angle = rng.uniform(0.0, 2.0 * math.pi, 1_000)
        circle = np.zeros((1_000, k))
        circle[:, 0], circle[:, 1] = np.cos(angle), np.sin(angle)
        pred = np.concatenate([np.eye(k)[0] + rng.uniform(-1e-9, 1e-9, (2_000, k)), circle])
        ys, ladder = np.concatenate([pred[:10], pred[-5:]]), np.geomspace(0.5, 1e-10, 14).tolist()
    return pred, rng.normal(size=pred.shape), ys, ladder


@pytest.mark.parametrize("k,case", [(k, case) for k in (2, 3, 4) for case in ENGINE_CASES]
                         + [(8, "random")])
def test_cell_engine_equals_enumeration(backend, monkeypatch, case, k):
    """BruteEngine's (m, L) table on a k-d tree: counts as enumerated, chi and
    sigma within 1e-12, and the C's table equal to the numpy passes' bit for bit."""
    pred, succ, ys, ladder = engine_case(case, k)
    count, chi, sigma = on_both_backends(
        backend, monkeypatch, lambda: BruteEngine(PairedVectors(k, pred, succ), ys, ladder)._table)
    want_count, want_chi, want_sigma = enumerated_table(pred, succ, ys, ladder)
    assert np.array_equal(count, want_count)
    assert np.all(np.abs(chi - want_chi) <= 1e-12) and np.all(np.abs(sigma - want_sigma) <= 1e-12)
    if case == "cell faces":  # the 40 rows at s == 4 are in the top ball, not in the next
        assert count[0, 0] - count[0, 1] >= 40
    elif case == "on a sphere":  # a, and the rows at c at the float below the cut; not b
        assert count.tolist() == [[1 + 40, 0]]
    elif case == "one cell":
        assert count.tolist() == [[300] * 4, [300, 0, 0, 0], [300, 300, 0, 0], [300, 300, 300, 0]]
    elif case == "300 levels":
        assert count[0, -1] >= 50
    elif case == "atom and circle":
        assert (count[:10, -1] >= 1).all() and (count[:10, 0] >= 2_000).all()


@pytest.mark.parametrize("n,k", [(10**5, k) for k in range(1, 21)])
def test_tree_invariants(n, k):
    """On random-normal sliding-window series: the C's tree equals the numpy
    fallback's byte for byte, every internal node has two non-empty children,
    every box is tight, every leaf's run ascends, and there are at most 2n - 1
    nodes."""
    x = np.random.default_rng(k).normal(size=n + k)
    pred = np.lib.stride_tricks.sliding_window_view(x[:-1], k)
    _check_tree(pred, np.lib.stride_tricks.sliding_window_view(x[1:], k))


def test_tree_peeling_one_point_per_split():
    """Points 2^-i: each midpoint split peels off the largest point alone,
    so the tree has 2 (n - LEAF) + 1 nodes, near the 2n - 1 bound, and is
    n - LEAF deep.  The C grows its node arrays and its stack from 64 nodes
    to hold them."""
    n = 1_000
    pred = 2.0 ** -np.arange(n, dtype=float)[:, None]
    tree = _check_tree(pred, np.column_stack([pred[:, 0] ** 2, -pred[:, 0]]))
    assert len(tree.start) == 2 * (n - _k.LEAF) + 1
    peeled = tree.right[tree.right > 0]
    assert (tree.stop[peeled] - tree.start[peeled] == 1).all()
    ladder = [1.0, 2.0**-3, 2.0**-40, 2.0**-900, 0.0]
    with np.errstate(under="ignore"):
        want = [[np.count_nonzero(np.square(pred[:, 0] - y) <= eps * eps) for eps in ladder]
                for y in pred[::97, 0]]
    assert _k._ball_counts(pred, pred[::97], ladder).tolist() == want


def _check_tree(pred, succ):
    """The tree of pred and succ, checked: see test_tree_invariants."""
    n = len(pred)
    tree = _k._tree(pred, succ)
    if HAVE_GCC:
        with pytest.MonkeyPatch.context() as m:
            m.setattr(_k, "_lib", None)
            m.setattr(_k, "BACKEND", "python")
            assert all(same_bytes(a, b) for a, b in zip(tree, _k._tree(pred, tree.succ)))
    start, stop, right = tree.start, tree.stop, tree.right
    inner = np.flatnonzero(right)
    assert len(start) <= 2 * n - 1 and start[0] == 0 and stop[0] == n
    assert (stop[inner] - start[inner] > _k.LEAF).all() and (right[inner] > inner + 1).all()
    assert (start[inner + 1] == start[inner]).all() and (stop[right[inner]] == stop[inner]).all()
    assert (stop[inner + 1] == start[right[inner]]).all()
    assert (stop > start).all() and np.array_equal(np.sort(tree.order), np.arange(n))
    assert same_bytes(tree.pts, pred.take(tree.order, axis=0))
    leaf = right == 0  # a stable partition: each leaf's run ascends
    falls = np.concatenate([[0], np.cumsum(np.diff(tree.order) < 0)])
    assert np.array_equal(falls[stop[leaf] - 1], falls[start[leaf]])
    ends = np.stack([start, stop], axis=1).ravel()
    padded = np.concatenate([tree.pts, tree.pts[:1]])
    tight = [f.reduceat(padded, ends, axis=0)[::2] for f in (np.minimum, np.maximum)]
    assert same_bytes(tree.box, np.stack(tight, axis=1))
    return tree


def test_ball_shells_reject_bad_shapes(backend):
    pred, succ = np.zeros((5, 2)), np.zeros((5, 2))
    for args in [(pred, succ[:4]), (pred[:, :0], succ[:, :0]), (pred[0], succ[0]),
                 (pred + math.nan, succ), (pred - math.inf, succ)]:
        with pytest.raises(ValueError, match="need"):
            _k._tree(*args)
    tree = _k._tree(pred, succ)
    for ys, cuts in [([0.0, 0.0], [1.0]), ([[0.0]], [1.0]), ([[0.0, 0.0]], []),
                     ([[0.0, 0.0]], [[1.0]])]:
        with pytest.raises(ValueError, match="need"):
            _k._tree_shells(tree, ys, cuts)


# -- E6's closed-ball counts: a k-d tree walk per centre against enumeration -----


def enumerated_counts(points, centers, ladder):
    """(m, L) ball counts in Python floats: x is in the ball of (y, eps) when
    ((x0 - y0)^2 + (x1 - y1)^2) + ... <= eps * eps."""
    out = np.zeros((len(centers), len(ladder)), dtype=np.int64)
    for r, y in enumerate(centers.tolist()):
        for x in points.tolist():
            s = 0.0
            for a, b in zip(x, y):
                s += (a - b) * (a - b)
            out[r] += [s <= eps * eps for eps in ladder]
    return out


BALL_CASES = ["pure atom", "atom and circle", "on the spheres", "centres outside", "below one leaf",
              "one point", "random", "squares past the float range"]


def ball_case(case, d):
    """(points, centers, ladder) of an (n, d) measure."""
    rng = np.random.default_rng([d, BALL_CASES.index(case)])
    ladder = [1.0, 0.5, 0.1, 0.01, 0.001]
    if case == "pure atom":
        points = np.tile(rng.normal(size=d), (700, 1))
        centers = np.concatenate([points[:2], points[:1] + 0.05 * np.eye(d)[0]])
    elif case == "atom and circle":  # half the rows on p, the others on the circle through -p
        angle = rng.uniform(0.0, 2.0 * math.pi, 600)
        points = np.zeros((1_200, d))
        points[:600, 0] = 1.0
        points[600:, 0] = np.cos(angle)
        points[600:, 1 % d] = np.sin(angle) if d > 1 else -1.0
        centers = points[rng.integers(0, len(points), 30)]
    elif case == "on the spheres":  # from y = 0: rows at s == eps * eps on each axis, and beside it
        rows = []
        for eps in ladder:
            for axis in range(d):
                for x in (eps, -eps, np.nextafter(eps, 2.0), np.nextafter(eps, 0.0)):
                    rows.append(np.eye(d)[axis] * x)
            if d > 1:
                rows += [point_at(np.nextafter(eps * eps, 2.0), d), point_at(eps * eps, d)]
        points = np.concatenate([np.array(rows), rng.normal(scale=0.3, size=(300, d))])
        centers = np.zeros((1, d))
        assert np.count_nonzero(np.square(points).sum(axis=1) == ladder[0] ** 2) >= 2 * d
    elif case == "centres outside":
        points = rng.uniform(0.0, 1.0, (500, d))
        centers = np.array([np.full(d, 1.5), np.full(d, -0.7), np.full(d, 40.0)])
        ladder = [3.0, 1.2, 0.8, 0.6]
    elif case == "below one leaf":
        points = rng.normal(size=(5, d))
        centers = np.concatenate([points, points[:1] + 0.3])
    elif case == "one point":
        points = rng.normal(size=(1, d))
        centers = np.concatenate([points, points + 0.3, points + 1e-3])
    elif case == "random":
        points = rng.normal(size=(1_500, d))
        points[::3] = points[1]
        centers = points[rng.integers(0, len(points), 25)]
        ladder = [4.0, 2.0, 1.0, 0.5, 0.25, 0.125]
    else:  # rows 1e160 apart: their squares overflow to inf, which is <= 1e200 * 1e200 == inf
        points = 1e160 * rng.integers(-2, 3, (60, d)).astype(float)
        centers = np.concatenate([points[:5], points[:1] + 1e150])
        ladder = [1e200, 1e154, 1.0]
    return points, centers, ladder


@pytest.mark.parametrize("case", BALL_CASES)
@pytest.mark.parametrize("d", [1, 2, 5, 9])
def test_ball_counts_equal_enumeration(backend, case, d):
    points, centers, ladder = ball_case(case, d)
    before = points.tobytes()
    got = _k._ball_counts(points, centers, ladder)
    assert got.dtype == np.int64 and np.array_equal(got, enumerated_counts(points, centers, ladder))
    assert points.tobytes() == before  # the tree permutes a copy
    if case == "pure atom":
        assert got.tolist()[:2] == [[700] * 5] * 2 and got[2].tolist() == [700, 700, 700, 0, 0]
    elif case == "one point":
        assert got[0].tolist() == [1] * 5
    elif case == "squares past the float range":
        assert (got[:, 0] == 60).all() and (got[:, 1] < 60).all()


def test_ball_counts_reject_bad_input(backend):
    points, centers = np.zeros((5, 2)), np.zeros((3, 2))
    for args in [(points[0], centers, [1.0]), (points[:0], centers, [1.0]),
                 (points[:, :0], centers[:, :0], [1.0]), (points, centers[:, :1], [1.0]),
                 (points, centers[0], [1.0]), (points, centers, []), (points, centers, [[1.0]]),
                 (points, centers, [0.5, 1.0]), (points, centers, [1.0, math.nan]),
                 (np.full((5, 2), math.inf), centers, [1.0]), (points, centers + math.nan, [1.0])]:
        with pytest.raises(ValueError, match="need"):
            _k._ball_counts(*args)


@pytest.mark.parametrize("engine,k", [(Sorted1DEngine, 1), (BruteEngine, 1), (BruteEngine, 2)])
def test_engine_build_leaves_series_unchanged(backend, engine, k):
    # at k = 1 the successor column handed to the moment passes is the series' own memory
    s = delay_series(np.random.default_rng(4).normal(size=2_000), k)
    before = s.predecessors.tobytes(), s.successors.tobytes()
    engine(s, s.predecessors[:200:7], [1.0, 0.5, 0.1])
    assert (s.predecessors.tobytes(), s.successors.tobytes()) == before


# -- start states just below zero wrap to zero, not to the period ---------------


def test_start_wrap_skew(backend):
    traj = trajectory(SystemConfig("skew_T"), (0.5, -1e-20, -1e-20), 1)
    assert traj[0, 1] == 0.0 and traj[0, 2] == 0.0


def test_start_wrap_spiral(backend):
    traj = trajectory(SystemConfig("spiral_f"), (0.5, -1e-20), 1)
    assert traj[0, 1] == 0.0


def test_start_wrap_model():
    traj = trajectory(SystemConfig("model_T0"), (1.0, -1e-20), 2)
    assert traj[0, 1] == 0.0 and traj[1, 1] == GOLDEN_ROTATION


def test_start_wrap_rotation():
    traj = trajectory(SystemConfig("rotation"), (-1e-20,), 2)
    assert traj[0, 0] == 0.0 and traj[1, 0] == GOLDEN_ROTATION


# -- every artifact is the same whichever loops ran ------------------------------


SMALL_RUNS = [
    ("E1_parabolic", {"rho_n": 20_000, "rho_fit_hi": 20_000, "visits_n": 60_000}),
    ("E2_natural_measure", {"m_iterates": 30_000}),
    ("E4_counterexample", {"orbit_n": 200_000, "n_obs": 2, "n_refs": 20}),
    ("E6_idim", {"n_samples": 5_000, "n_centers": 100, "point_n": 500,
                 "skew_orbit_n": 50_000, "skew_stride": 5}),
    ("E5_ergodic_predict", {"rot_n": 20_000, "henon_n": 20_000, "n_refs": 20}),
    ("E3_model_nonpredict", {"n_samples": 20_000, "n_obs": 2, "n_refs": 20}),
]


@needs_c
@pytest.mark.parametrize("experiment,overrides", SMALL_RUNS)
def test_artifacts_equal_across_backends(experiment, overrides, tmp_path, monkeypatch):
    cfg = ExperimentConfig(experiment, 7, overrides)
    run_experiment(cfg, tmp_path / "c")
    assert _k.BACKEND == "c"
    monkeypatch.setattr(_k, "_lib", None)
    monkeypatch.setattr(_k, "BACKEND", "python")
    run_experiment(cfg, tmp_path / "python")
    files = sorted(p.name for p in (tmp_path / "c").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "python").iterdir())
    for name in files:
        assert (tmp_path / "c" / name).read_bytes() == (tmp_path / "python" / name).read_bytes(), name
