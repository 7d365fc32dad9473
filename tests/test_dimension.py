import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import cKDTree

import delaylab
from delaylab import dimension
from delaylab.dynamics import ambient_of_states, SystemConfig, trajectory
from delaylab.predictability import _tree_balls
from delaylab.dimension import (
    _cell_entropy,
    ball_mass_dimension,
    box_counting_idim,
    point_mass_measure,
    pointwise_dim_quantiles,
    sample_model_measure,
    uniform_segment_measure,
)

LADDER = [2.0 ** (-j) for j in range(4, 9)]


def cell_entropy(pts, eps):
    """_cell_entropy of an (n, d) array, with the columns and bounds box_counting_idim takes."""
    cols = np.ascontiguousarray(np.asarray(pts, dtype=float).T)
    return _cell_entropy(cols, cols.min(axis=1), cols.max(axis=1), eps)


def dict_entropy(pts, eps):
    """The cube entropy as a Python loop takes it: 1/n added per point into a dict
    keyed by the cube's index tuple, the cubes then read in sorted order."""
    masses = {}
    for cell in map(tuple, np.floor(pts / eps).astype(np.int64).tolist()):
        masses[cell] = masses.get(cell, 0.0) + 1.0 / len(pts)
    m = np.array([masses[c] for c in sorted(masses)])
    return float(np.sum(m * np.log(m))), len(m)


def test_sample_model_measure_reproducible():
    a = sample_model_measure(4, 123)
    b = sample_model_measure(4, 123)
    assert a.shape == (4, 5) and np.array_equal(a, b)
    c = sample_model_measure(4, 124)
    assert not np.array_equal(a, c)


def test_sample_model_measure_atom_fraction():
    points = sample_model_measure(100_000, 9)
    atom = np.all(np.abs(points - np.array([1, 0, 0, 1, 0])) < 1e-12, axis=1)
    assert abs(atom.mean() - 0.5) < 0.01


def test_sample_model_measure_circle_points_on_circle():
    points = sample_model_measure(10_000, 10)
    atom = np.all(np.abs(points - np.array([1, 0, 0, 1, 0])) < 1e-12, axis=1)
    circ = points[~atom]
    assert np.max(np.abs(circ[:, 0] + 1.0)) < 1e-12  # x1 = -1 over the marked circle
    assert np.max(np.abs(circ[:, 1])) < 1e-12
    assert np.max(np.abs(circ[:, 2])) < 1e-12
    assert np.max(np.abs(circ[:, 3] ** 2 + circ[:, 4] ** 2 - 1.0)) < 1e-12


def test_point_mass_both_estimators_zero():
    pm = point_mass_measure(5_000)
    ball, pw = ball_mass_dimension(pm, LADDER, 500, 1)
    assert ball.estimate == 0.0
    assert all(v == 0.0 for _, v in ball.ladder)
    assert np.all(pw == 0.0)
    box = box_counting_idim(pm, LADDER)
    assert box.estimate == 0.0
    assert box.r_squared == 1.0


def test_uniform_segment_estimates():
    seg = uniform_segment_measure(100_000, 2)
    ball, _ = ball_mass_dimension(seg, LADDER, 1_500, 3)
    assert abs(ball.estimate - 1.0) <= 0.1
    box = box_counting_idim(seg, LADDER)
    assert abs(box.estimate - 1.0) <= 0.1
    assert abs(ball.estimate - box.estimate) <= 0.15


def test_cell_entropy_matches_manual_three_points():
    # masses 1/4, 1/4, 1/2: the third point is repeated over two of four rows
    pts = np.array([[0.1, 0.1], [0.12, 0.11], [0.9, 0.9], [0.9, 0.9]])
    eps = 0.5
    # cells: (0,0) holds mass 0.5, (1,1) holds mass 0.5
    manual = 0.5 * math.log(0.5) + 0.5 * math.log(0.5)
    assert cell_entropy(pts, eps)[0] == pytest.approx(manual, abs=1e-15)
    eps = 0.02
    # cells [0.1, 0.12) and [0.12, 0.14) split the first two points
    pts2 = np.array([[0.11, 0.11], [0.13, 0.11], [0.9, 0.9], [0.9, 0.9]])
    manual = 2 * (0.25 * math.log(0.25)) + 0.5 * math.log(0.5)
    assert cell_entropy(pts2, eps)[0] == pytest.approx(manual, abs=1e-15)


def test_cell_entropy_rejects_cube_index_beyond_int64():
    # 1.0 / 2^-63 = 2^63 would wrap to int64's -2^63 and merge cubes
    pts = np.array([[1.0, 0.0], [0.0, 0.0]])
    assert cell_entropy(pts, 2.0**-62) == (math.log(0.5), 2)
    for eps in (2.0**-63, 1e-320):
        with pytest.raises(ValueError, match=f"eps = {eps!r}"):
            cell_entropy(pts, eps)
    with pytest.raises(ValueError, match="eps = "):
        box_counting_idim(pts, [2.0**-60, 2.0**-64])


def test_atom_weight_moves_entropy_exactly():
    base = np.array([[0.1, 0.1], [0.9, 0.9]])
    # an atom of mass w_atom is atom_rows of n_rows rows; the rest splits evenly over base
    for w_atom, n_rows, atom_rows in ((0.2, 10, 2), (0.5, 4, 2)):
        base_rows = (n_rows - atom_rows) // 2
        pts = np.vstack([np.repeat(base, base_rows, axis=0), np.tile([5.0, 5.0], (atom_rows, 1))])
        h, _ = cell_entropy(pts, 0.5)
        manual = 2 * ((1 - w_atom) / 2) * math.log((1 - w_atom) / 2) + w_atom * math.log(w_atom)
        assert h == pytest.approx(manual, abs=1e-15)


def test_scale_covariance_power_of_two():
    rng = np.random.default_rng(4)
    pts = np.column_stack([rng.random(20_000), np.zeros(20_000)])
    ladder4 = [4.0 * e for e in LADDER]
    ball, _ = ball_mass_dimension(pts, LADDER, 800, 5)
    ball4, _ = ball_mass_dimension(4.0 * pts, ladder4, 800, 5)
    assert abs(ball.estimate - ball4.estimate) < 1e-9
    box = box_counting_idim(pts, LADDER)
    box4 = box_counting_idim(4.0 * pts, ladder4)
    assert abs(box.estimate - box4.estimate) < 1e-9


def test_model_measure_half_quick():
    mu = sample_model_measure(40_000, 6)
    ball, pw = ball_mass_dimension(mu, LADDER, 1_000, 7)
    box = box_counting_idim(mu, LADDER)
    assert abs(ball.estimate - 0.5) <= 0.12
    assert abs(box.estimate - 0.5) <= 0.12
    q = pointwise_dim_quantiles(pw)
    assert set(q) == {0.05, 0.1, 0.25, 0.5}
    assert all(np.isfinite(v) for v in q.values())


def test_ladder_validation_and_degenerate():
    mu = uniform_segment_measure(100, 8)
    with pytest.raises(ValueError):
        ball_mass_dimension(mu, [0.1, 0.2], 10, 0)
    with pytest.raises(ValueError):
        ball_mass_dimension(mu, [0.1], 10, 0)
    with pytest.raises(ValueError):
        box_counting_idim(mu, [0.1])
    with pytest.raises(ValueError):
        box_counting_idim(mu, [0.2, 0.2])


@pytest.mark.parametrize("points,shape", [
    (np.zeros((0, 2)), (0, 2)),              # no point to give mass 1/n
    (np.zeros((3, 0)), (3, 0)),
    (np.arange(4.0), (4,)),                  # not (n, d)
    (np.zeros((2, 2, 2)), (2, 2, 2)),
    (np.array([[np.nan, 0.0]]), (1, 2)),
    (np.array([[0.0, 0.0], [np.inf, 1.0]]), (2, 2)),
])
def test_estimators_reject_bad_points(points, shape):
    for call in (lambda: ball_mass_dimension(points, LADDER, 10, 0),
                 lambda: box_counting_idim(points, LADDER)):
        with pytest.raises(ValueError, match=rf"points must be .* got shape {re.escape(str(shape))}"):
            call()


@pytest.mark.parametrize("bad", [2.5, 3.0, True, np.bool_(True), "3", None, 0, -1])
def test_ball_mass_rejects_bad_n_centers(bad):
    with pytest.raises(ValueError, match=f"n_centers must be an integer >= 1, not {re.escape(repr(bad))}"):
        ball_mass_dimension(uniform_segment_measure(100, 8), LADDER, bad, 0)


def test_estimate_r_squared_in_range():
    seg = uniform_segment_measure(5_000, 11)
    ball, _ = ball_mass_dimension(seg, LADDER, 300, 12)
    assert 0.0 <= ball.r_squared <= 1.0
    eps_values = [e for e, _ in ball.ladder]
    assert all(b < a for a, b in zip(eps_values, eps_values[1:]))
    # E6's idim.csv reads levels_used directly: one entry per level from both routes
    assert ball.levels_used == (300,) * len(LADDER)
    box = box_counting_idim(seg, LADDER)
    assert len(box.levels_used) == len(LADDER) and min(box.levels_used) >= 1


def test_ball_mass_repeated_centers_equal_per_center_queries():
    """Centers on the atom repeat; every level equals one cKDTree query per drawn center."""
    points = sample_model_measure(2_000, 31)
    n, n_centers, seed = len(points), 400, 33
    est, pointwise = ball_mass_dimension(points, LADDER, np.int64(n_centers), seed)
    # the uniform p given explicitly: p=None draws other centres
    idx = np.random.default_rng(seed).choice(n, size=n_centers, replace=True, p=np.full(n, 1.0 / n))
    centers = points[idx]
    assert len(np.unique(centers, axis=0)) < n_centers // 2  # the atom repeats
    tree = cKDTree(points)
    for eps, value in est.ladder:
        mass = np.array([tree.query_ball_point(c, eps, return_length=True) for c in centers]) / n
        want = np.log(mass) / math.log(eps)
        assert value == float(np.mean(want))
    assert pointwise.tobytes() == want.tobytes()  # the finest level
    assert est.levels_used == (n_centers,) * len(LADDER)


def skew_orbit_measure(n, stride):
    skew = SystemConfig("skew_T")
    return ambient_of_states(skew, trajectory(skew, (0.5, 1.0, 0.3), n)[::stride])


@pytest.mark.parametrize("name,points", [
    ("model", sample_model_measure(4_000, 51)), ("segment", uniform_segment_measure(4_000, 52)),
    ("point", point_mass_measure(300)), ("skew", skew_orbit_measure(40_000, 10)),
])
def test_ball_counts_equal_ckdtree(name, points):
    """E6's four kinds of measure: the k-d tree walk counts what cKDTree's
    closed-ball queries count, on every (center, level).  No (center, point)
    pair lies within 1e-12 of a sphere, so the closed counts pin the open
    ones."""
    centers = points[np.random.default_rng(53).integers(0, len(points), 300)]
    s = sum(np.square(points[:, c] - centers[:, c, None]) for c in range(points.shape[1]))
    assert all((np.abs(s / (eps * eps) - 1.0) > 1e-12).all() for eps in LADDER)
    tree = cKDTree(points)
    want = np.stack([tree.query_ball_point(centers, eps, return_length=True) for eps in LADDER], 1)
    assert np.array_equal(_tree_balls(points, np.empty((len(points), 0)), centers, LADDER)[0], want)


def test_e6_loads_no_scipy(tmp_path):
    """scipy is a test dependency only: E6 runs without importing it."""
    code = ("import sys\n"
            "from delaylab.experiments import ExperimentConfig, run_experiment\n"
            "overrides = dict(n_samples=2_000, n_centers=50, point_n=100, skew_orbit_n=3_000,\n"
            "                 skew_stride=1)\n"
            f"run_experiment(ExperimentConfig('E6_idim', 7, overrides), {str(tmp_path)!r})\n"
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n")
    src = str(Path(delaylab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "idim.csv").exists()


def test_cell_entropy_sums_one_over_n_per_point():
    """Each cube's mass is 1/n added once per point in index order, as a Python loop does."""
    rng = np.random.default_rng(41)
    pts = rng.random((997, 2))
    for eps in (0.5, 0.1, 0.02):
        assert cell_entropy(pts, eps) == dict_entropy(pts, eps)


@pytest.fixture
def rank_calls(monkeypatch):
    """The lengths of the arrays _cell_entropy replaces by their dense rank."""
    calls = []

    def spy(values):
        calls.append(len(values))
        return rank(values)

    rank = dimension._dense_rank
    monkeypatch.setattr(dimension, "_dense_rank", spy)
    return calls


@pytest.mark.parametrize("d", range(1, 7))
def test_cell_entropy_key_equals_dict_oracle(d, rank_calls):
    """The int64 key groups and orders the cubes as the index tuples do, in every
    dimension, across the origin, on an atom, on one point, and where the
    spans' product passes 2^63 and the rank step runs."""
    rng = np.random.default_rng(100 + d)
    spread = rng.random((500, d)) * 4.0 - 2.0
    atom = np.vstack([spread[:200], np.tile(spread[0], (300, 1))])
    ranked = 0
    for pts in (spread, atom, spread[:1]):
        for eps in (3.0, 0.5, 0.013, 1e-4, 1e-9, 2.0**-62):
            rank_calls.clear()
            assert cell_entropy(pts, eps) == dict_entropy(pts, eps)
            cells = np.floor(pts / eps).astype(np.int64).tolist()
            spans = [max(c) - min(c) + 1 for c in zip(*cells)]
            assert bool(rank_calls) == (math.prod(spans) >= 2**63)
            ranked += bool(rank_calls)
    # from 2^64 cubes across one column at d = 1 to 4e4 per column at d = 5
    assert ranked == {1: 2, 2: 4, 3: 4, 4: 4, 5: 6, 6: 6}[d]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_cell_entropy_property(data):
    n = data.draw(st.integers(1, 40))
    d = data.draw(st.integers(1, 6))
    # few distinct coordinates, so points share cubes and repeat as atoms
    values = data.draw(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=8))
    pts = np.array(data.draw(st.lists(st.lists(st.sampled_from(values), min_size=d, max_size=d),
                                      min_size=n, max_size=n)))
    eps = data.draw(st.floats(1e-12, 1e4))
    assert cell_entropy(pts, eps) == dict_entropy(pts, eps)


@pytest.mark.parametrize("call", [lambda pts, ladder: box_counting_idim(pts, ladder),
                                  lambda pts, ladder: ball_mass_dimension(pts, ladder, 5, 0)])
def test_estimators_reject_infinite_level(call):
    # the engines take an infinite level as an infinite cut; a dimension slope cannot
    pts = uniform_segment_measure(100, 8)
    with pytest.raises(ValueError, match=r"^ladder must be finite, got 3 levels, level 0 = inf$"):
        call(pts, [math.inf, 0.5, 0.25])
