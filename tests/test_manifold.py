import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from delaylab._kernels import angle_dist_core
from delaylab.dynamics import (ambient_of_states, sample_model_states, SYSTEM_IDS, SystemConfig,
                               trajectory)
from delaylab.manifold import product_ambient_array
from delaylab.observables import evaluate, monomial_basis, Observable, perturb

TWO_PI = 2 * math.pi


def test_wrap_examples():
    # start states are wrapped onto the circle before the first iterate
    rotation = SystemConfig("rotation", alpha=0.25)
    assert trajectory(rotation, (1.25,), 1)[0, 0] == 0.25
    assert trajectory(rotation, (-0.5,), 1)[0, 0] == 0.5
    assert trajectory(rotation, (0.0,), 1)[0, 0] == 0.0
    skew = trajectory(SystemConfig("skew_T"), (0.5, 1.0 + TWO_PI, 1.25), 1)
    assert skew[0, 1] == pytest.approx(1.0, abs=1e-15)
    assert skew[0, 2] == 0.25


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_wrap_rejects_nonfinite(bad):
    with pytest.raises(ValueError, match="non-finite start state"):
        trajectory(SystemConfig("rotation"), (bad,), 1)
    with pytest.raises(ValueError, match="non-finite start state"):
        trajectory(SystemConfig("skew_T"), (0.5, 1.0, bad), 1)


def test_circle_distance_examples():
    assert angle_dist_core(0.1, TWO_PI - 0.1) == pytest.approx(0.2, abs=1e-15)
    assert angle_dist_core(2.37, 2.37) == 0.0
    assert angle_dist_core(0.0, math.pi) == math.pi
    assert angle_dist_core(-0.3, 0.0) == pytest.approx(0.3, abs=1e-15)


@given(st.floats(0, 6.28), st.floats(0, 6.28))
def test_circle_distance_symmetric_and_bounded(a, b):
    d = angle_dist_core(a, b)
    assert d == angle_dist_core(b, a)
    assert 0.0 <= d <= math.pi


def test_circle_distance_rotation_invariant():
    rng = np.random.default_rng(0)
    for a, b, s in TWO_PI * rng.random((200, 3)):
        d0 = angle_dist_core(a, b)
        d1 = angle_dist_core((a + s) % TWO_PI, (b + s) % TWO_PI)
        assert d1 == pytest.approx(d0, abs=1e-12)


def test_circle_distance_triangle_inequality():
    rng = np.random.default_rng(1)
    for a, b, c in TWO_PI * rng.random((500, 3)):
        assert angle_dist_core(a, c) <= angle_dist_core(a, b) + angle_dist_core(b, c) + 1e-12


def test_embed_examples():
    p = product_ambient_array([1.0], [0.0], [0.0])
    assert p[0] == pytest.approx((1, 0, 0, 1, 0), abs=1e-15)
    origin = product_ambient_array([0.0], [0.0], [0.25])
    assert origin[0] == pytest.approx((0, 0, -1, 0, 1), abs=1e-15)
    q = product_ambient_array([1.0], [math.pi], [0.5])
    assert q[0] == pytest.approx((-1, 0, 0, -1, 0), abs=1e-15)


def test_ambient_norms_on_random_points():
    rng = np.random.default_rng(2)
    n = 10_000
    coords = product_ambient_array(rng.uniform(0, 5, n), rng.uniform(-10, 10, n), rng.random(n))
    sphere = coords[:, 0] ** 2 + coords[:, 1] ** 2 + coords[:, 2] ** 2
    fiber = coords[:, 3] ** 2 + coords[:, 4] ** 2
    assert np.max(np.abs(sphere - 1.0)) < 1e-12
    assert np.max(np.abs(fiber - 1.0)) < 1e-12


def test_embed_injective_on_separated_sample():
    rng = np.random.default_rng(3)
    n = 300
    r = rng.uniform(0.1, 3.0, n)
    phi = rng.uniform(0, TWO_PI, n)
    t = rng.random(n)
    coords = product_ambient_array(r, phi, t)
    for i in range(0, n - 2, 2):
        dt = abs(t[i] - t[i + 1]) % 1.0
        sep = max(abs(r[i] - r[i + 1]), angle_dist_core(phi[i], phi[i + 1]), min(dt, 1.0 - dt))
        if sep < 1e-6:
            continue
        assert np.linalg.norm(coords[i] - coords[i + 1]) > 1e-9


# -- layout: (n, d) point arrays are .T views of (d, n) blocks -----------------

STARTS = {  # the model_T0 entries start on the circle and at the marked point
    "rotation": [(0.2,)], "spiral_f": [(0.5, 1.0)], "skew_T": [(0.5, 1.0, 0.3)],
    "model_T0": [(1.0, 0.3), (0.0, 0.0)], "henon": [(0.0, 0.0)],
}


def assert_transposed_block(arr, n):
    assert arr.shape[0] == n
    assert arr.T.flags.c_contiguous


def assert_evaluate_layout_free(points, seed):
    """evaluate reads the block view and its C-order copy to the same bytes."""
    d = points.shape[1]
    amps = np.random.default_rng(seed).uniform(-1.0, 1.0, len(monomial_basis(d, 3)))
    h = perturb(Observable(d, "coord:0", degree_bound=3), amps)
    assert evaluate(h, points).tobytes() == evaluate(h, np.ascontiguousarray(points)).tobytes()


@pytest.mark.parametrize("system", SYSTEM_IDS)
@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 300), burn_in=st.integers(0, 40))
def test_orbit_and_ambient_arrays_are_transposed_blocks(system, n, burn_in):
    cfg = SystemConfig(system)
    for start in STARTS[system]:
        orbit = trajectory(cfg, start, n, burn_in)
        amb = ambient_of_states(cfg, orbit)
        assert_transposed_block(orbit, n)
        assert_transposed_block(amb, n)
        assert_evaluate_layout_free(amb, n)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
def test_model_samples_and_their_ambient_arrays_are_transposed_blocks(n, seed):
    cfg = SystemConfig("model_T0")
    states = sample_model_states(n, np.random.default_rng(seed))
    amb = ambient_of_states(cfg, states)
    assert_transposed_block(states, n)
    assert_transposed_block(amb, n)
    assert_evaluate_layout_free(amb, seed)
