import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from delaylab.dynamics import ambient_of_states, GOLDEN_ROTATION, SystemConfig, trajectory
from delaylab.embedding import delay_map, delay_series, PairedVectors
from delaylab.observables import evaluate, monomial_basis, Observable, perturb


def test_delay_series_examples():
    s = delay_series([1, 2, 3, 4], 2)
    assert s.predecessors.tolist() == [[1, 2], [2, 3]]
    assert s.successors.tolist() == [[2, 3], [3, 4]]
    s1 = delay_series([5.0, 6.0], 1)
    assert s1.predecessors.tolist() == [[5.0]] and s1.successors.tolist() == [[6.0]]
    const = delay_series([2.0] * 6, 3)
    assert np.all(const.predecessors == 2.0) and np.all(const.successors == 2.0)
    with pytest.raises(ValueError):
        delay_series([1.0], 2)


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40), st.integers(1, 6))
def test_delay_series_overlap_invariant(values, k):
    if len(values) < k:
        with pytest.raises(ValueError):
            delay_series(values, k)
        return
    s = delay_series(values, k)
    assert len(s) == len(values) - k
    for a, b in zip(s.predecessors, s.successors):
        assert np.array_equal(a[1:], b[:-1])


def test_successor_pairing():
    s = delay_series([1.0, 2.0, 3.0, 4.0], 2)
    # the successor of each window is the next window: two views of one block
    assert np.array_equal(s.successors[:-1], s.predecessors[1:])
    assert np.shares_memory(s.predecessors, s.successors)


def test_delay_map_k1_and_constant():
    cfg = SystemConfig("rotation")
    const = Observable(2, "zero", {(0, 0): 3.5}, 1)
    assert delay_map(const, 1, cfg, (0.2,)).tolist() == [3.5]
    assert delay_map(const, 4, cfg, (0.2,)).tolist() == [3.5] * 4


def test_delay_map_rotation_cosine():
    cfg = SystemConfig("rotation")
    h = Observable(2, "cosine_fiber", degree_bound=1)
    t0 = 0.15
    vec = delay_map(h, 2, cfg, (t0,))
    expected = [np.cos(2 * np.pi * t0), np.cos(2 * np.pi * (t0 + GOLDEN_ROTATION))]
    assert vec == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("system,x0,k", [
    ("rotation", (0.33,), 3),
    ("henon", (0.1, 0.1), 3),
    ("skew_T", (0.5, 1.0, 0.3), 3),
])
def test_two_route_agreement(system, x0, k):
    cfg = SystemConfig(system)
    n = 400
    orbit = trajectory(cfg, x0, n)
    dim = ambient_of_states(cfg, orbit[:1]).shape[1]  # 2, or 5 on the skew product
    amplitudes = np.random.default_rng(11).uniform(-0.3, 0.3, len(monomial_basis(dim, 2)))
    h = perturb(Observable(dim, "coord:0", degree_bound=2), amplitudes)
    series = delay_series(evaluate(h, ambient_of_states(cfg, orbit)), k)
    rng = np.random.default_rng(12)
    for i in rng.integers(0, len(series), 12):
        direct = delay_map(h, k, cfg, tuple(orbit[i]))
        assert np.max(np.abs(series.predecessors[i] - direct)) < 1e-12


def test_paired_vectors_validation():
    with pytest.raises(ValueError):
        PairedVectors(1, np.zeros((4, 1)), np.zeros((3, 1)))
    with pytest.raises(ValueError):
        PairedVectors(2, np.zeros((4, 1)), np.zeros((4, 1)))
    pv = PairedVectors(1, np.arange(4.0)[:, None], np.arange(4.0)[:, None] + 1)
    assert len(pv) == 4
    assert np.array_equal(pv.predecessors[:, 0], [0, 1, 2, 3])


def test_delay_series_invariant_violation_detected():
    with pytest.raises(ValueError):
        delay_series([1.0, 2.0, 3.0], 0)  # k >= 1
    with pytest.raises(ValueError):
        delay_series(np.zeros((3, 2)), 1)  # one scalar series


@pytest.mark.parametrize("bad", [True, 2.0, 0, "2"])
def test_k_must_be_an_integer(bad):
    for call in (lambda: delay_series(np.arange(5.0), bad),
                 lambda: PairedVectors(bad, np.zeros((4, 2)), np.zeros((4, 2)))):
        with pytest.raises(ValueError, match=f"^k must be an integer >= 1, not {re.escape(repr(bad))}$"):
            call()
    assert delay_series(np.arange(5.0), np.int64(2)).k == 2
