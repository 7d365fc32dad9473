import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from delaylab.manifold import product_ambient_array
from delaylab.observables import (
    _BLOCK_ROWS,
    evaluate,
    monomial_basis,
    Observable,
    perturb,
)


def test_monomial_basis_examples():
    assert monomial_basis(2, 1) == [(0, 0), (1, 0), (0, 1)]
    assert len(monomial_basis(5, 1)) == 6
    assert len(monomial_basis(2, 3)) == 10


@given(st.integers(1, 4), st.integers(0, 5))
@settings(max_examples=40)
def test_monomial_count_formula(dim, degree):
    assert len(monomial_basis(dim, degree)) == math.comb(dim + degree, degree)


def test_monomial_graded_order():
    basis = monomial_basis(3, 4)
    degrees = [sum(m) for m in basis]
    assert degrees == sorted(degrees)
    assert len(set(basis)) == len(basis)


def test_perturb_identity_and_constant():
    h = Observable(5, "cosine_fiber", degree_bound=1)
    basis = monomial_basis(5, 1)
    same = perturb(h, amplitudes=np.zeros(len(basis)))
    pts = product_ambient_array([1.0, 0.7], [0.3, 2.0], [0.1, 0.8])
    assert evaluate(same, pts) == pytest.approx(evaluate(h, pts), abs=0)

    zero = Observable(5, "zero", degree_bound=1)
    amps = np.zeros(len(basis))
    amps[0] = 1.0  # the constant monomial
    const_one = perturb(zero, amplitudes=amps)
    assert evaluate(const_one, pts) == pytest.approx([1.0, 1.0], abs=0)


def test_perturb_length_mismatch_rejected():
    h = Observable(5, "zero", degree_bound=1)
    with pytest.raises(ValueError):
        perturb(h, amplitudes=np.zeros(3))


def test_evaluate_examples():
    pts = product_ambient_array([1.0, 1.0], [math.pi, math.pi], [0.2, 0.7])
    const = Observable(5, "zero", {(0, 0, 0, 0, 0): 1.0}, 1)
    assert evaluate(const, pts) == pytest.approx([1.0, 1.0], abs=0)

    x4 = Observable(5, "coord:3", degree_bound=1)
    assert evaluate(x4, pts) == pytest.approx(np.cos(2 * np.pi * np.array([0.2, 0.7])), abs=1e-15)

    fiber = Observable(5, "cosine_fiber", degree_bound=1)
    quarter = product_ambient_array([1.0], [1.0], [0.25])
    assert abs(evaluate(fiber, quarter)[0]) < 1e-15


def test_evaluate_linearity():
    rng = np.random.default_rng(5)
    h = Observable(5, "cosine_fiber", degree_bound=2)
    basis = monomial_basis(5, 2)
    amps = rng.uniform(-1, 1, len(basis))
    hp = perturb(h, amplitudes=amps)
    pts = product_ambient_array(rng.uniform(0, 3, 50), rng.uniform(-5, 5, 50), rng.random(50))
    direct = evaluate(hp, pts)
    split = evaluate(h, pts) + sum(
        a * np.prod(pts ** np.asarray(m), axis=1) for m, a in zip(basis, amps))
    assert np.max(np.abs(direct - split)) < 1e-12


def test_observable_validation():
    with pytest.raises(ValueError):
        Observable(5, "zero", {(1, 0): 1.0}, 1)  # wrong index length
    with pytest.raises(ValueError):
        Observable(5, "zero", {(2, 0, 0, 0, 0): 1.0}, 1)  # degree overflow
    with pytest.raises(ValueError):
        Observable(5, "zero", {(1, 0, 0, 0, 0): float("nan")}, 1)
    with pytest.raises(ValueError):
        Observable(5, "whatever", degree_bound=1)
    with pytest.raises(ValueError):
        Observable(3, "cosine_fiber", degree_bound=1)  # undefined for this ambient
    with pytest.raises(ValueError):
        evaluate(Observable(5, "zero", degree_bound=1), np.zeros((3, 4)))


def test_evaluate_equals_per_term_powers():
    """Shared column powers and row blocks leave evaluate bitwise equal to
    taking col ** e afresh in every term of a degree-5 observable, over all
    rows at once: within one block, and over several ending in a partial one."""
    rng = np.random.default_rng(6)
    h = perturb(Observable(2, "coord:0", degree_bound=5), rng.uniform(-1, 1, len(monomial_basis(2, 5))))
    for n in (1000, 3 * _BLOCK_ROWS + 17):
        rows = rng.uniform(-1.5, 1.5, (2, n)).T
        naive = np.zeros(n)
        for m, c in h.total_coeffs().items():
            term = np.full(n, c)
            for j, e in enumerate(m):
                if e:
                    term *= rows[:, j] ** e
            naive += term
        assert np.array_equal(evaluate(h, rows), naive)
