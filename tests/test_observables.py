import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

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


def _random_observable(rng, dim, degree):
    return perturb(Observable(dim, "coord:0", degree_bound=degree),
                   rng.uniform(-1, 1, len(monomial_basis(dim, degree))))


def test_evaluate_equals_per_term_powers():
    """Shared column powers and row blocks leave evaluate bitwise equal to
    taking each power afresh in every term of a degree-5 observable, as the
    product ((col * col) * col) ... from the left, over all rows at once:
    within one block, and over several ending in a partial one."""
    rng = np.random.default_rng(6)
    h = _random_observable(rng, 2, 5)
    for n in (1000, 3 * _BLOCK_ROWS + 17):
        rows = rng.uniform(-1.5, 1.5, (2, n)).T
        naive = np.zeros(n)
        for m, c in h.total_coeffs().items():
            term = np.full(n, c)
            for j, e in enumerate(m):
                if e:
                    power = rows[:, j].copy()
                    for _ in range(e - 1):
                        power *= rows[:, j]
                    term *= power
            naive += term
        assert np.array_equal(evaluate(h, rows), naive)


def _python_evaluate(h, row):
    """The observable at one row in Python floats: each power a product from
    the left, each term its coefficient times its factors in column order."""
    acc = 0.0
    for m, c in h.total_coeffs().items():
        t = c
        for x, e in zip(row, m):
            if e:
                p = x
                for _ in range(e - 1):
                    p *= x
                t *= p
        acc += t
    return acc


@pytest.mark.parametrize("dim, degree", [(2, 5), (5, 1)])
def test_evaluate_equals_python_floats(dim, degree):
    """evaluate is bit for bit the IEEE products and sums of plain Python
    floats, on rows with zeros of both signs and negative values."""
    rng = np.random.default_rng(8)
    h = _random_observable(rng, dim, degree)
    rows = rng.uniform(-1.7, 1.7, (200, dim))
    rows[:20] = rng.choice([0.0, -0.0, -1.0, -1.3, 0.9], (20, dim))
    got = evaluate(h, rows)
    want = np.array([_python_evaluate(h, row) for row in rows.tolist()])
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


def _avx512_dispatch():
    """The AVX-512-class SIMD targets that numpy dispatches on this CPU."""
    umath = getattr(np, "_core", None) or np.core
    features = umath._multiarray_umath.__cpu_features__
    return [t for t in umath._multiarray_umath.__cpu_dispatch__
            if features.get(t) and (t.startswith("AVX512") or t == "X86_V4")]


def _evaluate_digest():
    """sha256 of a degree-5 observable evaluated on 10^5 rows."""
    rng = np.random.default_rng(9)
    h = _random_observable(rng, 2, 5)
    return hashlib.sha256(evaluate(h, rng.uniform(-1.5, 1.5, (2, 10 ** 5)).T).tobytes()).hexdigest()


def test_evaluate_independent_of_numpy_dispatch():
    """A process with numpy's AVX-512 targets switched off evaluates a degree-5
    observable to the same bytes as this one."""
    targets = _avx512_dispatch()
    if not targets:
        pytest.skip("numpy dispatches no AVX-512 target on this CPU")
    here = Path(__file__).resolve().parent
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(targets),
               PYTHONPATH=os.pathsep.join([str(here.parent / "src"), str(here)]))
    code = "from test_observables import _evaluate_digest; print(_evaluate_digest())"
    there = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True, check=True).stdout.strip()
    assert there == _evaluate_digest()
