"""Scalar observables: polynomial perturbations of simple base functions over
ambient coordinates.

An observable is base + sum of coefficient * monomial over a graded basis of
bounded total degree; sampling the perturbation coefficients realizes the
finite-dimensional probe families used for genericity arguments.
"""

import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np

_BLOCK_ROWS = 1 << 15  # rows per block of evaluate: 256 KB per column power


def monomial_basis(ambient_dim, degree):
    """All exponent multi-indices of total degree <= degree, graded-lex order.

    The count is C(ambient_dim + degree, degree).
    """
    if ambient_dim < 1:
        raise ValueError("ambient_dim must be >= 1")
    if degree < 0:
        raise ValueError("degree must be >= 0")
    idx = [m for m in product(range(degree + 1), repeat=ambient_dim) if sum(m) <= degree]
    idx.sort(key=lambda m: (sum(m), tuple(-e for e in m)))
    return idx


def _coord_index(base_id, ambient_dim):
    if base_id.startswith("coord:"):
        j = int(base_id.split(":", 1)[1])
        if not 0 <= j < ambient_dim:
            raise ValueError(f"coordinate index {j} outside ambient dimension {ambient_dim}")
        return j
    if base_id == "cosine_fiber":
        # cos(2 pi t) is an ambient coordinate: x4 on the 5-dim product
        # embedding, x1 on the bare-circle embedding
        if ambient_dim == 5:
            return 3
        if ambient_dim == 2:
            return 0
        raise ValueError(f"cosine_fiber undefined for ambient dimension {ambient_dim}")
    return None


def _unit_exponent(j, dim):
    e = [0] * dim
    e[j] = 1
    return tuple(e)


@dataclass(frozen=True)
class Observable:
    """base + polynomial over ambient coordinates.

    coeffs maps exponent multi-indices (tuples of length ambient_dim) to the
    perturbation coefficients; the base is kept separate so perturbations
    never touch it.
    """

    ambient_dim: int
    base_id: str = "zero"
    coeffs: dict = field(default_factory=dict)
    degree_bound: int = 1

    def __post_init__(self):
        if _coord_index(self.base_id, self.ambient_dim) is None and self.base_id != "zero":
            raise ValueError(f"unknown base {self.base_id!r}")
        for m, c in self.coeffs.items():
            if len(m) != self.ambient_dim:
                raise ValueError(f"multi-index {m} has wrong length")
            if sum(m) > self.degree_bound:
                raise ValueError(f"multi-index {m} exceeds degree bound {self.degree_bound}")
            if not math.isfinite(c):
                raise ValueError(f"non-finite coefficient at {m}")

    def base_coeffs(self):
        """The base function as its own exponent -> coefficient map."""
        j = _coord_index(self.base_id, self.ambient_dim)
        if j is None:
            return {}
        return {_unit_exponent(j, self.ambient_dim): 1.0}

    def total_coeffs(self):
        out = dict(self.base_coeffs())
        for m, c in self.coeffs.items():
            out[m] = out.get(m, 0.0) + c
        return out


def perturb(h, amplitudes):
    """Add amplitudes on the monomial basis.

    The basis is monomial_basis(h.ambient_dim, h.degree_bound); the
    amplitudes must match its length.  The base function is untouched.
    """
    basis = monomial_basis(h.ambient_dim, h.degree_bound)
    amplitudes = np.asarray(amplitudes, dtype=float)
    if amplitudes.shape != (len(basis),):
        raise ValueError(f"expected {len(basis)} amplitudes, got {amplitudes.shape}")
    coeffs = dict(h.coeffs)
    for m, a in zip(basis, amplitudes):
        if a != 0.0 or m in coeffs:
            coeffs[m] = coeffs.get(m, 0.0) + float(a)
    return Observable(h.ambient_dim, h.base_id, coeffs, h.degree_bound)


def evaluate(h, x):
    """Observable value at a coordinate vector, or at each of (n, d) rows.

    The rows are read one coordinate column at a time, so the .T view of a
    (d, n) block (the layout of dynamics and manifold) reads contiguously,
    _BLOCK_ROWS rows at a time.  A column's power col ** e is the product
    ((col * col) * col) ... from the left, taken once per block and shared
    by its terms; each term is its coefficient times its factors in column
    order, added in basis order.  Being IEEE products and sums only, the
    value does not depend on numpy's SIMD dispatch of np.power.
    """
    coords = np.asarray(x, dtype=float)
    scalar = coords.ndim == 1
    rows = coords[None, :] if scalar else coords
    if rows.shape[1] != h.ambient_dim:
        raise ValueError(f"expected {h.ambient_dim} coordinates, got {rows.shape[1]}")
    terms = h.total_coeffs().items()
    out = np.zeros(rows.shape[0])
    for start in range(0, len(out), _BLOCK_ROWS):
        block, acc = rows[start:start + _BLOCK_ROWS], out[start:start + _BLOCK_ROWS]
        term = np.empty_like(acc)
        powers = [[block[:, j]] for j in range(h.ambient_dim)]  # powers[j][e - 1]: col_j ** e
        for m, c in terms:
            term.fill(c)
            for j, e in enumerate(m):
                for _ in range(len(powers[j]), e):
                    powers[j].append(powers[j][-1] * block[:, j])
                if e:
                    term *= powers[j][e - 1]
            acc += term
    return float(out[0]) if scalar else out
