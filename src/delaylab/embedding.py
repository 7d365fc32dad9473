"""Delay-coordinate vectors with successor pairing.

A scalar series is an observable evaluated on an orbit's ambient
coordinates, evaluate(h, ambient_of_states(cfg, orbit)); delay_series slides
a window over it and pairs each window with the next.  PairedVectors is the
one pair type: row-major (n, k) predecessor and successor blocks, which the
engines read.  delay_map builds one vector from one state by stepping it,
the route the series is checked against.
"""

from dataclasses import dataclass

import numpy as np

from .dynamics import _integer, ambient_of_states, step_state
from .observables import evaluate


@dataclass(frozen=True)
class PairedVectors:
    """(vector, successor) pairs: predecessors[i] and successors[i] are the
    delay images of a state x_i and of its one-step iterate.

    delay_series pairs consecutive windows of one orbit; the two-piece model,
    which no single orbit samples, pairs iid draws with their images.  k is
    an integer >= 1 (not a bool), the blocks are matching (n, k) arrays and
    every value is finite; a ValueError names the first row that is not.
    """

    k: int
    predecessors: np.ndarray
    successors: np.ndarray

    def __post_init__(self):
        _integer("k", self.k, 1)
        if self.predecessors.shape != self.successors.shape or self.predecessors.ndim != 2:
            raise ValueError("predecessors and successors must be matching (n, k) blocks")
        if self.predecessors.shape[1] != self.k:
            raise ValueError("vector width inconsistent with k")
        for name, block in (("predecessors", self.predecessors), ("successors", self.successors)):
            if not (np.isfinite(block.min(initial=0.0)) and np.isfinite(block.max(initial=0.0))):
                row = np.flatnonzero(~np.isfinite(block).all(axis=1))[0]
                raise ValueError(f"{name} row {row} = {block[row].tolist()} is not finite")

    def __len__(self):
        return len(self.predecessors)


def delay_series(measurements, k):
    """Pairs (y_i, y_{i+1}) of the sliding windows y_i = (m_i, ..., m_{i+k-1}).

    The len(m) - k + 1 windows overlap in k - 1 entries, so the pairs are two
    views of one (len(m) - k + 1, k) block.
    """
    k, m = _integer("k", k, 1), np.asarray(measurements, dtype=float)
    if m.ndim != 1:
        raise ValueError("measurements must be one-dimensional")
    if len(m) < k:
        raise ValueError(f"need at least k={k} measurements, got {len(m)}")
    v = m[:, None] if k == 1 else np.lib.stride_tricks.sliding_window_view(m, k)
    v = np.ascontiguousarray(v)  # take() on a strided window view copies the whole source per call
    return PairedVectors(k, v[:-1], v[1:])


def delay_map(h, k, cfg, x):
    """Delay vector (h(x), h(Tx), ..., h(T^{k-1} x)) at a tuple-encoded state."""
    states = [tuple(x)]
    for _ in range(_integer("k", k, 1) - 1):
        states.append(step_state(cfg, states[-1]))
    coords = ambient_of_states(cfg, np.asarray(states, dtype=float))
    return evaluate(h, coords)

