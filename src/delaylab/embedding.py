"""Delay-coordinate vectors with successor pairing.

A scalar series is an observable evaluated on an orbit's ambient
coordinates, evaluate(h, ambient_of_states(cfg, orbit)); delay_series slides
a window over it.  delay_map builds one vector from one state by stepping
it, the route the series is checked against.
"""

from dataclasses import dataclass

import numpy as np

from .dynamics import ambient_of_states, step_state
from .observables import evaluate


@dataclass(frozen=True)
class DelaySeries:
    """Sliding-window delay vectors y_i of a scalar measurement series.

    vectors has shape (source_len - k + 1, k); consecutive vectors overlap in
    k - 1 entries, and the successor of y_i is y_{i+1}.
    """

    k: int
    vectors: np.ndarray
    source_len: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.vectors.shape != (self.source_len - self.k + 1, self.k):
            raise ValueError("vector block inconsistent with source length")
        if len(self.vectors) < 1:
            raise ValueError("series too short for the requested k")

    def __len__(self):
        return len(self.vectors)

    @property
    def predecessors(self):
        return self.vectors[:-1]

    @property
    def successors(self):
        return self.vectors[1:]


@dataclass(frozen=True)
class PairedVectors:
    """Explicit (vector, successor) pairs for measure-sampled systems.

    Used where no single orbit carries the target measure (the two-piece
    model); pred[i] and succ[i] are the delay images of x_i and of its
    one-step iterate.
    """

    k: int
    pred: np.ndarray
    succ: np.ndarray

    def __post_init__(self):
        if self.pred.shape != self.succ.shape or self.pred.ndim != 2:
            raise ValueError("pred and succ must be matching (n, k) blocks")
        if self.pred.shape[1] != self.k:
            raise ValueError("vector width inconsistent with k")

    def __len__(self):
        return len(self.pred)

    @property
    def predecessors(self):
        return self.pred

    @property
    def successors(self):
        return self.succ


def delay_series(measurements, k):
    """Sliding-window delay vectors of a scalar series."""
    m = np.asarray(measurements, dtype=float)
    if m.ndim != 1:
        raise ValueError("measurements must be one-dimensional")
    if len(m) < k:
        raise ValueError(f"need at least k={k} measurements, got {len(m)}")
    if k == 1:
        vectors = m[:, None]
    else:
        vectors = np.lib.stride_tricks.sliding_window_view(m, k)
    return DelaySeries(k, np.ascontiguousarray(vectors), len(m))


def delay_map(h, k, cfg, x):
    """Delay vector (h(x), h(Tx), ..., h(T^{k-1} x)) at a tuple-encoded state."""
    if k < 1:
        raise ValueError("k must be >= 1")
    states = [tuple(x)]
    for _ in range(k - 1):
        states.append(step_state(cfg, states[-1]))
    coords = ambient_of_states(cfg, np.asarray(states, dtype=float))
    return evaluate(h, coords)

