"""A fixed task, independent of delaylab, timed between operations.

The host this benchmark was written on runs other tenants, and its speed
drifts by up to 1.8x within a minute (see README, Noise).  Timing this task
right before and right after each operation tracks that drift, so
``wall_rel`` (operation time over calibration time) measures the program
rather than the host.  The task mixes the two kinds of work the experiments
do: an interpreted float loop, like the orbit kernels without numba, and
numpy sorting, prefix sums, searches and elementwise passes, like the
engines.  The numpy part repeats over one small array, so the task holds
under 2 MB and never raises the worker's peak memory above an operation's.
"""

import time

import numpy as np

LOOP_ITERATES = 3_600_000
ARRAY_SIZE = 50_000
ARRAY_PASSES = 24


def _interpreted(n):
    x = 0.3
    for _ in range(n):
        x = 3.9 * x * (1.0 - x)
    return x


def _vectorised(n, passes):
    a = np.random.default_rng(0).random(n)
    found = 0
    for i in range(passes):
        order = np.argsort(a, kind="stable")
        prefix = np.cumsum(a[order])
        found += int(np.searchsorted(prefix, prefix[::5])[-1])
        found += np.count_nonzero(np.abs(a - a[i]) < 0.1)
    return found


def calibration_s():
    """Wall time of one fixed calibration task, in seconds."""
    t0 = time.perf_counter()
    _interpreted(LOOP_ITERATES)
    _vectorised(ARRAY_SIZE, ARRAY_PASSES)
    return time.perf_counter() - t0
