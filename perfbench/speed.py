"""Machine-speed reference.

On a shared machine the same work can take 50% longer for seconds to
minutes at a time. The harness times `reference()`, a fixed computation
that does not use the package, before and after every timed interval,
and scales the interval to the speed at which the reference takes
`REF_SECONDS`. A slowdown of the whole machine then cancels out, while a
change to the package moves only the interval.

The reference does the kinds of work the package does, in about equal
shares: Python objects (tuples, strings, a dict, a sort), as in the data
layer; dense float32 layers that allocate their results, as in the
autodiff tape; and an im2col convolution over a batch of windows.
"""

from __future__ import annotations

import time

import numpy as np

# Nominal duration of reference(): near its median on a 2-core VM with one
# BLAS thread, so scaled times stay close to seconds on that machine.
REF_SECONDS = 0.1

_OBJECTS = 56_000
_DENSE_LOOPS = 130
_CONV_LOOPS = 75
_rng = np.random.default_rng(0)
_X = _rng.normal(size=(256, 64)).astype(np.float32)
_W = _rng.normal(scale=0.1, size=(64, 256)).astype(np.float32)
_WINDOWS = _rng.normal(size=(256, 20, 8)).astype(np.float32)
_KERNEL = _rng.normal(size=(24, 32)).astype(np.float32)


def reference():
    """Seconds taken by the fixed reference computation."""
    t0 = time.perf_counter()
    rows = [(i, i * 0.5, str(i)) for i in range(_OBJECTS)]
    by_key = {row[2]: row for row in rows}
    sorted(by_key)
    for _ in range(_DENSE_LOOPS):
        h = np.tanh(_X @ _W + 1.0)
        _X.T @ ((1.0 - h * h) * h)
    for _ in range(_CONV_LOOPS):
        cols = np.concatenate([_WINDOWS[:, i:i + 18, :] for i in range(3)], axis=2)
        y = cols.reshape(-1, 24) @ _KERNEL
        np.maximum(y, 0.0, out=y).sum(axis=0)
    return time.perf_counter() - t0


def scale(before, after):
    """Factor that turns seconds measured between the reference times
    `before` and `after` into seconds at the nominal speed."""
    return REF_SECONDS / ((before + after) / 2.0)
