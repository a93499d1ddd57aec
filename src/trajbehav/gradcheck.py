"""Finite-difference oracle for reverse-mode gradients.

Central differences with step 1e-5 are only trustworthy in float64, so
callers must build their model in "verify" precision.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

FD_STEP = 1e-5
# relative-error denominator floor: below this scale, central differences
# are dominated by truncation/roundoff noise rather than real disagreement
_DENOM_FLOOR = 1e-3


def grad_check(forward, params, max_elements=200, seed=0):
    """Max relative error between reverse-mode and central-difference grads.

    `forward` is a closure rebuilding the loss (a scalar Tensor) from the
    current parameter values. Every element of every parameter is checked;
    tensors larger than `max_elements` are subsampled to that many random
    elements.
    """
    for p in params:
        if p.data.dtype != np.float64:
            raise ConfigError(
                f"grad_check requires float64 parameters, {p.name} is {p.data.dtype}"
            )

    for p in params:
        p.zero_grad()
    loss = forward()
    loss.backward()
    analytic = {id(p): p.grad.reshape(-1).copy() for p in params}

    def central(flat, i, h):
        orig = flat[i]
        flat[i] = orig + h
        lp = forward().data.item()
        flat[i] = orig - h
        lm = forward().data.item()
        flat[i] = orig
        return (lp - lm) / (2.0 * h)

    def rel_err(fd, an):
        return abs(fd - an) / max(abs(fd), abs(an), _DENOM_FLOOR)

    rng = np.random.default_rng(seed)
    worst = 0.0
    for p in params:
        flat = p.data.reshape(-1)
        n = flat.size
        if n > max_elements:
            indices = np.sort(rng.choice(n, size=max_elements, replace=False))
        else:
            indices = np.arange(n)
        an = analytic[id(p)]
        for i in indices:
            err = rel_err(central(flat, i, FD_STEP), an[i])
            if err > 1e-6:
                # a perturbation may straddle a ReLU/argmax kink, where the
                # difference quotient is meaningless; a real gradient bug
                # persists when the step shrinks, a kink straddle vanishes
                for h in (FD_STEP / 10.0, FD_STEP / 100.0):
                    err = min(err, rel_err(central(flat, i, h), an[i]))
            if err > worst:
                worst = err
    return worst
