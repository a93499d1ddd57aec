"""Adam optimizer with bias correction.

BETA1 = 0.9, BETA2 = 0.999 and EPSILON = 1e-8 are the published Adam
defaults (Kingma & Ba, ICLR 2015). The source paper is silent on them, so
they are fixed here rather than settable.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


class Adam:
    """Adam over one model's parameters, updated as one flat vector.

    `params` must be exactly one packed set, such as `model.param_list()`:
    every parameter of one `ad.pack` call, once each, or it raises
    ConfigError. Adam borrows the `data` and `grad` vectors they are views
    of and keeps the moments `m` and `v` as flat vectors beside them. A step
    is about a dozen in-place vector ops over every parameter at once, with
    two scratch vectors; each element rounds exactly as the textbook
    expressions do. Zero gradients leave parameters exactly unchanged (the
    update term is identically zero, not merely small).
    """

    def __init__(self, params, lr=0.005):
        # the default is the paper's initial rate, `train.LR_INITIAL`
        self.lr = lr
        self.t = 0
        params = list(params)
        data, grad = (params[0].data.base, params[0].grad.base) if params else (None, None)
        if (data is None or grad is None or len({id(p) for p in params}) < len(params)
                or any(p.data.base is not data or p.grad.base is not grad for p in params)
                or sum(p.data.size for p in params) != data.size):
            raise ConfigError("Adam needs one model's whole parameter list, each parameter "
                              "once, such as model.param_list()")
        self.data, self.grad = data, grad
        self.m = np.zeros_like(self.data)
        self.v = np.zeros_like(self.data)
        self._upd = np.empty_like(self.data)
        self._den = np.empty_like(self.data)

    def step(self):
        """One update of every parameter from its populated gradient."""
        self.t += 1
        m_scale = 1.0 - BETA1 ** self.t
        v_scale = 1.0 - BETA2 ** self.t
        g, m, v, upd, den = self.grad, self.m, self.v, self._upd, self._den
        # m = BETA1·m + (1 − BETA1)·g and v = BETA2·v + (1 − BETA2)·g²
        m *= BETA1
        np.multiply(g, 1.0 - BETA1, out=upd)
        m += upd
        v *= BETA2
        np.multiply(g, g, out=upd)
        upd *= 1.0 - BETA2
        v += upd
        # p −= lr·m̂ / (√v̂ + EPSILON) with m̂ = m / m_scale, v̂ = v / v_scale
        np.divide(v, v_scale, out=den)
        np.sqrt(den, out=den)
        den += EPSILON
        np.divide(m, m_scale, out=upd)
        upd *= self.lr
        upd /= den
        self.data -= upd
