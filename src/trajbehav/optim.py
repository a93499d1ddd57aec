"""Adam optimizer with bias correction.

BETA1 = 0.9, BETA2 = 0.999 and EPSILON = 1e-8 are the published Adam
defaults (Kingma & Ba, ICLR 2015). The source paper is silent on them, so
they are fixed here rather than settable.
"""

from __future__ import annotations

import numpy as np

BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


class Adam:
    """Adam over a fixed list of parameters, one moment pair per parameter.

    Zero gradients leave parameters exactly unchanged (the update term is
    identically zero, not merely small). The step updates the moments in
    place and builds each update in one scratch buffer, sized for the
    largest parameter and shared by all; it rounds exactly as the textbook
    expressions do.
    """

    def __init__(self, params, lr=0.005):
        # the default is the paper's initial rate, `train.LR_INITIAL`
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        # raw bytes, viewed as a (2, *shape) array of each parameter's dtype
        self._scratch = np.empty(2 * max((p.data.nbytes for p in self.params), default=0),
                                 dtype=np.uint8)

    def step(self):
        """One update of every parameter from its populated gradient."""
        self.t += 1
        m_scale = 1.0 - BETA1 ** self.t
        v_scale = 1.0 - BETA2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            upd, den = self._scratch[:2 * p.data.nbytes].view(p.data.dtype).reshape(
                (2,) + p.data.shape)
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
            p.data -= upd
