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
    identically zero, not merely small).
    """

    def __init__(self, params, lr=0.005):
        # the default is the paper's initial rate, `train.LR_INITIAL`
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        """One update of every parameter from its populated gradient."""
        self.t += 1
        for k, p in enumerate(self.params):
            g = p.grad
            self.m[k] = BETA1 * self.m[k] + (1.0 - BETA1) * g
            self.v[k] = BETA2 * self.v[k] + (1.0 - BETA2) * (g * g)
            m_hat = self.m[k] / (1.0 - BETA1 ** self.t)
            v_hat = self.v[k] / (1.0 - BETA2 ** self.t)
            p.data -= (self.lr * m_hat / (np.sqrt(v_hat) + EPSILON)).astype(p.data.dtype)
