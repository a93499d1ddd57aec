"""Adam optimizer with bias correction."""

from __future__ import annotations

import numpy as np


class Adam:
    """Adam over a fixed list of parameters, one moment pair per parameter.

    Zero gradients leave parameters exactly unchanged (the update term is
    identically zero, not merely small).
    """

    def __init__(self, params, lr=0.005, beta1=0.9, beta2=0.999, epsilon=1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        """One update of every parameter from its populated gradient."""
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for k, p in enumerate(self.params):
            g = p.grad
            self.m[k] = b1 * self.m[k] + (1.0 - b1) * g
            self.v[k] = b2 * self.v[k] + (1.0 - b2) * (g * g)
            m_hat = self.m[k] / (1.0 - b1 ** self.t)
            v_hat = self.v[k] / (1.0 - b2 ** self.t)
            p.data -= (self.lr * m_hat / (np.sqrt(v_hat) + self.epsilon)).astype(p.data.dtype)
