"""The finite-difference oracle itself."""

import numpy as np
import pytest

from trajbehav import autodiff as ad
from trajbehav.autodiff import Parameter, Tensor
from trajbehav.errors import ConfigError
from trajbehav.gradcheck import grad_check


def test_linear_model_exact_gradient(rng):
    # keep |loss| small and |x| bounded away from 0 so the central-difference
    # cancellation noise stays far below the 1e-10 bar
    x = rng.uniform(0.5, 1.5, size=(1, 4)) * rng.choice([-1.0, 1.0], size=(1, 4))
    w = Parameter(rng.normal(size=(4, 1)) * 0.1, "w")

    def forward():
        return ad.dense(Tensor(x), w, Tensor(np.zeros(1)))

    # dL/dw = x exactly; agreement should be at roundoff level
    assert grad_check(forward, [w]) < 1e-10


def test_detects_a_wrong_gradient(rng):
    x = rng.normal(size=(1, 4))
    w = Parameter(rng.normal(size=(4, 1)), "w")

    def forward():
        out = ad.dense(Tensor(x), w, Tensor(np.zeros(1)))
        # sabotage: build a node whose backward doubles the gradient
        return Tensor(
            out.data, requires_grad=True, parents=(out,),
            backward=lambda g: ad._accum(out, 2.0 * g),
        )

    assert grad_check(forward, [w]) > 0.4


def test_requires_float64(rng):
    w = Parameter(rng.normal(size=3).astype(np.float32), "w")
    with pytest.raises(ConfigError):
        grad_check(lambda: None, [w])


def test_subsampling_large_tensors(rng):
    x = rng.normal(size=(1, 500))
    w = Parameter(rng.normal(size=(500, 1)), "w")

    def forward():
        return ad.dense(Tensor(x), w, Tensor(np.zeros(1)))

    assert grad_check(forward, [w], max_elements=50) < 1e-6
