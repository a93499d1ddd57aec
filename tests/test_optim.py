"""Adam optimizer against an independent scalar reference."""

import numpy as np

from trajbehav.autodiff import Parameter
from trajbehav.optim import Adam


def reference_adam_trace(x0, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Hand-rolled scalar Adam, independent of the package implementation."""
    x, m, v = x0, 0.0, 0.0
    out = []
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        x = x - lr * m_hat / (np.sqrt(v_hat) + eps)
        out.append(x)
    return out


def test_zero_gradient_is_exact_fixed_point(rng):
    values = rng.normal(size=(4, 3))
    p = Parameter(values.copy(), "p")
    opt = Adam([p], lr=0.005)
    for _ in range(5):
        p.zero_grad()
        opt.step()
    assert np.array_equal(p.data, values)
    assert opt.t == 5


def test_first_step_is_minus_lr_for_unit_gradient():
    p = Parameter(np.array([1.0]), "p")
    opt = Adam([p], lr=0.005)
    p.grad[...] = 1.0
    opt.step()
    # bias-corrected first step is -lr * g/|g| up to the epsilon scale
    assert abs((p.data[0] - 1.0) + 0.005) < 1e-9


def test_three_step_trace_matches_reference():
    # scalar quadratic loss 0.5*x^2, gradient = x
    p = Parameter(np.array([2.0]), "p")
    opt = Adam([p], lr=0.1)
    mine = []
    grads = []
    for _ in range(3):
        p.zero_grad()
        grads.append(p.data[0])
        p.grad[...] = p.data[0]
        opt.step()
        mine.append(p.data[0])
    expect = reference_adam_trace(2.0, grads, lr=0.1)
    assert np.abs(np.array(mine) - np.array(expect)).max() < 1e-12


def test_second_moment_nonnegative_and_step_counts(rng):
    p = Parameter(rng.normal(size=7), "p")
    opt = Adam([p], lr=0.01)
    for k in range(4):
        p.zero_grad()
        p.grad[...] = rng.normal(size=7)
        opt.step()
        assert (opt.v[0] >= 0).all()
        assert opt.t == k + 1


def test_set_lr_controls_update_scale():
    p = Parameter(np.array([0.0]), "p")
    opt = Adam([p], lr=0.005)
    opt.lr = 0.001
    p.grad[...] = 1.0
    opt.step()
    assert abs(p.data[0] + 0.001) < 1e-9


def test_fifty_steps_bit_equal_to_textbook_formula(rng):
    """The in-place step rounds exactly as the textbook expressions do."""
    shapes = [(6, 8), (8,), (3, 2, 4)]
    params = [Parameter(rng.normal(size=s).astype(np.float32), "p") for s in shapes]
    expect = [p.data.copy() for p in params]
    m = [np.zeros_like(x) for x in expect]
    v = [np.zeros_like(x) for x in expect]
    opt = Adam(params, lr=0.005)
    for t in range(1, 51):
        if t == 30:
            opt.lr = 0.001
        for k, p in enumerate(params):
            g = (rng.normal(size=p.data.shape) * 10.0 ** rng.uniform(-6, 2)).astype(np.float32)
            p.grad[...] = g
            m[k] = 0.9 * m[k] + (1.0 - 0.9) * g
            v[k] = 0.999 * v[k] + (1.0 - 0.999) * (g * g)
            m_hat = m[k] / (1.0 - 0.9 ** t)
            v_hat = v[k] / (1.0 - 0.999 ** t)
            expect[k] -= opt.lr * m_hat / (np.sqrt(v_hat) + 1e-8)
        opt.step()
        for p, x in zip(params, expect):
            assert p.data.dtype == np.float32
            assert np.array_equal(p.data, x)
    for mine, theirs in zip(opt.m + opt.v, m + v):
        assert np.array_equal(mine, theirs)
