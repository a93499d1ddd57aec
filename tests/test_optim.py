"""Adam optimizer against an independent scalar reference and against the
per-parameter step it replaced; the flat parameter buffer it borrows."""

import numpy as np
import pytest

from trajbehav import autodiff as ad
from trajbehav.autodiff import Parameter
from trajbehav.checkpoint import load_checkpoint, save_checkpoint
from trajbehav.container import read_container
from trajbehav.errors import ConfigError
from trajbehav.models import build_model
from trajbehav.optim import BETA1, BETA2, EPSILON, Adam


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


def _packed(*params):
    """`params` packed into one buffer pair, as a model packs its own."""
    ad.pack(params)
    return list(params)


def test_zero_gradient_is_exact_fixed_point(rng):
    values = rng.normal(size=(4, 3))
    p = Parameter(values.copy(), "p")
    opt = Adam(_packed(p), lr=0.005)
    for _ in range(5):
        p.grad.fill(0.0)
        opt.step()
    assert np.array_equal(p.data, values)
    assert opt.t == 5


def test_first_step_is_minus_lr_for_unit_gradient():
    p = Parameter(np.array([1.0]), "p")
    opt = Adam(_packed(p), lr=0.005)
    p.grad[...] = 1.0
    opt.step()
    # bias-corrected first step is -lr * g/|g| up to the epsilon scale
    assert abs((p.data[0] - 1.0) + 0.005) < 1e-9


def test_three_step_trace_matches_reference():
    # scalar quadratic loss 0.5*x^2, gradient = x
    p = Parameter(np.array([2.0]), "p")
    opt = Adam(_packed(p), lr=0.1)
    mine = []
    grads = []
    for _ in range(3):
        p.grad.fill(0.0)
        grads.append(p.data[0])
        p.grad[...] = p.data[0]
        opt.step()
        mine.append(p.data[0])
    expect = reference_adam_trace(2.0, grads, lr=0.1)
    assert np.abs(np.array(mine) - np.array(expect)).max() < 1e-12


def test_second_moment_nonnegative_and_step_counts(rng):
    p = Parameter(rng.normal(size=7), "p")
    opt = Adam(_packed(p), lr=0.01)
    for k in range(4):
        p.grad.fill(0.0)
        p.grad[...] = rng.normal(size=7)
        opt.step()
        assert (opt.v >= 0).all()
        assert opt.t == k + 1


def test_set_lr_controls_update_scale():
    p = Parameter(np.array([0.0]), "p")
    opt = Adam(_packed(p), lr=0.005)
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
    opt = Adam(_packed(*params), lr=0.005)
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
    assert np.array_equal(opt.m, np.concatenate([x.ravel() for x in m]))
    assert np.array_equal(opt.v, np.concatenate([x.ravel() for x in v]))


class ReferenceAdam:
    """The per-parameter step `Adam` had before the flat buffer: one moment
    pair per parameter and one scratch buffer viewed per dtype, updated on
    its own copies of the parameter values."""

    def __init__(self, values, lr):
        self.values = [v.copy() for v in values]
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(v) for v in self.values]
        self.v = [np.zeros_like(v) for v in self.values]
        self._scratch = np.empty(2 * max(v.nbytes for v in self.values), dtype=np.uint8)

    def step(self, grads):
        self.t += 1
        m_scale = 1.0 - BETA1 ** self.t
        v_scale = 1.0 - BETA2 ** self.t
        for x, m, v, g in zip(self.values, self.m, self.v, grads):
            upd, den = self._scratch[:2 * x.nbytes].view(x.dtype).reshape((2,) + x.shape)
            m *= BETA1
            np.multiply(g, 1.0 - BETA1, out=upd)
            m += upd
            v *= BETA2
            np.multiply(g, g, out=upd)
            upd *= 1.0 - BETA2
            v += upd
            np.divide(v, v_scale, out=den)
            np.sqrt(den, out=den)
            den += EPSILON
            np.divide(m, m_scale, out=upd)
            upd *= self.lr
            upd /= den
            x -= upd


@pytest.mark.parametrize("kind, batch", [("conv1d", 64), ("fusion", 256)])
def test_flat_step_bit_equal_to_per_parameter_step(kind, batch):
    """300 training steps, with the rate switched at step 200, leave the
    parameters and moments of the flat step bit-equal to the old per-parameter
    step fed the same gradients."""
    rng = np.random.default_rng(3)
    states = rng.normal(size=(4 * batch, 5, 4)).astype(np.float32)
    labels = rng.integers(0, 13, size=4 * batch)
    model = build_model(kind, 13, seed=2)
    params = model.param_list()
    opt = Adam(params, lr=0.005)
    ref = ReferenceAdam([p.data for p in params], lr=0.005)
    for step in range(300):
        if step == 200:
            opt.lr = ref.lr = 0.001
        rows = slice((step % 4) * batch, (step % 4 + 1) * batch)
        model.zero_grad()
        with model.workspace:
            loss = ad.softmax_cross_entropy(model.forward(states[rows]), labels[rows])
        loss.backward()
        ref.step([p.grad for p in params])
        opt.step()
    assert opt.t == ref.t == 300
    for p, x in zip(params, ref.values):
        assert p.data.tobytes() == x.tobytes(), p.name
    assert opt.m.tobytes() == np.concatenate([m.ravel() for m in ref.m]).tobytes()
    assert opt.v.tobytes() == np.concatenate([v.ravel() for v in ref.v]).tobytes()


def test_pack_lays_out_values_and_gradients_in_order(rng):
    shapes = [(3, 4), (5,), (2, 1, 3)]
    params = [Parameter(rng.normal(size=s), f"p{i}") for i, s in enumerate(shapes)]
    for p in params:
        p.grad[...] = rng.normal(size=p.data.shape)
    values = [p.data.copy() for p in params]
    grads = [p.grad.copy() for p in params]
    data, grad = ad.pack(params)
    assert data.shape == grad.shape == (sum(x.size for x in values),)
    assert data.tobytes() == np.concatenate([x.ravel() for x in values]).tobytes()
    assert grad.tobytes() == np.concatenate([g.ravel() for g in grads]).tobytes()
    for p, x in zip(params, values):
        assert p.data.shape == x.shape and p.grad.shape == x.shape
        assert np.shares_memory(p.data, data) and np.shares_memory(p.grad, grad)


def test_pack_refuses_what_it_already_packed(rng):
    params = [Parameter(rng.normal(size=s), "p") for s in [(4, 3), (7,)]]
    data, grad = ad.pack(params)
    views = [(p.data, p.grad) for p in params]
    with pytest.raises(ConfigError, match="cannot pack p: its value or gradient is a view"):
        ad.pack(params)
    assert all(p.data is d and p.grad is g for p, (d, g) in zip(params, views))
    assert Adam(params).data is data


def test_pack_refuses_views_it_would_detach():
    model = build_model("conv1d", 3, seed=0)
    head = [model.parameters["head.w"], model.parameters["head.b"]]
    with pytest.raises(ConfigError, match="cannot pack head.w"):
        ad.pack(head)
    assert all(np.shares_memory(p.data, model.data) for p in head)
    with pytest.raises(ConfigError, match="mixed dtypes"):
        ad.pack([Parameter(np.zeros(2), "a"), Parameter(np.zeros(2, np.float32), "b")])


@pytest.mark.parametrize("params", [
    lambda a, b: a.param_list()[2:],
    lambda a, b: a.param_list() + a.param_list()[:1],
    lambda a, b: a.param_list()[:3] + b.param_list()[3:],
    lambda a, b: [Parameter(p.data.copy(), p.name) for p in a.param_list()],
    lambda a, b: [],
], ids=["subset", "repeated", "two-models", "unpacked", "empty"])
def test_adam_refuses_what_is_not_one_packed_set(params):
    """Adam borrows the two vectors of one model's whole parameter list, so
    any other list is refused before a step could update the wrong memory."""
    a, b = build_model("conv1d", 3, seed=0), build_model("conv1d", 3, seed=1)
    with pytest.raises(ConfigError, match="one model's whole parameter list"):
        Adam(params(a, b))


def _assert_packed(model):
    """Every parameter is a view into the model's vectors, tiling them in order."""
    offset = 0
    for p in model.param_list():
        assert p.data.base is model.data and p.grad.base is model.grad
        assert p.data.ctypes.data == model.data[offset:].ctypes.data
        assert p.grad.ctypes.data == model.grad[offset:].ctypes.data
        offset += p.data.size
    assert offset == model.data.size == model.grad.size


@pytest.mark.parametrize("kind", ["fusion", "lstm", "conv1d"])
@pytest.mark.parametrize("precision", ["fast"])
def test_models_stay_packed_through_adam_and_checkpoints(kind, precision, tmp_path):
    model = build_model(kind, 4, seed=1)
    _assert_packed(model)
    opt = Adam(model.param_list())
    assert opt.data is model.data and opt.grad is model.grad
    _assert_packed(model)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, list("ABCD"), path)
    assert read_container(path)[1]["precision"] == precision
    loaded = load_checkpoint(path).model
    _assert_packed(loaded)
    assert loaded.data.tobytes() == model.data.tobytes()


def test_zero_grad_zeroes_every_gradient(rng):
    model = build_model("fusion", 3, seed=0)
    batch = rng.normal(size=(8, 5, 4))
    ad.softmax_cross_entropy(model.forward(batch), np.array([0, 1, 2, 0, 1, 2, 0, 1])).backward()
    assert all(np.any(p.grad != 0) for p in model.param_list())
    model.zero_grad()
    assert not model.grad.any()
    assert all(not p.grad.any() for p in model.param_list())
