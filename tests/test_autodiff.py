"""Primitive-level forward oracles and gradient properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajbehav import autodiff as ad
from trajbehav.autodiff import Parameter, Tensor
from trajbehav.errors import ConfigError, DataError, DimensionError


def fd_check_primitive(build_loss, params, step=1e-5, tol=1e-5):
    """Central finite differences vs reverse-mode for every element."""
    for p in params:
        p.zero_grad()
    build_loss().backward()
    analytic = {id(p): p.grad.copy() for p in params}
    worst = 0.0
    for p in params:
        flat = p.data.reshape(-1)
        an = analytic[id(p)].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            lp = build_loss().data.item()
            flat[i] = orig - step
            lm = build_loss().data.item()
            flat[i] = orig
            fd = (lp - lm) / (2 * step)
            worst = max(worst, abs(fd - an[i]) / max(abs(fd), abs(an[i]), 1e-3))
    assert worst < tol, f"max relative error {worst}"


def _weighted_sum(t, mix):
    """Scalar node sum(t * mix): a loss that weights every output element."""
    mix = np.asarray(mix, dtype=t.data.dtype)
    return Tensor(np.sum(t.data * mix), requires_grad=True, parents=(t,),
                  backward=lambda g: ad._accum(t, g * mix))


class TestDense:
    def test_identity(self):
        a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        out = ad.dense(a, Tensor(np.eye(2)), Tensor(np.zeros(2)))
        assert np.array_equal(out.data, a.data)

    def test_matches_triple_loop_plus_bias(self, rng):
        x = rng.normal(size=(3, 4))
        w = rng.normal(size=(4, 2))
        b = rng.normal(size=2)
        out = ad.dense(Tensor(x), Tensor(w), Tensor(b)).data
        expect = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                expect[i, j] = b[j]
                for k in range(4):
                    expect[i, j] += x[i, k] * w[k, j]
        assert np.abs(out - expect).max() < 1e-12

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
            ad.dense(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))),
                     Tensor(np.zeros(3)))
        with pytest.raises(DimensionError, match=r"\(3, 2\).*\(3,\)"):
            ad.dense(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))),
                     Tensor(np.zeros(3)))

    def test_gradients(self):
        for trial in range(100):
            r = np.random.default_rng(trial)
            x = Parameter(r.normal(size=(2, 3)), "x")
            w = Parameter(r.normal(size=(3, 2)), "w")
            b = Parameter(r.normal(size=2), "b")
            mix = r.normal(size=(2, 2))
            fd_check_primitive(lambda: _weighted_sum(ad.dense(x, w, b), mix), [x, w, b])


def _reference_conv1d_valid(x, w, b, g):
    """`conv1d_valid` as first written, on plain arrays: a `sliding_window_view`
    im2col and every gradient accumulated onto zeros. Returns the output and
    the gradients of x, w and b under the upstream gradient `g`, for a
    bit-for-bit comparison.

    `cols` is made C-contiguous. The reshape copied it at every shape the
    models run, but for one sample with k = 1 or C_in = 1 it can return a
    strided view instead, and BLAS rounds a product with that differently."""
    bsz, c_in, t_len = x.shape
    c_out, _, k = w.shape
    out_len = t_len - k + 1
    cols = np.lib.stride_tricks.sliding_window_view(x, k, axis=2)
    cols = np.ascontiguousarray(cols.transpose(0, 2, 1, 3).reshape(bsz * out_len, c_in * k))
    wmat = w.reshape(c_out, c_in * k)
    out = (cols @ wmat.T + b).reshape(bsz, out_len, c_out).transpose(0, 2, 1)
    g2 = g.transpose(0, 2, 1).reshape(bsz * out_len, c_out)
    dcols = (g2 @ wmat).reshape(bsz, out_len, c_in, k)
    gx = np.zeros((bsz, t_len, c_in), dtype=dcols.dtype)
    for j in range(k):
        gx[:, j:j + out_len] += dcols[:, :, :, j]
    grads = (gx.transpose(0, 2, 1), (g2.T @ cols).reshape(c_out, c_in, k), g2.sum(axis=0))
    return out, [np.zeros_like(a) + d for a, d in zip((x, w, b), grads)]


class TestConv1d:
    def test_zero_input_gives_bias(self, rng):
        x = Tensor(np.zeros((2, 3, 5)))
        w = Tensor(rng.normal(size=(4, 3, 2)))
        b = Tensor(np.array([1.0, -2.0, 0.5, 3.0]))
        out = ad.conv1d_valid(x, w, b).data
        assert out.shape == (2, 4, 4)
        for c in range(4):
            assert np.allclose(out[:, c, :], b.data[c])

    def test_finite_difference_kernel(self):
        x = Tensor(np.array([1.0, 2.0, 4.0, 7.0, 11.0]).reshape(1, 1, 5))
        w = Tensor(np.array([-1.0, 1.0]).reshape(1, 1, 2))
        b = Tensor(np.zeros(1))
        out = ad.conv1d_valid(x, w, b).data
        # cross-correlation with [-1, 1] is the first difference
        assert np.allclose(out[0, 0], [1.0, 2.0, 3.0, 4.0])

    def test_matches_quadruple_loop(self, rng):
        x = rng.normal(size=(2, 4, 5))
        w = rng.normal(size=(3, 4, 3))
        b = rng.normal(size=3)
        out = ad.conv1d_valid(Tensor(x), Tensor(w), Tensor(b)).data
        expect = np.zeros((2, 3, 3))
        for bi in range(2):
            for o in range(3):
                for t in range(3):
                    acc = b[o]
                    for c in range(4):
                        for j in range(3):
                            acc += x[bi, c, t + j] * w[o, c, j]
                    expect[bi, o, t] = acc
        assert np.abs(out - expect).max() < 1e-12

    def test_output_length_property(self, rng):
        for trial in range(50):
            r = np.random.default_rng(trial)
            t_len = int(r.integers(1, 12))
            k = int(r.integers(1, t_len + 1))
            x = Tensor(r.normal(size=(1, 2, t_len)))
            w = Tensor(r.normal(size=(3, 2, k)))
            out = ad.conv1d_valid(x, w, Tensor(np.zeros(3)))
            assert out.data.shape[2] == t_len - k + 1

    def test_kernel_longer_than_sequence(self):
        with pytest.raises(ConfigError):
            ad.conv1d_valid(
                Tensor(np.zeros((1, 1, 3))),
                Tensor(np.zeros((1, 1, 4))),
                Tensor(np.zeros(1)),
            )

    def test_channel_mismatch(self):
        with pytest.raises(DimensionError):
            ad.conv1d_valid(
                Tensor(np.zeros((1, 2, 5))),
                Tensor(np.zeros((1, 3, 2))),
                Tensor(np.zeros(1)),
            )

    def test_matches_einsum_oracle_for_every_width(self, rng):
        t_len = 7
        x = rng.normal(size=(3, 4, t_len))
        for k in range(1, t_len + 1):
            out_len = t_len - k + 1
            w = rng.normal(size=(5, 4, k))
            b = rng.normal(size=5)
            mix = rng.normal(size=(3, 5, out_len))
            xp, wp, bp = Parameter(x.copy(), "x"), Parameter(w, "w"), Parameter(b, "b")
            out = ad.conv1d_valid(xp, wp, bp)
            _weighted_sum(out, mix).backward()

            windows = np.lib.stride_tricks.sliding_window_view(x, k, axis=2)
            expect = np.einsum("bclk,ock->bol", windows, w) + b[None, :, None]
            gx = np.zeros_like(x)
            for j in range(k):
                gx[:, :, j:j + out_len] += np.einsum("bol,oc->bcl", mix, w[:, :, j])
            assert out.data.shape == (3, 5, out_len)
            assert np.abs(out.data - expect).max() < 1e-12
            assert np.abs(wp.grad - np.einsum("bol,bclk->ock", mix, windows)).max() < 1e-12
            assert np.abs(bp.grad - mix.sum(axis=(0, 2))).max() < 1e-12
            assert np.abs(xp.grad - gx).max() < 1e-12

    def test_gradients(self):
        for trial in range(100):
            r = np.random.default_rng(trial)
            x = Parameter(r.normal(size=(2, 2, 5)), "x")
            w = Parameter(r.normal(size=(2, 2, 3)), "w")
            b = Parameter(r.normal(size=2), "b")
            mix = r.normal(size=(2, 2, 3))
            fd_check_primitive(
                lambda: _weighted_sum(ad.conv1d_valid(x, w, b), mix),
                [x, w, b],
            )

    @settings(max_examples=100, deadline=None)
    @given(dtype=st.sampled_from([np.float32, np.float64]), k=st.integers(1, 4),
           c_in=st.integers(1, 64), c_out=st.integers(1, 40), bsz=st.integers(1, 70),
           extra_steps=st.integers(0, 4), time_inner=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_bit_equal_to_reference(self, dtype, k, c_in, c_out, bsz, extra_steps,
                                    time_inner, seed):
        """Slab-copy im2col, in-place bias and one-pass first accumulation give
        the bits of the formulation written out, on a C-contiguous (B, C, T)
        input and on the transposed view of a (B, T, C) one alike."""
        r = np.random.default_rng(seed)
        shape = (bsz, c_in, k + extra_steps)
        if time_inner:
            x = r.normal(size=shape).astype(dtype)
        else:   # channels innermost in memory, as the window batch and the conv outputs are
            x = r.normal(size=(bsz, shape[2], c_in)).astype(dtype).transpose(0, 2, 1)
        x[0, 0, 0] = -0.0
        w = r.normal(size=(c_out, c_in, k)).astype(dtype)
        b = r.normal(size=c_out).astype(dtype)
        # upstream gradient laid out like the output, (B, L, C) in memory, as the
        # tape's accumulation lays out the output's gradient
        g = r.normal(size=(bsz, extra_steps + 1, c_out)).astype(dtype).transpose(0, 2, 1)
        xt = Tensor(x, requires_grad=True)   # no gradient yet: the first accumulation
        wp, bp = Parameter(w.copy(), "w"), Parameter(b.copy(), "b")
        y = ad.conv1d_valid(xt, wp, bp)
        _weighted_sum(y, g).backward()
        expect, grads = _reference_conv1d_valid(x, w, b, g)
        for got, want in zip([y.data, xt.grad, wp.grad, bp.grad], [expect] + grads):
            assert got.dtype == dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


class TestMaxOverTime:
    def test_simple(self):
        out = ad.max_over_time(Tensor(np.array([[[1.0, 5.0, 3.0]]])))
        assert out.data.shape == (1, 1)
        assert out.data[0, 0] == 5.0

    def test_tie_routes_gradient_to_first_index(self):
        x = Parameter(np.array([[[2.0, 2.0, 2.0]]]), "x")
        out = ad.max_over_time(x)
        assert out.data[0, 0] == 2.0
        _weighted_sum(out, np.ones(out.shape)).backward()
        assert np.array_equal(x.grad, [[[1.0, 0.0, 0.0]]])

    def test_matches_scan(self, rng):
        x = rng.normal(size=(3, 4, 7))
        out = ad.max_over_time(Tensor(x)).data
        for b in range(3):
            for c in range(4):
                best = x[b, c, 0]
                for t in range(1, 7):
                    if x[b, c, t] > best:
                        best = x[b, c, t]
                assert out[b, c] == best

    def test_gradients(self):
        for trial in range(100):
            r = np.random.default_rng(trial)
            x = Parameter(r.normal(size=(2, 3, 5)), "x")
            mix = r.normal(size=(2, 3))
            fd_check_primitive(
                lambda: _weighted_sum(ad.max_over_time(x), mix), [x]
            )

    @settings(max_examples=100, deadline=None)
    @given(shape=st.tuples(st.integers(1, 4), st.integers(1, 5), st.integers(1, 5)),
           values=st.sampled_from(["small-int", "all-equal", "all-negative"]),
           dtype=st.sampled_from([np.float32, np.float64]), time_inner=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_ties_match_max_and_first_argmax(self, shape, values, dtype, time_inner, seed):
        r = np.random.default_rng(seed)
        x = r.integers(-2, 3, size=shape).astype(dtype)   # small integers: many ties
        if values == "all-equal":
            x[...] = x[:, :, :1]
        elif values == "all-negative":
            x = -np.abs(x) - 1
        if not time_inner:   # time outside channels in memory, as a conv bank lays it out
            x = np.ascontiguousarray(x.transpose(0, 2, 1)).transpose(0, 2, 1)
        g = r.normal(size=shape[:2]).astype(dtype)
        xp = Parameter(x, "x")
        out = ad.max_over_time(xp)
        _weighted_sum(out, g).backward()
        assert out.data.dtype == dtype
        assert np.array_equal(out.data, x.max(axis=2))
        first = np.arange(shape[2]) == np.argmax(x, axis=2)[:, :, None]
        assert np.array_equal(xp.grad, g[:, :, None] * first)


def _oracle_sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _oracle_lstm_cell(x, h, c, wx, wh, b):
    """The per-cell tape LSTM step that `lstm_sequence` replaced.

    Returns (h', c') as two tape nodes sharing one forward cache; their
    backward contributions add. Float64 reference only.
    """
    hid = h.data.shape[1]
    pre = x.data @ wx.data + h.data @ wh.data + b.data
    gi = _oracle_sigmoid(pre[:, :hid])
    gf = _oracle_sigmoid(pre[:, hid:2 * hid])
    gg = np.tanh(pre[:, 2 * hid:3 * hid])
    go = _oracle_sigmoid(pre[:, 3 * hid:])
    c_new = gf * c.data + gi * gg
    tc = np.tanh(c_new)
    h_new = go * tc

    def _common(gc, dpo):
        dpi = (gc * gg) * gi * (1.0 - gi)
        dpf = (gc * c.data) * gf * (1.0 - gf)
        dpg = (gc * gi) * (1.0 - gg * gg)
        dpre = np.concatenate([dpi, dpf, dpg, dpo], axis=1)
        ad._accum(x, dpre @ wx.data.T)
        ad._accum(h, dpre @ wh.data.T)
        ad._accum(c, gc * gf)
        ad._accum(wx, x.data.T @ dpre)
        ad._accum(wh, h.data.T @ dpre)
        ad._accum(b, dpre.sum(axis=0))

    def backward_h(g):
        _common(g * go * (1.0 - tc * tc), (g * tc) * go * (1.0 - go))

    def backward_c(g):
        _common(g, np.zeros_like(go))

    parents = (x, h, c, wx, wh, b)
    return (Tensor(h_new, requires_grad=True, parents=parents, backward=backward_h),
            Tensor(c_new, requires_grad=True, parents=parents, backward=backward_c))


def _oracle_lstm_direction(steps, wx, wh, b, reverse=False):
    """Hidden state after every step, in forward time order, one cell at a time."""
    hid = wh.data.shape[0]
    h = Tensor(np.zeros((steps[0].data.shape[0], hid)))
    c = Tensor(np.zeros_like(h.data))
    out = [None] * len(steps)
    order = range(len(steps) - 1, -1, -1) if reverse else range(len(steps))
    for t in order:
        h, c = _oracle_lstm_cell(steps[t], h, c, wx, wh, b)
        out[t] = h
    return out


def _lstm_weights(d_in, hidden, rng=None, zero=False):
    if zero:
        wx = np.zeros((d_in, 4 * hidden))
        wh = np.zeros((hidden, 4 * hidden))
        b = np.zeros(4 * hidden)
    else:
        wx = rng.normal(size=(d_in, 4 * hidden)) * 0.5
        wh = rng.normal(size=(hidden, 4 * hidden)) * 0.5
        b = rng.normal(size=4 * hidden) * 0.5
    return Parameter(wx, "wx"), Parameter(wh, "wh"), Parameter(b, "b")


def _oracle_lstm_sequence(x, weights, mix, reverse):
    """Per-cell oracle over a (T, d, B) input: the (T, H, B) hidden states and
    the gradients of x and of (wx, wh, b) under the loss sum(hidden ⊙ mix)."""
    steps = [Parameter(x[t].T.copy(), f"x{t}") for t in range(x.shape[0])]
    params = [Parameter(w.copy(), "w") for w in weights]
    hs = _oracle_lstm_direction(steps, *params, reverse=reverse)
    # [h_0 | h_1 | ...] along axis 1 lines up with mix as (B, T·H)
    flat = mix.transpose(2, 0, 1).reshape(x.shape[2], -1)
    _weighted_sum(ad.concat(hs, axis=1), flat).backward()
    return (np.stack([h.data.T for h in hs]), np.stack([s.grad.T for s in steps]),
            [p.grad for p in params])


def _sigmoid_4_ops(z, out):
    np.multiply(z, 0.5, out=out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5


def _reference_lstm_sequence(x, wx, wh, b, g, reverse):
    """`lstm_sequence` as first written, on plain arrays: a product with the
    zero initial state at step 0 and a 4-op sigmoid per gate block. Returns
    the (T, H, B) output and the gradients of x, wx, wh and b under the
    upstream gradient `g`, for a bit-for-bit comparison."""
    t_len, _, bsz = x.shape
    hid = wh.shape[0]
    xs = x[::-1] if reverse else x
    xw = np.matmul(wx.T, xs)
    xw += b[:, None]
    gates = np.empty_like(xw)
    hs = np.zeros((t_len + 1, hid, bsz), dtype=xw.dtype)
    cs = np.zeros_like(hs)
    tcs = np.empty_like(hs[1:])
    for s in range(t_len):
        gt = gates[s]
        np.matmul(wh.T, hs[s], out=gt)
        gt += xw[s]
        _sigmoid_4_ops(gt[:2 * hid], gt[:2 * hid])
        np.tanh(gt[2 * hid:3 * hid], out=gt[2 * hid:3 * hid])
        _sigmoid_4_ops(gt[3 * hid:], gt[3 * hid:])
        np.multiply(gt[hid:2 * hid], cs[s], out=cs[s + 1])
        np.multiply(gt[:hid], gt[2 * hid:3 * hid], out=tcs[s])
        cs[s + 1] += tcs[s]
        np.tanh(cs[s + 1], out=tcs[s])
        np.multiply(gt[3 * hid:], tcs[s], out=hs[s + 1])
    out = hs[:0:-1] if reverse else hs[1:]

    gs = g[::-1] if reverse else g
    blocks = gates.reshape(t_len, 4, hid, bsz)
    i, f, gg, o = (blocks[:, k] for k in range(4))
    coef = np.empty_like(blocks)
    np.subtract(1.0, i, out=coef[:, 0])
    coef[:, 0] *= i
    coef[:, 0] *= gg
    np.subtract(1.0, f, out=coef[:, 1])
    coef[:, 1] *= f
    coef[:, 1] *= cs[:-1]
    np.multiply(gg, gg, out=coef[:, 2])
    np.subtract(1.0, coef[:, 2], out=coef[:, 2])
    coef[:, 2] *= i
    np.subtract(1.0, o, out=coef[:, 3])
    coef[:, 3] *= o
    coef[:, 3] *= tcs
    dc_dh = np.multiply(tcs, tcs)
    np.subtract(1.0, dc_dh, out=dc_dh)
    dc_dh *= o
    dpre = coef.reshape(t_len, 4 * hid, bsz)
    dh = np.zeros((hid, bsz), dtype=gates.dtype)
    dc = np.zeros_like(dh)
    for s in range(t_len - 1, -1, -1):
        dh += gs[s]
        dc_dh[s] *= dh
        dc += dc_dh[s]
        coef[s, :3] *= dc
        coef[s, 3] *= dh
        if s:
            np.matmul(wh, dpre[s], out=dh)
            dc *= f[s]
    dxs = np.matmul(wx, dpre)
    dpre_t = dpre.transpose(0, 2, 1)
    return (out, dxs[::-1] if reverse else dxs, np.matmul(xs, dpre_t).sum(axis=0),
            np.matmul(hs[:-1], dpre_t).sum(axis=0), dpre.sum(axis=(0, 2)))


class TestLSTMCell:
    """`lstm_cell` steps, run as one `lstm_sequence` tape node per direction."""

    def test_zero_weights_zero_output(self, rng):
        wx, wh, b = _lstm_weights(4, 3, zero=True)
        out = ad.lstm_sequence(Tensor(rng.normal(size=(5, 4, 2))), wx, wh, b)
        assert out.data.shape == (5, 3, 2)
        assert np.allclose(out.data, 0.0)

    def test_forget_gate_saturation_preserves_cell(self, rng):
        hidden = 3
        wx, wh, b = _lstm_weights(4, hidden, zero=True)
        b.data[hidden:2 * hidden] = 100.0   # forget gate ~ 1
        b.data[:hidden] = -100.0            # input gate ~ 0
        x = rng.normal(size=(4, 2))
        c = rng.normal(size=(hidden, 2))
        gates, c2, tc, h2 = np.empty((4 * hidden, 2)), *np.empty((3, hidden, 2))
        ad.lstm_cell(wx.data.T @ x + b.data[:, None], np.zeros((hidden, 2)), c,
                     wh.data.T, gates, c2, tc, h2)
        assert np.abs(c2 - c).max() < 1e-6
        assert np.array_equal(tc, np.tanh(c2))

    def test_gradients(self):
        for trial in range(100):
            r = np.random.default_rng(trial)
            wx, wh, b = _lstm_weights(3, 2, rng=r)
            x = Parameter(r.normal(size=(3, 3, 2)), "x")
            mix = r.normal(size=(3, 2, 2))
            reverse = bool(trial % 2)
            fd_check_primitive(
                lambda: _weighted_sum(ad.lstm_sequence(x, wx, wh, b, reverse=reverse), mix),
                [x, wx, wh, b],
            )

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("t_len", [1, 2, 5])
    def test_bit_equal_to_reference(self, dtype, reverse, t_len):
        """Pre-halved gate rows, one tanh per gate block and no product with
        the zero state give the bits of the formulation written out."""
        r = np.random.default_rng(100 * t_len + reverse)
        d_in, hidden, bsz = 5, 16, 64
        x = r.normal(size=(t_len, d_in, bsz)).astype(dtype)
        g = r.normal(size=(t_len, hidden, bsz)).astype(dtype)
        weights = [w.data.astype(dtype) for w in _lstm_weights(d_in, hidden, rng=r)]
        xp = Parameter(x.copy(), "x")
        params = [Parameter(w.copy(), "w") for w in weights]
        y = ad.lstm_sequence(xp, *params, reverse=reverse)
        _weighted_sum(y, g).backward()
        expect = _reference_lstm_sequence(x, *weights, g, reverse)
        for got, want in zip([y.data, xp.grad] + [p.grad for p in params], expect):
            assert got.dtype == dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_sigmoid_gates_saturate_without_overflow(self):
        """Pre-activations of ±1e4 put the i, f and o gates at exactly 0 and 1,
        and their slopes y(1 - y) at exactly 0, with no overflow forward or
        backward."""
        hid = 3
        z = np.array([-1e4, 0.0, 1e4])
        bias = np.concatenate([z, z, np.full(hid, 1e4), z])   # i, f, g = 1, o
        for dt in (np.float32, np.float64):
            x = Parameter(np.zeros((1, 1, 1), dt), "x")
            wx = Parameter(np.zeros((1, 4 * hid), dt), "wx")
            wh = Parameter(np.zeros((hid, 4 * hid), dt), "wh")
            b = Parameter(bias.astype(dt), "b")
            with np.errstate(all="raise"):
                y = ad.lstm_sequence(x, wx, wh, b)
                _weighted_sum(y, np.ones(y.shape)).backward()
            # h = o·tanh(f·0 + i·g) with g = 1, so i = o = 0, 1/2, 1 by unit
            h = y.data[0, :, 0]
            assert h.dtype == dt
            assert h[0] == 0.0
            assert np.abs(h[1:] - [0.5 * np.tanh(0.5), np.tanh(1.0)]).max() < 1e-6
            gi, gf, gg, go = b.grad.reshape(4, hid)
            assert gi[0] == gi[2] == go[0] == go[2] == 0.0
            assert gi[1] > 0.0 and go[1] > 0.0
            assert np.array_equal(gf, np.zeros(hid)) and np.array_equal(gg, np.zeros(hid))

    def test_shape_mismatch(self):
        wx, wh, b = _lstm_weights(4, 3, zero=True)
        with pytest.raises(DimensionError):
            ad.lstm_sequence(Tensor(np.zeros((5, 5, 2))), wx, wh, b)
        with pytest.raises(DimensionError):
            ad.lstm_sequence(Tensor(np.zeros((4, 2))), wx, wh, b)
        with pytest.raises(DimensionError):
            ad.lstm_sequence(Tensor(np.zeros((0, 4, 2))), wx, wh, b)
        with pytest.raises(DimensionError):
            ad.lstm_sequence(Tensor(np.zeros((5, 4, 2))), wx, wh, Parameter(np.zeros(4), "b"))

    @settings(max_examples=60, deadline=None)
    @given(bsz=st.integers(1, 5), t_len=st.integers(1, 6), d_in=st.integers(1, 5),
           hidden=st.integers(1, 4), reverse=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_matches_oracle_and_finite_differences(self, bsz, t_len, d_in, hidden,
                                                   reverse, seed):
        r = np.random.default_rng(seed)
        x = r.normal(size=(t_len, d_in, bsz))
        mix = r.normal(size=(t_len, hidden, bsz))
        weights = [w.data for w in _lstm_weights(d_in, hidden, rng=r)]
        xp = Parameter(x.copy(), "x")
        params = [Parameter(w.copy(), "w") for w in weights]
        y = ad.lstm_sequence(xp, *params, reverse=reverse)
        _weighted_sum(y, mix).backward()

        expect, gx, gws = _oracle_lstm_sequence(x, weights, mix, reverse)
        assert y.data.shape == (t_len, hidden, bsz)
        assert np.abs(y.data - expect).max() < 1e-12
        assert np.abs(xp.grad - gx).max() < 1e-12
        for p, gw in zip(params, gws):
            assert np.abs(p.grad - gw).max() < 1e-12
        fd_check_primitive(
            lambda: _weighted_sum(ad.lstm_sequence(xp, *params, reverse=reverse), mix),
            [xp, *params],
        )

    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_matches_per_cell_oracle(self, layers, reverse):
        r = np.random.default_rng(10 * layers + reverse)
        bsz, t_len, d_in, hidden = 3, 5, 4, 3
        x = r.normal(size=(bsz, t_len, d_in))
        mix = r.normal(size=(bsz, t_len, hidden))
        weights = [
            [w.data for w in _lstm_weights(d_in if l == 0 else hidden, hidden, rng=r)]
            for l in range(layers)
        ]

        xp = Parameter(x.transpose(1, 2, 0).copy(), "x")
        params = [[Parameter(w.copy(), "w") for w in ws] for ws in weights]
        y = xp
        for wx, wh, b in params:
            y = ad.lstm_sequence(y, wx, wh, b, reverse=reverse)
        _weighted_sum(y, mix.transpose(1, 2, 0)).backward()

        steps = [Parameter(x[:, t].copy(), f"x{t}") for t in range(t_len)]
        oparams = [[Parameter(w.copy(), "w") for w in ws] for ws in weights]
        hs = steps
        for wx, wh, b in oparams:
            hs = _oracle_lstm_direction(hs, wx, wh, b, reverse=reverse)
        # [h_0 | h_1 | ...] along axis 1 lines up with mix flattened over (t, h)
        _weighted_sum(ad.concat(hs, axis=1), mix.reshape(bsz, t_len * hidden)).backward()

        assert np.abs(y.data.transpose(2, 0, 1)
                      - np.stack([h.data for h in hs], axis=1)).max() < 1e-10
        assert np.abs(xp.grad.transpose(2, 0, 1)
                      - np.stack([s.grad for s in steps], axis=1)).max() < 1e-10
        for mine, theirs in zip(params, oparams):
            for p, q in zip(mine, theirs):
                assert np.abs(p.grad - q.grad).max() < 1e-10


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        logits = Tensor(np.zeros((2, 13)))
        loss = ad.softmax_cross_entropy(logits, np.array([0, 5]))
        assert abs(loss.item() - np.log(13)) < 1e-12

    def test_confident_correct_goes_to_zero(self):
        logits = np.zeros((1, 6))
        logits[0, 2] = 100.0
        loss = ad.softmax_cross_entropy(Tensor(logits), np.array([2]))
        assert loss.item() < 1e-6

    def test_matches_log_sum_exp_oracle(self, rng):
        z = rng.normal(size=(4, 6))
        labels = rng.integers(0, 6, size=4)
        loss = ad.softmax_cross_entropy(Tensor(z), labels).item()
        expect = 0.0
        for i in range(4):
            expect += np.log(np.exp(z[i]).sum()) - z[i, labels[i]]
        assert abs(loss - expect / 4) < 1e-12

    def test_label_out_of_range_names_sample(self):
        with pytest.raises(DataError, match="sample index 1"):
            ad.softmax_cross_entropy(Tensor(np.zeros((3, 4))), np.array([0, 7, 1]))

    def test_weighted_reduces_to_plain_with_uniform_weights(self, rng):
        z = rng.normal(size=(5, 3))
        labels = rng.integers(0, 3, size=5)
        a = ad.softmax_cross_entropy(Tensor(z), labels).item()
        b = ad.softmax_cross_entropy(Tensor(z), labels, np.ones(3)).item()
        assert abs(a - b) < 1e-12

    def test_weighted_matches_direct_formula(self, rng):
        z = rng.normal(size=(6, 4))
        labels = rng.integers(0, 4, size=6)
        w = np.array([0.5, 2.0, 1.0, 3.0])
        loss = ad.softmax_cross_entropy(Tensor(z), labels, w).item()
        num = den = 0.0
        for i in range(6):
            nll = np.log(np.exp(z[i]).sum()) - z[i, labels[i]]
            num += w[labels[i]] * nll
            den += w[labels[i]]
        assert abs(loss - num / den) < 1e-12

    def test_gradients(self):
        for trial in range(100):
            r = np.random.default_rng(trial)
            z = Parameter(r.normal(size=(3, 4)), "z")
            labels = r.integers(0, 4, size=3)
            w = r.uniform(0.5, 2.0, size=4)
            fd_check_primitive(
                lambda: ad.softmax_cross_entropy(z, labels, w), [z]
            )


class TestOtherPrimitives:
    def test_concat_and_mean_gradients(self):
        for trial in range(100):
            r = np.random.default_rng(trial)
            a = Parameter(r.normal(size=(2, 3, 3)), "a")
            b = Parameter(r.normal(size=(2, 3, 2)), "b")
            mix = r.normal(size=(2, 3, 5))
            mix2 = r.normal(size=(2, 3))
            fd_check_primitive(lambda: _weighted_sum(ad.concat([a, b], axis=2), mix), [a, b])
            fd_check_primitive(lambda: _weighted_sum(ad.mean(a, axis=1), mix2), [a])
            fd_check_primitive(lambda: _weighted_sum(ad.transpose(ad.mean(a, axis=1)),
                                                     mix2.T), [a])

    def test_mean_and_index_match_numpy(self, rng):
        x = rng.normal(size=(2, 5, 3))
        assert np.array_equal(ad.index(Tensor(x), -1, axis=1).data, x[:, -1])
        assert np.array_equal(ad.transpose(Tensor(x[0])).data, x[0].T)
        with pytest.raises(DimensionError):
            ad.transpose(Tensor(x))
        assert np.abs(ad.mean(Tensor(x), axis=1).data - x.sum(axis=1) / 5).max() < 1e-12

    def test_index_gradients(self):
        for trial in range(50):
            r = np.random.default_rng(trial)
            x = Parameter(r.normal(size=(2, 4, 3)), "x")
            mix = r.normal(size=(2, 3))
            i = int(r.integers(-4, 4))
            fd_check_primitive(
                lambda: _weighted_sum(ad.index(x, i, axis=1), mix), [x]
            )

    def test_activations_gradients(self):
        for trial in range(100):
            r = np.random.default_rng(trial)
            x = Parameter(r.normal(size=(3, 4)), "x")
            mix = r.normal(size=(3, 4))
            fd_check_primitive(lambda: _weighted_sum(ad.relu(x), mix), [x])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relu_bit_equal_on_zeros_and_nan(self, dtype):
        """The mask taken from the output is the mask of x > 0, for 0.0, -0.0
        and NaN too."""
        values = [0.0, -0.0, np.nan, -np.nan, 1.5, -1.5, np.inf, -np.inf, 1e-45, -1e-45]
        x = np.array(values * 3, dtype=dtype).reshape(5, 6)
        g = np.random.default_rng(7).normal(size=x.shape).astype(dtype)
        g[0, :2] = -0.0
        xt = Tensor(x, requires_grad=True)
        y = ad.relu(xt)
        _weighted_sum(y, g).backward()
        assert y.data.tobytes() == np.maximum(x, 0).tobytes()
        assert xt.grad.tobytes() == (np.zeros_like(x) + g * (x > 0)).tobytes()

    def test_determinism_bit_identical(self, rng):
        x = rng.normal(size=(2, 3, 5))
        w = rng.normal(size=(4, 3, 2))
        b = rng.normal(size=4)
        out1 = ad.conv1d_valid(Tensor(x), Tensor(w), Tensor(b)).data
        out2 = ad.conv1d_valid(Tensor(x.copy()), Tensor(w.copy()), Tensor(b.copy())).data
        assert np.array_equal(out1, out2)

    def test_finite_outputs_on_finite_inputs(self, rng):
        x = Parameter(rng.normal(size=(2, 5, 4)) * 100, "x")
        flat = ad.reshape(x, (2, 20))
        w = Parameter(rng.normal(size=(20, 3)) * 100, "w")
        b = Parameter(np.zeros(3), "b")
        loss = ad.softmax_cross_entropy(ad.dense(flat, w, b), np.array([0, 2]))
        loss.backward()
        assert np.isfinite(loss.data).all()
        assert np.isfinite(x.grad).all()
        assert np.isfinite(w.grad).all()


class TestAccum:
    """The first gradient a tensor receives: one pass, with the bits, shape
    and memory layout of accumulating onto `np.zeros_like(t.data)`."""

    def test_negative_zero_becomes_positive_zero(self):
        t = Tensor(np.ones(4), requires_grad=True)
        ad._accum(t, np.array([-0.0, 0.0, -2.5, 3.0]))
        assert t.grad.tobytes() == np.array([0.0, 0.0, -2.5, 3.0]).tobytes()
        assert not np.signbit(t.grad[0])
        ad._accum(t, np.array([1.0, -0.0, 2.5, 0.0]))   # later ones add in place
        assert t.grad.tobytes() == np.array([1.0, 0.0, 0.0, 3.0]).tobytes()

    def test_broadcast_gradient_takes_the_tensor_shape(self, rng):
        x = rng.normal(size=(2, 3, 4)).astype(np.float32)
        g = rng.normal(size=(2, 1, 4)).astype(np.float32)
        for grad in (np.broadcast_to(g, x.shape), g[0, 0]):
            t = Tensor(x, requires_grad=True)
            ad._accum(t, grad)
            assert t.grad.shape == x.shape and t.grad.flags.writeable
            assert t.grad.tobytes() == (np.zeros_like(x) + grad).tobytes()
        # `mean` backward hands its parent a broadcast view
        t = Tensor(x, requires_grad=True)
        _weighted_sum(ad.mean(t, axis=1), g[:, 0]).backward()
        assert t.grad.shape == x.shape and t.grad.flags.writeable
        assert t.grad.tobytes() == (np.zeros_like(x) + np.broadcast_to(g / 3, x.shape)).tobytes()

    @pytest.mark.parametrize("axes", [(0, 2, 1), (2, 1, 0), (1, 0, 2)])
    def test_transposed_data_gets_the_strides_of_zeros_like(self, rng, axes):
        data = rng.normal(size=(3, 4, 5)).transpose(axes)
        g = rng.normal(size=data.shape)
        t = Tensor(data, requires_grad=True)
        ad._accum(t, g)
        assert t.grad.strides == np.zeros_like(data).strides
        assert t.grad.tobytes() == g.tobytes()


def test_public_ops_are_the_ones_the_models_run():
    """Pinned, so a generic op the models do not run cannot come back unnoticed."""
    public = sorted(name for name, v in vars(ad).items()
                    if callable(v) and not name.startswith("_")
                    and getattr(v, "__module__", None) == ad.__name__)
    assert public == [
        "Parameter", "Tensor", "concat", "conv1d_valid", "dense", "index", "lstm_cell",
        "lstm_sequence", "max_over_time", "mean", "relu", "reshape",
        "softmax_cross_entropy", "transpose"]
