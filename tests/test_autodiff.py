"""Primitive-level forward oracles and gradient properties."""

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajbehav import autodiff as ad
from trajbehav.autodiff import Parameter, Tensor
from trajbehav.errors import ConfigError, DataError, DimensionError
from trajbehav.models import build_model


def fd_check_primitive(build_loss, params, step=1e-5, tol=1e-5):
    """Central finite differences vs reverse-mode for every element."""
    for p in params:
        p.grad.fill(0.0)
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
    """`conv1d_valid` written out on plain (B, T, C) arrays: a
    `sliding_window_view` im2col and every gradient accumulated onto zeros.
    Returns the output and the gradients of x, w and b under the upstream
    gradient `g`, for a bit-for-bit comparison.

    `cols` is made C-contiguous. The reshape copies it at every shape the
    models run, but for one sample with k = 1 or C_in = 1 it can return a
    strided view instead, and BLAS rounds a product with that differently."""
    bsz, t_len, c_in = x.shape
    c_out, _, k = w.shape
    out_len = t_len - k + 1
    cols = np.lib.stride_tricks.sliding_window_view(x, k, axis=1)   # (B, T', C_in, k)
    cols = np.ascontiguousarray(cols.reshape(bsz * out_len, c_in * k))
    wmat = w.reshape(c_out, c_in * k)
    out = (cols @ wmat.T + b).reshape(bsz, out_len, c_out)
    g2 = g.reshape(bsz * out_len, c_out)
    dcols = (g2 @ wmat).reshape(bsz, out_len, c_in, k)
    gx = np.zeros((bsz, t_len, c_in), dtype=dcols.dtype)
    for j in range(k):
        gx[:, j:j + out_len] += dcols[:, :, :, j]
    grads = (gx, (g2.T @ cols).reshape(c_out, c_in, k), g2.sum(axis=0))
    return out, [np.zeros_like(a) + d for a, d in zip((x, w, b), grads)]


class TestConv1d:
    def test_zero_input_gives_bias(self, rng):
        x = Tensor(np.zeros((2, 5, 3)))
        w = Tensor(rng.normal(size=(4, 3, 2)))
        b = Tensor(np.array([1.0, -2.0, 0.5, 3.0]))
        out = ad.conv1d_valid(x, w, b).data
        assert out.shape == (2, 4, 4)
        for c in range(4):
            assert np.allclose(out[:, :, c], b.data[c])

    def test_finite_difference_kernel(self):
        x = Tensor(np.array([1.0, 2.0, 4.0, 7.0, 11.0]).reshape(1, 5, 1))
        w = Tensor(np.array([-1.0, 1.0]).reshape(1, 1, 2))
        b = Tensor(np.zeros(1))
        out = ad.conv1d_valid(x, w, b).data
        # cross-correlation with [-1, 1] is the first difference
        assert np.allclose(out[0, :, 0], [1.0, 2.0, 3.0, 4.0])

    def test_matches_quadruple_loop(self, rng):
        x = rng.normal(size=(2, 5, 4))
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
                            acc += x[bi, t + j, c] * w[o, c, j]
                    expect[bi, t, o] = acc
        assert np.abs(out - expect).max() < 1e-12

    def test_output_length_property(self, rng):
        for trial in range(50):
            r = np.random.default_rng(trial)
            t_len = int(r.integers(1, 12))
            k = int(r.integers(1, t_len + 1))
            x = Tensor(r.normal(size=(1, t_len, 2)))
            w = Tensor(r.normal(size=(3, 2, k)))
            out = ad.conv1d_valid(x, w, Tensor(np.zeros(3)))
            assert out.data.shape == (1, t_len - k + 1, 3)

    def test_kernel_longer_than_sequence(self):
        with pytest.raises(ConfigError):
            ad.conv1d_valid(
                Tensor(np.zeros((1, 3, 1))),
                Tensor(np.zeros((1, 1, 4))),
                Tensor(np.zeros(1)),
            )

    def test_channel_mismatch(self):
        with pytest.raises(DimensionError):
            ad.conv1d_valid(
                Tensor(np.zeros((1, 5, 2))),
                Tensor(np.zeros((1, 3, 2))),
                Tensor(np.zeros(1)),
            )

    def test_matches_einsum_oracle_for_every_width(self, rng):
        t_len = 7
        x = rng.normal(size=(3, t_len, 4))
        for k in range(1, t_len + 1):
            out_len = t_len - k + 1
            w = rng.normal(size=(5, 4, k))
            b = rng.normal(size=5)
            mix = rng.normal(size=(3, out_len, 5))
            xp, wp, bp = Parameter(x.copy(), "x"), Parameter(w, "w"), Parameter(b, "b")
            out = ad.conv1d_valid(xp, wp, bp)
            _weighted_sum(out, mix).backward()

            windows = np.lib.stride_tricks.sliding_window_view(x, k, axis=1)
            expect = np.einsum("blck,ock->blo", windows, w) + b
            gx = np.zeros_like(x)
            for j in range(k):
                gx[:, j:j + out_len] += np.einsum("blo,oc->blc", mix, w[:, :, j])
            assert out.data.shape == (3, out_len, 5)
            assert np.abs(out.data - expect).max() < 1e-12
            assert np.abs(wp.grad - np.einsum("blo,blck->ock", mix, windows)).max() < 1e-12
            assert np.abs(bp.grad - mix.sum(axis=(0, 1))).max() < 1e-12
            assert np.abs(xp.grad - gx).max() < 1e-12

    def test_gradients(self):
        for trial in range(100):
            r = np.random.default_rng(trial)
            x = Parameter(r.normal(size=(2, 5, 2)), "x")
            w = Parameter(r.normal(size=(2, 2, 3)), "w")
            b = Parameter(r.normal(size=2), "b")
            mix = r.normal(size=(2, 3, 2))
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
        the bits of the formulation written out, into a C-contiguous
        (B, T', C_out) output, on a C-contiguous (B, T, C) input and on the
        transposed view of a (B, C, T) one alike."""
        r = np.random.default_rng(seed)
        shape = (bsz, k + extra_steps, c_in)
        if time_inner:   # time innermost in memory: the values of a strided input
            x = r.normal(size=(bsz, c_in, shape[1])).astype(dtype).transpose(0, 2, 1)
        else:   # the window batch's and the conv outputs' own layout
            x = r.normal(size=shape).astype(dtype)
        x[0, 0, 0] = -0.0
        w = r.normal(size=(c_out, c_in, k)).astype(dtype)
        b = r.normal(size=c_out).astype(dtype)
        g = r.normal(size=(bsz, extra_steps + 1, c_out)).astype(dtype)
        xt = Tensor(x, requires_grad=True)   # no gradient yet: the first accumulation
        wp, bp = Parameter(w.copy(), "w"), Parameter(b.copy(), "b")
        y = ad.conv1d_valid(xt, wp, bp)
        _weighted_sum(y, g).backward()
        assert y.data.flags.c_contiguous
        expect, grads = _reference_conv1d_valid(x, w, b, g)
        for got, want in zip([y.data, xt.grad, wp.grad, bp.grad], [expect] + grads):
            assert got.dtype == dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


class TestMaxOverTime:
    def test_simple(self):
        out = ad.max_over_time(Tensor(np.array([[[1.0], [5.0], [3.0]]])))
        assert out.data.shape == (1, 1)
        assert out.data[0, 0] == 5.0

    def test_tie_routes_gradient_to_first_index(self):
        x = Parameter(np.array([[[2.0], [2.0], [2.0]]]), "x")
        out = ad.max_over_time(x)
        assert out.data[0, 0] == 2.0
        _weighted_sum(out, np.ones(out.shape)).backward()
        assert np.array_equal(x.grad, [[[1.0], [0.0], [0.0]]])

    def test_matches_scan(self, rng):
        x = rng.normal(size=(3, 7, 4))
        out = ad.max_over_time(Tensor(x)).data
        assert out.shape == (3, 4)
        for b in range(3):
            for c in range(4):
                best = x[b, 0, c]
                for t in range(1, 7):
                    if x[b, t, c] > best:
                        best = x[b, t, c]
                assert out[b, c] == best

    def test_gradients(self):
        for trial in range(100):
            r = np.random.default_rng(trial)
            x = Parameter(r.normal(size=(2, 5, 3)), "x")
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
            x[...] = x[:, :1]
        elif values == "all-negative":
            x = -np.abs(x) - 1
        if time_inner:   # time innermost in memory: a strided (B, L, C) view
            x = np.ascontiguousarray(x.transpose(0, 2, 1)).transpose(0, 2, 1)
        g = r.normal(size=(shape[0], shape[2])).astype(dtype)
        xp = Parameter(x, "x")
        out = ad.max_over_time(xp)
        _weighted_sum(out, g).backward()
        assert out.data.dtype == dtype
        assert np.array_equal(out.data, x.max(axis=1))
        first = np.arange(shape[1])[:, None] == np.argmax(x, axis=1)[:, None, :]
        assert np.array_equal(xp.grad, g[:, None, :] * first)


class TestConvLayout:
    """The conv ops take and return the window batch's own (B, T, C) layout."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bsz, t_len, c_in, c_out, k",
                             [(256, 5, 4, 32, 2), (33, 5, 4, 32, 4), (47, 4, 32, 32, 2),
                              (1, 2, 64, 64, 2)])
    def test_conv1d_valid_returns_c_contiguous_b_t_c(self, dtype, bsz, t_len, c_in, c_out, k):
        r = np.random.default_rng(bsz)
        x = r.normal(size=(bsz, t_len, c_in)).astype(dtype)
        w = r.normal(size=(c_out, c_in, k)).astype(dtype)
        b = r.normal(size=c_out).astype(dtype)
        g = r.normal(size=(bsz, t_len - k + 1, c_out)).astype(dtype)
        xt = Tensor(x, requires_grad=True)
        y = ad.conv1d_valid(xt, Parameter(w, "w"), Parameter(b, "b"))
        _weighted_sum(y, g).backward()
        assert y.data.shape == (bsz, t_len - k + 1, c_out)
        assert y.data.flags.c_contiguous and xt.grad.flags.c_contiguous
        expect, grads = _reference_conv1d_valid(x, w, b, g)
        assert y.data.tobytes() == expect.tobytes()
        assert xt.grad.tobytes() == grads[0].tobytes()

    def test_max_over_time_reduces_axis_1(self, rng):
        x = rng.normal(size=(6, 4, 9))
        out = ad.max_over_time(Tensor(x)).data
        assert out.shape == (6, 9) and out.flags.c_contiguous
        assert out.tobytes() == x.max(axis=1).tobytes()


def _oracle_sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _oracle_lstm_cell(x, h, c, wx, wh, b):
    """The per-cell tape LSTM step that `lstm_layer`'s recurrence replaced.

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
    """Per-cell oracle of one direction over a (T, d, B) input: the (T, H, B)
    hidden states and the gradients of x and of (wx, wh, b) under the loss
    sum(hidden ⊙ mix)."""
    steps = [Parameter(x[t].T.copy(), f"x{t}") for t in range(x.shape[0])]
    params = [Parameter(w.copy(), "w") for w in weights]
    hs = _oracle_lstm_direction(steps, *params, reverse=reverse)
    # [h_0 | h_1 | ...] along axis 1 lines up with mix as (B, T·H)
    flat = mix.transpose(2, 0, 1).reshape(x.shape[2], -1)
    _weighted_sum(ad.concat(hs, axis=1), flat).backward()
    return (np.stack([h.data.T for h in hs]), np.stack([s.grad.T for s in steps]),
            [p.grad for p in params])


def _oracle_lstm_layer(x, directions, mix):
    """Per-cell oracle of a one- or two-direction layer, the second direction
    reversed: the (T, nH, B) output and the gradients of x and of each
    direction's (wx, wh, b) under sum(out ⊙ mix)."""
    hid = directions[0][1].shape[0]
    outs, gx, gws = [], 0.0, []
    for k, weights in enumerate(directions):
        out, gxk, gwk = _oracle_lstm_sequence(x, weights, mix[:, k * hid:(k + 1) * hid],
                                              reverse=bool(k))
        outs.append(out)
        gx = gx + gxk
        gws += gwk
    return np.concatenate(outs, axis=1), gx, gws


def _directions(reverse, d_in, hidden, rng, dtype=np.float64):
    """Weight arrays of a layer under test: one forward triple, or, to test the
    reversed direction, a forward and a reversed one."""
    return [[w.data.astype(dtype) for w in _lstm_weights(d_in, hidden, rng=rng)]
            for _ in range(1 + reverse)]


def _sigmoid_4_ops(z, out):
    np.multiply(z, 0.5, out=out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5


def _reference_lstm_sequence(x, wx, wh, b, g, reverse):
    """One direction of `lstm_layer` as first written, on plain arrays: a
    product with the zero initial state at step 0, a 4-op sigmoid per gate
    block, separate projection and gate arrays and a stored tanh(c'). Returns
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
    """`lstm_cell` steps, run as one `lstm_layer` tape node per layer."""

    def test_zero_weights_zero_output(self, rng):
        fw = _lstm_weights(4, 3, zero=True)
        x = Tensor(rng.normal(size=(5, 4, 2)))
        out = ad.lstm_layer(x, fw)
        assert out.data.shape == (5, 3, 2)
        assert np.allclose(out.data, 0.0)
        both = ad.lstm_layer(x, fw, _lstm_weights(4, 3, zero=True))
        assert both.data.shape == (5, 6, 2)
        assert np.allclose(both.data, 0.0)

    def test_forget_gate_saturation_preserves_cell(self, rng):
        """The in-place contract: the cell adds the recurrent product it is
        given, the projection becomes the gate activations, the scratch ends
        holding tanh(c') in its first H rows, and a saturated forget gate with
        a closed input gate carries c through."""
        hidden = 3
        wx, wh, b = _lstm_weights(4, hidden, zero=True)
        b.data[hidden:2 * hidden] = 100.0   # forget gate ~ 1
        b.data[:hidden] = -100.0            # input gate ~ 0
        x = rng.normal(size=(4, 2))
        c = rng.normal(size=(hidden, 2))
        gates = wx.data.T @ x + b.data[:, None]
        act = np.tanh(gates)
        for k in (0, 1, 3):
            act[k * hidden:(k + 1) * hidden] = (act[k * hidden:(k + 1) * hidden] + 1.0) * 0.5
        scratch, c2, h2 = np.empty((4 * hidden, 2)), *np.empty((2, hidden, 2))
        rec = wh.data.T @ np.zeros((hidden, 2))   # Whᵀ·h of a zero previous state
        ad.lstm_cell(gates, rec, c, scratch, c2, h2)
        assert np.abs(c2 - c).max() < 1e-6
        assert np.array_equal(gates, act)
        assert np.array_equal(scratch[:hidden], np.tanh(c2))
        assert np.array_equal(h2, act[3 * hidden:] * np.tanh(c2))

    def test_gradients(self):
        for trial in range(100):
            r = np.random.default_rng(trial)
            directions = [_lstm_weights(3, 2, rng=r) for _ in range(1 + trial % 2)]
            x = Parameter(r.normal(size=(3, 3, 2)), "x")
            mix = r.normal(size=(3, 2 * len(directions), 2))
            fd_check_primitive(
                lambda: _weighted_sum(ad.lstm_layer(x, *directions), mix),
                [x] + [w for ws in directions for w in ws],
            )

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("t_len", [1, 2, 5])
    def test_bit_equal_to_reference(self, dtype, reverse, t_len):
        """Pre-halved gate rows, one tanh per gate block, no product with the
        zero state, gates over the projection and a recomputed tanh(c') give
        the bits of the formulation written out, for the reversed direction
        as the second of a two-direction layer."""
        r = np.random.default_rng(100 * t_len + reverse)
        d_in, hidden, bsz = 5, 16, 64
        x = r.normal(size=(t_len, d_in, bsz)).astype(dtype)
        g = r.normal(size=(t_len, hidden * (1 + reverse), bsz)).astype(dtype)
        directions = _directions(reverse, d_in, hidden, r, dtype)
        xp = Parameter(x.copy(), "x")
        params = [[Parameter(w.copy(), "w") for w in ws] for ws in directions]
        y = ad.lstm_layer(xp, *params)
        _weighted_sum(y, g).backward()
        expect = [_reference_lstm_sequence(x, *ws, g[:, k * hidden:(k + 1) * hidden], bool(k))
                  for k, ws in enumerate(directions)]
        want_y = np.concatenate([e[0] for e in expect], axis=1)
        want_x = np.zeros_like(x)
        for e in expect:
            want_x += e[1]
        got = [y.data, xp.grad] + [p.grad for ps in params for p in ps]
        want = [want_y, want_x] + [gw for e in expect for gw in e[2:]]
        for got_a, want_a in zip(got, want):
            assert got_a.dtype == dtype and got_a.shape == want_a.shape
            assert got_a.tobytes() == want_a.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bsz", [1, 3, 33])
    def test_tanh_over_all_steps_has_the_bits_of_each_step(self, dtype, bsz):
        """The backward's one `np.tanh` over the (T, H, B) cell states gives
        the bits the forward's per-step (H, B) calls gave, at batch sizes that
        leave SIMD tails."""
        r = np.random.default_rng(bsz)
        cs = (r.normal(size=(6, 7, bsz)) * 3).astype(dtype)
        cs[0, 0, 0] = -0.0
        per_step = np.empty_like(cs)
        for s in range(cs.shape[0]):
            np.tanh(cs[s], out=per_step[s])
        assert np.tanh(cs).tobytes() == per_step.tobytes()

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
                y = ad.lstm_layer(x, (wx, wh, b))
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
        fw = _lstm_weights(4, 3, zero=True)
        with pytest.raises(DimensionError):
            ad.lstm_layer(Tensor(np.zeros((5, 5, 2))), fw)
        with pytest.raises(DimensionError):
            ad.lstm_layer(Tensor(np.zeros((4, 2))), fw)
        with pytest.raises(DimensionError):
            ad.lstm_layer(Tensor(np.zeros((0, 4, 2))), fw)
        with pytest.raises(DimensionError):
            ad.lstm_layer(Tensor(np.zeros((5, 4, 2))), fw[:2] + (Parameter(np.zeros(4), "b"),))
        with pytest.raises(DimensionError):   # directions of unequal width
            ad.lstm_layer(Tensor(np.zeros((5, 4, 2))), fw, _lstm_weights(4, 2, zero=True))

    @settings(max_examples=60, deadline=None)
    @given(bsz=st.integers(1, 5), t_len=st.integers(1, 6), d_in=st.integers(1, 5),
           hidden=st.integers(1, 4), reverse=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_matches_oracle_and_finite_differences(self, bsz, t_len, d_in, hidden,
                                                   reverse, seed):
        r = np.random.default_rng(seed)
        x = r.normal(size=(t_len, d_in, bsz))
        mix = r.normal(size=(t_len, hidden * (1 + reverse), bsz))
        directions = _directions(reverse, d_in, hidden, r)
        xp = Parameter(x.copy(), "x")
        params = [[Parameter(w.copy(), "w") for w in ws] for ws in directions]
        y = ad.lstm_layer(xp, *params)
        _weighted_sum(y, mix).backward()

        expect, gx, gws = _oracle_lstm_layer(x, directions, mix)
        assert y.data.shape == (t_len, hidden * (1 + reverse), bsz)
        assert np.abs(y.data - expect).max() < 1e-12
        assert np.abs(xp.grad - gx).max() < 1e-12
        flat = [p for ps in params for p in ps]
        for p, gw in zip(flat, gws):
            assert np.abs(p.grad - gw).max() < 1e-12
        fd_check_primitive(lambda: _weighted_sum(ad.lstm_layer(xp, *params), mix), [xp, *flat])

    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_matches_per_cell_oracle(self, layers, reverse):
        """Stacked layers, each one forward direction or, with `reverse`, a
        forward and a reversed one, against per-cell tapes."""
        r = np.random.default_rng(10 * layers + reverse)
        bsz, t_len, d_in, hidden = 3, 5, 4, 3
        width = hidden * (1 + reverse)
        x = r.normal(size=(bsz, t_len, d_in))
        mix = r.normal(size=(bsz, t_len, width))
        weights = [_directions(reverse, d_in if l == 0 else width, hidden, r)
                   for l in range(layers)]

        xp = Parameter(x.transpose(1, 2, 0).copy(), "x")
        params = [[[Parameter(w.copy(), "w") for w in ws] for ws in layer] for layer in weights]
        y = xp
        for layer in params:
            y = ad.lstm_layer(y, *layer)
        _weighted_sum(y, mix.transpose(1, 2, 0)).backward()

        steps = [Parameter(x[:, t].copy(), f"x{t}") for t in range(t_len)]
        oparams = [[[Parameter(w.copy(), "w") for w in ws] for ws in layer] for layer in weights]
        hs = steps
        for layer in oparams:
            runs = [_oracle_lstm_direction(hs, *ws, reverse=bool(k))
                    for k, ws in enumerate(layer)]
            hs = runs[0] if len(runs) == 1 else [ad.concat(list(h), axis=1) for h in zip(*runs)]
        # [h_0 | h_1 | ...] along axis 1 lines up with mix flattened over (t, h)
        _weighted_sum(ad.concat(hs, axis=1), mix.reshape(bsz, t_len * width)).backward()

        assert np.abs(y.data.transpose(2, 0, 1)
                      - np.stack([h.data for h in hs], axis=1)).max() < 1e-10
        assert np.abs(xp.grad.transpose(2, 0, 1)
                      - np.stack([s.grad for s in steps], axis=1)).max() < 1e-10
        for mine, theirs in zip(params, oparams):
            for ps, qs in zip(mine, theirs):
                for p, q in zip(ps, qs):
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
        x = rng.normal(size=(2, 5, 3))
        w = rng.normal(size=(4, 3, 2))
        b = rng.normal(size=4)
        out1 = ad.conv1d_valid(Tensor(x), Tensor(w), Tensor(b)).data
        out2 = ad.conv1d_valid(Tensor(x.copy()), Tensor(w.copy()), Tensor(b.copy())).data
        assert np.array_equal(out1, out2)

    def test_finite_outputs_on_finite_inputs(self, rng):
        x = Parameter(rng.normal(size=(2, 5, 4)) * 100, "x")
        last = ad.index(x, -1, axis=1)
        w = Parameter(rng.normal(size=(4, 3)) * 100, "w")
        b = Parameter(np.zeros(3), "b")
        loss = ad.softmax_cross_entropy(ad.dense(last, w, b), np.array([0, 2]))
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


class TestWorkspace:
    def test_passes_reuse_buffers_for_the_bits_of_fresh_arrays(self, rng):
        x = Tensor(rng.normal(size=(5, 3, 8)).astype(np.float32))
        y = Tensor(rng.normal(size=(5, 2, 8)).astype(np.float32))
        fresh = ad.mean(ad.concat([x, y], axis=1), axis=0).data
        ws = ad.Workspace()
        with ws:
            first = ad.mean(ad.concat([x, y], axis=1), axis=0).data
            assert first.tobytes() == fresh.tobytes()
        with ws:
            small = ad.concat([Tensor(x.data[:, :, :4]), Tensor(y.data[:, :, :4])], axis=1).data
        with ws:
            second = ad.mean(ad.concat([x, y], axis=1), axis=0).data
        assert np.shares_memory(first, second) and not np.shares_memory(first, fresh)
        assert small.shape == (5, 5, 4) and second.tobytes() == fresh.tobytes()
        with ws:
            with ad.Workspace():
                pass
            inner = ad.mean(ad.concat([x, y], axis=1), axis=0).data
        assert np.shares_memory(inner, first)
        assert not np.shares_memory(ad.concat([x, y], axis=1).data, first)
        ws.release()
        with ws:
            third = ad.mean(ad.concat([x, y], axis=1), axis=0).data
        assert not np.shares_memory(third, first) and third.tobytes() == fresh.tobytes()

    @pytest.mark.parametrize("kind", ["fusion", "lstm", "conv1d"])
    def test_training_step_in_a_workspace_is_bit_equal(self, kind, rng):
        """The same loss and gradients with the model's workspace, on its
        first pass and after a larger and a smaller batch have resized it,
        and at an odd batch size, whose rows leave SIMD tails in the fusion
        model's two-direction layers."""
        model = build_model(kind, 4, seed=3)
        first, larger, smaller, odd = (rng.normal(size=(n, 5, 4)).astype(np.float32)
                                       for n in (48, 64, 40, 33))
        batches = [first, larger, smaller, first, odd]
        labels = np.arange(64) % 4

        def step(batch, ws):
            model.zero_grad()
            if ws:
                with model.workspace:
                    loss = ad.softmax_cross_entropy(model.forward(batch), labels[:len(batch)])
            else:
                loss = ad.softmax_cross_entropy(model.forward(batch), labels[:len(batch)])
            loss.backward()
            return loss.data.tobytes(), model.grad.tobytes()

        expect, expect_odd = step(first, False), step(odd, False)
        outs = [step(b, True) for b in batches]
        assert outs[0] == expect and outs[3] == expect and outs[4] == expect_odd

    @pytest.mark.parametrize("kind, bound_mib", [("fusion", 10.5), ("lstm", 5.0)])
    def test_a_forward_pass_keeps_only_what_its_backward_reads(self, kind, bound_mib):
        """A 256-window float32 pass leaves per LSTM direction its gates, cell
        states, one (4H, B) scratch and halved weights, and per layer one
        output: 9.6 MiB for fusion and 4.6 MiB for lstm. Keeping the input
        projection, the gates and tanh(c') apart, with one tape node per
        direction and a concatenation per layer, took 16.1 and 7.2 MiB."""
        model = build_model(kind, 13, seed=0)
        with model.workspace:
            model.forward(np.zeros((256, 5, 4), np.float32))
        assert sum(b.nbytes for b in model.workspace._buffers) < bound_mib * 2**20


def _bidirectional_layer(bsz, dtype, tied=False):
    """One two-direction layer over a fixed input: (x, fw, bw, output); with
    `tied`, bw is fw's own tensors."""
    t_len, d_in, hidden = 5, 6, 8
    r = np.random.default_rng(bsz)
    x = Parameter(r.normal(size=(t_len, d_in, bsz)).astype(dtype), "x")
    fw, bw = ([Parameter(w.astype(dtype), "w") for w in ws]
              for ws in _directions(True, d_in, hidden, r))
    bw = fw if tied else bw
    return x, fw, bw, ad.lstm_layer(x, fw, bw)


def _bidirectional_grads(bsz, dtype, tied=False):
    """The output and the x, fw and bw gradients of one two-direction layer
    under a fixed loss, as bytes."""
    x, fw, bw, y = _bidirectional_layer(bsz, dtype, tied)
    _weighted_sum(y, np.random.default_rng(0).normal(size=y.shape)).backward()
    return [y.data.tobytes()] + [p.grad.tobytes() for p in (x, *fw, *bw)]


class TestConcurrentDirections:
    """A two-direction layer runs its second direction's backward on a worker
    thread, and in its forward the worker computes the second direction's
    input projection and every recurrent product while the calling thread
    runs the cells. The tests spy on `_lstm_backward`, on `lstm_cell` and on
    `np.matmul`, which computes every projection and product, to see where
    each ran. The batch and CPU gates are lifted unless a test says
    otherwise."""

    @pytest.fixture(autouse=True)
    def _any_batch_any_cpus(self, monkeypatch):
        monkeypatch.setattr(ad, "CONCURRENT_MIN_BATCH", 1)
        monkeypatch.setattr(ad, "_spare_cpu", lambda: True)

    @staticmethod
    def _spy(monkeypatch, before=None):
        """Patch `_lstm_backward` to record (thread id, np.geterr(), wh) per
        call, running `before(wh)` first if given. Returns the record list."""
        calls, real = [], ad._lstm_backward

        def spy(gs, gates, cs, wh):
            calls.append((threading.get_ident(), np.geterr(), wh))
            if before is not None:
                before(wh)
            return real(gs, gates, cs, wh)

        monkeypatch.setattr(ad, "_lstm_backward", spy)
        return calls

    @staticmethod
    def _matmul_spy(monkeypatch, before=None):
        """Patch `np.matmul` to record (thread id, np.geterr()) per call,
        running `before()` first if given. Returns the record list."""
        calls, real = [], np.matmul

        def spy(*args, **kwargs):
            calls.append((threading.get_ident(), np.geterr()))
            if before is not None:
                before()
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "matmul", spy)
        return calls

    @staticmethod
    def _cell_spy(monkeypatch, before=None):
        """Patch `lstm_cell` to record the thread id of each call, running
        `before()` first if given. Returns the record list."""
        calls, real = [], ad.lstm_cell

        def spy(*args):
            calls.append(threading.get_ident())
            if before is not None:
                before()
            return real(*args)

        monkeypatch.setattr(ad, "lstm_cell", spy)
        return calls

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bsz", [1, 33, 256])
    def test_bits_equal_both_directions_on_the_calling_thread(self, monkeypatch, bsz, dtype):
        calls = self._spy(monkeypatch)
        products = self._matmul_spy(monkeypatch)
        concurrent = _bidirectional_grads(bsz, dtype)
        assert len({ident for ident, _, _ in calls}) == 2
        assert len({ident for ident, _ in products}) == 2
        monkeypatch.setattr(ad, "_spare_cpu", lambda: False)
        products.clear()
        assert _bidirectional_grads(bsz, dtype) == concurrent
        assert {ident for ident, _ in products} == {threading.get_ident()}

    def test_forward_cells_on_the_calling_thread_products_on_the_worker(self, monkeypatch):
        cells = self._cell_spy(monkeypatch)
        products = self._matmul_spy(monkeypatch)
        _bidirectional_layer(33, np.float64)
        me = threading.get_ident()
        assert cells == [me] * 10
        # fw's projection here; bw's and the 2 × 4 recurrent products there
        assert len(products) == 10
        assert [ident == me for ident, _ in products].count(True) == 1

    def test_the_caller_waits_for_a_slow_worker(self, monkeypatch):
        """Every projection and product of the worker's takes 5 ms longer;
        each cell must still add its own step's product."""
        me = threading.get_ident()
        self._matmul_spy(monkeypatch, lambda: threading.get_ident() != me and time.sleep(0.005))
        slow = _bidirectional_layer(33, np.float64)[-1].data.tobytes()
        monkeypatch.setattr(ad, "_spare_cpu", lambda: False)
        assert _bidirectional_layer(33, np.float64)[-1].data.tobytes() == slow

    def test_bits_hold_with_more_threads_than_cpus(self, monkeypatch):
        """Three layers' forwards and backwards at once, each with its own
        worker, the interpreter switching threads every microsecond: every
        run gives the bits of both directions on the calling thread."""
        monkeypatch.setattr(ad, "_spare_cpu", lambda: False)
        want = _bidirectional_grads(33, np.float64)
        monkeypatch.setattr(ad, "_spare_cpu", lambda: True)
        got = []

        def run():
            for _ in range(10):
                got.append(_bidirectional_grads(33, np.float64))

        threads = [threading.Thread(target=run) for _ in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [want] * 30

    def test_tied_directions_stay_on_the_calling_thread(self, monkeypatch):
        """A tensor in both directions takes two gradients, which one thread
        adds in order, so the bits are those of both directions inline."""
        calls = self._spy(monkeypatch)
        products = self._matmul_spy(monkeypatch)
        tied = _bidirectional_grads(33, np.float64, tied=True)
        assert [ident for ident, _, _ in calls] == [threading.get_ident()] * 2
        assert {ident for ident, _ in products} == {threading.get_ident()}
        monkeypatch.setattr(ad, "_spare_cpu", lambda: False)
        assert _bidirectional_grads(33, np.float64, tied=True) == tied

    def test_small_batches_and_no_spare_cpu_stay_on_the_calling_thread(self, monkeypatch):
        calls = self._spy(monkeypatch)
        products = self._matmul_spy(monkeypatch)
        monkeypatch.setattr(ad, "CONCURRENT_MIN_BATCH", 128)
        for bsz, spare, threads in [(127, True, 1), (128, False, 1), (128, True, 2)]:
            monkeypatch.setattr(ad, "_spare_cpu", lambda: spare)
            calls.clear()
            products.clear()
            _bidirectional_grads(bsz, np.float32)
            assert len({ident for ident, _, _ in calls}) == threads, (bsz, spare)
            assert len({ident for ident, _ in products}) == threads, (bsz, spare)

    def test_one_direction_stays_out_of_the_helper(self, monkeypatch):
        """The LSTM baseline's layers have one direction: nothing to overlap."""
        def refuse(*args):
            raise AssertionError("a one-direction layer entered _alongside")

        monkeypatch.setattr(ad, "_alongside", refuse)
        calls = self._spy(monkeypatch)
        r = np.random.default_rng(2)
        x = Parameter(r.normal(size=(5, 6, 33)), "x")
        (fw,) = [[Parameter(w, "w") for w in ws] for ws in _directions(False, 6, 8, r)]
        y = ad.lstm_layer(x, fw)
        _weighted_sum(y, np.ones(y.shape)).backward()
        assert [ident for ident, _, _ in calls] == [threading.get_ident()]

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                        reason="os.sched_getaffinity does not exist on this platform")
    @pytest.mark.parametrize("blas_threads, cpus, spare", [
        (1, {0, 1}, True), (2, {0, 1}, False), (None, {0, 1}, False), (1, {0}, False)])
    def test_a_spare_cpu_needs_two_cpus_and_a_one_thread_blas(self, monkeypatch,
                                                              blas_threads, cpus, spare):
        monkeypatch.undo()
        monkeypatch.setattr(ad, "_blas_threads_getter",
                            lambda: None if blas_threads is None else lambda: blas_threads)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        assert ad._spare_cpu() is spare

    def test_both_directions_see_the_callers_errstate(self, monkeypatch):
        calls = self._spy(monkeypatch)
        with np.errstate(over="raise", under="warn", divide="ignore", invalid="print"):
            want = np.geterr()
            _bidirectional_grads(33, np.float32)
        assert want != np.geterr()
        assert len({ident for ident, _, _ in calls}) == 2
        assert [err for _, err, _ in calls] == [want, want]

    def test_the_forward_worker_sees_the_callers_errstate(self, monkeypatch):
        products = self._matmul_spy(monkeypatch)
        with np.errstate(over="raise", under="warn", divide="ignore", invalid="print"):
            want = np.geterr()
            _bidirectional_layer(33, np.float32)
        assert want != np.geterr()
        assert len({ident for ident, _ in products}) == 2
        assert all(err == want for _, err in products)

    @pytest.mark.parametrize("failing", [0, 1])
    def test_an_error_reaches_the_caller_after_the_other_direction(self, monkeypatch,
                                                                  failing):
        """The failing direction raises at once; the other is still working
        and must have finished by the time the caller sees the error."""
        r = np.random.default_rng(1)
        x = Parameter(r.normal(size=(5, 6, 9)), "x")
        directions = [[Parameter(w, "w") for w in ws] for ws in _directions(True, 6, 8, r)]
        y = ad.lstm_layer(x, *directions)
        finished = threading.Event()

        def before(wh):
            if wh is directions[failing][1].data:
                raise FloatingPointError("planted")
            time.sleep(0.2)
            finished.set()

        calls = self._spy(monkeypatch, before)
        with pytest.raises(FloatingPointError, match="planted"):
            _weighted_sum(y, np.ones(y.shape)).backward()
        assert finished.is_set()
        assert len({ident for ident, _, _ in calls}) == 2

    @pytest.mark.parametrize("spy, side, nth", [
        ("matmul", "caller", 1), ("cell", "caller", 4), ("matmul", "worker", 1),
        ("matmul", "worker", 4)],
        ids=["caller-projection", "caller-4th-cell", "worker-projection", "worker-3rd-product"])
    def test_a_forward_error_reaches_the_caller_after_the_join(self, monkeypatch, spy, side,
                                                              nth):
        """An error on the caller's side must stop the worker, and one on the
        worker's side must wake the caller. The layer runs on a helper thread,
        so that a forward that hangs fails the test rather than the suite."""
        outcome, seen = {}, []

        def run():
            outcome["caller"] = threading.get_ident()
            try:
                _bidirectional_layer(33, np.float64)
            except FloatingPointError as exc:
                outcome["error"] = exc
                outcome["threads"] = threading.active_count()

        def plant():
            if (threading.get_ident() == outcome["caller"]) == (side == "caller"):
                seen.append(None)
                if len(seen) == nth:
                    raise FloatingPointError("planted")

        (self._matmul_spy if spy == "matmul" else self._cell_spy)(monkeypatch, plant)
        start = threading.active_count()
        helper = threading.Thread(target=run, daemon=True)
        helper.start()
        helper.join(timeout=20)
        assert not helper.is_alive(), "the forward hangs"
        assert str(outcome.get("error")) == "planted"
        assert outcome["threads"] == start + 1   # the helper's own: the worker was joined

    def test_no_thread_outlives_a_backward(self, monkeypatch):
        """Each direction counts the live threads, then waits at a barrier
        for the other, so the two run at once. The worker cannot pass the
        barrier before the caller has counted, so it is alive at both counts.
        The timeout fails a broken overlap rather than hanging."""
        start = threading.active_count()
        during, barrier = [], threading.Barrier(2, timeout=10)

        def meet(wh):
            during.append(threading.active_count())
            barrier.wait()

        self._spy(monkeypatch, meet)
        _bidirectional_grads(33, np.float32)
        assert during == [start + 1] * 2
        assert threading.active_count() == start

    def test_no_thread_outlives_a_forward(self, monkeypatch):
        """The same for the forward's two input projections, the first
        `np.matmul` of each thread."""
        start = threading.active_count()
        during, barrier, met = [], threading.Barrier(2, timeout=10), set()

        def meet():
            if threading.get_ident() not in met:
                met.add(threading.get_ident())
                during.append(threading.active_count())
                barrier.wait()

        self._matmul_spy(monkeypatch, meet)
        _bidirectional_layer(33, np.float32)
        assert during == [start + 1] * 2
        assert threading.active_count() == start


def test_a_traced_training_step_keeps_every_cell_on_the_calling_thread(monkeypatch):
    """perfbench's span tracer keeps one span stack for all threads, so it
    records a step correctly only while every traced call runs on the
    calling thread. A batch-256 fusion training step with a worker in both
    passes leaves no span open and runs its 20 cells here."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent))
    from perfbench.spans import Tracer
    from trajbehav.optim import Adam

    monkeypatch.setattr(ad, "CONCURRENT_MIN_BATCH", 1)
    monkeypatch.setattr(ad, "_spare_cpu", lambda: True)
    cells = TestConcurrentDirections._cell_spy(monkeypatch)
    products = TestConcurrentDirections._matmul_spy(monkeypatch)
    model = build_model("fusion", 13, seed=0)
    opt = Adam(model.param_list(), 0.005)
    r = np.random.default_rng(0)
    batch = r.normal(size=(256, 5, 4)).astype(np.float32)
    with Tracer() as tracer:
        model.zero_grad()
        with model.workspace:
            loss = ad.softmax_cross_entropy(model.forward(batch), r.integers(0, 13, 256))
        loss.backward()
        opt.step()
    spans = tracer.finished()
    lstm = [s for s in spans if s[0] == "autodiff.lstm_cell"]
    assert len(lstm) == 20
    assert all(spans[s[3]][0] == "models.bilstm_features" for s in lstm)
    assert cells == [threading.get_ident()] * 20
    assert {ident for ident, _ in products} - {threading.get_ident()}   # and a worker's


_THREE_FUSION_STEPS = """
import hashlib
import os

import numpy as np

from trajbehav import autodiff as ad
from trajbehav.models import build_model
from trajbehav.optim import Adam


def digest():
    rng = np.random.default_rng(7)
    model = build_model("fusion", 13, seed=5)
    opt = Adam(model.param_list(), 0.005)
    h = hashlib.sha256()
    bsz = ad.CONCURRENT_MIN_BATCH   # the smallest batch whose directions use two threads
    for _ in range(3):
        batch = rng.normal(size=(bsz, 5, 4)).astype(np.float32)
        model.zero_grad()
        with model.workspace:
            loss = ad.softmax_cross_entropy(model.forward(batch), rng.integers(0, 13, bsz))
        loss.backward()
        h.update(model.grad.tobytes())
        opt.step()
        h.update(model.data.tobytes())
    return h.hexdigest()
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="os.sched_setaffinity does not exist on this platform")
def test_three_fusion_steps_agree_on_one_cpu_and_unrestricted():
    """The same gradient and parameter hash in this process, in a child
    pinned to one CPU, which runs both directions on one thread, and in
    an unrestricted child, which runs them on two where it may use two
    CPUs: the result does not depend on where the directions run or how
    their threads are scheduled."""
    namespace = {}
    exec(_THREE_FUSION_STEPS, namespace)
    want = namespace["digest"]()
    pin = "import os\nos.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
    src = os.path.dirname(os.path.dirname(ad.__file__))
    # one BLAS thread, so that the unrestricted child runs the worker thread
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    unrestricted = len(os.sched_getaffinity(0))
    for prefix, cpus in ((pin, 1), ("", unrestricted)):
        code = (prefix + _THREE_FUSION_STEPS
                + "print(len(os.sched_getaffinity(0)), ad._spare_cpu(), digest())\n")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=120).stdout
        assert out.split() == [str(cpus), str(cpus > 1), want]


def test_public_ops_are_the_ones_the_models_run():
    """Pinned, so a generic op the models do not run cannot come back unnoticed."""
    public = sorted(name for name, v in vars(ad).items()
                    if callable(v) and not name.startswith("_")
                    and getattr(v, "__module__", None) == ad.__name__)
    assert public == [
        "Parameter", "Tensor", "Workspace", "concat", "conv1d_valid", "dense", "index",
        "lstm_cell", "lstm_layer", "max_over_time", "mean", "pack", "relu",
        "softmax_cross_entropy", "transpose"]
