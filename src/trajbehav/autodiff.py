"""Reverse-mode gradient tape over dense numpy arrays.

The tape holds only the ops the three classifiers and their loss run:
`lstm_sequence` (one node per layer and direction, stepping `lstm_cell`),
`conv1d_valid` (valid 1-D cross-correlation as im2col + one GEMM),
`max_over_time`, `relu`, `concat`, `mean` and `index` along an axis,
`reshape`, the affine `dense` layer, and `softmax_cross_entropy`.
Every op records a tape node, whatever its inputs: each model's first op
takes a `Parameter`, so every later input needs a gradient anyway, and
inference builds the same tape as training. A no-grad inference path would
be a change to the models, not to these ops. Everything is deterministic:
identical inputs produce bit-identical outputs.

Two precision modes are supported by construction: build parameters in
float64 ("verify", required for finite-difference checks) or float32
("fast", for training); all ops propagate the input dtype.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DataError, DimensionError

DTYPES = {"verify": np.float64, "fast": np.float32}


class Tensor:
    """A node on the gradient tape wrapping a dense numpy array."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, parents=(), backward=None):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = parents
        self._backward = backward

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        return self.data.item()

    def zero_grad(self):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        else:
            self.grad[...] = 0.0

    def backward(self):
        """Backpropagate from a scalar output through the recorded tape."""
        if self.data.size != 1:
            raise DimensionError(
                f"backward() requires a scalar output, got shape {self.data.shape}"
            )
        order = _toposort(self)
        self.grad = np.ones_like(self.data)
        for node in order:
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"


class Parameter(Tensor):
    """A named trainable tensor whose gradient buffer always exists."""

    __slots__ = ("name",)

    def __init__(self, value, name):
        super().__init__(np.asarray(value), requires_grad=True)
        self.name = name
        self.grad = np.zeros_like(self.data)

    def __repr__(self):
        return f"Parameter({self.name}, shape={self.data.shape})"


def _toposort(root):
    """Reverse topological order of the tape reachable from `root`."""
    order = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order[::-1]


def _accum(t, g):
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------

def relu(x):
    out_data = np.maximum(x.data, 0)
    mask = x.data > 0

    def backward(g):
        _accum(x, g * mask)

    return Tensor(out_data, requires_grad=True, parents=(x,), backward=backward)


def reshape(x, shape):
    out_data = x.data.reshape(shape)

    def backward(g):
        _accum(x, g.reshape(x.data.shape))

    return Tensor(out_data, requires_grad=True, parents=(x,), backward=backward)


def concat(tensors, axis=1):
    """Concatenate along `axis`; backward splits the gradient."""
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            _accum(t, g[tuple(idx)])

    return Tensor(out_data, requires_grad=True, parents=tuple(tensors), backward=backward)


def mean(x, axis):
    """Mean over one axis (e.g. the time-average readout of a sequence)."""
    n = x.data.shape[axis]
    out_data = x.data.mean(axis=axis)

    def backward(g):
        _accum(x, np.broadcast_to(np.expand_dims(g / n, axis), x.data.shape))

    return Tensor(out_data, requires_grad=True, parents=(x,), backward=backward)


def index(x, i, axis):
    """The slice at position `i` along `axis` (e.g. the last time step)."""
    out_data = np.take(x.data, i, axis=axis)

    def backward(g):
        gx = np.zeros_like(x.data)
        sel = [slice(None)] * x.data.ndim
        sel[axis] = i
        gx[tuple(sel)] = g
        _accum(x, gx)

    return Tensor(out_data, requires_grad=True, parents=(x,), backward=backward)


def conv1d_valid(x, w, b):
    """Valid (no-padding) cross-correlation over the last axis.

    x: (B, C_in, T), w: (C_out, C_in, k), b: (C_out,) -> (B, C_out, T-k+1).
    """
    if x.data.ndim != 3 or w.data.ndim != 3:
        raise DimensionError(
            f"conv1d_valid expects 3-D input/kernels, got {x.data.shape} / {w.data.shape}"
        )
    _, c_in, t_len = x.data.shape
    c_out, c_in_w, k = w.data.shape
    if c_in != c_in_w:
        raise DimensionError(
            f"conv1d_valid channel mismatch: input has {c_in}, kernels expect {c_in_w}"
        )
    if k > t_len:
        raise ConfigError(
            f"conv1d_valid kernel width {k} exceeds sequence length {t_len}"
        )
    if b.data.shape != (c_out,):
        raise DimensionError(
            f"conv1d_valid bias shape {b.data.shape} != ({c_out},)"
        )
    bsz = x.data.shape[0]
    out_len = t_len - k + 1
    # im2col: one row per (sample, output step), one column per (channel, tap)
    cols = np.lib.stride_tricks.sliding_window_view(x.data, k, axis=2)
    cols = cols.transpose(0, 2, 1, 3).reshape(bsz * out_len, c_in * k)
    wmat = w.data.reshape(c_out, c_in * k)
    out = (cols @ wmat.T + b.data).reshape(bsz, out_len, c_out)
    out_data = out.transpose(0, 2, 1)

    def backward(g):
        g2 = g.transpose(0, 2, 1).reshape(bsz * out_len, c_out)
        _accum(b, g2.sum(axis=0))
        _accum(w, (g2.T @ cols).reshape(c_out, c_in, k))
        if x.requires_grad:
            # col2im: scatter-add each tap's column gradient back onto its steps
            dcols = (g2 @ wmat).reshape(bsz, out_len, c_in, k)
            gx = np.zeros((bsz, t_len, c_in), dtype=dcols.dtype)
            for j in range(k):
                gx[:, j:j + out_len] += dcols[:, :, :, j]
            _accum(x, gx.transpose(0, 2, 1))

    return Tensor(out_data, requires_grad=True, parents=(x, w, b), backward=backward)


def max_over_time(x):
    """Per-channel max over the last axis; ties route the gradient to the
    first occurrence."""
    if x.data.ndim != 3:
        raise DimensionError(f"max_over_time expects (B, C, L), got {x.data.shape}")
    if x.data.shape[2] < 1:
        raise DimensionError("max_over_time needs at least one time step")
    idx = np.argmax(x.data, axis=2)
    out_data = np.take_along_axis(x.data, idx[:, :, None], axis=2)[:, :, 0]

    def backward(g):
        gx = np.zeros_like(x.data)
        bsz, chans = idx.shape
        gx[np.arange(bsz)[:, None], np.arange(chans)[None, :], idx] = g
        _accum(x, gx)

    return Tensor(out_data, requires_grad=True, parents=(x,), backward=backward)


def _sigmoid(z):
    # the tanh form needs no masks and cannot overflow for any finite z
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def lstm_cell(xw, h, c, wh):
    """One LSTM time step on plain arrays.

    `xw` is the step's input projection x·Wx + b, (B, 4H); `h` and `c` are
    the previous state, (B, H). Gate layout in the 4H pre-activation is
    [input, forget, candidate, output]; c' = f⊙c + i⊙g, h' = o⊙tanh(c').
    Returns (h', c', gates) with `gates` the four activations, (B, 4H).
    """
    hid = h.shape[1]
    gates = xw + h @ wh
    gates[:, :2 * hid] = _sigmoid(gates[:, :2 * hid])
    gates[:, 2 * hid:3 * hid] = np.tanh(gates[:, 2 * hid:3 * hid])
    gates[:, 3 * hid:] = _sigmoid(gates[:, 3 * hid:])
    c_new = gates[:, hid:2 * hid] * c + gates[:, :hid] * gates[:, 2 * hid:3 * hid]
    h_new = gates[:, 3 * hid:] * np.tanh(c_new)
    return h_new, c_new, gates


def lstm_sequence(x, wx, wh, b, reverse=False):
    """One LSTM direction over a whole sequence, as a single tape node.

    x: (B, T, d), wx: (d, 4H), wh: (H, 4H), b: (4H,) -> (B, T, H), the
    hidden state after every step in forward time order. The state starts
    at zero; `reverse` runs the recurrence from the last step to the first.
    Forward projects all T inputs in one GEMM and then runs `lstm_cell`
    once per step. Backward is BPTT with one `dpre·Whᵀ` GEMM per step; the
    gradients of x, Wx, Wh and b are then one GEMM (or sum) each over the
    stacked steps.
    """
    if x.data.ndim != 3 or x.data.shape[1] < 1:
        raise DimensionError(
            f"lstm_sequence expects a (B, T>=1, d) input, got {x.data.shape}"
        )
    bsz, t_len, d_in = x.data.shape
    hid = wh.data.shape[0]
    if wx.data.shape != (d_in, 4 * hid) or wh.data.shape != (hid, 4 * hid) \
            or b.data.shape != (4 * hid,):
        raise DimensionError(
            "lstm_sequence weight shapes inconsistent: "
            f"wx={wx.data.shape}, wh={wh.data.shape}, b={b.data.shape} "
            f"for d_in={d_in}, hidden={hid}"
        )

    # time-major, in the order the recurrence visits the steps
    xs = x.data.transpose(1, 0, 2)
    if reverse:
        xs = xs[::-1]
    xs = np.ascontiguousarray(xs).reshape(t_len * bsz, d_in)
    xw = (xs @ wx.data + b.data).reshape(t_len, bsz, 4 * hid)
    hs = np.zeros((t_len + 1, bsz, hid), dtype=xw.dtype)   # hs[0]: initial state
    cs = np.zeros_like(hs)
    gates = np.empty_like(xw)
    for s in range(t_len):
        hs[s + 1], cs[s + 1], gates[s] = lstm_cell(xw[s], hs[s], cs[s], wh.data)
    out = hs[:0:-1] if reverse else hs[1:]
    out_data = out.transpose(1, 0, 2)

    def backward(g):
        gs = g.transpose(1, 0, 2)
        if reverse:
            gs = gs[::-1]
        i, f, gg, o = (gates[..., k * hid:(k + 1) * hid] for k in range(4))
        tc = np.tanh(cs[1:])
        # dpre = coef ⊙ [dc, dc, dc, dh] block by block, dc = dh·dc_dh + carry
        coef = np.empty_like(gates).reshape(t_len, bsz, 4, hid)
        coef[:, :, 0] = gg * i * (1.0 - i)
        coef[:, :, 1] = cs[:-1] * f * (1.0 - f)
        coef[:, :, 2] = i * (1.0 - gg * gg)
        coef[:, :, 3] = tc * o * (1.0 - o)
        dc_dh = o * (1.0 - tc * tc)
        dpre = np.empty_like(coef)
        dh = np.zeros((bsz, hid), dtype=gates.dtype)
        dc = np.zeros_like(dh)
        for s in range(t_len - 1, -1, -1):
            dh = gs[s] + dh
            dc = dh * dc_dh[s] + dc
            dpre[s, :, :3] = dc[:, None, :] * coef[s, :, :3]
            dpre[s, :, 3] = dh * coef[s, :, 3]
            if s:
                dh = dpre[s].reshape(bsz, 4 * hid) @ wh.data.T
                dc = dc * f[s]
        flat = dpre.reshape(t_len * bsz, 4 * hid)
        if x.requires_grad:
            dxs = (flat @ wx.data.T).reshape(t_len, bsz, d_in)
            if reverse:
                dxs = dxs[::-1]
            _accum(x, dxs.transpose(1, 0, 2))
        _accum(wx, xs.T @ flat)
        _accum(wh, hs[:-1].reshape(t_len * bsz, hid).T @ flat)
        _accum(b, flat.sum(axis=0))

    return Tensor(out_data, requires_grad=True, parents=(x, wx, wh, b), backward=backward)


def softmax_cross_entropy(logits, labels, class_weights=None):
    """Weighted mean of -log softmax(logits)[label] over the batch.

    With per-class weights the batch is normalized by the sum of the sample
    weights (so uniform weights reduce to the plain mean).
    """
    z = logits.data
    if z.ndim != 2:
        raise DimensionError(f"logits must be 2-D, got {z.shape}")
    labels = np.asarray(labels)
    n, c = z.shape
    if labels.shape != (n,):
        raise DimensionError(f"labels shape {labels.shape} != ({n},)")
    bad = np.nonzero((labels < 0) | (labels >= c))[0]
    if bad.size:
        raise DataError(
            f"label out of range [0, {c}) at sample index {int(bad[0])}"
        )

    zmax = z.max(axis=1, keepdims=True)
    shifted = z - zmax
    lse = np.log(np.exp(shifted).sum(axis=1))
    nll = lse - shifted[np.arange(n), labels]
    if class_weights is not None:
        w = np.asarray(class_weights, dtype=z.dtype)[labels]
    else:
        w = np.ones(n, dtype=z.dtype)
    wsum = w.sum()
    loss = float((w * nll).sum() / wsum)
    out_data = np.asarray(loss, dtype=z.dtype)

    def backward(g):
        probs = np.exp(shifted - lse[:, None])
        probs[np.arange(n), labels] -= 1.0
        _accum(logits, (float(g) / wsum) * w[:, None] * probs)

    return Tensor(out_data, requires_grad=True, parents=(logits,), backward=backward)


def dense(x, w, b):
    """Affine layer x @ w + b: x (B, D), w (D, C), b (C,) -> (B, C)."""
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0] \
            or b.data.shape != w.data.shape[1:]:
        raise DimensionError(
            f"dense shapes incompatible: x {x.data.shape}, w {w.data.shape}, "
            f"b {b.data.shape}"
        )
    out_data = x.data @ w.data + b.data

    def backward(g):
        _accum(x, g @ w.data.T)
        _accum(w, x.data.T @ g)
        _accum(b, g.sum(axis=0))

    return Tensor(out_data, requires_grad=True, parents=(x, w, b), backward=backward)
