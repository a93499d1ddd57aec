"""Reverse-mode gradient tape over dense numpy arrays.

The tape holds only the ops the three classifiers and their loss run:
`lstm_sequence` (one node per layer and direction, stepping `lstm_cell`),
`conv1d_valid` (valid 1-D cross-correlation as im2col + one GEMM),
`max_over_time`, `relu`, `concat`, `mean` and `index` along an axis,
`reshape`, a 2-D `transpose`, the affine `dense` layer, and
`softmax_cross_entropy`.
Every op records a tape node, whatever its inputs: each model's first op
takes a `Parameter`, so every later input needs a gradient anyway, and
inference builds the same tape as training. A no-grad inference path would
be a change to the models, not to these ops. Everything is deterministic:
identical inputs produce bit-identical outputs.

Two precision modes are supported by construction: build parameters in
float64 ("verify", required for finite-difference checks) or float32
("fast", for training); all ops propagate the input dtype.

Layout. The recurrent ops are time-major and feature-major: `lstm_sequence`
takes (T, d, B) and returns (T, H, B), and its gates, their backward
coefficients and `dpre` are (T, 4H, B), with the batch axis B contiguous
and innermost. Each of the i/f/g/o blocks of a step is then one contiguous
(H, B) slab, so the activations run in place over whole blocks and each
step's recurrent product is one (4H, H) @ (H, B) GEMM written straight into
the gate array. In a batch-major (B, 4H) layout each block would be a
strided H-wide slice of every row, which numpy's elementwise loops walk
several times slower. The weights keep their (d, 4H), (H, 4H) and (4H,)
shapes; the forward takes transposed views of copies whose i, f and o
columns are halved, so that one `np.tanh` covers the whole gate block
(sigmoid(z) = (tanh(z/2) + 1) / 2, with z/2 exact), and its first step
skips the product with the zero initial state. The backward uses the
weights as stored. Conv ops take and return (B, C, T) arrays whose memory
is (B, T, C): the window batch is passed as a transposed view, and each conv
writes its GEMM result as (B, T', C) and returns the transposed view, which
`relu` keeps. So `conv1d_valid` builds its im2col matrix from k slab copies of
contiguous (T', C) rows, one per tap, and the GEMM, not the copy, is most of a
conv layer. Dense ops are (B, D).

A tensor's first gradient is one pass, `g + 0.0` written into an array laid
out like the tensor's data: the bits of accumulating onto zeros (-0.0 becomes
+0.0) without first filling the zeros.
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
        # one pass with the bits of zeros + g (so -0.0 becomes +0.0), laid out
        # like `np.zeros_like(t.data)` and broadcast to its shape
        t.grad = np.add(g, 0.0, out=np.empty_like(t.data))
    else:
        t.grad += g


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------

def relu(x):
    """max(x, 0). Backward takes its mask from the output: out > 0 exactly
    where x > 0, NaN and -0.0 included, so the forward makes one pass."""
    out_data = np.maximum(x.data, 0)

    def backward(g):
        _accum(x, g * (out_data > 0))

    return Tensor(out_data, requires_grad=True, parents=(x,), backward=backward)


def reshape(x, shape):
    out_data = x.data.reshape(shape)

    def backward(g):
        _accum(x, g.reshape(x.data.shape))

    return Tensor(out_data, requires_grad=True, parents=(x,), backward=backward)


def transpose(x):
    """The transpose of a 2-D tensor (e.g. a (F, B) readout to (B, F))."""
    if x.data.ndim != 2:
        raise DimensionError(f"transpose expects a 2-D tensor, got {x.data.shape}")

    def backward(g):
        _accum(x, g.T)

    return Tensor(x.data.T, requires_grad=True, parents=(x,), backward=backward)


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
    im2col fills cols[b, t, c, j] = x[b, c, t + j] with one slab copy per
    tap j, read from the (B, T, C_in) view of x, so that column c·k + j of
    the flattened cols lines up with w's flattened (C_in, k) and one GEMM
    gives the output, bias added in place. The output is laid out
    (B, T-k+1, C_out) in memory and returned as its transposed view. Backward
    reuses `cols` for w's gradient and scatter-adds the column gradients onto
    zeros for x's, tap by tap.
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
    xt = x.data.transpose(0, 2, 1)
    cols = np.empty((bsz, out_len, c_in, k), dtype=x.data.dtype)
    for j in range(k):
        cols[:, :, :, j] = xt[:, j:j + out_len]
    cols = cols.reshape(bsz * out_len, c_in * k)
    wmat = w.data.reshape(c_out, c_in * k)
    out = cols @ wmat.T
    out += b.data
    out_data = out.reshape(bsz, out_len, c_out).transpose(0, 2, 1)

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
    first occurrence.

    The max is a running `np.maximum` over the L time slices and the
    backward routes through equality masks, one (B, C) slice at a time: on
    the short axes the models pool over (L <= 4), numpy's `argmax` and
    fancy-index scatter would walk the output one element at a time.
    """
    if x.data.ndim != 3:
        raise DimensionError(f"max_over_time expects (B, C, L), got {x.data.shape}")
    t_len = x.data.shape[2]
    if t_len < 1:
        raise DimensionError("max_over_time needs at least one time step")
    out_data = x.data[:, :, 0].copy()
    for t in range(1, t_len):
        np.maximum(out_data, x.data[:, :, t], out=out_data)

    def backward(g):
        gx = np.zeros_like(x.data)
        free = np.ones(out_data.shape, dtype=bool)   # channels whose max is unrouted
        for t in range(t_len):
            hit = x.data[:, :, t] == out_data
            hit &= free
            np.copyto(gx[:, :, t], g, where=hit)
            free ^= hit
        _accum(x, gx)

    return Tensor(out_data, requires_grad=True, parents=(x,), backward=backward)


def lstm_cell(xw, h, c, wht, gates, c_new, tc, h_new):
    """One LSTM time step, written into preallocated feature-major arrays.

    `xw` is the step's input projection Wxᵀ·x + b, (4H, B); `h` and `c` are
    the previous state, (H, B), with `h` None for the zero initial state,
    whose recurrent product is all zeros and is skipped; `wht` is Whᵀ,
    (4H, H). Gate layout in the 4H pre-activation is [input, forget,
    candidate, output], each block a contiguous (H, B) slab; c' = f⊙c + i⊙g,
    h' = o⊙tanh(c'). The i, f and o rows of `xw` and `wht` come pre-halved
    (see `lstm_sequence`), so one `np.tanh` over the whole block gives g and
    tanh(z/2) for the sigmoid gates, and sigmoid(z) = (tanh(z/2) + 1) / 2
    needs only +1 and ×0.5 on those blocks; the tanh form needs no masks and
    cannot overflow for any finite z. Writes the four activations into
    `gates` (4H, B) and c', tanh(c') and h' into `c_new`, `tc` and `h_new`
    (H, B); `tc` is the scratch for i⊙g before that.
    """
    hid = c.shape[0]
    if h is None:
        np.add(xw, 0.0, out=gates)   # 0 + xw, the bits the zero state's product gives
    else:
        np.matmul(wht, h, out=gates)
        gates += xw
    np.tanh(gates, out=gates)
    for sig in (gates[:2 * hid], gates[3 * hid:]):
        sig += 1.0
        sig *= 0.5
    np.multiply(gates[hid:2 * hid], c, out=c_new)
    np.multiply(gates[:hid], gates[2 * hid:3 * hid], out=tc)
    c_new += tc
    np.tanh(c_new, out=tc)
    np.multiply(gates[3 * hid:], tc, out=h_new)


def lstm_sequence(x, wx, wh, b, reverse=False):
    """One LSTM direction over a whole sequence, as a single tape node.

    x: (T, d, B), wx: (d, 4H), wh: (H, 4H), b: (4H,) -> (T, H, B), the
    hidden state after every step in forward time order. The state starts
    at zero; `reverse` runs the recurrence from the last step to the first.
    Forward halves the i, f and o rows of Wxᵀ, Whᵀ and b once, projects all
    T inputs in one batched matmul and then runs `lstm_cell` once per step,
    the first without a recurrent product. Halving is exact (barring
    subnormal weights), so a sigmoid gate's pre-activation is the bits of
    z/2 and the gate the bits of (tanh(z/2) + 1) / 2 computed from z.
    Backward is BPTT with one `Wh·dpre` GEMM per step, with the weights as
    stored; the gradients of x, Wx and Wh are then one batched matmul each
    over the stacked steps (summed over T for the weights, and for Wh over
    steps 1…T−1, whose previous state is not the zero one), and b's is one
    sum.
    """
    if x.data.ndim != 3 or x.data.shape[0] < 1:
        raise DimensionError(
            f"lstm_sequence expects a (T>=1, d, B) input, got {x.data.shape}"
        )
    t_len, d_in, bsz = x.data.shape
    hid = wh.data.shape[0]
    if wx.data.shape != (d_in, 4 * hid) or wh.data.shape != (hid, 4 * hid) \
            or b.data.shape != (4 * hid,):
        raise DimensionError(
            "lstm_sequence weight shapes inconsistent: "
            f"wx={wx.data.shape}, wh={wh.data.shape}, b={b.data.shape} "
            f"for d_in={d_in}, hidden={hid}"
        )

    # step arrays in the order the recurrence visits the steps
    xs = x.data[::-1] if reverse else x.data
    half = np.full(4 * hid, 0.5, dtype=wx.data.dtype)   # 0.5 on the sigmoid gates' rows
    half[2 * hid:3 * hid] = 1.0
    xw = np.matmul((wx.data * half).T, xs)
    xw += (b.data * half)[:, None]
    wht = (wh.data * half).T
    gates = np.empty_like(xw)
    # hs[0] is the zero initial state, which step 0 does not read. Dropping it
    # keeps the bits but changes how glibc places the temporaries: inference
    # after training then faulted in about 1,000 fresh pages per 256-window call.
    hs = np.zeros((t_len + 1, hid, bsz), dtype=xw.dtype)
    cs = np.zeros_like(hs)
    tcs = np.empty_like(hs[1:])
    for s in range(t_len):
        lstm_cell(xw[s], hs[s] if s else None, cs[s], wht, gates[s], cs[s + 1], tcs[s],
                  hs[s + 1])
    out_data = hs[:0:-1] if reverse else hs[1:]

    def backward(g):
        gs = g[::-1] if reverse else g
        blocks = gates.reshape(t_len, 4, hid, bsz)
        i, f, gg, o = (blocks[:, k] for k in range(4))
        # dpre = coef ⊙ [dc, dc, dc, dh] block by block, dc = dh·dc_dh + carry;
        # each step scales its own coef slab in place, so coef becomes dpre
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
                np.matmul(wh.data, dpre[s], out=dh)
                dc *= f[s]
        if x.requires_grad:
            dxs = np.matmul(wx.data, dpre)
            _accum(x, dxs[::-1] if reverse else dxs)
        dpre_t = dpre.transpose(0, 2, 1)
        _accum(wx, np.matmul(xs, dpre_t).sum(axis=0))
        _accum(wh, np.matmul(hs[1:-1], dpre_t[1:]).sum(axis=0))
        _accum(b, dpre.sum(axis=(0, 2)))

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
