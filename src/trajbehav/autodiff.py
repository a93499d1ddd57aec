"""Reverse-mode gradient tape over dense numpy arrays.

The tape holds only the ops the three classifiers and their loss run:
`lstm_layer` (one node per recurrent layer of one or two directions,
stepping `lstm_cell`), `conv1d_valid` (valid 1-D cross-correlation as
im2col + one GEMM), `max_over_time`, `relu`, `concat`, `mean` and `index`
along an axis, `reshape`, a 2-D `transpose`, the affine `dense` layer, and
`softmax_cross_entropy`.
Every op records a tape node, whatever its inputs: each model's first op
takes a `Parameter`, so every later input needs a gradient anyway, and
inference builds the same tape as training. A no-grad inference path would
be a change to the models, not to these ops. Everything is deterministic:
identical inputs produce bit-identical outputs.

Two precision modes are supported by construction: build parameters in
float64 ("verify", required for finite-difference checks) or float32
("fast", for training); all ops propagate the input dtype.

Layout. The recurrent ops are time-major and feature-major: `lstm_layer`
takes (T, d, B) and returns (T, nH, B) for n directions, and each
direction's input projection, which becomes its gates in place, their
backward coefficients and `dpre` are (T, 4H, B), with the batch axis B
contiguous and innermost. Each of the i/f/g/o blocks of a step is then one
contiguous (H, B) slab, so the activations run in place over whole blocks,
each step's recurrent product is one (4H, H) @ (H, B) GEMM into a (4H, B)
scratch that is added onto the step's slab of the projection, and each
direction writes its hidden states into its own (H, B) rows of the layer's
output. In a batch-major (B, 4H) layout each block would be a strided
H-wide slice of every row, which numpy's elementwise loops walk several
times slower. The weights keep their (d, 4H), (H, 4H) and (4H,)
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

Memory. `pack` puts a list of parameters into one value vector and one
gradient vector, each parameter's arrays becoming views into them, so an
optimizer step and a gradient reset are single vector operations. A
`Workspace` keeps the large forward arrays of `lstm_layer`, `concat` and
`mean` from one pass to the next (see its docstring); ops run outside one
allocate afresh, with the same bits.
"""

from __future__ import annotations

import contextvars
import math

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


def pack(params):
    """One 1-D `data` vector and one 1-D `grad` vector for `params`, in list
    order, with each parameter's `data` and `grad` rebound as reshaped views
    into them. Returns (data, grad).

    Values and gradients are copied across bit for bit. Parameters that
    already tile one buffer pair in order (a model's, or a second `pack` of
    the same list) keep it, and nothing is copied. Otherwise every parameter
    must own its arrays: repacking a view would silently detach it from the
    buffer it is part of. All parameters must share one dtype.
    """
    params = list(params)
    if not params:
        return np.zeros(0), np.zeros(0)
    dtypes = {p.data.dtype for p in params}
    if len(dtypes) > 1:
        raise ConfigError(f"cannot pack parameters of mixed dtypes {sorted(map(str, dtypes))}")
    data, grad = _tiled(params, "data"), _tiled(params, "grad")
    if data is not None and grad is not None:
        return data, grad
    for p in params:
        if p.data.base is not None or p.grad.base is not None:
            raise ConfigError(f"cannot pack {p.name}: its value or gradient is a view into "
                              "another array, such as a model's buffer; pass all of a "
                              "model's parameters, in order")
    data = np.concatenate([p.data.ravel() for p in params])
    grad = np.concatenate([p.grad.ravel() for p in params])
    offset = 0
    for p in params:
        shape, end = p.data.shape, offset + p.data.size
        p.data = data[offset:end].reshape(shape)
        p.grad = grad[offset:end].reshape(shape)
        offset = end
    return data, grad


def _tiled(params, attr):
    """The 1-D array that the params' `attr` arrays tile in list order with no
    gap, or None."""
    base = getattr(params[0], attr).base
    if base is None or base.ndim != 1 or not base.flags.c_contiguous:
        return None
    at = base.ctypes.data
    for p in params:
        a = getattr(p, attr)
        if a.base is not base or not a.flags.c_contiguous or a.ctypes.data != at:
            return None
        at += a.nbytes
    return base if at == base.ctypes.data + base.nbytes else None


class Workspace:
    """Buffers for the large arrays of a forward pass, reused from pass to pass.

    Each `with workspace:` block is one pass. In it, the n-th array that
    `lstm_layer`, `concat` and `mean` allocate is a view of the
    workspace's n-th byte buffer, which grows to the largest size asked of
    it; outside any workspace they allocate afresh, and the values are the
    same either way. These are the arrays that scale with steps × batch,
    and `lstm_layer` allocates only those its backward reads: 9.6 MiB for a
    256-window float32 fusion pass, 4.6 MiB for the LSTM baseline.
    Allocated afresh, they are all freed at the end of a pass; glibc may
    then trim the heap and fault the same pages in again on the next pass,
    depending on where it happened to place the model's other arrays. A
    pass overwrites the arrays of the pass before, so a tape built in one
    pass runs its backward, and its caller copies what it keeps, before the
    next pass starts. `release` drops the buffers; the next pass allocates
    them afresh.
    """

    def __init__(self):
        self._buffers = []
        self._calls = 0
        self._token = None

    def __enter__(self):
        self._calls = 0
        self._token = _active_workspace.set(self)
        return self

    def __exit__(self, *exc):
        _active_workspace.reset(self._token)

    def release(self):
        """Drop the buffers, for the memory to be freed once no array views them."""
        self._buffers = []

    def empty(self, shape, dtype):
        """An uninitialized (shape, dtype) array for the pass's next allocation."""
        dtype = np.dtype(dtype)
        nbytes = dtype.itemsize * math.prod(shape)
        i = self._calls
        self._calls += 1
        if i == len(self._buffers):
            self._buffers.append(None)
        if self._buffers[i] is None or self._buffers[i].nbytes < nbytes:
            self._buffers[i] = np.empty(nbytes, dtype=np.uint8)
        return self._buffers[i][:nbytes].view(dtype).reshape(shape)


# the Workspace of the pass running now in this thread or task, if any
_active_workspace = contextvars.ContextVar("workspace", default=None)


def _empty(shape, dtype):
    """`np.empty(shape, dtype)`, from the active workspace if there is one."""
    workspace = _active_workspace.get()
    if workspace is None:
        return np.empty(shape, dtype)
    return workspace.empty(shape, dtype)


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
    sizes = [t.data.shape[axis] for t in tensors]
    shape = list(tensors[0].data.shape)
    shape[axis] = sum(sizes)
    out_data = np.concatenate([t.data for t in tensors], axis=axis,
                              out=_empty(tuple(shape), tensors[0].data.dtype))
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
    out_data = x.data.mean(axis=axis, out=_empty(
        x.data.shape[:axis] + x.data.shape[axis + 1:], x.data.dtype))

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


def lstm_cell(gates, h, c, wht, scratch, c_new, h_new):
    """One LSTM time step, in place over preallocated feature-major arrays.

    `gates` holds the step's input projection Wxᵀ·x + b on entry, (4H, B),
    and the four gate activations on return; `h` and `c` are the previous
    state, (H, B), with `h` None for the zero initial state, whose recurrent
    product is all zeros and is skipped; `wht` is Whᵀ, (4H, H); `scratch` is
    a (4H, B) array that takes the recurrent product before it is added onto
    `gates`, then i⊙g, and on return holds tanh(c') in its first H rows.
    Gate layout in the 4H pre-activation is [input, forget, candidate,
    output], each block a contiguous (H, B) slab; c' = f⊙c + i⊙g,
    h' = o⊙tanh(c'), written into `c_new` and `h_new`. The i, f and o rows of
    the projection and of `wht` come pre-halved (see `lstm_layer`), so one
    `np.tanh` over the whole block gives g and tanh(z/2) for the sigmoid
    gates, and sigmoid(z) = (tanh(z/2) + 1) / 2 needs only +1 and ×0.5 on
    those blocks; the tanh form needs no masks and cannot overflow for any
    finite z.
    """
    hid = c.shape[0]
    if h is None:
        gates += 0.0   # xw + 0, the bits the zero state's product gives
    else:
        np.matmul(wht, h, out=scratch)
        gates += scratch
    np.tanh(gates, out=gates)
    for sig in (gates[:2 * hid], gates[3 * hid:]):
        sig += 1.0
        sig *= 0.5
    tc = scratch[:hid]
    np.multiply(gates[hid:2 * hid], c, out=c_new)
    np.multiply(gates[:hid], gates[2 * hid:3 * hid], out=tc)
    c_new += tc
    np.tanh(c_new, out=tc)
    np.multiply(gates[3 * hid:], tc, out=h_new)


def lstm_layer(x, fw, bw=None):
    """One recurrent layer over a whole sequence, as a single tape node.

    x: (T, d, B); `fw`, and `bw` for a bidirectional layer, are (wx, wh, b)
    weight triples with wx: (d, 4H), wh: (H, 4H), b: (4H,). Returns
    (T, nH, B) for n directions: the hidden state after every step in
    forward time order, `fw`'s in rows [0, H) and `bw`'s, whose recurrence
    runs from the last step to the first, in rows [H, 2H). Each state starts
    at zero. Each direction halves the i, f and o rows of Wxᵀ, Whᵀ and b
    once, projects all T inputs in one batched matmul and adds the bias from
    a (4H, B) tile, then runs `lstm_cell` once per step, the first without a
    recurrent product. The projection becomes the gates in place, and every
    step writes its hidden state straight into its slab of the output.
    Halving is exact (barring subnormal weights), so a sigmoid gate's
    pre-activation is the bits of z/2 and the gate the bits of
    (tanh(z/2) + 1) / 2 computed from z.

    A direction keeps for its backward only its gates, its cell states and
    the output; tanh(c') is recomputed there, one `np.tanh` over all steps,
    which gives the bits of the per-step calls. Backward is BPTT with one
    `Wh·dpre` GEMM per step, with the weights as stored; the gradients of x,
    Wx and Wh are then one batched matmul each over the stacked steps
    (summed over T for the weights, and for Wh over steps 1…T−1, whose
    previous state is not the zero one), and b's is one sum.
    """
    directions = (fw,) if bw is None else (fw, bw)
    if x.data.ndim != 3 or x.data.shape[0] < 1:
        raise DimensionError(
            f"lstm_layer expects a (T>=1, d, B) input, got {x.data.shape}"
        )
    t_len, d_in, bsz = x.data.shape
    hid = fw[1].data.shape[0]
    for wx, wh, b in directions:
        if wx.data.shape != (d_in, 4 * hid) or wh.data.shape != (hid, 4 * hid) \
                or b.data.shape != (4 * hid,):
            raise DimensionError(
                "lstm_layer weight shapes inconsistent: "
                f"wx={wx.data.shape}, wh={wh.data.shape}, b={b.data.shape} "
                f"for d_in={d_in}, hidden={hid}"
            )

    out_data = _empty((t_len, len(directions) * hid, bsz), x.data.dtype)
    # per direction: the order its recurrence visits the steps in, its output
    # rows, and what its forward leaves for the backward
    runs = []
    for k, weights in enumerate(directions):
        order, rows = slice(None, None, -1 if k else 1), slice(k * hid, (k + 1) * hid)
        hs = out_data[order, rows]
        runs.append((order, rows, weights, hs,
                     *_lstm_forward(x.data[order], *(w.data for w in weights), hs)))

    def backward(g):
        dx = None
        for order, rows, (wx, wh, b), hs, gates, cs in runs:
            dpre = _lstm_backward(g[order, rows], gates, cs, wh.data)
            if x.requires_grad:
                dxs = np.matmul(wx.data, dpre)[order]
                if dx is None:
                    dx = dxs
                else:
                    dx += dxs
            dpre_t = dpre.transpose(0, 2, 1)
            _accum(wx, np.matmul(x.data[order], dpre_t).sum(axis=0))
            _accum(wh, np.matmul(hs[:-1], dpre_t[1:]).sum(axis=0))
            _accum(b, dpre.sum(axis=(0, 2)))
        if dx is not None:
            _accum(x, dx)

    parents = (x,) + tuple(w for weights in directions for w in weights)
    return Tensor(out_data, requires_grad=True, parents=parents, backward=backward)


def _lstm_forward(xs, wx, wh, b, hs):
    """Run one direction's recurrence over `xs` (T, d, B), writing the hidden
    states into `hs` (T, H, B) in the same step order. Returns the gate
    activations (T, 4H, B) and the cell states (T+1, H, B), the first of them
    the zero initial state."""
    t_len, _, bsz = xs.shape
    hid = wh.shape[0]
    dt = xs.dtype
    half = np.full(4 * hid, 0.5, dtype=wx.dtype)   # 0.5 on the sigmoid gates' rows
    half[2 * hid:3 * hid] = 1.0
    wxt = np.multiply(wx, half, out=_empty(wx.shape, dt)).T
    gates = np.matmul(wxt, xs, out=_empty((t_len, 4 * hid, bsz), dt))
    scratch = _empty((4 * hid, bsz), dt)
    scratch[...] = (b * half)[:, None]
    gates += scratch
    wht = np.multiply(wh, half, out=_empty(wh.shape, dt)).T
    cs = _empty((t_len + 1, hid, bsz), dt)
    cs[0] = 0
    for s in range(t_len):
        lstm_cell(gates[s], hs[s - 1] if s else None, cs[s], wht, scratch, cs[s + 1], hs[s])
    return gates, cs


def _lstm_backward(gs, gates, cs, wh):
    """BPTT over one direction, steps in recurrence order: the (T, 4H, B)
    pre-activation gradients, given the hidden states' upstream gradient `gs`
    (T, H, B) and what `_lstm_forward` returned."""
    t_len, _, bsz = gates.shape
    hid = wh.shape[0]
    blocks = gates.reshape(t_len, 4, hid, bsz)
    i, f, gg, o = (blocks[:, k] for k in range(4))
    tcs = np.tanh(cs[1:])
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
    dc_dh = np.multiply(tcs, tcs, out=tcs)
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
    return dpre


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
