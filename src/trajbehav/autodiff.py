"""Reverse-mode gradient tape over dense numpy arrays.

The tape holds only the ops the three classifiers and their loss run:
`lstm_layer` (one node per recurrent layer of one or two directions,
stepping `lstm_cell`), `conv1d_valid` (valid 1-D cross-correlation as
im2col + one GEMM), `max_over_time`, `relu`, `concat`, `mean` and `index`
along an axis, a 2-D `transpose`, the affine `dense` layer, and
`softmax_cross_entropy`.
Every op records a tape node, whatever its inputs: each model's first op
takes a `Parameter`, so every later input needs a gradient anyway, and
inference builds the same tape as training. A no-grad inference path would
be a change to the models, not to these ops. Everything is deterministic:
identical inputs produce bit-identical outputs.

Every op propagates the dtype of its inputs: models train and infer in
float32 and build float64 parameters for finite-difference checks.

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
weights as stored. Conv ops take and return C-contiguous (B, T, C) arrays,
the window batch's own layout, so `conv1d_valid` builds its im2col matrix from
k slab copies of contiguous (T', C) rows, one per tap, its GEMM result is its
output, and the GEMM, not the copy, is most of a conv layer. Dense ops are
(B, D).

A tensor's first gradient is one pass, `g + 0.0` written into an array laid
out like the tensor's data: the bits of accumulating onto zeros (-0.0 becomes
+0.0) without first filling the zeros.

Threads. A two-direction `lstm_layer` uses a worker thread in both passes
(`_alongside`, one new thread per pass) when the batch has at least
CONCURRENT_MIN_BATCH rows, the process may run on more than one CPU, numpy's
BLAS runs one thread (`_spare_cpu`) and no tensor is passed to both
directions. In the forward, the worker computes the backward-time
direction's input projection and every recurrent product, while the
calling thread runs every `lstm_cell`; a tracer that wraps `lstm_cell`, as
perfbench's does, so sees all of its calls on the calling thread. In the
backward, the worker runs the backward-time direction's BPTT and weight
gradients while the calling thread runs the forward direction's, then adds
the two directions' x gradients. Each thread runs the numpy calls the
calling thread would run alone, on the same inputs, so the bits do not
depend on the thread or on the scheduling. Everything else runs on the
calling thread.

Memory. `pack` copies a model's freshly built parameters into one new value
vector and one new gradient vector, each parameter's arrays becoming views
into them, so an optimizer step and a gradient reset are single vector
operations on vectors the model owns. A `Workspace` keeps the large forward
arrays of `lstm_layer`, `concat` and `mean` from one pass to the next (see
its docstring); ops run outside one allocate afresh, with the same bits.
"""

from __future__ import annotations

import contextvars
import ctypes
import functools
import glob
import math
import os
import queue
import threading

import numpy as np

from .errors import ConfigError, DataError, DimensionError


# The smallest batch whose two-direction `lstm_layer` uses a worker thread.
# Below it the two threads' hand-offs of the interpreter lock around numpy's
# short calls cost more than the overlap saves. On a 2-vCPU Xeon VM with one
# BLAS thread, all on one thread → threaded, median fusion training steps
# with a threaded backward read 5.2 → 8.5 ms at batch 32, 7.5 → 9.4 at 64,
# 10.2 → 12.2 at 96, 12.2 → 11.9 at 128, 16.9 → 16.1 at 192 and 19.1 →
# 15.8 at 224; median fusion forwards with a threaded forward read
# 1.39 → 2.73 ms at 32, 3.00 → 3.36 at 64 and 3.08 → 3.37 at 96 (middle of
# 3 runs), and over fresh-process pairs a median threaded/inline ratio of
# 1.001 at 128 (threaded faster in 10 of 20 pairs), 0.903 at 160 (16 of 20)
# and 0.894 at 192 (8 of 12).
CONCURRENT_MIN_BATCH = 128


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
    """Copy freshly built `params` into one new 1-D `data` vector and one new
    1-D `grad` vector, in list order, and rebind each parameter's `data` and
    `grad` as reshaped views into them. Returns (data, grad).

    Values and gradients are copied bit for bit. Every parameter must own its
    arrays, since repacking a view would silently detach it from the buffer it
    is part of, and all must share one dtype.
    """
    params = list(params)
    dtypes = {p.data.dtype for p in params}
    if len(dtypes) > 1:
        raise ConfigError(f"cannot pack parameters of mixed dtypes {sorted(map(str, dtypes))}")
    for p in params:
        if p.data.base is not None or p.grad.base is not None:
            raise ConfigError(f"cannot pack {p.name}: its value or gradient is a view into "
                              "another array, such as a model's buffer")
    data = np.concatenate([p.data.ravel() for p in params])
    grad = np.concatenate([p.grad.ravel() for p in params])
    offset = 0
    for p in params:
        shape, end = p.data.shape, offset + p.data.size
        p.data = data[offset:end].reshape(shape)
        p.grad = grad[offset:end].reshape(shape)
        offset = end
    return data, grad


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
    """Valid (no-padding) cross-correlation along the time axis.

    x: (B, T, C_in), w: (C_out, C_in, k), b: (C_out,) -> (B, T-k+1, C_out),
    C-contiguous. im2col fills cols[b, t, c, j] = x[b, t + j, c] with one slab
    copy per tap j, so that column c·k + j of the flattened cols lines up with
    w's flattened (C_in, k) and one GEMM gives the output, bias added in place.
    Backward reuses `cols` for w's gradient and scatter-adds the column
    gradients onto zeros for x's, tap by tap.
    """
    if x.data.ndim != 3 or w.data.ndim != 3:
        raise DimensionError(
            f"conv1d_valid expects 3-D input/kernels, got {x.data.shape} / {w.data.shape}"
        )
    bsz, t_len, c_in = x.data.shape
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
    out_len = t_len - k + 1
    cols = np.empty((bsz, out_len, c_in, k), dtype=x.data.dtype)
    for j in range(k):
        cols[:, :, :, j] = x.data[:, j:j + out_len]
    cols = cols.reshape(bsz * out_len, c_in * k)
    wmat = w.data.reshape(c_out, c_in * k)
    out = cols @ wmat.T
    out += b.data

    def backward(g):
        g2 = g.reshape(bsz * out_len, c_out)
        _accum(b, g2.sum(axis=0))
        _accum(w, (g2.T @ cols).reshape(c_out, c_in, k))
        if x.requires_grad:
            # col2im: scatter-add each tap's column gradient back onto its steps
            dcols = (g2 @ wmat).reshape(bsz, out_len, c_in, k)
            gx = np.zeros((bsz, t_len, c_in), dtype=dcols.dtype)
            for j in range(k):
                gx[:, j:j + out_len] += dcols[:, :, :, j]
            _accum(x, gx)

    return Tensor(out.reshape(bsz, out_len, c_out), requires_grad=True,
                  parents=(x, w, b), backward=backward)


def max_over_time(x):
    """Per-channel max over axis 1 of a (B, L, C) array; ties route the
    gradient to the first occurrence.

    The max is a running `np.maximum` over the L time slices and the
    backward routes through equality masks, one (B, C) slice at a time: on
    the short axes the models pool over (L <= 4), numpy's `argmax` and
    fancy-index scatter would walk the output one element at a time.
    """
    if x.data.ndim != 3:
        raise DimensionError(f"max_over_time expects (B, L, C), got {x.data.shape}")
    t_len = x.data.shape[1]
    if t_len < 1:
        raise DimensionError("max_over_time needs at least one time step")
    out_data = x.data[:, 0].copy()
    for t in range(1, t_len):
        np.maximum(out_data, x.data[:, t], out=out_data)

    def backward(g):
        gx = np.zeros_like(x.data)
        free = np.ones(out_data.shape, dtype=bool)   # channels whose max is unrouted
        for t in range(t_len):
            hit = x.data[:, t] == out_data
            hit &= free
            np.copyto(gx[:, t], g, where=hit)
            free ^= hit
        _accum(x, gx)

    return Tensor(out_data, requires_grad=True, parents=(x,), backward=backward)


def lstm_cell(gates, rec, c, scratch, c_new, h_new):
    """One LSTM time step, elementwise and in place over preallocated
    feature-major arrays.

    `gates` holds the step's input projection Wxᵀ·x + b on entry, (4H, B),
    and the four gate activations on return; `rec` is the step's recurrent
    product Whᵀ·h of the previous hidden state, (4H, B), or None for the zero
    initial state, whose product is all zeros; `c` is the previous cell
    state, (H, B); `scratch` is a (4H, B) array, which may be `rec` itself,
    that takes i⊙g and on return holds tanh(c') in its first H rows.
    Gate layout in the 4H pre-activation is [input, forget, candidate,
    output], each block a contiguous (H, B) slab; c' = f⊙c + i⊙g,
    h' = o⊙tanh(c'), written into `c_new` and `h_new`. The i, f and o rows of
    the projection and of the product come pre-halved (see `lstm_layer`), so
    one `np.tanh` over the whole block gives g and tanh(z/2) for the sigmoid
    gates, and sigmoid(z) = (tanh(z/2) + 1) / 2 needs only +1 and ×0.5 on
    those blocks; the tanh form needs no masks and cannot overflow for any
    finite z.
    """
    hid = c.shape[0]
    if rec is None:
        gates += 0.0   # xw + 0, the bits the zero state's product gives
    else:
        gates += rec
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

    In a two-direction layer a worker thread computes, in the forward,
    `bw`'s input projection while the calling thread computes `fw`'s, then
    each step's recurrent product one cell ahead of the calling thread,
    which runs the cells of both directions step by step (see
    `_lstm_forward_pair`); in the backward it runs `bw`'s BPTT while the
    calling thread runs `fw`'s and then adds `bw`'s x gradient onto `fw`'s.
    Everything runs on the calling thread, one direction after the other,
    for a batch of fewer than CONCURRENT_MIN_BATCH rows, in a process
    allowed one CPU or a BLAS of several threads, and when a tensor is
    passed to both directions.
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

    parents = (x,) + tuple(w for weights in directions for w in weights)
    # the calling thread alone for one direction, where a worker costs more
    # than it saves or has no CPU of its own, and where a tensor passed to
    # both directions takes both gradients
    inline = (bw is None or bsz < CONCURRENT_MIN_BATCH or not _spare_cpu()
              or len(set(map(id, parents))) < len(parents))

    out_data = _empty((t_len, len(directions) * hid, bsz), x.data.dtype)
    # per direction: the order its recurrence visits the steps in, its output
    # rows, and its hidden states in that order
    views = []
    for k in range(len(directions)):
        order, rows = slice(None, None, -1 if k else 1), slice(k * hid, (k + 1) * hid)
        views.append((order, rows, out_data[order, rows]))
    args = [(x.data[order], *(w.data for w in weights), hs)
            for (order, _, hs), weights in zip(views, directions)]
    states = [_lstm_forward(*a) for a in args] if inline else _lstm_forward_pair(*args)
    # and what each direction's forward leaves for its backward
    runs = [(order, rows, weights, hs, gates, cs)
            for (order, rows, hs), weights, (gates, cs) in zip(views, directions, states)]

    def backward(g):
        def direction(run):
            """One direction's BPTT and weight gradients; returns its slab of
            x's gradient in forward time order, or None if x needs none."""
            order, rows, (wx, wh, b), hs, gates, cs = run
            dpre = _lstm_backward(g[order, rows], gates, cs, wh.data)
            dpre_t = dpre.transpose(0, 2, 1)
            _accum(wx, np.matmul(x.data[order], dpre_t).sum(axis=0))
            _accum(wh, np.matmul(hs[:-1], dpre_t[1:]).sum(axis=0))
            _accum(b, dpre.sum(axis=(0, 2)))
            return np.matmul(wx.data, dpre)[order] if x.requires_grad else None

        if inline:
            dx, *others = map(direction, runs)
        else:
            dx, *others = _alongside(*(functools.partial(direction, run) for run in runs))
        if dx is not None:
            for dxs in others:
                dx += dxs
            _accum(x, dx)

    return Tensor(out_data, requires_grad=True, parents=parents, backward=backward)


def _spare_cpu():
    """Whether a worker thread would have a CPU to itself: the process may run
    on two CPUs or more, and numpy's BLAS runs one thread. Otherwise the
    threads only take turns. Pinned to one CPU, a batch-256 fusion training
    step took a median 24.0 ms threaded against 22.6 ms inline; with
    OpenBLAS's default two threads on two CPUs, a 6-epoch `trajbehav train`
    took 2.1–3.5 s threaded against 1.5–1.6 s inline."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:   # a platform without affinity masks
        cpus = os.cpu_count() or 1
    get_threads = _blas_threads_getter()
    return cpus > 1 and get_threads is not None and get_threads() == 1


@functools.cache
def _blas_threads_getter():
    """The thread-count getter of the OpenBLAS numpy wheels bundle, or None
    where numpy uses another BLAS or keeps it elsewhere."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            get = getattr(lib, name, None)
            if get is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                return get
    return None


def _alongside(first, second):
    """`(first(), second())`, first() on the calling thread and second() on a
    new thread, run in a copy of the caller's context so that its
    `np.errstate` holds there too. numpy releases the interpreter lock in its
    array loops and BLAS calls, so the calls overlap where a second core is
    free. The worker has finished before this returns or raises; if both
    calls raise, first()'s error is raised."""
    outcome = [None, None]   # second()'s result, or its error

    def work():
        try:
            outcome[0] = second()
        except BaseException as exc:   # raised again on the calling thread
            outcome[1] = exc

    worker = threading.Thread(target=contextvars.copy_context().run, args=(work,))
    worker.start()
    try:
        result = first()
    finally:
        worker.join()
    if outcome[1] is not None:
        raise outcome[1]
    return result, outcome[0]


def _lstm_forward(xs, wx, wh, b, hs):
    """Run one direction's recurrence over `xs` (T, d, B), writing the hidden
    states into `hs` (T, H, B) in the same step order. Returns the gate
    activations (T, 4H, B) and the cell states (T+1, H, B), the first of them
    the zero initial state. Each step after the first computes its recurrent
    product Whᵀ·h into the scratch just before its cell."""
    gates, scratch, wht, cs = _lstm_project(xs, wx, wh, b, *_lstm_arrays(xs, wx, wh))
    for s in range(len(xs)):
        if s:
            np.matmul(wht, hs[s - 1], out=scratch)
        lstm_cell(gates[s], scratch if s else None, cs[s], scratch, cs[s + 1], hs[s])
    return gates, cs


def _lstm_arrays(xs, wx, wh):
    """Uninitialized arrays for one direction's forward over `xs`: Wx with
    halved i, f and o columns, the gates (T, 4H, B), a (4H, B) scratch, Wh
    halved likewise and the cell states (T+1, H, B)."""
    t_len, _, bsz = xs.shape
    hid = wh.shape[0]
    dt = xs.dtype
    return (_empty(wx.shape, dt), _empty((t_len, 4 * hid, bsz), dt), _empty((4 * hid, bsz), dt),
            _empty(wh.shape, dt), _empty((t_len + 1, hid, bsz), dt))


def _lstm_project(xs, wx, wh, b, wx_half, gates, scratch, wh_half, cs):
    """Fill one direction's `_lstm_arrays`: the halved weights, the input
    projection plus bias, which become the gates in place, and the zero
    initial cell state. Returns the gates, the scratch, Whᵀ halved and the
    cell states."""
    hid = wh.shape[0]
    half = np.full(4 * hid, 0.5, dtype=wx.dtype)   # 0.5 on the sigmoid gates' rows
    half[2 * hid:3 * hid] = 1.0
    np.matmul(np.multiply(wx, half, out=wx_half).T, xs, out=gates)
    scratch[...] = (b * half)[:, None]
    gates += scratch
    np.multiply(wh, half, out=wh_half)
    cs[0] = 0
    return gates, scratch, wh_half.T, cs


def _lstm_forward_pair(first, second):
    """`[_lstm_forward(*first), _lstm_forward(*second)]`, with a worker thread
    computing the second direction's input projection while this thread
    computes the first's, then every recurrent product, each as soon as the
    cell before it has written its h. This thread runs every `lstm_cell`,
    step by step, the directions interleaved. Both directions' arrays come
    from the workspace before the worker starts, and the worker runs only
    numpy calls, so the calls and their inputs, and hence the bits, are
    those of `_lstm_forward`."""
    t_len = len(first[0])
    hs = (first[4], second[4])
    arrays = [_lstm_arrays(*a[:3]) for a in (first, second)]
    projected = [None, None]   # per direction, what `_lstm_project` returned
    todo, done = queue.SimpleQueue(), queue.SimpleQueue()

    def worker():
        """The second direction's projection, then each product asked for on
        `todo`, in order, each answered on `done`."""
        try:
            projected[1] = _lstm_project(*second[:4], *arrays[1])
            done.put(True)
            for k, s in iter(todo.get, None):
                _, scratch, wht, _ = projected[k]
                np.matmul(wht, hs[k][s - 1], out=scratch)
                done.put(True)
        except BaseException:
            done.put(False)   # wakes the caller; `_alongside` raises the error
            raise

    def caller():
        try:
            projected[0] = _lstm_project(*first[:4], *arrays[0])
            for s in range(t_len):
                for k in range(2):
                    # the answers come in the order the cells need them: the
                    # second direction's projection, then each product
                    if (s, k) != (0, 0) and not done.get():
                        return
                    gates, scratch, _, cs = projected[k]
                    lstm_cell(gates[s], scratch if s else None, cs[s], scratch, cs[s + 1],
                              hs[k][s])
                    if s + 1 < t_len:
                        todo.put((k, s + 1))
        finally:
            todo.put(None)   # the worker's stop, also when a cell raised

    _alongside(caller, worker)
    return [(gates, cs) for gates, _, _, cs in projected]


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
