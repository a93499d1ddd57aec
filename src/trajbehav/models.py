"""The fusion classifier and the two neural baselines.

All three models share the gradient-tape primitives, expose an ordered
`parameters` dict, and accept input batches shaped (B, WINDOW_SIZE,
STATE_FEATURES). Each recurrent layer, of one or two directions, is one
`lstm_layer` tape node over the whole sequence, not one node per time step
or direction.

Layout. The recurrent layers run on (T, F, B) arrays, the layout the
`autodiff` module docstring explains: the batch axis innermost, so each
gate block is one contiguous slab. `_feature_major` transposes the
(B, T, F) window batch once on the way in. Each Bi-LSTM layer writes its
two directions into one (T, 2H, B) output, the forward direction's hidden
states in the first H feature rows, and the branch averages the top
layer's over time, giving (2H, B); the LSTM baseline takes the last step,
(H, B). Either readout then passes one 2-D `transpose` tape node to become
the (B, F) rows the dense head and the conv branch use. The conv layers run
on the (B, T, C) window batch as it is.

Storage. A model's parameters live in one 1-D `data` vector and their
gradients in one 1-D `grad` vector, which `autodiff.pack` builds once when
construction ends: each named `Parameter`'s `data` and `grad` are reshaped
views into them, in `parameters` order. `zero_grad` is one fill,
`optim.Adam(model.param_list())` borrows the two vectors and updates them in
one pass, and a checkpoint load copies into the views. Each model also owns
the `autodiff.Workspace` its training steps and inference chunks run their
forward passes in.

Each kind has one fixed architecture, given by the module constants below.
A caller chooses the class count (`num_classes`), the initialisation seed,
the float type (`dtype`: float32 for training, inference and checkpoints,
float64 for the gradient check) and, for the fusion ablation, whether the
conv branch is built (`use_mscnn`).

Architecture notes (choices the reference description leaves open):
  * Bi-LSTM branch: LSTM_LAYERS bidirectional layers of LSTM_HIDDEN units
    per direction. Its readout is the mean over the WINDOW_SIZE time steps
    of the concatenated forward+backward top-layer hidden states
    (2 * LSTM_HIDDEN = 128 features).
  * MSCNN branch: one valid conv bank of CHANNELS_PER_KERNEL filters per
    width in KERNEL_SIZES. Temporal pooling after each bank is
    max-over-time, which turns the unequal output lengths (4/3/2 for
    kernels 2/3/4 over 5 steps) into fixed-size features; a fully
    connected bottleneck then maps the 96 pooled features to FC1_OUT = 32.
  * The linear head maps the fused 160-dim vector to the class logits.
  * ReLU after conv banks and the bottleneck; no activation on the logits.
  * The LSTM baseline stacks LSTM_LAYERS unidirectional layers of
    LSTM_HIDDEN units and classifies from the last hidden state. The
    Conv1D baseline stacks one valid conv of width CONV_KERNEL per entry of
    CONV_CHANNELS, which leaves one time step; its dense head reads that
    step's channels.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .data import STATE_FEATURES, WINDOW_SIZE
from .errors import ConfigError, DataError, DimensionError
from .rng import INIT, seeded_rng

LSTM_LAYERS = 2
LSTM_HIDDEN = 64
KERNEL_SIZES = (2, 3, 4)
CHANNELS_PER_KERNEL = 32
FC1_OUT = 32
CONV_CHANNELS = (32, 32, 64, 64)
CONV_KERNEL = 2
MIN_BATCH = 32
PREDICT_CHUNK = 256


def _xavier(rng, shape, fan_in, fan_out, dtype):
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


class _ModelBase:
    kind = "base"

    def __init__(self, num_classes, seed=0, dtype=np.float32):
        if num_classes < 2:
            raise ConfigError(f"num_classes must be >= 2, got {num_classes}")
        self.num_classes = num_classes
        self.dtype = dtype
        self.parameters = {}
        self._build(seeded_rng(seed, INIT))
        self.data, self.grad = ad.pack(self.parameters.values())
        self.workspace = ad.Workspace()

    def config(self):
        """The architecture as stored in a checkpoint's `config` entry."""
        return {"num_classes": self.num_classes, "seq_len": WINDOW_SIZE,
                "input_channels": STATE_FEATURES}

    def _add_param(self, name, values):
        self.parameters[name] = Parameter(values, name)

    def _add_lstm(self, prefix, d_in, rng):
        h, dt = LSTM_HIDDEN, self.dtype
        self._add_param(f"{prefix}.wx", _xavier(rng, (d_in, 4 * h), d_in, 4 * h, dt))
        self._add_param(f"{prefix}.wh", _xavier(rng, (h, 4 * h), h, 4 * h, dt))
        b = np.zeros(4 * h, dtype=dt)
        b[h:2 * h] = 1.0  # forget-gate bias
        self._add_param(f"{prefix}.b", b)

    def _add_conv(self, prefix, c_in, c_out, k, rng):
        w = _xavier(rng, (c_out, c_in, k), c_in * k, c_out * k, self.dtype)
        self._add_param(f"{prefix}.w", w)
        self._add_param(f"{prefix}.b", np.zeros(c_out, dtype=self.dtype))

    def _add_dense(self, prefix, d_in, d_out, rng):
        self._add_param(f"{prefix}.w", _xavier(rng, (d_in, d_out), d_in, d_out, self.dtype))
        self._add_param(f"{prefix}.b", np.zeros(d_out, dtype=self.dtype))

    def _lstm_weights(self, prefix):
        return tuple(self.parameters[f"{prefix}.{n}"] for n in ("wx", "wh", "b"))

    def _wb(self, prefix):
        return self.parameters[f"{prefix}.w"], self.parameters[f"{prefix}.b"]

    def param_list(self):
        return list(self.parameters.values())

    def zero_grad(self):
        self.grad.fill(0.0)

    def _check_batch(self, batch):
        batch = np.asarray(batch)
        if batch.ndim != 3 or batch.shape[1:] != (WINDOW_SIZE, STATE_FEATURES):
            raise DimensionError(
                f"expected batch of shape (B, {WINDOW_SIZE}, {STATE_FEATURES}), "
                f"got {batch.shape}"
            )
        return batch.astype(self.dtype, copy=False)

    def _feature_major(self, batch):
        """(B, T, C) window batch as a (T, C, B) tensor for the LSTM layers."""
        return Tensor(np.ascontiguousarray(self._check_batch(batch).transpose(1, 2, 0)))


class FusionModel(_ModelBase):
    """Bi-LSTM branch + multi-scale conv branch, fused into a linear head."""

    kind = "fusion"

    def __init__(self, num_classes, seed=0, dtype=np.float32, use_mscnn=True):
        self.use_mscnn = bool(use_mscnn)
        super().__init__(num_classes, seed, dtype)

    def _build(self, rng):
        for layer in range(LSTM_LAYERS):
            d_in = STATE_FEATURES if layer == 0 else 2 * LSTM_HIDDEN
            for direction in ("fw", "bw"):
                self._add_lstm(f"bilstm.l{layer}.{direction}", d_in, rng)
        if self.use_mscnn:
            for k in KERNEL_SIZES:
                self._add_conv(f"mscnn.k{k}", STATE_FEATURES, CHANNELS_PER_KERNEL, k, rng)
            self._add_dense("mscnn.fc1", len(KERNEL_SIZES) * CHANNELS_PER_KERNEL, FC1_OUT, rng)
        self._add_dense("head", 2 * LSTM_HIDDEN + (FC1_OUT if self.use_mscnn else 0),
                        self.num_classes, rng)

    def config(self):
        return {**super().config(), "lstm_layers": LSTM_LAYERS, "lstm_hidden": LSTM_HIDDEN,
                "kernel_sizes": list(KERNEL_SIZES), "channels_per_kernel": CHANNELS_PER_KERNEL,
                "fc1_out": FC1_OUT, "use_mscnn": self.use_mscnn}

    def bilstm_features(self, batch):
        """(B, 5, 4) -> (B, 128): time-averaged bidirectional hidden states."""
        x = self._feature_major(batch)
        for layer in range(LSTM_LAYERS):
            x = ad.lstm_layer(x, self._lstm_weights(f"bilstm.l{layer}.fw"),
                              self._lstm_weights(f"bilstm.l{layer}.bw"))
        return ad.transpose(ad.mean(x, axis=0))

    def mscnn_features(self, batch):
        """(B, 5, 4) -> (B, 32): multi-scale conv banks, pooled and bottlenecked."""
        if not self.use_mscnn:
            raise ConfigError("model was built without the conv branch")
        x = Tensor(self._check_batch(batch))
        pooled = [ad.max_over_time(ad.relu(ad.conv1d_valid(x, *self._wb(f"mscnn.k{k}"))))
                  for k in KERNEL_SIZES]
        return ad.relu(ad.dense(ad.concat(pooled, axis=1), *self._wb("mscnn.fc1")))

    def forward(self, batch):
        if self.use_mscnn:
            feature = ad.concat(
                [self.bilstm_features(batch), self.mscnn_features(batch)], axis=1
            )
        else:
            feature = self.bilstm_features(batch)
        return ad.dense(feature, *self._wb("head"))


class LSTMBaseline(_ModelBase):
    """Unidirectional stacked LSTM; classifies from the final hidden state."""

    kind = "lstm"

    def _build(self, rng):
        for layer in range(LSTM_LAYERS):
            d_in = STATE_FEATURES if layer == 0 else LSTM_HIDDEN
            self._add_lstm(f"lstm.l{layer}", d_in, rng)
        self._add_dense("head", LSTM_HIDDEN, self.num_classes, rng)

    def config(self):
        return {**super().config(), "hidden": LSTM_HIDDEN, "layers": LSTM_LAYERS}

    def forward(self, batch):
        x = self._feature_major(batch)
        for layer in range(LSTM_LAYERS):
            x = ad.lstm_layer(x, self._lstm_weights(f"lstm.l{layer}"))
        return ad.dense(ad.transpose(ad.index(x, -1, axis=0)), *self._wb("head"))


class Conv1DBaseline(_ModelBase):
    """Stacked valid conv layers over time, then one dense classifier."""

    kind = "conv1d"

    def _build(self, rng):
        c_in = STATE_FEATURES
        for i, c_out in enumerate(CONV_CHANNELS):
            self._add_conv(f"conv.{i}", c_in, c_out, CONV_KERNEL, rng)
            c_in = c_out
        final_len = WINDOW_SIZE - len(CONV_CHANNELS) * (CONV_KERNEL - 1)
        self._add_dense("head", CONV_CHANNELS[-1] * final_len, self.num_classes, rng)

    def config(self):
        return {**super().config(), "channels": list(CONV_CHANNELS), "kernel": CONV_KERNEL}

    def forward(self, batch):
        x = Tensor(self._check_batch(batch))
        for i in range(len(CONV_CHANNELS)):
            x = ad.relu(ad.conv1d_valid(x, *self._wb(f"conv.{i}")))
        return ad.dense(ad.index(x, -1, axis=1), *self._wb("head"))


def logits(model, batch):
    """Logits per row of a batch of any size. Under OpenBLAS's SkylakeX
    (AVX-512) kernels a row's logits are bit-equal whatever batch it sits
    in; under other kernels they need not be.

    The rows run in chunks of PREDICT_CHUNK = 256, the default training
    batch size, each chunk one pass in the model's workspace, so a model
    evaluated right after training reuses the buffers its training filled.
    BLAS takes other kernels for small matrices, so a last chunk of fewer
    than MIN_BATCH rows runs padded with zero windows, whose logits are
    dropped. With OpenBLAS 0.3.31's SkylakeX kernels, a sweep of every batch
    size from 1 to 256 rows found the conv1d baseline's GEMMs the last to
    agree with a 256-row batch, from 19 rows on; MIN_BATCH leaves a margin
    above that. numpy's bundled OpenBLAS picks its kernels from the CPU when
    it loads, and under `OPENBLAS_CORETYPE=Haswell` a chunk's rows depend
    on how many rows it holds: two tests then fail,
    `tests/test_models.py::TestBatchInvariance::test_logits_of_a_set_are_the_logits_of_its_parts`
    and `::TestFusionForward::test_duplicated_sample_identical_rows`.
    A row whose states or logits are not finite in the model's dtype
    (a coordinate past float32's range, say) raises DataError naming its
    index in the batch.
    """
    with np.errstate(over="ignore", invalid="ignore"):   # reported below
        batch = model._check_batch(batch)
        rows = batch.shape[0]
        out = np.empty((rows, model.num_classes), dtype=batch.dtype)
        try:
            for i in range(0, rows, PREDICT_CHUNK):
                chunk = batch[i:i + PREDICT_CHUNK]
                n = chunk.shape[0]
                if n < MIN_BATCH:
                    pad = np.zeros((MIN_BATCH - n,) + batch.shape[1:], dtype=batch.dtype)
                    chunk = np.concatenate([chunk, pad])
                with model.workspace:
                    out[i:i + n] = model.forward(chunk).data[:n]
        finally:
            # A fusion model's buffers are 9.6 MiB at 256 windows. When they were
            # 16.1 MiB and held until the model died, at the end of `trajbehav
            # eval`, they left later allocations above them in the heap, and the
            # peak RSS of the `prep` that followed in the same process read
            # 108-125 MB from run to run (105-114 MB when released here).
            model.workspace.release()
    if not (np.isfinite(batch).all() and np.isfinite(out).all()):
        bad = ~(np.isfinite(batch).all(axis=(1, 2)) & np.isfinite(out).all(axis=1))
        raise DataError(f"row {int(bad.argmax())} of the batch has non-finite "
                        f"{batch.dtype} states or logits")
    return out


def predict(model, batch):
    """Argmax class per row; exact ties resolve to the lowest class index."""
    return np.argmax(logits(model, batch), axis=1)


MODEL_KINDS = ("fusion", "lstm", "conv1d", "hmm")


def build_model(kind, num_classes, seed=0, dtype=np.float32, use_mscnn=True):
    """Construct a neural model of the given kind; `use_mscnn` applies to
    fusion only."""
    if kind == "fusion":
        return FusionModel(num_classes, seed=seed, dtype=dtype, use_mscnn=use_mscnn)
    if kind == "lstm":
        return LSTMBaseline(num_classes, seed=seed, dtype=dtype)
    if kind == "conv1d":
        return Conv1DBaseline(num_classes, seed=seed, dtype=dtype)
    raise ConfigError(f"unknown model kind {kind!r}")
