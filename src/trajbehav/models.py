"""The fusion classifier and the two neural baselines.

All three models share the gradient-tape primitives, expose an ordered
`parameters` dict, and accept input batches shaped (B, seq_len, channels).
Recurrent layers work on whole (B, T, H) sequences: each layer direction
is one `lstm_sequence` tape node, not one node per time step.

Architecture notes (choices the reference description leaves open):
  * The fully connected bottleneck after the multi-scale conv banks outputs
    32 features; the classification head then maps the fused 160-dim vector
    to the class logits.
  * Temporal pooling after each conv bank is max-over-time, which turns the
    unequal conv output lengths (4/3/2 for kernels 2/3/4 over 5 steps) into
    fixed-size features.
  * ReLU after conv banks and the bottleneck; no activation on the logits.
  * Recurrent readout is the mean over the 5 time steps of the concatenated
    forward+backward top-layer hidden states (128-dim).
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from . import autodiff as ad
from .autodiff import DTYPES, Parameter, Tensor
from .errors import ConfigError, DimensionError
from .rng import INIT, seeded_rng


@dataclass(frozen=True)
class FusionConfig:
    num_classes: int
    seq_len: int = 5
    input_channels: int = 4
    lstm_layers: int = 2
    lstm_hidden: int = 64
    kernel_sizes: tuple = (2, 3, 4)
    channels_per_kernel: int = 32
    fc1_out: int = 32
    use_mscnn: bool = True

    def validate(self):
        if self.num_classes < 2:
            raise ConfigError(f"num_classes must be >= 2, got {self.num_classes}")
        for k in self.kernel_sizes:
            if k > self.seq_len:
                raise ConfigError(
                    f"kernel size {k} exceeds sequence length {self.seq_len}"
                )


@dataclass(frozen=True)
class LSTMBaselineConfig:
    num_classes: int
    seq_len: int = 5
    input_channels: int = 4
    hidden: int = 64
    layers: int = 2

    def validate(self):
        if self.num_classes < 2:
            raise ConfigError(f"num_classes must be >= 2, got {self.num_classes}")


@dataclass(frozen=True)
class Conv1DBaselineConfig:
    num_classes: int
    seq_len: int = 5
    input_channels: int = 4
    channels: tuple = (32, 32, 64, 64)
    kernel: int = 2

    def validate(self):
        if self.num_classes < 2:
            raise ConfigError(f"num_classes must be >= 2, got {self.num_classes}")
        final_len = self.seq_len - len(self.channels) * (self.kernel - 1)
        if final_len < 1:
            raise ConfigError(
                f"{len(self.channels)} conv layers of width {self.kernel} "
                f"consume more than {self.seq_len} time steps"
            )


def _xavier(rng, shape, fan_in, fan_out, dtype):
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


class _ModelBase:
    kind = "base"

    def __init__(self, precision):
        if precision not in DTYPES:
            raise ConfigError(f"unknown precision mode {precision!r}")
        self.precision = precision
        self.dtype = DTYPES[precision]
        self.parameters = {}

    def _add_param(self, name, values):
        p = Parameter(values, name)
        self.parameters[name] = p
        return p

    def _lstm_weights(self, prefix):
        return tuple(self.parameters[f"{prefix}.{n}"] for n in ("wx", "wh", "b"))

    def param_list(self):
        return list(self.parameters.values())

    def zero_grad(self):
        for p in self.parameters.values():
            p.zero_grad()

    def _check_batch(self, batch, seq_len, channels):
        batch = np.asarray(batch)
        if batch.ndim != 3 or batch.shape[1] != seq_len or batch.shape[2] != channels:
            raise DimensionError(
                f"expected batch of shape (B, {seq_len}, {channels}), got {batch.shape}"
            )
        return batch.astype(self.dtype, copy=False)


def _init_lstm_direction(model, prefix, d_in, hidden, rng):
    dt = model.dtype
    wx = _xavier(rng, (d_in, 4 * hidden), d_in, 4 * hidden, dt)
    wh = _xavier(rng, (hidden, 4 * hidden), hidden, 4 * hidden, dt)
    b = np.zeros(4 * hidden, dtype=dt)
    b[hidden:2 * hidden] = 1.0  # forget-gate bias
    model._add_param(f"{prefix}.wx", wx)
    model._add_param(f"{prefix}.wh", wh)
    model._add_param(f"{prefix}.b", b)


class FusionModel(_ModelBase):
    """Bi-LSTM branch + multi-scale conv branch, fused into a linear head."""

    kind = "fusion"

    def __init__(self, config, seed=0, precision="fast"):
        super().__init__(precision)
        config.validate()
        self.config = config
        rng = seeded_rng(seed, INIT)
        cfg = config
        dt = self.dtype

        for layer in range(cfg.lstm_layers):
            d_in = cfg.input_channels if layer == 0 else 2 * cfg.lstm_hidden
            for direction in ("fw", "bw"):
                _init_lstm_direction(
                    self, f"bilstm.l{layer}.{direction}", d_in, cfg.lstm_hidden, rng
                )

        if cfg.use_mscnn:
            ch = cfg.channels_per_kernel
            for k in cfg.kernel_sizes:
                fan = cfg.input_channels * k
                w = _xavier(rng, (ch, cfg.input_channels, k), fan, ch * k, dt)
                self._add_param(f"mscnn.k{k}.w", w)
                self._add_param(f"mscnn.k{k}.b", np.zeros(ch, dtype=dt))
            concat_dim = len(cfg.kernel_sizes) * ch
            self._add_param(
                "mscnn.fc1.w",
                _xavier(rng, (concat_dim, cfg.fc1_out), concat_dim, cfg.fc1_out, dt),
            )
            self._add_param("mscnn.fc1.b", np.zeros(cfg.fc1_out, dtype=dt))

        head_in = 2 * cfg.lstm_hidden + (cfg.fc1_out if cfg.use_mscnn else 0)
        self._add_param(
            "head.w",
            _xavier(rng, (head_in, cfg.num_classes), head_in, cfg.num_classes, dt),
        )
        self._add_param("head.b", np.zeros(cfg.num_classes, dtype=dt))

    def bilstm_features(self, batch):
        """(B, 5, 4) -> (B, 128): time-averaged bidirectional hidden states."""
        cfg = self.config
        x = Tensor(self._check_batch(batch, cfg.seq_len, cfg.input_channels))
        for layer in range(cfg.lstm_layers):
            fw = ad.lstm_sequence(x, *self._lstm_weights(f"bilstm.l{layer}.fw"))
            bw = ad.lstm_sequence(
                x, *self._lstm_weights(f"bilstm.l{layer}.bw"), reverse=True
            )
            x = ad.concat([fw, bw], axis=2)
        return ad.mean(x, axis=1)

    def mscnn_features(self, batch):
        """(B, 5, 4) -> (B, 32): multi-scale conv banks, pooled and bottlenecked."""
        cfg = self.config
        if not cfg.use_mscnn:
            raise ConfigError("model was built without the conv branch")
        batch = self._check_batch(batch, cfg.seq_len, cfg.input_channels)
        x = Tensor(np.ascontiguousarray(batch.transpose(0, 2, 1)))
        pooled = []
        for k in cfg.kernel_sizes:
            y = ad.conv1d_valid(
                x, self.parameters[f"mscnn.k{k}.w"], self.parameters[f"mscnn.k{k}.b"]
            )
            pooled.append(ad.max_over_time(ad.relu(y)))
        feats = ad.concat(pooled, axis=1)
        return ad.relu(
            ad.dense(feats, self.parameters["mscnn.fc1.w"], self.parameters["mscnn.fc1.b"])
        )

    def forward(self, batch):
        if self.config.use_mscnn:
            feature = ad.concat(
                [self.bilstm_features(batch), self.mscnn_features(batch)], axis=1
            )
        else:
            feature = self.bilstm_features(batch)
        return ad.dense(feature, self.parameters["head.w"], self.parameters["head.b"])


class LSTMBaseline(_ModelBase):
    """Unidirectional stacked LSTM; classifies from the final hidden state."""

    kind = "lstm"

    def __init__(self, config, seed=0, precision="fast"):
        super().__init__(precision)
        config.validate()
        self.config = config
        rng = seeded_rng(seed, INIT)
        for layer in range(config.layers):
            d_in = config.input_channels if layer == 0 else config.hidden
            _init_lstm_direction(self, f"lstm.l{layer}", d_in, config.hidden, rng)
        self._add_param(
            "head.w",
            _xavier(
                rng,
                (config.hidden, config.num_classes),
                config.hidden,
                config.num_classes,
                self.dtype,
            ),
        )
        self._add_param("head.b", np.zeros(config.num_classes, dtype=self.dtype))

    def forward(self, batch):
        cfg = self.config
        x = Tensor(self._check_batch(batch, cfg.seq_len, cfg.input_channels))
        for layer in range(cfg.layers):
            x = ad.lstm_sequence(x, *self._lstm_weights(f"lstm.l{layer}"))
        last = ad.index(x, -1, axis=1)
        return ad.dense(last, self.parameters["head.w"], self.parameters["head.b"])


class Conv1DBaseline(_ModelBase):
    """Stacked valid conv layers over time, then one dense classifier."""

    kind = "conv1d"

    def __init__(self, config, seed=0, precision="fast"):
        super().__init__(precision)
        config.validate()
        self.config = config
        rng = seeded_rng(seed, INIT)
        dt = self.dtype
        c_in = config.input_channels
        for i, c_out in enumerate(config.channels):
            fan_in = c_in * config.kernel
            w = _xavier(rng, (c_out, c_in, config.kernel), fan_in, c_out * config.kernel, dt)
            self._add_param(f"conv.{i}.w", w)
            self._add_param(f"conv.{i}.b", np.zeros(c_out, dtype=dt))
            c_in = c_out
        final_len = config.seq_len - len(config.channels) * (config.kernel - 1)
        flat = config.channels[-1] * final_len
        self._add_param(
            "head.w",
            _xavier(rng, (flat, config.num_classes), flat, config.num_classes, dt),
        )
        self._add_param("head.b", np.zeros(config.num_classes, dtype=dt))
        self._flat_dim = flat

    def forward(self, batch):
        cfg = self.config
        batch = self._check_batch(batch, cfg.seq_len, cfg.input_channels)
        x = Tensor(np.ascontiguousarray(batch.transpose(0, 2, 1)))
        for i in range(len(cfg.channels)):
            x = ad.relu(
                ad.conv1d_valid(
                    x, self.parameters[f"conv.{i}.w"], self.parameters[f"conv.{i}.b"]
                )
            )
        x = ad.reshape(x, (x.data.shape[0], self._flat_dim))
        return ad.dense(x, self.parameters["head.w"], self.parameters["head.b"])


def predict(model, batch):
    """Argmax class per row; exact ties resolve to the lowest class index."""
    logits = model.forward(batch).data
    return np.argmax(logits, axis=1)


def parameter_count(model):
    return sum(p.data.size for p in model.parameters.values())


def fusion_parameter_count(config):
    """Closed-form parameter count of FusionModel as a function of config.

    Per LSTM direction of layer l: d_in*4H + H*4H + 4H where d_in is the
    input width (channels for layer 0, 2H above). Conv bank k contributes
    ch*c_in*k + ch; the bottleneck (3*ch)*fc1 + fc1; the head maps the fused
    feature (2H [+ fc1]) to num_classes with bias.
    """
    h = config.lstm_hidden
    total = 0
    for layer in range(config.lstm_layers):
        d_in = config.input_channels if layer == 0 else 2 * h
        total += 2 * (d_in * 4 * h + h * 4 * h + 4 * h)
    if config.use_mscnn:
        ch = config.channels_per_kernel
        for k in config.kernel_sizes:
            total += ch * config.input_channels * k + ch
        concat_dim = len(config.kernel_sizes) * ch
        total += concat_dim * config.fc1_out + config.fc1_out
    head_in = 2 * h + (config.fc1_out if config.use_mscnn else 0)
    total += head_in * config.num_classes + config.num_classes
    return total


MODEL_KINDS = ("fusion", "lstm", "conv1d", "hmm")

_CONFIG_TYPES = {
    "fusion": FusionConfig,
    "lstm": LSTMBaselineConfig,
    "conv1d": Conv1DBaselineConfig,
}

_MODEL_TYPES = {
    "fusion": FusionModel,
    "lstm": LSTMBaseline,
    "conv1d": Conv1DBaseline,
}


def build_model(kind, num_classes, seed=0, precision="fast", use_mscnn=True):
    """Construct a neural model of the given kind with default architecture."""
    if kind == "fusion":
        cfg = FusionConfig(num_classes=num_classes, use_mscnn=use_mscnn)
    elif kind == "lstm":
        cfg = LSTMBaselineConfig(num_classes=num_classes)
    elif kind == "conv1d":
        cfg = Conv1DBaselineConfig(num_classes=num_classes)
    else:
        raise ConfigError(f"unknown model kind {kind!r}")
    return _MODEL_TYPES[kind](cfg, seed=seed, precision=precision)


def config_to_dict(config):
    d = asdict(config)
    for key, value in d.items():
        if isinstance(value, tuple):
            d[key] = list(value)
    return d


def config_from_dict(kind, d):
    cls = _CONFIG_TYPES[kind]
    kwargs = dict(d)
    for key, value in kwargs.items():
        if isinstance(value, list):
            kwargs[key] = tuple(value)
    return cls(**kwargs)


def model_from_config(kind, config, seed=0, precision="fast"):
    if kind not in _MODEL_TYPES:
        raise ConfigError(f"unknown model kind {kind!r}")
    return _MODEL_TYPES[kind](config, seed=seed, precision=precision)
