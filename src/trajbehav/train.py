"""Deterministic training loop and evaluation orchestration.

The schedule follows the reference setup: 60 epochs, batch 256, Adam at
lr LR_INITIAL = 0.005 switching to LR_AFTER = 0.001 after epoch 40,
cross-entropy loss (optionally class-weighted). The two rates are fixed;
`TrainConfig` holds only the values callers vary. Adam's beta1, beta2 and
epsilon are the `optim` constants, and neural models always train in
float32. Every epoch reshuffles with a stream derived from
(seed, epoch) so resampling and shuffling never interact; given the same
(config, split) the final parameters are bit-identical across runs. The
last partial batch is kept. Epoch loss is the batch-size-weighted mean of
batch losses. Training steps run their forward passes in the model's
workspace (`autodiff.Workspace`), so the large arrays of one step reuse the
buffers of the last instead of being allocated afresh.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .data import as_windows
from .errors import ConfigError, DataError, NumericalError
from .hmm import HMMClassifier, fit_classifier, hmm_predict_batch
from .metrics import report
from .models import build_model, predict
from .optim import Adam
from .rng import SHUFFLE, seeded_rng


LR_INITIAL = 0.005
LR_AFTER = 0.001


@dataclass
class TrainConfig:
    epochs: int = 60
    batch_size: int = 256
    lr_switch_epoch: int = 40
    seed: int = 0
    hmm_max_iters: int = 100

    def validate(self):
        for name, low in (("batch_size", 1), ("hmm_max_iters", 1), ("epochs", 0),
                          ("lr_switch_epoch", 0)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if self.epochs > 0 and self.lr_switch_epoch >= self.epochs:
            raise ConfigError(
                f"lr_switch_epoch ({self.lr_switch_epoch}) must be below "
                f"epochs ({self.epochs})"
            )


@dataclass
class EpochStats:
    epoch: int
    loss: float
    lr: float
    seconds: float


@dataclass
class TrainLog:
    entries: list = field(default_factory=list)

    def format(self):
        lines = ["epoch\tloss\tlr\tseconds"]
        for e in self.entries:
            lines.append(f"{e.epoch}\t{e.loss:.8f}\t{e.lr:g}\t{e.seconds:.3f}")
        return "\n".join(lines) + "\n"


def lr_at(config, epoch):
    """Learning rate for a 1-indexed epoch."""
    return LR_INITIAL if epoch <= config.lr_switch_epoch else LR_AFTER


def train(model_kind, config, split, loss_weights=None, use_mscnn=True):
    """Train a model of `model_kind` on `split.train`, a Windows or a
    sequence of WindowSample rows (see `as_windows`); `split.test` is never read.

    Returns (model, TrainLog). For the HMM baseline the log carries one row
    per class (its final mean log-likelihood as the loss column and the
    seconds of that class's Baum-Welch fit) since the fit is per-class EM,
    not epoch-based. Raises DataError naming the first training window whose
    states are not finite once cast to float32 (a coordinate past float32's
    range, say), whatever the kind.
    """
    config.validate()
    windows = as_windows(split.train)
    if not windows:
        raise ConfigError("training split is empty")
    num_classes = len(split.class_names)
    states, labels = windows.states, windows.labels
    with np.errstate(over="ignore"):   # out-of-range coordinates become inf, reported below
        states32 = states.astype(np.float32)
    if not np.isfinite(states32).all():
        bad = int(np.argmax(~np.isfinite(states32).all(axis=(1, 2))))
        raise DataError(f"training window {bad} has states that are not finite in float32")

    if model_kind == "hmm":
        log = TrainLog()
        clf = fit_classifier(
            states, labels, split.class_names, config.hmm_max_iters, config.seed
        )
        for i, m in enumerate(clf.models):
            mean_ll = m.fit_loglik[-1] / max(int((labels == i).sum()), 1)
            log.entries.append(
                EpochStats(epoch=i, loss=-mean_ll, lr=0.0, seconds=m.fit_seconds)
            )
        return clf, log

    model = build_model(model_kind, num_classes, seed=config.seed, use_mscnn=use_mscnn)
    weights = None
    if loss_weights is not None:
        weights = np.asarray(loss_weights, dtype=model.dtype)
        if weights.shape != (num_classes,):
            raise ConfigError(
                f"loss weights shape {weights.shape} != ({num_classes},)"
            )

    opt = Adam(model.param_list(), LR_INITIAL)
    n = states32.shape[0]
    log = TrainLog()
    for epoch in range(1, config.epochs + 1):
        opt.lr = lr_at(config, epoch)
        order = seeded_rng(config.seed, SHUFFLE, epoch).permutation(n)
        t0 = time.perf_counter()
        total = 0.0
        for bi, start in enumerate(range(0, n, config.batch_size)):
            idx = order[start:start + config.batch_size]
            model.zero_grad()
            # The previous step's whole tape stays alive until this line
            # rebinds `loss`. Freeing it first (`del loss` after `opt.step()`)
            # made each batch-256 fusion step fault in 2,216 fresh pages
            # instead of 1,183 and take a median 31.2 ms instead of 28.5 ms
            # over five runs each on a 2-core Xeon VM: glibc returned the pages
            # of the arrays outside the workspace to the OS and faulted them
            # back in on every step.
            with model.workspace:
                loss = ad.softmax_cross_entropy(
                    model.forward(states32[idx]), labels[idx], weights
                )
            value = float(loss.data)
            if not math.isfinite(value):
                raise NumericalError(
                    f"non-finite loss at epoch {epoch}, batch {bi}"
                )
            loss.backward()
            opt.step()
            total += value * len(idx)
        log.entries.append(
            EpochStats(
                epoch=epoch, loss=total / n, lr=opt.lr,
                seconds=time.perf_counter() - t0,
            )
        )
    return model, log


def predict_batch(model, states):
    """Class predictions for stacked window states, any model kind."""
    if isinstance(model, HMMClassifier):
        return hmm_predict_batch(model, states)
    return predict(model, states)


def evaluate(model, samples, class_names):
    """Metrics report of a trained model over `samples`, a Windows or a
    sequence of WindowSample rows. No resampling is ever applied here;
    resampling belongs to the training phase only.
    """
    windows = as_windows(samples)
    if not windows:
        raise ConfigError("evaluation set is empty")
    preds = predict_batch(model, windows.states)
    return report(preds, windows.labels, class_names)
