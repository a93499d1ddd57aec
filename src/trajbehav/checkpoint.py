"""Model persistence on top of the binary container.

A checkpoint stores the model kind, its architecture config, the class map,
optional normalization stats, and every parameter tensor in its native
precision, so a save/load roundtrip restores parameters bit-exactly and
reproduces predictions bit-identically. Each neural kind has one fixed
architecture: a load rebuilds it from the class count (and, for fusion,
whether the conv branch is on) and rejects a stored config that differs
from it. An HMM checkpoint must name at least two classes. The tensors of
either kind must pass `container.require_arrays` (the names, shapes and
dtypes the model implies, all finite), and HMM tensors must hold positive
variances, and initial and transition rows that are probability rows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .container import (read_container, require_arrays, require_int, require_keys,
                         require_str_list, write_container)
from .data import STATE_FEATURES
from .errors import CheckpointError, ConfigError
from .hmm import GaussianHMM, HMMClassifier
from .models import MODEL_KINDS, build_model

# How far a stored HMM probability row may sum from 1.
PROB_SUM_TOL = 1e-6


@dataclass
class Checkpoint:
    model: object                # neural model or HMMClassifier; `.kind` names it
    class_names: list
    normalization: dict | None = None


def save_checkpoint(model, class_names, path, normalization=None):
    if isinstance(model, HMMClassifier):
        meta = {
            "model_kind": "hmm",
            "class_names": list(class_names),
            "normalization": normalization,
            "n_states": model.models[0].n_states,
        }
        arrays = {}
        for i, m in enumerate(model.models):
            arrays[f"class{i}.initial"] = m.initial
            arrays[f"class{i}.transitions"] = m.transitions
            arrays[f"class{i}.means"] = m.means
            arrays[f"class{i}.variances"] = m.variances
        write_container(path, "model", meta, arrays)
        return

    meta = {
        "model_kind": model.kind,
        "config": model.config(),
        "precision": model.precision,
        "class_names": list(class_names),
        "normalization": normalization,
    }
    arrays = {name: p.data for name, p in model.parameters.items()}
    write_container(path, "model", meta, arrays)


def load_checkpoint(path):
    kind, meta, arrays = read_container(path)
    if kind != "model":
        raise CheckpointError(f"{path}: expected a model checkpoint, found {kind!r}")
    require_keys(path, meta, ("model_kind", "class_names"), "checkpoint metadata")
    model_kind = meta["model_kind"]
    if model_kind not in MODEL_KINDS:
        raise CheckpointError(f"{path}: unknown model kind {model_kind!r}")
    class_names = require_str_list(path, meta["class_names"], "checkpoint 'class_names'")

    if model_kind == "hmm":
        require_keys(path, meta, ("n_states",), "checkpoint metadata")
        k = require_int(path, meta["n_states"], "checkpoint 'n_states'", 1)
        if len(class_names) < 2:
            raise CheckpointError(
                f"{path}: num_classes must be >= 2, got {len(class_names)}"
            )
        shapes = {"initial": (k,), "transitions": (k, k),
                  "means": (k, STATE_FEATURES), "variances": (k, STATE_FEATURES)}
        require_arrays(path, arrays, {f"class{i}.{name}": (shape, np.float64)
                                      for i in range(len(class_names))
                                      for name, shape in shapes.items()}, "tensor")
        for key, value in arrays.items():
            _check_hmm_values(path, key, value)
        models = [GaussianHMM(**{name: arrays[f"class{i}.{name}"] for name in shapes})
                  for i in range(len(class_names))]
        clf = HMMClassifier(models=models, class_names=class_names)
        return Checkpoint(model=clf, class_names=class_names,
                          normalization=meta.get("normalization"))

    require_keys(path, meta, ("config", "precision"), "checkpoint metadata")
    config = meta["config"]
    if not isinstance(config, dict):
        raise CheckpointError(f"{path}: checkpoint config is not a JSON object")
    if not isinstance(meta["precision"], str):
        raise CheckpointError(f"{path}: unknown precision {meta['precision']!r}")
    try:
        model = build_model(model_kind, len(class_names), precision=meta["precision"],
                            use_mscnn=config.get("use_mscnn") is not False)
    except ConfigError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc
    arch = model.config()
    differ = sorted(k for k in config.keys() | arch.keys()
                    if k not in config or k not in arch
                    or json.dumps(config[k]) != json.dumps(arch[k]))
    if differ:
        raise CheckpointError(
            f"{path}: stored config differs from the {model_kind} architecture at "
            f"{differ}: stored {_pick(config, differ)}, expected {_pick(arch, differ)}"
        )
    require_arrays(path, arrays, {name: (p.data.shape, p.data.dtype)
                                  for name, p in model.parameters.items()}, "tensor")
    for name, p in model.parameters.items():
        p.data[...] = arrays[name]   # into the model's flat buffer, not a rebind
    return Checkpoint(model=model, class_names=class_names,
                      normalization=meta.get("normalization"))


def _check_hmm_values(path, key, value):
    """Raise CheckpointError naming `key` unless the HMM tensor holds what
    its name says: positive variances, probability rows for initial and
    transitions."""
    if key.endswith(".variances") and not (value > 0).all():
        raise CheckpointError(f"{path}: tensor {key!r} has variances <= 0")
    if key.endswith((".initial", ".transitions")) and (
        (value < 0).any() or np.abs(value.sum(axis=-1) - 1.0).max() > PROB_SUM_TOL
    ):
        raise CheckpointError(
            f"{path}: tensor {key!r} is not made of probability rows "
            f"(entries >= 0 summing to 1 within {PROB_SUM_TOL:g})"
        )


def _pick(d, keys):
    return {k: d[k] for k in keys if k in d}
