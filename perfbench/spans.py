"""Span tracer that wraps trajbehav's public functions from the outside.

Nothing inside `src/` knows about it: `Tracer.install()` replaces each
traced function or method by a wrapper wherever the package looks the
name up (a function imported by name into another module is patched in
that module too), and `uninstall()` puts the originals back. A name a
later version of the package no longer has is skipped, and its metrics
read 0.

One training step runs from the start of the model's `zero_grad` to the
end of `Adam.step`; those two wrappers open and close a `train.step` span
around the layer spans of the step.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time

# (span name, module, attribute) of module-level functions.
FUNCTIONS = (
    ("autodiff.lstm_cell", "trajbehav.autodiff", "lstm_cell"),
    ("autodiff.conv1d_valid", "trajbehav.autodiff", "conv1d_valid"),
    ("autodiff.dense", "trajbehav.autodiff", "dense"),
    ("autodiff.softmax_cross_entropy", "trajbehav.autodiff", "softmax_cross_entropy"),
    ("models.predict", "trajbehav.models", "predict"),
    ("train.train", "trajbehav.train", "train"),
    ("train.evaluate", "trajbehav.train", "evaluate"),
    ("hmm.baum_welch_fit", "trajbehav.hmm", "baum_welch_fit"),
    ("hmm.hmm_predict_batch", "trajbehav.hmm", "hmm_predict_batch"),
    ("hmm.log_emissions", "trajbehav.hmm", "_log_emissions"),
    ("hmm.forward_batch", "trajbehav.hmm", "_forward_batch"),
    ("hmm.backward_batch", "trajbehav.hmm", "_backward_batch"),
    ("synth.gen_dataset", "trajbehav.synth", "gen_dataset"),
    ("data.save_trajectories", "trajbehav.data", "save_trajectories"),
    ("data.load_trajectories", "trajbehav.data", "load_trajectories"),
    ("data.window_all", "trajbehav.data", "window_all"),
    ("data.filter_rare_classes", "trajbehav.data", "filter_rare_classes"),
    ("data.split", "trajbehav.data", "split"),
    ("data.ros", "trajbehav.data", "ros"),
    ("data.apply_standardization", "trajbehav.data", "apply_standardization"),
    ("data.save_prepared", "trajbehav.data", "save_prepared"),
    ("data.load_prepared", "trajbehav.data", "load_prepared"),
    ("data.samples_to_arrays", "trajbehav.data", "samples_to_arrays"),
    ("container.write_container", "trajbehav.container", "write_container"),
    ("container.read_container", "trajbehav.container", "read_container"),
    ("checkpoint.save_checkpoint", "trajbehav.checkpoint", "save_checkpoint"),
    ("checkpoint.load_checkpoint", "trajbehav.checkpoint", "load_checkpoint"),
    ("metrics.report", "trajbehav.metrics", "report"),
    ("svgfig.confusion_heatmap_svg", "trajbehav.svgfig", "confusion_heatmap_svg"),
    ("cli.write_manifest", "trajbehav.cli", "write_manifest"),
)

# (span name, module, class, method).
METHODS = (
    ("autodiff.backward", "trajbehav.autodiff", "Tensor", "backward"),
    ("models.bilstm_features", "trajbehav.models", "FusionModel", "bilstm_features"),
    ("models.mscnn_features", "trajbehav.models", "FusionModel", "mscnn_features"),
    ("models.forward", "trajbehav.models", "FusionModel", "forward"),
    ("models.forward", "trajbehav.models", "LSTMBaseline", "forward"),
    ("models.forward", "trajbehav.models", "Conv1DBaseline", "forward"),
)

STEP = "train.step"
STEP_BEGIN = ("models.zero_grad", "trajbehav.models", "_ModelBase", "zero_grad")
STEP_END = ("optim.step", "trajbehav.optim", "Adam", "step")


def _file_bytes(info, args, kwargs, result, sig):
    path = sig.bind(*args, **kwargs).arguments.get("path")
    if path is not None:
        info["bytes"] = os.path.getsize(path)


def _em_iters(info, args, kwargs, result, sig):
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    info["iters"] = len(getattr(result, "fit_loglik", ()))
    info["max_iters"] = bound.arguments.get("max_iters")


# Counts recorded at a boundary, after the call returns.
AFTER = {
    "container.write_container": _file_bytes,
    "container.read_container": _file_bytes,
    "hmm.baum_welch_fit": _em_iters,
}


class Tracer:
    """Records spans `(name, start, end, parent, info)` in memory."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    def open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, {}])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        if self._stack and self._stack[-1] == idx:
            self._stack.pop()

    def finished(self):
        """Spans as tuples; raises if one never closed."""
        open_ = [s[0] for s in self.spans if s[2] is None]
        if open_:
            raise RuntimeError(f"spans left open: {sorted(set(open_))}")
        return [tuple(s) for s in self.spans]

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self
        after = AFTER.get(name)
        sig = inspect.signature(fn) if after else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(tracer.spans[idx][4], args, kwargs, result, sig)
                return result
            finally:
                tracer.close(idx)

        return traced

    def _wrap_step_begin(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.open(STEP)
            idx = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        return traced

    def _wrap_step_end(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)
                top = tracer._stack[-1] if tracer._stack else None
                if top is not None and tracer.spans[top][0] == STEP:
                    tracer.close(top)

        return traced

    # -- patching ---------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        for _, modname, *_ in (*FUNCTIONS, *METHODS, STEP_BEGIN, STEP_END):
            importlib.import_module(modname)
        modules = [m for n, m in list(sys.modules.items())
                   if n == "trajbehav" or n.startswith("trajbehav.")]
        for name, modname, attr in FUNCTIONS:
            original = getattr(sys.modules[modname], attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
        for name, modname, clsname, attr, make in (
            *((*m, self._wrap) for m in METHODS),
            (*STEP_BEGIN, self._wrap_step_begin),
            (*STEP_END, self._wrap_step_end),
        ):
            cls = getattr(sys.modules[modname], clsname, None)
            if cls is None or attr not in vars(cls):
                continue
            self._set(cls, attr, make(name, vars(cls)[attr]))
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False
