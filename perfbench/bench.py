"""Benchmark harness: set-ups and timed rounds, output checks, metrics.

A run alternates a set-up and a round until the next pair would end after
`seconds`. Before the first set-up and after every set-up and round it
times a fixed reference computation (`speed.reference`), and scales each
interval by the reference times on either side of it, so that every time
reads as it would at one nominal machine speed. The end-to-end metrics
come from the untraced rounds (`end_to_end`). With tracing on, untraced
and traced rounds alternate: the traced ones give the per-layer metrics,
and the two kinds together give the tracing overhead and the check that
tracing changes no prediction.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from trajbehav import train as T

from . import speed, stats, workloads
from .spans import STEP, Tracer

MIN_ROUNDS = 2

# Steps in the order the harness looks for them: a training step, else one
# inference batch of a neural model, else one per-class HMM fit.
STEP_KINDS = (STEP, "models.predict", "hmm.baum_welch_fit")

PER_STEP = (
    ("autodiff.lstm_cell", ("calls", "ms")),
    ("autodiff.conv1d_valid", ("calls", "ms")),
    ("autodiff.dense", ("ms",)),
    ("autodiff.softmax_cross_entropy", ("ms",)),
    ("autodiff.backward", ("ms",)),
    ("models.bilstm_features", ("ms",)),
    ("models.mscnn_features", ("ms",)),
    ("models.forward", ("ms",)),
    ("optim.step", ("ms",)),
)

# Seconds per round; a function that runs only in set-up is timed there.
SECONDS = (
    "data.samples_to_arrays",
    "hmm.hmm_predict_batch",
    "synth.gen_dataset",
    "data.save_trajectories", "data.load_trajectories", "data.window_all",
    "data.filter_rare_classes", "data.split", "data.ros", "data.apply_standardization",
    "data.save_prepared", "data.load_prepared",
    "container.write_container", "container.read_container",
    "checkpoint.save_checkpoint", "checkpoint.load_checkpoint",
    "metrics.report", "svgfig.confusion_heatmap_svg", "cli.write_manifest",
)
# EM phases: self seconds per round of these spans inside hmm.baum_welch_fit.
FIT_PHASES = ("hmm.log_emissions", "hmm.forward_batch", "hmm.backward_batch")
CALLS = ("data.samples_to_arrays",)
BYTES = ("container.write_container", "container.read_container")

# (end-to-end metric, stage) of the rates: `<stage>_windows` over
# `<stage>_s`, taken from the round, else from its set-up.
RATES = (
    ("train_samples_per_s", "train"),
    ("infer_windows_per_s", "infer"),
    ("prep_windows_per_s", "prep"),
)


class PredictProbe:
    """Times `train.predict_batch`, the inference inside `train.evaluate`,
    and hashes the predictions it returns. Installed in every run."""

    def __init__(self):
        self.calls = []
        self._original = None

    def __enter__(self):
        self._original = original = T.predict_batch
        calls = self.calls

        def predict_batch(*args, **kwargs):
            t0 = time.perf_counter()
            preds = original(*args, **kwargs)
            seconds = time.perf_counter() - t0
            raw = np.ascontiguousarray(preds, dtype=np.int64).tobytes()
            calls.append({"seconds": seconds, "windows": len(preds),
                          "sha256": hashlib.sha256(raw).hexdigest()})
            return preds

        T.predict_batch = predict_batch
        return self

    def __exit__(self, *exc):
        T.predict_batch = self._original
        return False

    def take(self, ledger):
        """The one call recorded since the last `take` or `calls.clear()`;
        any other number of calls fails the run."""
        calls = list(self.calls)
        self.calls.clear()
        if not ledger.check(len(calls) == 1,
                            f"round made {len(calls)} predict_batch calls, not 1"):
            raise workloads.StageFailed("predict")
        return calls[0]


@dataclass
class Context:
    seed: int
    work: Path
    ledger: workloads.Ledger
    probe: PredictProbe
    round_index: int = 0
    # first `outputs` hashes of each CLI stage's manifest
    manifest_outputs: dict = field(default_factory=dict)


def _traced(trace):
    return Tracer() if trace else contextlib.nullcontext()


def run(name, seed, seconds, trace, root, sizes=None):
    """Run one workload; returns (result line dict, detail dict, spans).

    `spans` maps "setup" (the last traced set-up) and "round <i>" to the
    span lists of traced phases.
    """
    workload = workloads.make(name, sizes)
    work = Path(root) / ".perfbench" / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = Context(seed=seed, work=work, ledger=workloads.Ledger(), probe=PredictProbe())
    rounds, refs, spans = [], [], {}
    try:
        with ctx.probe:
            refs.append(speed.reference())
            start = time.perf_counter()
            while True:
                i = ctx.round_index = len(rounds)
                traced = bool(trace) and i % 2 == 1
                tracer = _traced(traced)
                t0 = time.perf_counter()
                with tracer:
                    state = workload.setup(ctx, i)
                setup_s = time.perf_counter() - t0
                if traced:
                    spans["setup"] = tracer.finished()
                refs.append(speed.reference())
                ctx.probe.calls.clear()
                tracer = _traced(traced)
                with tracer:
                    out = workload.round(ctx, state)
                if traced:
                    spans[f"round {i}"] = tracer.finished()
                refs.append(speed.reference())
                shutil.rmtree(work / f"setup{i}")
                out["traced"] = traced
                out["scaled"] = scaled_round(
                    setup_s, state["setup_raw"], speed.scale(refs[-3], refs[-2]),
                    out["raw"], speed.scale(refs[-2], refs[-1]))
                out["raw"] = {"setup_s": setup_s, **state["setup_raw"], **out["raw"]}
                rounds.append(out)
                n = len(rounds)
                if n >= MIN_ROUNDS and (time.perf_counter() - start) * (n + 1) / n > seconds:
                    break
    except workloads.StageFailed:
        pass
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    ledger = ctx.ledger
    _check_rounds(ledger, rounds)
    metrics, step_kind = {}, None
    if trace:
        metrics, step_kind = layer_metrics(rounds, spans)
    elif rounds:
        metrics = end_to_end(rounds)
    correct = not ledger.failures and len(rounds) >= MIN_ROUNDS
    result = {
        "correct": correct,
        "attempted": max(ledger.attempted, 1),
        "failed": min(len(ledger.failures), max(ledger.attempted, 1)),
        "metrics": metrics,
    }
    losses = [r["train_loss_final"] for r in rounds]
    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(bool(trace)),
        "reference_s": refs,
        "round_raw": [r["raw"] for r in rounds],
        "round_scaled": [r["scaled"] for r in rounds],
        "rounds_traced": [r["traced"] for r in rounds],
        "train_loss_final": losses[0] if losses else None,
        "step_kind": step_kind,
        "failures": ledger.failures,
    }
    return result, detail, spans


def scaled_round(setup_s, setup_raw, setup_scale, raw, scale):
    """A round's timed intervals at nominal machine speed: its set-up and
    wall time, and the seconds and windows of each rate's stage."""
    out = {"setup_s": setup_s * setup_scale, "wall_s": raw["wall_s"] * scale}
    for _, stage in RATES:
        src, factor = (raw, scale) if f"{stage}_s" in raw else (setup_raw, setup_scale)
        out[f"{stage}_s"] = src[f"{stage}_s"] * factor
        out[f"{stage}_windows"] = src[f"{stage}_windows"]
    return out


def _check_rounds(ledger, rounds):
    """Rounds repeat one deterministic computation; traced or not, they must
    agree exactly, and the model must beat a constant prediction."""
    if not rounds:
        return
    ledger.check(len({r["predictions"] for r in rounds}) == 1,
                 "predictions differ between rounds")
    accs = {r["balanced_accuracy"] for r in rounds}
    ledger.check(len(accs) == 1, f"balanced accuracy differs between rounds: {sorted(accs)}")
    acc = rounds[0]["balanced_accuracy"]
    chance = 1.0 / rounds[0]["num_classes"]
    ledger.check(acc > chance, f"balanced accuracy {acc:.4f} is not above chance {chance:.4f}")


def end_to_end(rounds):
    """End-to-end metrics from the untraced rounds' scaled intervals.

    `setup_s` and `wall_s` are medians over rounds. A rate is all the
    windows of its stage over all its seconds, so that it is measured over
    the whole run even when one round's stage is short.
    """
    untraced = [r for r in rounds if not r["traced"]]
    scaled = [r["scaled"] for r in untraced]
    out = {key: stats.median(m[key] for m in scaled) for key in ("setup_s", "wall_s")}
    for key, stage in RATES:
        out[key] = (sum(m[f"{stage}_windows"] for m in scaled)
                    / sum(m[f"{stage}_s"] for m in scaled))
    out["balanced_accuracy"] = untraced[0]["balanced_accuracy"]
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def _steps(spans, step_name):
    """Index of the enclosing `step_name` span for every span, or None."""
    owner = [None] * len(spans)
    for i, (name, _, _, parent, _) in enumerate(spans):
        if name == step_name:
            owner[i] = i
        elif parent is not None:
            owner[i] = owner[parent]
    return owner


def _per_round(traces, fn, setup=None):
    """Median over traced rounds of fn(spans); the set-up trace when the
    rounds never produce a non-zero value."""
    values = [fn(s) for s in traces]
    if setup is not None and not any(values):
        return fn(setup)
    return stats.median(values) if values else 0.0


def _total(name, field=None):
    def fn(spans):
        if field is None:
            return sum(e - s for n, s, e, _, _ in spans if n == name)
        if field == "calls":
            return sum(1 for n, *_ in spans if n == name)
        return sum(info.get(field, 0) for n, _, _, _, info in spans if n == name)
    return fn


def _fit_self(name):
    """Self seconds of the `name` spans that run inside a Baum-Welch fit."""
    def fn(spans):
        owner = _steps(spans, "hmm.baum_welch_fit")
        selfs = stats.self_times(spans)
        return sum(selfs[i] for i, span in enumerate(spans)
                   if span[0] == name and owner[i] is not None)
    return fn


def _hmm_fits(spans):
    return [(e - s, info) for n, s, e, _, info in spans if n == "hmm.baum_welch_fit"]


def layer_metrics(rounds, spans):
    """(per-layer metrics, name of the spans counted as steps)."""
    traces = [s for key, s in spans.items() if key.startswith("round ")]
    setup = spans.get("setup")
    out = {}

    step_name = next((k for k in STEP_KINDS if any(n == k for t in traces for n, *_ in t)),
                     STEP)
    step_ms = []
    sums = {}
    for t in traces:
        owner = _steps(t, step_name)
        for i, (name, s, e, _, _) in enumerate(t):
            if owner[i] is None:
                continue
            if name == step_name:
                step_ms.append((e - s) * 1000.0)
            else:
                calls, ms = sums.get(name, (0, 0.0))
                sums[name] = (calls + 1, ms + (e - s) * 1000.0)
    n_steps = len(step_ms)
    for name, fields in PER_STEP:
        calls, ms = sums.get(name, (0, 0.0))
        if "calls" in fields:
            out[f"{name}.calls_per_step"] = calls / n_steps if n_steps else 0.0
        out[f"{name}.ms_per_step"] = ms / n_steps if n_steps else 0.0
    tail_pct, tail = stats.tail_percentile(step_ms)
    out["train.step_ms.p50"] = stats.percentile(step_ms, 50) if step_ms else 0.0
    out["train.step_ms.p90"] = stats.percentile(step_ms, 90) if step_ms else 0.0
    out["train.step_ms.tail"] = tail or 0.0
    out["train.step_ms.tail_pct"] = tail_pct or 0.0
    out["train.steps"] = n_steps

    for name in SECONDS:
        out[f"{name}.s"] = _per_round(traces, _total(name), setup)
    for name in FIT_PHASES:
        out[f"{name}.s"] = _per_round(traces, _fit_self(name))
    for name in CALLS:
        out[f"{name}.calls"] = _per_round(traces, _total(name, "calls"), setup)
    for name in BYTES:
        out[f"{name}.bytes"] = _per_round(traces, _total(name, "bytes"), setup)

    def fit_stat(fn):
        return _per_round(traces, lambda t: fn(_hmm_fits(t)) if _hmm_fits(t) else 0.0)

    out["hmm.baum_welch_fit.s.p50"] = fit_stat(lambda f: stats.median(d for d, _ in f))
    out["hmm.baum_welch_fit.s.max"] = fit_stat(lambda f: max(d for d, _ in f))
    out["hmm.em_iters"] = fit_stat(lambda f: sum(i.get("iters", 0) for _, i in f))
    out["hmm.em_iter_ms"] = fit_stat(
        lambda f: 1000.0 * sum(d for d, _ in f) / max(sum(i.get("iters", 0) for _, i in f), 1))
    out["hmm.classes_at_max_iters"] = fit_stat(
        lambda f: sum(1 for _, i in f if i.get("iters") == i.get("max_iters")))

    cov = [stats.coverage(t, step_name) for t in traces]
    out["trace.coverage"] = stats.median(c for c, _ in cov) if cov else 0.0
    out["trace.uncovered_ms_per_step"] = stats.median(u * 1000.0 for _, u in cov) if cov else 0.0
    traced = [r["scaled"]["wall_s"] for r in rounds if r["traced"]]
    untraced = [r["scaled"]["wall_s"] for r in rounds if not r["traced"]]
    out["trace.overhead_frac"] = (stats.median(traced) / stats.median(untraced) - 1.0
                                  if traced and untraced else 0.0)
    return out, step_name


# ---------------------------------------------------------------------------
# Machine record
# ---------------------------------------------------------------------------

def _git_commit(root):
    """HEAD of a git checkout, read from .git without running git."""
    git = Path(root) / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas_threads():
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_record(root):
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_commit": _git_commit(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
    }


# ---------------------------------------------------------------------------
# Result line
# ---------------------------------------------------------------------------

def declared_metrics(root, trace):
    spec = json.loads((Path(root) / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def with_units(metrics, units):
    """Attach units; any metric the run made that BENCHMARK.json does not
    declare, or declared one it did not make, is an error."""
    made = set(metrics)
    extra, missing = sorted(made - set(units)), sorted(set(units) - made)
    if extra or missing:
        raise RuntimeError(f"metrics out of step with BENCHMARK.json: "
                           f"undeclared {extra}, missing {missing}")
    return {k: {"value": float(metrics[k]), "unit": units[k]} for k in units}


def write_trace(root, name, seed, spans):
    path = Path(root) / ".perfbench" / f"trace-{name}-seed{seed}.jsonl"
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for phase, items in spans.items():
            for i, (span, start, end, parent, info) in enumerate(items):
                fh.write(json.dumps({"phase": phase, "id": i, "name": span, "start": start,
                                     "end": end, "parent": parent, "info": info}) + "\n")
    return path


def main(args, root):
    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(workloads.NAMES)}",
              file=sys.stderr)
        return 2
    result, detail, spans = run(args.workload, args.seed, args.seconds, args.trace, root)
    if spans:
        detail["trace_file"] = str(write_trace(root, args.workload, args.seed, spans)
                                   .relative_to(root))
    detail["machine"] = machine_record(root)
    if result["correct"]:
        result["metrics"] = with_units(result["metrics"], declared_metrics(root, args.trace))
    else:
        result["metrics"] = {}
        print("\n".join(detail["failures"]), file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1
