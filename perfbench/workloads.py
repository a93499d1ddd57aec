"""The four benchmark workloads.

Every workload generates 13-class synthetic vehicle data from the run's
seed, with the majority class (USD) `usd_mult` times as many trajectories
as each other class: the imbalance the fusion classifier and its random
over-sampling (ROS) are built for. Inputs reach the program only through
its CLI (`gen`, `prep`, `eval`) and the library calls behind `train`.

A workload has a `setup(ctx, rep)`, which the harness repeats and times,
and a `round(ctx, state)`, which it repeats until the run's time is up.
A round does the same deterministic work each time, so every round must
give the same predictions.
"""

from __future__ import annotations

import json
import math
import shutil
import time

import numpy as np

from trajbehav import checkpoint, cli
from trajbehav import data as dmod
from trajbehav import train as T
from trajbehav.data import DatasetSplit
from trajbehav.synth import VEHICLE_CLASSES

# Tolerance of the EM monotonicity check in the HMM tests.
EM_MONOTONE_TOL = 1e-8


class StageFailed(Exception):
    """A stage raised or exited non-zero; the run stops."""


class Ledger:
    """Counts attempted stages and records every failure and failed check."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def run(self, label, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            raise StageFailed(label) from exc

    def cli(self, label, *argv):
        code = self.run(label, cli.main, [str(a) for a in argv])
        if code != 0:
            self.failures.append(f"{label}: trajbehav exited {code}")
            raise StageFailed(label)

    def check(self, ok, message):
        if not ok:
            self.failures.append(message)
        return ok


def write_spec(path, base, usd_mult, seed):
    lines = [
        f"count.{name} = {base * usd_mult if name == 'USD' else base}"
        for name in VEHICLE_CLASSES
    ]
    lines += ["length = 20", f"seed = {seed}"]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_counts(prep_dir):
    """Windows written to prepared.tbh, from the prep stage's counts.txt."""
    stages = {}
    for line in (prep_dir / "counts.txt").read_text(encoding="utf-8").splitlines():
        stage, _, detail = line.partition("\t")
        stages[stage] = detail
    train = stages.get("post_resample_train_samples", stages["train_samples"])
    return int(train) + int(stages["test_samples"])


def gen(ctx, out, base, usd_mult):
    """`trajbehav gen` of the workload's spec into out/gen."""
    out.mkdir(parents=True)
    write_spec(out / "spec.txt", base, usd_mult, ctx.seed)
    ctx.ledger.cli("gen", "gen", "--spec", out / "spec.txt", "--out", out / "gen")
    return out / "gen"


def prep(ctx, gen_dir, out, resample, ratio=0.8, min_class_count=None):
    """`trajbehav prep --normalize` into `out`; returns (prep seconds,
    windows written)."""
    argv = [
        "prep", "--data", gen_dir / "trajectories.csv", "--labels", gen_dir / "labels.csv",
        "--out", out, "--seed", ctx.seed, "--resample", resample, "--ratio", ratio,
        "--normalize",
    ]
    if min_class_count is not None:
        argv += ["--min-class-count", min_class_count]
    t0 = time.perf_counter()
    ctx.ledger.cli("prep", *argv)
    return time.perf_counter() - t0, read_counts(out)


def check_manifests(ctx, dirs):
    """The `outputs` hashes of each stage's manifest match the first ones seen."""
    found = {
        stage: json.loads((d / "manifest.json").read_text(encoding="utf-8"))["outputs"]
        for stage, d in dirs.items()
    }
    for stage in found:
        first = ctx.manifest_outputs.setdefault(stage, found[stage])
        ctx.ledger.check(found[stage] == first,
                         f"{stage} manifest output hashes differ from the first round")


def stratified_head(samples, per_class):
    """The first `per_class` samples of every class, in input order."""
    taken = {}
    out = []
    for s in samples:
        if taken.get(s.label, 0) < per_class:
            taken[s.label] = taken.get(s.label, 0) + 1
            out.append(s)
    return out


def train_config(seed, epochs, **extra):
    # lr_switch_epoch must lie below epochs; with two epochs the schedule
    # keeps the reference shape (lr_initial, then lr_after).
    return T.TrainConfig(epochs=epochs, lr_switch_epoch=max(epochs - 1, 0),
                         seed=seed, **extra)


def check_classes(ledger, split):
    if not ledger.check(split.class_names == list(VEHICLE_CLASSES),
                        f"prep kept classes {split.class_names}, not all vehicle classes"):
        raise StageFailed("prep")


def check_losses(ledger, log):
    for e in log.entries:
        ledger.check(math.isfinite(e.loss), f"epoch {e.epoch} loss is {e.loss}")


def check_em(ledger, model):
    for name, m in zip(model.class_names, model.models):
        drops = np.diff(m.fit_loglik)
        ledger.check(
            drops.size == 0 or drops.min() >= -EM_MONOTONE_TOL,
            f"EM trace of class {name} decreases by {-drops.min() if drops.size else 0:g}",
        )


class TrainWorkload:
    """Train one model kind on a prepared split, then evaluate it.

    Set-up generates the trajectories, prepares and loads them, and warms
    up. A round times `trajbehav prep` of the same trajectories on its own
    (`prep_reps` times, so the interval is long enough to time), then one
    `train.train` call plus one `train.evaluate` on the test split;
    `wall_s` covers train and evaluate.
    """

    def __init__(self, kind, sizes):
        self.kind = kind
        self.sizes = sizes

    def config(self, seed, warm=False):
        extra = {}
        if "batch_size" in self.sizes:
            extra["batch_size"] = self.sizes["batch_size"]
        if self.kind == "hmm":
            extra["hmm_max_iters"] = 1 if warm else self.sizes["hmm_max_iters"]
        epochs = 1 if warm else self.sizes.get("epochs", 1)
        return train_config(seed, epochs, **extra)

    def prep(self, ctx, gen_dir, out):
        sz = self.sizes
        return prep(ctx, gen_dir, out, sz["resample"], ratio=sz["ratio"],
                    min_class_count=sz.get("min_class_count"))

    def setup(self, ctx, rep):
        sz = self.sizes
        ledger = ctx.ledger
        out = ctx.work / f"setup{rep}"
        gen_dir = gen(ctx, out, sz["base"], sz["usd_mult"])
        self.prep(ctx, gen_dir, out / "prep")
        dataset = ledger.run("load_prepared", dmod.load_prepared, out / "prep" / "prepared.tbh")
        split = dataset.split
        check_classes(ledger, split)
        # Warm-up: one training step (one EM iteration for the HMM) and one
        # inference batch, so first-call costs land in set-up.
        warm = stratified_head(split.train, max(1, 256 // len(split.class_names)))
        warm_split = DatasetSplit(train=warm, test=warm, class_names=split.class_names,
                                  seed=split.seed)
        model, _ = ledger.run("warm-up train", T.train, self.kind,
                              self.config(ctx.seed, warm=True), warm_split)
        ledger.run("warm-up evaluate", T.evaluate, model, warm, split.class_names)
        return {"split": split, "gen_dir": gen_dir, "setup_raw": {}}

    def round(self, ctx, state):
        ledger = ctx.ledger
        prep_s = written = 0
        for rep in range(self.sizes["prep_reps"]):
            out = ctx.work / f"round{ctx.round_index}-{rep}"
            seconds, windows = self.prep(ctx, state["gen_dir"], out)
            prep_s += seconds
            written += windows
            check_manifests(ctx, {"prep": out})
            shutil.rmtree(out)
        split = state["split"]
        config = self.config(ctx.seed)
        t0 = time.perf_counter()
        model, log = ledger.run("train", T.train, self.kind, config, split)
        t1 = time.perf_counter()
        rep = ledger.run("evaluate", T.evaluate, model, split.test, split.class_names)
        t2 = time.perf_counter()
        if self.kind == "hmm":
            check_em(ledger, model)
        else:
            check_losses(ledger, log)
        passes = 1 if self.kind == "hmm" else config.epochs
        predict = ctx.probe.take(ledger)
        return {
            "raw": {
                "wall_s": t2 - t0,
                "train_s": t1 - t0, "train_windows": len(split.train) * passes,
                "infer_s": predict["seconds"], "infer_windows": predict["windows"],
                "prep_s": prep_s, "prep_windows": written,
            },
            "balanced_accuracy": rep.balanced_accuracy,
            "predictions": predict["sha256"],
            "num_classes": len(split.class_names),
            "train_loss_final": None if self.kind == "hmm" else log.entries[-1].loss,
        }


class PrepInferWorkload:
    """`gen -> prep --resample ros --normalize -> eval` on a large set, with
    a fusion checkpoint trained in set-up on a small set of the same classes."""

    def __init__(self, sizes):
        self.sizes = sizes

    def setup(self, ctx, rep):
        sz = self.sizes
        ledger = ctx.ledger
        out = ctx.work / f"setup{rep}"
        gen_dir = gen(ctx, out, sz["ckpt_base"], sz["usd_mult"])
        prep(ctx, gen_dir, out / "prep", "ros", min_class_count=sz["ckpt_min_class_count"])
        dataset = ledger.run("load_prepared", dmod.load_prepared, out / "prep" / "prepared.tbh")
        split = dataset.split
        check_classes(ledger, split)
        config = train_config(ctx.seed, sz["ckpt_epochs"])
        t0 = time.perf_counter()
        model, log = ledger.run("train", T.train, "fusion", config, split)
        train_s = time.perf_counter() - t0
        check_losses(ledger, log)
        ckpt = out / "model.ckpt"
        # looked up on the module, where a traced run's wrapper sits
        ledger.run("save_checkpoint", checkpoint.save_checkpoint, model, split.class_names, ckpt,
                   normalization=dataset.normalization)
        return {
            "checkpoint": ckpt,
            "train_loss_final": log.entries[-1].loss,
            "setup_raw": {"train_s": train_s, "train_windows": len(split.train) * config.epochs},
        }

    def round(self, ctx, state):
        sz = self.sizes
        ledger = ctx.ledger
        out = ctx.work / f"round{ctx.round_index}"
        t0 = time.perf_counter()
        gen_dir = gen(ctx, out, sz["base"], sz["usd_mult"])
        prep_s, written = prep(ctx, gen_dir, out / "prep", "ros")
        ledger.cli("eval", "eval", "--checkpoint", state["checkpoint"],
                   "--data", out / "prep", "--out", out / "eval")
        wall = time.perf_counter() - t0
        report = json.loads((out / "eval" / "report_fusion.json").read_text(encoding="utf-8"))
        check_manifests(ctx, {"gen": gen_dir, "prep": out / "prep", "eval": out / "eval"})
        shutil.rmtree(out)
        predict = ctx.probe.take(ledger)
        return {
            "raw": {
                "wall_s": wall,
                "infer_s": predict["seconds"], "infer_windows": predict["windows"],
                "prep_s": prep_s, "prep_windows": written,
            },
            "balanced_accuracy": report["balanced_accuracy"],
            "predictions": predict["sha256"],
            "num_classes": len(report["class_names"]),
            "train_loss_final": state["train_loss_final"],
        }


SIZES = {
    # Splits below the default 0.8 keep the test split large enough for a
    # steady balanced accuracy and a measurable inference time.
    "fusion_train": {"base": 6, "usd_mult": 6, "ratio": 0.4, "resample": "ros", "epochs": 2,
                     "min_class_count": 50, "prep_reps": 8},
    # Batch 64 gives the Conv1D baseline 4x the Adam steps of batch 256 at
    # the same cost per window: at 256 its balanced accuracy was 0.41-0.52
    # between seeds, at 64 it is 0.71-0.78.
    "conv1d_train": {"base": 13, "usd_mult": 6, "ratio": 0.5, "resample": "none", "epochs": 2,
                     "batch_size": 64, "prep_reps": 8},
    # hmm_max_iters 40 instead of the default 100: with 100 the EM work of a
    # seed's data varied by +-20% between seeds; at 40 most classes stop at
    # the cap and some converge first, and the work varies by about 3%.
    "hmm_fit": {"base": 16, "usd_mult": 6, "ratio": 0.6, "resample": "none",
                "hmm_max_iters": 40, "prep_reps": 8},
    "prep_infer": {"base": 80, "usd_mult": 6, "ckpt_base": 2, "ckpt_min_class_count": 20,
                   "ckpt_epochs": 2},
}

TINY_SIZES = {
    "fusion_train": {**SIZES["fusion_train"], "base": 1, "usd_mult": 2, "min_class_count": 2},
    "conv1d_train": {**SIZES["conv1d_train"], "base": 1, "usd_mult": 2, "min_class_count": 2},
    "hmm_fit": {**SIZES["hmm_fit"], "base": 1, "usd_mult": 2, "min_class_count": 2,
                "hmm_max_iters": 3},
    "prep_infer": {**SIZES["prep_infer"], "base": 7, "usd_mult": 2, "ckpt_base": 1,
                   "ckpt_min_class_count": 2},
}

KINDS = {"fusion_train": "fusion", "conv1d_train": "conv1d", "hmm_fit": "hmm"}
NAMES = tuple(SIZES)


def make(name, sizes=None):
    sizes = (sizes or SIZES)[name]
    if name == "prep_infer":
        return PrepInferWorkload(sizes)
    return TrainWorkload(KINDS[name], sizes)
