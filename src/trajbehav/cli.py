"""Command-line pipeline: gen, prep, train, eval, ablate, gradcheck.

Every command that writes files enters `output_dir`, the one place where
its temp directory is made, its manifest.json written and the directory
renamed onto `--out`. A failure therefore leaves no partial outputs, and a
success leaves exactly one manifest recording the arguments, resolved
config, input hashes and output hashes (timing-bearing files are listed
but not hashed).

Exit codes: 0 success, 1 other package error, 2 usage/config error,
3 data/compatibility error, 4 numerical abort (each error class carries its
own `exit_code`).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import shutil
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from . import autodiff as ad
from . import data as dmod
from .checkpoint import load_checkpoint, save_checkpoint
from .data import PreparedDataset
from .errors import ConfigError, DataError, NumericalError, TrajbehavError
from .gradcheck import grad_check
from .hmm import HMMClassifier
from .metrics import format_report
from .models import MODEL_KINDS, build_model
from .svgfig import confusion_heatmap_svg, per_class_bar_svg
from .synth import DT, SynthSpec, gen_dataset
from .train import TrainConfig, evaluate, train

RESAMPLE_MODES = ("none", "ros", "rus", "wl")
# the gradient check's random classification problem
GRADCHECK_CLASSES = 6

# fields whose defaults are engineering choices, not stated by the source
# experiment description; flagged in emitted config files
_PAPER_SILENT = {"seed", "hmm_max_iters"}


# ---------------------------------------------------------------------------
# Key-value config files
# ---------------------------------------------------------------------------

def parse_kv_file(path):
    """Parse `key = value` lines; '#' starts a comment. A key may appear once."""
    out, where = {}, {}
    with dmod.open_text(path, ConfigError) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}: line {lineno}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in where:
                raise ConfigError(f"{path}: line {lineno}: key {key!r} repeats line "
                                  f"{where[key]}")
            out[key], where[key] = value, lineno
    return out


def _coerce(key, text, default):
    try:
        if isinstance(default, int):
            return int(text)
        return float(text)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {text!r}") from exc


def load_train_config(path=None, seed=None):
    config = TrainConfig()
    fields = {f.name: getattr(config, f.name) for f in dataclasses.fields(config)}
    values = dict(fields)
    if path:
        for key, text in parse_kv_file(path).items():
            if key not in fields:
                raise ConfigError(f"{path}: unknown config key {key!r}")
            values[key] = _coerce(key, text, fields[key])
    if seed is not None:
        values["seed"] = seed
    config = TrainConfig(**values)
    config.validate()
    return config


def format_train_config(config):
    lines = []
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        line = f"{f.name} = {value}"
        if f.name in _PAPER_SILENT:
            line += "  # paper-silent"
        lines.append(line)
    return "\n".join(lines) + "\n"


def load_synth_spec(path):
    defaults = {f.name: f.default for f in dataclasses.fields(SynthSpec)
                if f.name != "counts"}
    counts = {}
    kwargs = {}
    for key, text in parse_kv_file(path).items():
        if key.startswith("count."):
            counts[key[len("count."):]] = _coerce(key, text, 0)
        elif key in defaults:
            kwargs[key] = _coerce(key, text, defaults[key])
        else:
            raise ConfigError(f"{path}: unknown generator key {key!r}")
    if not counts:
        raise ConfigError(f"{path}: no count.<class> entries")
    spec = SynthSpec(counts=counts, **kwargs)
    spec.validate()
    return spec


# ---------------------------------------------------------------------------
# Output directories and manifests
# ---------------------------------------------------------------------------

@contextmanager
def output_dir(out, command, argv, params, inputs, unhashed=(), digests=None):
    """Yield a temp dir beside `out` to write a command's outputs into. When
    the body succeeds, write the command's manifest there and rename the dir
    onto `out`; when anything fails, remove the dir. The body may fill
    `digests` with the sha256 of a file it wrote, which the manifest then
    records without reading the file again. The temp name keeps at most 60
    characters of `out`'s name, at most 240 bytes, so that it fits wherever
    `out` does."""
    out = Path(out)

    def unusable(exc):
        return ConfigError(f"cannot use {out} as an output directory ({exc.strerror or exc})")

    tmp = out.parent / f".{out.name[:60]}.tmp-{os.getpid()}"
    try:
        if out.exists():
            if any(out.iterdir()):
                raise ConfigError(f"output directory {out} already exists and is not empty")
            out.rmdir()
        out.parent.mkdir(parents=True, exist_ok=True)
        if tmp.exists():
            shutil.rmtree(tmp)
        tmp.mkdir()
    except OSError as exc:
        raise unusable(exc) from exc
    try:
        yield tmp
        write_manifest(tmp, command, argv, params, inputs, unhashed, digests)
        try:
            os.replace(tmp, out)
        except OSError as exc:
            raise unusable(exc) from exc
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(tmpdir, command, argv, params, inputs, unhashed=(), digests=None):
    """The manifest of `tmpdir`: hashes of the deterministic outputs, and
    the names of the `unhashed` (timing-bearing) files that exist. An output
    named in `digests` (relative name -> sha256 hex digest its writer took
    of the bytes it wrote) is recorded with that digest, not read again."""
    digests = digests or {}
    outputs = {}
    timing = []
    for path in sorted(Path(tmpdir).rglob("*")):
        if not path.is_file():
            continue
        rel = path.relative_to(tmpdir).as_posix()
        if rel == "manifest.json":
            continue
        if rel in unhashed:
            timing.append(rel)
        else:
            outputs[rel] = digests.get(rel) or _sha256(path)
    manifest = {
        "tool": "trajbehav",
        "version": __version__,
        "command": command,
        "argv": list(argv),
        "params": params,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": outputs,
        "outputs_unhashed": sorted(timing),
    }
    with open(Path(tmpdir) / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_prepared(path):
    """(file path, dataset) of the prepared dump at `path`, the file itself
    or a directory holding prepared.tbh."""
    p = Path(path)
    if p.is_dir():
        p = p / "prepared.tbh"
    return p, dmod.load_prepared(p)


def _tab_table(rows):
    """Tab-separated lines, one per row; a float cell is written to 6 decimals."""
    return "".join("\t".join(v if isinstance(v, str) else f"{v:.6f}" for v in row) + "\n"
                   for row in rows)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_gen(args, argv):
    spec = load_synth_spec(args.spec)
    trajectories, class_names = gen_dataset(spec)
    with output_dir(args.out, "gen", argv, params={**dataclasses.asdict(spec), "dt": DT},
                    inputs=[args.spec]) as tmp:
        dmod.save_trajectories(trajectories, class_names, tmp / "trajectories.csv")
        dmod.save_label_map(class_names, tmp / "labels.csv")
    return 0


def _histogram_text(windows, class_names):
    hist = dmod.class_histogram(windows, len(class_names))
    return " ".join(f"{n}={int(c)}" for n, c in zip(class_names, hist))


def cmd_prep(args, argv):
    if args.min_class_count < 2:
        raise ConfigError(
            f"--min-class-count must be >= 2, got {args.min_class_count}: "
            "split needs at least 2 windows of every class"
        )
    label_names = dmod.load_label_map(args.labels) if args.labels else None
    trajectories, class_names = dmod.load_trajectories(
        args.data, label_names, degrees=args.degrees
    )
    kinds = sorted({t.agent_kind for t in trajectories})
    if args.kind:
        trajectories = [t for t in trajectories if t.agent_kind == args.kind]
        if not trajectories:
            raise DataError(f"no trajectories of kind {args.kind!r} in {args.data}")
    elif len(kinds) > 1:
        raise ConfigError(
            f"{args.data} mixes agent kinds {kinds}; select one with --kind"
        )

    stages = [("trajectories_loaded", str(len(trajectories)))]
    kept = dmod.filter_short(trajectories)
    stages.append(("after_min_length_filter", str(len(kept))))
    windows, skipped = dmod.window_all(kept)
    stages.append(("window_samples", str(len(windows))))
    stages.append(("windows_skipped_at_frame_gaps", str(skipped)))
    windows, kept_names = dmod.filter_rare_classes(
        windows, class_names, min_count=args.min_class_count
    )
    stages.append(("after_rare_class_filter", str(len(windows))))
    stages.append(("class_histogram", _histogram_text(windows, kept_names)))

    split = dmod.split(windows, kept_names, ratio=args.ratio, seed=args.seed)
    stages.append(("train_samples", str(len(split.train))))
    stages.append(("test_samples", str(len(split.test))))

    loss_weights = None
    if args.resample == "wl":
        loss_weights = dmod.class_weights(split.train, len(kept_names))
    elif args.resample != "none":
        resample = dmod.ros if args.resample == "ros" else dmod.rus
        split = dataclasses.replace(
            split, train=resample(split.train, len(kept_names), seed=args.seed)
        )
        stages.append(("post_resample_train_samples", str(len(split.train))))
        stages.append(("post_resample_histogram", _histogram_text(split.train, kept_names)))

    normalization = None
    if args.normalize:
        normalization = dmod.standardize_stats(split.train)
        split = dataclasses.replace(
            split,
            train=dmod.apply_standardization(split.train, normalization),
            test=dmod.apply_standardization(split.test, normalization),
        )

    config = {
        "kind": args.kind or (kinds[0] if kinds else None),
        "min_len": dmod.MIN_TRAJECTORY_LEN,
        "window_size": dmod.WINDOW_SIZE,
        "min_class_count": args.min_class_count,
        "ratio": args.ratio,
        "seed": args.seed,
        "resample": args.resample,
        "normalize": bool(args.normalize),
        "degrees": bool(args.degrees),
    }
    dataset = PreparedDataset(
        split=split, config=config, loss_weights=loss_weights,
        normalization=normalization,
    )
    inputs = [args.data] + ([args.labels] if args.labels else [])
    digests = {}
    with output_dir(args.out, "prep", argv, params=config, inputs=inputs,
                    digests=digests) as tmp:
        digests["prepared.tbh"] = dmod.save_prepared(dataset, tmp / "prepared.tbh")
        (tmp / "counts.txt").write_text(_tab_table(stages), encoding="utf-8")
    return 0


def _write_em_log(path, clf):
    """One JSON line per class: its EM iteration count, whether the
    tolerance (not `hmm_max_iters`) stopped it, and the log-likelihood trace."""
    with open(path, "w", encoding="utf-8") as fh:
        for name, m in zip(clf.class_names, clf.models):
            record = {"class": name, "iterations": len(m.fit_loglik),
                      "converged": m.fit_converged, "fit_loglik": m.fit_loglik}
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def cmd_train(args, argv):
    prepared_path, dataset = _load_prepared(args.data)
    config = load_train_config(args.config, seed=args.seed)
    model, log = train(
        args.model, config, dataset.split, loss_weights=dataset.loss_weights
    )
    inputs = [prepared_path] + ([args.config] if args.config else [])
    with output_dir(args.out, "train", argv,
                    params={"model": args.model, **dataclasses.asdict(config)},
                    inputs=inputs, unhashed=("train_log.txt", "hmm_em.jsonl")) as tmp:
        save_checkpoint(
            model, dataset.split.class_names, tmp / "model.ckpt",
            normalization=dataset.normalization,
        )
        (tmp / "train_log.txt").write_text(log.format(), encoding="utf-8")
        (tmp / "config.txt").write_text(format_train_config(config), encoding="utf-8")
        if isinstance(model, HMMClassifier):
            _write_em_log(tmp / "hmm_em.jsonl", model)
    return 0


METRIC_COLUMNS = ("model", "balanced_accuracy", "f1_score", "recall")


def _metric_row(rep):
    return (rep.balanced_accuracy, rep.macro_f1, rep.macro_recall)


def _reject_repeats(what, given, keys):
    """ConfigError naming the first of `given` whose key is repeated."""
    for i, key in enumerate(keys):
        if key in keys[:i]:
            raise ConfigError(f"{what} {given[i]} is given more than once")


def cmd_eval(args, argv):
    _reject_repeats("checkpoint", args.checkpoint,
                    [Path(p).resolve() for p in args.checkpoint])
    prepared_path, dataset = _load_prepared(args.data)
    class_names = dataset.split.class_names
    artifacts = {}
    for ckpt_path in args.checkpoint:
        ck = load_checkpoint(ckpt_path)
        if ck.class_names != class_names:
            raise DataError(
                f"{ckpt_path}: checkpoint class map {ck.class_names} does not "
                f"match dataset class map {class_names}"
            )
        kind = ck.model.kind
        tag = kind if kind not in artifacts else f"{kind}_{Path(ckpt_path).parent.name}"
        if tag in artifacts:
            raise ConfigError(
                f"checkpoints {artifacts[tag][1]} and {ckpt_path} would both write "
                f"the reports tagged {tag!r}; give them different parent directories"
            )
        rep = evaluate(ck.model, dataset.split.test, class_names)
        artifacts[tag] = (rep, ckpt_path)

    with output_dir(args.out, "eval", argv, params={"checkpoints": list(args.checkpoint)},
                    inputs=[prepared_path] + list(args.checkpoint)) as tmp:
        for tag, (rep, _) in artifacts.items():
            (tmp / f"metrics_{tag}.txt").write_text(format_report(rep), encoding="utf-8")
            (tmp / f"report_{tag}.json").write_text(
                json.dumps(rep.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8")
            (tmp / f"confusion_{tag}.svg").write_text(confusion_heatmap_svg(
                rep.confusion, title=f"Confusion matrix ({tag})"), encoding="utf-8")
            (tmp / f"per_class_{tag}.svg").write_text(per_class_bar_svg(
                [c["recall"] for c in rep.per_class], class_names,
                title=f"Per-class recall ({tag})"), encoding="utf-8")
        if len(artifacts) > 1:
            (tmp / "comparison.txt").write_text(_tab_table(
                [METRIC_COLUMNS] + [(tag, *_metric_row(rep)) for tag, (rep, _) in artifacts.items()]
            ), encoding="utf-8")
    return 0


ABLATION_CELLS = (
    ("Bi-LSTM", False, False),
    ("Bi-LSTM+MSCNN", False, True),
    ("ROS+Bi-LSTM", True, False),
    ("ROS+Bi-LSTM+MSCNN", True, True),
)


def run_ablation(dataset, seeds, base_config):
    """2x2 grid {ROS on/off} x {conv branch on/off} over shared seeds.

    Returns {cell name: {seed: EvalReport}}. The input dataset must not be
    pre-resampled (ROS is one of the grid axes).
    """
    if dataset.config.get("resample", "none") not in ("none", None):
        raise ConfigError(
            "ablation needs an un-resampled dataset; "
            f"this one was prepared with resample={dataset.config['resample']!r}"
        )
    split = dataset.split
    num_classes = len(split.class_names)
    results = {name: {} for name, _, _ in ABLATION_CELLS}
    for seed in seeds:
        for name, ros_on, mscnn_on in ABLATION_CELLS:
            config = dataclasses.replace(base_config, seed=seed)
            train_windows = (dmod.ros(split.train, num_classes, seed=seed) if ros_on
                             else split.train)
            cell_split = dataclasses.replace(split, train=train_windows, seed=seed)
            model, _ = train("fusion", config, cell_split, use_mscnn=mscnn_on)
            results[name][seed] = evaluate(model, split.test, split.class_names)
    return results


def _minority_recall(rep, majority_idx):
    rest = [c["recall"] for i, c in enumerate(rep.per_class) if i != majority_idx]
    return float(np.mean(rest)) if rest else float("nan")


def cmd_ablate(args, argv):
    prepared_path, dataset = _load_prepared(args.data)
    seeds = [_coerce("seed", s, 0) for s in args.seeds.split(",") if s.strip() != ""]
    if not seeds:
        raise ConfigError("no seeds given")
    _reject_repeats("seed", seeds, seeds)
    if min(seeds) < 0:
        raise ConfigError(f"seed must be >= 0, got {min(seeds)}")
    base = load_train_config(args.config)
    hist = dmod.class_histogram(dataset.split.train, len(dataset.split.class_names))
    majority_idx = int(np.argmax(hist))
    results = run_ablation(dataset, seeds, base)

    names = [name for name, _, _ in ABLATION_CELLS]
    # table[s, c]: the metric columns of cell c at seed s
    table = np.array([[(*_metric_row(results[name][seed]),
                        _minority_recall(results[name][seed], majority_idx))
                       for name in names] for seed in seeds])
    # numpy sums a contiguous last axis pairwise, like np.mean of one cell's
    # per-seed column; an axis-0 reduction would add the seeds in sequence
    mean = np.ascontiguousarray(np.moveaxis(table, 0, -1)).mean(axis=-1)
    header = METRIC_COLUMNS + ("minority_recall",)
    inputs = [prepared_path] + ([args.config] if args.config else [])
    # the training config every cell ran, less the seed that --seeds replaces
    config = {key: value for key, value in dataclasses.asdict(base).items() if key != "seed"}
    with output_dir(args.out, "ablate", argv,
                    params={**config, "seeds": seeds,
                            "majority_class": dataset.split.class_names[majority_idx]},
                    inputs=inputs) as tmp:
        for seed, rows in zip(seeds, table):
            (tmp / f"ablation_seed{seed}.txt").write_text(
                _tab_table([header, *zip(names, *rows.T)]), encoding="utf-8")
        (tmp / "ablation_mean.txt").write_text(
            _tab_table([header, *zip(names, *mean.T)]), encoding="utf-8")
    return 0


def run_gradcheck(seed, num_samples):
    """Finite-difference check of all three neural models; returns
    {kind: max relative error}."""
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if num_samples < 1:
        raise ConfigError(f"samples must be >= 1, got {num_samples}")
    rng = np.random.default_rng(seed)
    batch = rng.normal(size=(num_samples, dmod.WINDOW_SIZE, dmod.STATE_FEATURES))
    labels = rng.integers(0, GRADCHECK_CLASSES, size=num_samples)
    results = {}
    for kind in ("fusion", "lstm", "conv1d"):
        model = build_model(kind, GRADCHECK_CLASSES, seed=seed, dtype=np.float64)

        def forward(model=model):
            return ad.softmax_cross_entropy(model.forward(batch), labels)

        results[kind] = grad_check(forward, model.param_list(), seed=seed)
    return results


def cmd_gradcheck(args, argv):
    t0 = time.perf_counter()
    results = run_gradcheck(args.seed, args.samples)
    worst = 0.0
    for kind, err in results.items():
        print(f"{kind}\tmax_relative_error\t{err:.3e}")
        worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    print(f"overall\tmax_relative_error\t{worst:.3e}\t({elapsed:.1f}s)")
    if worst >= 1e-5:
        raise NumericalError(
            f"gradient check failed: max relative error {worst:.3e} >= 1e-5"
        )
    return 0


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="trajbehav",
        description="Trajectory-based driving behavior classification pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic trajectory dataset")
    p.add_argument("--spec", required=True, help="generator spec (key = value file)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("prep", help="window, filter, split, and resample")
    p.add_argument("--data", required=True, help="trajectory CSV")
    p.add_argument("--labels", default=None, help="label map CSV (index,name)")
    p.add_argument("--kind", choices=dmod.AGENT_KINDS, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--resample", choices=RESAMPLE_MODES, default="none")
    p.add_argument("--ratio", type=float, default=dmod.SPLIT_RATIO)
    p.add_argument("--min-class-count", type=int, default=dmod.MIN_CLASS_COUNT)
    p.add_argument("--normalize", action="store_true")
    p.add_argument("--degrees", action="store_true",
                   help="direction column is degrees; convert to radians")
    p.set_defaults(func=cmd_prep)

    p = sub.add_parser("train", help="train one model on a prepared dataset")
    p.add_argument("--data", required=True, help="prepared dataset (dir or file)")
    p.add_argument("--model", required=True, choices=MODEL_KINDS)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None, help="training config file")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate checkpoints on the test split")
    p.add_argument("--checkpoint", required=True, action="append",
                   help="model checkpoint (repeat for a comparison table)")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="2x2 {ROS} x {conv branch} ablation grid")
    p.add_argument("--data", required=True, help="un-resampled prepared dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--seeds", default="0,1,2")
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("gradcheck", help="finite-difference check of all models")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=3)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, argv)
    except TrajbehavError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
