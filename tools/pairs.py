"""Paired benchmark runs of two revisions, or a check of their output identity.

    python tools/pairs.py --base REV --head REV --workload W --pairs N \\
        --seeds A-B --out BENCH_<label>.json
    python tools/pairs.py --base REV --head REV --identity

Each revision is extracted with `git archive` into its own directory under
`.perfbench/`, and `perfbench/run.py` runs there, so each side times its
own `src/` under its own harness. Pair i runs seed A + (i mod (B - A + 1))
on both sides, base first in even pairs and head first in odd ones, for
`BENCHMARK.json`'s `run_seconds`.

Per end-to-end metric of `BENCHMARK.json` the file holds both sides'
medians and quartiles (nearest rank, `perfbench/stats.py`), the per-pair
head/base ratios, the number of pairs the head won in the metric's better
direction, the number of ties, and whether the medians differ by more
than the base's interquartile range. It also holds every run's result
line, both revisions with their `src/` tree hashes, the first run's
machine record and the OpenBLAS kernel family the runs load. An existing
`--out` file gains one more entry in its `studies` list.

`--identity` runs one fixed CLI pipeline (`PIPELINE`: two gens, five preps,
five trainings, a 4-checkpoint eval, a 2-seed ablate and gradcheck, one
BLAS thread) from each revision's extract in turn, into the same directory
`.perfbench/identity/run`, which is then renamed to `base` or `head`. It
compares the two trees file by file and prints each file that differs. A
train log that differs only in its seconds column, and gradcheck's output
that differs only in its wall time, are printed as `timing only`; any
other difference, a file on one side only included, is printed as
`differs` and makes the exit status 1. Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import stats  # noqa: E402

# Read the kernel family from the OpenBLAS that numpy bundles, in a child,
# so that this process never loads the library.
CORE_NAME = """
import ctypes, glob, importlib.util, os
libs = os.path.join(os.path.dirname(importlib.util.find_spec("numpy").origin), os.pardir,
                    "numpy.libs")
for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
    lib = ctypes.CDLL(path)
    for name in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                 "openblas_get_corename"):
        get = getattr(lib, name, None)
        if get is not None:
            get.restype = ctypes.c_char_p
            print(get().decode())
            raise SystemExit
print("unknown")
"""


# The identity pipeline's input files, written into the run directory.
IDENTITY_INPUTS = {
    "vehicle.txt": "length = 14\nnoise = 0.3\nseed = 7\ncount.USD = 60\ncount.SA = 20\n"
                   "count.S = 20\ncount.OFL = 20\ncount.OFR = 20\ncount.SD = 20\n",
    # at noise 60, some generated headings leave [-pi, pi) before the wrap
    "pedestrian.txt": "length = 14\nnoise = 60\nseed = 11\ncount.PED_CROSS_L = 20\n"
                      "count.PED_WANDER = 20\n",
    "train.cfg": "epochs = 2\nlr_switch_epoch = 1\nhmm_max_iters = 10\n",
}
_PREP = ("prep", "--data", "gen/trajectories.csv", "--labels", "gen/labels.csv", "--seed", "3")
_TRAIN = ("train", "--config", "train.cfg")
# `trajbehav` argv lists, run in order in the run directory; gradcheck's
# standard output is kept as gradcheck.txt
PIPELINE = (
    ("gen", "--spec", "vehicle.txt", "--out", "gen"),
    ("gen", "--spec", "pedestrian.txt", "--out", "gen_ped"),
    (*_PREP, "--out", "prep_none"),
    (*_PREP, "--resample", "ros", "--out", "prep_ros"),
    (*_PREP, "--resample", "wl", "--normalize", "--out", "prep_wl"),
    (*_PREP, "--degrees", "--out", "prep_deg"),
    ("prep", "--data", "gen_ped/trajectories.csv", "--degrees", "--out", "prep_ped"),
    *((*_TRAIN, "--data", "prep_ros", "--model", kind, "--out", f"train_{kind}")
      for kind in ("fusion", "lstm", "conv1d", "hmm")),
    (*_TRAIN, "--data", "prep_wl", "--model", "fusion", "--out", "train_fusion_wl"),
    ("eval", "--data", "prep_none", "--out", "eval",
     *(arg for kind in ("fusion", "lstm", "conv1d", "hmm")
       for arg in ("--checkpoint", f"train_{kind}/model.ckpt"))),
    ("ablate", "--data", "prep_none", "--seeds", "0,1", "--config", "train.cfg",
     "--out", "ablate"),
    ("gradcheck",),
)


def parse_seeds(text):
    """'A-B' (or one seed 'A') -> [A, ..., B]."""
    first, _, last = text.partition("-")
    lo, hi = int(first), int(last or first)
    if lo < 0 or hi < lo:
        raise ValueError(f"seed range {text!r} is not A-B with 0 <= A <= B")
    return list(range(lo, hi + 1))


def schedule(pairs, seeds):
    """[(pair, seed, (side run first, side run second))] for `pairs` pairs."""
    return [(i, seeds[i % len(seeds)], ("base", "head") if i % 2 == 0 else ("head", "base"))
            for i in range(pairs)]


def quartiles(values):
    return {"q1": stats.percentile(values, 25), "median": stats.median(values),
            "q3": stats.percentile(values, 75)}


def summarize(base, head, better):
    """One metric's summary from the base and head values of each pair, in
    pair order; `better` is "higher" or "lower"."""
    if len(base) != len(head) or not base:
        raise ValueError("one base and one head value per pair, at least one pair")
    b, h = quartiles(base), quartiles(head)
    sign = 1 if better == "higher" else -1
    return {
        "better": better,
        "base": b,
        "head": h,
        "ratios": [hv / bv if bv else None for bv, hv in zip(base, head)],
        "head_wins": sum(sign * (hv - bv) > 0 for bv, hv in zip(base, head)),
        "ties": sum(hv == bv for bv, hv in zip(base, head)),
        "pairs": len(base),
        "median_gap_exceeds_base_iqr": abs(h["median"] - b["median"]) > b["q3"] - b["q1"],
    }


def _git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def revision(rev):
    commit = _git("rev-parse", "--verify", f"{rev}^{{commit}}")
    return {"rev": rev, "commit": commit, "src_tree": _git("rev-parse", f"{commit}:src")}


def checkout(commit):
    """A fresh extract of `commit` under .perfbench/, returned as its path."""
    dest = ROOT / ".perfbench" / f"pairs-{commit[:12]}"
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest


def run_once(tree, workload, seed, seconds):
    """The detail and result records of one `perfbench/run.py` run in `tree`."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"perfbench/run.py in {tree} printed no result "
                           f"(exit {proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def openblas_core():
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, "-c", CORE_NAME], env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def study(args, seconds, declared):
    sides = {"base": revision(args.base), "head": revision(args.head)}
    trees = {name: checkout(side["commit"]) for name, side in sides.items()}
    runs, machine = [], None
    try:
        for pair, seed, order in schedule(args.pairs, parse_seeds(args.seeds)):
            for position, name in enumerate(order):
                detail, result = run_once(trees[name], args.workload, seed, seconds)
                machine = machine or detail.get("machine")
                runs.append({"pair": pair, "seed": seed, "side": name, "position": position,
                             **result})
                value = result["metrics"].get("infer_windows_per_s", {}).get("value")
                print(f"pair {pair} seed {seed} {name}: correct={result['correct']} "
                      f"infer_windows_per_s={value}", file=sys.stderr, flush=True)
    finally:
        for tree in trees.values():
            shutil.rmtree(tree, ignore_errors=True)

    def values(name, metric):
        return [r["metrics"][metric]["value"] for r in runs if r["side"] == name]

    complete = all(r["correct"] for r in runs)
    metrics = {m: summarize(values("base", m), values("head", m), better)
               for m, better in declared.items()} if complete else {}
    return {
        "workload": args.workload, "seeds": args.seeds, "pairs": args.pairs,
        "seconds": seconds, **sides, "all_correct": complete,
        "openblas_core": openblas_core(), "machine": machine,
        "metrics": metrics, "runs": runs,
    }


def run_pipeline(tree, where):
    """Run PIPELINE with the `src/` of `tree` in the new directory `where`."""
    where.mkdir(parents=True)
    for name, text in IDENTITY_INPUTS.items():
        (where / name).write_text(text, encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "OPENBLAS_NUM_THREADS": "1"}
    for argv in PIPELINE:
        proc = subprocess.run([sys.executable, "-m", "trajbehav.cli", *argv], cwd=where,
                              env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"trajbehav {' '.join(argv)} with {tree}/src exited "
                               f"{proc.returncode}: {proc.stderr.strip()[-2000:]}")
        if argv[0] == "gradcheck":
            (where / "gradcheck.txt").write_text(proc.stdout, encoding="utf-8")


def without_timing(rel, data):
    """The bytes of the file `rel` (a path relative to its tree) without the
    parts that hold wall times: a train log's last (seconds) column and the
    `(N.Ns)` that ends a gradcheck line."""
    if Path(rel).name == "train_log.txt":
        return b"\n".join(line.rpartition(b"\t")[0] for line in data.split(b"\n"))
    if rel == "gradcheck.txt":
        return re.sub(rb"\t\(\d+\.\ds\)$", b"", data, flags=re.MULTILINE)
    return data


def compare(base, head):
    """(files that differ in their timing parts only, files that differ
    otherwise or exist on one side only), as sorted paths relative to the
    directories `base` and `head`."""
    def files(root):
        return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}

    timing, differing = [], []
    for rel in sorted(files(base) | files(head)):
        a, b = base / rel, head / rel
        if not (a.is_file() and b.is_file()):
            differing.append(rel)
            continue
        da, db = a.read_bytes(), b.read_bytes()
        if da != db:
            same = without_timing(rel, da) == without_timing(rel, db)
            (timing if same else differing).append(rel)
    return timing, differing


def identity(args):
    root = ROOT / ".perfbench" / "identity"
    shutil.rmtree(root, ignore_errors=True)
    for name, rev in (("base", args.base), ("head", args.head)):
        side = revision(rev)
        print(f"{name}: {side['rev']} {side['commit']} src {side['src_tree']}", flush=True)
        tree = checkout(side["commit"])
        try:
            run_pipeline(tree, root / "run")
        finally:
            shutil.rmtree(tree, ignore_errors=True)
        (root / "run").rename(root / name)
    timing, differing = compare(root / "base", root / "head")
    for rel in timing:
        print(f"timing only: {rel}")
    for rel in differing:
        print(f"differs: {rel}")
    print(f"{len(differing)} files differ beyond their timing ({root})")
    return 1 if differing else 0


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="the parent revision")
    p.add_argument("--head", required=True, help="the changed revision")
    p.add_argument("--identity", action="store_true",
                   help="compare the outputs of one fixed CLI pipeline instead of timing")
    p.add_argument("--workload")
    p.add_argument("--pairs", type=int)
    p.add_argument("--seeds", help="A-B: pair i runs seed A + i mod (B - A + 1)")
    p.add_argument("--out", type=Path, help="BENCH_<label>.json")
    args = p.parse_args(argv)
    timed = (args.workload, args.pairs, args.seeds, args.out)
    if args.identity:
        if timed != (None,) * 4:
            p.error("--identity takes no --workload, --pairs, --seeds or --out")
        return identity(args)
    if None in timed:
        p.error("--workload, --pairs, --seeds and --out are required without --identity")
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    try:
        parse_seeds(args.seeds)
    except ValueError as exc:
        p.error(str(exc))
    declared = {m["name"]: m["better"] for m in spec["end_to_end"]}
    entry = study(args, spec["run_seconds"], declared)
    doc = (json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists()
           else {"tool": "tools/pairs.py", "studies": []})
    doc["studies"].append(entry)
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    for name, m in entry["metrics"].items():
        print(f"{name}: base {m['base']['median']:.6g}, head {m['head']['median']:.6g}, "
              f"head wins {m['head_wins']}/{m['pairs']}")
    return 0 if entry["all_correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
