"""Paired benchmark runs of two revisions, written to one evidence file.

    python tools/pairs.py --base REV --head REV --workload W --pairs N \\
        --seeds A-B --out BENCH_<label>.json

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
`--out` file gains one more entry in its `studies` list. Standard library
only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
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


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="the parent revision")
    p.add_argument("--head", required=True, help="the changed revision")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seeds", required=True, help="A-B: pair i runs seed A + i mod (B - A + 1)")
    p.add_argument("--out", type=Path, required=True, help="BENCH_<label>.json")
    args = p.parse_args(argv)
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
