"""Run one benchmark workload from the root of a trajbehav checkout.

    python3 perfbench/run.py --workload fusion_train --seed 1 --seconds 28 --trace 0

Prints a detail line (machine record, per-round times, failures) and, as
the last line, the result: {"correct", "attempted", "failed", "metrics"}.
Exits 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   help="fusion_train, conv1d_train, hmm_fit or prep_infer")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="time budget of the timed rounds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: per-layer metrics from a traced run")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "trajbehav").is_dir():
        print(f"error: no trajbehav sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # One BLAS thread, set before numpy loads: on the small matrices of
    # these models a second thread gains about 3% and makes times swing
    # with the load on the other core.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import bench

    return bench.main(args, ROOT)


if __name__ == "__main__":
    sys.exit(main())
