"""A standing mutation sweep of the artifacts the CLI reads back.

A tiny weighted dataset dump and one checkpoint of each model kind are
written once. Each case rewrites one artifact with one change: an array
emptied, retyped, given an extra axis, given a NaN, or cut by a row; an
unexpected array added; a metadata key deleted or set to another JSON
value. The case then runs through `trajbehav eval`, and for the dump also
through `trajbehav train`. Every run must exit 2, 3 or 4 without raising.
Exit 0 is allowed only for the metadata keys in ALLOWED_EXIT_0, each with
its reason. All of the about 500 cases run, in a few seconds.
"""

import itertools
import json

import numpy as np
import pytest

from trajbehav.cli import main
from trajbehav.container import read_container, write_container

GEN_SPEC = "length = 8\nnoise = 0.3\nseed = 7\ncount.USD = 6\ncount.SA = 4\ncount.S = 4\n"
TINY_CFG = "epochs = 1\nbatch_size = 64\nlr_switch_epoch = 0\nhmm_max_iters = 3\n"
MODEL_KINDS = ("fusion", "lstm", "conv1d", "hmm")
JSON_VALUES = (None, -1, 0.5, "x", [], {}, True)
RETYPE = {np.dtype(np.int64): np.float64, np.dtype(np.float64): np.float32,
          np.dtype(np.float32): np.float64}

_NOT_COMPARED = "recorded, but eval never compares the dump's and the checkpoint's"
ALLOWED_EXIT_0 = {
    ("dataset", "normalization"): _NOT_COMPARED,
    ("dataset", "config"): "a record of the prep options, which train and eval do not "
                           "read; only a value that is not an object is rejected",
    **{(kind, "normalization"): _NOT_COMPARED for kind in MODEL_KINDS},
}


def _run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    ws = tmp_path_factory.mktemp("artifacts")
    (ws / "spec.txt").write_text(GEN_SPEC)
    (ws / "tiny.cfg").write_text(TINY_CFG)
    assert _run("gen", "--spec", ws / "spec.txt", "--out", ws / "gen") == 0
    assert _run("prep", "--data", ws / "gen" / "trajectories.csv",
                "--labels", ws / "gen" / "labels.csv", "--out", ws / "prep", "--seed", 3,
                "--resample", "wl", "--min-class-count", 10) == 0
    paths = {"dataset": ws / "prep" / "prepared.tbh"}
    for kind in MODEL_KINDS:
        assert _run("train", "--data", ws / "prep", "--model", kind, "--out", ws / kind,
                    "--config", ws / "tiny.cfg") == 0
        paths[kind] = ws / kind / "model.ckpt"
    return ws, paths


def _array_edits(value):
    edits = {"emptied": value[:0], "retyped": value.astype(RETYPE[value.dtype]),
             "extra-axis": value[..., None], "cut-row": value[:-1]}
    if value.dtype.kind == "f":
        edits["nan"] = value.copy()
        edits["nan"].flat[0] = np.nan
    return edits


def _cases(meta, arrays):
    """(label, meta key or None, meta, arrays) for every single change; a
    JSON value equal to the stored one, type included, is no change."""
    for name, value in arrays.items():
        for edit, changed in _array_edits(value).items():
            yield f"{name} {edit}", None, meta, {**arrays, name: changed}
    yield "unexpected array", None, meta, {**arrays, "extra": np.zeros(1)}
    for key in meta:
        yield f"{key} deleted", key, {k: v for k, v in meta.items() if k != key}, arrays
        for value in JSON_VALUES:
            if type(value) is type(meta[key]) and value == meta[key]:
                continue   # the stored value: no change
            yield f"{key} = {json.dumps(value)}", key, {**meta, key: value}, arrays


@pytest.mark.parametrize("artifact", ["dataset", *MODEL_KINDS])
def test_every_mutation_exits_2_3_or_4(artifacts, artifact):
    ws, paths = artifacts
    kind, meta, arrays = read_container(paths[artifact])
    bad = ws / f"bad_{artifact}"
    runs = itertools.count()
    problems = []
    for label, key, case_meta, case_arrays in _cases(meta, arrays):
        write_container(bad, kind, case_meta, case_arrays)
        if artifact == "dataset":
            argvs = [("eval", "--checkpoint", paths["conv1d"], "--data", bad),
                     ("train", "--data", bad, "--model", "conv1d", "--config", ws / "tiny.cfg")]
        else:
            argvs = [("eval", "--checkpoint", bad, "--data", paths["dataset"])]
        for argv in argvs:
            try:
                code = _run(*argv, "--out", ws / f"out_{artifact}_{next(runs)}")
            except Exception as exc:
                problems.append(f"{label}: {argv[0]} raised {exc!r}")
                continue
            if code not in (2, 3, 4) and not (code == 0 and (artifact, key) in ALLOWED_EXIT_0):
                problems.append(f"{label}: {argv[0]} exited {code}")
    assert not problems, "\n".join(problems)
