"""A standing mutation sweep of the text files the CLI reads.

The generator spec, the train config and the label map are each written
once, well formed. Each case rewrites one file with one change: a key (for
the label map, a row) repeated, deleted, or given each value of MALFORMED,
which holds no large count or length, so nothing large is allocated. The
spec case runs through `trajbehav gen`, the config case through `trajbehav
train` of a conv1d and an HMM model, and the label map case through
`trajbehav prep`. Every run must exit 2 or 3 with an `error:` message and
without raising. Exit 0 is allowed only for the cases in ALLOWED_EXIT_0,
each with its reason, and each of those must still exit 0, so the list
cannot go stale.
"""

import pytest

from trajbehav.cli import main

SPEC = {"length": "8", "noise": "0.3", "seed": "7", "count.USD": "6", "count.SA": "4",
        "count.S": "4"}
CONFIG = {"epochs": "1", "batch_size": "64", "lr_switch_epoch": "0", "seed": "0",
          "hmm_max_iters": "3"}
MALFORMED = ("", "x", "nan", "inf", "-inf", "1e400", "-1", "-0", "0", "1.5", "1e3", "0x10",
             "1_0", "\u0663", "True", "= 3", "1 2")

_DEFAULT = "an optional key: its default applies"
_ZERO = "-0 and 0 read as the number 0, a valid value here"
_PYTHON_NUMBER = ("int() and float() read digit-group underscores and other scripts' "
                  "decimal digits, as the trajectory CSV loader does: 1_0 is 10 and "
                  "\u0663 is 3, valid values here")
_COUNTS = [k for k in SPEC if k.startswith("count.")]
ALLOWED_EXIT_0 = {
    **{("spec", key, "deleted"): _DEFAULT for key in ("length", "noise", "seed")},
    **{("spec", key, "deleted"): "that class is left out; two classes remain"
       for key in _COUNTS},
    **{("spec", key, v): _ZERO for key in ["noise", "seed", *_COUNTS] for v in ("-0", "0")},
    **{("spec", key, v): _PYTHON_NUMBER for key in SPEC for v in ("1_0", "\u0663")
       if key != "length" or v == "1_0"},
    **{("spec", "noise", v): "a finite noise scale, 1e3 included: its coordinates stay "
       "finite in float32 at this length" for v in ("1.5", "1e3")},
    **{("config", key, "deleted"): _DEFAULT for key in CONFIG if key != "lr_switch_epoch"},
    **{("config", key, v): _ZERO for key, v in [("epochs", "-0"), ("epochs", "0"),
                                                ("lr_switch_epoch", "-0"), ("seed", "-0")]},
    **{("config", key, v): _PYTHON_NUMBER for key in CONFIG if key != "lr_switch_epoch"
       for v in ("1_0", "\u0663")},
    ("labels", "0", "index = -0"): "int() reads -0 as 0, the row's own index",
}


def _kv_text(items):
    return "".join(f"{k} = {v}\n" for k, v in items)


def _kv_cases(base):
    """(key, case, file text) for every single change to a key = value file;
    a value equal to the stored text is no change."""
    items = list(base.items())
    for key, stored in items:
        yield key, "repeated", _kv_text(items + [(key, stored)])
        yield key, "deleted", _kv_text((k, v) for k, v in items if k != key)
        for value in MALFORMED:
            if value != stored:
                yield key, value, _kv_text((k, value if k == key else v) for k, v in items)


def _label_cases(rows):
    """(row index, case, rows) for every single change to a label map; a
    field set to its stored text is no change. The names tried include
    another row's."""
    for i, (index, name) in enumerate(rows):
        others = rows[:i] + rows[i + 1:]
        yield index, "repeated", rows + [rows[i]]
        yield index, "deleted", others
        for value in MALFORMED:
            if value != index:
                yield index, f"index = {value}", rows[:i] + [(value, name)] + rows[i + 1:]
        for value in (*MALFORMED, others[0][1]):
            if value != name:
                yield index, f"name = {value}", rows[:i] + [(index, value)] + rows[i + 1:]


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    ws = tmp_path_factory.mktemp("text_inputs")
    (ws / "spec.txt").write_text(_kv_text(SPEC.items()))
    assert main(["gen", "--spec", str(ws / "spec.txt"), "--out", str(ws / "gen")]) == 0
    assert main(["prep", "--data", str(ws / "gen" / "trajectories.csv"), "--out",
                 str(ws / "prep"), "--seed", "3", "--min-class-count", "10"]) == 0
    return ws


def _sweep(capsys, ws, source, cases, write, argvs):
    """Problems found running each case's argvs; [] when every run behaved."""
    problems, exited_0 = [], set()
    for n, (key, case, content) in enumerate(cases):
        write(content)
        for argv in argvs:
            try:
                code = main([str(a) for a in argv] + ["--out", str(ws / f"out_{source}_{n}")])
            except Exception as exc:   # a traceback at the command line
                problems.append(f"{key} {case}: {argv[0]} raised {exc!r}")
                continue
            err = capsys.readouterr().err
            if code == 0:
                exited_0.add((source, key, case))
                if (source, key, case) not in ALLOWED_EXIT_0:
                    problems.append(f"{key} {case}: {argv[0]} exited 0")
            elif code not in (2, 3) or not err.startswith("error: "):
                problems.append(f"{key} {case}: {argv[0]} exited {code}, stderr {err!r}")
    stale = {k for k in ALLOWED_EXIT_0 if k[0] == source} - exited_0
    problems += [f"{key} {case}: listed in ALLOWED_EXIT_0 but did not exit 0"
                 for _, key, case in sorted(stale)]
    return problems


def test_every_generator_spec_mutation_fails_with_a_message(dataset, capsys):
    path = dataset / "bad_spec.txt"
    problems = _sweep(capsys, dataset, "spec", _kv_cases(SPEC), path.write_text,
                      [("gen", "--spec", path)])
    assert not problems, "\n".join(problems)


def test_every_train_config_mutation_fails_with_a_message(dataset, capsys):
    path = dataset / "bad.cfg"
    problems = _sweep(capsys, dataset, "config", _kv_cases(CONFIG), path.write_text,
                      [("train", "--data", dataset / "prep", "--model", kind, "--config", path)
                       for kind in ("conv1d", "hmm")])
    assert not problems, "\n".join(problems)


def test_every_label_map_mutation_fails_with_a_message(dataset, capsys):
    path = dataset / "bad_labels.csv"
    rows = [tuple(line.split(",")) for line in
            (dataset / "gen" / "labels.csv").read_text().splitlines()]

    def write(rows):
        path.write_text("".join(f"{index},{name}\n" for index, name in rows))

    problems = _sweep(capsys, dataset, "labels", _label_cases(rows), write,
                      [("prep", "--data", dataset / "gen" / "trajectories.csv", "--labels", path,
                        "--min-class-count", 10)])
    assert not problems, "\n".join(problems)
