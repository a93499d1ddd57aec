"""The repository tools: the line counter every change reports its size with,
`tools/src_lines.py`, the mutant sweep, `tools/mutants.py`, and the paired
benchmark runner's statistics and output comparison, `tools/pairs.py`."""

import importlib.util
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"
TOOL = TOOLS / "src_lines.py"

SNIPPET = '''"""A module docstring
over two lines."""

# a comment-only line
import os


def f(x):
    """A function docstring."""
    table = """a multi-line string
assigned to a name"""
    return x  # a trailing comment
'''


def _load(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def src_lines():
    return _load(TOOL)


def test_count_leaves_out_docstrings_comments_and_blank_lines(src_lines):
    # code: `import os`, `def f(x):`, both lines of the assigned string, `return x`
    assert src_lines.count(SNIPPET) == (12, 5)


def test_total_row_is_the_sum_of_the_module_rows(src_lines, tmp_path, capsys):
    (tmp_path / "a.py").write_text(SNIPPET, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n\n# note\ny = 2\n", encoding="utf-8")
    assert src_lines.main([str(tmp_path)]) == 0
    header, *rows, total = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert header == ["module", "physical", "code"]
    assert rows == [["a.py", "12", "5"], ["b.py", "4", "2"]]
    assert total == ["total"] + [str(sum(int(row[i]) for row in rows)) for i in (1, 2)]


def test_every_mutant_edits_text_that_occurs_once():
    """The sweep itself is too slow for this suite; this keeps its list from
    going stale: an edited line whose mutant no longer applies fails here."""
    mutants = _load(TOOLS / "mutants.py")
    for m in mutants.MUTANTS:
        assert (mutants.ROOT / m.file).read_text(encoding="utf-8").count(m.old) == 1, m.name


@pytest.fixture(scope="module")
def pairs():
    return _load(TOOLS / "pairs.py")


def test_pairs_summary_quartiles_ratios_and_wins(pairs):
    base, head = [10.0, 12.0, 11.0, 13.0], [12.0, 12.0, 10.0, 15.0]
    up = pairs.summarize(base, head, "higher")
    # nearest-rank quartiles, and the median of `statistics`
    assert up["base"] == {"q1": 10.0, "median": 11.5, "q3": 12.0}
    assert up["head"] == {"q1": 10.0, "median": 12.0, "q3": 12.0}
    assert up["ratios"] == [1.2, 1.0, 10.0 / 11.0, 15.0 / 13.0]
    assert (up["head_wins"], up["ties"], up["pairs"]) == (2, 1, 4)
    # a gap of 0.5 between the medians is inside the base's spread of 2
    assert up["median_gap_exceeds_base_iqr"] is False
    down = pairs.summarize(base, head, "lower")
    assert (down["head_wins"], down["ties"], down["better"]) == (1, 1, "lower")


def test_pairs_summary_gap_beyond_the_base_spread(pairs):
    assert pairs.summarize([1.0] * 3, [2.0] * 3, "higher")["median_gap_exceeds_base_iqr"]
    with pytest.raises(ValueError):
        pairs.summarize([1.0, 2.0], [1.0], "higher")


def test_pairs_schedule_alternates_the_first_side_and_cycles_the_seeds(pairs):
    assert pairs.parse_seeds("101-103") == [101, 102, 103]
    assert pairs.parse_seeds("7") == [7]
    with pytest.raises(ValueError):
        pairs.parse_seeds("9-3")
    assert pairs.schedule(4, [5, 6, 7]) == [
        (0, 5, ("base", "head")), (1, 6, ("head", "base")),
        (2, 7, ("base", "head")), (3, 5, ("head", "base"))]


TRAIN_LOG = "epoch\tloss\tlr\tseconds\n1\t2.50000000\t0.005\t{:.3f}\n"
GRADCHECK = "fusion\tmax_relative_error\t{}\noverall\tmax_relative_error\t{}\t({:.1f}s)\n"


def _tree(root, files):
    for rel, text in files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(text, encoding="utf-8")
    return root


def test_identity_compare_leaves_out_only_train_seconds_and_gradcheck_wall_time(
        pairs, tmp_path):
    same = {"prep/prepared.tbh": "dump", "eval/report_fusion.json": "{}"}
    base = _tree(tmp_path / "base", {
        **same, "train_fusion/train_log.txt": TRAIN_LOG.format(1.234),
        "train_lstm/train_log.txt": TRAIN_LOG.format(0.5),
        "gradcheck.txt": GRADCHECK.format("5.032e-08", "5.032e-08", 12.3)})
    head = _tree(tmp_path / "head", {
        **same, "train_fusion/train_log.txt": TRAIN_LOG.format(0.987),
        "train_lstm/train_log.txt": TRAIN_LOG.format(0.5),
        "gradcheck.txt": GRADCHECK.format("5.032e-08", "5.032e-08", 9.8)})
    assert pairs.compare(base, head) == (["gradcheck.txt", "train_fusion/train_log.txt"], [])


def test_identity_compare_reports_every_other_difference(pairs, tmp_path):
    base = _tree(tmp_path / "base", {
        "train_fusion/train_log.txt": TRAIN_LOG.format(1.0),
        "gradcheck.txt": GRADCHECK.format("5.032e-08", "5.032e-08", 12.3),
        "eval/manifest.json": '{"a": 1}', "only_base.txt": "x",
        # a seconds column matters only in a train log
        "prep/counts.txt": "a\t1.000\n"})
    head = _tree(tmp_path / "head", {
        "train_fusion/train_log.txt": TRAIN_LOG.format(1.0).replace("2.5", "2.6"),
        "gradcheck.txt": GRADCHECK.format("5.033e-08", "5.033e-08", 12.3),
        "eval/manifest.json": '{"a": 2}', "only_head.txt": "x",
        "prep/counts.txt": "a\t2.000\n"})
    assert pairs.compare(base, head) == ([], [
        "eval/manifest.json", "gradcheck.txt", "only_base.txt", "only_head.txt",
        "prep/counts.txt", "train_fusion/train_log.txt"])


def test_identity_takes_no_timing_arguments(pairs):
    with pytest.raises(SystemExit):
        pairs.main(["--base", "HEAD", "--head", "HEAD", "--identity", "--pairs", "2"])
    with pytest.raises(SystemExit):
        pairs.main(["--base", "HEAD", "--head", "HEAD", "--pairs", "2"])
