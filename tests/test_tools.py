"""The repository tools: the line counter every change reports its size with,
`tools/src_lines.py`, the mutant sweep, `tools/mutants.py`, and the paired
benchmark runner's statistics, `tools/pairs.py`."""

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
