"""Metrics against brute-force tally oracles."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajbehav.errors import DataError
from trajbehav.metrics import ConfusionMatrix, confusion, format_report, report


def tally_oracle(preds, labels, c):
    """Independent per-class TP/FP/FN tally."""
    tp = np.zeros(c)
    fp = np.zeros(c)
    fn = np.zeros(c)
    for p, l in zip(preds, labels):
        if p == l:
            tp[l] += 1
        else:
            fp[p] += 1
            fn[l] += 1
    return tp, fp, fn


def report_of(counts, names):
    """`report` of predictions whose confusion matrix is `counts`."""
    counts = np.asarray(counts)
    c = len(counts)
    labels = np.repeat(np.repeat(np.arange(c), c), counts.ravel())
    preds = np.repeat(np.tile(np.arange(c), c), counts.ravel())
    return report(preds, labels, names)


def column(rep, key):
    return np.array([c[key] for c in rep.per_class])


class TestConfusion:
    def test_perfect_predictions_diagonal(self):
        labels = np.array([0, 1, 2, 1, 0])
        cm = confusion(labels, labels, ["A", "B", "C"])
        assert np.array_equal(cm.counts, np.diag([2, 2, 1]))

    def test_constant_predictor_single_column(self):
        labels = np.array([0, 1, 2, 1])
        cm = confusion(np.zeros(4, dtype=int), labels, ["A", "B", "C"])
        assert cm.counts[:, 1:].sum() == 0
        assert list(cm.counts[:, 0]) == [1, 2, 1]

    def test_matches_pairwise_counting(self):
        for trial in range(1000):
            r = np.random.default_rng(trial)
            c = int(r.integers(2, 7))
            n = int(r.integers(1, 60))
            preds = r.integers(0, c, size=n)
            labels = r.integers(0, c, size=n)
            cm = confusion(preds, labels, [str(i) for i in range(c)])
            expect = np.zeros((c, c), dtype=int)
            for k in range(n):
                expect[labels[k], preds[k]] += 1
            assert np.array_equal(cm.counts, expect)

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            confusion(np.array([0, 1]), np.array([0]), ["A", "B"])

    def test_out_of_range(self):
        with pytest.raises(DataError):
            confusion(np.array([0, 2]), np.array([0, 0]), ["A", "B"])

    def test_row_normalized_empty_row_is_zero(self):
        cm = ConfusionMatrix(np.array([[1, 3], [0, 0]]), ["A", "B"])
        assert cm.row_normalized().tolist() == [[0.25, 0.75], [0.0, 0.0]]


class TestReportAgainstTally:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda c: st.tuples(
        st.just(c), st.booleans(),
        st.lists(st.tuples(st.integers(0, c - 1), st.integers(0, c - 1)), max_size=40))))
    def test_every_number_matches_the_tally(self, case):
        c, every_class, pairs = case
        names = [f"class{i}" for i in range(c)]
        preds = np.array([p for p, _ in pairs], dtype=np.int64)
        labels = np.array([y for _, y in pairs], dtype=np.int64)
        if every_class:
            preds = np.concatenate([preds, np.roll(np.arange(c), 1)])
            labels = np.concatenate([labels, np.arange(c)])
        tp, fp, fn = tally_oracle(preds, labels, c)
        support = tp + fn
        if (support == 0).any():
            first = names[int(np.nonzero(support == 0)[0][0])]
            with pytest.raises(DataError, match=f"^class '{first}' has zero support"):
                report(preds, labels, names)
            return
        rep = report(preds, labels, names)
        recall = tp / support
        precision = np.where(tp + fp > 0, tp / np.maximum(tp + fp, 1), 0.0)
        f1 = 2 * tp / (2 * tp + fp + fn)
        assert [x["name"] for x in rep.per_class] == names
        assert np.array_equal(column(rep, "support"), support)
        assert np.abs(column(rep, "recall") - recall).max() < 1e-12
        assert np.abs(column(rep, "precision") - precision).max() < 1e-12
        assert np.abs(column(rep, "f1") - f1).max() < 1e-12
        assert rep.balanced_accuracy == rep.macro_recall
        assert abs(rep.macro_recall - recall.mean()) < 1e-12
        assert abs(rep.macro_f1 - f1.mean()) < 1e-12
        assert abs(rep.micro_recall - tp.sum() / labels.size) < 1e-12
        assert rep.never_predicted == [names[i] for i in range(c) if tp[i] + fp[i] == 0]

    def test_constant_predictor_balanced_binary(self):
        labels = np.array([0, 0, 1, 1])
        assert report(np.zeros(4, dtype=int), labels, ["A", "B"]).balanced_accuracy == 0.5

    def test_zero_support_class_raises_with_name(self):
        with pytest.raises(DataError, match="'B'"):
            report(np.zeros(3, dtype=int), np.zeros(3, dtype=int), ["A", "B"])

    def test_scale_invariance(self, rng):
        counts = rng.integers(0, 9, size=(3, 3))
        counts += np.eye(3, dtype=counts.dtype)  # nonzero support
        a = report_of(counts, list("ABC"))
        b = report_of(counts * 7, list("ABC"))
        assert abs(a.balanced_accuracy - b.balanced_accuracy) < 1e-12
        assert abs(a.macro_f1 - b.macro_f1) < 1e-12

    def test_diagonal_all_ones(self):
        rep = report_of(np.diag([4, 2, 9]), list("ABC"))
        assert np.allclose(column(rep, "recall"), 1.0)
        assert np.allclose(column(rep, "precision"), 1.0)

    def test_never_predicted_convention(self):
        rep = report_of([[2, 0], [1, 0]], ["A", "B"])
        assert rep.per_class[1]["precision"] == 0.0
        assert rep.per_class[1]["recall"] == 0.0
        assert rep.per_class[1]["f1"] == 0.0
        assert rep.never_predicted == ["B"]

    def test_f1_equals_recall_when_precision_does(self):
        # symmetric confusion: per-class precision == recall
        rep = report_of([[8, 2], [2, 8]], ["A", "B"])
        assert abs(rep.macro_f1 - rep.balanced_accuracy) < 1e-12

    def test_f1_zero_when_no_tp(self):
        rep = report_of([[0, 3], [4, 0]], ["A", "B"])
        assert np.allclose(column(rep, "f1"), 0.0)


class TestReport:
    def test_perfect_predictions_all_ones(self):
        labels = np.array([0, 1, 2, 0, 1, 2])
        rep = report(labels, labels, list("ABC"))
        assert rep.balanced_accuracy == 1.0
        assert rep.macro_f1 == 1.0
        assert rep.macro_recall == 1.0
        assert rep.micro_recall == 1.0

    def test_headline_metrics_in_unit_interval(self):
        for trial in range(200):
            r = np.random.default_rng(trial)
            c = int(r.integers(2, 6))
            labels = np.concatenate([np.arange(c), r.integers(0, c, size=25)])
            preds = r.integers(0, c, size=labels.size)
            rep = report(preds, labels, [str(i) for i in range(c)])
            for v in (rep.balanced_accuracy, rep.macro_f1, rep.macro_recall,
                      rep.micro_recall):
                assert 0.0 <= v <= 1.0

    def test_macro_recall_equals_mean_per_class(self, rng):
        labels = np.concatenate([np.arange(4), rng.integers(0, 4, size=60)])
        preds = rng.integers(0, 4, size=labels.size)
        rep = report(preds, labels, list("ABCD"))
        per = [c["recall"] for c in rep.per_class]
        assert abs(rep.macro_recall - np.mean(per)) < 1e-12
        assert abs(rep.balanced_accuracy - rep.macro_recall) < 1e-12

    def test_depends_only_on_confusion(self, rng):
        # two (preds, labels) pairs with identical confusion matrices
        labels1 = np.array([0, 0, 1, 1])
        preds1 = np.array([0, 1, 1, 0])
        labels2 = np.array([1, 1, 0, 0])
        preds2 = np.array([0, 1, 1, 0])
        r1 = report(preds1, labels1, ["A", "B"])
        r2 = report(preds2, labels2, ["A", "B"])
        assert np.array_equal(r1.confusion.counts, r2.confusion.counts)
        assert r1.balanced_accuracy == r2.balanced_accuracy
        assert r1.macro_f1 == r2.macro_f1

    def test_serialization_roundtrip(self, rng):
        labels = np.concatenate([np.arange(3), rng.integers(0, 3, size=30)])
        preds = rng.integers(0, 3, size=labels.size)
        rep = report(preds, labels, list("ABC"))
        assert json.loads(json.dumps(rep.to_dict())) == rep.to_dict()

    def test_format_mentions_never_predicted(self):
        labels = np.array([0, 0, 1, 1])
        preds = np.array([0, 0, 0, 0])
        text = format_report(report(preds, labels, ["A", "B"]))
        assert "never-predicted" in text
        assert "B" in text
