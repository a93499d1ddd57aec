"""Metrics against brute-force tally oracles."""

import json

import numpy as np
import pytest

from trajbehav.errors import DataError
from trajbehav.metrics import (
    ConfusionMatrix,
    balanced_accuracy,
    confusion,
    f1_per_class,
    format_report,
    precision_per_class,
    recall_per_class,
    report,
)


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

    def test_total_count(self, rng):
        preds = rng.integers(0, 3, size=50)
        labels = rng.integers(0, 3, size=50)
        assert confusion(preds, labels, list("ABC")).total() == 50


class TestBalancedAccuracy:
    def test_perfect(self):
        labels = np.array([0, 1, 1, 0])
        cm = confusion(labels, labels, ["A", "B"])
        assert balanced_accuracy(cm) == 1.0

    def test_constant_predictor_balanced_binary(self):
        labels = np.array([0, 0, 1, 1])
        cm = confusion(np.zeros(4, dtype=int), labels, ["A", "B"])
        assert balanced_accuracy(cm) == 0.5

    def test_equals_mean_per_class_recall(self):
        for trial in range(1000):
            r = np.random.default_rng(trial + 5000)
            c = int(r.integers(2, 6))
            labels = np.concatenate([np.arange(c), r.integers(0, c, size=40)])
            preds = r.integers(0, c, size=labels.size)
            cm = confusion(preds, labels, [str(i) for i in range(c)])
            tp, fp, fn = tally_oracle(preds, labels, c)
            recalls = tp / (tp + fn)
            assert abs(balanced_accuracy(cm) - recalls.mean()) < 1e-12

    def test_zero_support_class_raises_with_name(self):
        cm = ConfusionMatrix(np.array([[3, 0], [0, 0]]), ["A", "B"])
        with pytest.raises(DataError, match="'B'"):
            balanced_accuracy(cm)

    def test_scale_invariance(self, rng):
        counts = rng.integers(0, 9, size=(3, 3))
        counts += np.eye(3, dtype=counts.dtype)  # nonzero support
        a = balanced_accuracy(ConfusionMatrix(counts, list("ABC")))
        b = balanced_accuracy(ConfusionMatrix(counts * 7, list("ABC")))
        assert abs(a - b) < 1e-12


class TestRecallPrecision:
    def test_diagonal_all_ones(self):
        cm = ConfusionMatrix(np.diag([4, 2, 9]), list("ABC"))
        assert np.allclose(recall_per_class(cm), 1.0)
        assert np.allclose(precision_per_class(cm), 1.0)

    def test_never_predicted_convention(self):
        cm = ConfusionMatrix(np.array([[2, 0], [1, 0]]), ["A", "B"])
        assert precision_per_class(cm)[1] == 0.0
        assert recall_per_class(cm)[1] == 0.0

    def test_matches_tally(self):
        for trial in range(1000):
            r = np.random.default_rng(trial + 999)
            c = int(r.integers(2, 6))
            labels = np.concatenate([np.arange(c), r.integers(0, c, size=30)])
            preds = r.integers(0, c, size=labels.size)
            cm = confusion(preds, labels, [str(i) for i in range(c)])
            tp, fp, fn = tally_oracle(preds, labels, c)
            r_expect = np.where(tp + fn > 0, tp / np.maximum(tp + fn, 1), 0.0)
            p_expect = np.where(tp + fp > 0, tp / np.maximum(tp + fp, 1), 0.0)
            assert np.abs(recall_per_class(cm) - r_expect).max() < 1e-12
            assert np.abs(precision_per_class(cm) - p_expect).max() < 1e-12


class TestF1:
    def test_perfect(self):
        labels = np.array([0, 1, 0, 1])
        assert f1_per_class(confusion(labels, labels, ["A", "B"])).mean() == 1.0

    def test_beta1_identity_when_p_equals_r(self):
        # symmetric confusion: per-class precision == recall
        cm = ConfusionMatrix(np.array([[8, 2], [2, 8]]), ["A", "B"])
        assert abs(f1_per_class(cm).mean() - balanced_accuracy(cm)) < 1e-12

    def test_zero_when_no_tp(self):
        cm = ConfusionMatrix(np.array([[0, 3], [4, 0]]), ["A", "B"])
        assert np.allclose(f1_per_class(cm), 0.0)


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
