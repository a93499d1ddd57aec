"""Imbalance-aware evaluation metrics.

`report` is the one computation of every evaluation number. It counts the
confusion matrix, requires every class to appear in the labels, and then
computes per-class recall, precision and F1 once each. Balanced accuracy is
the mean of that recall (the standard multi-class generalization; the binary
TPR/TNR average reduces to it), and so is macro recall: the `recall` column
of `comparison.txt` and of the ablation tables always repeats
`balanced_accuracy`. Which recall the paper reports stays open until its text
is in the repository (ROADMAP item 8). Micro recall, in single-label
classification, equals plain accuracy.

A ratio whose denominator is 0 is defined as 0: the precision of a
never-predicted class (flagged in the report), the F1 of a class with neither
recall nor precision, and a row of the normalized matrix with no samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError


@dataclass
class ConfusionMatrix:
    counts: np.ndarray           # (C, C), rows = true class, cols = predicted
    class_names: list

    def row_normalized(self):
        return _ratio(self.counts, self.counts.sum(axis=1, keepdims=True))


@dataclass
class EvalReport:
    balanced_accuracy: float
    macro_f1: float
    macro_recall: float
    micro_recall: float
    per_class: list              # dicts: name, support, recall, precision, f1
    confusion: ConfusionMatrix
    never_predicted: list = field(default_factory=list)

    def to_dict(self):
        return {
            "balanced_accuracy": self.balanced_accuracy,
            "macro_f1": self.macro_f1,
            "macro_recall": self.macro_recall,
            "micro_recall": self.micro_recall,
            "per_class": self.per_class,
            "class_names": self.confusion.class_names,
            "confusion_counts": self.confusion.counts.tolist(),
            "never_predicted": self.never_predicted,
        }


def _ratio(num, den):
    """num / den elementwise, 0 where den is 0."""
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(den > 0, num / den, 0.0)


def confusion(preds, labels, class_names):
    """Count matrix with counts[i][j] = #{labels==i and preds==j}."""
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    if preds.shape != labels.shape or preds.ndim != 1:
        raise DataError(
            f"predictions and labels must be equal-length vectors, "
            f"got {preds.shape} vs {labels.shape}"
        )
    c = len(class_names)
    for name, vec in (("predictions", preds), ("labels", labels)):
        bad = np.nonzero((vec < 0) | (vec >= c))[0]
        if bad.size:
            raise DataError(
                f"{name} contain out-of-range class {int(vec[bad[0]])} "
                f"at position {int(bad[0])} (num classes {c})"
            )
    counts = np.zeros((c, c), dtype=np.int64)
    np.add.at(counts, (labels, preds), 1)
    return ConfusionMatrix(counts=counts, class_names=list(class_names))


def report(preds, labels, class_names):
    """Full evaluation report from raw predictions; every class must appear
    in the labels."""
    cm = confusion(preds, labels, class_names)
    support = cm.counts.sum(axis=1)
    empty = np.nonzero(support == 0)[0]
    if empty.size:
        name = cm.class_names[int(empty[0])]
        raise DataError(f"class {name!r} has zero support in the evaluated labels")
    predicted = cm.counts.sum(axis=0)
    diag = np.diag(cm.counts)
    recalls = diag / support
    precisions = _ratio(diag, predicted)
    f1s = _ratio(2.0 * recalls * precisions, recalls + precisions)
    never = [name for name, p in zip(cm.class_names, predicted) if p == 0]
    per_class = [
        {
            "name": name,
            "support": int(support[i]),
            "recall": float(recalls[i]),
            "precision": float(precisions[i]),
            "f1": float(f1s[i]),
        }
        for i, name in enumerate(cm.class_names)
    ]
    macro_recall = float(recalls.mean())
    return EvalReport(
        balanced_accuracy=macro_recall,
        macro_f1=float(f1s.mean()),
        macro_recall=macro_recall,
        micro_recall=float(diag.sum() / support.sum()),
        per_class=per_class,
        confusion=cm,
        never_predicted=never,
    )


def format_report(rep):
    """Human-readable metrics table."""
    lines = []
    lines.append(f"balanced_accuracy {rep.balanced_accuracy:.6f}")
    lines.append(f"macro_f1          {rep.macro_f1:.6f}")
    lines.append(f"macro_recall      {rep.macro_recall:.6f}")
    lines.append(f"micro_recall      {rep.micro_recall:.6f}")
    lines.append("")
    width = max(len(c["name"]) for c in rep.per_class)
    lines.append(
        f"{'class':<{width}}  {'support':>7}  {'recall':>8}  {'precision':>9}  {'f1':>8}"
    )
    for c in rep.per_class:
        lines.append(
            f"{c['name']:<{width}}  {c['support']:>7d}  {c['recall']:>8.4f}  "
            f"{c['precision']:>9.4f}  {c['f1']:>8.4f}"
        )
    if rep.never_predicted:
        lines.append("")
        lines.append(
            "warning: precision defined as 0 for never-predicted classes: "
            + ", ".join(rep.never_predicted)
        )
    return "\n".join(lines) + "\n"
