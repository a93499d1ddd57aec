"""Imbalance-aware evaluation metrics.

Balanced accuracy is the macro average of per-class recall (the standard
multi-class generalization; the binary TPR/TNR average reduces to it).
Precision of a never-predicted class is defined as 0, with a warning flag
carried in the report. Both macro and micro recall are reported; micro
recall in single-label classification equals plain accuracy. Macro recall,
the mean of per-class recall, is balanced accuracy by definition, so the
`recall` column of `comparison.txt` and of the ablation tables always repeats
`balanced_accuracy`. Which recall the paper reports stays open until its text
is in the repository (ROADMAP item 7).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError


@dataclass
class ConfusionMatrix:
    counts: np.ndarray           # (C, C), rows = true class, cols = predicted
    class_names: list

    def total(self):
        return int(self.counts.sum())

    def row_normalized(self):
        sums = self.counts.sum(axis=1, keepdims=True).astype(float)
        with np.errstate(invalid="ignore", divide="ignore"):
            norm = np.where(sums > 0, self.counts / sums, 0.0)
        return norm


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


def recall_per_class(cm):
    support = cm.counts.sum(axis=1).astype(float)
    diag = np.diag(cm.counts).astype(float)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(support > 0, diag / support, 0.0)


def precision_per_class(cm):
    predicted = cm.counts.sum(axis=0).astype(float)
    diag = np.diag(cm.counts).astype(float)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(predicted > 0, diag / predicted, 0.0)


def balanced_accuracy(cm):
    """Mean per-class recall; every class must appear in the labels."""
    support = cm.counts.sum(axis=1)
    empty = np.nonzero(support == 0)[0]
    if empty.size:
        name = cm.class_names[int(empty[0])]
        raise DataError(f"class {name!r} has zero support in the evaluated labels")
    return float(recall_per_class(cm).mean())


def f1_per_class(cm):
    r = recall_per_class(cm)
    p = precision_per_class(cm)
    num = 2.0 * r * p
    den = r + p
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(den > 0, num / den, 0.0)


def report(preds, labels, class_names):
    """Full evaluation report from raw predictions."""
    cm = confusion(preds, labels, class_names)
    ba = balanced_accuracy(cm)
    recalls = recall_per_class(cm)
    precisions = precision_per_class(cm)
    f1s = f1_per_class(cm)
    support = cm.counts.sum(axis=1)
    predicted = cm.counts.sum(axis=0)
    never = [class_names[i] for i in range(len(class_names)) if predicted[i] == 0]
    per_class = [
        {
            "name": class_names[i],
            "support": int(support[i]),
            "recall": float(recalls[i]),
            "precision": float(precisions[i]),
            "f1": float(f1s[i]),
        }
        for i in range(len(class_names))
    ]
    micro = float(np.diag(cm.counts).sum() / max(cm.total(), 1))
    return EvalReport(
        balanced_accuracy=ba,
        macro_f1=float(f1s.mean()),
        macro_recall=float(recalls.mean()),
        micro_recall=micro,
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
