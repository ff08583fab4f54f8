"""Binary confusion matrix and the accuracy/precision/recall/F1 report.

Positive class is label 1 throughout. Degenerate 0/0 ratios report 0.0 and
are named in the report's `degenerate` tuple instead of producing NaN.
"""

from dataclasses import dataclass

import numpy as np


@dataclass
class ConfusionMatrix:
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


@dataclass
class MetricReport:
    accuracy: float
    precision: float
    recall: float
    f1: float
    degenerate: tuple = ()


def confusion(preds, truths) -> ConfusionMatrix:
    """Count the four cells from {0,1} predictions against {0,1} truths."""
    preds = np.asarray(preds, dtype=int)
    truths = np.asarray(truths, dtype=int)
    if len(preds) != len(truths):
        raise ValueError("confusion: preds and truths must have equal length")
    if len(preds) == 0:
        raise ValueError("confusion: empty inputs")
    for name, arr in (("preds", preds), ("truths", truths)):
        if not np.all((arr == 0) | (arr == 1)):
            raise ValueError(f"confusion: {name} must contain only 0/1 labels")
    return ConfusionMatrix(
        tp=int(np.sum((preds == 1) & (truths == 1))),
        fp=int(np.sum((preds == 1) & (truths == 0))),
        fn=int(np.sum((preds == 0) & (truths == 1))),
        tn=int(np.sum((preds == 0) & (truths == 0))),
    )


def f1_score(precision: float, recall: float) -> float:
    """Harmonic mean of precision and recall; 0.0 when both are zero."""
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def scores(cm: ConfusionMatrix) -> MetricReport:
    """Accuracy, precision, recall, and F1 from the counts."""
    if cm.total <= 0:
        raise ValueError("scores: confusion matrix has no observations")
    accuracy = (cm.tp + cm.tn) / cm.total
    precision = cm.tp / (cm.tp + cm.fp) if cm.tp + cm.fp else 0.0
    recall = cm.tp / (cm.tp + cm.fn) if cm.tp + cm.fn else 0.0
    f1 = f1_score(precision, recall)
    denominators = (("precision", cm.tp + cm.fp), ("recall", cm.tp + cm.fn),
                    ("f1", precision + recall))
    degenerate = tuple(name for name, denominator in denominators if denominator == 0)
    return MetricReport(accuracy=accuracy, precision=precision, recall=recall, f1=f1,
                        degenerate=degenerate)


def correct_incorrect(cm: ConfusionMatrix) -> tuple:
    """(correct, incorrect) prediction totals: (tp+tn, fp+fn)."""
    return cm.tp + cm.tn, cm.fp + cm.fn
