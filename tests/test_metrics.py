import math

import numpy as np
import pytest

from vrboost.metrics import (ConfusionMatrix, confusion, correct_incorrect,
                             f1_score, scores)
from vrboost.numerics import Rng


def test_confusion_all_correct():
    cm = confusion([1, 0, 1], [1, 0, 1])
    assert (cm.tp, cm.tn, cm.fp, cm.fn) == (2, 1, 0, 0)


def test_confusion_all_false_positives():
    cm = confusion([1] * 5, [0] * 5)
    assert (cm.tp, cm.fp, cm.fn, cm.tn) == (0, 5, 0, 0)


def test_confusion_mixed_cells():
    cm = confusion([1, 1, 0, 0], [1, 0, 1, 0])
    assert (cm.tp, cm.fp, cm.fn, cm.tn) == (1, 1, 1, 1)


def test_confusion_validation():
    with pytest.raises(ValueError):
        confusion([1, 0], [1])
    with pytest.raises(ValueError):
        confusion([], [])
    with pytest.raises(ValueError):
        confusion([1, 2], [1, 0])


def test_scores_hand_case():
    report = scores(ConfusionMatrix(tp=3, fp=1, fn=2, tn=4))
    assert report.accuracy == pytest.approx(0.7, abs=1e-15)
    assert report.precision == pytest.approx(0.75, abs=1e-15)
    assert report.recall == pytest.approx(0.6, abs=1e-15)
    assert report.f1 == pytest.approx(2 / 3, abs=1e-12)
    assert report.degenerate == ()


def test_f1_matches_reported_values():
    assert f1_score(0.88, 0.77) == pytest.approx(0.8213, abs=0.005)
    assert f1_score(0.88, 0.77) == pytest.approx(0.8213333333333334, abs=1e-12)
    assert f1_score(0.87, 0.57) == pytest.approx(0.68875, abs=1e-12)


def test_degenerate_cells_flagged_not_nan():
    no_positive_preds = scores(ConfusionMatrix(tp=0, fp=0, fn=3, tn=5))
    assert no_positive_preds.precision == 0.0
    assert "precision" in no_positive_preds.degenerate
    assert "f1" in no_positive_preds.degenerate
    no_positive_truths = scores(ConfusionMatrix(tp=0, fp=2, fn=0, tn=5))
    assert no_positive_truths.recall == 0.0
    assert "recall" in no_positive_truths.degenerate
    with pytest.raises(ValueError):
        scores(ConfusionMatrix(0, 0, 0, 0))


def test_correct_incorrect_totals():
    train_like = ConfusionMatrix(tp=125, fp=20, fn=32, tn=52)
    assert correct_incorrect(train_like) == (177, 52)
    assert (177 / 229) == pytest.approx(0.7729, abs=5e-5)
    test_like = ConfusionMatrix(tp=40, fp=10, fn=43, tn=127)
    assert correct_incorrect(test_like) == (167, 53)
    assert (167 / 220) == pytest.approx(0.7591, abs=5e-5)
    assert correct_incorrect(ConfusionMatrix(0, 0, 0, 0)) == (0, 0)


def _random_matrix(rng):
    return ConfusionMatrix(tp=rng.randint(0, 30), fp=rng.randint(0, 30),
                           fn=rng.randint(0, 30), tn=rng.randint(1, 30))


def test_accuracy_equals_correct_fraction():
    rng = Rng(1)
    for _ in range(50):
        cm = _random_matrix(rng)
        correct, incorrect = correct_incorrect(cm)
        assert scores(cm).accuracy == correct / (correct + incorrect)


def test_f1_between_precision_and_recall():
    rng = Rng(2)
    for _ in range(50):
        cm = _random_matrix(rng)
        report = scores(cm)
        if report.precision > 0 and report.recall > 0:
            assert min(report.precision, report.recall) <= report.f1 + 1e-15
            assert report.f1 <= max(report.precision, report.recall) + 1e-15


def test_class_swap_symmetry():
    rng = Rng(3)
    for _ in range(30):
        n = rng.randint(4, 60)
        preds = np.array([rng.randint(0, 1) for _ in range(n)])
        truths = np.array([rng.randint(0, 1) for _ in range(n)])
        cm = confusion(preds, truths)
        swapped = confusion(1 - preds, 1 - truths)
        # class-0 precision/recall of the original are class-1 metrics after relabel
        assert (swapped.tp, swapped.fp, swapped.fn, swapped.tn) == \
            (cm.tn, cm.fn, cm.fp, cm.tp)
        if cm.tn + cm.fn > 0:
            assert scores(swapped).precision == cm.tn / (cm.tn + cm.fn)
        if cm.tn + cm.fp > 0:
            assert scores(swapped).recall == cm.tn / (cm.tn + cm.fp)


def test_scores_is_pure():
    cm = ConfusionMatrix(tp=7, fp=3, fn=2, tn=8)
    assert scores(cm) == scores(cm)
