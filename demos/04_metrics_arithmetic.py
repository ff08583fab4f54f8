"""Confusion-matrix arithmetic, including the degenerate corners.

Run:  python demos/04_metrics_arithmetic.py
"""

from vrboost.metrics import (ConfusionMatrix, confusion, correct_incorrect,
                             f1_score, scores)

# A confusion matrix is just four counts; every reported number derives from
# them. 177 correct out of 229 is accuracy 0.7729.
cm = ConfusionMatrix(tp=125, fp=20, fn=32, tn=52)
report = scores(cm)
correct, incorrect = correct_incorrect(cm)
print(f"counts tp={cm.tp} fp={cm.fp} fn={cm.fn} tn={cm.tn}")
print(f"correct/incorrect: {correct}/{incorrect}")
print(f"accuracy  {report.accuracy:.4f}")
print(f"precision {report.precision:.4f}")
print(f"recall    {report.recall:.4f}")
print(f"f1        {report.f1:.4f}")

# F1 is the harmonic mean, so it always sits between precision and recall,
# hugging the smaller one.
print(f"\nf1(0.88, 0.77) = {f1_score(0.88, 0.77):.4f}")
print(f"f1(0.87, 0.57) = {f1_score(0.87, 0.57):.4f}")

# Degenerate cells (0/0) report 0 and are flagged instead of going NaN, so
# report files stay parseable and the condition stays visible.
shy = scores(ConfusionMatrix(tp=0, fp=0, fn=4, tn=6))
print(f"\nnever predicts positive: precision {shy.precision}, "
      f"flags {list(shy.degenerate)}")

# From raw label lists:
preds = [1, 1, 0, 0, 1, 0]
truth = [1, 0, 0, 1, 1, 0]
labelled = confusion(preds, truth)
print("\nfrom labels:", labelled, scores(labelled))
