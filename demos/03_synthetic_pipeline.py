"""End-to-end pipeline on synthetic records with a planted signal.

Generates a schema-compatible dataset, encodes and splits it, trains a small
boosted-LSTM ensemble, and scores both splits. Uses a reduced configuration
so the demo finishes in a few seconds; drop the overrides for the full
protocol (10 rounds, 50 epochs).

Run:  python demos/03_synthetic_pipeline.py
"""

from vrboost.boosting import BoostConfig, boost_train, ensemble_predict, lstm_factory
from vrboost.data import (TargetSpec, apply_standardizer, encode, encode_labels,
                          fit_standardizer, gen_synthetic, majority_rate,
                          split_indices, synthetic_bayes_rate)
from vrboost.lstm import TrainConfig
from vrboost.metrics import confusion, scores

# 1. Synthesize records. ImmersionLevel follows a logistic link on motion
#    sickness, session duration, and headset; signal_strength 4 puts the
#    best achievable accuracy near 0.9.
#    The records come as a Table: one list per schema column, in row order.
table = gen_synthetic(n=400, seed=0, signal_strength=4.0)
print(f"generated {len(table)} records, "
      f"oracle accuracy {synthetic_bayes_rate(table, 4.0):.3f}")
print(f"first ages {table.columns['Age'][:5]}, "
      f"first headsets {table.columns['VRHeadset'][:2]}")

# 2. Encode to a (N, 9) feature matrix and N labels (ImmersionLevel >= 4 is
#    the default binary target), split 70/30, and standardize the numeric
#    features on the training side only.
X, labels = encode(table, TargetSpec()), encode_labels(table, TargetSpec())
train_idx, test_idx = split_indices(len(X), ratio=0.7, seed=0)
standardizer = fit_standardizer(X[train_idx])
train = apply_standardizer(standardizer, X[train_idx]), labels[train_idx]
test = apply_standardizer(standardizer, X[test_idx]), labels[test_idx]
print(f"split {len(train_idx)}/{len(test_idx)}, "
      f"majority baseline {majority_rate(test[1]):.3f}")

# 3. Boost small LSTM weak learners on the evolving sample weights.
ensemble, log = boost_train(*train, BoostConfig(rounds=4, seed=0),
                            lstm_factory(TrainConfig(max_epochs=10, hidden_dim=8)))
for entry in log:
    print(f"round {entry.round}: eps={entry.epsilon:.3f} alpha={entry.alpha:.3f}")

# 4. Score both splits.
for name, (X_split, truths) in (("train", train), ("test", test)):
    preds, _ = ensemble_predict(ensemble, X_split)
    report = scores(confusion(preds, truths))
    print(f"{name:<5}: accuracy {report.accuracy:.3f}  precision {report.precision:.3f}  "
          f"recall {report.recall:.3f}  f1 {report.f1:.3f}")
