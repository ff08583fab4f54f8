"""AdaBoost round by round on the classic ten-point threshold puzzle.

No single threshold rule classifies this sequence, but three reweighted
stumps together get every point right.

Run:  python demos/02_boosting_round_by_round.py
"""

import math

import numpy as np

from vrboost.boosting import (BoostConfig, boost_train, ensemble_predict,
                              staged_train_error, stump_factory)

X = np.arange(10.0)[:, None]  # one feature per row
labels = np.array([1, 1, 1, 0, 0, 0, 1, 1, 1, 0])

print("x      :", " ".join(f"{int(x):>5d}" for x in X[:, 0]))
print("label  :", " ".join(f"{y:>5d}" for y in labels))

ensemble, log = boost_train(X, labels, BoostConfig(rounds=3, seed=0), stump_factory)

# Each round: the best stump on the current weights, its weighted error, its
# vote, and the reweighted distribution (misclassified points gain mass).
for entry, r in zip(log, ensemble.rounds):
    stump = r.learner
    side = ">=" if stump.polarity == 1 else "<"
    print(f"\nround {entry.round}: predict 1 when x {side} {stump.threshold:.1f}"
          f"   eps={entry.epsilon:.4f}  alpha={entry.alpha:.4f}")
    print("weights:", " ".join(f"{w:.3f}" for w in entry.weights))

# The exponential-loss bound prod 2*sqrt(eps(1-eps)) caps the training error.
staged = staged_train_error(ensemble, X, labels)
bound = math.prod(2 * math.sqrt(e.epsilon * (1 - e.epsilon)) for e in log)
print("\nstaged training error:", [f"{e:.2f}" for e in staged])
print(f"bound {bound:.4f} >= final error {staged[-1]:.4f}")

labels, margins = ensemble_predict(ensemble, X)
print("margins:", " ".join(f"{m:+.2f}" for m in margins))
print("labels :", " ".join(f"{label:>5d}" for label in labels))
