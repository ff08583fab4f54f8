"""AdaBoost round by round on the classic ten-point threshold puzzle.

No single threshold rule classifies this sequence, but three reweighted
stumps together get every point right.

Run:  python demos/02_boosting_round_by_round.py
"""

import math

import numpy as np

from vrboost.boosting import (BoostConfig, boost_train, ensemble_predict, vote_predict,
                              weighted_error)


class Stump:
    """Threshold rule on the one feature: vote polarity where x >= threshold,
    -polarity elsewhere.

    fit() tries a cut below the smallest x and every midpoint of neighbouring
    distinct values, each with polarity +1 then -1, and keeps the first rule
    of least weighted error. predict() votes on the rows of X, and
    predict_all() gives the votes of a list of stumps, as boost_train and
    ensemble_predict expect of a weak learner.
    """

    def fit(self, X, signed_labels, weights):
        x = X[:, 0]
        values = np.unique(x)
        best = math.inf
        for threshold in [values[0] - 1.0, *(0.5 * (values[:-1] + values[1:]))]:
            for polarity in (1, -1):
                err = weighted_error(np.where(x >= threshold, polarity, -polarity),
                                     signed_labels, weights)
                if err < best:
                    best, self.threshold, self.polarity = err, threshold, polarity
        return self

    def predict(self, X):
        return np.where(X[:, 0] >= self.threshold, self.polarity, -self.polarity)

    @staticmethod
    def predict_all(stumps, X):
        """One row of votes per stump: the one call an ensemble's scoring makes."""
        return np.array([stump.predict(X) for stump in stumps])

X = np.arange(10.0)[:, None]  # one feature per row
labels = np.array([1, 1, 1, 0, 0, 0, 1, 1, 1, 0])

print("x      :", " ".join(f"{int(x):>5d}" for x in X[:, 0]))
print("label  :", " ".join(f"{y:>5d}" for y in labels))

ensemble, log = boost_train(X, labels, BoostConfig(rounds=3, seed=0), lambda seed: Stump())

# Each round: the best stump on the current weights, its weighted error, its
# vote, and the reweighted distribution (misclassified points gain mass).
for entry, r in zip(log, ensemble.rounds):
    stump = r.learner
    side = ">=" if stump.polarity == 1 else "<"
    print(f"\nround {entry.round}: predict 1 when x {side} {stump.threshold:.1f}"
          f"   eps={entry.epsilon:.4f}  alpha={entry.alpha:.4f}")
    print("weights:", " ".join(f"{w:.3f}" for w in entry.weights))

# The exponential-loss bound prod 2*sqrt(eps(1-eps)) caps the training error.
# Each round's log keeps its stump's votes on X, so no stump predicts again.
alphas, votes = [e.alpha for e in log], [e.votes for e in log]
staged = [float(np.sum(vote_predict(alphas[:k], votes[:k])[0] != labels)) / len(labels)
          for k in range(1, len(log) + 1)]
bound = math.prod(2 * math.sqrt(e.epsilon * (1 - e.epsilon)) for e in log)
print("\nstaged training error:", [f"{e:.2f}" for e in staged])
print(f"bound {bound:.4f} >= final error {staged[-1]:.4f}")

labels, margins = ensemble_predict(ensemble, X)
print("margins:", " ".join(f"{m:+.2f}" for m in margins))
print("labels :", " ".join(f"{label:>5d}" for label in labels))
