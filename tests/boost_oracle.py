"""Brute-force boosting oracle for small 1-D stump datasets.

Re-implements the whole round loop independently: exhaustive stump
enumeration (feature ascending, one cut below the minimum then every
midpoint, polarity +1 before -1, strictly-smaller error wins) and the
textbook error/vote/update arithmetic. Shares only the convention, not the
code, with the production path, so trajectories can be compared bit for bit.

OracleStump wraps oracle_best_stump in the weak-learner interface
boost_train and ensemble_predict take (fit, predict and predict_all, and
stump_factory for the factory), so the checks that boost stumps run this
one stump search.
"""

import math

import numpy as np

# 1-D datasets (<= 10 points) used for the exact-trajectory comparisons
FIXTURES = {
    "classic_ten": ([0, 1, 2, 3, 4, 5, 6, 7, 8, 9],
                    [1, 1, 1, 0, 0, 0, 1, 1, 1, 0]),
    "eight_mixed": ([0, 1, 2, 3, 4, 5, 6, 7],
                    [1, 1, 0, 0, 1, 0, 1, 0]),
    "duplicates": ([1, 1, 2, 3, 5, 5, 7, 8],
                   [1, 0, 1, 0, 1, 0, 0, 1]),
    "separable": ([0, 1, 2, 3, 4, 5, 6, 7],
                  [0, 0, 0, 0, 1, 1, 1, 1]),
    "tiny": ([2, 9], [0, 1]),
}


def oracle_best_stump(X, y_signed, d):
    """(error, (feature, threshold, polarity), predictions) of the best stump."""
    n, n_features = X.shape
    best = None
    for feature in range(n_features):
        col = X[:, feature]
        vals = sorted(set(col.tolist()))
        cuts = [vals[0] - 1.0]
        cuts += [0.5 * (vals[k] + vals[k + 1]) for k in range(len(vals) - 1)]
        for threshold in cuts:
            for polarity in (1, -1):
                preds = np.array([polarity if col[i] >= threshold else -polarity
                                  for i in range(n)])
                err = math.fsum(d[i] for i in range(n) if preds[i] != y_signed[i])
                if best is None or err < best[0]:
                    best = (err, (feature, threshold, polarity), preds)
    return best


class OracleStump:
    """Single-feature threshold rule: vote polarity where x[feature] >= threshold,
    -polarity elsewhere; fit() keeps oracle_best_stump's choice."""

    def __init__(self, feature=0, threshold=0.0, polarity=1):
        self.feature, self.threshold, self.polarity = feature, threshold, polarity

    def fit(self, X, signed_labels, weights) -> "OracleStump":
        _, (self.feature, self.threshold, self.polarity), _ = oracle_best_stump(
            np.asarray(X, dtype=float), np.asarray(signed_labels),
            np.asarray(weights, dtype=float))
        return self

    def predict(self, X) -> np.ndarray:
        """One -1/+1 vote per row of the (N, D) matrix X."""
        column = np.asarray(X)[:, self.feature]
        return np.where(column >= self.threshold, self.polarity, -self.polarity)

    @staticmethod
    def predict_all(stumps, X) -> np.ndarray:
        """The (K, N) votes of K stumps on the rows of X, row k being stumps[k]'s."""
        return np.array([stump.predict(X) for stump in stumps])


def stump_factory(seed: int) -> OracleStump:
    """boost_train's learner factory; the search is deterministic, seed unused."""
    return OracleStump()


def oracle_boost(X, labels01, rounds, epsilon_floor=1e-10):
    """Full enumeration boosting; returns a list of per-round dicts.

    Each entry carries epsilon, alpha, the post-update weight vector (the
    untouched training distribution for an early-stopped perfect round), and
    the chosen stump. Rounds with error >= 0.5 are discarded with a weight
    reset and still count against the budget.
    """
    X = np.asarray(X, dtype=float)
    y = 2 * np.asarray(labels01, dtype=int) - 1
    n = len(y)
    d = np.full(n, 1.0 / n)
    entries = []
    for _ in range(rounds):
        err, stump, preds = oracle_best_stump(X, y, d)
        if err >= 0.5:
            d = np.full(n, 1.0 / n)
            continue
        eps = min(max(err, epsilon_floor), 1.0 - epsilon_floor)
        a = 0.5 * math.log((1.0 - eps) / eps)
        if err <= epsilon_floor:
            entries.append({"epsilon": err, "alpha": a, "weights": d.copy(),
                            "stump": stump, "preds": preds})
            break
        raw = d * np.exp(-a * y.astype(float) * preds.astype(float))
        d = raw / math.fsum(raw)
        entries.append({"epsilon": err, "alpha": a, "weights": d.copy(),
                        "stump": stump, "preds": preds})
    return entries


def oracle_margins(entries, X):
    """Ensemble margins sum(alpha_t * h_t(x)) from the oracle's own stumps."""
    X = np.asarray(X, dtype=float)
    margins = []
    for row in X:
        total = math.fsum(
            e["alpha"] * (e["stump"][2] if row[e["stump"][0]] >= e["stump"][1]
                          else -e["stump"][2])
            for e in entries)
        margins.append(total)
    return margins
