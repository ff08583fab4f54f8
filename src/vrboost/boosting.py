"""AdaBoost driver: stagewise additive model over exchangeable weak learners.

Rounds train on an evolving sample distribution; each accepted round gets a
vote alpha = 0.5*ln((1-eps)/eps), the stagewise minimizer of the exponential
loss of the additive model. Labels are {0,1} at the data layer (POSITIVE
and NEGATIVE) and {-1,+1} inside the loop.

A decision stump learner lives here as an exhaustively-optimizable companion
so boosting runs can be checked against brute-force enumeration.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError, TrainingError
from . import lstm as lstm_mod
from .lstm import TrainConfig

POSITIVE, NEGATIVE = 1, 0

EPSILON_FLOOR = 1e-10  # a round error at or below it is perfect and ends boosting


def to_signed(labels) -> np.ndarray:
    """Map {0,1} labels to {-1,+1}."""
    labels = np.asarray(labels, dtype=int)
    return 2 * labels - 1


def init_weights(n: int) -> np.ndarray:
    """Uniform distribution 1/n over n examples."""
    if n < 1:
        raise ValueError("init_weights: n must be >= 1")
    return np.full(n, 1.0 / n)


def weighted_error(preds, truths, d) -> float:
    """Probability mass of misclassified examples under the distribution d."""
    preds = np.asarray(preds)
    truths = np.asarray(truths)
    d = np.asarray(d, dtype=float)
    if not (len(preds) == len(truths) == len(d)):
        raise ValueError("weighted_error: preds, truths, and d must have equal length")
    return math.fsum(d[preds != truths])


def alpha(epsilon: float) -> float:
    """Learner vote 0.5*ln((1-eps)/eps), eps clamped into [EPSILON_FLOOR, 1-EPSILON_FLOOR]."""
    eps = min(max(epsilon, EPSILON_FLOOR), 1.0 - EPSILON_FLOOR)
    return 0.5 * math.log((1.0 - eps) / eps)


def update_weights(d, alpha_t: float, preds, truths) -> np.ndarray:
    """Reweight d_i by exp(-alpha * truth_i * pred_i) and renormalize to sum 1.

    Misclassified examples gain mass, correct ones lose it; after the update
    the round's own predictions have weighted error exactly 1/2.
    """
    d = np.asarray(d, dtype=float)
    preds = np.asarray(preds, dtype=float)
    truths = np.asarray(truths, dtype=float)
    if not (len(preds) == len(truths) == len(d)):
        raise ValueError("update_weights: preds, truths, and d must have equal length")
    if not math.isfinite(alpha_t):
        raise ValueError("update_weights: alpha must be finite")
    raw = d * np.exp(-alpha_t * truths * preds)
    z = math.fsum(raw)
    if z <= 0:
        raise TrainingError("update_weights: all unnormalized mass vanished")
    return raw / z


@dataclass
class BoostConfig:
    """Round count and seed; the learner's settings travel with the learner
    factory."""

    rounds: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.rounds < 1:
            raise ValueError("BoostConfig: rounds must be >= 1")


@dataclass
class BoostRound:
    alpha: float
    learner: object


@dataclass
class Ensemble:
    """Trained additive model: alpha-weighted weak learners."""

    rounds: list


@dataclass
class RoundLog:
    """One accepted round: weighted error, vote, and the distribution after its update."""

    round: int
    epsilon: float
    alpha: float
    weights: np.ndarray


def boost_train(X, labels, cfg: BoostConfig, learner_factory):
    """Train up to cfg.rounds weak learners on the evolving distribution.

    X is the (N, D) feature matrix and labels its N labels in {0,1}, with
    both classes present. learner_factory(seed) must return an object with
    fit(X, signed_labels, weights) and predict(X) -> one -1/+1 vote per row
    of X; round t gets seed cfg.seed + t. A round with weighted error >= 0.5
    is discarded and the distribution reset to uniform (the attempt still
    counts); error at or below EPSILON_FLOOR is accepted with clamped error
    and stops early.

    Returns (Ensemble, list of RoundLog).
    """
    X = np.asarray(X, dtype=float)
    n = len(X)
    if n == 0:
        raise ValueError("boost_train: no examples")
    labels = np.asarray(labels, dtype=int)
    if X.ndim != 2 or labels.shape != (n,):
        raise ValueError(f"boost_train: need an (N, D) matrix and N labels, got shapes "
                         f"{X.shape} and {labels.shape}")
    if set(labels.tolist()) != {0, 1}:
        raise DataError("boost_train: training data must contain both classes")
    truths = to_signed(labels)

    d = init_weights(n)
    rounds, log = [], []
    for attempt in range(1, cfg.rounds + 1):
        learner = learner_factory(cfg.seed + attempt)
        learner.fit(X, truths, d)
        preds = learner.predict(X)
        eps = weighted_error(preds, truths, d)
        if eps >= 0.5:
            d = init_weights(n)  # learner no better than chance; restart the distribution
            continue
        a = alpha(eps)
        rounds.append(BoostRound(alpha=a, learner=learner))
        if eps <= EPSILON_FLOOR:
            # perfect learner: keep the distribution it was trained on and stop
            log.append(RoundLog(len(rounds), eps, a, d.copy()))
            break
        d = update_weights(d, a, preds, truths)
        log.append(RoundLog(len(rounds), eps, a, d.copy()))
    if not rounds:
        raise TrainingError("no weak learner beat chance")
    return Ensemble(rounds=rounds), log


def _votes(ensemble: Ensemble, X) -> list:
    """Each row's votes alpha_t * h_t(x), in round order, one list per row of
    the (N, D) matrix X; each learner predicts once."""
    if not ensemble.rounds:
        raise ValueError("empty ensemble: no rounds to vote")
    X = np.asarray(X, dtype=float)
    return np.array([r.alpha * r.learner.predict(X) for r in ensemble.rounds]).T.tolist()


def ensemble_predict(ensemble: Ensemble, X) -> tuple:
    """Return (labels in {0,1}, margins), one of each per row of the (N, D) matrix X.

    A row's margin is math.fsum of alpha_t * h_t(x) over the rounds, so it
    does not depend on the round order; a positive margin maps to the
    positive label, a tie (0) to the negative.
    """
    margins = np.array([math.fsum(row) for row in _votes(ensemble, X)])
    labels = np.where(margins > 0, POSITIVE, NEGATIVE)
    return labels, margins


def staged_train_error(ensemble: Ensemble, X, labels) -> list:
    """Unweighted error on the rows of X, labels in {0,1}, of every prefix of
    the ensemble's rounds: the k-th is that of ensemble_predict on the first
    k rounds, whose margins it sums as ensemble_predict does."""
    votes = _votes(ensemble, X)
    errors = []
    for k in range(1, len(ensemble.rounds) + 1):
        margins = np.array([math.fsum(row[:k]) for row in votes])
        preds = np.where(margins > 0, POSITIVE, NEGATIVE)
        errors.append(float(np.sum(preds != labels)) / len(votes))
    return errors


class DecisionStump:
    """Single-feature threshold rule: predict polarity if x[f] >= threshold.

    fit() enumerates, per feature, one cut below the smallest value (which
    yields the two constant classifiers) plus every midpoint of consecutive
    distinct values, with both polarities, and keeps the candidate with the
    strictly smallest weighted error. Enumeration order (feature ascending,
    threshold ascending, polarity +1 before -1) doubles as the tie-break.
    """

    def __init__(self):
        self.feature = 0
        self.threshold = 0.0
        self.polarity = 1

    def fit(self, X, signed_labels, weights) -> "DecisionStump":
        X = np.asarray(X, dtype=float)
        y = np.asarray(signed_labels)
        d = np.asarray(weights, dtype=float)
        best = math.inf
        for f in range(X.shape[1]):
            col = X[:, f]
            vals = np.unique(col)
            cuts = [vals[0] - 1.0]
            cuts += [0.5 * (vals[k] + vals[k + 1]) for k in range(len(vals) - 1)]
            for thr in cuts:
                base = np.where(col >= thr, 1, -1)
                for pol in (1, -1):
                    err = weighted_error(pol * base, y, d)
                    if err < best:
                        best = err
                        self.feature, self.threshold, self.polarity = f, thr, pol
        return self

    def predict(self, X) -> np.ndarray:
        """One -1/+1 vote per row of the (N, D) matrix X."""
        column = np.asarray(X)[:, self.feature]
        return np.where(column >= self.threshold, self.polarity, -self.polarity)


def stump_factory(seed: int) -> DecisionStump:
    """Boosting-compatible factory; stump training is deterministic, seed unused."""
    return DecisionStump()


class LstmWeakLearner:
    """LSTM classifier adapted to the boosting interface.

    A feature row is read as a sequence under sequence_mode (lstm.step_dim);
    prediction thresholds the head probability at 0.5 (>= 0.5 maps to +1),
    not the logit at 0: a logit just below 0 can round to probability 0.5.
    `kernel` is the PackedLstm that fit() trained or load_model() packed.
    """

    def __init__(self, cfg: TrainConfig, sequence_mode: str = "single"):
        self.cfg = cfg
        self.sequence_mode = sequence_mode
        self.kernel = None
        self.loss_curve = None

    def fit(self, X, signed_labels, weights) -> "LstmWeakLearner":
        """Train on the rows of the (N, D) feature matrix X."""
        labels = (np.asarray(signed_labels, dtype=int) + 1) // 2
        input_dim = lstm_mod.step_dim(self.sequence_mode, X.shape[1])
        self.kernel, self.loss_curve = lstm_mod.train_weak_learner(
            X, labels, weights, self.cfg, input_dim)
        return self

    def predict(self, X) -> np.ndarray:
        """One -1/+1 vote per row of the (N, D) feature matrix X, in one batched
        forward."""
        probs, _ = self.kernel.forward_rows(X)
        return np.where(probs >= 0.5, 1, -1)


def lstm_factory(cfg: TrainConfig, sequence_mode: str = "single"):
    """Factory closing over a TrainConfig; each round re-seeds a fresh copy."""

    def make(seed: int) -> LstmWeakLearner:
        return LstmWeakLearner(replace(cfg, seed=seed), sequence_mode)

    return make
