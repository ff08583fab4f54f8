"""AdaBoost driver: stagewise additive model over exchangeable weak learners.

Rounds train on an evolving sample distribution; each accepted round gets a
vote alpha = 0.5*ln((1-eps)/eps), the stagewise minimizer of the exponential
loss of the additive model. Labels are {0,1} at the data layer (POSITIVE
and NEGATIVE) and {-1,+1} inside the loop.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError, TrainingError, UsageError
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
            raise UsageError("BoostConfig: rounds must be >= 1")


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
    of X, whose class scores an ensemble with predict_all(learners, X) ->
    (K, N) votes, row k being learners[k].predict(X); round t gets seed
    cfg.seed + t. A round with weighted error >= 0.5
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
    the (N, D) matrix X, from one predict_all call of the learners' class."""
    if not ensemble.rounds:
        raise ValueError("empty ensemble: no rounds to vote")
    X = np.asarray(X, dtype=float)
    learners = [r.learner for r in ensemble.rounds]
    votes = type(learners[0]).predict_all(learners, X)
    alphas = np.array([r.alpha for r in ensemble.rounds])
    return (alphas[:, None] * votes).T.tolist()


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
        """One -1/+1 vote per row of the (N, D) feature matrix X."""
        return self.predict_all([self], X)[0]

    @staticmethod
    def predict_all(learners, X) -> np.ndarray:
        """The (K, N) -1/+1 votes of K learners on the rows of the (N, D)
        feature matrix X, row k being learners[k]'s, in one stacked forward
        (lstm.forward_stack)."""
        probs, _ = lstm_mod.forward_stack([learner.kernel for learner in learners], X)
        return np.where(probs >= 0.5, 1, -1)


def lstm_factory(cfg: TrainConfig, sequence_mode: str = "single"):
    """Factory closing over a TrainConfig; each round re-seeds a fresh copy."""

    def make(seed: int) -> LstmWeakLearner:
        return LstmWeakLearner(replace(cfg, seed=seed), sequence_mode)

    return make
