"""AdaBoost driver: stagewise additive model over exchangeable weak learners.

Rounds train on an evolving sample distribution; each accepted round gets a
vote alpha = 0.5*ln((1-eps)/eps), the stagewise minimizer of the exponential
loss of the additive model. Labels are {0,1} at the data layer and {-1,+1}
inside the loop; the convention is recorded on the trained ensemble.

A decision stump learner lives here as an exhaustively-optimizable companion
so boosting runs can be checked against brute-force enumeration.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DataError, TrainingError
from . import lstm as lstm_mod
from .lstm import TrainConfig

POSITIVE, NEGATIVE = 1, 0


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


def alpha(epsilon: float, epsilon_floor: float = 1e-10) -> float:
    """Learner vote 0.5*ln((1-eps)/eps), with eps clamped into [floor, 1-floor]."""
    eps = min(max(epsilon, epsilon_floor), 1.0 - epsilon_floor)
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
    """Round count, degenerate-error clamp, and the weak learner's settings."""

    rounds: int = 10
    epsilon_floor: float = 1e-10
    train: TrainConfig = field(default_factory=TrainConfig)
    seed: int = 0

    def __post_init__(self):
        if self.rounds < 1:
            raise ValueError("BoostConfig: rounds must be >= 1")
        if not 0 < self.epsilon_floor < 0.5:
            raise ValueError("BoostConfig: epsilon_floor must be in (0, 0.5)")


@dataclass
class BoostRound:
    alpha: float
    learner: object


@dataclass
class Ensemble:
    """Trained additive model: alpha-weighted weak learners plus label convention."""

    rounds: list
    positive_label: int = POSITIVE
    negative_label: int = NEGATIVE


@dataclass
class RoundLog:
    """One accepted round: weighted error, vote, and the distribution after its update."""

    round: int
    epsilon: float
    alpha: float
    weights: np.ndarray


def boost_train(examples, cfg: BoostConfig, learner_factory):
    """Train up to cfg.rounds weak learners on the evolving distribution.

    examples is a list of (features, label in {0,1}) with both classes
    present. learner_factory(seed) must return an object with
    fit(xs, signed_labels, weights) and predict(x) -> -1/+1; round t gets
    seed cfg.seed + t. A round with weighted error >= 0.5 is discarded and
    the distribution reset to uniform (the attempt still counts); error at
    or below epsilon_floor is accepted with clamped error and stops early.

    Returns (Ensemble, list of RoundLog).
    """
    n = len(examples)
    if n == 0:
        raise ValueError("boost_train: empty example list")
    xs = [np.asarray(x, dtype=float) for x, _ in examples]
    labels = np.array([y for _, y in examples], dtype=int)
    if set(labels.tolist()) != {0, 1}:
        raise DataError("boost_train: training data must contain both classes")
    truths = to_signed(labels)

    d = init_weights(n)
    rounds, log = [], []
    for attempt in range(1, cfg.rounds + 1):
        learner = learner_factory(cfg.seed + attempt)
        learner.fit(xs, truths, d)
        preds = np.array([learner.predict(x) for x in xs], dtype=int)
        eps = weighted_error(preds, truths, d)
        if eps >= 0.5:
            d = init_weights(n)  # learner no better than chance; restart the distribution
            continue
        a = alpha(eps, cfg.epsilon_floor)
        rounds.append(BoostRound(alpha=a, learner=learner))
        if eps <= cfg.epsilon_floor:
            # perfect learner: keep the distribution it was trained on and stop
            log.append(RoundLog(len(rounds), eps, a, d.copy()))
            break
        d = update_weights(d, a, preds, truths)
        log.append(RoundLog(len(rounds), eps, a, d.copy()))
    if not rounds:
        raise TrainingError("no weak learner beat chance")
    return Ensemble(rounds=rounds), log


def ensemble_predict(ensemble: Ensemble, x) -> tuple:
    """Return (label in {0,1}, margin). Margin is sum(alpha_t * h_t(x));
    positive margin maps to the positive label, a tie (0) to the negative."""
    if not ensemble.rounds:
        raise ValueError("ensemble_predict: empty ensemble")
    margin = math.fsum(r.alpha * r.learner.predict(x) for r in ensemble.rounds)
    label = ensemble.positive_label if margin > 0 else ensemble.negative_label
    return label, margin


def staged_train_error(ensemble: Ensemble, examples) -> list:
    """Unweighted training error of every prefix of the ensemble's rounds."""
    if not ensemble.rounds:
        raise ValueError("staged_train_error: empty ensemble")
    xs = [x for x, _ in examples]
    truths = to_signed([y for _, y in examples])
    n = len(xs)
    preds = np.array([[r.learner.predict(x) for x in xs] for r in ensemble.rounds],
                     dtype=float)
    alphas = np.array([r.alpha for r in ensemble.rounds])
    errors = []
    margins = np.zeros(n)
    for t in range(len(ensemble.rounds)):
        margins = margins + alphas[t] * preds[t]
        signed_out = np.where(margins > 0, 1, -1)
        errors.append(float(np.sum(signed_out != truths)) / n)
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

    def fit(self, xs, signed_labels, weights) -> "DecisionStump":
        X = np.stack([np.atleast_1d(x) for x in xs])
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

    def predict(self, x) -> int:
        x = np.atleast_1d(x)
        return self.polarity if x[self.feature] >= self.threshold else -self.polarity


def stump_factory(seed: int) -> DecisionStump:
    """Boosting-compatible factory; stump training is deterministic, seed unused."""
    return DecisionStump()


class LstmWeakLearner:
    """LSTM classifier adapted to the boosting interface.

    Feature vectors pass through the tabular-to-sequence adapter; prediction
    thresholds the head probability at 0.5 (>= 0.5 maps to +1). Setting
    `params` packs them once into the learner's PackedLstm, which every
    predict() runs; reading it returns views of that packed vector.
    """

    def __init__(self, cfg: TrainConfig, sequence_mode: str = "single"):
        self.cfg = cfg
        self.sequence_mode = sequence_mode
        self._kernel = None
        self.loss_curve = None

    @property
    def params(self):
        return None if self._kernel is None else self._kernel.params

    @params.setter
    def params(self, params) -> None:
        self._kernel = lstm_mod.PackedLstm.from_params(params)

    def fit(self, xs, signed_labels, weights) -> "LstmWeakLearner":
        examples = [(lstm_mod.to_sequence(x, self.sequence_mode), (int(y) + 1) // 2)
                    for x, y in zip(xs, signed_labels)]
        self.params, self.loss_curve = lstm_mod.train_weak_learner(
            examples, weights, self.cfg)
        return self

    def predict(self, x) -> int:
        prob, _, _ = self._kernel.forward(lstm_mod.to_sequence(x, self.sequence_mode))
        return 1 if prob >= 0.5 else -1


def lstm_factory(cfg: TrainConfig, sequence_mode: str = "single"):
    """Factory closing over a TrainConfig; each round re-seeds a fresh copy."""

    def make(seed: int) -> LstmWeakLearner:
        return LstmWeakLearner(replace(cfg, seed=seed), sequence_mode)

    return make
