"""Independent reference scorer for vrboost model files.

Written from the LSTM cell equations and the documented CSV schema, without
importing any vrboost module, so that the benchmark can recompute every
margin, label and accuracy the program reports.

Cell, per gate g in {forget, input, output, candidate}:
    z_g = W_g x_t + U_g h_{t-1} + b_g
    f, i, o = sigmoid(z_f), sigmoid(z_i), sigmoid(z_o);  g = tanh(z_g)
    c_t = f * c_{t-1} + i * g;  h_t = o * tanh(c_t)
Head: p = sigmoid(w_head . h_T + b_head); the weak vote is +1 when p >= 0.5.
Ensemble margin: sum_t alpha_t * vote_t; label positive when margin > 0.

In "single" mode each row is one step from a zero state, so U_g and the
forget gate drop out (c = i * g); only the arrays that mode uses are read.
"""

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

GENDERS = ("Male", "Female", "Other")
HEADSETS = ("HTC Vive", "Oculus Rift", "PlayStation VR")
SCORE_COLUMNS = ("MotionSickness", "ImmersionLevel")

# A weak vote whose logit lies this close to 0 may round either way between
# two correct implementations; rows holding such a vote are not compared.
AMBIGUOUS_LOGIT = 1e-9


@dataclass
class RefModel:
    sequence_mode: str
    positive: int
    negative: int
    target_column: str
    threshold: int
    std_indices: tuple
    std_means: np.ndarray
    std_stds: np.ndarray
    std_constant: tuple
    alphas: list
    learners: list  # one dict of float64 arrays per round

    @property
    def margin_tolerance(self) -> float:
        """A few ulps of the largest margin the model can produce."""
        return 4.0 * math.ulp(math.fsum(abs(a) for a in self.alphas))


@dataclass
class RefScores:
    margins: np.ndarray
    labels: np.ndarray
    ambiguous: np.ndarray  # True where some weak vote sat within AMBIGUOUS_LOGIT of 0


def load_model(path) -> RefModel:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    mode = doc["sequence_mode"]
    live = (("input", "output", "candidate") if mode == "single"
            else ("forget", "input", "output", "candidate"))
    alphas, learners = [], []
    for entry in doc["rounds"]:
        raw = entry["learner"]["arrays"]
        arrays = {"w_head": np.array(raw["w_head"], dtype=float),
                  "b_head": np.array(raw["b_head"], dtype=float)}
        for gate in live:
            arrays[f"W_{gate}"] = np.array(raw[f"W_{gate}"], dtype=float)
            arrays[f"b_{gate}"] = np.array(raw[f"b_{gate}"], dtype=float)
            if mode != "single":
                arrays[f"U_{gate}"] = np.array(raw[f"U_{gate}"], dtype=float)
        alphas.append(float(entry["alpha"]))
        learners.append(arrays)
    std = doc["standardizer"]
    return RefModel(
        sequence_mode=mode,
        positive=int(doc["label_convention"]["positive"]),
        negative=int(doc["label_convention"]["negative"]),
        target_column=doc["target"]["column"],
        threshold=int(doc["target"]["threshold"]),
        std_indices=tuple(int(i) for i in std["indices"]),
        std_means=np.array(std["means"], dtype=float),
        std_stds=np.array(std["stds"], dtype=float),
        std_constant=tuple(bool(c) for c in std["constant"]),
        alphas=alphas,
        learners=learners,
    )


def read_rows(path) -> list:
    """CSV rows as dicts; a UTF-8 byte-order mark is not part of the header."""
    with open(path, encoding="utf-8-sig", newline="") as fh:
        return [{k.strip(): v for k, v in row.items()} for row in csv.DictReader(fh)]


def features(rows, model: RefModel) -> np.ndarray:
    """Encoded rows: [Age, Duration, other score, Gender one-hot, VRHeadset one-hot],
    z-scored with the model's standardizer."""
    other = [c for c in SCORE_COLUMNS if c != model.target_column][0]
    X = np.array([[float(r["Age"]), float(r["Duration"]), float(r[other])]
                  + [1.0 if r["Gender"].strip() == g else 0.0 for g in GENDERS]
                  + [1.0 if r["VRHeadset"].strip() == h else 0.0 for h in HEADSETS]
                  for r in rows])
    for j, idx in enumerate(model.std_indices):
        if not model.std_constant[j]:
            X[:, idx] = (X[:, idx] - model.std_means[j]) / model.std_stds[j]
    return X


def truths(rows, model: RefModel) -> np.ndarray:
    return np.array([1 if int(r[model.target_column]) >= model.threshold else 0
                     for r in rows])


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _logits(arrays: dict, X: np.ndarray, mode: str) -> np.ndarray:
    """Head pre-activation of one learner for every row of X."""
    def gate(name, x_t, h):
        z = x_t @ arrays[f"W_{name}"].T + arrays[f"b_{name}"]
        return z if h is None else z + h @ arrays[f"U_{name}"].T

    if mode == "single":
        i = _sigmoid(gate("input", X, None))
        o = _sigmoid(gate("output", X, None))
        g = np.tanh(gate("candidate", X, None))
        h = o * np.tanh(i * g)
    elif mode == "unrolled":
        n, hidden = X.shape[0], arrays["w_head"].shape[0]
        h, c = np.zeros((n, hidden)), np.zeros((n, hidden))
        for t in range(X.shape[1]):
            x_t = X[:, t:t + 1]
            f = _sigmoid(gate("forget", x_t, h))
            i = _sigmoid(gate("input", x_t, h))
            o = _sigmoid(gate("output", x_t, h))
            g = np.tanh(gate("candidate", x_t, h))
            c = f * c + i * g
            h = o * np.tanh(c)
    else:
        raise ValueError(f"unknown sequence mode {mode!r}")
    return h @ arrays["w_head"] + arrays["b_head"][0]


def score(model: RefModel, X: np.ndarray) -> RefScores:
    votes, ambiguous = [], np.zeros(X.shape[0], dtype=bool)
    for arrays in model.learners:
        logit = _logits(arrays, X, model.sequence_mode)
        votes.append(np.where(_sigmoid(logit) >= 0.5, 1.0, -1.0))
        ambiguous |= np.abs(logit) < AMBIGUOUS_LOGIT
    margins = np.array([math.fsum(a * v[k] for a, v in zip(model.alphas, votes))
                        for k in range(X.shape[0])])
    labels = np.where(margins > 0, model.positive, model.negative)
    return RefScores(margins=margins, labels=labels, ambiguous=ambiguous)


def score_file(model: RefModel, path):
    """(RefScores, rows) for a CSV scored with the model."""
    rows = read_rows(path)
    return score(model, features(rows, model)), rows
