"""The model file: a versioned JSON bundle of the ensemble and its preprocessing.

Format v2, the one save_model writes, is compact JSON with every float a JSON
number: Python writes the shortest text that round-trips a float64 exactly.
Each learner stores only the arrays its sequence mode trains,
lstm.live_keys(). Format v1 (every float as a string of 17 significant
digits, all 14 arrays per learner) still loads; its dead arrays are ignored.
load_model checks everything scoring relies on, so a model that does not fit
its data fails before any row is scored.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from . import data as data_mod
from .boosting import NEGATIVE, POSITIVE, BoostRound, Ensemble, LstmWeakLearner
from .errors import DataError
from .lstm import PackedLstm, TrainConfig, live_keys, step_dim

MODEL_FORMAT_VERSION = 2
READABLE_FORMAT_VERSIONS = (1, 2)


@dataclass
class ModelBundle:
    """Everything needed to score new records: ensemble plus preprocessing."""

    ensemble: Ensemble
    target: data_mod.TargetSpec
    standardizer: data_mod.Standardizer
    sequence_mode: str


def save_model(bundle: ModelBundle, path: str) -> None:
    """Format v2: compact JSON, floats as JSON numbers, live arrays only."""
    std = bundle.standardizer
    keys = live_keys(bundle.sequence_mode)
    rounds = []
    for r in bundle.ensemble.rounds:
        if not isinstance(r.learner, LstmWeakLearner):
            raise ValueError("save_model: only LSTM weak learners are serializable")
        kernel = r.learner.kernel
        rounds.append({
            "alpha": float(r.alpha),
            "learner": {
                "type": "lstm",
                "input_dim": kernel.input_dim,
                "hidden_dim": kernel.hidden_dim,
                "arrays": {k: kernel.arrays[k].tolist() for k in keys},
            },
        })
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "label_convention": {"positive": POSITIVE, "negative": NEGATIVE},
        "target": {"column": bundle.target.target_column,
                   "threshold": bundle.target.threshold},
        "sequence_mode": bundle.sequence_mode,
        "standardizer": {
            "indices": list(std.indices),
            "means": std.means.tolist(),
            "stds": std.stds.tolist(),
            "constant": list(std.constant),
        },
        "rounds": rounds,
    }
    data_mod.write_lines(path, [json.dumps(doc, separators=(",", ":"))])


def load_model(path: str) -> ModelBundle:
    """Inverse of save_model, for format v1 and v2. Any malformed content raises DataError.

    Each learner reads only the live_keys() arrays of its sequence mode and is
    packed with the others at zero, which scores exactly as the trained
    values: a one-step learner's forget gate multiplies a zero cell state
    and its U a zero hidden state. A v2 learner must store exactly the live
    arrays; a v1 learner's others are ignored.

    Everything scoring relies on is checked here, so that a model which does
    not fit its data fails before any row is scored: each learner's input
    dimension must be the step length of its sequence mode, and every alpha,
    weight, mean and std finite, with std > 0 unless the column is flagged
    constant, no feature standardized twice, and the label convention the
    one boost_train writes. Flags must be JSON booleans, and counts,
    indices, the threshold and the labels JSON integers.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataError(f"could not parse model file {path}: {exc}") from None
    try:
        version = _typed(doc["format_version"], int)
        if version not in READABLE_FORMAT_VERSIONS:
            raise DataError(f"unsupported model format version {version!r}")
        target = data_mod.TargetSpec(target_column=doc["target"]["column"],
                                     threshold=_typed(doc["target"]["threshold"], int))
        std_doc = doc["standardizer"]
        standardizer = data_mod.Standardizer(
            indices=tuple(_typed(i, int) for i in std_doc["indices"]),
            means=np.array([float(v) for v in std_doc["means"]]),
            stds=np.array([float(v) for v in std_doc["stds"]]),
            constant=tuple(_typed(v, bool) for v in std_doc["constant"]),
        )
        _validate_standardizer(standardizer)
        sequence_mode = doc["sequence_mode"]
        dim = step_dim(sequence_mode, data_mod.N_FEATURES)
        keys = live_keys(sequence_mode)
        rounds = []
        for number, entry in enumerate(doc["rounds"], start=1):
            learner_doc = entry["learner"]
            if learner_doc["type"] != "lstm":
                raise DataError(f"unsupported learner type {learner_doc['type']!r}")
            input_dim = _typed(learner_doc["input_dim"], int)
            hidden_dim = _typed(learner_doc["hidden_dim"], int)
            if input_dim != dim:
                raise DataError(f"round {number}: input_dim {input_dim} does not fit "
                                f"sequence_mode {sequence_mode!r}, whose steps have "
                                f"{dim} features")
            stored = learner_doc["arrays"]
            if version == 2 and set(stored) != set(keys):
                raise DataError(f"round {number}: arrays {sorted(stored)} are not the "
                                f"{sequence_mode!r} arrays {sorted(keys)}")
            arrays = {}
            for key in keys:
                arr = np.array(stored[key], dtype=float)
                if not np.all(np.isfinite(arr)):
                    raise DataError(f"round {number}: array {key} is not finite")
                arrays[key] = arr
            alpha = float(entry["alpha"])
            if not math.isfinite(alpha):
                raise DataError(f"round {number}: alpha {alpha!r} is not finite")
            learner = LstmWeakLearner(TrainConfig(hidden_dim=hidden_dim), sequence_mode)
            try:  # checks every shape before it allocates the kernel
                learner.kernel = PackedLstm.from_arrays(input_dim, hidden_dim, arrays)
            except ValueError as exc:
                raise DataError(f"round {number}: {exc}") from None
            rounds.append(BoostRound(alpha=alpha, learner=learner))
        if not rounds:
            raise DataError("model file contains no rounds")
        convention = doc["label_convention"]
        labels = (_typed(convention["positive"], int), _typed(convention["negative"], int))
        if labels != (POSITIVE, NEGATIVE):
            raise DataError(f"label_convention positive {labels[0]}, negative {labels[1]}: "
                            f"expected positive {POSITIVE}, negative {NEGATIVE}")
        ensemble = Ensemble(rounds=rounds)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise DataError(f"malformed model file {path}: {exc!r}") from None
    return ModelBundle(ensemble=ensemble, target=target, standardizer=standardizer,
                       sequence_mode=sequence_mode)


def _typed(value, kind: type):
    # exact type: a JSON true is a bool, an int subclass, but no count or index
    if type(value) is not kind:
        raise DataError(f"expected a JSON {kind.__name__}, got {value!r}")
    return value


def _validate_standardizer(std: data_mod.Standardizer) -> None:
    n = len(std.indices)
    if not len(std.means) == len(std.stds) == len(std.constant) == n:
        raise DataError("standardizer: indices, means, stds and constant differ in length")
    if any(not 0 <= idx < data_mod.N_FEATURES for idx in std.indices):
        raise DataError(f"standardizer: indices {list(std.indices)} are not all features")
    if len(set(std.indices)) != n:
        raise DataError(f"standardizer: indices {list(std.indices)} repeat a feature")
    if not (np.all(np.isfinite(std.means)) and np.all(np.isfinite(std.stds))):
        raise DataError("standardizer: means and stds must be finite")
    for idx, sd, constant in zip(std.indices, std.stds, std.constant):
        if not constant and sd <= 0:
            raise DataError(f"standardizer: std {sd!r} of feature {idx} must be > 0 "
                            f"unless the column is flagged constant")
