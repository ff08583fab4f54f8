"""The model file: a versioned JSON bundle of the ensemble and its preprocessing.

Format v2, the one save_model writes and load_model reads, is compact JSON
with every float a JSON number: Python writes the shortest text that
round-trips a float64 exactly. Each learner stores the arrays of the kernel
its sequence mode trains: a `single` learner lstm.param_keys(one_step=True),
an `unrolled` one all 14 param_keys().
"""

import json
import math
from itertools import chain
from dataclasses import dataclass

import numpy as np

from . import data as data_mod
from .boosting import NEGATIVE, POSITIVE, BoostRound, Ensemble, LstmWeakLearner
from .errors import DataError
from .lstm import PackedLstm, TrainConfig, array_shapes, param_keys, step_dim

MODEL_FORMAT_VERSION = 2


@dataclass
class ModelBundle:
    """Everything needed to score new records: ensemble plus preprocessing."""

    ensemble: Ensemble
    target: data_mod.TargetSpec
    standardizer: data_mod.Standardizer
    sequence_mode: str


def _alpha_sum_overflows(rounds) -> bool:
    """Whether the absolute sum of the rounds' alphas overflows float64. A
    margin is a sum of +-alpha, so it stays finite when this sum does."""
    try:
        math.fsum(abs(r.alpha) for r in rounds)
    except OverflowError:
        return True
    return False


def save_model(bundle: ModelBundle, path: str) -> None:
    """Format v2: compact JSON, floats as JSON numbers, each kernel's own arrays.

    Raises ValueError for a learner that is not an LSTM, or whose kernel is
    not the form its sequence mode trains and load_model builds, and for
    alphas whose absolute sum overflows, which load_model refuses."""
    std = bundle.standardizer
    if _alpha_sum_overflows(bundle.ensemble.rounds):
        raise ValueError(f"save_model: the absolute sum of the "
                         f"{len(bundle.ensemble.rounds)} alphas overflows float64")
    one_step = step_dim(bundle.sequence_mode, data_mod.N_FEATURES) == data_mod.N_FEATURES
    rounds = []
    for r in bundle.ensemble.rounds:
        if not isinstance(r.learner, LstmWeakLearner):
            raise ValueError("save_model: only LSTM weak learners are serializable")
        kernel = r.learner.kernel
        if kernel.one_step != one_step:
            form = "one-step" if one_step else "four-gate"
            raise ValueError(f"save_model: a {bundle.sequence_mode!r} learner needs a "
                             f"{form} kernel")
        rounds.append({
            "alpha": float(r.alpha),
            "learner": {
                "type": "lstm",
                "input_dim": kernel.input_dim,
                "hidden_dim": kernel.hidden_dim,
                "arrays": {k: arr.tolist() for k, arr in kernel.arrays.items()},
            },
        })
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "label_convention": {"positive": POSITIVE, "negative": NEGATIVE},
        "target": {"column": bundle.target.target_column,
                   "threshold": bundle.target.threshold},
        "sequence_mode": bundle.sequence_mode,
        "standardizer": {
            "indices": list(data_mod.NUMERIC_FEATURE_INDICES),
            "means": std.means.tolist(),
            "stds": std.stds.tolist(),
            "constant": (std.stds == 0.0).tolist(),
        },
        "rounds": rounds,
    }
    data_mod.write_lines(path, [json.dumps(doc, separators=(",", ":"))])


def load_model(path: str) -> ModelBundle:
    """Inverse of save_model. Any malformed content raises DataError.

    Everything scoring relies on is checked here, so that a model which does
    not fit its data fails before any row is scored: each learner's input
    dimension must be the step length of its sequence mode, a learner must
    store exactly its kernel form's arrays, every alpha, weight and
    mean must be finite, the alphas' absolute sum too (it bounds every
    margin), and the label convention the one boost_train writes. The
    standardizer's indices must be exactly NUMERIC_FEATURE_INDICES, its stds
    finite and >= 0, and each constant flag std == 0. Every float must be a
    JSON number, an integer beyond float64 counting as not finite, flags
    JSON booleans, and counts, indices, the threshold and the labels JSON
    integers.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise DataError(f"could not parse model file {path}: {exc}") from None
    try:
        version = _typed(doc["format_version"], int)
        if version != MODEL_FORMAT_VERSION:
            raise DataError(f"unsupported model format version {version!r}")
        target = data_mod.TargetSpec(target_column=doc["target"]["column"],
                                     threshold=_typed(doc["target"]["threshold"], int))
        std_doc, numeric = doc["standardizer"], list(data_mod.NUMERIC_FEATURE_INDICES)
        means = _floats(std_doc["means"], "standardizer: means")
        stds = _floats(std_doc["stds"], "standardizer: stds")
        if ([_typed(i, int) for i in std_doc["indices"]] != numeric
                or not means.shape == stds.shape == (len(numeric),)
                or not np.all(np.isfinite(means) & np.isfinite(stds) & (stds >= 0))
                or [_typed(v, bool) for v in std_doc["constant"]] != (stds == 0.0).tolist()):
            raise DataError(f"standardizer {std_doc}: need indices {numeric}, finite means, "
                            f"finite stds >= 0 and each constant flag std == 0")
        standardizer = data_mod.Standardizer(means=means, stds=stds)
        sequence_mode = doc["sequence_mode"]
        dim = step_dim(sequence_mode, data_mod.N_FEATURES)
        one_step = dim == data_mod.N_FEATURES  # a row is one step
        keys = param_keys(one_step)
        rounds = []
        for number, entry in enumerate(doc["rounds"], start=1):
            learner_doc = entry["learner"]
            if learner_doc["type"] != "lstm":
                raise DataError(f"unsupported learner type {learner_doc['type']!r}")
            input_dim = _typed(learner_doc["input_dim"], int)
            hidden_dim = _typed(learner_doc["hidden_dim"], int)
            if hidden_dim < 1:
                raise DataError(f"round {number}: hidden_dim {hidden_dim} must be >= 1")
            if input_dim != dim:
                raise DataError(f"round {number}: input_dim {input_dim} does not fit "
                                f"sequence_mode {sequence_mode!r}, whose steps have "
                                f"{dim} features")
            stored = learner_doc["arrays"]
            if set(stored) != set(keys):
                raise DataError(f"round {number}: arrays {sorted(stored)} are not the "
                                f"{sequence_mode!r} arrays {sorted(keys)}")
            alpha = _floats(entry["alpha"], f"round {number}: alpha")
            if alpha.shape or not np.isfinite(alpha):
                raise DataError(f"round {number}: alpha {entry['alpha']!r} is not a finite number")
            learner = LstmWeakLearner(TrainConfig(hidden_dim=hidden_dim), sequence_mode)
            learner.kernel = _read_kernel(stored, input_dim, hidden_dim, one_step, number)
            rounds.append(BoostRound(alpha=float(alpha), learner=learner))
        if not rounds:
            raise DataError("model file contains no rounds")
        if _alpha_sum_overflows(rounds):
            raise DataError(f"the absolute sum of the {len(rounds)} alphas overflows "
                            f"float64")
        convention = doc["label_convention"]
        labels = (_typed(convention["positive"], int), _typed(convention["negative"], int))
        if labels != (POSITIVE, NEGATIVE):
            raise DataError(f"label_convention positive {labels[0]}, negative {labels[1]}: "
                            f"expected positive {POSITIVE}, negative {NEGATIVE}")
        ensemble = Ensemble(rounds=rounds)
    except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
        raise DataError(f"malformed model file {path}: {exc!r}") from None
    return ModelBundle(ensemble=ensemble, target=target, standardizer=standardizer,
                       sequence_mode=sequence_mode)


def _typed(value, kind: type):
    # exact type: a JSON true is a bool, an int subclass, but no count or index
    if type(value) is not kind:
        raise DataError(f"expected a JSON {kind.__name__}, got {value!r}")
    return value


# the Python types of a float in a model file; type() is exact, so a JSON true
# (an int subclass) is neither
_NUMBER = {int, float}
# the least int that float() refuses: the midpoint of the largest float64 and
# 2**1024, which rounds to even, up
_INT_BEYOND_FLOAT64 = 2 ** 1024 - 2 ** 970


def _read_kernel(stored: dict, input_dim: int, hidden_dim: int, one_step: bool,
                 number: int) -> PackedLstm:
    """The kernel of round number's stored arrays, each finite; raises
    DataError naming the round and the array at fault.

    One pass walks lstm.array_shapes in theta's order. Each array must be a
    list of its length and each row a list of its width, checked before the
    kernel is allocated, so hidden_dim alone never sizes an allocation. The
    cells are gathered in one list, their types scanned once, and converted
    once into theta; only a failed scan looks for the array at fault.
    """
    shapes = array_shapes(input_dim, hidden_dim, one_step)
    cells, ends = [], []  # ends[i]: where array i's cells end in cells
    for key, shape in shapes.items():
        arr = stored[key]
        rows = len(shape) == 2
        if (type(arr) is not list or len(arr) != shape[0] or rows and (
                set(map(type, arr)) != {list} or set(map(len, arr)) != {shape[1]})):
            raise DataError(f"round {number}: array {key} is not of shape {shape}")
        cells += chain.from_iterable(arr) if rows else arr
        ends.append(len(cells))
    if not set(map(type, cells)) <= _NUMBER:
        at = next(i for i, v in enumerate(cells) if type(v) not in _NUMBER)
        key = next(k for k, end in zip(shapes, ends) if at < end)
        raise DataError(f"round {number}: array {key}: {cells[at]!r} is not a number")
    kernel = PackedLstm(input_dim, hidden_dim, one_step)
    _fill(kernel.theta, cells)
    if not np.all(np.isfinite(kernel.theta)):  # every array, in one check
        key = next(k for k, arr in kernel.arrays.items() if not np.all(np.isfinite(arr)))
        raise DataError(f"round {number}: array {key} is not finite")
    return kernel


def _floats(value, what: str) -> np.ndarray:
    """value, a model file's number or list of numbers, as a float64 array.
    A cell that is not a JSON number raises DataError naming what."""
    cells = value if type(value) is list else [value]
    if not set(map(type, cells)) <= _NUMBER:
        bad = next(v for v in cells if type(v) not in _NUMBER)
        raise DataError(f"{what}: {bad!r} is not a number")
    arr = _fill(np.empty(len(cells)), cells)
    return arr if cells is value else arr[0]


def _fill(out: np.ndarray, cells: list) -> np.ndarray:
    """out, with cells, ints and floats, written in as float64s; an int beyond
    float64, which numpy refuses to convert, as inf, so that it counts as not
    finite."""
    try:
        out[:] = cells
    except OverflowError:
        out[:] = [math.inf if type(v) is int and abs(v) >= _INT_BEYOND_FLOAT64 else v
                  for v in cells]
    return out
