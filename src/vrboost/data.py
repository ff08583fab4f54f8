"""Tabular VR-experience records: CSV I/O, encoding, splitting, synthesis.

The schema is six columns — Age, Gender, VRHeadset, Duration, MotionSickness,
ImmersionLevel. The binary target is a thresholded score column (default
ImmersionLevel >= 4); this is a configurable surrogate since the source data
offers no canonical label. Encoded feature order is documented on encode().
"""

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .numerics import Rng, sigmoid

COLUMNS = ("Age", "Gender", "VRHeadset", "Duration", "MotionSickness", "ImmersionLevel")
GENDERS = ("Male", "Female", "Other")
HEADSETS = ("HTC Vive", "Oculus Rift", "PlayStation VR")
TARGET_COLUMNS = ("MotionSickness", "ImmersionLevel")

NUMERIC_FEATURE_INDICES = (0, 1, 2)  # age, duration, leftover score column
N_FEATURES = len(NUMERIC_FEATURE_INDICES) + len(GENDERS) + len(HEADSETS)


@dataclass
class RawRecord:
    """One row of the six-column table. A score field is None only when its
    column was declared optional at load time (prediction inputs)."""

    age: int
    gender: str
    vr_headset: str
    duration: float
    motion_sickness: int | None
    immersion_level: int | None


@dataclass
class TargetSpec:
    """Binary label rule: target column value >= threshold maps to 1."""

    target_column: str = "ImmersionLevel"
    threshold: int = 4

    def __post_init__(self):
        if self.target_column not in TARGET_COLUMNS:
            raise ValueError(
                f"TargetSpec: target_column must be one of {TARGET_COLUMNS}, "
                f"got {self.target_column!r}")


@dataclass
class EncodedExample:
    features: np.ndarray
    label: int


@dataclass
class SplitDataset:
    """Train/test partition of encoded examples, with the index mapping kept."""

    train: list
    test: list
    train_indices: list
    test_indices: list
    seed: int
    ratio: float


@dataclass
class Standardizer:
    """Per-numeric-feature z-score parameters fitted on the training split.

    Uses the population (1/n) standard deviation. Constant columns are
    flagged and passed through unchanged.
    """

    indices: tuple
    means: np.ndarray
    stds: np.ndarray
    constant: tuple


def _parse_int(text: str, column: str, line: int) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise DataError(f"line {line}: column {column}: {text!r} is not an integer") from None


def _parse_float(text: str, column: str, line: int) -> float:
    try:
        value = float(text.strip())
    except ValueError:
        raise DataError(f"line {line}: column {column}: {text!r} is not a number") from None
    if not math.isfinite(value):
        raise DataError(f"line {line}: column {column}: value must be finite")
    return value


def _parse_enum(text: str, allowed: tuple, column: str, line: int) -> str:
    value = text.strip()
    if value not in allowed:
        raise DataError(
            f"line {line}: column {column}: unknown value {value!r}, expected one of {allowed}")
    return value


def load_csv(path, optional_column: str | None = None) -> list:
    """Read a six-column CSV into RawRecords, preserving row order.

    The header must contain exactly the six schema names, in any order;
    optional_column (a score column) may be absent, in which case that field
    is None on every record. A leading UTF-8 byte-order mark is skipped.
    Raises DataError for schema problems, with the line number for
    row-level ones.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: file is empty") from None
        header = [name.strip() for name in header]
        expected = set(COLUMNS)
        if optional_column is not None and optional_column not in header:
            expected = expected - {optional_column}
        seen = set(header)
        if len(header) != len(seen):
            raise DataError(f"{path}: duplicate column in header")
        missing = expected - seen
        if missing:
            raise DataError(f"{path}: missing column {sorted(missing)[0]!r}")
        unknown = seen - set(COLUMNS)
        if unknown:
            raise DataError(f"{path}: unknown column {sorted(unknown)[0]!r}")
        pos = {name: header.index(name) for name in header}

        records = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(f"line {line_no}: expected {len(header)} fields, got {len(row)}")

            def cell(column):
                return row[pos[column]] if column in pos else None

            age = _parse_int(cell("Age"), "Age", line_no)
            if age < 0:
                raise DataError(f"line {line_no}: column Age: must be >= 0")
            duration = _parse_float(cell("Duration"), "Duration", line_no)
            if duration < 0:
                raise DataError(f"line {line_no}: column Duration: must be >= 0")
            motion = (None if cell("MotionSickness") is None
                      else _parse_int(cell("MotionSickness"), "MotionSickness", line_no))
            immersion = (None if cell("ImmersionLevel") is None
                         else _parse_int(cell("ImmersionLevel"), "ImmersionLevel", line_no))
            records.append(RawRecord(
                age=age,
                gender=_parse_enum(cell("Gender"), GENDERS, "Gender", line_no),
                vr_headset=_parse_enum(cell("VRHeadset"), HEADSETS, "VRHeadset", line_no),
                duration=duration,
                motion_sickness=motion,
                immersion_level=immersion,
            ))
    if not records:
        raise DataError(f"{path}: no data rows")
    return records


def record_to_row(record: RawRecord) -> str:
    """Serialize one record in schema column order; floats via repr, so a
    written-then-loaded file reproduces every value exactly."""
    return ",".join([
        str(record.age),
        record.gender,
        record.vr_headset,
        repr(record.duration),
        str(record.motion_sickness),
        str(record.immersion_level),
    ])


def write_csv(records, path) -> None:
    """Write records in the canonical header order with \\n line endings."""
    lines = [",".join(COLUMNS)]
    lines += [record_to_row(r) for r in records]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _score_value(record: RawRecord, column: str):
    return record.motion_sickness if column == "MotionSickness" else record.immersion_level


def encode_features(record: RawRecord, spec: TargetSpec) -> np.ndarray:
    """Numeric feature vector, length 9, in documented order:

    [age, duration, leftover score column,
     gender one-hot (Male, Female, Other),
     headset one-hot (HTC Vive, Oculus Rift, PlayStation VR)].

    The target column itself never appears among the features.
    """
    other_column = "MotionSickness" if spec.target_column == "ImmersionLevel" else "ImmersionLevel"
    other = _score_value(record, other_column)
    if other is None:
        raise DataError(f"column {other_column} is required as a feature but is missing")
    vec = [float(record.age), float(record.duration), float(other)]
    vec += [1.0 if record.gender == g else 0.0 for g in GENDERS]
    vec += [1.0 if record.vr_headset == h else 0.0 for h in HEADSETS]
    return np.array(vec)


def feature_names(spec: TargetSpec) -> tuple:
    other = "MotionSickness" if spec.target_column == "ImmersionLevel" else "ImmersionLevel"
    return (("Age", "Duration", other)
            + tuple(f"Gender={g}" for g in GENDERS)
            + tuple(f"VRHeadset={h}" for h in HEADSETS))


def encode(records, spec: TargetSpec) -> list:
    """Encode records to (features, {0,1} label) pairs under the target rule.

    Warns (UserWarning) when every label comes out identical; downstream
    training will reject such data.
    """
    if not records:
        raise ValueError("encode: no records")
    examples = []
    for record in records:
        target = _score_value(record, spec.target_column)
        if target is None:
            raise DataError(f"column {spec.target_column} is required to compute labels")
        label = 1 if target >= spec.threshold else 0
        examples.append(EncodedExample(features=encode_features(record, spec), label=label))
    labels = {ex.label for ex in examples}
    if len(labels) == 1:
        warnings.warn(f"all labels identical ({labels.pop()}); training cannot proceed "
                      f"on single-class data", UserWarning, stacklevel=2)
    return examples


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def split_indices(n: int, ratio: float, seed: int, labels=None,
                  stratified: bool = False):
    """Seeded Fisher-Yates permutation of range(n); first round(ratio*n) go
    to train. Stratified mode shuffles and splits each class separately."""
    if n < 2:
        raise ValueError("split: need at least 2 examples")
    if not 0 < ratio < 1:
        raise ValueError("split: ratio must be in (0, 1)")
    rng = Rng(seed)
    if not stratified:
        order = list(range(n))
        rng.shuffle(order)
        k = _round_half_up(ratio * n)
        return order[:k], order[k:]
    if labels is None:
        raise ValueError("split: stratified mode needs labels")
    labels = np.asarray(labels)
    train, test = [], []
    for cls in (0, 1):
        cls_idx = [i for i in range(n) if labels[i] == cls]
        rng.shuffle(cls_idx)
        k = _round_half_up(ratio * len(cls_idx))
        train += cls_idx[:k]
        test += cls_idx[k:]
    rng.shuffle(train)
    rng.shuffle(test)
    return train, test


def split(examples, ratio: float, seed: int, stratified: bool = False) -> SplitDataset:
    """Partition encoded examples into train/test at the given ratio."""
    labels = [ex.label for ex in examples] if stratified else None
    train_idx, test_idx = split_indices(len(examples), ratio, seed, labels, stratified)
    return SplitDataset(
        train=[examples[i] for i in train_idx],
        test=[examples[i] for i in test_idx],
        train_indices=train_idx,
        test_indices=test_idx,
        seed=seed,
        ratio=ratio,
    )


def fit_standardizer(train, indices=NUMERIC_FEATURE_INDICES) -> Standardizer:
    """Fit per-feature mean and population stddev on the training split only."""
    if not train:
        raise ValueError("fit_standardizer: empty training set")
    X = np.stack([ex.features for ex in train])
    means, stds, constant = [], [], []
    for idx in indices:
        col = X[:, idx]
        mu = float(np.mean(col))
        sd = float(np.sqrt(np.mean((col - mu) ** 2)))
        means.append(mu)
        stds.append(sd)
        constant.append(sd == 0.0)
    return Standardizer(indices=tuple(indices), means=np.array(means),
                        stds=np.array(stds), constant=tuple(constant))


def apply_standardizer(standardizer: Standardizer, examples) -> list:
    """Z-score the numeric features; one-hot and constant columns untouched."""
    out = []
    for ex in examples:
        feats = ex.features.copy()
        for j, idx in enumerate(standardizer.indices):
            if not standardizer.constant[j]:
                feats[idx] = (feats[idx] - standardizer.means[j]) / standardizer.stds[j]
        out.append(EncodedExample(features=feats, label=ex.label))
    return out


# Synthetic generator link: immersion is driven by a logistic score over
# motion sickness (negatively), session duration (positively), and the
# headset, each roughly standardized to unit scale.
_MOTION_MEAN, _MOTION_STD = 5.5, math.sqrt(99.0 / 12.0)   # uniform {1..10}
_DURATION_MEAN, _DURATION_STD = 32.5, 55.0 / math.sqrt(12.0)  # uniform (5, 60)
_HEADSET_EFFECT = {"HTC Vive": 1.0, "Oculus Rift": 0.0, "PlayStation VR": -1.0}
_LINK_COEF = (-1.0, 0.6, 0.5)  # motion, duration, headset


def signal_score(motion_sickness: float, duration: float, vr_headset: str) -> float:
    """Centered feature combination feeding the generator's logistic link."""
    cm, cd, ch = _LINK_COEF
    return (cm * (motion_sickness - _MOTION_MEAN) / _MOTION_STD
            + cd * (duration - _DURATION_MEAN) / _DURATION_STD
            + ch * _HEADSET_EFFECT[vr_headset])


def gen_synthetic(n: int, seed: int, signal_strength: float) -> list:
    """Generate n schema-compatible records with a plantable signal.

    ImmersionLevel lands in {4,5} with probability sigmoid(signal_strength *
    signal_score(...)) and in {1,2,3} otherwise, so the default target rule
    (ImmersionLevel >= 4) recovers exactly the planted labels. At
    signal_strength 0 the labels are independent fair coin flips.

    Per-record draw order (fixed for reproducibility): age, gender, headset,
    duration, motion sickness, the label uniform, the in-band level.
    """
    if n < 1:
        raise ValueError("gen_synthetic: n must be >= 1")
    if signal_strength < 0:
        raise ValueError("gen_synthetic: signal_strength must be >= 0")
    rng = Rng(seed)
    records = []
    for _ in range(n):
        age = rng.randint(18, 60)
        gender = GENDERS[rng.randint(0, 2)]
        headset = HEADSETS[rng.randint(0, 2)]
        duration = rng.uniform(5.0, 60.0)
        motion = rng.randint(1, 10)
        p_high = sigmoid(signal_strength * signal_score(motion, duration, headset))
        high = rng.uniform(0.0, 1.0) < p_high
        immersion = rng.randint(4, 5) if high else rng.randint(1, 3)
        records.append(RawRecord(age=age, gender=gender, vr_headset=headset,
                                 duration=duration, motion_sickness=motion,
                                 immersion_level=immersion))
    return records


def synthetic_bayes_rate(records, signal_strength: float) -> float:
    """Best achievable accuracy on the planted labels, by direct evaluation
    of the known link: mean over records of max(p, 1-p)."""
    best = [max(p, 1.0 - p) for p in
            (sigmoid(signal_strength * signal_score(r.motion_sickness, r.duration,
                                                    r.vr_headset))
             for r in records)]
    return math.fsum(best) / len(best)


def majority_rate(labels) -> float:
    """Frequency of the most common label; the constant-classifier baseline."""
    labels = np.asarray(labels)
    ones = int(np.sum(labels == 1))
    return max(ones, len(labels) - ones) / len(labels)
