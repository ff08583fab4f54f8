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
SCORE_RANGES = {"MotionSickness": (1, 10), "ImmersionLevel": (1, 5)}  # inclusive

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


def _parse_score(text: str | None, column: str, line: int) -> int | None:
    if text is None:
        return None
    value = _parse_int(text, column, line)
    lo, hi = SCORE_RANGES[column]
    if not lo <= value <= hi:
        raise DataError(f"line {line}: column {column}: {value} is outside {lo}..{hi}")
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
    Scores must lie in SCORE_RANGES: MotionSickness 1..10, ImmersionLevel 1..5;
    Age must be a non-negative integer that converts to a finite float64.
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
            try:
                float(age)  # encode_features reads Age as a float64
            except OverflowError:
                raise DataError(f"line {line_no}: column Age: too large for a float64") from None
            duration = _parse_float(cell("Duration"), "Duration", line_no)
            if duration < 0:
                raise DataError(f"line {line_no}: column Duration: must be >= 0")
            motion = _parse_score(cell("MotionSickness"), "MotionSickness", line_no)
            immersion = _parse_score(cell("ImmersionLevel"), "ImmersionLevel", line_no)
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


def write_lines(path, lines) -> None:
    """Write text lines as UTF-8, each ending in \\n on every platform.
    Every file the package outputs is written here."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(line + "\n" for line in lines)


def write_csv(records, path) -> None:
    """Write records in the canonical header order."""
    write_lines(path, [",".join(COLUMNS)] + [record_to_row(r) for r in records])


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


def encode(records, spec: TargetSpec) -> np.ndarray:
    """The (N, 9) float64 feature matrix of records, one encode_features() row each."""
    if not records:
        raise ValueError("encode: no records")
    return np.stack([encode_features(record, spec) for record in records])


def encode_labels(records, spec: TargetSpec) -> np.ndarray:
    """The (N,) {0,1} labels of records under the target rule.

    Warns (UserWarning) when every label comes out identical; downstream
    training will reject such data.
    """
    if not records:
        raise ValueError("encode_labels: no records")
    labels = []
    for record in records:
        target = _score_value(record, spec.target_column)
        if target is None:
            raise DataError(f"column {spec.target_column} is required to compute labels")
        labels.append(1 if target >= spec.threshold else 0)
    if len(set(labels)) == 1:
        warnings.warn(f"all labels identical ({labels[0]}); training cannot proceed "
                      f"on single-class data", UserWarning, stacklevel=2)
    return np.array(labels)


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def split_indices(n: int, ratio: float, seed: int, labels=None,
                  stratified: bool = False):
    """(train, test) indices of a seeded Fisher-Yates permutation of range(n);
    the first round(ratio*n) go to train. Stratified mode shuffles and splits
    each class separately. Raises DataError when either side comes out empty.
    """
    if n < 2:
        raise ValueError("split: need at least 2 examples")
    if not 0 < ratio < 1:
        raise ValueError("split: ratio must be in (0, 1)")
    rng = Rng(seed)
    if not stratified:
        order = list(range(n))
        rng.shuffle(order)
        k = _round_half_up(ratio * n)
        train, test = order[:k], order[k:]
    else:
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
    for side, idx in (("train", train), ("test", test)):
        if not idx:
            raise DataError(f"split: ratio {ratio} of {n} examples leaves the "
                            f"{side} side empty")
    return train, test


def fit_standardizer(X, indices=NUMERIC_FEATURE_INDICES) -> Standardizer:
    """Fit per-column mean and population stddev on the training matrix X only.

    Raises DataError when a column's mean or std overflows float64.
    """
    X = np.asarray(X, dtype=float)
    if len(X) == 0:
        raise ValueError("fit_standardizer: empty training set")
    means, stds, constant = [], [], []
    for idx in indices:
        col = X[:, idx]
        with np.errstate(over="ignore", invalid="ignore"):  # checked just below
            mu = float(np.mean(col))
            # the rounded mean can miss a repeated value by an ulp: that column has std 0
            sd = float(np.sqrt(np.mean((col - mu) ** 2))) if np.any(col != col[0]) else 0.0
        if not (math.isfinite(mu) and math.isfinite(sd)):
            raise DataError(f"standardizer: feature {idx} has mean {mu!r} and std {sd!r}, "
                            f"which must be finite")
        means.append(mu)
        stds.append(sd)
        constant.append(sd == 0.0)
    return Standardizer(indices=tuple(indices), means=np.array(means),
                        stds=np.array(stds), constant=tuple(constant))


def apply_standardizer(standardizer: Standardizer, X) -> np.ndarray:
    """A copy of the matrix X with the numeric columns z-scored, column by
    column; one-hot and constant columns untouched."""
    out = np.array(X, dtype=float)
    for j, idx in enumerate(standardizer.indices):
        if not standardizer.constant[j]:
            out[:, idx] = (out[:, idx] - standardizer.means[j]) / standardizer.stds[j]
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
