"""Tabular VR-experience records: CSV I/O, encoding, splitting, synthesis.

The schema is six columns — Age, Gender, VRHeadset, Duration, MotionSickness,
ImmersionLevel. The binary target is a thresholded score column (default
ImmersionLevel >= 4); this is a configurable surrogate since the source data
offers no canonical label. Encoded feature order is documented on encode().
"""

import csv
import math
import os
import stat
from dataclasses import dataclass

import numpy as np

from .errors import DataError, UsageError
from .numerics import Rng, randint_of, sigmoid, uniform_of

COLUMNS = ("Age", "Gender", "VRHeadset", "Duration", "MotionSickness", "ImmersionLevel")
GENDERS = ("Male", "Female", "Other")
HEADSETS = ("HTC Vive", "Oculus Rift", "PlayStation VR")
TARGET_COLUMNS = ("MotionSickness", "ImmersionLevel")
SCORE_RANGES = {"MotionSickness": (1, 10), "ImmersionLevel": (1, 5)}  # inclusive

NUMERIC_FEATURE_INDICES = (0, 1, 2)  # age, duration, leftover score column
N_FEATURES = len(NUMERIC_FEATURE_INDICES) + len(GENDERS) + len(HEADSETS)

# write_lines replaces a file only where os can tell whether the effective
# user may write it and whether it carries extended attributes (Linux)
_CAN_REPLACE = hasattr(os, "listxattr") and os.access in os.supports_effective_ids


@dataclass
class Table:
    """The six-column table: one list per schema column name, in row order.

    Ages stay Python ints, so an age beyond int64 is written back exactly.
    A score column is None only when it was declared optional at load time
    and the file lacks it (prediction inputs).
    """

    columns: dict

    def __len__(self) -> int:
        return len(self.columns["Age"])

    def take(self, idx) -> "Table":
        """The rows idx, in that order."""
        return Table({name: None if col is None else [col[i] for i in idx]
                      for name, col in self.columns.items()})


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
    """z-score parameters of the NUMERIC_FEATURE_INDICES columns, fitted on the training split.

    Uses the population (1/n) standard deviation. A column whose std is 0 is
    constant and passed through unchanged.
    """

    means: np.ndarray
    stds: np.ndarray


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


def _parse_score(text: str, column: str, line: int) -> int:
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


def load_csv(path, optional_column: str | None = None) -> Table:
    """Read a six-column CSV into a Table, preserving row order.

    The header must contain exactly the six schema names, in any order;
    optional_column (a score column) may be absent, in which case its
    column is None. A leading UTF-8 byte-order mark is skipped.
    Scores must lie in SCORE_RANGES: MotionSickness 1..10, ImmersionLevel 1..5;
    Age must be a non-negative integer that converts to a finite float64.
    Raises DataError for schema problems, non-UTF-8 text and text the csv
    module cannot read (a field over its size limit), with the line
    number for row-level ones: the first bad line, and within it the first
    failed check in the order Age, Duration, the scores, Gender, VRHeadset.
    """
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            return _read_table(reader, path, optional_column)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise DataError(f"{path}: line {reader.line_num}: {exc}") from None


def _read_table(reader, path, optional_column: str | None) -> Table:
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{path}: file is empty") from None
    header = [name.strip() for name in header]
    seen = set(header)
    if len(header) != len(seen):
        raise DataError(f"{path}: duplicate column in header")
    missing = set(COLUMNS) - seen - {optional_column}
    if missing:
        raise DataError(f"{path}: missing column {sorted(missing)[0]!r}")
    unknown = seen - set(COLUMNS)
    if unknown:
        raise DataError(f"{path}: unknown column {sorted(unknown)[0]!r}")

    columns = {name: [] if name in seen else None for name in COLUMNS}
    ages, genders, headsets, durations = (columns[name] for name in COLUMNS[:4])
    i_age, i_gender, i_headset, i_duration = (header.index(name) for name in COLUMNS[:4])
    scores = [(header.index(name), name, columns[name]) for name in TARGET_COLUMNS
              if name in seen]
    for row in reader:
        if not row:
            continue
        line_no = reader.line_num  # physical: a quoted field may span lines
        if len(row) != len(header):
            raise DataError(f"line {line_no}: expected {len(header)} fields, got {len(row)}")
        age = _parse_int(row[i_age], "Age", line_no)
        if age < 0:
            raise DataError(f"line {line_no}: column Age: must be >= 0")
        try:
            float(age)  # encode() reads Age as a float64
        except OverflowError:
            raise DataError(f"line {line_no}: column Age: too large for a float64") from None
        ages.append(age)
        duration = _parse_float(row[i_duration], "Duration", line_no)
        if duration < 0:
            raise DataError(f"line {line_no}: column Duration: must be >= 0")
        durations.append(duration)
        for i, name, column in scores:
            column.append(_parse_score(row[i], name, line_no))
        genders.append(_parse_enum(row[i_gender], GENDERS, "Gender", line_no))
        headsets.append(_parse_enum(row[i_headset], HEADSETS, "VRHeadset", line_no))
    if not ages:
        raise DataError(f"{path}: no data rows")
    return Table(columns)


def write_lines(path, lines) -> None:
    """Write text lines as UTF-8, each ending in \\n on every platform.
    Every file the package outputs is written here.

    An existing file is replaced, not truncated, when os.lstat shows a
    regular file with one link, owned by this process's effective user and
    group, writable by it and carrying no extended attribute (so no ACL):
    the old name is unlinked, the path is created afresh with O_EXCL, and
    the new file gets the old one's group and exact permission bits. ext4
    with its default `auto_da_alloc` flushes a file truncated to zero when
    it is closed, which makes a small rewrite wait on the disk (README's
    "Where the time goes" gives the cost); an unlink and a create do not. A
    reader that has the old file open keeps reading the whole old file.

    Every other case takes the truncating open(path, "w"): no file at the
    path, a symlink (its target is written), a hard-linked file, a file of
    another user or group, a read-only file, a FIFO, a device, a
    directory, a platform without os.listxattr, and an unlink or exclusive
    create that fails. Neither path calls fsync: after a crash a replaced
    file may be empty or missing, never a mix of old and new content. The
    bytes written are the same on both paths.
    """
    fd = _replace(path)
    with open(path if fd is None else fd, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(line + "\n" for line in lines)


def _replace(path) -> int | None:
    """A write descriptor of a new file that replaced the one at path, or
    None when write_lines must truncate instead (see there)."""
    if not _CAN_REPLACE:
        return None
    try:
        old = os.lstat(path)
        if not (stat.S_ISREG(old.st_mode) and old.st_nlink == 1
                and old.st_uid == os.geteuid() and old.st_gid == os.getegid()
                and os.access(path, os.W_OK, effective_ids=True)
                and not os.listxattr(path, follow_symlinks=False)):
            return None
        os.unlink(path)
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_CLOEXEC, 0o600)
    except OSError:
        return None
    try:
        if os.fstat(fd).st_gid != old.st_gid:  # a setgid directory gave its own group
            os.fchown(fd, -1, old.st_gid)
        os.fchmod(fd, stat.S_IMODE(old.st_mode))
    except OSError:
        os.close(fd)
        raise
    return fd


def write_csv(table: Table, path) -> None:
    """Write table in the canonical header order; floats via repr, so a
    written-then-loaded file reproduces every value exactly. Raises
    ValueError when a column is absent."""
    for name in COLUMNS:
        if table.columns[name] is None:
            raise ValueError(f"write_csv: column {name} is absent")
    write_lines(path, [",".join(COLUMNS)] + [
        f"{age},{gender},{headset},{duration!r},{motion},{immersion}"
        for age, gender, headset, duration, motion, immersion
        in zip(*(table.columns[name] for name in COLUMNS))])


def encode(table: Table, spec: TargetSpec) -> np.ndarray:
    """The (N, 9) float64 feature matrix of table (N may be 0), one row per record, in
    documented order:

    [age, duration, leftover score column,
     gender one-hot (Male, Female, Other),
     headset one-hot (HTC Vive, Oculus Rift, PlayStation VR)].

    The target column itself never appears among the features.
    """
    cols = table.columns
    other_column = "MotionSickness" if spec.target_column == "ImmersionLevel" else "ImmersionLevel"
    other = cols[other_column]
    if other is None:
        raise DataError(f"column {other_column} is required as a feature but is missing")
    return np.column_stack([np.array(cols["Age"], dtype=float), cols["Duration"], other,
                            np.array(cols["Gender"])[:, None] == np.array(GENDERS),
                            np.array(cols["VRHeadset"])[:, None] == np.array(HEADSETS)])


def encode_labels(table: Table, spec: TargetSpec) -> np.ndarray:
    """The (N,) {0,1} labels of table under the target rule."""
    target = table.columns[spec.target_column]
    if target is None:
        raise DataError(f"column {spec.target_column} is required to compute labels")
    return (np.array(target) >= spec.threshold).astype(int)


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
        raise UsageError("split: ratio must be in (0, 1)")
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
            cls_idx = np.flatnonzero(labels == cls).tolist()
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


def fit_standardizer(X) -> Standardizer:
    """Fit per-column mean and population stddev on the training matrix X only.

    Raises DataError when a column's mean or std overflows float64.
    """
    X = np.asarray(X, dtype=float)
    if len(X) == 0:
        raise ValueError("fit_standardizer: empty training set")
    means, stds = [], []
    for idx in NUMERIC_FEATURE_INDICES:
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
    return Standardizer(means=np.array(means), stds=np.array(stds))


def apply_standardizer(standardizer: Standardizer, X, rows=None) -> np.ndarray:
    """A copy of the matrix X with the numeric columns z-scored, column by
    column; one-hot and constant (std 0) columns untouched.

    rows gives each row of X its 0-based index among its table's data rows
    (default 0 .. N-1), which names a row in an error. Raises DataError
    naming the first row, and its first feature, whose z-score overflows
    float64, which a finite value, mean and std can make.
    """
    src = np.asarray(X, dtype=float)
    out = src.copy()
    scaled = []
    with np.errstate(over="ignore"):  # checked just below
        for idx, mu, sd in zip(NUMERIC_FEATURE_INDICES, standardizer.means.tolist(),
                               standardizer.stds.tolist()):
            if sd != 0.0:
                out[:, idx] = (out[:, idx] - mu) / sd
                scaled.append((idx, mu, sd))
    if not np.isfinite(out).all():
        bad = ~np.isfinite(out[:, [idx for idx, _, _ in scaled]])
        if bad.any():
            r, k = np.argwhere(bad)[0].tolist()  # row-major: first row, then its feature
            idx, mu, sd = scaled[k]
            row = r if rows is None else int(rows[r])
            raise DataError(f"data row {row + 1}: the z-score of feature {idx}, "
                            f"({float(src[r, idx])!r} - {mu!r}) / {sd!r}, overflows float64")
    return out


# Synthetic generator link: immersion is driven by a logistic score over
# motion sickness (negatively), session duration (positively), and the
# headset, each roughly standardized to unit scale.
_MOTION_MEAN, _MOTION_STD = 5.5, math.sqrt(99.0 / 12.0)   # uniform {1..10}
_DURATION_MEAN, _DURATION_STD = 32.5, 55.0 / math.sqrt(12.0)  # uniform (5, 60)
_HEADSET_EFFECT = np.array([1.0, 0.0, -1.0])  # HTC Vive, Oculus Rift, PlayStation VR
_LINK_COEF = (-1.0, 0.6, 0.5)  # motion, duration, headset


def signal_score(motion_sickness, duration, headset):
    """Centered feature combination feeding the generator's logistic link.

    headset is an index into HEADSETS. Each argument may be a number or an
    array; arrays give the score of each entry, by the same float64
    operations in the same order.
    """
    cm, cd, ch = _LINK_COEF
    return (cm * (motion_sickness - _MOTION_MEAN) / _MOTION_STD
            + cd * (duration - _DURATION_MEAN) / _DURATION_STD
            + ch * _HEADSET_EFFECT[headset])


def _p_high(score, signal_strength) -> np.ndarray:
    """sigmoid(signal_strength * score) of the link scores; a product past
    float64's range is inf, as a Python float product is, and warns of nothing."""
    with np.errstate(over="ignore"):
        return sigmoid(signal_strength * score)


# record count and signal strength of a synthetic dataset drawn by the CLI
SYNTHETIC_N, SYNTHETIC_SIGNAL = 500, 4.0


def gen_synthetic(n: int, seed: int, signal_strength: float) -> Table:
    """Generate a Table of n schema-compatible records with a plantable signal.

    ImmersionLevel lands in {4,5} with probability sigmoid(signal_strength *
    signal_score(...)) and in {1,2,3} otherwise, so the default target rule
    (ImmersionLevel >= 4) recovers exactly the planted labels. At
    signal_strength 0 the labels are independent fair coin flips.

    Per-record draw order (fixed for reproducibility): age, gender, headset,
    duration, motion sickness, the label uniform, the in-band level. The
    records are drawn by column, from one bulk draw of 7n outputs, with the
    values of one randint or uniform call per draw.
    """
    if n < 1:
        raise UsageError("gen_synthetic: n must be >= 1")
    if not (math.isfinite(signal_strength) and signal_strength >= 0):  # NaN fails both
        raise UsageError("gen_synthetic: signal_strength must be finite and >= 0")
    draws = Rng(seed).next_u64_array(7 * n).reshape(n, 7).T  # one row per draw kind
    age, gender, headset, duration, motion, label, level = draws
    headset = randint_of(headset, 0, 2)
    duration = uniform_of(duration, 5.0, 60.0)
    motion = randint_of(motion, 1, 10)
    high = uniform_of(label, 0.0, 1.0) < _p_high(signal_score(motion, duration, headset),
                                                 signal_strength)
    immersion = np.where(high, randint_of(level, 4, 5), randint_of(level, 1, 3))
    return Table(dict(zip(COLUMNS, (
        randint_of(age, 18, 60).tolist(),
        [GENDERS[i] for i in randint_of(gender, 0, 2).tolist()],
        [HEADSETS[i] for i in headset.tolist()],
        duration.tolist(), motion.tolist(), immersion.tolist()))))


def synthetic_bayes_rate(table: Table, signal_strength: float) -> float:
    """Best achievable accuracy on the planted labels, by direct evaluation
    of the known link: mean over records of max(p, 1-p)."""
    cols = table.columns
    p = _p_high(signal_score(np.array(cols["MotionSickness"]), np.array(cols["Duration"]),
                             list(map(HEADSETS.index, cols["VRHeadset"]))), signal_strength)
    return math.fsum(np.maximum(p, 1.0 - p).tolist()) / len(p)


def majority_rate(labels) -> float:
    """Frequency of the most common label; the constant-classifier baseline."""
    labels = np.asarray(labels)
    ones = int(np.sum(labels == 1))
    return max(ones, len(labels) - ones) / len(labels)
