import ast
import csv
import io
import math
import os
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import data_oracle
from vrboost import cli
from vrboost import data as data_mod
from vrboost.data import (COLUMNS, GENDERS, HEADSETS, NUMERIC_FEATURE_INDICES, N_FEATURES,
                          SCORE_RANGES, Table, TargetSpec, apply_standardizer, encode,
                          encode_labels, fit_standardizer, gen_synthetic, load_csv,
                          majority_rate, signal_score, split_indices, synthetic_bayes_rate,
                          write_csv, write_lines)
from vrboost.errors import DataError

HEADER = "Age,Gender,VRHeadset,Duration,MotionSickness,ImmersionLevel"

SAMPLE_ROWS = [
    "40,Male,HTC Vive,13.59850823,8,5",
    "43,Female,HTC Vive,19.95081498,2,2",
    "27,Male,PlayStation VR,16.5433874,4,2",
    "46,Other,PlayStation VR,48.88756499,6,2",
]


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def _table(*rows):
    """A Table of rows given as tuples in COLUMNS order."""
    return Table(dict(zip(COLUMNS, map(list, zip(*rows)))))


def _rows(table):
    return list(zip(*(table.columns[name] for name in COLUMNS)))


def test_load_csv_parses_rows(tmp_path):
    path = _write(tmp_path, HEADER + "\n" + "\n".join(SAMPLE_ROWS) + "\n")
    table = load_csv(path)
    assert len(table) == 4
    rows = _rows(table)
    assert rows[0] == (40, "Male", "HTC Vive", 13.59850823, 8, 5)
    assert rows[3] == (46, "Other", "PlayStation VR", 48.88756499, 6, 2)


def test_table_take_keeps_the_given_order_and_an_absent_column():
    table = _table((40, "Male", "HTC Vive", 1.5, 8, 5), (41, "Other", "Oculus Rift", 2.5, 3, 1),
                   (42, "Female", "PlayStation VR", 3.5, 1, 4))
    assert _rows(table.take([2, 0])) == [_rows(table)[2], _rows(table)[0]]
    table.columns["ImmersionLevel"] = None
    picked = table.take([1])
    assert len(picked) == 1 and picked.columns["ImmersionLevel"] is None


def test_load_csv_any_column_order(tmp_path):
    path = _write(tmp_path, "Duration,Age,ImmersionLevel,Gender,MotionSickness,VRHeadset\n"
                            "13.5,40,5,Male,8,HTC Vive\n")
    assert _rows(load_csv(path)) == [(40, "Male", "HTC Vive", 13.5, 8, 5)]


def test_load_csv_trims_whitespace(tmp_path):
    path = _write(tmp_path, HEADER + "\n40, Male , HTC Vive ,13.5,8,5\n")
    table = load_csv(path)
    assert table.columns["Gender"] == ["Male"] and table.columns["VRHeadset"] == ["HTC Vive"]


def test_load_csv_schema_errors(tmp_path):
    no_age = _write(tmp_path, HEADER.replace("Age,", "") + "\n", "a.csv")
    with pytest.raises(DataError, match="Age"):
        load_csv(no_age)
    extra = _write(tmp_path, HEADER + ",HeartRate\n", "b.csv")
    with pytest.raises(DataError, match="HeartRate"):
        load_csv(extra)
    empty = _write(tmp_path, "", "c.csv")
    with pytest.raises(DataError, match="empty"):
        load_csv(empty)
    header_only = _write(tmp_path, HEADER + "\n", "d.csv")
    with pytest.raises(DataError, match="no data rows"):
        load_csv(header_only)


def test_load_csv_row_errors_carry_line_numbers(tmp_path):
    bad_enum = _write(tmp_path, HEADER + "\n" + SAMPLE_ROWS[0] + "\n"
                      "40,Unknown,HTC Vive,13.5,8,5\n", "a.csv")
    with pytest.raises(DataError, match="line 3"):
        load_csv(bad_enum)
    bad_number = _write(tmp_path, HEADER + "\n40,Male,HTC Vive,abc,8,5\n", "b.csv")
    with pytest.raises(DataError, match="line 2"):
        load_csv(bad_number)
    bad_age = _write(tmp_path, HEADER + "\n4.5,Male,HTC Vive,1.0,8,5\n", "c.csv")
    with pytest.raises(DataError, match="Age"):
        load_csv(bad_age)


def test_load_csv_numbers_lines_physically_after_a_multiline_field(tmp_path):
    # record 1 spans lines 2-3 (a quoted Age holding a newline), so the bad
    # Gender of the third record is on physical line 5, as the csv module counts
    path = _write(tmp_path, HEADER + '\n"30\n",Male,HTC Vive,1.0,8,5\n' + SAMPLE_ROWS[1] + "\n"
                  "40,Unknown,HTC Vive,1.0,8,5\n")
    with pytest.raises(DataError, match="^line 5: column Gender"):
        load_csv(path)


def test_load_csv_rejects_an_age_beyond_float64(tmp_path):
    # 309 digits still convert (1e308 < max float64); 400 overflow
    fits = _write(tmp_path, HEADER + "\n" + "9" * 308 + ",Male,HTC Vive,1.0,8,5\n", "a.csv")
    assert load_csv(fits).columns["Age"] == [int("9" * 308)]
    huge = _write(tmp_path, HEADER + "\n" + SAMPLE_ROWS[0] + "\n"
                  + "9" * 400 + ",Male,HTC Vive,1.0,8,5\n", "b.csv")
    with pytest.raises(DataError, match="line 3: column Age: too large"):
        load_csv(huge)
    assert cli.main(["train", "--data", str(huge), "--out-dir", str(tmp_path / "run")]) == 3


def test_load_csv_rejects_scores_out_of_range(tmp_path):
    bad = [("40,Male,HTC Vive,13.5,999,5", "MotionSickness"),
           ("40,Male,HTC Vive,13.5,0,5", "MotionSickness"),
           ("40,Male,HTC Vive,13.5,8,-7", "ImmersionLevel"),
           ("40,Male,HTC Vive,13.5,8,6", "ImmersionLevel")]
    for k, (row, column) in enumerate(bad):
        path = _write(tmp_path, HEADER + "\n" + SAMPLE_ROWS[0] + "\n" + row + "\n", f"{k}.csv")
        with pytest.raises(DataError, match=f"line 3: column {column}"):
            load_csv(path)
    edges = _write(tmp_path, HEADER + "\n40,Male,HTC Vive,13.5,1,1\n"
                   "40,Male,HTC Vive,13.5,10,5\n", "edges.csv")
    table = load_csv(edges)
    assert table.columns["MotionSickness"] == [1, 10]
    assert table.columns["ImmersionLevel"] == [1, 5]


@pytest.mark.parametrize("row, message", [
    ("-1,Male,HTC Vive,abc,8,5", "column Age: must be >= 0"),
    ("9" * 400 + ",Male,HTC Vive,-1.0,8,5", "column Age: too large"),
    ("40,Unknown,HTC Vive,abc,8,5", "column Duration: 'abc' is not a number"),
    ("40,Unknown,HTC Vive,-2.0,8,5", "column Duration: must be >= 0"),
    ("40,Male,Unknown,1.0,0,9", "column MotionSickness: 0 is outside"),
    ("40,Unknown,HTC Vive,1.0,8,9", "column ImmersionLevel: 9 is outside"),
    ("40,Unknown,Unknown,1.0,8,5", "column Gender: unknown value 'Unknown'"),
], ids=["age_before_duration", "age_size_before_duration", "duration_before_gender",
        "duration_sign_before_gender", "motion_before_immersion", "immersion_before_gender",
        "gender_before_headset"])
def test_load_csv_reports_the_first_failed_check_of_the_first_bad_line(tmp_path, row, message):
    # line 4 is bad in every column: only line 3's first failed check may be reported
    path = _write(tmp_path, HEADER + "\n" + SAMPLE_ROWS[0] + "\n" + row + "\n"
                  "x,Unknown,Unknown,abc,0,0\n")
    with pytest.raises(DataError) as info:
        load_csv(path)
    assert str(info.value).startswith(f"line 3: {message}")


def test_load_csv_names_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes((HEADER + "\n40,Male,HTC Vive,13.5,8,5\n").encode() + b"\xff\n")
    with pytest.raises(DataError, match="latin1.csv: not UTF-8 text"):
        load_csv(path)


def test_load_csv_optional_target_column(tmp_path):
    text = "Age,Gender,VRHeadset,Duration,MotionSickness\n40,Male,HTC Vive,13.5,8\n"
    path = _write(tmp_path, text)
    table = load_csv(path, optional_column="ImmersionLevel")
    assert table.columns["ImmersionLevel"] is None
    assert table.columns["MotionSickness"] == [8]
    with pytest.raises(DataError, match="ImmersionLevel"):
        load_csv(path)
    # a table without its score column cannot be written back as a schema file
    with pytest.raises(ValueError, match="column ImmersionLevel is absent"):
        write_csv(table, tmp_path / "out.csv")
    assert not (tmp_path / "out.csv").exists()


def test_csv_round_trip_exact(tmp_path):
    table = gen_synthetic(60, seed=5, signal_strength=2.0)
    first = tmp_path / "first.csv"
    write_csv(table, first)
    loaded = load_csv(first)
    assert loaded == table
    second = tmp_path / "second.csv"
    write_csv(loaded, second)
    assert first.read_bytes() == second.read_bytes()


_TABLES = st.lists(st.tuples(
    # small ages, ages about 2**63 where int64 ends, and ages up to 10**300
    st.one_of(st.integers(0, 200), st.integers(2 ** 63 - 2 ** 11, 2 ** 64 + 2 ** 12),
              st.integers(0, 10 ** 300)),
    st.sampled_from(GENDERS),
    st.sampled_from(HEADSETS),
    # every non-negative finite float64: -0.0, subnormals and 1.8e308 included
    st.floats(min_value=-0.0, allow_nan=False, allow_infinity=False),
    st.integers(*SCORE_RANGES["MotionSickness"]),
    st.integers(*SCORE_RANGES["ImmersionLevel"])), min_size=1, max_size=8).map(
        lambda rows: _table(*rows))


@settings(max_examples=40)
@given(_TABLES)
def test_csv_write_load_round_trip_property(tmp_path_factory, table):
    path = tmp_path_factory.getbasetemp() / "table.csv"
    write_csv(table, path)
    loaded = load_csv(path)
    assert loaded == table
    assert list(map(repr, loaded.columns["Duration"])) == list(map(repr, table.columns["Duration"]))


@settings(max_examples=60)
@given(_TABLES, st.sampled_from([TargetSpec("ImmersionLevel", 4), TargetSpec("MotionSickness", 6)]))
@example(_table((40, "Male", "HTC Vive", 13.5, 8, 5), (2 ** 63 + 1025, "Other", "PlayStation VR",
                                                       -0.0, 10, 1)), TargetSpec())
def test_encode_rows_follow_the_documented_layout(table, spec):
    other = "MotionSickness" if spec.target_column == "ImmersionLevel" else "ImmersionLevel"
    X = encode(table, spec)
    assert X.shape == (len(table), N_FEATURES) and X.dtype == np.float64
    for i, (age, gender, headset, duration, *_) in enumerate(_rows(table)):
        want = [float(age), duration, float(table.columns[other][i])]
        want += [1.0 if gender == g else 0.0 for g in GENDERS]
        want += [1.0 if headset == h else 0.0 for h in HEADSETS]
        assert X[i].tobytes() == np.array(want).tobytes()  # -0.0 keeps its sign


def test_crlf_line_endings(tmp_path):
    path = _write(tmp_path, HEADER + "\r\n" + SAMPLE_ROWS[0] + "\r\n")
    assert load_csv(path).columns["Age"] == [40]


def test_load_csv_skips_utf8_byte_order_mark(tmp_path):
    text = HEADER + "\n" + "\n".join(SAMPLE_ROWS) + "\n"
    plain = _write(tmp_path, text, "plain.csv")
    bom = _write(tmp_path, "\ufeff" + text, "bom.csv")
    assert bom.read_bytes()[:3] == b"\xef\xbb\xbf"
    assert load_csv(bom) == load_csv(plain)


def test_encode_labels_and_layout():
    table = _table((40, "Male", "HTC Vive", 13.59850823, 8, 5),
                   (43, "Female", "HTC Vive", 19.95081498, 2, 2))
    spec = TargetSpec("ImmersionLevel", 4)
    X = encode(table, spec)
    assert encode_labels(table, spec).tolist() == [1, 0]
    assert X.shape == (2, 9) and X.dtype == np.float64
    feats = X[0]
    assert feats[0] == 40.0 and feats[1] == 13.59850823
    assert feats[2] == 8.0  # leftover score column, target excluded
    assert np.array_equal(feats[3:6], [1.0, 0.0, 0.0])  # Male one-hot
    assert np.array_equal(feats[6:9], [1.0, 0.0, 0.0])  # HTC Vive one-hot
    assert np.array_equal(X[1], [43.0, 19.95081498, 2.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0])


def test_encode_motion_sickness_target():
    table = _table((40, "Other", "Oculus Rift", 10.0, 8, 5))
    spec = TargetSpec("MotionSickness", 6)
    assert encode_labels(table, spec).tolist() == [1]
    assert encode(table, spec)[0, 2] == 5.0  # immersion becomes the leftover feature


def test_encode_requires_target_values():
    table = _table((30, "Male", "HTC Vive", 10.0, 5, 5))
    table.columns["ImmersionLevel"] = None
    with pytest.raises(DataError, match="ImmersionLevel"):
        encode_labels(table, TargetSpec("ImmersionLevel", 4))
    # features never need the target column...
    assert encode(table, TargetSpec("ImmersionLevel", 4)).shape == (1, 9)
    # ...but the leftover score column is a feature, so it is required
    table = _table((30, "Male", "HTC Vive", 10.0, 5, 5))
    table.columns["MotionSickness"] = None
    with pytest.raises(DataError, match="MotionSickness"):
        encode(table, TargetSpec("ImmersionLevel", 4))


def test_target_spec_validation():
    with pytest.raises(ValueError):
        TargetSpec("Duration", 4)


def test_split_sizes_and_determinism():
    train_idx, test_idx = split_indices(10, 0.7, seed=3)
    assert len(train_idx) == 7 and len(test_idx) == 3
    assert split_indices(10, 0.7, seed=3) == (train_idx, test_idx)
    assert split_indices(10, 0.7, seed=4)[0] != train_idx


def test_split_partition_property_sweep():
    for n in list(range(2, 41)) + [200]:
        train_idx, test_idx = split_indices(n, 0.7, seed=n)
        assert sorted(train_idx + test_idx) == list(range(n))
        assert len(train_idx) == int(math.floor(0.7 * n + 0.5))


def test_split_seven_three_arithmetic():
    train_idx, test_idx = split_indices(449, 0.7, seed=0)
    assert len(train_idx) == 314 and len(test_idx) == 135


def test_split_validation():
    with pytest.raises(ValueError):
        split_indices(1, 0.7, seed=0)
    with pytest.raises(ValueError):
        split_indices(10, 0.0, seed=0)
    with pytest.raises(ValueError):
        split_indices(10, 1.0, seed=0)


@pytest.mark.parametrize("ratio,side", [(0.999, "test"), (0.001, "train")])
@pytest.mark.parametrize("stratified", [False, True])
def test_split_with_an_empty_side_is_a_data_error(ratio, side, stratified):
    labels = [1] * 40 + [0] * 20
    with pytest.raises(DataError, match=f"{side} side empty"):
        split_indices(60, ratio, seed=0, labels=labels, stratified=stratified)


def test_split_stratified_preserves_class_ratios():
    labels = [1] * 40 + [0] * 20
    train_idx, test_idx = split_indices(60, 0.5, seed=8, labels=labels, stratified=True)
    assert sorted(train_idx + test_idx) == list(range(60))
    train_ones = sum(labels[i] for i in train_idx)
    assert train_ones == 20
    assert len(train_idx) == 30


def test_standardizer_hand_case():
    X = np.array([[1.0, 1.0, 0.0],
                  [3.0, 1.0, 0.0]])
    std = fit_standardizer(X)
    assert std.means[0] == 2.0 and std.stds[0] == 1.0
    assert std.stds.tolist()[1:] == [0.0, 0.0]  # constant columns
    out = apply_standardizer(std, X)
    assert out[:, 0].tolist() == [-1.0, 1.0]
    assert np.all(out[:, 1] == 1.0)  # constant passes through


def test_standardizer_flags_a_constant_column_whose_mean_rounds():
    # np.mean of three 0.1s is 0.10000000000000002, whose std would be 1.4e-17
    X = np.full((3, 3), 0.1)
    std = fit_standardizer(X)
    assert std.stds.tolist() == [0.0] * 3
    assert apply_standardizer(std, X).tobytes() == X.tobytes()


def test_standardizer_rejects_a_column_whose_moments_overflow():
    X = np.zeros((4, N_FEATURES))
    X[:, 1] = [1e308, 5e307, 1e308, 5e307]  # finite values whose sum is not
    with pytest.raises(DataError, match="feature 1"):
        fit_standardizer(X)
    X[:, 1] = [1e300, -1e300, 1e300, -1e300]  # a finite mean, squares that are not
    with pytest.raises(DataError, match="feature 1"):
        fit_standardizer(X)


def test_train_on_overflowing_durations_exits_3_before_any_learner_trains(tmp_path,
                                                                          monkeypatch):
    table = gen_synthetic(40, seed=3, signal_strength=4.0)
    table.columns["Duration"] = [1e308 if k % 2 else 5e307 for k in range(40)]
    path = tmp_path / "data.csv"
    write_csv(table, path)

    def no_training(*args, **kwargs):
        raise AssertionError("a learner was trained")

    monkeypatch.setattr(cli, "boost_train", no_training)
    assert cli.main(["train", "--data", str(path), "--out-dir", str(tmp_path / "run")]) == 3
    assert not (tmp_path / "run").exists()


def test_standardizer_normalizes_train_columns():
    raw = encode(gen_synthetic(200, seed=9, signal_strength=1.0), TargetSpec())
    std = fit_standardizer(raw)
    X = apply_standardizer(std, raw)
    for idx in (0, 1, 2):
        assert abs(X[:, idx].mean()) < 1e-10
        assert abs(X[:, idx].std() - 1.0) < 1e-10
    # one-hot block untouched
    assert np.array_equal(X[:, 3:], raw[:, 3:])


# numeric values up to 1e150, so that squared deviations of 40 rows stay finite
_NUMERIC = st.floats(-1e150, 1e150, allow_nan=False)


@st.composite
def _training_matrices(draw):
    """Finite (N, 9) matrices: each numeric column one repeated value (a
    quarter of them) or arbitrary values; the one-hot block 0/1."""
    n = draw(st.integers(1, 40))
    columns = []
    for idx in range(N_FEATURES):
        if idx not in NUMERIC_FEATURE_INDICES:
            columns.append(draw(arrays(float, n, elements=st.sampled_from([0.0, 1.0]))))
        elif draw(st.integers(0, 3)) == 0:
            columns.append(np.full(n, draw(_NUMERIC)))
        else:
            columns.append(draw(arrays(float, n, elements=_NUMERIC)))
    return np.column_stack(columns)


@settings(max_examples=60)
@given(_training_matrices())
def test_standardizer_invariants(X):
    before = X.copy()
    std = fit_standardizer(X)
    out = apply_standardizer(std, X)
    assert X.tobytes() == before.tobytes()  # the input is not mutated
    assert out.shape == X.shape
    one_hot = [idx for idx in range(N_FEATURES) if idx not in NUMERIC_FEATURE_INDICES]
    assert out[:, one_hot].tobytes() == X[:, one_hot].tobytes()
    for j, idx in enumerate(NUMERIC_FEATURE_INDICES):
        col = X[:, idx].tolist()
        constant = std.stds[j] == 0.0
        if len(set(col)) == 1:
            assert constant
        if constant:
            assert out[:, idx].tobytes() == X[:, idx].tobytes()
            continue
        mu, sd = float(std.means[j]), float(std.stds[j])
        want = np.array([(x - mu) / sd for x in col])
        assert out[:, idx].tobytes() == want.tobytes()  # the scalar formula, bit for bit
        # the moments, where the column's spread is not lost to rounding of its values
        if sd >= 1e-4 * max(abs(x) for x in col):
            assert abs(float(np.mean(out[:, idx]))) <= 1e-9
            assert abs(float(np.std(out[:, idx])) - 1.0) <= 1e-9


def test_gen_synthetic_determinism_and_ranges(tmp_path):
    a = gen_synthetic(300, seed=12, signal_strength=4.0)
    b = gen_synthetic(300, seed=12, signal_strength=4.0)
    assert a == b and len(a) == 300
    for age, _, _, duration, motion, immersion in _rows(a):
        assert 18 <= age <= 60
        assert 5.0 <= duration < 60.0
        assert 1 <= motion <= 10
        assert 1 <= immersion <= 5
    assert gen_synthetic(300, seed=13, signal_strength=4.0) != a


def test_gen_synthetic_validation():
    with pytest.raises(ValueError):
        gen_synthetic(0, seed=0, signal_strength=1.0)
    with pytest.raises(ValueError):
        gen_synthetic(10, seed=0, signal_strength=-1.0)


def _link_scores(table):
    cols = table.columns
    return signal_score(np.array(cols["MotionSickness"]), np.array(cols["Duration"]),
                        [HEADSETS.index(name) for name in cols["VRHeadset"]])


def test_null_signal_labels_are_independent_coin_flips():
    table = gen_synthetic(4000, seed=3, signal_strength=0.0)
    assert synthetic_bayes_rate(table, 0.0) == 0.5
    labels = [1 if level >= 4 else 0 for level in table.columns["ImmersionLevel"]]
    assert abs(np.mean(labels) - 0.5) < 0.03
    # association with the link score should be negligible
    scores = _link_scores(table)
    corr = np.corrcoef(scores, labels)[0, 1]
    assert abs(corr) < 0.05


def test_planted_signal_bayes_rate():
    table = gen_synthetic(2000, seed=7, signal_strength=4.0)
    rate = synthetic_bayes_rate(table, 4.0)
    assert rate >= 0.85
    # the oracle rate is achievable: thresholding the true link hits it
    labels = np.array([1 if level >= 4 else 0 for level in table.columns["ImmersionLevel"]])
    link_preds = (_link_scores(table) > 0).astype(int)
    achieved = np.mean(link_preds == labels)
    assert achieved > 0.8


SIGNALS = st.one_of(st.sampled_from((0.0, 5e-324, 1e-300, 0.5, 4.0, 37.0, 1e6, 1e308)),
                    st.floats(0.0, 50.0))


@settings(max_examples=60)
@given(seed=st.integers(0, 2 ** 64 - 1), n=st.integers(1, 300), signal=SIGNALS)
@example(seed=1, n=7, signal=1e308)
def test_gen_synthetic_by_column_is_the_per_record_generator(seed, n, signal):
    table, want = gen_synthetic(n, seed, signal), data_oracle.gen_synthetic(n, seed, signal)
    for name in COLUMNS:
        got = table.columns[name]
        assert got == want.columns[name]
        assert list(map(type, got)) == list(map(type, want.columns[name]))
    cols = want.columns
    scores = list(map(data_oracle.signal_score, cols["MotionSickness"], cols["Duration"],
                      cols["VRHeadset"]))
    assert _link_scores(want).tobytes() == np.array(scores).tobytes()
    rate = synthetic_bayes_rate(table, signal)
    assert type(rate) is float
    assert rate.hex() == data_oracle.synthetic_bayes_rate(want, signal).hex()


def test_majority_rate():
    assert majority_rate([1, 1, 1, 0]) == 0.75
    assert majority_rate([0, 0, 1, 1]) == 0.5


# --- drawn CSV bytes through predict -----------------------------------------

MODEL_V2_SINGLE = Path(__file__).resolve().parent / "fixtures" / "model_v2_single.json"

# a field load_csv accepts, per column
_VALID_FIELDS = {
    "Age": st.integers(0, 99).map(str),
    "Gender": st.sampled_from(GENDERS),
    "VRHeadset": st.sampled_from(HEADSETS),
    "Duration": st.floats(0.0, 100.0).map(repr),
    "MotionSickness": st.integers(*SCORE_RANGES["MotionSickness"]).map(str),
    "ImmersionLevel": st.integers(*SCORE_RANGES["ImmersionLevel"]).map(str),
}
# a field it may refuse: huge integers (past float64, and past int()'s 4300
# digits), any float's repr, padding, quotes, commas and line breaks (which
# csv.writer quotes into a multi-line field), NUL, a field over the csv
# module's size limit and free text
_HUGE_FIELD = "x" * (csv.field_size_limit() + 1)
_ODD_FIELDS = st.one_of(
    st.integers(-10 ** 400, 10 ** 400).map(str),
    st.sampled_from(["1" * 5000, "17" + "0" * 307, "-0", " 7 ", "", '"', 'a"b', "x\ny",
                     "1,2", "\r", "\x00", "male", "\ufeffAge", _HUGE_FIELD]),
    st.floats().map(repr),
    st.text(max_size=6),
)
# bytes that are not UTF-8: a lone continuation byte, a bad lead, a surrogate's encoding
_NOT_UTF8 = st.sampled_from([b"\x80", b"\xff", b"\xc3(", b"\xed\xa0\x80"])


@st.composite
def _csv_bytes(draw, max_rows=5, clean=False):
    """A CSV file's bytes: a header of the schema's columns in drawn order,
    the optional target column sometimes absent, up to max_rows rows of
    valid fields with odd fields, wrong field counts and blank rows mixed
    in, written by csv.writer (quoting as needed or always, LF or CRLF) with
    raw lines between; then maybe a BOM in front and a non-UTF-8 byte
    somewhere. A clean file has every column and valid rows only, and stays
    UTF-8."""
    header = draw(st.permutations(COLUMNS))
    if not clean and draw(st.booleans()):
        header = [name for name in header if name != "ImmersionLevel"]
    if not clean and draw(st.integers(0, 9)) == 0:
        header[draw(st.integers(0, len(header) - 1))] = draw(_ODD_FIELDS)
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL])),
                        lineterminator=draw(st.sampled_from(["\n", "\r\n"])))
    writer.writerow(header)
    kinds = ["valid"] if clean else ["valid", "valid", "odd field", "wrong count", "blank",
                                     "raw"]
    for _ in range(draw(st.integers(0, max_rows))):
        kind = draw(st.sampled_from(kinds))
        row = [draw(_VALID_FIELDS.get(name, st.just("0"))) for name in header]
        if kind == "odd field":
            row[draw(st.integers(0, len(row) - 1))] = draw(_ODD_FIELDS)
        elif kind == "wrong count":
            cut = draw(st.integers(0, len(row) + 2))
            row = row[:cut] if cut < len(row) else row + ["1"] * (cut - len(row) + 1)
        elif kind == "blank":
            row = []
        if kind == "raw":
            buf.write(draw(st.text(max_size=20)) + "\n")
        else:
            writer.writerow(row)
    raw = buf.getvalue().encode("utf-8")
    if draw(st.booleans()):
        raw = b"\xef\xbb\xbf" + raw
    if not clean and draw(st.integers(0, 4)) == 0:
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + draw(_NOT_UTF8) + raw[at:]
    return raw


@pytest.fixture(scope="module")
def csv_fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv_fuzz")


_GOOD_ROW = b"40,Male,HTC Vive,13.5,8,5\n"


@settings(max_examples=300)
@given(raw=_csv_bytes())
@example(raw=b"\xef\xbb\xbf" + HEADER.encode() + b"\n" + _GOOD_ROW)  # a BOM
@example(raw=HEADER.encode() + b'\n"40","Male","HTC\nVive",13.5,8,5\n')  # a multi-line field
@example(raw=HEADER.encode() + b"\n\n" + _GOOD_ROW + b"\n\r\n")  # blank rows
@example(raw=HEADER.encode() + b"\n40,Male,HTC Vive,13.5,8\n")  # a field short
@example(raw=HEADER.encode() + b"\n" + b"1" * 400 + b",Male,HTC Vive,13.5,8,5\n")  # a huge Age
@example(raw=HEADER.encode() + b"\n40,M\xe4le,HTC Vive,13.5,8,5\n")  # Latin-1, not UTF-8
@example(raw=(HEADER + "\n40," + _HUGE_FIELD + ",HTC Vive,13.5,8,5\n").encode())  # csv.Error
def test_drawn_csv_bytes_predict_or_fail_in_one_line(csv_fuzz_dir, raw):
    # predict exits 0 with its one stdout line and nothing on stderr, or 3
    # with one stderr line; no traceback, no warning and no output file on 3
    data, out = csv_fuzz_dir / "data.csv", csv_fuzz_dir / "preds.csv"
    for written in (data, out):  # unlinked: rewriting a file in place can wait on the disk
        written.unlink(missing_ok=True)
    data.write_bytes(raw)
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stderr(stderr), \
            redirect_stdout(stdout):
        warnings.simplefilter("always")
        code = cli.main(["predict", "--model", str(MODEL_V2_SINGLE), "--data", str(data),
                         "--out", out.name, "--out-dir", str(csv_fuzz_dir)])
    event(f"exit {code}")
    assert code in (0, 3), stderr.getvalue()
    assert "Traceback" not in stderr.getvalue()
    lines = (stdout if code == 0 else stderr).getvalue().splitlines()
    assert len(lines) == 1, (stdout.getvalue(), stderr.getvalue())
    assert (stderr if code == 0 else stdout).getvalue() == ""
    assert lines[0].startswith("wrote " if code == 0 else "error: ")
    assert out.exists() == (code == 0)
    assert not caught, [str(w.message) for w in caught]


# --- drawn CSV bytes through train -------------------------------------------
# split, encode, standardize and boost on drawn files: clean ones half the
# time, so that most draws reach the boosting rounds. The sizes are bounded
# so that an example trains in milliseconds.

_TRAIN_CSV = st.booleans().flatmap(lambda clean: _csv_bytes(max_rows=30, clean=clean))


# a train split whose Durations are 10, 20, 1e308 and 1e-308: a finite mean
# and population std, but the squared deviations overflow
_STD_OVERFLOW_CSV = (HEADER + "\n" + "".join(
    f"{age},Male,HTC Vive,{duration},3,{level}\n" for age, duration, level in zip(
        (20, 25, 30, 35, 40), ("10", "20", "1e308", "1e-308", "15"), (1, 5, 1, 5, 1)))).encode()


@settings(max_examples=150)
@given(raw=_TRAIN_CSV, mode=st.sampled_from(["single", "unrolled"]), stratified=st.booleans(),
       rounds=st.integers(1, 2), hidden_dim=st.integers(1, 2), seed=st.integers(0, 3))
@example(raw=_STD_OVERFLOW_CSV, mode="single", stratified=False, rounds=1, hidden_dim=1,
         seed=0)  # exits 3: "std inf"
def test_drawn_csv_bytes_train_or_fail_in_one_line(csv_fuzz_dir, raw, mode, stratified, rounds,
                                                    hidden_dim, seed):
    # train exits 0 with nothing on stderr and every artifact written, or 3
    # (a data fault) or 4 (a training fault) with one stderr line and no
    # model; no traceback and no warning either way
    data, out = csv_fuzz_dir / "train.csv", csv_fuzz_dir / "train_run"
    data.unlink(missing_ok=True)
    data.write_bytes(raw)
    for written in out.glob("*"):
        written.unlink()
    argv = ["train", "--data", str(data), "--sequence-mode", mode, "--rounds", str(rounds),
            "--epochs", "1", "--hidden-dim", str(hidden_dim), "--seed", str(seed),
            "--out-dir", str(out)] + ["--stratified"] * stratified
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stderr(stderr), \
            redirect_stdout(stdout):
        warnings.simplefilter("always")
        code = cli.main(argv)
    event(f"exit {code}")
    assert code in (0, 3, 4), stderr.getvalue()
    assert "Traceback" not in stderr.getvalue()
    if code == 0:
        assert stderr.getvalue() == ""
    else:
        assert len(stderr.getvalue().splitlines()) == 1, stderr.getvalue()
        assert stderr.getvalue().startswith("error: " if code == 3 else "training error: ")
    assert (out / "model.json").exists() == (code == 0)
    assert not caught, [str(w.message) for w in caught]


# --- write_lines: replace, do not truncate ----------------------------------
# Every test here works under tmp_path only: tier-1 may run as root, so a
# wrong fallback pointed at a system path would unlink it.

OLD_LINES = ["row_index,margin,label", "0,0.25,1", "1,-0.5,0"]
NEW_LINES = ["row_index,margin,label", "0,-0.125,0"]
NEW_BYTES = b"row_index,margin,label\n0,-0.125,0\n"
AS_ROOT = os.geteuid() == 0
OTHER_ID = 54321  # no user or group of the test machine is expected to hold it


def _old_file(tmp_path, name="out.csv", mode=None):
    path = tmp_path / name
    write_lines(path, OLD_LINES)
    if mode is not None:
        os.chmod(path, mode)
    return path


def test_write_lines_rewrite_gives_the_bytes_of_a_fresh_write(tmp_path):
    fresh = tmp_path / "fresh.csv"
    write_lines(fresh, NEW_LINES)
    old = _old_file(tmp_path)
    write_lines(old, NEW_LINES)
    assert fresh.read_bytes() == old.read_bytes() == NEW_BYTES
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh.csv", "out.csv"]


def test_write_lines_replaces_so_an_open_reader_keeps_the_whole_old_file(tmp_path):
    path = _old_file(tmp_path)
    old_bytes = path.read_bytes()
    with open(path, "rb") as reader:
        write_lines(path, NEW_LINES)
        assert reader.read() == old_bytes
    assert path.read_bytes() == NEW_BYTES


@pytest.mark.parametrize("mode", [0o600, 0o664])
def test_write_lines_keeps_the_exact_permission_bits(tmp_path, mode):
    umask = os.umask(0o022)
    try:
        path = _old_file(tmp_path, mode=mode)
        write_lines(path, NEW_LINES)
    finally:
        os.umask(umask)
    assert os.stat(path).st_mode & 0o7777 == mode
    assert path.read_bytes() == NEW_BYTES


def test_write_lines_writes_through_a_symlink_to_its_target(tmp_path):
    target = _old_file(tmp_path, "target.csv")
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    write_lines(link, NEW_LINES)
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == NEW_BYTES


def test_write_lines_writes_a_dangling_symlinks_target(tmp_path):
    link = tmp_path / "link.csv"
    link.symlink_to(tmp_path / "absent.csv")
    write_lines(link, NEW_LINES)
    assert link.is_symlink() and (tmp_path / "absent.csv").read_bytes() == NEW_BYTES


def test_write_lines_writes_both_names_of_a_hard_linked_file(tmp_path):
    first = _old_file(tmp_path, "first.csv")
    second = tmp_path / "second.csv"
    os.link(first, second)
    write_lines(first, NEW_LINES)
    assert first.read_bytes() == second.read_bytes() == NEW_BYTES
    assert os.stat(first).st_ino == os.stat(second).st_ino
    assert os.stat(first).st_nlink == 2


def test_write_lines_on_a_read_only_file_acts_as_a_truncating_open(tmp_path):
    # root may write any file: the content changes and the mode stays
    path = _old_file(tmp_path, mode=0o444)
    old_bytes = path.read_bytes()
    if AS_ROOT:
        write_lines(path, NEW_LINES)
        assert path.read_bytes() == NEW_BYTES
    else:
        with pytest.raises(PermissionError):
            write_lines(path, NEW_LINES)
        assert path.read_bytes() == old_bytes
    assert os.stat(path).st_mode & 0o7777 == 0o444


def test_write_lines_in_a_read_only_directory_truncates_a_writable_file(tmp_path):
    if AS_ROOT:
        pytest.skip("root may unlink in a read-only directory")
    locked = tmp_path / "locked"
    locked.mkdir()
    path = _old_file(locked)
    locked.chmod(0o555)
    try:
        write_lines(path, NEW_LINES)
    finally:
        locked.chmod(0o755)
    assert path.read_bytes() == NEW_BYTES


@pytest.mark.skipif(not AS_ROOT, reason="only root can give a file away")
@pytest.mark.parametrize("owner", [(OTHER_ID, -1), (-1, OTHER_ID)], ids=["uid", "gid"])
def test_write_lines_keeps_a_file_of_another_user_or_group(tmp_path, owner):
    path = _old_file(tmp_path, mode=0o644)
    os.chown(path, *owner)
    before = os.stat(path)
    with open(path, "rb") as reader:
        write_lines(path, NEW_LINES)
        assert reader.read() == NEW_BYTES  # truncated in place, not replaced
    after = os.stat(path)
    assert (after.st_uid, after.st_gid, after.st_mode) == (
        before.st_uid, before.st_gid, before.st_mode)


@pytest.mark.skipif(not AS_ROOT, reason="only root can give a directory away")
def test_write_lines_keeps_the_group_of_a_file_in_a_setgid_directory(tmp_path):
    shared = tmp_path / "shared"
    shared.mkdir()
    os.chown(shared, -1, OTHER_ID)
    os.chmod(shared, 0o2775)
    path = _old_file(shared)
    os.chown(path, -1, os.getegid())  # a new file here would get OTHER_ID
    os.chmod(path, 0o664)
    with open(path, "rb") as reader:
        write_lines(path, NEW_LINES)
        assert reader.read() != NEW_BYTES  # replaced
    after = os.stat(path)
    assert (after.st_gid, after.st_mode & 0o7777) == (os.getegid(), 0o664)
    assert path.read_bytes() == NEW_BYTES


def test_write_lines_keeps_a_files_extended_attributes(tmp_path):
    path = _old_file(tmp_path)
    try:
        os.setxattr(path, "user.vrboost", b"kept")
    except (OSError, AttributeError):
        pytest.skip("no user extended attributes here")
    write_lines(path, NEW_LINES)
    assert os.getxattr(path, "user.vrboost") == b"kept"
    assert path.read_bytes() == NEW_BYTES


def test_write_lines_replaces_no_fifo(tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    assert data_mod._replace(fifo) is None
    assert fifo.is_fifo()


def test_a_directory_at_the_output_path_is_an_io_error(tmp_path, capsys):
    (tmp_path / "out.csv").mkdir()
    code = cli.main(["gen-data", "--n", "20", "--out-dir", str(tmp_path), "--out", "out.csv"])
    assert code == cli.EXIT_IO == 5
    assert "i/o error" in capsys.readouterr().err
    assert (tmp_path / "out.csv").is_dir()


# --- write_lines is the one writer --------------------------------------------

WRITE_FLAGS = {"O_WRONLY", "O_RDWR", "O_CREAT", "O_APPEND", "O_TRUNC", "O_EXCL"}
SOURCE = Path(__file__).resolve().parent.parent / "src" / "vrboost"


def _writing_opens(source: str) -> list:
    """(function, line) of every open(...), io.open(...), Path-style
    .open(...) or os.open(...) call in source that may write: its mode
    holds w, a, x or +, or its flags name a write, create or append flag.
    A mode or flags that is not written out in the call counts as a write."""
    found = []

    def opens_to_write(call):
        func = call.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) \
                and func.value.id == "os":
            flags = call.args[1] if len(call.args) > 1 else next(
                (k.value for k in call.keywords if k.arg == "flags"), None)
            names = {n.attr for n in ast.walk(flags) if isinstance(n, ast.Attribute)}
            names |= {n.id for n in ast.walk(flags) if isinstance(n, ast.Name)}
            return bool(names & WRITE_FLAGS) or not any(n.startswith("O_") for n in names)
        builtin = isinstance(func, ast.Name) or isinstance(func.value, ast.Name) \
            and func.value.id in ("io", "builtins")
        position = 1 if builtin else 0
        mode = call.args[position] if len(call.args) > position else next(
            (k.value for k in call.keywords if k.arg == "mode"), ast.Constant("r"))
        if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
            return True
        return bool(set(mode.value) & set("wax+"))

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            name = child.name if isinstance(child, (ast.FunctionDef,
                                                     ast.AsyncFunctionDef)) else function
            if isinstance(child, ast.Call):
                func = child.func
                is_open = (isinstance(func, ast.Name) and func.id == "open") or (
                    isinstance(func, ast.Attribute) and func.attr == "open")
                if is_open and opens_to_write(child):
                    found.append((function, child.lineno))
            visit(child, name)

    visit(ast.parse(source), None)
    return found


def test_the_scan_finds_every_kind_of_writing_open():
    writes = ["open(p, 'w')", "open(p, mode='a', encoding='utf-8')", "open(p, 'r+')",
              "io.open(p, 'xb')", "Path(p).open('w')", "open(p, m)",
              "os.open(p, os.O_WRONLY | os.O_CREAT)", "os.open(p, os.O_RDWR)",
              "os.open(p, flags)", "os.open(p, flags=os.O_APPEND)"]
    reads = ["open(p)", "open(p, 'r', encoding='utf-8')", "open(p, 'rb')",
             "open(p, mode='r')", "Path(p).open()", "os.open(p, os.O_RDONLY)"]
    for text in writes:
        assert _writing_opens(f"def f():\n    {text}\n") == [("f", 2)], text
    for text in reads:
        assert _writing_opens(f"def f():\n    {text}\n") == [], text


def test_write_lines_is_the_only_writer_in_the_package():
    # data._replace opens the file that write_lines writes
    allowed = {("data.py", "write_lines"), ("data.py", "_replace")}
    stray = [(path.name, function, line)
             for path in sorted(SOURCE.glob("*.py"))
             for function, line in _writing_opens(path.read_text(encoding="utf-8"))
             if (path.name, function) not in allowed]
    assert stray == []
    data_source = (SOURCE / "data.py").read_text(encoding="utf-8")
    assert {function for function, _ in _writing_opens(data_source)} == {"write_lines",
                                                                         "_replace"}
