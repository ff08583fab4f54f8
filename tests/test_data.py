import math

import numpy as np
import pytest

from vrboost.data import (COLUMNS, EncodedExample, RawRecord, TargetSpec,
                          apply_standardizer, encode, encode_features,
                          feature_names, fit_standardizer, gen_synthetic,
                          load_csv, majority_rate, signal_score, split,
                          split_indices, synthetic_bayes_rate, write_csv)
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


def test_load_csv_parses_rows(tmp_path):
    path = _write(tmp_path, HEADER + "\n" + "\n".join(SAMPLE_ROWS) + "\n")
    records = load_csv(path)
    assert len(records) == 4
    first = records[0]
    assert first == RawRecord(40, "Male", "HTC Vive", 13.59850823, 8, 5)
    assert records[3] == RawRecord(46, "Other", "PlayStation VR", 48.88756499, 6, 2)


def test_load_csv_any_column_order(tmp_path):
    path = _write(tmp_path, "Duration,Age,ImmersionLevel,Gender,MotionSickness,VRHeadset\n"
                            "13.5,40,5,Male,8,HTC Vive\n")
    record = load_csv(path)[0]
    assert record.age == 40 and record.duration == 13.5 and record.vr_headset == "HTC Vive"


def test_load_csv_trims_whitespace(tmp_path):
    path = _write(tmp_path, HEADER + "\n40, Male , HTC Vive ,13.5,8,5\n")
    record = load_csv(path)[0]
    assert record.gender == "Male" and record.vr_headset == "HTC Vive"


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


def test_load_csv_optional_target_column(tmp_path):
    text = "Age,Gender,VRHeadset,Duration,MotionSickness\n40,Male,HTC Vive,13.5,8\n"
    path = _write(tmp_path, text)
    records = load_csv(path, optional_column="ImmersionLevel")
    assert records[0].immersion_level is None
    assert records[0].motion_sickness == 8
    with pytest.raises(DataError, match="ImmersionLevel"):
        load_csv(path)


def test_csv_round_trip_exact(tmp_path):
    records = gen_synthetic(60, seed=5, signal_strength=2.0)
    first = tmp_path / "first.csv"
    write_csv(records, first)
    loaded = load_csv(first)
    assert loaded == records
    second = tmp_path / "second.csv"
    write_csv(loaded, second)
    assert first.read_bytes() == second.read_bytes()


def test_crlf_line_endings(tmp_path):
    path = _write(tmp_path, HEADER + "\r\n" + SAMPLE_ROWS[0] + "\r\n")
    assert load_csv(path)[0].age == 40


def test_load_csv_skips_utf8_byte_order_mark(tmp_path):
    text = HEADER + "\n" + "\n".join(SAMPLE_ROWS) + "\n"
    plain = _write(tmp_path, text, "plain.csv")
    bom = _write(tmp_path, "\ufeff" + text, "bom.csv")
    assert bom.read_bytes()[:3] == b"\xef\xbb\xbf"
    assert load_csv(bom) == load_csv(plain)


def test_encode_labels_and_layout():
    records = [RawRecord(40, "Male", "HTC Vive", 13.59850823, 8, 5),
               RawRecord(43, "Female", "HTC Vive", 19.95081498, 2, 2)]
    spec = TargetSpec("ImmersionLevel", 4)
    examples = encode(records, spec)
    assert [ex.label for ex in examples] == [1, 0]
    feats = examples[0].features
    assert feats.shape == (9,)
    assert feats[0] == 40.0 and feats[1] == 13.59850823
    assert feats[2] == 8.0  # leftover score column, target excluded
    assert np.array_equal(feats[3:6], [1.0, 0.0, 0.0])  # Male one-hot
    assert np.array_equal(feats[6:9], [1.0, 0.0, 0.0])  # HTC Vive one-hot
    assert len({ex.features.shape for ex in examples}) == 1
    assert feature_names(spec)[2] == "MotionSickness"


@pytest.mark.filterwarnings("ignore:all labels identical")
def test_encode_motion_sickness_target():
    record = RawRecord(40, "Other", "Oculus Rift", 10.0, 8, 5)
    spec = TargetSpec("MotionSickness", 6)
    example = encode([record], spec)[0]
    assert example.label == 1
    assert example.features[2] == 5.0  # immersion becomes the leftover feature


def test_encode_warns_on_single_class():
    records = [RawRecord(30, "Male", "HTC Vive", 10.0, 5, 5),
               RawRecord(31, "Female", "Oculus Rift", 11.0, 5, 5)]
    with pytest.warns(UserWarning, match="identical"):
        encode(records, TargetSpec("ImmersionLevel", 4))


def test_encode_requires_target_values():
    record = RawRecord(30, "Male", "HTC Vive", 10.0, 5, None)
    with pytest.raises(DataError, match="ImmersionLevel"):
        encode([record], TargetSpec("ImmersionLevel", 4))
    # ...and the leftover score column is a feature, so it is required too
    record = RawRecord(30, "Male", "HTC Vive", 10.0, None, 5)
    with pytest.raises(DataError, match="MotionSickness"):
        encode_features(record, TargetSpec("ImmersionLevel", 4))


def test_target_spec_validation():
    with pytest.raises(ValueError):
        TargetSpec("Duration", 4)


def _dummy_examples(n):
    return [EncodedExample(features=np.array([float(i)]), label=i % 2) for i in range(n)]


def test_split_sizes_and_determinism():
    examples = _dummy_examples(10)
    ds = split(examples, 0.7, seed=3)
    assert len(ds.train) == 7 and len(ds.test) == 3
    again = split(examples, 0.7, seed=3)
    assert ds.train_indices == again.train_indices
    other = split(examples, 0.7, seed=4)
    assert ds.train_indices != other.train_indices


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


def test_split_stratified_preserves_class_ratios():
    labels = [1] * 40 + [0] * 20
    train_idx, test_idx = split_indices(60, 0.5, seed=8, labels=labels, stratified=True)
    assert sorted(train_idx + test_idx) == list(range(60))
    train_ones = sum(labels[i] for i in train_idx)
    assert train_ones == 20
    assert len(train_idx) == 30


def test_standardizer_hand_case():
    examples = [EncodedExample(np.array([1.0, 1.0, 0.0]), 0),
                EncodedExample(np.array([3.0, 1.0, 0.0]), 1)]
    std = fit_standardizer(examples, indices=(0, 1, 2))
    assert std.means[0] == 2.0 and std.stds[0] == 1.0
    assert std.constant == (False, True, True)
    out = apply_standardizer(std, examples)
    assert [ex.features[0] for ex in out] == [-1.0, 1.0]
    assert all(ex.features[1] == 1.0 for ex in out)  # constant passes through


def test_standardizer_normalizes_train_columns():
    records = gen_synthetic(200, seed=9, signal_strength=1.0)
    examples = encode(records, TargetSpec())
    std = fit_standardizer(examples)
    out = apply_standardizer(std, examples)
    X = np.stack([ex.features for ex in out])
    for idx in (0, 1, 2):
        assert abs(X[:, idx].mean()) < 1e-10
        assert abs(X[:, idx].std() - 1.0) < 1e-10
    # one-hot block untouched
    raw = np.stack([ex.features for ex in examples])
    assert np.array_equal(X[:, 3:], raw[:, 3:])


def test_gen_synthetic_determinism_and_ranges(tmp_path):
    a = gen_synthetic(300, seed=12, signal_strength=4.0)
    b = gen_synthetic(300, seed=12, signal_strength=4.0)
    assert a == b
    for record in a:
        assert 18 <= record.age <= 60
        assert 5.0 <= record.duration < 60.0
        assert 1 <= record.motion_sickness <= 10
        assert 1 <= record.immersion_level <= 5
    assert gen_synthetic(300, seed=13, signal_strength=4.0) != a


def test_gen_synthetic_validation():
    with pytest.raises(ValueError):
        gen_synthetic(0, seed=0, signal_strength=1.0)
    with pytest.raises(ValueError):
        gen_synthetic(10, seed=0, signal_strength=-1.0)


def test_null_signal_labels_are_independent_coin_flips():
    records = gen_synthetic(4000, seed=3, signal_strength=0.0)
    assert synthetic_bayes_rate(records, 0.0) == 0.5
    labels = [1 if r.immersion_level >= 4 else 0 for r in records]
    assert abs(np.mean(labels) - 0.5) < 0.03
    # association with the link score should be negligible
    scores = np.array([signal_score(r.motion_sickness, r.duration, r.vr_headset)
                       for r in records])
    corr = np.corrcoef(scores, labels)[0, 1]
    assert abs(corr) < 0.05


def test_planted_signal_bayes_rate():
    records = gen_synthetic(2000, seed=7, signal_strength=4.0)
    rate = synthetic_bayes_rate(records, 4.0)
    assert rate >= 0.85
    # the oracle rate is achievable: thresholding the true link hits it
    labels = np.array([1 if r.immersion_level >= 4 else 0 for r in records])
    link_preds = np.array([
        1 if signal_score(r.motion_sickness, r.duration, r.vr_headset) > 0 else 0
        for r in records])
    achieved = np.mean(link_preds == labels)
    assert achieved > 0.8


def test_majority_rate():
    assert majority_rate([1, 1, 1, 0]) == 0.75
    assert majority_rate([0, 0, 1, 1]) == 0.5
