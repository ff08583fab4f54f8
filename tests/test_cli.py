import builtins
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lstm_oracle import forward_sequence, four_gate
from vrboost import cli
from vrboost import data as data_mod
from vrboost.boosting import ensemble_predict
from vrboost.cli import COMMANDS, build_parser, main, option_rows, resolve_options
from vrboost.errors import DataError
from vrboost.lstm import GATES, PackedLstm, step_dim
from vrboost.metrics import f1_score
from vrboost.model import load_model, save_model

FIXTURES = Path(__file__).resolve().parent / "fixtures"

FAST_TRAIN = ["--synth-n", "120", "--signal", "4.0", "--rounds", "2",
              "--epochs", "4", "--hidden-dim", "6", "--seed", "3"]


def _run(argv):
    return main([str(a) for a in argv])


def _train_into(tmp_path, name, extra=()):
    out = tmp_path / name
    code = _run(["train", *FAST_TRAIN, "--out-dir", out, *extra])
    assert code == 0
    return out


# --- gen-data ---------------------------------------------------------------

def test_gen_data_deterministic_and_schema(tmp_path):
    for name in ("a.csv", "b.csv"):
        assert _run(["gen-data", "--n", 80, "--seed", 7, "--signal", 4.0,
                     "--out", name, "--out-dir", tmp_path]) == 0
    a = (tmp_path / "a.csv").read_bytes()
    assert a == (tmp_path / "b.csv").read_bytes()
    header = a.decode().splitlines()[0]
    assert header == "Age,Gender,VRHeadset,Duration,MotionSickness,ImmersionLevel"


def test_gen_data_rejects_zero_n(tmp_path):
    assert _run(["gen-data", "--n", 0, "--out-dir", tmp_path]) == 2


@pytest.mark.parametrize("signal", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", ["gen-data", "train"])
def test_non_finite_signal_is_usage_error_before_anything_is_written(tmp_path, capsys, command,
                                                                    signal):
    # NaN passes a plain `< 0` check and would plant no signal, or only NaNs
    out = tmp_path / "out"
    argv = ["--n", 50] if command == "gen-data" else ["--synth-n", 50]
    assert _run([command, *argv, f"--signal={signal}", "--out-dir", out]) == 2
    assert "signal_strength must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_gen_data_prints_oracle_accuracy(tmp_path, capsys):
    _run(["gen-data", "--n", 50, "--seed", 1, "--out-dir", tmp_path])
    assert "oracle accuracy" in capsys.readouterr().out


# sha256 of the CSVs of the per-record generator, which drew one record at a time
GEN_DATA_SHA256 = {
    (500, 1, "4.0"): "f9e5e826e04e13f50743d4bcac4bdb59d2f0e5dded007498b998450da10477df",
    (37, 2, "0"): "94d4255b0298ed5e0fa6cea0f3fc0e98ef82d3ba561ac687f02c55ff8602eb9f",
}


@pytest.mark.parametrize("n, seed, signal", sorted(GEN_DATA_SHA256))
def test_gen_data_writes_the_bytes_of_the_per_record_generator(tmp_path, n, seed, signal):
    assert _run(["gen-data", "--n", n, "--seed", seed, "--signal", signal,
                 "--out-dir", tmp_path]) == 0
    digest = hashlib.sha256((tmp_path / "synthetic.csv").read_bytes()).hexdigest()
    assert digest == GEN_DATA_SHA256[n, seed, signal]


def test_gen_data_at_a_huge_signal_writes_nothing_to_stderr(tmp_path):
    # signal * score overflows to inf, as the product of two Python floats does
    proc = _cli_process(["gen-data", "--n", 50, "--signal", 1e308, "--out-dir", tmp_path])
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "oracle accuracy of the generative link: 1.0000" in proc.stdout


# --- train ------------------------------------------------------------------

def test_train_writes_all_artifacts(tmp_path):
    out = _train_into(tmp_path, "run")
    for name in ("model.json", "report.json", "loss_curve.csv", "boost_log.csv",
                 "train_split.csv", "test_split.csv"):
        assert (out / name).exists(), name


def test_train_report_is_internally_consistent(tmp_path):
    out = _train_into(tmp_path, "run")
    report = json.loads((out / "report.json").read_text())
    for split in ("train", "test"):
        block = report[split]
        tp, fp, fn, tn = block["tp"], block["fp"], block["fn"], block["tn"]
        total = tp + fp + fn + tn
        assert total == block["n"]
        assert abs(block["accuracy"] - (tp + tn) / total) < 1e-12
        if tp + fp:
            assert abs(block["precision"] - tp / (tp + fp)) < 1e-12
        if tp + fn:
            assert abs(block["recall"] - tp / (tp + fn)) < 1e-12
        assert abs(block["f1"] - f1_score(block["precision"], block["recall"])) < 1e-12
        assert block["correct"] == tp + tn and block["incorrect"] == fp + fn


def test_train_byte_identical_reruns(tmp_path):
    first = _train_into(tmp_path, "one")
    second = _train_into(tmp_path, "two")
    for name in ("model.json", "report.json", "loss_curve.csv", "boost_log.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_train_loss_curve_layout(tmp_path):
    out = _train_into(tmp_path, "run")
    lines = (out / "loss_curve.csv").read_text().splitlines()
    assert lines[0] == "round,epoch,loss"
    rows = [line.split(",") for line in lines[1:]]
    rounds = {int(r[0]) for r in rows}
    model = json.loads((out / "model.json").read_text())
    assert rounds == set(range(1, len(model["rounds"]) + 1))
    per_round = [int(r[1]) for r in rows if int(r[0]) == 1]
    assert per_round == list(range(1, 5))  # four epochs in FAST_TRAIN
    log_lines = (out / "boost_log.csv").read_text().splitlines()
    assert log_lines[0] == "round,epsilon,alpha"
    for line in log_lines[1:]:
        _, eps, a = line.split(",")
        assert 0.0 <= float(eps) < 0.5 and float(a) > 0.0


def _single_class_csv(tmp_path):
    """A labeled CSV whose ten rows are all class 1 under ImmersionLevel >= 4."""
    rows = ["%d,Male,HTC Vive,10.0,5,5" % (20 + i) for i in range(10)]
    path = tmp_path / "flat.csv"
    path.write_text("Age,Gender,VRHeadset,Duration,MotionSickness,ImmersionLevel\n"
                    + "\n".join(rows) + "\n")
    return path


def _cli_process(argv):
    """vrboost run as a process, so that stderr holds all a user would see."""
    return subprocess.run([sys.executable, "-m", "vrboost.cli", *map(str, argv)],
                          capture_output=True, text=True)


def test_train_single_class_data_is_exit_3(tmp_path):
    proc = _cli_process(["train", "--data", _single_class_csv(tmp_path), "--rounds", 1,
                         "--epochs", 1, "--out-dir", tmp_path / "out"])
    assert proc.returncode == 3
    assert proc.stderr == ("error: dataset has a single label class under rule "
                           "ImmersionLevel >= 4\n")


@pytest.mark.parametrize("extra", [[], ["--stratified"]], ids=["plain", "stratified"])
def test_train_split_with_empty_test_side_is_exit_3_before_training(tmp_path, monkeypatch,
                                                                    capsys, extra):
    def no_training(*args, **kwargs):
        raise AssertionError("boost_train ran")

    monkeypatch.setattr("vrboost.cli.boost_train", no_training)
    out = tmp_path / "out"
    code = _run(["train", "--ratio", 0.999, "--epochs", 1, "--rounds", 1, *extra,
                 "--out-dir", out])
    assert code == 3
    assert "test side empty" in capsys.readouterr().err
    assert not out.exists()


def test_train_unwritable_out_dir_is_exit_5(tmp_path):
    code = _run(["train", *FAST_TRAIN, "--out-dir", "/dev/null/nested"])
    assert code == 5


# --- config file ------------------------------------------------------------

def test_config_file_supplies_defaults_and_flags_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# fast settings\nsynth-n = 120\nsignal = 4.0\nrounds = 1\n"
                   "epochs = 4\nhidden_dim = 6\nseed = 3\n")
    out1 = tmp_path / "from_file"
    assert _run(["train", "--config", cfg, "--out-dir", out1]) == 0
    model = json.loads((out1 / "model.json").read_text())
    assert len(model["rounds"]) == 1
    curve = (out1 / "loss_curve.csv").read_text().splitlines()
    assert len(curve) == 1 + 4  # header + 4 epochs
    out2 = tmp_path / "flag_wins"
    assert _run(["train", "--config", cfg, "--epochs", 5, "--out-dir", out2]) == 0
    assert len((out2 / "loss_curve.csv").read_text().splitlines()) == 1 + 5


def test_config_file_unknown_key_is_usage_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("momentum = 0.9\n")
    assert _run(["train", "--config", cfg, "--out-dir", tmp_path / "x"]) == 2


def test_config_file_that_is_not_utf8_is_usage_error_naming_it(tmp_path, capsys):
    cfg = tmp_path / "binary.cfg"
    cfg.write_bytes(b"\xff")
    out = tmp_path / "out"
    assert _run(["train", "--config", cfg, "--out-dir", out]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == (f"usage error: {cfg}: not UTF-8 text "
                                       f"(invalid start byte)\n")
    assert not out.exists()


def test_config_value_outside_choices_is_usage_error_before_any_work(tmp_path, capsys):
    cfg = tmp_path / "gate.cfg"
    cfg.write_text("# audit\nbreak_gate = bogus\n")
    assert _run(["gradcheck", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert f"{cfg}:2: break_gate" in captured.err
    assert captured.out == ""


def test_config_sequence_mode_outside_choices_is_usage_error_before_training(
        tmp_path, monkeypatch, capsys):
    def no_training(*args, **kwargs):
        raise AssertionError("boost_train ran")

    monkeypatch.setattr("vrboost.cli.boost_train", no_training)
    cfg = tmp_path / "mode.cfg"
    cfg.write_text("rounds = 1\nsequence-mode = bogus\n")
    out = tmp_path / "out"
    assert _run(["train", "--config", cfg, "--out-dir", out]) == 2
    assert f"{cfg}:2: sequence_mode" in capsys.readouterr().err
    assert not out.exists()


_TRAIN_TABLE = {row[0]: row for row in option_rows("train").values() if row[0] != "config"}
_TEXT = st.text(alphabet="abcXYZ019._/", min_size=1, max_size=12)


def _value_for(row):
    _, default, _, *choices = row
    if choices:
        return st.sampled_from(choices[0])
    if isinstance(default, bool):
        return st.booleans()
    if isinstance(default, int):
        return st.integers(-10**6, 10**6)
    if isinstance(default, float):
        return st.floats(allow_nan=False, allow_infinity=False)
    return _TEXT


@settings(max_examples=40)
@given(st.fixed_dictionaries({}, optional={name: _value_for(row)
                                           for name, row in _TRAIN_TABLE.items()}))
def test_config_file_and_flags_resolve_alike(tmp_path_factory, values):
    cfg = tmp_path_factory.getbasetemp() / "equivalence.cfg"
    lines, flags = [], []
    for name, value in values.items():
        # config keys alternate between the '_' and the '-' spelling
        lines.append(f"{name.replace('_', '-') if len(lines) % 2 else name} = {value}")
        if value is True:
            flags.append(f"--{name.replace('_', '-')}")
        elif value is not False:
            flags.append(f"--{name.replace('_', '-')}={value}")
    cfg.write_text("\n".join(lines) + "\n")
    parser = build_parser()
    from_file = resolve_options(parser.parse_args(["train", "--config", str(cfg)]))
    from_flags = resolve_options(parser.parse_args(["train", *flags]))
    assert from_file.pop("config") == str(cfg) and from_flags.pop("config") is None
    assert from_file == from_flags
    assert from_flags == {**{name: row[1] for name, row in _TRAIN_TABLE.items()}, **values}


# --- evaluate / predict -----------------------------------------------------

@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    root = tmp_path_factory.mktemp("trained")
    data_path = root / "data.csv"
    assert _run(["gen-data", "--n", 120, "--seed", 5, "--signal", 4.0,
                 "--out", data_path.name, "--out-dir", root]) == 0
    out = root / "run"
    assert _run(["train", "--data", data_path, "--rounds", 2, "--epochs", 4,
                 "--hidden-dim", 6, "--seed", 3, "--out-dir", out]) == 0
    return root, data_path, out


def test_evaluate_reproduces_train_block(tmp_path, trained):
    _, _, out = trained
    report_path = tmp_path / "eval.json"
    code = _run(["evaluate", "--model", out / "model.json",
                 "--data", out / "train_split.csv", "--out", report_path.name,
                 "--out-dir", tmp_path])
    assert code == 0
    eval_block = json.loads(report_path.read_text())["eval"]
    train_block = json.loads((out / "report.json").read_text())["train"]
    assert eval_block == train_block


def test_evaluate_single_class_data_succeeds_silently(tmp_path, trained):
    # only training needs both classes
    _, _, out = trained
    proc = _cli_process(["evaluate", "--model", out / "model.json",
                         "--data", _single_class_csv(tmp_path), "--out-dir", tmp_path])
    assert (proc.returncode, proc.stderr) == (0, "")
    block = json.loads((tmp_path / "report.json").read_text())["eval"]
    assert block["n"] == block["tp"] + block["fn"] == 10


def test_evaluate_corrupt_model_is_clean_error(tmp_path, trained):
    _, data_path, out = trained
    broken = tmp_path / "broken.json"
    broken.write_text((out / "model.json").read_text()[:200])
    report_path = tmp_path / "should_not_exist.json"
    code = _run(["evaluate", "--model", broken, "--data", data_path,
                 "--out", report_path.name, "--out-dir", tmp_path])
    assert code == 3
    assert not report_path.exists()


def test_predict_margins_match_library(tmp_path, trained):
    _, data_path, out = trained
    pred_path = tmp_path / "preds.csv"
    code = _run(["predict", "--model", out / "model.json", "--data", data_path,
                 "--out", pred_path.name, "--out-dir", tmp_path])
    assert code == 0
    bundle = load_model(out / "model.json")
    table = data_mod.load_csv(data_path)
    standardized = data_mod.apply_standardizer(bundle.standardizer,
                                               data_mod.encode(table, bundle.target))
    lines = pred_path.read_text().splitlines()
    assert lines[0] == "row_index,margin,label"
    assert len(lines) == len(table) + 1
    want_labels, want_margins = ensemble_predict(bundle.ensemble, standardized)
    for line, want_label, want_margin in zip(lines[1:], want_labels, want_margins):
        idx, margin, label = line.split(",")
        assert float(margin) == want_margin  # repr round-trips exactly
        assert int(label) == want_label


def test_predict_without_target_column(tmp_path, trained):
    _, data_path, out = trained
    lines = data_path.read_text().splitlines()[:11]  # header and 10 rows, ImmersionLevel last
    no_target = tmp_path / "new.csv"
    no_target.write_text("".join(line.rsplit(",", 1)[0] + "\n" for line in lines))
    code = _run(["predict", "--model", out / "model.json", "--data", no_target,
                 "--out", "p.csv", "--out-dir", tmp_path])
    assert code == 0
    assert len((tmp_path / "p.csv").read_text().splitlines()) == 11


def test_predict_empty_data_is_exit_3(tmp_path, trained):
    _, _, out = trained
    empty = tmp_path / "empty.csv"
    empty.write_text("Age,Gender,VRHeadset,Duration,MotionSickness,ImmersionLevel\n")
    code = _run(["predict", "--model", out / "model.json", "--data", empty,
                 "--out", "p.csv", "--out-dir", tmp_path])
    assert code == 3


def test_predict_non_utf8_data_is_exit_3_naming_the_file(tmp_path, trained, capsys):
    _, data_path, out = trained
    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes(data_path.read_bytes() + "40,Male,HTC Vive,1.0,8,5\u00e9\n".encode("cp1252"))
    code = _run(["predict", "--model", out / "model.json", "--data", latin1,
                 "--out", "p.csv", "--out-dir", tmp_path])
    assert code == 3
    assert f"error: {latin1}: not UTF-8 text" in capsys.readouterr().err
    assert not (tmp_path / "p.csv").exists()


def test_evaluate_non_utf8_model_is_exit_3_naming_the_file(tmp_path, trained, capsys):
    _, data_path, out = trained
    model = tmp_path / "model.json"
    model.write_bytes(b"\xff" + (out / "model.json").read_bytes())
    code = _run(["evaluate", "--model", model, "--data", data_path,
                 "--out", "r.json", "--out-dir", tmp_path])
    assert code == 3
    assert f"error: could not parse model file {model}: 'utf-8' codec" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("command", ["evaluate", "predict"])
@pytest.mark.parametrize("bad", ["model", "data"])
def test_a_call_that_exits_3_leaves_no_out_dir(tmp_path, trained, command, bad):
    _, data_path, out = trained
    model, data = out / "model.json", data_path
    if bad == "model":
        model = tmp_path / "model.json"
        model.write_text((out / "model.json").read_text()[:-7])  # cut short
    else:
        data = tmp_path / "data.csv"
        data.write_text(data_path.read_text() + "40,Unknown,HTC Vive,1.0,8,5\n")
    out_dir = tmp_path / "out"
    assert _run([command, "--model", model, "--data", data, "--out-dir", out_dir]) == 3
    assert not out_dir.exists()


def test_model_round_trip_identical_predictions(tmp_path, trained):
    _, data_path, out = trained
    bundle = load_model(out / "model.json")
    copy_path = tmp_path / "copy.json"
    save_model(bundle, copy_path)
    assert copy_path.read_bytes() == (out / "model.json").read_bytes()
    reloaded = load_model(copy_path)
    table = data_mod.load_csv(data_path)
    X = data_mod.apply_standardizer(bundle.standardizer, data_mod.encode(table, bundle.target))
    for got, want in zip(ensemble_predict(bundle.ensemble, X),
                         ensemble_predict(reloaded.ensemble, X)):
        assert np.array_equal(got, want)


def test_predict_leaves_loaded_kernels_without_gradient_buffers(tmp_path, trained,
                                                                 monkeypatch):
    _, data_path, out = trained
    loaded = []

    def recording_load(path):
        loaded.append(load_model(path))
        return loaded[-1]

    monkeypatch.setattr(cli, "load_model", recording_load)
    assert _run(["predict", "--model", out / "model.json", "--data", data_path,
                 "--out", "p.csv", "--out-dir", tmp_path]) == 0
    kernels = [r.learner.kernel for r in loaded[0].ensemble.rounds]
    assert kernels
    for kernel in kernels:
        assert not {"grad", "grads", "_work"} & set(vars(kernel))


# --- load-time model validation ---------------------------------------------

def _drop_last_input_column(doc):
    for entry in doc["rounds"]:
        learner = entry["learner"]
        learner["input_dim"] -= 1
        for key, arr in learner["arrays"].items():
            if key.startswith("W_"):
                learner["arrays"][key] = [row[:-1] for row in arr]


def _set(path, value):
    def edit(doc):
        *parents, last = path
        node = doc
        for step in parents:
            node = node[step]
        node[last] = value
    return edit


def _drop_last_w_input_entry(doc):
    doc["rounds"][0]["learner"]["arrays"]["W_input"][0].pop()


def _nest_w_head(doc):
    arrays = doc["rounds"][0]["learner"]["arrays"]
    arrays["w_head"] = [[v] for v in arrays["w_head"]]


def _add_dead_u_forget(doc):
    # the trained model is a v2 `single` model, whose learners store no U
    arrays = doc["rounds"][1]["learner"]["arrays"]
    hidden = len(arrays["w_head"])
    arrays["U_forget"] = [[0.0] * hidden for _ in range(hidden)]


def _drop_live_b_output(doc):
    del doc["rounds"][0]["learner"]["arrays"]["b_output"]


def _lengthen_w_candidate_row(doc):
    doc["rounds"][1]["learner"]["arrays"]["W_candidate"][3].append(0.25)


def _nest_b_output(doc):
    arrays = doc["rounds"][1]["learner"]["arrays"]
    arrays["b_output"] = [[v] for v in arrays["b_output"]]


def _add_unknown_array(doc):
    arrays = doc["rounds"][0]["learner"]["arrays"]
    arrays["W_peephole"] = arrays["W_input"]


def _drop_w_head(doc):
    del doc["rounds"][1]["learner"]["arrays"]["w_head"]


INVALID_MODELS = {
    "input_dim_8_single": _drop_last_input_column,
    "input_dim_9_unrolled": _set(["sequence_mode"], "unrolled"),
    "unknown_sequence_mode": _set(["sequence_mode"], "stacked"),
    # json.dumps writes float("nan") and float("inf") as NaN and Infinity
    "alpha_nan": _set(["rounds", 0, "alpha"], float("nan")),
    "weight_inf": _set(["rounds", 1, "learner", "arrays", "W_input", 2, 3], float("inf")),
    "head_bias_nan": _set(["rounds", 0, "learner", "arrays", "b_head", 0], float("nan")),
    "mean_nan": _set(["standardizer", "means", 0], float("nan")),
    "std_inf": _set(["standardizer", "stds", 1], float("-inf")),
    "std_zero_not_constant": _set(["standardizer", "stds", 2], 0.0),
    "std_negative": _set(["standardizer", "stds", 0], -1.5),
    # a flag that disagrees with its std: Age's std is far from 0
    "standardizer_constant_disagrees_with_std": _set(["standardizer", "constant", 0], True),
    "standardizer_indices_permuted": _set(["standardizer", "indices"], [1, 0, 2]),
    "standardizer_index_bool": _set(["standardizer", "indices", 1], True),
    "alpha_bool": _set(["rounds", 0, "alpha"], True),
    "mean_bool": _set(["standardizer", "means", 0], True),
    "weight_bool": _set(["rounds", 0, "learner", "arrays", "w_head", 1], True),
    "v2_weight_string": _set(["rounds", 1, "learner", "arrays", "W_output", 0, 2], "0.5"),
    "alpha_list": _set(["rounds", 0, "alpha"], [0.5]),
    "weight_overflows_float64": _set(["rounds", 0, "learner", "arrays", "b_head", 0], 10**400),
    "standardizer_lengths_differ": _set(["standardizer", "constant"], [False, False]),
    "label_convention_both_1": _set(["label_convention", "negative"], 1),
    "w_input_ragged_row": _drop_last_w_input_entry,
    "weight_not_a_number": _set(["rounds", 0, "learner", "arrays", "W_output", 0, 0], "abc"),
    "w_head_extra_nesting": _nest_w_head,
    "b_head_null": _set(["rounds", 0, "learner", "arrays", "b_head", 0], None),
    "standardizer_duplicate_index": _set(["standardizer", "indices", 1], 0),
    "standardizer_constant_string": _set(["standardizer", "constant", 0], "false"),
    "standardizer_index_float": _set(["standardizer", "indices", 1], 1.9),
    "input_dim_float": _set(["rounds", 0, "learner", "input_dim"], 9.0),
    "v2_single_stores_dead_array": _add_dead_u_forget,
    "v2_single_lacks_live_array": _drop_live_b_output,
    "format_version_3": _set(["format_version"], 3),
    # the edges of the one-pass array read, whose lines EXACT_MODEL_ERRORS pins
    "w_input_bool": _set(["rounds", 0, "learner", "arrays", "W_input", 1, 2], True),
    "w_candidate_row_too_long": _lengthen_w_candidate_row,
    "v2_b_input_string": _set(["rounds", 0, "learner", "arrays", "b_input", 4], "0.5"),
    "b_output_nested": _nest_b_output,
    "v2_unknown_array": _add_unknown_array,
    "v2_lacks_w_head": _drop_w_head,
    "w_output_row_a_number": _set(["rounds", 1, "learner", "arrays", "W_output", 2], 0.5),
    "b_candidate_a_number": _set(["rounds", 0, "learner", "arrays", "b_candidate"], 0.5),
    # a hidden_dim the arrays do not fit must not size an allocation: with
    # H = 20000 the kernel alone would be 12.8 GB
    "hidden_dim_20000": _set(["rounds", 1, "learner", "hidden_dim"], 20000),
}

_RAGGED = ("ValueError('setting an array element with a sequence. The requested array has "
           "an inhomogeneous shape after 1 dimensions. The detected shape was (6,) + "
           "inhomogeneous part.')")

# the whole error line of each case that rejects a learner's arrays:
# load_model hands a learner its one-pass read refuses to the per-key read,
# which names the fault; {model} is the model file's path
EXACT_MODEL_ERRORS = {
    "b_candidate_a_number": "round 1: array b_candidate has shape (), expected (6,)",
    "b_head_null": "round 1: array b_head: None is not a number",
    "b_output_nested": "round 2: array b_output has shape (6, 1), expected (6,)",
    "head_bias_nan": "round 1: array b_head is not finite",
    "hidden_dim_20000": "round 2: array W_input has shape (6, 9), expected (20000, 9)",
    "v2_b_input_string": "round 1: array b_input: '0.5' is not a number",
    "v2_lacks_w_head": "round 2: arrays ['W_candidate', 'W_input', 'W_output', 'b_candidate', "
                       "'b_head', 'b_input', 'b_output'] are not the 'single' arrays "
                       "['W_candidate', 'W_input', 'W_output', 'b_candidate', 'b_head', "
                       "'b_input', 'b_output', 'w_head']",
    "v2_unknown_array": "round 1: arrays ['W_candidate', 'W_input', 'W_output', 'W_peephole', "
                        "'b_candidate', 'b_head', 'b_input', 'b_output', 'w_head'] are not the "
                        "'single' arrays ['W_candidate', 'W_input', 'W_output', 'b_candidate', "
                        "'b_head', 'b_input', 'b_output', 'w_head']",
    "w_candidate_row_too_long": "malformed model file {model}: " + _RAGGED,
    "w_input_bool": "round 1: array W_input: True is not a number",
    "w_input_ragged_row": "malformed model file {model}: " + _RAGGED,
    "w_output_row_a_number": "malformed model file {model}: " + _RAGGED,
    "weight_bool": "round 1: array w_head: True is not a number",
    "v2_weight_string": "round 2: array W_output: '0.5' is not a number",
    "weight_inf": "round 2: array W_input is not finite",
    "weight_not_a_number": "malformed model file {model}: "
                           "ValueError(\"could not convert string to float: 'abc'\")",
    "weight_overflows_float64": "malformed model file {model}: "
                                "OverflowError('int too large to convert to float')",
}

# the error message of a case, where the test checks it
INVALID_MODEL_MESSAGES = {
    "standardizer_constant_disagrees_with_std": "'constant': [True, False, False]}: need "
                                                "indices [0, 1, 2], finite means, finite stds "
                                                ">= 0 and each constant flag std == 0",
    "standardizer_indices_permuted": "{'indices': [1, 0, 2], ",
    "alpha_bool": "round 1: alpha: True is not a number",
    "mean_bool": "standardizer: means: True is not a number",
}

# no case may build a kernel larger than the trained ones
LARGEST_LOADED_HIDDEN_DIM = 6


def _refuse_large_kernels(monkeypatch):
    init = PackedLstm.__init__

    def guarded(self, input_dim, hidden_dim, *args):
        if hidden_dim > LARGEST_LOADED_HIDDEN_DIM:
            raise AssertionError(f"a kernel of hidden_dim {hidden_dim} was allocated")
        init(self, input_dim, hidden_dim, *args)

    monkeypatch.setattr(PackedLstm, "__init__", guarded)


@pytest.mark.parametrize("case", sorted(INVALID_MODELS))
@pytest.mark.parametrize("command", ["evaluate", "predict"])
def test_invalid_model_is_rejected_at_load_with_exit_3(tmp_path, trained, case, command,
                                                       capsys, monkeypatch):
    _, data_path, out = trained
    doc = json.loads((out / "model.json").read_text())
    INVALID_MODELS[case](doc)
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    _refuse_large_kernels(monkeypatch)
    with pytest.raises(DataError):
        load_model(model)
    code = _run([command, "--model", model, "--data", data_path,
                 "--out", "result", "--out-dir", tmp_path])
    assert code == 3
    assert not (tmp_path / "result").exists()
    err = capsys.readouterr().err
    assert "usage error" not in err
    assert INVALID_MODEL_MESSAGES.get(case, "") in err
    if case in EXACT_MODEL_ERRORS:
        assert err == "error: " + EXACT_MODEL_ERRORS[case].format(model=model) + "\n"


def _v1_fixture(mode):
    return json.loads((FIXTURES / f"model_v1_{mode}.json").read_text())


# edits of the format v1 fixtures, each with its whole error line as the
# per-key read printed it (None: the file still loads); {model} is the path
V1_MODEL_EDITS = {
    "weight_a_number": ("single", _set(["rounds", 0, "learner", "arrays", "W_input", 0, 0],
                                       0.5),
                        "round 1: array W_input: 0.5 is not a string"),
    "lacks_b_output": ("single", lambda doc: doc["rounds"][1]["learner"]["arrays"].pop(
        "b_output"), "malformed model file {model}: KeyError('b_output')"),
    "weight_bool": ("unrolled", _set(["rounds", 1, "learner", "arrays", "W_output", 2, 0],
                                     True),
                    "round 2: array W_output: True is not a string"),
    "u_row_ragged": ("unrolled", lambda doc: doc["rounds"][0]["learner"]["arrays"][
        "U_forget"][1].pop(), "malformed model file {model}: ValueError('setting an array "
                              "element with a sequence. The requested array has an "
                              "inhomogeneous shape after 1 dimensions. The detected shape "
                              "was (3,) + inhomogeneous part.')"),
    "weight_unparsable": ("unrolled", _set(["rounds", 1, "learner", "arrays", "b_forget", 0],
                                           "zero"),
                          "malformed model file {model}: "
                          "ValueError(\"could not convert string to float: 'zero'\")"),
    "w_head_overflows": ("unrolled", _set(["rounds", 0, "learner", "arrays", "w_head", 2],
                                          "1e400"),
                         "round 1: array w_head is not finite"),
    # a `single` learner's v1 forget gate and U are never read
    "single_dead_u_ragged": ("single", lambda doc: doc["rounds"][2]["learner"]["arrays"][
        "U_input"][0].pop(), None),
    "single_dead_b_forget_a_number": ("single", _set(["rounds", 0, "learner", "arrays",
                                                      "b_forget", 1], 0.5), None),
}


@pytest.mark.parametrize("case", sorted(V1_MODEL_EDITS))
def test_an_edited_v1_model_fails_or_predicts_as_the_per_key_read_does(tmp_path, case, capsys):
    mode, edit, line = V1_MODEL_EDITS[case]
    doc = _v1_fixture(mode)
    edit(doc)
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    code = _run(["predict", "--model", model, "--data", FIXTURES / "v1_score.csv",
                 "--out", "preds.csv", "--out-dir", tmp_path])
    if line is None:
        assert code == 0
        assert (tmp_path / "preds.csv").read_bytes() == \
            (FIXTURES / f"v1_preds_{mode}.csv").read_bytes()
    else:
        assert code == 3
        assert capsys.readouterr().err == "error: " + line.format(model=model) + "\n"


def test_zero_std_on_constant_column_loads(tmp_path, trained):
    _, data_path, out = trained
    doc = json.loads((out / "model.json").read_text())
    doc["standardizer"]["stds"][2] = 0.0
    doc["standardizer"]["constant"][2] = True
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    assert _run(["predict", "--model", model, "--data", data_path,
                 "--out", "p.csv", "--out-dir", tmp_path]) == 0


@pytest.mark.parametrize("command", ["evaluate", "predict"])
def test_deeply_nested_model_file_is_exit_3(tmp_path, trained, command, capsys):
    # deeper than the JSON parser's recursion limit
    _, data_path, _ = trained
    model = tmp_path / "model.json"
    model.write_text("[" * 200_000)
    assert _run([command, "--model", model, "--data", data_path,
                 "--out", "result", "--out-dir", tmp_path]) == 3
    assert f"error: could not parse model file {model}" in capsys.readouterr().err
    assert not (tmp_path / "result").exists()


def _oversized_field_csv(tmp_path, data_path):
    """data_path with the Gender of its 10th record padded past the csv
    module's 131,072-character field limit."""
    lines = data_path.read_text().splitlines()
    fields = lines[10].split(",")
    fields[1] += " " * 200_000
    lines[10] = ",".join(fields)
    path = tmp_path / "oversized.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("command", ["train", "predict"])
def test_csv_field_over_the_size_limit_is_exit_3_naming_file_and_line(tmp_path, trained,
                                                                      command, capsys):
    _, data_path, out = trained
    path = _oversized_field_csv(tmp_path, data_path)
    argv = (["train", "--rounds", 1, "--epochs", 1] if command == "train"
            else ["predict", "--model", out / "model.json", "--out", "p.csv"])
    assert _run([*argv, "--data", path, "--out-dir", tmp_path / "out"]) == 3
    err = capsys.readouterr().err
    assert f"error: {path}: line 11: field larger than field limit" in err
    assert not any((tmp_path / "out").rglob("*"))  # no output file


# --- predict against the per-gate reference cell -----------------------------

@pytest.mark.parametrize("mode", ["single", "unrolled"])
def test_predict_matches_per_row_oracle_and_ignores_row_order(tmp_path, mode):
    # 300 rows span two scoring blocks, and reversing the file moves every
    # row to another position and most of them to another block
    data_path = tmp_path / "data.csv"
    assert _run(["gen-data", "--n", 300, "--seed", 8, "--signal", 4.0,
                 "--out", data_path.name, "--out-dir", tmp_path]) == 0
    out = tmp_path / "run"
    assert _run(["train", "--data", data_path, "--sequence-mode", mode, "--stratified",
                 "--rounds", 3, "--epochs", 2, "--hidden-dim", 5, "--seed", 2,
                 "--out-dir", out]) == 0
    header, *rows = data_path.read_text().splitlines()
    reversed_path = tmp_path / "reversed.csv"
    reversed_path.write_text("\n".join([header, *rows[::-1]]) + "\n")
    for name, path in (("preds.csv", data_path), ("reversed_preds.csv", reversed_path)):
        assert _run(["predict", "--model", out / "model.json", "--data", path,
                     "--out", name, "--out-dir", tmp_path]) == 0

    bundle = load_model(out / "model.json")
    X = data_mod.apply_standardizer(
        bundle.standardizer, data_mod.encode(data_mod.load_csv(data_path), bundle.target))
    lines = (tmp_path / "preds.csv").read_text().splitlines()[1:]
    assert len(lines) == len(X) == 300
    dim = step_dim(mode, X.shape[1])
    for line, x in zip(lines, X):
        votes = []
        for r in bundle.ensemble.rounds:
            prob, _ = forward_sequence(four_gate(r.learner.kernel), list(x.reshape(-1, dim)))
            votes.append(r.alpha * (1 if prob >= 0.5 else -1))
        margin = math.fsum(votes)
        assert line.split(",")[1:] == [repr(margin), str(1 if margin > 0 else 0)]

    reversed_lines = (tmp_path / "reversed_preds.csv").read_text().splitlines()[1:]
    assert [line.split(",", 1)[1] for line in reversed_lines[::-1]] == \
        [line.split(",", 1)[1] for line in lines]


# --- unrolled sequences end to end -------------------------------------------

def test_unrolled_train_predict_evaluate_end_to_end(tmp_path):
    data_path = tmp_path / "data.csv"
    assert _run(["gen-data", "--n", 150, "--seed", 4, "--signal", 4.0,
                 "--out", data_path.name, "--out-dir", tmp_path]) == 0
    out = tmp_path / "run"
    assert _run(["train", "--data", data_path, "--sequence-mode", "unrolled", "--stratified",
                 "--rounds", 3, "--epochs", 2, "--hidden-dim", 5, "--seed", 2,
                 "--out-dir", out]) == 0
    bundle = load_model(out / "model.json")
    assert bundle.sequence_mode == "unrolled"
    assert all(r.learner.kernel.input_dim == 1 for r in bundle.ensemble.rounds)

    assert _run(["evaluate", "--model", out / "model.json", "--data", out / "test_split.csv",
                 "--out", "eval.json", "--out-dir", tmp_path]) == 0
    eval_block = json.loads((tmp_path / "eval.json").read_text())["eval"]
    assert eval_block == json.loads((out / "report.json").read_text())["test"]

    assert _run(["predict", "--model", out / "model.json", "--data", data_path,
                 "--out", "preds.csv", "--out-dir", tmp_path]) == 0
    X = data_mod.apply_standardizer(
        bundle.standardizer, data_mod.encode(data_mod.load_csv(data_path), bundle.target))
    lines = (tmp_path / "preds.csv").read_text().splitlines()
    assert len(lines) == 1 + len(X)
    want_labels, want_margins = ensemble_predict(bundle.ensemble, X)
    for line, want_label, want_margin in zip(lines[1:], want_labels, want_margins):
        _, margin, label = line.split(",")
        assert float(margin) == want_margin
        assert int(label) == want_label


# --- gradcheck --------------------------------------------------------------

# the (D, H, T) that seed 11 draws for the ten cases
_GRADCHECK_SHAPES = ["D=4 H=2 T=2", "D=1 H=1 T=4", "D=2 H=5 T=3", "D=4 H=5 T=3", "D=4 H=3 T=1",
                     "D=5 H=8 T=3", "D=4 H=3 T=4", "D=3 H=1 T=4", "D=3 H=1 T=2", "D=1 H=1 T=2"]


def test_gradcheck_passes_and_prints(capsys):
    assert _run(["gradcheck"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 11
    errors = []
    for k, (line, shape) in enumerate(zip(lines, _GRADCHECK_SHAPES)):
        match = re.fullmatch(rf"case {k}: {shape} max_rel_err=(\d\.\d{{3}}e-\d\d)", line)
        assert match, line
        errors.append(match.group(1))
    worst = max(errors, key=float)
    assert float(worst) < 1e-4
    assert lines[10] == f"gradcheck PASS: max relative error {worst} (tolerance 0.0001)"


def test_gradcheck_is_reproducible(capsys):
    _run(["gradcheck", "--seed", 11])
    first = capsys.readouterr().out
    _run(["gradcheck", "--seed", 11])
    assert capsys.readouterr().out == first


def test_gradcheck_mutation_hook_fails(capsys):
    assert _run(["gradcheck", "--break-gate", "forget"]) == 1
    assert "FAIL" in capsys.readouterr().out
    # a zeroed analytic entry scores |0 - n| / |n| = 1 exactly
    assert _run(["gradcheck", "--break-gate", "input"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"case {k}: {shape} max_rel_err=1.000e+00" for k, shape in enumerate(_GRADCHECK_SHAPES)
    ] + ["gradcheck FAIL: max relative error 1.000e+00 (tolerance 0.0001)"]


@pytest.mark.parametrize("seed", [12, 14, 27])
def test_gradcheck_passes_and_notices_every_broken_gate_at_other_seeds(seed, capsys):
    # seed 12 has a 2.2e-8 gradient entry, which three-point differences at
    # eps 1e-5 scored at 1.8e-4; seed 14 is the worst of seeds 0-39
    assert _run(["gradcheck", "--seed", seed]) == 0
    for gate in GATES:
        assert _run(["gradcheck", "--seed", seed, "--break-gate", gate]) == 1
    assert capsys.readouterr().out.count("FAIL") == len(GATES)


# --- entry point ------------------------------------------------------------

def test_every_command_has_a_handler():
    for command in COMMANDS:
        assert callable(getattr(cli, "cmd_" + command.replace("-", "_"), None)), command


def test_main_calls_the_handler_bound_on_the_module_when_it_runs(tmp_path, monkeypatch):
    # bench/spans.py traces the commands by rebinding the cli.cmd_* globals
    calls = []
    original = cli.cmd_gen_data

    def recording_gen_data(opts):
        calls.append(opts)
        return original(opts)

    monkeypatch.setattr(cli, "cmd_gen_data", recording_gen_data)
    assert _run(["gen-data", "--n", 5, "--out-dir", tmp_path]) == 0
    assert len(calls) == 1 and calls[0]["n"] == 5


def test_an_internal_error_exits_70_with_its_traceback(tmp_path, monkeypatch, capsys):
    # exit 1 is a failed gradient check, so a bug must not exit 1
    def broken_predict(opts):
        raise RuntimeError("a bug in predict")

    monkeypatch.setattr(cli, "cmd_predict", broken_predict)
    assert _run(["predict", "--data", tmp_path / "data.csv"]) == cli.EXIT_INTERNAL == 70
    err = capsys.readouterr().err
    assert "Traceback" in err and "RuntimeError: a bug in predict" in err
    monkeypatch.undo()
    assert _run(["gradcheck", "--break-gate", "input"]) == cli.EXIT_CHECK_FAILED


def test_a_value_error_inside_a_command_exits_70_with_its_traceback(tmp_path, monkeypatch,
                                                                     capsys):
    # only a UsageError reads as bad flags; any other ValueError is a bug
    def broken_encode(table, spec):
        raise ValueError("a bug in encode")

    monkeypatch.setattr(data_mod, "encode", broken_encode)
    out = tmp_path / "out"
    assert _run(["train", "--synth-n", 50, "--out-dir", out]) == cli.EXIT_INTERNAL
    err = capsys.readouterr().err
    assert "Traceback" in err and "ValueError: a bug in encode" in err
    assert "usage error" not in err and not out.exists()


def test_an_infinite_learning_rate_is_a_usage_error_before_anything_is_written(tmp_path,
                                                                               capsys):
    out = tmp_path / "out"
    assert _run(["train", "--lr", "inf", "--out-dir", out]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == "usage error: TrainConfig: initial_lr must be finite\n"
    assert not out.exists()


def test_a_learning_rate_that_overflows_the_head_logit_is_exit_4_with_no_model(tmp_path):
    # the head logit reaches +-inf, where the clamped loss would stay finite;
    # stderr is the one error line, with no numpy overflow warning before it
    out = tmp_path / "out"
    assert _run(["gen-data", "--n", 80, "--seed", 1, "--out-dir", tmp_path]) == 0
    proc = _cli_process(["train", "--data", tmp_path / "synthetic.csv", "--lr", 1e308,
                         "--rounds", 2, "--epochs", 1, "--out-dir", out])
    assert proc.returncode == cli.EXIT_TRAINING
    assert proc.stderr == "training error: non-finite head logit at epoch 1, example 9\n"
    assert not (out / "model.json").exists()


def _run_every_writer(out):
    """gen-data, train, predict and evaluate into out; every file in out by name."""
    data = out / "data.csv"
    assert _run(["gen-data", "--n", 120, "--seed", 5, "--out", "data.csv",
                 "--out-dir", out]) == 0
    assert _run(["train", *FAST_TRAIN, "--data", data, "--out-dir", out]) == 0
    assert _run(["predict", "--model", out / "model.json", "--data", data,
                 "--out", "predictions.csv", "--out-dir", out]) == 0
    assert _run(["evaluate", "--model", out / "model.json", "--data", out / "test_split.csv",
                 "--out", "eval.json", "--out-dir", out]) == 0
    return {path.name: path.read_bytes() for path in out.iterdir()}


def test_a_rerun_into_the_same_paths_writes_the_bytes_of_a_fresh_run(tmp_path):
    # write_lines replaces the files of the first run; nothing else is left
    fresh = _run_every_writer(tmp_path / "fresh")
    assert sorted(fresh) == ["boost_log.csv", "data.csv", "eval.json", "loss_curve.csv",
                             "model.json", "predictions.csv", "report.json",
                             "test_split.csv", "train_split.csv"]
    for _ in range(2):
        assert _run_every_writer(tmp_path / "again") == fresh


def test_every_output_file_is_opened_with_newline_translation_off(tmp_path, monkeypatch):
    # newline="" keeps each "\n" as written, so artifacts match on every platform
    real_open = builtins.open
    writes = {}

    def recording_open(file, mode="r", buffering=-1, encoding=None, errors=None,
                       newline=None, closefd=True, opener=None):
        if set(mode) & set("wax+"):
            writes[os.path.basename(file)] = newline
        return real_open(file, mode, buffering, encoding, errors, newline, closefd, opener)

    monkeypatch.setattr(builtins, "open", recording_open)
    assert _run(["gen-data", "--n", 120, "--seed", 5, "--out", "data.csv",
                 "--out-dir", tmp_path]) == 0
    assert _run(["train", "--data", tmp_path / "data.csv", "--rounds", 2, "--epochs", 2,
                 "--hidden-dim", 4, "--out-dir", tmp_path]) == 0
    for command, out in (("evaluate", "eval.json"), ("predict", "preds.csv")):
        assert _run([command, "--model", tmp_path / "model.json", "--data",
                     tmp_path / "test_split.csv", "--out", out, "--out-dir", tmp_path]) == 0
    monkeypatch.undo()
    assert writes == dict.fromkeys(
        ["data.csv", "model.json", "report.json", "boost_log.csv", "loss_curve.csv",
         "train_split.csv", "test_split.csv", "eval.json", "preds.csv"], "")
    for name in writes:
        assert b"\r" not in (tmp_path / name).read_bytes(), name


def test_console_entry_point_usage_exit():
    proc = subprocess.run([sys.executable, "-m", "vrboost.cli", "train",
                           "--no-such-flag"], capture_output=True)
    assert proc.returncode == 2


def test_cli_module_help():
    proc = subprocess.run([sys.executable, "-m", "vrboost.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    for verb in ("gen-data", "train", "evaluate", "predict", "gradcheck"):
        assert verb in proc.stdout


@pytest.mark.parametrize("command", [None, *COMMANDS])
def test_help_lists_every_command_and_every_flag_of_the_invoked_one(capsys, command):
    # each command's --help lists that command's option rows
    with pytest.raises(SystemExit) as exc:
        main(["--help"] if command is None else [command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    if command is None:
        for verb in ("gen-data", "train", "evaluate", "predict", "gradcheck"):
            assert verb in out
    else:
        for name in option_rows(command):
            assert re.search(rf"--{name.replace('_', '-')}(?![\w-])", out), name


def _usage_error(parser, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    return exc.value.code, capsys.readouterr().err


@pytest.mark.parametrize("argv", [[], ["bogus"], ["--seed", "1", "train"],
                                  ["train", "--no-such-flag", "1"], ["predict", "extra"],
                                  ["gradcheck", "--break-gate", "nope"], ["gen-data", "--n", "x"]])
def test_main_exits_2_with_the_usage_error_of_its_parser(argv, capsys):
    code = _usage_error(build_parser(), argv, capsys)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert (exc.value.code, capsys.readouterr().err) == code
    assert code[0] == 2 and code[1].startswith("usage: vrboost")


def test_one_parser_serves_every_call_of_a_process():
    assert build_parser() is build_parser()


def test_a_parse_leaves_nothing_in_the_parser_for_the_next():
    parser = build_parser()
    first = resolve_options(parser.parse_args(["train", "--epochs", "5", "--stratified"]))
    assert (first["epochs"], first["stratified"]) == (5, True)
    bare = resolve_options(parser.parse_args(["train"]))
    assert (bare["epochs"], bare["stratified"]) == (50, False)


def test_two_main_calls_of_one_process_write_their_own_outputs(tmp_path):
    for seed, name in ((1, "a.csv"), (2, "b.csv")):
        assert _run(["gen-data", "--n", 20, "--seed", seed, "--out", name,
                     "--out-dir", tmp_path]) == 0
    a, b = ((tmp_path / name).read_bytes() for name in ("a.csv", "b.csv"))
    assert a != b and sorted(os.listdir(tmp_path)) == ["a.csv", "b.csv"]
