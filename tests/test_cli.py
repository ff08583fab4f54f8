import json
import subprocess
import sys

import numpy as np
import pytest

from vrboost import data as data_mod
from vrboost.boosting import ensemble_predict
from vrboost.cli import load_model, main, save_model
from vrboost.errors import DataError
from vrboost.metrics import f1_score

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


def test_gen_data_prints_oracle_accuracy(tmp_path, capsys):
    _run(["gen-data", "--n", 50, "--seed", 1, "--out-dir", tmp_path])
    assert "oracle accuracy" in capsys.readouterr().out


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


@pytest.mark.filterwarnings("ignore:all labels identical")
def test_train_single_class_data_is_exit_3(tmp_path):
    rows = ["%d,Male,HTC Vive,10.0,5,5" % (20 + i) for i in range(10)]
    path = tmp_path / "flat.csv"
    path.write_text("Age,Gender,VRHeadset,Duration,MotionSickness,ImmersionLevel\n"
                    + "\n".join(rows) + "\n")
    code = _run(["train", "--data", path, "--rounds", 1, "--epochs", 1,
                 "--out-dir", tmp_path / "out"])
    assert code == 3


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
    records = data_mod.load_csv(data_path)
    examples = data_mod.encode(records, bundle.target)
    standardized = data_mod.apply_standardizer(bundle.standardizer, examples)
    lines = pred_path.read_text().splitlines()
    assert lines[0] == "row_index,margin,label"
    assert len(lines) == len(records) + 1
    for line, ex in zip(lines[1:], standardized):
        idx, margin, label = line.split(",")
        want_label, want_margin = ensemble_predict(bundle.ensemble, ex.features)
        assert float(margin) == want_margin  # repr round-trips exactly
        assert int(label) == want_label


def test_predict_without_target_column(tmp_path, trained):
    _, data_path, out = trained
    records = data_mod.load_csv(data_path)
    no_target = tmp_path / "new.csv"
    lines = ["Age,Gender,VRHeadset,Duration,MotionSickness"]
    lines += [f"{r.age},{r.gender},{r.vr_headset},{r.duration!r},{r.motion_sickness}"
              for r in records[:10]]
    no_target.write_text("\n".join(lines) + "\n")
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


def test_model_round_trip_identical_predictions(tmp_path, trained):
    _, data_path, out = trained
    bundle = load_model(out / "model.json")
    copy_path = tmp_path / "copy.json"
    save_model(bundle, copy_path)
    assert copy_path.read_bytes() == (out / "model.json").read_bytes()
    reloaded = load_model(copy_path)
    records = data_mod.load_csv(data_path)
    examples = data_mod.encode(records, bundle.target)
    standardized = data_mod.apply_standardizer(bundle.standardizer, examples)
    for ex in standardized:
        assert ensemble_predict(bundle.ensemble, ex.features) == \
            ensemble_predict(reloaded.ensemble, ex.features)


# --- load-time model validation ---------------------------------------------

def _drop_last_input_column(doc):
    for entry in doc["rounds"]:
        learner = entry["learner"]
        learner["input_dim"] -= 1
        for gate in ("forget", "input", "output", "candidate"):
            key = f"W_{gate}"
            learner["arrays"][key] = [row[:-1] for row in learner["arrays"][key]]


def _set(path, value):
    def edit(doc):
        *parents, last = path
        node = doc
        for step in parents:
            node = node[step]
        node[last] = value
    return edit


INVALID_MODELS = {
    "input_dim_8_single": _drop_last_input_column,
    "input_dim_9_unrolled": _set(["sequence_mode"], "unrolled"),
    "unknown_sequence_mode": _set(["sequence_mode"], "stacked"),
    "alpha_nan": _set(["rounds", 0, "alpha"], "nan"),
    "weight_inf": _set(["rounds", 1, "learner", "arrays", "W_input", 2, 3], "inf"),
    "head_bias_nan": _set(["rounds", 0, "learner", "arrays", "b_head", 0], "nan"),
    "mean_nan": _set(["standardizer", "means", 0], "nan"),
    "std_inf": _set(["standardizer", "stds", 1], "-inf"),
    "std_zero_not_constant": _set(["standardizer", "stds", 2], "0"),
    "std_negative": _set(["standardizer", "stds", 0], "-1.5"),
    "standardizer_lengths_differ": _set(["standardizer", "constant"], [False, False]),
}


@pytest.mark.parametrize("case", sorted(INVALID_MODELS))
@pytest.mark.parametrize("command", ["evaluate", "predict"])
def test_invalid_model_is_rejected_at_load_with_exit_3(tmp_path, trained, case, command,
                                                       capsys):
    _, data_path, out = trained
    doc = json.loads((out / "model.json").read_text())
    INVALID_MODELS[case](doc)
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    with pytest.raises(DataError):
        load_model(model)
    code = _run([command, "--model", model, "--data", data_path,
                 "--out", "result", "--out-dir", tmp_path])
    assert code == 3
    assert not (tmp_path / "result").exists()
    assert "usage error" not in capsys.readouterr().err


def test_zero_std_on_constant_column_loads(tmp_path, trained):
    _, data_path, out = trained
    doc = json.loads((out / "model.json").read_text())
    doc["standardizer"]["stds"][2] = "0"
    doc["standardizer"]["constant"][2] = True
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    assert _run(["predict", "--model", model, "--data", data_path,
                 "--out", "p.csv", "--out-dir", tmp_path]) == 0


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
    assert all(r.learner.params.input_dim == 1 for r in bundle.ensemble.rounds)

    assert _run(["evaluate", "--model", out / "model.json", "--data", out / "test_split.csv",
                 "--out", "eval.json", "--out-dir", tmp_path]) == 0
    eval_block = json.loads((tmp_path / "eval.json").read_text())["eval"]
    assert eval_block == json.loads((out / "report.json").read_text())["test"]

    assert _run(["predict", "--model", out / "model.json", "--data", data_path,
                 "--out", "preds.csv", "--out-dir", tmp_path]) == 0
    examples = data_mod.apply_standardizer(
        bundle.standardizer, data_mod.encode(data_mod.load_csv(data_path), bundle.target))
    lines = (tmp_path / "preds.csv").read_text().splitlines()
    assert len(lines) == 1 + len(examples)
    for line, ex in zip(lines[1:], examples):
        _, margin, label = line.split(",")
        want_label, want_margin = ensemble_predict(bundle.ensemble, ex.features)
        assert float(margin) == want_margin
        assert int(label) == want_label


# --- gradcheck --------------------------------------------------------------

def test_gradcheck_passes_and_prints(capsys):
    assert _run(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "max relative error" in out


def test_gradcheck_is_reproducible(capsys):
    _run(["gradcheck", "--seed", 11])
    first = capsys.readouterr().out
    _run(["gradcheck", "--seed", 11])
    assert capsys.readouterr().out == first


def test_gradcheck_mutation_hook_fails(capsys):
    assert _run(["gradcheck", "--break-gate", "forget"]) == 1
    assert "FAIL" in capsys.readouterr().out


# --- entry point ------------------------------------------------------------

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
