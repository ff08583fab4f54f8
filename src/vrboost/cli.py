"""Command-line pipeline: gen-data, train, evaluate, predict, gradcheck.

Defaults mirror the reference protocol (70/30 split, 50 epochs, initial
learning rate 0.01 dropping by 0.1 every 10 epochs), so a bare `train` run
needs no flags. Options may also come from a `key = value` config file;
explicit flags win over the file, the file wins over defaults.

Exit codes: 0 success, 1 failed gradient check, 2 usage, 3 data/schema,
4 training, 5 I/O.
"""

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import data as data_mod
from .boosting import (BoostConfig, BoostRound, Ensemble, boost_train,
                       ensemble_predict, lstm_factory, LstmWeakLearner)
from .errors import DataError, TrainingError
from .lstm import (GATES, LstmParams, TrainConfig, grad_check, init_params, param_keys,
                   to_sequence)
from .metrics import confusion, correct_incorrect, scores
from .numerics import Rng

MODEL_FORMAT_VERSION = 1
GRADCHECK_TOLERANCE = 1e-4

EXIT_OK, EXIT_CHECK_FAILED, EXIT_USAGE, EXIT_DATA, EXIT_TRAINING, EXIT_IO = 0, 1, 2, 3, 4, 5


# --- model file -----------------------------------------------------------

def _fmt(value: float) -> str:
    # decimal text at 17 significant digits round-trips any float64 exactly
    return format(float(value), ".17g")


def _fmt_array(arr: np.ndarray):
    if arr.ndim == 1:
        return [_fmt(v) for v in arr]
    return [[_fmt(v) for v in row] for row in arr]


@dataclass
class ModelBundle:
    """Everything needed to score new records: ensemble plus preprocessing."""

    ensemble: Ensemble
    target: data_mod.TargetSpec
    standardizer: data_mod.Standardizer
    sequence_mode: str


def save_model(bundle: ModelBundle, path: str) -> None:
    """Versioned JSON; every float as decimal text with 17 significant digits."""
    std = bundle.standardizer
    rounds = []
    for r in bundle.ensemble.rounds:
        if not isinstance(r.learner, LstmWeakLearner):
            raise ValueError("save_model: only LSTM weak learners are serializable")
        params = r.learner.params
        rounds.append({
            "alpha": _fmt(r.alpha),
            "learner": {
                "type": "lstm",
                "input_dim": params.input_dim,
                "hidden_dim": params.hidden_dim,
                "arrays": {k: _fmt_array(params.arrays[k]) for k in param_keys()},
            },
        })
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "label_convention": {"positive": bundle.ensemble.positive_label,
                             "negative": bundle.ensemble.negative_label},
        "target": {"column": bundle.target.target_column,
                   "threshold": bundle.target.threshold},
        "sequence_mode": bundle.sequence_mode,
        "standardizer": {
            "indices": list(std.indices),
            "means": [_fmt(v) for v in std.means],
            "stds": [_fmt(v) for v in std.stds],
            "constant": list(std.constant),
        },
        "rounds": rounds,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_model(path: str) -> ModelBundle:
    """Inverse of save_model. Any malformed content raises DataError.

    Everything scoring relies on is checked here, so that a model which does
    not fit its data fails before any row is scored: each learner's input
    dimension must be the step length of its sequence mode, and every alpha,
    weight, mean and std finite, with std > 0 unless the column is flagged
    constant.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataError(f"could not parse model file {path}: {exc}") from None
    try:
        if doc["format_version"] != MODEL_FORMAT_VERSION:
            raise DataError(f"unsupported model format version {doc['format_version']}")
        target = data_mod.TargetSpec(target_column=doc["target"]["column"],
                                     threshold=int(doc["target"]["threshold"]))
        std_doc = doc["standardizer"]
        standardizer = data_mod.Standardizer(
            indices=tuple(int(i) for i in std_doc["indices"]),
            means=np.array([float(v) for v in std_doc["means"]]),
            stds=np.array([float(v) for v in std_doc["stds"]]),
            constant=tuple(bool(v) for v in std_doc["constant"]),
        )
        _validate_standardizer(standardizer)
        sequence_mode = doc["sequence_mode"]
        step_dim = _step_dim(sequence_mode)
        rounds = []
        for number, entry in enumerate(doc["rounds"], start=1):
            learner_doc = entry["learner"]
            if learner_doc["type"] != "lstm":
                raise DataError(f"unsupported learner type {learner_doc['type']!r}")
            input_dim = int(learner_doc["input_dim"])
            hidden_dim = int(learner_doc["hidden_dim"])
            if input_dim != step_dim:
                raise DataError(f"round {number}: input_dim {input_dim} does not fit "
                                f"sequence_mode {sequence_mode!r}, whose steps have "
                                f"{step_dim} features")
            arrays = {}
            for key in param_keys():
                raw = learner_doc["arrays"][key]
                arr = np.array([[float(v) for v in row] for row in raw]) \
                    if raw and isinstance(raw[0], list) else np.array([float(v) for v in raw])
                if not np.all(np.isfinite(arr)):
                    raise DataError(f"round {number}: array {key} is not finite")
                arrays[key] = arr
            alpha = float(entry["alpha"])
            if not math.isfinite(alpha):
                raise DataError(f"round {number}: alpha {alpha!r} is not finite")
            learner = LstmWeakLearner(TrainConfig(hidden_dim=hidden_dim), sequence_mode)
            learner.params = LstmParams(input_dim, hidden_dim, arrays)  # checks shapes
            rounds.append(BoostRound(alpha=alpha, learner=learner))
        if not rounds:
            raise DataError("model file contains no rounds")
        convention = doc["label_convention"]
        ensemble = Ensemble(rounds=rounds, positive_label=int(convention["positive"]),
                            negative_label=int(convention["negative"]))
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise DataError(f"malformed model file {path}: {exc!r}") from None
    return ModelBundle(ensemble=ensemble, target=target, standardizer=standardizer,
                       sequence_mode=sequence_mode)


def _step_dim(sequence_mode: str) -> int:
    """Features per time step that a learner sees under sequence_mode."""
    return len(to_sequence(np.zeros(data_mod.N_FEATURES), sequence_mode)[0])


def _validate_standardizer(std: data_mod.Standardizer) -> None:
    n = len(std.indices)
    if not len(std.means) == len(std.stds) == len(std.constant) == n:
        raise DataError("standardizer: indices, means, stds and constant differ in length")
    if any(not 0 <= idx < data_mod.N_FEATURES for idx in std.indices):
        raise DataError(f"standardizer: indices {list(std.indices)} are not all features")
    if not (np.all(np.isfinite(std.means)) and np.all(np.isfinite(std.stds))):
        raise DataError("standardizer: means and stds must be finite")
    for idx, sd, constant in zip(std.indices, std.stds, std.constant):
        if not constant and sd <= 0:
            raise DataError(f"standardizer: std {sd!r} of feature {idx} must be > 0 "
                            f"unless the column is flagged constant")


# --- orchestration --------------------------------------------------------

@dataclass
class RunConfig:
    """Full description of one training run."""

    target: data_mod.TargetSpec = field(default_factory=data_mod.TargetSpec)
    boost: BoostConfig = field(default_factory=BoostConfig)
    data_path: str | None = None
    synth_n: int = 500
    synth_signal: float = 4.0
    ratio: float = 0.7
    seed: int = 0
    stratified: bool = False
    sequence_mode: str = "single"
    out_dir: str = "."


def _evaluation_block(preds, truths) -> dict:
    cm = confusion(preds, truths)
    report = scores(cm)
    correct, incorrect = correct_incorrect(cm)
    majority = data_mod.majority_rate(truths)
    return {
        "n": cm.total,
        "accuracy": report.accuracy,
        "precision": report.precision,
        "recall": report.recall,
        "f1": report.f1,
        "tp": cm.tp, "fp": cm.fp, "fn": cm.fn, "tn": cm.tn,
        "correct": correct, "incorrect": incorrect,
        "degenerate": list(report.degenerate),
        "majority_rate": majority,
        "near_chance": bool(report.accuracy < majority + 0.05),
    }


def _evaluate_split(bundle: ModelBundle, examples) -> dict:
    preds = [ensemble_predict(bundle.ensemble, ex.features)[0] for ex in examples]
    truths = [ex.label for ex in examples]
    return _evaluation_block(preds, truths)


def _write_json(doc: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def cmd_gen_data(n: int, seed: int, signal: float, out_path: str) -> int:
    """Write a synthetic dataset and print the link's oracle accuracy."""
    records = data_mod.gen_synthetic(n, seed, signal)
    data_mod.write_csv(records, out_path)
    rate = data_mod.synthetic_bayes_rate(records, signal)
    print(f"wrote {n} records to {out_path}")
    print(f"oracle accuracy of the generative link: {rate:.4f}")
    return EXIT_OK


def cmd_train(cfg: RunConfig) -> int:
    """Train the boosted ensemble end to end and emit all run artifacts."""
    if cfg.data_path is not None:
        records = data_mod.load_csv(cfg.data_path)
    else:
        records = data_mod.gen_synthetic(cfg.synth_n, cfg.seed, cfg.synth_signal)
    examples = data_mod.encode(records, cfg.target)
    if len({ex.label for ex in examples}) < 2:
        raise DataError(
            f"dataset has a single label class under rule "
            f"{cfg.target.target_column} >= {cfg.target.threshold}")

    labels = [ex.label for ex in examples]
    train_idx, test_idx = data_mod.split_indices(
        len(examples), cfg.ratio, cfg.seed, labels, cfg.stratified)
    train_examples = [examples[i] for i in train_idx]
    test_examples = [examples[i] for i in test_idx]
    standardizer = data_mod.fit_standardizer(train_examples)
    train_std = data_mod.apply_standardizer(standardizer, train_examples)
    test_std = data_mod.apply_standardizer(standardizer, test_examples)

    pairs = [(ex.features, ex.label) for ex in train_std]
    ensemble, log = boost_train(
        pairs, cfg.boost, lstm_factory(cfg.boost.train, cfg.sequence_mode))

    bundle = ModelBundle(ensemble=ensemble, target=cfg.target,
                         standardizer=standardizer, sequence_mode=cfg.sequence_mode)
    report = {
        "train": _evaluate_split(bundle, train_std),
        "test": _evaluate_split(bundle, test_std),
    }

    os.makedirs(cfg.out_dir, exist_ok=True)
    join = lambda name: os.path.join(cfg.out_dir, name)
    save_model(bundle, join("model.json"))
    _write_json(report, join("report.json"))
    with open(join("boost_log.csv"), "w", encoding="utf-8", newline="") as fh:
        fh.write("round,epsilon,alpha\n")
        for entry in log:
            fh.write(f"{entry.round},{entry.epsilon!r},{entry.alpha!r}\n")
    with open(join("loss_curve.csv"), "w", encoding="utf-8", newline="") as fh:
        fh.write("round,epoch,loss\n")
        for rnd, r in enumerate(ensemble.rounds, start=1):
            for epoch, loss in enumerate(r.learner.loss_curve.losses, start=1):
                fh.write(f"{rnd},{epoch},{loss!r}\n")
    data_mod.write_csv([records[i] for i in train_idx], join("train_split.csv"))
    data_mod.write_csv([records[i] for i in test_idx], join("test_split.csv"))

    for split in ("train", "test"):
        block = report[split]
        note = "  (near chance)" if block["near_chance"] else ""
        print(f"{split}: accuracy {block['accuracy']:.4f}  precision {block['precision']:.4f}  "
              f"recall {block['recall']:.4f}  f1 {block['f1']:.4f}{note}")
    print(f"artifacts written to {cfg.out_dir}")
    return EXIT_OK


def _load_compatible(bundle: ModelBundle, data_path: str, need_target: bool) -> list:
    """Standardized examples of a CSV whose features fit the model; labels are
    0 where need_target is False, and the target column may then be absent."""
    if need_target:
        examples = data_mod.encode(data_mod.load_csv(data_path), bundle.target)
    else:
        records = data_mod.load_csv(data_path, optional_column=bundle.target.target_column)
        examples = [data_mod.EncodedExample(data_mod.encode_features(r, bundle.target), 0)
                    for r in records]
    got = len(to_sequence(examples[0].features, bundle.sequence_mode)[0])
    expected = bundle.ensemble.rounds[0].learner.params.input_dim
    if got != expected:
        raise DataError(f"feature length {got} does not match the "
                        f"model's input dimension {expected}")
    return data_mod.apply_standardizer(bundle.standardizer, examples)


def cmd_evaluate(model_path: str, data_path: str, out_path: str) -> int:
    """Score a labeled CSV with a saved model; write a single-block report."""
    bundle = load_model(model_path)
    standardized = _load_compatible(bundle, data_path, need_target=True)
    block = _evaluate_split(bundle, standardized)
    _write_json({"eval": block}, out_path)
    print(f"eval: accuracy {block['accuracy']:.4f}  precision {block['precision']:.4f}  "
          f"recall {block['recall']:.4f}  f1 {block['f1']:.4f}")
    print(f"report written to {out_path}")
    return EXIT_OK


def cmd_predict(model_path: str, data_path: str, out_path: str) -> int:
    """Write (row_index, margin, label) for every row; target column optional."""
    bundle = load_model(model_path)
    examples = _load_compatible(bundle, data_path, need_target=False)
    lines = ["row_index,margin,label"]
    for idx, ex in enumerate(examples):
        label, margin = ensemble_predict(bundle.ensemble, ex.features)
        lines.append(f"{idx},{margin!r},{label}")
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {len(examples)} predictions to {out_path}")
    return EXIT_OK


GRADCHECK_DEFAULT_SEED = 11


def gradcheck_suite(seed: int = GRADCHECK_DEFAULT_SEED,
                    break_gate: str | None = None, verbose: bool = False) -> float:
    """Max finite-difference relative error over 10 seeded random instances.

    Central differences at eps=1e-5 carry ~5e-12 of cancellation noise, so
    gradient entries below ~5e-8 in magnitude are noise-dominated under the
    relative-error formula. The default seed fixes a suite whose entries all
    sit clear of that band (exact gradients score ~4e-6; any zeroed gate
    scores ~1.0).
    """
    rng = Rng(seed)
    worst = 0.0
    for case in range(10):
        input_dim = rng.randint(1, 5)
        hidden_dim = rng.randint(1, 8)
        steps = rng.randint(1, 4)
        params = init_params(input_dim, hidden_dim, rng)
        seq = [rng.uniform_array((input_dim,), -2.0, 2.0) for _ in range(steps)]
        y = rng.randint(0, 1)
        w = rng.uniform(0.5, 2.0)
        err = grad_check(params, seq, y, w, eps=1e-5, break_gate=break_gate)
        if verbose:
            print(f"case {case}: D={input_dim} H={hidden_dim} T={steps} "
                  f"max_rel_err={err:.3e}")
        worst = max(worst, err)
    return worst


def cmd_gradcheck(seed: int = GRADCHECK_DEFAULT_SEED,
                  break_gate: str | None = None) -> int:
    """Finite-difference audit of the BPTT gradients; nonzero exit on failure."""
    worst = gradcheck_suite(seed, break_gate, verbose=True)
    passed = worst < GRADCHECK_TOLERANCE
    print(f"gradcheck {'PASS' if passed else 'FAIL'}: max relative error {worst:.3e} "
          f"(tolerance {GRADCHECK_TOLERANCE:g})")
    return EXIT_OK if passed else EXIT_CHECK_FAILED


# --- argument parsing -----------------------------------------------------

_COMMON_DEFAULTS = {"seed": 0, "out_dir": ".", "config": None}

DEFAULTS = {
    "gen-data": {**_COMMON_DEFAULTS, "n": 500, "signal": 4.0, "out": "synthetic.csv"},
    "train": {**_COMMON_DEFAULTS, "data": None, "synth_n": 500, "signal": 4.0,
              "target_column": "ImmersionLevel", "target_threshold": 4,
              "ratio": 0.7, "stratified": False,
              "rounds": 10, "epsilon_floor": 1e-10,
              "epochs": 50, "lr": 0.01, "lr_drop_factor": 0.1, "lr_drop_period": 10,
              "grad_clip": 1.0, "hidden_dim": 16, "sequence_mode": "single"},
    "evaluate": {**_COMMON_DEFAULTS, "model": "model.json", "data": None,
                 "out": "report.json"},
    "predict": {**_COMMON_DEFAULTS, "model": "model.json", "data": None,
                "out": "predictions.csv"},
    "gradcheck": {**_COMMON_DEFAULTS, "seed": GRADCHECK_DEFAULT_SEED,
                  "break_gate": None},
}

_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}


def _coerce(key: str, raw: str, default):
    if isinstance(default, bool):
        low = raw.lower()
        if low in _BOOL_TRUE:
            return True
        if low in _BOOL_FALSE:
            return False
        raise ValueError(f"config: {key}: expected a boolean, got {raw!r}")
    if isinstance(default, int):
        return int(raw)
    if isinstance(default, float):
        return float(raw)
    return raw


def _read_config_file(path: str, defaults: dict) -> dict:
    """Parse `key = value` lines; '#' starts a comment; keys may use '-' or '_'."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ValueError(f"{path}:{line_no}: expected 'key = value'")
            key, raw = (part.strip() for part in text.split("=", 1))
            key = key.replace("-", "_")
            if key not in defaults:
                raise ValueError(f"{path}:{line_no}: unknown option {key!r}")
            values[key] = _coerce(key, raw, defaults[key])
    return values


def _resolve_options(args: argparse.Namespace) -> dict:
    given = {k: v for k, v in vars(args).items() if k not in ("command",)}
    defaults = DEFAULTS[args.command]
    resolved = dict(defaults)
    config_path = given.get("config", None)
    if config_path:
        resolved.update(_read_config_file(config_path, defaults))
    resolved.update(given)
    return resolved


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="master seed for every random choice (default 0)")
    parser.add_argument("--out-dir", dest="out_dir", default=argparse.SUPPRESS,
                        help="directory for output files (default .)")
    parser.add_argument("--config", default=argparse.SUPPRESS,
                        help="key = value file supplying option defaults")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vrboost",
        description="Boosted-LSTM binary classifier for tabular VR experience records")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write a synthetic schema-compatible CSV")
    _add_common(p)
    p.add_argument("--n", type=int, default=argparse.SUPPRESS, help="record count")
    p.add_argument("--signal", type=float, default=argparse.SUPPRESS,
                   help="planted signal strength (0 = labels independent of features)")
    p.add_argument("--out", default=argparse.SUPPRESS, help="output CSV name")

    p = sub.add_parser("train", help="train the boosted ensemble and emit artifacts")
    _add_common(p)
    p.add_argument("--data", default=argparse.SUPPRESS,
                   help="input CSV (omit to train on synthetic data)")
    p.add_argument("--synth-n", dest="synth_n", type=int, default=argparse.SUPPRESS,
                   help="synthetic record count when --data is omitted")
    p.add_argument("--signal", type=float, default=argparse.SUPPRESS,
                   help="synthetic signal strength when --data is omitted")
    p.add_argument("--target-column", dest="target_column", default=argparse.SUPPRESS,
                   choices=list(data_mod.TARGET_COLUMNS), help="label source column")
    p.add_argument("--target-threshold", dest="target_threshold", type=int,
                   default=argparse.SUPPRESS, help="label 1 when column >= threshold")
    p.add_argument("--ratio", type=float, default=argparse.SUPPRESS,
                   help="train fraction of the split")
    p.add_argument("--stratified", action="store_true", default=argparse.SUPPRESS,
                   help="split each class separately")
    p.add_argument("--rounds", type=int, default=argparse.SUPPRESS,
                   help="boosting rounds")
    p.add_argument("--epsilon-floor", dest="epsilon_floor", type=float,
                   default=argparse.SUPPRESS, help="clamp for degenerate round errors")
    p.add_argument("--epochs", type=int, default=argparse.SUPPRESS,
                   help="epochs per weak learner")
    p.add_argument("--lr", type=float, default=argparse.SUPPRESS,
                   help="initial learning rate")
    p.add_argument("--lr-drop-factor", dest="lr_drop_factor", type=float,
                   default=argparse.SUPPRESS)
    p.add_argument("--lr-drop-period", dest="lr_drop_period", type=int,
                   default=argparse.SUPPRESS)
    p.add_argument("--grad-clip", dest="grad_clip", type=float, default=argparse.SUPPRESS)
    p.add_argument("--hidden-dim", dest="hidden_dim", type=int, default=argparse.SUPPRESS)
    p.add_argument("--sequence-mode", dest="sequence_mode",
                   choices=["single", "unrolled"], default=argparse.SUPPRESS,
                   help="tabular-to-sequence adapter")

    p = sub.add_parser("evaluate", help="score a labeled CSV with a saved model")
    _add_common(p)
    p.add_argument("--model", default=argparse.SUPPRESS, help="model.json path")
    p.add_argument("--data", default=argparse.SUPPRESS, help="labeled CSV to score")
    p.add_argument("--out", default=argparse.SUPPRESS, help="report file name")

    p = sub.add_parser("predict", help="write margins and labels for new records")
    _add_common(p)
    p.add_argument("--model", default=argparse.SUPPRESS, help="model.json path")
    p.add_argument("--data", default=argparse.SUPPRESS,
                   help="input CSV (target column may be absent)")
    p.add_argument("--out", default=argparse.SUPPRESS, help="predictions file name")

    p = sub.add_parser("gradcheck", help="finite-difference audit of BPTT gradients")
    _add_common(p)
    p.add_argument("--break-gate", dest="break_gate", choices=list(GATES),
                   default=argparse.SUPPRESS,
                   help="verification hook: zero one gate's gradient (must FAIL)")

    return parser


def _out_path(opts: dict, key: str) -> str:
    name = opts[key]
    return name if os.path.isabs(name) else os.path.join(opts["out_dir"], name)


def _dispatch(opts: dict, command: str) -> int:
    if command == "gen-data":
        if opts["n"] < 1:
            raise ValueError("gen-data: --n must be >= 1")
        os.makedirs(opts["out_dir"], exist_ok=True)
        return cmd_gen_data(opts["n"], opts["seed"], opts["signal"], _out_path(opts, "out"))
    if command == "train":
        train_cfg = TrainConfig(max_epochs=opts["epochs"], initial_lr=opts["lr"],
                                lr_drop_factor=opts["lr_drop_factor"],
                                lr_drop_period=opts["lr_drop_period"],
                                grad_clip=opts["grad_clip"], seed=opts["seed"],
                                hidden_dim=opts["hidden_dim"])
        boost_cfg = BoostConfig(rounds=opts["rounds"], epsilon_floor=opts["epsilon_floor"],
                                train=train_cfg, seed=opts["seed"])
        run = RunConfig(
            target=data_mod.TargetSpec(target_column=opts["target_column"],
                                       threshold=opts["target_threshold"]),
            boost=boost_cfg, data_path=opts["data"], synth_n=opts["synth_n"],
            synth_signal=opts["signal"], ratio=opts["ratio"], seed=opts["seed"],
            stratified=opts["stratified"], sequence_mode=opts["sequence_mode"],
            out_dir=opts["out_dir"])
        return cmd_train(run)
    if command == "evaluate":
        if not opts["data"]:
            raise ValueError("evaluate: --data is required")
        os.makedirs(opts["out_dir"], exist_ok=True)
        return cmd_evaluate(opts["model"], opts["data"], _out_path(opts, "out"))
    if command == "predict":
        if not opts["data"]:
            raise ValueError("predict: --data is required")
        os.makedirs(opts["out_dir"], exist_ok=True)
        return cmd_predict(opts["model"], opts["data"], _out_path(opts, "out"))
    if command == "gradcheck":
        return cmd_gradcheck(opts["seed"], opts["break_gate"])
    raise ValueError(f"unknown command {command!r}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        opts = _resolve_options(args)
        return _dispatch(opts, args.command)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except TrainingError as exc:
        print(f"training error: {exc}", file=sys.stderr)
        return EXIT_TRAINING
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
