"""Command-line pipeline: gen-data, train, evaluate, predict, gradcheck.

Every option of every command is one row of the option table below, which
builds the flags, reads config files and prints each default under `--help`.
Defaults mirror the reference protocol (70/30 split, 50 epochs, initial
learning rate 0.01 dropping by 0.1 every 10 epochs), so a bare `train` run
needs no flags; those owned by TrainConfig, BoostConfig and TargetSpec are
read from them. Options may also come from a `key = value` config file;
explicit flags win over the file, the file wins over defaults.

Exit codes: 0 success, 1 failed gradient check, 2 usage (a UsageError), 3
data/schema, 4 training, 5 I/O, 70 internal error (a bug, such as any other
ValueError: the traceback goes to stderr).
"""

import argparse
import functools
import json
import os
import sys
import traceback

import numpy as np

from . import data as data_mod
from .boosting import BoostConfig, boost_train, ensemble_predict, lstm_factory
from .errors import DataError, TrainingError, UsageError
from .lstm import GATES, SEQUENCE_MODES, TrainConfig, grad_check, init_params
from .metrics import confusion, correct_incorrect, scores
from .model import ModelBundle, load_model, save_model
from .numerics import Rng

GRADCHECK_TOLERANCE = 1e-4
GRADCHECK_DEFAULT_SEED = 11

EXIT_OK, EXIT_CHECK_FAILED, EXIT_USAGE, EXIT_DATA, EXIT_TRAINING, EXIT_IO = 0, 1, 2, 3, 4, 5
EXIT_INTERNAL = 70  # EX_SOFTWARE of sysexits.h


# --- commands ---------------------------------------------------------------

def _evaluate_split(bundle: ModelBundle, X, truths) -> dict:
    preds, _ = ensemble_predict(bundle.ensemble, X)
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


def _score_line(name: str, block: dict) -> str:
    return (f"{name}: accuracy {block['accuracy']:.4f}  precision {block['precision']:.4f}  "
            f"recall {block['recall']:.4f}  f1 {block['f1']:.4f}")


def _out_path(opts: dict, name: str) -> str:
    """The path of output file name: under --out-dir unless absolute. Creates
    nothing: each command makes --out-dir just before it writes, so that a
    call that fails first leaves no directory behind."""
    return name if os.path.isabs(name) else os.path.join(opts["out_dir"], name)


def cmd_gen_data(opts: dict) -> int:
    """Write a synthetic dataset and print the link's oracle accuracy."""
    n, signal = opts["n"], opts["signal"]
    if n < 1:
        raise UsageError("gen-data: --n must be >= 1")
    out_path = _out_path(opts, opts["out"])
    table = data_mod.gen_synthetic(n, opts["seed"], signal)
    os.makedirs(opts["out_dir"], exist_ok=True)
    data_mod.write_csv(table, out_path)
    rate = data_mod.synthetic_bayes_rate(table, signal)
    print(f"wrote {n} records to {out_path}")
    print(f"oracle accuracy of the generative link: {rate:.4f}")
    return EXIT_OK


def cmd_train(opts: dict) -> int:
    """Train the boosted ensemble end to end and emit all run artifacts.

    opts holds every `train` option, resolved as by main().
    """
    seed, sequence_mode = opts["seed"], opts["sequence_mode"]
    target = data_mod.TargetSpec(target_column=opts["target_column"],
                                 threshold=opts["target_threshold"])
    train_cfg = TrainConfig(max_epochs=opts["epochs"], initial_lr=opts["lr"],
                            lr_drop_factor=opts["lr_drop_factor"],
                            lr_drop_period=opts["lr_drop_period"],
                            grad_clip=opts["grad_clip"], hidden_dim=opts["hidden_dim"])
    boost_cfg = BoostConfig(rounds=opts["rounds"], seed=seed)
    if opts["data"] is not None:
        table = data_mod.load_csv(opts["data"])
    else:
        table = data_mod.gen_synthetic(opts["synth_n"], seed, opts["signal"])
    X = data_mod.encode(table, target)
    labels = data_mod.encode_labels(table, target)
    if len(set(labels.tolist())) < 2:
        raise DataError(
            f"dataset has a single label class under rule "
            f"{target.target_column} >= {target.threshold}")

    train_idx, test_idx = data_mod.split_indices(
        len(X), opts["ratio"], seed, labels, opts["stratified"])
    standardizer = data_mod.fit_standardizer(X[train_idx])
    X_train = data_mod.apply_standardizer(standardizer, X[train_idx])
    X_test = data_mod.apply_standardizer(standardizer, X[test_idx])

    ensemble, log = boost_train(X_train, labels[train_idx], boost_cfg,
                                lstm_factory(train_cfg, sequence_mode))

    bundle = ModelBundle(ensemble=ensemble, target=target,
                         standardizer=standardizer, sequence_mode=sequence_mode)
    report = {
        "train": _evaluate_split(bundle, X_train, labels[train_idx]),
        "test": _evaluate_split(bundle, X_test, labels[test_idx]),
    }

    join = lambda name: _out_path(opts, name)
    os.makedirs(opts["out_dir"], exist_ok=True)
    save_model(bundle, join("model.json"))
    data_mod.write_lines(join("report.json"), [json.dumps(report, indent=2)])
    data_mod.write_lines(join("boost_log.csv"), ["round,epsilon,alpha"] + [
        f"{entry.round},{entry.epsilon!r},{entry.alpha!r}" for entry in log])
    data_mod.write_lines(join("loss_curve.csv"), ["round,epoch,loss"] + [
        f"{rnd},{epoch},{loss!r}"
        for rnd, r in enumerate(ensemble.rounds, start=1)
        for epoch, loss in enumerate(r.learner.loss_curve.losses, start=1)])
    data_mod.write_csv(table.take(train_idx), join("train_split.csv"))
    data_mod.write_csv(table.take(test_idx), join("test_split.csv"))

    for split in ("train", "test"):
        block = report[split]
        note = "  (near chance)" if block["near_chance"] else ""
        print(_score_line(split, block) + note)
    print(f"artifacts written to {opts['out_dir']}")
    return EXIT_OK


def _standardized(bundle: ModelBundle, table) -> np.ndarray:
    """The model's standardized feature matrix of table."""
    return data_mod.apply_standardizer(bundle.standardizer,
                                       data_mod.encode(table, bundle.target))


def cmd_evaluate(opts: dict) -> int:
    """Score a labeled CSV with a saved model; write a single-block report."""
    if not opts["data"]:
        raise UsageError("evaluate: --data is required")
    out_path = _out_path(opts, opts["out"])
    bundle = load_model(opts["model"])
    table = data_mod.load_csv(opts["data"])
    block = _evaluate_split(bundle, _standardized(bundle, table),
                            data_mod.encode_labels(table, bundle.target))
    os.makedirs(opts["out_dir"], exist_ok=True)
    data_mod.write_lines(out_path, [json.dumps({"eval": block}, indent=2)])
    print(_score_line("eval", block))
    print(f"report written to {out_path}")
    return EXIT_OK


def cmd_predict(opts: dict) -> int:
    """Write (row_index, margin, label) for every row; target column optional."""
    if not opts["data"]:
        raise UsageError("predict: --data is required")
    out_path = _out_path(opts, opts["out"])
    bundle = load_model(opts["model"])
    table = data_mod.load_csv(opts["data"], optional_column=bundle.target.target_column)
    labels, margins = ensemble_predict(bundle.ensemble, _standardized(bundle, table))
    os.makedirs(opts["out_dir"], exist_ok=True)
    data_mod.write_lines(out_path, ["row_index,margin,label"] + [
        f"{idx},{margin!r},{label}"
        for idx, (margin, label) in enumerate(zip(margins.tolist(), labels.tolist()))])
    print(f"wrote {len(table)} predictions to {out_path}")
    return EXIT_OK


def gradcheck_suite(seed: int = GRADCHECK_DEFAULT_SEED,
                    break_gate: str | None = None) -> list:
    """(D, H, T, max relative error) of each of 10 seeded random instances.

    grad_check's five-point differences at eps=1e-3 carry about 1e-13 of
    rounding noise and an O(eps^4) truncation error, so a correct gradient
    scores far below GRADCHECK_TOLERANCE at any seed, and a zeroed gate
    scores about 1.0.
    """
    rng = Rng(seed)
    cases = []
    for _ in range(10):
        input_dim = rng.randint(1, 5)
        hidden_dim = rng.randint(1, 8)
        steps = rng.randint(1, 4)
        kernel = init_params(input_dim, hidden_dim, rng)
        x = rng.uniform_array((steps * input_dim,), -2.0, 2.0)
        y = rng.randint(0, 1)
        w = rng.uniform(0.5, 2.0)
        cases.append((input_dim, hidden_dim, steps,
                      grad_check(kernel, x, y, w, break_gate=break_gate)))
    return cases


def cmd_gradcheck(opts: dict) -> int:
    """Finite-difference audit of the BPTT gradients; nonzero exit on failure."""
    cases = gradcheck_suite(opts["seed"], opts["break_gate"])
    for case, (input_dim, hidden_dim, steps, err) in enumerate(cases):
        print(f"case {case}: D={input_dim} H={hidden_dim} T={steps} max_rel_err={err:.3e}")
    worst = max(err for *_, err in cases)
    passed = worst < GRADCHECK_TOLERANCE
    print(f"gradcheck {'PASS' if passed else 'FAIL'}: max relative error {worst:.3e} "
          f"(tolerance {GRADCHECK_TOLERANCE:g})")
    return EXIT_OK if passed else EXIT_CHECK_FAILED


# --- option table -------------------------------------------------------------

# One row per option: (name, default, help[, choices]). The default's type is
# the option's type for flags and config files alike; a bool is a switch and
# a None default takes a string. A command's row replaces a common row of the
# same name.
COMMON_OPTIONS = (
    ("seed", 0, "master seed for every random choice"),
    ("out_dir", ".", "directory for output files"),
    ("config", None, "key = value file supplying option defaults"),
)

COMMANDS = {
    "gen-data": ("write a synthetic schema-compatible CSV", (
        ("n", data_mod.SYNTHETIC_N, "record count"),
        ("signal", data_mod.SYNTHETIC_SIGNAL,
         "planted signal strength (0 = labels independent of features)"),
        ("out", "synthetic.csv", "output CSV name"),
    )),
    "train": ("train the boosted ensemble and emit artifacts", (
        ("data", None, "input CSV (omit to train on synthetic data)"),
        ("synth_n", data_mod.SYNTHETIC_N, "synthetic record count when --data is omitted"),
        ("signal", data_mod.SYNTHETIC_SIGNAL, "synthetic signal strength when --data is omitted"),
        ("target_column", data_mod.TargetSpec.target_column, "label source column",
         data_mod.TARGET_COLUMNS),
        ("target_threshold", data_mod.TargetSpec.threshold, "label 1 when column >= threshold"),
        ("ratio", 0.7, "train fraction of the split"),
        ("stratified", False, "split each class separately"),
        ("rounds", BoostConfig.rounds, "boosting rounds"),
        ("epochs", TrainConfig.max_epochs, "epochs per weak learner"),
        ("lr", TrainConfig.initial_lr, "initial learning rate"),
        ("lr_drop_factor", TrainConfig.lr_drop_factor, "learning-rate factor at each drop"),
        ("lr_drop_period", TrainConfig.lr_drop_period, "epochs between learning-rate drops"),
        ("grad_clip", TrainConfig.grad_clip, "L2 norm each update's gradient is clipped to"),
        ("hidden_dim", TrainConfig.hidden_dim, "LSTM hidden size"),
        ("sequence_mode", "single", "tabular-to-sequence adapter", SEQUENCE_MODES),
    )),
    "evaluate": ("score a labeled CSV with a saved model", (
        ("model", "model.json", "model.json path"),
        ("data", None, "labeled CSV to score"),
        ("out", "report.json", "report file name"),
    )),
    "predict": ("write margins and labels for new records", (
        ("model", "model.json", "model.json path"),
        ("data", None, "input CSV (target column may be absent)"),
        ("out", "predictions.csv", "predictions file name"),
    )),
    "gradcheck": ("finite-difference audit of BPTT gradients", (
        ("seed", GRADCHECK_DEFAULT_SEED, "seed of the random instances"),
        ("break_gate", None, "verification hook: zero one gate's gradient (must FAIL)",
         GATES),
    )),
}

_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}


def option_rows(command: str) -> dict:
    """The rows of command's options, by name."""
    return {row[0]: row for row in COMMON_OPTIONS + COMMANDS[command][1]}


def _coerce(row: tuple, raw: str):
    """raw converted to the row's type and checked against its choices."""
    _, default, _, *choices = row
    if isinstance(default, bool):
        low = raw.lower()
        if low not in _BOOL_TRUE | _BOOL_FALSE:
            raise ValueError(f"expected a boolean, got {raw!r}")
        return low in _BOOL_TRUE
    value = raw if default is None else type(default)(raw)
    if choices and value not in choices[0]:
        raise ValueError(f"{value!r} is not one of {', '.join(choices[0])}")
    return value


def _read_config_file(path: str, rows: dict) -> dict:
    """Parse `key = value` lines; '#' starts a comment; keys may use '-' or '_'."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise UsageError(f"{path}: not UTF-8 text ({exc.reason})") from None
    values = {}
    for line_no, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise UsageError(f"{path}:{line_no}: expected 'key = value'")
        key, raw = (part.strip() for part in text.split("=", 1))
        key = key.replace("-", "_")
        if key not in rows:
            raise UsageError(f"{path}:{line_no}: unknown option {key!r}")
        try:
            values[key] = _coerce(rows[key], raw)
        except ValueError as exc:
            raise UsageError(f"{path}:{line_no}: {key}: {exc}") from None
    return values


def resolve_options(args: argparse.Namespace) -> dict:
    """Every option of args.command: flags win over the config file, the file
    over the defaults."""
    rows = option_rows(args.command)
    given = {k: v for k, v in vars(args).items() if k != "command"}
    resolved = {name: row[1] for name, row in rows.items()}
    if given.get("config"):
        resolved.update(_read_config_file(given["config"], rows))
    resolved.update(given)
    return resolved


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, each with its option rows. Built once per
    process: parse_args leaves it unchanged, every default being suppressed."""
    parser = argparse.ArgumentParser(
        prog="vrboost",
        description="Boosted-LSTM binary classifier for tabular VR experience records")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, _) in COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for name, default, text, *choices in option_rows(command).values():
            # suppressed, so that an absent flag leaves the config file's value
            kwargs = {"default": argparse.SUPPRESS,
                      "help": text if default is None else f"{text} (default {default})"}
            if isinstance(default, bool):
                kwargs["action"] = "store_true"
            elif default is not None:
                kwargs["type"] = type(default)
            if choices:
                kwargs["choices"] = choices[0]
            p.add_argument("--" + name.replace("_", "-"), **kwargs)
    return parser


# --- entry point ----------------------------------------------------------------

def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        opts = resolve_options(args)
        # looked up when the command runs, so a wrapper set on the module is called
        return globals()["cmd_" + args.command.replace("-", "_")](opts)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except TrainingError as exc:
        print(f"training error: {exc}", file=sys.stderr)
        return EXIT_TRAINING
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
