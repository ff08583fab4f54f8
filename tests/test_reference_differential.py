"""`train`, `predict` and `evaluate` agree with the benchmark's own scorer.

bench/reference.py recomputes every margin and label from model.json and the
CSV schema alone, without importing vrboost, and bench/checks.py holds an
output to it. These tests run the pipeline in process on drawn settings and
hold each output to those checks; the bench modules are imported, not
changed.
"""

import contextlib
import importlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vrboost.cli import EXIT_OK, EXIT_TRAINING, main
from vrboost.lstm import SEQUENCE_MODES

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def bench():
    """The (reference, checks) modules of bench/."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))  # checks imports reference by name
        return importlib.import_module("reference"), importlib.import_module("checks")


def _call(argv) -> tuple:
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=8)
@given(seed=st.integers(0, 2**16), mode=st.sampled_from(SEQUENCE_MODES),
       hidden_dim=st.integers(1, 8), rounds=st.integers(1, 3), stratified=st.booleans(),
       n=st.integers(60, 120))
def test_pipeline_outputs_pass_the_reference_checks(bench, seed, mode, hidden_dim, rounds,
                                                    stratified, n):
    reference, checks = bench
    with tempfile.TemporaryDirectory() as tmp:
        root, run = Path(tmp), Path(tmp) / "run"
        data = root / "data.csv"
        assert _call(["gen-data", "--n", n, "--seed", seed, "--out", data.name,
                      "--out-dir", root])[0] == EXIT_OK
        code, out, err = _call(["train", "--data", data, "--seed", seed,
                                "--sequence-mode", mode, "--hidden-dim", hidden_dim,
                                "--rounds", rounds, "--epochs", 1, "--out-dir", run,
                                *(["--stratified"] if stratified else [])])
        if code == EXIT_TRAINING:  # an unrolled learner may not beat chance in 1 epoch
            assert (out, err) == ("", "training error: no weak learner beat chance\n")
            return
        assert code == EXIT_OK, err
        model_path, test_split = run / "model.json", run / "test_split.csv"
        for command, scored, name in (("predict", data, "preds.csv"),
                                      ("evaluate", test_split, "eval.json")):
            assert _call([command, "--model", model_path, "--data", scored, "--out", name,
                          "--out-dir", root])[0] == EXIT_OK
        model = reference.load_model(model_path)
        ref, _ = reference.score_file(model, data)
        checks.check_predictions((root / "preds.csv").read_text(encoding="utf-8"), ref,
                                 model.margin_tolerance)
        ref, rows = reference.score_file(model, test_split)
        block = json.loads((root / "eval.json").read_text(encoding="utf-8"))["eval"]
        checks.check_block_against_reference(block, ref, reference.truths(rows, model))
