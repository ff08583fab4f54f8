"""The model file: save_model and load_model are exact inverses, the
committed fixtures score as they always did, and the benchmark's
independent reader parses what save_model writes."""

import importlib.util
import io
import json
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lstm_oracle import packed
from vrboost.boosting import BoostRound, Ensemble, LstmWeakLearner
from vrboost.cli import main
from vrboost.data import N_FEATURES, NUMERIC_FEATURE_INDICES, Standardizer, TargetSpec
from vrboost.lstm import PackedLstm, TrainConfig, param_keys
from vrboost.model import ModelBundle, load_model, save_model

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
MODES = ("single", "unrolled")

# every finite float64: -0.0, subnormals and +-1.8e308 included
FINITE = st.floats(allow_nan=False, allow_infinity=False)
STEP_DIMS = {"single": N_FEATURES, "unrolled": 1}


@st.composite
def bundles(draw):
    mode = draw(st.sampled_from(sorted(STEP_DIMS)))
    rounds = []
    for _ in range(draw(st.integers(1, 2))):
        hidden_dim = draw(st.integers(1, 4))
        one_step = mode == "single"  # the kernel form fit() trains in this mode
        template = PackedLstm(STEP_DIMS[mode], hidden_dim, one_step).arrays
        learner = LstmWeakLearner(TrainConfig(hidden_dim=hidden_dim), mode)
        learner.kernel = packed(STEP_DIMS[mode], hidden_dim, {
            key: draw(arrays(np.float64, like.shape, elements=FINITE))
            for key, like in template.items()}, one_step)
        # 2 alphas of at most 1e307 sum finitely, as save_model and load_model need
        alpha = draw(st.floats(min_value=-1e307, max_value=1e307))
        rounds.append(BoostRound(alpha=alpha, learner=learner))
    n = len(NUMERIC_FEATURE_INDICES)
    standardizer = Standardizer(
        means=draw(arrays(np.float64, n, elements=FINITE)),
        stds=draw(arrays(np.float64, n, elements=st.floats(min_value=0.0,
                                                           allow_infinity=False))))
    return ModelBundle(ensemble=Ensemble(rounds=rounds), target=TargetSpec(),
                       standardizer=standardizer, sequence_mode=mode)


@settings(max_examples=25)
@given(bundles())
def test_save_load_round_trip_is_bit_exact(tmp_path_factory, bundle):
    first = tmp_path_factory.getbasetemp() / "first.json"
    second = tmp_path_factory.getbasetemp() / "second.json"
    save_model(bundle, first)
    loaded = load_model(first)
    assert loaded.sequence_mode == bundle.sequence_mode
    for want, got in zip(bundle.ensemble.rounds, loaded.ensemble.rounds, strict=True):
        assert np.float64(got.alpha).tobytes() == np.float64(want.alpha).tobytes()
        assert got.learner.kernel.one_step == want.learner.kernel.one_step
        assert list(got.learner.kernel.arrays) == list(want.learner.kernel.arrays)
        for key, arr in want.learner.kernel.arrays.items():
            got_arr = got.learner.kernel.arrays[key]
            assert got_arr.shape == arr.shape, key
            assert got_arr.tobytes() == arr.tobytes(), key
    for field in ("means", "stds"):
        assert (getattr(loaded.standardizer, field).tobytes()
                == getattr(bundle.standardizer, field).tobytes())
    save_model(loaded, second)
    assert second.read_bytes() == first.read_bytes()


@pytest.mark.parametrize("mode", MODES)
def test_save_model_rejects_a_kernel_of_the_other_form(tmp_path, mode):
    # a file load_model would refuse is never written
    learner = LstmWeakLearner(TrainConfig(hidden_dim=2), mode)
    learner.kernel = PackedLstm(STEP_DIMS[mode], 2, one_step=mode != "single")
    bundle = ModelBundle(ensemble=Ensemble(rounds=[BoostRound(alpha=0.5, learner=learner)]),
                         target=TargetSpec(), standardizer=Standardizer(
                             means=np.zeros(3), stds=np.ones(3)), sequence_mode=mode)
    with pytest.raises(ValueError, match=f"save_model: a '{mode}' learner needs a"):
        save_model(bundle, tmp_path / "model.json")
    assert not (tmp_path / "model.json").exists()


def test_save_model_rejects_alphas_whose_absolute_sum_overflows(tmp_path):
    # the writer refuses what load_model would: 1e308 + |-1e308| is beyond float64
    rounds = []
    for alpha in (1e308, -1e308):
        learner = LstmWeakLearner(TrainConfig(hidden_dim=2), "single")
        learner.kernel = PackedLstm(STEP_DIMS["single"], 2, one_step=True)
        rounds.append(BoostRound(alpha=alpha, learner=learner))
    bundle = ModelBundle(ensemble=Ensemble(rounds=rounds), target=TargetSpec(),
                         standardizer=Standardizer(means=np.zeros(3), stds=np.ones(3)),
                         sequence_mode="single")
    with pytest.raises(ValueError, match="^save_model: the absolute sum of the 2 alphas "
                                         "overflows float64$"):
        save_model(bundle, tmp_path / "model.json")
    assert not (tmp_path / "model.json").exists()


# --- the committed format v2 fixtures ---------------------------------------------
# model_v2_<mode>.json: `gen-data --n 100 --seed 21 --signal 6.0`, then `train
# --sequence-mode <mode> --stratified --rounds 3 --epochs 8 --hidden-dim 3 --lr 0.1
# --seed 4`, as written by the format v1 writer and re-saved by save_model;
# preds_<mode>.csv: that model's `predict` on score.csv (`gen-data --n 30 --seed
# 22 --signal 6.0`), as the v1 code wrote it.

def _run(argv):
    return main([str(a) for a in argv])


@pytest.mark.parametrize("mode", MODES)
def test_fixture_model_predicts_its_committed_bytes(tmp_path, mode):
    assert _run(["predict", "--model", FIXTURES / f"model_v2_{mode}.json",
                 "--data", FIXTURES / "score.csv", "--out", "preds.csv",
                 "--out-dir", tmp_path]) == 0
    assert (tmp_path / "preds.csv").read_bytes() == \
        (FIXTURES / f"preds_{mode}.csv").read_bytes()


@pytest.mark.parametrize("mode", MODES)
def test_fixture_model_resaves_to_its_own_bytes(tmp_path, mode):
    path = FIXTURES / f"model_v2_{mode}.json"
    save_model(load_model(path), tmp_path / "model.json")
    assert (tmp_path / "model.json").read_bytes() == path.read_bytes()
    for entry in json.loads(path.read_text())["rounds"]:
        assert list(entry["learner"]["arrays"]) == list(param_keys(one_step=mode == "single"))


# --- the benchmark's independent reader -------------------------------------------

def _bench_reference():
    spec = importlib.util.spec_from_file_location("bench_reference",
                                                  ROOT / "bench" / "reference.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("mode", MODES)
def test_bench_reference_scores_a_saved_model_as_predict_does(tmp_path, mode):
    reference = _bench_reference()
    data_path = tmp_path / "data.csv"
    assert _run(["gen-data", "--n", 120, "--seed", 13, "--signal", 4.0,
                 "--out", data_path.name, "--out-dir", tmp_path]) == 0
    out = tmp_path / "run"
    assert _run(["train", "--data", data_path, "--sequence-mode", mode, "--rounds", 3,
                 "--epochs", 3, "--hidden-dim", 4, "--lr", 0.1, "--seed", 6,
                 "--out-dir", out]) == 0
    assert _run(["predict", "--model", out / "model.json", "--data", data_path,
                 "--out", "preds.csv", "--out-dir", tmp_path]) == 0
    model = reference.load_model(out / "model.json")
    ref, rows = reference.score_file(model, data_path)
    assert len(rows) == 120 and not ref.ambiguous.any()
    lines = [line.split(",") for line in (tmp_path / "preds.csv").read_text().splitlines()[1:]]
    margins = np.array([float(line[1]) for line in lines])
    labels = np.array([int(line[2]) for line in lines])
    assert np.array_equal(labels, ref.labels)
    assert np.all(np.abs(margins - ref.margins) <= model.margin_tolerance)


# --- mutated model files -----------------------------------------------------------

@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A directory for the fuzzer's mutated model and its predictions."""
    return tmp_path_factory.mktemp("fuzz")


def _nodes(node, path=()):
    """The path of every node below node, as a tuple of keys and indices."""
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield path + (key,)
        yield from _nodes(child, path + (key,))


def _mutated(doc, edits):
    """doc after each edit (where, delete, value): where is a node's path, or
    an index into the paths of the document as it stands; the node is
    deleted (a dict key, or a list item popped) or set to value."""
    for where, delete, value in edits:
        paths = list(_nodes(doc))
        *parents, last = where if isinstance(where, tuple) else paths[where % len(paths)]
        parent = doc
        for step in parents:
            parent = parent[step]
        if delete:
            parent.pop(last)
        else:
            parent[last] = value
    return doc


# floats as JSON numbers and as text among the leaves
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=3) | st.floats()
    | st.floats().map(repr) | st.sampled_from([1e308, -1e308, "1e308", "-1e308"]),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=3), children, max_size=3)),
    max_leaves=4)
EDITS = st.lists(st.tuples(st.integers(0, 10 ** 6), st.booleans(), JSON_VALUES),
                 min_size=1, max_size=3)


@settings(max_examples=1000)
@given(base=st.sampled_from([f"v2_{mode}" for mode in MODES]),
       edits=EDITS)
@example(base="v2_unrolled",
         edits=[(("rounds", 0, "learner", "arrays", "W_input", 0, 0), False, 1e308)])
# two finite alphas whose sum overflows, and a z-score that overflows
@example(base="v2_single", edits=[(("rounds", k, "alpha"), False, 1e308) for k in (0, 1)])
@example(base="v2_unrolled", edits=[(("standardizer", "means", 0), False, -1.7e308),
                                    (("standardizer", "stds", 0), False, 0.5)])
def test_a_mutated_model_file_predicts_or_fails_in_one_line(fuzz_dir, base, edits):
    # the committed fixtures with nodes set to JSON values, deleted or
    # popped: predict exits 0 or 3 with at most one stderr line, and numpy
    # warns of nothing (pytest would take a warning off stderr)
    path = FIXTURES / f"model_{base}.json"
    model, out = fuzz_dir / "mutated.json", fuzz_dir / "preds.csv"
    for written in (model, out):  # unlinked: rewriting a file in place can wait on the disk
        written.unlink(missing_ok=True)
    model.write_text(json.dumps(_mutated(json.loads(path.read_text()), edits)))
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stderr(err), \
            redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        code = _run(["predict", "--model", model, "--data", FIXTURES / "score.csv",
                     "--out", out.name, "--out-dir", fuzz_dir])
    lines = err.getvalue().splitlines()
    event(f"exit {code}")
    assert code in (0, 3), err.getvalue()
    assert out.exists() == (code == 0)
    assert len(lines) <= 1 and "Traceback" not in err.getvalue(), err.getvalue()
    assert not caught, [str(w.message) for w in caught]


def test_a_z_score_that_overflows_fails_predict_in_one_line(tmp_path):
    # each moment is finite, (age - mean) / std is not
    doc = json.loads((FIXTURES / "model_v2_single.json").read_text())
    doc["standardizer"]["means"][0], doc["standardizer"]["stds"][0] = -1.7e308, 0.5
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stderr(err), \
            redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        code = _run(["predict", "--model", model, "--data", FIXTURES / "score.csv",
                     "--out", "preds.csv", "--out-dir", tmp_path])
    assert code == 3
    assert err.getvalue() == ("error: data row 1: the z-score of feature 0, "
                              "(18.0 - -1.7e+308) / 0.5, overflows float64\n")
    assert not caught, [str(w.message) for w in caught]
    assert not (tmp_path / "preds.csv").exists()


def test_a_csv_value_whose_z_score_overflows_fails_predict_naming_its_row(tmp_path):
    # the model's moments are ordinary; the data rows' values make the overflow
    doc = json.loads((FIXTURES / "model_v2_single.json").read_text())
    doc["standardizer"]["stds"][:2] = [0.5, 0.25]
    mean_age = doc["standardizer"]["means"][0]
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    lines = (FIXTURES / "score.csv").read_text().splitlines()
    for number, column, value in ((4, 3, "1e308"), (3, 0, "17" + "0" * 307)):
        cells = lines[number].split(",")
        cells[column] = value
        lines[number] = ",".join(cells)
    data = tmp_path / "extreme.csv"
    data.write_text("\n".join(lines) + "\n")
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stderr(err), \
            redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        code = _run(["predict", "--model", model, "--data", data,
                     "--out", "preds.csv", "--out-dir", tmp_path])
    # data rows 3 (Age) and 4 (Duration) both overflow: the first is named
    assert code == 3
    assert err.getvalue() == (f"error: data row 3: the z-score of feature 0, "
                              f"(1.7e+308 - {mean_age!r}) / 0.5, overflows float64\n")
    assert not caught, [str(w.message) for w in caught]
    assert not (tmp_path / "preds.csv").exists()
