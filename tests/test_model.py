"""Property tests of the model file: save_model and load_model are exact inverses."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from vrboost.boosting import BoostRound, Ensemble, LstmWeakLearner
from vrboost.data import N_FEATURES, NUMERIC_FEATURE_INDICES, Standardizer, TargetSpec
from vrboost.lstm import LstmParams, TrainConfig, init_params
from vrboost.model import ModelBundle, load_model, save_model
from vrboost.numerics import Rng

# every finite float64: -0.0, subnormals and +-1.8e308 included
FINITE = st.floats(allow_nan=False, allow_infinity=False)
STEP_DIMS = {"single": N_FEATURES, "unrolled": 1}


@st.composite
def bundles(draw):
    mode = draw(st.sampled_from(sorted(STEP_DIMS)))
    rounds = []
    for _ in range(draw(st.integers(1, 2))):
        hidden_dim = draw(st.integers(1, 4))
        template = init_params(STEP_DIMS[mode], hidden_dim, Rng(0)).arrays
        learner = LstmWeakLearner(TrainConfig(hidden_dim=hidden_dim), mode)
        learner.params = LstmParams(STEP_DIMS[mode], hidden_dim, {
            key: draw(arrays(np.float64, like.shape, elements=FINITE))
            for key, like in template.items()})
        rounds.append(BoostRound(alpha=draw(FINITE), learner=learner))
    n = len(NUMERIC_FEATURE_INDICES)
    standardizer = Standardizer(
        indices=NUMERIC_FEATURE_INDICES,
        means=draw(arrays(np.float64, n, elements=FINITE)),
        stds=draw(arrays(np.float64, n, elements=st.floats(min_value=5e-324,
                                                           allow_infinity=False))),
        constant=(False,) * n)
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
        for key, arr in want.learner.params.arrays.items():
            got_arr = got.learner.params.arrays[key]
            assert got_arr.shape == arr.shape and got_arr.tobytes() == arr.tobytes(), key
    for field in ("means", "stds"):
        assert (getattr(loaded.standardizer, field).tobytes()
                == getattr(bundle.standardizer, field).tobytes())
    save_model(loaded, second)
    assert second.read_bytes() == first.read_bytes()
