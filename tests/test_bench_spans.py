"""The benchmark's span tracer still finds what it traces.

bench/spans.py wraps package functions by name, and a target the package no
longer defines only reads 0 in the per-layer metrics. These tests make a
rename fail here instead.
"""

import importlib.util
from pathlib import Path

from boost_oracle import stump_factory
from vrboost.boosting import BoostConfig, boost_train
from vrboost.numerics import Rng

ROOT = Path(__file__).resolve().parent.parent


def _bench_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_only_the_known_targets_are_missing():
    # Tracer() resolves its targets without installing a wrapper
    assert _bench_spans().Tracer().missing == [
        "lstm.forward_sequence", "lstm.backward", "lstm._clip_gradient",
        "numerics.affine", "numerics.tanh_act", "numerics.Rng.normal",
        "data.encode_features"]


def test_accepted_rounds_hook_counts_the_rounds_boost_train_accepts():
    rng = Rng(3)
    X = rng.uniform_array((40, 3), -1.0, 1.0)
    labels = ((X[:, 0] + 0.5 * X[:, 1] + rng.uniform_array((40,), -0.5, 0.5)) > 0).astype(int)
    result = boost_train(X, labels, BoostConfig(rounds=4, seed=0), stump_factory)
    ensemble, log = result
    assert len(ensemble.rounds) == len(log) > 1
    assert _bench_spans()._accepted_rounds((), {}, result, None) == len(log)
