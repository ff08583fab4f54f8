"""The packed kernel against the per-gate reference, bit for bit.

Training is compared with the dict-based loop in lstm_oracle.py; single
steps are compared with forward_sequence() and backward().
"""

import numpy as np
import pytest

from lstm_oracle import clip_gradient, oracle_train
from vrboost.boosting import LstmWeakLearner
from vrboost.lstm import (GATES, PackedLstm, TrainConfig, backward, forward_sequence,
                          init_params, param_keys, to_sequence, train_weak_learner)
from vrboost.numerics import Rng


def _examples(n, features, mode, seed):
    rng = Rng(seed)
    out = []
    for _ in range(n):
        x = rng.uniform_array((features,), -2.0, 2.0)
        out.append((to_sequence(x, mode), int(x[0] + 0.5 * x[-1] > 0)))
    return out


def _weights(n, seed):
    rng = Rng(seed + 1000)
    return np.array([rng.uniform(0.1, 3.0) for _ in range(n)])


def _assert_same_bits(got: dict, want: dict):
    for key in param_keys():
        assert got[key].shape == want[key].shape, key
        assert got[key].tobytes() == want[key].tobytes(), key


# (features per example, sequence mode, hidden, seed, config overrides). H not
# a multiple of 4 with D >= 8 (single) or H > 8 (unrolled) is where one
# stacked gemv sums some rows in another order than the per-gate gemvs do.
TRAIN_CASES = [
    (9, "single", 16, 3, {}),
    (9, "single", 6, 1, {"max_epochs": 3}),
    (9, "unrolled", 16, 7, {}),
    (6, "unrolled", 10, 2, {"max_epochs": 3}),
    (7, "single", 6, 9, {"initial_lr": 0.5, "grad_clip": 0.05}),
    (5, "unrolled", 4, 4, {"initial_lr": 0.5, "grad_clip": 0.05}),
]


@pytest.mark.parametrize("features,mode,hidden,seed,overrides", TRAIN_CASES)
def test_training_matches_dict_oracle_bit_for_bit(features, mode, hidden, seed, overrides):
    n = 40
    examples = _examples(n, features, mode, seed)
    weights = _weights(n, seed)
    cfg = TrainConfig(**{"max_epochs": 2, "hidden_dim": hidden, "seed": seed, **overrides})
    params, curve = train_weak_learner(examples, weights, cfg)
    want_params, want_curve, clipped = oracle_train(examples, weights, cfg)
    _assert_same_bits(params.arrays, want_params.arrays)
    assert curve.losses == want_curve.losses
    assert curve.learning_rates == want_curve.learning_rates
    if "grad_clip" in overrides:
        assert clipped > 0  # the case really exercises the clip


def test_sequences_of_vectors_match_dict_oracle():
    # T > 1 with D > 1: neither CLI mode produces this shape, the kernel allows it
    rng = Rng(21)
    examples = [([rng.uniform_array((3,), -2.0, 2.0) for _ in range(4)], rng.randint(0, 1))
                for _ in range(30)]
    weights = _weights(30, 21)
    cfg = TrainConfig(max_epochs=2, hidden_dim=5, seed=21)
    params, curve = train_weak_learner(examples, weights, cfg)
    want_params, want_curve, _ = oracle_train(examples, weights, cfg)
    _assert_same_bits(params.arrays, want_params.arrays)
    assert curve.losses == want_curve.losses


def _gradcheck_like_cases(seed, count, min_steps, dims=(1, 5), hiddens=(1, 8)):
    """Instances drawn as in cli.gradcheck_suite, with at least min_steps steps."""
    rng = Rng(seed)
    for _ in range(count):
        dim, hid = rng.randint(*dims), rng.randint(*hiddens)
        steps = rng.randint(min_steps, 4)
        params = init_params(dim, hid, rng)
        seq = [rng.uniform_array((dim,), -2.0, 2.0) for _ in range(steps)]
        yield params, seq, rng.randint(0, 1), rng.uniform(0.5, 2.0)


@pytest.mark.parametrize("seed,min_steps,dims,hiddens", [
    (11, 1, (1, 5), (1, 8)), (12, 2, (1, 5), (1, 8)), (13, 2, (8, 12), (5, 11))])
def test_kernel_gradient_equals_backward(seed, min_steps, dims, hiddens):
    for params, seq, y, w in _gradcheck_like_cases(seed, 10, min_steps, dims, hiddens):
        want_prob, cache = forward_sequence(params, seq)
        want = backward(params, cache, y, w)
        kernel = PackedLstm.from_params(params)
        prob, h_last, trace = kernel.forward(seq)
        assert prob == want_prob
        kernel.backward(prob, y, w, h_last, trace)
        _assert_same_bits(kernel.grads, want)


@pytest.mark.parametrize("max_norm", [1e-3, 1e6])
def test_clip_and_update_equals_per_key_update(max_norm):
    rng = Rng(5)
    params = init_params(9, 16, rng)
    kernel = PackedLstm.from_params(params)
    kernel.grad[:] = rng.uniform_array(kernel.grad.shape, -0.2, 0.2)
    grads = {k: v.copy() for k, v in kernel.grads.items()}
    clipped = kernel.clip_and_update(0.01, max_norm)
    clip_gradient(grads, max_norm)
    for key in param_keys():
        params.arrays[key] -= 0.01 * grads[key]
    _assert_same_bits(kernel.params.arrays, params.arrays)
    assert clipped == (max_norm == 1e-3)  # the norm is about 4.7


def test_packed_params_are_views_in_param_keys_order():
    params = init_params(3, 4, Rng(2))
    kernel = PackedLstm.from_params(params)
    assert list(kernel.params.arrays) == list(param_keys())
    layout = ([f"W_{g}" for g in GATES] + [f"U_{g}" for g in GATES]
              + [f"b_{g}" for g in GATES] + ["w_head", "b_head"])
    flat = np.concatenate([params.arrays[k].reshape(-1) for k in layout])
    assert kernel.theta.tobytes() == flat.tobytes()
    kernel.params.arrays["U_output"][1, 2] = 7.0
    assert kernel.U[2 * 4 + 1, 2] == 7.0
    assert params.arrays["U_output"][1, 2] != 7.0  # packing copied


def test_from_params_rejects_wrong_shapes():
    params = init_params(3, 4, Rng(0))
    params.arrays["U_input"] = np.zeros((4, 3))
    with pytest.raises(ValueError, match="U_input"):
        PackedLstm.from_params(params)


def test_learner_predict_thresholds_reference_probability():
    rng = Rng(8)
    learner = LstmWeakLearner(TrainConfig(hidden_dim=5), "unrolled")
    learner.params = init_params(1, 5, rng)
    for _ in range(20):
        x = rng.uniform_array((9,), -3.0, 3.0)
        prob, _ = forward_sequence(learner.params, to_sequence(x, "unrolled"))
        assert learner.predict(x) == (1 if prob >= 0.5 else -1)
