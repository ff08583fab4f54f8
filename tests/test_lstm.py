import math

import numpy as np
import pytest

from lstm_oracle import LstmState, copied, forward_sequence, forward_step, oracle_train
from vrboost.errors import TrainingError, UsageError
from vrboost.lstm import (GATES, PackedLstm, TrainConfig, grad_check,
                          init_params, learning_rate, param_keys,
                          step_dim, train_weak_learner, weighted_loss)
from vrboost.numerics import Rng


def _zeroed(input_dim, hidden_dim):
    """The oracle's dict of all-zero arrays."""
    return copied(PackedLstm(input_dim, hidden_dim).arrays)


def _reference_forward(kernel, seq):
    """Step-by-step scalar re-implementation of the recurrence and head."""
    arrays = {k: np.asarray(v).tolist() for k, v in kernel.arrays.items()}
    hid, dim = kernel.hidden_dim, kernel.input_dim

    def sig(z):
        if z >= 0:
            return 1.0 / (1.0 + math.exp(-z))
        e = math.exp(z)
        return e / (1.0 + e)

    h = [0.0] * hid
    c = [0.0] * hid
    for x in seq:
        x = [float(v) for v in x]
        new_h, new_c = [], []
        for r in range(hid):
            pre = {}
            for gate in GATES:
                terms = [arrays[f"W_{gate}"][r][k] * x[k] for k in range(dim)]
                terms += [arrays[f"U_{gate}"][r][k] * h[k] for k in range(hid)]
                terms.append(arrays[f"b_{gate}"][r])
                pre[gate] = math.fsum(terms)
            f, i, o = sig(pre["forget"]), sig(pre["input"]), sig(pre["output"])
            g = math.tanh(pre["candidate"])
            cc = f * c[r] + i * g
            new_c.append(cc)
            new_h.append(o * math.tanh(cc))
        h, c = new_h, new_c
    logit = math.fsum([arrays["w_head"][k] * h[k] for k in range(hid)]
                      + [arrays["b_head"][0]])
    return sig(logit)


# --- initialization -------------------------------------------------------

def test_init_shapes_and_range():
    params = init_params(3, 4, Rng(123))
    assert params.arrays["W_forget"].shape == (4, 3)
    assert params.arrays["U_candidate"].shape == (4, 4)
    assert params.arrays["w_head"].shape == (4,)
    for gate in GATES:
        assert np.all(np.abs(params.arrays[f"W_{gate}"]) <= 0.5)
        assert np.all(np.abs(params.arrays[f"U_{gate}"]) <= 0.5)
    assert np.all(params.arrays["b_forget"] == 1.0)
    for gate in ("input", "output", "candidate"):
        assert np.all(params.arrays[f"b_{gate}"] == 0.0)
    assert params.arrays["b_head"][0] == 0.0


def test_init_deterministic():
    a = init_params(3, 4, Rng(9))
    b = init_params(3, 4, Rng(9))
    for key in param_keys():
        assert a.arrays[key].tobytes() == b.arrays[key].tobytes()


def test_init_minimal_forget_bias():
    params = init_params(1, 1, Rng(77))
    assert np.array_equal(params.arrays["b_forget"], np.array([1.0]))


def test_init_rejects_bad_dims():
    with pytest.raises(ValueError):
        init_params(0, 4, Rng(0))


# --- forward pass ---------------------------------------------------------

def test_step_all_zero_params():
    params = _zeroed(3, 2)
    state, rec = forward_step(params, np.array([5.0, -2.0, 1.0]),
                              LstmState(np.zeros(2), np.zeros(2)))
    for gate in ("forget", "input", "output"):
        assert np.all(rec.gate[gate] == 0.5)
    assert np.all(rec.gate["candidate"] == 0.0)
    assert np.all(state.c == 0.0)
    assert np.all(state.h == 0.0)


def test_step_hand_value_with_unit_cell():
    params = _zeroed(1, 1)
    state, _ = forward_step(params, np.zeros(1), LstmState(np.zeros(1), np.ones(1)))
    assert state.c[0] == pytest.approx(0.5, abs=1e-15)
    assert state.h[0] == pytest.approx(0.23105857863000487, abs=1e-12)


def test_step_saturated_forget_gate_retains_cell():
    params = _zeroed(1, 1)
    params["b_forget"] = np.array([50.0])
    state, _ = forward_step(params, np.zeros(1), LstmState(np.zeros(1), np.ones(1)))
    assert state.c[0] == pytest.approx(1.0, abs=1e-10)


def test_gate_boundedness():
    rng = Rng(4)
    params = copied(init_params(3, 5, rng).arrays)
    state = LstmState(np.zeros(5), np.zeros(5))
    for _ in range(6):
        state, rec = forward_step(params, rng.uniform_array((3,), -3, 3), state)
        for gate in ("forget", "input", "output"):
            assert np.all((rec.gate[gate] > 0) & (rec.gate[gate] < 1))
        assert np.all(np.abs(rec.gate["candidate"]) < 1)
        assert np.all(np.abs(rec.tanh_c) < 1)
        assert np.all(np.abs(state.h) < 1)


def test_forced_gates_keep_cell_state():
    # saturate forget open and input shut: the cell must pass through
    rng = Rng(21)
    params = copied(init_params(2, 3, rng).arrays)
    params["b_forget"] = np.full(3, 50.0)
    params["b_input"] = np.full(3, -50.0)
    c = rng.uniform_array((3,), -1, 1)
    state, _ = forward_step(params, rng.uniform_array((2,), -1, 1),
                            LstmState(rng.uniform_array((3,), -0.5, 0.5), c))
    assert np.all(np.abs(state.c - c) < 1e-8)


def test_sequence_zero_params_gives_half():
    x = np.concatenate([np.ones(4), -np.ones(4), np.array([1.0, 2.0, 3.0, 4.0])])
    kernel = PackedLstm(4, 3)
    prob = kernel.forward(x)
    trace = kernel.trace
    assert prob == 0.5 == trace.prob
    assert trace.x is x and trace.h_last.tobytes() == trace.h[3].tobytes()
    assert trace.steps == 3
    assert trace.gates.shape == (3, 4 * 3) and trace.h.shape == (3 + 1, 3)


def test_sequence_single_step_composition():
    rng = Rng(15)
    params = copied(init_params(3, 4, rng).arrays)
    x = rng.uniform_array((3,), -1, 1)
    prob, cache = forward_sequence(params, [x])
    state, rec = forward_step(params, x, LstmState(np.zeros(4), np.zeros(4)))
    assert np.array_equal(cache.steps[0].h, state.h)
    logit = float(params["w_head"] @ state.h) + float(params["b_head"][0])
    assert prob == pytest.approx(1.0 / (1.0 + math.exp(-logit)), abs=1e-15)


def test_sequence_matches_independent_reimplementation():
    rng = Rng(31)
    for _ in range(5):
        kernel = init_params(3, 4, rng)
        x = rng.uniform_array((4 * 3,), -2, 2)
        prob = kernel.forward(x)
        assert prob == pytest.approx(_reference_forward(kernel, x.reshape(4, 3)), abs=1e-12)


def test_sequence_rejects_empty():
    with pytest.raises(ValueError):
        forward_sequence(_zeroed(2, 2), [])


@pytest.mark.parametrize("width, call", [
    (5, lambda kernel, x: kernel.forward(x)),
    (0, lambda kernel, x: kernel.forward(x)),
    (7, lambda kernel, x: grad_check(kernel, x, 1, 1.0)),
], ids=["forward_trailing_feature", "forward_empty_row", "grad_check_trailing_features"])
def test_a_row_that_is_not_whole_steps_is_rejected(width, call):
    kernel = init_params(4, 3, Rng(2))
    prob = kernel.forward(np.ones(4))
    with pytest.raises(ValueError, match=f"need a row of T\\*4 features, got {width}"):
        call(kernel, np.ones(width))
    with pytest.raises(ValueError):  # not only when the width is first seen
        call(kernel, np.ones(width))
    assert kernel.forward(np.ones(4)) == prob


# --- loss and gradients ---------------------------------------------------

def test_weighted_loss_values():
    assert weighted_loss(0.5, 1, 1.0) == pytest.approx(math.log(2.0), abs=1e-15)
    assert weighted_loss(0.123, 0, 0.0) == 0.0
    assert weighted_loss(0.9, 1, 2.0) == pytest.approx(0.21072103131565256, abs=1e-12)


def test_weighted_loss_clamps():
    assert math.isfinite(weighted_loss(0.0, 1, 1.0))
    assert math.isfinite(weighted_loss(1.0, 0, 3.0))


def test_backward_zero_weight_gives_zero_gradient():
    rng = Rng(8)
    kernel = init_params(2, 3, rng)
    x = rng.uniform_array((3 * 2,), -1, 1)
    kernel.forward(x)
    kernel.backward(1, 0.0)
    for key in param_keys():
        assert np.all(kernel.grads[key] == 0.0)


def test_backward_head_bias_closed_form():
    rng = Rng(18)
    for y in (0, 1):
        kernel = init_params(3, 4, rng)
        x = rng.uniform_array((2 * 3,), -1, 1)
        prob = kernel.forward(x)
        w = 1.7
        kernel.backward(y, w)
        assert kernel.grads["b_head"][0] == pytest.approx(w * (prob - y), abs=1e-15)


def test_gradients_match_finite_differences():
    # the shapes the benchmark trains, which the gradcheck suite (four-gate
    # cells, D <= 5, H <= 8, T <= 4) never draws: one-step rows of nine
    # features, and nine steps of one feature, at H=16
    rng = Rng(11)
    worst = 0.0
    for dim, steps in ((9, 1), (1, 9)):
        for _ in range(2):
            kernel = init_params(dim, 16, rng, one_step=steps == 1)
            x = rng.uniform_array((steps * dim,), -2.0, 2.0)
            y, w = rng.randint(0, 1), rng.uniform(0.5, 2.0)
            worst = max(worst, grad_check(kernel, x, y, w))
    assert worst < 1e-4


@pytest.mark.parametrize("gate", GATES)
def test_grad_check_detects_broken_gate(gate):
    rng = Rng(55)
    kernel = init_params(3, 5, rng)
    x = rng.uniform_array((3 * 3,), -2, 2)
    assert grad_check(kernel, x, 1, 1.0, break_gate=gate) > 1e-2


def test_grad_check_zero_weight_returns_zero():
    rng = Rng(13)
    kernel = init_params(2, 3, rng)
    x = rng.uniform_array((2,), -1, 1)
    assert grad_check(kernel, x, 1, 0.0) == 0.0


# --- schedule and training ------------------------------------------------

def test_learning_rate_schedule_exact():
    cfg = TrainConfig()
    for epoch in range(1, 51):
        assert learning_rate(cfg, epoch) == 0.01 * 0.1 ** ((epoch - 1) // 10)
    assert learning_rate(cfg, 1) == 0.01
    assert learning_rate(cfg, 10) == 0.01
    assert learning_rate(cfg, 11) == 0.001
    assert learning_rate(cfg, 50) == 0.01 * 0.1 ** 4


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(max_epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(initial_lr=0.0)
    with pytest.raises(UsageError, match="initial_lr must be finite"):
        TrainConfig(initial_lr=math.inf)
    with pytest.raises(ValueError):
        TrainConfig(lr_drop_factor=1.5)
    with pytest.raises(ValueError):
        TrainConfig(lr_drop_period=0)


def _toy_examples(n, seed):
    """(X, labels) of n two-feature rows, read as one step each (D = 2).
    Planted rule: label follows the sign of the first feature."""
    X = Rng(seed).uniform_array((n, 2), -1, 1)
    return X, (X[:, 0] > 0).astype(int)


def test_training_reduces_loss():
    X, labels = _toy_examples(120, 3)
    weights = np.full(len(X), 1.0 / len(X))
    cfg = TrainConfig(max_epochs=12, hidden_dim=6, seed=5)
    _, curve = train_weak_learner(X, labels, weights, cfg, 2)
    assert len(curve.losses) == 12
    assert curve.losses[-1] < curve.losses[0]
    assert all(l >= 0 and math.isfinite(l) for l in curve.losses)


def test_training_weight_scale_invariance():
    X, labels = _toy_examples(30, 7)
    cfg = TrainConfig(max_epochs=3, hidden_dim=4, seed=2)
    base = np.full(30, 0.1)
    scaled = np.full(30, 0.1 * 7.3)
    p1, c1 = train_weak_learner(X, labels, base, cfg, 2)
    p2, c2 = train_weak_learner(X, labels, scaled, cfg, 2)
    for key in param_keys(one_step=True):  # rows of one step
        assert p1.arrays[key].tobytes() == p2.arrays[key].tobytes()
    assert c1.losses == c2.losses


def test_training_deterministic():
    X, labels = _toy_examples(25, 11)
    weights = np.full(25, 1.0 / 25)
    cfg = TrainConfig(max_epochs=2, hidden_dim=3, seed=4)
    p1, c1 = train_weak_learner(X, labels, weights, cfg, 2)
    p2, c2 = train_weak_learner(X, labels, weights, cfg, 2)
    for key in param_keys(one_step=True):  # rows of one step
        assert p1.arrays[key].tobytes() == p2.arrays[key].tobytes()
    assert c1.losses == c2.losses and c1.learning_rates == c2.learning_rates


def test_training_single_epoch_curve():
    X, labels = _toy_examples(10, 1)
    weights = np.full(10, 0.1)
    _, curve = train_weak_learner(X, labels, weights, TrainConfig(max_epochs=1, hidden_dim=2), 2)
    assert len(curve.losses) == 1


def test_training_rejects_empty_and_bad_weights():
    cfg = TrainConfig(max_epochs=1)
    with pytest.raises(ValueError):
        train_weak_learner(np.zeros((0, 2)), np.array([]), np.array([]), cfg, 2)
    X, labels = _toy_examples(4, 0)
    with pytest.raises(ValueError):
        train_weak_learner(X, labels, np.array([1.0, 2.0]), cfg, 2)
    with pytest.raises(ValueError):
        train_weak_learner(X, labels, np.array([1.0, -1.0, 1.0, 1.0]), cfg, 2)
    with pytest.raises(ValueError, match="label"):
        train_weak_learner(X, labels[:3], np.ones(4), cfg, 2)


def test_single_step_training_leaves_every_dead_array_at_its_initial_value():
    # a one-step kernel holds only the live arrays, and every one of them
    # trains; the four-gate reference trains none of the arrays it lacks
    X, labels = _toy_examples(40, 6)
    weights = np.full(40, 1 / 40)
    cfg = TrainConfig(max_epochs=3, hidden_dim=4, seed=8, initial_lr=0.5)
    trained, _ = train_weak_learner(X, labels, weights, cfg, step_dim("single", 2))
    oracle, _, _ = oracle_train([([x], y) for x, y in zip(X, labels)], weights, cfg)
    initial = init_params(2, 4, Rng(cfg.seed))
    assert list(trained.arrays) == list(param_keys(one_step=True))
    for key in param_keys():
        same = oracle[key].tobytes() == initial.arrays[key].tobytes()
        assert same != (key in trained.arrays), key
        if key in trained.arrays:
            assert trained.arrays[key].tobytes() == oracle[key].tobytes(), key
    unrolled, _ = train_weak_learner(X, labels, weights, cfg, step_dim("unrolled", 2))
    assert list(unrolled.arrays) == list(param_keys())


@pytest.mark.parametrize("shape,input_dim", [((4, 3), 2), ((4, 0), 1), ((8,), 1)])
def test_training_rejects_a_matrix_that_is_not_whole_steps(shape, input_dim):
    with pytest.raises(ValueError, match="matrix"):
        train_weak_learner(np.zeros(shape), np.zeros(4, dtype=int), np.ones(4),
                           TrainConfig(max_epochs=1), input_dim)


@pytest.mark.filterwarnings("error::RuntimeWarning")  # the SGD loop prints none
def test_training_reports_non_finite_loss():
    X, labels = _toy_examples(5, 2)
    X[2] = [np.inf, 1.0]
    weights = np.full(5, 0.2)
    with pytest.raises(TrainingError, match="epoch"):
        train_weak_learner(X, labels, weights, TrainConfig(max_epochs=2, hidden_dim=2), 2)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("mode", ["single", "unrolled"])
def test_training_reports_a_head_logit_that_overflows(mode):
    # at lr 1e308 w_head overflows; PROB_CLAMP would keep the loss finite
    X, labels = _toy_examples(20, 4)
    cfg = TrainConfig(max_epochs=1, hidden_dim=16, initial_lr=1e308)
    with pytest.raises(TrainingError, match="non-finite head logit at epoch 1"):
        train_weak_learner(X, labels, np.full(20, 0.05), cfg, step_dim(mode, 2))


def test_a_parameter_that_overflows_in_the_last_update_is_a_training_error(monkeypatch):
    # no forward() follows the last update, so no logit can report it
    update = PackedLstm.clip_and_update

    def overflowing(self, lr, max_norm):
        clipped = update(self, lr, max_norm)
        self.theta[0] = np.inf
        return clipped

    monkeypatch.setattr(PackedLstm, "clip_and_update", overflowing)
    X, labels = _toy_examples(1, 2)
    with pytest.raises(TrainingError, match="non-finite parameter after the last update"):
        train_weak_learner(X, labels, np.ones(1), TrainConfig(max_epochs=1, hidden_dim=2), 2)


def test_step_dim_modes():
    assert step_dim("single", 3) == 3  # one step of the whole row
    assert step_dim("unrolled", 3) == 1  # one feature per step
    with pytest.raises(ValueError, match="unknown mode 'stacked'"):
        step_dim("stacked", 3)
