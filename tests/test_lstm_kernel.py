"""The packed kernel against the reference cell, bit for bit.

Training is compared with the dict-based loop in lstm_oracle.py; single
steps are compared with forward_sequence() and backward(). The kernel takes
flat rows of T*D features; the oracle takes the same row as a list of T
steps, list(row.reshape(-1, D)). The batched
forward_stack() of one kernel is compared with the per-row forward() under
the drift policy below: logits within ROW_LOGIT_DRIFT * (sum|w_head| +
|b_head|), equal votes. A row's forward_stack() logits are
bit-equal however it is scored: alone, in any slice of the rows, and in any
stack of the kernels, each kernel's stack of one included.
"""

import gc
import math
import sys
import weakref
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lstm_oracle import (backward, clip_gradient, clip_norm, copied, forward_sequence,
                         four_gate, oracle_train, packed, squared_norm)
from vrboost import lstm
from vrboost.boosting import BoostRound, Ensemble, LstmWeakLearner, ensemble_predict
from vrboost.lstm import (_CLIP_GUARD_MAX, _CLIP_GUARD_MIN, GATES, MAX_STACK, SCORE_BLOCK_ROWS,
                          SCORE_COLUMN_GROUP, PackedLstm, TrainConfig, grad_check, init_params,
                          learning_rate, param_keys, step_dim, train_weak_learner, weighted_loss)
from vrboost.numerics import Rng, sigmoid

# The drift policy of the stack of one. forward_stack([kernel], X) is not
# bit-identical to forward(): a row of a gemm is not summed like a per-row
# gemv. A row's stack-of-one logit lies within ROW_LOGIT_DRIFT * (sum|w_head|
# + |b_head|) of its forward() logit, and equal logits give equal
# probabilities through the same sigmoid, so a vote (probability >= 0.5) can
# differ only for a row whose logit lies within the bound of 0. README's
# "Where the time goes" gives the measured drift.
ROW_LOGIT_DRIFT = 16 * np.finfo(float).eps


def _examples(n, features, seed):
    """(X, labels): n rows of uniform(-2, 2) features and a planted rule."""
    X = Rng(seed).uniform_array((n, features), -2.0, 2.0)
    return X, (X[:, 0] + 0.5 * X[:, -1] > 0).astype(int)


def _oracle_examples(X, labels, input_dim):
    """The oracle's (sequence, label) pairs of the rows of X."""
    return [(list(x.reshape(-1, input_dim)), int(y)) for x, y in zip(X, labels)]


def _weights(n, seed):
    rng = Rng(seed + 1000)
    return np.array([rng.uniform(0.1, 3.0) for _ in range(n)])


def _assert_same_bits(got: dict, want: dict):
    assert list(got) == list(want)
    for key in want:
        assert got[key].shape == want[key].shape, key
        assert got[key].tobytes() == want[key].tobytes(), key


# (features per example, sequence mode, hidden, seed, config overrides). H not
# a multiple of 4 with D >= 8 (single) is where a stacked W gemv sums some
# rows in another order than the per-gate ones the kernel and the oracle
# make; at unrolled H of 10, 14 and 17 the whole-matrix U h that both make
# differs from a per-gate one, as U^T dpre does at nearly every H, so an
# oracle on the per-gate convention fails there.
TRAIN_CASES = [
    (9, "single", 16, 3, {}),
    (9, "single", 6, 1, {"max_epochs": 3}),
    (9, "unrolled", 16, 7, {}),
    (6, "unrolled", 10, 2, {"max_epochs": 3}),
    (7, "single", 6, 9, {"initial_lr": 0.5, "grad_clip": 0.05}),
    (5, "unrolled", 4, 4, {"initial_lr": 0.5, "grad_clip": 0.05}),
    # the time-batched gradient sums at their edges: H=1, T=2, and a clipped
    # T=9 run, the shape of the CLI's unrolled mode
    (9, "unrolled", 1, 12, {}),
    (2, "unrolled", 3, 13, {"max_epochs": 3}),
    (9, "unrolled", 5, 14, {"initial_lr": 0.5, "grad_clip": 0.05}),
    # two more hidden sizes where the whole-matrix U h differs from a per-gate one
    (9, "unrolled", 14, 15, {}),
    (9, "unrolled", 17, 16, {}),
]


def _assert_trains_like_oracle(X, labels, cfg, input_dim, weights=None) -> int:
    """Train the kernel and the dict oracle alike; returns the oracle's clip count.

    Rows of one step train a one-step kernel: its arrays must be the oracle's,
    and each oracle array it lacks must end at its init_params() value.
    weights defaults to _weights(len(X), cfg.seed)."""
    weights = _weights(len(X), cfg.seed) if weights is None else np.array(weights)
    kernel, curve = train_weak_learner(X, labels, weights, cfg, input_dim)
    want_params, want_curve, clipped = oracle_train(_oracle_examples(X, labels, input_dim),
                                                    weights, cfg)
    one_step = X.shape[1] == input_dim
    assert kernel.one_step == one_step
    assert list(kernel.arrays) == list(param_keys(one_step))
    _assert_same_bits(kernel.arrays, {key: want_params[key] for key in kernel.arrays})
    initial = init_params(input_dim, cfg.hidden_dim, Rng(cfg.seed)).arrays
    dead = [key for key in param_keys() if key not in kernel.arrays]
    _assert_same_bits({key: want_params[key] for key in dead},
                      {key: initial[key] for key in dead})
    assert curve.losses == want_curve.losses
    assert curve.learning_rates == want_curve.learning_rates
    return clipped


@pytest.mark.parametrize("features,mode,hidden,seed,overrides", TRAIN_CASES)
def test_training_matches_dict_oracle_bit_for_bit(features, mode, hidden, seed, overrides):
    X, labels = _examples(40, features, seed)
    cfg = TrainConfig(**{"max_epochs": 2, "hidden_dim": hidden, "seed": seed, **overrides})
    clipped = _assert_trains_like_oracle(X, labels, cfg, step_dim(mode, features))
    if "grad_clip" in overrides:
        assert clipped > 0  # the case really exercises the clip


def test_sequences_of_vectors_match_dict_oracle():
    # T > 1 with D > 1: neither CLI mode produces this shape, the kernel allows it
    rng = Rng(21)
    rows = [(rng.uniform_array((4 * 3,), -2.0, 2.0), rng.randint(0, 1)) for _ in range(30)]
    X, labels = np.stack([x for x, _ in rows]), np.array([y for _, y in rows])
    _assert_trains_like_oracle(X, labels, TrainConfig(max_epochs=2, hidden_dim=5, seed=21), 3)


def _one_hot_examples(n, seed):
    """(X, labels) laid out as data.encode's rows: three numeric features, then
    two one-hot groups of three, so most features are exactly 0.0."""
    rng = Rng(seed)
    X = np.zeros((n, 9))
    X[:, :3] = rng.uniform_array((n, 3), -2.0, 2.0)
    for row in X:
        row[3 + rng.randint(0, 2)] = row[6 + rng.randint(0, 2)] = 1.0
    return X, (X[:, 0] + X[:, 4] > 0.5).astype(int)


# a drawn case's rows: uniform features; the same with exact 0.0 and -0.0
# entries; or data.encode's nine features, as one step of nine or nine of one
INPUTS = ("uniform", "signed zeros", "one-hot")
# grad_clip at the clip guard's edges: its least max_norm, the float below
# it (where the exact norm decides every update) and its greatest
CLIP_EDGES = (_CLIP_GUARD_MIN, math.nextafter(_CLIP_GUARD_MIN, 0.0), _CLIP_GUARD_MAX)


# the drawn cases rarely reach T = 1 or each edge, so those are given as examples
@settings(max_examples=30)
@example(dim=1, hidden=1, steps=1, seed=5, weights=[1e-300], lr=1.0, grad_clip=1e-3,
         inputs="uniform")
@example(dim=4, hidden=1, steps=1, seed=6, weights=[0.0, 1e-300, 1e6, 1e-6, 0.0, 1.0], lr=0.5,
         grad_clip=0.01, inputs="uniform")
@example(dim=1, hidden=6, steps=4, seed=7, weights=[1e6] + [1e-6] * 10 + [0.0], lr=0.1,
         grad_clip=0.1, inputs="uniform")
@example(dim=2, hidden=3, steps=3, seed=8, weights=[1.0] * 8, lr=0.5,
         grad_clip=CLIP_EDGES[0], inputs="signed zeros")
@example(dim=1, hidden=4, steps=1, seed=9, weights=[1.0] * 6, lr=0.5,
         grad_clip=CLIP_EDGES[1], inputs="one-hot")
@example(dim=3, hidden=2, steps=1, seed=10, weights=[2.0, 1e-6, 1.0, 0.0, 5.0], lr=1.0,
         grad_clip=CLIP_EDGES[2], inputs="one-hot")
@given(dim=st.integers(1, 4), hidden=st.integers(1, 6), steps=st.integers(1, 4),
       seed=st.integers(0, 2 ** 32),
       weights=st.lists(st.one_of(st.sampled_from([0.0, 1e-300]), st.floats(1e-6, 1e6)),
                        min_size=1, max_size=12).filter(any),
       lr=st.floats(1e-3, 1.0),
       grad_clip=st.one_of(st.floats(1e-3, 0.1), st.sampled_from(CLIP_EDGES)),
       inputs=st.sampled_from(INPUTS))
def test_training_matches_dict_oracle_for_drawn_cases(dim, hidden, steps, seed, weights, lr,
                                                      grad_clip, inputs):
    if inputs == "one-hot":
        dim = 1 if dim == 1 else 9
        X, labels = _one_hot_examples(len(weights), seed)
    else:
        X, labels = _examples(len(weights), steps * dim, seed)
    if inputs == "signed zeros":  # about a third of the entries each
        kind = Rng(seed + 1).uniform_array(X.shape, 0.0, 3.0).astype(int)
        X[kind == 1], X[kind == 2] = 0.0, -0.0
    cfg = TrainConfig(max_epochs=2, initial_lr=lr, grad_clip=grad_clip, hidden_dim=hidden,
                      seed=seed)
    _assert_trains_like_oracle(X, labels, cfg, dim, weights)


@pytest.mark.parametrize("mode,hidden,seed", [("unrolled", 6, 31), ("single", 5, 32)])
def test_training_on_exact_zero_inputs_matches_dict_oracle(mode, hidden, seed):
    # in unrolled mode six of nine steps carry x_t = 0.0, whose W products are +-0.0
    X, labels = _one_hot_examples(40, seed)
    _assert_trains_like_oracle(X, labels, TrainConfig(max_epochs=2, hidden_dim=hidden, seed=seed),
                               step_dim(mode, 9))


@pytest.mark.parametrize("dim,steps", [(1, 1), (1, 2), (1, 9), (9, 1), (3, 2)])
def test_gradient_of_exact_zero_inputs_equals_backward(dim, steps):
    # a zero x_t times a negative dpre entry is -0.0; the reference adds it to
    # +0.0, so a W gradient of all-zero inputs must be +0.0, not -0.0
    rng = Rng(50 + 10 * dim + steps)
    negative = 0
    for hidden in (1, 4):
        for row in range(6):
            kernel = init_params(dim, hidden, rng)
            x = rng.uniform_array((steps * dim,), -2.0, 2.0)
            x[rng.randint(0, 1)::2] = 0.0  # every other feature
            if row < 2:
                x[:] = 0.0
            y, w = rng.randint(0, 1), rng.uniform(0.5, 2.0)
            params = copied(kernel.arrays)
            want = backward(params, forward_sequence(params, list(x.reshape(-1, dim)))[1], y, w)
            kernel.forward(x)
            kernel.backward(y, w)
            _assert_same_bits(kernel.grads, want)
            negative += int(np.sum(kernel.trace.dpre < 0))
    assert negative  # the case has -0.0 products to sum


def _sgd_step(kernel, x, y):
    kernel.forward(x)
    kernel.backward(y, 1.3)
    kernel.clip_and_update(0.2, 0.5)


def test_interleaved_kernels_of_one_shape_train_as_if_alone():
    # each kernel keeps its own trace buffers: interleaving two kernels of the
    # same shape, and grad_check's many forward() calls after one backward(),
    # must leave every kernel's parameters as training it alone does
    X, labels = _one_hot_examples(24, 43)
    X2, labels2 = X[::-1].copy(), labels[::-1]
    alone = []
    for seed, rows, ys in ((1, X, labels), (2, X2, labels2)):
        kernel = init_params(1, 4, Rng(seed))
        for x, y in zip(rows, ys):
            _sgd_step(kernel, x, y)
        alone.append(kernel.theta.tobytes())

    a, b = init_params(1, 4, Rng(1)), init_params(1, 4, Rng(2))
    for n, (xa, ya, xb, yb) in enumerate(zip(X, labels, X2, labels2)):
        a.forward(xa)
        b.forward(xb)
        a.backward(ya, 1.3)
        b.backward(yb, 1.3)
        a.clip_and_update(0.2, 0.5)
        b.clip_and_update(0.2, 0.5)
        if n % 8 == 3:  # grad_check runs on a's own buffers and leaves theta as it was
            copy = packed(1, 4, a.arrays)
            assert grad_check(a, xb, yb, 0.7) == grad_check(copy, xb, yb, 0.7)
    assert [a.theta.tobytes(), b.theta.tobytes()] == alone


def test_backward_differentiates_the_last_forward_of_any_width():
    # rows of 1, 3 and again 1 steps on one kernel: the trace is rebuilt on
    # each change of width, kept while the width holds, and backward() always
    # takes the gradient of the row forward() ran last
    rng = Rng(61)
    kernel = init_params(2, 3, rng)
    traces = []
    for steps in (1, 1, 3, 3, 1):
        x = rng.uniform_array((steps * 2,), -2.0, 2.0)
        params = copied(kernel.arrays)
        want_prob, cache = forward_sequence(params, list(x.reshape(-1, 2)))
        prob = kernel.forward(x)
        assert prob == want_prob == kernel.trace.prob and kernel.trace.x is x
        kernel.backward(1, 0.8)
        _assert_same_bits(kernel.grads, backward(params, cache, 1, 0.8))
        traces.append(kernel.trace)
    assert traces[0] is traces[1] and traces[2] is traces[3]
    assert len({id(t) for t in traces}) == 3


def test_a_trained_kernel_keeps_no_trace():
    X, labels = _examples(10, 9, 2)
    kernel, _ = train_weak_learner(X, labels, np.ones(10), TrainConfig(max_epochs=1), 9)
    assert kernel.trace is None


def _public_train(X, labels, weights, cfg, input_dim):
    """train_weak_learner's schedule, one call of each public method per
    example: forward, weighted_loss, backward, clip_and_update. Returns the
    kernel, the loss curve and the number of clipped updates."""
    n = len(X)
    norm_w = (np.asarray(weights, dtype=float) * n / math.fsum(weights)).tolist()
    rng = Rng(cfg.seed)
    kernel = init_params(input_dim, cfg.hidden_dim, rng, one_step=X.shape[1] == input_dim)
    losses, clipped = [], 0
    for epoch in range(1, cfg.max_epochs + 1):
        lr = learning_rate(cfg, epoch)
        order = list(range(n))
        rng.shuffle(order)
        epoch_losses = []
        for idx in order:
            y, w = int(labels[idx]), norm_w[idx]
            epoch_losses.append(weighted_loss(kernel.forward(X[idx]), y, w))
            kernel.backward(y, w)
            clipped += kernel.clip_and_update(lr, cfg.grad_clip)
        losses.append(math.fsum(epoch_losses) / n)
    return kernel, losses, clipped


@settings(max_examples=40, deadline=None)
@given(input_dim=st.sampled_from([6, 1, 2, 3]), clip=st.booleans(), hidden=st.integers(1, 8),
       seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_bound_training_loop_equals_the_public_methods(input_dim, clip, hidden, seed, data):
    # rows of 6 features: one step of D=6 trains a one-step kernel, and 6, 3
    # or 2 steps of D=1, 2 or 3 a four-gate one. At grad_clip 1e-3 every
    # update is clipped (|dL/db_head| >= 0.25 * |p - y| > 1e-3 at these
    # weights and inits), at 1e6 none is
    n = data.draw(st.integers(1, 10))
    X = data.draw(arrays(np.float64, (n, 6), elements=st.floats(-3.0, 3.0)))
    labels = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    weights = data.draw(arrays(np.float64, n, elements=st.floats(0.5, 2.0)))
    cfg = TrainConfig(max_epochs=2, hidden_dim=hidden, seed=seed, initial_lr=0.5,
                      lr_drop_period=1, grad_clip=1e-3 if clip else 1e6)
    kernel, curve = train_weak_learner(X, labels, weights, cfg, input_dim)
    want, want_losses, clipped = _public_train(X, labels, weights, cfg, input_dim)
    assert kernel.one_step == want.one_step == (input_dim == 6)
    assert kernel.theta.tobytes() == want.theta.tobytes()
    assert curve.losses == want_losses
    assert clipped == (2 * n if clip else 0)


def test_training_frees_its_trace_and_bound_step(monkeypatch):
    # with the collector off, only reference counts free them: the trained
    # kernel must hold no path to its last trace or to the closures over it,
    # and they none to each other in a cycle (98 kB a learner at T=9, H=16)
    freed = []
    bind = lstm._bind_step

    def recording(kernel, trace):
        pair = bind(kernel, trace)
        freed.extend(weakref.ref(obj) for obj in (trace, *pair))
        return pair

    monkeypatch.setattr(lstm, "_bind_step", recording)
    X, labels = _examples(10, 9, 2)
    kernels = []
    gc.disable()
    try:
        for input_dim in (9, 1):
            kernel, _ = train_weak_learner(X, labels, np.ones(10),
                                           TrainConfig(max_epochs=1, hidden_dim=4), input_dim)
            kernels.append(kernel)
        assert len(freed) == 6
        assert [ref() for ref in freed] == [None] * 6
    finally:
        gc.enable()
    assert [kernel.one_step for kernel in kernels] == [True, False]


def test_a_dropped_kernel_is_freed_by_reference_counts():
    # kernel.clip_and_update holds the bound update, closures over the
    # kernel's arrays: one that held the kernel or a bound method of it would
    # make a cycle, which only the collector frees, so every learner a
    # training ends with would outlive its last reference until a collection
    X, labels = _examples(10, 9, 2)
    refs = []
    gc.disable()
    try:
        for input_dim in (9, 1):
            kernel, _ = train_weak_learner(X, labels, np.ones(10),
                                           TrainConfig(max_epochs=1, hidden_dim=4), input_dim)
            refs.append(weakref.ref(kernel))
            del kernel
        kernel = init_params(9, 4, Rng(3))
        kernel.forward(X[0])
        kernel.backward(1, 1.0)
        assert not kernel.clip_and_update(0.1, 1e6)  # the quick sum decides
        assert kernel.clip_and_update(0.1, 1e-6)  # the exact norm decides and clips
        refs.append(weakref.ref(kernel))
        del kernel
        assert [ref() for ref in refs] == [None] * 3
    finally:
        gc.enable()


@pytest.mark.parametrize("input_dim,frames", [(9, 6), (1, 14)])
def test_an_sgd_update_makes_only_its_python_calls(input_dim, frames):
    # an update's Python frames: the bound forward, one sigmoid_core per step
    # (1 or 9 steps), the head's sigmoid, weighted_loss, the bound backward
    # and clip_and_update, whose quick sum decides at grad_clip 1e6. One more
    # row adds one update, so the difference of two runs counts it exactly
    def calls(n):
        X, labels = _examples(n, 9, 4)
        names = []

        def profile(frame, event, arg):
            if event == "call":
                names.append(frame.f_code.co_name)

        cfg = TrainConfig(max_epochs=1, hidden_dim=4, grad_clip=1e6)
        sys.setprofile(profile)
        try:
            train_weak_learner(X, labels, np.ones(n), cfg, input_dim)
        finally:
            sys.setprofile(None)
        return Counter(names)

    two, three = calls(2), calls(3)
    assert not two - three
    update = three - two
    assert sum(update.values()) == frames, update


@settings(max_examples=150, deadline=None)
@given(steps=st.integers(1, 9), dim=st.sampled_from([1, 2, 9]), hidden=st.integers(1, 16),
       seed=st.integers(0, 2 ** 32 - 1), y=st.integers(0, 1), w=st.floats(0.1, 3.0),
       data=st.data())
def test_backward_equals_oracle_bytes_at_every_step_count(steps, dim, hidden, seed, y, w, data):
    # backward() reads dc * f_t and dh * o_{t-1} through one window of the
    # flat gates buffer at every step t >= 1; saturated gates (|x| up to 30)
    # and exact zeros make +-0.0 factors, whose sign a gradient byte shows
    one_step = data.draw(st.booleans()) if steps == 1 else False
    x = data.draw(arrays(np.float64, steps * dim,
                         elements=st.one_of(st.just(0.0), st.floats(-30.0, 30.0))))
    kernel = init_params(dim, hidden, Rng(seed), one_step)
    params = four_gate(kernel)
    want_prob, cache = forward_sequence(params, list(x.reshape(-1, dim)))
    want = backward(params, cache, y, w)
    assert kernel.forward(x) == want_prob
    kernel.backward(y, w)
    _assert_same_bits(kernel.grads, {key: want[key] for key in kernel.grads})
    dead = [key for key in param_keys() if key not in kernel.grads]
    _assert_same_bits({key: want[key] for key in dead},
                      {key: np.zeros_like(want[key]) for key in dead})


def _gamma(n):
    """gamma_n = nu / (1 - nu), u = 2^-53: a computed n-term dot product, in
    any order of summation, lies within gamma_n * sum|a_i b_i| of the exact
    one (Higham 2002, "Accuracy and Stability of Numerical Algorithms", 3.1)."""
    nu = n * 2.0 ** -53
    return nu / (1.0 - nu)


@settings(max_examples=300)
@given(hidden=st.integers(1, 33), seed=st.integers(0, 2 ** 32 - 1),
       zeros=st.sampled_from([0.0, 0.25, 0.5]))
def test_whole_matrix_recurrent_products_differ_from_per_gate_ones_by_rounding_only(
        hidden, seed, zeros):
    # the kernel's and the oracle's U h and U^T dpre are one (4H, H) gemv
    # each; per gate, U h is four (H, H) gemvs and U^T dpre four more added
    # in GATES order. Both forms sum the same products, H of them per entry
    # of U h and 4H of U^T dpre, so each lies within gamma_n of the exact
    # value and the two within 2 gamma_n, relative to |U| |h| or |U|^T |dpre|.
    # gamma_{n+2} in place of gamma_n covers the roundings of the bound's own
    # computation. Which H give equal bits depends on the BLAS kernel, so
    # equality is asserted at none
    rng, h_dim = Rng(seed), hidden
    U = rng.uniform_array((4 * h_dim, h_dim), -1.0, 1.0)
    h = rng.uniform_array((h_dim,), -1.0, 1.0)
    dpre = rng.uniform_array((4 * h_dim,), -2.0, 2.0)
    for v in (U, h, dpre):  # exact zeros: a share of U's rows, of h and of dpre
        v[rng.uniform_array((len(v),), 0.0, 1.0) < zeros] = 0.0
    per_gate = U.reshape(4, h_dim, h_dim)
    uh, uh_gates = U.dot(h), np.matmul(per_gate, h).reshape(-1)
    assert np.all(np.abs(uh - uh_gates) <= 2 * _gamma(h_dim + 2) * (np.abs(U) @ np.abs(h)))
    ud = np.matmul(per_gate.transpose(0, 2, 1), dpre.reshape(4, h_dim, 1))[..., 0]
    dh, dh_gates = U.T.dot(dpre), ((ud[0] + ud[1]) + ud[2]) + ud[3]
    assert np.all(np.abs(dh - dh_gates)
                  <= 2 * _gamma(4 * h_dim + 2) * (np.abs(U).T @ np.abs(dpre)))
    event(f"U h {'equal' if uh.tobytes() == uh_gates.tobytes() else 'differs'}")
    event(f"U^T dpre {'equal' if dh.tobytes() == dh_gates.tobytes() else 'differs'}")


def _placed(X, row_offset):
    """A copy of X starting row_offset rows into a 64-byte-aligned buffer."""
    n, width = X.shape
    raw = np.zeros((n + row_offset) * width + 8)
    start = (-raw.ctypes.data % 64) // 8 + row_offset * width
    out = raw[start:start + n * width].reshape(n, width)
    out[...] = X
    return out


@pytest.mark.parametrize("mode", ["single", "unrolled"])
def test_training_does_not_depend_on_row_alignment(mode):
    # rows of 9 float64 are 72 bytes, so a one-row offset moves every row by
    # 8 bytes modulo 64: each row is read by BLAS at another alignment
    X, labels = _examples(40, 9, 6)
    weights = _weights(40, 6)
    cfg = TrainConfig(max_epochs=2, hidden_dim=6, seed=6)
    aligned, shifted = _placed(X, 0), _placed(X, 1)
    assert (aligned.ctypes.data % 64, shifted.ctypes.data % 64) == (0, 8)
    dim = step_dim(mode, 9)
    want_kernel, want_curve = train_weak_learner(X, labels, weights, cfg, dim)
    for copy in (aligned, shifted):
        kernel, curve = train_weak_learner(copy, labels, weights, cfg, dim)
        _assert_same_bits(kernel.arrays, want_kernel.arrays)
        assert curve.losses == want_curve.losses


def _gradcheck_like_cases(seed, count, min_steps, dims=(1, 5), hiddens=(1, 8)):
    """Instances drawn as in cli.gradcheck_suite, with at least min_steps steps."""
    rng = Rng(seed)
    for _ in range(count):
        dim, hid = rng.randint(*dims), rng.randint(*hiddens)
        steps = rng.randint(min_steps, 4)
        kernel = init_params(dim, hid, rng)
        x = rng.uniform_array((steps * dim,), -2.0, 2.0)
        yield kernel, x, rng.randint(0, 1), rng.uniform(0.5, 2.0)


@pytest.mark.parametrize("seed,min_steps,dims,hiddens", [
    (11, 1, (1, 5), (1, 8)), (12, 2, (1, 5), (1, 8)), (13, 2, (8, 12), (5, 11))])
def test_kernel_gradient_equals_backward(seed, min_steps, dims, hiddens):
    for kernel, x, y, w in _gradcheck_like_cases(seed, 10, min_steps, dims, hiddens):
        params = copied(kernel.arrays)
        want_prob, cache = forward_sequence(params, list(x.reshape(-1, kernel.input_dim)))
        want = backward(params, cache, y, w)
        assert kernel.forward(x) == want_prob
        kernel.backward(y, w)
        _assert_same_bits(kernel.grads, want)


def _assert_clips_like_oracle(kernel, lr, max_norm):
    """clip_and_update()'s flag and theta against the oracle's clip_gradient()
    and per-key update of the kernel's grad, bit for bit."""
    params, grads = copied(kernel.arrays), copied(kernel.grads)
    with np.errstate(all="ignore"):  # squares that overflow, inf * 0
        clipped = kernel.clip_and_update(lr, max_norm)
        want = clip_gradient(grads, max_norm)
        for key in params:
            params[key] -= lr * grads[key]
    assert clipped == want
    _assert_same_bits(kernel.arrays, params)


@pytest.mark.parametrize("max_norm", [1e-3, 1e6])
def test_clip_and_update_equals_per_key_update(max_norm):
    rng = Rng(5)
    kernel = init_params(9, 16, rng)
    kernel.grad[:] = rng.uniform_array(kernel.grad.shape, -0.2, 0.2)
    assert clip_norm(kernel.grads) == pytest.approx(4.7, abs=0.1)
    _assert_clips_like_oracle(kernel, 0.01, max_norm)


# --- the clip guard --------------------------------------------------------------

def _nudged(x: float, ulps: int) -> float:
    """x moved ulps floats up, or down for ulps < 0."""
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


def _quick_sum_decides(kernel, max_norm) -> bool:
    """Whether clip_and_update()'s guard lets the quick sum decide."""
    quick = float(np.dot(kernel.grad, kernel.grad))
    return (_CLIP_GUARD_MIN <= max_norm <= _CLIP_GUARD_MAX
            and quick < max_norm * max_norm * kernel._clip_keep)


@settings(max_examples=200)
@given(one_step=st.booleans(), dim=st.integers(1, 9), hidden=st.integers(1, 6),
       seed=st.integers(0, 2 ** 32), size=st.sampled_from(
           [1.0, 0.05, 3e-5, 7e4, 2.0 ** -511, 2.0 ** 511, 1e-160, 1e160]),
       edge=st.sampled_from(["exact norm", "guard"]), ulps=st.integers(-4, 4))
def test_clip_equals_oracle_within_ulps_of_max_norm(one_step, dim, hidden, seed, size, edge,
                                                    ulps):
    # a gradient of exact norm about `size`, and a max_norm a few ulps from
    # that norm, or from where the quick sum meets the guard's threshold
    rng = Rng(seed)
    kernel = PackedLstm(dim, hidden, one_step)
    kernel.theta[:] = rng.uniform_array(kernel.theta.shape, -1.0, 1.0)
    kernel.grad[:] = rng.uniform_array(kernel.grad.shape, -1.0, 1.0)
    kernel.grad[rng.randint(0, 2)::3] = 0.0
    kernel.grad *= size / clip_norm(kernel.grads)
    with np.errstate(over="ignore"):
        if edge == "guard":
            max_norm = math.sqrt(float(np.dot(kernel.grad, kernel.grad)) / kernel._clip_keep)
        else:
            max_norm = clip_norm(kernel.grads)
    _assert_clips_like_oracle(kernel, 0.1, _nudged(max_norm, ulps))


@pytest.mark.parametrize("one_step", [True, False])
def test_clip_equals_oracle_on_non_finite_and_extreme_values(one_step):
    # NaN and inf entries, squares that overflow or underflow, and max_norms
    # whose square is subnormal, at or past the guard's range, zero or NaN
    specials = [None, math.nan, math.inf, -math.inf, 1e200, 1e-170]
    max_norms = [1.0, 1e-160, _CLIP_GUARD_MIN, math.nextafter(_CLIP_GUARD_MIN, 0.0),
                 _CLIP_GUARD_MAX, math.nextafter(_CLIP_GUARD_MAX, math.inf), 1e200,
                 math.inf, 0.0, math.nan]
    rng = Rng(7)
    for special in specials:
        for max_norm in max_norms:
            kernel = PackedLstm(4, 3, one_step)
            kernel.theta[:] = rng.uniform_array(kernel.theta.shape, -1.0, 1.0)
            kernel.grad[:] = rng.uniform_array(kernel.grad.shape, -1e-3, 1e-3)
            if special == 1e-170:
                kernel.grad *= 1e-167  # every square underflows
            elif special is not None:
                kernel.grad[rng.randint(0, kernel.grad.size - 1)] = special
            _assert_clips_like_oracle(kernel, 0.3, max_norm)


def _lowest_dot(a, b):
    """a . b as low as a sum of n products may round: a relative 2nu below
    numpy's own sum, with n = a.size and u = 2^-53."""
    return float(np.sum(a * b)) * (1 - 2 * a.size * 2.0 ** -53)


def _exact_dot(a, b):
    """a . b summed exactly and rounded once, which a dot product that fuses
    each multiply into its add comes near."""
    return float(sum(Fraction(p) * Fraction(q) for p, q in zip(a.tolist(), b.tolist())))


def _grad_with_dot(kernel, dot) -> list:
    """Give kernel.grad, before its update is bound, a view whose dot() is
    dot, the quick sum the bound update then takes; returns the list that
    each call of the substitute appends its result to."""
    calls = []

    class GradWithDot(np.ndarray):
        def dot(self, other):
            calls.append(dot(np.asarray(self), np.asarray(other)))
            return calls[-1]

    kernel.__dict__["grad"] = kernel.grad.view(GradWithDot)
    return calls


@pytest.mark.parametrize("dot", [_lowest_dot, _exact_dot])
@pytest.mark.parametrize("one_step", [True, False])
def test_clip_equals_oracle_for_a_quick_sum_anywhere_in_its_rounding(dot, one_step):
    # max_norms a few ulps around the exact norm, with the quick sum as low
    # as it may round, or exact; and where every square rounds up: subnormal
    # squares, each 0.49 of the least subnormal above its true value, put
    # the exact ordered total above the true sum by far more than delta, and
    # their max_norms lie below the guard's range, so the exact path decides
    rng = Rng(9)
    for size in (1.0, 3e-5, None):
        for ulps in (-6, -3, -1, 0, 1, 3):
            kernel = PackedLstm(9, 8, one_step)
            kernel.theta[:] = rng.uniform_array(kernel.theta.shape, -1.0, 1.0)
            if size is None:
                kernel.grad[:] = [math.sqrt(k % 40 + 1.51) * 2.0 ** -537
                                  for k in range(kernel.grad.size)]
                total, true = squared_norm(kernel.grads), _exact_dot(kernel.grad, kernel.grad)
                assert total > true
                max_norm = math.sqrt((total + true) / 2)
            else:
                kernel.grad[:] = rng.uniform_array(kernel.grad.shape, -1.0, 1.0)
                kernel.grad *= size / clip_norm(kernel.grads)
                max_norm = clip_norm(kernel.grads)
            max_norm = _nudged(max_norm, ulps)
            calls = _grad_with_dot(kernel, dot)
            _assert_clips_like_oracle(kernel, 0.1, max_norm)
            # the guard takes the quick sum exactly where max_norm is in its range
            assert len(calls) == (_CLIP_GUARD_MIN <= max_norm <= _CLIP_GUARD_MAX)


@pytest.mark.parametrize("mode", ["single", "unrolled"])
def test_every_gradient_the_guard_passes_has_an_exact_norm_within_max_norm(mode):
    # over the gradients of training: for the training clip, and for max_norms
    # packed around each gradient's own exact norm, wherever the quick sum
    # decides, the exact ordered norm is <= max_norm
    X, labels = _examples(300, 9, 17)
    kernel = init_params(step_dim(mode, 9), 16, Rng(17), one_step=mode == "single")
    decided = near = 0
    for _ in range(2):
        for x, y in zip(X, labels.tolist()):
            kernel.forward(x)
            kernel.backward(y, 1.0)
            norm = clip_norm(kernel.grads)
            delta = 4 * (kernel.grad.size + 2) * 2.0 ** -53
            for max_norm in [1.0] + [norm * (1 + k * delta / 8) for k in range(-4, 13)]:
                if _quick_sum_decides(kernel, max_norm):
                    assert norm <= max_norm
                    decided += max_norm == 1.0
                    near += max_norm < norm * (1 + delta)
            kernel.clip_and_update(0.05, 1.0)
    assert decided > 300 and near > 300  # the guard decides for most of them


@pytest.mark.parametrize("n", [1, 497, 1681, 10 ** 5, 4 * 10 ** 7])
def test_clip_guard_margin_covers_the_rounding_bound(n):
    # the module docstring's bound, for n squares, u = 2^-53 and max_norm^2 = 1
    # (it scales): q >= (1-u)^n S - n eta and s <= (1+u)^n (S + n eta) for the
    # true sum S, with eta = 2^-1075 <= u max_norm^2 for a normal max_norm^2, and
    # the threshold is at most (1 - delta)(1+u)^3 + eta; so q below it gives
    # s <= ((1+u)/(1-u))^n ((1-delta)(1+u)^3 + u + n u) + (1+u)^n n u
    with localcontext() as ctx:
        ctx.prec = 60
        u = Decimal(2) ** -53
        delta = 4 * (n + 2) * u
        bound = (((1 + u) / (1 - u)) ** n * ((1 - delta) * (1 + u) ** 3 + u + n * u)
                 + (1 + u) ** n * n * u)
        assert bound <= 1 - 4 * u


def test_packed_params_are_views_in_param_keys_order():
    params = copied(init_params(3, 4, Rng(2)).arrays)
    kernel = packed(3, 4, params)
    assert list(kernel.arrays) == list(param_keys())
    layout = ([f"W_{g}" for g in GATES] + [f"U_{g}" for g in GATES]
              + [f"b_{g}" for g in GATES] + ["w_head", "b_head"])
    flat = np.concatenate([params[k].reshape(-1) for k in layout])
    assert kernel.theta.tobytes() == flat.tobytes()
    kernel.arrays["U_output"][1, 2] = 7.0
    assert kernel.U[2 * 4 + 1, 2] == 7.0
    assert params["U_output"][1, 2] != 7.0  # packing copied


def test_learner_predict_thresholds_reference_probability():
    rng = Rng(8)
    learner = LstmWeakLearner(TrainConfig(hidden_dim=5), "unrolled")
    learner.kernel = init_params(1, 5, rng)
    params = copied(learner.kernel.arrays)
    X = rng.uniform_array((20, 9), -3.0, 3.0)
    want = [1 if forward_sequence(params, list(x.reshape(-1, 1)))[0] >= 0.5
            else -1 for x in X]
    assert learner.predict(X).tolist() == want


def _assert_rows_within_drift_of_forward(kernel, X):
    """The stack of one of X against forward() of each row, per the drift policy."""
    scale = float(np.sum(np.abs(kernel.w_head))) + abs(float(kernel.b_head[0]))
    probs, logits = lstm.forward_stack([kernel], X)
    assert probs.shape == logits.shape == (1, len(X))
    for x, prob, logit in zip(X, probs[0].tolist(), logits[0].tolist()):
        want_prob = kernel.forward(x)
        want_logit = float(kernel.w_head @ kernel.trace.h_last) + float(kernel.b_head[0])
        assert abs(logit - want_logit) <= ROW_LOGIT_DRIFT * scale
        assert (prob >= 0.5) == (want_prob >= 0.5)
        if logit == want_logit:
            assert prob == want_prob  # the same head sigmoid


@pytest.mark.parametrize("mode", ["single", "unrolled"])
@pytest.mark.parametrize("hidden", [1, 5, 16])
def test_forward_rows_within_drift_of_per_row_forward(mode, hidden):
    assert SCORE_BLOCK_ROWS == 256  # the row counts below straddle its edges
    rng = Rng(40 + hidden)
    step_dim = 9 if mode == "single" else 1
    initial = init_params(step_dim, hidden, rng)
    scrambled = PackedLstm(step_dim, hidden)  # every entry live, biases and head bias too
    scrambled.theta[:] = rng.uniform_array(scrambled.theta.shape, -1.5, 1.5)
    for kernel in (initial, scrambled):
        for n in (1, 7, 256, 257, 600):
            _assert_rows_within_drift_of_forward(kernel, rng.uniform_array((n, 9), -3.0, 3.0))


@settings(max_examples=40)
@given(hidden=st.integers(1, 8), step_dim=st.sampled_from([9, 1]),
       n=st.one_of(st.integers(1, 8),
                   st.integers(SCORE_BLOCK_ROWS - 2, SCORE_BLOCK_ROWS + 24)),
       seed=st.integers(0, 2 ** 32), data=st.data())
def test_forward_rows_within_drift_for_drawn_cells(hidden, step_dim, n, seed, data):
    kernel = PackedLstm(step_dim, hidden)
    kernel.theta[:] = data.draw(arrays(np.float64, kernel.theta.shape,
                                       elements=st.floats(-1.5, 1.5)))
    _assert_rows_within_drift_of_forward(kernel, Rng(seed).uniform_array((n, 9), -3.0, 3.0))


def test_forward_rows_rejects_a_row_width_that_is_not_whole_steps():
    kernel = PackedLstm(9, 3)
    for shape in ((4, 8), (4, 0), (9,)):
        with pytest.raises(ValueError, match="forward_stack"):
            lstm.forward_stack([kernel], np.zeros(shape))


# --- the stacked scorer ----------------------------------------------------------

def _drawn_kernels(hiddens, mode, seed):
    """One kernel of each hidden_dim in hiddens, of the form mode trains, every
    entry uniform(-1.5, 1.5)."""
    rng = Rng(seed)
    kernels = []
    for hidden in hiddens:
        kernel = PackedLstm(step_dim(mode, 9), hidden, one_step=mode == "single")
        kernel.theta[:] = rng.uniform_array(kernel.theta.shape, -1.5, 1.5)
        kernels.append(kernel)
    return kernels


@settings(max_examples=60)
@given(mode=st.sampled_from(["single", "unrolled"]),
       pool=st.lists(st.integers(1, 32), min_size=1, max_size=3, unique=True),
       seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_stacked_rows_match_each_kernels_stack_of_one(mode, pool, seed, data):
    # K kernels mixing up to three hidden_dims, each shape stacked on its own
    hiddens = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
    rows_per_block = lstm.block_rows(max(hiddens.count(h) for h in pool))
    n = data.draw(st.one_of(
        st.integers(0, 600),
        st.builds(lambda m, off: min(max(m * rows_per_block + off, 0), 600),
                  st.integers(0, 600 // rows_per_block), st.integers(-1, 1))))
    kernels = _drawn_kernels(hiddens, mode, seed)
    X = Rng(seed + 1).uniform_array((n, 9), -3.0, 3.0)
    probs, logits = lstm.forward_stack(kernels, X)
    assert probs.shape == logits.shape == (len(kernels), n)
    votes = []
    for kernel, prob, logit in zip(kernels, probs, logits):
        (one_prob,), (one_logit,) = lstm.forward_stack([kernel], X)
        votes.append(np.where(one_prob >= 0.5, 1, -1))
        assert logit.tobytes() == one_logit.tobytes()
        assert prob.tobytes() == one_prob.tobytes()
    alphas = Rng(seed + 2).uniform_array((len(kernels),), 0.05, 2.0).tolist()
    rounds = []
    for a, kernel in zip(alphas, kernels):
        learner = LstmWeakLearner(TrainConfig(hidden_dim=kernel.hidden_dim), mode)
        learner.kernel = kernel
        rounds.append(BoostRound(alpha=a, learner=learner))
    labels, margins = ensemble_predict(Ensemble(rounds=rounds), X)
    want = [math.fsum(a * int(v[row]) for a, v in zip(alphas, votes)) for row in range(n)]
    assert margins.tolist() == want
    assert labels.tolist() == [1 if m > 0 else 0 for m in want]


@settings(max_examples=60)
@given(mode=st.sampled_from(["single", "unrolled"]), hidden=st.integers(1, 17),
       k=st.one_of(st.integers(1, 6), st.integers(MAX_STACK - 1, MAX_STACK + 9)),
       n=st.integers(1, 700), seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_a_rows_logits_are_bit_equal_alone_in_any_slice_and_any_stack(mode, hidden, k, n,
                                                                       seed, data):
    # a block holds whole column groups and its tail is padded to one, so a
    # row's sums do not depend on the other rows or the other kernels; this
    # is a property of the gemm kernel OpenBLAS picks at run time from the
    # CPU, so a kernel that lacks it shows here (the lstm module docstring)
    kernels = _drawn_kernels([hidden] * k, mode, seed)
    X = Rng(seed + 1).uniform_array((n, 9), -3.0, 3.0)
    _, logits = lstm.forward_stack(kernels, X)
    row = data.draw(st.integers(0, n - 1))
    assert lstm.forward_stack(kernels, X[row:row + 1])[1].tobytes() == \
        np.ascontiguousarray(logits[:, row:row + 1]).tobytes()
    start = data.draw(st.integers(0, n - 1))
    stop = data.draw(st.integers(start + 1, n))
    assert lstm.forward_stack(kernels, X[start:stop])[1].tobytes() == \
        np.ascontiguousarray(logits[:, start:stop]).tobytes()
    picked = data.draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=k + 2))
    assert lstm.forward_stack([kernels[j] for j in picked], X)[1].tobytes() == \
        logits[picked].tobytes()


@pytest.mark.parametrize("mode", ["single", "unrolled"])
def test_no_stacked_gemm_is_larger_than_one_kernels_at_the_block_rows(monkeypatch, mode):
    # BLAS starts threads above a gemm size, and the benchmark counts the CPU
    # time of every thread: a stack of K kernels takes SCORE_BLOCK_ROWS // K
    # rows per block, rounded down to whole column groups, and holds at most
    # MAX_STACK kernels. The activations see each block as (gates, K, H, rows).
    dim, hidden = step_dim(mode, 9), 3
    seen = []

    def recording(z, out=None):
        if np.ndim(z) == 4:
            seen.append(np.shape(z))
        return sigmoid(z, out)

    monkeypatch.setattr(lstm, "sigmoid", recording)
    for k in [*range(1, 65), SCORE_BLOCK_ROWS + 44]:
        seen.clear()
        lstm.forward_stack(_drawn_kernels([hidden] * k, mode, k), np.zeros((300, 9)))
        assert seen
        for gates, stack, h, rows in seen:
            assert stack <= min(k, MAX_STACK) and h == hidden
            # step 0 is one (3KH, D) @ (D, rows) gemm, a later step a
            # (4KH, D) @ (D, rows) one and K (4H, H) @ (H, rows) ones; at
            # D>1 a stacked W's height is padded to whole column groups
            m = (3 if gates == 2 else 4) * stack * h
            group = 1 if dim == 1 else SCORE_COLUMN_GROUP
            padded = lambda height: -(-height // group) * group
            assert padded(m) * rows * dim <= padded(m // stack) * SCORE_BLOCK_ROWS * dim
            assert 4 * h * rows * h <= 4 * h * SCORE_BLOCK_ROWS * h


# --- the one-step form ---------------------------------------------------------

SINGLE_LIVE_KEYS = ["W_input", "b_input", "W_output", "b_output", "W_candidate", "b_candidate",
                    "w_head", "b_head"]


@pytest.mark.parametrize("dim,hidden", [(9, 16), (9, 5), (1, 1), (3, 7)])
def test_one_step_kernel_holds_only_the_single_live_arrays(dim, hidden):
    kernel = PackedLstm(dim, hidden, one_step=True)
    assert kernel.theta.size == 3 * hidden * dim + 4 * hidden + 1
    assert list(kernel.arrays) == SINGLE_LIVE_KEYS == list(param_keys(one_step=True))
    assert sum(arr.size for arr in kernel.arrays.values()) == kernel.theta.size
    assert kernel.grad.size == kernel.theta.size


def test_one_step_init_draws_the_four_gate_weights():
    # the forget and U draws are taken and dropped: the live weights do not change
    four, one = init_params(9, 6, Rng(4)), init_params(9, 6, Rng(4), one_step=True)
    assert one.one_step and not four.one_step
    _assert_same_bits(one.arrays, {key: four.arrays[key] for key in SINGLE_LIVE_KEYS})


def _one_step_cases(seed, count):
    """(four-gate kernel, the one-step kernel of its seed, row, label, weight)."""
    rng = Rng(seed)
    for case in range(count):
        dim, hidden = rng.randint(1, 9), rng.randint(1, 17)
        four = init_params(dim, hidden, Rng(seed + case))
        one = init_params(dim, hidden, Rng(seed + case), one_step=True)
        x = rng.uniform_array((dim,), -2.0, 2.0)
        if case % 3 == 0:
            x[rng.randint(0, 1)::2] = 0.0  # exact zeros, whose products may be -0.0
        yield four, one, x, rng.randint(0, 1), rng.uniform(0.5, 2.0)


def test_one_step_gradient_equals_backward_on_its_arrays():
    # the oracle's arrays the kernel lacks take an exact zero gradient
    for _, kernel, x, y, w in _one_step_cases(70, 24):
        params = four_gate(kernel)
        want_prob, cache = forward_sequence(params, [x])
        want = backward(params, cache, y, w)
        assert kernel.forward(x) == want_prob == kernel.trace.prob
        kernel.backward(y, w)
        _assert_same_bits(kernel.grads, {key: want[key] for key in kernel.grads})
        dead = [key for key in param_keys() if key not in kernel.grads]
        _assert_same_bits({key: want[key] for key in dead},
                          {key: np.zeros_like(want[key]) for key in dead})


@pytest.mark.parametrize("max_norm", [1e-3, 1e6])
def test_one_step_clip_and_update_equals_four_gate_update(max_norm):
    # the clip norm of the one-step gradient is the four-gate one with its dead zeros
    for four, one, x, y, w in _one_step_cases(80 + int(max_norm > 1), 8):
        for kernel in (four, one):
            kernel.forward(x)
            kernel.backward(y, w)
        assert four.clip_and_update(0.3, max_norm) == one.clip_and_update(0.3, max_norm)
        _assert_same_bits(one.arrays, {key: four.arrays[key] for key in SINGLE_LIVE_KEYS})


def test_one_step_kernel_runs_rows_of_one_step_only():
    kernel = PackedLstm(3, 2, one_step=True)
    for width in (6, 2):
        with pytest.raises(ValueError, match="forward: a one-step kernel"):
            kernel.forward(np.zeros(width))
        with pytest.raises(ValueError, match=r"forward_stack: need an \(N, 3\) matrix"):
            lstm.forward_stack([kernel], np.zeros((4, width)))


@pytest.mark.parametrize("hidden", [1, 5, 10, 16, 17])
def test_one_step_forward_rows_within_drift_of_per_row_forward(hidden):
    rng = Rng(90 + hidden)
    initial = init_params(9, hidden, rng, one_step=True)
    scrambled = PackedLstm(9, hidden, one_step=True)
    scrambled.theta[:] = rng.uniform_array(scrambled.theta.shape, -1.5, 1.5)
    for kernel in (initial, scrambled):
        for n in (1, 7, 256, 257):
            _assert_rows_within_drift_of_forward(kernel, rng.uniform_array((n, 9), -3.0, 3.0))


@pytest.mark.parametrize("dim,hidden", [(9, 16), (9, 5), (1, 4), (3, 7)])
def test_step_zero_reads_no_forget_gate_parameter_and_no_u(dim, hidden):
    # step 0 runs from c_0 = h_0 = 0: a four-gate kernel whose forget gate and
    # U are NaN scores and differentiates a one-step row as the one-step
    # kernel of its live arrays does, and gives every dead entry +0.0
    rng = Rng(100 + dim + hidden)
    dead = [key for key in param_keys() if key not in SINGLE_LIVE_KEYS]
    assert dead == ["W_forget", "U_forget", "b_forget", "U_input", "U_output", "U_candidate"]
    for case in range(6):
        one = init_params(dim, hidden, rng, one_step=True)
        one.b[:] = rng.uniform_array(one.b.shape, -1.0, 1.0)
        four = packed(dim, hidden, one.arrays)
        for key in dead:
            four.arrays[key][...] = np.nan
        X = rng.uniform_array((7, dim), -2.0, 2.0)
        X[case % 2::2, rng.randint(0, dim - 1)] = 0.0  # exact zeros, whose products may be -0.0
        for a, b in zip(lstm.forward_stack([four], X), lstm.forward_stack([one], X)):
            assert a.tobytes() == b.tobytes()
        x, y, w = X[case], rng.randint(0, 1), rng.uniform(0.5, 2.0)
        assert np.float64(four.forward(x)).tobytes() == np.float64(one.forward(x)).tobytes()
        four.backward(y, w)
        one.backward(y, w)
        _assert_same_bits({key: four.grads[key] for key in SINGLE_LIVE_KEYS}, one.grads)
        _assert_same_bits({key: four.grads[key] for key in dead},
                          {key: np.zeros_like(four.grads[key]) for key in dead})


def test_one_step_grad_check_passes_and_notices_a_broken_gate():
    kernel = init_params(4, 3, Rng(5), one_step=True)
    x = Rng(6).uniform_array((4,), -2.0, 2.0)
    assert grad_check(kernel, x, 1, 1.2) < 1e-4
    assert grad_check(kernel, x, 1, 1.2, break_gate="input") > 0.5
    with pytest.raises(ValueError, match="no 'forget' gate"):
        grad_check(kernel, x, 1, 1.2, break_gate="forget")
