"""The LSTM reference cell and its dict-based SGD loop.

forward_step, forward_sequence and backward work on a plain dict of the 14
param_keys() arrays, one `W @ x + U h + b` per gate; none of them calls the
packed kernel. The recurrent products are whole-matrix: U_all, the four U
blocks concatenated in GATES order, gives each step's U h as U_all @ h, one
(4H, H) product whose gate blocks are added, and dh_prev as zero plus
U_all.T @ dpre_all, dpre's four blocks concatenated. W products stay per
gate. oracle_train runs them
per example: forward_sequence -> backward -> clip over the dict of
gradients -> per-key update, with the same weight normalization, RNG draws,
shuffle and loss curve as train_weak_learner, on its own copy of the
arrays init_params() draws. The packed kernel in
`vrboost.lstm` must reproduce its probabilities, gradients, parameters and
loss curve bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np

from vrboost.lstm import (GATES, LossCurve, PackedLstm, init_params, learning_rate,
                          param_keys, weighted_loss)
from vrboost.numerics import Rng, sigmoid


@dataclass
class LstmState:
    """Hidden and cell vectors, both length H."""

    h: np.ndarray
    c: np.ndarray


def zero_state(hidden_dim: int) -> LstmState:
    return LstmState(np.zeros(hidden_dim), np.zeros(hidden_dim))


@dataclass
class StepRecord:
    """Forward trace of one time step (inputs, gate pre-activations, activations)."""

    x: np.ndarray
    h_prev: np.ndarray
    c_prev: np.ndarray
    pre: dict        # gate name -> pre-activation vector
    gate: dict       # gate name -> activation vector
    c: np.ndarray
    tanh_c: np.ndarray
    h: np.ndarray


@dataclass
class StepCache:
    """Full forward trace of a sequence plus the head outputs."""

    steps: list
    logit: float
    prob: float


def copied(arrays: dict) -> dict:
    """A plain dict holding a copy of each array, for the oracle to own."""
    return {key: np.array(arr) for key, arr in arrays.items()}


def packed(input_dim: int, hidden_dim: int, arrays: dict,
           one_step: bool = False) -> PackedLstm:
    """A new PackedLstm holding a copy of arrays, some of its
    param_keys(one_step) arrays by key; the others stay zero."""
    kernel = PackedLstm(input_dim, hidden_dim, one_step)
    for key, arr in arrays.items():
        kernel.arrays[key][...] = arr
    return kernel


def four_gate(kernel) -> dict:
    """The oracle's dict of a kernel's arrays, all 14 param_keys(): those a
    one-step kernel lacks are zero, which a one-step row never reads, as its
    forget gate multiplies c_0 = 0 and every U the zero h_0."""
    return copied(packed(kernel.input_dim, kernel.hidden_dim, kernel.arrays).arrays)


def stacked_u(params: dict) -> np.ndarray:
    """U_all (4H, H): the four U blocks of params, concatenated in GATES order."""
    return np.concatenate([params[f"U_{gate}"] for gate in GATES])


def forward_step(params: dict, x_t: np.ndarray, state: LstmState):
    """One cell update; returns the new state and the step's forward trace."""
    x_t = np.asarray(x_t, dtype=float)
    uh = stacked_u(params) @ state.h
    h_dim = len(state.h)
    pre = {}
    for k, gate in enumerate(GATES):
        pre[gate] = (params[f"W_{gate}"] @ x_t + uh[k * h_dim:(k + 1) * h_dim]
                     + params[f"b_{gate}"])
    f = sigmoid(pre["forget"])
    i = sigmoid(pre["input"])
    o = sigmoid(pre["output"])
    g = np.tanh(pre["candidate"])
    c = f * state.c + i * g
    tanh_c = np.tanh(c)
    h = o * tanh_c
    record = StepRecord(x=x_t, h_prev=state.h, c_prev=state.c, pre=pre,
                        gate={"forget": f, "input": i, "output": o, "candidate": g},
                        c=c, tanh_c=tanh_c, h=h)
    return LstmState(h=h, c=c), record


def forward_sequence(params: dict, seq) -> tuple:
    """Run the cell over a sequence from a zero state; sigmoid head on h_T.

    Returns (probability of class 1, StepCache with the full trace).
    """
    if len(seq) == 0:
        raise ValueError("forward_sequence: empty sequence")
    state = zero_state(len(params["w_head"]))
    steps = []
    for x_t in seq:
        state, record = forward_step(params, x_t, state)
        steps.append(record)
    logit = float(params["w_head"] @ state.h) + float(params["b_head"][0])
    prob = sigmoid(logit)
    return prob, StepCache(steps=steps, logit=logit, prob=prob)


def backward(params: dict, cache: StepCache, y: int, w: float) -> dict:
    """Exact gradient of weighted_loss w.r.t. every parameter, via BPTT."""
    grads = {k: np.zeros_like(v) for k, v in params.items()}
    # head: d(loss)/d(logit) for sigmoid + cross-entropy
    dlogit = w * (cache.prob - y)
    h_last = cache.steps[-1].h
    grads["w_head"] += dlogit * h_last
    grads["b_head"] += dlogit
    dh = dlogit * params["w_head"]
    dc = np.zeros_like(dh)
    U_all = stacked_u(params)
    for rec in reversed(cache.steps):
        f = rec.gate["forget"]
        i = rec.gate["input"]
        o = rec.gate["output"]
        g = rec.gate["candidate"]
        do = dh * rec.tanh_c
        dc = dc + dh * o * (1.0 - rec.tanh_c ** 2)
        df = dc * rec.c_prev
        di = dc * g
        dg = dc * i
        dpre = {
            "forget": df * f * (1.0 - f),
            "input": di * i * (1.0 - i),
            "output": do * o * (1.0 - o),
            "candidate": dg * (1.0 - g ** 2),
        }
        for gate in GATES:
            d = dpre[gate]
            grads[f"W_{gate}"] += np.outer(d, rec.x)
            grads[f"U_{gate}"] += np.outer(d, rec.h_prev)
            grads[f"b_{gate}"] += d
        dh = np.zeros_like(dh) + U_all.T @ np.concatenate([dpre[gate] for gate in GATES])
        dc = dc * f
    return grads


def squared_norm(grads: dict) -> float:
    """The squared global L2 norm of a dict of gradient arrays, summed in its key order."""
    return sum(float(np.sum(v * v)) for v in grads.values())


def clip_norm(grads: dict) -> float:
    """The global L2 norm that clip_gradient compares."""
    return math.sqrt(squared_norm(grads))


def clip_gradient(grads: dict, max_norm: float) -> bool:
    """Scale every gradient array by one factor when the global L2 norm exceeds
    max_norm; returns whether it did."""
    norm = clip_norm(grads)
    if norm > max_norm:
        scale = max_norm / norm
        for v in grads.values():
            v *= scale
        return True
    return False


def oracle_train(examples, weights, cfg):
    """(dict of trained arrays, LossCurve, clipped updates) of the dict-based
    training loop."""
    n = len(examples)
    weights = np.asarray(weights, dtype=float)
    norm_w = weights * n / math.fsum(weights)
    rng = Rng(cfg.seed)
    input_dim = len(np.asarray(examples[0][0][0]))
    params = copied(init_params(input_dim, cfg.hidden_dim, rng).arrays)
    curve = LossCurve()
    clipped = 0
    for epoch in range(1, cfg.max_epochs + 1):
        lr = learning_rate(cfg, epoch)
        order = list(range(n))
        rng.shuffle(order)
        epoch_losses = []
        for idx in order:
            seq, y = examples[idx]
            prob, cache = forward_sequence(params, seq)
            epoch_losses.append(weighted_loss(prob, y, norm_w[idx]))
            grads = backward(params, cache, y, norm_w[idx])
            clipped += clip_gradient(grads, cfg.grad_clip)
            for key in param_keys():
                params[key] -= lr * grads[key]
        curve.losses.append(math.fsum(epoch_losses) / n)
        curve.learning_rates.append(lr)
    return params, curve, clipped
