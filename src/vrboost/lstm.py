"""LSTM binary classifier trained with per-sample weights by BPTT.

The cell is the standard four-gate LSTM: forget, input, and output gates
through sigmoids, a tanh candidate vector, cell state c_t = f*c + i*g and
hidden state h_t = o*tanh(c_t). A scalar sigmoid head on the final hidden
state produces the class probability. Training is per-example SGD on
weighted binary cross-entropy with a step-decay learning-rate schedule and
per-update L2 gradient clipping.

Two implementations of the cell live here:

- the per-gate reference (forward_step, forward_sequence, backward,
  grad_check), which works on LstmParams' dict of 14 arrays and is audited
  against finite differences;
- PackedLstm, which training and prediction run: one contiguous float64
  vector holding W (4H, D), U (4H, H) and b (4H) with the gate blocks
  stacked in GATES order, then w_head (H) and b_head (1), plus a gradient
  buffer of the same layout, so an update is one clip over the whole vector
  and one `theta -= lr * grad`.

The packed kernel is bit-identical to the reference: same probabilities,
gradients and trained parameters to the last bit (tests/test_lstm_kernel.py
checks this against the dict-based loop in tests/lstm_oracle.py). Matrix
products stay per gate because BLAS sums a row of a stacked product in an
order that depends on the row's position.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import TrainingError
from .numerics import Rng, affine, sigmoid, tanh_act

GATES = ("forget", "input", "output", "candidate")

PROB_CLAMP = 1e-12


def param_keys() -> tuple:
    """Canonical parameter ordering: per gate W (input), U (recurrent), b; then head."""
    keys = []
    for gate in GATES:
        keys += [f"W_{gate}", f"U_{gate}", f"b_{gate}"]
    keys += ["w_head", "b_head"]
    return tuple(keys)


@dataclass
class LstmParams:
    """All trainable arrays, keyed per param_keys().

    W_<gate> is (H, D), U_<gate> is (H, H), b_<gate> is (H,); the head is
    w_head (H,) and b_head (1,). Everything float64.
    """

    input_dim: int
    hidden_dim: int
    arrays: dict

    def copy(self) -> "LstmParams":
        return LstmParams(self.input_dim, self.hidden_dim,
                          {k: v.copy() for k, v in self.arrays.items()})

    def __getitem__(self, key: str) -> np.ndarray:
        return self.arrays[key]


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


def init_params(input_dim: int, hidden_dim: int, rng: Rng) -> LstmParams:
    """Initialize weights uniform in [-1/sqrt(H), 1/sqrt(H)], biases zero.

    The forget-gate bias starts at +1 so the cell does not forget everything
    before training has a chance to move it. Draw order is fixed: for each
    gate in GATES order, W then U (row-major); biases are not drawn; head
    weights last.
    """
    if input_dim < 1 or hidden_dim < 1:
        raise ValueError("init_params: input_dim and hidden_dim must be >= 1")
    lim = 1.0 / math.sqrt(hidden_dim)
    arrays = {}
    for gate in GATES:
        arrays[f"W_{gate}"] = rng.uniform_array((hidden_dim, input_dim), -lim, lim)
        arrays[f"U_{gate}"] = rng.uniform_array((hidden_dim, hidden_dim), -lim, lim)
        arrays[f"b_{gate}"] = np.ones(hidden_dim) if gate == "forget" else np.zeros(hidden_dim)
    arrays["w_head"] = rng.uniform_array((hidden_dim,), -lim, lim)
    arrays["b_head"] = np.zeros(1)
    return LstmParams(input_dim, hidden_dim, arrays)


def forward_step(params: LstmParams, x_t: np.ndarray, state: LstmState):
    """One cell update; returns the new state and the step's forward trace."""
    x_t = np.asarray(x_t, dtype=float)
    pre = {}
    for gate in GATES:
        pre[gate] = affine(params[f"W_{gate}"], x_t, params[f"U_{gate}"], state.h,
                           params[f"b_{gate}"])
    f = sigmoid(pre["forget"])
    i = sigmoid(pre["input"])
    o = sigmoid(pre["output"])
    g = tanh_act(pre["candidate"])
    c = f * state.c + i * g
    tanh_c = tanh_act(c)
    h = o * tanh_c
    record = StepRecord(x=x_t, h_prev=state.h, c_prev=state.c, pre=pre,
                        gate={"forget": f, "input": i, "output": o, "candidate": g},
                        c=c, tanh_c=tanh_c, h=h)
    return LstmState(h=h, c=c), record


def forward_sequence(params: LstmParams, seq) -> tuple:
    """Run the cell over a sequence from a zero state; sigmoid head on h_T.

    Returns (probability of class 1, StepCache with the full trace).
    """
    if len(seq) == 0:
        raise ValueError("forward_sequence: empty sequence")
    state = zero_state(params.hidden_dim)
    steps = []
    for x_t in seq:
        state, record = forward_step(params, x_t, state)
        steps.append(record)
    logit = float(params["w_head"] @ state.h) + float(params["b_head"][0])
    prob = sigmoid(logit)
    return prob, StepCache(steps=steps, logit=logit, prob=prob)


def weighted_loss(prob: float, y: int, w: float) -> float:
    """Binary cross-entropy scaled by the sample weight w.

    prob is clamped away from 0 and 1 before the logarithms.
    """
    p = min(max(prob, PROB_CLAMP), 1.0 - PROB_CLAMP)
    return w * (-y * math.log(p) - (1 - y) * math.log(1.0 - p))


def _zero_grads(params: LstmParams) -> dict:
    return {k: np.zeros_like(v) for k, v in params.arrays.items()}


def backward(params: LstmParams, cache: StepCache, y: int, w: float,
             break_gate: str | None = None) -> dict:
    """Exact gradient of weighted_loss w.r.t. every parameter, via BPTT.

    break_gate is a verification hook: naming a gate zeroes that gate's
    W/U/b gradients so finite-difference checks can prove they would notice.
    """
    grads = _zero_grads(params)
    # head: d(loss)/d(logit) for sigmoid + cross-entropy
    dlogit = w * (cache.prob - y)
    h_last = cache.steps[-1].h
    grads["w_head"] += dlogit * h_last
    grads["b_head"] += dlogit
    dh = dlogit * params["w_head"]
    dc = np.zeros(params.hidden_dim)
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
        dh_prev = np.zeros_like(dh)
        for gate in GATES:
            d = dpre[gate]
            if gate != break_gate:
                grads[f"W_{gate}"] += np.outer(d, rec.x)
                grads[f"U_{gate}"] += np.outer(d, rec.h_prev)
                grads[f"b_{gate}"] += d
            dh_prev += params[f"U_{gate}"].T @ d
        dh = dh_prev
        dc = dc * f
    return grads


def grad_check(params: LstmParams, seq, y: int, w: float, eps: float = 1e-5,
               break_gate: str | None = None) -> float:
    """Max relative error between BPTT and central finite differences.

    For each parameter entry compares backward()'s value against
    (L(theta+eps) - L(theta-eps)) / (2 eps), where L is re-evaluated through
    the forward pass alone. Relative error is |a - n| / max(|a|, |n|, 1e-8).
    """
    if not 0.0 < eps <= 1e-3:
        raise ValueError("grad_check: eps must be in (0, 1e-3]")

    def loss_at(p: LstmParams) -> float:
        prob, _ = forward_sequence(p, seq)
        return weighted_loss(prob, y, w)

    prob, cache = forward_sequence(params, seq)
    analytic = backward(params, cache, y, w, break_gate=break_gate)
    worst = 0.0
    work = params.copy()
    for key in param_keys():
        arr = work.arrays[key]
        flat = arr.reshape(-1)
        aflat = analytic[key].reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + eps
            up = loss_at(work)
            flat[idx] = orig - eps
            down = loss_at(work)
            flat[idx] = orig
            numeric = (up - down) / (2.0 * eps)
            a = aflat[idx]
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, err)
    return worst


@dataclass
class TrainConfig:
    """SGD schedule and model-size settings for one weak learner."""

    max_epochs: int = 50
    initial_lr: float = 0.01
    lr_drop_factor: float = 0.1
    lr_drop_period: int = 10
    grad_clip: float = 1.0
    seed: int = 0
    hidden_dim: int = 16

    def __post_init__(self):
        if self.max_epochs < 1:
            raise ValueError("TrainConfig: max_epochs must be >= 1")
        if not self.initial_lr > 0:
            raise ValueError("TrainConfig: initial_lr must be > 0")
        if not 0 < self.lr_drop_factor <= 1:
            raise ValueError("TrainConfig: lr_drop_factor must be in (0, 1]")
        if self.lr_drop_period < 1:
            raise ValueError("TrainConfig: lr_drop_period must be >= 1")
        if not self.grad_clip > 0:
            raise ValueError("TrainConfig: grad_clip must be > 0")
        if self.hidden_dim < 1:
            raise ValueError("TrainConfig: hidden_dim must be >= 1")


def learning_rate(cfg: TrainConfig, epoch: int) -> float:
    """Step-decay schedule: initial_lr * factor^floor((epoch-1)/period), epoch 1-based."""
    return cfg.initial_lr * cfg.lr_drop_factor ** ((epoch - 1) // cfg.lr_drop_period)


@dataclass
class LossCurve:
    """Per-epoch mean weighted training loss and the learning rate applied."""

    losses: list = field(default_factory=list)
    learning_rates: list = field(default_factory=list)


def to_sequence(features: np.ndarray, mode: str = "single") -> list:
    """Adapt a flat feature vector to an input sequence.

    "single": one time step carrying the whole vector. "unrolled": one
    feature per time step (sequence length = feature count, input_dim 1).
    """
    features = np.asarray(features, dtype=float)
    if mode == "single":
        return [features]
    if mode == "unrolled":
        return [np.array([v]) for v in features]
    raise ValueError(f"to_sequence: unknown mode {mode!r}")


def _named_blocks(buf: np.ndarray, input_dim: int, hidden_dim: int) -> tuple:
    """Views W (4H, D), U (4H, H), b (4H), w_head (H), b_head (1) of a packed vector."""
    d, h = input_dim, hidden_dim
    u0 = 4 * h * d
    b0 = u0 + 4 * h * h
    head0 = b0 + 4 * h
    return (buf[:u0].reshape(4 * h, d), buf[u0:b0].reshape(4 * h, h), buf[b0:head0],
            buf[head0:head0 + h], buf[head0 + h:])


def _key_views(W, U, b, w_head, b_head, hidden_dim: int) -> dict:
    """The per-key arrays of param_keys() as views of the stacked gate blocks."""
    h = hidden_dim
    views = {}
    for k, gate in enumerate(GATES):
        rows = slice(k * h, (k + 1) * h)
        views[f"W_{gate}"], views[f"U_{gate}"], views[f"b_{gate}"] = W[rows], U[rows], b[rows]
    views["w_head"], views["b_head"] = w_head, b_head
    return views


def _sigmoid_into(z: np.ndarray, out: np.ndarray) -> None:
    """numerics.sigmoid without the masks: exp(-|z|) is exp(-z) where z >= 0
    and exp(z) elsewhere, so each entry takes the same branch and operations."""
    e = np.exp(-np.abs(z))
    np.divide(np.where(z >= 0, 1.0, e), 1.0 + e, out=out)


def _sigmoid_scalar(z: float) -> float:
    """numerics.sigmoid of one logit, through the same numpy exp."""
    if z >= 0:
        return float(1.0 / (1.0 + np.exp(-z)))
    ex = np.exp(z)
    return float(ex / (1.0 + ex))


class PackedLstm:
    """The cell's parameters in one float64 vector, with the training step.

    theta holds W (4H, D), U (4H, H) and b (4H), each stacking its gate
    blocks in GATES order, then w_head (H) and b_head (1); grad has the same
    layout. `params` is an LstmParams whose arrays are views of theta, so
    it serializes and feeds the per-gate reference functions unchanged.

    Contract: bit-identical to the per-gate reference. forward() returns the
    probability forward_sequence() returns, backward() writes the gradient
    backward() returns, and clip_and_update() clips by the norm of the dict
    of per-key gradients, summed in param_keys() order. Every entry sees the
    same floating-point operations in the same order; only the number of
    numpy calls differs.
    """

    def __init__(self, input_dim: int, hidden_dim: int):
        if input_dim < 1 or hidden_dim < 1:
            raise ValueError("PackedLstm: input_dim and hidden_dim must be >= 1")
        d, h = input_dim, hidden_dim
        self.input_dim, self.hidden_dim = d, h
        size = 4 * h * d + 4 * h * h + 5 * h + 1
        self.theta, self.grad = np.zeros(size), np.zeros(size)
        self._work = np.zeros(size)  # squared gradient, then lr * gradient
        self.W, self.U, self.b, self.w_head, self.b_head = _named_blocks(self.theta, d, h)
        self.params = LstmParams(d, h, _key_views(self.W, self.U, self.b, self.w_head,
                                                  self.b_head, h))
        gW, gU, gb, self._g_w_head, self._g_b_head = _named_blocks(self.grad, d, h)
        self._g_gates = (gW, gU, gb)
        self.grads = _key_views(gW, gU, gb, self._g_w_head, self._g_b_head, h)
        sW, sU, sb, self._sq_w_head, self._sq_b_head = _named_blocks(self._work, d, h)
        # one row per gate, so one reduction gives the four per-key sums
        self._sq_gates = (sW.reshape(4, -1), sU.reshape(4, -1), sb.reshape(4, -1))
        # BLAS sums a row of one (4H, .) product in an order that depends on
        # the row's position, so products are batched over a gate axis:
        # numpy then makes the reference's per-gate BLAS call for each gate
        self._W3, self._U3 = self.W.reshape(4, h, d), self.U.reshape(4, h, h)
        self._UT3 = self._U3.transpose(0, 2, 1)

    @classmethod
    def from_params(cls, params: LstmParams) -> "PackedLstm":
        """Pack a copy of params; raises ValueError on any array of the wrong shape."""
        kernel = cls(params.input_dim, params.hidden_dim)
        for key, view in kernel.params.arrays.items():
            arr = np.asarray(params.arrays[key], dtype=float)
            if arr.shape != view.shape:
                raise ValueError(f"array {key} has shape {arr.shape}, expected {view.shape}")
            view[...] = arr
        return kernel

    def forward(self, seq) -> tuple:
        """Run the cell from a zero state; sigmoid head on h_T.

        Returns (probability of class 1, h_T, per-step trace for backward).
        U @ h is skipped at step 0, where h is zero: U @ 0 adds +0.0, which
        changes no sum whose bias term is not -0.0, and SGD never makes one.
        """
        h_dim = self.hidden_dim
        n_sig = 3 * h_dim
        W3, U3, b = self._W3, self._U3, self.b
        h = c = np.zeros(h_dim)
        trace = []
        for t, x in enumerate(seq):
            x = np.asarray(x, dtype=float)
            z = W3 @ x + U3 @ h if t else W3 @ x
            z = z.reshape(-1)
            z += b
            act = np.empty(4 * h_dim)
            _sigmoid_into(z[:n_sig], act[:n_sig])
            np.tanh(z[n_sig:], out=act[n_sig:])
            f, i, o, g = act[:h_dim], act[h_dim:2 * h_dim], act[2 * h_dim:n_sig], act[n_sig:]
            c_prev, h_prev = c, h
            c = f * c_prev + i * g
            tanh_c = np.tanh(c)
            h = o * tanh_c
            trace.append((x, h_prev, c_prev, act, tanh_c))
        logit = float(self.w_head @ h) + float(self.b_head[0])
        return _sigmoid_scalar(logit), h, trace

    def backward(self, prob: float, y: int, w: float, h_last: np.ndarray, trace) -> None:
        """BPTT of weighted_loss into self.grad, accumulated into a zeroed buffer.

        dh_prev is built gate by gate and is not formed at step 0, where it
        is never used; neither is the U gradient there, whose input is zero.
        """
        h_dim = self.hidden_dim
        n_sig = 3 * h_dim
        gW, gU, gb = self._g_gates
        self.grad.fill(0.0)
        dlogit = w * (prob - y)
        self._g_w_head += dlogit * h_last
        self._g_b_head += dlogit
        dh = dlogit * self.w_head
        dc = np.zeros(h_dim)
        for t in range(len(trace) - 1, -1, -1):
            x, h_prev, c_prev, act, tanh_c = trace[t]
            f, i, o, g = act[:h_dim], act[h_dim:2 * h_dim], act[2 * h_dim:n_sig], act[n_sig:]
            dc = dc + dh * o * (1.0 - tanh_c ** 2)
            dpre = np.empty(4 * h_dim)
            np.multiply(dc, c_prev, out=dpre[:h_dim])
            np.multiply(dc, g, out=dpre[h_dim:2 * h_dim])
            np.multiply(dh, tanh_c, out=dpre[2 * h_dim:n_sig])
            np.multiply(dc, i, out=dpre[n_sig:])
            sig = act[:n_sig]
            dpre[:n_sig] = dpre[:n_sig] * sig * (1.0 - sig)
            dpre[n_sig:] = dpre[n_sig:] * (1.0 - g ** 2)
            gW += dpre[:, None] * x  # np.outer's products, without its wrapper
            gb += dpre
            if t:
                gU += dpre[:, None] * h_prev
                # U_g.T @ d_g per gate, added to zeros in GATES order
                dh = np.add.reduce((self._UT3 @ dpre.reshape(4, h_dim, 1))[..., 0],
                                   axis=0, initial=0.0)
                dc = dc * f

    def clip_and_update(self, lr: float, max_norm: float) -> bool:
        """Scale grad to L2 norm max_norm if above it, then theta -= lr * grad.

        Returns whether the gradient was clipped.
        """
        sq = self._work
        np.multiply(self.grad, self.grad, out=sq)
        # each key's own pairwise sum, added in param_keys() order: W, U, b
        # per gate, then the head (b_head's sum is its single square)
        sW, sU, sb = (np.add.reduce(block, axis=1).tolist() for block in self._sq_gates)
        total = 0.0
        for k in range(4):
            total += sW[k]
            total += sU[k]
            total += sb[k]
        total += float(np.add.reduce(self._sq_w_head))
        total += float(self._sq_b_head[0])
        norm = math.sqrt(total)
        clipped = norm > max_norm
        if clipped:
            self.grad *= max_norm / norm
        np.multiply(self.grad, lr, out=sq)
        self.theta -= sq
        return clipped


def train_weak_learner(examples, weights, cfg: TrainConfig):
    """Weighted SGD training; returns (LstmParams, LossCurve).

    examples is a list of (sequence, label in {0,1}); weights is one
    non-negative factor per example. Weights are renormalized to mean 1 so
    the loss curve sits on the same scale as unweighted training. Each epoch
    visits every example once in a freshly shuffled order (seeded); one
    gradient step per example, L2-clipped to cfg.grad_clip.
    """
    n = len(examples)
    if n == 0:
        raise ValueError("train_weak_learner: empty example list")
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (n,):
        raise ValueError("train_weak_learner: need exactly one weight per example")
    if np.any(weights < 0) or not np.all(np.isfinite(weights)):
        raise ValueError("train_weak_learner: weights must be finite and >= 0")
    total = math.fsum(weights)
    if total <= 0:
        raise ValueError("train_weak_learner: weights sum to zero")
    norm_w = weights * n / total

    rng = Rng(cfg.seed)
    input_dim = len(np.asarray(examples[0][0][0]))
    kernel = PackedLstm.from_params(init_params(input_dim, cfg.hidden_dim, rng))
    curve = LossCurve()
    for epoch in range(1, cfg.max_epochs + 1):
        lr = learning_rate(cfg, epoch)
        order = list(range(n))
        rng.shuffle(order)
        epoch_losses = []
        for idx in order:
            seq, y = examples[idx]
            w = norm_w[idx]
            prob, h_last, trace = kernel.forward(seq)
            loss = weighted_loss(prob, y, w)
            if not math.isfinite(loss):
                raise TrainingError(
                    f"non-finite loss at epoch {epoch}, example {idx}")
            epoch_losses.append(loss)
            kernel.backward(prob, y, w, h_last, trace)
            kernel.clip_and_update(lr, cfg.grad_clip)
        curve.losses.append(math.fsum(epoch_losses) / n)
        curve.learning_rates.append(lr)
    return kernel.params, curve
