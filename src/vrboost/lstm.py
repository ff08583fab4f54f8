"""LSTM binary classifier trained with per-sample weights by BPTT.

The cell is the standard four-gate LSTM: forget, input and output gates
through sigmoids, a tanh candidate g, c_t = f*c + i*g and h_t = o*tanh(c_t).
A scalar sigmoid head on the last hidden state gives the class probability.
Training is per-example SGD on weighted binary cross-entropy, with a
step-decay learning rate and per-update L2 gradient clipping.

Row layout. An example is one flat float64 row of T steps of D features laid
end to end, step t being row[t*D:(t+1)*D]; a dataset is the (N, T*D) matrix
of its rows, from data.encode to the kernel. step_dim() gives D for a
sequence mode.

PackedLstm holds the parameters in one float64 vector theta, W (4H, D),
U (4H, H) and b (4H) with the gate blocks in GATES order, then w_head (H)
and b_head (1), and its gradient in a vector of the same layout, so an
update is one clip over the whole vector and one theta -= lr * grad. Its
`arrays`, the param_keys() views of theta, are what a model file stores.
forward() runs one row, for per-example SGD and grad_check; forward_stack()
runs a matrix of rows under one kernel or a whole ensemble, and does all
scoring.

The one-step form. Every row starts from h_0 = c_0 = 0, where the forget
gate would multiply c_0 and U would multiply h_0 (Gers, Schmidhuber &
Cummins 2000, "Learning to forget"). So step 0 of every row computes only
the input, output and candidate gates' W x + b and sets c_1 = i*g. The
reference's U @ h_0 and f*c_0 add +0.0, which can change only the sign of a
zero, and no logit or gradient sees that sign. On rows of one step the
forget gate's and U's gradients are exact zeros, so a kernel built with
one_step=True holds only W (3H, D) and b (3H) of ONE_STEP_GATES and the
head, param_keys(one_step=True), which a `single` model stores.
train_weak_learner() and load_model() build it for rows of one step; longer
rows and the `gradcheck` command take the four-gate form.

Bit-identity with the reference. forward() and backward() give the
probabilities, gradients and trained parameters of the reference cell in
tests/lstm_oracle.py to the last bit (tests/test_lstm_kernel.py), and a
one-step kernel's entries are the reference's live ones. A later step's
recurrent products are whole: U h_{t-1} is one (4H, H) gemv, and so is
dh_prev = U^T dpre, the reference's from its four U blocks concatenated in
GATES order. W products stay per gate: BLAS sums a row of a stacked product
in an order that depends on the row's position, and step 0's (3H, D) block
puts rows where the reference's (4H, D) one does not. backward() does what
does not depend on the recurrence once over all T steps (after Appleyard,
Kocisky & Blunsom 2016, "Optimizing Performance of Recurrent Neural
Networks on GPUs") in the reference's association, at most with the two
operands of a product or a sum swapped, which IEEE arithmetic gives the
same bits; where the reference adds to a zero dc or dh, only the sign of a
zero can differ. The W, b and U gradients are axis-0 np.add.reduce sums
with initial=0.0, which add C-contiguous rows one after the other, 0.0 +
s_{T-1} + ... + s_0: the reference's accumulation into a zeroed gradient.
A closing grad += 0.0 turns -0.0 into +0.0, as that zeroed start does, so
the sign of a zero in dpre or dh reaches no gradient entry.

Row independence. forward_stack() gives a row the same logit bits scored
alone, in any slice of X and in any stack of kernels, so the train report
can take each boosting round's in-sample votes as the ensemble's. A gemm
sums the entries of a remainder register block (the last columns of a
width, or rows of a height, that fill no whole block) in another order than
those of full blocks, so each block of rows holds whole groups of
SCORE_COLUMN_GROUP columns, the tail padded with zero rows, and at D>1 each
stacked W is padded with zero rows to whole groups. This holds for the BLAS
kernels whose blocks divide SCORE_COLUMN_GROUP, not for every BLAS (README's
"Where the time goes" lists the OpenBLAS kernels checked); the
row-independence test of tests/test_lstm_kernel.py is its only guard.
forward_stack() is not bit-identical to forward(): a row of a gemm is not
summed like a gemv.

The clip guard. clip_and_update clips by the exact ordered norm: the
squares of grad, each key's own pairwise sum, the sums added in
param_keys() order, then sqrt(s) > max_norm. Most updates are not clipped,
so it first takes q = grad.dot(grad), summed in whatever order BLAS picks.
q and s sum the same n squares, each within gamma_n = nu/(1 - nu) of the
true sum, relatively, plus n * 2^-1075 for squares that underflow, with
u = 2^-53 (Higham 2002, "Accuracy and Stability of Numerical Algorithms",
3.1 and 4.2). For m = max_norm in [2^-511, 2^511], m^2 is a normal float
and the underflow term is at most n u m^2. Then q < m^2 (1 - delta), with
delta = 4(n + 2)u, gives s <= m^2: both sums' errors and the threshold's
own three roundings take 4(n + 1)u of delta to first order, and the whole
bound leaves s at least 4u m^2 below m^2 for any n up to 4 * 10^7
(tests/test_lstm_kernel.py evaluates it). So sqrt(s) <= m, and as m is a
float and sqrt is correctly rounded, the exact path would not clip either:
such an update takes theta -= lr * grad at once. Every other one, a NaN or
inf q included, takes the exact path, so the flag and theta never depend
on q's order.

The fixed cost of a step. Per-example SGD is sequential, so an update costs
about its number of numpy calls times a call's fixed cost. A kernel binds
its step once per row width (_bind_step) and its clip and update once
(_bind_update), as closures over the views and work buffers they use: a
call reads no attribute but the trace's x and prob, and calls its ufuncs by
local names with the output positional (numerics' positional-out rule). The
closures hold arrays and floats, never the kernel, so a kernel is freed by
reference counts. One update at T = 1 makes six Python calls: forward,
sigmoid_core, the head's sigmoid, weighted_loss, backward and
clip_and_update. README's "Where the time goes" gives the costs.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import TrainingError, UsageError
from .numerics import ONE, ZERO, Rng, sigmoid, sigmoid_core

GATES = ("forget", "input", "output", "candidate")
# a one-step kernel's gates: at T = 1 the forget gate multiplies c_0 = 0
ONE_STEP_GATES = GATES[1:]

PROB_CLAMP = 1e-12

# the scorer's block rule (block_rows) and row independence (module docstring)
SCORE_BLOCK_ROWS = 256
SCORE_COLUMN_GROUP = 8
MAX_STACK = SCORE_BLOCK_ROWS // SCORE_COLUMN_GROUP

# the max_norm range where the clip guard's quick sum may decide (module docstring)
_CLIP_GUARD_MIN, _CLIP_GUARD_MAX = 2.0 ** -511, 2.0 ** 511


def param_keys(one_step: bool = False) -> tuple:
    """Canonical parameter ordering: per gate W (input), U (recurrent), b; then head.

    With one_step, the arrays of a one-step kernel, which has no forget gate
    and no U (see PackedLstm): W and b of ONE_STEP_GATES, then the head.
    """
    keys = []
    for gate in ONE_STEP_GATES if one_step else GATES:
        keys += [f"W_{gate}", f"b_{gate}"] if one_step else [f"W_{gate}", f"U_{gate}", f"b_{gate}"]
    keys += ["w_head", "b_head"]
    return tuple(keys)


def weighted_loss(prob: float, y: int, w: float) -> float:
    """Binary cross-entropy scaled by the sample weight w, for a label y of 0 or 1.

    prob is clamped away from 0 and 1 before the logarithm. Only the label's
    log is taken: w * (-y log p - (1 - y) log(1 - p)) has the same bits, as
    the other term is 0 times a finite log, a signed zero, and -log of a
    clamped p or 1 - p is positive, which adding or subtracting a zero keeps.
    """
    p = min(max(prob, PROB_CLAMP), 1.0 - PROB_CLAMP)
    return w * -math.log(p if y else 1.0 - p)


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
            raise UsageError("TrainConfig: max_epochs must be >= 1")
        if not self.initial_lr > 0:
            raise UsageError("TrainConfig: initial_lr must be > 0")
        if not math.isfinite(self.initial_lr):
            raise UsageError("TrainConfig: initial_lr must be finite")
        if not 0 < self.lr_drop_factor <= 1:
            raise UsageError("TrainConfig: lr_drop_factor must be in (0, 1]")
        if self.lr_drop_period < 1:
            raise UsageError("TrainConfig: lr_drop_period must be >= 1")
        if not self.grad_clip > 0:
            raise UsageError("TrainConfig: grad_clip must be > 0")
        if self.hidden_dim < 1:
            raise UsageError("TrainConfig: hidden_dim must be >= 1")


def learning_rate(cfg: TrainConfig, epoch: int) -> float:
    """Step-decay schedule: initial_lr * factor^floor((epoch-1)/period), epoch 1-based."""
    return cfg.initial_lr * cfg.lr_drop_factor ** ((epoch - 1) // cfg.lr_drop_period)


@dataclass
class LossCurve:
    """Per-epoch mean weighted training loss and the learning rate applied."""

    losses: list = field(default_factory=list)
    learning_rates: list = field(default_factory=list)


# the tabular-to-sequence adapters, each a branch of step_dim
SEQUENCE_MODES = ("single", "unrolled")


def step_dim(mode: str, width: int) -> int:
    """Features per time step D of a width-feature row under a sequence mode.

    "single": one step carrying the whole row (D = width). "unrolled": one
    feature per step (D = 1, T = width).
    """
    if mode == "single":
        return width
    if mode == "unrolled":
        return 1
    raise ValueError(f"step_dim: unknown mode {mode!r}")


def array_shapes(input_dim: int, hidden_dim: int, one_step: bool = False) -> dict:
    """The shape of each param_keys(one_step) array, keyed in the order the
    arrays lie in a kernel's theta: every W, every U, every b, then the head."""
    d, h = input_dim, hidden_dim
    gates = ONE_STEP_GATES if one_step else GATES
    shapes = {f"W_{gate}": (h, d) for gate in gates}
    if not one_step:
        shapes.update({f"U_{gate}": (h, h) for gate in gates})
    shapes.update({f"b_{gate}": (h,) for gate in gates})
    shapes.update(w_head=(h,), b_head=(1,))
    return shapes


def _packed_size(input_dim: int, hidden_dim: int, one_step: bool) -> int:
    """Entries of a kernel's vector: 4H(D + H + 1) + H + 1, or 3H(D + 1) + H + 1 one-step."""
    d, h = input_dim, hidden_dim
    return (3 * h * (d + 1) if one_step else 4 * h * (d + h + 1)) + h + 1


def _named_blocks(buf: np.ndarray, input_dim: int, hidden_dim: int, one_step: bool) -> tuple:
    """Views W (4H, D), U (4H, H), b (4H), w_head (H), b_head (1) of a packed
    vector; one-step, W (3H, D), b (3H) and the head, with U None. Of a
    stack of K vectors, (K, size), each view has a leading K axis."""
    d, h = input_dim, hidden_dim
    rows = (3 if one_step else 4) * h
    u0 = rows * d
    b0 = u0 if one_step else u0 + rows * h
    head0 = b0 + rows
    lead = buf.shape[:-1]
    U = None if one_step else buf[..., u0:b0].reshape(lead + (rows, h))
    return (buf[..., :u0].reshape(lead + (rows, d)), U, buf[..., b0:head0],
            buf[..., head0:head0 + h], buf[..., head0 + h:])


def _key_views(W, U, b, w_head, b_head, hidden_dim: int) -> dict:
    """The per-key arrays of param_keys() as views of the stacked gate blocks;
    those of param_keys(one_step=True) when U is None."""
    h = hidden_dim
    views = {}
    for k, gate in enumerate(GATES if U is not None else ONE_STEP_GATES):
        rows = slice(k * h, (k + 1) * h)
        views[f"W_{gate}"] = W[rows]
        if U is not None:
            views[f"U_{gate}"] = U[rows]
        views[f"b_{gate}"] = b[rows]
    views["w_head"], views["b_head"] = w_head, b_head
    return views


class Trace:
    """forward()'s record of one T-step row, laid out for backward(); a
    kernel keeps one as kernel.trace.

    gates (T, 4H) holds step t's [f, i, o, 1] (f[0] stays 1: step 0 has no
    forget gate), mult (T+1, 4H) its [c_prev, g, tanh(c), i], the factors of
    dpre's first product (row T holds c_T; backward() copies i from gates),
    and h (T+1, H) the hidden states from h[0] = 0. factors (T, 5H) holds
    [1-f, 1-i, 1-o, 1-g^2, 1-tanh(c)^2] per step and dpre (T, 4H) the
    pre-activation gradients, row k holding step T-1-k. gates is
    C-contiguous, so its flat entries 4Ht-2H .. 4Ht+H are [o_{t-1}, 1, f_t],
    the window through which backward() forms step t-1's dc.
    """

    def __init__(self, hidden_dim: int, steps: int):
        h_dim = hidden_dim
        self.steps, self.x, self.logit, self.prob = steps, None, None, None
        self.pre = np.empty((steps, 4 * h_dim))
        self.gates = np.ones((steps, 4 * h_dim))  # forward() never writes the ones, nor f[0]
        self.mult = np.zeros((steps + 1, 4 * h_dim))  # nor c[0] = 0
        self.h = np.zeros((steps + 1, h_dim))  # nor h[0] = 0
        self.h_last = self.h[steps]
        self.c = self.mult[:, :h_dim]
        self.f, self.i, self.o = (self.gates[:, k * h_dim:(k + 1) * h_dim] for k in range(3))
        self.g = self.mult[:steps, h_dim:2 * h_dim]
        self.tanh_c = self.mult[:steps, 2 * h_dim:3 * h_dim]
        self.factors = np.empty((steps, 5 * h_dim))
        self.dpre = np.zeros((steps, 4 * h_dim))


def _bind_step(kernel: "PackedLstm", trace: Trace) -> tuple:
    """The kernel's SGD step over trace, (forward(x), backward(y, w)): the
    bodies of PackedLstm.forward() and backward() for rows of trace.steps
    steps, without forward()'s width check. Step 0 is written out in both;
    the later steps loop over views taken here once."""
    add, multiply, subtract, square, tanh, matmul, add_reduce = (
        np.add, np.multiply, np.subtract, np.square, np.tanh, np.matmul, np.add.reduce)
    d, h_dim, steps, one_step = kernel.input_dim, kernel.hidden_dim, trace.steps, kernel.one_step
    n_sig = 3 * h_dim
    one_row, all_inputs = steps == 1, d == 1
    W3, b, w_head, b_head = kernel._W3, kernel.b, kernel.w_head, kernel.b_head
    pre, gates, mult, h, factors, dpre = (trace.pre, trace.gates, trace.mult, trace.h,
                                          trace.factors, trace.dpre)
    i, o, c, g, tanh_c, h_last = trace.i, trace.o, trace.c, trace.g, trace.tanh_c, trace.h_last
    # a later step's one recurrent product each way, U h_prev and U^T dpre, as
    # (4H, H) gemvs; ndarray.dot reaches BLAS without matmul's dispatch
    U_dot, UT_dot = (None, None) if one_step else (kernel.U.dot, kernel.U.T.dot)
    # D=1: W_g x_t is x_t times W's column, so the input products of all T
    # steps are one multiply (step 0's forget entries among them, never
    # read); a one-step kernel has no forget rows and fills pre from the
    # input gate on. At D>1 each step makes the per-gate W_g @ x_t.
    w_col, pre_in = kernel.W[:, 0], pre[:, -len(b):]
    # step 0's gates, the last three blocks of either form: input, output, candidate
    W0, b0 = W3[-3:], b[-3 * h_dim:]
    z0 = pre[0, h_dim:]
    z0_3, z0_sig, z0_cand = z0.reshape(3, h_dim), z0[:2 * h_dim], z0[2 * h_dim:]
    sig0, g0, i0, c1, o0, tanh_c0, h1 = (gates[0, h_dim:n_sig], g[0], i[0], c[1], o[0],
                                         tanh_c[0], h[1])
    # sigmoid_core's (2, n) scratch buffers with their two halves, for step
    # 0's two sigmoid gates and a later step's three
    work0, work = np.empty((2, 2 * h_dim)), np.empty((2, n_sig))
    (low0, neg0), (low, neg) = work0, work
    uh, fc_ig = np.empty(4 * h_dim), np.empty(2 * h_dim)
    fc, ig = fc_ig[:h_dim], fc_ig[h_dim:]
    forward_steps = []  # steps 1 .. T-1, in forward()'s unpacking order
    for t in range(1, steps):
        z = pre[t]
        forward_steps.append((
            slice(t * d, (t + 1) * d), z, z.reshape(4, h_dim), z[:n_sig], z[n_sig:],
            gates[t, :n_sig], g[t], gates[t, :2 * h_dim], mult[t, :2 * h_dim], c[t + 1], o[t],
            tanh_c[t], h[t], h[t + 1]))

    def forward(x):
        trace.x = x
        if all_inputs:
            multiply(x[:, None], w_col, pre_in)
        else:  # at T = 1, x is step 0
            matmul(W0, x if one_row else x[:d], z0_3)
        add(z0, b0, z0)
        sigmoid_core(z0_sig, sig0, work0, low0, neg0)
        tanh(z0_cand, g0)
        multiply(i0, g0, c1)
        tanh(c1, tanh_c0)
        multiply(o0, tanh_c0, h1)
        for xt, z, z4, z_sig, z_cand, sig, g_t, fi, cg, c_t, o_t, tanh_c_t, h_prev, h_t \
                in forward_steps:
            if not all_inputs:
                matmul(W3, x[xt], z4)
            U_dot(h_prev, uh)
            add(z, uh, z)  # (W x + U h) + b, the reference's order
            add(z, b, z)
            sigmoid_core(z_sig, sig, work, low, neg)
            tanh(z_cand, g_t)
            multiply(fi, cg, fc_ig)  # [f, i] * [c_prev, g]
            add(fc, ig, c_t)
            tanh(c_t, tanh_c_t)
            multiply(o_t, tanh_c_t, h_t)
        # ndarray.dot of two vectors is the ddot that @ reaches, without its dispatch
        trace.logit = logit = float(w_head.dot(h_last)) + float(b_head[0])
        trace.prob = prob = sigmoid(logit)
        return prob

    grad = kernel.grad
    gW, gU, gb, g_w_head, g_b_head = _named_blocks(grad, d, h_dim, one_step)
    dlogit = np.zeros(())  # dL/dlogit, a 0-d operand (see numerics)
    # the views the factors are formed through, and i copied into
    sig_all, one_minus_sig = gates[:, :n_sig], factors[:, :n_sig]
    g_tanh_c, one_minus_sq, mult_i = (mult[:steps, h_dim:n_sig], factors[:, n_sig:],
                                      mult[:steps, n_sig:])
    # the multipliers [dc, dc, dh, dc, dc]: E[:4H] times a mult row is
    # [c_prev*dc, g*dc, tanh(c)*dh, i*dc], E[H:4H] pairs with step 0's row
    # and E[2H:] times a gates window is [dh*o_{t-1}, dc, dc*f_t]
    E = np.empty(5 * h_dim)
    dc, dc1, dh, dc3, dc4 = (E[k * h_dim:(k + 1) * h_dim] for k in range(5))
    E_row, E_step0, E_window = E[:4 * h_dim], E[h_dim:4 * h_dim], E[2 * h_dim:]
    # [dh*o_prev, dc, dc*f] of one step
    dc_terms = np.empty(3 * h_dim)
    dho, dcf = dc_terms[:h_dim], dc_terms[2 * h_dim:]
    # dc of step T-1 is (dh*o)*(1-tanh(c)^2) of its o and factor views
    o_last, one_minus_tc2_last = o[steps - 1], factors[steps - 1, 4 * h_dim:]
    flat_gates = gates.reshape(-1)
    backward_steps = []  # steps T-1 .. 1, in backward()'s unpacking order
    for t in range(steps - 1, 0, -1):
        row = dpre[steps - 1 - t]
        # with [o_{t-1}, 1, f_t] and step t-1's 1-tanh(c)^2, which form that step's dc
        backward_steps.append((
            mult[t], gates[t], factors[t, :4 * h_dim], row,
            flat_gates[4 * h_dim * t - 2 * h_dim:4 * h_dim * t + h_dim],
            factors[t - 1, 4 * h_dim:]))
    # step 0's views start at the input gate
    dp0 = dpre[steps - 1, h_dim:]
    m0, s0, one_minus0 = mult[0, h_dim:], gates[0, h_dim:], factors[0, h_dim:4 * h_dim]
    dp0_col = dp0[:, None]
    if not one_step:
        # the outer products each gradient sums, in dpre's row order, with
        # the 4H axis inner: U's (H, 4H) and W's (D, 4H), both seen transposed
        h_prev_cols, dpre_rows = h[steps - 1:0:-1, :, None], dpre[:-1, None, :]
        u_terms, gU_T = np.empty((steps - 1, h_dim, 4 * h_dim)), gU.T
        x_shape, all_dpre_rows = (steps, d, 1), dpre[:, None, :]
        w_terms, gW_T = np.empty((steps, d, 4 * h_dim)), gW.T

    def backward(y, w):
        dlogit[()] = w * (trace.prob - y)
        multiply(dlogit, h_last, g_w_head)
        g_b_head[0] = dlogit
        subtract(ONE, sig_all, one_minus_sig)
        square(g_tanh_c, one_minus_sq)  # g^2, tanh(c)^2
        subtract(ONE, one_minus_sq, one_minus_sq)
        mult_i[...] = i
        multiply(dlogit, w_head, dh)
        multiply(dh, o_last, dc)
        multiply(dc, one_minus_tc2_last, dc)
        dc1[...] = dc3[...] = dc4[...] = dc
        for m, s, one_minus, dp, window, one_minus_tc2_prev in backward_steps:
            multiply(m, E_row, dp)  # [c_prev*dc, g*dc, tanh(c)*dh, i*dc]
            multiply(dp, s, dp)
            multiply(dp, one_minus, dp)
            # dh and dc of step t-1: dh is U^T dpre, written into E's dh block
            UT_dot(dp, dh)
            multiply(E_window, window, dc_terms)
            multiply(dho, one_minus_tc2_prev, dho)
            add(dcf, dho, dc)  # dc*f + (dh*o)*(1-tanh(c)^2)
            dc1[...] = dc3[...] = dc4[...] = dc
        # step 0 forms no dh_prev, which is never used
        multiply(m0, E_step0, dp0)  # [g*dc, tanh(c)*dh, i*dc]
        multiply(dp0, s0, dp0)
        multiply(dp0, one_minus0, dp0)
        if one_step:  # one row, so each sum is its one term
            gb[...] = dp0
            multiply(dp0_col, trace.x, gW)
        else:
            add_reduce(dpre, axis=0, initial=0.0, out=gb)
            multiply(trace.x.reshape(x_shape)[::-1], all_dpre_rows, w_terms)
            add_reduce(w_terms, axis=0, initial=0.0, out=gW_T)
            multiply(h_prev_cols, dpre_rows, u_terms)
            add_reduce(u_terms, axis=0, initial=0.0, out=gU_T)  # 0 at T = 1
        # the reference's sums start from a zeroed gradient: -0.0 becomes +0.0
        add(grad, ZERO, grad)

    return forward, backward


class PackedLstm:
    """The cell's parameters in one float64 vector theta, with the training
    step (the module docstring gives the layout and the one-step form).
    `arrays` and `grads` are the param_keys(one_step) views of theta and
    grad; `trace` is the Trace of the last forward()."""

    def __init__(self, input_dim: int, hidden_dim: int, one_step: bool = False):
        if input_dim < 1 or hidden_dim < 1:
            raise ValueError("PackedLstm: input_dim and hidden_dim must be >= 1")
        d, h = input_dim, hidden_dim
        self.input_dim, self.hidden_dim, self.one_step = d, h, one_step
        self.theta = np.zeros(_packed_size(d, h, one_step))
        self.W, self.U, self.b, self.w_head, self.b_head = _named_blocks(self.theta, d, h,
                                                                         one_step)
        self.arrays = _key_views(self.W, self.U, self.b, self.w_head, self.b_head, h)
        # W by gate, (G, H, D): one BLAS product per gate, as the reference makes
        self._W3 = self.W.reshape(-1, h, d)
        self.trace = self._step = None

    @functools.cached_property
    def grad(self) -> np.ndarray:
        """The gradient vector, zero until backward(). Built on first use, when
        the first forward() binds the step, as scoring never reads it."""
        grad = np.zeros(self.theta.size)
        # 1 - delta: the margin below max_norm^2 where the quick sum decides
        self._clip_keep = 1.0 - 4 * (grad.size + 2) * 2.0 ** -53
        return grad

    @functools.cached_property
    def clip_and_update(self):
        """update(lr, max_norm) -> clipped: scale grad to L2 norm max_norm if
        above it (the module docstring's clip guard), then theta -= lr *
        grad. lr is a float or a 0-d float64 array. Bound on first use
        (_bind_update)."""
        return _bind_update(self)

    @functools.cached_property
    def grads(self) -> dict:
        """The param_keys() views of grad."""
        h = self.hidden_dim
        return _key_views(*_named_blocks(self.grad, self.input_dim, h, self.one_step), h)

    def _steps(self, width: int, need: str) -> int:
        """The steps T of a row of width features: width must be T*D with
        T >= 1, and T = 1 for a one-step kernel, which holds no U. Raises
        ValueError otherwise, its message need with {width} and {needs} filled in."""
        d = self.input_dim
        steps, rest = divmod(width, d)
        if rest or not steps or (self.one_step and steps > 1):
            if self.one_step:
                raise ValueError(need.format(width=d, needs="a one-step kernel needs"))
            raise ValueError(need.format(width=f"T*{d}", needs="need"))
        return steps

    def _bind(self, steps: int) -> tuple:
        """A new self.trace for rows of `steps` steps and the step bound over
        it (_bind_step), kept as self._step = (forward, backward) and returned."""
        self.trace = Trace(self.hidden_dim, steps)
        self._step = _bind_step(self, self.trace)
        return self._step

    def forward(self, x: np.ndarray) -> float:
        """The probability of class 1 of the flat float64 row x of T*D
        features, from a zero state; the row is recorded in self.trace. The
        trace and the step bound over it are rebuilt when the width changes.
        Raises ValueError when x is empty or its length is not a multiple of
        D, or not D for a one-step kernel."""
        trace = self.trace
        if trace is None or len(x) != len(trace.x):
            need = f"forward: {{needs}} a row of {{width}} features, got {len(x)}"
            self._bind(self._steps(len(x), need))
        return self._step[0](x)

    def backward(self, y: int, w: float) -> None:
        """BPTT of weighted_loss of the last forward() into self.grad."""
        self._step[1](y, w)


def _bind_update(kernel: PackedLstm):
    """kernel.clip_and_update: the quick path, which calls the exact one when
    the quick sum cannot decide. The closures hold no kernel or bound method
    of it: the kernel holds them, and a cycle would wait for the collector."""
    multiply, subtract, add_reduce = np.multiply, np.subtract, np.add.reduce
    theta, grad, keep = kernel.theta, kernel.grad, kernel._clip_keep  # building grad sets keep
    dot, low, high = grad.dot, _CLIP_GUARD_MIN, _CLIP_GUARD_MAX
    sq = np.zeros(theta.size)  # the squared gradient, then lr * gradient
    # one row per gate, so one reduction gives the per-key sums of each kind
    sW, sU, sb, sq_w_head, sq_b_head = _named_blocks(sq, kernel.input_dim, kernel.hidden_dim,
                                                     kernel.one_step)
    sq_gates = tuple(block.reshape(len(kernel._W3), -1) for block in (sW, sU, sb)
                     if block is not None)

    def exact(lr, max_norm):
        multiply(grad, grad, sq)
        # each key's own pairwise sum, added in param_keys() order: W, U, b
        # (W, b one-step) per gate, then the head (b_head's sum is its single
        # square). A one-step kernel's missing keys would add +0.0.
        sums = [add_reduce(block, axis=1).tolist() for block in sq_gates]
        total = 0.0
        for per_gate in zip(*sums):
            for s in per_gate:
                total += s
        total += float(add_reduce(sq_w_head))
        total += float(sq_b_head[0])
        norm = math.sqrt(total)
        clipped = norm > max_norm
        if clipped:
            multiply(grad, max_norm / norm, grad)
        multiply(grad, lr, sq)
        subtract(theta, sq, theta)
        return clipped

    def update(lr, max_norm):
        if low <= max_norm <= high and dot(grad) < max_norm * max_norm * keep:
            multiply(grad, lr, sq)
            subtract(theta, sq, theta)
            return False
        return exact(lr, max_norm)

    return update


def block_rows(stack_size: int) -> int:
    """Rows per block of a stack of 1 to MAX_STACK kernels: SCORE_BLOCK_ROWS
    // stack_size, rounded down to a multiple of SCORE_COLUMN_GROUP. A
    stacked gemm is stack_size times one kernel's in its gate dimension, so
    none is larger than one kernel's at SCORE_BLOCK_ROWS rows, however many
    rows a file has; a larger gemm can make BLAS start its threads, whose CPU
    time adds to the caller's. MAX_STACK leaves a block one column group."""
    return SCORE_BLOCK_ROWS // stack_size // SCORE_COLUMN_GROUP * SCORE_COLUMN_GROUP


def forward_stack(kernels, X) -> tuple:
    """Head probabilities and logits, (K, N) each, of the N rows of X under
    each of the K kernels, row k of either being kernels[k]'s; each row runs
    from a zero state.

    Kernels of one shape, (input_dim, hidden_dim, one_step), run in stacks
    of at most MAX_STACK, so that each block of rows takes one gemm and one
    pass of each activation for all of them. Raises ValueError when X is not
    an (N, T*D) matrix of a kernel's D, or of D itself for a one-step kernel.

    A finite weight can overflow a product to an inf pre-activation, which
    saturates its gate exactly at the limit (a sigmoid gives 0 or 1, tanh
    +-1), or an inf logit, whose probability is 0 or 1; numpy's overflow
    warning is off for that. Its invalid-value warning stays on, so that a
    NaN still shows.
    """
    X = np.ascontiguousarray(X, dtype=float)
    logits = np.empty((len(kernels), X.shape[0] if X.ndim == 2 else 0))
    by_shape = {}
    for index, kernel in enumerate(kernels):
        by_shape.setdefault((kernel.input_dim, kernel.hidden_dim, kernel.one_step),
                            []).append(index)
    with np.errstate(over="ignore"):
        for members in by_shape.values():
            for first in range(0, len(members), MAX_STACK):
                stack = members[first:first + MAX_STACK]
                logits[stack] = _stack_logits([kernels[k] for k in stack], X)
    return sigmoid(logits), logits


def _stack_logits(kernels, X: np.ndarray) -> np.ndarray:
    """The (K, N) head logits of the rows of X under K kernels of one shape,
    block_rows(K) rows at a time. A block's state is held transposed and
    gate by gate, (G, K, H, rows), so that each activation reads one
    contiguous slice; each kernel adds its own (4H, H) @ (H, rows) U h, then
    b, as forward() does. At D=1 an input product is a broadcast multiply,
    each entry the one product w*x that a k=1 gemm would sum as 0 + w*x."""
    first, k = kernels[0], len(kernels)
    d, h_dim = first.input_dim, first.hidden_dim
    need = f"forward_stack: need an (N, {{width}}) matrix, got shape {X.shape}"
    steps = first._steps(X.shape[1] if X.ndim == 2 else 0, need)
    W, U, b, w_head, b_head = _named_blocks(np.array([kernel.theta for kernel in kernels]),
                                            d, h_dim, first.one_step)
    # gate by gate: row (g, j, r) of the stacked W is row r of gate g of
    # kernels[j]; step 0 takes the last three gates, input, output, candidate
    gates = W.shape[1] // h_dim
    n, group = X.shape[0], SCORE_COLUMN_GROUP
    rows_per_block = block_rows(k)
    W = W.reshape(k, gates, h_dim, d).transpose(1, 0, 2, 3).reshape(gates * k * h_dim, d)
    # b repeated over a block's columns: a block's few columns make adding a
    # broadcast column dearer than adding an array of the block's shape
    b = b.reshape(k, gates, h_dim).transpose(1, 0, 2).reshape(gates * k * h_dim, 1)
    b = np.repeat(b, min(rows_per_block, -(-n // group) * group), axis=1)
    m0, m = 3 * k * h_dim, gates * k * h_dim
    W0, b0 = W[-m0:], b[-m0:]
    if d == 1:
        input_product = np.multiply
    else:
        # zero rows pad each stacked W to whole groups (row independence)
        input_product = np.matmul
        if m0 % group:
            W0 = np.concatenate([W0, np.zeros((-m0 % group, d))])
        if m % group:
            W = np.concatenate([W, np.zeros((-m % group, d))])
    w_head = w_head[:, None, :]
    logits = np.empty((k, n))
    for start in range(0, n, rows_per_block):
        block = X[start:start + rows_per_block]
        rows = len(block)
        if rows % group:
            block = np.concatenate([block, np.zeros((-rows % group, X.shape[1]))])
        block = block.T
        cols = block.shape[1]
        z = input_product(W0, block[:d])[:m0]
        z += b0[:, :cols]
        z = z.reshape(3, k, h_dim, cols)
        sigmoid(z[:2], z[:2])  # in place: activations overwrite z
        np.tanh(z[2], out=z[2])
        c = z[0] * z[2]
        h = z[1] * np.tanh(c)  # (K, H, cols)
        for t in range(1, steps):
            z = input_product(W, block[t * d:(t + 1) * d])[:m]
            z4 = z.reshape(4, k, h_dim, cols)
            z4 += np.matmul(U, h).reshape(k, 4, h_dim, cols).transpose(1, 0, 2, 3)
            z += b[:, :cols]
            sigmoid(z4[:3], z4[:3])
            np.tanh(z4[3], out=z4[3])
            c = z4[0] * c + z4[1] * z4[3]
            h = z4[2] * np.tanh(c)
        logits[:, start:start + rows] = np.matmul(w_head, h)[:, 0, :rows]
    logits += b_head
    return logits


def init_params(input_dim: int, hidden_dim: int, rng: Rng,
                one_step: bool = False) -> PackedLstm:
    """A kernel with weights uniform in [-1/sqrt(H), 1/sqrt(H)] and biases zero.

    The forget-gate bias starts at +1 so the cell does not forget everything
    before training has a chance to move it. Draw order is fixed: for each
    gate in GATES order, W then U (row-major), in one bulk draw; biases are
    not drawn; head weights last. A one-step kernel takes the same draws and
    drops the forget gate's and the U ones, so its weights are those of the
    four-gate kernel of the same seed.
    """
    d, h = input_dim, hidden_dim
    kernel = PackedLstm(d, h, one_step)
    lim = 1.0 / math.sqrt(h)
    draws = rng.uniform_array((len(GATES), h * (d + h)), -lim, lim)
    W3 = draws[:, :h * d].reshape(len(GATES), h, d)
    if one_step:
        kernel._W3[...] = W3[1:]
    else:
        kernel._W3[...] = W3
        kernel.U[...] = draws[:, h * d:].reshape(-1, h)
        kernel.arrays["b_forget"][...] = 1.0
    kernel.w_head[...] = rng.uniform_array((h,), -lim, lim)
    return kernel


def grad_check(kernel: PackedLstm, x: np.ndarray, y: int, w: float,
               break_gate: str | None = None) -> float:
    """Max relative error between PackedLstm's BPTT and central finite differences
    on the flat row x.

    For each entry of the packed parameter vector compares backward()'s value
    against the five-point central difference
    (-L(+2 eps) + 8 L(+eps) - 8 L(-eps) + L(-2 eps)) / (12 eps), where L is
    re-evaluated through forward() alone and eps = 1e-3. Its truncation error
    is O(eps^4), so eps can be large enough that the rounding of L, about
    u * L / eps, stays far below the smallest gradient entries the check
    scores. Relative error is |a - n| / max(|a|, |n|, 1e-8).
    break_gate is a verification hook: naming a gate zeroes that gate's
    W/U/b gradients so the check can prove it would notice. The kernel's
    grad is left holding the analytic gradient; theta ends as it began.
    """
    eps = 1e-3
    kernel.forward(x)
    kernel.backward(y, w)
    if break_gate is not None:
        broken = [key for key in kernel.grads if key.endswith(f"_{break_gate}")]
        if not broken:
            raise ValueError(f"grad_check: the kernel has no {break_gate!r} gate")
        for key in broken:
            kernel.grads[key][...] = 0.0
    theta, analytic = kernel.theta, kernel.grad
    worst = 0.0
    for k in range(theta.size):
        orig = theta[k]
        losses = []
        for step in (2.0 * eps, eps, -eps, -2.0 * eps):
            theta[k] = orig + step
            losses.append(weighted_loss(kernel.forward(x), y, w))
        theta[k] = orig
        up2, up, down, down2 = losses
        numeric = (8.0 * (up - down) - (up2 - down2)) / (12.0 * eps)
        a = analytic[k]
        err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
        worst = max(worst, err)
    return worst


def train_weak_learner(X: np.ndarray, labels, weights, cfg: TrainConfig, input_dim: int):
    """Weighted SGD training; returns (the trained PackedLstm, LossCurve).

    X is the (N, T*D) float64 matrix of example rows with D = input_dim;
    labels holds one {0,1} label and weights one non-negative factor per row.
    Weights are renormalized to mean 1 so the loss curve sits on the same
    scale as unweighted training. Each epoch visits every example once in a
    freshly shuffled order (seeded); one gradient step per example,
    L2-clipped to cfg.grad_clip. Rows of one step (T*D = D) train a one-step
    kernel, which holds and updates only the live parameters. Raises
    TrainingError at a head logit that is not finite, whose loss PROB_CLAMP
    may keep finite (a finite logit always has a finite loss), and when a
    parameter is not finite at the end, so that no inf reaches a model file.
    numpy's overflow and invalid-value warnings are off inside the SGD loop:
    those checks report its overflows instead.
    """
    X = np.asarray(X, dtype=float)
    n = len(X)
    if n == 0:
        raise ValueError("train_weak_learner: no examples")
    if X.ndim != 2 or X.shape[1] == 0 or X.shape[1] % input_dim:
        raise ValueError(f"train_weak_learner: need an (N, T*{input_dim}) matrix, "
                         f"got shape {X.shape}")
    labels, weights = np.asarray(labels), np.asarray(weights, dtype=float)
    if labels.shape != (n,) or weights.shape != (n,):
        raise ValueError("train_weak_learner: need exactly one label and one weight per example")
    labels = labels.tolist()
    if np.any(weights < 0) or not np.all(np.isfinite(weights)):
        raise ValueError("train_weak_learner: weights must be finite and >= 0")
    total = math.fsum(weights)
    if total <= 0:
        raise ValueError("train_weak_learner: weights sum to zero")
    # Python floats, so that no update does numpy-scalar arithmetic
    norm_w = (weights * n / total).tolist()

    rng = Rng(cfg.seed)
    kernel = init_params(input_dim, cfg.hidden_dim, rng, one_step=X.shape[1] == input_dim)
    curve = LossCurve()
    rows = list(X)  # the row views, taken once and not per update
    forward, backward = kernel._bind(X.shape[1] // input_dim)  # rows of one width
    trace, update, max_norm = kernel.trace, kernel.clip_and_update, cfg.grad_clip
    # an overflow is caught by the checks below, not printed as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, cfg.max_epochs + 1):
            lr = learning_rate(cfg, epoch)
            step_lr = np.array(lr)  # a 0-d operand for the update
            order = list(range(n))
            rng.shuffle(order)
            epoch_losses = []
            for idx in order:
                y, w = labels[idx], norm_w[idx]
                epoch_losses.append(weighted_loss(forward(rows[idx]), y, w))
                if not math.isfinite(trace.logit):
                    raise TrainingError(f"non-finite head logit at epoch {epoch}, example {idx}")
                backward(y, w)
                update(step_lr, max_norm)
            curve.losses.append(math.fsum(epoch_losses) / n)
            curve.learning_rates.append(lr)
    if not np.all(np.isfinite(kernel.theta)):  # the last updates' overflow, which no logit saw
        raise TrainingError("non-finite parameter after the last update")
    # the trace and its bound step, 98 kB at T=9, H=16, of no use to a learner that only scores
    kernel.trace = kernel._step = None
    return kernel, curve
