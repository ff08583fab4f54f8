"""LSTM binary classifier trained with per-sample weights by BPTT.

The cell is the standard four-gate LSTM: forget, input, and output gates
through sigmoids, a tanh candidate vector, cell state c_t = f*c + i*g and
hidden state h_t = o*tanh(c_t). A scalar sigmoid head on the final hidden
state produces the class probability. Training is per-example SGD on
weighted binary cross-entropy with a step-decay learning-rate schedule and
per-update L2 gradient clipping.

PackedLstm is the cell and the one form of its parameters: one contiguous
float64 vector holding W (4H, D), U (4H, H) and b (4H) with the gate blocks
stacked in GATES order, then w_head (H) and b_head (1), plus a gradient
buffer of the same layout, so an update is one clip over the whole vector
and one `theta -= lr * grad`. The gradient buffer is built on first use, so
a kernel that only scores holds theta alone. Its `arrays` are the per-key
views of that vector, param_keys(), which a model file stores;
init_params() fills them and train_weak_learner() trains and returns the
kernel itself. Per-example SGD and grad_check's finite-difference audit run
forward(), one example at a time; every prediction (each boosting round's
in-sample predict, the train report, evaluate and predict) runs
forward_stack() over a matrix of rows, for one kernel (forward_rows()) or
for all the learners of an ensemble at once.

Step 0 is the one-step cell. Every row starts from h_0 = c_0 = 0, where
the forget gate would multiply c_0 and every U would multiply h_0 (Gers,
Schmidhuber & Cummins 2000, "Learning to forget"). So step 0 of every row,
in forward(), backward() and forward_stack() alike, computes only the input,
output and candidate gates' W x + b, sets c_1 = i*g and reads no U; its
forget block of dpre stays 0. The reference's U @ h_0 adds +0.0, which
changes no sum whose bias term is not -0.0, and SGD never makes one; its
f*c_0 + i*g adds +0.0 to i*g, which can change only the sign of a zero c_1.
tanh(c_1) then reaches the logit through a sum that takes it as +-0 either
way, and the gradients through sums that start from +0.0. The forget gate
and U thus act from step 1 on: on rows of one step their gradients are
exact zeros and they never train. A kernel built with one_step=True holds
only what such rows read, W (3H, D) and b (3H) of ONE_STEP_GATES and the
head, 3H(D + 1) + H + 1 entries (497 of the four-gate 1681 at H=16, D=9),
and its arrays are param_keys(one_step=True), the ones a `single` model
stores. It runs the same forward(), backward() and forward_stack(), on rows
of one step only; its backward() closes without the sums over steps, its
one dpre row being the b gradient and dpre x^T the W gradient.
train_weak_learner() builds it for rows of one step and load_model() for
`single` models; rows of more than one step, and the `gradcheck` command's
audit, take the four-gate form.

Row layout: an example is one flat float64 row of T steps of D features laid
end to end, step t being row[t*D:(t+1)*D]. A dataset is the (N, T*D) matrix
of its rows, from data.encode to the kernel; step_dim() gives D for a
sequence mode.

forward() and backward() are bit-identical to the per-gate reference cell
kept in tests/lstm_oracle.py: same probabilities, gradients and trained
parameters to the last bit (tests/test_lstm_kernel.py checks this). Matrix
products stay per gate because BLAS sums a row of a stacked product in an
order that depends on the row's position.

Time-batched BPTT. Each time step of forward() and backward() does only the
recurrent work; what does not depend on the recurrence is done once over
the whole (T, .) trace (after Appleyard, Kocisky & Blunsom 2016, "Optimizing
Performance of Recurrent Neural Networks on GPUs"). forward() writes the
kernel's Trace, which backward() reads: gates (T, 4H) holds each step's
[f, i, o, 1] (f[0] stays 1), mult (T+1, 4H) its [c_prev, g, tanh(c), i] and
h (T+1, H) the hidden states from h_0 = 0. At D=1 the input products of all
T steps are one multiply. backward() first forms [1-f, 1-i, 1-o, 1-g^2,
1-tanh(c)^2] for all steps, then per step builds dpre from
[dc, dc, dh, dc] * mult[t], * gates[t] and * those factors, which is the
reference's association, ((dc*c_prev)*f)*(1-f) and so on, and the next dc as
dc*f + (dh*o)*(1-tanh(c)^2). The last step's dc is (dh*o)*(1-tanh(c)^2)
itself, where the reference adds it to a zero dc: again only the sign of a
zero can differ. It keeps
dpre's rows in a (T, 4H) buffer, row k holding step T-1-k. The W, b and U
gradients are then one axis-0 np.add.reduce each over those rows (times
x_t or h_prev for W and U), with initial=0.0. These reductions are exact:
an axis-0 reduction of a C-contiguous array adds its rows one after the
other, so each entry is 0.0 + s_{T-1} + ... + s_0, the reference's
accumulation into a zeroed gradient in its reverse loop. Starting from
+0.0, not from the first row, keeps a sum of -0.0 products (x_t = 0.0, as
in unrolled mode's one-hot steps) at +0.0; numpy's add reduction also starts
there by default, and initial=0.0 states it; a closing grad += 0.0 gives
the head's gradient, and a one-step kernel's, the same +0.0 start.
dh_prev = sum_g U_g^T dpre_g stays per step and per gate.

forward_rows() is not bit-identical, for the same reason: a row of a gemm is
not summed like a per-row gemv. Drift policy: a row's forward_rows() logit
is within ROW_LOGIT_DRIFT * (sum|w_head| + |b_head|), with ROW_LOGIT_DRIFT
= 16 eps, of its forward() logit, and equal logits give equal probabilities
through the same sigmoid. Measured: over 56,000 learner-rows of 16 trained
models (8 seeds, both sequence modes) 58% of logits were bit-equal, the
largest difference was 1.1e-16 (0.21 eps * (sum|w_head| + |b_head|)) and the
smallest |logit| 3.3e-6; over 36,000 rows of initial and uniform(-1.5, 1.5)
cells with H from 1 to 32 the largest was 1.52 eps * (sum|w_head| + |b_head|).
A vote (probability >= 0.5) can only differ for a row whose logit lies
within the bound of 0; none did, and train, predict and evaluate wrote
byte-identical files to the per-row path on all 16 of those runs.
tests/test_lstm_kernel.py asserts the bound and the votes.

The stacked scorer. forward_stack() scores the rows of X under K kernels
at once, which is how an ensemble votes: kernels of one shape are stacked
so that each block of rows takes one gemm and one pass of each activation
for all K, not K of each (the batching across independent products of
Appleyard, Kocisky & Blunsom 2016, here across learners). The stacked W and
b are laid out gate by gate, (G, K, H), so a block's state is (G, K, H,
rows), G = 3 at step 0 and 4 after it, and each activation reads one
contiguous slice; each kernel keeps its own (4H, H) @ (H, rows) product for
U. forward_rows() is forward_stack() of one kernel, so one code scores a
single learner and an ensemble. A block holds block_rows(K) =
SCORE_BLOCK_ROWS // K rows: a stacked gemm is K times one kernel's in its
gate dimension, and a gemm above a size threshold makes OpenBLAS start its
threads, whose CPU time adds up with the caller's. Shrunk so, no gemm is
larger than one kernel's at SCORE_BLOCK_ROWS, the size scoring has always
run; a stack holds at most SCORE_BLOCK_ROWS kernels, so a block has a row
at least. (On a 2-core VM with OpenBLAS 0.3.31, a 9-kernel stack at H=16
in 256-row blocks took 1.76-1.87 ms of process CPU time per 1000-row
ensemble_predict, about its wall time, against 1.71-1.75 ms in 28-row
blocks: that build kept one thread, and the rule bounds the gemm for any
build and core count.) A stacked logit is bit-equal to the kernel's own
forward_rows() logit when BLAS sums its row alike in both blocks. A row's
sum can depend on where the row sits in its block and on the block's
length, so the stacked logits fall under the drift policy above. Measured
against each kernel's forward_rows(): 2.3% of 773,090 rows of 120 stacks
of uniform(-1.5, 1.5) cells (K from 1 to 12, H from 1 to 32, both forms)
and 0.6% of 144,189 rows of 5 trained models were not bit-equal, the
largest difference 1.42 eps * (sum|w_head| + |b_head|), and no vote
differed; train, predict and evaluate wrote the files of the per-kernel
path.

The clip guard. clip_and_update() clips by the exact ordered norm: the
squares of grad, each key's own pairwise sum, the sums added in
param_keys() order, then sqrt(s) > max_norm. Most updates are not clipped,
so it first takes q = dot(grad, grad), summed in whatever order BLAS picks.
q and s sum the same n squares, each through at most n - 1 additions, so
each lies within gamma_n = nu/(1 - nu) of the true sum, relatively, plus
n * 2^-1075 for squares that underflow, with u = 2^-53 (Higham 2002,
"Accuracy and Stability of Numerical Algorithms", 3.1 and 4.2). Let
m = max_norm lie in [2^-511, 2^511], so that m^2 is a normal float and the
underflow term is at most n u m^2. Then q < m^2 (1 - delta), with
delta = 4(n + 2)u, gives s <= m^2: both sums' errors and the threshold's
own three roundings take 4(n + 1)u of delta to first order, and the whole
bound leaves s at least 4u m^2 below m^2 for any n up to 4 * 10^7
(tests/test_lstm_kernel.py evaluates it). So sqrt(s) <= m, and as m is a
float and sqrt is correctly rounded, so is the computed norm: the exact
path would not clip either. Such an update takes theta -= lr * grad at
once, the exact path's unclipped update; every other one, a NaN or inf q
included, takes the exact path as it was. The flag and theta thus never
depend on q's order, and no artifact sees it.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import TrainingError, UsageError
from .numerics import Rng, sigmoid

GATES = ("forget", "input", "output", "candidate")
# a one-step kernel's gates: at T = 1 the forget gate multiplies c_0 = 0
ONE_STEP_GATES = GATES[1:]

PROB_CLAMP = 1e-12

# rows per block of one kernel's forward_rows; a stack of K kernels takes
# SCORE_BLOCK_ROWS // K (block_rows), so the per-step temporaries stay
# (4, K, H, 256 // K) however many rows a file has
SCORE_BLOCK_ROWS = 256

# bound on |forward_stack() logit - forward() logit| per unit of
# sum|w_head| + |b_head|; see the module docstring
ROW_LOGIT_DRIFT = 16 * np.finfo(float).eps

# the max_norm range where PackedLstm.clip_and_update's quick sum may decide:
# max_norm^2 is then a normal float, so the bound in the module docstring holds
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
    """Binary cross-entropy scaled by the sample weight w.

    prob is clamped away from 0 and 1 before the logarithms.
    """
    p = min(max(prob, PROB_CLAMP), 1.0 - PROB_CLAMP)
    return w * (-y * math.log(p) - (1 - y) * math.log(1.0 - p))


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
    arrays lie in a kernel's theta: each gate's W (H, D), then each gate's U
    (H, H) (none one-step), then each gate's b (H,), then w_head (H,) and
    b_head (1,)."""
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
    """forward()'s record of one T-step row, laid out for backward(), with
    backward()'s work buffers. A kernel keeps one, as kernel.trace.

    gates (T, 4H): step t's [f, i, o, 1], its sigmoid gates and a block of
    ones. mult (T+1, 4H): step t's [c_prev, g, tanh(c), i], the factors
    dpre's first product takes; row T holds c_T in its first block, and the i
    block is copied from gates by backward(). h (T+1, H): h[0] = 0 and h[t+1]
    the hidden state after step t. c (T+1, H), g and tanh_c (T, H) and f, i,
    o (T, H) are named views of those buffers, h_last is h[T]; x is the row
    forward() ran and logit and prob its head's output. Step 0 is the one-step
    cell (see the module docstring): it computes no forget gate, so f[0] stays 1.

    factors (T, 5H) holds [1-f, 1-i, 1-o, 1-g^2, 1-tanh(c)^2] per step and
    dpre (T, 4H) the pre-activation gradients, row k holding step T-1-k; the
    forget block of step 0's row stays 0, and dpre0 is the rest of that row.
    first_step, forward_steps and backward_steps hold each step's views, so
    the step loops slice nothing; work is sigmoid's scratch.
    """

    def __init__(self, input_dim: int, hidden_dim: int, steps: int):
        d, h_dim = input_dim, hidden_dim
        n_sig = 3 * h_dim
        self.steps, self.x, self.logit, self.prob = steps, None, None, None
        self.pre = np.empty((steps, 4 * h_dim))
        self.gates = np.ones((steps, 4 * h_dim))  # forward() never writes the ones, nor f[0]
        self.mult = np.zeros((steps + 1, 4 * h_dim))  # nor c[0] = 0
        self.h = np.zeros((steps + 1, h_dim))  # nor h[0] = 0
        self.h_last = self.h[steps]
        self.c = self.mult[:, :h_dim]
        self.f, self.i, self.o = (self.gates[:, k * h_dim:(k + 1) * h_dim] for k in range(3))
        self.g = self.mult[:steps, h_dim:2 * h_dim]
        self.tanh_c = self.mult[:steps, 2 * h_dim:n_sig]
        self.uh, fc_ig, self.work = np.empty((4, h_dim)), np.empty(2 * h_dim), np.empty(n_sig)
        z = self.pre[0, h_dim:]  # step 0's input, output and candidate gates
        self.first_step = (z, z.reshape(3, h_dim), z[:2 * h_dim], z[2 * h_dim:],
                           self.gates[0, h_dim:n_sig], self.work[:2 * h_dim], self.g[0],
                           self.i[0], self.c[1], self.o[0], self.tanh_c[0], self.h[1])
        self.forward_steps = []  # steps 1 .. T-1, in forward()'s unpacking order
        for t in range(1, steps):
            z = self.pre[t]
            self.forward_steps.append((
                t, z, z.reshape(4, h_dim), z[:n_sig], z[n_sig:], self.gates[t, :n_sig], self.g[t],
                self.gates[t, :2 * h_dim], self.mult[t, :2 * h_dim], fc_ig, fc_ig[:h_dim],
                fc_ig[h_dim:], self.c[t + 1], self.o[t], self.tanh_c[t], self.h[t], self.h[t + 1]))

        self.factors = np.empty((steps, 5 * h_dim))
        self.dpre = np.zeros((steps, 4 * h_dim))
        self.dpre0 = self.dpre[steps - 1, h_dim:]
        self.dpre0_col = self.dpre0[:, None]
        self.dpre_cols = self.dpre[:, :, None]
        self.h_prev_rows = self.h[steps - 1:0:-1, None, :]  # h_prev of steps T-1 .. 1
        # the outer products each gradient sums, written in dpre's row order
        self.w_terms = np.empty((steps, 4 * h_dim, d))
        self.u_terms = np.empty((steps - 1, 4 * h_dim, h_dim))
        self.dh, self.dc, self.ddc = np.empty(h_dim), np.empty(h_dim), np.empty(h_dim)
        self.ud = np.empty((4, h_dim, 1))
        self.ud_rows = self.ud[..., 0]
        # the views backward() forms the factors through, and copies i into
        self.factor_views = (self.gates[:, :n_sig], self.factors[:, :n_sig],
                             self.mult[:steps, h_dim:n_sig], self.factors[:, n_sig:],
                             self.mult[:steps, n_sig:])
        # dc of step T-1 is (dh*o)*(1-tanh(c)^2) of its o and factor views
        self.last_dc = (self.o[steps - 1], self.factors[steps - 1, 4 * h_dim:])
        self.backward_steps = []  # (t, views in backward()'s unpacking order), t descending
        for t in range(steps - 1, -1, -1):
            row = self.dpre[steps - 1 - t]
            lo = 0 if t else h_dim  # step 0's views start at the input gate
            dp = row[lo:]
            # with f, and step t-1's o and 1-tanh(c)^2, which form that step's dc
            back = (None,) * 3
            if t:
                back = (self.f[t], self.o[t - 1], self.factors[t - 1, 4 * h_dim:])
            self.backward_steps.append((
                t, (self.tanh_c[t], self.mult[t, lo:].reshape(-1, h_dim), self.gates[t, lo:],
                    self.factors[t, lo:4 * h_dim], dp, dp.reshape(-1, h_dim),
                    row[2 * h_dim:n_sig], row.reshape(4, h_dim, 1)) + back))


class PackedLstm:
    """The cell's parameters in one float64 vector, with the training step.

    theta holds W (4H, D), U (4H, H) and b (4H), each stacking its gate
    blocks in GATES order, then w_head (H) and b_head (1); grad has the same
    layout. `arrays` holds the param_keys() views of theta: W_<gate> (H, D),
    U_<gate> (H, H), b_<gate> (H,), w_head (H,) and b_head (1,), which is
    what a model file stores; `grads` holds the same per-key views of grad,
    and `trace` the Trace of the last forward(), which backward() differentiates.

    Step 0 of every row is the one-step cell (see the module docstring), so
    it reads neither the forget gate's parameters nor any U. A one-step
    kernel (one_step=True) runs rows of that one step only and holds only
    what they read: W (3H, D) and b (3H) of ONE_STEP_GATES and the head,
    3H(D + 1) + H + 1 entries, with param_keys(one_step=True) as its arrays.
    Its backward() closes without the sums over steps: its one dpre row is
    the b gradient and dpre x^T the W gradient.

    Contract: bit-identical to the per-gate reference in tests/lstm_oracle.py.
    forward() returns the probability its forward_sequence() returns,
    backward() writes the gradient its backward() returns, and
    clip_and_update() clips by the norm of the dict of per-key gradients,
    summed in param_keys() order; an update whose dot(grad, grad) lies more
    than delta = 4(n + 2) 2^-53 below max_norm^2 skips that norm, which
    then cannot exceed max_norm (see the module docstring), so its flag and
    update are the norm's. Every entry sees the
    same floating-point operations in the same order; only the number of
    numpy calls differs. A one-step kernel's entries equal the reference's
    live entries; the reference's dead gradients are exact zeros, so its
    dead parameters keep their initial values and its clip norm adds only
    +0.0 for them.
    """

    def __init__(self, input_dim: int, hidden_dim: int, one_step: bool = False):
        if input_dim < 1 or hidden_dim < 1:
            raise ValueError("PackedLstm: input_dim and hidden_dim must be >= 1")
        d, h = input_dim, hidden_dim
        self.input_dim, self.hidden_dim, self.one_step = d, h, one_step
        self.theta = np.zeros(_packed_size(d, h, one_step))
        self.W, self.U, self.b, self.w_head, self.b_head = _named_blocks(self.theta, d, h,
                                                                         one_step)
        self.arrays = _key_views(self.W, self.U, self.b, self.w_head, self.b_head, h)
        # BLAS sums a row of one (4H, .) product in an order that depends on
        # the row's position, so products are batched over a gate axis:
        # numpy then makes the reference's per-gate BLAS call for each gate
        self._W3 = self.W.reshape(-1, h, d)
        self._w_col = self.W[:, 0]  # D=1: W_g @ x_t is x_t * this column
        # step 0's gates, the last three blocks of either form: input, output, candidate
        self._W0, self._b0 = self._W3[-3:], self.b[-3 * h:]
        self._U3 = self._UT3 = None
        if not one_step:
            self._U3 = self.U.reshape(4, h, h)
            self._UT3 = self._U3.transpose(0, 2, 1)
        self.trace = None

    @functools.cached_property
    def grad(self) -> np.ndarray:
        """The gradient vector, zero until backward(). Built on first use, with
        the views backward() writes through and clip_and_update()'s work
        buffer, as scoring reads none of them."""
        d, h, one_step = self.input_dim, self.hidden_dim, self.one_step
        grad, self._work = np.zeros(self.theta.size), np.zeros(self.theta.size)
        gW, gU, gb, self._g_w_head, self._g_b_head = _named_blocks(grad, d, h, one_step)
        self._g_gates = (gW, gU, gb)
        # squared gradient, then lr * gradient; one row per gate, so one
        # reduction gives the per-key sums of each kind
        sW, sU, sb, self._sq_w_head, self._sq_b_head = _named_blocks(self._work, d, h, one_step)
        self._sq_gates = tuple(block.reshape(len(self._W3), -1) for block in (sW, sU, sb)
                               if block is not None)
        # 1 - delta: the margin below max_norm^2 where the quick sum decides
        self._clip_keep = 1.0 - 4 * (grad.size + 2) * 2.0 ** -53
        return grad

    @functools.cached_property
    def grads(self) -> dict:
        """The param_keys() views of grad."""
        h = self.hidden_dim
        return _key_views(*_named_blocks(self.grad, self.input_dim, h, self.one_step), h)

    @classmethod
    def from_arrays(cls, input_dim: int, hidden_dim: int, arrays: dict,
                    one_step: bool = False) -> "PackedLstm":
        """A kernel holding a copy of arrays, keyed per param_keys(one_step);
        the arrays it is not given stay zero.

        Raises ValueError on an unknown key or an array of the wrong shape,
        before allocating anything, so the dimensions alone never size an
        allocation that the arrays do not fit.
        """
        shapes = array_shapes(input_dim, hidden_dim, one_step)
        checked = {}
        for key, arr in arrays.items():
            if key not in shapes:
                raise ValueError(f"unknown array {key!r}")
            arr, shape = np.asarray(arr, dtype=float), shapes[key]
            if arr.shape != shape:
                raise ValueError(f"array {key} has shape {arr.shape}, expected {shape}")
            checked[key] = arr
        kernel = cls(input_dim, hidden_dim, one_step)
        for key, arr in checked.items():
            kernel.arrays[key][...] = arr
        return kernel

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

    def forward(self, x: np.ndarray) -> float:
        """Run the cell from a zero state over the flat float64 row x of T*D
        features, step t being x[t*D:(t+1)*D]; sigmoid head on h_T.

        Returns the probability of class 1 and records the row in self.trace,
        which is rebuilt, and the row's width checked, only when the width
        changes. Step 0 is the one-step cell. At D=1 every step's input
        product W_g x_t is one product per entry, so all T are taken at once
        (step 0's forget entries among them, never read); at D>1 each step
        makes the per-gate W_g @ x_t. Raises ValueError when x is empty or
        its length is not a multiple of D, or not D for a one-step kernel.
        """
        d = self.input_dim
        trace = self.trace
        if trace is None or len(x) != len(trace.x):
            need = f"forward: {{needs}} a row of {{width}} features, got {len(x)}"
            trace = self.trace = Trace(d, self.hidden_dim, self._steps(len(x), need))
        trace.x = x
        W3, U3, b, uh = self._W3, self._U3, self.b, trace.uh
        if d == 1:  # a one-step kernel has no forget rows: it fills pre from the input gate on
            np.multiply(x[:, None], self._w_col, out=trace.pre[:, -len(b):])
        z, z3, z_sig, z_cand, sig, work, g, i, c, o, tanh_c, h = trace.first_step
        if d > 1:
            np.matmul(self._W0, x[:d], out=z3)
        z += self._b0
        sigmoid(z_sig, sig, work)
        np.tanh(z_cand, out=g)
        np.multiply(i, g, out=c)
        np.tanh(c, out=tanh_c)
        np.multiply(o, tanh_c, out=h)
        for t, z, z4, z_sig, z_cand, sig, g, fi, cg, fc_ig, fc, ig, c, o, tanh_c, h_prev, h \
                in trace.forward_steps:
            if d > 1:
                np.matmul(W3, x[t * d:(t + 1) * d], out=z4)
            np.matmul(U3, h_prev, out=uh)
            z4 += uh  # (W x + U h) + b, the reference's order
            z += b
            sigmoid(z_sig, sig, trace.work)
            np.tanh(z_cand, out=g)
            np.multiply(fi, cg, out=fc_ig)  # [f, i] * [c_prev, g]
            np.add(fc, ig, out=c)
            np.tanh(c, out=tanh_c)
            np.multiply(o, tanh_c, out=h)
        trace.logit = float(self.w_head @ trace.h_last) + float(self.b_head[0])
        trace.prob = sigmoid(trace.logit)
        return trace.prob

    def forward_rows(self, X) -> tuple:
        """Head probabilities and logits of the N rows of X, each run from a
        zero state: forward_stack() of this kernel alone."""
        probs, logits = forward_stack([self], X)
        return probs[0], logits[0]

    def backward(self, y: int, w: float) -> None:
        """BPTT of weighted_loss of the last forward() into self.grad, from self.trace.

        The factors that do not depend on dh or dc are formed for all T steps
        before the reverse loop, which then does only the recurrent work: dc,
        the four gates' dpre from [dc, dc, dh, dc] times the multiplier row
        [c_prev, g, tanh(c), i], then times [f, i, o, 1] and
        [1-f, 1-i, 1-o, 1-g^2], and dh_prev = sum_g U_g^T dpre_g. Step 0, the
        one-step cell, forms the input, output and candidate blocks only and
        no dh_prev, which is never used. The loop keeps each dpre row; W, b
        and U gradients are one reduction each afterwards (see the module
        docstring). A one-step kernel's one row needs no sums: its dpre is
        the b gradient and dpre x^T the W gradient.
        """
        grad = self.grad  # first: building grad builds _g_gates
        gW, gU, gb = self._g_gates
        trace = self.trace
        dlogit = w * (trace.prob - y)
        np.multiply(dlogit, trace.h_last, out=self._g_w_head)
        self._g_b_head[0] = dlogit
        sig, one_minus_sig, g_tanh_c, one_minus_sq, mult_i = trace.factor_views
        np.subtract(1.0, sig, out=one_minus_sig)
        np.square(g_tanh_c, out=one_minus_sq)  # g^2, tanh(c)^2
        np.subtract(1.0, one_minus_sq, out=one_minus_sq)
        np.copyto(mult_i, trace.i)
        dh, dc, ddc, ud, ud_rows = trace.dh, trace.dc, trace.ddc, trace.ud, trace.ud_rows
        np.multiply(dlogit, self.w_head, out=dh)
        o, one_minus_tc2 = trace.last_dc
        np.multiply(dh, o, out=dc)
        dc *= one_minus_tc2
        for t, (tanh_c, m4, s, one_minus, dp, dp4, dp_o, dp3, f, o_prev,
                one_minus_tc2_prev) in trace.backward_steps:
            np.multiply(m4, dc, out=dp4)
            np.multiply(dh, tanh_c, out=dp_o)  # the output gate's block takes dh
            dp *= s
            dp *= one_minus
            if t:  # dh and dc of step t-1
                # U_g.T @ d_g per gate, added to zeros in GATES order
                np.matmul(self._UT3, dp3, out=ud)
                np.add.reduce(ud_rows, axis=0, initial=0.0, out=dh)
                dc *= f
                np.multiply(dh, o_prev, out=ddc)
                ddc *= one_minus_tc2_prev
                dc += ddc  # dc*f + (dh*o)*(1-tanh(c)^2)
        if self.one_step:  # one row, so each sum is its one term
            np.copyto(gb, trace.dpre0)
            np.multiply(trace.dpre0_col, trace.x, out=gW)
        else:
            xs = trace.x.reshape(trace.steps, self.input_dim)
            np.add.reduce(trace.dpre, axis=0, initial=0.0, out=gb)
            np.multiply(trace.dpre_cols, xs[::-1, None, :], out=trace.w_terms)
            np.add.reduce(trace.w_terms, axis=0, initial=0.0, out=gW)
            np.multiply(trace.dpre_cols[:-1], trace.h_prev_rows, out=trace.u_terms)
            np.add.reduce(trace.u_terms, axis=0, initial=0.0, out=gU)  # 0 at T = 1
        grad += 0.0  # the reference's sums start from a zeroed gradient: -0.0 becomes +0.0

    def clip_and_update(self, lr: float, max_norm: float) -> bool:
        """Scale grad to L2 norm max_norm if above it, then theta -= lr * grad.

        Returns whether the gradient was clipped. One dot product decides
        most updates: below max_norm^2 * _clip_keep the exact ordered norm
        cannot exceed max_norm (see the module docstring), so the update
        needs no norm. Otherwise, and when max_norm^2 may not be a normal
        float, the exact norm decides, summed as the reference sums it.
        """
        grad = self.grad  # first: building grad builds _work
        sq = self._work
        if (_CLIP_GUARD_MIN <= max_norm <= _CLIP_GUARD_MAX
                and float(np.dot(grad, grad)) < max_norm * max_norm * self._clip_keep):
            np.multiply(grad, lr, out=sq)
            self.theta -= sq
            return False
        np.multiply(grad, grad, out=sq)
        # each key's own pairwise sum, added in param_keys() order: W, U, b
        # (W, b one-step) per gate, then the head (b_head's sum is its single
        # square). A one-step kernel's missing keys would add +0.0.
        sums = [np.add.reduce(block, axis=1).tolist() for block in self._sq_gates]
        total = 0.0
        for per_gate in zip(*sums):
            for s in per_gate:
                total += s
        total += float(np.add.reduce(self._sq_w_head))
        total += float(self._sq_b_head[0])
        norm = math.sqrt(total)
        clipped = norm > max_norm
        if clipped:
            self.grad *= max_norm / norm
        np.multiply(self.grad, lr, out=sq)
        self.theta -= sq
        return clipped


def block_rows(stack_size: int) -> int:
    """Rows per block of a stack of 1 to SCORE_BLOCK_ROWS kernels:
    SCORE_BLOCK_ROWS // stack_size. A stacked gemm is stack_size times one
    kernel's in its gate dimension, so none is larger than one kernel's at
    SCORE_BLOCK_ROWS rows; a larger gemm can make BLAS start its threads."""
    return SCORE_BLOCK_ROWS // stack_size


def forward_stack(kernels, X) -> tuple:
    """Head probabilities and logits, (K, N) each, of the N rows of X under
    each of the K kernels, row k of either being kernels[k]'s; each row runs
    from a zero state.

    X is (N, T*D), in the module docstring's row layout. Kernels of one
    shape, (input_dim, hidden_dim, one_step), run as one stack of at most
    SCORE_BLOCK_ROWS kernels; a shape's first kernel checks the width of X.
    Raises ValueError when X is not an (N, T*D) matrix of that kernel's D,
    or of D itself for a one-step kernel.
    """
    X = np.asarray(X, dtype=float)
    logits = np.empty((len(kernels), X.shape[0] if X.ndim == 2 else 0))
    by_shape = {}
    for index, kernel in enumerate(kernels):
        by_shape.setdefault((kernel.input_dim, kernel.hidden_dim, kernel.one_step),
                            []).append(index)
    for members in by_shape.values():
        for first in range(0, len(members), SCORE_BLOCK_ROWS):
            stack = members[first:first + SCORE_BLOCK_ROWS]
            logits[stack] = _stack_logits([kernels[k] for k in stack], X)
    return sigmoid(logits), logits


def _stack_logits(kernels, X: np.ndarray) -> np.ndarray:
    """The (K, N) head logits of the rows of X under K kernels of one shape.

    Rows go through the stack block_rows(K) at a time, so the working set
    does not grow with N. Within a block the state is held transposed and
    gate by gate, (G, K, H, rows), so that each activation reads one
    contiguous slice. Step 0 is the one-step cell, one (3KH, rows) gemm of
    the stacked input, output and candidate blocks; each later step is one
    (4KH, rows) gemm with each kernel's own (4H, H) @ (H, rows) product
    U @ h added, then b, as in forward().
    """
    first, k = kernels[0], len(kernels)
    d, h_dim = first.input_dim, first.hidden_dim
    need = f"forward_rows: need an (N, {{width}}) matrix, got shape {X.shape}"
    steps = first._steps(X.shape[1] if X.ndim == 2 else 0, need)
    W, U, b, w_head, b_head = _named_blocks(np.array([kernel.theta for kernel in kernels]),
                                            d, h_dim, first.one_step)
    # gate by gate: row (g, j, r) of the stacked W is row r of gate g of
    # kernels[j]; step 0 takes the last three gates, input, output, candidate
    gates = W.shape[1] // h_dim
    rows_per_block = block_rows(k)
    W = W.reshape(k, gates, h_dim, d).transpose(1, 0, 2, 3).reshape(gates * k * h_dim, d)
    # b repeated over a block's columns: a block's few columns make adding a
    # broadcast column dearer than adding an array of the block's shape
    b = b.reshape(k, gates, h_dim).transpose(1, 0, 2).reshape(gates * k * h_dim, 1)
    b = np.repeat(b, min(rows_per_block, X.shape[0]), axis=1)
    W0, b0 = W[-3 * k * h_dim:], b[-3 * k * h_dim:]
    w_head = w_head[:, None, :]
    logits = np.empty((k, X.shape[0]))
    for start in range(0, X.shape[0], rows_per_block):
        block = X[start:start + rows_per_block].T
        rows = block.shape[1]
        z = W0 @ block[:d]
        z += b0[:, :rows]
        z = z.reshape(3, k, h_dim, rows)
        sigmoid(z[:2], z[:2])  # in place: activations overwrite z
        np.tanh(z[2], out=z[2])
        c = z[0] * z[2]
        h = z[1] * np.tanh(c)  # (K, H, rows)
        for t in range(1, steps):
            z = W @ block[t * d:(t + 1) * d]
            z4 = z.reshape(4, k, h_dim, rows)
            z4 += np.matmul(U, h).reshape(k, 4, h_dim, rows).transpose(1, 0, 2, 3)
            z += b[:, :rows]
            sigmoid(z4[:3], z4[:3])
            np.tanh(z4[3], out=z4[3])
            c = z4[0] * c + z4[1] * z4[3]
            h = z4[2] * np.tanh(c)
        logits[:, start:start + rows] = np.matmul(w_head, h)[:, 0]
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
        kernel._U3[...] = draws[:, h * d:].reshape(len(GATES), h, h)
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
    # an overflow is caught by the checks below, not printed as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, cfg.max_epochs + 1):
            lr = learning_rate(cfg, epoch)
            order = list(range(n))
            rng.shuffle(order)
            epoch_losses = []
            for idx in order:
                y, w = labels[idx], norm_w[idx]
                epoch_losses.append(weighted_loss(kernel.forward(X[idx]), y, w))
                if not math.isfinite(kernel.trace.logit):
                    raise TrainingError(f"non-finite head logit at epoch {epoch}, example {idx}")
                kernel.backward(y, w)
                kernel.clip_and_update(lr, cfg.grad_clip)
            curve.losses.append(math.fsum(epoch_losses) / n)
            curve.learning_rates.append(lr)
    if not np.all(np.isfinite(kernel.theta)):  # the last updates' overflow, which no logit saw
        raise TrainingError("non-finite parameter after the last update")
    kernel.trace = None  # 98 kB at T=9, H=16, of no use to a learner that only scores
    return kernel, curve
