"""A walking tour of the LSTM cell and its gradients.

Run:  python demos/01_lstm_cell.py
"""

import numpy as np

from vrboost.lstm import GATES, PackedLstm, grad_check, init_params
from vrboost.numerics import Rng


# ---------------------------------------------------------------------------
# 1. A new PackedLstm holds all-zero weights, and with every weight at zero
#    the cell is perfectly agnostic: the sigmoid gates all emit 0.5, the
#    candidate vector is 0, and the state stays put. forward() takes one flat
#    row of T steps of input_dim features laid end to end, returns the
#    class-1 probability and keeps the row's trace as kernel.trace: per step,
#    the gate activations f, i, o, g and tanh(c), the states c and h from the
#    zero start on, and the last hidden state h_last. Every row starts from a
#    zero cell state, which the forget gate could only multiply, so step 0
#    does not compute that gate (its trace entry stays 1): the forget gate
#    first acts at step 1, and that is where this row of two steps shows it.
kernel = PackedLstm(input_dim=3, hidden_dim=2)
prob = kernel.forward(np.array([1.0, -2.0, 0.5, 0.3, 0.0, -1.0]))
trace = kernel.trace
print("zero-weight gates, each at the first step it acts:")
for gate, steps in zip(GATES, (trace.f, trace.i, trace.o, trace.g)):
    t = 1 if gate == "forget" else 0
    print(f"  {gate:<10} step {t} -> {steps[t]}")
print("  new hidden state ->", trace.h_last, f"  probability {prob}")

# ---------------------------------------------------------------------------
# 2. The gates really do decide what the cell keeps. Saturate the forget gate
#    open (bias +50) and let the candidate follow the input (tanh(x)): with
#    the input gate open (bias +50) the cell adds tanh(0.5) = 0.46 on every
#    step; slam it shut (bias -50) and nothing gets in.
arrays = kernel.arrays  # per-gate views of the packed vector
arrays["b_forget"][...] = 50.0
arrays["W_candidate"][:, 0] = 1.0
sequence = np.full(4 * 3, 0.5)  # 4 steps of 3 features
print()
for label, bias in (("open", 50.0), ("shut", -50.0)):
    arrays["b_input"][...] = bias
    kernel.forward(sequence)
    cells = kernel.trace.c[1:4, 0]  # c[0] is the zero start, c[t] the cell after step t
    print(f"input gate {label}: cell after steps 1-3 ->", " ".join(f"{c:.3g}" for c in cells))

# ---------------------------------------------------------------------------
# 3. A small random cell driving the sigmoid head: probabilities live
#    strictly inside (0, 1) and the trace keeps what backward() needs.
rng = Rng(42)
kernel = init_params(input_dim=3, hidden_dim=4, rng=rng)
sequence = rng.uniform_array((5 * 3,), -1, 1)
prob = kernel.forward(sequence)
print(f"\n5-step sequence -> class-1 probability {prob:.4f} ({kernel.trace.steps} steps traced)")

# ---------------------------------------------------------------------------
# 4. The backward pass is exact. Compare every parameter's gradient against
#    central finite differences: the worst relative error is tiny, and
#    deliberately zeroing one gate's gradient is caught immediately.
err = grad_check(kernel, sequence, y=1, w=1.0)
broken = grad_check(kernel, sequence, y=1, w=1.0, break_gate="candidate")
print(f"\ngradient check: healthy {err:.2e}, candidate gate zeroed {broken:.2e}")
