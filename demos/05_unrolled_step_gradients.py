"""Where an unrolled learner's gradient lands, step by step.

In `unrolled` mode each of the nine encoded features is one LSTM step
(D = 1, T = 9), read in encode order, and the head sees only the last
hidden state. This demo trains one such learner by hand with forward(),
backward() and clip_and_update(), as train_weak_learner() does, and after
each epoch prints the mean over examples of each step's pre-activation
gradient norm ||dpre_t||, which backward() leaves in kernel.trace.dpre (row
k holds step T-1-k). The default protocol and feature order are kept.

Run:  python demos/05_unrolled_step_gradients.py
"""

import math

import numpy as np

from vrboost.data import (GENDERS, HEADSETS, TargetSpec, apply_standardizer, encode,
                          encode_labels, fit_standardizer, gen_synthetic)
from vrboost.lstm import (TrainConfig, init_params, learning_rate, step_dim,
                          weighted_loss)
from vrboost.numerics import Rng

# 1. 300 synthetic records, encoded and standardized as `train` does. The
#    generator's strongest coefficient is on MotionSickness, step 2 here.
table = gen_synthetic(n=300, seed=1, signal_strength=4.0)
X, labels = encode(table, TargetSpec()), encode_labels(table, TargetSpec()).tolist()
X = apply_standardizer(fit_standardizer(X), X)
names = ("Age", "Duration", "MotionSickness") + GENDERS + HEADSETS

# 2. One unrolled learner at the reference settings (H=16, lr 0.01, clip 1),
#    three epochs of per-example SGD with unit weights.
cfg = TrainConfig(max_epochs=3, hidden_dim=16, seed=1)
rng = Rng(cfg.seed)
kernel = init_params(step_dim("unrolled", X.shape[1]), cfg.hidden_dim, rng)
rows = []  # each epoch's mean norms
print("mean ||dpre_t|| per step, step 0 first:")
print("epoch  loss  " + " ".join(f"{t:>7}" for t in range(len(names))))
for epoch in range(1, cfg.max_epochs + 1):
    lr = learning_rate(cfg, epoch)
    order = list(range(len(X)))
    rng.shuffle(order)
    norms, losses = np.zeros(len(names)), []
    for idx in order:
        losses.append(weighted_loss(kernel.forward(X[idx]), labels[idx], 1.0))
        kernel.backward(labels[idx], 1.0)
        norms += np.linalg.norm(kernel.trace.dpre[::-1], axis=1)  # step order
        kernel.clip_and_update(lr, cfg.grad_clip)
    norms /= len(X)
    print(f"{epoch:>5}  {math.fsum(losses) / len(X):.3f} "
          + " ".join(f"{v:7.4f}" for v in norms))
    rows.append(norms)

# 3. How much of the gradient reaches each input: the last step's share, and
#    the share of MotionSickness, the feature that carries the signal.
last = rows[-1]
print("\nsteps: " + ", ".join(f"{t} {name}" for t, name in enumerate(names)))
print(f"epoch {cfg.max_epochs}: step 8 ({names[-1]}) gets {last[-1] / last.sum():.0%} of the "
      f"summed norms, step 2 ({names[2]}) {last[2] / last.sum():.0%}; "
      f"step 8 / step 0 = {last[-1] / last[0]:.1f}x")
