"""Dict-based per-example SGD loop: the per-gate reference for the packed kernel.

Each update runs the reference path of `vrboost.lstm` as it stood before the
packed kernel: forward_sequence -> backward -> clip over the dict of
gradients -> per-key update, with the same weight normalization, RNG draws,
shuffle and loss curve as train_weak_learner. Training through the kernel
must reproduce its parameters and loss curve bit for bit.
"""

import math

import numpy as np

from vrboost.lstm import (LossCurve, backward, forward_sequence, init_params,
                          learning_rate, param_keys, weighted_loss)
from vrboost.numerics import Rng


def clip_gradient(grads: dict, max_norm: float) -> None:
    """Scale every gradient array by one factor when the global L2 norm exceeds max_norm."""
    sq = sum(float(np.sum(v * v)) for v in grads.values())
    norm = math.sqrt(sq)
    if norm > max_norm:
        scale = max_norm / norm
        for v in grads.values():
            v *= scale


def oracle_train(examples, weights, cfg):
    """(LstmParams, LossCurve, clipped updates) of the dict-based training loop."""
    n = len(examples)
    weights = np.asarray(weights, dtype=float)
    norm_w = weights * n / math.fsum(weights)
    rng = Rng(cfg.seed)
    input_dim = len(np.asarray(examples[0][0][0]))
    params = init_params(input_dim, cfg.hidden_dim, rng)
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
            head_grad = float(grads["b_head"][0])
            clip_gradient(grads, cfg.grad_clip)
            clipped += float(grads["b_head"][0]) != head_grad
            for key in param_keys():
                params.arrays[key] -= lr * grads[key]
        curve.losses.append(math.fsum(epoch_losses) / n)
        curve.learning_rates.append(lr)
    return params, curve, clipped
