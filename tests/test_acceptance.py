"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The heavyweight synthetic training run is shared by the criteria that
need it.
"""

import json
import math
import time

import numpy as np
import pytest

from boost_oracle import FIXTURES, oracle_boost, stump_factory
from vrboost.boosting import (BoostConfig, boost_train, ensemble_predict,
                              lstm_factory, staged_train_error, update_weights,
                              weighted_error)
from vrboost.cli import gradcheck_suite, main
from vrboost.data import (TargetSpec, apply_standardizer, encode, encode_labels,
                          fit_standardizer, gen_synthetic, majority_rate,
                          split_indices)
from vrboost.lstm import TrainConfig, learning_rate
from vrboost.metrics import ConfusionMatrix, correct_incorrect, f1_score
from vrboost.model import ModelBundle, load_model, save_model
from vrboost.numerics import Rng


def _criterion(num, description, ok, detail=""):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {description}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _prepare(n, seed, signal):
    """((X, labels) of the standardized train split, the same of the test split)."""
    table = gen_synthetic(n, seed=seed, signal_strength=signal)
    X, labels = encode(table, TargetSpec()), encode_labels(table, TargetSpec())
    train_idx, test_idx = split_indices(len(X), 0.7, seed=seed)
    std = fit_standardizer(X[train_idx])
    return ((apply_standardizer(std, X[train_idx]), labels[train_idx]),
            (apply_standardizer(std, X[test_idx]), labels[test_idx]))


@pytest.fixture(scope="module")
def signal_run():
    """n=500, signal 4.0, protocol defaults (T=10, 50 epochs, lr 0.01/0.1)."""
    train, test = _prepare(500, seed=0, signal=4.0)
    started = time.time()
    ensemble, log = boost_train(*train, BoostConfig(rounds=10, seed=0),
                                lstm_factory(TrainConfig()))
    return {"ensemble": ensemble, "log": log, "train": train,
            "test": test, "elapsed": time.time() - started}


def test_criterion_1_metric_arithmetic_matches_reported_values():
    f1_train = f1_score(0.88, 0.77)
    f1_test = f1_score(0.87, 0.57)
    ok = abs(f1_train - 0.8213) <= 0.005 and abs(f1_test - 0.6888) <= 0.005

    train_cm = ConfusionMatrix(tp=125, fp=20, fn=32, tn=52)
    test_cm = ConfusionMatrix(tp=40, fp=10, fn=43, tn=127)
    ok &= correct_incorrect(train_cm) == (177, 52)
    ok &= correct_incorrect(test_cm) == (167, 53)
    acc_train = (train_cm.tp + train_cm.tn) / train_cm.total
    acc_test = (test_cm.tp + test_cm.tn) / test_cm.total
    ok &= abs(acc_train - 0.7729) < 5e-5 and abs(acc_test - 0.7591) < 5e-5
    # the published 77%/75% figures are the truncated two-digit forms
    ok &= math.floor(acc_train * 100) == 77 and math.floor(acc_test * 100) == 75
    _criterion(1, "metric arithmetic reproduces the reported table values", ok,
               f"f1 {f1_train:.4f}/{f1_test:.4f}, acc {acc_train:.4f}/{acc_test:.4f}")


def test_criterion_2_gradient_oracle():
    started = time.time()
    healthy = max(err for *_, err in gradcheck_suite())
    broken = min(max(err for *_, err in gradcheck_suite(break_gate=gate))
                 for gate in ("forget", "input", "output", "candidate"))
    elapsed = time.time() - started
    ok = healthy < 1e-4 and broken > 1e-2 and elapsed < 10
    _criterion(2, "BPTT matches central finite differences and the mutation "
                  "hook is caught", ok,
               f"healthy {healthy:.2e}, weakest mutation {broken:.2e}, {elapsed:.1f}s")


def test_criterion_3_adaboost_exactness():
    started = time.time()
    ok = True
    for name, (xs, ys) in sorted(FIXTURES.items()):
        X = np.array([[float(x)] for x in xs])
        ensemble, log = boost_train(X, np.array(ys), BoostConfig(rounds=3, seed=0),
                                    stump_factory)
        expected = oracle_boost(X, ys, rounds=3)
        ok &= len(log) == len(expected)
        for entry, exp in zip(log, expected):
            ok &= entry.epsilon == exp["epsilon"] and entry.alpha == exp["alpha"]
            ok &= bool(np.array_equal(entry.weights, exp["weights"]))
        # post-update neutrality on every non-terminal round
        truths = np.array([2 * y - 1 for y in ys])
        for r, entry in zip(ensemble.rounds, log):
            if entry.epsilon <= 1e-10:
                continue
            preds = r.learner.predict(X)
            ok &= abs(weighted_error(preds, truths, entry.weights) - 0.5) < 1e-10
    elapsed = time.time() - started
    _criterion(3, "stump boosting is bit-identical to brute-force enumeration",
               ok and elapsed < 5, f"{len(FIXTURES)} fixtures, {elapsed:.1f}s")


def test_criterion_4_error_bound_over_random_runs():
    started = time.time()
    rng = Rng(2468)
    checked = 0
    ok = True
    # 12 stump runs on random noisy multi-feature data
    for _ in range(12):
        n = rng.randint(24, 60)
        n_feat = rng.randint(1, 3)
        xs, ys = [], []
        for i in range(n):
            x = np.array([rng.uniform(-2, 2) for _ in range(n_feat)])
            noise = rng.uniform(0, 1)
            ys.append((1 if x[0] > 0 else 0) if noise < 0.8 else (1 if noise < 0.9 else 0))
            xs.append(x)
        if len(set(ys)) < 2:
            ys[0] = 1 - ys[0]
        X, labels = np.stack(xs), np.array(ys)
        ensemble, log = boost_train(X, labels,
                                    BoostConfig(rounds=5, seed=rng.randint(0, 10**6)),
                                    stump_factory)
        bound = math.prod(2 * math.sqrt(e.epsilon * (1 - e.epsilon)) for e in log)
        final = staged_train_error(ensemble, X, labels)[-1]
        ok &= final <= bound + 1e-12
        checked += 1
    # 8 boosted-LSTM runs on planted-signal data
    for k in range(8):
        train, _ = _prepare(80, seed=100 + k, signal=2.0 + 0.25 * k)
        ensemble, log = boost_train(*train, BoostConfig(rounds=5, seed=200 + k),
                                    lstm_factory(TrainConfig(max_epochs=6, hidden_dim=4)))
        bound = math.prod(2 * math.sqrt(e.epsilon * (1 - e.epsilon)) for e in log)
        final = staged_train_error(ensemble, *train)[-1]
        ok &= final <= bound + 1e-12
        checked += 1
    elapsed = time.time() - started
    _criterion(4, "training error never exceeds the exponential-loss bound",
               ok and checked == 20 and elapsed < 120,
               f"{checked} runs, {elapsed:.0f}s")


def test_criterion_5_first_learner_loss_drops(signal_run):
    curve = signal_run["ensemble"].rounds[0].learner.loss_curve
    first, last = curve.losses[0], curve.losses[-1]
    ok = last <= 0.75 * first
    _criterion(5, "first weak learner's loss falls to <= 0.75x its start", ok,
               f"{first:.4f} -> {last:.4f} (ratio {last / first:.3f})")


def test_criterion_6_ensemble_beats_majority_and_improves(signal_run):
    ensemble = signal_run["ensemble"]
    X_test, truths = signal_run["test"]
    preds, _ = ensemble_predict(ensemble, X_test)
    accuracy = float(np.mean(np.array(preds) == np.array(truths)))
    baseline = majority_rate(truths)
    staged = staged_train_error(ensemble, *signal_run["train"])
    monotone = all(b <= a + 0.02 for a, b in zip(staged, staged[1:]))
    ok = accuracy >= baseline + 0.10 and monotone
    _criterion(6, "ensemble beats the majority baseline by >= 10 points and "
                  "staged error is non-increasing (2pp tolerance)", ok,
               f"accuracy {accuracy:.4f} vs majority {baseline:.4f}, "
               f"{len(staged)} rounds, {signal_run['elapsed']:.0f}s train")


def test_criterion_7_null_signal_stays_near_chance():
    started = time.time()
    train, (X_test, truths) = _prepare(1000, seed=1, signal=0.0)
    ensemble, _ = boost_train(*train, BoostConfig(rounds=10, seed=1),
                              lstm_factory(TrainConfig()))
    preds, _ = ensemble_predict(ensemble, X_test)
    accuracy = float(np.mean(np.array(preds) == np.array(truths)))
    baseline = majority_rate(truths)
    elapsed = time.time() - started
    ok = abs(accuracy - baseline) <= 0.07 and elapsed < 300
    _criterion(7, "no hallucinated skill on feature-independent labels", ok,
               f"accuracy {accuracy:.4f} vs majority {baseline:.4f}, {elapsed:.0f}s")


def test_criterion_8_determinism_and_round_trip(tmp_path):
    started = time.time()
    # byte-identical artifacts from identical invocations
    args = ["train", "--synth-n", "150", "--signal", "4.0", "--rounds", "3",
            "--epochs", "6", "--hidden-dim", "8", "--seed", "5"]
    for name in ("one", "two"):
        assert main([*args, "--out-dir", str(tmp_path / name)]) == 0
    identical = all(
        (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()
        for name in ("model.json", "report.json", "loss_curve.csv", "boost_log.csv"))

    # save -> load -> predict equals in-memory predictions, exactly
    train, _ = _prepare(100, seed=9, signal=4.0)
    ensemble, _ = boost_train(*train, BoostConfig(rounds=2, seed=9),
                              lstm_factory(TrainConfig(max_epochs=6, hidden_dim=6)))
    raw = encode(gen_synthetic(100, seed=77, signal_strength=4.0), TargetSpec())
    std = fit_standardizer(raw)
    feats = apply_standardizer(std, raw)
    in_memory = ensemble_predict(ensemble, feats)
    bundle = ModelBundle(ensemble=ensemble, target=TargetSpec(),
                         standardizer=std, sequence_mode="single")
    save_model(bundle, tmp_path / "model.json")
    reloaded = load_model(tmp_path / "model.json")
    after = ensemble_predict(reloaded.ensemble, feats)
    round_trip = all(np.array_equal(a, b) for a, b in zip(in_memory, after))
    elapsed = time.time() - started
    ok = identical and round_trip and elapsed < 300
    _criterion(8, "byte-identical reruns and exact save/load/predict round-trip",
               ok, f"{elapsed:.0f}s")


def test_criterion_9_learning_rate_schedule_exact(signal_run):
    cfg = TrainConfig()
    expected = [0.01 * 0.1 ** ((epoch - 1) // 10) for epoch in range(1, 51)]
    from_function = [learning_rate(cfg, epoch) for epoch in range(1, 51)]
    logged = signal_run["ensemble"].rounds[0].learner.loss_curve.learning_rates
    ok = from_function == expected and logged == expected
    _criterion(9, "logged learning rates follow 0.01 * 0.1^floor((e-1)/10) exactly",
               ok, f"{len(logged)} epochs checked")
