import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from boost_oracle import FIXTURES as ORACLE_FIXTURES
from boost_oracle import (OracleStump, oracle_boost, oracle_margins, staged_train_error,
                          stump_factory)
from vrboost.boosting import (BoostConfig, BoostRound, Ensemble, LstmWeakLearner,
                              alpha, boost_train, ensemble_predict, init_weights,
                              lstm_factory, to_signed, update_weights, weighted_error)
from vrboost.errors import DataError, TrainingError
from vrboost.lstm import TrainConfig
from vrboost.numerics import Rng


def _matrix(xs, ys):
    """(X, labels) of a 1-D fixture: one feature column."""
    return np.array(xs, dtype=float)[:, None], np.array(ys)


def test_init_weights_uniform():
    assert np.array_equal(init_weights(4), np.array([0.25] * 4))
    assert np.array_equal(init_weights(1), np.array([1.0]))
    assert abs(math.fsum(init_weights(3)) - 1.0) < 1e-15
    with pytest.raises(ValueError):
        init_weights(0)


def test_weighted_error_cases():
    d = init_weights(4)
    ones = np.ones(4, dtype=int)
    assert weighted_error(ones, ones, d) == 0.0
    assert weighted_error(ones, -ones, d) == 1.0
    preds = np.array([1, 1, 1, -1])
    assert weighted_error(preds, ones, d) == pytest.approx(0.25, abs=1e-15)
    with pytest.raises(ValueError):
        weighted_error(ones, ones[:3], d)


def test_alpha_values():
    assert alpha(0.5) == 0.0
    assert alpha(0.1) == pytest.approx(1.0986122886681098, abs=1e-15)
    assert alpha(0.25) == pytest.approx(0.5493061443340549, abs=1e-15)
    grid = np.linspace(0.01, 0.99, 50)
    vals = [alpha(e) for e in grid]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    # clamped at the floor: finite even for epsilon 0 or 1
    assert math.isfinite(alpha(0.0)) and math.isfinite(alpha(1.0))


def test_update_weights_classic_quarter_error():
    d = init_weights(4)
    truths = np.array([1, 1, 1, 1])
    preds = np.array([1, 1, 1, -1])
    a = alpha(0.25)
    updated = update_weights(d, a, preds, truths)
    assert updated[3] == pytest.approx(0.5, abs=1e-12)
    assert np.allclose(updated[:3], 1.0 / 6.0, atol=1e-12)


def test_update_weights_zero_alpha_is_identity():
    d = init_weights(4)
    preds = np.array([1, -1, 1, -1])
    truths = np.array([1, 1, -1, -1])
    assert np.array_equal(update_weights(d, 0.0, preds, truths), d)


def test_update_weights_neutrality():
    rng = Rng(17)
    for _ in range(20):
        n = rng.randint(3, 30)
        raw = np.array([rng.uniform(0.01, 1.0) for _ in range(n)])
        d = raw / math.fsum(raw)
        truths = np.array([1 if rng.uniform() < 0.5 else -1 for _ in range(n)])
        preds = np.array([1 if rng.uniform() < 0.5 else -1 for _ in range(n)])
        eps = weighted_error(preds, truths, d)
        if eps <= 0.0 or eps >= 1.0:
            continue
        updated = update_weights(d, alpha(eps), preds, truths)
        assert abs(math.fsum(updated) - 1.0) < 1e-12
        assert np.all(updated >= 0)
        assert weighted_error(preds, truths, updated) == pytest.approx(0.5, abs=1e-10)


@st.composite
def _accepted_rounds(draw):
    """(d, preds, truths) of a round boost_train accepts: 0 < eps < 1/2."""
    n = draw(st.integers(2, 20))
    raw = np.array(draw(st.lists(st.floats(1e-6, 1.0), min_size=n, max_size=n)))
    d = raw / math.fsum(raw)
    signs = st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n)
    truths, preds = np.array(draw(signs)), np.array(draw(signs))
    if weighted_error(preds, truths, d) > 0.5:
        preds = -preds  # the flipped learner errs on exactly the other rows
    eps = weighted_error(preds, truths, d)
    assume(0.0 < eps < 0.5)
    return d, preds, truths


@settings(max_examples=60)
@given(_accepted_rounds())
def test_update_weights_properties(round_):
    # an accepted round has eps < 1/2; near 1 the rounding of 1 - eps grows
    d, preds, truths = round_
    updated = update_weights(d, alpha(weighted_error(preds, truths, d)), preds, truths)
    assert np.all(updated > 0)
    assert abs(math.fsum(updated) - 1.0) <= 4 * math.ulp(1.0)
    assert abs(weighted_error(preds, truths, updated) - 0.5) <= 4 * math.ulp(0.5)


@pytest.mark.parametrize("name", sorted(ORACLE_FIXTURES))
def test_boost_train_matches_enumeration_oracle(name):
    xs, ys = ORACLE_FIXTURES[name]
    X, labels = _matrix(xs, ys)
    cfg = BoostConfig(rounds=3, seed=0)
    ensemble, log = boost_train(X, labels, cfg, stump_factory)
    expected = oracle_boost(X, ys, rounds=3)

    assert len(log) == len(expected)
    for entry, exp in zip(log, expected):
        assert entry.epsilon == exp["epsilon"]  # bit-identical
        assert entry.alpha == exp["alpha"]
        assert np.array_equal(entry.weights, exp["weights"])
    for r, exp in zip(ensemble.rounds, expected):
        stump = r.learner
        assert (stump.feature, stump.threshold, stump.polarity) == exp["stump"]

    _, margins = ensemble_predict(ensemble, X)
    for got, want in zip(margins, oracle_margins(expected, X)):
        assert got == pytest.approx(want, abs=1e-12)


def test_boost_train_separable_stops_early():
    X, labels = _matrix(*ORACLE_FIXTURES["separable"])
    ensemble, log = boost_train(X, labels, BoostConfig(rounds=5, seed=0), stump_factory)
    assert len(ensemble.rounds) == 1
    assert log[0].epsilon <= 1e-10
    assert staged_train_error(ensemble, X, labels) == [0.0]


def test_boost_train_deterministic():
    X, labels = _matrix(*ORACLE_FIXTURES["classic_ten"])
    runs = [boost_train(X, labels, BoostConfig(rounds=3, seed=4), stump_factory)
            for _ in range(2)]
    for a, b in zip(runs[0][1], runs[1][1]):
        assert (a.epsilon, a.alpha) == (b.epsilon, b.alpha)
        assert np.array_equal(a.weights, b.weights)


def test_boost_train_rejects_bad_inputs():
    with pytest.raises(ValueError):
        boost_train(np.zeros((0, 1)), np.zeros(0, dtype=int), BoostConfig(rounds=1),
                    stump_factory)
    with pytest.raises(ValueError, match="N labels"):
        boost_train(np.zeros((4, 1)), np.array([0, 1, 0]), BoostConfig(rounds=1),
                    stump_factory)
    with pytest.raises(DataError):
        boost_train(*_matrix(range(4), [1] * 4), BoostConfig(rounds=1), stump_factory)


def test_boost_train_gives_up_when_nothing_beats_chance():
    # identical inputs with opposite labels: every stump sits at exactly 0.5
    X, labels = _matrix([0, 0], [1, 0])
    with pytest.raises(TrainingError, match="beat chance"):
        boost_train(X, labels, BoostConfig(rounds=3, seed=0), stump_factory)


def test_weight_invariants_after_each_round():
    X, labels = _matrix(*ORACLE_FIXTURES["eight_mixed"])
    _, log = boost_train(X, labels, BoostConfig(rounds=3, seed=0), stump_factory)
    for entry in log:
        assert entry.epsilon < 0.5
        assert entry.alpha > 0
        assert abs(math.fsum(entry.weights) - 1.0) < 1e-12
        assert np.all(entry.weights >= 0)


def test_ensemble_predict_single_round_follows_learner():
    stump = OracleStump(0, 0.5, 1)
    ensemble = Ensemble(rounds=[BoostRound(alpha=1.0, learner=stump)])
    labels, margins = ensemble_predict(ensemble, np.array([[2.0], [-2.0]]))
    assert labels.tolist() == [1, 0] and margins.tolist() == [1.0, -1.0]


def test_ensemble_predict_dominant_vote():
    agree = OracleStump(0, 0.0, 1)
    disagree = OracleStump(0, 0.0, -1)
    ensemble = Ensemble(rounds=[BoostRound(2.0, agree), BoostRound(1.0, disagree)])
    (label,), (margin,) = ensemble_predict(ensemble, np.array([[1.0]]))
    assert label == 1 and margin == pytest.approx(1.0)


def test_ensemble_predict_tie_margin_is_negative_label():
    up = OracleStump(0, 0.0, 1)
    down = OracleStump(0, 0.0, -1)
    ensemble = Ensemble(rounds=[BoostRound(1.0, up), BoostRound(1.0, down)])
    (label,), (margin,) = ensemble_predict(ensemble, np.array([[1.0]]))
    assert margin == 0.0 and label == 0


def _assert_staged_is_ensemble_predict_of_each_prefix(ensemble, X, labels):
    staged = staged_train_error(ensemble, X, labels)
    assert len(staged) == len(ensemble.rounds)
    for k in range(1, len(ensemble.rounds) + 1):
        preds, _ = ensemble_predict(Ensemble(rounds=ensemble.rounds[:k]), X)
        assert staged[k - 1] == np.mean([p != y for p, y in zip(preds, labels)])
    return staged


def test_staged_error_prefix_consistency_and_bound():
    X, labels = _matrix(*ORACLE_FIXTURES["classic_ten"])
    ensemble, log = boost_train(X, labels, BoostConfig(rounds=3, seed=0), stump_factory)
    staged = _assert_staged_is_ensemble_predict_of_each_prefix(ensemble, X, labels)
    bound = math.prod(2.0 * math.sqrt(e.epsilon * (1 - e.epsilon)) for e in log)
    assert staged[-1] <= bound + 1e-12


def test_staged_error_of_an_lstm_ensemble_is_ensemble_predict_of_each_prefix():
    X = Rng(6).uniform_array((24, 3), -1, 1)
    labels = (X[:, 0] + X[:, 1] > 0).astype(int)
    factory = lstm_factory(TrainConfig(max_epochs=2, hidden_dim=4))
    ensemble, _ = boost_train(X, labels, BoostConfig(rounds=4, seed=2), factory)
    assert len(ensemble.rounds) > 1
    _assert_staged_is_ensemble_predict_of_each_prefix(ensemble, X, labels)


def test_staged_error_labels_a_near_tie_by_the_exact_margin():
    # a running sum gives (1 + 1e-16) - 1 == 0, a negative label; the exact
    # margin is 1e-16, so ensemble_predict labels the row positive. Each
    # stump's cut lies below the row, so it votes its polarity.
    ensemble = Ensemble(rounds=[BoostRound(a, OracleStump(0, -1.0, v))
                                for a, v in ((1.0, 1), (1e-16, 1), (1.0, -1))])
    X, labels = np.zeros((1, 1)), np.array([1])
    assert ensemble_predict(ensemble, X)[1].tolist() == [1e-16]
    staged = _assert_staged_is_ensemble_predict_of_each_prefix(ensemble, X, labels)
    assert staged == [0.0, 0.0, 0.0]


def test_an_empty_ensemble_has_no_vote():
    X, labels = _matrix([0.0, 1.0], [0, 1])
    for vote in (lambda e: ensemble_predict(e, X), lambda e: staged_train_error(e, X, labels)):
        with pytest.raises(ValueError):
            vote(Ensemble(rounds=[]))


def test_margin_scaling_leaves_labels_unchanged():
    X, labels = _matrix(*ORACLE_FIXTURES["eight_mixed"])
    ensemble, _ = boost_train(X, labels, BoostConfig(rounds=3, seed=0), stump_factory)
    scaled = Ensemble(rounds=[BoostRound(3.7 * r.alpha, r.learner)
                              for r in ensemble.rounds])
    points = np.linspace(-2, 10, 30)[:, None]
    assert np.array_equal(ensemble_predict(ensemble, points)[0],
                          ensemble_predict(scaled, points)[0])


def test_signed_label_mapping():
    assert np.array_equal(to_signed([0, 1, 1, 0]), np.array([-1, 1, 1, -1]))


def test_stump_fit_multifeature():
    # second feature carries the rule; the first is noise
    rng = Rng(3)
    rows, ys = [], []
    for _ in range(30):
        informative = rng.uniform(-1, 1)
        rows.append([rng.uniform(-1, 1), informative])
        ys.append(1 if informative > 0.2 else -1)
    X = np.array(rows)
    stump = OracleStump().fit(X, np.array(ys), init_weights(30))
    assert stump.feature == 1
    preds = stump.predict(X)
    assert weighted_error(preds, np.array(ys), init_weights(30)) == 0.0


def test_lstm_weak_learner_integration():
    X = Rng(6).uniform_array((16, 2), -1, 1)
    labels = (X[:, 0] > 0).astype(int)
    cfg = BoostConfig(rounds=2, seed=1)
    factory = lstm_factory(TrainConfig(max_epochs=3, hidden_dim=3))
    runs = [boost_train(X, labels, cfg, factory) for _ in range(2)]
    (ens_a, log_a), (ens_b, log_b) = runs
    assert [e.epsilon for e in log_a] == [e.epsilon for e in log_b]
    la, ma = ensemble_predict(ens_a, X)
    lb, mb = ensemble_predict(ens_b, X)
    assert np.array_equal(la, lb) and np.array_equal(ma, mb)
    assert set(la.tolist()) <= {0, 1}
    assert all(isinstance(r.learner, LstmWeakLearner) for r in ens_a.rounds)
