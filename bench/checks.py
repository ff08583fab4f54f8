"""Correctness checks on the files vrboost writes, and their self-test.

Every check raises CheckError on the first disagreement. Expected values come
from the independent scorer in reference.py or are recomputed from the
program's own outputs by the formulas they must satisfy; nothing is compared
against a stored copy of earlier output.
"""

import math

import numpy as np

from reference import RefScores


class CheckError(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _csv_lines(text: str, header: str) -> list:
    lines = text.splitlines()
    _require(bool(lines) and lines[0] == header, f"header is not {header!r}")
    return [line.split(",") for line in lines[1:]]


def check_predictions(text: str, ref: RefScores, tolerance: float) -> None:
    """Every row's margin within `tolerance` of the reference margin, and its
    label equal to the reference label unless the margin is within
    `tolerance` of 0. Rows holding an ambiguous weak vote are skipped."""
    rows = _csv_lines(text, "row_index,margin,label")
    _require(len(rows) == len(ref.margins),
             f"{len(rows)} predictions for {len(ref.margins)} rows")
    for k, row in enumerate(rows):
        _require(len(row) == 3 and int(row[0]) == k, f"row {k}: bad row index {row}")
        if ref.ambiguous[k]:
            continue
        margin, label = float(row[1]), int(row[2])
        want = float(ref.margins[k])
        _require(abs(margin - want) <= tolerance,
                 f"row {k}: margin {margin!r}, reference {want!r}")
        _require(label == ref.labels[k] or abs(want) <= tolerance,
                 f"row {k}: label {label}, reference {ref.labels[k]}")


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def check_block_arithmetic(block: dict, n: int) -> None:
    """Confusion counts sum to the split size; every score recomputes from them."""
    tp, fp, fn, tn = (block[k] for k in ("tp", "fp", "fn", "tn"))
    _require(tp + fp + fn + tn == n == block["n"],
             f"confusion counts {tp}+{fp}+{fn}+{tn}, n={block['n']}, expected {n}")
    precision = _ratio(tp, tp + fp)
    recall = _ratio(tp, tp + fn)
    f1 = 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
    for key, want in (("accuracy", (tp + tn) / n), ("precision", precision),
                      ("recall", recall), ("f1", f1)):
        _require(block[key] == want, f"{key} {block[key]!r}, recomputed {want!r}")
    _require(block["correct"] == tp + tn and block["incorrect"] == fp + fn,
             "correct/incorrect totals disagree with the counts")


def check_block_against_reference(block: dict, ref: RefScores, truth: np.ndarray) -> None:
    """The reported confusion counts equal those of the reference labels,
    give or take one per row with an ambiguous weak vote."""
    pred = ref.labels
    counts = {"tp": int(np.sum((pred == 1) & (truth == 1))),
              "fp": int(np.sum((pred == 1) & (truth == 0))),
              "fn": int(np.sum((pred == 0) & (truth == 1))),
              "tn": int(np.sum((pred == 0) & (truth == 0)))}
    slack = int(np.sum(ref.ambiguous))
    for key, want in counts.items():
        _require(abs(block[key] - want) <= slack,
                 f"{key} {block[key]}, reference {want} (ambiguous rows: {slack})")


def check_boost_log(text: str) -> list:
    """0 < eps < 0.5 on every row and alpha == 0.5*ln((1-eps)/eps) exactly.
    Returns the epsilons."""
    rows = _csv_lines(text, "round,epsilon,alpha")
    _require(bool(rows), "boost log has no rounds")
    epsilons = []
    for k, row in enumerate(rows, start=1):
        _require(len(row) == 3 and int(row[0]) == k, f"row {k}: bad round id {row}")
        eps, alpha = float(row[1]), float(row[2])
        _require(0.0 < eps < 0.5, f"round {k}: epsilon {eps!r} outside (0, 0.5)")
        want = 0.5 * math.log((1.0 - eps) / eps)
        _require(alpha == want, f"round {k}: alpha {alpha!r}, recomputed {want!r}")
        epsilons.append(eps)
    return epsilons


def check_error_bound(epsilons: list, configured_rounds: int, train_error: float) -> None:
    """AdaBoost's bound: training error <= prod 2*sqrt(eps*(1-eps)). It holds
    only when no round was discarded, i.e. every configured round was logged."""
    if len(epsilons) != configured_rounds:
        return
    bound = math.prod(2.0 * math.sqrt(e * (1.0 - e)) for e in epsilons)
    _require(train_error <= bound * (1.0 + 1e-12),
             f"training error {train_error!r} above the bound {bound!r}")


def check_loss_curve(text: str, accepted_rounds: int, epochs: int) -> None:
    """One finite row per accepted round per epoch, in order."""
    rows = _csv_lines(text, "round,epoch,loss")
    want = [(r, e) for r in range(1, accepted_rounds + 1) for e in range(1, epochs + 1)]
    got = [(int(row[0]), int(row[1])) for row in rows]
    _require(got == want, f"loss curve has {len(got)} (round, epoch) rows, "
                          f"expected {len(want)} in order")
    for row in rows:
        _require(math.isfinite(float(row[2])), f"non-finite loss in row {row}")


def check_same_digest(digests: list) -> None:
    _require(len(set(digests)) == 1,
             f"model.json differs between repetitions: {sorted(set(digests))}")


def check_above_majority(accuracy: float, majority: float) -> None:
    _require(accuracy > majority,
             f"test accuracy {accuracy!r} not above the majority rate {majority!r}")


# --- self-test ------------------------------------------------------------

def _replace_field(text: str, row: int, column: int, value: str) -> str:
    lines = text.splitlines()
    fields = lines[row + 1].split(",")
    fields[column] = value
    lines[row + 1] = ",".join(fields)
    return "\n".join(lines) + "\n"


def self_test(predictions: str, ref: RefScores, tolerance: float,
              boost_log: str, loss_curve: str, accepted_rounds: int, epochs: int,
              digest: str) -> dict:
    """Feed each check one corrupted output; returns {corruption: message or None}.

    None means the check accepted the corruption, i.e. the check is blind.
    The clean outputs are assumed to pass.
    """
    # corrupt the row the reference is surest of, so no tolerance can excuse it
    surest = int(np.argmax(np.where(ref.ambiguous, -1.0, np.abs(ref.margins))))
    label = int(predictions.splitlines()[surest + 1].split(",")[2])
    margin = float(predictions.splitlines()[surest + 1].split(",")[1])
    alpha = float(boost_log.splitlines()[1].split(",")[2])
    lines = loss_curve.splitlines()
    flipped = "a" if digest[-1] != "a" else "b"
    cases = {
        "flipped_label": lambda: check_predictions(
            _replace_field(predictions, surest, 2, str(1 - label)), ref, tolerance),
        "margin_shift_1e-6": lambda: check_predictions(
            _replace_field(predictions, surest, 1, repr(margin + 1e-6)), ref, tolerance),
        "alpha_one_ulp": lambda: check_boost_log(
            _replace_field(boost_log, 0, 2, repr(math.nextafter(alpha, math.inf)))),
        "loss_row_dropped": lambda: check_loss_curve(
            "\n".join(lines[:-1]) + "\n", accepted_rounds, epochs),
        "digest_differs": lambda: check_same_digest([digest, digest[:-1] + flipped]),
    }
    outcome = {}
    for name, run in cases.items():
        try:
            run()
            outcome[name] = None
        except CheckError as exc:
            outcome[name] = str(exc)
    return outcome
