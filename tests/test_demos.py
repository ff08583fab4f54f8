"""Every demo script runs to completion against the current API.

Demo 02 boosts a stump of its own with the package's boost_train; its output
is pinned to fixtures/demo_02_stdout.txt, so that the demo and the package's
boosting cannot drift apart unseen.
"""

import runpy
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
DEMOS = sorted((TESTS.parent / "demos").glob("*.py"))


def test_all_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script, capsys):
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out.strip()


def test_demo_02_prints_the_pinned_rounds(capsys):
    runpy.run_path(str(TESTS.parent / "demos" / "02_boosting_round_by_round.py"),
                   run_name="__main__")
    want = (TESTS / "fixtures" / "demo_02_stdout.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == want
