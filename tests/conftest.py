"""Test-session set-up: the child processes' PYTHONPATH and the hypothesis profile.

pyproject's `pythonpath = ["src"]` puts src/ on sys.path of the test process
only; tests that start `python -m vrboost.cli` or `python -c` read PYTHONPATH.

Property tests draw the same examples on every run and keep no example
database; each test states only its max_examples.
"""

import os
from pathlib import Path

from hypothesis import settings

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])

settings.register_profile("vrboost", derandomize=True, database=None, deadline=None)
settings.load_profile("vrboost")
