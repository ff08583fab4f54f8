"""Gives the tests' child processes the sources that pytest imports.

pyproject's `pythonpath = ["src"]` puts src/ on sys.path of the test process
only; tests that start `python -m vrboost.cli` or `python -c` read PYTHONPATH.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
