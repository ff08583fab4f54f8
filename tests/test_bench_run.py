"""Every CLI call the benchmark makes still parses.

bench/run.py drives vrboost through `cli.main` with argv it builds itself. If
it passes a flag the CLI no longer defines, every such call exits 2 and the
whole benchmark reads as failed operations. These tests run run.py's own
set-up, `train` and scoring round for each workload against a stand-in CLI
that parses every argv as `main` does, and runs only `gen-data`, so that the
scoring files exist.
"""

import importlib.util
from pathlib import Path

import pytest

from vrboost import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench_run(monkeypatch):
    # run.py imports its sibling modules (checks, reference, spans) by name
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class ParsingCli:
    """Parses each argv with the CLI's own parser and option resolution;
    hands `gen-data` to the real main and answers 0 for the rest."""

    def __init__(self):
        self.commands = []

    def main(self, argv):
        self.commands.append(argv[0])
        cli.resolve_options(cli.build_parser().parse_args(argv))
        return cli.main(argv) if argv[0] == "gen-data" else 0


def test_parsing_cli_rejects_an_unknown_flag():
    with pytest.raises(SystemExit):
        ParsingCli().main(["train", "--no-such-flag", "1"])


@pytest.mark.parametrize("workload", ["train-single", "train-unrolled", "score-files"])
def test_every_benchmark_call_parses(tmp_path, monkeypatch, workload):
    run = _bench_run(monkeypatch)
    wl, stand_in, seed = run.WORKLOADS[workload], ParsingCli(), 1
    files = run.make_inputs(stand_in, tmp_path, seed, wl)  # raises SetupError on a failed call
    assert files and all(f.path.is_file() for f in files)
    for d in range(wl.datasets):
        call = run.train(stand_in, wl, tmp_path, seed, d)
        assert call.code == 0, call.stderr
    state = run.Run()
    run.one_round(stand_in, wl, state, run.Checker(wl, state), tmp_path, files, seed)
    assert state.failed == 0, state.failures
    assert state.attempted == wl.datasets * (len(files) + wl.trains_per_round)
    assert set(stand_in.commands) == {"gen-data", "train", "predict", "evaluate"}
