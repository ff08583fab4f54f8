"""Every function the package defines runs under some product command.

Eight in-process CLI calls cover the products: gen-data, a `single` train
read from a config file, an `unrolled --stratified` train, predict with the
v2 model just trained and with the v1 fixture, evaluate, and gradcheck with
and without --break-gate. A profiler records every Python frame they open;
each function, method, cached property and named nested function defined in
src/vrboost must be among them. Code that no product reaches belongs in the
tests' oracles, not in the package.
"""

import importlib
import inspect
import pkgutil
import sys
import types
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import vrboost
from vrboost import cli

FIXTURES = Path(__file__).resolve().parent / "fixtures"

# functions no product call reaches by design, each with the reason
EXEMPT = {
    "numerics._constant": "runs once at import, to build ZERO, ONE and MINUS_ONE",
}


def _nested(code):
    """code and the named functions defined inside it, at any depth;
    comprehensions, generator expressions and lambdas are parts of their
    function, not functions of their own."""
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType) and not const.co_name.startswith("<"):
            yield from _nested(const)


def _defined():
    """{code object: "module.qualname"} of every function the package defines."""
    src = Path(vrboost.__file__).resolve().parent
    found = {}
    for info in pkgutil.iter_modules([str(src)]):
        module = importlib.import_module(f"vrboost.{info.name}")
        members = [value for value in vars(module).values()
                   if getattr(value, "__module__", None) == module.__name__]
        for cls in [m for m in members if inspect.isclass(m)]:
            members += vars(cls).values()
        for member in members:
            if isinstance(member, (staticmethod, classmethod)):
                member = member.__func__
            elif isinstance(member, property):
                member = member.fget
            else:
                member = getattr(member, "func", member)  # functools.cached_property
            code = getattr(member, "__code__", None)
            if code is None or Path(code.co_filename).resolve().parent != src:
                continue  # a dataclass's generated methods have no source here
            for inner in _nested(code):
                found[inner] = f"{info.name}.{inner.co_qualname}"
    return found


def _run_products(tmp_path):
    data, run = tmp_path / "data.csv", tmp_path / "run"
    config = tmp_path / "single.cfg"
    # a clip norm below |dL/db_head| of most rows, so that the exact clip runs
    config.write_text(f"data = {data}\nrounds = 2\nepochs = 2\nhidden-dim = 4\nseed = 3\n"
                      f"grad_clip = 0.1\n")
    calls = [
        ["gen-data", "--n", "60", "--seed", "7", "--signal", "4.0", "--out", str(data)],
        ["train", "--config", str(config), "--out-dir", str(run)],
        ["train", "--data", str(data), "--sequence-mode", "unrolled", "--stratified",
         "--rounds", "2", "--epochs", "1", "--hidden-dim", "4", "--seed", "1",
         "--out-dir", str(tmp_path / "unrolled")],
        ["predict", "--model", str(run / "model.json"), "--data", str(data),
         "--out-dir", str(run)],
        ["predict", "--model", str(FIXTURES / "model_v1_single.json"), "--data", str(data),
         "--out", "v1.csv", "--out-dir", str(run)],
        ["evaluate", "--model", str(run / "model.json"), "--data", str(data),
         "--out-dir", str(run)],
        ["gradcheck"],
        ["gradcheck", "--break-gate", "input"],
    ]
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    codes = []
    with redirect_stdout(StringIO()):
        sys.setprofile(profile)
        try:
            for argv in calls:
                codes.append(cli.main(argv))
        finally:
            sys.setprofile(None)
    assert codes == [0] * 7 + [cli.EXIT_CHECK_FAILED]
    return called


def test_every_package_function_runs_under_a_product_command(tmp_path):
    defined = _defined()
    called = _run_products(tmp_path)
    never = sorted(name for code, name in defined.items() if code not in called)
    assert never == sorted(EXEMPT), never
