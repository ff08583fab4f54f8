"""Span tracing of vrboost from outside the package.

Tracer wraps the public functions of each vrboost module and records one
span per call: name, start, end and the span that caused it (the innermost
wrapped call still open). Spans live in flat arrays until the run ends.
A function bound under several names (`from .x import f`) is wrapped in
every vrboost namespace that holds it, and methods are wrapped on their
class, so no call site escapes. A target the package no longer defines is
reported as missing and its metrics read 0.
"""

import array
import functools
import importlib
import sys
import time

import numpy as np


def _hook(fn, *args):
    """A hook's answer, or 0 when the code it inspects has changed shape;
    a probe must never make the traced call fail."""
    try:
        return fn(*args)
    except (TypeError, KeyError, IndexError, AttributeError, ValueError):
        return 0


def _len_result(args, kwargs, result, token):
    return len(result)


def _accepted_rounds(args, kwargs, result, token):
    return len(result[0].rounds)


def _head_grad(args, kwargs):
    return float(args[0]["b_head"][0])


def _was_clipped(args, kwargs, result, token):
    # a clip scales every gradient array by one factor < 1; the head-bias
    # gradient w*(p - y) is never 0, so it changes exactly when a clip happened
    return int(float(args[0]["b_head"][0]) != token)


# (module, attribute path, before-hook, after-hook). A span's value is what
# the after-hook returns: rows for data functions, accepted rounds for
# boost_train, 1 for a clipped update.
TARGETS = [
    ("cli", "main"), ("cli", "cmd_gen_data"), ("cli", "cmd_train"),
    ("cli", "cmd_evaluate"), ("cli", "cmd_predict"),
    ("cli", "load_model"), ("cli", "save_model"),
    ("boosting", "boost_train", None, _accepted_rounds),
    ("boosting", "ensemble_predict"), ("boosting", "weighted_error"),
    ("boosting", "alpha"), ("boosting", "update_weights"),
    ("boosting", "LstmWeakLearner.fit"), ("boosting", "LstmWeakLearner.predict"),
    ("lstm", "train_weak_learner"), ("lstm", "forward_sequence"), ("lstm", "backward"),
    ("lstm", "_clip_gradient", _head_grad, _was_clipped),
    ("lstm", "init_params"), ("lstm", "learning_rate"),
    ("numerics", "affine"), ("numerics", "sigmoid"), ("numerics", "tanh_act"),
    ("numerics", "Rng.uniform"), ("numerics", "Rng.uniform_array"),
    ("numerics", "Rng.randint"), ("numerics", "Rng.normal"), ("numerics", "Rng.shuffle"),
    ("data", "load_csv", None, _len_result), ("data", "encode", None, _len_result),
    ("data", "encode_features"), ("data", "apply_standardizer", None, _len_result),
    ("data", "fit_standardizer"), ("data", "split_indices"), ("data", "write_csv"),
    ("data", "gen_synthetic"),
    ("metrics", "confusion"), ("metrics", "scores"),
]

CMD_SPANS = ("cli.cmd_gen_data", "cli.cmd_train", "cli.cmd_evaluate", "cli.cmd_predict")
RNG_SPANS = tuple(f"numerics.Rng.{m}" for m in
                  ("uniform", "uniform_array", "randint", "normal", "shuffle"))


class Tracer:
    def __init__(self):
        self.names = []                  # span name per id
        self.missing = []                # targets the package does not define
        self.name_of = array.array("H")  # name id per span
        self.parent = array.array("q")
        self.start = array.array("d")
        self.end = array.array("d")
        self.value = array.array("q")
        self._stack = [-1]
        self._patches = []               # (owner, attribute, original, wrapper)
        self._build()

    def _build(self) -> None:
        for target in TARGETS:
            module_name, path = target[0], target[1]
            before, after = (target[2], target[3]) if len(target) > 2 else (None, None)
            module = importlib.import_module(f"vrboost.{module_name}")
            owner, attr = module, path
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name, None)
            original = getattr(owner, attr, None) if owner is not None else None
            name = f"{module_name}.{path}"
            if original is None:
                self.missing.append(name)
                continue
            nid = len(self.names)
            self.names.append(name)
            wrapper = self._wrap(original, nid, before, after)
            if owner is module:
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name == "vrboost" or mod_name.startswith("vrboost."):
                        for key, val in list(vars(mod).items()):
                            if val is original:
                                self._patches.append((mod, key, original, wrapper))
            else:
                self._patches.append((owner, attr, original, wrapper))

    def _wrap(self, fn, nid, before, after):
        name_of, parent, start, end, value = (self.name_of, self.parent, self.start,
                                              self.end, self.value)
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1])
            value.append(0)
            start.append(0.0)
            end.append(0.0)
            token = _hook(before, args, kwargs) if before is not None else None
            stack.append(idx)
            start[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                value[idx] = _hook(after, args, kwargs, result, token)
            return result

        return wrapper

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def mark(self) -> int:
        """Span count so far; marks phase boundaries."""
        return len(self.name_of)

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name_of, dtype=np.uint16).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "value": np.frombuffer(self.value, dtype=np.int64).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, **self.arrays())


class SpanTable:
    """Per-layer metrics from recorded spans."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.names = list(a["names"])
        self.name, self.parent, self.value = a["name"], a["parent"], a["value"]
        self.dur = a["end"] - a["start"]
        has_parent = self.parent >= 0
        covered = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                              minlength=len(self.dur))
        self.self_time = self.dur - covered
        self.parent_name = np.where(has_parent, self.name[np.maximum(self.parent, 0)], -1)

    def _id(self, name: str) -> int:
        return self.names.index(name) if name in self.names else -2

    def mask(self, *names, parent=None, lo=0) -> np.ndarray:
        """Spans with one of `names`, optionally under `parent`, from span `lo` on."""
        m = np.isin(self.name, [self._id(n) for n in names])
        if parent is not None:
            m &= self.parent_name == self._id(parent)
        m[:lo] = False
        return m

    def count(self, *names, **kw) -> int:
        return int(np.sum(self.mask(*names, **kw)))

    def total(self, *names, **kw) -> float:
        return float(np.sum(self.dur[self.mask(*names, **kw)]))

    def total_value(self, *names, **kw) -> int:
        return int(np.sum(self.value[self.mask(*names, **kw)]))

    def mean(self, *names, **kw) -> float:
        return _div(self.total(*names, **kw), self.count(*names, **kw))

    def calls(self) -> dict:
        return {n: int(np.sum(self.name == i)) for i, n in enumerate(self.names)}


def _div(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(t: SpanTable, measured_lo: int, measured_rounds: int) -> dict:
    """Every per-layer metric. Times are means per call over all traced spans
    (set-up included); `*_calls` counts are per measured round, so they
    repeat exactly for a given seed."""
    us, ms = 1e6, 1e3
    twl = "lstm.train_weak_learner"
    updates = t.count("lstm.backward", parent=twl)
    epochs = t.count("lstm.learning_rate", parent=twl)
    trains = t.count("boosting.boost_train")
    attempts = t.count("boosting.LstmWeakLearner.fit", parent="boosting.boost_train")
    accepted = t.total_value("boosting.boost_train")
    clips = t.count("lstm._clip_gradient")
    rng_outer = t.mask(*RNG_SPANS) & ~np.isin(t.parent_name, [t._id(n) for n in RNG_SPANS])
    encode_direct = t.mask("data.encode_features") & (t.parent_name != t._id("data.encode"))
    cmd = t.mask(*CMD_SPANS)
    return {
        "lstm.forward_us": us * t.mean("lstm.forward_sequence"),
        "lstm.backward_us": us * t.mean("lstm.backward"),
        "lstm.clip_us": us * t.mean("lstm._clip_gradient"),
        "lstm.clip_rate": _div(t.total_value("lstm._clip_gradient"), clips),
        "lstm.update_us": us * _div(float(np.sum(t.self_time[t.mask(twl)])), updates),
        "lstm.epoch_ms": ms * _div(t.total(twl) - t.total("lstm.init_params", parent=twl),
                                   epochs),
        "lstm.updates": _div(updates, trains),
        "lstm.init_params_ms": ms * t.mean("lstm.init_params"),
        "numerics.affine_us": us * t.mean("numerics.affine"),
        "numerics.affine_calls": _div(t.count("numerics.affine", lo=measured_lo),
                                      measured_rounds),
        "numerics.activation_us": us * t.mean("numerics.sigmoid", "numerics.tanh_act"),
        "numerics.rng_ms": ms * _div(float(np.sum(t.dur[rng_outer])), int(np.sum(cmd))),
        "boosting.fit_ms": ms * t.mean("boosting.LstmWeakLearner.fit"),
        "boosting.insample_predict_ms": ms * _div(
            t.total("boosting.LstmWeakLearner.predict", parent="boosting.boost_train"),
            attempts),
        "boosting.reweight_us": us * _div(
            t.total("boosting.weighted_error", "boosting.alpha", "boosting.update_weights",
                    parent="boosting.boost_train"), attempts),
        "boosting.rounds_attempted": _div(attempts, trains),
        "boosting.rounds_accepted": _div(accepted, trains),
        "boosting.accept_ratio": _div(accepted, attempts),
        "boosting.ensemble_predict_us": us * t.mean("boosting.ensemble_predict"),
        "data.load_csv_us_per_row": us * _div(t.total("data.load_csv"),
                                              t.total_value("data.load_csv")),
        "data.encode_us_per_row": us * _div(
            t.total("data.encode") + float(np.sum(t.dur[encode_direct])),
            t.total_value("data.encode") + int(np.sum(encode_direct))),
        "data.standardize_us_per_row": us * _div(t.total("data.apply_standardizer"),
                                                 t.total_value("data.apply_standardizer")),
        "data.split_ms": ms * t.mean("data.split_indices"),
        "data.write_csv_ms": ms * t.mean("data.write_csv"),
        "data.gen_synthetic_ms": ms * t.mean("data.gen_synthetic"),
        "metrics.report_us": us * _div(t.total("metrics.confusion", "metrics.scores"),
                                       t.count("metrics.confusion")),
        "cli.load_model_ms": ms * t.mean("cli.load_model"),
        "cli.save_model_ms": ms * t.mean("cli.save_model"),
        "cli.self_ms": ms * _div(float(np.sum(t.self_time[cmd])), int(np.sum(cmd))),
    }
