"""Spans around the package's public functions, patched in from outside.

The tracer replaces module attributes with timing wrappers while it is
installed and restores the originals when it is removed, so untraced runs
execute the unmodified package.  Functions a module imported by name are
patched in every ``bnpolicy`` module that holds them.  Spans are kept in
memory as ``[name, start, end, parent, run_id]`` lists.
"""
from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter, defaultdict

# (layer, module, attribute) of every traced function
LAYERS = (
    ("simlab.generate_dgp", "bnpolicy.simlab", "generate_dgp"),
    ("simlab.draw_h", "bnpolicy.simlab", "_draw_h"),
    ("simlab.run_cell", "bnpolicy.simlab", "run_cell"),
    ("propensity.fit_propensity", "bnpolicy.propensity", "fit_propensity"),
    ("qlearn.fit_q", "bnpolicy.qlearn", "fit_q"),
    ("alearn.fit_a", "bnpolicy.alearn", "fit_a"),
    ("alearn.a_covariance", "bnpolicy.alearn", "a_covariance"),
    ("alearn.gamma_sensitivity", "bnpolicy.alearn", "gamma_sensitivity"),
    ("effects.effect_table", "bnpolicy.effects", "effect_table"),
    ("policy.budget_sweep", "bnpolicy.policy", "budget_sweep"),
    ("io.read_outcome_csv", "bnpolicy.io", "read_outcome_csv"),
    ("io.read_intervention_csv", "bnpolicy.io", "read_intervention_csv"),
    ("io.read_interference_csv", "bnpolicy.io", "read_interference_csv"),
    ("costimpute.fit_cost_models", "bnpolicy.costimpute", "fit_cost_models"),
    ("costimpute.predict_costs", "bnpolicy.costimpute", "predict_costs"),
) + tuple(("io.write", "bnpolicy.io", name) for name in (
    "write_effects_csv", "write_coefficients_csv", "write_policy_json",
    "write_sweep_csv", "write_sim_report", "write_imputed_costs_csv"))
READERS = ("io.read_outcome_csv", "io.read_intervention_csv", "io.read_interference_csv")
CLI_COMMANDS = ("effects", "policy", "sweep", "fit", "impute_costs")
ROOT = "op"
SPAN_LAYERS = tuple(dict.fromkeys(
    [layer for layer, _, _ in LAYERS] + ["data.expand"]
    + [f"cli.{cmd}" for cmd in CLI_COMMANDS]))
# decompositions counted inside fit_q; one factorization per fit could replace them
FACTORIZATIONS = (("scipy.linalg", "qr"), ("numpy.linalg", "lstsq"),
                  ("numpy.linalg", "inv"))


class Tracer:
    """Spans, counters and the patches that produce them, for one traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.run_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # --- spans -----------------------------------------------------------
    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.run_id])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self.stack)

    def _span_wrapper(self, name, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if hook is not None:
                hook(args, result)
            return result
        return traced

    def _count_wrapper(self, key, fn, within):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.inside(within):
                self.counters[key] += 1
            return fn(*args, **kwargs)
        return counted

    # --- patching --------------------------------------------------------
    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _patch_everywhere(self, original, replacement):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "bnpolicy" or mod_name.startswith("bnpolicy.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, replacement)

    def install(self) -> None:
        """Wrap every traced function; imports the package modules it needs."""
        import importlib

        def on_propensity(args, fit):
            self.counters["propensity.iterations"] += fit.iterations

        def on_read(args, result):
            self.counters["io.read_bytes"] += os.path.getsize(args[0])

        def on_expand(args, result):
            if self.inside("alearn.fit_a"):
                self.counters["data.expand_in_fit_a"] += 1

        hooks = {"propensity.fit_propensity": on_propensity}
        hooks.update({name: on_read for name in READERS})
        for layer, module, attr in LAYERS:
            original = getattr(importlib.import_module(module), attr)
            self._patch_everywhere(original, self._span_wrapper(
                layer, original, hooks.get(layer)))
        data = importlib.import_module("bnpolicy.data")
        self._patch(data.FeatureMap, "expand", self._span_wrapper(
            "data.expand", data.FeatureMap.expand, on_expand))
        for module, attr in FACTORIZATIONS:
            owner = importlib.import_module(module)
            self._patch(owner, attr, self._count_wrapper(
                "qlearn.factorizations", getattr(owner, attr), "qlearn.fit_q"))
        forest = importlib.import_module("bnpolicy.costimpute").RegressionTree
        self._patch(forest, "fit", self._count_wrapper(
            "costimpute.trees", forest.fit, ROOT))

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def summarize(tracer: Tracer, n_ops: int) -> dict:
    """Per-op inclusive time, self time and calls for every layer.

    A span's self time is its duration minus that of its direct children;
    the root span's self time is the part of the op no layer covers, so the
    self times plus ``unattributed.s`` add up to ``trace.wall_s``.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    incl, self_t, calls = defaultdict(float), defaultdict(float), Counter()
    for k, (name, start, end, _, _) in enumerate(spans):
        incl[name] += end - start
        self_t[name] += end - start - child_time[k]
        calls[name] += 1
    per = 1.0 / n_ops
    out = {}
    for layer in SPAN_LAYERS:
        inclusive = "io.write_s" if layer == "io.write" else f"{layer}.s"
        out[inclusive] = incl[layer] * per
        out[f"{layer}.self_s"] = self_t[layer] * per
        out[f"{layer}.calls"] = calls[layer] * per
    c = tracer.counters
    out["unattributed.s"] = self_t[ROOT] * per
    out["trace.wall_s"] = incl[ROOT] * per
    out["propensity.irls_iterations"] = _ratio(c["propensity.iterations"],
                                               calls["propensity.fit_propensity"])
    out["qlearn.factorizations_per_fit"] = _ratio(c["qlearn.factorizations"],
                                                  calls["qlearn.fit_q"])
    out["data.expand_calls_per_fit"] = _ratio(c["data.expand_in_fit_a"],
                                              calls["alearn.fit_a"])
    read_s = sum(incl[name] for name in READERS)
    out["io.read_mb_per_s"] = _ratio(c["io.read_bytes"] / 1e6, read_s)
    out["costimpute.trees_fitted"] = c["costimpute.trees"] * per
    return out


def _ratio(num, den) -> float:
    return float(num) / den if den else 0.0
