"""The benchmark's tracer and child call names in the package; a rename must fail here.

``perfbench/tracer.py`` wraps the functions it times by module attribute,
and ``perfbench/child.py`` calls ``fit_a``, ``generate_dgp``, ``CELLS`` and
the three readers directly.  These tests install the tracer in-process and
remove it again, and run the child's ``fit_a`` probe on the smoke-size
inputs, so a refactor that renames, moves or re-signs one of these
functions fails the tests instead of the traced benchmark run.  A traced
bundle command must also record the spans of the public fit and effect
functions it runs, or the benchmark's layer timings read 0.  The harness
is imported without writing bytecode, so its directory is only read.
"""
import contextlib
import importlib
import io
import os
import sys
from collections import Counter

import pytest

# every module whose names the tracer patches; the CLI imports its commands'
# modules only when they run
import bnpolicy.cli  # noqa: F401
import bnpolicy.costimpute  # noqa: F401
import bnpolicy.policy  # noqa: F401
import bnpolicy.simlab  # noqa: F401

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
HARNESS = ("child", "inputs", "oracle", "tracer", "workloads")


def _harness(monkeypatch, *names):
    """The harness modules ``names``, imported afresh without writing bytecode.

    They leave no entry in ``sys.modules``, so each test imports its own.
    """
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(PERFBENCH)
    for name in HARNESS:
        monkeypatch.delitem(sys.modules, name, raising=False)
    modules = [importlib.import_module(name) for name in names]
    for name in HARNESS:
        sys.modules.pop(name, None)
    return modules


def _attributes(tracer):
    """Every attribute the tracer may patch, by (owner, name)."""
    owners = [mod for name, mod in sys.modules.items()
              if mod is not None and (name == "bnpolicy" or name.startswith("bnpolicy."))]
    owners += [importlib.import_module(module) for module, _ in tracer.FACTORIZATIONS]
    owners += [bnpolicy.data.FeatureMap, bnpolicy.costimpute.RegressionTree]
    return {(owner, name): value for owner in owners for name, value in vars(owner).items()}


def test_tracer_installs_on_every_layer_and_restores_every_attribute(monkeypatch):
    tracer, = _harness(monkeypatch, "tracer")
    before = _attributes(tracer)
    hooks = tracer.Tracer()
    try:
        hooks.install()
        for _, module, attr in tracer.LAYERS:
            traced = getattr(importlib.import_module(module), attr)
            assert traced.__wrapped__ is before[(sys.modules[module], attr)], (module, attr)
    finally:
        hooks.remove()
    after = _attributes(tracer)
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert not changed


@pytest.mark.parametrize("workload", ["mc_study", "cli_session"])
def test_child_fit_a_probe_runs_on_smoke_inputs(monkeypatch, tmp_path, workload):
    child, inputs, workloads = _harness(monkeypatch, "child", "inputs", "workloads")
    smoke = workloads.SIZES["smoke"]
    spec = {"workload": workload}
    if workload == "mc_study":
        spec["mc"] = {"reps": smoke["mc_reps"], "size": smoke["mc_size"],
                      "master_seed": workloads.mc_master_seed(0)}
    else:
        spec["inputs"] = inputs.write_bundle(str(tmp_path), 0, smoke["bundle"])
    assert child.fit_a_peak_mb(spec) > 0.0


def test_traced_bundle_commands_record_the_fit_and_effect_spans(monkeypatch, tmp_path):
    tracer, inputs, workloads = _harness(monkeypatch, "tracer", "inputs", "workloads")
    paths = inputs.write_bundle(str(tmp_path), 0, workloads.SIZES["smoke"]["bundle"])
    bundle = ["--outcomes", paths["outcomes"], "--interventions", paths["interventions"],
              "--h", paths["h"], "--estimator", "q"]
    hooks, spans = tracer.Tracer(), {}
    try:
        hooks.install()
        for command in (["effects"], ["policy", "--budget-frac", "0.2"]):
            hooks.spans.clear()
            with contextlib.redirect_stdout(io.StringIO()):
                code = bnpolicy.cli.main([*command, *bundle,
                                          "--out-dir", str(tmp_path / command[0])])
            assert code == 0, command
            spans[command[0]] = Counter(span[0] for span in hooks.spans)
    finally:
        hooks.remove()
    assert spans["effects"]["qlearn.fit_q"] == 1
    assert spans["effects"]["effects.effect_table"] == 1
    assert spans["policy"]["qlearn.fit_q"] == 1
