"""The benchmark's tracer patches names in the package; a rename must fail here.

``perfbench/tracer.py`` wraps the functions it times by module attribute.
This test installs it in-process and removes it again, so a refactor that
renames or moves a traced function fails the tests instead of the traced
benchmark run.  The harness is imported without writing bytecode, so its
directory is only read.
"""
import importlib
import os
import sys

# every module whose names the tracer patches; the CLI imports its commands'
# modules only when they run
import bnpolicy.cli  # noqa: F401
import bnpolicy.costimpute  # noqa: F401
import bnpolicy.policy  # noqa: F401
import bnpolicy.simlab  # noqa: F401

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def _attributes(tracer):
    """Every attribute the tracer may patch, by (owner, name)."""
    owners = [mod for name, mod in sys.modules.items()
              if mod is not None and (name == "bnpolicy" or name.startswith("bnpolicy."))]
    owners += [importlib.import_module(module) for module, _ in tracer.FACTORIZATIONS]
    owners += [bnpolicy.data.FeatureMap, bnpolicy.costimpute.RegressionTree]
    return {(owner, name): value for owner in owners for name, value in vars(owner).items()}


def test_tracer_installs_on_every_layer_and_restores_every_attribute(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(PERFBENCH)
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    tracer = importlib.import_module("tracer")
    monkeypatch.delitem(sys.modules, "tracer")
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
