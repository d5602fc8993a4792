"""Every command reproduces its recorded outputs, byte for byte.

``tests/golden/`` holds the benchmark's SMOKE bundle and plant table at seed
3, the outputs and stdout of 50 command lines run on them, and a manifest
of their SHA-256 digests (see ``tests/golden/regen.py``, the only
sanctioned way to change them).  The test reruns each command line on the
stored inputs, so a change to the benchmark's input draw cannot move it.

OpenBLAS picks its kernel for the CPU it runs on, so on a numerical stack
with another fingerprint than the recorded one the last bits may move.
There the test compares every number of each output and stdout with the
stored file at the benchmark oracle's tolerance (relative 1e-7) instead,
and warns that it did so.
"""
import importlib
import json
import os
import re
import sys
import warnings

TESTS = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(TESTS, "golden")
PERFBENCH = os.path.join(os.path.dirname(TESTS), "perfbench")
# a number, with the sign that precedes it, as the writers print one
NUMBER = re.compile(r"([-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf))")


def _import(monkeypatch, directory, name):
    """Module ``name`` from ``directory``, imported afresh without writing bytecode."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(directory)
    monkeypatch.delitem(sys.modules, name, raising=False)
    module = importlib.import_module(name)
    sys.modules.pop(name, None)
    return module


def _tokens(text: str) -> list:
    """``text`` as its runs of other characters and its numbers, as floats."""
    parts = NUMBER.split(text)
    return [float(p) if k % 2 else p for k, p in enumerate(parts)]


def test_every_command_reproduces_its_golden_outputs(monkeypatch, tmp_path):
    regen = _import(monkeypatch, GOLDEN, "regen")
    oracle = _import(monkeypatch, PERFBENCH, "oracle")
    with open(regen.MANIFEST, encoding="utf-8") as fh:
        manifest = json.load(fh)
    cases = manifest["cases"]
    assert [(c["name"], c["argv"]) for c in cases] == regen.command_lines()
    assert regen.digests(regen.INPUTS) == manifest["inputs"]
    assert regen.digests(regen.OUTPUTS) == {os.path.join(c["name"], k): v for c in cases
                                            for k, v in c["files"].items()}, \
        "a file under tests/golden was changed without rerunning regen.py"
    exact = regen.fingerprint() == manifest["fingerprint"]
    route = "SHA-256 digests" if exact else f"numbers at relative tolerance {oracle.RTOL}"
    print(f"golden outputs compared by {route}")
    if not exact:
        warnings.warn("numerical stack differs from the recorded fingerprint; golden "
                      f"outputs compared by {route}, not byte for byte")
    monkeypatch.setenv("BNPOLICY_THREADS", "1")
    for case in cases:
        name = case["name"]
        code, files = regen.run(name, case["argv"], regen.INPUTS, str(tmp_path))
        assert code == case["exit_code"], name
        assert sorted(files) == sorted(case["files"]), name
        for file_name, data in files.items():
            where = f"{name}/{file_name} ({route})"
            if exact:
                assert regen.sha256(data) == case["files"][file_name], where
            else:
                with open(os.path.join(regen.OUTPUTS, name, file_name), encoding="utf-8") as fh:
                    stored = fh.read()
                mismatch = oracle.diff(_tokens(data.decode("utf-8")), _tokens(stored))
                assert mismatch is None, f"{where}: {mismatch}"
