"""Every command reproduces its recorded outputs, byte for byte.

``tests/golden/`` holds the benchmark's SMOKE bundle and plant table at seed
3, a dense copy of the bundle's transport file, the outputs and stdout of 58
command lines run on them, and a manifest of their SHA-256 digests (see
``tests/golden/regen.py``, the only sanctioned way to change them).  The
test reruns each command line on the stored inputs, so a change to the
benchmark's input draw cannot move it, and the effects and policy lines on a
shuffled and a commented copy of the bundle, which must give the same bytes.
Each run records its warnings: ``simulate`` gives exactly the lab's
ill-conditioned A-learning fits of ``SIMULATE_WARNINGS``, every other line
none.

OpenBLAS picks its kernel for the CPU it runs on, so on a numerical stack
with another fingerprint than the recorded one the last bits may move.
There the test compares every number of each output and stdout with the
stored file at the benchmark oracle's tolerance (relative 1e-7) instead,
and warns that it did so.
"""
import importlib
import json
import os
import random
import re
import sys
import warnings

TESTS = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(TESTS, "golden")
PERFBENCH = os.path.join(os.path.dirname(TESTS), "perfbench")
# a number, with the sign that precedes it, as the writers print one
NUMBER = re.compile(r"([-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf))")
# the warnings of the simulate case, in order: two replications' A-learning
# fits whose estimating system is ill-conditioned but still solved
SIMULATE_WARNINGS = ["ill-conditioned estimating system (condition 4.202e+10)",
                     "ill-conditioned estimating system (condition 3.458e+10)"]
ILL_CONDITIONED = re.compile(r"ill-conditioned estimating system \(condition [0-9.e+]+\)")


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


def _variants(regen, root) -> dict:
    """{variant: input directory} of copies of the golden bundle that the
    readers must take to the same rows:

    - ``shuffled``: h.csv's rows in a seeded random order after its header,
      which the reader puts back in order with a stable argsort;
    - ``commented``: each table with a byte-order mark, CRLF line endings, and
      a '#' line and a blank line after its header, which the reader reads
      again through its line filter.
    """
    texts = {}
    for name in ("outcomes.csv", "interventions.csv", "h.csv"):
        with open(os.path.join(regen.INPUTS, name), encoding="utf-8", newline="") as fh:
            texts[name] = fh.read()
    header, *rows = texts["h.csv"].splitlines(keepends=True)
    random.Random(regen.SEED).shuffle(rows)
    variants = {"shuffled": dict(texts, **{"h.csv": header + "".join(rows)}),
                "commented": {}}
    for name, text in texts.items():
        header, rest = text.split("\n", 1)
        variants["commented"][name] = ("\ufeff" + header + "\n# a comment\n\n"
                                       + rest).replace("\n", "\r\n")
    dirs = {}
    for variant, tables in variants.items():
        dirs[variant] = os.path.join(root, variant)
        os.makedirs(dirs[variant])
        for name, text in tables.items():
            with open(os.path.join(dirs[variant], name), "w", encoding="utf-8",
                      newline="") as fh:
                fh.write(text)
    return dirs


def _check_warnings(caught, expected, exact, where):
    """``caught`` is one RuntimeWarning from the lab per message of ``expected``;
    off the recorded stack, where condition numbers may move, each only reads
    as an ill-conditioned fit."""
    got = [(w.category, os.path.basename(w.filename), str(w.message)) for w in caught]
    assert [g[:2] for g in got] == [(RuntimeWarning, "simlab.py")] * len(expected), \
        f"{where}: {got}"
    if exact:
        assert [g[2] for g in got] == expected, where
    else:
        assert all(ILL_CONDITIONED.fullmatch(g[2]) for g in got), f"{where}: {got}"


def test_every_command_reproduces_its_golden_outputs(monkeypatch, tmp_path):
    """Each command line on the stored inputs, and each effects and policy case
    on the variants of ``_variants``, gives the stored outputs."""
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
    # (case, input directory, variant); each variant writes under its own root
    runs = [(case, regen.INPUTS, "stored") for case in cases]
    for variant, in_dir in _variants(regen, str(tmp_path / "inputs")).items():
        runs += [(case, in_dir, variant) for case in cases
                 if case["name"].startswith(("effects-", "policy-q-", "policy-a-"))]
    for case, in_dir, variant in runs:
        name, inputs = case["name"], f" on the {variant} inputs"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, files = regen.run(name, case["argv"], in_dir, str(tmp_path / variant))
        assert code == case["exit_code"], name + inputs
        _check_warnings(caught, SIMULATE_WARNINGS if name == "simulate" else [], exact,
                        name + inputs)
        assert sorted(files) == sorted(case["files"]), name + inputs
        for file_name, data in files.items():
            where = f"{name}/{file_name}{inputs} ({route})"
            if exact:
                assert regen.sha256(data) == case["files"][file_name], where
            else:
                with open(os.path.join(regen.OUTPUTS, name, file_name), encoding="utf-8") as fh:
                    stored = fh.read()
                mismatch = oracle.diff(_tokens(data.decode("utf-8")), _tokens(stored))
                assert mismatch is None, f"{where}: {mismatch}"
