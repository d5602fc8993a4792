"""Record the golden outputs that ``tests/test_golden.py`` checks every command against.

Run from anywhere:  python tests/golden/regen.py

The script draws the benchmark's SMOKE bundle and plant table at seed 3
through ``perfbench/inputs.py``, runs every command line of
``command_lines`` on them in one process, and rewrites this directory:

- ``inputs/``: the bundle, a dense copy of its transport file
  (``h_dense.csv``), the plant table with blank costs and the ``simulate``
  config;
- ``outputs/<case>/``: each command's output files and its stdout
  (``stdout.txt``), with the output directory written as ``{out}``;
- ``manifest.json``: the SHA-256 of every input, each command line with its
  exit code and the SHA-256 of each of its output files and its stdout, and
  the fingerprint of the numerical stack that produced them.

This script is the only sanctioned way to change the manifest.  A change that
moves an output on purpose reruns it and says which files moved and why.
"""
from __future__ import annotations

import contextlib
import ctypes
import hashlib
import importlib
import io
import json
import os
import shutil
import sys
from unittest import mock

GOLDEN = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(GOLDEN))
INPUTS = os.path.join(GOLDEN, "inputs")
OUTPUTS = os.path.join(GOLDEN, "outputs")
MANIFEST = os.path.join(GOLDEN, "manifest.json")

SEED = 3
SIM_CONFIG = {"reps": 6, "n": 300, "j": 30}
BUNDLE = ["--outcomes", "{in}/outcomes.csv", "--interventions", "{in}/interventions.csv",
          "--h", "{in}/h.csv"]
# each bundle command, run with both estimators, both bases and with and
# without trimming
BUNDLE_COMMANDS = {
    "fit": ["fit"],
    "effects": ["effects"],
    "sweep": ["sweep"],
    "policy": ["policy"],
    "policy-budget": ["policy", "--budget-frac", "0.2"],
    "policy-integral-te": ["policy", "--budget-frac", "0.2", "--integral", "--method", "te"],
}
# the commands rerun on the dense copy of the transport file, with both
# estimators and with and without trimming; a dense map's products round
# differently from the triplet map's, so these cases have digests of their own
DENSE_COMMANDS = {"effects": ["effects"], "policy-budget": ["policy", "--budget-frac", "0.2"]}
DENSE_BUNDLE = [*BUNDLE[:-1], "{in}/h_dense.csv"]


def command_lines() -> list:
    """(case name, argv) of every golden run; ``{in}`` and ``{out}`` stand for
    the input directory and the root of the output directories."""
    lines = []
    for command, head in BUNDLE_COMMANDS.items():
        for estimator in ("q", "a"):
            for basis in ("linear", "quadratic"):
                for trim in ([], ["--trim", "0.05"]):
                    name = f"{command}-{estimator}-{basis}" + ("-trim" if trim else "")
                    lines.append((name, [*head, *BUNDLE, "--estimator", estimator,
                                         "--f0-basis", basis, "--fa-basis", basis,
                                         "--prop-basis", basis, *trim,
                                         "--out-dir", f"{{out}}/{name}"]))
    lines.append(("simulate", ["simulate", "--config", "{in}/sim_config.json",
                               "--threads", "1", "--out-dir", "{out}/simulate"]))
    lines.append(("impute-costs", ["impute-costs", "--interventions",
                                   "{in}/plants_missing_cost.csv", "--seed", str(SEED),
                                   "--out-dir", "{out}/impute-costs"]))
    for command, head in DENSE_COMMANDS.items():
        for estimator in ("q", "a"):
            for trim in ([], ["--trim", "0.05"]):
                name = f"dense-{command}-{estimator}" + ("-trim" if trim else "")
                lines.append((name, [*head, *DENSE_BUNDLE, "--estimator", estimator, *trim,
                                     "--out-dir", f"{{out}}/{name}"]))
    return lines


def run(name, argv, in_dir, out_root):
    """(exit code, {file name: bytes}) of one command run in this process.

    The files are the command's outputs and ``stdout.txt``, its stdout with
    the output root written as ``{out}``.  ``impute-costs`` runs as on one
    CPU, growing its forest without a process pool; its bytes are the same
    for any worker count.
    """
    from bnpolicy import cli

    argv = [a.replace("{in}", in_dir).replace("{out}", out_root) for a in argv]
    buffer = io.StringIO()
    one_cpu = (mock.patch.object(cli, "usable_cpus", lambda: 1) if argv[0] == "impute-costs"
               else contextlib.nullcontext())
    with contextlib.redirect_stdout(buffer), one_cpu:
        code = cli.main(argv)
    out_dir = os.path.join(out_root, name)
    files = {}
    if os.path.isdir(out_dir):
        for file_name in sorted(os.listdir(out_dir)):
            with open(os.path.join(out_dir, file_name), "rb") as fh:
                files[file_name] = fh.read()
    files["stdout.txt"] = buffer.getvalue().replace(out_root, "{out}").encode("utf-8")
    return code, files


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _openblas_string(lib, stem):
    for suffix in ("64_", ""):
        call = getattr(lib, f"scipy_openblas_{stem}{suffix}", None)
        if call is not None:
            call.argtypes, call.restype = [], ctypes.c_char_p
            return call().decode()
    return None


def fingerprint() -> dict:
    """The numpy version and each bundled OpenBLAS's build string and kernel.

    OpenBLAS is built for many CPUs and picks its kernel at load time, so
    another CPU or build can move the last bits of a result.
    """
    import numpy as np

    from bnpolicy._blas import _lapack, _openblas

    _lapack()  # loads scipy's library, so both are listed
    libraries = []
    for path, _, _ in _openblas():
        lib = ctypes.CDLL(path)
        libraries.append({"library": os.path.basename(path),
                          "build": _openblas_string(lib, "get_config"),
                          "kernel": _openblas_string(lib, "get_corename")})
    return {"numpy": np.__version__, "openblas": libraries}


def digests(top) -> dict:
    """SHA-256 of every file under directory ``top``, by path relative to it."""
    found = {}
    for dirpath, _, file_names in os.walk(top):
        for file_name in file_names:
            path = os.path.join(dirpath, file_name)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, top)] = sha256(fh.read())
    return found


def write_dense(in_dir, n, j):
    """Write ``h_dense.csv``, the n x J matrix of ``h.csv``'s triplets, with the
    same value text in each filled cell and 0.0 in every other."""
    dense = [["0.0"] * j for _ in range(n)]
    with open(os.path.join(in_dir, "h.csv"), encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            i, c, value = line.rstrip("\n").split(",")
            dense[int(i)][int(c)] = value
    with open(os.path.join(in_dir, "h_dense.csv"), "w", encoding="utf-8") as fh:
        fh.writelines(",".join(row) + "\n" for row in dense)


def main() -> int:
    sys.dont_write_bytecode = True  # perfbench/ is only read
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    inputs = importlib.import_module("inputs")
    for top in (INPUTS, OUTPUTS):
        shutil.rmtree(top, ignore_errors=True)
        os.makedirs(top)
    inputs.write_bundle(INPUTS, SEED, inputs.SMOKE)
    write_dense(INPUTS, inputs.SMOKE["n"], inputs.SMOKE["j"])
    inputs.write_plants(INPUTS, SEED, inputs.SMOKE)
    with open(os.path.join(INPUTS, "sim_config.json"), "w", encoding="utf-8") as fh:
        json.dump(SIM_CONFIG, fh, sort_keys=True)
        fh.write("\n")
    cases = []
    for name, argv in command_lines():
        code, files = run(name, argv, INPUTS, OUTPUTS)
        with open(os.path.join(OUTPUTS, name, "stdout.txt"), "wb") as fh:
            fh.write(files["stdout.txt"])
        cases.append({"name": name, "argv": argv, "exit_code": code,
                      "files": {k: sha256(v) for k, v in files.items()}})
    manifest = {"seed": SEED, "fingerprint": fingerprint(), "inputs": digests(INPUTS),
                "cases": cases}
    with open(MANIFEST, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(cases)} cases written to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
