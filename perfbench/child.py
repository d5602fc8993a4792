"""Runs the package in its own process for the harness in ``run.py``.

    python child.py env                 import the CLI, print the environment
    python child.py mc '<json spec>'    timed Monte Carlo loop (mc_study)
    python child.py trace '<json spec>' traced in-process run of one workload

Every mode prints JSON lines on stdout; the last one is the result.  The
harness starts this file with the package's ``src`` on ``PYTHONPATH`` and
with the BLAS thread variables removed from the environment.
"""
from __future__ import annotations

import contextlib
import ctypes
import glob
import io
import json
import os
import platform
import shutil
import sys
import time
import tracemalloc

import oracle
import workloads
from tracer import ROOT, Tracer, summarize


def emit(doc) -> None:
    sys.stdout.write(json.dumps(doc) + "\n")
    sys.stdout.flush()


def _openblas() -> list:
    """Build string and current thread count of each bundled OpenBLAS.

    Only reads: the thread count is never set here.
    """
    found = []
    for pkg in ("numpy", "scipy"):
        mod = sys.modules.get(pkg) or __import__(pkg)
        libdir = os.path.join(os.path.dirname(os.path.dirname(mod.__file__)), f"{pkg}.libs")
        for path in sorted(glob.glob(os.path.join(libdir, "*openblas*.so*"))):
            lib = ctypes.CDLL(path)
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
                if get_threads is not None and get_config is not None:
                    break
            else:
                continue
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            get_config.argtypes, get_config.restype = [], ctypes.c_char_p
            found.append({"package": pkg, "library": os.path.basename(path),
                          "threads": get_threads(),
                          "config": get_config().decode("ascii", "replace")})
    return found


def environment() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "openblas": _openblas()}


# --- mc_study ---------------------------------------------------------------

def mc_config(spec: dict):
    from bnpolicy.simlab import SimConfig
    return SimConfig(reps=spec["reps"], master_seed=spec["master_seed"], **spec["size"])


def mc_report(config, n_workers: int, out_dir: str):
    """Run the study; return (seconds, report dict, sim_report.json bytes)."""
    from bnpolicy.io import sim_report_to_dict, write_sim_report
    from bnpolicy.simlab import run_monte_carlo
    start = time.perf_counter()
    report = run_monte_carlo(config, n_workers=n_workers)
    elapsed = time.perf_counter() - start
    os.makedirs(out_dir, exist_ok=True)
    json_path = os.path.join(out_dir, "sim_report.json")
    write_sim_report(json_path, os.path.join(out_dir, "sim_report.txt"), report)
    with open(json_path, "rb") as fh:
        blob = fh.read()
    return elapsed, sim_report_to_dict(report), blob


def run_mc(spec: dict) -> None:
    """Set up, report ready, loop 2-worker studies, then one 1-worker study.

    The 1-worker study is the single-worker baseline and must reproduce the
    2-worker sim_report.json byte for byte.
    """
    from bnpolicy.simlab import run_replication
    config = mc_config(spec)
    run_replication(config, 0)
    emit({"ready": True, "env": environment()})
    if spec["setup_only"]:
        return
    ref = oracle.load(spec["ref"])["report"]
    times = {workloads.MC_WORKERS: [], 1: []}
    blobs, errors = {}, []

    def study(workers):
        began = time.perf_counter()
        try:
            elapsed, doc, blobs[workers] = mc_report(
                config, workers, os.path.join(spec["work"], f"w{workers}"))
        except Exception as exc:  # a failed study is counted, not fatal
            errors.append(f"{workers} workers: {type(exc).__name__}: {exc}")
            return time.perf_counter() - began
        times[workers].append(elapsed)
        msg = oracle.diff(doc, ref)
        if msg:
            errors.append(f"{workers} workers: {msg}")
        return elapsed

    start, last, attempted = time.perf_counter(), 0.0, 0
    while not attempted or workloads.more_time(start, last, spec["seconds"]):
        last = study(workloads.MC_WORKERS)
        attempted += 1
    study(1)
    attempted += 1
    if len(blobs) == 2 and blobs[1] != blobs[workloads.MC_WORKERS]:
        errors.append("2-worker and 1-worker sim_report.json differ")
    emit({"pooled_s": times[workloads.MC_WORKERS], "serial_s": times[1],
          "attempted": attempted, "failed": min(len(errors), attempted),
          "errors": errors[:5]})


# --- in-process CLI ---------------------------------------------------------

def run_cli(argv) -> int:
    """bnpolicy.cli.main with its console output discarded; the exit code."""
    from bnpolicy.cli import main
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def run_commands(commands, tracer=None) -> dict:
    """Run CLI commands in process, each in a ``cli.<name>`` span when traced."""
    codes = {}
    for name, argv in commands:
        idx = tracer.open(f"cli.{name}") if tracer else None
        try:
            codes[name] = run_cli(argv)
        finally:
            if tracer:
                tracer.close(idx)
    return codes


def fit_a_peak_mb(spec: dict) -> float:
    """tracemalloc peak of single fit_a calls on this workload's data."""
    import numpy as np
    from bnpolicy.alearn import fit_a
    from bnpolicy.data import FeatureMap
    from bnpolicy.errors import BnpolicyError
    from bnpolicy.qlearn import OutcomeModelSpec
    calls = []
    if spec["workload"] == "mc_study":
        from bnpolicy.simlab import CELLS, generate_dgp, splitmix64
        config = mc_config(spec["mc"])
        out, intv, h, _ = generate_dgp(config, splitmix64(config.master_seed, 0))
        for cell in CELLS.values():
            if cell.estimator == "a":
                model = OutcomeModelSpec(FeatureMap(cell.f0_kind), FeatureMap("quadratic"))
                calls.append((out, intv, h, model, FeatureMap(cell.prop_kind)))
    elif spec["workload"] == "cli_session":
        from bnpolicy import io as bio
        paths = spec["inputs"]
        _, out = bio.read_outcome_csv(paths["outcomes"])
        _, intv, _ = bio.read_intervention_csv(paths["interventions"])
        h = bio.read_interference_csv(paths["h"], n=out.n, j=intv.j)
        quad = FeatureMap("quadratic")
        calls.append((out, intv, h, OutcomeModelSpec(quad, quad), quad))
    peak = 0.0
    for out, intv, h, model, prop in calls:
        tracemalloc.start()
        try:
            fit_a(out, intv, h, model, prop_basis=prop)
        except (BnpolicyError, np.linalg.LinAlgError):
            pass  # a replication whose fit fails still allocated up to its peak
        finally:
            peak = max(peak, tracemalloc.get_traced_memory()[1] / 1e6)
            tracemalloc.stop()
    return peak


def run_trace(spec: dict) -> None:
    """Alternate untraced and traced ops in process until time is up.

    Each op is checked against the reference after its timing ends; a
    failed command (or study call) counts once.
    """
    workload = spec["workload"]
    ref = oracle.load(spec["ref"])
    work = spec["work"]
    out_root = os.path.join(work, "out")
    if workload == "mc_study":
        config = mc_config(spec["mc"])
        per_op = 1

        def op(tracer):
            _, doc, _ = mc_report(config, 1, out_root)
            return lambda: [m for m in [oracle.diff(doc, ref["report"])] if m]
    else:
        if workload == "cli_session":
            commands = workloads.session_commands(spec["inputs"], out_root)
            outputs = workloads.SESSION_OUTPUTS
        else:
            commands = workloads.impute_commands(spec["inputs"], out_root, spec["variant"])
            outputs = workloads.IMPUTE_OUTPUTS
        per_op = len(commands)

        def op(tracer):
            codes = run_commands(commands, tracer)
            return lambda: workloads.mismatches(
                workloads.collect(out_root, outputs, codes), ref)

    tracer = Tracer()
    plain, traced, errors = [], [], []
    errors.extend(op(None)())  # warm-up: imports, caches and the heap fill here
    start, last = time.perf_counter(), 0.0
    while not traced or workloads.more_time(start, last, spec["seconds"]):
        began_pair = time.perf_counter()
        for active, times in ((False, plain), (True, traced)):
            shutil.rmtree(out_root, ignore_errors=True)
            if active:
                tracer.install()
                root = tracer.open(ROOT)
            began = time.perf_counter()
            try:
                check = op(tracer if active else None)
            except Exception as exc:  # a failed op is counted, not fatal
                check = lambda exc=exc: [f"{type(exc).__name__}: {exc}"] * per_op
            finally:
                times.append(time.perf_counter() - began)
                if active:
                    tracer.close(root)
                    tracer.remove()
                    tracer.run_id += 1
            errors.extend(check())
        last = time.perf_counter() - began_pair
    metrics = summarize(tracer, len(traced))
    metrics["trace.untraced_wall_s"] = sum(plain) / len(plain)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    metrics["alearn.fit_a.peak_mb"] = fit_a_peak_mb(spec)
    with open(spec["spans_out"], "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    emit({"metrics": metrics, "attempted": per_op * (1 + len(plain) + len(traced)),
          "failed": len(errors), "errors": errors[:5], "ops": len(traced),
          "env": environment()})


def main(argv) -> int:
    mode = argv[1]
    if mode == "env":
        import bnpolicy.cli  # noqa: F401  (the warm-up is the import itself)
        emit({"env": environment()})
    elif mode == "mc":
        run_mc(json.loads(argv[2]))
    elif mode == "trace":
        run_trace(json.loads(argv[2]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
