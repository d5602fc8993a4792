"""bnpolicy benchmark: three workloads, end-to-end metrics, a traced run per layer.

    python3 perfbench/run.py --workload mc_study --seed 1 --seconds 34 --trace 0
    python3 perfbench/run.py --workload all --seed 1
    python3 perfbench/run.py --smoke

Run from the repository root.  ``--trace 0`` times the workload as users run
it and reports the end-to-end metrics; ``--trace 1`` runs the same inputs
serially in one process with every layer wrapped and reports the per-layer
metrics.  Human-readable lines start with ``#``; the last line of standard
output is the JSON result.  ``--smoke`` runs every workload at a tiny size in
both modes and checks the result schema against ``BENCHMARK.json``.
See perfbench/README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import inputs
import oracle
import workloads
from workloads import SIZES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
WORK_BASE = os.path.join(ROOT, ".bench_work")
# Removed from the program's environment so library defaults apply everywhere.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BNPOLICY_THREADS")
# A run, children included, must end within 180 s; children still running at
# this many seconds into the run are killed.
RUN_BUDGET_S = 165
IMPORT_SAMPLES = {"full": 3, "smoke": 1}


class SetupError(RuntimeError):
    """The program could not be set up; no result is printed."""


class Workdir:
    """A run's scratch directory and the time by which its processes must end."""

    def __init__(self, path: str, budget_s: float = RUN_BUDGET_S):
        self.path = path
        self.deadline = time.monotonic() + budget_s


class Child:
    """A finished child process: exit code, timings, peak memory and output."""

    def __init__(self, code, seconds, ready_s, rss_mb, lines, stderr):
        self.code, self.seconds, self.ready_s = code, seconds, ready_s
        self.rss_mb, self.lines, self.stderr = rss_mb, lines, stderr

    @property
    def ok(self) -> bool:
        return self.code == 0 and "Traceback" not in self.stderr

    def result(self) -> dict:
        return json.loads(self.lines[-1])


def program_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(argv, work: Workdir) -> Child:
    """Run a program process to completion and reap it with its rusage.

    ``ready_s`` is when the child printed its ``{"ready"`` line, if it did.
    ``rss_mb`` is the peak resident set of the child or of any descendant it
    waited for (ru_maxrss), so it never counts the harness.  The child gets
    its own process group, which is killed if the run's deadline passes.
    """
    err_path = os.path.join(work.path, "child-stderr.txt")
    with open(err_path, "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=program_env(), start_new_session=True,
                                stdout=subprocess.PIPE, stderr=err)
        timer = threading.Timer(max(1.0, work.deadline - time.monotonic()),
                                _kill_group, (proc.pid,))
        timer.start()
        lines, ready_s, status = [], None, None
        try:
            for raw in proc.stdout:
                if ready_s is None and raw.startswith(b'{"ready"'):
                    ready_s = time.perf_counter() - start
                lines.append(raw.decode("utf-8", "replace"))
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - start
        finally:
            timer.cancel()
            proc.stdout.close()
            if status is None:
                _kill_group(proc.pid)
                os.waitpid(proc.pid, 0)
                proc.returncode = -9
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    return Child(proc.returncode, seconds, ready_s, usage.ru_maxrss / 1024.0,
                 lines, stderr)


def describe(values, unit) -> str:
    """Mean, median, the highest percentile with ten samples beyond it, the samples."""
    vals = sorted(values)
    n = len(vals)
    text = f"mean {statistics.fmean(vals):.4g} {unit}, median {statistics.median(vals):.4g} {unit}"
    tail = [p for p in (99.9, 99, 90, 75) if n * (1 - p / 100) >= 10]
    if tail:
        p = tail[0]
        text += f", p{p:g} {vals[min(n - 1, int(n * p / 100))]:.4g} {unit}"
    else:
        text += ", no percentile has 10 samples beyond it"
    return text + f" (n={n}; samples {' '.join(f'{v:.4g}' for v in values)})"


def note(label, value) -> None:
    print(f"# {label}: {value}")


# --- untraced workloads -------------------------------------------------------

def mc_spec(seed: int, size: str) -> dict:
    var = workloads.variant(seed)
    return {"reps": SIZES[size]["mc_reps"], "size": SIZES[size]["mc_size"],
            "master_seed": workloads.mc_master_seed(var),
            "ref": oracle.ref_path("mc_study", var, size == "smoke")}


def mc_study(seed, seconds, size, work) -> dict:
    """2-worker studies in a closed loop, then the 1-worker baseline study."""
    spec = {**mc_spec(seed, size), "seconds": seconds, "work": work.path}
    setups = []
    for k in range(SIZES[size]["setups"]):
        spec["setup_only"] = k < SIZES[size]["setups"] - 1
        child = run_child([sys.executable, CHILD, "mc", json.dumps(spec)], work)
        if child.ready_s is None:
            raise SetupError(f"mc child failed to set up:\n{child.stderr}")
        setups.append(child.ready_s)
    note("env", json.dumps(json.loads(child.lines[0])["env"]))
    reps = spec["reps"]
    note("mc study", f"SimConfig n={spec['size'].get('n', 2000)} "
         f"J={spec['size'].get('j', 100)} reps={reps} master_seed={spec['master_seed']}")
    res = child.result() if len(child.lines) > 1 else {"pooled_s": []}
    if not res["pooled_s"]:
        raise SetupError(f"no 2-worker study completed:\n{child.stderr[-4000:]}")
    for msg in res["errors"]:
        note("error", msg)
    if not child.ok:
        note("error", f"study process exited {child.code}: {child.stderr[-2000:]}")
        res["failed"] += 1
    note("mc_reps_per_s", describe([reps / t for t in res["pooled_s"]], "reps/s")
         + f" with {workloads.MC_WORKERS} workers")
    if res["serial_s"]:
        note("mc_serial_reps_per_s", describe([reps / t for t in res["serial_s"]],
                                              "reps/s") + " with 1 worker")
    return {"attempted": res["attempted"], "failed": res["failed"], "setups": setups,
            "op": [t / reps for t in res["pooled_s"]], "rss_mb": child.rss_mb}


def cli_inputs(workload, seed, size, work) -> tuple[dict, list, dict]:
    """(input paths, commands, expected outputs) of a CLI workload."""
    var = workloads.variant(seed)
    bundle = SIZES[size]["bundle"]
    out_root = os.path.join(work.path, "out")
    if workload == "cli_session":
        info = inputs.write_bundle(work.path, var, bundle)
        return info, workloads.session_commands(info, out_root), workloads.SESSION_OUTPUTS
    info = inputs.write_plants(work.path, var, bundle)
    return (info, workloads.impute_commands(info, out_root, var),
            workloads.IMPUTE_OUTPUTS)


def cli_workload(workload, seed, seconds, size, work) -> dict:
    """Each command is its own `python -m bnpolicy.cli` process, closed loop."""
    setups = []
    for _ in range(SIZES[size]["setups"]):
        start = time.perf_counter()
        info, commands, outputs = cli_inputs(workload, seed, size, work)
        warm = run_child([sys.executable, CHILD, "env"], work)
        if not warm.ok:
            raise SetupError(f"cannot import bnpolicy.cli:\n{warm.stderr}")
        setups.append(time.perf_counter() - start)
    note("env", json.dumps(warm.result()["env"]))
    note("inputs", json.dumps(info["facts"]))
    ref = oracle.load(oracle.ref_path(workload, workloads.variant(seed), size == "smoke"))
    out_root = os.path.join(work.path, "out")
    ops, per_cmd, rss = [], {name: [] for name, _ in commands}, []
    attempted = failed = 0
    began = time.perf_counter()
    while not ops or workloads.more_time(began, ops[-1], seconds):
        shutil.rmtree(out_root, ignore_errors=True)
        codes, broken = {}, set()
        start = time.perf_counter()
        for name, argv in commands:
            child = run_child([sys.executable, "-m", "bnpolicy.cli", *argv], work)
            codes[name] = child.code
            per_cmd[name].append(child.seconds)
            rss.append(child.rss_mb)
            if not child.ok:
                broken.add(name)
                note("error", f"{name} exited {child.code}: {child.stderr[-500:]}")
        ops.append(time.perf_counter() - start)
        for msg in workloads.mismatches(workloads.collect(out_root, outputs, codes), ref):
            broken.add(msg.split(".", 1)[0])
            note("error", msg)
        attempted += len(commands)
        failed += len(broken)
    label = "session_s" if workload == "cli_session" else "impute_s"
    note(label, describe(ops, "s"))
    for name, times in per_cmd.items():
        note(f"cli.{name} wall", describe(times, "s"))
    return {"attempted": attempted, "failed": failed, "setups": setups, "op": ops,
            "rss_mb": max(rss)}


def untraced(workload, seed, seconds, size, work) -> dict:
    if workload == "mc_study":
        res = mc_study(seed, seconds, size, work)
    else:
        res = cli_workload(workload, seed, seconds, size, work)
    note("setup_s", describe(res["setups"], "s"))
    note("peak_rss_mb", f"{res['rss_mb']:.1f} MB")
    note("error_rate", f"{res['failed']}/{res['attempted']} = "
         f"{res['failed'] / res['attempted']:.4g}")
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": {
                "setup_s": {"value": statistics.median(res["setups"]), "unit": "s"},
                "op_s": {"value": statistics.fmean(res["op"]), "unit": "s"},
                "peak_rss_mb": {"value": res["rss_mb"], "unit": "MB"}}}


# --- traced run -----------------------------------------------------------------

def import_seconds(size, work) -> float:
    """Median wall time of a fresh interpreter running `import bnpolicy.cli`."""
    times = []
    for _ in range(IMPORT_SAMPLES[size]):
        child = run_child([sys.executable, "-c", "import bnpolicy.cli"], work)
        if not child.ok:
            raise SetupError(f"cannot import bnpolicy.cli:\n{child.stderr}")
        times.append(child.seconds)
    return statistics.median(times)


def traced(workload, seed, seconds, size, work) -> dict:
    var = workloads.variant(seed)
    spec = {"workload": workload, "seconds": seconds, "work": work.path, "variant": var,
            "ref": oracle.ref_path(workload, var, size == "smoke"),
            "spans_out": os.path.join(WORK_BASE, f"spans-{workload}-seed{seed}.jsonl")}
    if workload == "mc_study":
        spec["mc"] = mc_spec(seed, size)
    else:
        info, _, _ = cli_inputs(workload, seed, size, work)
        spec["inputs"] = info
        note("inputs", json.dumps(info["facts"]))
    import_s = import_seconds(size, work)
    child = run_child([sys.executable, CHILD, "trace", json.dumps(spec)], work)
    if not child.ok or not child.lines:
        raise SetupError(f"traced run failed:\n{child.stderr[-4000:]}")
    res = child.result()
    note("env", json.dumps(res["env"]))
    for msg in res["errors"]:
        note("error", msg)
    m = dict(res["metrics"], **{"cli.import_s": import_s})
    self_sum = sum(v for k, v in m.items() if k.endswith(".self_s")) + m["unattributed.s"]
    note("traced ops", f"{res['ops']}; spans in {os.path.relpath(spec['spans_out'], ROOT)}")
    note("trace wall per op", f"{m['trace.wall_s']:.4f} s traced, "
         f"{m['trace.untraced_wall_s']:.4f} s untraced, overhead "
         f"{m['trace.overhead_s']:.4f} s; self times + unattributed = {self_sum:.4f} s")
    units = per_layer_units()
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {k: {"value": m[k], "unit": units[k]} for k in sorted(units)}}


def per_layer_units() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


# --- entry points -------------------------------------------------------------

def run(workload, seed, seconds, trace, size="full") -> dict:
    if not os.path.isfile(os.path.join(SRC, "bnpolicy", "cli.py")):
        raise SetupError(f"package source not found under {os.path.relpath(SRC, ROOT)}/")
    work = Workdir(os.path.join(WORK_BASE, f"{workload}-{os.getpid()}"))
    shutil.rmtree(work.path, ignore_errors=True)
    os.makedirs(work.path)
    try:
        note("run", f"workload={workload} seed={seed} variant={workloads.variant(seed)} "
             f"seconds={seconds} trace={trace} size={size}")
        if trace:
            return traced(workload, seed, seconds, size, work)
        return untraced(workload, seed, seconds, size, work)
    finally:
        shutil.rmtree(work.path, ignore_errors=True)


def smoke() -> int:
    """Every workload, both modes, tiny sizes; checks the schema of each result."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    assert [w["name"] for w in bench["workloads"]] == list(workloads.NAMES)
    problems = []
    for workload in workloads.NAMES:
        for trace in (0, 1):
            result = run(workload, 0, 1, trace, size="smoke")
            print(json.dumps(result))
            tag = f"{workload} trace={trace}"
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                problems.append(f"{tag}: not correct ({result['failed']} failed)")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{tag}: metric names or units differ from BENCHMARK.json")
            if not all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()):
                problems.append(f"{tag}: non-numeric metric value")
    for msg in problems:
        print(f"# smoke FAIL {msg}")
    print(f"# smoke {'FAIL' if problems else 'OK'}: {len(workloads.NAMES)} workloads x 2 modes")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*workloads.NAMES, "all"),
                        help="'all' runs the three workloads one after another")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=34.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required unless --smoke is given")
        names = workloads.NAMES if args.workload == "all" else [args.workload]
        for name in names:
            print(json.dumps(run(name, args.seed, args.seconds, args.trace)))
    except SetupError as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
