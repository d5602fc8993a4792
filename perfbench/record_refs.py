"""Record the reference outputs the benchmark checks every run against.

    python3 perfbench/record_refs.py

Run from the repository root at the commit whose outputs are the reference.
It runs each workload's operation once per input variant (and once at the
smoke size) in process and writes ``perfbench/refs/*.json.gz``.
"""
from __future__ import annotations

import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# the variables run.py removes, cleared before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BNPOLICY_THREADS"):
    os.environ.pop(_var, None)
sys.path.insert(0, os.path.join(ROOT, "src"))

import child  # noqa: E402  (needs the package path above)
import inputs  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from workloads import SIZES  # noqa: E402


def record(var: int, size: str, work: str) -> None:
    smoke = size == "smoke"
    config = child.mc_config({"reps": SIZES[size]["mc_reps"], "size": SIZES[size]["mc_size"],
                              "master_seed": workloads.mc_master_seed(var)})
    _, doc, _ = child.mc_report(config, 1, os.path.join(work, "mc"))
    oracle.save(oracle.ref_path("mc_study", var, smoke), {"report": doc})

    out_root = os.path.join(work, "out")
    bundle = inputs.write_bundle(work, var, SIZES[size]["bundle"])
    plants = inputs.write_plants(work, var, SIZES[size]["bundle"])
    for workload, commands, outputs in (
            ("cli_session", workloads.session_commands(bundle, out_root),
             workloads.SESSION_OUTPUTS),
            ("cost_impute", workloads.impute_commands(plants, out_root, var),
             workloads.IMPUTE_OUTPUTS)):
        shutil.rmtree(out_root, ignore_errors=True)
        codes = child.run_commands(commands)
        if any(codes.values()):
            raise SystemExit(f"{workload} variant {var}: exit codes {codes}")
        oracle.save(oracle.ref_path(workload, var, smoke),
                    workloads.collect(out_root, outputs, codes))
    print(f"recorded {size} variant {var}: {bundle['facts']} {plants['facts']}")


def main() -> int:
    work = os.path.join(ROOT, ".bench_work", "record")
    try:
        for size, variants in (("smoke", 1), ("full", workloads.VARIANTS)):
            for var in range(variants):
                shutil.rmtree(work, ignore_errors=True)
                os.makedirs(work)
                record(var, size, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
