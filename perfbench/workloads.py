"""What each workload runs: sizes, input variants, commands and outputs.

Shared by the harness (``run.py``), the in-process child (``child.py``) and
the reference recorder; it imports nothing from the package.
"""
from __future__ import annotations

import os
import time

from inputs import FULL, SMOKE
from oracle import diff, parse_output

NAMES = ("mc_study", "cli_session", "cost_impute")

# Reference outputs exist for this many input variants; the workload seed
# picks one, so any seed has a reference to check against.
VARIANTS = 4

# Per size: the CLI bundle, the replications per mc_study study call and the
# study's SimConfig overrides (none: the default n=2000, J=100, p=q=3), and how
# many times set-up is repeated.  "smoke" is the self-test's tiny size.
SIZES = {
    "full": {"bundle": FULL, "mc_reps": 20, "mc_size": {}, "setups": 3},
    "smoke": {"bundle": SMOKE, "mc_reps": 3, "mc_size": {"n": 300, "j": 30},
              "setups": 1},
}
MC_WORKERS = 2

MODEL_ARGS = ["--f0-basis", "quadratic", "--fa-basis", "quadratic",
              "--prop-basis", "quadratic"]


def more_time(began: float, last_op_s: float, seconds: float) -> bool:
    """Whether another operation, as long as the last one, would end in time.

    Closed loops start operations only while this holds (and always start
    the first), so runs of long operations end near ``seconds`` instead of
    up to a whole operation past it.
    """
    return time.perf_counter() - began + last_op_s <= seconds


def variant(seed: int) -> int:
    return seed % VARIANTS


def mc_master_seed(var: int) -> int:
    return 20_240_817 + var


def session_commands(paths: dict, out_root: str):
    """(name, argv) of the analyst session, in order."""
    bundle = ["--outcomes", paths["outcomes"], "--interventions",
              paths["interventions"], "--h", paths["h"]]
    return [
        ("effects", ["effects", *bundle, "--estimator", "a", *MODEL_ARGS,
                     "--out-dir", os.path.join(out_root, "effects")]),
        ("policy", ["policy", *bundle, "--estimator", "a", *MODEL_ARGS,
                    "--budget-frac", "0.2", "--out-dir", os.path.join(out_root, "policy")]),
        ("sweep", ["sweep", *bundle, "--estimator", "a", *MODEL_ARGS,
                   "--out-dir", os.path.join(out_root, "sweep")]),
        ("fit", ["fit", *bundle, "--estimator", "q", *MODEL_ARGS,
                 "--out-dir", os.path.join(out_root, "fit")]),
    ]


def impute_commands(paths: dict, out_root: str, var: int):
    return [("impute_costs", ["impute-costs", "--interventions", paths["interventions"],
                              "--seed", str(var), "--out-dir", out_root])]


# output files of each command, relative to the operation's output root
SESSION_OUTPUTS = {"effects": ["effects/effects.csv"], "policy": ["policy/policy.json"],
                   "sweep": ["sweep/sweep.csv"], "fit": ["fit/outcome_coefficients.csv"]}
IMPUTE_OUTPUTS = {"impute_costs": ["imputed_costs.csv", "leaderboard.csv",
                                   "importance.csv"]}


def collect(out_root: str, outputs: dict, exit_codes: dict) -> dict:
    """Exit code and parsed output files of each command, for the oracle."""
    doc = {}
    for name, rels in outputs.items():
        files = {}
        for rel in rels:
            path = os.path.join(out_root, rel)
            files[rel] = parse_output(path) if os.path.exists(path) else None
        doc[name] = {"exit_code": exit_codes.get(name), "files": files}
    return doc


def mismatches(doc: dict, ref: dict) -> list:
    """One message per command whose exit code or outputs differ from the reference."""
    found = []
    for name in ref:
        msg = diff(doc.get(name), ref[name], name)
        if msg:
            found.append(msg)
    return found
