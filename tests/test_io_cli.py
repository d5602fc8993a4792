import ast
import glob
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
import typing
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bnpolicy
from bnpolicy import FeatureMap, cli, fit_propensity, trim_by_propensity
from bnpolicy._blas import usable_cpus
from bnpolicy.cli import main
from bnpolicy.effects import EffectTable
from bnpolicy.errors import DataValidationError
from bnpolicy.io import (EFFECTS_COLUMNS, read_interference_csv, read_intervention_csv,
                         read_outcome_csv, write_effects_csv)


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def _read_effects(path):
    """Ids and numeric columns of an effects.csv; a blank cell reads as NaN."""
    with open(path, encoding="utf-8") as fh:
        assert next(fh) == "# bnpolicy-effects v1\n"
        assert tuple(next(fh).rstrip("\n").split(",")) == EFFECTS_COLUMNS
        rows = [line.rstrip("\n").split(",") for line in fh]
    columns = {name: np.array([float(r[k]) if r[k] else np.nan for r in rows])
               for k, name in enumerate(EFFECTS_COLUMNS) if name != "id"}
    return [r[0] for r in rows], columns


def make_fixture(tmp_path, n=40, j=6, noise=0.0, seed=0, person_years=False):
    """Noiseless-by-default linear fixture with known coefficients."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 2))
    z = rng.standard_normal((j, 1))
    h = rng.lognormal(0.0, 0.4, (n, j))
    a = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0][:j])
    cost = rng.uniform(0.5, 2.0, j)
    alpha0 = np.array([0.4, -0.3, 0.2])
    beta0 = np.array([-0.6, 0.25, -0.1])
    fa = FeatureMap("linear")
    abar = h @ a / j
    y = fa.expand(x) @ alpha0 + abar * (fa.expand(x) @ beta0)
    if noise:
        y = y + noise * rng.standard_normal(n)
    out_lines = ["id,y" + (",person_years" if person_years else "") + ",x1,x2"]
    for i in range(n):
        py = f",{1000 + 10 * i}" if person_years else ""
        out_lines.append(f"o{i},{float(y[i])!r}{py},{float(x[i, 0])!r},{float(x[i, 1])!r}")
    int_lines = ["id,a,cost,z1"]
    for k in range(j):
        int_lines.append(f"p{k},{a[k]:.0f},{float(cost[k])!r},{float(z[k, 0])!r}")
    h_lines = [",".join(repr(float(v)) for v in row) for row in h]
    paths = {
        "outcomes": _write(tmp_path / "outcomes.csv", "\n".join(out_lines) + "\n"),
        "interventions": _write(tmp_path / "interventions.csv",
                                "\n".join(int_lines) + "\n"),
        "h": _write(tmp_path / "h.csv", "\n".join(h_lines) + "\n"),
    }
    return paths, alpha0, beta0


def test_outcome_and_intervention_readers(tmp_path):
    paths, *_ = make_fixture(tmp_path, person_years=True)
    ids, out = read_outcome_csv(paths["outcomes"])
    assert ids[0] == "o0" and out.n == 40 and out.p == 2
    assert out.person_years is not None
    ids_i, intv, raw = read_intervention_csv(paths["interventions"])
    assert ids_i[0] == "p0" and intv.cost is not None
    assert np.array_equal(raw, intv.cost)


def test_interference_triplet_reader(tmp_path):
    path = _write(tmp_path / "h3.csv", "i,j,value\n0,0,1.5\n1,1,2.5\n")
    h = read_interference_csv(path, n=2, j=2)
    assert np.array_equal(h.toarray(), np.array([[1.5, 0.0], [0.0, 2.5]]))


def test_effects_round_trip(tmp_path, rng):
    j = 5
    table = EffectTable(
        total_effect=rng.standard_normal(j),
        se=np.abs(rng.standard_normal(j)),
        p_one_sided=rng.uniform(0, 1, j),
        ci_low=rng.standard_normal(j),
        ci_high=rng.standard_normal(j),
        benefit_cost=np.array([1.25, np.nan, -0.5, 3.75, 0.0]),
        structural_zero=np.array([False, True, False, False, True]),
        level=0.95)
    ids = [f"p{k}" for k in range(j)]
    path = tmp_path / "effects.csv"
    write_effects_csv(path, ids, table)
    ids2, columns = _read_effects(path)
    assert ids2 == ids
    for field in ("total_effect", "se", "p_one_sided", "ci_low", "ci_high"):
        assert np.array_equal(getattr(table, field), columns[field])
    assert np.array_equal(table.benefit_cost, columns["benefit_cost"], equal_nan=True)
    assert np.array_equal(table.structural_zero, columns["structural_zero"] == 1)


def test_cli_fit_recovers_noiseless_truth(tmp_path, capsys):
    paths, alpha0, beta0 = make_fixture(tmp_path)
    out_dir = tmp_path / "fit_out"
    code = main(["fit", "--outcomes", paths["outcomes"],
                 "--interventions", paths["interventions"], "--h", paths["h"],
                 "--estimator", "q", "--out-dir", str(out_dir)])
    assert code == 0
    rows = (out_dir / "outcome_coefficients.csv").read_text().strip().splitlines()
    estimates = [float(r.split(",")[1]) for r in rows[2:]]
    assert np.max(np.abs(np.array(estimates)
                         - np.concatenate([alpha0, beta0]))) <= 1e-8


def test_cli_effects_and_round_trip(tmp_path):
    paths, _, beta0 = make_fixture(tmp_path, noise=0.05)
    out_dir = tmp_path / "eff_out"
    code = main(["effects", "--outcomes", paths["outcomes"],
                 "--interventions", paths["interventions"], "--h", paths["h"],
                 "--estimator", "a", "--prop-basis", "linear",
                 "--out-dir", str(out_dir)])
    assert code == 0
    ids, columns = _read_effects(out_dir / "effects.csv")
    assert len(ids) == 6
    assert np.all(columns["ci_low"] <= columns["total_effect"])
    assert np.all(columns["total_effect"] <= columns["ci_high"])


def test_cli_policy_and_sweep(tmp_path):
    paths, *_ = make_fixture(tmp_path, noise=0.05)
    pol_dir = tmp_path / "pol_out"
    code = main(["policy", "--outcomes", paths["outcomes"],
                 "--interventions", paths["interventions"], "--h", paths["h"],
                 "--estimator", "q", "--budget-frac", "0.3",
                 "--out-dir", str(pol_dir)])
    assert code == 0
    doc = json.loads((pol_dir / "policy.json").read_text())
    assert doc["spent"] <= doc["budget"] * (1 + 1e-9)
    assert set(doc["allocation"]) == {f"p{k}" for k in range(6)}

    sweep_dir = tmp_path / "sweep_out"
    code = main(["sweep", "--outcomes", paths["outcomes"],
                 "--interventions", paths["interventions"], "--h", paths["h"],
                 "--estimator", "q", "--out-dir", str(sweep_dir)])
    assert code == 0
    lines = (sweep_dir / "sweep.csv").read_text().strip().splitlines()
    data_rows = [ln for ln in lines if not ln.startswith("#")][1:]
    assert len(data_rows) == 9
    for row in data_rows:
        cells = row.split(",")
        assert float(cells[1]) <= float(cells[3]) + 1e-12
    assert "# dominance_holds=1" in lines


def test_cli_impute_costs(tmp_path, rng):
    j = 40
    z = rng.standard_normal((j, 2))
    cost = 5.0 + 2.0 * z[:, 0]
    lines = ["id,a,cost,z1,z2"]
    for k in range(j):
        shown = "" if k % 4 == 0 else repr(float(cost[k]))
        lines.append(f"p{k},{k % 2},{shown},{float(z[k, 0])!r},{float(z[k, 1])!r}")
    path = _write(tmp_path / "int_missing.csv", "\n".join(lines) + "\n")
    out_dir = tmp_path / "costs_out"
    code = main(["impute-costs", "--interventions", path, "--seed", "3",
                 "--out-dir", str(out_dir)])
    assert code == 0
    rows = (out_dir / "imputed_costs.csv").read_text().strip().splitlines()
    imputed = [r for r in rows if r.endswith(",imputed")]
    assert len(imputed) == j // 4
    assert (out_dir / "leaderboard.csv").exists()


def test_cli_simulate_determinism(tmp_path):
    config = {"n": 300, "j": 30, "p": 2, "q": 2, "reps": 2, "master_seed": 99}
    cfg = _write(tmp_path / "cfg.json", json.dumps(config))
    outs = []
    for tag in ("r1", "r2"):
        out_dir = tmp_path / tag
        assert main(["simulate", "--config", cfg, "--out-dir", str(out_dir)]) == 0
        outs.append((out_dir / "sim_report.json").read_bytes())
    assert outs[0] == outs[1]


def test_cli_simulate_thread_count_invariance(tmp_path):
    config = {"n": 300, "j": 30, "p": 2, "q": 2, "reps": 3, "master_seed": 5}
    cfg = _write(tmp_path / "cfg.json", json.dumps(config))
    outs = []
    for tag, threads in (("t1", "1"), ("t2", "2")):
        out_dir = tmp_path / tag
        assert main(["simulate", "--config", cfg, "--threads", threads,
                     "--out-dir", str(out_dir)]) == 0
        outs.append((out_dir / "sim_report.json").read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("value", ["abc", "2.5", "", "0"])
def test_cli_simulate_rejects_a_bad_threads_variable(tmp_path, capsys, monkeypatch,
                                                     value):
    config = {"n": 300, "j": 30, "p": 2, "q": 2, "reps": 1, "master_seed": 5}
    cfg = _write(tmp_path / "cfg.json", json.dumps(config))
    monkeypatch.setenv("BNPOLICY_THREADS", value)
    out_dir = tmp_path / "out"
    code = main(["simulate", "--config", cfg, "--out-dir", str(out_dir)])
    err = capsys.readouterr().err
    assert code == 2
    assert "BNPOLICY_THREADS" in err and repr(value) in err
    assert "Traceback" not in err
    assert not out_dir.exists()


@pytest.mark.parametrize("value", ["0", "-1"])
def test_cli_simulate_rejects_a_thread_count_below_one(tmp_path, capsys, value):
    config = {"n": 300, "j": 30, "p": 2, "q": 2, "reps": 1, "master_seed": 5}
    cfg = _write(tmp_path / "cfg.json", json.dumps(config))
    out_dir = tmp_path / "out"
    code = main(["simulate", "--config", cfg, "--threads", value,
                 "--out-dir", str(out_dir)])
    err = capsys.readouterr().err
    assert code == 2
    assert "--threads" in err and repr(value) in err
    assert "Traceback" not in err
    assert not out_dir.exists()


@pytest.mark.parametrize("key,value", [("reps", 2.5), ("n", 300.5), ("master_seed", 1.5),
                                       ("h_diffuse_degree", 2.5), ("reps", True)])
def test_cli_simulate_rejects_a_non_integer_count(tmp_path, capsys, key, value):
    config = {"n": 300, "j": 30, "p": 2, "q": 2, "reps": 1, "master_seed": 5, key: value}
    cfg = _write(tmp_path / "cfg.json", json.dumps(config))
    out_dir = tmp_path / "out"
    code = main(["simulate", "--config", cfg, "--out-dir", str(out_dir)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and f"{key} must be an integer, got {value!r}" in err
    assert "Traceback" not in err
    assert not out_dir.exists()


def test_cli_import_leaves_scipy_stats_unloaded():
    import bnpolicy
    src = os.path.dirname(os.path.dirname(bnpolicy.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, bnpolicy.cli; print('scipy.stats' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"


def _run_python(*argv, stdin=None, **env):
    """stdout of a fresh interpreter that imports the package from this checkout,
    with the text ``stdin`` piped to it."""
    src = os.path.dirname(os.path.dirname(bnpolicy.__file__))
    done = subprocess.run([sys.executable, *argv], env=dict(os.environ, PYTHONPATH=src, **env),
                          input=stdin, capture_output=True, text=True, check=True)
    return done.stdout


# a probe that runs impute-costs, then lists the scipy modules loaded in this
# process and in each worker of a two-worker pool
IMPUTE_PROBE = """
import json, sys
from bnpolicy._blas import map_in_order
from bnpolicy.cli import main

def scipy_modules(_=None):
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

code = main(["impute-costs", "--interventions", sys.argv[1], "--out-dir", sys.argv[2]])
print(json.dumps([code, scipy_modules(), map_in_order(scipy_modules, range(2), 2)]))
"""


def test_cli_impute_costs_loads_no_scipy(tmp_path):
    path = _plants_with_a_nonlinear_cost(tmp_path)
    out = _run_python("-c", IMPUTE_PROBE, path, str(tmp_path / "out"), BNPOLICY_THREADS="2")
    code, here, workers = json.loads(out.splitlines()[-1])
    assert code == 0 and (tmp_path / "out" / "importance.csv").exists()
    assert here == [] and workers == [[], []]


# a probe that runs one command and then lists the process-pool modules loaded
# in this process and counts the processes it forked; PROBE_CPUS, where set,
# is the number of usable CPUs a bundle command sees
POOL_PROBE = """
import json, os, sys
forks = []
os.register_at_fork(after_in_parent=lambda: forks.append(1))
from bnpolicy import cli
from bnpolicy.cli import main

if "PROBE_CPUS" in os.environ:
    cli.usable_cpus = lambda: int(os.environ["PROBE_CPUS"])

code = main(sys.argv[1:])
pools = sorted(m for m in sys.modules
               if m.split(".")[0] in ("multiprocessing", "concurrent"))
print(json.dumps([code, pools, len(forks)]))
"""


def test_cli_a_bundle_command_loads_no_pool_module(tmp_path):
    """A bundle command starts no process pool. It forks one child to parse a
    regular transport file on more than one usable CPU, and none on one CPU or
    for a pipe, which only the command itself can read."""
    paths, *_ = make_fixture(tmp_path)
    with open(paths["h"], encoding="utf-8") as fh:
        h_text = fh.read()
    # case: usable CPUs the command sees (None: as many as it has), forks expected
    cases = [("one_cpu", "1", 0)]
    if os.path.exists("/dev/stdin"):
        cases.append(("piped", "2", 0))
    if usable_cpus() >= 2:
        cases.append(("regular", None, 1))
    for case, cpus, expected_forks in cases:
        out_dir = tmp_path / case
        out = _run_python("-c", POOL_PROBE, "effects", "--outcomes", paths["outcomes"],
                          "--interventions", paths["interventions"],
                          "--h", "/dev/stdin" if case == "piped" else paths["h"],
                          "--out-dir", str(out_dir),
                          stdin=h_text if case == "piped" else None,
                          **({} if cpus is None else {"PROBE_CPUS": cpus}))
        code, pools, forks = json.loads(out.splitlines()[-1])
        assert code == 0 and (out_dir / "effects.csv").exists(), case
        assert pools == [] and forks == expected_forks, case


def test_cli_impute_costs_still_forks_its_workers(tmp_path):
    if usable_cpus() < 2:
        pytest.skip("impute-costs runs its forest serially on one CPU")
    out = _run_python("-c", POOL_PROBE, "impute-costs", "--interventions",
                      _plants_with_a_nonlinear_cost(tmp_path), "--out-dir",
                      str(tmp_path / "out"), BNPOLICY_THREADS="2")
    code, pools, forks = json.loads(out.splitlines()[-1])
    assert code == 0 and (tmp_path / "out" / "importance.csv").exists()
    assert {"concurrent.futures.process", "multiprocessing"} <= set(pools) and forks > 0


# every public name of the package: its modules and what they export
PUBLIC_NAMES = [
    "AFit", "BnpolicyError", "CELLS", "CellResult", "CellSpec", "CellStats",
    "CostModelFit", "DataValidationError", "EffectTable", "EstimationError",
    "FeatureMap", "InterferenceMap", "InterventionTable", "OutcomeFit",
    "OutcomeModelSpec", "OutcomeTable", "PolicySolution", "PropensityFit",
    "RankDeficiencyError", "RegressionForest", "RegressionTree", "SimConfig",
    "SimReport", "SingularSystemError", "SplitSpec", "TrimReport", "Truth",
    "a_covariance", "a_equations", "a_system", "alearn", "apply_trim", "benefit_cost",
    "budget_sweep", "calibrate_propensity_intercept", "costimpute", "data",
    "effect_table", "effects", "errors", "fit_a",
    "fit_cost_models", "fit_propensity", "fit_q", "generate_dgp", "knapsack_policy",
    "nmae", "policy", "policy_count", "predict_costs", "propensity", "qlearn",
    "run_cell", "run_monte_carlo", "run_replication", "seeding", "simlab",
    "split_train_val", "splitmix64", "standardize", "te_ranked_policy", "total_effects",
    "trim_by_propensity", "truncate_fractional", "unconstrained_policy",
    "validate_bundle"]


def test_package_import_loads_no_submodule_and_unknown_names_import_nothing():
    probe = ("import json, sys, bnpolicy\n"
             "loaded = lambda: sorted(m for m in sys.modules if m.startswith('bnpolicy'))\n"
             "first = loaded()\n"
             "public = [name for name in dir(bnpolicy) if not name.startswith('_')]\n"
             "missing = hasattr(bnpolicy, 'no_such_name')\n"
             "print(json.dumps([first, public, missing, loaded()]))")
    first, public, missing, after = json.loads(_run_python("-c", probe))
    assert first == ["bnpolicy"] and public == PUBLIC_NAMES
    assert not missing and after == ["bnpolicy"]


def test_every_public_name_is_exported_and_bound_by_a_star_import():
    assert sorted(bnpolicy.__all__) == PUBLIC_NAMES
    namespace = {}
    exec("from bnpolicy import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC_NAMES
    modules = [mod for key, mod in sys.modules.items() if key.startswith("bnpolicy.")]
    for name in PUBLIC_NAMES:
        value = namespace[name]
        assert any(mod is value or vars(mod).get(name) is value for mod in modules), name
    with pytest.raises(AttributeError, match="no_such_name"):
        bnpolicy.no_such_name


def test_cli_bad_config_field_named(tmp_path, capsys):
    cfg = _write(tmp_path / "bad.json", json.dumps({"snr": 0}))
    code = main(["simulate", "--config", cfg, "--out-dir", str(tmp_path / "x")])
    assert code == 2
    assert "snr" in capsys.readouterr().err


def test_cli_unknown_config_key_rejected(tmp_path, capsys):
    cfg = _write(tmp_path / "bad2.json", json.dumps({"reps": 2, "snrr": 3}))
    code = main(["simulate", "--config", cfg, "--out-dir", str(tmp_path / "x")])
    assert code == 2
    assert "snrr" in capsys.readouterr().err


def test_cli_a_config_that_is_not_utf8_exits_2_naming_the_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b'{"reps": 1, "n": 300, "\xff\xfe": 1}')
    code = main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "x")])
    assert code == 2
    assert capsys.readouterr().err == f"validation failure: {cfg}: not UTF-8 text\n"
    assert not (tmp_path / "x").exists()


def test_cli_invalid_bundle_exit_code(tmp_path, capsys):
    paths, *_ = make_fixture(tmp_path)
    bad_h = _write(tmp_path / "bad_h.csv",
                   "\n".join(",".join("1.0" for _ in range(6)) for _ in range(3)) + "\n")
    code = main(["effects", "--outcomes", paths["outcomes"],
                 "--interventions", paths["interventions"], "--h", bad_h,
                 "--out-dir", str(tmp_path / "x")])
    assert code == 2


def test_cli_rank_deficiency_exit_code(tmp_path, capsys):
    # duplicated outcome covariate column makes the q design rank deficient
    rng = np.random.default_rng(0)
    n, j = 30, 4
    x1 = rng.standard_normal(n)
    h = rng.lognormal(0.0, 0.3, (n, j))
    a = np.array([1.0, 0.0, 1.0, 0.0])
    y = rng.standard_normal(n)
    out_lines = ["id,y,x1,x2"] + [f"o{i},{float(y[i])!r},{float(x1[i])!r},{float(x1[i])!r}"
                                  for i in range(n)]
    int_lines = ["id,a,z1"] + [f"p{k},{a[k]:.0f},{float(rng.standard_normal())!r}"
                               for k in range(j)]
    paths = {
        "outcomes": _write(tmp_path / "o.csv", "\n".join(out_lines) + "\n"),
        "interventions": _write(tmp_path / "i.csv", "\n".join(int_lines) + "\n"),
        "h": _write(tmp_path / "hh.csv",
                    "\n".join(",".join(repr(float(v)) for v in row) for row in h) + "\n"),
    }
    code = main(["effects", "--outcomes", paths["outcomes"],
                 "--interventions", paths["interventions"], "--h", paths["h"],
                 "--estimator", "q", "--out-dir", str(tmp_path / "x")])
    assert code == 3


def _column_set_to(col, value):
    """Edit that sets column ``col`` of every row after the header to ``value``."""
    return lambda lines: [lines[0]] + [",".join([*cells[:col], value, *cells[col + 1:]])
                                       for cells in (line.split(",") for line in lines[1:])]


def _first_cell_of_row_set_to(row, value):
    return lambda lines: [*lines[:row], value + lines[row][lines[row].index(","):],
                          *lines[row + 1:]]


def _cell_set_to(row, col, value):
    def edit(lines):
        cells = lines[row].split(",")
        cells[col] = value
        return [*lines[:row], ",".join(cells), *lines[row + 1:]]
    return edit


QUADRATIC = ["--f0-basis", "quadratic", "--fa-basis", "quadratic"]
HUGE_Y = ("outcomes", _column_set_to(1, "1e308"))
HUGE_X = ("outcomes", _column_set_to(2, "1e300"))
HUGE_H = ("h", _first_cell_of_row_set_to(2, "1e308"))
HUGE_Z = ("interventions", _cell_set_to(3, 3, "1e300"))  # one plant's z1

# finite input whose fit overflows: command line, the file edited and the edit.
# Each exits 2 with one line, where it raised a traceback or wrote NaN cells.
OVERFLOWS = {
    "fit_q_huge_y": (["fit", "--estimator", "q"], *HUGE_Y),
    "policy_q_huge_y": (["policy", "--estimator", "q", "--budget-frac", "0.2"], *HUGE_Y),
    "fit_q_huge_x": (["fit", "--estimator", "q", *QUADRATIC], *HUGE_X),
    "policy_q_huge_x": (["policy", "--estimator", "q", *QUADRATIC], *HUGE_X),
    "effects_a_huge_y": (["effects", "--estimator", "a"], *HUGE_Y),
    "effects_a_huge_x": (["effects", "--estimator", "a"], *HUGE_X),
    "sweep_a_huge_x": (["sweep", "--estimator", "a"], *HUGE_X),
    "policy_a_huge_x": (["policy", "--estimator", "a"], *HUGE_X),
    "effects_a_huge_h": (["effects", "--estimator", "a"], *HUGE_H),
    "sweep_a_huge_h": (["sweep", "--estimator", "a"], *HUGE_H),
    "policy_a_huge_h": (["policy", "--estimator", "a"], *HUGE_H),
    # the propensity fit overflows: once NaN propensities that trimmed every plant
    "effects_q_trim_huge_z": (["effects", "--estimator", "q", "--trim", "0.05"], *HUGE_Z),
    "effects_a_trim_huge_z": (["effects", "--estimator", "a", "--trim", "0.05"], *HUGE_Z),
    "effects_a_huge_z": (["effects", "--estimator", "a"], *HUGE_Z),
}


@pytest.mark.parametrize("case", OVERFLOWS)
def test_cli_an_overflowing_fit_exits_2_with_one_line(tmp_path, capsys, recwarn, case):
    argv, bad, edit = OVERFLOWS[case]
    paths, *_ = make_fixture(tmp_path, noise=0.05)
    with open(paths[bad], encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    paths[bad] = _write(tmp_path / "bad.csv", "\n".join(edit(lines)) + "\n")
    out_dir = tmp_path / "out"
    code = main([*argv, "--outcomes", paths["outcomes"], "--interventions",
                 paths["interventions"], "--h", paths["h"], "--out-dir", str(out_dir)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.count("\n") == 1 and "overflows to a non-finite value" in err
    assert [str(w.message) for w in recwarn] == []  # a warning would print two more lines
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["fit", "effects", "policy", "sweep"])
def test_cli_a_huge_covariate_cell_is_a_scale_problem_not_a_dependence(tmp_path, capsys,
                                                                          command):
    """One x1 cell of 1e300 under linear bases once read as 'column 2 is dependent'."""
    paths, *_ = make_fixture(tmp_path, noise=0.05)
    with open(paths["outcomes"], encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    cells = lines[5].split(",")  # o4,y,x1,x2
    cells[2] = "1e300"
    lines[5] = ",".join(cells)
    paths["outcomes"] = _write(tmp_path / "bad.csv", "\n".join(lines) + "\n")
    out_dir = tmp_path / "out"
    code = main([command, "--estimator", "q", "--outcomes", paths["outcomes"],
                 "--interventions", paths["interventions"], "--h", paths["h"],
                 "--out-dir", str(out_dir)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.count("\n") == 1
    assert "baseline column 1 of the design is over 1e+10 times the scale" in err
    assert "rescale the covariates" in err and "dependent" not in err
    assert not out_dir.exists()


def test_cli_a_failed_svd_exits_3_with_one_line(tmp_path, capsys, monkeypatch):
    def svd_fails(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    paths, *_ = make_fixture(tmp_path, noise=0.05)
    monkeypatch.setattr(np.linalg, "svd", svd_fails)
    out_dir = tmp_path / "out"
    code = main(["effects", "--estimator", "a", "--outcomes", paths["outcomes"],
                 "--interventions", paths["interventions"], "--h", paths["h"],
                 "--out-dir", str(out_dir)])
    err = capsys.readouterr().err
    assert code == 3, err
    assert err.count("\n") == 1 and "SVD did not converge" in err
    assert not out_dir.exists()


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(y=st.lists(FINITE, min_size=1, max_size=8), data=st.data())
def test_repr_written_doubles_read_back_bit_exactly(tmp_path_factory, y, data):
    n = len(y)
    x = data.draw(st.lists(st.lists(FINITE, min_size=2, max_size=2), min_size=n, max_size=n))
    h = data.draw(st.lists(st.lists(st.floats(min_value=0.0, allow_infinity=False),
                                    min_size=3, max_size=3), min_size=n, max_size=n))
    root = tmp_path_factory.mktemp("roundtrip")
    rows = [f"o{i},{y[i]!r},{x[i][0]!r},{x[i][1]!r}" for i in range(n)]
    _, out = read_outcome_csv(_write(root / "o.csv", "\n".join(["id,y,x1,x2", *rows]) + "\n"))
    assert out.y.tobytes() == np.array(y).tobytes()
    assert out.x.tobytes() == np.array(x).tobytes()
    dense = _write(root / "h.csv", "\n".join(",".join(map(repr, r)) for r in h) + "\n")
    assert read_interference_csv(dense, n=n, j=3).h.tobytes() == np.array(h).tobytes()
    triplets = [f"{i},{k},{h[i][k]!r}" for i in range(n) for k in range(3)]
    sparse = _write(root / "h3.csv", "\n".join(["i,j,value", *triplets]) + "\n")
    assert (read_interference_csv(sparse, n=n, j=3).toarray().tobytes()
            == np.array(h).tobytes())


def _replace(row, text):
    return lambda lines: lines[:row] + [text] + lines[row + 1:]


def _as_triplets(lines):
    """The i,j,value rows of a dense matrix file, row by row."""
    return [f"{i},{k},{v}" for i, row in enumerate(lines) for k, v in enumerate(row.split(","))]


def _triplets_with_a_repeat(lines):
    cells = _as_triplets(lines)
    return ["i,j,value", *cells, cells[5]]


def _triplets_with_value(value):
    """Edit into a triplet file whose entry (0, 5) is ``value``."""
    def edit(lines):
        cells = _as_triplets(lines)
        cells[5] = f"0,5,{value}"
        return ["i,j,value", *cells]
    return edit


def _person_years_with_a_zero(lines):
    """A person_years column after y: 1000, but 0 in the third row."""
    return [",".join([*cells[:2], "person_years" if r == 0 else "0" if r == 3 else "1000",
                      *cells[2:]])
            for r, cells in enumerate(line.split(",") for line in lines)]


def _cost_column_last(lines):
    return [",".join([*cells[:2], *cells[3:], cells[2]])
            for cells in (line.split(",") for line in lines)]


# file of the fixture bundle -> edit of its lines that makes it malformed
MALFORMED = {
    "non_numeric_cell": ("outcomes", _replace(3, "o2,1.0,abc,0.5")),
    "short_row": ("outcomes", _replace(4, "o3,1.0,0.5")),
    "long_row": ("outcomes", _replace(5, "o4,1.0,0.5,0.5,0.5")),
    "duplicate_triplet": ("h", _triplets_with_a_repeat),
    "duplicate_unit_id": ("interventions", _replace(2, "p0,0,1.0,0.5")),
    "header_only": ("outcomes", lambda lines: lines[:1]),
    "cost_column_not_third": ("interventions", _cost_column_last),
    "person_years_column_not_third": ("outcomes", _replace(0, "id,y,x1,person_years")),
    "negative_h_dense": ("h", _replace(2, "-1.0,1.0,1.0,1.0,1.0,1.0")),
    "nan_h_dense": ("h", _replace(2, "nan,1.0,1.0,1.0,1.0,1.0")),
    "inf_h_dense": ("h", _replace(2, "inf,1.0,1.0,1.0,1.0,1.0")),
    "negative_h_triplet": ("h", _triplets_with_value("-1.0")),
    "nan_h_triplet": ("h", _triplets_with_value("nan")),
    "inf_h_triplet": ("h", _triplets_with_value("inf")),
    "nan_y": ("outcomes", _replace(3, "o2,nan,0.5,0.5")),
    "zero_person_years": ("outcomes", _person_years_with_a_zero),
    "inf_treatment": ("interventions", _replace(2, "p1,inf,1.0,0.5")),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_cli_malformed_input_exits_2_naming_the_file(tmp_path, capsys, case):
    paths, *_ = make_fixture(tmp_path)
    bad, edit = MALFORMED[case]
    with open(paths[bad], encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    _write(tmp_path / "bad.csv", "\n".join(edit(lines)) + "\n")
    paths[bad] = str(tmp_path / "bad.csv")
    code = main(["effects", "--outcomes", paths["outcomes"],
                 "--interventions", paths["interventions"], "--h", paths["h"],
                 "--estimator", "q", "--out-dir", str(tmp_path / "x")])
    err = capsys.readouterr().err
    assert code == 2
    assert paths[bad] in err
    assert "Traceback" not in err


def _with_bom(path):
    """A copy of the file at ``path`` that starts with a UTF-8 byte-order mark."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    with open(f"{path}.bom", "w", encoding="utf-8-sig") as fh:
        fh.write(text)
    return f"{path}.bom"


def test_byte_order_mark_is_skipped(tmp_path):
    paths, *_ = make_fixture(tmp_path, person_years=True)
    _, plain = read_outcome_csv(paths["outcomes"])
    _, marked = read_outcome_csv(_with_bom(paths["outcomes"]))
    for name in ("x", "y", "person_years"):
        assert getattr(marked, name).tobytes() == getattr(plain, name).tobytes()
    triplets = _write(tmp_path / "h3.csv", "i,j,value\n0,0,1.5\n1,1,2.5\n")
    h = read_interference_csv(_with_bom(triplets), n=2, j=2)
    assert h.sparse
    assert np.array_equal(h.toarray(), read_interference_csv(triplets, n=2, j=2).toarray())
    config = _write(tmp_path / "cfg.json", json.dumps({"reps": 3}))
    assert cli._load_sim_config(_with_bom(config)).reps == 3


# edit that adds what a reader skips: '#' lines, blank lines and a
# commented-out copy of a row, before the header or only after the first row
NOTES = {
    "notes_first": lambda lines: ["# a note", "", lines[0], "", *lines[1:3], "#" + lines[3],
                                  "  ", *lines[3:6], "# another note", *lines[6:], ""],
    "notes_after_a_row": lambda lines: [*lines[:2], "", *lines[2:4], "#" + lines[4], "",
                                        *lines[4:], ""],
}


def _read_arrays(path, kind):
    """Ids and arrays a reader makes of the file at ``path``."""
    if kind == "outcomes":
        ids, out = read_outcome_csv(path)
        return ids, [out.x, out.y, out.person_years]
    if kind == "interventions":
        ids, intv, raw_cost = read_intervention_csv(path)
        return ids, [intv.x, intv.a, raw_cost]
    h = read_interference_csv(path, n=40, j=6)
    assert h.sparse == (kind == "triplets")
    return [], [h.toarray()]


@pytest.mark.parametrize("notes", NOTES)
@pytest.mark.parametrize("kind", ["outcomes", "interventions", "dense", "triplets"])
def test_notes_and_blank_lines_read_the_same_bits(tmp_path, kind, notes):
    paths, *_ = make_fixture(tmp_path, person_years=True)
    source = {"outcomes": paths["outcomes"], "dense": paths["h"], "triplets": paths["h"],
              "interventions": _plants_missing_costs(tmp_path, "4.5")}[kind]
    with open(source, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if kind == "triplets":
        lines = ["i,j,value", *_as_triplets(lines)]
    plain = _write(tmp_path / "plain.csv", "\n".join(lines) + "\n")
    noted = _write(tmp_path / "noted.csv", "\n".join(NOTES[notes](lines)) + "\n")
    ids, arrays = _read_arrays(plain, kind)
    noted_ids, noted_arrays = _read_arrays(noted, kind)
    assert noted_ids == ids
    assert [a.tobytes() for a in noted_arrays] == [a.tobytes() for a in arrays]


@pytest.mark.parametrize("tail", ["", "\n\n", "# a note\n"])
@pytest.mark.parametrize("header", ["id,y,x1,x2", "i,j,value"])
def test_a_header_alone_has_no_data_rows(tmp_path, header, tail):
    path = _write(tmp_path / "empty.csv", header + "\n" + tail)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataValidationError, match="no data rows"):
            if header.startswith("id"):
                read_outcome_csv(path)
            else:
                read_interference_csv(path, n=2, j=2)


_ROWS = [f"o{i},{i}.5,{i}.25,-{i}.75" for i in range(8)]

# malformed file: its kind, its lines and the number of the bad line, counting
# every line of the file
BAD_ROW_AT = {
    "bad_cell": ("outcomes", ["id,y,x1,x2", *_ROWS[:3], "o9,1.0,abc,0.5", *_ROWS[3:]], 5),
    "bad_cell_after_notes": ("outcomes", ["# note", "id,y,x1,x2", "", *_ROWS[:3], "# c", "",
                                          "o9,1.0,abc,0.5", *_ROWS[3:]], 9),
    "short_row": ("outcomes", ["id,y,x1,x2", *_ROWS[:5], "o9,1.0,0.5", *_ROWS[5:]], 7),
    "bad_triplet_index": ("h", ["i,j,value", "0,0,1.5", "1,1,2.5", "x,0,1.0", "2,1,0.5"], 4),
    "bad_dense_cell_after_notes": ("h", ["1.0,2.0", "", "# c", "3.0,-", "5.0,6.0"], 4),
}


@pytest.mark.parametrize("case", BAD_ROW_AT)
def test_a_malformed_row_is_named_by_its_line(tmp_path, case):
    kind, lines, line = BAD_ROW_AT[case]
    path = _write(tmp_path / "bad.csv", "\n".join(lines) + "\n")
    with pytest.raises(DataValidationError, match=f", line {line}: "):
        if kind == "outcomes":
            read_outcome_csv(path)
        else:
            read_interference_csv(path, n=3, j=2)


# argument that the exit-code contract rejects -> text the message must contain
BAD_ARGS = {
    "fit_level_above_one": (["fit", "--level", "1.5"], "confidence level"),
    "sweep_non_numeric_fraction": (["sweep", "--fractions", "0.1,abc"], "'abc'"),
    "policy_nan_budget": (["policy", "--budget-frac", "nan"], "budget"),
    "policy_inf_budget": (["policy", "--budget-frac", "inf"], "budget fraction"),
    "policy_integral_without_budget": (["policy", "--integral"],
                                       "--integral needs --budget-frac"),
    "policy_method_without_budget": (["policy", "--method", "te"],
                                     "--method needs --budget-frac"),
}


@pytest.mark.parametrize("case", BAD_ARGS)
def test_cli_bad_arguments_exit_2_without_output(tmp_path, capsys, case):
    paths, *_ = make_fixture(tmp_path)
    (command, *extra), expected = BAD_ARGS[case]
    out_dir = tmp_path / "out"
    code = main([command, "--outcomes", paths["outcomes"],
                 "--interventions", paths["interventions"], "--h", paths["h"],
                 "--estimator", "q", *extra, "--out-dir", str(out_dir)])
    err = capsys.readouterr().err
    assert code == 2
    assert expected in err
    assert "Traceback" not in err
    assert not [p for p in out_dir.rglob("*") if p.is_file()]


# option out of range -> text the message must contain; checked before any
# file is read, so every input path below names a missing file
BAD_RANGES = {
    "effects_level_above_one": (["effects", "--level", "1.5"], "confidence level"),
    "fit_level_zero": (["fit", "--level", "0"], "confidence level"),
    "effects_level_nan": (["effects", "--level", "nan"], "confidence level"),
    "effects_trim_above_one": (["effects", "--trim", "1.5"], "trim quantile"),
    "fit_trim_negative": (["fit", "--trim", "-0.1"], "trim quantile"),
    "policy_trim_one": (["policy", "--trim", "1"], "trim quantile"),
    "sweep_trim_nan": (["sweep", "--trim", "nan"], "trim quantile"),
    "policy_budget_inf": (["policy", "--budget-frac", "inf"], "budget fraction"),
    "policy_budget_negative": (["policy", "--budget-frac", "-0.1"], "budget fraction"),
    "policy_budget_nan": (["policy", "--budget-frac", "nan"], "budget fraction"),
    "fit_f0_basis_unknown": (["fit", "--f0-basis", "spline"], "unknown basis kind 'spline'"),
    "effects_fa_basis_unknown": (["effects", "--fa-basis", "x"], "unknown basis kind 'x'"),
    "policy_prop_basis_unknown": (["policy", "--prop-basis", "x"], "unknown basis kind 'x'"),
    "sweep_fraction_zero": (["sweep", "--fractions", "0,0.5"], "must lie in (0, 1]"),
    "sweep_fraction_above_one": (["sweep", "--fractions", "0.5,1.5"], "must lie in (0, 1]"),
    "sweep_fractions_descending": (["sweep", "--fractions", "0.5,0.2"], "sorted ascending"),
}


@pytest.mark.parametrize("case", BAD_RANGES)
def test_cli_ranges_checked_before_any_file_is_read(tmp_path, capsys, case):
    (command, *extra), expected = BAD_RANGES[case]
    out_dir = tmp_path / "out"
    code = main([command, "--outcomes", str(tmp_path / "missing_outcomes.csv"),
                 "--interventions", str(tmp_path / "missing_interventions.csv"),
                 "--h", str(tmp_path / "missing_h.csv"), *extra,
                 "--out-dir", str(out_dir)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and expected in err
    assert not out_dir.exists()


# impute-costs or simulate argument out of range: argv before --out-dir, the
# BNPOLICY_THREADS value or None, text the message must contain; checked
# before the (missing) input file is read
BAD_RANGES_ONE_INPUT = {
    "impute_negative_seed": (["impute-costs", "--seed", "-1"], None,
                             "seed must be a non-negative integer"),
    "impute_train_fraction": (["impute-costs", "--train-fraction", "1.5"], None,
                              "train_fraction must lie in (0, 1)"),
    "impute_bad_threads_variable": (["impute-costs"], "abc", "BNPOLICY_THREADS"),
    "simulate_zero_threads": (["simulate", "--threads", "0"], None, "--threads"),
    "simulate_bad_threads_variable": (["simulate"], "0", "BNPOLICY_THREADS"),
}


@pytest.mark.parametrize("case", BAD_RANGES_ONE_INPUT)
def test_cli_impute_and_simulate_ranges_checked_before_the_file_is_read(
        tmp_path, capsys, monkeypatch, case):
    (command, *extra), threads, expected = BAD_RANGES_ONE_INPUT[case]
    if threads is None:
        monkeypatch.delenv("BNPOLICY_THREADS", raising=False)
    else:
        monkeypatch.setenv("BNPOLICY_THREADS", threads)
    given = "--interventions" if command == "impute-costs" else "--config"
    out_dir = tmp_path / "out"
    code = main([command, given, str(tmp_path / "missing.csv"), *extra,
                 "--out-dir", str(out_dir)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and expected in err
    assert not out_dir.exists()


def test_cli_sweep_row_flags_and_footer_use_one_dominance_rule(tmp_path, monkeypatch):
    from dataclasses import replace

    from bnpolicy import policy

    base = policy.unconstrained_policy(np.zeros(6), 40)
    # the ratio ranking above the naive one by less than the 1e-12 slack
    tied = [(replace(base, value_rate=-0.5 + 1e-13), replace(base, value_rate=-0.5))]
    monkeypatch.setattr(policy, "budget_sweep", lambda *args: tied)
    paths, *_ = make_fixture(tmp_path)
    out_dir = tmp_path / "out"
    assert main(["sweep", "--outcomes", paths["outcomes"],
                 "--interventions", paths["interventions"], "--h", paths["h"],
                 "--estimator", "q", "--fractions", "0.5", "--out-dir", str(out_dir)]) == 0
    lines = (out_dir / "sweep.csv").read_text().splitlines()
    assert lines[2].endswith(",1")
    assert lines[3] == "# dominance_holds=1"


@pytest.mark.parametrize("command", ["policy", "sweep"])
def test_cli_level_is_not_an_option_of_policy_or_sweep(tmp_path, capsys, command):
    paths, *_ = make_fixture(tmp_path)
    out_dir = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command, "--outcomes", paths["outcomes"], "--interventions",
              paths["interventions"], "--h", paths["h"], "--level", "0.9",
              "--out-dir", str(out_dir)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --level 0.9" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["policy", "sweep"])
def test_cli_cost_column_checked_before_reading_h(tmp_path, capsys, command):
    paths, *_ = make_fixture(tmp_path)
    with open(paths["interventions"], encoding="utf-8") as fh:
        rows = [line.split(",") for line in fh.read().splitlines()]
    no_cost = _write(tmp_path / "no_cost.csv",
                     "\n".join(",".join(r[:2] + r[3:]) for r in rows) + "\n")
    out_dir = tmp_path / "out"
    code = main([command, "--outcomes", paths["outcomes"], "--interventions", no_cost,
                 "--h", str(tmp_path / "missing_h.csv"), "--out-dir", str(out_dir)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"{command} command needs a complete cost column" in err
    assert not out_dir.exists()


def test_cli_trim_writes_the_kept_units_ids(tmp_path):
    paths, *_ = make_fixture(tmp_path, noise=0.05)
    ids, intv, _ = read_intervention_csv(paths["interventions"])
    kept = trim_by_propensity(fit_propensity(intv.x, intv.a, FeatureMap("linear")), 0.2).kept
    expected = [ids[k] for k in kept]
    assert 0 < len(expected) < len(ids)
    bundle = ["--outcomes", paths["outcomes"], "--interventions", paths["interventions"],
              "--h", paths["h"], "--estimator", "q", "--trim", "0.2"]
    assert main(["effects", *bundle, "--out-dir", str(tmp_path / "eff")]) == 0
    written, _ = _read_effects(tmp_path / "eff" / "effects.csv")
    assert written == expected
    assert main(["policy", *bundle, "--budget-frac", "0.3",
                 "--out-dir", str(tmp_path / "pol")]) == 0
    doc = json.loads((tmp_path / "pol" / "policy.json").read_text())
    assert sorted(doc["allocation"]) == sorted(expected)


def _plants_missing_costs(tmp_path, p1_cost):
    """Plant table of 20 units, every fourth cost blank and unit p1's cost cell ``p1_cost``."""
    z = np.random.default_rng(7).standard_normal((20, 2))
    lines = ["id,a,cost,z1,z2"]
    for k in range(20):
        cost = "" if k % 4 == 0 else p1_cost if k == 1 else repr(float(5.0 + z[k, 0]))
        lines.append(f"p{k},{k % 2},{cost},{float(z[k, 0])!r},{float(z[k, 1])!r}")
    return _write(tmp_path / "plants.csv", "\n".join(lines) + "\n")


# impute-costs input the exit-code contract rejects: p1's cost cell, extra
# arguments, text the message must contain
BAD_IMPUTE = {
    "negative_cost": ("-5.0", [], "'-5.0'"),
    "infinite_cost": ("inf", [], "'inf'"),
    "nan_cost": ("nan", [], "'nan'"),
    "negative_seed": ("4.5", ["--seed", "-1"], "seed must be a non-negative integer"),
}


def test_cli_impute_costs_rejects_a_table_without_observed_costs(tmp_path, capsys):
    lines = ["id,a,cost,z1,z2", *(f"p{k},{k % 2},,{k * 0.5!r},{1.0 - k!r}" for k in range(8))]
    path = _write(tmp_path / "plants.csv", "\n".join(lines) + "\n")
    out_dir = tmp_path / "out"
    code = main(["impute-costs", "--interventions", path, "--out-dir", str(out_dir)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "validation failure: no observed costs to train on\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("case", BAD_IMPUTE)
def test_cli_impute_costs_rejects_bad_costs_and_seeds(tmp_path, capsys, case):
    p1_cost, extra, expected = BAD_IMPUTE[case]
    path = _plants_missing_costs(tmp_path, p1_cost)
    out_dir = tmp_path / "out"
    code = main(["impute-costs", "--interventions", path, *extra, "--out-dir", str(out_dir)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and expected in err
    assert "Traceback" not in err
    if not extra:
        assert f"{path}, line 3" in err
    assert not out_dir.exists()


_SMALL_STUDY = {"n": 300, "j": 30, "p": 2, "q": 2, "reps": 1, "master_seed": 5}

# simulate config of a malformed shape -> text the message must contain
BAD_CONFIG_SHAPES = {
    "list_top_level": ([1, 2], "config must be a JSON object, got list"),
    "number_top_level": (3, "config must be a JSON object, got int"),
    "non_numeric_theta0": ({**_SMALL_STUDY, "theta0": "abc"}, "'theta0'"),
    "ragged_gamma0": ({**_SMALL_STUDY, "gamma0": [[1.0], [1.0, 2.0]]}, "'gamma0'"),
    "non_numeric_x_out": ({**_SMALL_STUDY, "covariate_source": "user_supplied",
                           "x_out": "abc", "x_int": [[0.0, 1.0]]}, "'x_out'"),
    "object_x_int": ({**_SMALL_STUDY, "covariate_source": "user_supplied",
                      "x_out": [[0.0, 1.0]], "x_int": {"a": 1}}, "'x_int'"),
    "non_numeric_h_matrix": ({**_SMALL_STUDY, "h_source": "user_supplied",
                              "h_matrix": [[1, "a"]]}, "'h_matrix'"),
    "scalar_theta0": ({**_SMALL_STUDY, "theta0": 3}, "theta0 must be a 1-d array, got 0-d"),
    "matrix_gamma0": ({**_SMALL_STUDY, "gamma0": [[1.0, 2.0, 3.0]]},
                      "gamma0 must be a 1-d array, got 2-d"),
    "vector_x_int": ({**_SMALL_STUDY, "covariate_source": "user_supplied",
                      "x_out": [[0.0, 1.0]], "x_int": [0.0, 1.0]},
                     "x_int must be a 2-d array, got 1-d"),
    "vector_h_matrix": ({**_SMALL_STUDY, "h_source": "user_supplied", "h_matrix": [1.0]},
                        "h_matrix must be a 2-d array, got 1-d"),
    "unread_x_out": ({**_SMALL_STUDY, "x_out": [1, 2]},
                     "x_out is given but covariate_source is 'synthetic_gaussian'"),
    "unread_x_int": ({**_SMALL_STUDY, "x_int": [[0.0, 1.0]]},
                     "x_int is given but covariate_source is 'synthetic_gaussian'"),
    "unread_h_matrix": ({**_SMALL_STUDY, "h_source": "synthetic_lognormal_iid",
                         "h_matrix": [[1.0]]},
                        "h_matrix is given but h_source is 'synthetic_lognormal_iid'"),
    "null_in_theta0": ({**_SMALL_STUDY, "theta0": [None] + [0.0] * 9},
                       "theta0 must hold finite numbers only"),
    "x_out_rows": ({**_SMALL_STUDY, "covariate_source": "user_supplied",
                    "x_out": [[0.0, 1.0]] * 299, "x_int": [[0.0, 1.0]] * 30},
                   "x_out must have shape (300, 2)"),
    "x_out_columns": ({**_SMALL_STUDY, "covariate_source": "user_supplied",
                       "x_out": [[0.0, 1.0, 2.0]] * 300, "x_int": [[0.0, 1.0]] * 30},
                      "x_out must have shape (300, 2)"),
    "x_int_shape": ({**_SMALL_STUDY, "covariate_source": "user_supplied",
                     "x_out": [[0.0, 1.0]] * 300, "x_int": [[0.0, 1.0]] * 29},
                    "x_int must have shape (30, 2)"),
    "h_matrix_shape": ({**_SMALL_STUDY, "h_source": "user_supplied",
                        "h_matrix": [[1, 2, 3], [4, 5, 6]]},
                       "h_matrix must have shape (300, 30)"),
    "missing_h_matrix": ({**_SMALL_STUDY, "h_source": "user_supplied"},
                         "h_source is 'user_supplied' but h_matrix is not given"),
    "negative_h_entry_log_sd": ({**_SMALL_STUDY, "h_entry_log_sd": -1},
                                "h_entry_log_sd must be >= 0"),
    "zero_h_kernel_bandwidth": ({**_SMALL_STUDY, "h_kernel_bandwidth": 0},
                                "h_kernel_bandwidth must be positive"),
    "negative_h_diffuse_degree": ({**_SMALL_STUDY, "h_diffuse_degree": -3},
                                  "h_diffuse_degree must be at least 1"),
    "zero_h_diffuse_degree": ({**_SMALL_STUDY, "h_diffuse_degree": 0},
                              "h_diffuse_degree must be at least 1"),
    "text_target_mean_outcome": ({**_SMALL_STUDY, "target_mean_outcome": "x"},
                                 "target_mean_outcome must be a finite number, got 'x'"),
    "text_snr": ({**_SMALL_STUDY, "snr": "3"}, "snr must be a finite number, got '3'"),
    "zero_propensity_tol": ({**_SMALL_STUDY, "propensity_tol": 0},
                            "calibration tolerances must be positive"),
    "n_below_ten": ({**_SMALL_STUDY, "n": 9}, "n must be at least 10, got 9"),
    "unknown_covariate_source": ({**_SMALL_STUDY, "covariate_source": "survey"},
                                 "unknown covariate_source 'survey'"),
    "h_local_frac_one": ({**_SMALL_STUDY, "h_local_frac": 1},
                         "h_local_frac must lie in [0, 1)"),
    "zero_se_fail_threshold": ({**_SMALL_STUDY, "se_fail_threshold": 0},
                               "se_fail_threshold must be positive"),
}


@pytest.mark.parametrize("case", BAD_CONFIG_SHAPES)
def test_cli_simulate_rejects_a_malformed_config_shape(tmp_path, capsys, case):
    doc, expected = BAD_CONFIG_SHAPES[case]
    cfg = _write(tmp_path / "cfg.json", json.dumps(doc))
    out_dir = tmp_path / "out"
    code = main(["simulate", "--config", cfg, "--out-dir", str(out_dir)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and expected in err
    assert "Traceback" not in err
    assert not out_dir.exists()


# a synthetic H that overflows: the config key and the text the message must contain
H_OVERFLOWS = {
    "h_entry_log_sd": (800, "the synthetic transport matrix H overflows"),
    "h_colmass_log_sd": (1e300, "the column-mass profile of the synthetic H overflows"),
}


@pytest.mark.parametrize("key", H_OVERFLOWS)
def test_cli_simulate_names_the_key_whose_h_overflows(tmp_path, capsys, recwarn, key):
    value, expected = H_OVERFLOWS[key]
    cfg = _write(tmp_path / "cfg.json",
                 json.dumps({"reps": 2, "n": 200, "j": 20, key: value}))
    out_dir = tmp_path / "out"
    code = main(["simulate", "--config", cfg, "--out-dir", str(out_dir)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err == (f"validation failure: {expected} to a non-finite value; lower {key}\n")
    assert [str(w.message) for w in recwarn] == []  # a warning would print two more lines
    assert not out_dir.exists()


def _plants_with_a_nonlinear_cost(tmp_path, j=120):
    """Plant table with three covariates, a cost nonlinear in them and a third blank."""
    rng = np.random.default_rng(11)
    z = rng.standard_normal((j, 3))
    cost = np.exp(1.0 + 0.8 * np.abs(z[:, 0]) + 0.3 * z[:, 1] ** 2)
    lines = ["id,a,cost,z1,z2,z3"]
    for k in range(j):
        shown = "" if k % 3 == 0 else repr(float(cost[k]))
        lines.append(f"p{k},{k % 2},{shown}," + ",".join(map(repr, z[k].tolist())))
    return _write(tmp_path / "plants.csv", "\n".join(lines) + "\n")


def test_cli_impute_costs_is_identical_for_any_worker_count(tmp_path, capsys, monkeypatch):
    path = _plants_with_a_nonlinear_cost(tmp_path)
    runs = {}
    for tag, env in (("env1", "1"), ("env2", "2"), ("default", None)):
        if env is None:
            monkeypatch.delenv("BNPOLICY_THREADS", raising=False)
        else:
            monkeypatch.setenv("BNPOLICY_THREADS", env)
        out_dir = tmp_path / tag
        assert main(["impute-costs", "--interventions", path, "--seed", "2",
                     "--out-dir", str(out_dir)]) == 0
        files = {f: (out_dir / f).read_bytes() for f in sorted(os.listdir(out_dir))}
        runs[tag] = (files, capsys.readouterr().out)
    first, *rest = runs.values()
    assert sorted(first[0]) == ["importance.csv", "imputed_costs.csv", "leaderboard.csv"]
    assert first[1].startswith("selected forest")
    for other in rest:
        assert other == first


@pytest.mark.parametrize("value", ["abc", "2.5", "", "0", "-1"])
def test_cli_impute_costs_rejects_a_bad_threads_variable(tmp_path, capsys, monkeypatch,
                                                         value):
    path = _plants_with_a_nonlinear_cost(tmp_path)
    monkeypatch.setenv("BNPOLICY_THREADS", value)
    out_dir = tmp_path / "out"
    code = main(["impute-costs", "--interventions", path, "--out-dir", str(out_dir)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1
    assert f"BNPOLICY_THREADS must be a positive integer, got {value!r}" in err
    assert "Traceback" not in err
    assert not out_dir.exists()


# (column, value) of unit p1's cell in _plants_with_a_nonlinear_cost, and text
# the one-line message must contain; each exited 0 with a NaN or inf in an
# output, or named neither the model nor the input
IMPUTE_OVERFLOWS = {
    "huge_cost": (2, "1e308", "the forest cost model's validation NMAE overflows"),
    "huger_cost": (2, "1.7e308", "the forest cost model's validation NMAE overflows"),
    "huge_z1": (3, "1e300", "the linear cost model predicts a zero cost"),
}


def _impute_fails_with_one_line(path, out_dir, capsys, recwarn, expected):
    code = main(["impute-costs", "--interventions", path, "--out-dir", str(out_dir)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.count("\n") == 1 and expected in err
    assert "rescale the costs or covariates of the plant table" in err
    assert [str(w.message) for w in recwarn] == []  # a warning would print two more lines
    assert not out_dir.exists()


@pytest.mark.parametrize("case", IMPUTE_OVERFLOWS)
def test_cli_impute_costs_an_overflowing_model_exits_2_with_one_line(tmp_path, capsys,
                                                                      recwarn, case):
    col, value, expected = IMPUTE_OVERFLOWS[case]
    path = _plants_with_a_nonlinear_cost(tmp_path)
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    cells = lines[2].split(",")  # p1, whose cost is observed
    cells[col] = value
    lines[2] = ",".join(cells)
    path = _write(tmp_path / "bad.csv", "\n".join(lines) + "\n")
    _impute_fails_with_one_line(path, tmp_path / "out", capsys, recwarn, expected)


def test_cli_impute_costs_rejects_a_total_that_overflows(tmp_path, capsys, recwarn,
                                                         monkeypatch):
    def huge_predictions(fit, x):
        return np.full(x.shape[0], 1e308), 0

    monkeypatch.setattr(bnpolicy.costimpute, "predict_costs", huge_predictions)
    path = _plants_with_a_nonlinear_cost(tmp_path)
    _impute_fails_with_one_line(path, tmp_path / "out", capsys, recwarn,
                                "the total cost overflows to a non-finite value")


class _Stop(Exception):
    pass


def test_each_command_has_its_own_default_worker_count(tmp_path, monkeypatch):
    """simulate runs in one process unless told otherwise; impute-costs uses the
    usable CPUs; BNPOLICY_THREADS sets both."""
    seen = {}

    def record(command):
        def fake(*args, n_workers, **kwargs):
            seen[command] = n_workers
            raise _Stop
        return fake

    monkeypatch.setattr(bnpolicy.simlab, "run_monte_carlo", record("simulate"))
    monkeypatch.setattr(bnpolicy.costimpute, "fit_cost_models", record("impute-costs"))
    cfg = _write(tmp_path / "cfg.json", json.dumps({"reps": 2}))
    plants = _plants_with_a_nonlinear_cost(tmp_path)
    commands = (["simulate", "--config", cfg, "--out-dir", str(tmp_path / "s")],
                ["impute-costs", "--interventions", plants, "--out-dir", str(tmp_path / "i")])
    for env, expected in ((None, {"simulate": 1, "impute-costs": usable_cpus()}),
                          ("3", {"simulate": 3, "impute-costs": 3})):
        if env is None:
            monkeypatch.delenv("BNPOLICY_THREADS", raising=False)
        else:
            monkeypatch.setenv("BNPOLICY_THREADS", env)
        for argv in commands:
            with pytest.raises(_Stop):
                main(argv)
        assert seen == expected


def test_every_annotation_in_the_package_resolves():
    unresolved = []
    for info in pkgutil.iter_modules(bnpolicy.__path__):
        module = importlib.import_module(f"bnpolicy.{info.name}")
        for name, obj in vars(module).items():
            if ((inspect.isfunction(obj) or inspect.isclass(obj))
                    and obj.__module__ == module.__name__):
                try:
                    typing.get_type_hints(obj)
                except NameError as exc:
                    unresolved.append(f"{module.__name__}.{name}: {exc}")
    assert unresolved == []


def _imports(node, scope):
    """(import statement, the module or function whose names it binds) under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child, scope
        inner = child if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
        yield from _imports(child, inner)


def test_no_module_of_the_package_imports_a_name_it_never_reads():
    # no linter is installed, so this is the unused-import rule; an import
    # kept on purpose carries "# noqa" on its line
    unused = []
    for path in sorted(glob.glob(os.path.join(bnpolicy.__path__[0], "*.py"))):
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        lines, tree = source.splitlines(), ast.parse(source)
        for stmt, scope in _imports(tree, tree):
            if (isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__"
                    or any("# noqa" in line for line in lines[stmt.lineno - 1:stmt.end_lineno])):
                continue
            read = {node.id for node in ast.walk(scope) if isinstance(node, ast.Name)}
            for alias in stmt.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    unused.append(f"{os.path.basename(path)}:{stmt.lineno} {name}")
    assert unused == []


def _smoke_bundle(monkeypatch, out_dir):
    """The benchmark's SMOKE bundle (seed 0), its harness imported without bytecode."""
    perfbench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "perfbench")
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(perfbench)
    monkeypatch.delitem(sys.modules, "inputs", raising=False)
    inputs = importlib.import_module("inputs")
    sys.modules.pop("inputs", None)
    return inputs.write_bundle(str(out_dir), 0, inputs.SMOKE)


@pytest.mark.parametrize("estimator", ["q", "a"])
@pytest.mark.parametrize("command", [["fit"], ["effects"], ["policy", "--budget-frac", "0.2"],
                                     ["sweep"]], ids=lambda argv: argv[0])
def test_each_command_expands_each_outcome_basis_once(tmp_path, monkeypatch, command,
                                                      estimator):
    # the fit's prepared data hands its effect basis to effects, policy and sweep
    paths = _smoke_bundle(monkeypatch, tmp_path)
    _, out = read_outcome_csv(paths["outcomes"])
    expanded = []
    expand = FeatureMap.expand

    def counted_expand(self, x):
        if np.shape(x) == out.x.shape:
            expanded.append(self.kind)
        return expand(self, x)

    monkeypatch.setattr(FeatureMap, "expand", counted_expand)
    code = main([*command, "--estimator", estimator, "--f0-basis", "linear",
                 "--fa-basis", "quadratic", "--prop-basis", "quadratic",
                 "--outcomes", paths["outcomes"], "--interventions", paths["interventions"],
                 "--h", paths["h"], "--out-dir", str(tmp_path / "out")])
    assert code == 0
    assert sorted(expanded) == ["linear", "quadratic"]


def test_cli_simulate_rejects_a_negative_master_seed(tmp_path, capsys):
    cfg = _write(tmp_path / "seed.json", json.dumps({**_SMALL_STUDY, "master_seed": -1}))
    code = main(["simulate", "--config", cfg, "--out-dir", str(tmp_path / "x")])
    err = capsys.readouterr().err
    assert code == 2
    assert err == ("validation failure: master_seed must be a non-negative integer, "
                   "got -1\n")
    assert not (tmp_path / "x").exists()
