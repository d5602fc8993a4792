import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnpolicy import FeatureMap, fit_propensity, trim_by_propensity
from bnpolicy.cli import main
from bnpolicy.effects import EffectTable
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
    assert np.array_equal(h.h, np.array([[1.5, 0.0], [0.0, 2.5]]))


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
    assert read_interference_csv(sparse, n=n, j=3).h.tobytes() == np.array(h).tobytes()


def _replace(row, text):
    return lambda lines: lines[:row] + [text] + lines[row + 1:]


def _triplets_with_a_repeat(lines):
    cells = [f"{i},{k},{v}" for i, row in enumerate(lines) for k, v in enumerate(row.split(","))]
    return ["i,j,value", *cells, cells[5]]


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


# argument that the exit-code contract rejects -> text the message must contain
BAD_ARGS = {
    "fit_level_above_one": (["fit", "--level", "1.5"], "confidence level"),
    "sweep_non_numeric_fraction": (["sweep", "--fractions", "0.1,abc"], "'abc'"),
    "policy_nan_budget": (["policy", "--budget-frac", "nan"], "budget"),
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
