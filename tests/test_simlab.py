import collections
import json
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

import bnpolicy.simlab
from bnpolicy import (CELLS, BnpolicyError, CellResult, CellSpec, EstimationError, FeatureMap,
                      InterferenceMap, OutcomeModelSpec, SimConfig, DataValidationError,
                      fit_a, fit_q, generate_dgp, run_cell, run_monte_carlo,
                      run_replication, splitmix64, total_effects)
from bnpolicy.prepared import PreparedData
from bnpolicy.io import sim_report_to_dict, write_sim_report
from bnpolicy.simlab import (THETA0_REFERENCE, TRUTH_BASIS, Z95, _draw_h, _smallest,
                             resolve_truth_coefficients)

FAST = SimConfig(n=400, j=40, p=2, q=2, reps=2, master_seed=777)


def test_splitmix64_is_stable_and_sensitive():
    assert splitmix64(1, 2) == splitmix64(1, 2)
    assert splitmix64(1, 2) != splitmix64(2, 1)
    assert splitmix64(0) != splitmix64(1)
    assert 0 <= splitmix64(123, 456) < 2**64
    # pinned: every derived seed in the lab and the cost forest follows from these
    assert splitmix64(20_240_817, 0) == 3215803732614143389
    assert splitmix64(1, 2**70, -3) == 6059571170229495314


def test_generate_dgp_deterministic():
    out1, intv1, h1, truth1 = generate_dgp(FAST, 42)
    out2, intv2, h2, truth2 = generate_dgp(FAST, 42)
    assert np.array_equal(out1.y, out2.y)
    assert np.array_equal(h1.h, h2.h)
    assert np.array_equal(intv1.a, intv2.a)
    assert np.array_equal(truth1.beta0, truth2.beta0)


def test_calibration_postconditions_hold():
    for rep in range(10):
        _, _, _, truth = generate_dgp(FAST, splitmix64(FAST.master_seed, rep))
        assert abs(float(truth.propensities.mean()) - 0.19) <= 0.01
        assert truth.noise_sd > 0


def test_outcome_calibration_under_expected_exposure():
    from bnpolicy import FeatureMap
    basis = FeatureMap("quadratic")
    for rep in range(5):
        out, intv, h, truth = generate_dgp(FAST, splitmix64(FAST.master_seed, rep))
        bx = basis.expand(out.x)
        mean_mu = float(np.mean(bx @ truth.alpha0
                                + truth.expected_abar * (bx @ truth.beta0)))
        assert abs(mean_mu - 0.29) <= 0.001


def test_snr_ratio_matches_target():
    config = SimConfig(n=10000, j=60, p=2, q=2, reps=1, master_seed=5)
    out, intv, h, truth = generate_dgp(config, 11)
    eps = out.y - truth.mu
    ratio = float(np.var(truth.mu, ddof=1) / np.var(eps, ddof=1))
    assert abs(ratio - 9.0) <= 0.05 * 9.0


def test_huge_snr_kills_noise():
    config = SimConfig(n=2000, j=50, p=2, q=2, reps=1, master_seed=5, snr=1e9)
    out, intv, h, truth = generate_dgp(config, 3)
    resid_sd = float(np.std(out.y - truth.mu, ddof=1))
    assert resid_sd <= 1e-4 * float(np.std(truth.mu, ddof=1))


def test_noiseless_q_correct_cell_recovers_truth():
    config = SimConfig(n=1500, j=50, p=2, q=2, reps=1, master_seed=5, snr=1e9)
    out, intv, h, truth = generate_dgp(config, 9)
    res = run_cell(PreparedData(out, intv, h), truth, CELLS["q_correct"])
    assert res.fail_reason is None
    assert res.bias <= 1e-8
    assert res.rmse <= 1e-8


def test_constant_truth_raises():
    dim = 2 * (1 + 2 * FAST.p)
    config = SimConfig(n=400, j=40, p=2, q=2, reps=1, master_seed=1,
                       theta0=np.zeros(dim))
    with pytest.raises(EstimationError):
        generate_dgp(config, 1)


def test_reference_theta_used_when_widths_match():
    config = SimConfig(n=400, j=40, p=13, q=2, reps=1, master_seed=1)
    alpha0, beta0, _ = resolve_truth_coefficients(config)
    assert np.array_equal(np.concatenate([alpha0, beta0]), THETA0_REFERENCE)
    config2 = SimConfig(n=400, j=40, p=3, q=2, reps=1, master_seed=1)
    a2, b2, slopes = resolve_truth_coefficients(config2)
    assert a2.shape == b2.shape == (7,)
    assert np.all(np.abs(np.concatenate([a2, b2])) <= 0.05)
    assert np.all(np.abs(slopes) <= 0.05)


def test_run_monte_carlo_single_rep_matches_run_replication():
    config = SimConfig(n=400, j=40, p=2, q=2, reps=1, master_seed=123)
    report = run_monte_carlo(config)
    single = run_replication(config, 0)
    for name, stats in report.cells.items():
        res = single[name]
        if res.fail_reason is not None:
            assert stats.n_failed == 1
        else:
            assert stats.mean_bias == pytest.approx(res.bias)
            assert stats.mean_rmse == pytest.approx(res.rmse)
            assert stats.mean_coverage == pytest.approx(res.coverage)


def test_monte_carlo_parallel_matches_serial():
    config = SimConfig(n=300, j=30, p=2, q=2, reps=4, master_seed=321)
    serial = sim_report_to_dict(run_monte_carlo(config, n_workers=1))
    parallel = sim_report_to_dict(run_monte_carlo(config, n_workers=2))
    assert serial == parallel


def test_user_supplied_h_and_covariates(rng):
    n, j, p, q = 200, 20, 2, 2
    config = SimConfig(n=n, j=j, p=p, q=q, reps=1, master_seed=9,
                       covariate_source="user_supplied",
                       h_source="user_supplied",
                       x_out=rng.standard_normal((n, p)),
                       x_int=rng.standard_normal((j, q)),
                       h_matrix=rng.lognormal(0.0, 0.5, (n, j)))
    out, intv, h, truth = generate_dgp(config, 4)
    assert h.h.shape == (n, j)
    # covariates are standardized copies of the supplied ones
    assert np.allclose(out.x.mean(axis=0), 0.0, atol=1e-12)


def test_config_holds_nested_lists_as_float_arrays(rng):
    n, j, p, q = 200, 20, 2, 2
    arrays = {"x_out": rng.standard_normal((n, p)), "x_int": rng.standard_normal((j, q)),
              "h_matrix": rng.lognormal(0.0, 0.5, (n, j)),
              "theta0": rng.uniform(-0.05, 0.05, 2 * (1 + 2 * p)),
              "gamma0": rng.uniform(-0.05, 0.05, 1 + 2 * q)}
    common = dict(n=n, j=j, p=p, q=q, reps=1, master_seed=9,
                  covariate_source="user_supplied", h_source="user_supplied")
    from_lists = SimConfig(**common, **{k: v.tolist() for k, v in arrays.items()})
    for name, value in arrays.items():
        held = getattr(from_lists, name)
        assert isinstance(held, np.ndarray) and held.dtype == float
        assert np.array_equal(held, value)
    drawn = [generate_dgp(config, 4) for config in (from_lists, SimConfig(**common, **arrays))]
    assert drawn[0][0].y.tobytes() == drawn[1][0].y.tobytes()
    assert np.array_equal(drawn[0][2].h, drawn[1][2].h)


class _RecordingRng:
    """Generator proxy that keeps a copy of every array it draws, by method name.

    A copy, because the caller may overwrite what it drew: _draw_h turns its
    noise array into H in place.
    """

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.draws = {}

    def __getattr__(self, name):
        def draw(*args, **kwargs):
            out = getattr(self._rng, name)(*args, **kwargs)
            self.draws.setdefault(name, []).append(np.copy(out))
            return out
        return draw


def test_draw_h_diffuse_columns_match_the_full_argsort_construction():
    # each row's diffuse cells are its deg smallest keys, as a full argsort
    # of the same keys picks them, with the same mass and noise bits
    config = SimConfig(n=400, j=200, p=2, q=2)
    x_out = np.random.default_rng(7).standard_normal((config.n, config.p))
    rng = _RecordingRng(11)
    h = _draw_h(rng, config, x_out)
    j_loc = round(config.h_local_frac * config.j)
    deg = config.h_diffuse_degree
    (keys,), (noise,) = rng.draws["random"], rng.draws["lognormal"]
    colmass = rng.draws["permutation"][0]
    assert 0 < deg < keys.shape[1] == config.j - j_loc
    picked = np.zeros(keys.shape)
    np.put_along_axis(picked, np.argsort(keys, axis=1)[:, :deg], 1.0, axis=1)
    expected = colmass[None, j_loc:] * picked * noise[:, j_loc:]
    assert h[:, j_loc:].tobytes() == expected.tobytes()


def test_config_validation():
    with pytest.raises(DataValidationError):
        SimConfig(snr=0.0)
    with pytest.raises(DataValidationError):
        SimConfig(reps=0)
    with pytest.raises(DataValidationError):
        SimConfig(h_source="mystery")
    with pytest.raises(DataValidationError):
        SimConfig(target_mean_propensity=1.2)


def test_iid_h_source_runs():
    config = SimConfig(n=300, j=30, p=2, q=2, reps=1, master_seed=2,
                       h_source="synthetic_lognormal_iid")
    out, intv, h, truth = generate_dgp(config, 8)
    assert h.h.shape == (300, 30)
    assert np.all(h.h > 0)


def test_pattern_sanity_small():
    # reduced-rep sanity check of the study mechanics; the acceptance
    # suite runs the full desk-scale configuration
    config = SimConfig(reps=30, master_seed=20_240_817)
    report = run_monte_carlo(config)
    cells = report.cells
    assert cells["q_correct"].mean_coverage >= 88
    assert cells["q_misspec"].mean_coverage <= 70
    for name in ("a_cc", "a_c_misP", "a_misB_c", "a_mis_mis"):
        assert cells[name].mean_coverage >= 88
        assert cells[name].n_ok + cells[name].n_failed == 30


def test_a_failed_svd_is_a_failed_fit(monkeypatch):
    def svd_fails(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    out, intv, h, truth = generate_dgp(FAST, 1)
    monkeypatch.setattr(np.linalg, "svd", svd_fails)
    res = run_cell(PreparedData(out, intv, h), truth, CELLS["a_cc"])
    assert res.fail_reason.startswith("fit failed") and "SVD did not converge" in res.fail_reason


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def test_a_cell_whose_every_fit_fails_writes_null_means(tmp_path, monkeypatch):
    def fit_a_fails(*args, **kwargs):
        raise EstimationError("forced failure")

    monkeypatch.setattr(bnpolicy.simlab, "_fit_a", fit_a_fails)
    report = run_monte_carlo(FAST)
    text = write_sim_report(tmp_path / "r.json", tmp_path / "r.txt", report)
    doc = json.loads((tmp_path / "r.json").read_text(encoding="utf-8"),
                     parse_constant=_reject_constant)
    for name, cell in doc["cells"].items():
        if CELLS[name].estimator == "a":
            assert cell == {"bias": None, "rmse": None, "coverage_pct": None,
                            "n_ok": 0, "n_failed": FAST.reps}
        else:
            assert cell["n_ok"] == FAST.reps and isinstance(cell["bias"], float)
    rows = [line.split() for line in text.splitlines() if line.startswith("A-learning")]
    assert [row[-4:] for row in rows] == [["nan", "nan", "nan", str(FAST.reps)]] * 4


def test_cell_labels_compare_each_model_with_the_truth_basis():
    assert CellSpec("q", "quadratic", None).labels() == ("Q-learning", "correct", "-")
    assert CellSpec("a", "cubic", "quadratic").labels() == ("A-learning", "misspec", "correct")
    assert [cell.labels()[1:] for cell in CELLS.values()] == [
        ("correct", "-"), ("misspec", "-"), ("correct", "correct"),
        ("correct", "misspec"), ("misspec", "correct"), ("misspec", "misspec")]


def test_the_truth_basis_is_named_once_and_io_names_no_cell():
    src = pathlib.Path(bnpolicy.simlab.__file__).parent
    assert (src / "simlab.py").read_text(encoding="utf-8").count('"quadratic"') == 1
    io_text = (src / "io.py").read_text(encoding="utf-8")
    assert [word for word in ("_CELL_DISPLAY", "Q-learning", "misspec")
            if word in io_text] == []
    # the report writer imports the lab in its body: io and the CLI load no lab
    probe = "import sys, bnpolicy.io, bnpolicy.cli; print('bnpolicy.simlab' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True, env=dict(os.environ, PYTHONPATH=str(src.parent)))
    assert done.stdout.strip() == "False"


def _counted(calls, key, fn, when=lambda *args: True):
    def counted(*args, **kwargs):
        if when(*args):
            calls[key] += 1
        return fn(*args, **kwargs)
    return counted


def test_a_replication_computes_its_shared_work_once(monkeypatch):
    # the six default cells share one prepared dataset: two propensity fits
    # (one per basis kind), one exposure of a, one row mass, and one
    # expansion per basis kind of each covariate table
    assert sorted({cell.prop_kind for cell in CELLS.values()} - {None}) == [
        "linear", "quadratic"]
    dgp = generate_dgp(FAST, splitmix64(FAST.master_seed, 0))
    out, intv, h, _ = dgp
    monkeypatch.setattr(bnpolicy.simlab, "generate_dgp", lambda config, seed: dgp)
    calls, expanded = collections.Counter(), collections.Counter()
    monkeypatch.setattr(bnpolicy.prepared, "fit_propensity", _counted(
        calls, "fit_propensity", bnpolicy.prepared.fit_propensity))
    monkeypatch.setattr(InterferenceMap, "exposure", _counted(
        calls, "exposure of a", InterferenceMap.exposure,
        lambda self, v: np.shape(v) == intv.a.shape and np.array_equal(v, intv.a)))
    monkeypatch.setattr(InterferenceMap, "row_mass", _counted(
        calls, "row_mass", InterferenceMap.row_mass))
    expand = FeatureMap.expand

    def counted_expand(self, x):
        table = "out" if np.shape(x) == out.x.shape else "intv"
        expanded[self.kind, table] += 1
        return expand(self, x)

    monkeypatch.setattr(FeatureMap, "expand", counted_expand)
    results = run_replication(FAST, 0)
    assert all(res.fail_reason is None for res in results.values())
    assert calls == {"fit_propensity": 2, "exposure of a": 1, "row_mass": 1}
    assert expanded == {("quadratic", "out"): 1, ("linear", "out"): 1,
                        ("quadratic", "intv"): 1, ("linear", "intv"): 1}


def _cell_through_the_public_fits(out, intv, h, truth, cell, se_fail_threshold):
    """A cell fitted and scored on its own, through fit_q, fit_a and total_effects."""
    spec = OutcomeModelSpec(basis_f0=FeatureMap(cell.f0_kind), basis_fa=TRUTH_BASIS)
    try:
        if cell.estimator == "q":
            fit = fit_q(PreparedData(out, abar=h.exposure(intv.a)), spec)
        else:
            fit = fit_a(out, intv, h, spec, prop_basis=FeatureMap(cell.prop_kind))
        beta, cov_beta = fit.beta, fit.cov_beta()
    except BnpolicyError as exc:
        return CellResult(None, None, None, f"fit failed: {exc}")
    se = np.sqrt(np.clip(np.diag(cov_beta), 0.0, None))
    if float(np.median(se)) > se_fail_threshold:
        return CellResult(None, None, None,
                          "uninformative fit: median effect-coefficient standard "
                          f"error {float(np.median(se)):.3g} exceeds {se_fail_threshold}")
    shared = min(beta.shape[0], truth.beta0.shape[0])
    b_hat, b0, se_s = beta[:shared], truth.beta0[:shared], se[:shared]
    covered = (b_hat - Z95 * se_s <= b0) & (b0 <= b_hat + Z95 * se_s)
    te_hat = total_effects(PreparedData(out, h=h), beta, spec.basis_fa)
    return CellResult(bias=float(np.linalg.norm(b_hat - b0)),
                      rmse=float(np.sqrt(np.mean((te_hat - truth.te_true) ** 2))),
                      coverage=float(np.mean(covered) * 100.0))


@pytest.mark.parametrize("config", [
    FAST, SimConfig(n=200, j=10, p=2, q=2, reps=1, master_seed=3)], ids=["fast", "tiny_j"])
def test_a_replication_equals_its_cells_fitted_one_by_one(config):
    # sharing the prepared data changes no bit and no failure message
    reasons = set()
    for rep in range(4):
        out, intv, h, truth = generate_dgp(config, splitmix64(config.master_seed, rep))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # ill-conditioned systems
            got = run_replication(config, rep)
            want = {name: _cell_through_the_public_fits(out, intv, h, truth, cell,
                                                        config.se_fail_threshold)
                    for name, cell in CELLS.items()}
        assert got == want
        reasons.update((res.fail_reason or "scored").split(":")[0] for res in got.values())
    if config is not FAST:  # the oracle covers failed fits too
        assert reasons >= {"scored", "fit failed"}


def test_the_smallest_keys_are_the_set_argpartition_picks():
    keys = np.random.default_rng(5).random((50, 20))
    picked = np.zeros(keys.shape, dtype=bool)
    np.put_along_axis(picked, np.argsort(keys, axis=1)[:, :4], True, axis=1)
    assert np.array_equal(_smallest(keys, 4), picked)


def test_tied_keys_fall_back_to_argpartition():
    # row 0 ties at its 2nd smallest key, so the threshold mask would hold 3
    keys = np.array([[0.5, 0.1, 0.5, 0.9, 0.5],
                     [0.4, 0.3, 0.2, 0.1, 0.0]])
    chosen = _smallest(keys, 2)
    picked = np.zeros(keys.shape, dtype=bool)
    np.put_along_axis(picked, np.argpartition(keys, 1, axis=1)[:, :2], True, axis=1)
    assert np.array_equal(chosen, picked)
    assert chosen.sum(axis=1).tolist() == [2, 2] and chosen[0, 1] and chosen[1, 4]


@pytest.mark.parametrize("shape", [{}, {"h_local_frac": 0.0}, {"h_diffuse_degree": 34},
                                   {"h_local_frac": 0.5, "h_kernel_bandwidth": 0.05}])
def test_draw_h_equals_the_load_matrix_construction(shape):
    # H = colmass * load * noise, with a 0/1 load on the diffuse block, bit for bit
    config = SimConfig(n=300, j=40, p=2, q=2, **shape)
    x_out = np.random.default_rng(3).standard_normal((config.n, config.p))
    rng = _RecordingRng(8)
    h = _draw_h(rng, config, x_out)
    j_loc = round(config.h_local_frac * config.j)
    colmass = rng.draws["permutation"][0]
    (keys,), (noise,) = rng.draws["random"], rng.draws["lognormal"]
    load = np.zeros((config.n, config.j))
    if j_loc:
        centers = rng.draws["permutation"][1]
        load[:, :j_loc] = np.exp(-0.5 * ((x_out[:, :1] - centers[None, :])
                                         / config.h_kernel_bandwidth) ** 2)
    deg = min(config.h_diffuse_degree, config.j - j_loc)
    pick = np.argpartition(keys, deg - 1, axis=1)[:, :deg]
    np.put_along_axis(load[:, j_loc:], pick, 1.0, axis=1)
    assert h.tobytes() == (colmass[None, :] * load * noise).tobytes()


def test_draw_h_leaves_the_generator_where_the_draws_end():
    # colmass, centers, keys and noise, in that order: one draw of each
    config = SimConfig(n=300, j=30, p=2, q=2)
    x_out = np.random.default_rng(2).standard_normal((config.n, config.p))
    rng = _RecordingRng(4)
    _draw_h(rng, config, x_out)
    assert {name: len(draws) for name, draws in rng.draws.items()} == {
        "permutation": 2, "random": 1, "lognormal": 1}
    replay = np.random.default_rng(4)
    j_loc = round(config.h_local_frac * config.j)
    replay.permutation(config.j)
    replay.permutation(j_loc)
    replay.random((config.n, config.j - j_loc))
    replay.lognormal(0.0, config.h_entry_log_sd, (config.n, config.j))
    assert replay.bit_generator.state == rng._rng.bit_generator.state


def test_a_negative_master_seed_is_rejected():
    with pytest.raises(DataValidationError, match=r"^master_seed must be a non-negative "
                                                  r"integer, got -1$"):
        SimConfig(master_seed=-1)
    assert SimConfig(master_seed=0).master_seed == 0
