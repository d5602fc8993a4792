"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  Criterion 5 is the
heavy one (full 500-replication study); the whole module stays inside a
ten-minute desk budget.
"""
import itertools
import json
import os
import time

import numpy as np
import pytest

from bnpolicy import (FeatureMap, InterferenceMap, InterventionTable,
                      OutcomeModelSpec, OutcomeTable, PreparedData, SimConfig, fit_a,
                      fit_q, generate_dgp, knapsack_policy, nmae,
                      run_monte_carlo, splitmix64, split_train_val,
                      te_ranked_policy, total_effects)
from bnpolicy.alearn import a_covariance
from bnpolicy.cli import main
from bnpolicy.costimpute import SplitSpec, fit_cost_models
from bnpolicy.propensity import logistic
from oracles import a_equations, a_system, q_design, q_score_norm

LIN = OutcomeModelSpec(basis_f0=FeatureMap("linear"), basis_fa=FeatureMap("linear"))


def _report(num, text):
    print(f"\nACCEPTANCE {num}: PASS — {text}")


def test_criterion_01_exposure_and_effect_oracles():
    rng = np.random.default_rng(101)
    t0 = time.time()
    for _ in range(100):
        n = int(rng.integers(2, 201))
        j = int(rng.integers(1, 21))
        p = int(rng.integers(1, 4))
        h = InterferenceMap(rng.random((n, j)))
        a = rng.random(j)
        abar = h.exposure(a)
        brute_abar = np.array([sum(h.h[i, k] * a[k] for k in range(j)) / j
                               for i in range(n)])
        assert np.max(np.abs(abar - brute_abar)) <= 1e-12
        out = OutcomeTable(x=rng.standard_normal((n, p)), y=np.zeros(n))
        beta = rng.uniform(-2, 2, p + 1)
        te = total_effects(PreparedData(out, h=h), beta, FeatureMap("linear"))
        fa_vals = FeatureMap("linear").expand(out.x) @ beta
        brute_te = np.array([sum(h.h[i, k] * fa_vals[i] for i in range(n)) / j
                             for k in range(j)])
        assert np.max(np.abs(te - brute_te)) <= 1e-12
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report(1, f"matrix and double-loop agree to 1e-12 on 100 instances "
               f"({elapsed:.2f}s)")


def test_criterion_02_q_learning_exactness():
    rng = np.random.default_rng(202)
    # noiseless fixture: exact recovery
    x = rng.standard_normal((300, 2))
    abar = rng.uniform(0, 1, 300)
    alpha0 = rng.uniform(-1, 1, 3)
    beta0 = rng.uniform(-1, 1, 3)
    y = LIN.basis_f0.expand(x) @ alpha0 + abar * (LIN.basis_fa.expand(x) @ beta0)
    out = OutcomeTable(x=x, y=y)
    fit = fit_q(PreparedData(out, abar=abar), LIN)
    assert np.max(np.abs(fit.theta - np.concatenate([alpha0, beta0]))) <= 1e-8
    # estimating-equation residual bound on every fit, noisy ones included
    for trial in range(10):
        yn = y + rng.standard_normal(300) * rng.uniform(0.01, 2.0)
        outn = OutcomeTable(x=x, y=yn)
        fitn = fit_q(PreparedData(outn, abar=abar), LIN)
        bound = 1e-8 * 300 * max(1.0, float(np.max(np.abs(yn))))
        assert q_score_norm(fitn, outn, abar) <= bound
    _report(2, "noiseless recovery at 1e-8 and score max-norm within bound on "
               "10 noisy fits")


def _a_fixture(rng, n=600, j=40, noise=0.3):
    x_out = rng.standard_normal((n, 2))
    x_int = rng.standard_normal((j, 2))
    h = InterferenceMap(rng.lognormal(0.0, 0.6, (n, j)))
    a = (rng.random(j) < 0.3).astype(float)
    if a.min() == a.max():
        a[0] = 1.0 - a[0]
    alpha0 = rng.uniform(-1, 1, 3)
    beta0 = rng.uniform(-1, 1, 3)
    abar = h.h @ a / j
    y = (LIN.basis_f0.expand(x_out) @ alpha0
         + abar * (LIN.basis_fa.expand(x_out) @ beta0)
         + noise * rng.standard_normal(n))
    return OutcomeTable(x=x_out, y=y), InterventionTable(x=x_int, a=a), h


def test_criterion_03_a_learning_root_and_equivariance():
    rng = np.random.default_rng(303)
    out, intv, h = _a_fixture(rng)
    fit = fit_a(out, intv, h, LIN, prop_basis=FeatureMap("linear"))
    abar = h.exposure(intv.a)
    abar_hat = h.exposure(fit.gamma_fit.fitted)
    eq = a_equations(out, h, abar, abar_hat, LIN, fit.alpha, fit.beta)
    scale = max(1.0, float(np.max(np.abs(out.y))))
    assert np.max(np.abs(eq)) <= 1e-8 * scale
    out10 = OutcomeTable(x=out.x, y=10.0 * out.y)
    fit10 = fit_a(out10, intv, h, LIN, prop_basis=FeatureMap("linear"))
    assert np.allclose(fit10.theta, 10.0 * fit.theta, rtol=1e-13, atol=0.0)
    _report(3, "both blocks zeroed to 1e-8*scale; scaling y by 10 scales "
               "(alpha, beta) by 10 to float homogeneity (rtol 1e-13)")


def test_criterion_04_jacobians_match_finite_differences():
    rng = np.random.default_rng(404)
    worst_q = worst_m = worst_g = 0.0
    for cfg in range(20):
        n = int(rng.integers(150, 400))
        j = int(rng.integers(15, 40))
        out, intv, h = _a_fixture(rng, n=n, j=j, noise=0.4)
        abar = h.exposure(intv.a)

        # Q bread vs FD of the mean estimating function
        qfit = fit_q(PreparedData(out, abar=abar), LIN)
        design, _ = q_design(out, abar, LIN)
        bread = design.T @ design / n
        theta = qfit.theta
        fd = np.zeros_like(bread)
        for col in range(theta.shape[0]):
            step = 1e-6 * max(1.0, abs(theta[col]))
            up = theta.copy(); up[col] += step
            dn = theta.copy(); dn[col] -= step
            fd[:, col] = (design.T @ (out.y - design @ up)
                          - design.T @ (out.y - design @ dn)) / (2 * step * n)
        worst_q = max(worst_q, np.linalg.norm(fd + bread) / np.linalg.norm(bread))

        # A joint Jacobian and propensity-sensitivity block
        prop_basis = FeatureMap("linear")
        afit = fit_a(out, intv, h, LIN, prop_basis=prop_basis)
        gamma = afit.gamma_fit.gamma
        bprop = prop_basis.expand(intv.x)

        def eq_at(theta_v, g):
            e = logistic(bprop @ g)
            ah = h.exposure(e)
            return a_equations(out, h, abar, ah, LIN, theta_v[:3], theta_v[3:])

        e = logistic(bprop @ gamma)
        abar_hat = h.exposure(e)
        m, _ = a_system(out, h, abar, abar_hat, LIN)
        th = afit.theta
        fd_m = np.zeros_like(m)
        for col in range(th.shape[0]):
            step = 1e-6 * max(1.0, abs(th[col]))
            up = th.copy(); up[col] += step
            dn = th.copy(); dn[col] -= step
            fd_m[:, col] = (eq_at(up, gamma) - eq_at(dn, gamma)) / (2 * step)
        worst_m = max(worst_m, np.linalg.norm(fd_m + m) / np.linalg.norm(m))

        _, _, _, sigma_gamma = a_covariance(
            out, h, abar, abar_hat, LIN, afit.alpha, afit.beta, m,
            e=e, prop_basis_matrix=bprop, cov_gamma=afit.gamma_fit.cov_gamma)
        fd_g = np.zeros_like(sigma_gamma)
        for col in range(gamma.shape[0]):
            step = 1e-6 * max(1.0, abs(gamma[col]))
            up = gamma.copy(); up[col] += step
            dn = gamma.copy(); dn[col] -= step
            fd_g[:, col] = (eq_at(th, up) - eq_at(th, dn)) / (2 * step)
        worst_g = max(worst_g, np.linalg.norm(fd_g - sigma_gamma)
                      / np.linalg.norm(sigma_gamma))
    assert worst_q <= 1e-5 and worst_m <= 1e-5 and worst_g <= 1e-5
    _report(4, f"20 configurations: worst relative FD gaps "
               f"{worst_q:.2e} (Q bread), {worst_m:.2e} (joint), "
               f"{worst_g:.2e} (propensity block)")


def test_criterion_05_table_pattern_at_desk_scale():
    t0 = time.time()
    workers = min(4, os.cpu_count() or 1)
    config = SimConfig(reps=500, master_seed=20_240_817)
    report = run_monte_carlo(config, n_workers=workers)
    elapsed = time.time() - t0
    c = report.cells
    assert 93 <= c["q_correct"].mean_coverage <= 97
    for name in ("a_cc", "a_c_misP", "a_misB_c", "a_mis_mis"):
        assert 92 <= c[name].mean_coverage <= 99, name
    assert c["q_misspec"].mean_coverage < 60
    assert c["a_misB_c"].mean_coverage - c["q_misspec"].mean_coverage >= 30
    assert c["a_misB_c"].mean_bias < c["q_misspec"].mean_bias
    assert c["a_misB_c"].mean_rmse < c["q_misspec"].mean_rmse
    assert elapsed < 600
    _report(5, "coverage pattern and bias/rmse orderings hold at n=2000, "
               f"J=100, 500 reps in {elapsed:.0f}s: "
               f"coverages q={c['q_correct'].mean_coverage:.1f}/"
               f"{c['q_misspec'].mean_coverage:.1f}, "
               f"a={c['a_cc'].mean_coverage:.1f}/{c['a_c_misP'].mean_coverage:.1f}/"
               f"{c['a_misB_c'].mean_coverage:.1f}/{c['a_mis_mis'].mean_coverage:.1f}; "
               f"bias {c['a_misB_c'].mean_bias:.3f} < {c['q_misspec'].mean_bias:.3f}; "
               f"rmse {c['a_misB_c'].mean_rmse:.3f} < {c['q_misspec'].mean_rmse:.3f}; "
               f"failed reps {c['a_misB_c'].n_failed}/{c['a_mis_mis'].n_failed}")


def test_criterion_06_double_robustness_with_true_propensities():
    # Baseline truth is cubic, the fitted baseline is linear (genuinely
    # misspecified), the effect model is correct and the true propensities
    # are supplied.  The estimating equations are exactly mean-zero here;
    # an odd-symmetric omitted term keeps the finite-sample ratio bias of
    # the solved system off the effect coordinates, so the solver's output
    # exposes the estimating equations' unbiasedness directly.
    reps = 200
    n, j, p, q = 20000, 100, 3, 3
    mis_spec = OutcomeModelSpec(basis_f0=FeatureMap("linear"),
                                basis_fa=FeatureMap("quadratic"))
    cubic = FeatureMap("cubic")
    quad = FeatureMap("quadratic")
    errs = []
    for rep in range(reps):
        rng = np.random.default_rng(splitmix64(606, rep))
        x_out = rng.standard_normal((n, p))
        x_int = rng.standard_normal((j, q))
        h = InterferenceMap(rng.lognormal(0.0, 0.75, (n, j)))
        gamma = np.concatenate([[np.log(0.19 / 0.81)],
                                rng.uniform(-0.05, 0.05, 2 * q)])
        e = logistic(quad.expand(x_int) @ gamma)
        a = (rng.random(j) < e).astype(float)
        alpha0 = rng.uniform(-0.05, 0.05, cubic.dim(p))
        beta0 = rng.uniform(-0.05, 0.05, quad.dim(p))
        abar = h.h @ a / j
        mu = cubic.expand(x_out) @ alpha0 + abar * (quad.expand(x_out) @ beta0)
        y = mu + (np.std(mu, ddof=1) / 3.0) * rng.standard_normal(n)
        fit = fit_a(OutcomeTable(x=x_out, y=y), InterventionTable(x=x_int, a=a),
                    h, mis_spec, propensities=e)
        errs.append(fit.beta - beta0)
    errs = np.asarray(errs)
    mean_err = errs.mean(axis=0)
    mc_se = errs.std(axis=0, ddof=1) / np.sqrt(reps)
    assert np.all(np.abs(mean_err) <= 3.0 * mc_se), (mean_err, mc_se)
    _report(6, "misspecified baseline with true propensities: mean beta error "
               f"within 3 MC standard errors of zero on all "
               f"{mean_err.shape[0]} coordinates over {reps} reps at n=20000 "
               f"(max |t| = {float(np.max(np.abs(mean_err / mc_se))):.2f})")


def _lp_optimum(te, cost, budget):
    cand = np.flatnonzero(te < 0)
    best = 0.0
    for r in range(len(cand) + 1):
        for subset in itertools.combinations(cand, r):
            used = float(cost[list(subset)].sum()) if subset else 0.0
            if used > budget * (1 + 1e-12):
                continue
            value = float(te[list(subset)].sum()) if subset else 0.0
            best = min(best, value)
            rest = budget - used
            if rest <= 0:
                continue
            for k in cand:
                if k not in subset:
                    best = min(best, value + min(1.0, rest / cost[k]) * float(te[k]))
    return best


def test_criterion_07_knapsack_optimality_and_dominance():
    rng = np.random.default_rng(707)
    t0 = time.time()
    for _ in range(1000):
        j = int(rng.integers(2, 13))
        te = rng.uniform(-3, 1, j)
        cost = rng.uniform(0.2, 2.0, j)
        budget = float(rng.uniform(0, cost.sum()))
        sol = knapsack_policy(te, cost, budget, j)
        assert sol.value_rate * j <= _lp_optimum(te, cost, budget) + 1e-9
        assert sol.spent <= budget * (1 + 1e-9)
    for _ in range(1000):
        j = int(rng.integers(2, 401))
        te = rng.uniform(-3, 1, j)
        cost = rng.uniform(0.1, 3.0, j)
        budget = float(rng.uniform(0, cost.sum()))
        bc = knapsack_policy(te, cost, budget, j)
        tr = te_ranked_policy(te, cost, budget, j)
        assert bc.value_rate <= tr.value_rate + 1e-12
        assert bc.spent <= budget * (1 + 1e-9)
        assert tr.spent <= budget * (1 + 1e-9)
    elapsed = time.time() - t0
    assert elapsed < 30
    _report(7, f"greedy equals the enumeration optimum (1000 small instances), "
               f"ratio ranking dominates effect ranking and budgets are exact "
               f"(1000 instances up to J=400) in {elapsed:.1f}s")


def test_criterion_08_calibration_on_every_generated_rep():
    config = SimConfig()
    basis = FeatureMap("quadratic")
    for rep in range(40):
        out, intv, h, truth = generate_dgp(config, splitmix64(config.master_seed, rep))
        assert abs(float(truth.propensities.mean()) - 0.19) <= 0.01
        bx = basis.expand(out.x)
        mean_mu = float(np.mean(bx @ truth.alpha0
                                + truth.expected_abar * (bx @ truth.beta0)))
        assert abs(mean_mu - 0.29) <= 0.001
    _report(8, "40 default-config reps hit |mean propensity - 0.19| <= 0.01 and "
               "|mean outcome - 0.29| <= 0.001 (also enforced inline on every "
               "generated rep)")


def test_criterion_09_cost_model_behaviors():
    assert nmae([10.0, 20.0], [8.0, 25.0]) == pytest.approx(0.225)
    train, val = split_train_val(135, SplitSpec(train_fraction=0.8, seed=1))
    assert train.size == 108 and val.size == 27
    rng = np.random.default_rng(909)
    x_lin = rng.standard_normal((60, 3))
    c_lin = 4.0 + x_lin @ np.array([2.0, -1.0, 0.5])
    fit_lin, _ = fit_cost_models(x_lin, c_lin, SplitSpec(seed=2), n_trees=50)
    assert fit_lin.model_kind == "linear"
    x_step = rng.standard_normal((500, 2))
    c_step = np.where(x_step[:, 0] > 0, 10.0, 2.0) + 0.01 * rng.standard_normal(500)
    fit_step, _ = fit_cost_models(x_step, c_step, SplitSpec(seed=4), n_trees=60)
    assert fit_step.model_kind == "forest"
    _report(9, "hand NMAE 0.225 exact, 135-row split is 108/27, and model "
               "selection flips between the linear and step fixtures")


def test_criterion_10_cli_determinism(tmp_path):
    config = {"n": 500, "j": 50, "p": 2, "q": 2, "reps": 4, "master_seed": 10}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    blobs = []
    for tag, threads in (("a", "1"), ("b", "1"), ("c", "2")):
        out_dir = tmp_path / tag
        code = main(["simulate", "--config", str(cfg_path), "--threads", threads,
                     "--out-dir", str(out_dir)])
        assert code == 0
        blobs.append((out_dir / "sim_report.json").read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]
    _report(10, "repeated runs and different worker counts produce "
                "byte-identical machine-readable reports")
