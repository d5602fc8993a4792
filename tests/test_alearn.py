import dataclasses

import numpy as np
import pytest

from bnpolicy import (DataValidationError, FeatureMap, InterferenceMap, InterventionTable,
                      OutcomeModelSpec, OutcomeTable, PreparedData, SimConfig,
                      SingularSystemError, effect_table, fit_a, fit_q, generate_dgp,
                      policy_count, splitmix64, total_effects)
from bnpolicy import alearn, prepared
from bnpolicy.alearn import a_covariance, gamma_sensitivity
from bnpolicy.propensity import logistic
from oracles import a_equations, a_system

LIN = OutcomeModelSpec(basis_f0=FeatureMap("linear"), basis_fa=FeatureMap("linear"))


def _make_data(rng, n=500, j=30, p=2, q=2, noise=0.0):
    x_out = rng.standard_normal((n, p))
    x_int = rng.standard_normal((j, q))
    h = InterferenceMap(rng.lognormal(0.0, 0.6, (n, j)))
    a = (rng.random(j) < 0.4).astype(float)
    if a.min() == a.max():
        a[0] = 1.0 - a[0]
    alpha0 = rng.uniform(-1, 1, p + 1)
    beta0 = rng.uniform(-1, 1, p + 1)
    abar = h.h @ a / j
    y = (LIN.basis_f0.expand(x_out) @ alpha0 + abar * (LIN.basis_fa.expand(x_out) @ beta0)
         + noise * rng.standard_normal(n))
    return (OutcomeTable(x=x_out, y=y), InterventionTable(x=x_int, a=a), h,
            alpha0, beta0)


def test_noiseless_recovery_any_propensity_basis(rng):
    out, intv, h, alpha0, beta0 = _make_data(rng)
    for prop_kind in ("linear", "quadratic"):
        fit = fit_a(out, intv, h, LIN, prop_basis=FeatureMap(prop_kind))
        assert np.max(np.abs(fit.beta - beta0)) <= 1e-8
        assert np.max(np.abs(fit.alpha - alpha0)) <= 1e-8


def test_exact_root_of_both_blocks(rng):
    out, intv, h, *_ = _make_data(rng, noise=0.3)
    fit = fit_a(out, intv, h, LIN, prop_basis=FeatureMap("linear"))
    abar = h.exposure(intv.a)
    abar_hat = h.exposure(fit.gamma_fit.fitted)
    eq = a_equations(out, h, abar, abar_hat, LIN, fit.alpha, fit.beta)
    scale = max(1.0, float(np.max(np.abs(out.y))))
    assert np.max(np.abs(eq)) <= 1e-8 * scale


def test_scale_equivariance_in_y(rng):
    out, intv, h, *_ = _make_data(rng, noise=0.2)
    fit1 = fit_a(out, intv, h, LIN, prop_basis=FeatureMap("linear"))
    out10 = OutcomeTable(x=out.x, y=10.0 * out.y)
    fit10 = fit_a(out10, intv, h, LIN, prop_basis=FeatureMap("linear"))
    assert np.allclose(fit10.theta, 10.0 * fit1.theta, rtol=1e-13, atol=0)


def test_degenerate_exposure_residual_raises():
    # identical H columns and supplied propensities make abar == abar_hat
    h = InterferenceMap(np.array([[1.0, 1.0], [2.0, 2.0], [0.5, 0.5]]))
    out = OutcomeTable(x=np.zeros((3, 0)), y=np.array([1.0, 1.0, 1.0]))
    intv = InterventionTable(x=np.zeros((2, 0)), a=np.array([1.0, 0.0]))
    with pytest.raises(SingularSystemError):
        fit_a(out, intv, h, LIN, propensities=np.array([0.5, 0.5]))


def test_known_propensities_zero_gamma_term(rng):
    out, intv, h, *_ = _make_data(rng, noise=0.2)
    e = np.full(intv.j, 0.4)
    fit = fit_a(out, intv, h, LIN, propensities=e)
    assert fit.gamma_fit is None
    assert np.allclose(fit.omega_gamma, 0.0)


def test_fit_a_rejects_a_treatment_outside_zero_one(rng):
    out, intv, h, *_ = _make_data(rng)
    a = intv.a.copy()
    a[0] = 1.5
    with pytest.raises(DataValidationError, match="exactly 0 or 1"):
        fit_a(out, InterventionTable(x=intv.x, a=a), h, LIN, prop_basis=FeatureMap("linear"))


@pytest.mark.parametrize("edge", [0.0, 1.0, np.nan])
def test_fit_a_rejects_known_propensities_outside_the_open_interval(rng, edge):
    out, intv, h, *_ = _make_data(rng)
    e = np.full(intv.j, 0.4)
    e[3] = edge
    with pytest.raises(DataValidationError, match=r"strictly in \(0, 1\)"):
        fit_a(out, intv, h, LIN, propensities=e)


@pytest.mark.parametrize("edge", [0.0, 1.0])
def test_fit_a_rejects_a_fitted_propensity_rounded_to_zero_or_one(rng, monkeypatch, edge):
    out, intv, h, *_ = _make_data(rng)
    fit_propensity = prepared.fit_propensity

    def rounded(*args, **kwargs):
        fit = fit_propensity(*args, **kwargs)
        fitted = fit.fitted.copy()
        fitted[2] = edge
        return dataclasses.replace(fit, fitted=fitted)

    monkeypatch.setattr(prepared, "fit_propensity", rounded)
    with pytest.raises(DataValidationError, match=r"strictly in \(0, 1\)"):
        fit_a(out, intv, h, LIN, prop_basis=FeatureMap("linear"))


def test_gamma_sensitivity_zero_for_zero_map(rng):
    h = InterferenceMap(np.zeros((4, 3)))
    e = np.array([0.2, 0.5, 0.7])
    bprop = FeatureMap("linear").expand(rng.standard_normal((3, 2)))
    assert np.array_equal(gamma_sensitivity(h, e, bprop), np.zeros((4, 3)))


def test_gamma_sensitivity_matches_the_weighted_map_product(rng):
    n, j = 300, 40
    h = InterferenceMap(rng.lognormal(0.0, 0.8, (n, j)) * (rng.random((n, j)) < 0.3))
    e = logistic(rng.standard_normal(j))
    bprop = FeatureMap("quadratic").expand(rng.standard_normal((j, 3)))
    expected = (h.h * (e * (1.0 - e))[None, :]) @ bprop / h.j
    got = gamma_sensitivity(h, e, bprop)
    assert got.shape == expected.shape
    assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))


def test_gamma_sensitivity_checks_the_propensity_length(rng):
    h = InterferenceMap(rng.random((4, 3)))
    bprop = FeatureMap("linear").expand(rng.standard_normal((3, 1)))
    with pytest.raises(DataValidationError, match=r"shape \(2,\) do not match the basis matrix of shape \(3, 2\)"):
        gamma_sensitivity(h, np.array([0.2, 0.5]), bprop)


@pytest.mark.parametrize("wrong", ["abar", "abar_hat"])
def test_public_systems_check_the_exposure_lengths(rng, wrong):
    out, intv, h, *_ = _make_data(rng, n=20, j=5)
    given = {"abar": h.exposure(intv.a), "abar_hat": h.exposure(np.full(5, 0.4))}
    given[wrong] = given[wrong][:-1]
    args = (out, h, given["abar"], given["abar_hat"], LIN)
    alpha, beta = np.zeros(3), np.zeros(3)
    for call in (lambda: a_system(*args), lambda: a_equations(*args, alpha, beta),
                 lambda: a_covariance(*args, alpha, beta, np.eye(6))):
        with pytest.raises(DataValidationError, match=rf"^{wrong} must have shape \(20,\)"):
            call()


def test_public_systems_check_the_map_rows(rng):
    out, intv, h, *_ = _make_data(rng, n=20, j=5)
    out = OutcomeTable(x=out.x, y=out.y, person_years=np.full(20, 1000.0))
    tall = InterferenceMap(np.vstack([h.h, np.ones((1, 5))]))  # 21 rows for 20 outcomes
    abar = np.full(20, 0.5)
    args = (out, tall, abar, abar - 0.1, LIN)
    alpha, beta = np.zeros(3), np.zeros(3)
    for call in (lambda: fit_a(out, intv, tall, LIN, prop_basis=FeatureMap("linear")),
                 lambda: a_system(*args), lambda: a_equations(*args, alpha, beta),
                 lambda: a_covariance(*args, alpha, beta, np.eye(6)),
                 lambda: PreparedData(out, h=tall)):
        with pytest.raises(DataValidationError,
                           match="^interference map has 21 rows but the outcome table has 20$"):
            call()
    narrow = InterferenceMap(h.h[:, :4])  # 4 columns for 5 plants
    with pytest.raises(DataValidationError, match="^interference map has 4 columns but the "
                                                  "intervention table has 5$"):
        fit_a(out, intv, narrow, LIN, prop_basis=FeatureMap("linear"))


def test_zero_map_fit_raises_singular(rng):
    h = InterferenceMap(np.zeros((50, 4)))
    out = OutcomeTable(x=rng.standard_normal((50, 1)), y=rng.standard_normal(50))
    intv = InterventionTable(x=rng.standard_normal((4, 1)),
                             a=np.array([1.0, 0.0, 1.0, 0.0]))
    with pytest.raises(SingularSystemError):
        fit_a(out, intv, h, LIN, propensities=np.full(4, 0.5))


def test_fixed_gamma_matches_q_learning_se_at_scale():
    # For binary treatments at constant propensity e the two routes have
    # asymptotic variance ratio 1/(1-e) per coordinate, so at low
    # prevalence with homogeneous transport masses the standard errors
    # agree closely.
    rng = np.random.default_rng(31)
    n, j, p = 5000, 60, 2
    x_out = rng.standard_normal((n, p))
    x_int = rng.standard_normal((j, 2))
    h = InterferenceMap(rng.uniform(0.8, 1.2, (n, j)))
    e_true = np.full(j, 0.2)
    a = (rng.random(j) < e_true).astype(float)
    if a.min() == a.max():
        a[0] = 1.0 - a[0]
    alpha0 = rng.uniform(-1, 1, p + 1)
    beta0 = rng.uniform(-1, 1, p + 1)
    abar = h.h @ a / j
    y = (LIN.basis_f0.expand(x_out) @ alpha0
         + abar * (LIN.basis_fa.expand(x_out) @ beta0)
         + 0.4 * rng.standard_normal(n))
    out = OutcomeTable(x=x_out, y=y)
    intv = InterventionTable(x=x_int, a=a)
    afit = fit_a(out, intv, h, LIN, propensities=e_true)
    qfit = fit_q(PreparedData(out, abar=h.exposure(intv.a)), LIN)
    a_se = np.sqrt(np.diag(afit.cov_beta()))
    q_se = np.sqrt(np.diag(qfit.cov_beta()))
    assert np.all(np.abs(a_se / q_se - 1.0) <= 0.25)


def test_jacobian_blocks_match_finite_differences(rng):
    for trial in range(3):
        out, intv, h, *_ = _make_data(rng, n=300, j=20, noise=0.3)
        prop_basis = FeatureMap("linear")
        fit = fit_a(out, intv, h, LIN, prop_basis=prop_basis)
        gamma = fit.gamma_fit.gamma
        bprop = prop_basis.expand(intv.x)
        abar = h.exposure(intv.a)

        def eq_at(theta, g):
            e = logistic(bprop @ g)
            abar_hat = h.exposure(e)
            da = LIN.basis_f0.dim(out.p)
            return a_equations(out, h, abar, abar_hat, LIN, theta[:da], theta[da:])

        theta = fit.theta
        k = theta.shape[0]
        e = logistic(bprop @ gamma)
        abar_hat = h.exposure(e)
        m, _ = a_system(out, h, abar, abar_hat, LIN)
        fd_theta = np.zeros((k, k))
        for col in range(k):
            step = 1e-6 * max(1.0, abs(theta[col]))
            up = theta.copy(); up[col] += step
            dn = theta.copy(); dn[col] -= step
            fd_theta[:, col] = (eq_at(up, gamma) - eq_at(dn, gamma)) / (2 * step)
        assert np.linalg.norm(fd_theta + m) / np.linalg.norm(m) <= 1e-5

        _, _, _, sigma_gamma = a_covariance(
            out, h, abar, abar_hat, LIN, fit.alpha, fit.beta, m,
            e=e, prop_basis_matrix=bprop, cov_gamma=fit.gamma_fit.cov_gamma)
        dg = gamma.shape[0]
        fd_gamma = np.zeros((k, dg))
        for col in range(dg):
            step = 1e-6 * max(1.0, abs(gamma[col]))
            up = gamma.copy(); up[col] += step
            dn = gamma.copy(); dn[col] -= step
            fd_gamma[:, col] = (eq_at(theta, up) - eq_at(theta, dn)) / (2 * step)
        assert (np.linalg.norm(fd_gamma - sigma_gamma)
                / max(np.linalg.norm(sigma_gamma), 1e-12)) <= 1e-5


def test_double_robustness_reduced_check():
    # true propensities supplied, baseline misspecified (cubic truth fitted
    # with a linear baseline): mean beta error stays within Monte Carlo
    # noise of zero; the full-scale version is acceptance criterion 6
    reps = 20
    n, j, p, q = 8000, 60, 2, 2
    errs = []
    cubic = FeatureMap("cubic")
    quad = FeatureMap("quadratic")
    mis_spec = OutcomeModelSpec(basis_f0=FeatureMap("linear"),
                                basis_fa=FeatureMap("quadratic"))
    for seed in range(reps):
        rng = np.random.default_rng(500 + seed)
        x_out = rng.standard_normal((n, p))
        x_int = rng.standard_normal((j, q))
        h = InterferenceMap(rng.lognormal(0.0, 0.6, (n, j)))
        e = np.clip(logistic(0.3 * x_int[:, 0] - 0.5), 0.05, 0.95)
        a = (rng.random(j) < e).astype(float)
        alpha0 = rng.uniform(-0.5, 0.5, cubic.dim(p))
        beta0 = rng.uniform(-0.5, 0.5, quad.dim(p))
        abar = h.h @ a / j
        y = (cubic.expand(x_out) @ alpha0
             + abar * (quad.expand(x_out) @ beta0)
             + 0.3 * rng.standard_normal(n))
        out = OutcomeTable(x=x_out, y=y)
        intv = InterventionTable(x=x_int, a=a)
        fit = fit_a(out, intv, h, mis_spec, propensities=e)
        errs.append(fit.beta - beta0)
    errs = np.asarray(errs)
    mean_err = errs.mean(axis=0)
    mc_se = errs.std(axis=0, ddof=1) / np.sqrt(reps)
    assert np.all(np.abs(mean_err) <= 3.5 * mc_se)


def _block_formula_fit(out, intv, h, spec, e, bprop, cov_gamma):
    """(theta, cov) from the stacked blocks: LU solve, LU inverse, explicit scores."""
    n = out.n
    f0 = spec.basis_f0.expand(out.x)
    fa = spec.basis_fa.expand(out.x)
    c = h.row_mass()
    lam = c[:, None] * fa
    abar = h.exposure(intv.a)
    delta = abar - h.exposure(e)
    w = c * delta
    ta = abar[:, None] * fa
    wfa = w[:, None] * fa
    m = np.block([[f0.T @ f0, f0.T @ ta], [wfa.T @ f0, wfa.T @ ta]]) / n
    theta = np.linalg.solve(m, np.concatenate([f0.T @ out.y, wfa.T @ out.y]) / n)
    da = f0.shape[1]
    resid = out.y - f0 @ theta[:da] - abar * (fa @ theta[da:])
    phi = np.hstack([f0 * resid[:, None], lam * (resid * delta)[:, None]])
    m_inv = np.linalg.inv(m)
    omega_phi = m_inv @ (phi.T @ phi / n) @ m_inv.T
    g = (h.h * (e * (1.0 - e))[None, :]) @ bprop / h.j
    sigma_gamma = np.vstack([np.zeros((da, g.shape[1])), -(lam * resid[:, None]).T @ g / n])
    core = m_inv @ sigma_gamma
    cov = (omega_phi + core @ cov_gamma @ core.T * n / h.j) / n
    return theta, 0.5 * (cov + cov.T)


def _lab_replication(rng):
    # default lab design: the effect columns of M are ~30x smaller than the
    # baseline ones, the scaling under which an unrefined SVD inverse loses
    # three digits
    config = SimConfig()
    out, intv, h, _ = generate_dgp(config, splitmix64(config.master_seed, 0))
    return (out, intv, h, OutcomeModelSpec(FeatureMap("linear"), FeatureMap("quadratic")),
            FeatureMap("quadratic"))


def _fixture(rng):
    out, intv, h, *_ = _make_data(rng, noise=0.3)
    return (out, intv, h, OutcomeModelSpec(FeatureMap("quadratic"), FeatureMap("linear")),
            FeatureMap("linear"))


@pytest.mark.parametrize("make", [_fixture, _lab_replication])
def test_fit_matches_the_stacked_block_formula(rng, make):
    out, intv, h, spec, prop_basis = make(rng)
    fit = fit_a(out, intv, h, spec, prop_basis=prop_basis)
    theta, cov = _block_formula_fit(out, intv, h, spec, fit.gamma_fit.fitted,
                                    prop_basis.expand(intv.x), fit.gamma_fit.cov_gamma)
    assert np.max(np.abs(fit.theta - theta)) <= 1e-13 * np.max(np.abs(theta))
    assert np.max(np.abs(fit.cov_theta - cov)) <= 1e-12 * np.max(np.abs(cov))


def test_public_wrappers_reproduce_the_fit(rng):
    out, intv, h, *_ = _make_data(rng, noise=0.3)
    prop_basis = FeatureMap("linear")
    fit = fit_a(out, intv, h, LIN, prop_basis=prop_basis)
    e = fit.gamma_fit.fitted
    abar, abar_hat = h.exposure(intv.a), h.exposure(e)
    m, _ = a_system(out, h, abar, abar_hat, LIN)
    cov, omega_phi, omega_gamma, _ = a_covariance(
        out, h, abar, abar_hat, LIN, fit.alpha, fit.beta, m, e=e,
        prop_basis_matrix=prop_basis.expand(intv.x), cov_gamma=fit.gamma_fit.cov_gamma)
    assert np.array_equal(cov, fit.cov_theta)
    assert np.array_equal(omega_phi, fit.omega_phi)
    assert np.array_equal(omega_gamma, fit.omega_gamma)


@pytest.mark.parametrize("known_propensities", [True, False])
def test_one_fit_expands_each_basis_once_and_factors_once(rng, monkeypatch,
                                                          known_propensities):
    out, intv, h, *_ = _make_data(rng, noise=0.3)
    spec = OutcomeModelSpec(basis_f0=FeatureMap("quadratic"), basis_fa=FeatureMap("linear"))
    k = spec.basis_f0.dim(out.p) + spec.basis_fa.dim(out.p)
    expanded, factored = [], []
    expand = FeatureMap.expand

    def counted_expand(self, x):
        expanded.append(self)
        return expand(self, x)

    def counting(name, fn):
        def counted(a, *args, **kwargs):
            if np.shape(a) == (k, k):  # the propensity Hessian has another shape
                factored.append(name)
            return fn(a, *args, **kwargs)
        return counted

    monkeypatch.setattr(FeatureMap, "expand", counted_expand)
    for name in ("svd", "solve", "inv", "cond"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    if known_propensities:
        fit_a(out, intv, h, spec, propensities=np.full(intv.j, 0.4))
    else:
        fit_a(out, intv, h, spec, prop_basis=FeatureMap("linear"))
    assert sum(b is spec.basis_f0 for b in expanded) == 1
    assert sum(b is spec.basis_fa for b in expanded) == 1
    assert factored == ["svd"]


def test_an_ill_conditioned_system_warns_at_the_line_that_asked_for_it(rng, monkeypatch):
    # not at numpy's errstate wrapper, nor inside this package's fits
    out, intv, h, *_ = _make_data(rng, noise=0.3)
    monkeypatch.setattr(alearn, "COND_WARN", 0.0)
    with pytest.warns(RuntimeWarning, match="ill-conditioned") as record:
        fit = fit_a(out, intv, h, LIN, prop_basis=FeatureMap("linear"))
    assert [w.filename for w in record] == [__file__]
    abar = h.exposure(intv.a)
    abar_hat = h.exposure(fit.gamma_fit.fitted)
    m, _ = a_system(out, h, abar, abar_hat, LIN)
    with pytest.warns(RuntimeWarning, match="ill-conditioned") as record:
        a_covariance(out, h, abar, abar_hat, LIN, fit.alpha, fit.beta, m)
    assert [w.filename for w in record] == [__file__]
