import warnings

import numpy as np
import pytest

from bnpolicy import (DataValidationError, EstimationError, FeatureMap, InterferenceMap,
                      InterventionTable, OutcomeModelSpec, OutcomeTable, PreparedData,
                      RankDeficiencyError, fit_a, fit_q)
from bnpolicy.qlearn import OutcomeFit
from oracles import q_design, q_score_norm

LIN = OutcomeModelSpec(basis_f0=FeatureMap("linear"), basis_fa=FeatureMap("linear"))


def _noiseless(rng, n=200, p=2):
    x = rng.standard_normal((n, p))
    abar = rng.uniform(0, 1, n)
    alpha0 = rng.uniform(-1, 1, p + 1)
    beta0 = rng.uniform(-1, 1, p + 1)
    y = LIN.basis_f0.expand(x) @ alpha0 + abar * (LIN.basis_fa.expand(x) @ beta0)
    return OutcomeTable(x=x, y=y), abar, alpha0, beta0


def test_noiseless_exact_recovery(rng):
    out, abar, alpha0, beta0 = _noiseless(rng)
    fit = fit_q(PreparedData(out, abar=abar), LIN)
    assert np.max(np.abs(fit.alpha - alpha0)) <= 1e-8
    assert np.max(np.abs(fit.beta - beta0)) <= 1e-8
    assert np.max(np.abs(out.y - q_design(out, abar, LIN)[0] @ fit.theta)) <= 1e-10


def test_two_parameter_ols_by_hand():
    # intercept-only bases: regression of y on (1, abar)
    out = OutcomeTable(x=np.zeros((3, 0)), y=np.array([1.0, 2.0, 3.0]))
    abar = np.array([0.0, 1.0, 2.0])
    fit = fit_q(PreparedData(out, abar=abar), LIN)
    assert np.allclose(fit.alpha, [1.0])
    assert np.allclose(fit.beta, [1.0])


def test_zero_exposure_column_is_rank_deficient():
    out = OutcomeTable(x=np.zeros((5, 0)), y=np.arange(5.0))
    with pytest.raises(RankDeficiencyError) as err:
        fit_q(PreparedData(out, abar=np.zeros(5)), LIN)
    assert err.value.column == 1
    assert "treatment" in str(err.value)


def test_duplicate_covariate_is_rank_deficient(rng):
    x1 = rng.standard_normal((50, 1))
    x = np.hstack([x1, x1])
    out = OutcomeTable(x=x, y=rng.standard_normal(50))
    with pytest.raises(RankDeficiencyError):
        fit_q(PreparedData(out, abar=rng.uniform(0, 1, 50)), LIN)


def test_a_column_that_dwarfs_the_rest_is_a_scale_problem_not_a_dependence(rng):
    x = rng.standard_normal((50, 2))
    abar = rng.uniform(0, 1, 50)
    y = rng.standard_normal(50)
    fit_q(PreparedData(OutcomeTable(x=x, y=y), abar=abar), LIN)  # well posed at unit scale
    x[:, 0] *= 1e12
    with pytest.raises(EstimationError, match="baseline column 1 of the design is over "
                                              "1e\\+10 times the scale.*; rescale"):
        fit_q(PreparedData(OutcomeTable(x=x, y=y), abar=abar), LIN)


def test_too_few_rows_rejected(rng):
    out = OutcomeTable(x=rng.standard_normal((3, 2)), y=rng.standard_normal(3))
    with pytest.raises(EstimationError):
        fit_q(PreparedData(out, abar=rng.uniform(0, 1, 3)), LIN)


def test_fit_q_needs_an_exposure(rng):
    out = OutcomeTable(x=rng.standard_normal((20, 1)), y=rng.standard_normal(20))
    intv = InterventionTable(x=rng.standard_normal((4, 1)), a=np.array([1.0, 0.0, 1.0, 0.0]))
    for data in (PreparedData(out), PreparedData(out, intv),
                 PreparedData(out, h=InterferenceMap(np.ones((20, 4))))):
        with pytest.raises(DataValidationError, match="^the exposure needs an abar"):
            fit_q(data, LIN)


def test_normal_equations_residual_bound(rng):
    for _ in range(5):
        x = rng.standard_normal((120, 2))
        abar = rng.uniform(0, 1, 120)
        y = rng.standard_normal(120) * 3
        out = OutcomeTable(x=x, y=y)
        fit = fit_q(PreparedData(out, abar=abar), LIN)
        bound = 1e-8 * 120 * max(1.0, float(np.max(np.abs(y))))
        assert q_score_norm(fit, out, abar) <= bound


def test_predict_decomposition_and_linearity(rng):
    out, abar, *_ = _noiseless(rng, n=80)
    y_noisy = out.y + 0.1 * rng.standard_normal(80)
    out2 = OutcomeTable(x=out.x, y=y_noisy)
    fit = fit_q(PreparedData(out2, abar=abar), LIN)

    def predict(exposure):
        return q_design(out2, exposure, LIN)[0] @ fit.theta

    # zero exposure gives the baseline
    base = predict(np.zeros(80))
    assert np.allclose(base, LIN.basis_f0.expand(out2.x) @ fit.alpha)
    # doubling exposure doubles the treatment contribution
    one = predict(abar) - base
    two = predict(2 * abar) - base
    assert np.max(np.abs(two - 2 * one)) <= 1e-10


def test_bread_matches_finite_differences(rng):
    x = rng.standard_normal((150, 2))
    abar = rng.uniform(0, 1, 150)
    y = rng.standard_normal(150)
    out = OutcomeTable(x=x, y=y)
    fit = fit_q(PreparedData(out, abar=abar), LIN)
    design, _ = q_design(out, abar, LIN)
    n = 150
    bread = design.T @ design / n

    def mean_estimating(theta):
        return design.T @ (y - design @ theta) / n

    theta = fit.theta
    k = theta.shape[0]
    fd = np.zeros((k, k))
    for col in range(k):
        hstep = 1e-6 * max(1.0, abs(theta[col]))
        up = theta.copy(); up[col] += hstep
        dn = theta.copy(); dn[col] -= hstep
        fd[:, col] = (mean_estimating(up) - mean_estimating(dn)) / (2 * hstep)
    # FD of the estimating function is the negative bread
    rel = np.linalg.norm(fd + bread) / np.linalg.norm(bread)
    assert rel <= 1e-5


def test_sandwich_close_to_classical_ols_under_homoskedasticity():
    rng = np.random.default_rng(99)
    n = 5000
    x = rng.standard_normal((n, 2))
    abar = rng.uniform(0, 1, n)
    alpha0 = np.array([0.5, -0.2, 0.1])
    beta0 = np.array([-0.3, 0.2, 0.4])
    sigma = 0.7
    y = (LIN.basis_f0.expand(x) @ alpha0 + abar * (LIN.basis_fa.expand(x) @ beta0)
         + sigma * rng.standard_normal(n))
    out = OutcomeTable(x=x, y=y)
    fit = fit_q(PreparedData(out, abar=abar), LIN)
    design, _ = q_design(out, abar, LIN)
    dof = n - design.shape[1]
    resid = y - design @ fit.theta
    s2 = float(resid @ resid) / dof
    classical = s2 * np.linalg.inv(design.T @ design)
    ratio = fit.standard_errors() / np.sqrt(np.diag(classical))
    assert np.all(np.abs(ratio - 1.0) <= 0.15)


def test_a_negative_variance_gives_a_zero_standard_error_and_no_warning():
    """Rounding can leave a variance just below 0; the fit reports it as a
    standard error of 0, as ``fit`` writes it, not as NaN."""
    fit = OutcomeFit(alpha=np.zeros(1), beta=np.zeros(2), spec=LIN,
                     cov_theta=np.diag([4.0, -1e-18, 0.25]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        se = fit.standard_errors()
    assert se.tolist() == [2.0, 0.0, 0.5]


def test_covariance_equals_normal_equations_sandwich(rng):
    x = rng.standard_normal((300, 2))
    abar = rng.uniform(0, 1, 300)
    y = rng.standard_normal(300) * (1.0 + np.abs(x[:, 0]))
    out = OutcomeTable(x=x, y=y)
    fit = fit_q(PreparedData(out, abar=abar), LIN)
    design, _ = q_design(out, abar, LIN)
    n = design.shape[0]
    resid = y - design @ fit.theta
    bread_inv = np.linalg.inv(design.T @ design / n)
    meat = (design * (resid**2)[:, None]).T @ design / n
    sandwich = bread_inv @ meat @ bread_inv.T / n
    assert np.max(np.abs(fit.cov_theta - sandwich)) <= 1e-10 * np.max(np.abs(sandwich))


@pytest.mark.parametrize("k", [-3, 1, 5])
def test_both_fits_are_equivariant_to_the_scale_of_y(rng, k):
    n, j = 300, 20
    x = rng.standard_normal((n, 2))
    h = InterferenceMap(rng.lognormal(0.0, 0.5, (n, j)))
    intv = InterventionTable(x=rng.standard_normal((j, 2)), a=np.tile([1.0, 0.0], j // 2))
    y = rng.standard_normal(n)
    c = 2.0**k
    out, scaled = OutcomeTable(x=x, y=y), OutcomeTable(x=x, y=c * y)
    q, q_big = (fit_q(PreparedData(o, abar=h.exposure(intv.a)), LIN) for o in (out, scaled))
    a, a_big = (fit_a(o, intv, h, LIN, prop_basis=FeatureMap("linear"))
                for o in (out, scaled))
    assert np.array_equal(q_big.theta, c * q.theta)
    assert np.array_equal(q_big.cov_theta, c * c * q.cov_theta)
    assert np.array_equal(a_big.theta, c * a.theta)
    assert np.array_equal(a_big.cov_theta, c * c * a.cov_theta)
