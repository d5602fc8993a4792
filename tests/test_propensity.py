import numpy as np
import pytest

from bnpolicy import (DataValidationError, EstimationError, FeatureMap,
                      InterferenceMap, InterventionTable, apply_trim,
                      calibrate_propensity_intercept, fit_propensity,
                      trim_by_propensity)
from bnpolicy.propensity import logistic


def _intercept_only_fit(a):
    x = np.zeros((a.shape[0], 0))
    return fit_propensity(x, a, FeatureMap("linear"))


def test_intercept_only_balanced():
    fit = _intercept_only_fit(np.array([1.0] * 5 + [0.0] * 5))
    assert abs(fit.gamma[0]) <= 1e-9
    assert np.allclose(fit.fitted, 0.5)
    assert fit.converged


def test_intercept_only_closed_form_mle():
    fit = _intercept_only_fit(np.array([1.0] * 2 + [0.0] * 8))
    assert abs(fit.gamma[0] - np.log(0.2 / 0.8)) <= 1e-8


def test_score_norm_at_convergence(rng):
    x = rng.standard_normal((200, 3))
    basis = FeatureMap("linear")
    gamma0 = np.array([-0.5, 0.8, -0.3, 0.2])
    a = (rng.random(200) < logistic(basis.expand(x) @ gamma0)).astype(float)
    fit = fit_propensity(x, a, basis)
    b = basis.expand(x)
    score = b.T @ (a - fit.fitted) / 200
    assert np.max(np.abs(score)) <= 1e-8
    assert np.allclose(fit.fitted, logistic(b @ fit.gamma))


def test_synthetic_recovery_within_three_se():
    basis = FeatureMap("linear")
    gamma0 = np.array([-1.2, 0.6, -0.4])
    hits = 0
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        x = rng.standard_normal((2000, 2))
        e = logistic(basis.expand(x) @ gamma0)
        a = (rng.random(2000) < e).astype(float)
        fit = fit_propensity(x, a, basis)
        se = fit.standard_errors()
        hits += int(np.all(np.abs(fit.gamma - gamma0) <= 3 * se))
    assert hits >= 9


def test_sandwich_close_to_fisher_information_when_correct():
    rng = np.random.default_rng(7)
    basis = FeatureMap("linear")
    gamma0 = np.array([-0.8, 0.5])
    x = rng.standard_normal((5000, 1))
    b = basis.expand(x)
    a = (rng.random(5000) < logistic(b @ gamma0)).astype(float)
    fit = fit_propensity(x, a, basis)
    w = fit.fitted * (1 - fit.fitted)
    fisher = (b * w[:, None]).T @ b / 5000
    fisher_inv = np.linalg.inv(fisher)
    rel = np.linalg.norm(fit.cov_gamma - fisher_inv) / np.linalg.norm(fisher_inv)
    assert rel <= 0.10


def test_separation_is_flagged_not_fatal():
    x = np.linspace(-5, 5, 12).reshape(-1, 1)
    a = (x[:, 0] > 0).astype(float)
    fit = fit_propensity(x, a, FeatureMap("linear"))
    assert fit.separation_flag


def test_degenerate_treatments_rejected():
    x = np.zeros((6, 1))
    with pytest.raises(EstimationError):
        fit_propensity(x, np.ones(6), FeatureMap("linear"))
    with pytest.raises(EstimationError):
        fit_propensity(x, np.zeros(6), FeatureMap("linear"))


def test_nonbinary_treatments_rejected():
    with pytest.raises(DataValidationError):
        fit_propensity(np.zeros((4, 1)), np.array([0.0, 1.0, 0.5, 0.0]),
                       FeatureMap("linear"))


class _FakeFit:
    def __init__(self, fitted):
        self.fitted = np.asarray(fitted, dtype=float)


def test_trim_interpolated_threshold():
    fit = _FakeFit(np.arange(0.1, 1.01, 0.1))
    report = trim_by_propensity(fit, 0.05)
    assert abs(report.threshold - 0.145) <= 1e-12
    assert report.dropped.tolist() == [0]
    assert report.kept.tolist() == list(range(1, 10))


def test_trim_degenerate_distribution_drops_nothing():
    fit = _FakeFit(np.full(8, 0.3))
    report = trim_by_propensity(fit, 0.05)
    assert report.dropped.size == 0
    assert report.kept.size == 8


def test_trim_quantile_zero_is_identity():
    fit = _FakeFit(np.array([0.2, 0.4, 0.9]))
    first = trim_by_propensity(fit, 0.3)
    again = trim_by_propensity(_FakeFit(fit.fitted[first.kept]), 0.0)
    assert again.dropped.size == 0


def test_trim_quantile_out_of_range():
    with pytest.raises(DataValidationError):
        trim_by_propensity(_FakeFit(np.array([0.5, 0.6])), 1.0)


def test_apply_trim_subsets_consistently(rng):
    h = InterferenceMap(rng.random((5, 4)) + 0.01)
    intv = InterventionTable(x=rng.random((4, 2)),
                             a=np.array([0.0, 1.0, 0.0, 1.0]),
                             cost=np.array([1.0, 2.0, 3.0, 4.0]))
    fit = _FakeFit(np.array([0.05, 0.5, 0.6, 0.7]))
    report = trim_by_propensity(fit, 0.3)
    h2, intv2 = apply_trim(h, intv, report)
    assert h2.j == intv2.j == report.kept.size
    assert np.array_equal(h2.h, h.h[:, report.kept])
    assert np.array_equal(intv2.cost, intv.cost[report.kept])


def test_calibrate_zero_slopes_closed_form():
    x = np.zeros((40, 2))
    c = calibrate_propensity_intercept(x, FeatureMap("quadratic"), np.zeros(4),
                                       0.19, 0.01)
    assert abs(c - np.log(0.19 / 0.81)) <= 1e-6
    achieved = float(np.mean(logistic(np.full(40, c))))
    assert abs(achieved - 0.19) <= 1e-9


def test_calibrate_symmetric_case_gives_zero_intercept():
    x = np.concatenate([np.linspace(0.2, 2.0, 10), -np.linspace(0.2, 2.0, 10)])
    c = calibrate_propensity_intercept(x.reshape(-1, 1), FeatureMap("linear"),
                                       np.array([0.7]), 0.5, 1e-6)
    assert abs(c) <= 1e-6


def test_calibrate_tight_tolerance(rng):
    x = rng.standard_normal((60, 2))
    slopes = rng.uniform(-0.5, 0.5, 4)
    basis = FeatureMap("quadratic")
    c = calibrate_propensity_intercept(x, basis, slopes, 0.3, 1e-6)
    achieved = float(np.mean(logistic(c + basis.expand(x)[:, 1:] @ slopes)))
    assert abs(achieved - 0.3) <= 1e-6
    # achieved mean is nondecreasing in the intercept
    up = float(np.mean(logistic(c + 1e-3 + basis.expand(x)[:, 1:] @ slopes)))
    dn = float(np.mean(logistic(c - 1e-3 + basis.expand(x)[:, 1:] @ slopes)))
    assert dn <= achieved <= up


@pytest.mark.parametrize("target", [0.001, 0.999])
def test_calibrate_widens_the_bracket_for_an_extreme_target(rng, target):
    x = rng.standard_normal((60, 2))
    slopes = rng.uniform(-0.5, 0.5, 2)
    tol = 1e-6
    c = calibrate_propensity_intercept(x, FeatureMap("linear"), slopes, target, tol)
    assert abs(c) > 2.0  # outside the starting bracket [-2, 2]
    achieved = float(np.mean(logistic(c + x @ slopes)))
    assert abs(achieved - target) <= tol


def test_calibrate_rejects_bad_targets():
    with pytest.raises(DataValidationError):
        calibrate_propensity_intercept(np.zeros((5, 1)), FeatureMap("linear"),
                                       np.zeros(1), 1.5, 0.01)
    with pytest.raises(DataValidationError):
        calibrate_propensity_intercept(np.zeros((5, 1)), FeatureMap("linear"),
                                       np.zeros(1), 0.5, 0.0)
