import ast
import pathlib
import re

import numpy as np
import pytest
from scipy.special import ndtr, ndtri
from scipy.stats import norm

import bnpolicy
from bnpolicy import (DataValidationError, EstimationError, FeatureMap, InterferenceMap,
                      OutcomeTable, PreparedData, benefit_cost, effect_table, policy_count,
                      total_effects)

FA = FeatureMap("linear")


def _out(n, p=0, rng=None):
    x = np.zeros((n, p)) if rng is None else rng.standard_normal((n, p))
    return OutcomeTable(x=x, y=np.zeros(n))


def test_total_effects_hand_example():
    h = InterferenceMap(np.array([[1.0, 2.0], [3.0, 4.0]]))
    te = total_effects(PreparedData(_out(2), h=h), np.array([-1.0]), FA)
    assert np.allclose(te, [-2.0, -3.0])


def test_total_effects_zero_beta_and_scaling(rng):
    h = InterferenceMap(rng.random((6, 3)))
    out = _out(6, p=2, rng=rng)
    beta = rng.uniform(-1, 1, 3)
    assert np.array_equal(total_effects(PreparedData(out, h=h), np.zeros(3), FA), np.zeros(3))
    assert np.allclose(total_effects(PreparedData(out, h=h), 4.0 * beta, FA),
                       4.0 * total_effects(PreparedData(out, h=h), beta, FA))


def test_total_effects_brute_force_oracle(rng):
    for _ in range(12):
        n = int(rng.integers(5, 40))
        j = int(rng.integers(2, 10))
        p = int(rng.integers(1, 4))
        h = InterferenceMap(rng.random((n, j)))
        out = _out(n, p=p, rng=rng)
        beta = rng.uniform(-2, 2, p + 1)
        te = total_effects(PreparedData(out, h=h), beta, FA)
        fa_vals = FA.expand(out.x) @ beta
        brute = np.zeros(j)
        for jj in range(j):
            for i in range(n):
                brute[jj] += h.h[i, jj] * fa_vals[i]
        brute /= j
        assert np.max(np.abs(te - brute)) <= 1e-12


def test_effect_weights_reject_an_outcome_table_of_another_size(rng):
    h = InterferenceMap(rng.random((4, 3)))
    with pytest.raises(DataValidationError,
                       match="interference map has 4 rows but the outcome table has 5"):
        PreparedData(_out(5, p=1, rng=rng), h=h)


def test_the_effect_functions_need_the_map(rng):
    out = OutcomeTable(x=np.zeros((4, 0)), y=np.zeros(4), person_years=np.ones(4))
    data = PreparedData(out, abar=np.zeros(4))
    for call in (lambda: total_effects(data, np.zeros(1), FA),
                 lambda: effect_table(data, np.zeros(1), np.eye(1), FA),
                 lambda: policy_count(np.zeros(3), data, np.zeros(1), FA)):
        with pytest.raises(DataValidationError, match="^the effects need the interference map"):
            call()


@pytest.mark.parametrize("beta, cov, message", [
    (np.zeros(3), np.eye(5), r"beta must have shape \(5,\)"),
    (np.zeros((5, 1)), np.eye(5), r"beta must have shape \(5,\)"),
    (np.zeros(5), np.eye(3), r"cov_beta must have shape \(5, 5\)"),
])
def test_effect_table_checks_beta_and_its_covariance_against_the_basis(rng, beta, cov,
                                                                       message):
    h = InterferenceMap(rng.random((6, 3)))
    with pytest.raises(DataValidationError, match=message):
        effect_table(PreparedData(_out(6, p=4, rng=rng), h=h), beta, cov, FA)


def test_effect_se_closed_form(rng):
    # intercept-only effect basis with identity covariance: se_j = s * c_j
    h = InterferenceMap(rng.random((5, 3)))
    s = 0.37
    se = effect_table(PreparedData(_out(5), h=h), np.array([1.0]), np.array([[s**2]]), FA).se
    expected = s * h.h.sum(axis=0) / h.j
    assert np.allclose(se, expected)


def test_zero_effect_gives_half_p(rng):
    h = InterferenceMap(rng.random((4, 2)))
    out = _out(4)
    table = effect_table(PreparedData(out, h=h), np.array([0.0]), np.array([[0.5]]), FA)
    assert np.array_equal(table.total_effect, np.zeros(2))
    assert np.allclose(table.p_one_sided, 0.5)
    assert np.all(table.ci_low <= table.total_effect)
    assert np.all(table.total_effect <= table.ci_high)


def test_p_values_monotone_in_standardized_effect(rng):
    h = InterferenceMap(rng.random((30, 8)) + 0.05)
    out = _out(30, p=1, rng=rng)
    table = effect_table(PreparedData(out, h=h), rng.uniform(-1, 1, 2), 0.01 * np.eye(2), FA)
    z = table.total_effect / table.se
    order = np.argsort(z)
    assert np.all(np.diff(table.p_one_sided[order]) >= 0)


def test_se_invariant_to_outcome_permutation(rng):
    h_mat = rng.random((10, 4))
    x = rng.standard_normal((10, 2))
    perm = rng.permutation(10)
    out1 = OutcomeTable(x=x, y=np.zeros(10))
    out2 = OutcomeTable(x=x[perm], y=np.zeros(10))
    cov = rng.random((3, 3))
    cov = cov @ cov.T
    beta = rng.uniform(-1, 1, 3)
    se1 = effect_table(PreparedData(out1, h=InterferenceMap(h_mat)), beta, cov, FA).se
    se2 = effect_table(PreparedData(out2, h=InterferenceMap(h_mat[perm])), beta, cov, FA).se
    assert np.allclose(se1, se2)


def test_structural_zero_column_flagged():
    h = InterferenceMap(np.array([[1.0, 0.0], [2.0, 0.0]]))
    table = effect_table(PreparedData(_out(2), h=h), np.array([-1.0]), np.array([[0.1]]), FA)
    assert table.total_effect[1] == 0.0
    assert table.structural_zero.tolist() == [False, True]


def test_non_psd_covariance_rejected(rng):
    h = InterferenceMap(rng.random((4, 2)))
    out = _out(4)
    with pytest.raises(EstimationError, match="not positive semidefinite"):
        effect_table(PreparedData(out, h=h), np.array([-1.0]), np.array([[-1.0]]), FA)


@pytest.mark.parametrize("beta, cov", [([1e308], [[0.1]]), ([-1.0], [[1e308]])])
def test_an_overflowing_effect_or_se_is_rejected(beta, cov):
    h = InterferenceMap(np.array([[4.0, 1.0], [3.0, 0.0]]))
    with pytest.raises(EstimationError, match="overflows to a non-finite value"):
        effect_table(PreparedData(_out(2), h=h), np.array(beta), np.array(cov), FA)


def test_benefit_cost_examples():
    assert np.allclose(benefit_cost([-2.0, -3.0], [1.0, 4.0]), [-2.0, -0.75])
    te = np.array([-1.5, 2.0, 0.0])
    assert np.allclose(benefit_cost(te, np.ones(3)), te)
    assert benefit_cost(np.array([0.0]), np.array([9.0]))[0] == 0.0
    flagged = benefit_cost(np.array([-1.0, -2.0]), np.array([0.0, 2.0]))
    assert np.isnan(flagged[0]) and flagged[1] == -1.0


def test_ndtr_ndtri_bitwise_equal_scipy_stats_norm():
    probs = np.concatenate([[0.0, 0.5, 1.0, 0.975, 0.025, 1e-300, 1.0 - 1e-16,
                             -0.5, 1.5, np.nan],
                            np.linspace(0.0, 1.0, 1001), np.logspace(-300, -1, 300)])
    zs = np.concatenate([[0.0, -0.0, np.inf, -np.inf, np.nan, 38.5, -38.5, 1e300],
                         np.linspace(-40.0, 40.0, 2001)])
    for got, want in ((ndtri(probs), norm.ppf(probs)), (ndtr(zs), norm.cdf(zs))):
        # NaN positions match; ndtri(NaN) carries the sign bit, so the
        # bitwise comparison covers every other entry
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan) and nan.sum() >= 1
        assert got[~nan].tobytes() == want[~nan].tobytes()


# an outcome basis expanded by hand: outside ``PreparedData.outcome_basis``,
# which expands each basis kind once for every fit and effect on the bundle,
# a fit or an effect would rebuild a matrix that the prepared data owns
OUTCOME_EXPANSION = re.compile(r"\bbasis_f(0|a)\.expand\(|\.expand\((self\.)?out\.x\b")


def test_only_the_prepared_data_expands_the_outcome_bases():
    # the fits' design and the effect basis both read the prepared data's one expansion
    src = pathlib.Path(bnpolicy.__file__).parent
    owners = set()
    for path in sorted(src.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        functions = [node for node in ast.walk(ast.parse(text))
                     if isinstance(node, ast.FunctionDef)]
        for k, line in enumerate(text.splitlines(), 1):
            if OUTCOME_EXPANSION.search(line):
                inner = max((f for f in functions if f.lineno <= k <= f.end_lineno),
                            key=lambda f: f.lineno, default=None)
                owners.add(f"{path.stem}.{inner.name if inner else '<module>'}")
    assert sorted(owners) == ["prepared.outcome_basis"]
