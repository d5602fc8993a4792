import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from bnpolicy import (DataValidationError, FeatureMap, InterferenceMap,
                      OutcomeTable, PreparedData, budget_sweep, knapsack_policy, policy_count,
                      te_ranked_policy, truncate_fractional, unconstrained_policy)


def lp_knapsack_optimum(te, cost, budget):
    """Enumeration oracle: best value over all subsets plus one fractional item.

    The continuous relaxation has at most one fractional coordinate, so
    this search covers every vertex of its feasible region.
    """
    te = np.asarray(te, dtype=float)
    cost = np.asarray(cost, dtype=float)
    cand = np.flatnonzero(te < 0)
    best = 0.0
    for r in range(len(cand) + 1):
        for subset in itertools.combinations(cand, r):
            c_used = float(cost[list(subset)].sum()) if subset else 0.0
            if c_used > budget * (1 + 1e-12):
                continue
            value = float(te[list(subset)].sum()) if subset else 0.0
            best = min(best, value)
            rest = budget - c_used
            for j in cand:
                if j in subset or rest <= 0:
                    continue
                frac = min(1.0, rest / cost[j])
                best = min(best, value + frac * float(te[j]))
    return best


def test_unconstrained_examples():
    sol = unconstrained_policy(np.array([-2.0, 3.0, 0.0]), 10)
    assert sol.pi.tolist() == [1.0, 0.0, 0.0]
    assert sol.value_rate == pytest.approx(-0.2)
    sol2 = unconstrained_policy(np.array([-1.0, -2.0]), 4)
    assert sol2.pi.tolist() == [1.0, 1.0]


def test_knapsack_hand_example():
    sol = knapsack_policy(np.array([-2.0, -3.0]), np.array([1.0, 4.0]), 2.0, 2)
    assert sol.pi.tolist() == [1.0, 0.25]
    assert sol.spent == pytest.approx(2.0)
    assert sol.value_rate == pytest.approx(-1.375)
    assert sol.method == "bc_greedy"


def test_knapsack_slack_budget_equals_unconstrained(rng):
    te = rng.uniform(-3, 1, 8)
    cost = rng.uniform(0.5, 2.0, 8)
    total = float(cost.sum())
    sol = knapsack_policy(te, cost, total + 1.0, 8)
    assert np.array_equal(sol.pi, unconstrained_policy(te, 8).pi)


def test_knapsack_zero_budget():
    sol = knapsack_policy(np.array([-1.0, -2.0]), np.array([1.0, 1.0]), 0.0, 2)
    assert np.array_equal(sol.pi, np.zeros(2))
    assert sol.value_rate == 0.0


def test_te_ranked_hand_example():
    sol = te_ranked_policy(np.array([-2.0, -3.0]), np.array([1.0, 4.0]), 2.0, 2)
    assert sol.pi.tolist() == [0.0, 0.5]
    assert sol.value_rate == pytest.approx(-0.75)


def test_te_ranked_equals_knapsack_for_equal_costs(rng):
    te = rng.uniform(-2, 0.5, 10)
    cost = np.full(10, 1.3)
    budget = 4.0
    bc = knapsack_policy(te, cost, budget, 10)
    tr = te_ranked_policy(te, cost, budget, 10)
    assert np.array_equal(bc.pi, tr.pi)


def test_nonpositive_candidate_cost_rejected():
    with pytest.raises(DataValidationError):
        knapsack_policy(np.array([-1.0]), np.array([0.0]), 1.0, 1)
    with pytest.raises(DataValidationError):
        knapsack_policy(np.array([-1.0]), np.array([1.0]), -0.5, 1)


GREEDY = [knapsack_policy, te_ranked_policy]


@pytest.mark.parametrize("policy", GREEDY)
@pytest.mark.parametrize("cost", [[1.0, np.nan], [np.nan, 1.0], [1.0, np.inf]])
def test_greedy_rejects_a_cost_that_is_not_finite(policy, cost):
    with pytest.raises(DataValidationError, match="costs must be finite"):
        policy(np.array([-1.0, 0.5]), np.array(cost), 1.0, 2)


# total effects that no policy takes, and the message each gives
BAD_EFFECTS = [([np.nan, -1.0], "total effects must be finite"),
               ([[-1.0], [0.5]], r"must be a 1-d array, got shape \(2, 1\)"),
               (-1.0, r"must be a 1-d array, got shape \(\)")]


@pytest.mark.parametrize("policy", GREEDY)
@pytest.mark.parametrize("te, message", BAD_EFFECTS, ids=["nan", "column", "scalar"])
def test_greedy_rejects_effects_that_are_not_a_finite_vector(policy, te, message):
    with pytest.raises(DataValidationError, match=message):
        policy(np.array(te), np.ones(2), 1.0, 2)


@pytest.mark.parametrize("policy", GREEDY)
@pytest.mark.parametrize("budget", [np.inf, np.nan])
def test_greedy_rejects_a_budget_that_is_not_finite(policy, budget):
    with pytest.raises(DataValidationError, match="budget must be finite"):
        policy(np.array([-1.0, -2.0]), np.ones(2), budget, 2)


@pytest.mark.parametrize("te, cost, message", [
    ([-1.0, 0.5, -0.2], np.ones(2), "equal length"),
    *[(te, None, message) for te, message in BAD_EFFECTS[1:]],
], ids=["cost-length", "column", "scalar"])
def test_unconstrained_policy_checks_the_effect_and_cost_shapes(te, cost, message):
    with pytest.raises(DataValidationError, match=message):
        unconstrained_policy(np.array(te), 10, cost=cost)


@pytest.mark.parametrize("te, cost, message", [
    ([-1.0, -2.0], [np.nan, 1.0], "costs must be finite"),
    ([-1.0, -2.0], [1.0, 1.0, 1.0], "equal length"),
    ([-1.0, -2.0, -0.5], [1.0, 1.0, 1.0],
     r"the allocation has shape \(2,\), not \(3,\)"),
], ids=["cost-nan", "cost-length", "allocation-length"])
def test_truncate_fractional_checks_its_inputs(te, cost, message):
    sol = knapsack_policy(np.array([-1.0, -2.0]), np.ones(2), 1.5, 2)
    with pytest.raises(DataValidationError, match=message):
        truncate_fractional(sol, np.array(te), np.array(cost), 3)


def _count_context(rng, n=6, j=3, p=1):
    """(data, beta, basis): the bundle of a dense map and outcomes with person-years,
    and a linear effect."""
    h = InterferenceMap(rng.random((n, j)) + 0.1)
    out = OutcomeTable(x=rng.standard_normal((n, p)), y=np.zeros(n),
                       person_years=rng.uniform(1000, 9000, n))
    return PreparedData(out, h=h), rng.uniform(-0.5, 0.2, p + 1), FeatureMap("linear")


@pytest.mark.parametrize("pi", [[np.nan, 1.0, 0.0], [np.inf, 0.0, 0.0]])
def test_policy_value_rejects_an_allocation_that_is_not_finite(rng, pi):
    with pytest.raises(DataValidationError, match="allocations must be finite"):
        policy_count(np.array(pi), *_count_context(rng))


def test_policy_count_rejects_a_beta_of_another_length(rng):
    data, _, fa = _count_context(rng, p=4)  # a 5-column effect basis
    with pytest.raises(DataValidationError, match=r"beta must have shape \(5,\)"):
        policy_count(np.ones(3), data, np.zeros(3), fa)


def test_policy_count_checks_the_allocation_shape(rng):
    data, beta, fa = _count_context(rng)
    for pi in (np.ones(2), np.ones((3, 1))):
        with pytest.raises(DataValidationError, match=r"pi must have shape \(3,\)"):
            policy_count(pi, data, beta, fa)


@pytest.mark.parametrize("n_out", [0, -3, 2.5, True, None])
def test_every_policy_entry_point_needs_a_positive_integer_n_out(n_out):
    te, cost = np.array([-1.0, -0.5]), np.ones(2)
    sol = knapsack_policy(te, cost, 1.5, 2)
    calls = [lambda: unconstrained_policy(te, n_out, cost=cost),
             lambda: knapsack_policy(te, cost, 1.0, n_out),
             lambda: te_ranked_policy(te, cost, 1.0, n_out),
             lambda: truncate_fractional(sol, te, cost, n_out),
             lambda: budget_sweep(te, cost, [0.5], n_out)]
    for call in calls:
        with pytest.raises(DataValidationError,
                           match=f"n_out must be a positive integer, got {n_out!r}"):
            call()


def test_positive_effect_units_never_treated(rng):
    for _ in range(20):
        te = rng.uniform(-1, 1, 12)
        cost = rng.uniform(0.1, 2, 12)
        sol = knapsack_policy(te, cost, float(cost.sum()) * 0.5, 12)
        assert np.all(sol.pi[te >= 0] == 0.0)


def test_enumeration_oracle_small_instances(rng):
    for _ in range(60):
        j = int(rng.integers(2, 9))
        te = np.round(rng.uniform(-3, 1, j), 3)
        cost = np.round(rng.uniform(0.2, 2.0, j), 3)
        budget = float(rng.uniform(0, cost.sum()))
        sol = knapsack_policy(te, cost, budget, j)
        assert sol.value_rate * j <= lp_knapsack_optimum(te, cost, budget) + 1e-9
        assert sol.spent <= budget * (1 + 1e-9)


def test_dominance_over_te_ranking(rng):
    for _ in range(50):
        j = int(rng.integers(2, 60))
        te = rng.uniform(-5, 1, j)
        cost = rng.uniform(0.1, 3.0, j)
        budget = float(rng.uniform(0, cost.sum()))
        bc = knapsack_policy(te, cost, budget, j)
        tr = te_ranked_policy(te, cost, budget, j)
        assert bc.value_rate <= tr.value_rate + 1e-12


def test_at_most_one_fractional_coordinate(rng):
    for _ in range(30):
        j = int(rng.integers(2, 30))
        te = rng.uniform(-5, 1, j)
        cost = rng.uniform(0.1, 3.0, j)
        budget = float(rng.uniform(0, cost.sum()))
        sol = knapsack_policy(te, cost, budget, j)
        frac = (sol.pi > 0) & (sol.pi < 1)
        assert frac.sum() <= 1


def test_cost_scaling_leaves_allocation_unchanged(rng):
    # power-of-two scales are exact in IEEE arithmetic: fully bitwise
    for k in (2.0, 0.5, 4.0):
        te = rng.uniform(-4, 0.5, 15)
        cost = rng.uniform(0.2, 2.0, 15)
        budget = float(cost.sum()) * 0.4
        base = knapsack_policy(te, cost, budget, 15)
        scaled = knapsack_policy(te, k * cost, k * budget, 15)
        assert np.array_equal(base.pi, scaled.pi)
    # arbitrary scales: identical selection pattern, fraction equal to rounding
    for k in (3.0, 7.5):
        te = rng.uniform(-4, 0.5, 15)
        cost = rng.uniform(0.2, 2.0, 15)
        budget = float(cost.sum()) * 0.4
        base = knapsack_policy(te, cost, budget, 15)
        scaled = knapsack_policy(te, k * cost, k * budget, 15)
        whole = (base.pi == 0.0) | (base.pi == 1.0)
        assert np.array_equal(base.pi[whole], scaled.pi[whole])
        assert np.allclose(base.pi[~whole], scaled.pi[~whole], rtol=1e-12, atol=0)


def _knapsack_instances():
    # effects and costs on a 1e-3 grid keep every objective coefficient and
    # reduced cost above the LP solver's feasibility tolerances
    te = st.integers(-5000, 2000).map(lambda k: k / 1000)
    cost = st.integers(100, 3000).map(lambda k: k / 1000)
    return st.integers(1, 12).flatmap(lambda j: st.tuples(
        st.lists(te, min_size=j, max_size=j), st.lists(cost, min_size=j, max_size=j),
        st.floats(0.0, 1.2)))


@settings(max_examples=80, deadline=None)
@given(_knapsack_instances())
def test_knapsack_attains_the_lp_optimum(instance):
    te, cost, frac = (np.asarray(v, dtype=float) for v in instance)
    budget = float(frac * cost.sum())
    lp = linprog(te, A_ub=cost[None, :], b_ub=[budget], bounds=(0.0, 1.0), method="highs",
                 options={"primal_feasibility_tolerance": 1e-10,
                          "dual_feasibility_tolerance": 1e-10})
    assert lp.status == 0
    tol = 1e-9 * abs(lp.fun) + 1e-12
    sol = knapsack_policy(te, cost, budget, te.shape[0])
    assert abs(float(te @ sol.pi) - lp.fun) <= tol
    cut = truncate_fractional(sol, te, cost, te.shape[0])
    assert float(te @ cut.pi) >= lp.fun - tol


def test_truncate_fractional():
    te = np.array([-2.0, -3.0])
    cost = np.array([1.0, 4.0])
    sol = knapsack_policy(te, cost, 2.0, 2)
    cut = truncate_fractional(sol, te, cost, 2)
    assert cut.pi.tolist() == [1.0, 0.0]
    assert cut.spent == pytest.approx(1.0)
    assert cut.method.endswith("_integral")


def test_policy_value_basics(rng):
    data, beta, fa = _count_context(rng)
    assert policy_count(np.zeros(3), data, beta, fa) == 0.0
    pi = rng.uniform(0, 1, 3)
    full = policy_count(pi, data, beta, fa)
    assert policy_count(0.5 * pi, data, beta, fa) == pytest.approx(0.5 * full)
    bare = OutcomeTable(x=data.out.x, y=data.out.y)
    with pytest.raises(DataValidationError, match="needs person_years"):
        policy_count(pi, PreparedData(bare, h=data.h), beta, fa)


def test_policy_value_checks_the_map_rows(rng):
    x = rng.standard_normal((20, 2))
    out = OutcomeTable(x=x, y=np.zeros(20), person_years=np.full(20, 1000.0))
    h = InterferenceMap(rng.random((21, 4)))  # 21 rows for 20 outcomes
    with pytest.raises(DataValidationError,
                       match="interference map has 21 rows but the outcome table has 20"):
        policy_count(np.ones(4), PreparedData(out, h=h), np.zeros(3), FeatureMap("linear"))


def test_policy_value_count_scale(rng):
    n, j = 6, 3
    h = InterferenceMap(rng.random((n, j)) + 0.1)
    x = rng.standard_normal((n, 1))
    py = rng.uniform(1000, 9000, n)
    out = OutcomeTable(x=x, y=np.zeros(n), person_years=py)
    fa = FeatureMap("linear")
    beta = np.array([-0.5, 0.2])
    pi = np.array([1.0, 0.0, 0.5])
    count = policy_count(pi, PreparedData(out, h=h), beta, fa)
    delta = (h.h @ pi / j) * (fa.expand(x) @ beta)
    assert count == pytest.approx(float(delta @ py / 1e4))


def test_budget_sweep_shape_and_dominance(rng):
    te = rng.uniform(-3, 0.5, 12)
    cost = rng.uniform(0.2, 2.0, 12)
    fractions = [round(0.1 * k, 1) for k in range(1, 10)]
    pairs = budget_sweep(te, cost, fractions, 12)
    assert len(pairs) == 9
    values = []
    for bc_sol, te_sol in pairs:
        assert bc_sol.value_rate <= te_sol.value_rate + 1e-12
        values.append(bc_sol.value_rate)
    # more budget never hurts
    assert np.all(np.diff(values) <= 1e-12)
    full = budget_sweep(te, cost, [1.0], 12)[0]
    assert full[0].value_rate == pytest.approx(
        unconstrained_policy(te, 12).value_rate)


def test_budget_sweep_validation():
    with pytest.raises(DataValidationError):
        budget_sweep(np.array([-1.0]), np.array([1.0]), [0.5, 0.2], 1)
    with pytest.raises(DataValidationError):
        budget_sweep(np.array([-1.0]), np.array([1.0]), [0.0, 0.5], 1)
