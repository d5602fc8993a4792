"""Treatment allocation: unconstrained rule, budgeted greedy, sweeps, values.

Only units with strictly negative total effect are ever candidates; a
non-protective unit can only waste budget.  The budgeted solutions are
fractional-knapsack greedies over the continuous relaxation, so at most
one coordinate of the allocation is fractional and the result is optimal
for the relaxed program.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import FeatureMap
from .effects import _effect_basis, benefit_cost
from .errors import DataValidationError, _integer
from .prepared import PreparedData


@dataclass(frozen=True)
class PolicySolution:
    pi: np.ndarray
    spent: float
    budget: float
    value_rate: float
    method: str


def _value_rate(te, pi, n_out) -> float:
    return float(pi @ te / n_out)


def _effects_and_costs(te, cost, n_out):
    """``te`` and ``cost`` as one-dimensional float arrays, each finite, of equal length.

    ``cost`` may be None.  ``n_out``, the number of outcome units that the
    value rate averages over, must be a positive integer.
    """
    _integer(n_out, "n_out")
    te = np.asarray(te, dtype=float)
    if te.ndim != 1:
        raise DataValidationError(f"total effects must be a 1-d array, got shape {te.shape}")
    if not np.all(np.isfinite(te)):
        raise DataValidationError("total effects must be finite")
    if cost is not None:
        cost = np.asarray(cost, dtype=float)
        if te.shape != cost.shape:
            raise DataValidationError("total effects and costs must have equal length")
        if not np.all(np.isfinite(cost)):
            raise DataValidationError("costs must be finite")
    return te, cost


def unconstrained_policy(te, n_out: int, cost=None) -> PolicySolution:
    """Treat exactly the units with strictly negative total effect."""
    te, cost = _effects_and_costs(te, cost, n_out)
    pi = (te < 0).astype(float)
    spent = float(pi @ cost) if cost is not None else 0.0
    return PolicySolution(pi=pi, spent=spent, budget=np.inf,
                          value_rate=_value_rate(te, pi, n_out), method="unconstrained")


def _greedy(te, cost, budget, n_out, order_key, method):
    """The greedy over ``order_key``; ``te`` and ``cost`` come checked."""
    if not 0.0 <= budget < np.inf:
        raise DataValidationError("budget must be finite and nonnegative")
    candidates = np.flatnonzero(te < 0)
    if np.any(cost[candidates] <= 0):
        bad = candidates[cost[candidates] <= 0][0]
        raise DataValidationError(
            f"candidate unit {int(bad)} has nonpositive cost; cannot rank it")
    # ties: lower cost first, then lower index, for deterministic output
    order = sorted(candidates,
                   key=lambda j: (order_key[j], cost[j], j))
    pi = np.zeros(te.shape[0])
    remaining = float(budget)
    for j in order:
        if remaining <= 0.0:
            break
        if cost[j] <= remaining:
            pi[j] = 1.0
            remaining -= float(cost[j])
        else:
            pi[j] = remaining / float(cost[j])
            remaining = 0.0
            break
    spent = float(pi @ cost)
    return PolicySolution(pi=pi, spent=spent, budget=float(budget),
                          value_rate=_value_rate(te, pi, n_out), method=method)


def knapsack_policy(te, cost, budget: float, n_out: int) -> PolicySolution:
    """Budgeted allocation ranked by effect-to-cost ratio (most negative first)."""
    te, cost = _effects_and_costs(te, cost, n_out)
    return _greedy(te, cost, budget, n_out, benefit_cost(te, cost), "bc_greedy")


def te_ranked_policy(te, cost, budget: float, n_out: int) -> PolicySolution:
    """Naive comparator: same greedy, ranked by raw total effect."""
    te, cost = _effects_and_costs(te, cost, n_out)
    return _greedy(te, cost, budget, n_out, te, "te_greedy")


def truncate_fractional(sol: PolicySolution, te, cost, n_out: int) -> PolicySolution:
    """Zero out the fractional coordinate (a fractional unit is physical nonsense).

    Keeps the original budget and reports the lower spend.
    """
    te, cost = _effects_and_costs(te, cost, n_out)
    pi = np.array(sol.pi, dtype=float)
    if pi.shape != te.shape:
        raise DataValidationError(f"the allocation has shape {pi.shape}, not {te.shape}")
    frac = np.flatnonzero((pi > 0.0) & (pi < 1.0))
    pi[frac] = 0.0
    return replace(sol, pi=pi, spent=float(pi @ cost),
                   value_rate=_value_rate(te, pi, n_out), method=sol.method + "_integral")


def policy_count(pi, data: PreparedData, beta, basis_fa: FeatureMap) -> float:
    """Count-scale value of an allocation: the change in expected events.

    Outcome unit i's rate changes by delta_i = (1/J) (H pi)_i fa(x_i) . beta,
    per 10,000 person-years, so the value is sum_i delta_i person_years_i / 10000.
    Its rate-scale counterpart is ``PolicySolution.value_rate``.
    """
    if data.out.person_years is None:
        raise DataValidationError("the count-scale value needs person_years")
    fa, beta = _effect_basis(data, beta, basis_fa)
    h, pi = data.h, np.asarray(pi, dtype=float)
    if pi.shape != (h.j,):
        raise DataValidationError(f"pi must have shape ({h.j},), got {pi.shape}")
    if not np.all((pi >= 0.0) & (pi <= 1.0)):
        raise DataValidationError("allocations must be finite and lie in [0, 1]")
    return float((h.exposure(pi) * (fa @ beta)) @ data.out.person_years / 1e4)


def budget_fractions(fractions) -> list:
    """``fractions`` as a list, checked to lie in (0, 1] and to ascend."""
    fractions = list(fractions)
    if any(not 0.0 < f <= 1.0 for f in fractions):
        raise DataValidationError("budget fractions must lie in (0, 1]")
    if sorted(fractions) != fractions:
        raise DataValidationError("budget fractions must be sorted ascending")
    return fractions


def budget_sweep(te, cost, fractions, n_out: int):
    """Paired (ratio-ranked, effect-ranked) solutions per budget fraction.

    Budgets are fractions of the total cost of treating every unit.
    """
    fractions = budget_fractions(fractions)
    te, cost = _effects_and_costs(te, cost, n_out)
    total = float(cost.sum())
    pairs = []
    for f in fractions:
        budget = f * total
        pairs.append((knapsack_policy(te, cost, budget, n_out),
                      te_ranked_policy(te, cost, budget, n_out)))
    return pairs
