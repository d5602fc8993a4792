"""Doubly robust policy learning over bipartite interference networks.

Every public name is imported from its module on first use (PEP 562), so
``import bnpolicy`` loads no submodule and a command loads only the modules
it runs.  The value is looked up on each access and never stored here: a
name bound in this namespace while a module attribute is temporarily
replaced (as a profiler does) would keep the replacement.
"""
from importlib import import_module as _import_module

__version__ = "0.1.0"

# module -> the public names it exports; every module is exported as well
_EXPORTS = {
    "alearn": ("AFit", "a_covariance", "fit_a"),
    "data": ("FeatureMap", "InterferenceMap", "InterventionTable", "OutcomeTable",
             "standardize", "validate_bundle"),
    "effects": ("EffectTable", "benefit_cost", "effect_table", "total_effects"),
    "errors": ("BnpolicyError", "DataValidationError", "EstimationError",
               "RankDeficiencyError", "SingularSystemError"),
    "policy": ("PolicySolution", "budget_sweep", "knapsack_policy", "policy_count",
               "te_ranked_policy", "truncate_fractional", "unconstrained_policy"),
    "prepared": ("PreparedData",),
    "propensity": ("PropensityFit", "TrimReport", "apply_trim",
                   "calibrate_propensity_intercept", "fit_propensity", "trim_by_propensity"),
    "qlearn": ("OutcomeFit", "OutcomeModelSpec", "fit_q"),
    "costimpute": ("CostModelFit", "RegressionForest", "RegressionTree", "SplitSpec",
                   "fit_cost_models", "nmae", "predict_costs", "split_train_val"),
    "seeding": ("splitmix64",),
    "simlab": ("CELLS", "CellResult", "CellSpec", "CellStats", "SimConfig", "SimReport",
               "Truth", "generate_dgp", "run_cell", "run_monte_carlo", "run_replication"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_MODULE_OF, *_EXPORTS])


def __getattr__(name):
    # Only the table is consulted: the import system probes package
    # attributes while it imports submodules, and an unknown name must
    # fail without importing anything.
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(_import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
