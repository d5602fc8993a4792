"""Doubly robust policy learning over bipartite interference networks."""

from .alearn import AFit, a_covariance, a_equations, a_system, fit_a
from .data import (FeatureMap, InterferenceMap, InterventionTable, OutcomeTable,
                   Standardizer, ValidationReport, fit_standardizer, validate_bundle)
from .effects import (EffectTable, benefit_cost, effect_inference, effect_table,
                      effect_weights, total_effects)
from .errors import (BnpolicyError, DataValidationError, EstimationError,
                     RankDeficiencyError, SingularSystemError)
from .exposure import expected_exposure, exposure_map, exposure_row_mass
from .policy import (PolicySolution, budget_sweep, knapsack_policy, policy_value,
                     te_ranked_policy, truncate_fractional, unconstrained_policy)
from .propensity import (PropensityFit, TrimReport, apply_trim,
                         calibrate_propensity_intercept, fit_propensity,
                         trim_by_propensity)
from .qlearn import OutcomeModelSpec, QFit, fit_q
from .costimpute import (CostModelFit, RegressionForest, RegressionTree, SplitSpec,
                         fit_cost_models, nmae, predict_costs, split_train_val)
from .seeding import splitmix64
from .simlab import (CELLS, CellResult, CellSpec, CellStats, SimConfig, SimReport,
                     Truth, generate_dgp, run_cell, run_monte_carlo, run_replication)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
