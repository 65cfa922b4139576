"""teachsel: feature-selection planning for a learning human predictor.

An assistant picks which features a human may use for a repeated linear
prediction task.  The human interprets features through their own,
initially inaccurate coefficients and learns from every observation.  This
package computes the assistant's optimal plans (single-shot and
repeat-forever), the patience thresholds where those plans change,
robustness margins under model errors, and brute-force oracles that verify
all of it on small instances.
"""

from .dynamics import (
    Efficiency,
    Exponential,
    LearningDynamic,
    Tabulated,
    discounted_gain_sum,
    is_more_efficient,
    marginals,
    sort_marginals_dynamic,
)
from .errors import InvalidInputError, ScenarioError, VerificationError
from .model import (
    FeatureSubset,
    ProblemInstance,
    StandardizationSpec,
    mse,
    standardize,
    static_values,
    subset_informativeness,
)
from .oracle import (
    BeliefTrajectory,
    SelectionSequence,
    exhaustive_prefix_search,
    sequence_loss,
    sequence_value,
    simulate_beliefs,
)
from .planner import (
    StaticPlan,
    StationaryPlan,
    discounted_baseline_loss,
    optimal_static_subset,
    optimal_stationary_sequence,
    stationary_values,
)
from .robustness import (
    ErrorKind,
    ErrorSpec,
    MarginReport,
    ValidationReport,
    aggregate_gap_bound,
    margins,
    validate_bound,
)
from .scenario import Scenario, load_scenario
from .tradeoff import (
    EfficiencyComparison,
    HeatmapResult,
    IntervalTable,
    SweepResult,
    SwitchTable,
    all_switch_points,
    compare_efficiency_selection,
    enumerate_optimal_subsets,
    inverse_weight_cdf,
    sweep_delta,
    sweep_w_delta_loss_ratio,
)

__version__ = "0.1.0"

__all__ = [
    "BeliefTrajectory",
    "Efficiency",
    "EfficiencyComparison",
    "ErrorKind",
    "ErrorSpec",
    "Exponential",
    "FeatureSubset",
    "HeatmapResult",
    "IntervalTable",
    "InvalidInputError",
    "LearningDynamic",
    "MarginReport",
    "ProblemInstance",
    "Scenario",
    "ScenarioError",
    "SelectionSequence",
    "StandardizationSpec",
    "StaticPlan",
    "StationaryPlan",
    "SweepResult",
    "SwitchTable",
    "Tabulated",
    "ValidationReport",
    "VerificationError",
    "aggregate_gap_bound",
    "all_switch_points",
    "compare_efficiency_selection",
    "discounted_baseline_loss",
    "discounted_gain_sum",
    "enumerate_optimal_subsets",
    "exhaustive_prefix_search",
    "inverse_weight_cdf",
    "is_more_efficient",
    "load_scenario",
    "margins",
    "marginals",
    "mse",
    "optimal_static_subset",
    "optimal_stationary_sequence",
    "sequence_loss",
    "sequence_value",
    "simulate_beliefs",
    "sort_marginals_dynamic",
    "standardize",
    "static_values",
    "stationary_values",
    "subset_informativeness",
    "sweep_delta",
    "sweep_w_delta_loss_ratio",
    "validate_bound",
]
