"""Exact operator-norm experiments on discretized circles and the disk algebra.

The circle model represents operators by families of atomic measures, so
norms of weighted composition operators perturbed by finite-rank terms are
computed exactly (up to float rounding) rather than estimated.  The disk
half searches Blaschke-product test families for certified lower bounds.
"""

from .circle import (
    Arc,
    GridCircle,
    ScalarField,
    SymbolMap,
    frac_mod1,
    preimage_nowhere_dense_at_resolution,
)
from .criteria import (
    convex_center_check,
    counterexample_fat_preimage,
    counterexample_nonconstant_modulus,
    criterion_sup,
    criterion_sweep,
    equation_holds,
    open_set_criterion,
    refinement_convergence,
    s_epsilon_fraction,
)
from .disk import (
    ArcNeighborhood,
    BlaschkeProduct,
    DiskFunction,
    RankOneDiskOperator,
    SearchLadder,
    automorphism_identity_check,
    certified_counterexample_bound,
    check_c_conditions,
    disk_counterexample_operator,
    disk_norm_lower_bound,
)
from .errors import InvariantViolation
from .measures import (
    AtomicMeasure,
    integrate,
    linear_combine,
    norm_oracle,
    total_variation,
)
from .operators import (
    FiniteRankOperator,
    OperatorExpr,
    WeightedComposition,
    as_expr,
    convex_combination,
    operator_norm,
    perturbation_profile,
    perturbed_norm,
    rank_one,
    rotation_max_norm,
    scaled,
    zero_operator,
)
from .scenarios import (
    Scenario,
    ScenarioError,
    parse_scenario,
    parse_scenario_file,
    render_report_csv,
    render_report_json,
    run_scenario,
)
from .selftest import run_selftest

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # circle model
    "GridCircle", "Arc", "ScalarField", "SymbolMap",
    "frac_mod1", "preimage_nowhere_dense_at_resolution",
    # measures
    "AtomicMeasure", "linear_combine", "total_variation", "integrate",
    "norm_oracle",
    # operators
    "WeightedComposition", "FiniteRankOperator", "OperatorExpr",
    "rank_one", "convex_combination", "as_expr", "scaled", "zero_operator",
    "operator_norm", "perturbation_profile", "perturbed_norm",
    "rotation_max_norm",
    # norm identities and counterexamples
    "equation_holds", "criterion_sup", "criterion_sweep", "open_set_criterion",
    "s_epsilon_fraction", "counterexample_nonconstant_modulus",
    "counterexample_fat_preimage", "refinement_convergence",
    "convex_center_check",
    # disk algebra
    "BlaschkeProduct", "DiskFunction", "RankOneDiskOperator", "SearchLadder",
    "ArcNeighborhood", "check_c_conditions", "disk_norm_lower_bound",
    "disk_counterexample_operator", "certified_counterexample_bound",
    "automorphism_identity_check",
    # scenarios and reports
    "Scenario", "ScenarioError", "parse_scenario", "parse_scenario_file",
    "run_scenario", "render_report_json", "render_report_csv",
    # diagnostics
    "InvariantViolation", "run_selftest",
]
