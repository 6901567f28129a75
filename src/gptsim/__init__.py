"""Simulation and verification toolkit for generalized probabilistic models
with pluggable probability rules.

States live in a finite-dimensional ordered vector space with a positive
cone and order unit (quantum or classical instantiations); a probability
rule maps the geometric overlap of states onto predicted outcome rates.
The steering machinery purifies mixed states and remotely prepares chosen
decompositions, and the signaling module measures the statistical gap such
preparations open up for any nonlinear rule; only the identity rule leaves
no gap.
"""

from .errors import (
    ContractError,
    EmptyEnsembleError,
    GptError,
    InfeasibleError,
    MarginalMismatchError,
    ModelMismatchError,
    NotNormalizedError,
    NotPureError,
    OutsideConeError,
    RankDeficitError,
    RuleDomainError,
    UnboundedError,
    UnsupportedModelError,
)
from .models import (
    BipartiteState,
    Effect,
    Ensemble,
    Measurement,
    State,
    SystemModel,
    bipartite_from_dict,
    bipartite_from_ket,
    bloch_vector,
    classical,
    effect_from_covector,
    effect_from_dict,
    effect_from_matrix,
    ensemble,
    ensemble_from_dict,
    evaluate,
    ket_state,
    marginal,
    measurement,
    measurement_from_dict,
    mix,
    model_from_dict,
    point_state,
    product_point,
    projector_effect,
    pure_ket,
    quantum,
    state_from_bloch,
    state_from_dict,
    state_from_matrix,
    unit_effect,
    validate_state,
)
from .rules import (
    ConstraintReport,
    ProbabilityRule,
    check_constraints,
    eval_rule,
    identity_rule,
    piecewise_quadratic_rule,
    power_rule,
    predict_ensemble,
    rule_from_dict,
    tabulated_rule,
)
from .signaling import (
    STEERED_UNIFORM,
    TRIVIAL_AVERAGE,
    CertificateResult,
    DetectionStats,
    ReferenceRow,
    Scenario,
    SignalingReport,
    affinity_certificate,
    closed_form,
    gap_surface,
    max_gap_search,
    reference_table,
    run_scenario,
    run_scenarios,
    simulate_runs,
    uniform_overlap_decomposition,
)
from .steering import (
    SteeringMeasurement,
    marginal_residual,
    purify,
    steer,
    synthesize_steering_measurement,
)
from .transition import (
    TauLpReport,
    accept_effect,
    great_circle_states,
    state_with_tau,
    tau,
    tau_lp_report,
)

__version__ = "0.1.0"
