"""Deterministic simulator for day-ahead distributed energy commitment among SSPs."""

from .coalition import (
    ActualNeighborhoodMap,
    BeliefNeighborhoodMap,
    CoalitionSet,
    anm_from_csv,
    anm_to_csv,
    bnm_to_csv,
    empty_map,
    form_coalitions,
    initial_bnm,
    map_from_coalitions,
    meshed_map,
    should_delegate,
    snapshot_anm,
    update_bnm,
)
from .lp import (
    LinearProgram,
    LpSolution,
    LpStatus,
    solve_lp,
)
from .matching import (
    FlexibilityAssignment,
    PartnerCapacity,
    SspView,
    aggregate_surplus,
    check_matching_feasibility,
    solve_centralized,
    solve_dist_matching,
    view_for_ssp,
)
from .model import (
    UTILITY_ID,
    CommitmentMatrix,
    ConnectivityMatrix,
    LineConstraint,
    LineConstraintSet,
    LinkBlock,
    MatchingWeights,
    PreferenceTable,
    Scenario,
    SSPConfig,
    Subscriber,
    SubscriberKind,
    Violation,
    energy_status,
    utility_interaction,
    validate_scenario,
)
from .protocol import (
    AuditReport,
    ConvergenceError,
    LogRecord,
    MatchingResult,
    audit_privacy,
    calibrate_weights,
    messages_to_csv,
    run_engine,
    shuffle_partners,
    trace_to_csv,
)
from .scenario import (
    GeneratorSpec,
    generate_scenario,
    load_scenario,
    save_scenario,
    scenario_from_json,
    scenario_to_json,
)

__version__ = "0.1.0"
