"""Quantum-speed-limit times and a-priori lower bounds on control times,
with exact optimal protocols for the driven avoided-crossing qubit."""

__version__ = "0.1.0"

from .quantum import (
    HermitianOperator,
    PureState,
    SIGMA_X,
    SIGMA_Z,
    energy_variance,
    fubini_study_distance,
    fubini_study_distances,
    ground_state,
    spectral,
    unitary_step,
    unitary_steps,
)
from .dynamics import (
    ControlHamiltonian,
    PiecewiseConstantField,
    TRAJECTORY_CHECKS,
    TrajectoryStack,
    TqslEstimate,
    arenz_overlap_residuals,
    bhattacharyya_check,
    bhattacharyya_residuals,
    norm_drifts,
    path_length,
    path_lengths,
    pfeifer_envelope_check,
    pfeifer_envelope_residuals,
    propagate,
    propagate_refined,
    propagate_stack,
    sin_star,
    tqsl_star,
    tqsl_stars,
    trajectory_residuals,
)
from .bounds import (
    BoundInputs,
    BoundReport,
    arenz_overlap_inequality_check,
    compute_report,
    compute_reports,
    mandelstam_tamm_time,
    margolus_levitin_time,
    max_hs_norm_over_field,
    tmin_a,
    tmin_b,
    tmin_b_eigenstate,
    tmin_c1,
    tmin_c2,
    unified_time,
)
from .two_level import (
    ClosedFormBounds,
    LandauZenerProblem,
    OptimalProtocol,
    boundary_state_arrays,
    boundary_states,
    closed_form_bounds,
    constrained_protocol,
    gamma_from_theta,
    optimal_protocol,
    theta_from_gamma,
    tqsl_star_closed,
    unconstrained_protocol,
)
from .property_suites import PropertyReport, SuiteResult, run_property_suites

