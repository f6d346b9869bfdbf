"""Quantum-speed-limit times and a-priori lower bounds on control times,
with exact optimal protocols for the driven avoided-crossing qubit."""

__version__ = "0.1.0"

from .quantum import (
    HermitianOperator,
    PureState,
    SIGMA_X,
    SIGMA_Z,
    SpectralDecomposition,
    basis_state,
    energy_mean,
    energy_variance,
    fubini_study_distance,
    ground_state,
    hs_norm,
    spectral,
    unitary_step,
    zero_operator,
)
from .dynamics import (
    ControlHamiltonian,
    PiecewiseConstantField,
    Trajectory,
    TqslEstimate,
    bhattacharyya_check,
    path_length,
    pfeifer_envelope,
    pfeifer_envelope_check,
    propagate,
    propagate_refined,
    tqsl_star,
    write_trajectory_csv,
)
from .bounds import (
    BoundInputs,
    BoundReport,
    arenz_overlap_inequality_check,
    compute_report,
    mandelstam_tamm_time,
    margolus_levitin_time,
    max_hs_norm_over_field,
    max_variance_over_field,
    sin_star,
    tmin_a,
    tmin_b,
    tmin_b_eigenstate,
    tmin_c1,
    tmin_c2,
    unified_time,
    variance_quadratic_coeffs,
)
from .two_level import (
    ClosedFormBounds,
    LandauZenerProblem,
    OptimalProtocol,
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

