"""Every numerical tolerance of the package, each defined once.

This module imports nothing from qslbounds, so any module can import it.
"""

NORM_ATOL = 1e-12  # |norm - 1| of a PureState or eigenvector (quantum)
HERMITIAN_ATOL = 1e-12  # max |H - H^dagger| of a HermitianOperator (quantum)
# least gap above a unique ground state (quantum.ground_states_of_stack), and least
# endpoint gap delta/sin(theta) of a two-level problem (two_level.boundary_state_arrays)
DEGENERACY_ATOL = 1e-10
AMPLITUDE_RTOL = 1e-12  # overshoot of |u| past u_max, relative (dynamics._hamiltonians)
TARGET_FIDELITY_ATOL = 1e-6  # 1 - fidelity of a reached target (dynamics._reached)
# samples whose survival amplitude |<psi0|psi>| or orthogonal part is at or
# below this are skipped by the Bhattacharyya rate, which is 0/0 there
BHATTACHARYYA_FLOOR = 1e-12
EIGENSTATE_ATOL = 1e-10  # ||hc x - <hc> x|| of an hc eigenstate (bounds.tmin_b_eigenstate)
PASS_TOL = 1e-9  # t_opt >= t_min - PASS_TOL: dominance flags of compute_report and verify
OVERLAP_SUM_ATOL = 1e-12  # eigenbasis overlap numerator counted as 0 (bounds.tmin_c1, tmin_c2)
ASIN_CLAMP_ATOL = 1e-12  # arcsin argument clamped into [0, 1] (two_level.constrained_protocol)
BRODY_TOL = 1e-10  # 2 deltaE minus sqrt(2) ||h||_HS (proptest's Brody suite)
# trajectory residuals, read only by dynamics.TRAJECTORY_CHECKS (proptest and verify)
AA_TOL = 1e-6  # Fubini-Study distance minus path length (Anandan-Aharonov)
PFEIFER_TOL = 1e-6  # overlap below Pfeifer's envelope
BHATTACHARYYA_TOL = 1e-4  # rate of the survival amplitude above the spread
ARENZ_TOL = 1e-9  # Arenz overlap inequality
NORM_DRIFT_TOL = 1e-10  # |norm - 1| along a propagated trajectory (proptest)
FIDELITY_TOL = 0.999  # least fidelity of an optimal protocol's final state (verify, perfbench rows)
CLOSED_FORM_TOL = 1e-12  # generic bounds against the two-level closed forms (verify)
