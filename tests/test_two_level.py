"""Avoided-crossing geometry, the optimal protocols and their closed forms."""
import math
import re
import sys

import numpy as np
import pytest

from qslbounds import (
    BoundInputs,
    ControlHamiltonian,
    HermitianOperator,
    LandauZenerProblem,
    OptimalProtocol,
    PureState,
    SIGMA_X,
    SIGMA_Z,
    boundary_state_arrays,
    boundary_states,
    closed_form_bounds,
    fubini_study_distance,
    gamma_from_theta,
    ground_state,
    optimal_protocol,
    propagate,
    propagate_refined,
    spectral,
    tmin_a,
    tmin_b,
    tmin_c1,
    tmin_c2,
    tqsl_star,
    tqsl_star_closed,
)
from qslbounds.bounds import BOUND_NAMES, compute_report
from qslbounds.cli import LambdaSpec
from qslbounds.tolerances import CLOSED_FORM_TOL, FIDELITY_TOL
from qslbounds.two_level import MAX_ENERGY
from conftest import fidelity, overlap, problem_from_gamma, sampled_spreads, scaled
from conftest import segment_hamiltonians

HALF_PI = 0.5 * math.pi

# Fig. 3 parameter set: delta = 1, gamma = 1, so theta = arctan(1/2) and the
# critical cap is 1/4; frozen protocol durations for the two cap choices
FIG3A_T_LAMBDA = 0.38926354660306156
FIG3A_T_OFF = 1.6821373411358607
FIG3B_T_LAMBDA = 1.5250854101996452


def lz(theta: float, cap: float = math.inf, delta: float = 1.0) -> LandauZenerProblem:
    return LandauZenerProblem(delta, theta, cap)


def critical_cap(delta: float, theta: float) -> float:
    """The cap delta^2/(4*gamma) at which Hegerfeldt's two capped drives meet."""
    return delta * delta / (4.0 * gamma_from_theta(delta, theta))


def protocol_fidelity(problem: LandauZenerProblem, protocol: OptimalProtocol) -> float:
    psi0, psig = boundary_states(problem)
    traj = propagate([problem.control_hamiltonian()], [protocol.field], psi0.amplitudes)
    return fidelity(PureState(traj.ends[1, 0]), psig)


# ---------------------------------------------------------------------------
# angle parametrization


def test_theta_gamma_conversions():
    assert gamma_from_theta(1.0, math.pi / 6) == pytest.approx(
        math.sqrt(3.0) / 2.0, abs=1e-15
    )
    assert gamma_from_theta(1.0, HALF_PI) == 0.0
    assert problem_from_gamma(1.0, 0.0).theta == HALF_PI
    assert problem_from_gamma(1.0, 0.5).theta == pytest.approx(0.25 * math.pi, abs=1e-15)


def test_theta_gamma_round_trip():
    for gamma in (0.0, 0.3, 1.0, 42.0):
        assert problem_from_gamma(2.5, gamma).gamma == pytest.approx(gamma, abs=1e-12)


def test_conversion_rejects_bad_arguments():
    with pytest.raises(ValueError):
        gamma_from_theta(1.0, 0.0)
    with pytest.raises(ValueError):
        gamma_from_theta(1.0, HALF_PI + 0.1)
    for delta in (0.0, math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="delta must be positive and finite"):
            gamma_from_theta(delta, 0.9)
    # a theta so small that delta/(2*tan(theta)) overflows is rejected as a theta
    for delta, theta in ((1.0, 1e-320), (1e300, 1e-9)):
        with pytest.raises(ValueError, match=f"theta {theta!r} is too small"):
            gamma_from_theta(delta, theta)


def test_gamma_from_theta_rejects_an_underflowing_gamma():
    # a gamma below the least normal float is rejected with the delta and theta
    # it came from, not reported later as a gamma the caller never gave.  Only a
    # delta below about 1.6e-292 underflows (tan of the last float under pi/2 is
    # 3.5e15), and its ground-state gap is then far inside DEGENERACY_ATOL
    below_half_pi = math.nextafter(HALF_PI, 0.0)
    for delta, theta in ((5e-324, 0.9), (1e-310, 0.9), (1e-292, below_half_pi)):
        message = (
            rf"^delta {re.escape(repr(delta))} at theta {re.escape(repr(theta))} is too small: "
            r"gamma = delta/\(2\*tan\(theta\)\) underflows$"
        )
        with pytest.raises(ValueError, match=message):
            gamma_from_theta(delta, theta)
    assert gamma_from_theta(1e-291, below_half_pi) >= sys.float_info.min
    assert gamma_from_theta(5e-324, HALF_PI) == 0.0


# ---------------------------------------------------------------------------
# problem record


def test_problem_requires_consistent_angles():
    # gamma is derived from delta and theta, so no caller can give one that disagrees
    p = LandauZenerProblem(1.3, 0.7, 2.5)
    assert p.gamma == gamma_from_theta(1.3, 0.7)
    with pytest.raises(TypeError):
        LandauZenerProblem(delta=1.0, gamma=1.0, theta=0.3, lambda_cap=1.0)


def test_problem_constructors_agree():
    a = problem_from_gamma(1.0, 0.5)
    b = LandauZenerProblem(1.0, 0.25 * math.pi)
    assert a.gamma == pytest.approx(b.gamma, abs=1e-15)
    assert math.isinf(a.lambda_cap)


def test_problem_rejects_nonpositive_cap():
    with pytest.raises(ValueError):
        problem_from_gamma(1.0, 1.0, lambda_cap=0.0)


@pytest.mark.parametrize(
    "args, match",
    [
        ((1.0, math.nan, 1.0), "theta must lie in .*, got nan"),
        ((1.0, 1e-320, 1.0), "theta 1e-320 is too small"),
        ((math.inf, 0.5 * math.pi, 1.0), "delta must be positive and finite, got inf"),
        ((math.nan, 0.5, 1.0), "delta must be positive and finite, got nan"),
        ((1.0, 0.5, math.nan), "lambda_cap must be positive or .inf, got nan"),
    ],
)
def test_problem_rejects_non_finite_parameters(args, match):
    with pytest.raises(ValueError, match=match):
        LandauZenerProblem(*args)


# ---------------------------------------------------------------------------
# Hamiltonian pieces


def test_lz_hamiltonian_matrix():
    ch = lz(0.25 * math.pi, cap=3.0).control_hamiltonian()
    h, h2 = map(HermitianOperator, segment_hamiltonians(ch, [0.0, 2.0])[0])
    assert np.allclose(h.entries, [[0.0, 0.5], [0.5, 0.0]])
    assert np.allclose(h2.entries, [[2.0, 0.5], [0.5, -2.0]])
    eigs = spectral(h2)[0]
    assert eigs[0] == pytest.approx(-math.sqrt(4.25), abs=1e-12)
    assert eigs[1] == pytest.approx(+math.sqrt(4.25), abs=1e-12)
    assert np.linalg.norm(h2.entries) == pytest.approx(math.sqrt(8.5), abs=1e-12)


def test_lz_hamiltonian_enforces_cap():
    ch = lz(0.25 * math.pi, cap=1.0).control_hamiltonian()
    segment_hamiltonians(ch, [1.0])
    with pytest.raises(ValueError):
        segment_hamiltonians(ch, [1.5])


# ---------------------------------------------------------------------------
# boundary states


@pytest.mark.parametrize("theta", [0.05, math.pi / 6, 0.25 * math.pi, 1.2])
def test_boundary_distance_and_overlap(theta):
    psi0, psig = boundary_states(lz(theta))
    assert fubini_study_distance(psi0, psig) == pytest.approx(
        math.pi - 2.0 * theta, abs=1e-10
    )
    assert abs(overlap(psi0, psig)) == pytest.approx(math.sin(theta), abs=1e-12)


def test_boundary_states_match_explicit_eigenvectors():
    # ground state of cos(phi) sz + sin(phi) sx is (sin(phi/2), -cos(phi/2));
    # for bias -gamma the polar angle is pi - theta, for +gamma it is theta
    theta = 0.7
    p = lz(theta)
    psi0, psig = boundary_states(p)
    phi0 = math.pi - theta
    v0 = np.array([math.sin(0.5 * phi0), -math.cos(0.5 * phi0)], dtype=complex)
    vg = np.array([math.sin(0.5 * theta), -math.cos(0.5 * theta)], dtype=complex)
    assert abs(np.vdot(v0, psi0.amplitudes)) == pytest.approx(1.0, abs=1e-12)
    assert abs(np.vdot(vg, psig.amplitudes)) == pytest.approx(1.0, abs=1e-12)


def test_boundary_state_arrays_match_boundary_states():
    problems = [
        lz(theta, cap, delta)
        for theta in (0.001, 0.3, 0.25 * math.pi, 1.5, HALF_PI)
        for cap, delta in ((math.inf, 1.0), (0.2, 0.7), (6.0, 1.7))
    ]
    arrays = boundary_state_arrays(problems)
    assert arrays.shape == (2, len(problems), 2)
    for problem, pair in zip(problems, arrays.swapaxes(0, 1)):
        for stacked, single in zip(pair, boundary_states(problem)):
            assert np.array_equal(stacked, single.amplitudes)


def test_bias_hamiltonian_equals_the_operator_arithmetic():
    # the stacked bias Hamiltonians keep the bits of one operator per bias
    problems = [lz(theta, delta=delta) for theta in np.linspace(1e-3, 1.57, 40)
                for delta in (0.5, 1.3, 2.0)]
    for p, pair in zip(problems, boundary_state_arrays(problems).swapaxes(0, 1)):
        for bias, psi in zip((-p.gamma, p.gamma), pair):
            h = HermitianOperator(bias * SIGMA_Z.entries + (0.5 * p.delta) * SIGMA_X.entries)
            assert np.array_equal(psi, ground_state(h).amplitudes)


def test_problems_with_one_gap_share_the_drift_operator():
    h0 = lz(0.3, delta=1.3).control_hamiltonian().h0
    assert lz(1.1, cap=2.0, delta=1.3).control_hamiltonian().h0 is h0
    assert np.array_equal(h0.entries, scaled(0.5 * 1.3, SIGMA_X).entries)
    assert lz(0.3, delta=0.7).control_hamiltonian().h0 is not h0


def test_boundary_states_coincide_at_half_pi():
    psi0, psig = boundary_states(lz(HALF_PI))
    assert fidelity(psi0, psig) == pytest.approx(1.0, abs=1e-12)


def test_boundary_distance_saturates_for_large_bias():
    psi0, psig = boundary_states(problem_from_gamma(1.0, 1e6))
    assert fubini_study_distance(psi0, psig) == pytest.approx(math.pi, abs=1e-5)


def test_boundary_states_ignore_the_drive_cap():
    # endpoint definition uses the bare bias Hamiltonian even when the bias
    # exceeds the admissible drive window
    p = problem_from_gamma(1.0, 5.0, lambda_cap=0.01)
    psi0, psig = boundary_states(p)
    assert fubini_study_distance(psi0, psig) == pytest.approx(
        math.pi - 2.0 * p.theta, abs=1e-10
    )


# ---------------------------------------------------------------------------
# unconstrained composite protocol


def test_unconstrained_protocol_structure():
    p = lz(0.25 * math.pi)
    proto = optimal_protocol(p)
    assert proto.regime == "unconstrained-composite"
    assert proto.t_opt_ideal == pytest.approx(0.5 * math.pi, abs=1e-15)
    segs = proto.field.segments
    assert len(segs) == 3
    t0, u0 = segs[0]
    assert u0 == pytest.approx(1e4, abs=1e-9)  # default surrogate 1e4 * delta
    assert t0 * u0 == pytest.approx(0.25 * math.pi, abs=1e-12)
    assert segs[1] == (proto.t_opt_ideal, 0.0)
    assert segs[2] == (t0, -u0)
    assert proto.t_opt == pytest.approx(proto.t_opt_ideal + 2.0 * t0, abs=1e-15)
    assert proto.t_lambda == 0.0
    assert proto.t_off == proto.t_opt_ideal


def test_unconstrained_protocol_custom_kick():
    proto = optimal_protocol(lz(0.3), u0=5e5)
    t0, u0 = proto.field.segments[0]
    assert u0 == 5e5
    assert t0 == pytest.approx(math.pi / (4.0 * 5e5), abs=1e-18)


def test_unconstrained_protocol_reaches_target():
    p = lz(0.25 * math.pi)
    assert protocol_fidelity(p, optimal_protocol(p)) >= 0.999


def test_unconstrained_protocol_drops_free_segment_at_half_pi():
    proto = optimal_protocol(lz(HALF_PI))
    assert len(proto.field.segments) == 2
    assert proto.t_opt_ideal == 0.0


def test_unconstrained_protocol_rejects_finite_cap():
    # the surrogate rule runs before the regime split
    with pytest.raises(ValueError, match="u0 applies only to an uncapped drive"):
        optimal_protocol(lz(0.3, cap=2.0), u0=5.0)
    with pytest.raises(ValueError):
        optimal_protocol(lz(0.3), u0=0.0)


def test_ideal_duration_strictly_decreasing_in_theta():
    thetas = np.linspace(0.02, HALF_PI - 0.02, 25)
    durations = [optimal_protocol(lz(float(t))).t_opt_ideal for t in thetas]
    assert all(a > b for a, b in zip(durations, durations[1:]))


# ---------------------------------------------------------------------------
# constrained protocols


def test_bang_off_bang_frozen_durations():
    p = problem_from_gamma(1.0, 1.0, lambda_cap=1.5)  # 6x critical
    proto = optimal_protocol(p)
    assert proto.regime == "bang-off-bang"
    assert proto.t_lambda == pytest.approx(FIG3A_T_LAMBDA, abs=1e-15)
    assert proto.t_off == pytest.approx(FIG3A_T_OFF, abs=1e-15)
    assert proto.t_opt == pytest.approx(2.0 * FIG3A_T_LAMBDA + FIG3A_T_OFF, abs=1e-14)
    assert proto.t_opt == proto.t_opt_ideal
    segs = proto.field.segments
    assert [a for _, a in segs] == [1.5, 0.0, -1.5]
    assert protocol_fidelity(p, proto) >= 0.999


def test_bang_bang_frozen_durations():
    p = problem_from_gamma(1.0, 1.0, lambda_cap=0.05)  # 0.2x critical
    proto = optimal_protocol(p)
    assert proto.regime == "bang-bang"
    assert proto.t_lambda == pytest.approx(FIG3B_T_LAMBDA, abs=1e-15)
    assert proto.t_off == 0.0
    assert len(proto.field.segments) == 2
    assert [a for _, a in proto.field.segments] == [0.05, -0.05]
    assert protocol_fidelity(p, proto) >= 0.999


def test_regime_boundary_is_continuous():
    # at the critical cap the off window closes and both branches coincide
    gamma = 1.0
    crit = 0.25
    at = optimal_protocol(problem_from_gamma(1.0, gamma, crit))
    assert at.regime == "bang-off-bang"
    assert at.t_off == pytest.approx(0.0, abs=1e-15)
    above = optimal_protocol(
        problem_from_gamma(1.0, gamma, crit * (1.0 + 1e-9))
    )
    below = optimal_protocol(
        problem_from_gamma(1.0, gamma, crit * (1.0 - 1e-9))
    )
    assert above.regime == "bang-off-bang"
    assert below.regime == "bang-bang"
    assert abs(above.t_opt - at.t_opt) < 1e-8
    assert abs(below.t_opt - at.t_opt) < 1e-8


def test_the_regime_agrees_with_its_off_time_at_the_critical_cap():
    # at the critical cap, its float neighbours and a cap f times critical the
    # label, the off time and the field's segments agree: no negative off time,
    # no missing off window; and each bang's phase rabi*t_lambda = asin(sin) is
    # at most pi/4 (sin^2 <= 1/2), the bound that lets asin go unclamped
    rng = np.random.default_rng(26)
    draws = zip(
        10.0 ** rng.uniform(-2.0, 2.0, 400),
        rng.uniform(0.01, HALF_PI - 0.01, 400),
        10.0 ** rng.uniform(-4.0, 4.0, 400),
    )
    for delta, theta, factor in draws:
        delta, theta = float(delta), float(theta)
        crit = critical_cap(delta, theta)
        caps = (math.nextafter(crit, 0.0), crit, math.nextafter(crit, math.inf), factor * crit)
        for cap in caps:
            problem = lz(theta, cap=cap, delta=delta)
            proto = optimal_protocol(problem)
            case = (delta, theta, cap, proto.t_off)
            assert proto.t_off >= 0.0, case
            assert (len(proto.field.segments) == 3) == (proto.t_off > 0.0), case
            excess = cap * problem.gamma - 0.25 * delta * delta
            assert (proto.regime == "bang-bang") == (excess < 0.0), case
            turn = math.sqrt(cap * cap + 0.25 * delta * delta) * proto.t_lambda
            assert turn <= math.pi / 4 * (1 + 1e-14), case


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 15: gamma*(cap^2 + delta^2/4) and (delta^2/2)*(cap + gamma) are "
    "subnormal here, so the bang-bang arcsin argument reads 1.0 and t_lambda doubles",
)
def test_a_sub_gap_delta_gets_the_bang_time_of_its_scaled_problem():
    # at fixed theta the problem is covariant under (delta, cap, t) -> (c*delta, c*cap, t/c):
    # solved at delta = 1 with cap/delta, its bang time divided by delta is the answer
    delta, theta, cap = 1.5860259568659513e-108, 1.4106577489356091, 4.9096388904171156e-108
    scaled = optimal_protocol(lz(theta, cap=cap / delta)).t_lambda / delta
    assert optimal_protocol(lz(theta, cap=cap, delta=delta)).t_lambda == pytest.approx(
        scaled, rel=1e-12
    )


def test_constrained_protocol_rejects_wrong_regime():
    with pytest.raises(ValueError, match="u0 applies only to an uncapped drive"):
        optimal_protocol(lz(0.3, cap=2.0), u0=5.0)
    match = re.escape(f"a finite cap needs theta < pi/2 (gamma > 0), got {HALF_PI!r}")
    with pytest.raises(ValueError, match=match):
        optimal_protocol(lz(HALF_PI, cap=1.0))  # gamma = 0


@pytest.mark.parametrize("cap", [1e154, 1e200, 1e300])
def test_constrained_protocol_rejects_a_cap_whose_durations_overflow(cap):
    # 2*cap*(cap + gamma) overflows to a zero bang, cap*cap to a NaN one
    match = re.escape(f"delta 1.0 at theta 0.9 with lambda_cap {cap!r} is out of range")
    with pytest.raises(ValueError, match=match):
        optimal_protocol(lz(0.9, cap=cap))


def test_the_energy_limit_is_the_largest_whose_norms_square():
    # at the limit every bound is taken without an overflow warning (which
    # pytest turns into an error); past it the gap or the kick is refused
    problem = lz(0.9, delta=2.0 * MAX_ENERGY)
    report = compute_report(BoundInputs(problem.control_hamiltonian(), *boundary_states(problem)))
    assert report.errors == {}
    assert all(math.isfinite(report.value(name)) for name in BOUND_NAMES)
    optimal_protocol(lz(0.9), u0=0.5 * MAX_ENERGY)
    above = math.nextafter(MAX_ENERGY, math.inf)
    with pytest.raises(ValueError, match="overflows when squared"):
        lz(0.9, delta=2.0 * above)
    with pytest.raises(ValueError, match="overflows when squared"):
        optimal_protocol(lz(0.9), u0=above)


def test_optimal_protocol_dispatch():
    assert optimal_protocol(lz(0.3)).regime == "unconstrained-composite"
    assert optimal_protocol(lz(0.3, cap=10.0)).regime == "bang-off-bang"
    assert optimal_protocol(lz(0.3, cap=1e-3)).regime == "bang-bang"


@pytest.mark.parametrize("cap_factor", [None, 6.0, 0.2])
def test_protocol_validity_across_theta_grid(cap_factor):
    # all three regimes reach the target with fidelity >= 0.999 on the grid
    for theta in np.linspace(0.05, HALF_PI - 0.05, 10):
        theta = float(theta)
        if cap_factor is None:
            p = lz(theta)
        else:
            crit = gamma_from_theta(1.0, theta)
            p = lz(theta, cap=cap_factor * 0.25 / crit if crit > 0 else math.inf)
        proto = optimal_protocol(p)
        assert protocol_fidelity(p, proto) >= 0.999, (theta, cap_factor)


# ---------------------------------------------------------------------------
# closed-form bounds


def test_closed_form_bounds_frozen_instance():
    # theta = pi/6, delta = 1, cap = 1: direct evaluation of the four forms
    cb = closed_form_bounds(lz(math.pi / 6, cap=1.0))
    assert cb.tmin_b == pytest.approx(
        (math.pi / 3.0) / (math.sqrt(3.0) / 4.0 + 0.5), abs=1e-15
    )
    assert cb.tmin_b == pytest.approx(1.1223829526359104, abs=1e-15)
    assert cb.tmin_a == pytest.approx((math.pi / 3.0) / math.sqrt(1.25), abs=1e-15)
    assert cb.tmin_c1 == pytest.approx(0.5 / (0.5 * math.sqrt(2.0)), abs=1e-15)
    assert cb.tmin_c2 == 0.0


def test_closed_form_bounds_unbounded_window():
    cb = closed_form_bounds(lz(0.3))
    assert cb.tmin_a == 0.0
    assert cb.tmin_b == 0.0
    assert cb.tmin_c1 == pytest.approx(
        (1.0 - math.sin(0.3)) * math.sqrt(2.0), abs=1e-12
    )


def test_closed_form_bounds_vanish_at_half_pi():
    cb = closed_form_bounds(lz(HALF_PI, cap=2.0))
    assert (cb.tmin_a, cb.tmin_b, cb.tmin_c1, cb.tmin_c2) == (0.0, 0.0, 0.0, 0.0)


def test_closed_form_limits_match_quoted_hierarchy():
    # theta -> 0: t_min^B -> pi/delta while t_min^C1 -> sqrt(2)/delta, so the
    # anchored-variance bound dominates the eigenbasis one
    cb = closed_form_bounds(lz(1e-8, cap=1e-8))
    assert cb.tmin_b == pytest.approx(math.pi, abs=1e-6)
    assert cb.tmin_c1 == pytest.approx(math.sqrt(2.0), abs=1e-7)
    assert cb.tmin_b > cb.tmin_c1


@pytest.mark.parametrize("theta", [0.1, 0.7, 1.3])
@pytest.mark.parametrize("cap", [0.05, 1.0, 20.0, math.inf])
def test_closed_forms_agree_with_generic_bounds(theta, cap):
    p = lz(theta, cap=cap)
    psi0, psig = boundary_states(p)
    inputs = BoundInputs(p.control_hamiltonian(), psi0, psig)
    cb = closed_form_bounds(p)
    assert cb.tmin_a == pytest.approx(tmin_a(inputs), abs=1e-12)
    assert cb.tmin_b == pytest.approx(tmin_b(inputs), abs=1e-12)
    assert cb.tmin_c1 == pytest.approx(tmin_c1(inputs), abs=1e-12)
    assert cb.tmin_c2 == pytest.approx(tmin_c2(inputs), abs=1e-12)


# ---------------------------------------------------------------------------
# closed-form speed-limit time


def test_tqsl_closed_unconstrained_limit():
    p = lz(1e-6)
    assert tqsl_star_closed(p, optimal_protocol(p)) == pytest.approx(
        math.pi, abs=1e-4
    )


def test_tqsl_closed_equals_tmin_b_in_bang_bang():
    for theta in (0.2, 0.8, 1.4):
        p = lz(theta, cap=0.1 * critical_cap(1.0, theta))
        proto = optimal_protocol(p)
        assert proto.regime == "bang-bang"
        assert tqsl_star_closed(p, proto) == pytest.approx(
            closed_form_bounds(p).tmin_b, abs=1e-15
        )


def test_tqsl_closed_trivial_at_half_pi():
    p = lz(HALF_PI)
    assert tqsl_star_closed(p, optimal_protocol(p)) == 0.0


def test_tqsl_closed_rejects_unknown_regime():
    proto = optimal_protocol(lz(0.3, cap=1.0))
    fake = OptimalProtocol(
        regime="adiabatic",
        field=proto.field,
        t_lambda=proto.t_lambda,
        t_off=proto.t_off,
        t_opt_ideal=proto.t_opt_ideal,
    )
    with pytest.raises(ValueError):
        tqsl_star_closed(lz(0.3, cap=1.0), fake)


@pytest.mark.parametrize("cap_factor", [6.0, 0.2])
def test_tqsl_trajectory_matches_closed_form_constrained(cap_factor):
    p = problem_from_gamma(1.0, 1.0, lambda_cap=cap_factor * 0.25)
    proto = optimal_protocol(p)
    psi0, psig = boundary_states(p)
    traj = propagate_refined([p.control_hamiltonian()], [proto.field], psi0.amplitudes)
    est = tqsl_star(traj, psig)
    assert est.on_target
    assert est.time == pytest.approx(tqsl_star_closed(p, proto), abs=1e-9)


def test_tqsl_trajectory_matches_closed_form_unconstrained():
    p = lz(0.6)
    psi0, psig = boundary_states(p)
    proto4 = optimal_protocol(p)  # default surrogate 1e4
    traj4 = propagate_refined([p.control_hamiltonian()], [proto4.field], psi0.amplitudes)
    assert tqsl_star(traj4, psig).time == pytest.approx(
        tqsl_star_closed(p, proto4), abs=1e-3
    )
    proto5 = optimal_protocol(p, u0=1e5)  # sharper kicks tighten it
    traj5 = propagate_refined([p.control_hamiltonian()], [proto5.field], psi0.amplitudes)
    assert tqsl_star(traj5, psig).time == pytest.approx(
        tqsl_star_closed(p, proto5), abs=1e-4
    )


def test_two_samples_per_segment_give_the_tqsl_star_bits_of_two_hundred():
    # T*_QSL reads only the segment start nodes and the endpoint.  With two
    # samples per segment the propagation's products stay matrix-matrix and
    # round as with 200 (with one they become matrix-vector and move ulps),
    # so the sweep's coarse grid moves no bit; a numpy that rounds otherwise
    # fails here instead of moving the goldens
    thetas = np.concatenate(
        (np.linspace(1e-3, 1.5, 25), HALF_PI - np.geomspace(0.07, 1e-4, 8))
    )
    specs = (
        [LambdaSpec("unconstrained")]
        + [LambdaSpec("factor", f) for f in (6.0, 0.2, 1.0, 1e-8, 1e8)]
        + [LambdaSpec("absolute", 1.0)]
    )
    for delta in (0.5, 1.3, 2.0):
        for spec in specs:
            for theta in thetas.tolist():
                p = lz(theta, cap=spec.resolve(delta, theta), delta=delta)
                ch, field = p.control_hamiltonian(), optimal_protocol(p).field
                psi0, psig = boundary_states(p)
                coarse, fine = (
                    tqsl_star(propagate([ch], [field], psi0.amplitudes, n), psig) for n in (2, 200)
                )
                assert (coarse.time.hex(), coarse.target_fidelity.hex()) == (
                    fine.time.hex(), fine.target_fidelity.hex()
                ), (delta, str(spec), theta)


# ---------------------------------------------------------------------------
# distinctive dynamical facts of the optimum


def test_bang_bang_spread_constant_along_trajectory():
    p = problem_from_gamma(1.0, 1.0, lambda_cap=0.05)
    proto = optimal_protocol(p)
    psi0, _ = boundary_states(p)
    traj = propagate([p.control_hamiltonian()], [proto.field], psi0.amplitudes)
    spread = p.lambda_cap * math.sin(p.theta) + 0.5 * p.delta * math.cos(p.theta)
    sampled = sampled_spreads(traj)
    assert float(np.max(sampled) - np.min(sampled)) < 1e-9
    assert traj.spreads[0] == pytest.approx(spread, abs=1e-12)


def test_bounds_dominated_by_optimum_on_grid():
    for theta in np.linspace(0.05, HALF_PI - 0.05, 10):
        theta = float(theta)
        for factor in (6.0, 0.2):
            p = lz(theta, cap=factor * critical_cap(1.0, theta))
            proto = optimal_protocol(p)
            psi0, psig = boundary_states(p)
            inputs = BoundInputs(p.control_hamiltonian(), psi0, psig)
            for bound in (tmin_a, tmin_b, tmin_c1):
                assert bound(inputs) <= proto.t_opt + 1e-9, (theta, factor)


def _spin_matrices(j2: int):
    """Jx and Jz of spin j = j2/2 in the basis m = j, j - 1, ..., -j."""
    m = 0.5 * j2 - np.arange(j2 + 1)
    raising = np.diag(np.sqrt(0.5 * j2 * (0.5 * j2 + 1.0) - m[1:] * (m[1:] + 1.0)), 1)
    return 0.5 * (raising + raising.T), np.diag(m)


SPIN_CAPS = (
    LambdaSpec("unconstrained"),
    LambdaSpec("factor", 6.0),
    LambdaSpec("factor", 0.2),
    LambdaSpec("absolute", 1e-3),
    LambdaSpec("absolute", 1e3),
)


def _spin_grid(j2: int):
    """(problem, cap policy, control Hamiltonian, psi0, psig) of spin j = j2/2,
    H_j(u) = delta*Jx + 2u*Jz at delta = 1, over 15 theta and SPIN_CAPS."""
    jx, jz = _spin_matrices(j2)
    drift, control = HermitianOperator(jx), HermitianOperator(2.0 * jz)
    for theta in np.linspace(0.05, 1.5, 15).tolist():
        for spec in SPIN_CAPS:
            p = lz(theta, cap=spec.resolve(1.0, theta))
            ch = ControlHamiltonian(drift, control, p.lambda_cap)
            # the endpoints are defined outside the drive window, as at j = 1/2
            psi0, psig = (
                ground_state(HermitianOperator(jx + 2.0 * u * jz)) for u in (-p.gamma, p.gamma)
            )
            yield p, spec, ch, psi0, psig


@pytest.mark.parametrize("j2", range(1, 8))
def test_spin_j_landau_zener_keeps_the_two_level_optimum(j2):
    # H_j(u) = delta*Jx + 2u*Jz (Poggi, Lombardo and Wisniacki, EPL 104, 40005,
    # 2013): every field acts as the same SU(2) element at every spin j, and the
    # boundary states are the spin coherent states along the two-level Bloch
    # vectors, so the two-level protocol stays optimal in d = 2j + 1
    for p, spec, ch, psi0, psig in _spin_grid(j2):
        theta = p.theta
        closed = 2.0 * math.acos(math.sin(theta) ** j2)
        assert abs(fubini_study_distance(psi0, psig) - closed) <= 1e-13, (theta, spec)
        proto = optimal_protocol(p)
        traj = propagate([ch], [proto.field], psi0.amplitudes)
        assert fidelity(PureState(traj.ends[1, 0]), psig) >= FIDELITY_TOL, (theta, spec)
        report = compute_report(BoundInputs(ch, psi0, psig), t_opt=proto.t_opt_ideal)
        flags = report.inequality_flags
        assert len(flags) == 4 and all(flags.values()), (theta, spec, report.errors)
        # the geodesic over the mean spread is no longer than the trajectory itself
        assert tqsl_star(traj, psig).time <= proto.t_opt * (1.0 + 1e-12), (theta, spec)


@pytest.mark.parametrize("j2", range(1, 8))
def test_spin_j_bounds_a_and_b_meet_their_closed_forms(j2):
    # ||H_j(u)||_HS^2 = (delta^2 + 4u^2)*j(j+1)(2j+1)/3 and the coherent
    # endpoints lie 2*acos(sin(theta)^(2j)) apart, which fixes tmin_a; tmin_b
    # is the two-level closed form times the ratio of the half-separations
    # over sqrt(2j).  Both are 0 at an infinite cap
    hs_factor = 0.5 * j2 * (0.5 * j2 + 1.0) * (j2 + 1.0) / 3.0
    for p, spec, ch, psi0, psig in _spin_grid(j2):
        half_separation = math.acos(math.sin(p.theta) ** j2)
        hs_norm = math.sqrt((1.0 + 4.0 * p.lambda_cap * p.lambda_cap) * hs_factor)
        a = 2.0 * half_separation / (math.sqrt(2.0) * hs_norm)
        b = (
            closed_form_bounds(p).tmin_b * half_separation
            / math.acos(math.sin(p.theta)) / math.sqrt(j2)
        )
        inputs = BoundInputs(ch, psi0, psig)
        assert abs(tmin_a(inputs) - a) <= CLOSED_FORM_TOL, (p.theta, spec)
        assert abs(tmin_b(inputs) - b) <= CLOSED_FORM_TOL, (p.theta, spec)
