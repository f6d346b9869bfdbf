"""Scalar speed limits, the four a-priori bounds and the report assembly."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qslbounds import (
    BoundInputs,
    ControlHamiltonian,
    PiecewiseConstantField,
    SIGMA_X,
    SIGMA_Z,
    arenz_overlap_inequality_check,
    basis_state,
    compute_report,
    energy_variance,
    mandelstam_tamm_time,
    margolus_levitin_time,
    max_hs_norm_over_field,
    max_variance_over_field,
    propagate,
    sin_star,
    spectral,
    tmin_a,
    tmin_b,
    tmin_b_eigenstate,
    tmin_c1,
    tmin_c2,
    unified_time,
    zero_operator,
)
import qslbounds.bounds as bounds_module
import qslbounds.quantum as quantum_module
from qslbounds.bounds import _eigenbasis_overlap_sum, variance_quadratic_coeffs
from conftest import random_control_problem, random_hermitian, random_state, state

HALF_SX = 0.5 * SIGMA_X  # ||.||_HS = sqrt(2)/2, spread 1/2 in either basis state


def flip_inputs(u_max: float) -> BoundInputs:
    ch = ControlHamiltonian(h0=HALF_SX, hc=SIGMA_Z, u_max=u_max)
    return BoundInputs(ch, basis_state(2, 0), basis_state(2, 1))


# ---------------------------------------------------------------------------
# scalar speed limits


def test_mandelstam_tamm_orthogonal():
    assert mandelstam_tamm_time(1.0, 0.0) == pytest.approx(0.5 * math.pi)
    assert mandelstam_tamm_time(2.0, 0.0) == pytest.approx(0.25 * math.pi)


def test_mandelstam_tamm_clamps_overlap():
    assert mandelstam_tamm_time(1.0, 1.0 + 1e-9) == 0.0
    assert mandelstam_tamm_time(1.0, -0.3) == pytest.approx(math.acos(0.0) / 1.0)


def test_mandelstam_tamm_rejects_zero_spread():
    with pytest.raises(ValueError):
        mandelstam_tamm_time(0.0, 0.5)


def test_margolus_levitin_scalar():
    assert margolus_levitin_time(1.0) == pytest.approx(0.5 * math.pi)
    with pytest.raises(ValueError):
        margolus_levitin_time(0.0)


def test_unified_takes_the_smaller_branch():
    assert unified_time(2.0, 1.0) == pytest.approx(0.25 * math.pi)
    assert unified_time(1.0, 2.0) == pytest.approx(0.25 * math.pi)


def test_unified_drops_nonpositive_branch():
    assert unified_time(0.0, 1.0) == pytest.approx(0.5 * math.pi)
    assert unified_time(1.0, -3.0) == pytest.approx(0.5 * math.pi)
    with pytest.raises(ValueError):
        unified_time(0.0, 0.0)


def test_unified_attained_by_resonant_rotation():
    # H = (pi/2) sx from |0>: spread pi/2 and mean-above-ground pi/2, so both
    # branches give t = 1, exactly when the state turns orthogonal
    h = (0.5 * math.pi) * SIGMA_X
    psi0 = basis_state(2, 0)
    spread = energy_variance(psi0, h)
    mean_above_ground = 0.0 - (-0.5 * math.pi)
    bound = unified_time(spread, mean_above_ground)
    assert bound == pytest.approx(1.0, abs=1e-12)
    ch = ControlHamiltonian(h0=h, hc=SIGMA_Z)
    traj = propagate(ch, PiecewiseConstantField(((1.0, 0.0),)), psi0)
    assert traj.final_state().fidelity(traj.initial_state()) == pytest.approx(0.0, abs=1e-12)


def test_sin_star_frozen_values():
    assert sin_star(-1.0) == 0.0
    assert sin_star(0.0) == 0.0
    assert sin_star(math.pi / 6) == pytest.approx(0.5)
    assert sin_star(0.5 * math.pi) == 1.0
    assert sin_star(2.0) == 1.0
    assert sin_star(100.0) == 1.0
    xs = [-1.0, 0.0, math.pi / 6, 1.0, 0.5 * math.pi, 2.0]
    assert list(sin_star(np.array(xs))) == [sin_star(x) for x in xs]


@settings(max_examples=300, deadline=None)
@given(st.floats(-10.0, 10.0), st.floats(0.0, 5.0))
def test_sin_star_monotone_bounded_lipschitz(x, step):
    a, b = sin_star(x), sin_star(x + step)
    assert 0.0 <= a <= 1.0
    assert b >= a - 1e-15
    assert b - a <= step + 1e-15


# ---------------------------------------------------------------------------
# drive-window maximizations feeding tmin_a / tmin_b


def test_variance_quadratic_coeffs_pure_control():
    # h0 = 0: spread^2 = u^2 * var(hc)
    ch = ControlHamiltonian(h0=zero_operator(2), hc=SIGMA_Z, u_max=3.0)
    plus = state(1.0, 1.0)
    c0, c1, c2 = variance_quadratic_coeffs(ch, plus)
    assert c0 == pytest.approx(0.0, abs=1e-15)
    assert c1 == pytest.approx(0.0, abs=1e-15)
    assert c2 == pytest.approx(1.0, abs=1e-12)
    assert max_variance_over_field(ch, plus) == pytest.approx(3.0, abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.floats(0.0, 5.0))
def test_max_variance_matches_dense_grid(seed, dim, u_max):
    rng = np.random.default_rng(seed)
    ch, _, chi = random_control_problem(rng, dim)
    ch = ControlHamiltonian(ch.h0, ch.hc, u_max)
    analytic = max_variance_over_field(ch, chi)
    grid = np.linspace(-u_max, u_max, 2001)
    c0, c1, c2 = variance_quadratic_coeffs(ch, chi)
    best = math.sqrt(max(float(np.max(c0 + c1 * grid + c2 * grid * grid)), 0.0))
    assert analytic >= best - 1e-12
    direct = max(energy_variance(chi, ch.hamiltonian(float(u))) for u in grid[:: 100])
    assert analytic >= direct - 1e-12


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.0, 5.0))
def test_max_hs_norm_matches_dense_grid(seed, u_max):
    rng = np.random.default_rng(seed)
    ch, _, _ = random_control_problem(rng, 3)
    ch = ControlHamiltonian(ch.h0, ch.hc, u_max)
    analytic = max_hs_norm_over_field(ch)
    grid = np.linspace(-u_max, u_max, 801)
    direct = max(
        float(np.linalg.norm(ch.h0.entries + u * ch.hc.entries, "fro")) for u in grid
    )
    assert analytic >= direct - 1e-10
    assert analytic <= direct + 1e-4  # grid resolution slack


def _hs_norm_reference(ch: ControlHamiltonian) -> float:
    # the trace-of-products form max_hs_norm_over_field replaces by vdots
    t00 = float(np.trace(ch.h0.entries @ ch.h0.entries).real)
    t0c = float(np.trace(ch.h0.entries @ ch.hc.entries).real)
    tcc = float(np.trace(ch.hc.entries @ ch.hc.entries).real)
    candidates = [-ch.u_max, 0.0, ch.u_max]
    if tcc > 0.0:
        candidates.append(min(max(-t0c / tcc, -ch.u_max), ch.u_max))
    return math.sqrt(max(max(t00 + 2.0 * u * t0c + u * u * tcc for u in candidates), 0.0))


def test_max_hs_norm_matches_trace_of_products_reference():
    rng = np.random.default_rng(406)
    for i in range(200):
        dim = 2 + i % 7
        u_max = float(rng.uniform(0.0, 3.0))
        ch = ControlHamiltonian(random_hermitian(rng, dim), random_hermitian(rng, dim), u_max)
        expected = _hs_norm_reference(ch)
        assert max_hs_norm_over_field(ch) == pytest.approx(expected, rel=1e-14, abs=0.0), i


# ---------------------------------------------------------------------------
# tmin_a


def test_tmin_a_frozen_flip():
    # ||h0||_HS = sqrt(2)/2 and no usable drive: pi / (sqrt(2) * sqrt(2)/2) = pi
    assert tmin_a(flip_inputs(0.0)) == pytest.approx(math.pi, abs=1e-12)


def test_tmin_a_identical_endpoints():
    ch = ControlHamiltonian(h0=HALF_SX, hc=SIGMA_Z, u_max=0.0)
    inputs = BoundInputs(ch, basis_state(2, 0), basis_state(2, 0))
    assert tmin_a(inputs) == 0.0


def test_tmin_a_unbounded_window_degenerates():
    assert tmin_a(flip_inputs(math.inf)) == 0.0


def test_tmin_a_zero_hamiltonian_is_infinite():
    ch = ControlHamiltonian(h0=zero_operator(2), hc=zero_operator(2), u_max=0.0)
    inputs = BoundInputs(ch, basis_state(2, 0), basis_state(2, 1))
    assert math.isinf(tmin_a(inputs))


# ---------------------------------------------------------------------------
# tmin_b


def test_tmin_b_frozen_flip():
    # spread 1/2 in both endpoints: pi / (2 * 1/2) = pi
    assert tmin_b(flip_inputs(0.0)) == pytest.approx(math.pi, abs=1e-12)


def test_tmin_b_window_independent_for_control_eigenstates():
    # |0> and |1> never spread under the sz drive, so opening the window
    # changes nothing and the bound keeps its closed-window value
    assert tmin_b(flip_inputs(math.inf)) == pytest.approx(math.pi, abs=1e-12)


def test_tmin_b_unbounded_window_degenerates():
    # sx eigenstates spread without limit under an uncapped sz drive
    ch = ControlHamiltonian(h0=HALF_SX, hc=SIGMA_Z, u_max=math.inf)
    inputs = BoundInputs(ch, state(1.0, 1.0), state(1.0, -1.0))
    assert tmin_b(inputs) == 0.0


def test_tmin_b_uncontrollable_pair_is_infinite():
    # both endpoints are eigenstates of h0 and hc alike: nothing spreads
    ch = ControlHamiltonian(h0=SIGMA_Z, hc=SIGMA_Z, u_max=5.0)
    inputs = BoundInputs(ch, basis_state(2, 0), basis_state(2, 1))
    assert math.isinf(tmin_b(inputs))


def test_tmin_b_anchors_take_the_weaker_spread():
    # psi0 = |0> never spreads under sz; psig = |+> does, so the minimum over
    # anchors comes from psi0 and the drive window cannot enter
    ch = ControlHamiltonian(h0=HALF_SX, hc=SIGMA_Z, u_max=7.0)
    plus = state(1.0, 1.0)
    inputs = BoundInputs(ch, basis_state(2, 0), plus)
    assert max_variance_over_field(ch, basis_state(2, 0)) == pytest.approx(0.5, abs=1e-12)
    assert max_variance_over_field(ch, plus) > 0.5
    expected = inputs.distance / (2.0 * 0.5)
    assert tmin_b(inputs) == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# tmin_b, eigenstate form


def test_tmin_b_eigenstate_frozen_flip():
    assert tmin_b_eigenstate(flip_inputs(0.0)) == pytest.approx(math.pi, abs=1e-12)


def test_tmin_b_eigenstate_ignores_window():
    vals = {u: tmin_b_eigenstate(flip_inputs(u)) for u in (0.0, 1.0, 37.0, math.inf)}
    assert len({round(v, 15) for v in vals.values()}) == 1


def test_tmin_b_eigenstate_agrees_with_general_form_at_closed_window():
    inputs = flip_inputs(0.0)
    assert tmin_b_eigenstate(inputs) == pytest.approx(tmin_b(inputs), abs=1e-13)


def test_tmin_b_eigenstate_rejects_non_eigenstate():
    ch = ControlHamiltonian(h0=HALF_SX, hc=SIGMA_Z, u_max=1.0)
    inputs = BoundInputs(ch, state(1.0, 1.0), basis_state(2, 1))
    with pytest.raises(ValueError):
        tmin_b_eigenstate(inputs)


# ---------------------------------------------------------------------------
# eigenbasis overlap sum shared by tmin_c1 and tmin_c2


def _overlap_sum_reference(op, psi0, psig):
    # one eigenvector at a time, as the sum is written in the bound
    total = 0.0
    for vec in spectral(op).eigenvectors:
        total += abs(psig.overlap(vec)) * abs(vec.overlap(psi0))
    return total


def test_eigenbasis_overlap_sum_matches_per_eigenvector_reference():
    rng = np.random.default_rng(404)
    for i in range(200):
        dim = 2 + i % 7
        op = random_hermitian(rng, dim)
        psi0, psig = random_state(rng, dim), random_state(rng, dim)
        fast = _eigenbasis_overlap_sum(op, psi0, psig)
        assert abs(fast - _overlap_sum_reference(op, psi0, psig)) <= 1e-14, (i, dim)


def test_tmin_c2_unbounded_window_skips_the_drift_decomposition(monkeypatch):
    calls = []
    # the operator's cached spectrum is computed by quantum.spectral
    monkeypatch.setattr(quantum_module, "spectral", lambda h: calls.append(h.dim) or spectral(h))
    rng = np.random.default_rng(405)
    for dim in range(2, 9):
        ch = ControlHamiltonian(random_hermitian(rng, dim), random_hermitian(rng, dim), math.inf)
        inputs = BoundInputs(ch, random_state(rng, dim), random_state(rng, dim))
        assert tmin_c2(inputs) == 0.0
    assert calls == []
    tmin_c2(BoundInputs(ControlHamiltonian(ch.h0, ch.hc, 1.0), inputs.psi0, inputs.psig))
    assert calls == [8]


# ---------------------------------------------------------------------------
# tmin_c1


def test_tmin_c1_frozen_flip():
    # orthogonal endpoints aligned with the control eigenbasis: numerator 1,
    # so the bound is 1 / ||h0||_HS = sqrt(2)
    assert tmin_c1(flip_inputs(0.0)) == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_tmin_c1_identical_endpoints():
    ch = ControlHamiltonian(h0=HALF_SX, hc=SIGMA_Z, u_max=0.0)
    inputs = BoundInputs(ch, basis_state(2, 0), basis_state(2, 0))
    assert tmin_c1(inputs) == pytest.approx(0.0, abs=1e-12)


def test_tmin_c1_window_invariance():
    vals = {u: tmin_c1(flip_inputs(u)) for u in (0.0, 2.0, math.inf)}
    assert len(set(vals.values())) == 1


def test_tmin_c1_zero_drift_raises():
    ch = ControlHamiltonian(h0=zero_operator(2), hc=SIGMA_Z, u_max=1.0)
    inputs = BoundInputs(ch, basis_state(2, 0), basis_state(2, 1))
    with pytest.raises(ValueError):
        tmin_c1(inputs)


# ---------------------------------------------------------------------------
# tmin_c2


def test_tmin_c2_frozen_value():
    # h0 = sz eigenbasis {|0>, |1>}: overlap sum |<psig|0>| = 1/sqrt(2),
    # numerator 1 - 1/sqrt(2), denominator u_max * ||sx||_HS = 2*sqrt(2)
    ch = ControlHamiltonian(h0=SIGMA_Z, hc=SIGMA_X, u_max=2.0)
    inputs = BoundInputs(ch, basis_state(2, 0), state(1.0, 1.0))
    expected = (1.0 - 1.0 / math.sqrt(2.0)) / (2.0 * math.sqrt(2.0))
    assert tmin_c2(inputs) == pytest.approx(expected, abs=1e-14)
    assert tmin_c2(inputs) == pytest.approx(0.10355339059327377, abs=1e-14)


def test_tmin_c2_vanishing_numerator_beats_degenerate_window():
    ch = ControlHamiltonian(h0=SIGMA_Z, hc=SIGMA_X, u_max=0.0)
    inputs = BoundInputs(ch, basis_state(2, 0), basis_state(2, 0))
    assert tmin_c2(inputs) == 0.0


def test_tmin_c2_closed_window_is_infinite():
    ch = ControlHamiltonian(h0=SIGMA_Z, hc=SIGMA_X, u_max=0.0)
    inputs = BoundInputs(ch, basis_state(2, 0), state(1.0, 1.0))
    assert math.isinf(tmin_c2(inputs))


def test_tmin_c2_unbounded_window_degenerates():
    ch = ControlHamiltonian(h0=SIGMA_Z, hc=SIGMA_X, u_max=math.inf)
    inputs = BoundInputs(ch, basis_state(2, 0), state(1.0, 1.0))
    assert tmin_c2(inputs) == 0.0


def test_tmin_c2_inert_control_is_infinite():
    ch = ControlHamiltonian(h0=SIGMA_Z, hc=zero_operator(2), u_max=1.0)
    inputs = BoundInputs(ch, basis_state(2, 0), state(1.0, 1.0))
    assert math.isinf(tmin_c2(inputs))


# ---------------------------------------------------------------------------
# overlap-displacement inequality


def test_arenz_slack_for_resonant_flip():
    ch = ControlHamiltonian(h0=(0.5 * math.pi) * SIGMA_X, hc=SIGMA_Z)
    field = PiecewiseConstantField(((1.0, 0.0),))
    traj = propagate(ch, field, basis_state(2, 0))
    residual = arenz_overlap_inequality_check(traj, basis_state(2, 1))
    # lhs = 1 (alpha = 0 leaves |0> in place), rhs = (pi/2)*sqrt(2)
    assert residual == pytest.approx(1.0 - 0.5 * math.pi * math.sqrt(2.0), abs=1e-9)
    assert residual <= 1e-9


def test_arenz_degenerate_duration_limit():
    # duration shrunk to 1e-12 stands in for the t -> 0 consistency statement:
    # both sides vanish together and the residual stays non-positive
    ch = ControlHamiltonian(h0=HALF_SX, hc=SIGMA_Z)
    field = PiecewiseConstantField(((1e-12, 0.0),))
    psi0 = basis_state(2, 0)
    traj = propagate(ch, field, psi0, samples_per_segment=3)
    residual = arenz_overlap_inequality_check(traj, psi0)
    assert abs(residual) < 1e-11
    assert residual <= 0.0


def test_arenz_requires_reached_target():
    ch = ControlHamiltonian(h0=(0.5 * math.pi) * SIGMA_X, hc=SIGMA_Z)
    field = PiecewiseConstantField(((0.5, 0.0),))
    traj = propagate(ch, field, basis_state(2, 0))
    with pytest.raises(ValueError):
        arenz_overlap_inequality_check(traj, basis_state(2, 1))


# ---------------------------------------------------------------------------
# reachability certificates: every bound must sit below an achieved time


def test_bounds_dominated_by_random_reachable_times():
    rng = np.random.default_rng(7)
    for _ in range(200):
        dim = int(rng.integers(2, 5))
        ch, field, psi0 = random_control_problem(rng, dim)
        traj = propagate(ch, field, psi0, samples_per_segment=30)
        psig = traj.final_state()
        reached_in = field.total_duration
        window = max(abs(a) for _, a in field.segments)
        tight = ControlHamiltonian(ch.h0, ch.hc, max(window, 1e-9))
        inputs = BoundInputs(tight, psi0, psig)
        for bound in (tmin_a, tmin_b, tmin_c1, tmin_c2):
            value = bound(inputs)
            assert value <= reached_in + 1e-6, (bound.__name__, value, reached_in)


def test_bounds_dominated_on_two_level_ensemble():
    rng = np.random.default_rng(11)
    for _ in range(500):
        delta = float(rng.uniform(0.2, 3.0))
        cap = float(rng.uniform(0.05, 4.0))
        ch = ControlHamiltonian((0.5 * delta) * SIGMA_X, SIGMA_Z, cap)
        field = PiecewiseConstantField(
            tuple(
                (float(rng.uniform(0.05, 1.5)), float(rng.uniform(-cap, cap)))
                for _ in range(int(rng.integers(1, 4)))
            )
        )
        psi0 = random_state(rng, 2)
        traj = propagate(ch, field, psi0, samples_per_segment=20)
        inputs = BoundInputs(ch, psi0, traj.final_state())
        for bound in (tmin_a, tmin_b, tmin_c1, tmin_c2):
            value = bound(inputs)
            assert value <= field.total_duration + 1e-6, (bound.__name__, value)


# ---------------------------------------------------------------------------
# report assembly


def test_compute_report_aggregates_and_flags():
    inputs = flip_inputs(0.0)
    report = compute_report(inputs, t_opt=4.0)
    assert report.t_min_a == pytest.approx(math.pi, abs=1e-12)
    assert report.t_min_b == pytest.approx(math.pi, abs=1e-12)
    assert report.t_min_c1 == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert report.t_min_c2 == pytest.approx(0.0, abs=1e-12)
    assert report.inequality_flags == {"a": True, "b": True, "c1": True, "c2": True}
    assert report.errors == {}
    assert "[pass]" in report.text_block()


def test_compute_report_records_per_bound_errors():
    ch = ControlHamiltonian(h0=zero_operator(2), hc=SIGMA_Z, u_max=1.0)
    report = compute_report(BoundInputs(ch, basis_state(2, 0), basis_state(2, 1)))
    assert math.isnan(report.t_min_c1)
    assert "c1" in report.errors
    assert "c1" not in report.inequality_flags
    assert "[error:" in report.text_block()


def test_compute_report_flags_a_violated_claim():
    report = compute_report(flip_inputs(0.0), t_opt=1.0)  # below the pi bounds
    assert report.inequality_flags["a"] is False
    assert report.inequality_flags["c2"] is True
    assert "[FAIL]" in report.text_block()


def test_compute_report_measures_the_distance_once(monkeypatch):
    calls = []
    distance = bounds_module.fubini_study_distance
    monkeypatch.setattr(
        bounds_module, "fubini_study_distance", lambda a, b: calls.append(1) or distance(a, b)
    )
    compute_report(flip_inputs(1.0), t_opt=4.0)
    assert len(calls) == 1


def test_compute_report_includes_trajectory_time():
    ch = ControlHamiltonian(h0=(0.5 * math.pi) * SIGMA_X, hc=SIGMA_Z, u_max=0.0)
    field = PiecewiseConstantField(((1.0, 0.0),))
    psi0 = basis_state(2, 0)
    traj = propagate(ch, field, psi0)
    inputs = BoundInputs(ch, psi0, basis_state(2, 1))
    report = compute_report(inputs, traj=traj, t_opt=1.0)
    assert report.t_qsl_star == pytest.approx(1.0, abs=1e-9)
    assert report.t_opt == 1.0
