"""Scalar speed limits, the four a-priori bounds and the report assembly."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qslbounds import (
    BoundInputs,
    ControlHamiltonian,
    HermitianOperator,
    PiecewiseConstantField,
    PureState,
    SIGMA_X,
    SIGMA_Z,
    LandauZenerProblem,
    arenz_overlap_inequality_check,
    boundary_state_arrays,
    compute_report,
    energy_variance,
    fubini_study_distance,
    mandelstam_tamm_time,
    margolus_levitin_time,
    propagate,
    sin_star,
    spectral,
    tmin_a,
    tmin_b,
    tmin_b_eigenstate,
    tmin_c1,
    tmin_c2,
    tqsl_star,
    unified_time,
)
import qslbounds.bounds as bounds_module
import qslbounds.quantum as quantum_module
from qslbounds.bounds import (
    BOUND_NAMES,
    _max_quadratic_root,
    _operands,
    _tmin_c_stack,
    compute_reports,
)
from qslbounds.cli import LambdaSpec
from qslbounds.tolerances import OVERLAP_SUM_ATOL
from conftest import (
    HALF_PI,
    basis_state,
    fidelity,
    hermitian,
    max_hs_norm_over_field,
    max_variance_over_field,
    overlap,
    random_control_problem,
    random_hermitian,
    random_state,
    scaled,
    state,
    variance_quadratic_coeffs,
    zero_operator,
)

HALF_SX = scaled(0.5, SIGMA_X)  # ||.||_HS = sqrt(2)/2, spread 1/2 in either basis state


def flip_inputs(u_max: float) -> BoundInputs:
    ch = ControlHamiltonian(h0=HALF_SX, hc=SIGMA_Z, u_max=u_max)
    return BoundInputs(ch, basis_state(2, 0), basis_state(2, 1))


def columns(stack):
    """The chs and the psi0 and psig columns (n, d) of a list of BoundInputs."""
    return (
        [x.ch for x in stack],
        [x.psi0.amplitudes for x in stack],
        [x.psig.amplitudes for x in stack],
    )


def reports_of(stack, t_opts=None):
    """compute_reports of a list of BoundInputs."""
    return compute_reports(*columns(stack), t_opts)


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


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: mandelstam_tamm_time(1.0, math.nan), "overlap"),
        (lambda: unified_time(math.nan, 1.0), "delta_e"),
        (lambda: unified_time(1.0, math.nan), "mean_e"),
    ],
    ids=["mandelstam_tamm_overlap", "unified_delta_e", "unified_mean_e"],
)
def test_constant_drive_times_reject_nan(call, name):
    # a NaN neither clamps into [0, 1] nor counts as a non-positive branch
    with pytest.raises(ValueError, match=f"^{name} must be a number, got nan$"):
        call()


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
    h = scaled(0.5 * math.pi, SIGMA_X)
    psi0 = basis_state(2, 0)
    spread = energy_variance(psi0, h)
    mean_above_ground = 0.0 - (-0.5 * math.pi)
    bound = unified_time(spread, mean_above_ground)
    assert bound == pytest.approx(1.0, abs=1e-12)
    ch = ControlHamiltonian(h0=h, hc=SIGMA_Z)
    traj = propagate([ch], [PiecewiseConstantField(((1.0, 0.0),))], psi0.amplitudes)
    final = PureState(traj.ends[1, 0])
    assert fidelity(final, PureState(traj.ends[0, 0])) == pytest.approx(0.0, abs=1e-12)


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
    direct = max(
        energy_variance(chi, HermitianOperator(ch.h0.entries + u * ch.hc.entries))
        for u in grid[:: 100]
    )
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
    expected = fubini_study_distance(inputs.psi0, inputs.psig) / (2.0 * 0.5)
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
    # bit for bit on endpoints that are eigenvectors of hc, at every window
    rng = np.random.default_rng(421)
    for i in range(700):
        dim = 2 + i % 7
        h0, hc = random_hermitian(rng, dim), random_hermitian(rng, dim)
        vecs = spectral(hc)[1].T
        psi0, psig = (PureState(vecs[j]) for j in rng.integers(dim, size=2))
        closed = tmin_b(BoundInputs(ControlHamiltonian(h0, hc, 0.0), psi0, psig))
        for u_max in (0.0, 1.0, math.inf):
            got = tmin_b_eigenstate(BoundInputs(ControlHamiltonian(h0, hc, u_max), psi0, psig))
            assert got.hex() == closed.hex(), (i, u_max)


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
    for vec in [PureState(v) for v in spectral(op)[1].T]:
        total += abs(overlap(psig, vec)) * abs(overlap(vec, psi0))
    return total


def test_eigenbasis_overlap_sum_matches_per_eigenvector_reference():
    rng = np.random.default_rng(404)
    for dim in range(2, 9):
        ops = [random_hermitian(rng, dim) for _ in range(30)]
        stack = [
            BoundInputs(
                ControlHamiltonian(op, op, 1.0), random_state(rng, dim), random_state(rng, dim)
            )
            for op in ops
        ]
        # c1 and c2 both read op's eigenbasis, scaled by ||op||_HS
        chs, psi0s, psigs = columns(stack)
        c1, c2 = _tmin_c_stack(*_operands(chs, np.array(psi0s), np.array(psigs)))
        for i, (op, x) in enumerate(zip(ops, stack)):
            expected = 1.0 - _overlap_sum_reference(op, x.psi0, x.psig)
            for value in (c1[i], c2[i]):
                assert abs(value * np.linalg.norm(op.entries) - expected) <= 1e-14, (i, dim)


def test_tmin_c2_unbounded_window_skips_the_drift_decomposition(monkeypatch):
    decomposed = []
    eigh = quantum_module._phase_fixed_eigh
    monkeypatch.setattr(
        quantum_module,
        "_phase_fixed_eigh",
        lambda m: decomposed.extend(np.reshape(m, (-1,) + m.shape[-2:])) or eigh(m),
    )

    def reached(op):
        return any(np.array_equal(m, op.entries) for m in decomposed)

    rng = np.random.default_rng(405)
    for dim in range(2, 9):
        ch = ControlHamiltonian(random_hermitian(rng, dim), random_hermitian(rng, dim), math.inf)
        inputs = BoundInputs(ch, random_state(rng, dim), random_state(rng, dim))
        assert tmin_c2(inputs) == 0.0
        assert not reached(ch.h0)
    tmin_c2(BoundInputs(ControlHamiltonian(ch.h0, ch.hc, 1.0), inputs.psi0, inputs.psig))
    assert reached(ch.h0)


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
    ch = ControlHamiltonian(h0=scaled(0.5 * math.pi, SIGMA_X), hc=SIGMA_Z)
    field = PiecewiseConstantField(((1.0, 0.0),))
    traj = propagate([ch], [field], basis_state(2, 0).amplitudes)
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
    traj = propagate([ch], [field], psi0.amplitudes, samples_per_segment=3)
    residual = arenz_overlap_inequality_check(traj, psi0)
    assert abs(residual) < 1e-11
    assert residual <= 0.0


def test_arenz_requires_reached_target():
    ch = ControlHamiltonian(h0=scaled(0.5 * math.pi, SIGMA_X), hc=SIGMA_Z)
    field = PiecewiseConstantField(((0.5, 0.0),))
    traj = propagate([ch], [field], basis_state(2, 0).amplitudes)
    with pytest.raises(ValueError):
        arenz_overlap_inequality_check(traj, basis_state(2, 1))


# ---------------------------------------------------------------------------
# reachability certificates: every bound must sit below an achieved time


def test_bounds_dominated_by_random_reachable_times():
    rng = np.random.default_rng(7)
    for _ in range(200):
        dim = int(rng.integers(2, 5))
        ch, field, psi0 = random_control_problem(rng, dim)
        traj = propagate([ch], [field], psi0.amplitudes, samples_per_segment=30)
        psig = PureState(traj.ends[1, 0])
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
        ch = ControlHamiltonian(scaled(0.5 * delta, SIGMA_X), SIGMA_Z, cap)
        field = PiecewiseConstantField(
            tuple(
                (float(rng.uniform(0.05, 1.5)), float(rng.uniform(-cap, cap)))
                for _ in range(int(rng.integers(1, 4)))
            )
        )
        psi0 = random_state(rng, 2)
        traj = propagate([ch], [field], psi0.amplitudes, samples_per_segment=20)
        inputs = BoundInputs(ch, psi0, PureState(traj.ends[1, 0]))
        for bound in (tmin_a, tmin_b, tmin_c1, tmin_c2):
            value = bound(inputs)
            assert value <= field.total_duration + 1e-6, (bound.__name__, value)


# ---------------------------------------------------------------------------
# report assembly


@pytest.mark.parametrize("dims", [(3, 2), (2, 3)], ids=["psi0", "psig"])
def test_bound_inputs_reject_a_state_of_another_dimension(dims):
    ch = flip_inputs(1.0).ch
    with pytest.raises(ValueError, match="^state dimensions must match the control Hamiltonian$"):
        BoundInputs(ch, *(basis_state(d, 0) for d in dims))


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


def test_compute_report_fails_a_nan_bound():
    # entries of order 1e160 overflow the energy covariances, so tmin_b is an
    # error, not a NaN; tmin_a's and tmin_c's norms overflow too, to a valid 0
    h0 = hermitian(1e160 * np.array([[1.0, 0.5], [0.5, -1.0]]))
    hc = hermitian(1e160 * np.array([[0.3, 1.0], [1.0, -0.2]]))
    psig = PureState(np.array([0.6, 0.8], complex))
    inputs = BoundInputs(ControlHamiltonian(h0, hc, 1.0), basis_state(2, 0), psig)
    overflow = "the energy spread overflows: the operator entries are too large"
    with np.errstate(over="ignore", invalid="ignore"):
        report = compute_report(inputs, t_opt=1e-200)
        with pytest.raises(ValueError, match=overflow):
            tmin_b(inputs)
    assert math.isnan(report.t_min_b)
    assert report.errors == {"b": overflow}
    assert "b" not in report.inequality_flags
    assert f"t_min_b   = nan  [error: {overflow}]" in report.text_block()


def test_compute_report_measures_the_distance_once(monkeypatch):
    calls = []
    distances = bounds_module.fubini_study_distances
    monkeypatch.setattr(
        bounds_module, "fubini_study_distances", lambda a, b: calls.append(1) or distances(a, b)
    )
    compute_report(flip_inputs(1.0), t_opt=4.0)
    assert len(calls) == 1


def test_tqsl_star_of_a_geodesic_is_its_duration():
    # a half turn at constant speed: the trajectory time beside the report's t_opt
    ch = ControlHamiltonian(h0=scaled(0.5 * math.pi, SIGMA_X), hc=SIGMA_Z, u_max=0.0)
    field = PiecewiseConstantField(((1.0, 0.0),))
    psi0 = basis_state(2, 0)
    traj = propagate([ch], [field], psi0.amplitudes)
    inputs = BoundInputs(ch, psi0, basis_state(2, 1))
    report = compute_report(inputs, t_opt=1.0)
    assert tqsl_star(traj, inputs.psig).time == pytest.approx(1.0, abs=1e-9)
    assert report.t_opt == 1.0


# ---------------------------------------------------------------------------
# the stacked kernels against the scalar code they replaced, bit for bit


def _ref_variance_quadratic_coeffs(ch, chi):
    x = chi.amplitudes
    h0x = ch.h0.entries @ x
    hcx = ch.hc.entries @ x
    m0 = float(np.vdot(x, h0x).real)
    mc = float(np.vdot(x, hcx).real)
    c0 = max(float(np.vdot(h0x, h0x).real) - m0 * m0, 0.0)
    c2 = max(float(np.vdot(hcx, hcx).real) - mc * mc, 0.0)
    c1 = 2.0 * float(np.vdot(h0x, hcx).real) - 2.0 * m0 * mc
    return c0, c1, c2


def _ref_max_quadratic_root(c0, c1, c2, u_max):
    # the candidate search the closed form replaced: both edges, the centre and
    # the clamped vertex
    if math.isinf(u_max):
        if c2 > 0.0 or c1 != 0.0:
            return math.inf
        return math.sqrt(max(c0, 0.0))
    candidates = [-u_max, 0.0, u_max]
    if c2 > 0.0:
        candidates.append(min(max(-c1 / (2.0 * c2), -u_max), u_max))
    best = max(c0 + c1 * u + c2 * u * u for u in candidates)
    return math.sqrt(max(best, 0.0))


def _ref_overlap_sum(op, psi0, psig):
    vh = spectral(op)[1].conj().T
    return float(np.abs(vh @ psig.amplitudes) @ np.abs(vh @ psi0.amplitudes))


def _ref_tmin_a(inputs):
    dist = fubini_study_distance(inputs.psi0, inputs.psig)
    if dist == 0.0:
        return 0.0
    h0, hc = inputs.ch.h0.entries, inputs.ch.hc.entries
    t00 = float(np.vdot(h0, h0).real)
    t0c = float(np.vdot(hc, h0).real)
    tcc = float(np.vdot(hc, hc).real)
    norm_max = _ref_max_quadratic_root(t00, 2.0 * t0c, tcc, inputs.ch.u_max)
    if norm_max == 0.0:
        return math.inf
    if math.isinf(norm_max):
        return 0.0
    return dist / (math.sqrt(2.0) * norm_max)


def _ref_tmin_b(inputs):
    dist = fubini_study_distance(inputs.psi0, inputs.psig)
    if dist == 0.0:
        return 0.0
    spread = min(
        _ref_max_quadratic_root(*_ref_variance_quadratic_coeffs(inputs.ch, chi), inputs.ch.u_max)
        for chi in (inputs.psi0, inputs.psig)
    )
    if spread == 0.0:
        return math.inf
    if math.isinf(spread):
        return 0.0
    return dist / (2.0 * spread)


def _ref_tmin_c1(inputs):
    drift_norm = np.linalg.norm(inputs.ch.h0.entries)
    if drift_norm == 0.0:
        raise ValueError("zero drift: the control-eigenbasis bound needs h0 != 0")
    numerator = max(0.0, 1.0 - _ref_overlap_sum(inputs.ch.hc, inputs.psi0, inputs.psig))
    if numerator <= OVERLAP_SUM_ATOL:
        return 0.0
    return numerator / drift_norm


def _ref_tmin_c2(inputs):
    if math.isinf(inputs.ch.u_max):
        return 0.0
    numerator = max(0.0, 1.0 - _ref_overlap_sum(inputs.ch.h0, inputs.psi0, inputs.psig))
    if numerator <= OVERLAP_SUM_ATOL:
        return 0.0
    control_norm = np.linalg.norm(inputs.ch.hc.entries)
    if inputs.ch.u_max == 0.0 or control_norm == 0.0:
        return math.inf
    return numerator / (inputs.ch.u_max * control_norm)


REFERENCE = dict(zip(BOUND_NAMES, (_ref_tmin_a, _ref_tmin_b, _ref_tmin_c1, _ref_tmin_c2)))
SINGLE = dict(zip(BOUND_NAMES, (tmin_a, tmin_b, tmin_c1, tmin_c2)))


def _bits(values):
    return [float(v).hex() for v in values]


def _assert_stack_matches_reference(stack):
    reports = reports_of(stack)
    for k, (inputs, report) in enumerate(zip(stack, reports)):
        for name, ref in REFERENCE.items():
            try:
                expected = ref(inputs)
            except ValueError as exc:
                assert report.errors[name] == str(exc), (k, name)
                assert math.isnan(report.value(name))
                continue
            assert _bits([SINGLE[name](inputs)]) == _bits([expected]), (k, name)
            assert _bits([report.value(name)]) == _bits([max(0.0, expected)]), (k, name)
            assert name not in report.errors


def test_stacked_bounds_match_the_scalar_reference_on_the_two_level_problem():
    thetas = np.concatenate(
        (np.linspace(1e-3, 1.5, 25), HALF_PI - np.geomspace(0.07, 1e-4, 8))
    )
    specs = [LambdaSpec("unconstrained")] + [
        LambdaSpec(mode, value)
        for mode in ("factor", "absolute")
        for value in (1e-8, 1e-4, 0.2, 1.0, 6.0, 1e4, 1e8)
    ]
    for delta in (0.5, 1.3, 2.0):
        for spec in specs:
            problems = [
                LandauZenerProblem(delta, float(t), spec.resolve(delta, float(t)))
                for t in thetas
            ]
            _assert_stack_matches_reference([
                BoundInputs(p.control_hamiltonian(), *map(PureState, pair))
                for p, pair in zip(problems, boundary_state_arrays(problems).swapaxes(0, 1))
            ])


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 3: 2*acos|<a|b>| reads 4.2e-8 for bit-identical endpoints, so "
    "tmin_a and tmin_b sit above PASS_TOL where the cap is at most 1",
)
def test_coincident_endpoints_need_no_time_at_any_cap():
    # at theta = pi/2 steering a state to itself takes no time, so every bound
    # must pass against t_opt = 0; verify sets the cap to inf there, which hides this
    failed = {}
    for cap in (1e-8, 1.0, 1e8):
        problem = LandauZenerProblem(1.0, HALF_PI, cap)
        ends = boundary_state_arrays([problem])
        if not np.array_equal(ends[0], ends[1]):  # not an AssertionError: a real failure
            pytest.fail(f"the endpoints at cap {cap} are no longer bit-identical")
        (report,) = compute_reports([problem.control_hamiltonian()], *ends, [0.0])
        if not all(report.inequality_flags[n] for n in BOUND_NAMES):
            failed[cap] = [report.value(n) for n in BOUND_NAMES]
    assert failed == {}


def test_stacked_bounds_match_the_scalar_reference_on_a_random_pool():
    # d = 2..8, windows closed, finite and unbounded, operators fresh or
    # shared within the stack, and one instance with coincident endpoints
    rng = np.random.default_rng(412)
    for dim in range(2, 9):
        h0, hc = random_hermitian(rng, dim), random_hermitian(rng, dim)
        stack = []
        for i in range(24):
            if i % 3:
                h0, hc = random_hermitian(rng, dim), random_hermitian(rng, dim)
            u_max = (math.inf, 0.0, float(rng.uniform(0.5, 3.0)))[i % 3]
            psi0 = random_state(rng, dim)
            psig = psi0 if i == 7 else random_state(rng, dim)
            stack.append(BoundInputs(ControlHamiltonian(h0, hc, u_max), psi0, psig))
        _assert_stack_matches_reference(stack)


def test_zero_drift_mid_stack_fails_alone():
    zero_drift = BoundInputs(
        ControlHamiltonian(zero_operator(2), SIGMA_Z, 1.0), basis_state(2, 0), basis_state(2, 1)
    )
    stack = [flip_inputs(0.0), zero_drift, flip_inputs(2.0)]
    reports = reports_of(stack, t_opts=(4.0, 4.0, 4.0))
    assert list(reports[1].errors) == ["c1"]
    assert "zero drift" in reports[1].errors["c1"]
    assert math.isnan(reports[1].t_min_c1)
    for inputs, report in zip(stack[0::2], reports[0::2]):
        assert report == compute_report(inputs, t_opt=4.0)
        assert report.errors == {}


def test_a_failing_spectrum_fails_only_its_instances(monkeypatch):
    # the stacked eigh fails as a whole, then each spectrum is taken alone
    broken = hermitian([[0.0, 0.3], [0.3, 0.0]])
    eigh = quantum_module._phase_fixed_eigh

    def eigh_failing_on_broken(entries):
        if any(np.array_equal(m, broken.entries) for m in np.reshape(entries, (-1, 2, 2))):
            raise np.linalg.LinAlgError("eigh did not converge")
        return eigh(entries)

    monkeypatch.setattr(quantum_module, "_phase_fixed_eigh", eigh_failing_on_broken)
    ok = flip_inputs(1.0)
    stack = [ok, BoundInputs(ControlHamiltonian(HALF_SX, broken, 1.0), ok.psi0, ok.psig), ok]
    reports = reports_of(stack)
    assert reports[1].errors == {"c1": "eigh did not converge"}
    assert reports[0] == reports[2] == compute_report(ok)
    with pytest.raises(np.linalg.LinAlgError):
        tmin_c1(stack[1])
    # a drift whose eigh fails fails only its c2, and only under a finite window
    for u_max, errors in ((1.0, {"c2": "eigh did not converge"}), (math.inf, {})):
        failing_drift = BoundInputs(ControlHamiltonian(broken, SIGMA_Z, u_max), ok.psi0, ok.psig)
        reports = reports_of([ok, failing_drift, ok])
        assert reports[1].errors == errors
        assert reports[1].t_min_c1 == tmin_c1(failing_drift) > 0.0
        assert reports[0] == reports[2] == compute_report(ok)
    assert reports[1].t_min_c2 == tmin_c2(failing_drift) == 0.0
    with pytest.raises(np.linalg.LinAlgError):
        tmin_c2(BoundInputs(ControlHamiltonian(broken, SIGMA_Z, 1.0), ok.psi0, ok.psig))


def test_compute_reports_rejects_a_mixed_stack():
    three = BoundInputs(
        ControlHamiltonian(zero_operator(3), zero_operator(3)), basis_state(3, 0), basis_state(3, 1)
    )
    for stack in ([flip_inputs(1.0), three], []):
        with pytest.raises(ValueError, match="need instances of one dimension"):
            reports_of(stack)
    with pytest.raises(ValueError, match="^need one t_opt per instance: got 2 for 1$"):
        reports_of([flip_inputs(1.0)], (1.0, 2.0))


def test_compute_reports_checks_each_state_column():
    chs, psi0s, psigs = columns([flip_inputs(1.0)] * 3)
    for bad in ((chs, psi0s[:2], psigs), (chs, psi0s, psigs[:2])):
        with pytest.raises(ValueError, match="need one state per instance: got 2 for 3"):
            compute_reports(*bad)
    with pytest.raises(ValueError, match="dimension mismatch: 3 vs 2"):
        compute_reports(chs, psi0s, np.eye(3, dtype=complex))
    with pytest.raises(ValueError, match="state norm"):
        compute_reports(chs, psi0s, 1.5 * np.array(psigs))


def test_compute_reports_needs_one_t_opt_per_instance():
    chs, psi0s, psigs = columns([flip_inputs(1.0)] * 3)
    with pytest.raises(ValueError, match="^need one t_opt per instance: got 2 for 3$"):
        compute_reports(chs, psi0s, psigs, [1.0, 1.0])


WINDOWS = (0.0, 1e-8, 1.0, 1e8, math.inf)


def test_window_maximum_closed_form_equals_the_candidate_search():
    # zeros of both signs, subnormals, 1e+-300 and unit magnitudes of either
    # sign; c2 >= +0, as the Gram diagonal or clamped variance of every caller is
    rng = np.random.default_rng(419)
    n = 100_000
    specials = np.array([0.0, -0.0, 5e-324, 2.2e-308, 1e-300, 1e300, 1.0])

    def draw():
        kind = rng.integers(3, size=(3, n))
        wide = 10.0 ** rng.uniform(-310.0, 308.0, (3, n))  # below 2.2e-308: subnormal
        x = np.where(kind == 0, rng.choice(specials, (3, n)), rng.standard_normal((3, n)))
        x = np.where(kind == 1, wide, x)
        return x * rng.choice((-1.0, 1.0), (3, n))

    c0s, c1s, c2s = draw()
    for k, (c0, c1, c2) in enumerate(zip(c0s.tolist(), c1s.tolist(), np.abs(c2s).tolist())):
        u_max = WINDOWS[k % len(WINDOWS)]
        expected = _ref_max_quadratic_root(c0, c1, c2, u_max)
        got = _max_quadratic_root(c0, c1, c2, u_max)
        if math.isnan(expected):
            # the search meets c1*u = -inf and c2*u^2 = +inf at one edge; the
            # closed form adds magnitudes, and the quadratic is +inf there
            assert math.isinf(c1 * u_max) and math.isinf(c2 * u_max * u_max)
            assert got == math.inf
        else:
            assert got.hex() == expected.hex(), (c0, c1, c2, u_max)


def test_stacked_reports_equal_the_single_instance_reports():
    rng = np.random.default_rng(420)
    for dim in range(2, 9):
        stack = [
            BoundInputs(
                ControlHamiltonian(random_hermitian(rng, dim), random_hermitian(rng, dim), u_max),
                random_state(rng, dim),
                random_state(rng, dim),
            )
            for u_max in WINDOWS * 4
        ]
        t_opts = rng.uniform(0.0, 3.0, len(stack)).tolist()
        for k, report in enumerate(reports_of(stack, t_opts)):
            single = compute_report(stack[k], t_opt=t_opts[k])
            values = [report.value(name) for name in BOUND_NAMES]
            assert _bits(values) == _bits([single.value(name) for name in BOUND_NAMES]), k
            assert report == single, k
        _assert_stack_matches_reference(stack)
