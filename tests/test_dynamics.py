"""Piecewise-constant propagation, path geometry and the trajectory checks."""
import functools
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qslbounds import (
    ControlHamiltonian,
    HermitianOperator,
    LandauZenerProblem,
    PiecewiseConstantField,
    PureState,
    SIGMA_X,
    SIGMA_Z,
    TRAJECTORY_CHECKS,
    TrajectoryStack,
    arenz_overlap_inequality_check,
    arenz_overlap_residuals,
    bhattacharyya_check,
    bhattacharyya_residuals,
    boundary_state_arrays,
    energy_variance,
    fubini_study_distance,
    ground_state,
    norm_drifts,
    optimal_protocol,
    path_length,
    path_lengths,
    pfeifer_envelope_check,
    pfeifer_envelope_residuals,
    propagate,
    sin_star,
    tqsl_star,
    tqsl_stars,
    trajectory_residuals,
    unitary_step,
)
from qslbounds import dynamics
from qslbounds.cli import LambdaSpec, SweepConfig
from qslbounds.quantum import abs_overlaps
from qslbounds.tolerances import BHATTACHARYYA_TOL, TARGET_FIDELITY_ATOL
from conftest import (
    basis_state,
    fidelity,
    instance,
    overlap,
    random_control_problem,
    random_state,
    sampled_spreads,
    scaled,
    segment_hamiltonians,
    zero_operator,
)

RABI = ControlHamiltonian(h0=scaled(0.5 * math.pi, SIGMA_X), hc=SIGMA_Z)
FREE_UNIT = PiecewiseConstantField(((1.0, 0.0),))


# ---------------------------------------------------------------------------
# construction and validation


def test_control_hamiltonian_rejects_dim_mismatch():
    with pytest.raises(ValueError):
        ControlHamiltonian(h0=SIGMA_X, hc=zero_operator(3))


def test_control_hamiltonian_rejects_negative_window():
    with pytest.raises(ValueError):
        ControlHamiltonian(h0=SIGMA_X, hc=SIGMA_Z, u_max=-1.0)


def test_hamiltonian_rejects_amplitude_beyond_window():
    ch = ControlHamiltonian(h0=SIGMA_X, hc=SIGMA_Z, u_max=2.0)
    segment_hamiltonians(ch, [2.0])
    with pytest.raises(ValueError):
        segment_hamiltonians(ch, [2.1])


def test_field_rejects_empty():
    with pytest.raises(ValueError):
        PiecewiseConstantField(())


def test_field_rejects_nonpositive_duration():
    with pytest.raises(ValueError):
        PiecewiseConstantField(((0.0, 1.0),))


def test_field_rejects_infinite_amplitude():
    with pytest.raises(ValueError):
        PiecewiseConstantField(((1.0, math.inf),))


def test_field_totals():
    f = PiecewiseConstantField(((0.5, 2.0), (1.5, -1.0)))
    assert f.total_duration == pytest.approx(2.0)


def test_propagate_rejects_dim_mismatch():
    with pytest.raises(ValueError):
        propagate([RABI], [FREE_UNIT], basis_state(3, 0).amplitudes)


def test_propagate_rejects_zero_samples():
    # and every count that is not an integer: a float, even a whole one, and a bool
    for samples in (0, 2.5, 3.0, True):
        with pytest.raises(ValueError, match="^samples_per_segment must be a positive integer$"):
            propagate([RABI], [FREE_UNIT], basis_state(2, 0).amplitudes, samples)
    traj = propagate([RABI], [FREE_UNIT], basis_state(2, 0).amplitudes, np.int64(3))
    assert traj.n_samples == 4


def test_trajectory_records_its_drive(rng):
    ch, field, psi0 = random_control_problem(rng, 4)
    traj = propagate([ch], [field], psi0.amplitudes, samples_per_segment=7)
    assert _same_bits(traj.pairs, np.array([[ch.h0.entries, ch.hc.entries]]))
    assert _same_bits(traj.segments, np.array([field.segments]))
    assert traj.hamiltonians.shape == (1, len(field.segments), 4, 4)
    for drive in (traj.pairs, traj.segments, traj.hamiltonians):
        assert not drive.flags.writeable
    for h, (_, u) in zip(traj.hamiltonians[0], field.segments):
        assert _same_bits(h, ch.h0.entries + u * ch.hc.entries)


def test_checks_build_no_operator(monkeypatch):
    # propagation builds the segment Hamiltonians as one array, and the checks
    # read it: no HermitianOperator is constructed on the way
    built = []
    check = HermitianOperator.__post_init__
    monkeypatch.setattr(
        HermitianOperator, "__post_init__", lambda self: built.append(self) or check(self)
    )
    field = PiecewiseConstantField(((0.3, 0.4), (0.2, -0.7), (0.5, 0.0)))
    traj = propagate([RABI], [field], basis_state(2, 0).amplitudes, samples_per_segment=9)
    bhattacharyya_check(traj)
    pfeifer_envelope_check(traj, basis_state(2, 1))
    arenz_overlap_inequality_check(traj, PureState(traj.ends[1, 0]))
    tqsl_star(traj, basis_state(2, 1))
    assert built == []


def test_stacked_builder_keeps_both_guards():
    # hc is Hermitian within tolerance, 1e3 * hc is not
    hc = HermitianOperator(np.array([[1.0, 5e-13j], [0.0, -1.0]]))
    ch = ControlHamiltonian(h0=SIGMA_X, hc=hc)
    with pytest.raises(ValueError, match="not Hermitian"):
        propagate([ch], [PiecewiseConstantField(((1.0, 1e3),))], basis_state(2, 0).amplitudes)
    # the window rule names the first amplitude outside it, here in the second instance
    capped = ControlHamiltonian(h0=SIGMA_X, hc=SIGMA_Z, u_max=1.0)
    fields = (
        PiecewiseConstantField(((1.0, 0.5), (1.0, -1.0))),
        PiecewiseConstantField(((1.0, 1.5), (1.0, -2.5))),
    )
    with pytest.raises(ValueError, match=r"amplitude 1\.5 exceeds u_max 1\.0"):
        propagate((capped, capped), fields, _rows((basis_state(2, 0),) * 2))


def test_boundary_states_are_built_once():
    traj = propagate([RABI], [FREE_UNIT], basis_state(2, 0).amplitudes, samples_per_segment=4)
    assert traj.ends is traj.ends
    assert np.array_equal(traj.ends[1, 0], traj.states[0, -1])
    assert np.array_equal(traj.ends[0, 0], traj.states[0, 0])


def test_propagate_hands_back_the_stack_it_built(monkeypatch):
    built = []
    init = dynamics.TrajectoryStack.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(dynamics.TrajectoryStack, "__init__", counting_init)
    traj = propagate([RABI], [FREE_UNIT], basis_state(2, 0).amplitudes, samples_per_segment=4)
    tqsl_star(traj, basis_state(2, 1))
    path_length(traj)
    bhattacharyya_check(traj)
    assert len(built) == 1 and built[0] is traj


def _hand_built(chs, ends):
    """A stack over FREE_UNIT's unit time: instance b under chs[b], from |0>
    straight to ends[b]."""
    return TrajectoryStack(
        times=np.array([[0.0, 1.0]] * len(chs)),
        states=np.array([[[1.0, 0.0], end] for end in ends], dtype=complex),
        segment_index=np.array([0, 0]),
        pairs=np.array([[ch.h0.entries, ch.hc.entries] for ch in chs]),
        segments=np.array([FREE_UNIT.segments] * len(chs)),
        hamiltonians=np.concatenate([segment_hamiltonians(ch, [0.0]) for ch in chs]),
    )


def test_boundary_states_keep_the_norm_check():
    traj = _hand_built([ControlHamiltonian(h0=zero_operator(2), hc=SIGMA_Z)], [[0.0, 1.1]])
    with pytest.raises(ValueError, match="norm"):
        traj.ends


# ---------------------------------------------------------------------------
# stacked propagation: one kernel for a stack of same-shape instances


def _reference_propagate(ch, field, psi0, samples_per_segment):
    """The per-segment loop form of propagate, kept as the bit-level reference,
    with each H(u_j) formed on its own and deltaE_j taken by np.vdot in the
    segment's start state."""
    hamiltonians = [ch.h0.entries + amp * ch.hc.entries for _, amp in field.segments]
    times, seg_idx, blocks, spreads = [0.0], [0], [psi0.amplitudes[:, None]], []
    psi, t_start = psi0.amplitudes, 0.0
    for j, ((dur, _), h) in enumerate(zip(field.segments, hamiltonians)):
        start = np.ascontiguousarray(psi)
        hpsi = h @ start
        mean = np.vdot(start, hpsi).real
        spreads.append(math.sqrt(max(np.vdot(hpsi, hpsi).real - mean * mean, 0.0)))
        eigvals, vecs = np.linalg.eigh(h)
        if j > 0:
            times.append(t_start)
            seg_idx.append(j)
            blocks.append(psi[:, None])
        taus = np.linspace(0.0, dur, samples_per_segment + 1)[1:]
        coeff = vecs.conj().T @ psi
        block = vecs @ (np.exp(-1j * np.outer(eigvals, taus)) * coeff[:, None])
        times.extend(t_start + taus)
        seg_idx.extend([j] * samples_per_segment)
        blocks.append(block)
        psi = block[:, -1]
        t_start += dur
    arrays = (np.asarray(times), np.hstack(blocks).T, np.asarray(seg_idx, dtype=int))
    return (*arrays, np.array(hamiltonians)), np.array(spreads)


TRAJECTORY_ARRAYS = ("times", "states", "segment_index", "hamiltonians")


def _harness_problems(count=300, seed=5):
    rng = np.random.default_rng(seed)
    problems = []
    for _ in range(count):
        dim = int(rng.integers(2, 9))
        ch, field, psi0 = random_control_problem(rng, dim)
        problems.append((ch, field, psi0, random_state(rng, dim)))
    return problems


def _extreme_duration_problems(count=100, seed=17):
    # the harness draws with each segment lasting 10^k, k uniform in [-8, 8],
    # and the first two pinned to the ends of that range
    rng = np.random.default_rng(seed)
    problems = []
    for i, (ch, field, psi0, phi) in enumerate(_harness_problems(count, seed)):
        exponents = rng.uniform(-8.0, 8.0, len(field.segments))
        if i < 2:
            exponents[:] = (-8.0, 8.0)[i]
        segments = tuple((float(10.0**k), amp) for k, (_, amp) in zip(exponents, field.segments))
        problems.append((ch, PiecewiseConstantField(segments), psi0, phi))
    return problems


def _rows(states):
    """The amplitudes of states, one per row: the (B, d) form the stacked calls take."""
    return np.array([s.amplitudes for s in states])


def _stacks(problems):
    groups = {}
    for i, (ch, field, *_) in enumerate(problems):
        groups.setdefault((ch.dim, len(field.segments)), []).append(i)
    for idx in groups.values():
        yield idx, tuple(zip(*(problems[i] for i in idx)))


def _same_bits(a, b) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _arrays(stack, k=0):
    """The TRAJECTORY_ARRAYS of instance k of stack; segment_index is shared."""
    return stack.times[k], stack.states[k], stack.segment_index, stack.hamiltonians[k]


def test_stacks_reproduce_the_loop_propagation_bit_for_bit():
    # 400 instances, d = 2..8, 1-3 segments of 0.1..1 or 1e-8..1e8: a grouped
    # stack, a stack of one and the per-segment loop agree in every bit of all
    # four arrays and of the per-segment spreads
    problems = _harness_problems() + _extreme_duration_problems()
    for samples in (1, 7, 48, 200):
        for idx, (chs, fields, psi0s, _) in _stacks(problems):
            stack = propagate(chs, fields, _rows(psi0s), samples_per_segment=samples)
            assert len(stack) == len(idx)
            for k in range(len(idx)):
                single = propagate([chs[k]], [fields[k]], psi0s[k].amplitudes, samples)
                arrays, spreads = _reference_propagate(chs[k], fields[k], psi0s[k], samples)
                for name, got, alone, ref in zip(
                    TRAJECTORY_ARRAYS, _arrays(stack, k), _arrays(single), arrays, strict=True
                ):
                    assert _same_bits(got, ref), (samples, idx[k], name)
                    assert _same_bits(alone, ref), (samples, idx[k], name)
                assert _same_bits(stack.spreads[k], spreads), (samples, idx[k])
                assert _same_bits(single.spreads[0], spreads), (samples, idx[k])


# the sweep's caps: the three figures', then absolute and factor caps at the
# ends of the supported range
SWEEP_CAPS = (
    LambdaSpec("unconstrained"),
    LambdaSpec("factor", 6.0),
    LambdaSpec("factor", 0.2),
    LambdaSpec("absolute", 1e-8),
    LambdaSpec("absolute", 1e8),
    LambdaSpec("factor", 1e-8),
    LambdaSpec("factor", 1e8),
)


@pytest.mark.parametrize("spec", SWEEP_CAPS, ids=str)
def test_sweep_points_propagate_as_the_loop_reference_bit_for_bit(spec):
    # every point of a 50-point sweep, with its own optimal protocol and
    # boundary state, at the 2 samples per segment the sweep propagates
    cfg = SweepConfig(lambda_spec=spec)
    thetas = np.linspace(cfg.theta_min, cfg.theta_max, cfg.theta_count).tolist()
    problems = [
        LandauZenerProblem(cfg.delta, t, spec.resolve(cfg.delta, t)) for t in thetas
    ]
    for problem, row in zip(problems, boundary_state_arrays(problems)[0], strict=True):
        ch, field = problem.control_hamiltonian(), optimal_protocol(problem).field
        psi0 = PureState(row)
        traj = propagate([ch], [field], psi0.amplitudes, samples_per_segment=2)
        arrays, spreads = _reference_propagate(ch, field, psi0, 2)
        for name, got, ref in zip(TRAJECTORY_ARRAYS, _arrays(traj), arrays, strict=True):
            assert _same_bits(got, ref), (problem.theta, name)
        assert _same_bits(traj.spreads[0], spreads), problem.theta


def _reference_residuals(traj, ch, field, phi):
    """The Anandan-Aharonov, Pfeifer and Arenz residuals of a stack of one driven
    by ch under field, the Arenz target being its endpoint, from per-instance
    scalar calls: overlaps by np.vdot, spreads by energy_variance and the drive's
    unitary by unitary_step of the drive's area, its sum of duration*amplitude."""
    psi0, final = PureState(traj.ends[0, 0]), PureState(traj.ends[1, 0])
    times, states = traj.times[0], traj.states[0]
    geodesic = 2.0 * math.acos(min(abs(complex(np.vdot(psi0.amplitudes, final.amplitudes))), 1.0))
    segment_spreads = [
        [energy_variance(chi, HermitianOperator(h)) for h in traj.hamiltonians[0]]
        for chi in (phi, psi0)
    ]
    anchored = np.array(segment_spreads)[:, traj.segment_index]
    angle = np.min(dynamics._running_integral(times, anchored), axis=0)
    delta = math.asin(min(abs(overlap(phi, psi0)), 1.0))
    overlaps = np.abs(states @ phi.amplitudes.conj()[:, None])[:, 0]
    lower, upper = sin_star(delta - angle), sin_star(delta + angle)
    outside = max(np.max(lower - overlaps), np.max(overlaps - upper))
    area = functools.reduce(operator.add, (d * a for d, a in field.segments), 0.0)
    kicked = unitary_step(ch.hc, area) @ psi0.amplitudes[:, None]
    reached = abs(complex(np.vdot(final.amplitudes, kicked)))
    arenz = 1.0 - reached - np.linalg.norm(ch.h0.entries) * float(times[-1])
    return geodesic - path_length(traj), max(float(outside), 0.0), arenz


def test_trajectory_residuals_equal_the_scalar_references_bit_for_bit():
    # the per-instance arrays behind proptest's anandan_aharonov, pfeifer,
    # arenz and bhattacharyya lines, on 400 instances, d = 2..8, segments of
    # 0.1..1 or 1e-8..1e8; the last against each instance propagated alone
    names = ["anandan_aharonov", "pfeifer", "arenz", "norm_drift", "bhattacharyya"]
    assert [name for name, _ in TRAJECTORY_CHECKS] == names
    problems = _harness_problems() + _extreme_duration_problems()
    for idx, (chs, fields, psi0s, phis) in _stacks(problems):
        stack = propagate(chs, fields, _rows(psi0s), samples_per_segment=48)
        residuals = trajectory_residuals(stack, stack.ends[1], _rows(phis))
        assert residuals.shape == (5, len(idx))
        for k in range(len(idx)):
            alone = propagate([chs[k]], [fields[k]], psi0s[k].amplitudes, samples_per_segment=48)
            expected = _reference_residuals(instance(stack, k), chs[k], fields[k], phis[k])
            expected = (*expected, bhattacharyya_check(alone))
            got = residuals[[0, 1, 2, 4], k].tolist()
            assert [v.hex() for v in got] == [v.hex() for v in expected], idx[k]


def test_a_missed_target_reads_nan_in_its_arenz_entry_only():
    problems = _harness_problems(count=40, seed=11)
    chs, fields, psi0s, phis = next(p for i, p in _stacks(problems) if len(i) >= 3)
    stack = propagate(chs, fields, _rows(psi0s), samples_per_segment=7)
    reached = trajectory_residuals(stack, stack.ends[1], _rows(phis))
    # instance 1 is asked for a state orthogonal to its endpoint
    targets, final = stack.ends[1].copy(), stack.ends[1, 1]
    orthogonal = np.eye(stack.dim)[0] - final.conj()[0] * final
    targets[1] = orthogonal / np.linalg.norm(orthogonal)
    missed = trajectory_residuals(stack, targets, _rows(phis))
    assert np.argwhere(np.isnan(missed)).tolist() == [[2, 1]]
    missed[2, 1] = reached[2, 1]
    assert _same_bits(missed, reached)
    with pytest.raises(ValueError, match=r"^trajectory missed the target \(fidelity "):
        arenz_overlap_residuals(stack, targets)


def test_arenz_drive_areas_are_summed_left_to_right(monkeypatch):
    # the built-in sum of floats compensates since Python 3.12 and would give 1.0
    ch = ControlHamiltonian(SIGMA_Z, SIGMA_X, math.inf)
    field = PiecewiseConstantField(np.array([[1.0, 1e16], [1.0, 1.0], [1.0, -1e16]]))
    stack = propagate([ch], [field], PureState([1.0, 0.0]).amplitudes, samples_per_segment=2)
    areas, steps = [], dynamics.unitary_steps
    monkeypatch.setattr(dynamics, "unitary_steps", lambda ops, a: areas.extend(a) or steps(ops, a))
    arenz_overlap_residuals(stack, stack.ends[1])
    assert [a.hex() for a in areas] == [0.0.hex()]


def test_overlaps_of_strided_columns_round_as_vdot():
    # the strided first and last columns of the 400 harness stacks, against
    # abs(np.vdot) of contiguous copies, in every bit
    problems = _harness_problems() + _extreme_duration_problems()
    for idx, (chs, fields, psi0s, _) in _stacks(problems):
        stack = propagate(chs, fields, _rows(psi0s), samples_per_segment=48)
        first, last = stack.states[:, 0], stack.states[:, -1]
        got = abs_overlaps(first, last)
        expected = [abs(np.vdot(a.copy(), b.copy())) for a, b in zip(first, last)]
        assert [v.hex() for v in got] == [float(v).hex() for v in expected], idx


def test_per_instance_states_must_match_the_stack_count():
    problems = _harness_problems(count=40, seed=11)
    chs, fields, psi0s, _ = next(p for i, p in _stacks(problems) if len(i) >= 3)
    stack = propagate(chs, fields, _rows(psi0s), samples_per_segment=7)
    finals = stack.ends[1]
    off_norm = finals.copy()
    off_norm[-1] *= 1.0 + 1e-6
    checks = (
        arenz_overlap_residuals,
        pfeifer_envelope_residuals,
        tqsl_stars,
        lambda stack, psi0s: propagate(chs, fields, psi0s, samples_per_segment=1),
    )
    for check in checks:
        for states in (finals[:1], np.concatenate((finals, finals[:1]))):
            message = rf"^need one state per instance: got {len(states)} for {len(stack)}$"
            with pytest.raises(ValueError, match=message):
                check(stack, states)
        message = rf"^dimension mismatch: {stack.dim + 1} vs {stack.dim}$"
        with pytest.raises(ValueError, match=message):
            check(stack, np.eye(stack.dim + 1)[np.zeros(len(stack), dtype=int)])
        with pytest.raises(ValueError, match=r"^state norm .* deviates from 1 beyond"):
            check(stack, off_norm)


def test_stacked_checks_equal_the_single_trajectory_floats():
    problems = _harness_problems(count=120, seed=11)
    for samples in (7, 48):
        for idx, (chs, fields, psi0s, phis) in _stacks(problems):
            stack = propagate(chs, fields, _rows(psi0s), samples_per_segment=samples)
            finals = stack.ends[1]
            stacked = (
                path_lengths(stack),
                bhattacharyya_residuals(stack),
                pfeifer_envelope_residuals(stack, _rows(phis)),
                arenz_overlap_residuals(stack, finals),
                norm_drifts(stack),
            )
            for values in stacked:
                assert values.shape == (len(idx),)
            for k in range(len(idx)):
                traj = instance(stack, k)
                single = (
                    path_length(traj),
                    bhattacharyya_check(traj),
                    pfeifer_envelope_check(traj, phis[k]),
                    arenz_overlap_inequality_check(traj, PureState(finals[k])),
                    norm_drifts(traj)[0],
                )
                assert [float(v[k]) for v in stacked] == list(single)


def test_stack_entries_carry_their_drive(rng):
    problems = [random_control_problem(rng, 3) for _ in range(6)]
    problems = [p for p in problems if len(p[1].segments) == len(problems[0][1].segments)]
    chs, fields, psi0s = zip(*problems)
    stack = propagate(chs, fields, _rows(psi0s), samples_per_segment=5)
    for k, (ch, field, psi0) in enumerate(problems):
        traj = instance(stack, k)
        assert _same_bits(traj.pairs[0], np.array([ch.h0.entries, ch.hc.entries]))
        assert _same_bits(traj.segments[0], np.array(field.segments))
        assert np.shares_memory(traj.hamiltonians, stack.hamiltonians)
        assert not stack.hamiltonians.flags.writeable
        for j, (_, u) in enumerate(field.segments):
            assert _same_bits(stack.hamiltonians[k, j], ch.h0.entries + u * ch.hc.entries)
        assert np.array_equal(stack.ends[0, k], psi0.amplitudes)


def test_of_joins_the_per_instance_propagations():
    # a stack holds the arrays of its instances propagated one by one, joined
    problems = _harness_problems(count=120, seed=11)
    for samples in (1, 2, 7):
        for idx, (chs, fields, psi0s, _) in _stacks(problems):
            stack = propagate(chs, fields, _rows(psi0s), samples_per_segment=samples)
            alone = [
                propagate([ch], [field], psi0.amplitudes, samples_per_segment=samples)
                for ch, field, psi0 in zip(chs, fields, psi0s)
            ]
            for name in (*TRAJECTORY_ARRAYS, "pairs", "segments", "spreads"):
                if name == "segment_index":  # shared by the instances, not stacked
                    joined = alone[0].segment_index
                else:
                    joined = np.concatenate([getattr(traj, name) for traj in alone])
                assert _same_bits(joined, getattr(stack, name)), (samples, name)
            for drive in (stack.pairs, stack.segments, stack.hamiltonians):
                assert not drive.flags.writeable


SINGLE_FORMS = {
    "path_length": path_length,
    "bhattacharyya_check": bhattacharyya_check,
    "pfeifer_envelope_check": lambda traj: pfeifer_envelope_check(traj, basis_state(2, 1)),
    "tqsl_star": lambda traj: tqsl_star(traj, basis_state(2, 1)),
    "arenz_overlap_inequality_check": (
        lambda traj: arenz_overlap_inequality_check(traj, PureState(traj.ends[1, 0]))
    ),
}


@pytest.mark.parametrize("form", list(SINGLE_FORMS))
def test_single_trajectory_forms_reject_a_stack_of_two(form):
    # each reads the value of instance 0, so a longer stack would pass silently
    psi0s = _rows((basis_state(2, 0), basis_state(2, 1)))
    stack = propagate((RABI, RABI), (FREE_UNIT, FREE_UNIT), psi0s, samples_per_segment=4)
    with pytest.raises(ValueError, match=r"^need a stack of one trajectory, got 2$"):
        SINGLE_FORMS[form](stack)
    SINGLE_FORMS[form](instance(stack, 0))


def test_propagate_stack_rejects_mixed_shapes():
    two_segments = PiecewiseConstantField(((0.5, 0.0), (0.5, 0.0)))
    with pytest.raises(ValueError, match="segment count"):
        propagate((RABI, RABI), (FREE_UNIT, two_segments), _rows((basis_state(2, 0),) * 2))
    ch3 = ControlHamiltonian(h0=zero_operator(3), hc=zero_operator(3))
    with pytest.raises(ValueError, match="dimension"):
        propagate((RABI, ch3), (FREE_UNIT,) * 2, _rows((basis_state(2, 0),) * 2))
    with pytest.raises(ValueError, match="dimension mismatch"):
        propagate((RABI,), (FREE_UNIT,), _rows((basis_state(3, 0),)))
    with pytest.raises(ValueError, match="one control Hamiltonian"):
        propagate((RABI, RABI), (FREE_UNIT,), _rows((basis_state(2, 0),)))
    with pytest.raises(ValueError, match="one control Hamiltonian"):
        propagate((), (), ())


# ---------------------------------------------------------------------------
# exactness of the per-segment solver


def test_rabi_half_period_flips():
    # H = (pi/2) sx for unit time sends |0> to -i|1>
    traj = propagate([RABI], [FREE_UNIT], basis_state(2, 0).amplitudes)
    final = traj.ends[1, 0]
    assert final[1] == pytest.approx(-1.0j, abs=1e-12)
    assert abs(final[0]) < 1e-12
    psi0, final = PureState(traj.ends[0, 0]), PureState(traj.ends[1, 0])
    assert fidelity(final, psi0) == pytest.approx(0.0, abs=1e-12)


def test_rabi_path_length_is_geodesic():
    traj = propagate([RABI], [FREE_UNIT], basis_state(2, 0).amplitudes)
    assert path_length(traj) == pytest.approx(math.pi, abs=1e-10)
    psi0, final = PureState(traj.ends[0, 0]), PureState(traj.ends[1, 0])
    assert fubini_study_distance(psi0, final) == pytest.approx(math.pi, abs=1e-7)


def test_bang_bang_field_reaches_target():
    # symmetric two-bang drive for delta = 1, gamma = 1, cap 0.05; the bang
    # time comes from the constrained-optimum arcsine expression
    delta, gamma, cap = 1.0, 1.0, 0.05
    rabi_sq = cap * cap + 0.25 * delta * delta
    t_bang = math.asin(
        math.sqrt(gamma * rabi_sq / (0.5 * delta * delta * (cap + gamma)))
    ) / math.sqrt(rabi_sq)
    field = PiecewiseConstantField(((t_bang, +cap), (t_bang, -cap)))
    ch = ControlHamiltonian(h0=scaled(0.5 * delta, SIGMA_X), hc=SIGMA_Z, u_max=cap)
    psi0, psig = (
        ground_state(HermitianOperator(bias * SIGMA_Z.entries + (0.5 * delta) * SIGMA_X.entries))
        for bias in (-gamma, gamma)
    )
    traj = propagate([ch], [field], psi0.amplitudes)
    assert fidelity(PureState(traj.ends[1, 0]), psig) >= 0.999


def test_trajectory_sampling_layout():
    field = PiecewiseConstantField(((0.5, 1.0), (0.25, -1.0), (0.25, 0.0)))
    traj = propagate([RABI], [field], basis_state(2, 0).amplitudes, samples_per_segment=10)
    # 1 start node + 10 per segment + a duplicated node at each interior boundary
    assert traj.n_samples == 1 + 3 * 10 + 2
    assert traj.times[0, 0] == 0.0
    assert traj.times[0, -1] == pytest.approx(1.0, abs=1e-15)
    diffs = np.diff(traj.times[0])
    assert np.all(diffs >= 0.0)
    assert np.count_nonzero(diffs == 0.0) == 2
    # the duplicated node carries the follow-on segment's index
    dup = np.where(diffs == 0.0)[0]
    assert list(traj.segment_index[dup]) == [0, 1]
    assert list(traj.segment_index[dup + 1]) == [1, 2]


def test_trajectory_samples_stay_normalized(rng):
    ch, field, psi0 = random_control_problem(rng, 4)
    traj = propagate([ch], [field], psi0.amplitudes, samples_per_segment=50)
    norms = np.linalg.norm(traj.states[0], axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-12


def test_trajectory_variance_matches_pointwise_recompute(rng):
    # the per-segment spread, taken once at the segment's start, against
    # deltaE recomputed from the state at samples throughout the segment
    ch, field, psi0 = random_control_problem(rng, 3)
    traj = propagate([ch], [field], psi0.amplitudes, samples_per_segment=20)
    amps = [a for _, a in field.segments]
    for k in range(0, traj.n_samples, 7):
        j = traj.segment_index[k]
        h = HermitianOperator(ch.h0.entries + amps[j] * ch.hc.entries)
        direct = energy_variance(PureState(traj.states[0, k]), h)
        assert traj.spreads[0, j] == pytest.approx(direct, abs=1e-11)


def test_variance_constant_within_segments(rng):
    # <H> and <H^2> are conserved under exp(-iHt), so the spread recomputed
    # at every sample must be flat between boundary nodes
    ch, field, psi0 = random_control_problem(rng, 4)
    traj = propagate([ch], [field], psi0.amplitudes, samples_per_segment=30)
    sampled = sampled_spreads(traj)
    for j in range(len(field.segments)):
        vals = sampled[traj.segment_index == j]
        assert np.max(vals) - np.min(vals) < 1e-10


def test_path_length_is_exact_per_segment_sum(rng):
    # deltaE is conserved on each segment, so the length is 2 * sum d_j deltaE_j
    # with deltaE_j taken in the segment-start state, on any sample grid
    ch, field, psi0 = random_control_problem(rng, 3)
    expected = 0.0
    psi = psi0
    for dur, amp in field.segments:
        h = HermitianOperator(ch.h0.entries + amp * ch.hc.entries)
        expected += 2.0 * dur * energy_variance(psi, h)
        psi = PureState(unitary_step(h, dur) @ psi.amplitudes)
    for samples in (1, 400):
        traj = propagate([ch], [field], psi0.amplitudes, samples_per_segment=samples)
        assert path_length(traj) == pytest.approx(expected, abs=1e-12)


def test_evolution_reverses_under_negated_generators(rng):
    ch, field, psi0 = random_control_problem(rng, 4)
    traj = propagate([ch], [field], psi0.amplitudes, samples_per_segment=5)
    back_field = PiecewiseConstantField(tuple(reversed(field.segments)))
    back_ch = ControlHamiltonian(scaled(-1.0, ch.h0), scaled(-1.0, ch.hc), ch.u_max)
    back = propagate([back_ch], [back_field], traj.ends[1, 0], samples_per_segment=5)
    assert np.allclose(back.ends[1, 0], psi0.amplitudes, atol=1e-9)


# ---------------------------------------------------------------------------
# Anandan-Aharonov: geodesic never exceeds the swept path


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 6))
def test_path_length_dominates_geodesic(seed, dim):
    rng = np.random.default_rng(seed)
    ch, field, psi0 = random_control_problem(rng, dim)
    traj = propagate([ch], [field], psi0.amplitudes, samples_per_segment=40)
    geodesic = fubini_study_distance(psi0, PureState(traj.ends[1, 0]))
    assert geodesic <= path_length(traj) + 1e-6


# ---------------------------------------------------------------------------
# survival-angle rate check


def test_bhattacharyya_saturated_by_resonant_drive():
    # pure sx rotation from |0>: arccos|<psi0|psi>| grows linearly at exactly
    # the spread rate, so the exact rate leaves only rounding on any grid
    ch = ControlHamiltonian(h0=scaled(0.25 * math.pi, SIGMA_X), hc=SIGMA_Z)
    for samples in (1, 200):
        traj = propagate([ch], [FREE_UNIT], basis_state(2, 0).amplitudes, samples)
        assert abs(bhattacharyya_check(traj)) <= 1e-12


def test_bhattacharyya_eigenstate_is_exactly_zero():
    # a stationary state never leaves psi0, every sample sits under the
    # round-off floor, and the residual of a motionless path is 0
    ch = ControlHamiltonian(h0=SIGMA_Z, hc=SIGMA_X)
    traj = propagate([ch], [FREE_UNIT], basis_state(2, 0).amplitudes)
    assert bhattacharyya_check(traj) == 0.0


def _central_difference_residual(traj: TrajectoryStack) -> float:
    """Reference rate of a stack of one: central differences of arccos(sqrt(P))
    at samples interior to their segment, where the drive is smooth."""
    states, times = traj.states[0], traj.times[0]
    survival = np.abs(states @ states[0].conj()) ** 2
    angle = np.arccos(np.sqrt(np.clip(survival, 0.0, 1.0)))
    seg = traj.segment_index
    k = np.arange(1, traj.n_samples - 1)
    k = k[(seg[k - 1] == seg[k]) & (seg[k] == seg[k + 1])]
    deriv = (angle[k + 1] - angle[k - 1]) / (times[k + 1] - times[k - 1])
    return float(np.max(deriv - sampled_spreads(traj)[k]))


def test_bhattacharyya_matches_central_difference_reference(rng):
    # at 2000 samples per segment the finite-difference residual sits within
    # 4.9e-6 of the exact one on these instances, and within 3.1e-6 on the
    # same draw from seeds 1 and 2
    for _ in range(30):
        dim = int(rng.integers(2, 6))
        ch, field, psi0 = random_control_problem(rng, dim)
        traj = propagate([ch], [field], psi0.amplitudes, samples_per_segment=2000)
        exact = bhattacharyya_check(traj)
        assert abs(exact - _central_difference_residual(traj)) <= 1e-5


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5))
def test_bhattacharyya_random_instances(seed, dim):
    rng = np.random.default_rng(seed)
    ch, field, psi0 = random_control_problem(rng, dim)
    traj = propagate([ch], [field], psi0.amplitudes, samples_per_segment=200)
    assert bhattacharyya_check(traj) <= BHATTACHARYYA_TOL


# ---------------------------------------------------------------------------
# overlap envelopes


def test_pfeifer_envelope_tight_at_start(rng):
    ch, field, psi0 = random_control_problem(rng, 3)
    traj = propagate([ch], [field], psi0.amplitudes, samples_per_segment=20)
    phi = random_state(rng, 3)
    (lower,), (upper,) = dynamics._pfeifer_envelopes(traj, phi.amplitudes[None])
    start = abs(overlap(phi, psi0))
    assert lower[0] == pytest.approx(start, abs=1e-12)
    assert upper[0] == pytest.approx(start, abs=1e-12)


def test_pfeifer_envelope_stationary_state_pins_overlap():
    # phi = psi0 = eigenstate of every H(u): zero accumulated spread keeps
    # both envelopes at 1 for all time, and the overlap indeed stays there
    ch = ControlHamiltonian(h0=zero_operator(2), hc=SIGMA_Z)
    field = PiecewiseConstantField(((0.7, 1.3), (0.4, -0.2)))
    psi0 = basis_state(2, 0)
    traj = propagate([ch], [field], psi0.amplitudes)
    (lower,), (upper,) = dynamics._pfeifer_envelopes(traj, psi0.amplitudes[None])
    assert np.all(lower == 1.0)
    assert np.all(upper == 1.0)
    # the sampled overlap itself can round to 1 - eps just under the envelope
    assert pfeifer_envelope_check(traj, psi0) <= 1e-12


def test_pfeifer_envelope_rejects_dim_mismatch(rng):
    ch, field, psi0 = random_control_problem(rng, 3)
    traj = propagate([ch], [field], psi0.amplitudes, samples_per_segment=10)
    with pytest.raises(ValueError):
        pfeifer_envelope_check(traj, basis_state(2, 0))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5))
def test_pfeifer_envelope_contains_overlap(seed, dim):
    rng = np.random.default_rng(seed)
    ch, field, psi0 = random_control_problem(rng, dim)
    traj = propagate([ch], [field], psi0.amplitudes, samples_per_segment=40)
    phi = random_state(rng, dim)
    assert pfeifer_envelope_check(traj, phi) <= 1e-6


# ---------------------------------------------------------------------------
# trajectory speed-limit time


def test_tqsl_star_equals_duration_on_geodesic():
    traj = propagate([RABI], [FREE_UNIT], basis_state(2, 0).amplitudes)
    est = tqsl_star(traj, basis_state(2, 1))
    assert est.time == pytest.approx(1.0, abs=1e-9)
    assert est.on_target
    assert est.target_fidelity == pytest.approx(1.0, abs=1e-12)


def test_tqsl_star_closed_loop_is_zero():
    ch = ControlHamiltonian(h0=scaled(math.pi, SIGMA_X), hc=SIGMA_Z)
    field = PiecewiseConstantField(((2.0, 0.0),))  # full period, returns to |0>
    traj = propagate([ch], [field], basis_state(2, 0).amplitudes)
    est = tqsl_star(traj, basis_state(2, 0))
    assert est.time == pytest.approx(0.0, abs=1e-7)
    assert est.on_target


def test_tqsl_star_flags_missed_target():
    traj = propagate([RABI], [FREE_UNIT], basis_state(2, 0).amplitudes)
    est = tqsl_star(traj, basis_state(2, 0))  # drive actually lands on |1>
    assert not est.on_target
    assert est.target_fidelity == pytest.approx(0.0, abs=1e-12)


def test_tqsl_star_stationary_with_displaced_endpoint_is_infinite():
    # not producible by propagation (zero spread means zero motion); built by
    # hand to pin the degenerate branch
    traj = _hand_built([ControlHamiltonian(h0=zero_operator(2), hc=SIGMA_Z)], [[0.0, 1.0]])
    est = tqsl_star(traj, basis_state(2, 1))
    assert math.isinf(est.time)


def test_tqsl_star_matches_geodesic_over_path_identity(rng):
    ch, field, psi0 = random_control_problem(rng, 2)
    traj = propagate([ch], [field], psi0.amplitudes, samples_per_segment=60)
    est = tqsl_star(traj, random_state(rng, 2))
    geodesic = fubini_study_distance(psi0, PureState(traj.ends[1, 0]))
    expected = geodesic * traj.times[0, -1] / path_length(traj)
    assert est.time == pytest.approx(expected, abs=1e-9)


def _reference_tqsl_star(traj, psi_g):
    """The former single-trajectory form of tqsl_star on a stack of one, kept as
    the bit-level reference: (time, fidelity, on_target)."""
    duration = float(traj.times[0, -1])
    mean_spread = 0.5 * path_length(traj) / duration
    psi0, final = PureState(traj.ends[0, 0]), PureState(traj.ends[1, 0])
    target_fidelity = fidelity(final, psi_g)
    start_overlap = min(abs(overlap(psi0, final)), 1.0)
    numerator = math.acos(start_overlap)
    if numerator == 0.0:
        value = 0.0
    elif mean_spread == 0.0:
        value = math.inf
    else:
        value = numerator / mean_spread
    return value.hex(), target_fidelity.hex(), target_fidelity >= 1.0 - TARGET_FIDELITY_ATOL


def _estimate_bits(est):
    return est.time.hex(), est.target_fidelity.hex(), est.on_target


def test_stacked_tqsl_equals_the_single_trajectory_floats():
    problems = _harness_problems(count=120, seed=11)
    assert {ch.dim for ch, *_ in problems} == set(range(2, 9))
    for samples in (2, 7, 48):
        for idx, (chs, fields, psi0s, phis) in _stacks(problems):
            stack = propagate(chs, fields, _rows(psi0s), samples_per_segment=samples)
            estimates = tqsl_stars(stack, _rows(phis))
            assert len(estimates) == len(idx)
            for k, est in enumerate(estimates):
                traj = instance(stack, k)
                expected = _reference_tqsl_star(traj, phis[k])
                assert _estimate_bits(est) == _estimate_bits(tqsl_star(traj, phis[k])) == expected


def test_stacked_tqsl_keeps_the_zero_and_infinite_branches():
    # built by hand: a stationary drift-free path whose endpoint was moved
    # (+inf), one that stays put (0), and one that moves under sigma_x
    still = ControlHamiltonian(h0=zero_operator(2), hc=SIGMA_Z)
    moving = ControlHamiltonian(h0=SIGMA_X, hc=SIGMA_Z)
    stack = _hand_built([still, still, moving], [[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    target = basis_state(2, 1)
    estimates = tqsl_stars(stack, _rows((target,) * 3))
    assert [e.time for e in estimates] == [math.inf, 0.0, 0.5 * math.pi]
    for k, est in enumerate(estimates):
        assert _estimate_bits(est) == _reference_tqsl_star(instance(stack, k), target)
    with pytest.raises(ValueError):
        tqsl_stars(stack, _rows((target,) * 2))
