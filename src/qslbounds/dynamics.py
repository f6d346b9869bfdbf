"""Piecewise-constant driven dynamics and trajectory-level inequality checks.

Propagation is exact per segment (spectral exponential of the constant
Hamiltonian), and the energy spread is conserved while the Hamiltonian is
constant.  So a trajectory stores no spread: it is one (B, S) value per
segment, taken in each segment's start state, and the path length is
sum_j 2*d_j*deltaE_j.  The other trajectory integrals have piecewise-constant
integrands, and their cumulative right-endpoint sum over the sample grid is
exact on any grid.  Segment boundaries are sampled twice, once with each
adjacent amplitude: the drive is discontinuous there, and the duplicated
node spans a zero-width interval, so it adds nothing to the sums while
leaving the states themselves single-valued.

The propagation kernel and the checks work on a TrajectoryStack: instances
of one dimension and one segment count, stacked along a leading axis, so
they share one sample layout.  A single trajectory is a stack of one, which
the single-trajectory functions read.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import List, Sequence, Tuple

import numpy as np

from .quantum import HermitianOperator, PureState, abs_overlaps, check_hermitian
from .quantum import check_normalized, energy_spreads, fubini_study_distances, norms
from .quantum import unitary_steps
from .tolerances import AA_TOL, AMPLITUDE_RTOL, ARENZ_TOL, BHATTACHARYYA_FLOOR
from .tolerances import BHATTACHARYYA_TOL, NORM_DRIFT_TOL, PFEIFER_TOL, TARGET_FIDELITY_ATOL

# (name, tolerance) of each row of trajectory_residuals: the one list of the
# trajectory checks that proptest and verify print
TRAJECTORY_CHECKS = (
    ("anandan_aharonov", AA_TOL),
    ("pfeifer", PFEIFER_TOL),
    ("arenz", ARENZ_TOL),
    ("norm_drift", NORM_DRIFT_TOL),
    ("bhattacharyya", BHATTACHARYYA_TOL),
)
MISSED_TARGET = "trajectory missed the target (fidelity {!r})"


@dataclass(frozen=True)
class ControlHamiltonian:
    """H(u) = h0 + u*hc with the admissible drive window |u| <= u_max."""

    h0: HermitianOperator
    hc: HermitianOperator
    u_max: float = math.inf

    def __post_init__(self):
        if self.hc.dim != self.h0.dim:
            raise ValueError(f"dimension mismatch: {self.h0.dim} vs {self.hc.dim}")
        if math.isnan(self.u_max) or self.u_max < 0.0:
            raise ValueError(f"u_max must be >= 0 or +inf, got {self.u_max!r}")

    @property
    def dim(self) -> int:
        return self.h0.dim


@dataclass(frozen=True)
class PiecewiseConstantField:
    """Drive u(t) given as (duration, amplitude) segments, durations > 0."""

    segments: Tuple[Tuple[float, float], ...]

    def __post_init__(self):
        segs = tuple((float(d), float(a)) for d, a in self.segments)
        if not segs:
            raise ValueError("field needs at least one segment")
        for d, a in segs:
            if not (d > 0.0 and math.isfinite(d)):
                raise ValueError(f"segment duration must be positive and finite, got {d!r}")
            if not math.isfinite(a):
                raise ValueError(f"segment amplitude must be finite, got {a!r}")
        object.__setattr__(self, "segments", segs)

    @property
    def total_duration(self) -> float:
        t = 0.0
        for d, _ in self.segments:
            t += d
        return t


@dataclass(frozen=True)
class TrajectoryStack:
    """Trajectories of instances that share a dimension and a segment count,
    stacked along a leading instance axis.

    times is (B, N) and states is (B, N, d); all instances share segment_index
    (N,).  Instance b was driven by H(u) = h0 + u*hc, (h0, hc) = pairs[b], under
    the (duration, amplitude) rows segments[b], and hamiltonians[b, j] = H(u_j):
    read-only arrays (B, 2, d, d), (B, S, 2) and (B, S, d, d).  No spread is
    stored: spreads derives the conserved deltaE of each segment from its start state.
    """

    times: np.ndarray
    states: np.ndarray
    segment_index: np.ndarray
    pairs: np.ndarray
    segments: np.ndarray
    hamiltonians: np.ndarray

    def __post_init__(self):
        for drive in (self.pairs, self.segments, self.hamiltonians):
            drive.setflags(write=False)

    def __len__(self) -> int:
        return self.states.shape[0]

    @property
    def dim(self) -> int:
        return self.states.shape[2]

    @property
    def n_samples(self) -> int:
        return self.times.shape[1]

    @cached_property
    def ends(self) -> np.ndarray:
        """psi0 and psi(T) of every instance as one fresh, contiguous, read-only
        (2, B, d) array, norm-checked once per stack."""
        ends = np.stack((self.states[:, 0], self.states[:, -1]))
        check_normalized(ends.reshape(-1, self.dim), 2)
        ends.setflags(write=False)
        return ends

    @cached_property
    def spreads(self) -> np.ndarray:
        """deltaE of each segment, (B, S), in the state at its start node."""
        width = len(self.segment_index) // self.hamiltonians.shape[1]
        return energy_spreads(self.hamiltonians, self.states[:, ::width])


def propagate(
    chs: Sequence[ControlHamiltonian],
    fields: Sequence[PiecewiseConstantField],
    psi0s: np.ndarray,
    samples_per_segment: int = 200,
) -> TrajectoryStack:
    """Evolve each initial state psi0s[b], one row of a (B, d) array (or for a
    stack of one a (d,) state), under fields[b] and chs[b], sampling each
    segment uniformly.

    The instances must share one dimension and one segment count.  Each
    segment is solved with one eigendecomposition and exact phase factors,
    so the endpoint state carries no time-stepping error.
    """
    chs, fields = tuple(chs), tuple(fields)
    if not len(chs) == len(fields) > 0:
        raise ValueError("need one control Hamiltonian and field per instance")
    psi0 = _state_array(psi0s, len(chs), chs[0].dim)
    if len({(ch.dim, len(field.segments)) for ch, field in zip(chs, fields)}) != 1:
        raise ValueError("stacked instances must share the dimension and the segment count")
    segments = np.array([field.segments for field in fields])
    return _propagate(_pairs(chs), [ch.u_max for ch in chs], segments, psi0, samples_per_segment)


def _pairs(chs: Sequence[ControlHamiltonian]) -> np.ndarray:
    """The (h0, hc) entries of each control Hamiltonian, one (B, 2, d, d) array."""
    return np.array([(ch.h0.entries, ch.hc.entries) for ch in chs])


def _propagate(pairs, u_max, segments, psi0, samples_per_segment) -> TrajectoryStack:
    """propagate on arrays: (h0, hc) pairs (B, 2, d, d), the drive windows u_max,
    one float each, the (duration, amplitude) segments (B, S, 2) and checked states
    psi0 (B, d).  Each drive is checked against its window, each H(u) for Hermiticity."""
    n = samples_per_segment
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError("samples_per_segment must be a positive integer")
    durations = segments[..., 0]
    h = _hamiltonians(pairs, u_max, segments[..., 1])
    (n_inst, n_seg), width = durations.shape, n + 1

    # each segment owns `width` samples: its start node (for j > 0 the
    # duplicated boundary, carrying the new amplitude) and its interior.  The
    # offsets are np.linspace(0, durations, width)[1:] in the same arithmetic,
    # without its per-call axis handling
    taus = np.arange(1, width) * (durations / n)[..., None]
    taus[..., -1] = durations
    times = np.zeros((n_inst, n_seg, width))
    np.add.accumulate(durations[:, :-1], axis=-1, out=times[:, 1:, 0])
    np.add(times[..., :1], taus, out=times[..., 1:])

    return TrajectoryStack(
        times=times.reshape(n_inst, -1),
        states=_evolve(h, taus, np.ascontiguousarray(psi0)),
        segment_index=np.arange(n_seg * width) // width,
        pairs=pairs,
        segments=segments,
        hamiltonians=h,
    )


def _hamiltonians(pairs: np.ndarray, u_max, amplitudes: np.ndarray) -> np.ndarray:
    """H(u) = h0 + u*hc of instance b, (h0, hc) = pairs[b], at each amplitudes[b, j], one
    (B, S, d, d) array, checked once per stack: every u within u_max[b] and every H
    Hermitian."""
    for cap, amps in zip(u_max, amplitudes.tolist()):
        reach = cap + AMPLITUDE_RTOL * max(1.0, cap)
        for u in amps:  # a float loop: a stack of one costs no more than one instance
            if abs(u) > reach:
                raise ValueError(f"amplitude {u!r} exceeds u_max {cap!r}")
    h = pairs[:, None, 0] + amplitudes[..., None, None] * pairs[:, None, 1]
    try:
        check_hermitian(h)
    except ValueError:
        for h_b in h:  # the message of the first bad instance, as it reads alone
            check_hermitian(h_b)
        raise
    return h


def _evolve(h: np.ndarray, taus: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """States (B, N, d) along the segment chain: per segment its start node,
    then exp(-i*H_j*tau)|start> at each sample offset tau.

    The eigenbases, their bras and the phase table exp(-i*lambda*tau) of every
    segment come from one eigh and one exp per stack; the loop over segments
    keeps only the two products that read the running state."""
    n_inst, n_seg, dim = h.shape[:3]
    eigvals, vecs = np.linalg.eigh(h)
    bras = vecs.conj().swapaxes(-1, -2)
    phases = -1j * (eigvals[..., None] * taus[:, :, None, :])
    np.exp(phases, out=phases)
    # columns per instance, as the states of one trajectory are stored
    columns = np.empty((n_inst, dim, n_seg, taus.shape[-1] + 1), dtype=complex)
    for j in range(n_seg):
        columns[:, :, j, 0] = psi
        block = vecs[:, j] @ (phases[:, j] * (bras[:, j] @ psi[..., None]))
        columns[:, :, j, 1:] = block
        psi = block[..., -1]
    return columns.reshape(n_inst, dim, -1).swapaxes(1, 2)


def _state_array(states, count: int, dim: int) -> np.ndarray:
    """One state per instance, states (count, dim) or for one instance (dim,), as
    a fresh contiguous complex (count, dim) array: count, dimension and norms checked."""
    rows = np.array(states, dtype=complex, ndmin=2)
    if len(rows) != count:
        raise ValueError(f"need one state per instance: got {len(rows)} for {count}")
    if rows.shape[-1] != dim:
        raise ValueError(f"dimension mismatch: {rows.shape[-1]} vs {dim}")
    check_normalized(rows, 2)
    return rows


def _single(stack: TrajectoryStack) -> TrajectoryStack:
    """stack, which must hold one instance: the single-trajectory forms read its value."""
    if len(stack) != 1:
        raise ValueError(f"need a stack of one trajectory, got {len(stack)}")
    return stack


def _running_integral(times: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Cumulative integral of a piecewise-constant integrand along the last
    axis, 0 at the start.

    values[..., k] holds on the interval ending at times[..., k], so the
    right-endpoint sum is exact; a duplicated boundary node has zero width.
    """
    steps = np.cumsum(np.diff(times, axis=-1) * values[..., 1:], axis=-1)
    return np.concatenate((np.zeros(steps.shape[:-1] + (1,)), steps), axis=-1)


def path_lengths(stack: TrajectoryStack) -> np.ndarray:
    """Anandan-Aharonov length 2*integral of the energy spread, per instance:
    exactly sum_j 2*d_j*deltaE_j, the spread being conserved on each segment."""
    return 2.0 * np.sum(stack.segments[..., 0] * stack.spreads, axis=-1)


def path_length(traj: TrajectoryStack) -> float:
    """path_lengths of a stack of one."""
    return float(path_lengths(_single(traj))[0])


def norm_drifts(stack: TrajectoryStack) -> np.ndarray:
    """Largest deviation of the state norm from 1 along each trajectory."""
    return np.max(np.abs(np.linalg.norm(stack.states, axis=-1) - 1.0), axis=-1)


def propagate_refined(
    chs: Sequence[ControlHamiltonian],
    fields: Sequence[PiecewiseConstantField],
    psi0s: np.ndarray,
    samples_per_segment: int = 200,
) -> TrajectoryStack:
    """One propagate pass: every trajectory quantity is exact on any sample
    grid.  The name stays because perfbench/ wraps it by name for its useful_ratio."""
    return propagate(chs, fields, psi0s, samples_per_segment)


def bhattacharyya_residuals(stack: TrajectoryStack) -> np.ndarray:
    """Max signed residual of d/dt arccos|<psi0|psi(t)>| <= deltaE(t), per
    instance.

    With a = <psi0|psi> and psi_perp = psi - a*psi0 the rate is exactly
    -Im(conj(a) <psi0|H psi_perp>) / (|a| ||psi_perp||), evaluated with the
    Hamiltonian in force at each sample (boundary nodes give the one-sided
    rate of their segment).  Samples where |a| or ||psi_perp|| is at or below
    BHATTACHARYYA_FLOOR are skipped; if none remain the state never moved
    and the residual is exactly 0.  A non-positive value, up to rounding,
    certifies the inequality.
    """
    states = stack.states
    psi0 = states[:, 0]
    a = (states @ psi0.conj()[..., None])[..., 0]
    perp = states - a[..., None] * psi0[:, None, :]
    abs_a = np.abs(a)
    perp_norm = np.linalg.norm(perp, axis=-1)
    keep = (abs_a > BHATTACHARYYA_FLOOR) & (perp_norm > BHATTACHARYYA_FLOOR)
    # <psi0|H perp> = <H psi0|perp> per segment's Hamiltonian
    h_psi0 = (stack.hamiltonians @ psi0[:, None, :, None])[..., 0]
    coupling = np.einsum("...ij,...ij->...i", h_psi0.conj()[:, stack.segment_index], perp)
    rate = -np.imag(a.conj() * coupling)[keep] / (abs_a[keep] * perp_norm[keep])
    excess = np.full(a.shape, -math.inf)
    excess[keep] = rate - stack.spreads[:, stack.segment_index][keep]
    return np.where(keep.any(axis=-1), excess.max(axis=-1), 0.0)


def bhattacharyya_check(traj: TrajectoryStack) -> float:
    """bhattacharyya_residuals of a stack of one."""
    return float(bhattacharyya_residuals(_single(traj))[0])


def sin_star(x):
    """Monotone envelope helper: 0 below 0, sin on [0, pi/2], 1 beyond.

    Takes a scalar or an array.  The cap sits at pi/2, where sin reaches 1;
    capping any earlier would make the envelope discontinuous.
    """
    return np.sin(np.clip(x, 0.0, 0.5 * math.pi))


def _pfeifer_envelopes(stack: TrajectoryStack, phi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Lower and upper envelopes sin*(delta -+ h(t)) of |<phi[b]|psi(t)>|, each (B, N):
    h(t), the smaller of the energy spreads accumulated in phi[b] and in psi0, is
    exactly piecewise linear, both integrands being piecewise constant."""
    psi0 = stack.ends[0]
    # deltaE of H(u(t)) in the fixed states phi[b] and psi0[b], accumulated
    anchored = energy_spreads(stack.hamiltonians, np.stack((phi, psi0))[:, :, None])
    anchored = anchored[..., stack.segment_index]
    envelope_angle = np.min(_running_integral(stack.times, anchored), axis=0)
    delta = np.array([math.asin(min(m, 1.0)) for m in abs_overlaps(phi, psi0)])[:, None]
    return sin_star(delta - envelope_angle), sin_star(delta + envelope_angle)


def pfeifer_envelope_residuals(stack: TrajectoryStack, phis: np.ndarray) -> np.ndarray:
    """Largest violation of the overlap envelope of each instance against
    phis[b], one row of a (B, d) array; 0 means fully contained."""
    phi = _state_array(phis, len(stack), stack.dim)
    lower, upper = _pfeifer_envelopes(stack, phi)
    overlaps = np.abs(stack.states @ phi.conj()[..., None])[..., 0]
    worst = np.maximum(np.max(lower - overlaps, axis=-1), np.max(overlaps - upper, axis=-1))
    return np.maximum(worst, 0.0)


def pfeifer_envelope_check(traj: TrajectoryStack, phi: PureState) -> float:
    """pfeifer_envelope_residuals of a stack of one."""
    return float(pfeifer_envelope_residuals(_single(traj), phi.amplitudes)[0])


@dataclass(frozen=True)
class TqslEstimate:
    """Speed-limit time extracted from a trajectory.

    on_target records whether the final state actually reached the intended
    target; the time is computed either way.
    """

    time: float
    target_fidelity: float
    on_target: bool


def _reached(finals: np.ndarray, targets: np.ndarray) -> List[Tuple[float, bool]]:
    """(fidelity, reached) of each final state to its target, rows of (B, d) arrays: the
    fidelity |<final|target>|^2 capped at 1, reached within TARGET_FIDELITY_ATOL of 1."""
    fidelities = [min(modulus**2, 1.0) for modulus in abs_overlaps(finals, targets)]
    return [(f, f >= 1.0 - TARGET_FIDELITY_ATOL) for f in fidelities]


def _distance_over(dist: float, speed: float) -> float:
    """dist / speed: 0 for coincident endpoints or an unbounded speed, +inf if frozen."""
    if dist == 0.0:
        return 0.0
    if speed == 0.0:
        return math.inf
    return dist / speed


def tqsl_stars(stack: TrajectoryStack, psi_gs: np.ndarray) -> List[TqslEstimate]:
    """Geodesic-over-mean-spread time arccos(|<psi0|psi(T)>|) / mean(deltaE) of
    each instance, the arccos being half the Fubini-Study distance, with its
    fidelity to psi_gs[b], one row of a (B, d) array.

    Equals (geodesic distance / path length) * T whenever the path length is
    nonzero.  A stationary trajectory asked to reach a different target has
    no finite answer and reports +inf.  Only the segment start nodes and the
    endpoint are read, so two samples per segment give the same bits as any
    finer grid.
    """
    targets = _state_array(psi_gs, len(stack), stack.dim)
    mean_spreads = 0.5 * path_lengths(stack) / stack.times[:, -1]
    dists, reached = fubini_study_distances(*stack.ends), _reached(stack.ends[1], targets)
    return [
        TqslEstimate(_distance_over(0.5 * dist, mean_spread), *reach)
        for mean_spread, dist, reach in zip(mean_spreads.tolist(), dists, reached)
    ]


def tqsl_star(traj: TrajectoryStack, psi_g: PureState) -> TqslEstimate:
    """tqsl_stars of a stack of one."""
    return tqsl_stars(_single(traj), psi_g.amplitudes)[0]


def arenz_overlap_residuals(stack: TrajectoryStack, psigs: np.ndarray) -> np.ndarray:
    """Signed residual of 1 - |<psig|exp(-i*alpha(T)*hc)|psi0>| <= ||h0||_HS * T,
    per instance of the stack against its target psigs[b], one row of a (B, d) array.

    alpha(T) is the area of the drive that produced the trajectory; the
    trajectory must actually have reached psig for the comparison to mean
    anything, so a missed target is an error.
    """
    psig = _state_array(psigs, len(stack), stack.dim)
    for fidelity, reached in _reached(stack.ends[1], psig):
        if not reached:
            raise ValueError(MISSED_TARGET.format(fidelity))
    return _arenz_residuals(stack, psig)


def _arenz_residuals(stack: TrajectoryStack, psig: np.ndarray) -> np.ndarray:
    """arenz_overlap_residuals against checked targets psig (B, d), reached or not."""
    pairs, products = stack.pairs, stack.segments[..., 0] * stack.segments[..., 1]
    # areas summed left to right on every Python: the built-in sum compensates since 3.12
    u_ctrl = unitary_steps(pairs[:, 1], [reduce(operator.add, r, 0.0) for r in products.tolist()])
    # 1 x d by d x 1 products round as np.vdot does, np.hypot as abs() does
    amp = (psig.conj()[:, None, :] @ (u_ctrl @ stack.ends[0][..., None]))[:, 0, 0]
    lhs = 1.0 - np.hypot(amp.real, amp.imag)
    return lhs - norms(pairs[:, 0].reshape(len(pairs), -1)) * stack.times[:, -1]


def trajectory_residuals(
    stack: TrajectoryStack, targets: np.ndarray, phis: np.ndarray
) -> np.ndarray:
    """(5, B) signed residuals of each instance, one row per TRAJECTORY_CHECKS entry
    in its order, each passing when at most its tolerance: Anandan-Aharonov, Pfeifer
    against phis[b], Arenz against targets[b], norm drift and Bhattacharyya, the states
    being rows of (B, d) arrays.  An instance that missed its target reads NaN in the
    Arenz row, where the inequality means nothing, and nowhere else."""
    targets = _state_array(targets, len(stack), stack.dim)
    psi0, finals = stack.ends
    aa = np.array(fubini_study_distances(psi0, finals)) - path_lengths(stack)
    pfeifer = pfeifer_envelope_residuals(stack, phis)
    reached = [hit for _, hit in _reached(finals, targets)]
    arenz = np.where(reached, _arenz_residuals(stack, targets), math.nan)
    return np.stack((aa, pfeifer, arenz, norm_drifts(stack), bhattacharyya_residuals(stack)))
