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
they share one sample layout.  The single-trajectory functions run the same
code on a stack of one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import List, Sequence, Tuple

import numpy as np

from .quantum import HermitianOperator, PureState, check_hermitian
from .tolerances import AMPLITUDE_RTOL, BHATTACHARYYA_FLOOR, TARGET_FIDELITY_ATOL


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

    def hamiltonians(self, amplitudes: Sequence[float]) -> np.ndarray:
        """H(u) for every amplitude, as one read-only (S, d, d) array."""
        u = np.array(amplitudes, dtype=float)
        outside = u[np.abs(u) > self.u_max + AMPLITUDE_RTOL * max(1.0, self.u_max)]
        if outside.size:
            raise ValueError(f"amplitude {float(outside[0])!r} exceeds u_max {self.u_max!r}")
        h = self.h0.entries + u[:, None, None] * self.hc.entries
        check_hermitian(h)
        h.setflags(write=False)
        return h

    def hamiltonian(self, u: float) -> HermitianOperator:
        return HermitianOperator(self.hamiltonians((u,))[0])


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

    def amplitude_integral(self) -> float:
        """Time integral of the drive, sum of duration*amplitude."""
        return float(sum(d * a for d, a in self.segments))


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution of the driven Schrodinger equation.

    states holds one row per sample; segment_index maps each sample to the
    field segment whose amplitude was in force there (boundary nodes appear
    twice, once per side).  The drive that produced the path travels with
    it: ch, field, and the read-only (S, d, d) array hamiltonians[j] = H(u_j).
    """

    times: np.ndarray
    states: np.ndarray
    segment_index: np.ndarray
    ch: ControlHamiltonian
    field: PiecewiseConstantField
    hamiltonians: np.ndarray

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    @property
    def n_samples(self) -> int:
        return self.times.shape[0]

    @cached_property
    def stack(self) -> "TrajectoryStack":
        """This trajectory as a stack of one."""
        return TrajectoryStack.of((self,))

    def initial_state(self) -> PureState:
        return self.stack.initial_states[0]

    def final_state(self) -> PureState:
        return self.stack.final_states[0]


@dataclass(frozen=True)
class TrajectoryStack:
    """Trajectories of instances that share a dimension and a segment count,
    stacked along a leading instance axis.

    times is (B, N) and states is (B, N, d); all instances share
    segment_index (N,).  Instance b was driven by chs[b] under fields[b], and
    hamiltonians[b, j] = H(u_j), one (B, S, d, d) array.  No spread is
    stored: spreads derives the conserved deltaE of each segment from its
    start state.
    """

    times: np.ndarray
    states: np.ndarray
    segment_index: np.ndarray
    chs: Tuple[ControlHamiltonian, ...]
    fields: Tuple[PiecewiseConstantField, ...]
    hamiltonians: np.ndarray

    @classmethod
    def of(cls, trajectories: Sequence[Trajectory]) -> "TrajectoryStack":
        """Trajectories of one dimension and one sample layout as a stack, the
        inverse of stack[k]."""
        trajs = tuple(trajectories)
        if len({(t.dim, t.segment_index.tobytes()) for t in trajs}) != 1:
            raise ValueError("need trajectories of one dimension and one sample layout")
        h = np.stack([t.hamiltonians for t in trajs])
        h.setflags(write=False)
        return cls(
            times=np.stack([t.times for t in trajs]),
            states=np.stack([t.states for t in trajs]),
            segment_index=trajs[0].segment_index,
            chs=tuple(t.ch for t in trajs),
            fields=tuple(t.field for t in trajs),
            hamiltonians=h,
        )

    def __len__(self) -> int:
        return self.states.shape[0]

    def __getitem__(self, k: int) -> Trajectory:
        return Trajectory(
            times=self.times[k],
            states=self.states[k],
            segment_index=self.segment_index,
            ch=self.chs[k],
            field=self.fields[k],
            hamiltonians=self.hamiltonians[k],
        )

    @property
    def dim(self) -> int:
        return self.states.shape[2]

    # the boundary states are built and norm-checked once per stack
    @cached_property
    def initial_states(self) -> Tuple[PureState, ...]:
        return tuple(PureState(s) for s in self.states[:, 0])

    @cached_property
    def final_states(self) -> Tuple[PureState, ...]:
        return tuple(PureState(s) for s in self.states[:, -1])

    @cached_property
    def spreads(self) -> np.ndarray:
        """deltaE of each segment, (B, S), in the state at its start node."""
        width = len(self.segment_index) // self.hamiltonians.shape[1]
        # contiguous, so the products round alike for every stack layout
        return _segment_spreads(self.hamiltonians, np.ascontiguousarray(self.states[:, ::width]))


def propagate_stack(
    chs: Sequence[ControlHamiltonian],
    fields: Sequence[PiecewiseConstantField],
    psi0s: Sequence[PureState],
    samples_per_segment: int = 200,
) -> TrajectoryStack:
    """Evolve each psi0s[b] under fields[b] and chs[b], sampling each segment
    uniformly.

    The instances must share one dimension and one segment count.  Each
    segment is solved with one eigendecomposition and exact phase factors,
    so the endpoint state carries no time-stepping error.
    """
    chs, fields, psi0s = tuple(chs), tuple(fields), tuple(psi0s)
    if not len(chs) == len(fields) == len(psi0s) > 0:
        raise ValueError("need one control Hamiltonian, field and initial state per instance")
    dim, n_seg = chs[0].dim, len(fields[0].segments)
    for ch, field, psi0 in zip(chs, fields, psi0s):
        if psi0.dim != ch.dim:
            raise ValueError(f"dimension mismatch: {psi0.dim} vs {ch.dim}")
        if ch.dim != dim or len(field.segments) != n_seg:
            raise ValueError("stacked instances must share the dimension and the segment count")
    if samples_per_segment < 1:
        raise ValueError("samples_per_segment must be a positive integer")

    h = np.array([ch.hamiltonians([amp for _, amp in f.segments]) for ch, f in zip(chs, fields)])
    h.setflags(write=False)
    durations = _durations(fields)
    n_inst, width = len(chs), samples_per_segment + 1

    # each segment owns `width` samples: its start node (for j > 0 the
    # duplicated boundary, carrying the new amplitude) and its interior.  The
    # offsets are np.linspace(0, durations, width)[1:] in the same arithmetic,
    # without its per-call axis handling
    taus = np.arange(1, width) * (durations / samples_per_segment)[..., None]
    taus[..., -1] = durations
    starts = np.zeros((n_inst, n_seg, 1))
    starts[:, 1:, 0] = np.cumsum(durations, axis=-1)[:, :-1]
    times = np.concatenate((starts, starts + taus), axis=-1).reshape(n_inst, -1)
    seg_idx = np.repeat(np.arange(n_seg), width)

    psi0 = np.array([p.amplitudes for p in psi0s])
    return TrajectoryStack(
        times=times,
        states=_evolve(h, taus, psi0),
        segment_index=seg_idx,
        chs=chs,
        fields=fields,
        hamiltonians=h,
    )


def _evolve(h: np.ndarray, taus: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """States (B, N, d) along the segment chain: per segment its start node,
    then exp(-i*H_j*tau)|start> at each sample offset tau."""
    n_inst, n_seg, dim = h.shape[:3]
    eigvals, vecs = np.linalg.eigh(h)
    # columns per instance, as the states of one trajectory are stored
    columns = np.empty((n_inst, dim, n_seg, taus.shape[-1] + 1), dtype=complex)
    for j in range(n_seg):
        columns[:, :, j, 0] = psi
        v = vecs[:, j]
        coeff = np.swapaxes(v.conj(), -1, -2) @ psi[..., None]
        phases = -1j * (eigvals[:, j, :, None] * taus[:, j, None, :])
        np.exp(phases, out=phases)
        phases *= coeff
        block = v @ phases
        columns[:, :, j, 1:] = block
        psi = block[..., -1]
    return columns.reshape(n_inst, dim, -1).swapaxes(1, 2)


def _segment_spreads(h: np.ndarray, chi: np.ndarray) -> np.ndarray:
    """deltaE of h[b, j] in the state chi[..., b, j], or in chi[..., b, 0]
    when chi holds one state per instance: (..., B, S) values."""
    chi = chi[..., None]
    h_chi = h @ chi
    # on contiguous states the 1 x d by d x 1 products round as np.vdot does
    second = (np.swapaxes(h_chi.conj(), -1, -2) @ h_chi)[..., 0, 0].real
    mean = (np.swapaxes(chi.conj(), -1, -2) @ h_chi)[..., 0, 0].real
    return np.sqrt(np.maximum(second - mean * mean, 0.0))


def _durations(fields: Sequence[PiecewiseConstantField]) -> np.ndarray:
    """Segment durations, (B, S)."""
    return np.array([[dur for dur, _ in field.segments] for field in fields])


def propagate(
    ch: ControlHamiltonian,
    field: PiecewiseConstantField,
    psi0: PureState,
    samples_per_segment: int = 200,
) -> Trajectory:
    """Evolve psi0 under the field: propagate_stack on a stack of one, which
    the trajectory keeps as its stack."""
    stack = propagate_stack((ch,), (field,), (psi0,), samples_per_segment)
    traj = stack[0]
    traj.__dict__["stack"] = stack  # fills the cached_property
    return traj


def _running_integral(times: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Cumulative integral of a piecewise-constant integrand along the last
    axis, 0 at the start.

    values[..., k] holds on the interval ending at times[..., k], so the
    right-endpoint sum is exact; a duplicated boundary node has zero width.
    """
    steps = np.cumsum(np.diff(times, axis=-1) * values[..., 1:], axis=-1)
    return np.concatenate((np.zeros(steps.shape[:-1] + (1,)), steps), axis=-1)


def _row_norms(x: np.ndarray) -> np.ndarray:
    """np.linalg.norm(x, axis=-1), bit for bit, with one temporary, not two."""
    squares = x.conj()
    squares *= x
    return np.sqrt(np.add.reduce(squares.real, axis=-1))


def path_lengths(stack: TrajectoryStack) -> np.ndarray:
    """Anandan-Aharonov length 2*integral of the energy spread, per instance:
    exactly sum_j 2*d_j*deltaE_j, the spread being conserved on each segment."""
    return 2.0 * np.sum(_durations(stack.fields) * stack.spreads, axis=-1)


def path_length(traj: Trajectory) -> float:
    """path_lengths of one trajectory."""
    return float(path_lengths(traj.stack)[0])


def norm_drifts(stack: TrajectoryStack) -> np.ndarray:
    """Largest deviation of the state norm from 1 along each trajectory."""
    return np.max(np.abs(_row_norms(stack.states) - 1.0), axis=-1)


def norm_drift(traj: Trajectory) -> float:
    """norm_drifts of one trajectory."""
    return float(norm_drifts(traj.stack)[0])


def propagate_refined(
    ch: ControlHamiltonian,
    field: PiecewiseConstantField,
    psi0: PureState,
    samples_per_segment: int = 200,
) -> Trajectory:
    """One propagate pass: every trajectory quantity is exact on any sample
    grid.  The name stays because perfbench/ wraps it by name for its useful_ratio."""
    return propagate(ch, field, psi0, samples_per_segment)


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
    perp_norm = _row_norms(perp)
    keep = (abs_a > BHATTACHARYYA_FLOOR) & (perp_norm > BHATTACHARYYA_FLOOR)
    # <psi0|H perp> = <H psi0|perp> per segment's Hamiltonian
    h_psi0 = (stack.hamiltonians @ psi0[:, None, :, None])[..., 0]
    coupling = np.einsum("...ij,...ij->...i", h_psi0.conj()[:, stack.segment_index], perp)
    rate = -np.imag(a.conj() * coupling)[keep] / (abs_a[keep] * perp_norm[keep])
    excess = np.full(a.shape, -math.inf)
    excess[keep] = rate - stack.spreads[:, stack.segment_index][keep]
    return np.where(keep.any(axis=-1), excess.max(axis=-1), 0.0)


def bhattacharyya_check(traj: Trajectory) -> float:
    """bhattacharyya_residuals of one trajectory."""
    return float(bhattacharyya_residuals(traj.stack)[0])


def _pfeifer_envelopes(
    stack: TrajectoryStack, phis: Sequence[PureState]
) -> Tuple[np.ndarray, np.ndarray]:
    from .bounds import sin_star  # local import, bounds depends on dynamics

    for phi in phis:
        if phi.dim != stack.dim:
            raise ValueError(f"dimension mismatch: {phi.dim} vs {stack.dim}")
    psi0s = stack.initial_states
    # deltaE of H(u(t)) in the fixed states phis[b] and psi0s[b], accumulated
    anchors = np.array([[c.amplitudes for c in chis] for chis in (phis, psi0s)])[:, :, None]
    anchored = _segment_spreads(stack.hamiltonians, anchors)[..., stack.segment_index]
    envelope_angle = np.min(_running_integral(stack.times, anchored), axis=0)
    delta = np.array(
        [math.asin(min(abs(phi.overlap(psi0)), 1.0)) for phi, psi0 in zip(phis, psi0s)]
    )[:, None]
    return sin_star(delta - envelope_angle), sin_star(delta + envelope_angle)


def pfeifer_envelope(traj: Trajectory, phi: PureState) -> Tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounding envelopes sin*(delta -+ h(t)) for |<phi|psi(t)>|.

    h(t) is the smaller of the accumulated energy spreads anchored at phi and
    at the initial state; both integrands are piecewise constant in time, so
    h(t) is exactly piecewise linear.
    """
    lower, upper = _pfeifer_envelopes(traj.stack, (phi,))
    return lower[0], upper[0]


def pfeifer_envelope_residuals(
    stack: TrajectoryStack, phis: Sequence[PureState]
) -> np.ndarray:
    """Largest violation of the overlap envelope of each instance against
    phis[b]; 0 means fully contained."""
    lower, upper = _pfeifer_envelopes(stack, phis)
    phi_conj = np.array([phi.amplitudes for phi in phis]).conj()
    overlaps = np.abs(stack.states @ phi_conj[..., None])[..., 0]
    worst = np.maximum(np.max(lower - overlaps, axis=-1), np.max(overlaps - upper, axis=-1))
    return np.maximum(worst, 0.0)


def pfeifer_envelope_check(traj: Trajectory, phi: PureState) -> float:
    """pfeifer_envelope_residuals of one trajectory."""
    return float(pfeifer_envelope_residuals(traj.stack, (phi,))[0])


@dataclass(frozen=True)
class TqslEstimate:
    """Speed-limit time extracted from a trajectory.

    on_target records whether the final state actually reached the intended
    target; the time is computed either way.
    """

    time: float
    target_fidelity: float
    on_target: bool


def tqsl_stars(stack: TrajectoryStack, psi_gs: Sequence[PureState]) -> List[TqslEstimate]:
    """Geodesic-over-mean-spread time arccos(|<psi0|psi(T)>|) / mean(deltaE) of
    each instance, with its fidelity to psi_gs[b].

    Equals (geodesic distance / path length) * T whenever the path length is
    nonzero.  A stationary trajectory asked to reach a different target has
    no finite answer and reports +inf.  Only the segment start nodes and the
    endpoint are read, so two samples per segment give the same bits as any
    finer grid.
    """
    mean_spreads = 0.5 * path_lengths(stack) / stack.times[:, -1]
    estimates = []
    for mean_spread, psi0, psi_t, psi_g in zip(
        mean_spreads.tolist(), stack.initial_states, stack.final_states, psi_gs, strict=True
    ):
        fidelity = psi_t.fidelity(psi_g)
        numerator = math.acos(min(abs(psi0.overlap(psi_t)), 1.0))
        if numerator == 0.0:
            value = 0.0
        elif mean_spread == 0.0:
            value = math.inf
        else:
            value = numerator / mean_spread
        estimates.append(TqslEstimate(value, fidelity, fidelity >= 1.0 - TARGET_FIDELITY_ATOL))
    return estimates


def tqsl_star(traj: Trajectory, psi_g: PureState) -> TqslEstimate:
    """tqsl_stars of one trajectory."""
    return tqsl_stars(traj.stack, (psi_g,))[0]
