"""Piecewise-constant driven dynamics and trajectory-level inequality checks.

Propagation is exact per segment (spectral exponential of the constant
Hamiltonian), and the energy spread is conserved while the Hamiltonian is
constant.  So every trajectory integral here has a piecewise-constant
integrand, and the cumulative right-endpoint sum over the sample grid is
exact on any grid.  Segment boundaries are sampled twice, once with each
adjacent amplitude: the drive is discontinuous there, and the duplicated
node spans a zero-width interval, so it adds nothing to the sums while
leaving the states themselves single-valued.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .quantum import HermitianOperator, PureState, energy_variance

TARGET_FIDELITY_ATOL = 1e-6
# samples whose survival amplitude |<psi0|psi>| or orthogonal part is at or
# below this are skipped by the Bhattacharyya rate, which is 0/0 there
BHATTACHARYYA_FLOOR = 1e-12
_AMPLITUDE_RTOL = 1e-12


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

    def hamiltonian(self, u: float) -> HermitianOperator:
        if abs(u) > self.u_max + _AMPLITUDE_RTOL * max(1.0, self.u_max):
            raise ValueError(f"amplitude {u!r} exceeds u_max {self.u_max!r}")
        return HermitianOperator(self.h0.entries + u * self.hc.entries)


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
    it: ch, field, and hamiltonians[j] = H(u_j) for each segment j.
    """

    times: np.ndarray
    states: np.ndarray
    variance_samples: np.ndarray
    survival: np.ndarray
    segment_index: np.ndarray
    ch: ControlHamiltonian
    field: PiecewiseConstantField
    hamiltonians: Tuple[HermitianOperator, ...]

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    @property
    def n_samples(self) -> int:
        return self.times.shape[0]

    def state_at(self, k: int) -> PureState:
        return PureState(self.states[k])

    def initial_state(self) -> PureState:
        return self.state_at(0)

    def final_state(self) -> PureState:
        return self.state_at(-1)


def propagate(
    ch: ControlHamiltonian,
    field: PiecewiseConstantField,
    psi0: PureState,
    samples_per_segment: int = 200,
) -> Trajectory:
    """Evolve psi0 under the field, sampling each segment uniformly.

    Each segment is solved with one eigendecomposition and exact phase
    factors, so the endpoint state carries no time-stepping error.
    """
    if psi0.dim != ch.dim:
        raise ValueError(f"dimension mismatch: {psi0.dim} vs {ch.dim}")
    if samples_per_segment < 1:
        raise ValueError("samples_per_segment must be a positive integer")

    hamiltonians = tuple(ch.hamiltonian(amp) for _, amp in field.segments)
    times = [0.0]
    seg_idx = [0]
    blocks = [psi0.amplitudes[:, None]]

    psi = psi0.amplitudes
    t_start = 0.0
    for j, ((dur, _), h) in enumerate(zip(field.segments, hamiltonians)):
        eigvals, vecs = np.linalg.eigh(h.entries)
        if j > 0:
            # duplicate boundary node, this side carrying the new amplitude
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

    states = np.hstack(blocks).T
    times_arr = np.asarray(times)
    seg_arr = np.asarray(seg_idx, dtype=int)

    variance = np.empty(times_arr.shape[0])
    survival = np.empty(times_arr.shape[0])
    psi0row = psi0.amplitudes
    for j, h in enumerate(hamiltonians):
        mask = seg_arr == j
        block = states[mask]
        hpsi = block @ h.entries.T
        second = np.einsum("ij,ij->i", hpsi.conj(), hpsi).real
        mean = np.einsum("ij,ij->i", block.conj(), hpsi).real
        variance[mask] = np.sqrt(np.maximum(second - mean * mean, 0.0))
    survival[:] = np.abs(states @ psi0row.conj()) ** 2
    np.clip(survival, 0.0, 1.0, out=survival)

    return Trajectory(
        times=times_arr,
        states=states,
        variance_samples=variance,
        survival=survival,
        segment_index=seg_arr,
        ch=ch,
        field=field,
        hamiltonians=hamiltonians,
    )


def _running_integral(times: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Cumulative integral of a piecewise-constant integrand, 0 at the start.

    values[k] holds on the interval ending at times[k], so the right-endpoint
    sum is exact; a duplicated boundary node has zero width.
    """
    return np.concatenate(([0.0], np.cumsum(np.diff(times) * values[1:])))


def path_length(traj: Trajectory) -> float:
    """Anandan-Aharonov length 2*integral of the energy spread along the path."""
    if traj.n_samples < 2:
        raise ValueError("need at least two samples to integrate")
    return 2.0 * float(_running_integral(traj.times, traj.variance_samples)[-1])


def propagate_refined(
    ch: ControlHamiltonian,
    field: PiecewiseConstantField,
    psi0: PureState,
    samples_per_segment: int = 200,
) -> Trajectory:
    """One propagate pass.

    Every trajectory quantity is exact on any sample grid, so there is
    nothing left to refine.  The name stays because the benchmark in
    perfbench/ wraps it by name and reports its useful_ratio.
    """
    return propagate(ch, field, psi0, samples_per_segment)


def bhattacharyya_check(traj: Trajectory) -> float:
    """Max signed residual of d/dt arccos|<psi0|psi(t)>| <= deltaE(t).

    With a = <psi0|psi> and psi_perp = psi - a*psi0 the rate is exactly
    -Im(conj(a) <psi0|H psi_perp>) / (|a| ||psi_perp||), evaluated with the
    Hamiltonian in force at each sample (boundary nodes give the one-sided
    rate of their segment).  Samples where |a| or ||psi_perp|| is at or below
    BHATTACHARYYA_FLOOR are skipped; if none remain the state never moved
    and the residual is exactly 0.  A non-positive return value, up to
    rounding, certifies the inequality.
    """
    psi0 = traj.states[0]
    a = traj.states @ psi0.conj()
    perp = traj.states - a[:, None] * psi0
    abs_a = np.abs(a)
    perp_norm = np.linalg.norm(perp, axis=1)
    keep = (abs_a > BHATTACHARYYA_FLOOR) & (perp_norm > BHATTACHARYYA_FLOOR)
    if not np.any(keep):
        return 0.0
    # <psi0|H perp> = <H psi0|perp> per segment's Hamiltonian
    h_psi0 = np.array([h.entries @ psi0 for h in traj.hamiltonians])
    coupling = np.einsum("ij,ij->i", h_psi0[traj.segment_index].conj(), perp)
    rate = -np.imag(a.conj() * coupling)[keep] / (abs_a[keep] * perp_norm[keep])
    return float(np.max(rate - traj.variance_samples[keep]))


def _anchored_variances(traj: Trajectory, chi: PureState) -> np.ndarray:
    """deltaE of H(u(t)) in the fixed state chi, per trajectory sample."""
    per_segment = np.array([energy_variance(chi, h) for h in traj.hamiltonians])
    return per_segment[traj.segment_index]


def pfeifer_envelope(traj: Trajectory, phi: PureState) -> Tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounding envelopes sin*(delta -+ h(t)) for |<phi|psi(t)>|.

    h(t) is the smaller of the accumulated energy spreads anchored at phi and
    at the initial state; both integrands are piecewise constant in time, so
    h(t) is exactly piecewise linear.
    """
    from .bounds import sin_star  # local import, bounds depends on dynamics

    if phi.dim != traj.dim:
        raise ValueError(f"dimension mismatch: {phi.dim} vs {traj.dim}")
    psi0 = traj.initial_state()
    h_phi = _running_integral(traj.times, _anchored_variances(traj, phi))
    h_psi0 = _running_integral(traj.times, _anchored_variances(traj, psi0))
    envelope_angle = np.minimum(h_phi, h_psi0)
    delta = math.asin(min(abs(phi.overlap(psi0)), 1.0))
    return sin_star(delta - envelope_angle), sin_star(delta + envelope_angle)


def pfeifer_envelope_check(traj: Trajectory, phi: PureState) -> float:
    """Largest violation of the overlap envelope; 0 means fully contained."""
    lower, upper = pfeifer_envelope(traj, phi)
    overlaps = np.abs(traj.states @ phi.amplitudes.conj())
    worst = max(float(np.max(lower - overlaps)), float(np.max(overlaps - upper)))
    return max(worst, 0.0)


@dataclass(frozen=True)
class TqslEstimate:
    """Speed-limit time extracted from a trajectory.

    on_target records whether the final state actually reached the intended
    target; the time is computed either way.
    """

    time: float
    target_fidelity: float
    on_target: bool


def tqsl_star(traj: Trajectory, psi_g: PureState) -> TqslEstimate:
    """Geodesic-over-mean-spread time arccos(|<psi0|psi(T)>|) / mean(deltaE).

    Equals (geodesic distance / path length) * T whenever the path length is
    nonzero.  A stationary trajectory asked to reach a different target has
    no finite answer and reports +inf.
    """
    if traj.n_samples < 2:
        raise ValueError("need at least two samples")
    duration = float(traj.times[-1])
    fidelity = traj.final_state().fidelity(psi_g)
    on_target = fidelity >= 1.0 - TARGET_FIDELITY_ATOL
    overlap = min(abs(traj.initial_state().overlap(traj.final_state())), 1.0)
    numerator = math.acos(overlap)
    mean_spread = float(_running_integral(traj.times, traj.variance_samples)[-1]) / duration
    if numerator == 0.0:
        value = 0.0
    elif mean_spread == 0.0:
        value = math.inf
    else:
        value = numerator / mean_spread
    return TqslEstimate(time=value, target_fidelity=fidelity, on_target=on_target)


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Dump samples as CSV: t, per-component re/im, deltaE, survival."""
    cols = []
    for c in range(traj.dim):
        cols.extend([f"re_c{c}", f"im_c{c}"])
    header = "t," + ",".join(cols) + ",deltaE,survival"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for k in range(traj.n_samples):
            row = [format(traj.times[k], ".17g")]
            for c in range(traj.dim):
                row.append(format(traj.states[k, c].real, ".17g"))
                row.append(format(traj.states[k, c].imag, ".17g"))
            row.append(format(traj.variance_samples[k], ".17g"))
            row.append(format(traj.survival[k], ".17g"))
            fh.write(",".join(row) + "\n")
