"""Pure states, Hermitian operators and the spectral primitives built on them.

Conventions used throughout: hbar = 1, overlaps are clamped into [0, 1]
before inverse trig calls, and eigenvector phases are fixed by making the
largest-magnitude component real and positive (ties broken by lowest index)
so that repeated runs give bit-identical output.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Tuple

import numpy as np

from .tolerances import DEGENERACY_ATOL, HERMITIAN_ATOL, NORM_ATOL


def _clamp01(x: float) -> float:
    return 0.0 if x < 0.0 else (1.0 if x > 1.0 else x)


def _reject_non_finite(values: np.ndarray, what: str) -> None:
    bad = np.argwhere(~np.isfinite(values)).tolist()
    if bad:
        raise ValueError(f"non-finite {what} at {', '.join(map(str, bad))}")


def check_hermitian(m: np.ndarray) -> None:
    """Reject matrices (..., d, d) that are non-finite or not Hermitian within HERMITIAN_ATOL."""
    with np.errstate(invalid="ignore"):  # inf - inf is reported below, not warned
        dev = np.abs(m - np.swapaxes(m.conj(), -1, -2)).max()
    if not dev <= HERMITIAN_ATOL:
        _reject_non_finite(m, "operator entries")
        raise ValueError("matrix is not Hermitian within tolerance")


@dataclass(frozen=True)
class PureState:
    """Normalized state vector of a d-level system, d >= 2."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.shape[0] < 2:
            raise ValueError(f"state must be a vector with d >= 2, got shape {amps.shape}")
        norm = float(np.linalg.norm(amps))
        if not abs(norm - 1.0) <= NORM_ATOL:
            _reject_non_finite(amps, "state amplitudes")
            raise ValueError(f"state norm {norm!r} deviates from 1 beyond {NORM_ATOL}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def overlap(self, other: "PureState") -> complex:
        if other.dim != self.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def fidelity(self, other: "PureState") -> float:
        return _clamp01(abs(self.overlap(other)) ** 2)


def basis_state(dim: int, index: int) -> PureState:
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for dim {dim}")
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return PureState(v)


@dataclass(frozen=True)
class HermitianOperator:
    """Hermitian matrix acting on a d-level system."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.array(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 2:
            raise ValueError(f"operator must be square with d >= 2, got shape {m.shape}")
        check_hermitian(m)
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @cached_property
    def spectrum(self) -> "SpectralDecomposition":
        """spectral(self), computed on first use and kept: the entries are
        read-only, so the decomposition cannot go stale."""
        return spectral(self)

    def __add__(self, other: "HermitianOperator") -> "HermitianOperator":
        if other.dim != self.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return HermitianOperator(self.entries + other.entries)

    def __mul__(self, scalar: float) -> "HermitianOperator":
        if isinstance(scalar, complex) and scalar.imag != 0.0:
            raise ValueError("only real scalars keep the operator Hermitian")
        if not math.isfinite(scalar):
            raise ValueError(f"scalar factor must be finite, got {scalar!r}")
        return HermitianOperator(float(scalar) * self.entries)

    __rmul__ = __mul__


SIGMA_X = HermitianOperator(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
SIGMA_Z = HermitianOperator(np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex))


def zero_operator(dim: int) -> HermitianOperator:
    return HermitianOperator(np.zeros((dim, dim), dtype=complex))


@dataclass(frozen=True)
class SpectralDecomposition:
    """Ascending eigenvalues; phase-fixed eigenvectors as the columns of ``vectors``."""

    eigenvalues: np.ndarray
    vectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def eigenvectors(self) -> Tuple[PureState, ...]:
        """The columns of ``vectors`` as states, built on request."""
        return tuple(PureState(column) for column in self.vectors.T)


def _phase_fixed_eigh(entries: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and phase-fixed eigenvector columns of one
    Hermitian matrix (d, d) or of a stack of them (n, d, d), through one eigh."""
    eigvals, vecs = np.linalg.eigh(entries)
    # the eigenvector columns of every matrix side by side, as one (d, n*d)
    # matrix; a view for a single matrix
    cols = vecs.swapaxes(0, -2)
    flat = cols.reshape(cols.shape[0], -1)
    # Largest-magnitude entry of each column made real positive, lowest index
    # on ties; np.hypot rounds as abs() of one complex does, np.abs may not.
    pivots = flat[np.abs(flat).argmax(axis=0), np.arange(flat.shape[1])]
    flat = flat * (pivots.conj() / np.hypot(pivots.real, pivots.imag))
    dev = np.abs(np.linalg.norm(flat, axis=0) - 1.0)
    if not (dev <= NORM_ATOL).all():
        raise ValueError(f"eigenvector norm deviates from 1 by {dev.max()!r} beyond {NORM_ATOL}")
    return eigvals, flat.reshape(cols.shape).swapaxes(0, -2)


def spectral(h: HermitianOperator) -> SpectralDecomposition:
    eigvals, vecs = _phase_fixed_eigh(h.entries)
    eigvals.setflags(write=False)
    vecs.setflags(write=False)
    return SpectralDecomposition(eigenvalues=eigvals, vectors=vecs)


def ground_states(ops: Sequence[HermitianOperator]) -> Tuple[PureState, ...]:
    """Eigenvector of the smallest eigenvalue of each operator, through one
    stacked eigh; rejects a degenerate ground space."""
    dims = {op.dim for op in ops}
    if len(dims) != 1:
        raise ValueError(f"need operators of one dimension, got dimensions {sorted(dims)}")
    eigvals, vecs = _phase_fixed_eigh(np.array([op.entries for op in ops]))
    for gap in (eigvals[:, 1] - eigvals[:, 0]).tolist():
        if not gap > DEGENERACY_ATOL:
            raise ValueError(f"ground space degenerate within {DEGENERACY_ATOL} (gap {gap!r})")
    return tuple(PureState(v) for v in vecs[:, :, 0])


def ground_state(h: HermitianOperator) -> PureState:
    """ground_states of one operator."""
    return ground_states((h,))[0]


def fubini_study_distance(a: PureState, b: PureState) -> float:
    """Geodesic distance 2*arccos(|<a|b>|) on the ray space."""
    return 2.0 * math.acos(_clamp01(abs(a.overlap(b))))


def energy_mean(state: PureState, h: HermitianOperator) -> float:
    if state.dim != h.dim:
        raise ValueError(f"dimension mismatch: {state.dim} vs {h.dim}")
    return float(np.vdot(state.amplitudes, h.entries @ state.amplitudes).real)


def energy_variance(state: PureState, h: HermitianOperator) -> float:
    """Standard deviation sqrt(<h^2> - <h>^2), clamped at zero round-off."""
    if state.dim != h.dim:
        raise ValueError(f"dimension mismatch: {state.dim} vs {h.dim}")
    hpsi = h.entries @ state.amplitudes
    second = float(np.vdot(hpsi, hpsi).real)  # <h^2> for Hermitian h
    mean = float(np.vdot(state.amplitudes, hpsi).real)
    return math.sqrt(max(second - mean * mean, 0.0))


def hs_norm(h: HermitianOperator) -> float:
    """Hilbert-Schmidt norm sqrt(tr(h^2))."""
    return float(np.linalg.norm(h.entries, "fro"))


def unitary_steps(entries: np.ndarray, dts) -> np.ndarray:
    """Propagators exp(-i*h*dt) for a stack of Hermitian matrices (..., d, d)
    and their time steps (...), through one stacked eigendecomposition."""
    dts = np.asarray(dts, dtype=float)
    bad = dts[~np.isfinite(dts)]
    if bad.size:
        raise ValueError(f"time step must be finite, got {float(bad[0])!r}")
    eigvals, vecs = np.linalg.eigh(entries)
    phases = np.exp(-1j * eigvals * dts[..., None])
    return (vecs * phases[..., None, :]) @ np.swapaxes(vecs.conj(), -1, -2)


def unitary_step(h: HermitianOperator, dt: float) -> np.ndarray:
    """Propagator exp(-i*h*dt): unitary_steps on one operator."""
    return unitary_steps(h.entries, dt)
