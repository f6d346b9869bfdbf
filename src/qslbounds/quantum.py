"""Pure states, Hermitian operators and the spectral primitives built on them.

Conventions used throughout: hbar = 1, overlaps are clamped into [0, 1]
before inverse trig calls, and eigenvector phases are fixed by making the
largest-magnitude component real and positive (ties broken by lowest index)
so that repeated runs give bit-identical output.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .tolerances import DEGENERACY_ATOL, HERMITIAN_ATOL, NORM_ATOL


def _reject_non_finite(values: np.ndarray, what: str) -> None:
    bad = np.argwhere(~np.isfinite(values)).tolist()
    if bad:
        raise ValueError(f"non-finite {what} at {', '.join(map(str, bad))}")


def check_hermitian(m: np.ndarray, ndim: Optional[int] = None) -> None:
    """Reject matrices (..., d, d) that are non-finite or not Hermitian within
    HERMITIAN_ATOL; given ndim, also an array of another rank or of matrices
    that are not square with d >= 2."""
    if ndim is not None and (m.ndim != ndim or m.shape[-1] != m.shape[-2] or m.shape[-1] < 2):
        raise ValueError(f"operator must be square with d >= 2, got shape {m.shape[ndim - 2:]}")
    with np.errstate(invalid="ignore"):  # inf - inf is reported below, not warned
        dev = np.abs(m - np.swapaxes(m.conj(), -1, -2)).max()
    if not dev <= HERMITIAN_ATOL:
        _reject_non_finite(m, "operator entries")
        raise ValueError("matrix is not Hermitian within tolerance")


def norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each vector (..., d), rounded as np.linalg.norm of
    that vector alone: one strided dot per part, as it takes them."""
    re, im = x.real, x.imag
    if x.ndim == 1:
        return np.sqrt(re.dot(re) + im.dot(im))
    re, im = re[..., None, :], im[..., None, :]
    return np.sqrt(re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[..., 0, 0]


def abs_overlaps(a: np.ndarray, b: np.ndarray) -> list:
    """|<a_k|b_k>| of each pair of vectors (..., d) as nested lists of floats, rounded as
    abs(np.vdot(a_k, b_k)) on any layout: one 1 x d by d x 1 product per pair, b made
    contiguous (a strided b may round otherwise), and np.hypot, which rounds as abs()."""
    z = (a.conj()[..., None, :] @ np.ascontiguousarray(b)[..., :, None])[..., 0, 0]
    return np.hypot(z.real, z.imag).tolist()


def check_normalized(amps: np.ndarray, ndim: int = 1) -> None:
    """Reject amplitudes (d,), or with ndim 2 a stack (n, d), that are not
    vectors with d >= 2, are non-finite or have a norm off 1 beyond NORM_ATOL."""
    if amps.ndim != ndim or amps.shape[-1] < 2:
        raise ValueError(f"state must be a vector with d >= 2, got shape {amps.shape[ndim - 1:]}")
    n = norms(amps)
    dev = np.abs(n - 1.0)
    if not (dev if ndim == 1 else dev.max()) <= NORM_ATOL:  # a scalar's max costs 1 us
        _reject_non_finite(amps, "state amplitudes")
        worst = float(n.flat[dev.argmax()])
        raise ValueError(f"state norm {worst!r} deviates from 1 beyond {NORM_ATOL}")


@dataclass(frozen=True)
class PureState:
    """Normalized state vector of a d-level system, d >= 2."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex)
        check_normalized(amps)
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]


@dataclass(frozen=True)
class HermitianOperator:
    """Hermitian matrix acting on a d-level system."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.array(self.entries, dtype=complex)
        check_hermitian(m, 2)
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


SIGMA_X = HermitianOperator(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
SIGMA_Z = HermitianOperator(np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex))


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
    dev = np.abs(np.linalg.norm(flat, axis=0) - 1.0).max()
    if not dev <= NORM_ATOL:
        raise ValueError(f"eigenvector norm deviates from 1 by {dev!r} beyond {NORM_ATOL}")
    return eigvals, flat.reshape(cols.shape).swapaxes(0, -2)


def spectral(h: HermitianOperator) -> Tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and phase-fixed eigenvector columns of h, both
    read-only, in the (eigenvalues, vectors) order of np.linalg.eigh."""
    eigvals, vecs = _phase_fixed_eigh(h.entries)
    eigvals.setflags(write=False)
    vecs.setflags(write=False)
    return eigvals, vecs


def ground_states_of_stack(entries: np.ndarray) -> np.ndarray:
    """Eigenvector of the smallest eigenvalue of each matrix of a validated Hermitian
    stack (n, d, d), one (n, d) array, through one eigh; rejects a degenerate one."""
    eigvals, vecs = _phase_fixed_eigh(entries)
    for gap in (eigvals[:, 1] - eigvals[:, 0]).tolist():
        if not gap > DEGENERACY_ATOL:
            raise ValueError(f"ground space degenerate within {DEGENERACY_ATOL} (gap {gap!r})")
    return vecs[:, :, 0]


def ground_state(h: HermitianOperator) -> PureState:
    """ground_states_of_stack of one operator."""
    return PureState(ground_states_of_stack(h.entries[None])[0])


def fubini_study_distances(a: np.ndarray, b: np.ndarray) -> list:
    """Geodesic distance 2*arccos(|<a_k|b_k>|) on the ray space of each pair of
    states (n, d), as a list of floats: one abs_overlaps call, acos per element."""
    return [2.0 * math.acos(min(x, 1.0)) for x in abs_overlaps(a, b)]


def fubini_study_distance(a: PureState, b: PureState) -> float:
    """fubini_study_distances of one pair."""
    if b.dim != a.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return fubini_study_distances(a.amplitudes[None], b.amplitudes[None])[0]


def energy_covariances(h: np.ndarray, chi: np.ndarray) -> np.ndarray:
    """C_ij = Re<h_i chi|h_j chi> - <h_i><h_j> for Hermitian operators h
    (..., m, d, d) and states chi (..., d), the leading axes broadcast: (..., m, m).

    The one home of deltaE: deltaE(h_i) = sqrt(C_ii), and the spread of
    h_0 + u*h_1 is C_00 + 2*C_01*u + C_11*u^2.  The states are made contiguous,
    so the 1 x d by d x 1 products round as np.vdot does on any layout.
    """
    chi = np.ascontiguousarray(chi)
    h_chi = h @ chi[..., None, :, None]  # (..., m, d, 1)
    # <chi| and <h_i chi| as 1 x d rows against the d x 1 columns h_j chi
    means = (chi.conj()[..., None, None, :] @ h_chi)[..., 0, 0].real
    grams = (h_chi.conj()[..., :, None, None, :, 0] @ h_chi[..., None, :, :, :])[..., 0, 0].real
    return grams - means[..., :, None] * means[..., None, :]


def energy_spreads(h: np.ndarray, chi: np.ndarray) -> np.ndarray:
    """deltaE of each operator h (..., d, d) in chi (..., d): the square root of
    energy_covariances on one operator, clamped at zero round-off."""
    return np.sqrt(np.maximum(energy_covariances(h[..., None, :, :], chi)[..., 0, 0], 0.0))


def energy_variance(state: PureState, h: HermitianOperator) -> float:
    """Standard deviation sqrt(<h^2> - <h>^2): energy_spreads of one operator."""
    if state.dim != h.dim:
        raise ValueError(f"dimension mismatch: {state.dim} vs {h.dim}")
    return float(energy_spreads(h.entries, state.amplitudes))


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
