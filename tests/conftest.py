import math

import numpy as np
import pytest

from qslbounds import HermitianOperator, LandauZenerProblem, PureState, TrajectoryStack
from qslbounds.bounds import _max_quadratic_root
from qslbounds.dynamics import _hamiltonians, _pairs
from qslbounds.quantum import energy_covariances
from qslbounds.property_suites import (  # noqa: F401  re-exported to the tests
    random_control_problem,
    random_hermitian,
    random_state,
)


def state(*amps) -> PureState:
    v = np.asarray(amps, dtype=complex)
    return PureState(v / np.linalg.norm(v))


def hermitian(rows) -> HermitianOperator:
    return HermitianOperator(np.asarray(rows, dtype=complex))


def basis_state(dim: int, index: int) -> PureState:
    return PureState(np.eye(dim, dtype=complex)[index])


def zero_operator(dim: int) -> HermitianOperator:
    return HermitianOperator(np.zeros((dim, dim), dtype=complex))


def overlap(a: PureState, b: PureState) -> complex:
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def fidelity(a: PureState, b: PureState) -> float:
    return min(abs(overlap(a, b)) ** 2, 1.0)


def scaled(c: float, op: HermitianOperator) -> HermitianOperator:
    return HermitianOperator(c * op.entries)


def instance(stack: TrajectoryStack, k: int) -> TrajectoryStack:
    """Instance k of stack as a stack of one, over views of its arrays."""
    return TrajectoryStack(
        times=stack.times[k : k + 1],
        states=stack.states[k : k + 1],
        segment_index=stack.segment_index,
        pairs=stack.pairs[k : k + 1],
        segments=stack.segments[k : k + 1],
        hamiltonians=stack.hamiltonians[k : k + 1],
    )


def segment_hamiltonians(ch, amplitudes) -> np.ndarray:
    """H(u) of ch alone at each of amplitudes, checked as propagate checks them:
    the (1, S, d, d) array dynamics._hamiltonians builds for one instance."""
    return _hamiltonians(_pairs((ch,)), [ch.u_max], np.array([amplitudes], dtype=float))


def sampled_spreads(traj: TrajectoryStack) -> np.ndarray:
    """deltaE at every sample of traj, a stack of one, from its states and the
    Hamiltonian in force there: an independent check that the spread is
    conserved on each segment, which the library takes once per segment."""
    h, states = traj.hamiltonians[0, traj.segment_index], traj.states[0]
    hpsi = np.einsum("nij,nj->ni", h, states)
    mean = np.einsum("ni,ni->n", states.conj(), hpsi).real
    second = np.einsum("ni,ni->n", hpsi.conj(), hpsi).real
    return np.sqrt(np.maximum(second - mean * mean, 0.0))


def variance_quadratic_coeffs(ch, chi: PureState):
    """The library's coefficients of deltaE^2(u) = c0 + c1*u + c2*u^2 in chi,
    read from the energy covariances of (h0, hc) as tmin_b reads them."""
    (c00, c01), (_, c11) = energy_covariances(
        np.array([ch.h0.entries, ch.hc.entries]), chi.amplitudes
    ).tolist()
    return max(c00, 0.0), 2.0 * c01, max(c11, 0.0)


def max_variance_over_field(ch, chi: PureState) -> float:
    """max over |u| <= u_max of deltaE(u) in chi, as tmin_b takes it."""
    return _max_quadratic_root(*variance_quadratic_coeffs(ch, chi), ch.u_max)


def problem_from_gamma(delta: float, gamma: float, lambda_cap: float = math.inf):
    """The avoided-crossing problem of bias reach gamma, through its mixing angle."""
    return LandauZenerProblem(delta, math.atan2(delta, 2 * gamma), lambda_cap)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260819)


HALF_PI = 0.5 * math.pi
