"""States, operators, spectral helpers and the metric primitives."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qslbounds import (
    PureState,
    SIGMA_X,
    SIGMA_Z,
    basis_state,
    energy_mean,
    energy_variance,
    fubini_study_distance,
    ground_state,
    hs_norm,
    spectral,
    unitary_step,
    zero_operator,
)
from conftest import hermitian, random_hermitian, random_state, state

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# construction and validation


def test_pure_state_rejects_unnormalized():
    with pytest.raises(ValueError):
        PureState(np.array([1.0, 1.0], dtype=complex))


def test_pure_state_rejects_matrix():
    with pytest.raises(ValueError):
        PureState(np.eye(2, dtype=complex))


def test_pure_state_rejects_dim_one():
    with pytest.raises(ValueError):
        PureState(np.array([1.0], dtype=complex))


def test_pure_state_is_immutable():
    psi = basis_state(2, 0)
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 0.0


def test_basis_state_indexing():
    psi = basis_state(3, 2)
    assert psi.dim == 3
    assert psi.amplitudes[2] == 1.0 + 0.0j
    with pytest.raises(ValueError):
        basis_state(3, 3)


def test_hermitian_rejects_nonhermitian():
    with pytest.raises(ValueError):
        hermitian([[0.0, 1.0], [0.0, 0.0]])


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize(
    "rows, where",
    [
        ([[NAN, 0.0], [0.0, 1.0]], "[0, 0]"),
        ([[1.0, 0.0], [0.0, INF]], "[1, 1]"),
        ([[0.0, NAN], [NAN, 1.0]], "[0, 1], [1, 0]"),
        ([[0.0, INF], [INF, 1.0]], "[0, 1], [1, 0]"),
        ([[0.0, -INF], [0.0, 1.0]], "[0, 1]"),
        ([[0.0, complex(0.0, NAN)], [0.0, 1.0]], "[0, 1]"),
    ],
)
def test_hermitian_rejects_non_finite_entries(rows, where):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # inf - inf must not warn on the way
        with pytest.raises(ValueError, match=r"^non-finite operator entries at ") as exc:
            hermitian(rows)
    assert str(exc.value).endswith(where)


@pytest.mark.parametrize(
    "amps, where",
    [([NAN, 0.0], "[0]"), ([0.0, INF], "[1]"), ([complex(-INF, 0.0), 1.0], "[0]")],
)
def test_pure_state_rejects_non_finite_amplitudes(amps, where):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^non-finite state amplitudes at ") as exc:
            PureState(np.array(amps, dtype=complex))
    assert str(exc.value).endswith(where)


@pytest.mark.parametrize("factor", [NAN, INF, -INF])
def test_hermitian_rejects_non_finite_scalar(factor):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # inf * 0 must not warn on the way
        with pytest.raises(ValueError, match="scalar factor must be finite"):
            factor * SIGMA_X


def test_hermitian_rejects_complex_scalar():
    with pytest.raises(ValueError):
        (1.0 + 2.0j) * hermitian([[1.0, 0.0], [0.0, -1.0]])


def test_hermitian_add_and_scale():
    h = 2.0 * SIGMA_Z + SIGMA_X
    expect = np.array([[2.0, 1.0], [1.0, -2.0]], dtype=complex)
    assert np.allclose(h.entries, expect)


def test_operator_dim_mismatch():
    with pytest.raises(ValueError):
        SIGMA_Z + hermitian(np.zeros((3, 3)))


def test_overlap_dim_mismatch():
    with pytest.raises(ValueError):
        basis_state(2, 0).overlap(basis_state(3, 0))


# ---------------------------------------------------------------------------
# metric


def test_fubini_study_orthogonal_is_pi():
    d = fubini_study_distance(basis_state(2, 0), basis_state(2, 1))
    assert d == pytest.approx(math.pi, abs=1e-15)


def test_fubini_study_equal_is_zero():
    # self-overlap can round to 1 - eps, acos then gives ~1e-8
    psi = state(1.0, 1.0j)
    assert fubini_study_distance(psi, psi) == pytest.approx(0.0, abs=1e-7)


def test_fubini_study_phase_invariant():
    psi = state(1.0, 1.0)
    phi = PureState(np.exp(0.7j) * psi.amplitudes)
    assert fubini_study_distance(psi, phi) == pytest.approx(0.0, abs=1e-7)


def test_fubini_study_known_angle():
    # |<0|+>| = 1/sqrt(2), distance 2*arccos = pi/2
    d = fubini_study_distance(basis_state(2, 0), state(1.0, 1.0))
    assert d == pytest.approx(0.5 * math.pi, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 6))
def test_fubini_study_symmetry_and_triangle(seed, dim):
    rng = np.random.default_rng(seed)
    a, b, c = (random_state(rng, dim) for _ in range(3))
    dab = fubini_study_distance(a, b)
    assert dab == fubini_study_distance(b, a)
    assert 0.0 <= dab <= math.pi + 1e-12
    assert dab <= fubini_study_distance(a, c) + fubini_study_distance(c, b) + 1e-12


# ---------------------------------------------------------------------------
# moments


def test_energy_mean_basis():
    assert energy_mean(basis_state(2, 0), SIGMA_Z) == pytest.approx(1.0)
    assert energy_mean(basis_state(2, 1), SIGMA_Z) == pytest.approx(-1.0)


def test_energy_variance_eigenstate_vanishes():
    assert energy_variance(basis_state(2, 0), SIGMA_Z) == pytest.approx(0.0, abs=1e-12)


def test_energy_variance_frozen_value():
    # chi = cos(pi/8)|0> + sin(pi/8)|1>: <sz> = cos(pi/4), <sz^2> = 1,
    # spread = sqrt(1 - cos^2(pi/4)) = sin(pi/4)
    chi = state(math.cos(math.pi / 8), math.sin(math.pi / 8))
    assert energy_variance(chi, SIGMA_Z) == pytest.approx(math.sin(math.pi / 4), abs=1e-12)
    # halved spread is the anchor value reused by the bound tests
    assert 0.5 * energy_variance(chi, SIGMA_Z) == pytest.approx(
        0.35355339059327373, abs=1e-14
    )


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 6))
def test_energy_variance_matches_direct_expectation(seed, dim):
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, dim)
    psi = random_state(rng, dim)
    v = psi.amplitudes
    mean = np.real(np.vdot(v, h.entries @ v))
    second = np.real(np.vdot(v, h.entries @ (h.entries @ v)))
    assert energy_variance(psi, h) == pytest.approx(
        math.sqrt(max(second - mean * mean, 0.0)), abs=1e-10
    )


def test_hs_norm_frozen():
    h = hermitian([[2.0, 0.5], [0.5, -2.0]])
    assert hs_norm(h) == pytest.approx(math.sqrt(8.5), abs=1e-14)
    assert hs_norm(zero_operator(3)) == 0.0


# ---------------------------------------------------------------------------
# spectral conventions


def test_spectral_orders_ascending_and_reconstructs(rng):
    h = random_hermitian(rng, 5)
    dec = spectral(h)
    assert all(a <= b for a, b in zip(dec.eigenvalues, dec.eigenvalues[1:]))
    v = dec.vectors
    recon = v @ np.diag(dec.eigenvalues) @ v.conj().T
    assert np.allclose(recon, h.entries, atol=1e-10)


def test_spectral_phase_is_deterministic(rng):
    h = random_hermitian(rng, 4)
    dec1 = spectral(h)
    dec2 = spectral(h)
    for a, b in zip(dec1.eigenvectors, dec2.eigenvectors):
        assert np.array_equal(a.amplitudes, b.amplitudes)
    for vec in dec1.eigenvectors:
        pivot = vec.amplitudes[np.argmax(np.abs(vec.amplitudes))]
        assert pivot.imag == pytest.approx(0.0, abs=1e-12)
        assert pivot.real > 0.0


def _fix_phase_reference(column):
    # the per-column phase convention spectral applies to all columns at once
    k = int(np.argmax(np.abs(column)))
    pivot = column[k]
    return column * (pivot.conjugate() / abs(pivot))


def test_spectral_matches_per_column_phase_reference(rng):
    for dim in range(2, 9):
        for _ in range(10):
            h = random_hermitian(rng, dim)
            _, raw = np.linalg.eigh(h.entries)
            ref = np.column_stack([_fix_phase_reference(raw[:, j]) for j in range(dim)])
            assert np.array_equal(spectral(h).vectors, ref)


def test_spectral_ties_break_to_lowest_index():
    # both components of each sigma_x eigenvector have modulus 1/sqrt(2)
    vectors = spectral(SIGMA_X).vectors
    assert np.all(vectors[0].imag == 0.0)
    assert np.all(vectors[0].real > 0.0)


def test_spectral_eigenvectors_are_the_read_only_columns(rng):
    dec = spectral(random_hermitian(rng, 6))
    assert len(dec.eigenvectors) == dec.dim == 6
    for j, vec in enumerate(dec.eigenvectors):
        assert np.array_equal(vec.amplitudes, dec.vectors[:, j])
    for arr in (dec.vectors, dec.eigenvalues):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_ground_state_is_column_zero(rng):
    h = random_hermitian(rng, 5)
    assert np.array_equal(ground_state(h).amplitudes, spectral(h).vectors[:, 0])


def test_ground_state_two_level_overlap():
    # ground states of -gamma*sz + (delta/2)*sx at gamma = delta/2 sit at
    # Bloch angles pi/4 from each pole, overlap sin(theta) with theta = pi/4
    delta = 1.0
    gamma = 0.5
    minus = ground_state(hermitian([[-gamma, delta / 2], [delta / 2, gamma]]))
    plus = ground_state(hermitian([[gamma, delta / 2], [delta / 2, -gamma]]))
    assert abs(minus.overlap(plus)) == pytest.approx(math.sin(math.pi / 4), abs=1e-12)


def test_ground_state_hand_rolled_eigenvector():
    # H = [[1, 2], [2, -1]]: ground eigenvalue -sqrt(5),
    # eigenvector prop to (2, -1-sqrt(5))
    g = ground_state(hermitian([[1.0, 2.0], [2.0, -1.0]]))
    raw = np.array([2.0, -1.0 - math.sqrt(5.0)], dtype=complex)
    raw /= np.linalg.norm(raw)
    assert abs(np.vdot(raw, g.amplitudes)) == pytest.approx(1.0, abs=1e-12)


def test_ground_state_degenerate_raises():
    with pytest.raises(ValueError):
        ground_state(zero_operator(2))


# ---------------------------------------------------------------------------
# single-step evolution


def test_unitary_step_rabi_flip():
    # H = (pi/2) sx for t = 1 maps |0> to -i|1>
    u = unitary_step(0.5 * math.pi * SIGMA_X, 1.0)
    out = u @ basis_state(2, 0).amplitudes
    assert abs(out[1]) == pytest.approx(1.0, abs=1e-12)
    assert out[1] == pytest.approx(-1.0j, abs=1e-12)


def test_unitary_step_is_unitary(rng):
    h = random_hermitian(rng, 6)
    u = unitary_step(h, 0.37)
    assert np.allclose(u @ u.conj().T, np.eye(6), atol=1e-12)


def test_unitary_step_composes():
    h = hermitian([[0.3, 0.1], [0.1, -0.2]])
    u1 = unitary_step(h, 0.4)
    u2 = unitary_step(h, 0.6)
    assert np.allclose(u2 @ u1, unitary_step(h, 1.0), atol=1e-12)


# ---------------------------------------------------------------------------
# spread-vs-norm inequality (operator spread never exceeds sqrt(2)/2 times
# the Hilbert-Schmidt norm) and the orthogonal-velocity identity


@settings(max_examples=1000, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 8))
def test_variance_below_hs_norm(seed, dim):
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, dim, scale=float(rng.uniform(0.1, 3.0)))
    psi = random_state(rng, dim)
    assert 2.0 * energy_variance(psi, h) <= SQRT2 * hs_norm(h) + 1e-10


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 6))
def test_orthogonal_velocity_equals_variance(seed, dim):
    # split H|psi> into parts along and orthogonal to |psi>: the orthogonal
    # part, which drives the motion, has norm equal to the energy spread
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, dim)
    psi = random_state(rng, dim)
    v = psi.amplitudes
    hv = h.entries @ v
    parallel = np.vdot(v, hv) * v
    perp = hv - parallel
    assert np.linalg.norm(perp) == pytest.approx(energy_variance(psi, h), abs=1e-10)
