"""States, operators, spectral helpers and the metric primitives."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qslbounds import (
    ControlHamiltonian,
    HermitianOperator,
    PureState,
    SIGMA_X,
    SIGMA_Z,
    energy_variance,
    fubini_study_distance,
    fubini_study_distances,
    ground_state,
    ground_states,
    hs_norm,
    spectral,
    unitary_step,
    unitary_steps,
)
from qslbounds.quantum import energy_covariances, energy_spreads, norms
from conftest import basis_state, hermitian, random_hermitian, random_state, state, zero_operator
from test_bounds import _ref_variance_quadratic_coeffs

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


def test_hermitian_scale():
    h = 2.0 * SIGMA_Z
    expect = np.array([[2.0, 0.0], [0.0, -2.0]], dtype=complex)
    assert np.array_equal(h.entries, expect)


def test_hermitian_scale_by_a_complex_of_zero_imaginary_part():
    expect = (2.0 * SIGMA_Z).entries
    for h in ((2.0 + 0.0j) * SIGMA_Z, np.complex128(2.0) * SIGMA_Z, SIGMA_Z * (2.0 + 0.0j)):
        assert np.array_equal(h.entries, expect)


def test_operator_dim_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        energy_variance(basis_state(2, 0), hermitian(np.zeros((3, 3))))


def test_overlap_dim_mismatch():
    with pytest.raises(ValueError):
        basis_state(2, 0).overlap(basis_state(3, 0))
    with pytest.raises(ValueError, match="dimension mismatch"):
        fubini_study_distance(basis_state(2, 0), basis_state(3, 0))


def test_distances_round_as_the_pairwise_vdot_formula(rng):
    # 2*acos(min(|<a|b>|, 1)) with the modulus of np.vdot, per pair, in every
    # bit; the pair of one is fubini_study_distance
    for dim in range(2, 9):
        a = np.array([random_state(rng, dim).amplitudes for _ in range(40)])
        b = np.array([random_state(rng, dim).amplitudes for _ in range(40)])
        b[0], b[1] = a[0], -1j * a[1]  # coincident rays
        got = fubini_study_distances(a, b)
        expected = [2.0 * math.acos(min(abs(np.vdot(x, y)), 1.0)) for x, y in zip(a, b)]
        assert [v.hex() for v in got] == [v.hex() for v in expected], dim
        singles = [fubini_study_distance(PureState(x), PureState(y)) for x, y in zip(a, b)]
        assert singles == got


# ---------------------------------------------------------------------------
# stacked construction


def _single_message(cls, row) -> str:
    with pytest.raises(ValueError) as exc:
        cls(row)
    return str(exc.value)


def _bad_state_rows(rng):
    rows = [random_state(rng, 3).amplitudes for _ in range(4)]
    unnormalized, non_finite = rows[2] * (1.0 + 1e-10), rows[2].copy()
    non_finite[1] = NAN
    return rows, {
        "norm": unnormalized,
        "non-finite": non_finite,
        "shape": rows[2][:1],
        "matrix": np.eye(3, dtype=complex),
    }


def _bad_operator_rows(rng):
    rows = [random_hermitian(rng, 3).entries for _ in range(4)]
    skew, non_finite = rows[2].copy(), rows[2].copy()
    skew[0, 1] += 1e-9
    non_finite[1, 1] = INF
    return rows, {
        "hermitian": skew,
        "non-finite": non_finite,
        "shape": rows[2][:, :2],
        "vector": rows[2][0],
    }


@pytest.mark.parametrize(
    "cls, bad_rows",
    [(PureState, _bad_state_rows), (HermitianOperator, _bad_operator_rows)],
    ids=["state", "operator"],
)
def test_a_stack_names_its_bad_row_with_the_single_message(rng, cls, bad_rows):
    rows, bad = bad_rows(rng)
    for kind, row in bad.items():
        stack = rows[:2] + [row] + rows[3:]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # non-finite rows must not warn on the way
            with pytest.raises(ValueError) as exc:
                cls.stack(stack if kind in ("shape", "vector", "matrix") else np.array(stack))
        assert str(exc.value) == f"row 2: {_single_message(cls, row)}", kind


def test_a_stack_of_the_wrong_shape_names_its_first_row():
    with pytest.raises(ValueError, match=r"^row 0: operator must be square .* \(2, 3\)$"):
        HermitianOperator.stack(np.zeros((4, 2, 3)))
    with pytest.raises(ValueError, match=r"^row 0: state must be a vector .* \(2, 2\)$"):
        PureState.stack(np.eye(2)[None].repeat(3, axis=0))


@pytest.mark.parametrize(
    "cls, draw", [(PureState, random_state), (HermitianOperator, random_hermitian)]
)
def test_stacked_rows_are_read_only_and_equal_the_single_constructor(rng, cls, draw):
    field = "amplitudes" if cls is PureState else "entries"
    for dim in range(2, 9):
        rows = np.array([getattr(draw(rng, dim), field) for _ in range(5)])
        stacked = cls.stack(rows)
        (one,) = cls.stack(rows[:1])
        assert len(stacked) == 5 and all(type(x) is cls for x in stacked)
        for x, row in zip(stacked + (one,), list(rows) + [rows[0]]):
            value, single = getattr(x, field), getattr(cls(row), field)
            assert value.dtype == single.dtype and value.shape == single.shape
            assert value.tobytes() == single.tobytes()
            with pytest.raises(ValueError):
                value[0] = 0.0
        assert rows.flags.writeable  # the caller's array is copied, not frozen


def test_norms_round_as_the_single_vector_norm(rng):
    for dim in (2, 3, 5, 8, 64):
        v = rng.standard_normal((200, dim)) + 1j * rng.standard_normal((200, dim))
        assert [float(x) for x in norms(v)] == [float(np.linalg.norm(row)) for row in v]


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


# the energy-covariance kernel: bit for bit against the code it replaced


def _former_energy_variance(state: PureState, h) -> float:
    """energy_variance as it was written before the covariance kernel."""
    hpsi = h.entries @ state.amplitudes
    second = float(np.vdot(hpsi, hpsi).real)
    mean = float(np.vdot(state.amplitudes, hpsi).real)
    return math.sqrt(max(second - mean * mean, 0.0))


def test_energy_variance_keeps_the_bits_of_its_former_body():
    rng = np.random.default_rng(14)
    for dim in range(2, 9):
        cases = [(random_hermitian(rng, dim), random_state(rng, dim)) for _ in range(200)]
        cases += [(zero_operator(dim), basis_state(dim, 0)), (hermitian(np.eye(dim)), cases[0][1])]
        for h, psi in cases:
            assert energy_variance(psi, h).hex() == _former_energy_variance(psi, h).hex()


def test_energy_covariances_are_symmetric_and_give_the_variance_quadratic():
    rng = np.random.default_rng(15)
    for dim in range(2, 9):
        for _ in range(50):
            ch = ControlHamiltonian(random_hermitian(rng, dim), random_hermitian(rng, dim))
            chi = random_state(rng, dim)
            cov = energy_covariances(np.array([ch.h0.entries, ch.hc.entries]), chi.amplitudes)
            assert cov.shape == (2, 2)
            assert cov[0, 1].hex() == cov[1, 0].hex()
            c0, c1, c2 = _ref_variance_quadratic_coeffs(ch, chi)
            assert (2.0 * cov[0, 1]).hex() == c1.hex()
            assert [max(cov[0, 0], 0.0), max(cov[1, 1], 0.0)] == [c0, c2]


def test_stacked_energy_covariances_equal_the_single_calls():
    # operators (n, m, d, d) against states (k, n, d), broadcast to (k, n, m, m)
    rng = np.random.default_rng(16)
    for dim in range(2, 9):
        h = np.array([[random_hermitian(rng, dim).entries for _ in range(3)] for _ in range(4)])
        chi = np.array([[random_state(rng, dim).amplitudes for _ in range(4)] for _ in range(2)])
        stacked = energy_covariances(h, chi)
        assert stacked.shape == (2, 4, 3, 3)
        for k in range(2):
            for n in range(4):
                single = energy_covariances(h[n], chi[k, n])
                assert stacked[k, n].tobytes() == single.tobytes()
                spreads = energy_spreads(h[n], chi[k, n])
                assert spreads.tobytes() == np.sqrt(np.maximum(np.diag(single), 0.0)).tobytes()


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


def test_ground_states_match_the_single_form_bit_for_bit(rng):
    for dim in range(2, 9):
        ops = [random_hermitian(rng, dim) for _ in range(5)]
        stacked = ground_states(ops)
        assert len(stacked) == len(ops)
        for op, psi in zip(ops, stacked):
            assert np.array_equal(psi.amplitudes, ground_state(op).amplitudes)
            assert np.array_equal(psi.amplitudes, spectral(op).vectors[:, 0])


@pytest.mark.parametrize("dim", [2, 5])
def test_ground_states_reject_a_degenerate_member(rng, dim):
    with pytest.raises(ValueError) as single:
        ground_state(zero_operator(dim))
    ops = [random_hermitian(rng, dim), zero_operator(dim), random_hermitian(rng, dim)]
    with pytest.raises(ValueError) as stacked:
        ground_states(ops)
    assert str(stacked.value) == str(single.value)


def test_ground_states_reject_mixed_dimensions(rng):
    with pytest.raises(ValueError, match="one dimension"):
        ground_states([random_hermitian(rng, 2), random_hermitian(rng, 3)])


def test_hs_norm_sums_as_numpy_does(rng):
    for dim in range(2, 9):
        for scale in (1e-150, 1e-8, 1.0, 1e8, 1e150):
            h = scale * random_hermitian(rng, dim)
            assert hs_norm(h) == float(np.linalg.norm(h.entries, "fro"))


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


def test_unitary_steps_match_the_single_step_bit_for_bit(rng):
    hs = [random_hermitian(rng, 5) for _ in range(4)]
    dts = rng.uniform(-2.0, 2.0, size=4)
    stacked = unitary_steps(np.array([h.entries for h in hs]), dts)
    for h, dt, u in zip(hs, dts, stacked):
        eigvals, vecs = np.linalg.eigh(h.entries)
        reference = (vecs * np.exp(-1j * eigvals * float(dt))) @ vecs.conj().T
        assert unitary_step(h, float(dt)).tobytes() == reference.tobytes()
        assert u.tobytes() == reference.tobytes()


@pytest.mark.parametrize("dt", [math.inf, -math.inf, math.nan])
def test_unitary_steps_reject_non_finite_time(dt):
    with pytest.raises(ValueError, match="finite"):
        unitary_step(SIGMA_X, dt)
    with pytest.raises(ValueError, match="finite"):
        unitary_steps(np.array([SIGMA_X.entries, SIGMA_Z.entries]), [0.5, dt])


# ---------------------------------------------------------------------------
# spread-vs-norm inequality (operator spread never exceeds sqrt(2)/2 times
# the Hilbert-Schmidt norm) and the orthogonal-velocity identity


@settings(max_examples=1000, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 8))
def test_variance_below_hs_norm(seed, dim):
    rng = np.random.default_rng(seed)
    scale = float(rng.uniform(0.1, 3.0))
    h = scale * random_hermitian(rng, dim)
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
