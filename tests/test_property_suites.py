"""Seeded property suites: the pinned report and the replayable worst instance."""
import math

import numpy as np
import pytest

from qslbounds import (
    arenz_overlap_inequality_check,
    bhattacharyya_check,
    energy_variance,
    fubini_study_distance,
    norm_drifts,
    path_length,
    pfeifer_envelope_check,
    propagate,
    run_property_suites,
)
from qslbounds.dynamics import ControlHamiltonian, PiecewiseConstantField
from qslbounds.property_suites import MAX_DIM, MAX_DURATION, MAX_SEGMENTS, U_MAX
from qslbounds.property_suites import _problem_stacks
from qslbounds.quantum import HermitianOperator, PureState
from conftest import random_control_problem, random_hermitian, random_state

# proptest --seed 0|1 --instances 1000, byte for byte
GOLDEN_REPORTS = {
    0: (
        "property suites  seed=0  dims 2..8\n"
        "brody            instances=1000   max_residual=-2.106350e-03 tol=1.0e-10 PASS\n"
        "anandan_aharonov instances=1000   max_residual=-2.510771e-05 tol=1.0e-06 PASS\n"
        "pfeifer          instances=1000   max_residual=+2.220446e-16 tol=1.0e-06 PASS\n"
        "arenz            instances=1000   max_residual=-2.211865e-01 tol=1.0e-09 PASS\n"
        "norm_drift       instances=1000   max_residual=+2.220446e-15 tol=1.0e-10 PASS\n"
        "bhattacharyya    instances=1000   max_residual=-7.615786e-11 tol=1.0e-04 PASS\n"
        "overall: PASS\n"
    ),
    1: (
        "property suites  seed=1  dims 2..8\n"
        "brody            instances=1000   max_residual=-1.869355e-02 tol=1.0e-10 PASS\n"
        "anandan_aharonov instances=1000   max_residual=-4.353651e-05 tol=1.0e-06 PASS\n"
        "pfeifer          instances=1000   max_residual=+2.220446e-16 tol=1.0e-06 PASS\n"
        "arenz            instances=1000   max_residual=-6.574457e-02 tol=1.0e-09 PASS\n"
        "norm_drift       instances=1000   max_residual=+2.331468e-15 tol=1.0e-10 PASS\n"
        "bhattacharyya    instances=1000   max_residual=-1.085700e-09 tol=1.0e-04 PASS\n"
        "overall: PASS\n"
    ),
}


@pytest.mark.parametrize("seed", [0, 1])
def test_report_is_pinned(seed):
    assert run_property_suites(seed, 1000).text() == GOLDEN_REPORTS[seed]


def _replay(seed, count):
    """Every instance of run_property_suites(seed, count), drawn in stream order."""
    rng = np.random.default_rng(seed)
    brody, driven = [], []
    for _ in range(count):
        dim = int(rng.integers(2, 9))
        brody.append((random_hermitian(rng, dim), random_state(rng, dim)))
    for _ in range(count):
        dim = int(rng.integers(2, 9))
        driven.append((*random_control_problem(rng, dim), random_state(rng, dim)))
    return brody, driven


def _single_residual(name, instance):
    if name == "brody":
        h, s = instance
        return 2.0 * energy_variance(s, h) - math.sqrt(2.0) * np.linalg.norm(h.entries)
    ch, field, psi0, phi = instance
    traj = propagate([ch], [field], psi0.amplitudes, samples_per_segment=48)
    if name == "anandan_aharonov":
        return fubini_study_distance(psi0, PureState(traj.ends[1, 0])) - path_length(traj)
    if name == "pfeifer":
        return pfeifer_envelope_check(traj, phi)
    if name == "arenz":
        return arenz_overlap_inequality_check(traj, PureState(traj.ends[1, 0]))
    if name == "bhattacharyya":
        return bhattacharyya_check(traj)
    return norm_drifts(traj)[0]


@pytest.mark.parametrize("seed", [0, 3])
def test_worst_instance_replays_to_the_max_residual(seed):
    report = run_property_suites(seed, 200)
    brody, driven = _replay(seed, 200)
    assert len(report.results) == 6
    for result in report.results:
        pool = brody if result.name == "brody" else driven
        assert result.instances == len(pool)
        assert 0 <= result.worst_instance < len(pool)
        instance = pool[result.worst_instance]
        residual = _single_residual(result.name, instance)
        assert residual == result.max_residual, result.name
        if result.name == "brody":
            assert (result.worst_dim, result.worst_segments) == (instance[0].dim, None)
        else:
            ch, field = instance[:2]
            assert (result.worst_dim, result.worst_segments) == (ch.dim, len(field.segments))


@pytest.mark.parametrize("count", [1, 19, 200])
def test_every_suite_counts_every_instance(count):
    report = run_property_suites(2, count)
    assert len(report.results) == 6
    assert [r.instances for r in report.results] == [count] * 6


def test_proptest_builds_no_object_per_instance(monkeypatch):
    # the drawn arrays go to the propagation kernel as they are, so no control
    # Hamiltonian or field is built, however many instances run
    built = []
    for cls in (ControlHamiltonian, PiecewiseConstantField):
        check = cls.__post_init__
        monkeypatch.setattr(
            cls, "__post_init__", lambda self, check=check: built.append(self) or check(self)
        )
    run_property_suites(0, 200)
    assert built == []


@pytest.mark.parametrize("stack_size", [1, 3])
def test_report_does_not_depend_on_the_stack_size(monkeypatch, stack_size):
    from qslbounds import property_suites

    default = run_property_suites(4, 150)
    monkeypatch.setattr(property_suites, "STACK_SIZE", stack_size)
    report = run_property_suites(4, 150)
    assert report.text() == default.text()
    assert report.results == default.results


# the draw bodies before the instances were drawn one array at a time, kept
# as the reference stream


def _former_random_state(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return PureState(v / np.linalg.norm(v))


def _former_random_hermitian(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return HermitianOperator(0.5 * (a + a.conj().T))


def _former_random_field(rng):
    n = int(rng.integers(1, MAX_SEGMENTS + 1))
    segments = tuple(
        (float(rng.uniform(0.1, MAX_DURATION)), float(rng.uniform(-U_MAX, U_MAX)))
        for _ in range(n)
    )
    return PiecewiseConstantField(segments)


def _former_random_control_problem(rng, dim):
    ch = ControlHamiltonian(
        h0=_former_random_hermitian(rng, dim), hc=_former_random_hermitian(rng, dim), u_max=U_MAX
    )
    return ch, _former_random_field(rng), _former_random_state(rng, dim)


def _bits(x):
    """Every bit of a drawn value, so that -0.0 and 0.0 differ."""
    if isinstance(x, np.ndarray):
        return (x.shape, x.dtype.str, x.tobytes())
    if isinstance(x, ControlHamiltonian):
        return _bits(x.h0) + _bits(x.hc) + (x.u_max,)
    if isinstance(x, PiecewiseConstantField):
        return tuple(v.hex() for segment in x.segments for v in segment)
    values = x.amplitudes if isinstance(x, PureState) else x.entries
    return (values.shape, values.tobytes())


@pytest.mark.parametrize("n_states", [1, 2])
def test_stacked_draws_reproduce_the_former_per_call_draws(n_states):
    shapes = set()
    for seed in range(200):
        rng, former = np.random.default_rng(seed), np.random.default_rng(seed)
        drawn = {}
        for idx, shape, pairs, segments, states in _problem_stacks(rng, 40, n_states):
            shapes.add(shape)
            for k, i in enumerate(idx):
                drawn[i] = (pairs[k], segments[k], *(column[k] for column in states))
        for i in range(40):
            dim = int(former.integers(2, MAX_DIM + 1))
            ch, field, psi0 = _former_random_control_problem(former, dim)
            psis = (psi0, *(_former_random_state(former, dim) for _ in range(n_states - 1)))
            assert ch.u_max == U_MAX
            expected = (np.array([ch.h0.entries, ch.hc.entries]), np.array(field.segments))
            expected += tuple(psi.amplitudes for psi in psis)
            assert list(map(_bits, drawn[i])) == list(map(_bits, expected)), (seed, i)
        assert rng.random() == former.random()  # the streams end in step
    assert shapes == {(d, n) for d in range(2, MAX_DIM + 1) for n in range(1, MAX_SEGMENTS + 1)}


def test_one_instance_draws_reproduce_the_former_per_call_draws():
    for seed in range(200):
        rng, former = np.random.default_rng(seed), np.random.default_rng(seed)
        for dim in range(2, MAX_DIM + 1):
            pairs = [
                (random_control_problem(rng, dim), _former_random_control_problem(former, dim)),
                ((random_hermitian(rng, dim),), (_former_random_hermitian(former, dim),)),
                ((random_state(rng, dim),), (_former_random_state(former, dim),)),
                (
                    (random_control_problem(rng, dim)[1],),
                    (_former_random_control_problem(former, dim)[1],),
                ),
            ]
            for new, old in pairs:
                assert list(map(_bits, new)) == list(map(_bits, old)), (seed, dim)
