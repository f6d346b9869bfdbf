"""Seeded property suites: the pinned report and the replayable worst instance."""
import math

import numpy as np
import pytest

from qslbounds import (
    arenz_overlap_inequality_check,
    bhattacharyya_check,
    energy_variance,
    fubini_study_distance,
    hs_norm,
    norm_drifts,
    path_length,
    pfeifer_envelope_check,
    propagate,
    run_property_suites,
)
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
        "bhattacharyya    instances=100    max_residual=-2.695252e-08 tol=1.0e-04 PASS\n"
        "overall: PASS\n"
    ),
    1: (
        "property suites  seed=1  dims 2..8\n"
        "brody            instances=1000   max_residual=-1.869355e-02 tol=1.0e-10 PASS\n"
        "anandan_aharonov instances=1000   max_residual=-4.353651e-05 tol=1.0e-06 PASS\n"
        "pfeifer          instances=1000   max_residual=+2.220446e-16 tol=1.0e-06 PASS\n"
        "arenz            instances=1000   max_residual=-6.574457e-02 tol=1.0e-09 PASS\n"
        "norm_drift       instances=1000   max_residual=+2.331468e-15 tol=1.0e-10 PASS\n"
        "bhattacharyya    instances=100    max_residual=-9.476607e-09 tol=1.0e-04 PASS\n"
        "overall: PASS\n"
    ),
}


@pytest.mark.parametrize("seed", [0, 1])
def test_report_is_pinned(seed):
    assert run_property_suites(seed, 1000).text() == GOLDEN_REPORTS[seed]


def _replay(seed, count, bh_count):
    """Every instance of run_property_suites(seed, count), drawn in stream order."""
    rng = np.random.default_rng(seed)
    brody, driven, bh = [], [], []
    for _ in range(count):
        dim = int(rng.integers(2, 9))
        brody.append((random_hermitian(rng, dim), random_state(rng, dim)))
    for _ in range(count):
        dim = int(rng.integers(2, 9))
        driven.append((*random_control_problem(rng, dim), random_state(rng, dim)))
    for _ in range(bh_count):
        bh.append(random_control_problem(rng, int(rng.integers(2, 9))))
    return brody, driven, bh


def _single_residual(name, instance):
    if name == "brody":
        h, s = instance
        return 2.0 * energy_variance(s, h) - math.sqrt(2.0) * hs_norm(h)
    if name == "bhattacharyya":
        return bhattacharyya_check(propagate(*instance, samples_per_segment=200))
    ch, field, psi0, phi = instance
    traj = propagate(ch, field, psi0, samples_per_segment=48)
    if name == "anandan_aharonov":
        return fubini_study_distance(psi0, traj.final_state()) - path_length(traj)
    if name == "pfeifer":
        return pfeifer_envelope_check(traj, phi)
    if name == "arenz":
        return arenz_overlap_inequality_check(traj, traj.final_state())
    return norm_drifts(traj.stack)[0]


@pytest.mark.parametrize("seed", [0, 3])
def test_worst_instance_replays_to_the_max_residual(seed):
    report = run_property_suites(seed, 200)
    by_name = {r.name: r for r in report.results}
    brody, driven, bh = _replay(seed, 200, by_name["bhattacharyya"].instances)
    pools = {"brody": brody, "bhattacharyya": bh}
    assert len(report.results) == 6
    for result in report.results:
        pool = pools.get(result.name, driven)
        assert result.instances == len(pool)
        assert 0 <= result.worst_instance < len(pool)
        residual = _single_residual(result.name, pool[result.worst_instance])
        assert residual == result.max_residual, result.name


@pytest.mark.parametrize("stack_size", [1, 3])
def test_report_does_not_depend_on_the_stack_size(monkeypatch, stack_size):
    from qslbounds import property_suites

    default = run_property_suites(4, 150)
    monkeypatch.setattr(property_suites, "STACK_SIZE", stack_size)
    report = run_property_suites(4, 150)
    assert report.text() == default.text()
    assert report.results == default.results
