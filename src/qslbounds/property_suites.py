"""Seeded random-instance suites for the inequalities the library implements.

Each suite draws instances from a fixed-seed generator, evaluates one
inequality, and records the worst signed residual (positive = violation).
The rendered report is deterministic for a given seed so it can double as a
regression artifact.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .bounds import arenz_overlap_inequality_check
from .dynamics import (
    ControlHamiltonian,
    PiecewiseConstantField,
    bhattacharyya_check,
    path_length,
    pfeifer_envelope_check,
    propagate,
)
from .quantum import (
    HermitianOperator,
    PureState,
    energy_variance,
    fubini_study_distance,
    hs_norm,
)

BRODY_TOL = 1e-10
AA_TOL = 1e-6
PFEIFER_TOL = 1e-6
BHATTACHARYYA_TOL = 1e-4
ARENZ_TOL = 1e-9
NORM_DRIFT_TOL = 1e-10

MAX_DIM = 8


def random_state(rng: np.random.Generator, dim: int) -> PureState:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return PureState(v / np.linalg.norm(v))


def random_hermitian(rng: np.random.Generator, dim: int, scale: float = 1.0) -> HermitianOperator:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return HermitianOperator(scale * 0.5 * (a + a.conj().T))


def random_field(
    rng: np.random.Generator,
    u_max: float,
    max_segments: int = 3,
    max_duration: float = 1.0,
) -> PiecewiseConstantField:
    n = int(rng.integers(1, max_segments + 1))
    segments = tuple(
        (float(rng.uniform(0.1, max_duration)), float(rng.uniform(-u_max, u_max)))
        for _ in range(n)
    )
    return PiecewiseConstantField(segments)


def random_control_problem(
    rng: np.random.Generator, dim: int, u_max: float = 2.0
) -> Tuple[ControlHamiltonian, PiecewiseConstantField, PureState]:
    ch = ControlHamiltonian(
        h0=random_hermitian(rng, dim), hc=random_hermitian(rng, dim), u_max=u_max
    )
    return ch, random_field(rng, u_max), random_state(rng, dim)


@dataclass(frozen=True)
class SuiteResult:
    name: str
    instances: int
    max_residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{self.name:<16} instances={self.instances:<6d} "
            f"max_residual={self.max_residual:+.6e} tol={self.tolerance:.1e} {status}"
        )


@dataclass(frozen=True)
class PropertyReport:
    seed: int
    results: Tuple[SuiteResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def text(self) -> str:
        lines = [f"property suites  seed={self.seed}  dims 2..{MAX_DIM}"]
        lines.extend(r.line() for r in self.results)
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


def _brody_suite(rng: np.random.Generator, count: int) -> SuiteResult:
    # 2*deltaE <= sqrt(2)*||h||_HS for any state
    worst = -math.inf
    for _ in range(count):
        dim = int(rng.integers(2, MAX_DIM + 1))
        h = random_hermitian(rng, dim)
        s = random_state(rng, dim)
        worst = max(worst, 2.0 * energy_variance(s, h) - math.sqrt(2.0) * hs_norm(h))
    return SuiteResult("brody", count, worst, BRODY_TOL)


def _trajectory_suites(rng: np.random.Generator, count: int) -> List[SuiteResult]:
    """One propagation per instance feeds the path-length, envelope, drive-area
    and norm-conservation checks; the endpoint reached defines the target, so
    every instance is a reachability certificate."""
    worst_aa = -math.inf
    worst_pfeifer = -math.inf
    worst_arenz = -math.inf
    worst_norm = -math.inf
    for _ in range(count):
        dim = int(rng.integers(2, MAX_DIM + 1))
        ch, field, psi0 = random_control_problem(rng, dim)
        phi = random_state(rng, dim)
        traj = propagate(ch, field, psi0, samples_per_segment=48)
        geodesic = fubini_study_distance(psi0, traj.final_state())
        worst_aa = max(worst_aa, geodesic - path_length(traj))
        worst_pfeifer = max(worst_pfeifer, pfeifer_envelope_check(traj, phi))
        worst_arenz = max(worst_arenz, arenz_overlap_inequality_check(traj, traj.final_state()))
        norms = np.linalg.norm(traj.states, axis=1)
        worst_norm = max(worst_norm, float(np.max(np.abs(norms - 1.0))))
    return [
        SuiteResult("anandan_aharonov", count, worst_aa, AA_TOL),
        SuiteResult("pfeifer", count, worst_pfeifer, PFEIFER_TOL),
        SuiteResult("arenz", count, worst_arenz, ARENZ_TOL),
        SuiteResult("norm_drift", count, worst_norm, NORM_DRIFT_TOL),
    ]


def _bhattacharyya_suite(rng: np.random.Generator, count: int) -> SuiteResult:
    worst = -math.inf
    for _ in range(count):
        dim = int(rng.integers(2, MAX_DIM + 1))
        traj = propagate(*random_control_problem(rng, dim), samples_per_segment=200)
        worst = max(worst, bhattacharyya_check(traj))
    return SuiteResult("bhattacharyya", count, worst, BHATTACHARYYA_TOL)


def run_property_suites(seed: int, instance_count: int) -> PropertyReport:
    """Run every inequality suite on instance_count seeded random instances.

    The Bhattacharyya suite samples 200 points per segment, the most of any
    suite, and runs on a tenth of the instances (at least 20).
    """
    if instance_count < 1:
        raise ValueError("instance_count must be positive")
    rng = np.random.default_rng(seed)
    results: List[SuiteResult] = [_brody_suite(rng, instance_count)]
    results.extend(_trajectory_suites(rng, instance_count))
    bh_count = max(min(instance_count, 20), instance_count // 10)
    results.append(_bhattacharyya_suite(rng, bh_count))
    return PropertyReport(seed=seed, results=tuple(results))
