"""Seeded random-instance suites for the inequalities the library implements.

Each suite draws instances from a fixed-seed generator, evaluates one
inequality, and records the worst signed residual (positive = violation).
The rendered report is deterministic for a given seed so it can double as a
regression artifact.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from .bounds import arenz_overlap_residuals
from .dynamics import (
    ControlHamiltonian,
    PiecewiseConstantField,
    bhattacharyya_residuals,
    norm_drifts,
    path_lengths,
    pfeifer_envelope_residuals,
    propagate,  # noqa: F401  the perfbench tracer test patches this binding
    propagate_stack,
)
from .quantum import (
    HermitianOperator,
    PureState,
    energy_variance,
    fubini_study_distance,
    hs_norm,
)
from .tolerances import (
    AA_TOL,
    ARENZ_TOL,
    BHATTACHARYYA_TOL,
    BRODY_TOL,
    NORM_DRIFT_TOL,
    PFEIFER_TOL,
)

MAX_DIM = 8
# the random drives: 1..MAX_SEGMENTS segments of 0.1..MAX_DURATION each, with
# amplitudes within the window of the drawn control problems
MAX_SEGMENTS = 3
MAX_DURATION = 1.0
U_MAX = 2.0
# instances per TrajectoryStack: bounds the memory of a suite run, while the
# fixed cost of each stacked call falls to about a tenth of its time
STACK_SIZE = 16


def random_state(rng: np.random.Generator, dim: int) -> PureState:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return PureState(v / np.linalg.norm(v))


def random_hermitian(rng: np.random.Generator, dim: int) -> HermitianOperator:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return HermitianOperator(0.5 * (a + a.conj().T))


def random_field(rng: np.random.Generator) -> PiecewiseConstantField:
    n = int(rng.integers(1, MAX_SEGMENTS + 1))
    segments = tuple(
        (float(rng.uniform(0.1, MAX_DURATION)), float(rng.uniform(-U_MAX, U_MAX)))
        for _ in range(n)
    )
    return PiecewiseConstantField(segments)


def random_control_problem(
    rng: np.random.Generator, dim: int
) -> Tuple[ControlHamiltonian, PiecewiseConstantField, PureState]:
    ch = ControlHamiltonian(
        h0=random_hermitian(rng, dim), hc=random_hermitian(rng, dim), u_max=U_MAX
    )
    return ch, random_field(rng), random_state(rng, dim)


@dataclass(frozen=True)
class SuiteResult:
    """Worst signed residual of one suite; worst_instance is the 0-based draw
    index, within the suite, of the instance that gave it."""

    name: str
    instances: int
    max_residual: float
    tolerance: float
    worst_instance: Optional[int] = None

    @classmethod
    def from_residuals(cls, name: str, residuals: np.ndarray, tolerance: float) -> "SuiteResult":
        worst = int(np.argmax(residuals))
        return cls(name, len(residuals), float(residuals[worst]), tolerance, worst)

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


def _stacks(problems: Iterable[tuple]) -> Iterator[Tuple[List[int], tuple]]:
    """Group draws, in stream order, into stacks of at most STACK_SIZE that
    share (dimension, segment count), the shape a TrajectoryStack shares.

    A stack is yielded as soon as it is full, so memory is bounded by the
    stack size whatever the instance count.  Each comes with the draw
    indices of its instances and its problems' columns.
    """
    pending: Dict[Tuple[int, int], List[Tuple[int, tuple]]] = {}
    for i, problem in enumerate(problems):
        ch, field = problem[0], problem[1]
        key = (ch.dim, len(field.segments))
        pending.setdefault(key, []).append((i, problem))
        if len(pending[key]) == STACK_SIZE:
            yield _columns(pending.pop(key))
    for group in pending.values():
        yield _columns(group)


def _columns(group: List[Tuple[int, tuple]]) -> Tuple[List[int], tuple]:
    indices, problems = zip(*group)
    return list(indices), tuple(zip(*problems))


def _brody_suite(rng: np.random.Generator, count: int) -> SuiteResult:
    # 2*deltaE <= sqrt(2)*||h||_HS for any state
    residuals = np.empty(count)
    for i in range(count):
        dim = int(rng.integers(2, MAX_DIM + 1))
        h = random_hermitian(rng, dim)
        s = random_state(rng, dim)
        residuals[i] = 2.0 * energy_variance(s, h) - math.sqrt(2.0) * hs_norm(h)
    return SuiteResult.from_residuals("brody", residuals, BRODY_TOL)


def _driven_draws(rng: np.random.Generator, count: int) -> Iterator[tuple]:
    """Control problem plus the fixed state phi of the Pfeifer envelope."""
    for _ in range(count):
        dim = int(rng.integers(2, MAX_DIM + 1))
        ch, field, psi0 = random_control_problem(rng, dim)
        yield ch, field, psi0, random_state(rng, dim)


def _trajectory_suites(rng: np.random.Generator, count: int) -> List[SuiteResult]:
    """One propagation per instance feeds the path-length, envelope, drive-area
    and norm-conservation checks; the endpoint reached defines the target, so
    every instance is a reachability certificate.  Instances are propagated
    and checked one (dimension, segment count) stack at a time."""
    residuals = np.empty((4, count))
    for idx, (chs, fields, psi0s, phis) in _stacks(_driven_draws(rng, count)):
        stack = propagate_stack(chs, fields, psi0s, samples_per_segment=48)
        finals = stack.final_states
        geodesic = np.array([fubini_study_distance(p, f) for p, f in zip(psi0s, finals)])
        residuals[0, idx] = geodesic - path_lengths(stack)
        residuals[1, idx] = pfeifer_envelope_residuals(stack, phis)
        residuals[2, idx] = arenz_overlap_residuals(stack, finals)
        residuals[3, idx] = norm_drifts(stack)
    return [
        SuiteResult.from_residuals("anandan_aharonov", residuals[0], AA_TOL),
        SuiteResult.from_residuals("pfeifer", residuals[1], PFEIFER_TOL),
        SuiteResult.from_residuals("arenz", residuals[2], ARENZ_TOL),
        SuiteResult.from_residuals("norm_drift", residuals[3], NORM_DRIFT_TOL),
    ]


def _bhattacharyya_suite(rng: np.random.Generator, count: int) -> SuiteResult:
    draws = (
        random_control_problem(rng, int(rng.integers(2, MAX_DIM + 1))) for _ in range(count)
    )
    residuals = np.empty(count)
    for idx, (chs, fields, psi0s) in _stacks(draws):
        stack = propagate_stack(chs, fields, psi0s, samples_per_segment=200)
        residuals[idx] = bhattacharyya_residuals(stack)
    return SuiteResult.from_residuals("bhattacharyya", residuals, BHATTACHARYYA_TOL)


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
