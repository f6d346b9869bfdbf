"""Seeded random-instance suites for the inequalities the library implements.

The suites draw instances from one fixed-seed generator; each evaluates one
inequality and records the worst signed residual (positive = violation).
The rendered report is deterministic for a given seed so it can double as a
regression artifact.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from .dynamics import (
    TRAJECTORY_CHECKS,
    ControlHamiltonian,
    PiecewiseConstantField,
    propagate,  # noqa: F401  the perfbench tracer test patches this binding
    propagate_stack,
    trajectory_residuals,
)
from .quantum import (
    HermitianOperator,
    PureState,
    check_hermitian,
    check_normalized,
    energy_spreads,
    norms,
)
from .tolerances import BRODY_TOL

MAX_DIM = 8
# the random drives: 1..MAX_SEGMENTS segments of 0.1..MAX_DURATION each, with
# amplitudes within the window of the drawn control problems
MAX_SEGMENTS = 3
MAX_DURATION = 1.0
U_MAX = 2.0
# instances per TrajectoryStack: bounds the memory of a suite run, while the
# fixed cost of each stacked call falls to about a tenth of its time
STACK_SIZE = 16


def _hermitians(normals: np.ndarray) -> np.ndarray:
    """Hermitian parts (..., d, d) of normals[..., 0, :, :] + i*normals[..., 1, :, :]."""
    a = normals[..., 0, :, :] + 1j * normals[..., 1, :, :]
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


def _unit_vectors(normals: np.ndarray) -> np.ndarray:
    """normals[..., 0, :] + i*normals[..., 1, :] over the norm of each vector alone."""
    v = normals[..., 0, :] + 1j * normals[..., 1, :]
    return v / norms(v)[..., None]


def _segment_count(rng: np.random.Generator) -> int:
    return int(rng.integers(1, MAX_SEGMENTS + 1))


def _segments(uniforms: np.ndarray) -> list:
    """(duration, amplitude) rows of uniforms in [0, 1), scaled as Generator.uniform does."""
    low = np.array([0.1, -U_MAX])
    return (low + (np.array([MAX_DURATION, U_MAX]) - low) * uniforms).tolist()


def random_state(rng: np.random.Generator, dim: int) -> PureState:
    return PureState(_unit_vectors(rng.standard_normal((2, dim))))


def random_hermitian(rng: np.random.Generator, dim: int) -> HermitianOperator:
    return HermitianOperator(_hermitians(rng.standard_normal((2, dim, dim))))


def random_control_problem(
    rng: np.random.Generator, dim: int
) -> Tuple[ControlHamiltonian, PiecewiseConstantField, PureState]:
    """One instance of the stacked draws."""
    _, _, (ch,), (field,), ((psi0,),) = next(_problem_stacks(rng, 1, 1, dim))
    return ch, field, PureState(psi0)


@dataclass(frozen=True)
class SuiteResult:
    """Worst signed residual of one suite; worst_instance is the 0-based draw
    index, within the suite, of the instance that gave it, with its dimension
    and its field's segment count (None without a field)."""

    name: str
    instances: int
    max_residual: float
    tolerance: float
    worst_instance: Optional[int] = None
    worst_dim: Optional[int] = None
    worst_segments: Optional[int] = None

    @classmethod
    def from_residuals(cls, name: str, residuals, tolerance: float, shapes) -> "SuiteResult":
        """shapes[i] is instance i's (dimension, segment count), 0 for no field."""
        worst = int(np.argmax(residuals))
        dim, n_seg = shapes[worst].tolist()
        residual = float(residuals[worst])
        return cls(name, len(residuals), residual, tolerance, worst, dim, n_seg or None)

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


def _stacks(draws: Iterable[tuple]) -> Iterator[Tuple[List[int], tuple]]:
    """Group raw draws, in stream order, into stacks of at most STACK_SIZE
    whose arrays share their shapes: for a control problem, the dimension and
    segment count a TrajectoryStack shares.  A stack is yielded as soon as it
    is full, so memory is bounded whatever the instance count; each comes
    with its draw indices and its arrays, stacked along a leading axis."""
    pending: Dict[tuple, List[Tuple[int, tuple]]] = {}
    for i, draw in enumerate(draws):
        key = tuple(a.shape for a in draw)
        pending.setdefault(key, []).append((i, draw))
        if len(pending[key]) == STACK_SIZE:
            yield _columns(pending.pop(key))
    for group in pending.values():
        yield _columns(group)


def _columns(group: List[Tuple[int, tuple]]) -> Tuple[List[int], tuple]:
    indices, draws = zip(*group)
    return list(indices), tuple(map(np.array, zip(*draws)))


def _brody_suite(rng: np.random.Generator, count: int) -> SuiteResult:
    # 2*deltaE <= sqrt(2)*||h||_HS for any state
    dims = (int(rng.integers(2, MAX_DIM + 1)) for _ in range(count))
    draws = ((rng.standard_normal((2, d, d)), rng.standard_normal((2, d))) for d in dims)
    residuals, shapes = np.empty(count), np.zeros((count, 2), dtype=int)
    for idx, (ops, states) in _stacks(draws):
        h, chi = _hermitians(ops), _unit_vectors(states)
        check_hermitian(h, 3)
        check_normalized(chi, 2)
        hs_norms = norms(h.reshape(len(h), -1))
        residuals[idx] = 2.0 * energy_spreads(h, chi) - math.sqrt(2.0) * hs_norms
        shapes[idx, 0] = h.shape[-1]
    return SuiteResult.from_residuals("brody", residuals, BRODY_TOL, shapes)


def _problem_stacks(
    rng: np.random.Generator, count: int, n_states: int, dim: Optional[int] = None
) -> Iterator[tuple]:
    """count control problems of dimension dim (else drawn) with n_states states, one
    generator call per array, built and checked one stack at a time: yields its draw
    indices, (dimension, segment count), chs, fields and a (B, d) array per state column."""
    dims = (dim or int(rng.integers(2, MAX_DIM + 1)) for _ in range(count))
    draws = (
        (
            rng.standard_normal((2, 2, d, d)),
            rng.random((_segment_count(rng), 2)),
            rng.standard_normal((n_states, 2, d)),
        )
        for d in dims
    )
    for idx, (ops, uniforms, states) in _stacks(draws):
        d = ops.shape[-1]
        h = HermitianOperator.stack(_hermitians(ops).reshape(-1, d, d))
        chs = tuple(ControlHamiltonian(h0, hc, U_MAX) for h0, hc in zip(h[0::2], h[1::2]))
        fields = tuple(PiecewiseConstantField(segs) for segs in _segments(uniforms))
        yield idx, (d, uniforms.shape[1]), chs, fields, _unit_vectors(states).swapaxes(0, 1)


def _trajectory_suites(rng: np.random.Generator, count: int) -> List[SuiteResult]:
    """One propagation per instance, at 48 samples per segment, feeds the path-length,
    envelope, drive-area, norm-conservation and survival-rate checks; the endpoint
    reached is the target, so every instance is a reachability certificate.  psi0 and
    the Pfeifer envelope's fixed state phi are drawn together.  Instances are drawn,
    propagated and checked one (dimension, segment count) stack at a time."""
    residuals, shapes = np.empty((len(TRAJECTORY_CHECKS), count)), np.empty((count, 2), dtype=int)
    for idx, shape, chs, fields, (psi0s, phis) in _problem_stacks(rng, count, 2):
        stack = propagate_stack(chs, fields, psi0s, samples_per_segment=48)
        residuals[:, idx] = trajectory_residuals(stack, stack.ends[1], phis)
        shapes[idx] = shape
    return [
        SuiteResult.from_residuals(name, row, tol, shapes)
        for (name, tol), row in zip(TRAJECTORY_CHECKS, residuals)
    ]


def run_property_suites(seed: int, instance_count: int) -> PropertyReport:
    """Run every inequality suite on instance_count seeded random instances: the
    Brody suite on its own draws, then the five trajectory suites on one shared
    propagation of each driven instance."""
    if instance_count < 1:
        raise ValueError("instance_count must be positive")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed!r}")
    rng = np.random.default_rng(seed)
    results = [_brody_suite(rng, instance_count), *_trajectory_suites(rng, instance_count)]
    return PropertyReport(seed=seed, results=tuple(results))
