"""The three benchmark workloads: seeded input generation, the timed call into
qslbounds, and the output check for each unit of work.

A workload draws a fixed-size pool of inputs from its seed; the timed loop in
run.py cycles through that pool, one unit at a time, as a closed loop.  A unit
is the smallest sequence of public calls a user would make (one cap's sweep
plus its CSV, one property-suite run, one bounds report) and completes a known
number of items.

Timed calls go through module attributes (``cli.run_sweep``) so the tracer can
replace them.  The checks call the closed forms through names bound here at
import, before any tracer is installed, so checking never shows up as work of
the layer being measured.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

from qslbounds import bounds, cli, dynamics, property_suites, quantum
from qslbounds.two_level import (
    LandauZenerProblem,
    closed_form_bounds,
    optimal_protocol,
    tqsl_star_closed,
)

CLOSED_FORM_TOL = 1e-12
# The acceptance gate's trajectory-vs-closed-form tolerance for T*_QSL.  It
# holds as is on the exact constrained optima.  The unconstrained composite is
# swept with finite surrogate kicks whose extra drive time t_opt - t_opt_ideal
# the ideal closed form leaves out; the trajectory value may sit up to twice
# that extra time further off (1.6x measured over theta in [0.001, pi/2) and
# delta in [0.5, 2]), and the gap vanishes with the kick duration.
TQSL_TOL = 1e-4
FIGURE_MARGIN = 0.02  # theta grid of the figures: [margin, pi/2 - margin]
FIGURE_CAPS = (
    ("fig2_unconstrained", cli.LambdaSpec("unconstrained"), "unconstrained-composite"),
    ("fig3a_bang_off_bang", cli.LambdaSpec("factor", 6.0), "bang-off-bang"),
    ("fig3b_bang_bang", cli.LambdaSpec("factor", 0.2), "bang-bang"),
)
MAX_DIM = 8


@dataclass
class Workload:
    """Pool of seeded inputs plus the timed call and its check.

    run(x) is the timed unit; check(x, out) returns how many of the unit's
    items failed.  close() removes anything the workload wrote.
    """

    pool: List
    items_per_unit: int
    run: Callable
    check: Callable[[object, object], int]
    close: Callable[[], None] = lambda: None


# ---------------------------------------------------------------------------
# figure_sweeps: cli.run_sweep + cli.emit_report for the three figure caps


@dataclass(frozen=True)
class SweepInput:
    label: str
    cfg: cli.SweepConfig
    regime: str
    csv_path: Path


def _sweep_rows_failed(item: SweepInput, rows) -> int:
    cfg = item.cfg
    if len(rows) != cfg.theta_count:
        return cfg.theta_count
    bad = 0
    for row in rows:
        problem = LandauZenerProblem.from_theta(
            cfg.delta, row.theta, cfg.lambda_spec.resolve(cfg.delta, row.theta)
        )
        closed = closed_form_bounds(problem)
        protocol = optimal_protocol(problem, cfg.u0_surrogate)
        tqsl_tol = TQSL_TOL + 2.0 * (protocol.t_opt - protocol.t_opt_ideal)
        ok = (
            row.pass_a and row.pass_b and row.pass_c1 and row.pass_c2
            and row.fidelity >= cli.FIDELITY_TOL
            and row.regime == item.regime
            and abs(row.tmin_a - closed.tmin_a) <= CLOSED_FORM_TOL
            and abs(row.tmin_b - closed.tmin_b) <= CLOSED_FORM_TOL
            and abs(row.tmin_c1 - closed.tmin_c1) <= CLOSED_FORM_TOL
            and abs(row.tmin_c2 - closed.tmin_c2) <= CLOSED_FORM_TOL
            and abs(row.tqsl_traj - tqsl_star_closed(problem, protocol)) <= tqsl_tol
        )
        bad += 0 if ok else 1
    return bad


def figure_sweeps(seed: int, out_dir: Path, theta_count: int = 50) -> Workload:
    """The paper's figure path, d = 2.  The seed draws the gap delta
    log-uniformly from [0.5, 2]; each cap is one call of run_sweep plus
    emit_report over the figures' theta grid, as the CLI makes it."""
    rng = np.random.default_rng(seed)
    delta = float(10.0 ** rng.uniform(-0.3, 0.3))
    out_dir.mkdir(parents=True, exist_ok=True)
    pool = [
        SweepInput(
            label=label,
            cfg=cli.SweepConfig(
                delta=delta,
                lambda_spec=spec,
                theta_min=FIGURE_MARGIN,
                theta_max=0.5 * math.pi - FIGURE_MARGIN,
                theta_count=theta_count,
            ),
            regime=regime,
            csv_path=out_dir / f"{label}.csv",
        )
        for label, spec, regime in FIGURE_CAPS
    ]
    first_bytes: Dict[str, bytes] = {}

    def run(item: SweepInput):
        rows = cli.run_sweep(item.cfg)
        paths = cli.emit_report(rows, item.cfg, item.csv_path)
        return rows, paths

    def check(item: SweepInput, out) -> int:
        rows, paths = out
        artifact = b"".join(Path(p).read_bytes() for p in paths)
        expected = first_bytes.setdefault(item.label, artifact)
        lines = paths[0].read_text(encoding="utf-8").splitlines()
        if (
            artifact != expected
            or lines != [cli.SWEEP_CSV_HEADER] + [r.csv_row() for r in rows]
        ):
            return item.cfg.theta_count
        return _sweep_rows_failed(item, rows)

    def close() -> None:
        for item in pool:
            for p in (item.csv_path, item.csv_path.with_suffix(".summary.txt")):
                if p.exists():
                    p.unlink()

    return Workload(pool, theta_count, run, check, close)


# ---------------------------------------------------------------------------
# proptest: property_suites.run_property_suites on seeded instance streams


def proptest(seed: int, out_dir: Path, instances: int = 200, streams: int = 8) -> Workload:
    """Random-instance inequality suites in d = 2..8.  The pool is `streams`
    suite seeds drawn from the run seed; each unit runs `instances`
    instances of one stream.  From 200 instances up, run_property_suites
    gives its finite-difference Bhattacharyya suite N // 10 of them, the
    share it has at the ROADMAP's 1000 (below, a floor of 20 raises it)."""
    rng = np.random.default_rng(seed)
    pool = [int(s) for s in rng.integers(0, 2**31 - 1, size=streams)]
    first_text: Dict[int, str] = {}

    def run(suite_seed: int):
        return property_suites.run_property_suites(suite_seed, instances)

    def check(suite_seed: int, report) -> int:
        text = report.text()
        same = first_text.setdefault(suite_seed, text) == text
        return 0 if report.passed and same and report.seed == suite_seed else instances

    return Workload(pool, instances, run, check)


# ---------------------------------------------------------------------------
# bounds_random: bounds.compute_report on a user's own (H0, Hc, u_max, psi0, psig)


@dataclass(frozen=True)
class BoundsInput:
    """Raw arrays as a user would hold them; t_opt is a time the benchmark
    itself achieved, so every lower bound must stay under it."""

    h0: np.ndarray
    hc: np.ndarray
    u_max: float
    psi0: np.ndarray
    psig: np.ndarray
    t_opt: float


def _hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (a + a.conj().T)


def _unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _evolve(h0, hc, segments, psi) -> np.ndarray:
    for duration, amplitude in segments:
        w, v = np.linalg.eigh(h0 + amplitude * hc)
        psi = v @ (np.exp(-1j * w * duration) * (v.conj().T @ psi))
    return psi / np.linalg.norm(psi)


def make_bounds_input(rng: np.random.Generator, dim: int, capped: bool) -> BoundsInput:
    """One instance; an uncapped instance is still driven by a field of
    finite amplitude, up to 5."""
    h0 = _hermitian(rng, dim)
    hc = _hermitian(rng, dim)
    u_max = float(rng.uniform(0.5, 3.0)) if capped else math.inf
    reach = u_max if math.isfinite(u_max) else 5.0
    segments = [
        (float(rng.uniform(0.1, 1.0)), float(rng.uniform(-reach, reach)))
        for _ in range(int(rng.integers(1, 4)))
    ]
    psi0 = _unit_vector(rng, dim)
    psig = _evolve(h0, hc, segments, psi0)
    return BoundsInput(h0, hc, u_max, psi0, psig, sum(d for d, _ in segments))


def bounds_random(seed: int, out_dir: Path, pool_size: int = 256) -> Workload:
    """A-priori bounds alone: no trajectory, so no dynamics work.  Dimension
    and cap cycle through the pool, so the mix (d = 2..8, half capped) is the
    same for every seed and only the matrices and states are random."""
    rng = np.random.default_rng(seed)
    dims = range(2, MAX_DIM + 1)
    pool = [
        make_bounds_input(rng, dims[i % len(dims)], capped=(i // len(dims)) % 2 == 0)
        for i in range(pool_size)
    ]

    def run(x: BoundsInput):
        ch = dynamics.ControlHamiltonian(
            quantum.HermitianOperator(x.h0), quantum.HermitianOperator(x.hc), x.u_max
        )
        inputs = bounds.BoundInputs(ch, quantum.PureState(x.psi0), quantum.PureState(x.psig))
        return bounds.compute_report(inputs, t_opt=x.t_opt)

    def check(x: BoundsInput, report) -> int:
        flags = report.inequality_flags
        ok = not report.errors and len(flags) == 4 and all(flags.values())
        return 0 if ok else 1

    return Workload(pool, 1, run, check)


FACTORIES: Dict[str, Callable[..., Workload]] = {
    "figure_sweeps": figure_sweeps,
    "proptest": proptest,
    "bounds_random": bounds_random,
}

# Size arguments that make a workload's unit a single item, for the set-up
# probe's warm-up (run_sweep needs at least two theta points).
ONE_ITEM: Dict[str, Dict[str, int]] = {
    "figure_sweeps": {"theta_count": 2},
    "proptest": {"instances": 1, "streams": 1},
    "bounds_random": {"pool_size": 1},
}
