"""Command-line harness: parameter sweeps, single-case verification, and the
seeded property suites.

Output is deterministic for a fixed config: floats are rendered with 17
significant digits and no timestamps are written, so re-running a sweep
reproduces the artifact byte for byte.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__, tolerances
from .bounds import BOUND_NAMES, compute_reports
from .dynamics import MISSED_TARGET, TRAJECTORY_CHECKS
from .dynamics import propagate_refined, tqsl_stars, trajectory_residuals
from .property_suites import run_property_suites
from .tolerances import CLOSED_FORM_TOL, FIDELITY_TOL
from .two_level import (
    LandauZenerProblem,
    OptimalProtocol,
    boundary_state_arrays,
    check_delta,
    check_surrogate,
    closed_form_bounds,
    gamma_from_theta,
    optimal_protocol,
    tqsl_star_closed,
)


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _cell(value) -> str:
    """One table or summary cell: a flag as 1/0, a float to 17 significant
    digits (it round-trips exactly), anything else as str."""
    if isinstance(value, bool):
        return "1" if value else "0"
    return _fmt(value) if isinstance(value, float) else str(value)


@dataclass(frozen=True)
class LambdaSpec:
    """Drive-cap policy: no cap, a multiple of the critical cap, or absolute."""

    mode: str  # "unconstrained" | "factor" | "absolute"
    value: Optional[float] = None

    def __post_init__(self):
        if self.mode not in ("unconstrained", "factor", "absolute"):
            raise ValueError(f"unknown lambda mode {self.mode!r}")
        if self.mode == "unconstrained":
            if self.value is not None:
                raise ValueError("unconstrained mode takes no value")
        elif self.value is None or not self.value > 0.0:
            raise ValueError(f"{self.mode} mode needs a positive value")
        elif math.isinf(self.value):
            raise ValueError(f"{self.mode} cap must be finite; pass --unconstrained for no cap")

    def resolve(self, delta: float, theta: float) -> float:
        """The drive cap at (delta, theta): finite and positive for a finite policy
        except a factor at theta = pi/2 (gamma = 0), which gives +inf."""
        if self.mode == "unconstrained":
            return math.inf
        if self.mode == "absolute":
            return float(self.value)
        gamma = gamma_from_theta(delta, theta)
        if gamma == 0.0:
            return math.inf
        cap = float(self.value) * delta * delta / (4.0 * gamma)
        if not 0.0 < cap < math.inf:
            raise ValueError(
                f"lambda factor {self.value!r} at delta={delta!r}, theta={theta!r} "
                f"gives the cap {cap!r}; it must be positive and finite"
            )
        return cap

    def __str__(self) -> str:
        return self.mode if self.value is None else f"{self.mode}={_fmt(self.value)}"


@dataclass(frozen=True)
class SweepConfig:
    delta: float = 1.0
    lambda_spec: LambdaSpec = LambdaSpec("unconstrained")
    theta_min: float = 0.02
    theta_max: float = 0.5 * math.pi - 0.02
    theta_count: int = 50
    u0_surrogate: Optional[float] = None

    def __post_init__(self):
        check_delta(self.delta)
        if not 0.0 < self.theta_min < self.theta_max <= 0.5 * math.pi:
            raise ValueError(
                f"need 0 < theta_min < theta_max <= pi/2, got "
                f"({self.theta_min!r}, {self.theta_max!r})"
            )
        if self.theta_count < 2:
            raise ValueError(f"theta_count must be >= 2, got {self.theta_count!r}")


@dataclass(frozen=True)
class SweepRow:
    """One theta point of a sweep.  The fields, in order, are the CSV columns;
    their defaults are the theta = pi/2 row, where gamma = 0 makes the
    endpoints coincide and nothing moves."""

    theta: float
    gamma: float = 0.0
    regime: str = "trivial"
    t_opt: float = 0.0
    tqsl_closed: float = 0.0
    tqsl_traj: float = 0.0
    tmin_a: float = 0.0
    tmin_b: float = 0.0
    tmin_c1: float = 0.0
    tmin_c2: float = 0.0
    fidelity: float = 1.0
    pass_a: bool = True
    pass_b: bool = True
    pass_c1: bool = True
    pass_c2: bool = True

    @property
    def passed(self) -> bool:
        return self.pass_a and self.pass_b and self.pass_c1 and self.pass_c2

    def csv_row(self) -> str:
        return _SWEEP_ROW.format(*[getattr(self, name) for name in _SWEEP_COLUMNS])


_SWEEP_COLUMNS = tuple(f.name for f in fields(SweepRow))
SWEEP_CSV_HEADER = ",".join(_SWEEP_COLUMNS)
# each column rendered as _cell renders a value of its field's type, in one format call
_SWEEP_ROW = ",".join(
    {"bool": "{:d}", "float": "{:.17g}", "str": "{}"}[f.type] for f in fields(SweepRow)
)


def _solve_points(problems: Sequence[LandauZenerProblem], u0: Optional[float], samples: int):
    """Every point's pipeline, for a sweep or verify's grid of one: the bounds
    flagged against t_opt_ideal, each report's t_qsl_star filled from one
    propagation and one tqsl_stars pass per segment count.  Returns the
    protocols, reports, one trajectory stack per segment count, the final
    fidelities and the (n, 2) psi_g rows."""
    # the states first: their gap check rejects a tiny delta before the protocols divide by it
    ends = boundary_state_arrays(problems)  # psi0 and psig of every point, (2, n, 2)
    protocols = [optimal_protocol(p, u0) for p in problems]
    chs = [p.control_hamiltonian() for p in problems]
    reports = compute_reports(chs, *ends, [p.t_opt_ideal for p in protocols])
    fidelities, stacks = [math.nan] * len(problems), []
    for n_seg in {len(p.field.segments) for p in protocols}:
        group = [k for k, p in enumerate(protocols) if len(p.field.segments) == n_seg]
        stack = propagate_refined(
            [chs[k] for k in group], [protocols[k].field for k in group], ends[0, group], samples
        )
        for k, estimate in zip(group, tqsl_stars(stack, ends[1, group])):
            reports[k].t_qsl_star, fidelities[k] = estimate.time, estimate.target_fidelity
        stacks.append(stack)
    return protocols, reports, stacks, fidelities, ends[1]


def run_sweep(cfg: SweepConfig) -> List[SweepRow]:
    """One row per theta of the grid, at the 2 samples per segment that give
    T*_QSL the bits of any finer grid (1 rounds differently)."""
    thetas = [float(t) for t in np.linspace(cfg.theta_min, cfg.theta_max, cfg.theta_count)]
    # theta = pi/2 gets the default row, which needs no states
    rows = [SweepRow(t) for t in thetas]
    moving = [i for i, t in enumerate(thetas) if t != 0.5 * math.pi]
    problems = [
        LandauZenerProblem(cfg.delta, t, cfg.lambda_spec.resolve(cfg.delta, t))
        for t in (thetas[i] for i in moving)
    ]
    protocols, reports, _, fidelities, _ = _solve_points(problems, cfg.u0_surrogate, 2)
    for i, problem, protocol, r, fidelity in zip(moving, problems, protocols, reports, fidelities):
        rows[i] = SweepRow(  # the columns in order
            problem.theta, problem.gamma, protocol.regime, r.t_opt,
            tqsl_star_closed(problem, protocol), r.t_qsl_star,
            r.t_min_a, r.t_min_b, r.t_min_c1, r.t_min_c2, fidelity,
            *[r.inequality_flags.get(n, False) for n in BOUND_NAMES],
        )
    return rows


def emit_report(rows: Sequence[SweepRow], cfg: SweepConfig, path) -> Tuple[Path, Path]:
    """Write the sweep CSV plus a sidecar summary; returns both paths."""
    if not rows:
        raise ValueError("refusing to write an empty table")
    csv_path = Path(path)
    table = [SWEEP_CSV_HEADER] + [row.csv_row() for row in rows]
    csv_path.write_text("\n".join(table) + "\n", encoding="utf-8")
    sidecar = csv_path.with_suffix(".summary.txt")
    summary = [f"qslbounds {__version__} sweep summary"]
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        summary.append(f"{f.name}={'auto' if value is None else _cell(value)}")
    summary.append(f"rows={len(rows)}")
    summary.append(f"regimes={','.join(sorted({r.regime for r in rows}))}")
    summary.append(f"all_pass={_cell(all(r.passed for r in rows))}")
    sidecar.write_text("\n".join(summary) + "\n", encoding="utf-8")
    return csv_path, sidecar


@dataclass(frozen=True)
class Check:
    value: float
    tolerance: float
    passed: bool
    note: str = ""


@dataclass(frozen=True)
class VerifyReport:
    problem: LandauZenerProblem
    protocol: Optional[OptimalProtocol]
    checks: Dict[str, Check]
    bounds_text: str

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks.values())

    def text(self) -> str:
        lines = [
            f"qslbounds {__version__} verify",
            (
                f"delta={_fmt(self.problem.delta)} gamma={_fmt(self.problem.gamma)} "
                f"theta={_fmt(self.problem.theta)} lambda_cap={_fmt(self.problem.lambda_cap)}"
            ),
        ]
        if self.protocol is None:
            lines.append("protocol: none (coincident endpoints)")
        else:
            lines.append(f"protocol: {self.protocol.regime}")
            for dur, amp in self.protocol.field.segments:
                lines.append(f"  segment duration={_fmt(dur)} amplitude={_fmt(amp)}")
        lines.append(self.bounds_text)
        for name in sorted(self.checks):
            c = self.checks[name]
            status = "pass" if c.passed else "FAIL"
            note = f" ({c.note})" if c.note else ""
            lines.append(
                f"check {name:<24} value={c.value:+.6e} tol={_fmt(c.tolerance)} {status}{note}"
            )
        lines.append(f"verify: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


# verify's names for the rows of dynamics.TRAJECTORY_CHECKS it prints; it omits norm_drift
_VERIFY_NAMES = {"anandan_aharonov": "anandan_aharonov", "pfeifer": "pfeifer_envelope",
                 "arenz": "arenz_overlap", "bhattacharyya": "bhattacharyya"}


def verify_case(
    delta: float,
    theta: float,
    lambda_spec: LambdaSpec,
    u0_surrogate: Optional[float] = None,
) -> VerifyReport:
    """Run every check on one instance: the sweep's pipeline on a grid of one,
    at 200 samples per segment for the trajectory checks."""
    cap = lambda_spec.resolve(delta, theta)
    if theta == 0.5 * math.pi:
        check_surrogate(cap, u0_surrogate)
        problem = LandauZenerProblem(delta, theta, math.inf)
        ch = problem.control_hamiltonian()
        (report,) = compute_reports([ch], *boundary_state_arrays([problem]), [0.0])
        values = [report.value(n) for n in BOUND_NAMES]
        vanish = Check(max(values), 0.0, all(v == 0.0 for v in values), "coincident endpoints")
        return VerifyReport(problem, None, {"bounds_vanish": vanish}, report.text_block())

    problem = LandauZenerProblem(delta, theta, cap)
    solved = _solve_points([problem], u0_surrogate, 200)
    (protocol,), (report,), (traj,), (fidelity,), psigs = solved  # one point, one stack
    closed = closed_form_bounds(problem)
    worst = max(abs(getattr(closed, f"tmin_{n}") - report.value(n)) for n in BOUND_NAMES)
    checks = {"fidelity": Check(fidelity, FIDELITY_TOL, fidelity >= FIDELITY_TOL)}
    checks["closed_form_agreement"] = Check(worst, CLOSED_FORM_TOL, worst <= CLOSED_FORM_TOL)
    residuals = trajectory_residuals(traj, psigs, psigs)[:, 0].tolist()
    for (name, tol), residual in zip(TRAJECTORY_CHECKS, residuals):
        if name in _VERIFY_NAMES:  # a NaN residual fails: the Arenz target was missed
            note = MISSED_TARGET.format(fidelity) if math.isnan(residual) else ""
            checks[_VERIFY_NAMES[name]] = Check(residual, tol, residual <= tol, note)
    # compute_reports' flags are the one definition of a dominance pass
    for name in BOUND_NAMES:
        checks[f"dominance_{name}"] = Check(
            report.value(name),
            protocol.t_opt_ideal + tolerances.PASS_TOL,
            report.inequality_flags.get(name, False),
        )
    return VerifyReport(problem, protocol, checks, report.text_block())


# ---------------------------------------------------------------------------
# argument plumbing


def _cap_type(mode: str):
    """argparse type of a cap flag: its value becomes a LambdaSpec."""

    def parse(text: str) -> LambdaSpec:
        try:
            return LambdaSpec(mode, float(text))
        except ValueError as exc:  # argparse would print its generic "invalid ... value"
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def _add_problem_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--delta", type=float, default=SweepConfig.delta, help="gap delta (> 0, finite)")
    cap = p.add_mutually_exclusive_group()
    cap.add_argument(
        "--unconstrained",
        dest="cap",
        action="store_const",
        const=LambdaSpec("unconstrained"),
        help="no drive cap",
    )
    cap.add_argument(
        "--lambda-factor",
        dest="cap",
        type=_cap_type("factor"),
        metavar="F",
        help="cap as a multiple of the critical value delta^2/(4*gamma)",
    )
    cap.add_argument(
        "--lambda", dest="cap", type=_cap_type("absolute"), metavar="V", help="absolute drive cap"
    )
    p.add_argument("--u0", type=float, help="surrogate kick amplitude (uncapped drive only)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qslbounds",
        description="speed-limit times and control-time lower bounds for a driven qubit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.set_defaults(parser=p, run=run)
        p.add_argument(
            "--config",
            help="JSON object whose keys are this command's flag names with underscores",
        )
        return p

    p_sweep = command("sweep", _cmd_sweep, "bounds and protocol times over a theta grid")
    _add_problem_flags(p_sweep)
    p_sweep.add_argument("--theta-min", type=float, default=SweepConfig.theta_min)
    p_sweep.add_argument("--theta-max", type=float, default=SweepConfig.theta_max)
    p_sweep.add_argument("--theta-count", type=int, default=SweepConfig.theta_count)
    p_sweep.add_argument("--out", help="CSV path; the summary is written next to it")

    p_verify = command("verify", _cmd_verify, "all inequality checks at a single theta")
    _add_problem_flags(p_verify)
    p_verify.add_argument("--theta", type=float)
    p_verify.add_argument("--out", help="also write the report to this path")

    p_prop = command("proptest", _cmd_proptest, "seeded random-instance inequality suites")
    p_prop.add_argument("--seed", type=int, default=0)
    p_prop.add_argument("--instances", type=int, default=1000)
    p_prop.add_argument("--out", help="also write the report to this path")

    return parser


def _unique_keys(pairs: List[Tuple[str, object]]) -> Dict[str, object]:
    """The dict of a JSON object, which must name each key once."""
    keys = [key for key, _ in pairs]
    for key in keys:
        if keys.count(key) > 1:
            raise ValueError(f"config key {key!r} is repeated")
    return dict(pairs)


def _config_defaults(parser: argparse.ArgumentParser, path: str) -> None:
    """Make the settings of a JSON config file the defaults of `parser`, so a
    flag given on the command line still wins.  Each key names one of the
    parser's flags and its value is parsed by that flag's type."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh, object_pairs_hook=_unique_keys)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    flags = {
        a.option_strings[-1].lstrip("-").replace("-", "_"): a
        for a in parser._actions
        if a.option_strings and a.dest not in ("help", "config")
    }
    defaults: Dict[str, object] = {}
    set_by: Dict[str, str] = {}
    for key, value in data.items():
        action = flags.get(key)
        if action is None:
            raise ValueError(f"unknown config key {key!r}")
        if action.dest in set_by:
            raise ValueError(
                f"config keys {set_by[action.dest]!r} and {key!r} both set the {action.dest}"
            )
        set_by[action.dest] = key
        if action.nargs == 0:
            if value is not True:
                raise ValueError(f"config key {key!r} must be true, got {value!r}")
            defaults[action.dest] = action.const
            continue
        try:
            defaults[action.dest] = (action.type or str)(str(value))
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ValueError(f"config key {key!r}: {exc}") from None
    parser.set_defaults(**defaults)


def _cap(args: argparse.Namespace) -> LambdaSpec:
    if args.cap is None:
        raise ValueError(
            "drive cap unspecified: pass --unconstrained, --lambda-factor or --lambda"
        )
    return args.cap


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = SweepConfig(
        delta=args.delta,
        lambda_spec=_cap(args),
        theta_min=args.theta_min,
        theta_max=args.theta_max,
        theta_count=args.theta_count,
        u0_surrogate=args.u0,
    )
    if args.out is None:
        raise ValueError("sweep needs --out (or 'out' in the config file)")
    rows = run_sweep(cfg)
    csv_path, sidecar = emit_report(rows, cfg, args.out)
    print(f"wrote {csv_path} ({len(rows)} rows) and {sidecar}")
    return 0


def _print_report(report, out: Optional[str]) -> int:
    text = report.text()
    if out:  # first, so an unwritable path is a usage error with nothing printed
        Path(out).write_text(text, encoding="utf-8")
    print(text, end="")
    return 0 if report.passed else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.theta is None:
        raise ValueError("verify needs --theta (or 'theta' in the config file)")
    report = verify_case(args.delta, args.theta, _cap(args), args.u0)
    return _print_report(report, args.out)


def _cmd_proptest(args: argparse.Namespace) -> int:
    return _print_report(run_property_suites(args.seed, args.instances), args.out)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one subcommand: 0 when every check passes, 1 when one fails and 2
    (through parser.error) for bad input."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            _config_defaults(args.parser, args.config)
            args = parser.parse_args(argv)
        return args.run(args)
    except (ValueError, OSError) as exc:
        args.parser.error(str(exc))


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
