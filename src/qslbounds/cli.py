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
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .bounds import BoundInputs, arenz_overlap_inequality_check, compute_report
from .dynamics import (
    bhattacharyya_check,
    path_length,
    pfeifer_envelope_check,
    propagate_refined,
    tqsl_star,
)
from .quantum import fubini_study_distance
from .property_suites import (
    AA_TOL,
    ARENZ_TOL,
    BHATTACHARYYA_TOL,
    PFEIFER_TOL,
    run_property_suites,
)
from .two_level import (
    LandauZenerProblem,
    OptimalProtocol,
    boundary_states,
    closed_form_bounds,
    gamma_from_theta,
    optimal_protocol,
    tqsl_star_closed,
)

SWEEP_CSV_HEADER = (
    "theta,gamma,regime,t_opt,tqsl_closed,tqsl_traj,"
    "tmin_a,tmin_b,tmin_c1,tmin_c2,fidelity,pass_a,pass_b,pass_c1,pass_c2"
)

FIDELITY_TOL = 0.999
DOMINANCE_TOL = 1e-9
CLOSED_FORM_TOL = 1e-12


def _fmt(x: float) -> str:
    return format(x, ".17g")


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

    def resolve(self, delta: float, theta: float) -> float:
        if self.mode == "unconstrained":
            return math.inf
        if self.mode == "absolute":
            return float(self.value)
        gamma = gamma_from_theta(delta, theta)
        if gamma == 0.0:
            return math.inf
        return float(self.value) * delta * delta / (4.0 * gamma)


@dataclass(frozen=True)
class SweepConfig:
    delta: float = 1.0
    lambda_spec: LambdaSpec = LambdaSpec("unconstrained")
    theta_min: float = 0.02
    theta_max: float = 0.5 * math.pi - 0.02
    theta_count: int = 50
    u0_surrogate: Optional[float] = None
    output_path: Optional[str] = None
    seed: int = 0

    def __post_init__(self):
        if not self.delta > 0.0:
            raise ValueError(f"delta must be positive, got {self.delta!r}")
        if not 0.0 < self.theta_min < self.theta_max <= 0.5 * math.pi:
            raise ValueError(
                f"need 0 < theta_min < theta_max <= pi/2, got "
                f"({self.theta_min!r}, {self.theta_max!r})"
            )
        if self.theta_count < 2:
            raise ValueError(f"theta_count must be >= 2, got {self.theta_count!r}")


@dataclass(frozen=True)
class SweepRow:
    theta: float
    gamma: float
    regime: str
    t_opt: float
    tqsl_closed: float
    tqsl_traj: float
    tmin_a: float
    tmin_b: float
    tmin_c1: float
    tmin_c2: float
    fidelity: float
    pass_a: bool
    pass_b: bool
    pass_c1: bool
    pass_c2: bool

    def csv_row(self) -> str:
        cells = [
            _fmt(self.theta),
            _fmt(self.gamma),
            self.regime,
            _fmt(self.t_opt),
            _fmt(self.tqsl_closed),
            _fmt(self.tqsl_traj),
            _fmt(self.tmin_a),
            _fmt(self.tmin_b),
            _fmt(self.tmin_c1),
            _fmt(self.tmin_c2),
            _fmt(self.fidelity),
            "1" if self.pass_a else "0",
            "1" if self.pass_b else "0",
            "1" if self.pass_c1 else "0",
            "1" if self.pass_c2 else "0",
        ]
        return ",".join(cells)


def _trivial_row(theta: float) -> SweepRow:
    # theta = pi/2 means gamma = 0: the endpoints coincide and nothing moves
    return SweepRow(
        theta=theta,
        gamma=0.0,
        regime="trivial",
        t_opt=0.0,
        tqsl_closed=0.0,
        tqsl_traj=0.0,
        tmin_a=0.0,
        tmin_b=0.0,
        tmin_c1=0.0,
        tmin_c2=0.0,
        fidelity=1.0,
        pass_a=True,
        pass_b=True,
        pass_c1=True,
        pass_c2=True,
    )


def _sweep_point(cfg: SweepConfig, theta: float) -> SweepRow:
    if theta == 0.5 * math.pi:
        return _trivial_row(theta)
    cap = cfg.lambda_spec.resolve(cfg.delta, theta)
    problem = LandauZenerProblem.from_theta(cfg.delta, theta, cap)
    protocol = optimal_protocol(problem, cfg.u0_surrogate)
    ch = problem.control_hamiltonian()
    psi0, psig = boundary_states(problem)
    traj = propagate_refined(ch, protocol.field, psi0)
    estimate = tqsl_star(traj, psig)
    t_opt = protocol.t_opt_ideal
    report = compute_report(BoundInputs(ch, psi0, psig), t_opt=t_opt)
    return SweepRow(
        theta=theta,
        gamma=problem.gamma,
        regime=protocol.regime,
        t_opt=t_opt,
        tqsl_closed=tqsl_star_closed(problem, protocol),
        tqsl_traj=estimate.time,
        tmin_a=report.t_min_a,
        tmin_b=report.t_min_b,
        tmin_c1=report.t_min_c1,
        tmin_c2=report.t_min_c2,
        fidelity=estimate.target_fidelity,
        pass_a=report.inequality_flags.get("a", False),
        pass_b=report.inequality_flags.get("b", False),
        pass_c1=report.inequality_flags.get("c1", False),
        pass_c2=report.inequality_flags.get("c2", False),
    )


def run_sweep(cfg: SweepConfig) -> List[SweepRow]:
    thetas = np.linspace(cfg.theta_min, cfg.theta_max, cfg.theta_count)
    return [_sweep_point(cfg, float(t)) for t in thetas]


def _config_echo(cfg: SweepConfig) -> List[str]:
    lam = cfg.lambda_spec
    lam_str = lam.mode if lam.value is None else f"{lam.mode}={_fmt(lam.value)}"
    return [
        f"delta={_fmt(cfg.delta)}",
        f"lambda_spec={lam_str}",
        f"theta_min={_fmt(cfg.theta_min)}",
        f"theta_max={_fmt(cfg.theta_max)}",
        f"theta_count={cfg.theta_count}",
        f"u0_surrogate={'auto' if cfg.u0_surrogate is None else _fmt(cfg.u0_surrogate)}",
        f"seed={cfg.seed}",
    ]


def emit_report(rows: Sequence[SweepRow], cfg: SweepConfig, path) -> Tuple[Path, Path]:
    """Write the sweep CSV plus a sidecar summary; returns both paths."""
    if not rows:
        raise ValueError("refusing to write an empty table")
    csv_path = Path(path)
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(SWEEP_CSV_HEADER + "\n")
        for row in rows:
            fh.write(row.csv_row() + "\n")
    sidecar = csv_path.with_suffix(".summary.txt")
    regimes = sorted({r.regime for r in rows})
    with open(sidecar, "w", encoding="utf-8") as fh:
        fh.write(f"qslbounds {__version__} sweep summary\n")
        for line in _config_echo(cfg):
            fh.write(line + "\n")
        fh.write(f"rows={len(rows)}\n")
        fh.write(f"regimes={','.join(regimes)}\n")
        fh.write(f"all_pass={1 if all(r.pass_a and r.pass_b and r.pass_c1 and r.pass_c2 for r in rows) else 0}\n")
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
                f"check {name:<24} value={c.value:+.6e} tol={c.tolerance:.1e} {status}{note}"
            )
        lines.append(f"verify: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


def verify_case(
    delta: float,
    theta: float,
    lambda_spec: LambdaSpec,
    u0_surrogate: Optional[float] = None,
    protocol: Optional[OptimalProtocol] = None,
) -> VerifyReport:
    """Run every check on one instance; an injected protocol replaces the
    optimal one (useful as a negative control)."""
    cap = lambda_spec.resolve(delta, theta)
    if theta == 0.5 * math.pi:
        problem = LandauZenerProblem.from_theta(delta, theta, math.inf)
        inputs = BoundInputs(problem.control_hamiltonian(), *boundary_states(problem))
        report = compute_report(inputs, t_opt=0.0)
        checks = {
            "bounds_vanish": Check(
                value=max(report.t_min_a, report.t_min_b, report.t_min_c1, report.t_min_c2),
                tolerance=0.0,
                passed=report.t_min_a == report.t_min_b == report.t_min_c1 == report.t_min_c2 == 0.0,
                note="coincident endpoints",
            )
        }
        return VerifyReport(problem, None, checks, report.text_block())

    problem = LandauZenerProblem.from_theta(delta, theta, cap)
    if protocol is None:
        protocol = optimal_protocol(problem, u0_surrogate)
    ch = problem.control_hamiltonian()
    psi0, psig = boundary_states(problem)
    traj = propagate_refined(ch, protocol.field, psi0)

    fidelity = traj.final_state().fidelity(psig)
    checks: Dict[str, Check] = {
        "fidelity": Check(fidelity, FIDELITY_TOL, fidelity >= FIDELITY_TOL)
    }

    aa_residual = fubini_study_distance(psi0, traj.final_state()) - path_length(traj)
    checks["anandan_aharonov"] = Check(aa_residual, AA_TOL, aa_residual <= AA_TOL)

    bh = bhattacharyya_check(traj, ch, protocol.field)
    checks["bhattacharyya"] = Check(bh, BHATTACHARYYA_TOL, bh <= BHATTACHARYYA_TOL)

    pf = pfeifer_envelope_check(traj, ch, protocol.field, psig)
    checks["pfeifer_envelope"] = Check(pf, PFEIFER_TOL, pf <= PFEIFER_TOL)

    try:
        ar = arenz_overlap_inequality_check(traj, ch, protocol.field, psig)
        checks["arenz_overlap"] = Check(ar, ARENZ_TOL, ar <= ARENZ_TOL)
    except ValueError as exc:
        checks["arenz_overlap"] = Check(math.nan, ARENZ_TOL, False, note=str(exc))

    report = compute_report(BoundInputs(ch, psi0, psig), traj=traj, t_opt=protocol.t_opt_ideal)
    for name in ("a", "b", "c1", "c2"):
        ok = report.inequality_flags.get(name, False)
        checks[f"dominance_{name}"] = Check(
            report.value(name), protocol.t_opt_ideal + DOMINANCE_TOL, ok
        )

    closed = closed_form_bounds(problem)
    worst_closed = max(
        abs(closed.tmin_a - report.t_min_a),
        abs(closed.tmin_b - report.t_min_b),
        abs(closed.tmin_c1 - report.t_min_c1),
        abs(closed.tmin_c2 - report.t_min_c2),
    )
    checks["closed_form_agreement"] = Check(
        worst_closed, CLOSED_FORM_TOL, worst_closed <= CLOSED_FORM_TOL
    )

    return VerifyReport(problem, protocol, checks, report.text_block())


# ---------------------------------------------------------------------------
# argument plumbing


def _load_config_file(path: Optional[str]) -> Dict:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    return data


def _merged(file_cfg: Dict, key: str, flag_value, default=None):
    """The flag wins over the file; the default fills in only a missing value,
    so a falsy one such as 0 still reaches validation."""
    if flag_value is not None:
        return flag_value
    value = file_cfg.get(key)
    return default if value is None else value


def _lambda_spec_from(args: argparse.Namespace, file_cfg: Dict) -> LambdaSpec:
    cli_choices = [
        args.unconstrained,
        args.lambda_factor is not None,
        args.lambda_abs is not None,
    ]
    if sum(cli_choices) > 1:
        raise SystemExit(
            "pass exactly one of --unconstrained, --lambda-factor, --lambda"
        )
    if args.unconstrained:
        return LambdaSpec("unconstrained")
    if args.lambda_factor is not None:
        return LambdaSpec("factor", float(args.lambda_factor))
    if args.lambda_abs is not None:
        return LambdaSpec("absolute", float(args.lambda_abs))
    # nothing on the command line, fall back to the file
    if file_cfg.get("unconstrained", False):
        return LambdaSpec("unconstrained")
    if "lambda_factor" in file_cfg:
        return LambdaSpec("factor", float(file_cfg["lambda_factor"]))
    if "lambda" in file_cfg:
        return LambdaSpec("absolute", float(file_cfg["lambda"]))
    raise ValueError(
        "drive cap unspecified: pass --unconstrained, --lambda-factor or --lambda"
    )


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, help="JSON file with flat key=value settings")
    p.add_argument("--delta", type=float, default=None, help="gap delta (> 0)")
    p.add_argument("--unconstrained", action="store_true", help="no drive cap")
    p.add_argument(
        "--lambda-factor",
        type=float,
        default=None,
        help="cap as a multiple of the critical value delta^2/(4*gamma)",
    )
    p.add_argument(
        "--lambda",
        dest="lambda_abs",
        type=float,
        default=None,
        help="absolute drive cap",
    )
    p.add_argument("--u0", type=float, default=None, help="surrogate kick amplitude")
    p.add_argument("--seed", type=int, default=None, help="seed for randomized suites")
    p.add_argument("--out", default=None, help="output path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qslbounds",
        description="speed-limit times and control-time lower bounds for a driven qubit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="bounds and protocol times over a theta grid")
    _add_common_flags(p_sweep)
    p_sweep.add_argument("--theta-min", type=float, default=None)
    p_sweep.add_argument("--theta-max", type=float, default=None)
    p_sweep.add_argument("--theta-count", type=int, default=None)

    p_verify = sub.add_parser("verify", help="all inequality checks at a single theta")
    _add_common_flags(p_verify)
    p_verify.add_argument("--theta", type=float, default=None)

    p_prop = sub.add_parser("proptest", help="seeded random-instance inequality suites")
    _add_common_flags(p_prop)
    p_prop.add_argument("--instances", type=int, default=None)

    return parser


def _cmd_sweep(args: argparse.Namespace) -> int:
    file_cfg = _load_config_file(args.config)
    cfg = SweepConfig(
        delta=float(_merged(file_cfg, "delta", args.delta, 1.0)),
        lambda_spec=_lambda_spec_from(args, file_cfg),
        theta_min=float(_merged(file_cfg, "theta_min", args.theta_min, 0.02)),
        theta_max=float(
            _merged(file_cfg, "theta_max", args.theta_max, 0.5 * math.pi - 0.02)
        ),
        theta_count=int(_merged(file_cfg, "theta_count", args.theta_count, 50)),
        u0_surrogate=_merged(file_cfg, "u0", args.u0),
        output_path=_merged(file_cfg, "out", args.out),
        seed=int(_merged(file_cfg, "seed", args.seed, 0)),
    )
    if cfg.output_path is None:
        raise SystemExit("sweep needs --out (or 'out' in the config file)")
    rows = run_sweep(cfg)
    csv_path, sidecar = emit_report(rows, cfg, cfg.output_path)
    print(f"wrote {csv_path} ({len(rows)} rows) and {sidecar}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    file_cfg = _load_config_file(args.config)
    theta = _merged(file_cfg, "theta", args.theta)
    if theta is None:
        raise SystemExit("verify needs --theta (or 'theta' in the config file)")
    report = verify_case(
        delta=float(_merged(file_cfg, "delta", args.delta, 1.0)),
        theta=float(theta),
        lambda_spec=_lambda_spec_from(args, file_cfg),
        u0_surrogate=_merged(file_cfg, "u0", args.u0),
    )
    text = report.text()
    print(text, end="")
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    return 0 if report.passed else 1


def _cmd_proptest(args: argparse.Namespace) -> int:
    file_cfg = _load_config_file(args.config)
    seed = int(_merged(file_cfg, "seed", args.seed, 0))
    instances = int(_merged(file_cfg, "instances", args.instances, 1000))
    report = run_property_suites(seed, instances)
    text = report.text()
    print(text, end="")
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    return 0 if report.passed else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "verify":
        return _cmd_verify(args)
    return _cmd_proptest(args)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
