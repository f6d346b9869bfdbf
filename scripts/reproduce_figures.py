#!/usr/bin/env python3
"""Regenerate the three sweep tables behind the figures.

Writes fig2_unconstrained.csv, fig3a_bang_off_bang.csv and
fig3b_bang_bang.csv (plus .summary.txt sidecars) into --out-dir.
Output is byte-deterministic for a fixed argument set.
"""
import argparse
import math
from pathlib import Path

from qslbounds.cli import LambdaSpec, SweepConfig, emit_report, run_sweep

TABLES = (
    ("fig2_unconstrained.csv", LambdaSpec("unconstrained")),
    ("fig3a_bang_off_bang.csv", LambdaSpec("factor", 6.0)),
    ("fig3b_bang_bang.csv", LambdaSpec("factor", 0.2)),
)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="figures", help="output directory")
    parser.add_argument("--delta", type=float, default=SweepConfig.delta)
    parser.add_argument("--theta-count", type=int, default=SweepConfig.theta_count)
    parser.add_argument(
        "--theta-margin",
        type=float,
        default=SweepConfig.theta_min,
        help="grid runs from margin to pi/2 - margin",
    )
    return parser.parse_args()


def main():
    args = parse_args()
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, spec in TABLES:
        cfg = SweepConfig(
            delta=args.delta,
            lambda_spec=spec,
            theta_min=args.theta_margin,
            theta_max=0.5 * math.pi - args.theta_margin,
            theta_count=args.theta_count,
        )
        rows = run_sweep(cfg)
        csv_path, sidecar = emit_report(rows, cfg, out_dir / name)
        bad = [r.theta for r in rows if not r.passed]
        status = "all bounds hold" if not bad else f"BOUND VIOLATION at theta={bad}"
        print(f"{csv_path}  ({len(rows)} rows, {status})")
        print(f"{sidecar}")


if __name__ == "__main__":
    main()
