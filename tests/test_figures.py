"""The figure sweeps against committed reference tables and against the
single-instance chain a user would write by hand.

tests/golden/ holds the output of `qslbounds sweep` for the three figure caps
and for an unconstrained grid that ends at theta = pi/2 (a trivial row), and
the output of `qslbounds verify` for one case of each regime.
"""
import math
from pathlib import Path

import pytest

from qslbounds import (
    BoundInputs,
    LandauZenerProblem,
    boundary_states,
    compute_report,
    optimal_protocol,
    propagate_refined,
    tqsl_star,
    tqsl_star_closed,
)
from qslbounds.cli import (
    LambdaSpec,
    SweepConfig,
    SweepRow,
    emit_report,
    main,
    run_sweep,
    verify_case,
)
from test_cli import GRID_FAILURES

GOLDEN = Path(__file__).parent / "golden"

FIGURE_CAPS = {
    "fig2_unconstrained": LambdaSpec("unconstrained"),
    "fig3a_bang_off_bang": LambdaSpec("factor", 6.0),
    "fig3b_bang_bang": LambdaSpec("factor", 0.2),
}
GOLDEN_CONFIGS = {
    **{stem: SweepConfig(lambda_spec=spec) for stem, spec in FIGURE_CAPS.items()},
    "unconstrained_to_half_pi": SweepConfig(
        lambda_spec=LambdaSpec("unconstrained"), theta_max=0.5 * math.pi, theta_count=7
    ),
}


@pytest.mark.parametrize("stem", list(GOLDEN_CONFIGS))
def test_sweep_reproduces_the_golden_files(tmp_path, stem):
    cfg = GOLDEN_CONFIGS[stem]
    for path in emit_report(run_sweep(cfg), cfg, tmp_path / f"{stem}.csv"):
        assert path.read_bytes() == (GOLDEN / path.name).read_bytes(), path.name


VERIFY_ARGS = {
    "verify_bang_off_bang": ["--theta", "0.9", "--lambda-factor", "6"],
    "verify_bang_bang": ["--theta", "0.9", "--lambda-factor", "0.2"],
    "verify_unconstrained": ["--theta", "0.3", "--unconstrained"],
    "verify_half_pi": ["--theta", "1.5707963267948966", "--unconstrained"],
    "verify_absolute_cap": ["--delta", "1.3", "--theta", "0.7", "--lambda", "2.5"],
    "verify_critical_cap": ["--theta", "0.7", "--lambda-factor", "1"],
}


@pytest.mark.parametrize("stem", list(VERIFY_ARGS))
def test_verify_reproduces_the_golden_report(capsys, stem):
    assert main(["verify", *VERIFY_ARGS[stem]]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / f"{stem}.txt").read_bytes()


def test_every_golden_file_is_named_by_a_test():
    # GOLDEN_CONFIGS, VERIFY_ARGS and the grid test are the one list of golden
    # invocations, which CI's verify step reads too: an unnamed file is unchecked
    named = {f"{stem}{ext}" for stem in GOLDEN_CONFIGS for ext in (".csv", ".summary.txt")}
    named |= {f"{stem}.txt" for stem in VERIFY_ARGS} | {GRID_FAILURES}
    assert sorted(path.name for path in GOLDEN.iterdir() if path.name not in named) == []


@pytest.mark.parametrize("stem", ["fig3a_bang_off_bang", "fig3b_bang_bang"])
def test_constrained_trajectory_time_meets_the_closed_form(stem):
    # the path length is the exact per-segment sum, so only rounding is left
    rows = run_sweep(GOLDEN_CONFIGS[stem])
    assert max(abs(row.tqsl_traj - row.tqsl_closed) for row in rows) <= 1e-14


def _reference_row(cfg: SweepConfig, theta: float) -> SweepRow:
    # one point through the public single-instance calls
    problem = LandauZenerProblem(
        cfg.delta, theta, cfg.lambda_spec.resolve(cfg.delta, theta)
    )
    protocol = optimal_protocol(problem)
    ch = problem.control_hamiltonian()
    psi0, psig = boundary_states(problem)
    estimate = tqsl_star(propagate_refined(ch, protocol.field, psi0), psig)
    report = compute_report(BoundInputs(ch, psi0, psig), t_opt=protocol.t_opt_ideal)
    flags = report.inequality_flags
    return SweepRow(
        theta=theta,
        gamma=problem.gamma,
        regime=protocol.regime,
        t_opt=protocol.t_opt_ideal,
        tqsl_closed=tqsl_star_closed(problem, protocol),
        tqsl_traj=estimate.time,
        tmin_a=report.t_min_a,
        tmin_b=report.t_min_b,
        tmin_c1=report.t_min_c1,
        tmin_c2=report.t_min_c2,
        fidelity=estimate.target_fidelity,
        pass_a=flags["a"],
        pass_b=flags["b"],
        pass_c1=flags["c1"],
        pass_c2=flags["c2"],
    )


@pytest.mark.parametrize("stem", list(FIGURE_CAPS))
def test_sweep_rows_equal_the_single_instance_chain(stem):
    cfg = SweepConfig(lambda_spec=FIGURE_CAPS[stem], delta=1.3, theta_count=9)
    rows = run_sweep(cfg)
    assert rows == [_reference_row(cfg, row.theta) for row in rows]


@pytest.mark.parametrize("spec", [*FIGURE_CAPS.values(), LambdaSpec("absolute", 1.0)], ids=str)
def test_verify_reads_the_sweep_row_of_its_theta_bit_for_bit(spec):
    # the sweep at 2 samples per segment and verify at 200 share one pipeline
    for row in run_sweep(SweepConfig(lambda_spec=spec, theta_count=12)):
        report = verify_case(1.0, row.theta, spec)
        pairs = [(report.checks["fidelity"].value, row.fidelity)] + [
            (report.checks[f"dominance_{n}"].value, getattr(row, f"tmin_{n}"))
            for n in ("a", "b", "c1", "c2")
        ]
        for got, want in pairs:
            assert float.hex(got) == float.hex(want), (row.theta, got, want)
        assert f"t_qsl*   = {row.tqsl_traj:.12g}\n" in report.text(), row.theta
