"""Sweep table emission, the single-case verifier and the argument plumbing."""
import dataclasses
import itertools
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

from qslbounds import (
    HermitianOperator,
    LandauZenerProblem,
    OptimalProtocol,
    PiecewiseConstantField,
    boundary_states,
    optimal_protocol,
    propagate,
    tqsl_star,
)
from qslbounds import cli, dynamics
from qslbounds.cli import (
    SWEEP_CSV_HEADER,
    LambdaSpec,
    SweepConfig,
    SweepRow,
    _cell,
    emit_report,
    main,
    run_sweep,
    verify_case,
)
from qslbounds.two_level import _drift
from conftest import problem_from_gamma

HALF_PI = 0.5 * math.pi
GOLDEN = Path(__file__).parent / "golden"
GRID_FAILURES = "verify_grid_failures.txt"  # the grid test's golden


def bang_bang_config(**overrides) -> SweepConfig:
    base = dict(
        lambda_spec=LambdaSpec("factor", 0.2),
        theta_min=0.3,
        theta_max=1.2,
        theta_count=3,
    )
    base.update(overrides)
    return SweepConfig(**base)


# ---------------------------------------------------------------------------
# cap policy


def test_lambda_spec_resolution():
    assert math.isinf(LambdaSpec("unconstrained").resolve(1.0, 0.4))
    assert LambdaSpec("absolute", 1.5).resolve(1.0, 0.4) == 1.5
    # factor mode scales the critical cap delta^2 / (4 gamma)
    theta = math.atan2(1.0, 2.0)
    assert LambdaSpec("factor", 6.0).resolve(1.0, theta) == pytest.approx(
        1.5, abs=1e-12
    )
    assert math.isinf(LambdaSpec("factor", 6.0).resolve(1.0, HALF_PI))
    # gamma = 0 at pi/2: no cap there, however large the factor
    assert math.isinf(LambdaSpec("factor", 1e308).resolve(1.0, HALF_PI))


def test_lambda_spec_validation():
    with pytest.raises(ValueError):
        LambdaSpec("adaptive", 1.0)
    with pytest.raises(ValueError):
        LambdaSpec("unconstrained", 1.0)
    with pytest.raises(ValueError):
        LambdaSpec("factor")
    with pytest.raises(ValueError):
        LambdaSpec("absolute", 0.0)
    for mode in ("factor", "absolute"):
        with pytest.raises(ValueError, match="pass --unconstrained for no cap"):
            LambdaSpec(mode, math.inf)


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(delta=0.0, lambda_spec=LambdaSpec("unconstrained"))
    with pytest.raises(ValueError):
        SweepConfig(theta_min=0.0)
    with pytest.raises(ValueError):
        SweepConfig(theta_min=1.0, theta_max=0.5)
    with pytest.raises(ValueError):
        SweepConfig(theta_max=HALF_PI + 0.2)
    with pytest.raises(ValueError):
        SweepConfig(theta_count=1)


# ---------------------------------------------------------------------------
# sweep rows


def test_unconstrained_sweep_rows():
    cfg = SweepConfig(
        lambda_spec=LambdaSpec("unconstrained"),
        theta_min=0.3,
        theta_max=HALF_PI,
        theta_count=4,
    )
    rows = run_sweep(cfg)
    assert len(rows) == 4
    assert rows[-1].regime == "trivial"
    assert rows[-1].t_opt == 0.0
    for row in rows[:-1]:
        assert row.regime == "unconstrained-composite"
        # an unbounded window kills the variance-based bounds but not the
        # eigenbasis one
        assert row.tmin_a == 0.0
        assert row.tmin_b == 0.0
        assert row.tmin_c1 > 0.0
        assert row.fidelity >= 0.999
        assert row.pass_a and row.pass_b and row.pass_c1 and row.pass_c2
    t_opts = [r.t_opt for r in rows[:-1]]
    assert all(a > b for a, b in zip(t_opts, t_opts[1:]))


def _count_propagations(monkeypatch) -> list:
    """The argument tuples of every dynamics._propagate call from here on."""
    calls, kernel = [], dynamics._propagate
    monkeypatch.setattr(dynamics, "_propagate", lambda *a: calls.append(a) or kernel(*a))
    return calls


def test_sweep_builds_no_operator_per_point(monkeypatch):
    # boundary states and bounds are batched over the whole grid, and the
    # points of one segment count propagate as one stack, so neither the
    # operators built nor the propagations grow with the number of points
    built = []
    check = HermitianOperator.__post_init__
    monkeypatch.setattr(
        HermitianOperator, "__post_init__", lambda self: built.append(self) or check(self)
    )
    propagations = _count_propagations(monkeypatch)
    counts, propagated = {}, {}
    for count in (7, 50):
        _drift.cache_clear()  # each sweep builds its drift afresh
        built.clear()
        propagations.clear()
        run_sweep(SweepConfig(lambda_spec=LambdaSpec("factor", 6.0), theta_count=count))
        counts[count], propagated[count] = len(built), len(propagations)
    assert counts[7] == counts[50] == 1
    assert propagated[7] == propagated[50] == 1


def test_mixed_regime_sweep_matches_the_per_point_trajectories(monkeypatch):
    # an absolute cap crosses the critical cap inside the grid, so the sweep
    # stacks three-segment and two-segment trajectories separately, one
    # propagation each; each row keeps the bits of its own 200-sample trajectory
    cfg = SweepConfig(
        lambda_spec=LambdaSpec("absolute", 1.0), theta_min=0.05, theta_max=1.5, theta_count=30
    )
    propagations = _count_propagations(monkeypatch)
    rows = run_sweep(cfg)
    assert len(propagations) == 2
    assert {r.regime for r in rows} == {"bang-off-bang", "bang-bang"}
    for row in rows:
        problem = LandauZenerProblem(cfg.delta, row.theta, 1.0)
        psi0, psig = boundary_states(problem)
        field = optimal_protocol(problem).field
        ch = problem.control_hamiltonian()
        est = tqsl_star(propagate([ch], [field], psi0.amplitudes, 200), psig)
        assert (row.tqsl_traj.hex(), row.fidelity.hex()) == (
            est.time.hex(), est.target_fidelity.hex()
        ), row.theta


def test_bang_bang_sweep_rows():
    rows = run_sweep(bang_bang_config())
    assert [r.regime for r in rows] == ["bang-bang"] * 3
    for row in rows:
        # below the critical cap the speed-limit time saturates the
        # anchored-variance bound
        assert row.tqsl_closed == pytest.approx(row.tmin_b, abs=1e-12)
        assert abs(row.tqsl_traj - row.tqsl_closed) < 1e-6
        assert row.fidelity >= 0.999


def test_csv_row_shape():
    row = run_sweep(bang_bang_config(theta_count=2))[0]
    cells = row.csv_row().split(",")
    assert len(cells) == len(SWEEP_CSV_HEADER.split(","))
    assert float(cells[0]) == row.theta  # 17-digit cells round-trip exactly
    assert cells[2] == "bang-bang"
    assert cells[11:] == ["1", "1", "1", "1"]


def test_csv_row_renders_every_cell_as_cell_does():
    # one format call per row renders every type of column as _cell does,
    # the summary's renderer
    rows = run_sweep(bang_bang_config(theta_count=3))
    rows.append(SweepRow(HALF_PI, tqsl_traj=math.inf, tmin_b=math.nan, pass_c1=False))
    for row in rows:
        expected = [_cell(getattr(row, f.name)) for f in dataclasses.fields(SweepRow)]
        assert row.csv_row() == ",".join(expected)


def test_sweep_header_is_frozen():
    assert SWEEP_CSV_HEADER == (
        "theta,gamma,regime,t_opt,tqsl_closed,tqsl_traj,"
        "tmin_a,tmin_b,tmin_c1,tmin_c2,fidelity,pass_a,pass_b,pass_c1,pass_c2"
    )


def test_sweep_row_defaults_are_the_trivial_row():
    row = SweepRow(HALF_PI)
    assert row.csv_row() == "1.5707963267948966,0,trivial,0,0,0,0,0,0,0,1,1,1,1,1"
    assert row.passed
    assert not SweepRow(HALF_PI, pass_c1=False).passed


# ---------------------------------------------------------------------------
# report files


def test_emit_report_writes_csv_and_sidecar(tmp_path):
    cfg = bang_bang_config()
    rows = run_sweep(cfg)
    csv_path, sidecar = emit_report(rows, cfg, tmp_path / "table.csv")
    lines = csv_path.read_text().splitlines()
    assert lines[0] == SWEEP_CSV_HEADER
    assert len(lines) == 1 + len(rows)
    summary = sidecar.read_text()
    assert sidecar.name == "table.summary.txt"
    assert summary.startswith("qslbounds 0.1.0 sweep summary\n")
    assert "lambda_spec=factor=0.20000000000000001" in summary
    assert "rows=3" in summary
    assert "regimes=bang-bang" in summary
    assert "all_pass=1" in summary


def test_emit_report_is_byte_deterministic(tmp_path):
    cfg = bang_bang_config()
    paths = []
    for name in ("one.csv", "two.csv"):
        paths.append(emit_report(run_sweep(cfg), cfg, tmp_path / name))
    assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
    assert paths[0][1].read_bytes() == paths[1][1].read_bytes()


def test_emit_report_refuses_empty_table(tmp_path):
    with pytest.raises(ValueError):
        emit_report([], bang_bang_config(), tmp_path / "empty.csv")


# ---------------------------------------------------------------------------
# single-case verifier


def test_verify_case_passes_on_optimal_protocol():
    report = verify_case(1.0, 0.9, LambdaSpec("factor", 6.0))
    assert report.passed
    assert set(report.checks) >= {
        "fidelity",
        "anandan_aharonov",
        "bhattacharyya",
        "pfeifer_envelope",
        "arenz_overlap",
        "dominance_a",
        "dominance_b",
        "dominance_c1",
        "dominance_c2",
        "closed_form_agreement",
    }
    text = report.text()
    assert "verify: PASS" in text
    assert "protocol: bang-off-bang" in text


def test_verify_prints_the_dominance_tolerance_it_applies(monkeypatch):
    from qslbounds import tolerances

    cap = LambdaSpec("factor", 6.0)
    good = verify_case(1.0, 0.9, cap)
    tmin_c1 = good.checks["dominance_c1"].value  # 0.306
    # short of tmin_c1 by more than 1e-9 but less than 0.25
    short = dataclasses.replace(good.protocol, t_opt_ideal=tmin_c1 - 0.1)
    with monkeypatch.context() as patch:
        patch.setattr(cli, "optimal_protocol", lambda problem, u0=None: short)
        assert not verify_case(1.0, 0.9, cap).checks["dominance_c1"].passed

        monkeypatch.setattr(tolerances, "PASS_TOL", 0.25)  # outlives the protocol's patch
        assert verify_case(1.0, 0.9, cap).checks["dominance_c1"].passed
    report = verify_case(1.0, 0.9, cap)
    tolerance = report.protocol.t_opt_ideal + 0.25
    lines = [line for line in report.text().splitlines() if "dominance_" in line]
    assert len(lines) == 4
    for name, line in zip(("a", "b", "c1", "c2"), lines):
        assert report.checks[f"dominance_{name}"].tolerance == tolerance
        (printed,) = [field[4:] for field in line.split() if field.startswith("tol=")]
        assert float(printed) == tolerance  # round-trips: t_opt_ideal + PASS_TOL exactly


def test_verify_case_trivial_angle():
    report = verify_case(1.0, HALF_PI, LambdaSpec("unconstrained"))
    assert report.passed
    assert report.protocol is None
    assert list(report.checks) == ["bounds_vanish"]


def test_verify_case_flags_a_broken_protocol(monkeypatch):
    problem = problem_from_gamma(1.0, 1.0, lambda_cap=1.5)
    good = optimal_protocol(problem)
    half = 0.5 * good.t_lambda
    field = PiecewiseConstantField(
        (
            (half, problem.lambda_cap),
            (good.t_off, 0.0),
            (half, -problem.lambda_cap),
        )
    )
    broken = OptimalProtocol(
        regime=good.regime,
        field=field,
        t_lambda=half,
        t_off=good.t_off,
        t_opt_ideal=field.total_duration,
    )
    monkeypatch.setattr(cli, "optimal_protocol", lambda problem, u0=None: broken)
    report = verify_case(1.0, problem.theta, LambdaSpec("factor", 6.0))
    assert not report.checks["fidelity"].passed
    arenz = report.checks["arenz_overlap"]
    assert math.isnan(arenz.value) and not arenz.passed
    missed = f"trajectory missed the target (fidelity {report.checks['fidelity'].value!r})"
    assert arenz.note == missed
    assert not report.passed
    assert "verify: FAIL" in report.text()


# ---------------------------------------------------------------------------
# command line


def test_main_sweep_writes_files(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = main(
        [
            "sweep",
            "--lambda-factor",
            "0.2",
            "--theta-min",
            "0.3",
            "--theta-max",
            "1.2",
            "--theta-count",
            "3",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    assert out.exists()
    assert (tmp_path / "sweep.summary.txt").exists()
    assert "(3 rows)" in capsys.readouterr().out


def usage_error(capsys, argv) -> str:
    """Run main on bad input: exit code 2, nothing on stdout and a single
    `error:` line, which is returned, on stderr after the usage text."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert errors == err.splitlines()[-1:]
    return errors[0]


def test_main_sweep_requires_out(capsys):
    assert "needs --out" in usage_error(capsys, ["sweep", "--unconstrained"])


def test_main_verify_exit_code_and_text(capsys):
    rc = main(["verify", "--theta", "0.9", "--lambda-factor", "6"])
    assert rc == 0
    assert "verify: PASS" in capsys.readouterr().out


def test_main_verify_writes_report(tmp_path, capsys):
    out = tmp_path / "case.txt"
    rc = main(
        ["verify", "--theta", str(HALF_PI), "--unconstrained", "--out", str(out)]
    )
    assert rc == 0
    assert "bounds_vanish" in out.read_text()
    capsys.readouterr()


def test_main_rejects_conflicting_cap_flags(capsys):
    usage_error(capsys, ["verify", "--theta", "0.9", "--unconstrained", "--lambda", "1.0"])


def test_main_requires_some_cap_policy(capsys):
    assert "drive cap unspecified" in usage_error(capsys, ["verify", "--theta", "0.9"])


@pytest.mark.parametrize(
    "key, argv",
    [
        ("delta", ["sweep", "--unconstrained", "--delta", "0"]),
        ("theta_count", ["sweep", "--unconstrained", "--theta-count", "0"]),
        ("theta_min", ["sweep", "--unconstrained", "--theta-min", "0"]),
        ("instances", ["proptest", "--instances", "0"]),
    ],
)
@pytest.mark.parametrize("source", ["flag", "config"])
def test_zero_values_reach_validation(tmp_path, capsys, key, argv, source):
    # a falsy value is a value, not a request for the default
    if source == "config":
        cfg_path = tmp_path / "zero.json"
        cfg_path.write_text(json.dumps({key: 0}))
        argv = argv[:-2] + ["--config", str(cfg_path)]
    usage_error(capsys, argv + ["--out", str(tmp_path / "out.csv")])


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg_path = tmp_path / "case.json"
    cfg_path.write_text(
        json.dumps({"theta": 0.9, "lambda_factor": 6.0, "delta": 1.0})
    )
    rc = main(["verify", "--config", str(cfg_path)])
    assert rc == 0
    assert "theta=0.90000000000000002" in capsys.readouterr().out


def test_cli_flags_override_config_file(tmp_path, capsys):
    cfg_path = tmp_path / "case.json"
    cfg_path.write_text(json.dumps({"theta": 0.9, "lambda_factor": 6.0}))
    rc = main(["verify", "--config", str(cfg_path), "--theta", "0.7"])
    assert rc == 0
    assert "theta=0.69999999999999996" in capsys.readouterr().out


def test_cap_flag_overrides_config_cap(tmp_path, capsys):
    cfg_path = tmp_path / "case.json"
    cfg_path.write_text(json.dumps({"theta": 0.9, "lambda_factor": 6.0}))
    assert main(["verify", "--config", str(cfg_path), "--unconstrained"]) == 0
    assert "lambda_cap=inf" in capsys.readouterr().out


def test_config_file_must_hold_an_object(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text("[1, 2]")
    argv = ["verify", "--config", str(cfg_path), "--theta", "0.9"]
    assert "JSON object" in usage_error(capsys, argv)


MISSING = object()  # stands for a config path that does not exist
U0_CAPPED = "u0 applies only to an uncapped drive, got lambda_cap="
INFINITE_CAP = "cap must be finite; pass --unconstrained for no cap"
TINY_THETA = r"error: theta 1e-320 is too small: gamma = delta/\(2\*tan\(theta\)\) overflows$"
TINY_DELTA = (
    r"error: delta 5e-324 at theta 0\.(9|02) is too small: "
    r"gamma = delta/\(2\*tan\(theta\)\) underflows$"
)
DEGENERATE_ENDS = (
    r"error: delta {} at theta {} is too small: "
    r"the endpoint gap delta/sin\(theta\) is not above 1e-10$"
)
OUT_OF_RANGE_BANGS = (
    r"error: delta {} at theta {} with lambda_cap {} is out of range: "
    r"the bang durations overflow or underflow$"
)
HUGE_ENERGY = r"is too large: the energy hypot\(u, delta/2\) overflows when squared$"
HUGE_CAP = OUT_OF_RANGE_BANGS.format(r"1\.0", r"0\.9", r"\S+")


BAD_INPUTS = [  # (argv, config, match, id): one bad input each, and its error
    (
        ["verify", "--theta", "2.0", "--unconstrained"],
        None,
        "theta must lie in",
        "theta-out-of-range",
    ),
    (["verify", "--theta", "0.9"], None, "drive cap unspecified", "no-cap-policy"),
    (
        ["verify", "--theta", "0.9", "--unconstrained", "--lambda", "1"],
        None,
        "--lambda: not allowed with argument --unconstrained",
        "two-cap-flags",
    ),
    (["sweep", "--unconstrained"], None, "needs --out", "sweep-without-out"),
    (["proptest", "--delta", "1"], None, "unrecognized arguments: --delta 1", "proptest-delta"),
    (
        ["proptest", "--seed", "-1"],
        None,
        r"error: seed must be non-negative, got -1$",
        "proptest-negative-seed",
    ),
    (
        ["proptest"],
        {"seed": -3},
        r"error: seed must be non-negative, got -3$",
        "config-negative-seed",
    ),
    (
        ["verify", "--seed", "3", "--theta", "0.9", "--unconstrained"],
        None,
        "unrecognized arguments: --seed 3",
        "verify-seed",
    ),
    (
        ["verify", "--theta", "0.9", "--unconstrained", "--out", "{tmp}/no/such/dir.txt"],
        None,
        "No such file or directory",
        "out-in-missing-dir",
    ),
    (
        ["proptest", "--instances", "10", "--out", "{tmp}/no/such/dir.txt"],
        None,
        "No such file or directory",
        "proptest-out-in-missing-dir",
    ),
    (
        ["verify"],
        {"theta": 0.9, "lamda_factor": 6},
        "unknown config key 'lamda_factor'",
        "config-unknown-key",
    ),
    (
        ["verify", "--theta", "0.9"],
        {"lambda_factor": 6, "unconstrained": True},
        "'lambda_factor' and 'unconstrained' both set",
        "config-two-caps",
    ),
    (
        ["sweep", "--unconstrained"],
        {"theta_count": 2.5},
        "'theta_count'.*'2.5'",
        "config-fractional-count",
    ),
    (
        ["verify", "--theta", "0.9"],
        {"unconstrained": "false"},
        "'unconstrained' must be true",
        "config-unconstrained-string",
    ),
    (
        ["verify", "--theta", "0.9", "--unconstrained", "--lambda", "1"],
        {"unconstrained": True},
        "--lambda: not allowed with argument --unconstrained",
        "config-cap-and-two-cap-flags",
    ),
    (
        ["verify", "--theta", "0.9", "--unconstrained"],
        MISSING,
        "No such file or directory",
        "config-missing-file",
    ),
    (
        ["verify", "--theta", "0.9", "--unconstrained"],
        '{"theta": 0.9',
        "Expecting",
        "config-malformed-json",
    ),
    (
        ["verify"],
        '{"theta": 0.9, "lambda_factor": 6, "theta": 0.5}',
        r"error: config key 'theta' is repeated$",
        "config-repeated-key",
    ),
    (
        ["verify", "--unconstrained"],
        None,
        r"error: verify needs --theta \(or 'theta' in the config file\)$",
        "verify-without-theta",
    ),
    (
        ["verify", "--theta", "0.9", "--lambda-factor", "6", "--u0", "5"],
        None,
        U0_CAPPED,
        "verify-u0-with-cap",
    ),
    (
        ["sweep", "--lambda", "1", "--u0", "5", "--out", "{tmp}/s.csv"],
        None,
        U0_CAPPED,
        "sweep-u0-with-cap",
    ),
    (["verify", "--theta", "0.9"], {"lambda_factor": 6, "u0": 5}, U0_CAPPED, "config-u0-with-cap"),
    (
        ["verify", "--theta", str(0.5 * math.pi), "--lambda", "1", "--u0", "5"],
        None,
        U0_CAPPED,
        "verify-u0-with-cap-at-half-pi",
    ),
    (
        ["verify", "--theta", str(0.5 * math.pi)],
        {"lambda": 1, "u0": 5},
        U0_CAPPED,
        "config-u0-with-cap-at-half-pi",
    ),
    (
        ["verify", "--theta", str(0.5 * math.pi), "--unconstrained", "--u0", "-1"],
        None,
        "surrogate amplitude must be positive, got -1.0",
        "verify-negative-u0-at-half-pi",
    ),
    (
        ["verify", "--theta", "0.9", "--lambda", "inf", "--u0", "5"],
        None,
        INFINITE_CAP,
        "verify-infinite-absolute-cap",
    ),
    (
        ["sweep", "--lambda-factor", "inf", "--out", "{tmp}/s.csv"],
        None,
        INFINITE_CAP,
        "sweep-infinite-factor-cap",
    ),
    (
        ["verify", "--theta", "0.9"],
        {"lambda": math.inf},
        INFINITE_CAP,
        "config-infinite-absolute-cap",
    ),
    (
        ["verify", "--theta", "0.9", "--delta", "inf", "--unconstrained"],
        None,
        "delta must be positive and finite, got inf",
        "verify-infinite-delta",
    ),
    (
        ["sweep", "--delta", "nan", "--unconstrained", "--out", "{tmp}/s.csv"],
        None,
        "delta must be positive and finite, got nan",
        "sweep-nan-delta",
    ),
    (
        ["verify", "--theta", "0.9"],
        {"lambda": 1, "delta": math.inf},
        "positive and finite",
        "config-infinite-delta",
    ),
    (
        ["verify", "--theta", "1e-320", "--unconstrained"],
        None,
        TINY_THETA,
        "verify-theta-overflows-gamma",
    ),
    (
        ["sweep", "--theta-min", "1e-320", "--unconstrained", "--out", "{tmp}/s.csv"],
        None,
        TINY_THETA,
        "sweep-theta-min-overflows-gamma",
    ),
    (
        ["verify", "--theta", "0.9", "--delta", "5e-324", "--unconstrained"],
        None,
        TINY_DELTA,
        "verify-delta-underflows-gamma",
    ),
    (
        ["sweep", "--delta", "5e-324", "--unconstrained", "--out", "{tmp}/s.csv"],
        None,
        TINY_DELTA,
        "sweep-delta-underflows-gamma",
    ),
    (
        ["verify", "--theta", "0.9", "--lambda", "1e154"],
        None,
        HUGE_CAP,
        "verify-absolute-cap-overflows-durations",
    ),
    (
        ["verify", "--theta", "0.9", "--lambda-factor", "1e300"],
        None,
        HUGE_CAP,
        "verify-factor-cap-overflows-durations",
    ),
    (
        ["verify", "--theta", "1.5", "--lambda-factor", "1e308"],
        None,
        r"lambda factor 1e\+308 at delta=1.0, theta=1.5 gives the cap inf; it must be positive",
        "verify-factor-cap-overflows-to-inf",
    ),
    (
        ["sweep", "--lambda-factor", "1e308", "--theta-min", "1.4", "--theta-max", "1.5",
         "--theta-count", "2", "--out", "{tmp}/s.csv"],
        None,
        r"lambda factor 1e\+308 at delta=1.0, theta=1.4 gives the cap inf",
        "sweep-factor-cap-overflows-to-inf",
    ),
    (
        ["verify", "--theta", "0.9", "--delta", "1e-300", "--lambda-factor", "6"],
        None,
        r"lambda factor 6.0 at delta=1e-300, theta=0.9 gives the cap 0.0; it must be positive",
        "verify-factor-cap-underflows-to-zero",
    ),
    (
        ["verify", "--theta", "0.9", "--delta", "1e300", "--unconstrained"],
        None,
        HUGE_ENERGY,
        "verify-delta-overflows-energy",
    ),
    (
        ["verify", "--theta", "0.9", "--unconstrained", "--u0", "1e160"],
        None,
        HUGE_ENERGY,
        "verify-kick-overflows-energy",
    ),
    (
        ["verify", "--theta", "0.9", "--delta", "1e-150", "--lambda-factor", "0.2"],
        None,
        DEGENERATE_ENDS.format("1e-150", r"0\.9"),
        "verify-delta-degenerates-ends-bang-bang",
    ),
    (
        ["verify", "--theta", "1.5", "--delta", "1e-150", "--lambda", "1e-150"],
        None,
        DEGENERATE_ENDS.format("1e-150", r"1\.5"),
        "verify-delta-degenerates-ends-absolute-cap",
    ),
    (
        ["sweep", "--delta", "1e-150", "--lambda-factor", "0.2", "--out", "{tmp}/s.csv"],
        None,
        DEGENERATE_ENDS.format("1e-150", r"0\.02"),
        "sweep-delta-degenerates-ends",
    ),
    (
        ["verify", "--theta", "0.9", "--delta", "1e-12", "--unconstrained"],
        None,
        DEGENERATE_ENDS.format("1e-12", r"0\.9"),
        "verify-delta-degenerates-ends-unconstrained",
    ),
    (
        ["verify", "--theta", "1e-320", "--delta", "5e-324", "--lambda", "1"],
        None,
        OUT_OF_RANGE_BANGS.format("5e-324", "1e-320", r"1\.0"),
        "verify-bang-durations-underflow",
    ),
    (
        ["sweep", "--delta", "5e-324", "--theta-min", "1e-320", "--theta-max", "2e-320",
         "--theta-count", "2", "--lambda", "1e-300", "--out", "{tmp}/s.csv"],
        None,
        OUT_OF_RANGE_BANGS.format("5e-324", "1e-320", "1e-300"),
        "sweep-bang-durations-underflow",
    ),
    (
        ["verify", "--delta", "1e100", "--theta", "1e-100", "--lambda", "1e-200"],
        None,
        OUT_OF_RANGE_BANGS.format(r"1e\+100", "1e-100", "1e-200"),
        "verify-huge-delta-overflows-bang-bang-durations",
    ),
    (
        ["verify", "--delta", "2836974707.5487084", "--theta", "2.4913656720647733e-299",
         "--lambda", "1.8912846497454433e-305"],
        None,
        OUT_OF_RANGE_BANGS.format(
            r"2836974707\.5487084", r"2\.4913656720647733e-299", r"1\.8912846497454433e-305"
        ),
        "verify-huge-gamma-overflows-bang-bang-durations",
    ),
    (
        ["verify", "--theta", "0.9", "--lambda", "1e200"],
        None,
        OUT_OF_RANGE_BANGS.format(r"1\.0", r"0\.9", r"1e\+200"),
        "verify-absolute-cap-1e200-overflows-durations",
    ),
]


def bad_input_argv(argv, config, tmp) -> list:
    """argv of a BAD_INPUTS row run in the existing directory tmp: {tmp} filled in, and
    its config, if any, written to tmp/case.json and passed by --config."""
    argv = [a.replace("{tmp}", str(tmp)) for a in argv]
    if config is not None:
        cfg_path = Path(tmp) / "case.json"
        if config is not MISSING:
            cfg_path.write_text(config if isinstance(config, str) else json.dumps(config))
        argv = argv + ["--config", str(cfg_path)]
    return argv


@pytest.mark.parametrize(
    "argv, config, match", [row[:3] for row in BAD_INPUTS], ids=[row[3] for row in BAD_INPUTS]
)
def test_bad_input_is_a_usage_error(tmp_path, capsys, argv, config, match):
    assert re.search(match, usage_error(capsys, bad_input_argv(argv, config, tmp_path)))


# verify over extreme arguments, subnormals and 1e+-300 among them
GRID_THETAS = ("1e-320", "1e-300", "1e-150", "1e-12", "0.02", "0.9", "1.5707", repr(HALF_PI))
GRID_DELTAS = ("5e-324", "1e-300", "1e-200", "1e-150", "1e-12", "1e-3", "1", "1e12", "1e300")
GRID_CAPS = (
    ("--unconstrained",),
    *(("--lambda-factor", f) for f in ("1e-8", "0.2", "6", "1e8")),
    *(("--lambda", v) for v in ("1e-300", "1e-8", "1", "1e8", "1e300")),
)


def _expected_grid_failures() -> dict:
    """The FAIL checks of each grid run that exits 1, from golden/verify_grid_failures.txt."""
    lines = (GOLDEN / GRID_FAILURES).read_text(encoding="utf-8").splitlines()
    runs = [line.split(" | ") for line in lines if line and not line.startswith("#")]
    return {args: checks.split() for args, checks in runs}


def test_verify_grid_ends_in_a_report_or_one_usage_error(capsys):
    # exit 1 only where the golden file says, with exactly its FAIL checks
    failures = {}
    for theta, delta, cap in itertools.product(GRID_THETAS, GRID_DELTAS, GRID_CAPS):
        argv = ["verify", "--theta", theta, "--delta", delta, *cap]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # warnings are errors here too
            pytest.fail(f"{' '.join(argv)}: {exc!r}")
        out, err = capsys.readouterr()
        if code == 2:
            errors = [line for line in err.splitlines() if "error:" in line]
            assert len(errors) == 1 and "Traceback" not in err, argv
        elif code == 1:
            lines = [line.split() for line in out.splitlines() if line.startswith("check ")]
            failures[" ".join(argv[1:])] = [w[1] for w in lines if w[4] == "FAIL"]
        else:
            assert code == 0, argv
    assert failures == _expected_grid_failures()


# verify's four known closed_form_agreement failures.  Each mark is strict, so
# the change that fixes a case must remove its mark
CONDITIONED = pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 3: tmin_b loses accuracy near coincident endpoints and extreme caps",
)


@pytest.mark.parametrize(
    "theta, spec",
    [
        pytest.param(1.5707, LambdaSpec("absolute", 1e-8), marks=CONDITIONED),  # error 2.31e-9
        pytest.param(1.5707963, LambdaSpec("absolute", 1e-8), marks=CONDITIONED),  # 2.88e-2
        pytest.param(1.57, LambdaSpec("factor", 1e-8), marks=CONDITIONED),  # 2.60e-10
        pytest.param(0.001, LambdaSpec("factor", 1e8), marks=CONDITIONED),  # 3.96e-12
    ],
    ids=["1.5707-abs-1e-8", "1.5707963-abs-1e-8", "1.57-factor-1e-8", "0.001-factor-1e8"],
)
def test_verify_meets_the_closed_forms_at_the_conditioning_limits(theta, spec):
    assert verify_case(1.0, theta, spec).checks["closed_form_agreement"].passed


def test_a_huge_cap_short_of_the_overflow_still_verifies(capsys):
    assert main(["verify", "--theta", "0.9", "--lambda", "1e150"]) == 0
    assert "FAIL" not in capsys.readouterr().out


@pytest.mark.parametrize(
    "flags, config, cfg",
    [
        (
            ["--unconstrained", "--u0", "300", "--theta-count", "3"],
            {"unconstrained": True, "u0": 300, "theta_count": 3},
            SweepConfig(lambda_spec=LambdaSpec("unconstrained"), theta_count=3, u0_surrogate=300.0),
        ),
        (
            ["--lambda-factor", "0.2", "--delta", "1.3", "--theta-min", "0.3", "--theta-count", "3"],
            {"lambda_factor": 0.2, "delta": 1.3, "theta_min": 0.3, "theta_count": 3},
            SweepConfig(delta=1.3, lambda_spec=LambdaSpec("factor", 0.2), theta_min=0.3, theta_count=3),
        ),
        (
            ["--lambda", "0.7", "--theta-max", "1.2", "--theta-count", "4"],
            {"lambda": 0.7, "theta_max": 1.2, "theta_count": 4},
            SweepConfig(lambda_spec=LambdaSpec("absolute", 0.7), theta_max=1.2, theta_count=4),
        ),
    ],
)
def test_cli_sweep_matches_library(tmp_path, capsys, flags, config, cfg):
    reference = emit_report(run_sweep(cfg), cfg, tmp_path / "lib.csv")
    assert main(["sweep", *flags, "--out", str(tmp_path / "flags.csv")]) == 0
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps({**config, "out": str(tmp_path / "file.csv")}))
    assert main(["sweep", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    for stem in ("flags", "file"):
        made = (tmp_path / f"{stem}.csv", tmp_path / f"{stem}.summary.txt")
        for path, ref in zip(made, reference):
            assert path.read_bytes() == ref.read_bytes()


def test_main_proptest_deterministic(capsys):
    rc = main(["proptest", "--instances", "3", "--seed", "7"])
    assert rc == 0
    first = capsys.readouterr().out
    assert main(["proptest", "--instances", "3", "--seed", "7"]) == 0
    assert capsys.readouterr().out == first
    assert "PASS" in first


def test_module_entry_point_runs():
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "qslbounds",
            "verify",
            "--theta",
            "0.9",
            "--lambda-factor",
            "6",
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "verify: PASS" in proc.stdout


def test_module_entry_point_reports_bad_input():
    proc = subprocess.run(
        [sys.executable, "-m", "qslbounds", "verify", "--theta", "2.0", "--unconstrained"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1].startswith("qslbounds verify: error: theta must lie in")


def test_import_does_not_load_scipy():
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, qslbounds, qslbounds.cli; print('scipy' in sys.modules)",
        ],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert proc.stdout.strip() == "False"
