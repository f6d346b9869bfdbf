"""Acceptance gate: one test per advertised guarantee, one status line each.

Each test gathers every sub-condition first, prints a single
``[criterion N] PASS|FAIL`` line, then asserts.  Stated runtime budgets are
enforced with perf_counter.
"""
import math
import time

import numpy as np

from qslbounds import (
    BoundInputs,
    ControlHamiltonian,
    HermitianOperator,
    LandauZenerProblem,
    PureState,
    SIGMA_X,
    SIGMA_Z,
    boundary_states,
    closed_form_bounds,
    constrained_protocol,
    energy_variance,
    gamma_from_theta,
    propagate,
    run_property_suites,
    tmin_a,
    tmin_b,
    tmin_c1,
    tmin_c2,
    tqsl_star_closed,
    unconstrained_protocol,
)
from qslbounds.cli import LambdaSpec, SweepConfig, run_sweep
from conftest import basis_state, max_variance_over_field, sampled_spreads

HALF_PI = 0.5 * math.pi
SEED = 20260819


def finish(n: int, failures, elapsed: float, budget: float | None) -> None:
    if budget is not None and elapsed > budget:
        failures.append(f"runtime {elapsed:.2f}s exceeds budget {budget:.0f}s")
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion {n}] {status} ({elapsed:.2f}s)", flush=True)
    assert not failures, f"criterion {n}: " + "; ".join(failures)


def check(failures, ok: bool, msg: str) -> None:
    if not ok:
        failures.append(msg)


def test_criterion_1_small_angle_limit():
    t0 = time.perf_counter()
    failures = []
    theta = 1e-4
    p_free = LandauZenerProblem.from_theta(1.0, theta)
    proto = unconstrained_protocol(p_free)
    cb_free = closed_form_bounds(p_free)
    tqsl = tqsl_star_closed(p_free, proto)

    # a finite window: the variance bound loses its u_max term as theta -> 0
    p_capped = LandauZenerProblem.from_theta(1.0, theta, lambda_cap=1.0)
    cb_capped = closed_form_bounds(p_capped)
    psi0, psig = boundary_states(p_capped)
    inputs = BoundInputs(p_capped.control_hamiltonian(), psi0, psig)

    check(failures, abs(proto.t_opt_ideal - (math.pi - 2.0 * theta)) < 1e-12,
          "t_opt is not (pi - 2 theta)/delta")
    check(failures, abs(tmin_b(inputs) - cb_capped.tmin_b) < 1e-6,
          "generic t_min^B differs from its closed form")
    check(failures, abs(tmin_c1(inputs) - cb_free.tmin_c1) < 1e-6,
          "generic t_min^C1 differs from its closed form")
    # the limiting values themselves at small-angle scale
    check(failures, abs(proto.t_opt_ideal - math.pi) < 1e-3, "t_opt far from pi")
    check(failures, abs(tqsl - math.pi) < 1e-3, "closed T*_QSL far from pi")
    check(failures, abs(cb_capped.tmin_b - math.pi) < 1e-3, "t_min^B far from pi")
    check(failures, abs(cb_free.tmin_c1 - math.sqrt(2.0)) < 1e-3,
          "t_min^C1 far from sqrt(2)")
    check(failures, abs(tqsl - cb_capped.tmin_b) < 1e-3,
          "T*_QSL and t_min^B should coincide in the limit")
    check(failures, tqsl > cb_free.tmin_c1 and cb_capped.tmin_b > cb_free.tmin_c1,
          "pi/delta should dominate sqrt(2)/delta")
    finish(1, failures, time.perf_counter() - t0, 1.0)


def test_criterion_2_unconstrained_sweep():
    t0 = time.perf_counter()
    failures = []
    thetas = np.linspace(0.02, HALF_PI - 0.02, 50)
    for theta in map(float, thetas):
        p = LandauZenerProblem.from_theta(1.0, theta)
        proto = unconstrained_protocol(p)
        s = math.pi - 2.0 * theta
        tqsl = tqsl_star_closed(p, proto)
        c1 = closed_form_bounds(p).tmin_c1
        check(failures, abs(proto.t_opt_ideal - s) < 1e-9,
              f"t_opt mismatch at theta={theta:.4f}")
        check(failures, abs(tqsl - s * s / (s + math.pi * math.sin(theta))) < 1e-9,
              f"T*_QSL closed-form mismatch at theta={theta:.4f}")
        check(failures,
              abs(c1 - math.sqrt(2.0) * (1.0 - math.sin(theta))) < 1e-9,
              f"t_min^C1 closed-form mismatch at theta={theta:.4f}")
        check(failures, c1 < tqsl < proto.t_opt_ideal,
              f"chain c1 < T* < T_opt broken at theta={theta:.4f}")
    finish(2, failures, time.perf_counter() - t0, 5.0)


def test_criterion_3_bang_off_bang_figure():
    t0 = time.perf_counter()
    failures = []
    cfg = SweepConfig(lambda_spec=LambdaSpec("factor", 6.0),
                      theta_min=0.02, theta_max=HALF_PI - 0.02, theta_count=50)
    rows = run_sweep(cfg)
    for row in rows:
        check(failures, row.regime == "bang-off-bang",
              f"unexpected regime {row.regime} at theta={row.theta:.4f}")
        check(failures, row.fidelity >= 0.999,
              f"fidelity {row.fidelity:.6f} below 0.999 at theta={row.theta:.4f}")
        for name, value in (("a", row.tmin_a), ("b", row.tmin_b),
                            ("c1", row.tmin_c1), ("c2", row.tmin_c2)):
            check(failures, value <= row.t_opt + 1e-6,
                  f"t_min^{name} exceeds T_opt at theta={row.theta:.4f}")
        check(failures, abs(row.tqsl_traj - row.tqsl_closed) <= 1e-4,
              f"trajectory T*_QSL off closed form at theta={row.theta:.4f}")
    finish(3, failures, time.perf_counter() - t0, 30.0)


def test_criterion_4_bang_bang_figure():
    t0 = time.perf_counter()
    failures = []
    thetas = np.linspace(0.02, HALF_PI - 0.02, 50)
    for theta in map(float, thetas):
        gamma = gamma_from_theta(1.0, theta)
        p = LandauZenerProblem.from_theta(1.0, theta, 0.2 * 0.25 / gamma)
        proto = constrained_protocol(p)
        check(failures, proto.regime == "bang-bang",
              f"unexpected regime {proto.regime} at theta={theta:.4f}")
        check(failures,
              abs(tqsl_star_closed(p, proto) - closed_form_bounds(p).tmin_b) <= 1e-9,
              f"T*_QSL != t_min^B at theta={theta:.4f}")
        psi0, _ = boundary_states(p)
        traj = propagate(p.control_hamiltonian(), proto.field, psi0)
        sampled = sampled_spreads(traj)
        ripple = float(np.max(sampled) - np.min(sampled))
        check(failures, ripple <= 1e-9,
              f"energy spread varies by {ripple:.2e} at theta={theta:.4f}")
    finish(4, failures, time.perf_counter() - t0, 30.0)


def test_criterion_5_drift_eigenbasis_bound_vanishes():
    t0 = time.perf_counter()
    failures = []
    for theta in map(float, np.linspace(0.01, HALF_PI, 60)):
        for cap_factor in (None, 6.0, 0.2):
            if cap_factor is None:
                cap = math.inf
            else:
                gamma = gamma_from_theta(1.0, theta)
                cap = math.inf if gamma == 0.0 else cap_factor * 0.25 / gamma
            p = LandauZenerProblem.from_theta(1.0, theta, cap)
            psi0, psig = boundary_states(p)
            value = tmin_c2(BoundInputs(p.control_hamiltonian(), psi0, psig))
            check(failures, value == 0.0,
                  f"t_min^C2 = {value!r} at theta={theta:.4f}, cap={cap!r}")
    finish(5, failures, time.perf_counter() - t0, None)


def test_criterion_6_property_suites():
    t0 = time.perf_counter()
    failures = []
    report = run_property_suites(SEED, 1000)
    for suite in report.results:
        check(failures, suite.passed,
              f"suite {suite.name} failed (worst residual {suite.max_residual:.3e})")
    finish(6, failures, time.perf_counter() - t0, 120.0)


def test_criterion_7_oracle_equivalence():
    t0 = time.perf_counter()
    failures = []
    thetas = np.linspace(0.05, 1.5, 10)
    windows = np.logspace(-2.0, 3.0, 10)
    for theta in map(float, thetas):
        for u_max in map(float, windows):
            p = LandauZenerProblem.from_theta(1.0, theta, u_max)
            psi0, psig = boundary_states(p)
            inputs = BoundInputs(p.control_hamiltonian(), psi0, psig)
            cb = closed_form_bounds(p)
            for name, generic, closed in (
                ("a", tmin_a(inputs), cb.tmin_a),
                ("b", tmin_b(inputs), cb.tmin_b),
                ("c1", tmin_c1(inputs), cb.tmin_c1),
                ("c2", tmin_c2(inputs), cb.tmin_c2),
            ):
                check(failures, abs(generic - closed) <= 1e-12,
                      f"t_min^{name} off by {abs(generic - closed):.2e} "
                      f"at theta={theta:.3f}, u_max={u_max:.3g}")

    # analytic variance maximization vs brute-force window scan
    rng = np.random.default_rng(SEED)
    cases = []
    for theta in (0.2, 0.7, 1.3):
        p = LandauZenerProblem.from_theta(1.0, theta, 2.0)
        psi0, psig = boundary_states(p)
        cases.append((p.control_hamiltonian(), psi0))
        cases.append((p.control_hamiltonian(), psig))
    for dim in (2, 3, 4):
        h0 = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        hc = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        ch = ControlHamiltonian(
            HermitianOperator(0.5 * (h0 + h0.conj().T)),
            HermitianOperator(0.5 * (hc + hc.conj().T)),
            2.0,
        )
        amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        cases.append((ch, PureState(amps / np.linalg.norm(amps))))
    for ch, chi in cases:
        analytic = max_variance_over_field(ch, chi)
        grid = max(
            energy_variance(chi, ch.hamiltonian(float(u)))
            for u in np.linspace(-ch.u_max, ch.u_max, 10_000)
        )
        check(failures, abs(analytic - grid) <= 1e-10,
              f"variance max off grid scan by {abs(analytic - grid):.2e}")
    finish(7, failures, time.perf_counter() - t0, None)


def test_criterion_8_window_independence_for_eigenstate_endpoints():
    t0 = time.perf_counter()
    failures = []
    psi0, psig = basis_state(2, 0), basis_state(2, 1)
    values = []
    for u_max in (1.0, 1e3, 1e6):
        ch = ControlHamiltonian(0.5 * SIGMA_X, SIGMA_Z, u_max)
        values.append(tmin_b(BoundInputs(ch, psi0, psig)))
    check(failures, abs(values[0] - values[1]) <= 1e-12,
          "t_min^B moved between u_max = 1 and 1e3")
    check(failures, abs(values[0] - values[2]) <= 1e-12,
          "t_min^B moved between u_max = 1 and 1e6")
    check(failures, abs(values[0] - math.pi) <= 1e-12,
          f"t_min^B = {values[0]!r}, expected pi")
    finish(8, failures, time.perf_counter() - t0, None)
