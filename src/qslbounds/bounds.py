"""A-priori lower bounds on the time needed to steer psi0 into psig.

All bounds take the same inputs (drift, control operator, drive window, the
two endpoint states) and return times in units with hbar = 1.  Negative
numerators are clamped to zero, so every bound is trivially valid when the
overlap structure makes it vacuous.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Optional

import numpy as np

from .dynamics import ControlHamiltonian, TARGET_FIDELITY_ATOL, Trajectory, tqsl_star
from .quantum import (
    HermitianOperator,
    PureState,
    energy_mean,
    energy_variance,
    fubini_study_distance,
    hs_norm,
    spectral,
    unitary_step,
)

EIGENSTATE_ATOL = 1e-10
PASS_TOL = 1e-9
OVERLAP_SUM_ATOL = 1e-12


def mandelstam_tamm_time(delta_e: float, overlap: float) -> float:
    """arccos(overlap)/delta_e for a conserved energy spread delta_e."""
    if not delta_e > 0.0:
        raise ValueError(f"energy spread must be positive, got {delta_e!r}")
    x = min(max(overlap, 0.0), 1.0)
    return math.acos(x) / delta_e


def margolus_levitin_time(mean_energy_above_ground: float) -> float:
    """pi/(2E) for orthogonalization, E measured from the ground energy."""
    if not mean_energy_above_ground > 0.0:
        raise ValueError(
            f"mean energy above ground must be positive, got {mean_energy_above_ground!r}"
        )
    return math.pi / (2.0 * mean_energy_above_ground)


def unified_time(delta_e: float, mean_e: float) -> float:
    """Orthogonalization bound min(pi/2deltaE, pi/2E); a non-positive argument
    drops its branch."""
    candidates = [math.pi / (2.0 * x) for x in (delta_e, mean_e) if x > 0.0]
    if not candidates:
        raise ValueError("at least one of delta_e, mean_e must be positive")
    return min(candidates)


def sin_star(x):
    """Monotone envelope helper: 0 below 0, sin on [0, pi/2], 1 beyond.

    Takes a scalar or an array.  The cap sits at pi/2, where sin reaches 1;
    capping any earlier would make the envelope discontinuous.
    """
    return np.sin(np.clip(x, 0.0, 0.5 * math.pi))


@dataclass(frozen=True)
class BoundInputs:
    """Endpoint states plus the control structure the bounds are allowed to use."""

    ch: ControlHamiltonian
    psi0: PureState
    psig: PureState

    def __post_init__(self):
        if self.psi0.dim != self.ch.dim or self.psig.dim != self.ch.dim:
            raise ValueError("state dimensions must match the control Hamiltonian")

    @cached_property
    def distance(self) -> float:
        return fubini_study_distance(self.psi0, self.psig)


def variance_quadratic_coeffs(ch: ControlHamiltonian, chi: PureState):
    """Coefficients (c0, c1, c2) of deltaE^2(u) = c0 + c1*u + c2*u^2 in the
    fixed state chi."""
    x = chi.amplitudes
    h0x = ch.h0.entries @ x
    hcx = ch.hc.entries @ x
    m0 = float(np.vdot(x, h0x).real)
    mc = float(np.vdot(x, hcx).real)
    c0 = max(float(np.vdot(h0x, h0x).real) - m0 * m0, 0.0)
    c2 = max(float(np.vdot(hcx, hcx).real) - mc * mc, 0.0)
    c1 = 2.0 * float(np.vdot(h0x, hcx).real) - 2.0 * m0 * mc
    return c0, c1, c2


def max_variance_over_field(ch: ControlHamiltonian, chi: PureState) -> float:
    """max over |u| <= u_max of deltaE(u) in the fixed state chi.

    The square is quadratic in u with non-negative leading coefficient, so the
    endpoints suffice; the clamped vertex is evaluated anyway for safety.
    """
    c0, c1, c2 = variance_quadratic_coeffs(ch, chi)
    if math.isinf(ch.u_max):
        if c2 > 0.0 or c1 != 0.0:
            return math.inf
        return math.sqrt(c0)
    candidates = [-ch.u_max, 0.0, ch.u_max]
    if c2 > 0.0:
        candidates.append(min(max(-c1 / (2.0 * c2), -ch.u_max), ch.u_max))
    best = max(c0 + c1 * u + c2 * u * u for u in candidates)
    return math.sqrt(max(best, 0.0))


def max_hs_norm_over_field(ch: ControlHamiltonian) -> float:
    """max over |u| <= u_max of ||h0 + u*hc||_HS, again quadratic in u.

    For Hermitian a and b, tr(a b) = sum_ij a_ij conj(b_ij), one vdot of the
    entries.
    """
    h0, hc = ch.h0.entries, ch.hc.entries
    t00 = float(np.vdot(h0, h0).real)
    t0c = float(np.vdot(hc, h0).real)
    tcc = float(np.vdot(hc, hc).real)
    if math.isinf(ch.u_max):
        if tcc > 0.0:
            return math.inf
        return math.sqrt(max(t00, 0.0))
    candidates = [-ch.u_max, 0.0, ch.u_max]
    if tcc > 0.0:
        candidates.append(min(max(-t0c / tcc, -ch.u_max), ch.u_max))
    best = max(t00 + 2.0 * u * t0c + u * u * tcc for u in candidates)
    return math.sqrt(max(best, 0.0))


def tmin_a(inputs: BoundInputs) -> float:
    """Hilbert-Schmidt norm bound: distance / (sqrt(2) * max_u ||H(u)||_HS).

    An unbounded drive on a nonzero control operator pushes the denominator
    to infinity, so the bound degenerates to 0 there; a zero Hamiltonian
    cannot move the state at all and reports +inf.
    """
    dist = inputs.distance
    if dist == 0.0:
        return 0.0
    norm_max = max_hs_norm_over_field(inputs.ch)
    if norm_max == 0.0:
        return math.inf
    if math.isinf(norm_max):
        return 0.0
    return dist / (math.sqrt(2.0) * norm_max)


def tmin_b(inputs: BoundInputs) -> float:
    """Anchored-variance bound: distance / (2 * deltaE_max).

    deltaE_max maximizes the spread over the drive window separately for each
    endpoint state and keeps the smaller of the two maxima; either anchoring
    is valid, so the smaller denominator (stronger bound) wins.
    """
    dist = inputs.distance
    if dist == 0.0:
        return 0.0
    spread = min(
        max_variance_over_field(inputs.ch, inputs.psi0),
        max_variance_over_field(inputs.ch, inputs.psig),
    )
    if spread == 0.0:
        return math.inf
    if math.isinf(spread):
        return 0.0
    return dist / (2.0 * spread)


def _require_eigenstate(chi: PureState, hc: HermitianOperator, name: str) -> None:
    hx = hc.entries @ chi.amplitudes
    mean = complex(np.vdot(chi.amplitudes, hx))
    if not float(np.linalg.norm(hx - mean * chi.amplitudes)) <= EIGENSTATE_ATOL:
        raise ValueError(f"{name} is not an eigenstate of the control operator")


def tmin_b_eigenstate(inputs: BoundInputs) -> float:
    """Drive-independent form of tmin_b for endpoint states the control
    operator cannot spread: distance / (2 * min drift spread).

    Requires both endpoints to be eigenstates of hc; then the drive drops out
    of the variance entirely and the bound is the same for every u_max.
    """
    _require_eigenstate(inputs.psi0, inputs.ch.hc, "psi0")
    _require_eigenstate(inputs.psig, inputs.ch.hc, "psig")
    dist = inputs.distance
    if dist == 0.0:
        return 0.0
    spread = min(
        energy_variance(inputs.psi0, inputs.ch.h0),
        energy_variance(inputs.psig, inputs.ch.h0),
    )
    if spread == 0.0:
        return math.inf
    return dist / (2.0 * spread)


def _eigenbasis_overlap_sum(op: HermitianOperator, psi0: PureState, psig: PureState) -> float:
    """sum_j |<psig|phi_j>| |<phi_j|psi0>| over the eigenvectors phi_j of op."""
    vh = spectral(op).vectors.conj().T
    return float(np.abs(vh @ psig.amplitudes) @ np.abs(vh @ psi0.amplitudes))


def tmin_c1(inputs: BoundInputs) -> float:
    """Control-eigenbasis bound (1 - sum_j |<psig|phi_j><phi_j|psi0>|) / ||h0||_HS
    with phi_j the eigenvectors of hc.  Independent of u_max.  A numerator
    inside the overlap round-off floor counts as vanished, so coincident
    endpoints give a hard zero."""
    drift_norm = hs_norm(inputs.ch.h0)
    if drift_norm == 0.0:
        raise ValueError("zero drift: the control-eigenbasis bound needs h0 != 0")
    numerator = max(0.0, 1.0 - _eigenbasis_overlap_sum(inputs.ch.hc, inputs.psi0, inputs.psig))
    if numerator <= OVERLAP_SUM_ATOL:
        return 0.0
    return numerator / drift_norm


def tmin_c2(inputs: BoundInputs) -> float:
    """Drift-eigenbasis counterpart, dividing by u_max * ||hc||_HS.

    Degenerate windows are reported rather than raised: u_max = 0 leaves the
    control inert (+inf unless the numerator already vanishes) and an
    unbounded window sends the bound to 0.  A numerator inside the overlap
    round-off floor counts as vanished; otherwise a closed window would turn
    a 1e-16 residue into +inf.
    """
    if math.isinf(inputs.ch.u_max):
        return 0.0
    numerator = max(0.0, 1.0 - _eigenbasis_overlap_sum(inputs.ch.h0, inputs.psi0, inputs.psig))
    if numerator <= OVERLAP_SUM_ATOL:
        return 0.0
    control_norm = hs_norm(inputs.ch.hc)
    if inputs.ch.u_max == 0.0 or control_norm == 0.0:
        return math.inf
    return numerator / (inputs.ch.u_max * control_norm)


def arenz_overlap_inequality_check(traj: Trajectory, psig: PureState) -> float:
    """Signed residual of 1 - |<psig|exp(-i*alpha(T)*hc)|psi0>| <= ||h0||_HS * T.

    alpha(T) is the area of the drive that produced the trajectory; the
    trajectory must actually have reached psig for the comparison to mean
    anything, so a missed target is an error.
    """
    fidelity = traj.final_state().fidelity(psig)
    if not fidelity >= 1.0 - TARGET_FIDELITY_ATOL:
        raise ValueError(f"trajectory missed the target (fidelity {fidelity!r})")
    u_ctrl = unitary_step(traj.ch.hc, traj.field.amplitude_integral())
    lhs = 1.0 - abs(
        complex(np.vdot(psig.amplitudes, u_ctrl @ traj.initial_state().amplitudes))
    )
    return lhs - hs_norm(traj.ch.h0) * float(traj.times[-1])


@dataclass
class BoundReport:
    """All bounds for one instance, with optional trajectory and optimum context."""

    t_min_a: float
    t_min_b: float
    t_min_c1: float
    t_min_c2: float
    t_qsl_star: Optional[float] = None
    t_opt: Optional[float] = None
    inequality_flags: Dict[str, bool] = field(default_factory=dict)
    errors: Dict[str, str] = field(default_factory=dict)

    _ORDER = ("a", "b", "c1", "c2")

    def value(self, name: str) -> float:
        return getattr(self, f"t_min_{name}")

    def csv_row(self) -> str:
        times = [self.value(n) for n in self._ORDER] + [self.t_qsl_star, self.t_opt]
        flags = [self.inequality_flags.get(n) for n in self._ORDER]
        cells = ["" if x is None else format(x, ".17g") for x in times]
        return ",".join(cells + ["" if f is None else str(int(f)) for f in flags])

    def text_block(self) -> str:
        lines = []
        for n in self._ORDER:
            suffix = ""
            if n in self.inequality_flags:
                suffix = "  [pass]" if self.inequality_flags[n] else "  [FAIL]"
            if n in self.errors:
                suffix = f"  [error: {self.errors[n]}]"
            lines.append(f"t_min_{n:<3} = {self.value(n):.12g}{suffix}")
        if self.t_qsl_star is not None:
            lines.append(f"t_qsl*   = {self.t_qsl_star:.12g}")
        if self.t_opt is not None:
            lines.append(f"t_opt    = {self.t_opt:.12g}")
        return "\n".join(lines)


def compute_report(
    inputs: BoundInputs,
    traj: Optional[Trajectory] = None,
    t_opt: Optional[float] = None,
) -> BoundReport:
    """Evaluate every bound, tolerating per-bound failures, and flag each one
    against t_opt when an achieved time is supplied."""
    values: Dict[str, float] = {}
    errors: Dict[str, str] = {}
    for name, fn in (("a", tmin_a), ("b", tmin_b), ("c1", tmin_c1), ("c2", tmin_c2)):
        try:
            values[name] = max(0.0, fn(inputs))
        except (ValueError, np.linalg.LinAlgError) as exc:
            values[name] = math.nan
            errors[name] = str(exc)
    t_qsl = tqsl_star(traj, inputs.psig).time if traj is not None else None
    flags: Dict[str, bool] = {}
    if t_opt is not None:
        for name, v in values.items():
            if not math.isnan(v):
                flags[name] = t_opt >= v - PASS_TOL
    return BoundReport(
        values["a"], values["b"], values["c1"], values["c2"],
        t_qsl_star=t_qsl, t_opt=t_opt, inequality_flags=flags, errors=errors,
    )
