"""A-priori lower bounds on the time needed to steer psi0 into psig.

All bounds take the same inputs (drift, control operator, drive window, the
two endpoint states) and return times in units with hbar = 1.  Negative
numerators are clamped to zero, so every bound is trivially valid when the
overlap structure makes it vacuous.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import quantum, tolerances
from .dynamics import ControlHamiltonian, TrajectoryStack, _state_array
from .dynamics import _distance_over, _pairs, _single, arenz_overlap_residuals
from .dynamics import sin_star, tqsl_star  # noqa: F401  perfbench traces these bindings
from .quantum import HermitianOperator, PureState, energy_covariances, fubini_study_distances, norms
from .tolerances import EIGENSTATE_ATOL, OVERLAP_SUM_ATOL

BOUND_NAMES = ("a", "b", "c1", "c2")


def mandelstam_tamm_time(delta_e: float, overlap: float) -> float:
    """arccos(overlap)/delta_e for a conserved energy spread delta_e."""
    if not delta_e > 0.0:
        raise ValueError(f"energy spread must be positive, got {delta_e!r}")
    if math.isnan(overlap):
        raise ValueError("overlap must be a number, got nan")
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
    drops its branch; a NaN argument is an error."""
    for name, x in (("delta_e", delta_e), ("mean_e", mean_e)):
        if math.isnan(x):
            raise ValueError(f"{name} must be a number, got nan")
    candidates = [math.pi / (2.0 * x) for x in (delta_e, mean_e) if x > 0.0]
    if not candidates:
        raise ValueError("at least one of delta_e, mean_e must be positive")
    return min(candidates)


@dataclass(frozen=True)
class BoundInputs:
    """Endpoint states plus the control structure the bounds are allowed to use."""

    ch: ControlHamiltonian
    psi0: PureState
    psig: PureState

    def __post_init__(self):
        if self.psi0.dim != self.ch.dim or self.psig.dim != self.ch.dim:
            raise ValueError("state dimensions must match the control Hamiltonian")


def _window_speeds(quadratics, caps) -> List[float]:
    """The speed of each instance over its window |u| <= caps[k]: the min over its anchors
    ((c00, c01), (_, c11)) of sqrt(max_u c00 + 2*c01*u + c11*u^2), c00 and c11 clamped at zero
    round-off.  The convex quadratic peaks at the edge u = sign(c01)*cap; an unbounded window
    gives +inf unless it is constant.  A NaN anchor (overflowed covariances) gives NaN."""
    speeds = []
    for anchors, cap in zip(quadratics, caps):
        roots = []
        for (c00, c01), (_, c11) in anchors:
            c0, c1, c2 = max(c00, 0.0), 2.0 * c01, max(c11, 0.0)
            if math.isnan(c1) or math.isnan(c2):
                c0 = math.nan
            elif not math.isinf(cap):
                c0 = c0 + abs(c1) * cap + c2 * cap * cap
            elif c2 > 0.0 or c1 != 0.0:
                c0 = math.inf
            roots.append(math.sqrt(max(c0, 0.0)))
        speeds.append(math.nan if any(map(math.isnan, roots)) else min(roots))
    return speeds


def _operands(chs: Sequence, psi0s: np.ndarray, psigs: np.ndarray) -> tuple:
    """What every kernel reads of a stack chs with checked states psi0s, psigs (n, d): the (h0,
    hc) entries (n, 2, d, d), the windows as floats, the states (n, 2, d) (one concatenate, a
    fraction of np.stack's cost on a stack of one) and the endpoint distances."""
    states = np.concatenate((psi0s, psigs), axis=1).reshape(len(chs), 2, -1)
    return _pairs(chs), [ch.u_max for ch in chs], states, fubini_study_distances(psi0s, psigs)


def _one(kernel, inputs: BoundInputs) -> float:
    """A stacked kernel on one instance: its value, or its error raised."""
    psi0, psig = inputs.psi0.amplitudes[None], inputs.psig.amplitudes[None]
    outcome = kernel(*_operands((inputs.ch,), psi0, psig))[0]
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _tmin_a_stack(pairs, caps, states, dists) -> List[float]:
    # ||h0 + u*hc||_HS^2 = tr(h0^2) + 2*tr(hc h0)*u + tr(hc^2)*u^2, where for Hermitian a and b
    # tr(a b) = sum_ij conj(b_ij) a_ij: 1 x d^2 by d^2 x 1 products, which round as np.vdot
    rows = pairs.reshape(len(pairs), 2, -1)
    traces = (rows.conj()[:, None, :, None, :] @ rows[:, :, None, :, None])[:, None, ..., 0, 0]
    speeds = _window_speeds(traces.real.tolist(), caps)
    return [_distance_over(dist, math.sqrt(2.0) * speed) for dist, speed in zip(dists, speeds)]


def tmin_a(inputs: BoundInputs) -> float:
    """Hilbert-Schmidt norm bound: distance / (sqrt(2) * max_u ||H(u)||_HS).

    An unbounded drive on a nonzero control operator pushes the denominator
    to infinity, so the bound degenerates to 0 there; a zero Hamiltonian
    cannot move the state at all and reports +inf.
    """
    return _one(_tmin_a_stack, inputs)


def _tmin_b_stack(pairs, caps, states, dists) -> List:
    # deltaE^2(u) = c00 + 2*c01*u + c11*u^2 in psi0 and psig: (n, 2, 2, 2) covariances
    speeds = _window_speeds(energy_covariances(pairs[:, None], states).tolist(), caps)
    overflow = "the energy spread overflows: the operator entries are too large"
    bounds = [_distance_over(dist, 2.0 * speed) for dist, speed in zip(dists, speeds)]
    return [ValueError(overflow) if math.isnan(bound) else bound for bound in bounds]


def tmin_b(inputs: BoundInputs) -> float:
    """Anchored-variance bound: distance / (2 * deltaE_max).

    deltaE_max maximizes the spread over the drive window separately for each
    endpoint state and keeps the smaller of the two maxima; either anchoring
    is valid, so the smaller denominator (stronger bound) wins.
    """
    return _one(_tmin_b_stack, inputs)


def _require_eigenstate(chi: PureState, hc: HermitianOperator, name: str) -> None:
    hx = hc.entries @ chi.amplitudes
    mean = complex(np.vdot(chi.amplitudes, hx))
    if not float(np.linalg.norm(hx - mean * chi.amplitudes)) <= EIGENSTATE_ATOL:
        raise ValueError(f"{name} is not an eigenstate of the control operator")


def tmin_b_eigenstate(inputs: BoundInputs) -> float:
    """Drive-independent form of tmin_b for endpoint states the control
    operator cannot spread: distance / (2 * min drift spread).

    Requires both endpoints to be eigenstates of hc; then the drive drops out
    of the variance entirely and the bound is tmin_b with the window closed,
    the same for every u_max.
    """
    _require_eigenstate(inputs.psi0, inputs.ch.hc, "psi0")
    _require_eigenstate(inputs.psig, inputs.ch.hc, "psig")
    return tmin_b(replace(inputs, ch=replace(inputs.ch, u_max=0.0)))


def _tmin_c_stack(pairs, caps, states, dists) -> Tuple[List, List]:
    """The tmin_c1 and tmin_c2 columns: (1 - sum_j |<psig|phi_j>| |<phi_j|psi0>|) / scale,
    phi_j the eigenvectors of hc over ||h0||_HS (c1, where h0 != 0) or of h0 over
    u_max * ||hc||_HS (c2, where u_max is finite; 0 elsewhere).  A numerator in the
    round-off floor vanishes, a zero scale gives +inf.  Both operators of every instance go
    through one stacked eigh, matrix 2k + side being pairs[k, side]; if that fails, each
    matrix is decomposed alone and its error fails only the values it decides."""
    n, d = len(pairs), pairs.shape[-1]
    mats, failed = pairs.reshape(2 * n, d, d), {}
    try:
        vecs = quantum._phase_fixed_eigh(mats)[1]
    except (ValueError, np.linalg.LinAlgError):
        vecs = np.zeros_like(mats)
        for j, m in enumerate(mats):
            try:
                vecs[j] = quantum._phase_fixed_eigh(m)[1]
            except (ValueError, np.linalg.LinAlgError) as exc:
                failed[j] = exc
    # d x d by d x 1 products round as vh @ psi, 1 x d by d x 1 as a dot
    vh = vecs.conj().swapaxes(-1, -2).reshape(n, 2, 1, d, d)
    weights = np.abs(vh @ states[:, None, :, :, None])
    sums = (weights[:, :, 1].swapaxes(-1, -2) @ weights[:, :, 0])[..., 0, 0].tolist()
    hs = norms(pairs.reshape(n, 2, -1)).tolist()
    zero = "zero drift: the control-eigenbasis bound needs h0 != 0"
    columns = ([0.0 if h0 else ValueError(zero) for h0, _ in hs], [0.0] * n)
    for k, ((h0, hc), cap, totals) in enumerate(zip(hs, caps, sums)):
        # c1 reads hc's eigenbasis, matrix 2k + 1, and c2 reads h0's, matrix 2k
        for col, side, scale, live in ((0, 1, h0, h0), (1, 0, cap * hc, math.isfinite(cap))):
            numerator = max(0.0, 1.0 - totals[side])
            if live and 2 * k + side in failed:
                columns[col][k] = failed[2 * k + side]
            elif live and numerator > OVERLAP_SUM_ATOL:
                columns[col][k] = numerator / scale if scale else math.inf
    return columns


def tmin_c1(inputs: BoundInputs) -> float:
    """Control-eigenbasis bound (1 - sum_j |<psig|phi_j><phi_j|psi0>|) / ||h0||_HS
    with phi_j the eigenvectors of hc.  Independent of u_max.  A numerator
    inside the overlap round-off floor counts as vanished, so coincident
    endpoints give a hard zero."""
    return _one(lambda *args: _tmin_c_stack(*args)[0], inputs)


def tmin_c2(inputs: BoundInputs) -> float:
    """Drift-eigenbasis counterpart, dividing by u_max * ||hc||_HS.

    Degenerate windows are reported rather than raised: u_max = 0 leaves the
    control inert (+inf unless the numerator already vanishes) and an
    unbounded window sends the bound to 0.  A numerator inside the overlap
    round-off floor counts as vanished; otherwise a closed window would turn
    a 1e-16 residue into +inf.
    """
    return _one(lambda *args: _tmin_c_stack(*args)[1], inputs)


def arenz_overlap_inequality_check(traj: TrajectoryStack, psig: PureState) -> float:
    """arenz_overlap_residuals of a stack of one."""
    return float(arenz_overlap_residuals(_single(traj), psig.amplitudes)[0])


@dataclass
class BoundReport:
    """All bounds for one instance, with the optimum's time and, when a caller
    fills it, the T*_QSL of its trajectory."""

    t_min_a: float
    t_min_b: float
    t_min_c1: float
    t_min_c2: float
    t_qsl_star: Optional[float] = None
    t_opt: Optional[float] = None
    inequality_flags: Dict[str, bool] = field(default_factory=dict)
    errors: Dict[str, str] = field(default_factory=dict)

    def value(self, name: str) -> float:
        return getattr(self, f"t_min_{name}")

    def text_block(self) -> str:
        lines = []
        for n in BOUND_NAMES:
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


def compute_reports(chs, psi0s, psigs, t_opts=None) -> List[BoundReport]:
    """compute_report of each instance k of a stack of one dimension: chs[k]
    steering psi0s[k] into psigs[k], rows of (n, d) arrays checked once per
    column, flagged against t_opts[k] if given.  One batched pass per bound."""
    dims = {ch.dim for ch in chs}
    if len(dims) != 1:
        raise ValueError(f"need instances of one dimension, got dimensions {sorted(dims)}")
    n, (dim,) = len(chs), dims
    if t_opts is not None and len(t_opts) != n:
        raise ValueError(f"need one t_opt per instance: got {len(t_opts)} for {n}")
    return _reports(chs, _state_array(psi0s, n, dim), _state_array(psigs, n, dim), t_opts)


def _reports(chs: Sequence, psi0s: np.ndarray, psigs: np.ndarray, t_opts) -> List[BoundReport]:
    """compute_reports from checked states."""
    operands = _operands(chs, psi0s, psigs)
    columns = (_tmin_a_stack(*operands), _tmin_b_stack(*operands), *_tmin_c_stack(*operands))
    t_opts = (None,) * len(chs) if t_opts is None else t_opts
    reports = []
    for t_opt, *outcomes in zip(t_opts, *columns, strict=True):
        values, errors, flags = [], {}, {}
        for name, value in zip(BOUND_NAMES, outcomes):
            if isinstance(value, Exception):
                errors[name], value = str(value), math.nan
            elif t_opt is not None:
                flags[name] = t_opt >= value - tolerances.PASS_TOL
            values.append(value)
        reports.append(BoundReport(*values, t_opt=t_opt, inequality_flags=flags, errors=errors))
    return reports


def compute_report(inputs: BoundInputs, t_opt: Optional[float] = None) -> BoundReport:
    """Evaluate every bound, tolerating per-bound failures, and flag each one
    against t_opt when an achieved time is supplied: compute_reports of one
    instance.  PASS_TOL is read at call time, so patching tolerances.PASS_TOL
    reaches every flag."""
    psi0, psig = inputs.psi0.amplitudes[None], inputs.psig.amplitudes[None]
    return _reports((inputs.ch,), psi0, psig, (t_opt,))[0]
