"""A-priori lower bounds on the time needed to steer psi0 into psig.

All bounds take the same inputs (drift, control operator, drive window, the
two endpoint states) and return times in units with hbar = 1.  Negative
numerators are clamped to zero, so every bound is trivially valid when the
overlap structure makes it vacuous.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import quantum, tolerances
from .dynamics import ControlHamiltonian, TrajectoryStack, _state_array
from .dynamics import _distance_over, _pairs, _single, arenz_overlap_residuals
from .dynamics import sin_star, tqsl_star  # noqa: F401  perfbench traces these bindings
from .quantum import (
    HermitianOperator,
    PureState,
    energy_covariances,
    energy_variance,
    fubini_study_distance,
    fubini_study_distances,
    norms,
)
from .tolerances import EIGENSTATE_ATOL, OVERLAP_SUM_ATOL

BOUND_NAMES = ("a", "b", "c1", "c2")


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


@dataclass(frozen=True)
class BoundInputs:
    """Endpoint states plus the control structure the bounds are allowed to use."""

    ch: ControlHamiltonian
    psi0: PureState
    psig: PureState

    def __post_init__(self):
        if self.psi0.dim != self.ch.dim or self.psig.dim != self.ch.dim:
            raise ValueError("state dimensions must match the control Hamiltonian")


def _max_quadratic_root(c0: float, c1: float, c2: float, u_max: float) -> float:
    """sqrt of the max over |u| <= u_max of c0 + c1*u + c2*u^2, with c2 >= 0: the
    quadratic is convex, so the max sits at the edge u = sign(c1)*u_max.  An
    unbounded window gives +inf unless the quadratic is constant."""
    if math.isinf(u_max):
        if c2 > 0.0 or c1 != 0.0:
            return math.inf
        return math.sqrt(max(c0, 0.0))
    return math.sqrt(max(c0 + abs(c1) * u_max + c2 * u_max * u_max, 0.0))


def max_hs_norm_over_field(ch: ControlHamiltonian) -> float:
    """max over |u| <= u_max of ||h0 + u*hc||_HS, again quadratic in u.

    For Hermitian a and b, tr(a b) = sum_ij a_ij conj(b_ij), one vdot of the
    entries.
    """
    h0, hc = ch.h0.entries, ch.hc.entries
    t00 = float(np.vdot(h0, h0).real)
    t0c = float(np.vdot(hc, h0).real)
    tcc = float(np.vdot(hc, hc).real)
    return _max_quadratic_root(t00, 2.0 * t0c, tcc, ch.u_max)


def _operands(chs: Sequence, psi0s: np.ndarray, psigs: np.ndarray) -> tuple:
    """What every kernel reads of a stack with checked states psi0s and psigs (n, d): its
    chs, states (n, 2, d) (one concatenate, a fraction of np.stack's cost on a stack of one),
    (h0, hc) entries (n, 2, d, d) and endpoint distances."""
    dists = fubini_study_distances(psi0s, psigs)
    return chs, np.concatenate((psi0s, psigs), axis=1).reshape(len(chs), 2, -1), _pairs(chs), dists


def _one(kernel, inputs: BoundInputs) -> float:
    """A stacked kernel on one instance: its value, or its error raised."""
    psi0, psig = inputs.psi0.amplitudes[None], inputs.psig.amplitudes[None]
    outcome = kernel(*_operands((inputs.ch,), psi0, psig))[0]
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _tmin_a_stack(chs, states, pairs, dists) -> List[float]:
    speeds = [math.sqrt(2.0) * max_hs_norm_over_field(ch) for ch in chs]
    return [_distance_over(dist, speed) for dist, speed in zip(dists, speeds)]


def tmin_a(inputs: BoundInputs) -> float:
    """Hilbert-Schmidt norm bound: distance / (sqrt(2) * max_u ||H(u)||_HS).

    An unbounded drive on a nonzero control operator pushes the denominator
    to infinity, so the bound degenerates to 0 there; a zero Hamiltonian
    cannot move the state at all and reports +inf.
    """
    return _one(_tmin_a_stack, inputs)


def _tmin_b_stack(chs, states, pairs, dists) -> List:
    # deltaE^2(u) = c0 + c1*u + c2*u^2 in psi0 and psig: (n, 2, 2, 2) covariances
    covs = energy_covariances(pairs[:, None], states).tolist()
    overflow = "the energy spread overflows: the operator entries are too large"
    out = []
    for ch, anchors, dist in zip(chs, covs, dists):
        spread = min(
            _max_quadratic_root(max(c00, 0.0), 2.0 * c01, max(c11, 0.0), ch.u_max)
            for (c00, c01), (_, c11) in anchors
        )
        bound = _distance_over(dist, 2.0 * spread)
        out.append(ValueError(overflow) if math.isnan(bound) else bound)
    return out


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
    of the variance entirely and the bound is the same for every u_max.
    """
    _require_eigenstate(inputs.psi0, inputs.ch.hc, "psi0")
    _require_eigenstate(inputs.psig, inputs.ch.hc, "psig")
    spread = min(energy_variance(chi, inputs.ch.h0) for chi in (inputs.psi0, inputs.psig))
    return _distance_over(fubini_study_distance(inputs.psi0, inputs.psig), 2.0 * spread)


def _tmin_c_stack(chs, states, pairs, dists) -> Tuple[List, List]:
    """The tmin_c1 and tmin_c2 columns: (1 - sum_j |<psig|phi_j>| |<phi_j|psi0>|) / scale,
    phi_j the eigenvectors of hc over ||h0||_HS (c1, where h0 != 0) or of h0 over
    u_max * ||hc||_HS (c2, where u_max is finite; 0 elsewhere).  A numerator in the
    round-off floor vanishes, a zero scale gives +inf.  Every eigenbasis comes from
    one stacked eigh; if that fails, each matrix is decomposed alone and its error
    fails only the values it decides."""
    n = len(chs)
    hs = norms(pairs.reshape(n, 2, -1)).tolist()
    zero = "zero drift: the control-eigenbasis bound needs h0 != 0"
    columns = ([0.0 if h0 else ValueError(zero) for h0, _ in hs], [0.0] * n)
    # (column, instance, operator of the pair, scale) of each value an eigenbasis decides
    todo = [(0, k, 1, h0) for k, (h0, _) in enumerate(hs) if h0] + [
        (1, k, 0, ch.u_max * hc)
        for k, (ch, (_, hc)) in enumerate(zip(chs, hs))
        if math.isfinite(ch.u_max)
    ]
    if not todo:
        return columns
    cols, ks, sides, scales = zip(*todo)
    mats, failed = pairs[ks, sides], {}
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
    weights = np.abs(vecs.conj().swapaxes(-1, -2)[:, None] @ states[ks, :, :, None])
    sums = (weights[:, 1].swapaxes(-1, -2) @ weights[:, 0])[:, 0, 0]
    for j, (col, k, scale, total) in enumerate(zip(cols, ks, scales, sums.tolist())):
        numerator = max(0.0, 1.0 - total)
        if j in failed:
            columns[col][k] = failed[j]
        elif numerator > OVERLAP_SUM_ATOL:
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
