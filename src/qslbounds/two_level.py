"""Time-optimal driving of a two-level avoided crossing.

The system is H(u) = u*sigma_z + (delta/2)*sigma_x with |u| <= lambda_cap,
steered between the ground states of H at u = -gamma and u = +gamma.  The
mixing angle theta, tan(theta) = delta/(2*gamma), fixes the geometry: the
endpoint overlap is sin(theta) and their geodesic separation pi - 2*theta.
Hegerfeldt's optimal drives come in three regimes set by the cap against the
critical value delta^2/(4*gamma): an unconstrained delta-kick composite,
bang-off-bang above critical, bang-bang below.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence, Tuple

import numpy as np

from .dynamics import ControlHamiltonian, PiecewiseConstantField
from .quantum import SIGMA_X, SIGMA_Z, HermitianOperator, PureState, ground_states_of_stack
from .tolerances import DEGENERACY_ATOL

REGIME_UNCONSTRAINED = "unconstrained-composite"
REGIME_BANG_OFF_BANG = "bang-off-bang"
REGIME_BANG_BANG = "bang-bang"

DEFAULT_SURROGATE_FACTOR = 1e4

# H = u*sigma_z + (delta/2)*sigma_x squares to (u^2 + delta^2/4) times the identity
# and its squared Hilbert-Schmidt norm is twice that, so the energy kernel and the
# norms can take an energy hypot(u, delta/2) up to sqrt(float max / 2), no more
MAX_ENERGY = math.sqrt(0.5 * sys.float_info.max)


def check_energy(delta: float, u: float = 0.0) -> None:
    """The rule for a drive amplitude u on a gap delta: hypot(u, delta/2) <= MAX_ENERGY."""
    if not math.hypot(u, 0.5 * delta) <= MAX_ENERGY:
        raise ValueError(
            f"delta {delta!r} with drive amplitude {u!r} is too large: "
            "the energy hypot(u, delta/2) overflows when squared"
        )


def check_delta(delta: float) -> None:
    """The rule for a gap delta, wherever one enters: positive and finite."""
    if not (delta > 0.0 and math.isfinite(delta)):
        raise ValueError(f"delta must be positive and finite, got {delta!r}")


def gamma_from_theta(delta: float, theta: float) -> float:
    check_delta(delta)
    if not 0.0 < theta <= 0.5 * math.pi:
        raise ValueError(f"theta must lie in (0, pi/2], got {theta!r}")
    if theta == 0.5 * math.pi:
        return 0.0
    gamma = delta / (2.0 * math.tan(theta))
    if math.isinf(gamma):
        raise ValueError(f"theta {theta!r} is too small: gamma = delta/(2*tan(theta)) overflows")
    if gamma < sys.float_info.min:
        raise ValueError(
            f"delta {delta!r} at theta {theta!r} is too small: "
            "gamma = delta/(2*tan(theta)) underflows"
        )
    return gamma


@dataclass(frozen=True)
class LandauZenerProblem:
    """Avoided crossing delta, mixing angle theta and drive cap; the bias reach
    gamma = delta/(2*tan(theta)) is derived from them."""

    delta: float
    theta: float
    lambda_cap: float = math.inf
    gamma: float = field(init=False)

    def __post_init__(self):
        # validates delta and theta, and that gamma is in float range
        object.__setattr__(self, "gamma", gamma_from_theta(self.delta, self.theta))
        check_energy(self.delta)
        if not self.lambda_cap > 0.0:
            raise ValueError(f"lambda_cap must be positive or +inf, got {self.lambda_cap!r}")

    # the old name of the constructor, kept for the perfbench workloads
    from_theta = classmethod(lambda cls, *args, **kwargs: cls(*args, **kwargs))

    def control_hamiltonian(self) -> ControlHamiltonian:
        return ControlHamiltonian(h0=_drift(self.delta), hc=SIGMA_Z, u_max=self.lambda_cap)


@lru_cache(maxsize=32)
def _drift(delta: float) -> HermitianOperator:
    # one operator per gap, not one per problem: a sweep builds a single drift
    return (0.5 * delta) * SIGMA_X


def boundary_state_arrays(problems: Sequence[LandauZenerProblem]) -> np.ndarray:
    """psi0 and psig of each problem as one (2, n, 2) array: the ground states of
    its bias Hamiltonians at -gamma and +gamma, all in one (2n, 2, 2) stack,
    validated once, through one eigh.  Rejects a problem whose endpoint gap
    delta/sin(theta) is within DEGENERACY_ATOL, naming its delta and theta."""
    for p in problems:
        if not p.delta / math.sin(p.theta) > DEGENERACY_ATOL:
            raise ValueError(
                f"delta {p.delta!r} at theta {p.theta!r} is too small: the endpoint gap "
                f"delta/sin(theta) is not above {DEGENERACY_ATOL}"
            )
    # endpoint definition, deliberately not windowed by lambda_cap; a problem's
    # delta and gamma are finite and real, so each h is finite and real symmetric
    factors = np.array([(b, 0.5 * p.delta) for p in problems for b in (-p.gamma, p.gamma)])
    bias, half_gap = factors.T[..., None, None]
    h = bias * SIGMA_Z.entries + half_gap * SIGMA_X.entries
    return ground_states_of_stack(h).reshape(-1, 2, 2).swapaxes(0, 1)


def boundary_states(problem: LandauZenerProblem) -> Tuple[PureState, PureState]:
    """(psi0, psig): ground states at bias -gamma and +gamma."""
    return tuple(map(PureState, boundary_state_arrays((problem,))[:, 0]))


@dataclass(frozen=True)
class OptimalProtocol:
    """A time-optimal drive: regime label, the field itself, and its durations.

    For the unconstrained composite the two delta-kick surrogates add 2*t0 of
    drive time that vanishes in the ideal limit, reported separately as
    t_opt_ideal; for the constrained regimes t_opt_ideal == t_opt.
    """

    regime: str
    field: PiecewiseConstantField
    t_lambda: float
    t_off: float
    t_opt_ideal: float

    @property
    def t_opt(self) -> float:
        """The total field duration."""
        return self.field.total_duration


def _hegerfeldt(regime: str, amplitude: float, t_bang: float, t_off: float) -> OptimalProtocol:
    """Hegerfeldt's drive, one shape in every regime: +amplitude for t_bang,
    off for t_off (left out when not positive), then -amplitude for t_bang.
    The composite's bangs are surrogate kicks, so it reports no bang time and
    t_off as its ideal duration."""
    segments = [(t_bang, +amplitude)]
    if t_off > 0.0:
        segments.append((t_off, 0.0))
    segments.append((t_bang, -amplitude))
    field = PiecewiseConstantField(tuple(segments))
    if regime == REGIME_UNCONSTRAINED:
        return OptimalProtocol(regime, field, t_lambda=0.0, t_off=t_off, t_opt_ideal=t_off)
    return OptimalProtocol(regime, field, t_bang, t_off, t_opt_ideal=field.total_duration)


def unconstrained_protocol(
    problem: LandauZenerProblem, u0: Optional[float] = None
) -> OptimalProtocol:
    """Kick, free evolution for (pi - 2*theta)/delta, inverse kick.

    Each kick is a finite surrogate for a delta pulse of area pi/4: amplitude
    u0 (default 1e4*delta) held for t0 = pi/(4*u0).  Requires an uncapped
    drive window.
    """
    if not math.isinf(problem.lambda_cap):
        raise ValueError("unconstrained protocol needs lambda_cap = +inf")
    check_surrogate(problem.lambda_cap, u0)
    if u0 is None:
        u0 = DEFAULT_SURROGATE_FACTOR * problem.delta
    check_energy(problem.delta, u0)
    t_free = (math.pi - 2.0 * problem.theta) / problem.delta
    return _hegerfeldt(REGIME_UNCONSTRAINED, u0, math.pi / (4.0 * u0), t_free)


def constrained_protocol(problem: LandauZenerProblem) -> OptimalProtocol:
    """Hegerfeldt's optimum for a finite cap: bang(+cap), off, bang(-cap).

    The sign of cap*gamma - delta^2/4, which the off time also reads, picks
    the regime: at or above 0 the off window is open (bang-off-bang, empty at
    0); below 0 it closes and the two bangs meet (bang-bang).
    """
    cap = problem.lambda_cap
    gamma = problem.gamma
    delta = problem.delta
    if math.isinf(cap):
        raise ValueError("constrained protocol needs a finite lambda_cap")
    if gamma == 0.0:
        raise ValueError("constrained protocol needs gamma > 0")

    quarter = 0.25 * delta * delta
    excess = cap * gamma - quarter
    rabi_sq = cap * cap + quarter
    # the sign of excess bounds sin_sq by 1/2 in both regimes, so asin needs no
    # clamp; an overflow hands it inf (a ValueError) or NaN, both out of range
    try:
        if excess >= 0.0:
            regime = REGIME_BANG_OFF_BANG
            sin_sq = rabi_sq / (2.0 * cap * (cap + gamma))
            t_off = (2.0 / delta) * math.atan(
                excess / (0.5 * delta * math.sqrt(cap * cap + 2.0 * cap * gamma - quarter))
            )
        else:
            regime = REGIME_BANG_BANG
            sin_sq = gamma * rabi_sq / (0.5 * delta * delta * (cap + gamma))
            t_off = 0.0
        t_lambda = math.asin(math.sqrt(sin_sq)) / math.sqrt(rabi_sq)
    except (ZeroDivisionError, ValueError):  # a divisor underflowed to 0, or asin(inf)
        t_lambda = math.nan
    if not 0.0 < t_lambda < math.inf:  # a NaN fails too; t_off overflows only after it
        raise ValueError(
            f"delta {delta!r} at theta {problem.theta!r} with lambda_cap {cap!r} is out of range: "
            "the bang durations overflow or underflow"
        )
    return _hegerfeldt(regime, cap, t_lambda, t_off)


def check_surrogate(lambda_cap: float, u0: Optional[float]) -> None:
    """The rule for a surrogate amplitude u0: it shapes only the composite, so
    a finite cap rejects it rather than ignore it, and it must be positive."""
    if u0 is not None and not math.isinf(lambda_cap):
        raise ValueError(f"u0 applies only to an uncapped drive, got lambda_cap={lambda_cap!r}")
    if u0 is not None and not u0 > 0.0:
        raise ValueError(f"surrogate amplitude must be positive, got {u0!r}")


def optimal_protocol(
    problem: LandauZenerProblem, u0: Optional[float] = None
) -> OptimalProtocol:
    """Dispatch on the cap: unconstrained composite or Hegerfeldt's bangs."""
    if math.isinf(problem.lambda_cap):
        return unconstrained_protocol(problem, u0)
    check_surrogate(problem.lambda_cap, u0)
    return constrained_protocol(problem)


@dataclass(frozen=True)
class ClosedFormBounds:
    tmin_a: float
    tmin_b: float
    tmin_c1: float
    tmin_c2: float


def closed_form_bounds(problem: LandauZenerProblem) -> ClosedFormBounds:
    """The four bounds evaluated analytically for the avoided-crossing problem.

    The drift-eigenbasis bound vanishes identically here: the endpoint states
    have equal and opposite tilts against the drift eigenbasis, so the
    overlap sum saturates at 1.
    """
    theta = problem.theta
    delta = problem.delta
    cap = problem.lambda_cap
    half_gap = 0.5 * math.pi - theta
    # an infinite cap gives 0.0 through each division
    a = half_gap / math.sqrt(0.25 * delta * delta + cap * cap)
    b = half_gap / (0.5 * delta * math.cos(theta) + cap * math.sin(theta))
    c1 = (1.0 - math.sin(theta)) / (0.5 * math.sqrt(2.0) * delta)
    return ClosedFormBounds(tmin_a=a, tmin_b=b, tmin_c1=c1, tmin_c2=0.0)


def tqsl_star_closed(problem: LandauZenerProblem, protocol: OptimalProtocol) -> float:
    """Speed-limit time of the optimal trajectory in closed form.

    Ratio of the geodesic separation to the path length swept by the drive,
    times the protocol duration; each regime has an explicit expression.
    """
    theta = problem.theta
    delta = problem.delta
    separation = math.pi - 2.0 * theta
    if protocol.regime == REGIME_UNCONSTRAINED:
        ideal = protocol.t_opt_ideal
        return separation * ideal / (separation + math.pi * math.sin(theta))
    cap = problem.lambda_cap
    spread = cap * math.sin(theta) + 0.5 * delta * math.cos(theta)
    if protocol.regime == REGIME_BANG_OFF_BANG:
        path = 4.0 * spread * protocol.t_lambda + delta * protocol.t_off
        return separation * protocol.t_opt / path
    if protocol.regime == REGIME_BANG_BANG:
        return separation / (2.0 * spread)
    raise ValueError(f"unknown regime {protocol.regime!r}")
