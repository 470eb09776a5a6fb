"""Bohr-Sommerfeld quantization and classical periods by quadrature.

The engine computes, for one confining well,

* the classical turning points of an orbit at energy E,
* the action I(E) = 2 integral of sqrt(2m(E - U)) between them,
* the period tau(E) = sqrt(2m) integral of dx / sqrt(E - U),

and inverts I(E) = 2 pi hbar (n + nu/4) for the level energies. nu is the
Maslov quarter-phase count: 2 for two smooth turning points, 0 for two hard
walls, 1 for a mixed pair. Passing nu=0 everywhere recovers the bare
I = 2 pi hbar n rule.

Both integrals are evaluated after the substitution

    x = x_minus + (x_plus - x_minus) sin^2(theta),

which absorbs the inverse-square-root behavior at simple turning points (and
at the Coulomb 1/x endpoint) and leaves integrands smooth on [0, pi/2].
Gauss-Legendre rules of doubling order are applied until two successive
orders agree to 1e-10 relative. A result whose last two orders agree only
to between 1e-10 and 1e-8 is returned with a QuadratureFloorWarning that
names the change; one that stalls before reaching 1e-8 is rejected. Each
order makes one integrand call, on the nodes of every theta-segment at once.

Every well profile states its own turning points in closed form (see
``models.WellProfile``): the harmonic and Morse roots, the Coulomb wall and
orbit radius, the box walls, and for a table the root of one monotone PCHIP
piece. They hold U(x) = E to a few ulps, so no square-root branch point is
left inside the end theta-segments. On a table the end theta-segments lie
on the PCHIP pieces that hold the turning points, and the period integrand
there takes E - U from the piece's divided difference instead of forming it
by subtraction (see ``_factored_ends``). The box is a hard-wall profile (U = 0
between its walls) and runs through the same quadrature and quantization as
every other well.

Everything internal runs in SI; public functions accept and return values in
the model's declared unit system.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    ActionOutOfRangeError,
    NoBoundMotionError,
    OutOfRangeError,
    QuadratureFailureError,
    QuadratureFloorWarning,
    SelfCheckError,
)
from .models import EnergyLevel, ModelSpec, WellProfile, well_profile
from .units import HBAR_SI

__all__ = [
    "TurningPoints",
    "ActionCurve",
    "PeriodCheck",
    "turning_points",
    "action",
    "period_of_energy",
    "period_check",
    "quantize",
    "action_curve",
    "numeric_level_count",
    "numeric_bound_levels",
]

_GL_ORDERS = (16, 32, 64, 128, 256, 512, 1024)
_RTOL_TARGET = 1e-10
_RTOL_FLOOR = 1e-8


@dataclass(frozen=True)
class TurningPoints:
    energy: float
    x_minus: float
    x_plus: float


@dataclass(frozen=True)
class ActionCurve:
    """Sampled (E, I(E)) pairs with dI/dE, all in the model's units."""

    energies: tuple[float, ...]
    actions: tuple[float, ...]
    periods: tuple[float, ...]


@dataclass(frozen=True)
class PeriodCheck:
    """Quadrature period against a centered difference of the action."""

    energy: float
    period: float
    action_derivative: float
    residual: float  # |period - dI/dE| / period


@lru_cache(maxsize=None)
def _gl_rule(order: int):
    return np.polynomial.legendre.leggauss(order)


def _adaptive(f, segments) -> float:
    """Composite Gauss-Legendre with order doubling until 1e-10 relative.

    Each order evaluates ``f`` once, on the nodes of every segment; the panel
    sums are then added in segment order.
    """
    a, b = np.array(segments).T
    mids = 0.5 * (a + b)
    halves = 0.5 * (b - a)
    prev = None
    rel = math.inf
    for order in _GL_ORDERS:
        nodes, weights = _gl_rule(order)
        fx = f((mids[:, None] + halves[:, None] * nodes).ravel()).reshape(len(segments), order)
        val = sum(float(h) * float(np.dot(weights, row)) for h, row in zip(halves, fx))
        if prev is not None:
            rel = abs(val - prev) / max(abs(val), 1e-300)
            if rel <= _RTOL_TARGET:
                return val
        prev = val
    if rel <= _RTOL_FLOOR:
        warnings.warn(QuadratureFloorWarning(
            f"quadrature accepted at relative change {rel:.3g} (target {_RTOL_TARGET:g}, floor {_RTOL_FLOOR:g})"
        ), stacklevel=2)
        return prev
    raise QuadratureFailureError(
        f"quadrature stalled at relative change {rel:.3g} (target {_RTOL_TARGET:g}, floor {_RTOL_FLOOR:g})"
    )


# -- turning points ------------------------------------------------------


def _require_bound(profile: WellProfile, e: float):
    if not math.isfinite(e):
        raise NoBoundMotionError(f"energy must be finite, got {e!r}")
    if e <= profile.u_min or e >= profile.e_ceiling:
        lo = "-inf" if profile.u_min == -math.inf else f"{profile.u_min:.6g}"
        hi = "inf" if profile.e_ceiling == math.inf else f"{profile.e_ceiling:.6g}"
        raise NoBoundMotionError(f"no bound orbit at E={e:.6g} J; well supports ({lo}, {hi}) J")


def _turning_points_si(profile: WellProfile, e: float) -> tuple[float, float]:
    _require_bound(profile, e)
    return profile.turning_points(e)


def turning_points(model: ModelSpec, energy: float) -> TurningPoints:
    """Classical turning points at the given energy, in model units."""
    u = model.units
    xm, xp = _turning_points_si(well_profile(model), u.to_si(energy, "energy"))
    return TurningPoints(energy=energy, x_minus=u.from_si(xm, "length"), x_plus=u.from_si(xp, "length"))


# -- action and period ---------------------------------------------------


def _theta_segments(profile: WellProfile, xm: float, xp: float):
    """Split [0, pi/2] at the preimages of interior potential breakpoints."""
    dx = xp - xm
    cuts = [0.0]
    for xb in profile.breakpoints:
        if xm < xb < xp:
            cuts.append(math.asin(math.sqrt((xb - xm) / dx)))
    cuts.append(math.pi / 2.0)
    cuts = sorted(set(cuts))
    return list(zip(cuts[:-1], cuts[1:]))


def _action_si(profile: WellProfile, e: float) -> float:
    if e == profile.u_min:
        return 0.0  # degenerate orbit at the well bottom
    xm, xp = _turning_points_si(profile, e)
    dx = xp - xm

    def integrand(theta):
        s = np.sin(theta)
        v = e - profile.potential(xm + dx * s * s)
        return np.sqrt(np.maximum(v, 0.0)) * np.sin(2.0 * theta)

    value = _adaptive(integrand, _theta_segments(profile, xm, xp))
    return 2.0 * math.sqrt(2.0 * profile.mass) * dx * value


def _end_series(cubic_piece, a: float, d: float, x_in: float) -> tuple[float, float, float]:
    """Coefficients in sigma of -d Q(a, a + d sigma) / 4 on the cubic piece holding x_in.

    Q(a, x) = (U(a) - U(x)) / (a - x) is the piece's divided difference. About
    the turning point a it is exactly U'(a) + (3 c3 t_a + c2) u + c3 u^2, with
    u = x - a and t_a = a - x_k, so no difference of nearly equal values is
    formed. The 1/4 takes in the factor 2 of the integrand.
    """
    xk, c3, c2, c1 = cubic_piece(x_in)
    ta = a - xk
    k = -0.25 * d
    return k * ((3.0 * c3 * ta + 2.0 * c2) * ta + c1), k * d * (3.0 * c3 * ta + c2), k * d * d * c3


def _factored_ends(interior, cubic_piece, xm: float, xp: float, segments):
    """The period integrand with E - U factored on the end pieces of a cubic-piece well.

    Segments split at knots, so the first theta-segment lies on the piece
    that holds x-, and the last on the piece that holds x+. With
    x = x- + dx sin^2(theta), E - U(x) is dx cos^2(theta) Q(x+, x) on the last
    segment and dx sin^2(theta) (-Q(x-, x)) on the first, so
    sin(2 theta) / sqrt(E - U) becomes 2 sin(theta) / sqrt(dx Q(x+, x)) and
    2 cos(theta) / sqrt(-dx Q(x-, x)), free of the cancellation in E - U near
    a turning point. Interior segments keep ``interior``. PCHIP pieces are
    monotone, so a bound orbit crosses the knot at the well's minimum and has
    at least two segments. The nodes come in ascending theta, segment after
    segment, so the end segments' nodes are a prefix and a suffix of every
    call, however the nodes are grouped.
    """
    dx = xp - xm
    (a0, a1), (b0, b1) = segments[0], segments[-1]
    lo = _end_series(cubic_piece, xm, dx, xm + dx * math.sin(0.5 * (a0 + a1)) ** 2)  # sigma = sin^2
    hi = _end_series(cubic_piece, xp, -dx, xm + dx * math.sin(0.5 * (b0 + b1)) ** 2)  # sigma = cos^2
    cuts = np.array([a1, b0])

    def integrand(theta):
        i, j = np.searchsorted(theta, cuts)
        t_lo, t_hi = theta[:i], theta[j:]
        s, c = np.sin(t_lo), np.cos(t_hi)
        s, c = s * s, c * c
        return np.concatenate((np.cos(t_lo) / np.sqrt((lo[2] * s + lo[1]) * s + lo[0]), interior(theta[i:j]),
                               np.sin(t_hi) / np.sqrt((hi[2] * c + hi[1]) * c + hi[0])))

    return integrand


def _period_si(profile: WellProfile, e: float) -> float:
    xm, xp = _turning_points_si(profile, e)
    dx = xp - xm
    segments = _theta_segments(profile, xm, xp)

    def integrand(theta):
        s = np.sin(theta)
        v = e - profile.potential(xm + dx * s * s)
        r = np.sqrt(np.maximum(v, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(r > 0.0, np.sin(2.0 * theta) / r, 0.0)
        return out

    if profile.cubic_piece is not None:
        integrand = _factored_ends(integrand, profile.cubic_piece, xm, xp, segments)
    value = _adaptive(integrand, segments)
    return math.sqrt(2.0 * profile.mass) * dx * value


def _fd_step(profile: WellProfile, e: float) -> float:
    room = [profile.e_scale]
    if profile.u_min > -math.inf:
        room.append(e - profile.u_min)
    if profile.e_ceiling < math.inf:
        room.append(profile.e_ceiling - e)
    return 1e-3 * min(room)


def action(model: ModelSpec, energy: float) -> float:
    """Action I(E) of the closed orbit at ``energy``, in model units."""
    u = model.units
    i_si = _action_si(well_profile(model), u.to_si(energy, "energy"))
    return i_si / u.factor("action")


def period_check(model: ModelSpec, energy: float) -> PeriodCheck:
    """Quadrature period and the centered-difference dI/dE at one energy."""
    u = model.units
    e_si = u.to_si(energy, "energy")
    profile = well_profile(model)
    tau_si = _period_si(profile, e_si)
    h = _fd_step(profile, e_si)
    fd = (_action_si(profile, e_si + h) - _action_si(profile, e_si - h)) / (2.0 * h)
    residual = abs(tau_si - fd) / abs(tau_si)
    return PeriodCheck(
        energy=energy,
        period=u.from_si(tau_si, "time"),
        action_derivative=u.from_si(fd, "time"),
        residual=residual,
    )


def period_of_energy(model: ModelSpec, energy: float, self_check: bool = True) -> float:
    """Classical period tau(E) in model units.

    With ``self_check`` the quadrature value is verified against the centered
    difference of the action curve; disagreement beyond 1e-6 relative raises
    SelfCheckError rather than returning a silently inconsistent period.
    """
    if self_check:
        chk = period_check(model, energy)
        if chk.residual > 1e-6:
            raise SelfCheckError(
                f"period at E={energy:.6g} disagrees with dI/dE by {chk.residual:.3g} relative"
            )
        return chk.period
    u = model.units
    return u.from_si(_period_si(well_profile(model), u.to_si(energy, "energy")), "time")


def action_curve(model: ModelSpec, energies) -> ActionCurve:
    es = [float(e) for e in energies]
    return ActionCurve(
        energies=tuple(es),
        actions=tuple(action(model, e) for e in es),
        periods=tuple(period_of_energy(model, e, self_check=False) for e in es),
    )


# -- quantization --------------------------------------------------------


def _bracket_low(profile: WellProfile, target: float, act) -> float:
    if profile.u_min > -math.inf:
        # I(u_min) = 0 exactly and the target is positive, so the well bottom
        # itself brackets from below; quadrature just above the bottom would
        # drown in E - U cancellation noise.
        return profile.u_min
    lo = -profile.e_scale  # deepen toward -inf until the action drops below target
    for _ in range(40):
        if act(lo) < target:
            return lo
        lo *= 4.0
    raise ActionOutOfRangeError(f"no orbit with action below the target {target:.6g} J s")


def _bracket_high(profile: WellProfile, target: float, act) -> float:
    if profile.e_ceiling < math.inf:
        if profile.u_min > -math.inf:
            hi = profile.e_ceiling - 1e-12 * (profile.e_ceiling - profile.u_min)
        else:
            hi = profile.e_ceiling - 1e-12 * profile.e_scale
            for _ in range(40):
                if act(hi) >= target:
                    return hi
                hi = profile.e_ceiling - (profile.e_ceiling - hi) / 4.0
        if act(hi) >= target:
            return hi
        raise ActionOutOfRangeError(
            f"target action {target:.6g} J s exceeds the well capacity {act(hi):.6g} J s"
        )
    hi = profile.u_min + profile.e_scale
    for _ in range(40):
        if act(hi) >= target:
            return hi
        hi = profile.u_min + (hi - profile.u_min) * 4.0
    raise ActionOutOfRangeError(f"target action {target:.6g} J s not reached while expanding the bracket")


def quantize(model: ModelSpec, n: int, maslov: int | None = None) -> EnergyLevel:
    """Solve I(E) = 2 pi hbar (n + nu/4) for the level energy.

    The answer covers the well's whole action range, which for a finite well
    can extend past the model's declared level budget (levels between the
    budget cutoff and dissociation are still orbits of the potential).
    """
    from scipy.optimize import brentq

    if not (isinstance(n, int) and not isinstance(n, bool) and n >= 0):
        raise OutOfRangeError(f"quantum number must be an integer >= 0, got {n!r}")
    nu = model.params.maslov if maslov is None else maslov
    if not (isinstance(nu, int) and 0 <= nu <= 4):
        raise OutOfRangeError(f"maslov count must be an integer in [0, 4], got {maslov!r}")
    target = 2.0 * math.pi * HBAR_SI * (n + nu / 4.0)
    if target <= 0.0:
        raise ActionOutOfRangeError("target action is zero: degenerate orbit at the well bottom")
    u = model.units
    profile = well_profile(model)
    # memoised: brentq starts at the bracket ends, which the bracket search integrated
    act = lru_cache(maxsize=None)(lambda e: _action_si(profile, e))
    lo = _bracket_low(profile, target, act)
    hi = _bracket_high(profile, target, act)
    e_si = brentq(lambda e: act(e) - target, lo, hi, xtol=1e-24 * profile.e_scale, rtol=1e-13)
    return EnergyLevel(n=n, energy=u.from_si(float(e_si), "energy"), bound=True)


# -- numeric-model level enumeration --------------------------------------


def numeric_level_count(model: ModelSpec, maslov: int | None = None) -> int:
    """Number of quantized levels inside the tabulated energy window."""
    if model.params.closed_forms:
        raise OutOfRangeError(f"level counting by action applies to numeric models, not {model.kind!r}")
    nu = model.params.maslov if maslov is None else maslov
    profile = well_profile(model)
    e_top = profile.u_min + (profile.e_ceiling - profile.u_min) * (1.0 - 1e-9)
    i_top = _action_si(profile, e_top)
    count = math.floor(i_top / (2.0 * math.pi * HBAR_SI) - nu / 4.0) + 1
    return max(count, 0)


def numeric_bound_levels(model: ModelSpec, n_limit: int) -> list[EnergyLevel]:
    count = min(numeric_level_count(model), n_limit)
    return [quantize(model, n) for n in range(count)]
