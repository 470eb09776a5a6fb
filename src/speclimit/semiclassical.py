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
orders agree to 1e-10 relative; results that stall before reaching 1e-8 are
rejected. Each order makes one integrand call, on the nodes of every
theta-segment at once. Turning points are found to machine precision: the
scan evaluates its doubling steps in one potential call per chunk, and
brentq refines the first sign change to a few ulps. The infinite square
well has no smooth turning points and is handled by its elementary closed
forms instead.

Everything internal runs in SI; public functions accept and return values in
the model's declared unit system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import brentq

from .errors import (
    ActionOutOfRangeError,
    NoBoundMotionError,
    OutOfRangeError,
    QuadratureFailureError,
    RootNotBracketedError,
    SelfCheckError,
)
from .models import EnergyLevel, ModelSpec, WellProfile, well_profile, _si_view
from .units import HBAR_SI

__all__ = [
    "MASLOV_DEFAULTS",
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

MASLOV_DEFAULTS = {"box": 0, "harmonic": 2, "hydrogenoid": 0, "morse": 2, "numeric": 2}

_GL_ORDERS = (16, 32, 64, 128, 256, 512, 1024)
_RTOL_TARGET = 1e-10
_RTOL_FLOOR = 1e-8
_SCAN_STEPS = 1024
_SCAN_CHUNK = 64  # a table of up to ~100 knots reaches its edge in one chunk
# Turning points are converged to a few ulps: a residual E - U(x) of even
# 1e-14 |E| leaves a square-root branch point inside the end theta-segment,
# where the period quadrature stalls. xtol (in units of x_scale) stays > 0
# so a root at x = 0 still converges.
_ROOT_XTOL = np.finfo(float).eps
_ROOT_RTOL = 4.0 * np.finfo(float).eps  # the smallest rtol brentq accepts


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


def _scan_root(profile: WellProfile, e: float, direction: int) -> float:
    """Walk outward from the well anchor in doubling steps, then refine.

    The walk is evaluated in chunks of ``_SCAN_CHUNK`` steps, one potential
    call each, and ends at the first step on or past the domain edge. Values
    beyond the first sign change are discarded, so overflow there is silenced.
    """

    def f(x: float) -> float:
        return e - float(profile.potential(x))

    lo_dom, hi_dom = profile.x_domain
    anchor = profile.x_min
    if f(anchor) <= 0.0:
        raise NoBoundMotionError(f"E={e:.6g} J does not exceed the potential at the well anchor")
    step0 = profile.x_scale * 2.0**-20
    x_prev = anchor
    for start in range(0, _SCAN_STEPS, _SCAN_CHUNK):
        # step k is step0 * 2**k exactly; the walk ends after the first step above 1e280
        steps = np.ldexp(step0, np.arange(start, min(start + _SCAN_CHUNK, _SCAN_STEPS)))
        huge = np.flatnonzero(steps > 1e280)
        if huge.size:
            steps = steps[: huge[0] + 1]
        x_next = anchor + direction * steps
        clipped = np.minimum(np.maximum(x_next, lo_dom), hi_dom)
        edge = np.flatnonzero(clipped != x_next)
        if edge.size:
            clipped = clipped[: edge[0] + 1]
        with np.errstate(over="ignore", invalid="ignore"):
            fv = e - profile.potential(clipped)
        forbidden = np.flatnonzero(fv <= 0.0)
        if forbidden.size:
            i = forbidden[0]
            x_out = float(clipped[i])
            x_in = x_prev if i == 0 else float(clipped[i - 1])
            root = brentq(f, min(x_in, x_out), max(x_in, x_out),
                          xtol=_ROOT_XTOL * profile.x_scale, rtol=_ROOT_RTOL)
            return float(root)
        if edge.size:
            # Ran into the domain edge while still classically allowed.
            raise NoBoundMotionError(
                f"E={e:.6g} J is not confined on the {'right' if direction > 0 else 'left'}"
                f" side within the potential domain [{lo_dom:.6g}, {hi_dom:.6g}] m"
            )
        x_prev = float(clipped[-1])
        if huge.size:
            break
    last_step = steps[-1] if huge.size else 2.0 * steps[-1]
    raise RootNotBracketedError(
        f"turning-point scan exhausted {_SCAN_STEPS} doubling steps from x={anchor:.6g} m"
        f" (direction {direction:+d}, E={e:.6g} J, last step {last_step:.3g} m)"
    )


def _turning_points_si(profile: WellProfile, e: float) -> tuple[float, float]:
    _require_bound(profile, e)
    if profile.left_wall is not None:
        xm = profile.left_wall
    else:
        xm = _scan_root(profile, e, -1)
    xp = _scan_root(profile, e, +1)
    return xm, xp


def turning_points(model: ModelSpec, energy: float) -> TurningPoints:
    """Classical turning points at the given energy, in model units."""
    u = model.units
    if model.kind == "box":
        si = _si_view(model)
        e_si = u.to_si(energy, "energy")
        if e_si <= 0.0:
            raise NoBoundMotionError(f"box orbits need E > 0, got {energy:.6g}")
        return TurningPoints(energy=energy, x_minus=0.0, x_plus=u.from_si(si.width, "length"))
    profile = well_profile(model)
    xm, xp = _turning_points_si(profile, u.to_si(energy, "energy"))
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


def _period_si(profile: WellProfile, e: float) -> float:
    xm, xp = _turning_points_si(profile, e)
    dx = xp - xm

    def integrand(theta):
        s = np.sin(theta)
        v = e - profile.potential(xm + dx * s * s)
        r = np.sqrt(np.maximum(v, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(r > 0.0, np.sin(2.0 * theta) / r, 0.0)
        return out

    value = _adaptive(integrand, _theta_segments(profile, xm, xp))
    return math.sqrt(2.0 * profile.mass) * dx * value


def _fd_step(profile: WellProfile, e: float) -> float:
    room = [profile.e_scale]
    if profile.u_min > -math.inf:
        room.append(e - profile.u_min)
    if profile.e_ceiling < math.inf:
        room.append(profile.e_ceiling - e)
    return 1e-3 * min(room)


def _box_action_si(model: ModelSpec, e: float) -> float:
    si = _si_view(model)
    if e <= 0.0:
        raise NoBoundMotionError(f"box orbits need E > 0, got {e:.6g} J")
    return 2.0 * si.width * math.sqrt(2.0 * si.mass * e)


def action(model: ModelSpec, energy: float) -> float:
    """Action I(E) of the closed orbit at ``energy``, in model units."""
    u = model.units
    e_si = u.to_si(energy, "energy")
    if model.kind == "box":
        i_si = _box_action_si(model, e_si)
    else:
        i_si = _action_si(well_profile(model), e_si)
    return i_si / u.factor("action")


def period_check(model: ModelSpec, energy: float) -> PeriodCheck:
    """Quadrature period and the centered-difference dI/dE at one energy."""
    u = model.units
    e_si = u.to_si(energy, "energy")
    if model.kind == "box":
        si = _si_view(model)
        if e_si <= 0.0:
            raise NoBoundMotionError(f"box orbits need E > 0, got {energy!r}")
        tau_si = si.width * math.sqrt(2.0 * si.mass / e_si)
        h = 1e-3 * e_si
        fd = (_box_action_si(model, e_si + h) - _box_action_si(model, e_si - h)) / (2.0 * h)
    else:
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
    e_si = u.to_si(energy, "energy")
    if model.kind == "box":
        si = _si_view(model)
        if e_si <= 0.0:
            raise NoBoundMotionError(f"box orbits need E > 0, got {energy!r}")
        return u.from_si(si.width * math.sqrt(2.0 * si.mass / e_si), "time")
    return u.from_si(_period_si(well_profile(model), e_si), "time")


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
    if not (isinstance(n, int) and not isinstance(n, bool) and n >= 0):
        raise OutOfRangeError(f"quantum number must be an integer >= 0, got {n!r}")
    nu = MASLOV_DEFAULTS[model.kind] if maslov is None else maslov
    if not (isinstance(nu, int) and 0 <= nu <= 4):
        raise OutOfRangeError(f"maslov count must be an integer in [0, 4], got {maslov!r}")
    target = 2.0 * math.pi * HBAR_SI * (n + nu / 4.0)
    if target <= 0.0:
        raise ActionOutOfRangeError("target action is zero: degenerate orbit at the well bottom")
    u = model.units
    if model.kind == "box":
        si = _si_view(model)
        e_si = target**2 / (8.0 * si.mass * si.width**2)
        return EnergyLevel(n=n, energy=u.from_si(e_si, "energy"), bound=True)
    profile = well_profile(model)
    act = lambda e: _action_si(profile, e)
    lo = _bracket_low(profile, target, act)
    hi = _bracket_high(profile, target, act)
    e_si = brentq(lambda e: act(e) - target, lo, hi, xtol=1e-24 * profile.e_scale, rtol=1e-13)
    return EnergyLevel(n=n, energy=u.from_si(float(e_si), "energy"), bound=True)


# -- numeric-model level enumeration --------------------------------------


def numeric_level_count(model: ModelSpec, maslov: int | None = None) -> int:
    """Number of quantized levels inside the tabulated energy window."""
    if model.kind != "numeric":
        raise OutOfRangeError(f"level counting by action applies to numeric models, not {model.kind!r}")
    nu = MASLOV_DEFAULTS["numeric"] if maslov is None else maslov
    profile = well_profile(model)
    e_top = profile.u_min + (profile.e_ceiling - profile.u_min) * (1.0 - 1e-9)
    i_top = _action_si(profile, e_top)
    count = math.floor(i_top / (2.0 * math.pi * HBAR_SI) - nu / 4.0) + 1
    return max(count, 0)


def numeric_bound_levels(model: ModelSpec, n_limit: int) -> list[EnergyLevel]:
    count = min(numeric_level_count(model), n_limit)
    return [quantize(model, n) for n in range(count)]
