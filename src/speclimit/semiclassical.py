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
names the change; one that stalls before reaching 1e-8 is rejected. Both
name the stage and E, and ``quantize`` puts the model's kind and the level
in front of its action's errors. The first two orders share one integrand
call, on the nodes of both rules and of every theta-segment at once; each
later order makes one call of its own. Each order's panels are summed by one
``np.vecdot`` over contiguous rows, which runs the same per-row ddot as
``weights.dot``, so the sums do not depend on the batching.

Every well profile states its own turning points in closed form (see
``models.WellProfile``): the harmonic and Morse roots, the Coulomb wall and
orbit radius, the box walls, and for a table the root of one monotone PCHIP
piece (Fritsch & Carlson, SIAM J. Numer. Anal. 17, 1980, with Moler's
one-sided end slopes). They hold U(x) = E to a few ulps, so no square-root
branch point is left inside the end theta-segments. The box is a hard-wall
profile (U = 0 between its walls) and runs through the same quadrature and
quantization as every other well.

On a table the theta-segments are cut at the knots, so each segment lies on
one PCHIP piece, and ``_theta_segments`` returns that piece with it. The
integrands evaluate U per segment from its piece's coefficients, broadcast
over the segment's row of nodes, without searching for the piece of each
node; the orbit's range is checked against the table once. The end segments
lie on the pieces that hold the turning points, and the period integrand
there takes E - U from the piece's divided difference instead of forming it
by subtraction (see ``_factored_ends``).

Levels are the roots of I(E) - 2 pi hbar (n + nu/4) by Brent's method
(Brent, *Algorithms for Minimization without Derivatives*, 1973, ch. 4),
inside an energy bracket that the action is checked to straddle.

Each well keeps the actions its level searches have integrated
(``WellProfile.actions``, keyed by SI energy), and every read of I(E) goes
through ``_action_of``. The levels of a well then share their bracket ends,
and asking for a level again costs no quadrature. A QuadratureFloorWarning at
an energy that is already stored is issued once per model, when that action is
first integrated. The public ``action`` and ``period_check`` read the stored
actions but add none, so a sweep over energies does not grow the memo.
Each well keeps its levels' periods the same way (``WellProfile.periods``,
read through ``_period_of``): a spectrum stores the period of each level it
lists, and ``period_of_energy``, ``period_check`` and ``action_curve`` read
the stored periods but add none.

Everything internal runs in SI; public functions accept and return values in
the model's declared unit system.
"""

from __future__ import annotations

import bisect
import math
import operator
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    ActionOutOfRangeError,
    FloatRangeError,
    NoBoundMotionError,
    OutOfRangeError,
    QuadratureFailureError,
    QuadratureFloorWarning,
    RootNotBracketedError,
    ScanLimitExceededError,
    SelfCheckError,
    _integer,
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
]

_GL_ORDERS = (16, 32, 64, 128, 256, 512, 1024)
_RTOL_TARGET = 1e-10
_RTOL_FLOOR = 1e-8
_ROOT_MAXITER = 100


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


@lru_cache(maxsize=None)
def _joined_nodes(first: int, second: int):
    return np.concatenate((_gl_rule(first)[0], _gl_rule(second)[0]))


def _adaptive(f, segments, stage: str, e: float) -> float:
    """Composite Gauss-Legendre with order doubling until 1e-10 relative.

    Each call ``f(theta, rows)`` gets one row of nodes per segment in
    ``theta``, and ``rows`` is the slice of ``segments`` those rows are. The
    first two orders share one call, on each row's nodes of both rules joined;
    every later order makes its own. Each rule's columns are copied out
    contiguous, one ``np.vecdot`` per order forms every panel's sum with the
    same per-row ddot that ``weights.dot`` calls, and the panel sums are added
    as exact floats in segment order. A floor
    warning or a stall names the ``stage`` ("action" or "period") and the
    energy ``e`` in J.
    """
    a, b = np.array(segments).T
    mids = 0.5 * (a + b)
    halves = 0.5 * (b - a)
    rows = slice(0, len(segments))
    first, second, *rest = _GL_ORDERS

    def samples():
        fx = f(mids[:, None] + halves[:, None] * _joined_nodes(first, second), rows)
        yield first, fx[:, :first]
        yield second, fx[:, first:]
        for order in rest:
            yield order, f(mids[:, None] + halves[:, None] * _gl_rule(order)[0], rows)

    scales = halves.tolist()
    prev = None
    rel = math.inf
    for order, fx in samples():
        # one vecdot per order runs the per-row ddot on contiguous rows (a strided row could take
        # another kernel); exact floats, so every Python sums them alike (3.12+ compensates only
        # exact floats)
        fx = np.ascontiguousarray(fx)
        val = sum(map(operator.mul, scales, np.vecdot(fx, _gl_rule(order)[1]).tolist()))
        if prev is not None:
            rel = abs(val - prev) / max(abs(val), 1e-300)
            if rel <= _RTOL_TARGET:
                return val
        prev = val
    change = f"at relative change {rel:.3g} (target {_RTOL_TARGET:g}, floor {_RTOL_FLOOR:g})"
    if rel <= _RTOL_FLOOR:
        warnings.warn(QuadratureFloorWarning(f"{stage} at E={e!r} J: quadrature accepted {change}"), stacklevel=2)
        return prev
    raise QuadratureFailureError(f"{stage} at E={e!r} J: quadrature stalled {change}")


# -- turning points ------------------------------------------------------


def _turning_points_si(profile: WellProfile, e: float) -> tuple[float, float]:
    if not math.isfinite(e):
        raise NoBoundMotionError(f"energy must be finite, got {e!r}")
    if e <= profile.u_min or e >= profile.e_ceiling:
        raise NoBoundMotionError(
            f"no bound orbit at E={e:.6g} J; well supports ({profile.u_min:.6g}, {profile.e_ceiling:.6g}) J")
    return profile.turning_points(e)


def turning_points(model: ModelSpec, energy: float) -> TurningPoints:
    """Classical turning points at the given energy, in model units."""
    u = model.units
    xm, xp = _turning_points_si(well_profile(model), u.to_si(energy, "energy"))
    return TurningPoints(energy=energy, x_minus=u.from_si(xm, "length"), x_plus=u.from_si(xp, "length"))


# -- action and period ---------------------------------------------------


def _theta_segments(profile: WellProfile, xm: float, xp: float):
    """Split [0, pi/2] at the preimages of the table knots inside (xm, xp).

    Returns the segments, the list of the PCHIP pieces under them on a
    table (None off one), and U(x, rows) for x on the theta rows ``rows``
    of the segments. Segments and pieces come from the same knots, so
    segment i lies on piece ``pieces[i]``, and U evaluates each row on its
    piece without a search. A cut that coincides with the next drops the
    empty segment and its piece together. Closed-form wells get the one
    segment. On a table the orbit must lie inside the tabulated range.
    """
    table = profile.pieces
    if table is None:
        return [(0.0, math.pi / 2.0)], None, lambda x, rows: profile.potential(x)
    table.require_inside(xm, xp)
    knots = table.knots
    first = max(bisect.bisect_right(knots, xm), 1)  # the first interior knot past xm
    stop = min(bisect.bisect_left(knots, xp), len(knots) - 1)
    dx = xp - xm
    cuts = [0.0, *(math.asin(math.sqrt((xb - xm) / dx)) for xb in knots[first:stop].tolist()), math.pi / 2.0]
    keep = [i for i in range(len(cuts) - 1) if cuts[i] < cuts[i + 1]]
    pieces = [first - 1 + i for i in keep]
    return [(cuts[i], cuts[i + 1]) for i in keep], pieces, table._on_rows(pieces)


def _stored(memo: dict, integrate, profile: WellProfile, e: float, keep: bool) -> float:
    """``memo``'s value at the SI energy ``e``, or ``integrate(profile, e)``'s, stored there if ``keep``."""
    value = memo.get(e)
    if value is None:
        value = integrate(profile, e)
        if keep:
            memo[e] = value
    return value


def _action_of(profile: WellProfile, e: float, keep: bool = True) -> float:
    """I(E) in J s at the SI energy ``e``: the well's stored action, or ``_action_si``'s.

    With ``keep`` a newly integrated action is stored. The public one-off queries pass False, so a
    sweep over energies leaves the well's memo as it found it.
    """
    return _stored(profile.actions, _action_si, profile, e, keep)


def _period_of(profile: WellProfile, e: float, keep: bool = True) -> float:
    """tau(E) in s at the SI energy ``e``: the well's stored period, or ``_period_si``'s.

    Only a level's period is stored (see ``_level_period``); the public queries pass ``keep=False``.
    """
    return _stored(profile.periods, _period_si, profile, e, keep)


def _action_si(profile: WellProfile, e: float) -> float:
    if e == profile.u_min:
        return 0.0  # degenerate orbit at the well bottom
    xm, xp = _turning_points_si(profile, e)
    dx = xp - xm
    segments, _, u = _theta_segments(profile, xm, xp)

    def integrand(theta, rows):
        s = np.sin(theta)
        v = e - u(xm + dx * s * s, rows)
        return np.sqrt(np.maximum(v, 0.0)) * np.sin(2.0 * theta)

    value = _adaptive(integrand, segments, "action", e)
    return 2.0 * math.sqrt(2.0 * profile.mass) * dx * value


def _factored_ends(interior, profile: WellProfile, e: float, pieces, xm: float, xp: float):
    """The period integrand with E - U factored on the end pieces of a table.

    The first theta-segment lies on the piece that holds x-, and the last on
    the piece that holds x+. With x = x- + dx sin^2(theta), E - U(x) is
    dx cos^2(theta) Q(x+, x) on the last segment and dx sin^2(theta) (-Q(x-, x))
    on the first, so sin(2 theta) / sqrt(E - U) becomes
    2 sin(theta) / sqrt(dx Q(x+, x)) and 2 cos(theta) / sqrt(-dx Q(x-, x)),
    free of the cancellation in E - U near a turning point. Interior segments
    keep ``interior``. A call whose ``rows`` start at the first segment or end
    at the last takes those rows from the end formulas, however the segments
    are grouped into calls.

    An orbit with no knot strictly inside it lies on one piece and has one
    segment. Both turning points are then roots of that piece's cubic, so
    E - U(x) is dx^2 sin^2(theta) cos^2(theta) U[x-, x+, x], with the second
    divided difference U[x-, x+, x], and the integrand is the smooth
    2 / (dx sqrt(U[x-, x+, x])) on the whole segment.

    Within rounding of a table's bottom E has no period that floats can give,
    and QuadratureFailureError names E and u_min. Every piece of a table is
    monotone, so a table orbit lies on one piece only when a turning point
    rounds onto the bottom knot; and the factored E - U of an end piece,
    positive in exact arithmetic, can round to 0 or below on a nearly flat
    piece.
    """
    table, dx, count = profile.pieces, xp - xm, len(pieces)
    knots = table.knots
    if count == 1:
        if xm == knots[pieces[0]] or xp == knots[pieces[0] + 1]:
            raise _near_bottom(profile, e, "a turning point rounds onto the bottom knot")
        base, slope = table._chord_series(pieces[0], xm, dx)  # sigma = sin^2
        return lambda theta, rows: 1.0 / np.sqrt(slope * np.sin(theta) ** 2 + base)
    lo = table._end_series(pieces[0], xm, dx)  # sigma = sin^2
    hi = table._end_series(pieces[-1], xp, -dx)  # sigma = cos^2
    if _least(lo, (knots[pieces[0] + 1] - xm) / dx) <= 0.0 or _least(hi, (xp - knots[pieces[-1]]) / dx) <= 0.0:
        raise _near_bottom(profile, e, "E - U on an end piece rounds to 0 or below")

    def integrand(theta, rows):
        first, final = int(rows.start == 0), int(rows.stop == count)
        j = len(theta) - final
        t_lo, t_hi = theta[:first], theta[j:]
        s, c = np.sin(t_lo), np.cos(t_hi)
        s, c = s * s, c * c
        return np.concatenate((np.cos(t_lo) / np.sqrt((lo[2] * s + lo[1]) * s + lo[0]),
                               interior(theta[first:j], slice(rows.start + first, rows.stop - final)),
                               np.sin(t_hi) / np.sqrt((hi[2] * c + hi[1]) * c + hi[0])))

    return integrand


def _least(series, top: float) -> float:
    """Least value of c0 + c1 s + c2 s^2 over 0 <= s <= top, for ``series`` (c0, c1, c2)."""
    c0, c1, c2 = series
    points = [0.0, top]
    if c2 > 0.0 and 0.0 < -c1 < 2.0 * c2 * top:  # the vertex lies inside
        points.append(-c1 / (2.0 * c2))
    return min((c2 * s + c1) * s + c0 for s in points)


def _near_bottom(profile: WellProfile, e: float, why: str) -> QuadratureFailureError:
    return QuadratureFailureError(
        f"numeric: no period at E={e!r} J, within rounding of the well bottom u_min={profile.u_min!r} J ({why})")


def _period_si(profile: WellProfile, e: float) -> float:
    xm, xp = _turning_points_si(profile, e)
    dx = xp - xm
    segments, pieces, u = _theta_segments(profile, xm, xp)

    def integrand(theta, rows):
        s = np.sin(theta)
        v = e - u(xm + dx * s * s, rows)
        r = np.sqrt(np.maximum(v, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(r > 0.0, np.sin(2.0 * theta) / r, 0.0)
        return out

    if pieces is not None:
        integrand = _factored_ends(integrand, profile, e, pieces, xm, xp)
    value = _adaptive(integrand, segments, "period", e)
    return math.sqrt(2.0 * profile.mass) * dx * value


def _fd_step(profile: WellProfile, e: float) -> float:
    # an infinite room (no floor or no ceiling) never wins the min over the finite e_scale
    return 1e-3 * min(profile.e_scale, e - profile.u_min, profile.e_ceiling - e)


def action(model: ModelSpec, energy: float) -> float:
    """Action I(E) of the closed orbit at ``energy``, in model units.

    A stored action of the well answers if there is one; a new one is not stored.
    """
    u = model.units
    i_si = _action_of(well_profile(model), u.to_si(energy, "energy"), keep=False)
    return i_si / u.factor("action")


def period_check(model: ModelSpec, energy: float) -> PeriodCheck:
    """Quadrature period and the centered-difference dI/dE at one energy.

    Like ``action``, it reads the well's stored actions and periods and stores none.
    """
    u = model.units
    e_si = u.to_si(energy, "energy")
    profile = well_profile(model)
    tau_si = _period_of(profile, e_si, keep=False)
    h = _fd_step(profile, e_si)
    fd = (_action_of(profile, e_si + h, keep=False) - _action_of(profile, e_si - h, keep=False)) / (2.0 * h)
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
    A stored period of the well answers if there is one; a new one is not stored.
    """
    if self_check:
        chk = period_check(model, energy)
        if chk.residual > 1e-6:
            raise SelfCheckError(
                f"period at E={energy:.6g} disagrees with dI/dE by {chk.residual:.3g} relative"
            )
        return chk.period
    u = model.units
    return u.from_si(_period_of(well_profile(model), u.to_si(energy, "energy"), keep=False), "time")


def _level_period(model: ModelSpec, energy: float) -> float:
    """tau(E) in model units at a level's ``energy``, stored on the well for the next spectrum that asks."""
    u = model.units
    return u.from_si(_period_of(well_profile(model), u.to_si(energy, "energy")), "time")


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


def _brentq(f, xa: float, xb: float, xtol: float, rtol: float, what: str) -> float:
    """A root of f between xa and xb by Brent's method (Brent, *Algorithms for
    Minimization without Derivatives*, 1973, ch. 4).

    The steps and their floating-point order follow the reference C
    implementation that tests/test_reference.py checks it against bit for
    bit: inverse quadratic
    or secant steps, kept only while they shrink faster than bisection, and
    the bracket closes at xtol + rtol |x|. ``what`` names the search in its
    errors: RootNotBracketedError when f has one sign at both ends,
    QuadratureFailureError when f is NaN, ScanLimitExceededError after
    _ROOT_MAXITER iterations.
    """

    def value(x):
        fx = f(x)
        if math.isnan(fx):
            raise QuadratureFailureError(f"{what}: the action is NaN at E={x:.17g} J")
        return fx

    xpre, xcur = xa, xb
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise RootNotBracketedError(
            f"{what}: action minus target has one sign on [{xa:.17g}, {xb:.17g}] J ({fpre:.6g}, {fcur:.6g} J s)")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_ROOT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # the C code divides to inf or nan here, and rejects the step
                stry = math.inf
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):  # a good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = value(xcur)
    raise ScanLimitExceededError(f"{what}: root search did not converge in {_ROOT_MAXITER} iterations"
                                 f" (last E={xcur:.17g} J)")


def _maslov_count(model: ModelSpec, maslov) -> int:
    """The Maslov count nu to use: ``maslov``, or the kind's default when it is None."""
    return _integer(model.params.maslov if maslov is None else maslov, "maslov count", OutOfRangeError, 0, 4)


def quantize(model: ModelSpec, n: int, maslov: int | None = None) -> EnergyLevel:
    """Solve I(E) = 2 pi hbar (n + nu/4) for the level energy.

    The answer covers the well's whole action range, which for a finite well
    can extend past the model's declared level budget (levels between the
    budget cutoff and dissociation are still orbits of the potential).
    """
    _integer(n, "quantum number", OutOfRangeError, 0, 2**53)
    nu = _maslov_count(model, maslov)
    target = 2.0 * math.pi * HBAR_SI * (n + nu / 4.0)
    if target <= 0.0:
        raise ActionOutOfRangeError("target action is zero: degenerate orbit at the well bottom")
    u = model.units
    profile = well_profile(model)
    what = f"{model.kind} level n={n}"

    # the well's stored actions answer for the bracket ends, where the root search starts, and for
    # every energy that an earlier level of the same well integrated
    def act(e):
        try:
            return _action_of(profile, e)
        except QuadratureFailureError as exc:
            raise QuadratureFailureError(f"{what}: {exc}") from None

    lo = _bracket_low(profile, target, act)
    hi = _bracket_high(profile, target, act)
    e_si = _brentq(lambda e: act(e) - target, lo, hi, 1e-24 * profile.e_scale, 1e-13, what)
    return EnergyLevel(n=n, energy=u.from_si(float(e_si), "energy"))


# -- numeric-model level enumeration --------------------------------------


def numeric_level_count(model: ModelSpec, maslov: int | None = None) -> int:
    """Number of quantized levels inside the tabulated energy window."""
    if model.params.closed_forms:
        raise OutOfRangeError(f"level counting by action applies to numeric models, not {model.kind!r}")
    nu = _maslov_count(model, maslov)
    profile = well_profile(model)
    e_top = profile.u_min + (profile.e_ceiling - profile.u_min) * (1.0 - 1e-9)
    quanta = _action_of(profile, e_top) / (2.0 * math.pi * HBAR_SI) - nu / 4.0
    if not math.isfinite(quanta):
        raise FloatRangeError(
            f"{model.kind}: the action at the top of the well leaves the float range (got {quanta!r})")
    return max(math.floor(quanta) + 1, 0)
