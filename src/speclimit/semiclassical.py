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
name the stage and E, and every error from inside a level search starts with
the model's kind and the level. The quadrature takes a list of energies, each
with its own turning points and theta-segments. The first two orders share
one integrand call, on the nodes of both rules and of every theta-segment of
every energy at once; an energy not accepted there makes one call of its own
per later order. Each order's panels are summed by one ``np.vecdot`` over
contiguous rows, which runs the same per-row ddot as ``weights.dot``, so the
sums do not depend on the batching: an energy integrated with others has the
bits it has alone, and a single energy is the one-element case.

A level search integrates I and tau together, in one *fused pass*
(``_fused_passes``): one set of turning points, theta-segments and potential
evaluations, one integrand call per order forming both rows, and each
accepted at its own first agreeing orders. A quadrature gives, per energy,
one outcome per stage: the stage's value, or its own SpeclimitError. An
energy with no orbit gives its error to every stage, and the first stage to
stall gives its error to every stage not yet accepted; a period refused
before any integration (near a table's bottom, see ``_factored_ends``) is
the period stage's alone. Each value therefore has the bits, and each error
the text, that the one-stage quadrature of ``_action_of`` or ``_period_of``
gives at that energy, and a pass whose period is refused still holds its
action. Those two read one quantity each, from a stored pass or a quadrature
of their own, and raise a stored refusal as their own quadrature would;
``_action_of`` states the degenerate orbit at the well bottom,
I(u_min) = 0, where no pass is made.

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

Levels are the roots of I(E) - 2 pi hbar (n + nu/4) by Newton steps
E <- E - (I(E) - target) / tau(E), tau = dI/dE being the period, kept inside
an energy bracket by bisection (see ``_newton``). A well with a floor and a
ceiling has one top energy, 1e-9 of its span below the ceiling, where every
bracket ends and where ``numeric_level_count`` reads the action. The search
starts on the quadratic E(I) through the bracket ends with slope 1/tau at the
top, and bisects where a pass's period is refused, as on a Morse level far
below its well's depth, where E - U near the turning points is too coarse
for it. The level's period is that of its last pass, a value or the refusal
that ``_period_of`` raises.

The search is a generator that yields each energy whose pass it needs, and
``_place`` is the one driver that runs it: the levels asked of one well (by
``criterion.spectrum`` or ``models.bound_levels``) run in lockstep, and
``quantize`` is the one-level case. Each lockstep round answers
every search it can from the stored passes, then integrates the distinct
energies the searches wait on in one fused quadrature, so the searches of a
spectrum share their integrand calls. Each search starts from its own target
alone, so it asks the same energies in lockstep as alone, and a level has the
bits it has alone. ``_place`` returns each level's energy, or the error its
search or a pass's action raised, named by the model's kind and the level,
so no level is searched for twice.

Each well keeps the passes its level searches have made, each with its
action a value (``WellProfile.passes``, keyed by energy). The levels of a
well share their bracket ends, and the search retraces the same energies for
the same target, so asking for a level again costs no quadrature, and a
placed level's period is read from its last pass. Levels themselves are not
kept: the same n with another Maslov count has another target and its own
search. A QuadratureFloorWarning at a stored energy is issued once per model,
when that pass is first made. The public ``action``, ``period_of_energy``,
``period_check`` and ``action_curve`` read the stored passes but add none, so
a sweep over energies does not grow the memo.

The engine runs in the model's declared unit system, as the closed forms do:
the well profile states the well in those units, its mass divided by the
system's coherence factor (see ``models.WellProfile``), so that actions come
out in the unit in which hbar is ``model.hbar``. Public functions take their
energies and return their results unconverted.
"""

from __future__ import annotations

import bisect
import itertools
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
    ScanLimitExceededError,
    SelfCheckError,
    SpeclimitError,
    _integer,
    _real,
)
from .models import EnergyLevel, ModelSpec, WellProfile, well_profile

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
_NEWTON_TOL = 1e-15


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


def _adaptive(f, groups, stages: tuple[str, ...]) -> list:
    """Composite Gauss-Legendre with order doubling until 1e-10 relative, one value per stage and energy.

    ``groups`` holds one (e, segments, known) triple per energy, and the rows
    of their segments are numbered in order, energy by energy; ``known`` has
    one entry per stage, the stage's outcome where it is known up front (an
    error) and None where the stage is to be integrated. Each call
    ``f(theta, rows)`` gets one row of nodes per segment in ``theta``, and
    ``rows`` is the slice of the rows those are; it returns one array of that
    shape per stage in ``stages``. The first two orders share one call, on
    each row's nodes of both rules joined, over the rows of every energy; an
    energy not accepted at them makes one call of its own per later order,
    for every stage. Each stage of each energy is accepted at its own first
    pair of agreeing orders, so its value is the one a call for that stage at
    that energy alone gives. Each rule's columns are copied out contiguous,
    one ``np.vecdot`` per call and order forms every panel's sum with the same
    per-row ddot that ``weights.dot`` calls, and each energy's panel sums are
    added as exact floats in segment order.

    Returns, per energy, the tuple of its stages' outcomes (see ``_accepted``).
    A floor warning or a stall names the stage ("action" or "period") and the
    energy.
    """
    bounds = list(itertools.accumulate((len(segments) for _, segments, _ in groups), initial=0))
    a, b = np.array([ab for _, segments, _ in groups for ab in segments]).T
    mids, halves = 0.5 * (a + b), 0.5 * (b - a)
    scales = halves.tolist()
    first, second, *rest = _GL_ORDERS

    def sums(nodes, rows, *orders):
        fx = np.array(f(mids[rows, None] + halves[rows, None] * nodes, rows))
        # one vecdot per order runs the per-row ddot on contiguous rows (a strided row could take another kernel)
        return [np.vecdot(np.ascontiguousarray(fx[:, :, at:at + order]), _gl_rule(order)[1]).tolist()
                for at, order in zip(itertools.accumulate(orders, initial=0), orders)]

    joined = sums(_joined_nodes(first, second), slice(0, bounds[-1]), first, second)

    def samples(rows):
        for order, per_stage in zip((first, second), joined):
            yield order, [row[rows] for row in per_stage]
        for order in rest:
            yield order, sums(_gl_rule(order)[0], rows, order)[0]

    found = []
    for (e, _, known), lo, hi in zip(groups, bounds, bounds[1:]):
        found.append(_accepted(samples(slice(lo, hi)), scales[lo:hi], stages, e, known))
    return found


def _accepted(samples, scales, stages: tuple[str, ...], e: float, known) -> tuple:
    """One energy's outcome per stage from its (order, panel sums per stage) ``samples``: a value or an error.

    ``scales`` are the half widths of the energy's segments, and ``known``
    holds each stage's outcome where it is known up front, else None. A stage
    is accepted at its first pair of agreeing orders, or at the floor with a
    warning. On the first stall, every stage not yet accepted gets that
    stall's error, and no later stage warns.
    """
    prev = [None] * len(stages)
    rel = [math.inf] * len(stages)
    done = list(known)
    for order, sums in samples:
        for i, row in enumerate(sums):
            if done[i] is None:
                # exact floats, so every Python sums them alike (3.12+ compensates only exact floats)
                val = sum(map(operator.mul, scales, row))
                if prev[i] is not None:
                    rel[i] = abs(val - prev[i]) / max(abs(val), 1e-300)
                    if rel[i] <= _RTOL_TARGET:
                        done[i] = val
                prev[i] = val
        if None not in done:
            return tuple(done)
    for i, stage in enumerate(stages):
        if done[i] is None:
            change = f"at relative change {rel[i]:.3g} (target {_RTOL_TARGET:g}, floor {_RTOL_FLOOR:g})"
            if rel[i] > _RTOL_FLOOR:
                stall = QuadratureFailureError(f"{stage} at E={e!r}: quadrature stalled {change}")
                return tuple(stall if value is None else value for value in done)
            warnings.warn(QuadratureFloorWarning(f"{stage} at E={e!r}: quadrature accepted {change}"), stacklevel=3)
            done[i] = prev[i]
    return tuple(done)


def _raised(found):
    """``found``, a stage's or a level's outcome, raised where it is its SpeclimitError."""
    if isinstance(found, SpeclimitError):
        raise found
    return found


# -- turning points ------------------------------------------------------


def _energy(energy: float) -> float:
    """A public function's ``energy``, refused by the real rule unless a finite real number."""
    return _real(energy, "energy", NoBoundMotionError)


def _turning_points(profile: WellProfile, e: float) -> tuple[float, float]:
    if e <= profile.u_min or e >= profile.e_ceiling:
        raise NoBoundMotionError(f"no bound orbit at E={e!r}; well supports ({profile.u_min!r}, {profile.e_ceiling!r})")
    return profile.turning_points(e)


def turning_points(model: ModelSpec, energy: float) -> TurningPoints:
    """Classical turning points at the given energy, in model units."""
    xm, xp = _turning_points(well_profile(model), _energy(energy))
    return TurningPoints(energy=energy, x_minus=xm, x_plus=xp)


# -- action and period ---------------------------------------------------


def _theta_segments(profile: WellProfile, xm: float, xp: float):
    """Split [0, pi/2] at the preimages of the table knots inside (xm, xp).

    Returns the segments and, on a table, the list of the PCHIP pieces under
    them (None off one). Segments and pieces come from the same knots, so
    segment i lies on piece ``pieces[i]``, and the integrand evaluates each
    row on its piece without a search. A cut that coincides with the next
    drops the empty segment and its piece together. Closed-form wells get the
    one segment. On a table the orbit must lie inside the tabulated range.
    """
    table = profile.pieces
    if table is None:
        return [(0.0, math.pi / 2.0)], None
    table.require_inside(xm, xp)
    knots = table.knots
    first = max(bisect.bisect_right(knots, xm), 1)  # the first interior knot past xm
    stop = min(bisect.bisect_left(knots, xp), len(knots) - 1)
    dx = xp - xm
    cuts = [0.0, *(math.asin(math.sqrt((xb - xm) / dx)) for xb in knots[first:stop].tolist()), math.pi / 2.0]
    keep = [i for i in range(len(cuts) - 1) if cuts[i] < cuts[i + 1]]
    return [(cuts[i], cuts[i + 1]) for i in keep], [first - 1 + i for i in keep]


def _action_of(profile: WellProfile, e: float) -> float:
    """I(E) at the energy ``e``: 0 at the well bottom, a stored pass's, or a new quadrature's, not stored."""
    if e == profile.u_min:
        return 0.0  # degenerate orbit at the well bottom
    return _raised((profile.passes.get(e) or _quadrature(profile, [e], ("action",))[0])[0])


def _period_of(profile: WellProfile, e: float) -> float:
    """tau(E) at the energy ``e``: a stored pass's, or a new quadrature's, not stored.

    A stored pass whose period was refused raises that refusal, as its quadrature did.
    """
    return _raised((profile.passes.get(e) or _quadrature(profile, [e], ("period",))[0])[-1])  # a pass's last stage


def _fused_passes(profile: WellProfile, es) -> list:
    """The fused passes (I, tau) at the energies ``es`` above the well bottom, from one quadrature.

    Each stage is a value or its own SpeclimitError (see ``_quadrature``), so
    a pass whose period is refused still holds its action. Every pass of a
    level search comes from here.
    """
    return _quadrature(profile, es, ("action", "period"))


def _quadrature(profile: WellProfile, es, stages: tuple[str, ...]) -> list:
    """I and tau at each energy of ``es``, for each of ``stages`` ("action", "period", or both).

    Per energy, the tuple of its stages' outcomes, each a value or a
    SpeclimitError. An energy without turning points or theta-segments gives
    its error to every stage; a period that ``_factored_ends`` refuses near a
    table's bottom is the period stage's outcome alone, and the action is
    integrated in the same call. Each energy has its own turning points,
    theta-segments, factor sqrt(2m) dx and, on a table, the period's factored
    end rows, written at the energy's first row. The integrand forms the rows
    of every energy in one call, with E, x- and dx as per-row columns, and
    both stages from the same potential evaluations, so a pass costs about
    one quadrature and the passes of several energies share their integrand
    calls.
    """
    action, period = "action" in stages, "period" in stages
    found, groups, orbits, columns, pieces, factored = [None] * len(es), [], [], [], [], []
    for k, e in enumerate(es):
        try:
            xm, xp = _turning_points(profile, e)
            segments, on = _theta_segments(profile, xm, xp)
        except SpeclimitError as exc:
            found[k] = (exc,) * len(stages)
            continue
        known = [None] * len(stages)
        if period and on is not None:
            try:
                factored.append((len(columns), _factored_ends(profile, e, on, xm, xp)))
            except SpeclimitError as exc:
                known[stages.index("period")] = exc
        groups.append((e, segments, tuple(known)))
        orbits.append((k, xp - xm))
        columns += [(e, xm, xp - xm)] * len(segments)
        pieces += on or ()
    if not groups:
        return found
    e_rows, xm_rows, dx_rows = np.array(columns).T[:, :, None]
    u = profile.pieces._on_rows(pieces) if pieces else lambda x, rows: profile.potential(x)

    def integrand(theta, rows):
        s = np.sin(theta)
        r = np.sqrt(np.maximum(e_rows[rows] - u(xm_rows[rows] + dx_rows[rows] * s * s, rows), 0.0))
        sin2 = np.sin(2.0 * theta)
        out = [r * sin2] if action else []
        if period:
            with np.errstate(divide="ignore", invalid="ignore"):
                out.append(np.where(r > 0.0, sin2 / r, 0.0))
            for at, end in factored:
                end(out[-1], theta, s, at - rows.start)
        return out

    for (k, dx), values in zip(orbits, _adaptive(integrand, groups, stages)):
        root = math.sqrt(2.0 * profile.mass) * dx
        found[k] = tuple(value if isinstance(value, SpeclimitError) else
                         (2.0 * root if stage == "action" else root) * value for stage, value in zip(stages, values))
    return found


def _factored_ends(profile: WellProfile, e: float, pieces, xm: float, xp: float):
    """The period integrand's end rows on a table, with E - U factored.

    The first theta-segment lies on the piece that holds x-, and the last on
    the piece that holds x+. With x = x- + dx sin^2(theta), E - U(x) is
    dx cos^2(theta) Q(x+, x) on the last segment and dx sin^2(theta) (-Q(x-, x))
    on the first, so sin(2 theta) / sqrt(E - U) becomes
    2 sin(theta) / sqrt(dx Q(x+, x)) and 2 cos(theta) / sqrt(-dx Q(x-, x)),
    free of the cancellation in E - U near a turning point. The returned
    ``ends(values, theta, s, at)`` overwrites those rows of ``values``, the
    period integrand at ``theta`` with s = sin(theta), where the orbit's
    first segment is the call's row ``at`` (negative, or past the call, where
    it lies outside), however the segments are grouped into calls.

    Within rounding of a table's bottom E has no period that floats can give,
    and QuadratureFailureError names E and u_min. Every piece of a table is
    monotone, so an orbit with no knot strictly inside it, one segment on one
    piece, has a turning point rounded onto the bottom knot; and the factored
    E - U of an end piece, positive in exact arithmetic, can round to 0 or
    below on a nearly flat piece.
    """
    table, dx, count = profile.pieces, xp - xm, len(pieces)
    knots = table.knots
    if count == 1:
        raise _near_bottom(profile, e, "a turning point rounds onto the bottom knot")
    lo = table._end_series(pieces[0], xm, dx)  # sigma = sin^2
    hi = table._end_series(pieces[-1], xp, -dx)  # sigma = cos^2
    if _least(lo, (knots[pieces[0] + 1] - xm) / dx) <= 0.0 or _least(hi, (xp - knots[pieces[-1]]) / dx) <= 0.0:
        raise _near_bottom(profile, e, "E - U on an end piece rounds to 0 or below")

    def ends(values, theta, s, at):
        if 0 <= at < len(values):
            row = slice(at, at + 1)
            s2 = s[row] * s[row]
            values[row] = np.cos(theta[row]) / np.sqrt((lo[2] * s2 + lo[1]) * s2 + lo[0])
        if 0 <= at + count - 1 < len(values):
            row = slice(at + count - 1, at + count)
            c = np.cos(theta[row])
            c = c * c
            values[row] = s[row] / np.sqrt((hi[2] * c + hi[1]) * c + hi[0])

    return ends


def _least(series, top: float) -> float:
    """Least value of c0 + c1 s + c2 s^2 over 0 <= s <= top, for ``series`` (c0, c1, c2)."""
    c0, c1, c2 = series
    points = [0.0, top]
    if c2 > 0.0 and 0.0 < -c1 < 2.0 * c2 * top:  # the vertex lies inside
        points.append(-c1 / (2.0 * c2))
    return min((c2 * s + c1) * s + c0 for s in points)


def _near_bottom(profile: WellProfile, e: float, why: str) -> QuadratureFailureError:
    return QuadratureFailureError(
        f"numeric: no period at E={e!r}, within rounding of the well bottom u_min={profile.u_min!r} ({why})")


def _fd_step(profile: WellProfile, e: float) -> float:
    # an infinite room (no floor or no ceiling) never wins the min over the finite e_scale
    return 1e-3 * min(profile.e_scale, e - profile.u_min, profile.e_ceiling - e)


def action(model: ModelSpec, energy: float) -> float:
    """Action I(E) of the closed orbit at ``energy``, in model units.

    A stored pass of the well answers if there is one; a new action is not stored.
    """
    return _action_of(well_profile(model), _energy(energy))


def period_check(model: ModelSpec, energy: float) -> PeriodCheck:
    """Quadrature period and the centered-difference dI/dE at one energy.

    Like ``action``, it reads the well's stored passes and stores none.
    """
    e = _energy(energy)
    profile = well_profile(model)
    tau = _period_of(profile, e)
    h = _fd_step(profile, e)
    fd = (_action_of(profile, e + h) - _action_of(profile, e - h)) / (2.0 * h)
    return PeriodCheck(energy=energy, period=tau, action_derivative=fd, residual=abs(tau - fd) / abs(tau))


def period_of_energy(model: ModelSpec, energy: float, self_check: bool = True) -> float:
    """Classical period tau(E) in model units.

    With ``self_check`` the quadrature value is verified against the centered
    difference of the action curve; disagreement beyond 1e-6 relative raises
    SelfCheckError rather than returning a silently inconsistent period.
    A stored pass of the well answers if there is one; a new period is not stored.
    """
    if self_check:
        chk = period_check(model, energy)
        if chk.residual > 1e-6:
            raise SelfCheckError(
                f"period at E={energy!r} disagrees with dI/dE by {chk.residual:.3g} relative"
            )
        return chk.period
    return _period_of(well_profile(model), _energy(energy))


def action_curve(model: ModelSpec, energies) -> ActionCurve:
    es = [float(_energy(e)) for e in energies]
    return ActionCurve(
        energies=tuple(es),
        actions=tuple(action(model, e) for e in es),
        periods=tuple(period_of_energy(model, e, self_check=False) for e in es),
    )


# -- quantization --------------------------------------------------------


def _top(profile: WellProfile) -> float:
    """The one top energy of a well with a floor and a ceiling, 1e-9 of its span below the ceiling."""
    return profile.u_min + (profile.e_ceiling - profile.u_min) * (1.0 - 1e-9)


def _read(e: float):
    """The pass at ``e``, yielded to the caller that runs the search, its tau NaN where it gives no Newton slope.

    An action that is an error raises; a period that is one, refused by its quadrature, gives no slope.
    """
    if not math.isfinite(e):  # a bracket expanded past the largest float
        raise FloatRangeError(f"the level's bracket leaves the float range at E={e!r}")
    i, tau = yield e
    if math.isnan(_raised(i)) or (isinstance(tau, float) and math.isnan(tau)):
        raise QuadratureFailureError(f"the {'action' if math.isnan(i) else 'period'} is NaN at E={e!r}")
    return i, tau if isinstance(tau, float) and 0.0 < tau < math.inf else math.nan


def _bracket_low(profile: WellProfile, target: float):
    """The lower end of the level's bracket, where I is below ``target``, and its action (a ``_newton`` step)."""
    if profile.u_min > -math.inf:
        # I(u_min) = 0 exactly and the target is positive, so the well bottom
        # itself brackets from below; quadrature just above the bottom would
        # drown in E - U cancellation noise.
        return profile.u_min, _action_of(profile, profile.u_min)
    lo = -profile.e_scale  # deepen toward -inf until the action drops below target
    for _ in range(40):
        if (i_lo := (yield from _read(lo))[0]) < target:
            return lo, i_lo
        lo *= 4.0
    raise ActionOutOfRangeError(f"no orbit with action below the target {target!r}")


def _bracket_high(profile: WellProfile, target: float):
    """The upper end of the level's bracket, where I reaches ``target``, and its pass (a ``_newton`` step)."""
    if profile.e_ceiling < math.inf:
        if profile.u_min > -math.inf:
            hi = _top(profile)
        else:
            hi = profile.e_ceiling - 1e-12 * profile.e_scale
            for _ in range(40):
                if (found := (yield from _read(hi)))[0] >= target:
                    return hi, found
                hi = profile.e_ceiling - (profile.e_ceiling - hi) / 4.0
        if (found := (yield from _read(hi)))[0] >= target:
            return hi, found
        raise ActionOutOfRangeError(f"target action {target!r} exceeds the well capacity {found[0]!r} at E={hi!r}")
    hi = profile.u_min + profile.e_scale
    for _ in range(40):
        if (found := (yield from _read(hi)))[0] >= target:
            return hi, found
        hi = profile.u_min + (hi - profile.u_min) * 4.0
    raise ActionOutOfRangeError(f"target action {target!r} not reached while expanding the bracket")


def _newton(profile: WellProfile, target: float):
    """The search for the orbit whose action is ``target``, by Newton steps on fused passes.

    A generator: it yields each energy whose pass it needs, is sent that
    pass, (I, tau) with each a value or its stage's error, and returns
    the level's energy. The start is the quadratic E(I) through the bracket
    ends with slope 1/tau at the upper one. Each step
    E <- E - (I(E) - target) / tau(E) that leaves the bracket, or has no
    finite positive tau to divide by, bisects it instead. The search ends at
    the pass whose step, or else the bracket, is at most _NEWTON_TOL of
    |E| + E - u_min, or of |E| on a well without a floor, whose levels crowd
    below E = 0; that pass's E is the level, and the period stored with it
    is the level's. The step is tested before the bracket, so a converged
    pass is never bisected away. The start depends only on the target, so a
    level asked again retraces the same energies.
    """
    lo, i_lo = yield from _bracket_low(profile, target)
    hi, (i_hi, tau_hi) = yield from _bracket_high(profile, target)
    if i_hi == target:
        return hi
    floor = profile.u_min if profile.u_min > -math.inf else None
    d, span = target - i_hi, i_hi - i_lo
    e = hi + d / tau_hi + (1.0 / tau_hi - (hi - lo) / span) * d * d / span  # NaN: bisect
    for _ in range(_ROOT_MAXITER):
        if not lo < e < hi:
            e = lo + 0.5 * (hi - lo)
        i, tau = yield from _read(e)
        step = (i - target) / tau
        tol = _NEWTON_TOL * (abs(e) if floor is None else abs(e) + (e - floor))
        if abs(step) <= tol:
            return e
        if i < target:
            lo = e
        else:
            hi = e
        if hi - lo <= tol:  # bisection has closed the bracket where no pass gave a slope
            return e
        e -= step
    raise ScanLimitExceededError(f"root search did not converge in {_ROOT_MAXITER} iterations (last E={e!r})")


def _maslov_count(model: ModelSpec, maslov) -> int:
    """The Maslov count nu to use: ``maslov``, or the kind's default when it is None."""
    return _integer(model.params.maslov if maslov is None else maslov, "maslov count", OutOfRangeError, 0, 4)


def _target(model: ModelSpec, n: int, maslov: int | None = None) -> float:
    """The action 2 pi hbar (n + nu/4) of level n."""
    _integer(n, "quantum number", OutOfRangeError, 0, 2**53)
    nu = _maslov_count(model, maslov)
    target = 2.0 * math.pi * model.hbar * (n + nu / 4.0)
    if target <= 0.0:
        raise ActionOutOfRangeError("target action is zero: degenerate orbit at the well bottom")
    return target


def _place(model: ModelSpec, ns, maslov: int | None = None) -> dict:
    """{n: E_n, or the SpeclimitError level n raised} for the levels ``ns`` of ``model``.

    E_n is the energy of the pass whose action is 2 pi hbar (n + nu/4), found
    by a ``_newton`` search; the searches of ``ns`` run in lockstep. A round
    first answers each search from the well's stored passes until it asks an
    energy that no stored pass holds. It then integrates the distinct
    energies asked in one ``_fused_passes`` call, stores the passes whose
    action is a value and sends each search its own. A search stops at its
    level, or where it or its pass's action raises, and that error is named
    "{kind} level n={n}: ...". An n without a valid target gets its target's
    error, and every other n the well profile's, where that raises.
    """
    placed, targets, asked = {}, {}, {}
    for n in ns:
        try:
            targets[n] = _target(model, n, maslov)
        except SpeclimitError as exc:
            placed[n] = exc
    try:
        profile = well_profile(model)
    except SpeclimitError as exc:
        return {**dict.fromkeys(targets, exc), **placed}

    def advance(n, search, found):
        try:
            e = search.send(found)  # a pass whose action failed raises in the search, as its own errors do
            while (found := profile.passes.get(e)) is not None:
                e = search.send(found)
        except StopIteration as stop:
            placed[n] = stop.value
        except SpeclimitError as exc:
            placed[n] = type(exc)(f"{model.kind} level n={n}: {exc}")
        else:
            asked[n] = search, e

    for n, target in targets.items():
        if n not in placed:  # an n equal to one without a target, as 1 is to True and 1.0, keeps that one's error
            advance(n, _newton(profile, target), None)
    while asked:
        waiting, asked = asked, {}
        energies = list(dict.fromkeys(e for _, e in waiting.values()))
        passes = dict(zip(energies, _fused_passes(profile, energies)))
        profile.passes.update((e, found) for e, found in passes.items() if not isinstance(found[0], SpeclimitError))
        for n, (search, e) in waiting.items():
            advance(n, search, passes[e])
    return placed


def quantize(model: ModelSpec, n: int, maslov: int | None = None) -> EnergyLevel:
    """Solve I(E) = 2 pi hbar (n + nu/4) for the level energy.

    The answer covers the well's whole action range, which for a finite well
    can extend past the model's declared level budget (levels between the
    budget cutoff and dissociation are still orbits of the potential).
    """
    return EnergyLevel(n=n, energy=_raised(_place(model, [n], maslov)[n]))


# -- numeric-model level enumeration --------------------------------------


def numeric_level_count(model: ModelSpec, maslov: int | None = None) -> int:
    """Number of quantized levels inside the tabulated energy window.

    It reads the fused pass at the well's one top energy, where every level's
    bracket ends.
    """
    if model.params.closed_forms:
        raise OutOfRangeError(f"level counting by action applies to numeric models, not {model.kind!r}")
    nu = _maslov_count(model, maslov)
    profile = well_profile(model)
    top = _top(profile)
    found = profile.passes.get(top) or _fused_passes(profile, [top])[0]
    quanta = _raised(found[0]) / (2.0 * math.pi * model.hbar) - nu / 4.0
    profile.passes[top] = found  # stored, as a level search stores it, for the searches that end their bracket there
    if not math.isfinite(quanta):
        raise FloatRangeError(
            f"{model.kind}: the action at the top of the well leaves the float range (got {quanta!r})")
    return max(math.floor(quanta) + 1, 0)
