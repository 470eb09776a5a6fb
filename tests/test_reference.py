"""The package's PCHIP against scipy, bit for bit.

scipy is not a runtime dependency; it is in the ``test`` extra as the
reference: ``PchipInterpolator`` for the table coefficients and the
potential. A table's well bottom is its lowest knot, because PCHIP keeps
every piece monotone; the properties here check that scipy's interpolant
drops below that knot by no more than rounding, and that an orbit above that
rounding spans at least two pieces.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings, strategies as st
from scipy.interpolate import PchipInterpolator

import speclimit as sl
from speclimit import semiclassical as sc
from speclimit.models import well_profile
from speclimit.profiles import _pchip
from speclimit.units import SI


@st.composite
def tables(draw):
    """3 to 97 knots at uneven spacing with an interior minimum; values wiggle, so slopes change sign.

    Half of the tables repeat the minimum at the next knot, which makes the
    piece between them flat.
    """
    k = draw(st.integers(3, 97))
    gaps = draw(st.lists(st.floats(1e-3, 10.0), min_size=k - 1, max_size=k - 1))
    xs = draw(st.floats(-50.0, 50.0)) + np.concatenate(([0.0], np.cumsum(gaps)))
    us = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=k, max_size=k)))
    i = draw(st.integers(1, k - 2))
    us[i] = us.min() - draw(st.floats(1e-3, 1.0))
    if draw(st.booleans()):
        us[i + 1] = us[i]
    return xs, us


def _bits(a) -> bytes:
    return np.ascontiguousarray(a, dtype=float).tobytes()


def _reference_pchip(xs, us) -> PchipInterpolator:
    with np.errstate(all="ignore"):  # scipy warns where a tiny secant overflows a discarded quotient
        return PchipInterpolator(xs, us, extrapolate=False)


@settings(max_examples=300, deadline=None)
@given(table=tables())
def test_pchip_coefficients_match_reference(table):
    xs, us = table
    pieces = _pchip(xs, us)
    ref = _reference_pchip(xs, us).c
    assert _bits(pieces.coefs) == _bits(ref)


@settings(max_examples=200, deadline=None)
@given(table=tables())
# every term of the piece at the -0.0 knot is -0.0 there; the reference sum reads +0.0
@example(table=(np.array([0.0, 2.0, 6.0, 7.0, 9.0]), np.array([1e-300, -0.0, -1.0, -5.0, 2.0])))
def test_table_potential_and_minimum_match_reference(table):
    xs, us = table
    profile = well_profile(sl.numeric(1.0, xs, us, units=SI))
    # the knots, both ends and points between the knots
    q = np.concatenate((xs, [xs[0], xs[-1]], 0.5 * (xs[1:] + xs[:-1]), np.linspace(xs[0], xs[-1], 257)))
    assert _bits(profile.potential(q)) == _bits(_reference_pchip(xs, us)(q))
    bottom = int(np.argmin(us))  # the first lowest knot
    assert profile.u_min.hex() == float(us[bottom]).hex()
    if profile.e_ceiling > profile.u_min:  # a flat bottom on the last knot leaves no bound orbit
        xm, xp = profile.turning_points(profile.u_min + 1e-3 * (profile.e_ceiling - profile.u_min))
        assert xm < xs[bottom] < xp


def _rounding_bound(xs, c) -> np.ndarray:
    """Per piece, how far rounding can move the value of the cubic with coefficients ``c`` on it.

    A piece's value is the sum of four terms, at most |c0|, |c1| h, |c2| h^2
    and |c3| h^3. Two sources of rounding move it away from the exact
    monotone Hermite cubic: c2 and c3 are each formed from the secant, the
    end slopes and h in four operations, and the evaluation rounds s, s^2,
    s^3, the three products and the three sums, at most nine times. Each
    rounding errs by at most eps/2 of a value that PCHIP's slopes (at most 3
    secants) keep below a few times the summed term magnitudes, so 8 eps of
    that sum bounds their total. The largest drop seen, over 3,000 drawn
    tables and the first 1,000 perfbench tables of seeds 1-3, was 1.08 eps
    of it.
    """
    h = np.diff(xs)
    return 8.0 * np.finfo(float).eps * (abs(c[3]) + abs(c[2]) * h + abs(c[1]) * h**2 + abs(c[0]) * h**3)


# the first 12 knots of perfbench's op_stream("numeric-table", 1) op 1 (0-based), a Morse table
# whose interpolant drops one ulp below its lowest knot just left of it
@settings(max_examples=300, deadline=None)
@given(table=tables())
@example(table=(
    np.array([-2.257618721561575, -1.8580591515041034, -1.458499581446632, -1.0589400113891607,
              -0.6593804413316893, -0.2598208712742178, 0.1397386987832534, 0.5392982688407248,
              0.9388578388981963, 1.3384174089556677, 1.7379769790131392, 2.13753654907061]),
    np.array([4.704788376776548, -4.89961142074996, -11.200672078656307, -15.10212114245905,
              -17.28011124370741, -18.23843544034371, -18.350587731855814, -17.891773828604588,
              -17.063247871239067, -16.010792308070606, -14.838730558780135, -13.620534784583729]),
))
def test_reference_pchip_stays_above_the_lowest_knot(table):
    # a dense grid on every piece, crowding both of its knots, where a dip below a knot would start
    xs, us = table
    pchip = _reference_pchip(xs, us)
    crowd = 2.0 ** -np.arange(1.0, 60.0)
    frac = np.concatenate((np.linspace(0.0, 1.0, 65), crowd, 1.0 - crowd))
    x = np.minimum(xs[:-1, None] + np.diff(xs)[:, None] * frac, xs[1:, None])
    lowest = pchip(x.ravel()).reshape(x.shape).min(axis=1)
    assert np.all(lowest >= us.min() - _rounding_bound(xs, pchip.c))


@settings(max_examples=200, deadline=None)
@given(table=tables(), bounds=st.integers(1, 4), f=st.floats(0.0, 1.0))
def test_every_table_orbit_spans_two_segments(table, bounds, f):
    # from a few rounding bounds above the bottom up to the ceiling, a knot lies strictly inside every
    # orbit; closer to the bottom a turning point can round onto the bottom knot, leaving one segment
    xs, us = table
    profile = well_profile(sl.numeric(1.0, xs, us, units=SI))
    low = profile.u_min + bounds * float(_rounding_bound(xs, profile.pieces.coefs).max())
    for e in (low, low + f * (profile.e_ceiling - low)):
        if e < profile.e_ceiling:
            segments, pieces = sc._theta_segments(profile, *profile.turning_points(e))
            assert len(segments) == len(pieces) >= 2


