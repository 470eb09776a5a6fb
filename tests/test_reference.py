"""The package's PCHIP and Brent root finder against scipy, bit for bit.

scipy is not a runtime dependency; it is in the ``test`` extra as the
reference: ``PchipInterpolator`` for the table coefficients, the potential
and the minimum, and ``optimize.brentq`` for the level search.
"""

from __future__ import annotations

import itertools
import sys
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings, strategies as st
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq

import speclimit as sl
from speclimit import semiclassical as sc
from speclimit.models import _numeric_x_min, _pchip, well_profile
from speclimit.units import SI

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import bench_workloads as bw  # noqa: E402


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


def _reference_min(xs, us) -> tuple[float, float]:
    """The table minimum refined by scipy's roots of the derivative."""
    pchip = _reference_pchip(xs, us)
    imin = int(np.argmin(us))
    best_x, best_u = float(xs[imin]), float(us[imin])
    for r in np.atleast_1d(pchip.derivative().roots(extrapolate=False)):
        if xs[0] < r < xs[-1]:
            val = float(pchip(r))
            if val < best_u:
                best_x, best_u = float(r), val
    return best_x, best_u


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
    x_min, u_min = _numeric_x_min(profile.pieces)
    assert (x_min.hex(), u_min.hex()) == tuple(v.hex() for v in _reference_min(xs, us))
    assert profile.u_min == u_min


def test_minimum_refinement_matches_reference():
    # perfbench tables where a root of U' lies below the lowest knot value, so the refinement decides
    refined = 0
    for seed in (1, 2):
        for op in itertools.islice(bw.op_stream("numeric-table", seed), 400):
            xs, us = np.array(op["x"]), np.array(op["u"])
            got = _numeric_x_min(_pchip(xs, us))
            ref = _reference_min(xs, us)
            assert (got[0].hex(), got[1].hex()) == (ref[0].hex(), ref[1].hex())
            refined += ref[1] < us.min()
    assert refined > 0


def test_brent_port_matches_reference(monkeypatch):
    port = sc._brentq
    found = []

    def both(f, a, b, xtol, rtol, what):
        # f is memoised inside quantize, so scipy re-evaluates only where the port did not go
        mine = port(f, a, b, xtol, rtol, what)
        found.append((mine.hex(), float(brentq(f, a, b, xtol=xtol, rtol=rtol)).hex()))
        return mine

    monkeypatch.setattr(sc, "_brentq", both)
    for name, levels in (("box-natural", range(1, 9)), ("harmonic-natural", range(9)),
                         ("hydrogen-atomic", range(1, 9)), ("morse-h2", range(17))):
        model = sl.get_preset(name)
        for n in levels:
            sc.quantize(model, n)
    for seed in (1, 2):
        for op in itertools.islice(bw.op_stream("numeric-table", seed), 48):
            sl.classify(sl.numeric(op["mass"], op["x"], op["u"]), (op["n"], op["n"] + 2))
    assert len(found) > 300
    assert [a for a, _ in found] == [b for _, b in found]
