"""The array side of the well profiles: vectorized potentials and a table's PCHIP pieces.

``models`` states every well kind with ``math`` alone, so closed-form levels,
periods and criteria never import numpy. Each kind's ``profile`` (what the
semiclassical engine integrates over) imports its potential from here, and a
table its PCHIP pieces and their turning points.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import FloatRangeError, PotentialDomainError


def box_potential(a: float) -> Callable:
    def u(x):  # zero between the walls, infinite beyond them
        x = np.asarray(x, dtype=float)
        return np.where((x >= 0.0) & (x <= a), 0.0, np.inf)

    return u


def harmonic_potential(k: float) -> Callable:
    return lambda x: 0.5 * k * np.square(x)


def coulomb_potential(c: float) -> Callable:
    def coulomb(x):
        # the x = 0 wall maps to -inf; keep numpy quiet about it
        with np.errstate(divide="ignore"):
            return -c / np.asarray(x, dtype=float)

    return coulomb


def morse_potential(d: float, a: float) -> Callable:
    def u(x):
        ex = np.exp(-a * np.asarray(x, dtype=float))
        return d * (ex * ex - 2.0 * ex)

    return u


@dataclass(frozen=True, eq=False)
class CubicPieces:
    """A piecewise cubic as arrays: on [x_k, x_k+1], U = ((c0 + c1 s) + c2 s^2) + c3 s^3 with s = x - x_k.

    ``knots`` holds x_0 .. x_N; ``coefs`` holds the rows c3, c2, c1 and c0,
    one column per piece.
    """

    knots: np.ndarray
    coefs: np.ndarray

    def require_inside(self, lo: float, hi: float):
        """Raise PotentialDomainError unless [lo, hi] lies in the table, up to 1e-12 of its span."""
        x0, xn = self.knots[0], self.knots[-1]
        slack = 1e-12 * (xn - x0)
        if lo < x0 - slack or hi > xn + slack:
            raise PotentialDomainError(f"numeric: query outside tabulated range [{x0:.6g}, {xn:.6g}]")

    @staticmethod
    def _sum(coef, s):
        """The one evaluation formula: U from coefficient rows ``coef`` (c3, c2, c1, c0) at offsets ``s``."""
        c3, c2, c1, c0 = coef
        s2 = s * s
        # the sum starts from +0.0, as the reference evaluation does, so a knot value of -0.0 reads +0.0
        return (((0.0 + c0) + c1 * s) + c2 * s2) + c3 * (s2 * s)

    def __call__(self, x):
        """U at ``x`` after ``require_inside``, on the piece [x_k, x_k+1) holding each x (the last one closed)."""
        x = np.asarray(x, dtype=float)
        if x.size:
            self.require_inside(x.min(), x.max())
        x = np.clip(x, self.knots[0], self.knots[-1])
        k = np.clip(np.searchsorted(self.knots, x, side="right") - 1, 0, len(self.knots) - 2)
        return self._sum(self.coefs[:, k], x - self.knots[k])

    def _on_rows(self, pieces) -> Callable:
        """U(x, rows) for x on the node rows ``rows``, row i lying on piece ``pieces[i]``, with no search."""
        k = np.array(pieces)
        xk = self.knots.take(k)[:, None]
        coef = self.coefs.take(k, axis=1)[:, :, None]
        return lambda x, rows: self._sum(coef[:, rows], x - xk[rows])

    def _end_series(self, piece: int, a: float, d: float) -> tuple[float, float, float]:
        """Coefficients in sigma of -d Q(a, a + d sigma) / 4 on the cubic ``piece``.

        Q(a, x) = (U(a) - U(x)) / (a - x) is the piece's divided difference. About
        the turning point a it is exactly U'(a) + (3 c3 t_a + c2) u + c3 u^2, with
        u = x - a and t_a = a - x_k, so no difference of nearly equal values is
        formed. The 1/4 takes in the factor 2 of the period integrand.
        """
        c3, c2, c1, _ = self.coefs[:, piece].tolist()
        ta = a - float(self.knots[piece])
        k = -0.25 * d
        return k * ((3.0 * c3 * ta + 2.0 * c2) * ta + c1), k * d * (3.0 * c3 * ta + c2), k * d * d * c3


def _pchip_end_slope(h0, h1, m0, m1):
    """Moler's one-sided three-point end slope, zeroed or capped at 3 m0 to keep the shape."""
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip(x, y) -> CubicPieces:
    """PCHIP pieces through the knots (x, y), each given as a sequence of floats.

    Raises FloatRangeError when a piece evaluated at its right end, by the
    formula the engine uses, is not finite: the knot spacing or a slope
    leaves the float range in some term, and every quadrature over that
    piece would too.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    with np.errstate(all="ignore"):  # entries that divide by a zero secant are discarded; overflow is checked below
        h = np.diff(x)
        m = np.diff(y) / h
        flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
        w1, w2 = 2.0 * h[1:] + h[:-1], h[1:] + 2.0 * h[:-1]
        d = np.zeros_like(y)
        d[1:-1] = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
        d[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
        d[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
        t = (d[:-1] + d[1:] - 2.0 * m) / h
        coefs = np.stack((t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]))
        ends = CubicPieces._sum(coefs, h)
    if not np.isfinite(ends).all():
        raise FloatRangeError("numeric: a cubic piece of the table leaves the float range")
    return CubicPieces(knots=x, coefs=coefs)


def _piece_root(coef, x0: float, e: float, t_in: float, t_out: float) -> float:
    """x0 + t at the root of one PCHIP piece's cubic minus e, t between t_in and t_out.

    The piece is monotone and lies below e at t_in. A Newton step that leaves
    the bracket bisects it instead; the walk ends once a step no longer moves
    x0 + t.
    """
    c3, c2, c1, c0 = coef
    c0 -= e
    below, above = t_in, t_out
    rising = t_in < t_out  # t stays in the closed bracket, so below and above never swap
    t = 0.5 * (t_in + t_out)
    for _ in range(100):
        g = ((c3 * t + c2) * t + c1) * t + c0
        if g < 0.0:
            below = t
        else:
            above = t
        slope = (3.0 * c3 * t + 2.0 * c2) * t + c1
        t_new = t - g / slope if slope else math.nan
        if abs(t_new - t) <= math.ulp(x0 + t):
            return x0 + t_new
        inside = below < t_new < above if rising else above < t_new < below
        t = t_new if inside else 0.5 * (below + above)
    return x0 + t


def _numeric_turning_points(table, coefs: list, bottom: int) -> Callable:
    """Turning points of the table ``table.x``, ``table.u``, each the one root of a PCHIP piece.

    ``table`` is a table's params, in the model's units, as its ``profile`` reads them.

    PCHIP keeps every piece monotone (Fritsch & Carlson, SIAM J. Numer. Anal.
    17, 1980), so the orbit at E turns in the piece just inside the first
    knot, outward from the bottom knot, whose value reaches E. Running maxima
    of the knot values outward from the bottom find that knot by bisection.
    """
    xs = table.x
    reach_right = list(itertools.accumulate(table.u[bottom + 1:], max))
    reach_left = list(itertools.accumulate(table.u[bottom - 1::-1], max))

    def turning_points(e):
        k = bottom - 1 - bisect.bisect_left(reach_left, e)  # the piece [x_k, x_k+1]
        x_minus = _piece_root(coefs[k], xs[k], e, xs[k + 1] - xs[k], 0.0)
        k = bottom + bisect.bisect_left(reach_right, e)
        x_plus = _piece_root(coefs[k], xs[k], e, 0.0, xs[k + 1] - xs[k])
        return float(x_minus), float(x_plus)

    return turning_points
