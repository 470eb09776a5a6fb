"""A 30-digit oracle for the Bohr-Sommerfeld levels and periods of the golden tables.

For every level that the ``harmonic13`` and ``quartic25`` golden configs
print (tests/golden/regenerate.py), this script finds E_n with
I(E_n) = 2 pi hbar (n + nu/4) and tau_n = dI/dE at E_n in mpmath at 30
digits, and writes them as decimal strings in the model's units to
tests/oracle/levels.json:

    PYTHONPATH=src python tests/oracle/regenerate.py

The problem it solves is the table restated in SI (``model.converted(SI)``):
that well's PCHIP pieces, their coefficients and knots taken as exact
numbers, its mass, and hbar = ``units.HBAR_SI``, each the float an engine
run on the SI model holds. It therefore checks the engine's turning points,
quadrature and level search, not the interpolation. The SI results are
divided by the float unit factors, taken as exact, for the model's units.
The engine integrates the table as the model states it, in its own units;
the two statements differ only by the rounding of each restated float, a
few parts in 1e16, far below the budgets of tests/test_oracle.py.

* Each turning point is the root of one piece's cubic, in the piece
  coordinate t = (x - x_k) / h and with U - E scaled by |E|: 40 bisections,
  then ``findroot``. ``findroot`` checks |f| against an absolute tolerance,
  so unscaled SI values near 1e-34 J would pass a point 1% away from the root.
* I and tau are ``mp.quad`` over theta-segments cut at the knots, with
  x = x_- + (x_+ - x_-) sin^2(theta). On the two end pieces U - E is the
  cubic deflated at its root, (s - s_0) q(s), so neither integrand forms
  E - U by subtraction near a turning point.
* Newton steps E <- E - (I - 2 pi hbar (n + nu/4)) / tau, started at the
  engine's level, stop once a step is below 1e-27 of E.

The tier-1 tests in tests/test_oracle.py read only the JSON.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import mpmath as mp

HERE = Path(__file__).resolve().parent
OUT = HERE / "levels.json"
DPS = 30
# every level whose E or tau the golden configs print: harmonic13's criterion and report cover the pairs
# n = 1..17 (levels 0..17), quartic25's criterion covers n = 1..10 and its other configs lie inside
LEVELS = {"harmonic13": range(0, 18), "quartic25": range(0, 11)}


def golden_tables() -> dict:
    """name -> model document of the golden tables, as tests/golden/regenerate.py states them."""
    spec = importlib.util.spec_from_file_location("golden_regenerate", HERE.parent / "golden" / "regenerate.py")
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    return {"harmonic13": golden.HARMONIC_13, "quartic25": golden.QUARTIC_25}


class Table:
    """A table's well in SI with its PCHIP pieces as exact numbers."""

    def __init__(self, profile):
        pieces = profile.pieces
        self.knots = [mp.mpf(float(x)) for x in pieces.knots]
        self.coefs = [[mp.mpf(float(c)) for c in pieces.coefs[:, k]] for k in range(len(self.knots) - 1)]
        self.mass = mp.mpf(profile.mass)
        lows = [c0 for *_, c0 in self.coefs]  # the knot values; the last knot is never the bottom
        self.bottom = lows.index(min(lows))

    def cubic(self, k: int, x):
        c3, c2, c1, c0 = self.coefs[k]
        s = x - self.knots[k]
        return ((c3 * s + c2) * s + c1) * s + c0

    def root(self, k: int, e):
        """x in piece k where its cubic equals e."""
        x0, h = self.knots[k], self.knots[k + 1] - self.knots[k]
        scale = abs(e)

        def f(t):
            return (self.cubic(k, x0 + t * h) - e) / scale

        lo, hi = mp.mpf(0), mp.mpf(1)
        rising = f(hi) > f(lo)
        for _ in range(40):
            mid = (lo + hi) / 2
            if (f(mid) < 0) == rising:
                lo = mid
            else:
                hi = mid
        t = mp.findroot(f, (lo + hi) / 2)
        if not 0 <= t <= 1:
            raise ArithmeticError(f"root of piece {k} at t={t} leaves the piece")
        return x0 + t * h

    def turning_points(self, e):
        """(piece, x) of the left and right turning points at energy e."""
        k = self.bottom - 1
        while self.cubic(k, self.knots[k]) < e:
            k -= 1
        left = (k, self.root(k, e))
        k = self.bottom
        while self.cubic(k, self.knots[k + 1]) < e:
            k += 1
        return left, (k, self.root(k, e))

    def deflated(self, k: int, x_root):
        """q(s) with cubic_k(x) - e = (s - s_0) q(s), s = x - x_k and s_0 = x_root - x_k."""
        c3, c2, c1, _ = self.coefs[k]
        s0 = x_root - self.knots[k]
        a2, a1 = c3, c2 + c3 * s0
        a0 = c1 + a1 * s0
        return lambda s: (a2 * s + a1) * s + a0

    def action_and_period(self, e):
        """(I, tau) at energy e, each to 30 digits."""
        (kl, xm), (kr, xp) = self.turning_points(e)
        if kl == kr:
            raise ArithmeticError("an orbit on one piece is outside this oracle")
        dx = xp - xm
        cuts = [mp.mpf(0)] + [mp.asin(mp.sqrt((self.knots[k] - xm) / dx)) for k in range(kl + 1, kr + 1)] + [
            mp.pi / 2]
        ql, qr = self.deflated(kl, xm), self.deflated(kr, xp)

        def rows(i):
            k = kl + i
            if k == kl:  # E - U = -dx sin^2 q(s) on the left end piece
                def pair(th):
                    s, c = mp.sin(th), mp.cos(th)
                    w = mp.sqrt(-dx * ql(xm + dx * s * s - self.knots[kl]))
                    return s * w * 2 * s * c, 2 * c / w
            elif k == kr:  # E - U = dx cos^2 q(s) on the right end piece
                def pair(th):
                    s, c = mp.sin(th), mp.cos(th)
                    w = mp.sqrt(dx * qr(xm + dx * s * s - self.knots[kr]))
                    return c * w * 2 * s * c, 2 * s / w
            else:
                def pair(th):
                    s = mp.sin(th)
                    w = mp.sqrt(e - self.cubic(k, xm + dx * s * s))
                    return w * mp.sin(2 * th), mp.sin(2 * th) / w
            return pair

        # mp.quad's error estimate has an absolute floor, so each integrand is scaled to order 1 by sqrt|E|
        scales = (1 / mp.sqrt(abs(e)), mp.sqrt(abs(e)))
        sums = [mp.mpf(0), mp.mpf(0)]
        for i in range(len(cuts) - 1):
            pair = rows(i)
            for j in (0, 1):
                value, err = mp.quad(lambda th: pair(th)[j] * scales[j], [cuts[i], cuts[i + 1]], error=True)
                if err > abs(value) * mp.mpf(10) ** (3 - DPS):
                    raise ArithmeticError(f"quadrature error {err} of {value} on segment {i}")
                sums[j] += value / scales[j]
        root2m = mp.sqrt(2 * self.mass)
        return 2 * root2m * dx * sums[0], root2m * dx * sums[1]


def level(table: Table, target, start):
    """(E, tau) with I(E) = target, by Newton steps from ``start``."""
    e = mp.mpf(start)
    for _ in range(8):
        action, period = table.action_and_period(e)
        step = (action - target) / period
        e -= step
        if abs(step) < abs(e) * mp.mpf(10) ** (3 - DPS):
            return e, table.action_and_period(e)[1]
    raise ArithmeticError(f"Newton did not converge from {start!r}")


def main() -> int:
    mp.mp.dps = DPS
    from speclimit import model_from_dict
    from speclimit import semiclassical as sc
    from speclimit.models import well_profile
    from speclimit.units import HBAR_SI, SI

    out = {"dps": DPS, "tables": {}}
    for name, doc in golden_tables().items():
        model = model_from_dict(doc)
        units, nu = model.units, model.params.maslov
        table = Table(well_profile(model.converted(SI)))
        e_unit, t_unit = mp.mpf(units.factor("energy")), mp.mpf(units.factor("time"))
        levels = {}
        for n in LEVELS[name]:
            target = 2 * mp.pi * mp.mpf(HBAR_SI) * (n + mp.mpf(nu) / 4)
            start = units.to_si(sc.quantize(model, n).energy, "energy")
            e, tau = level(table, target, start)
            levels[str(n)] = {"E": mp.nstr(e / e_unit, DPS), "tau": mp.nstr(tau / t_unit, DPS)}
            print(name, n, levels[str(n)], file=sys.stderr, flush=True)
        out["tables"][name] = {"model": doc, "maslov": nu, "levels": levels}
    OUT.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
