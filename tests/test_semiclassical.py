from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import speclimit as sl
from speclimit import semiclassical as sc
from speclimit.errors import (
    ActionOutOfRangeError,
    NoBoundMotionError,
    OutOfRangeError,
    PotentialDomainError,
)


@pytest.fixture(scope="module")
def numeric_harmonic():
    # dense tabulation of u = x^2/2 wide enough for several levels
    xs = np.linspace(-8.0, 8.0, 801)
    return sl.numeric(1.0, xs, 0.5 * xs**2)


# -- turning points ------------------------------------------------------


def test_turning_points_harmonic(osc):
    for e in (0.5, 2.0, 7.25):
        tp = sc.turning_points(osc, e)
        amp = math.sqrt(2.0 * e)
        assert tp.x_minus == pytest.approx(-amp, rel=1e-12)
        assert tp.x_plus == pytest.approx(amp, rel=1e-12)


def test_turning_points_box(box):
    tp = sc.turning_points(box, 3.0)
    assert (tp.x_minus, tp.x_plus) == (0.0, 1.0)
    with pytest.raises(NoBoundMotionError):
        sc.turning_points(box, 0.0)


def test_turning_points_morse(morse_h2):
    d = morse_h2.params.depth
    a = morse_h2.params.alpha
    for n in (0, 4, 8):
        e = sl.energy_level(morse_h2, n).energy
        tp = sc.turning_points(morse_h2, e)
        root = math.sqrt(1.0 + e / d)
        assert tp.x_minus == pytest.approx(-math.log(1.0 + root) / a, rel=1e-10)
        assert tp.x_plus == pytest.approx(-math.log(1.0 - root) / a, rel=1e-10)


def test_turning_points_hydrogenoid(hyd):
    tp = sc.turning_points(hyd, -0.5)
    assert tp.x_minus == 0.0
    assert tp.x_plus == pytest.approx(2.0, rel=1e-12)  # r_plus = C/|E|


def test_turning_points_unbound(morse_h2):
    with pytest.raises(NoBoundMotionError):
        sc.turning_points(morse_h2, 0.5)  # above dissociation
    with pytest.raises(NoBoundMotionError):
        sc.turning_points(morse_h2, -morse_h2.params.depth - 1.0)  # below the bottom


def test_turning_points_numeric_domain(numeric_harmonic):
    # energy whose orbit would leave the table
    with pytest.raises((NoBoundMotionError, PotentialDomainError)):
        sc.turning_points(numeric_harmonic, 40.0)


# -- turning points of every kind against an independent bisection --------


def _bisect(u, e, inside, outside):
    """The last float on the inside of the first point where U(x) < E fails."""
    while True:
        mid = inside + (outside - inside) / 2.0
        if mid in (inside, outside):
            return inside
        if u(mid) < e:
            inside = mid
        else:
            outside = mid


def _bracket(u, e, points):
    """(last point with U < E, first without) along ``points``, which start inside."""
    inside = next(points)
    for x in points:
        if not u(x) < e:
            return inside, x
        inside = x


def _doubling(anchor, step, direction):
    yield anchor
    while True:
        yield anchor + direction * step
        step *= 2.0


def _si(model, value, dim):
    return model.units.to_si(value, dim)


def _morse_terms(model):
    d, a = _si(model, model.params.depth, "energy"), _si(model, model.params.alpha, "inverse_length")
    return lambda x, e: d * (math.exp(-2.0 * a * x) + 2.0 * math.exp(-a * x))


# kind -> (model, walls (left, right), outward points from the bottom, term scale of U at x)
_TABLE = sl.numeric(1.0, np.linspace(-2.0, 3.0, 14), [0.6, 0.1, 0.45, 0.2, -0.3, -0.5, -0.2, 0.4,
                                                         0.25, 0.9, 0.7, 1.4, 1.1, 1.6])
_MORSE = sl.get_preset("morse-h2")
_TP_CASES = {
    "box": (sl.box(), (True, True), lambda m, d: _doubling(0.5, 0.25, d), lambda x, e: abs(e)),  # a = 1 m
    "harmonic": (sl.harmonic(), (False, False), lambda m, d: _doubling(0.0, _si(m, 1e-3, "length"), d),
                 lambda x, e: abs(e)),
    "hydrogenoid": (sl.get_preset("hydrogen-atomic"), (True, False),
                    lambda m, d: _doubling(0.0, _si(m, 1e-3, "length"), d), lambda x, e: abs(e)),
    "morse": (_MORSE, (False, False),
              lambda m, d: _doubling(0.0, 1e-3 / _si(m, m.params.alpha, "inverse_length"), d),
              _morse_terms(_MORSE)),
    "numeric": (_TABLE, (False, False), None, lambda x, e: abs(e)),
}


def _knots(model, direction):
    xs = [_si(model, v, "length") for v in model.params.x]
    k = int(np.argmin(model.params.u))
    return iter(xs[k::direction])


def _energy(profile, top: bool, f: float) -> float:
    """A fraction f of the way up the well, or f of its span below the ceiling."""
    lo, hi, scale = profile.u_min, profile.e_ceiling, profile.e_scale
    if math.isinf(hi):  # the box and the oscillator: (0, inf)
        return scale / f if top else scale * f / (1.0 - f)
    if math.isinf(lo):  # the Coulomb well: (-inf, 0)
        return -scale * f if top else -scale * (1.0 - f) / f
    return hi - f * (hi - lo) if top else lo + f * (hi - lo)


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(sorted(_TP_CASES)), top=st.booleans(), f=st.floats(1e-12, 1.0, exclude_max=True))
def test_turning_points_solve_u_equals_e(kind, top, f):
    from speclimit.models import well_profile

    model, walls, outward, scale = _TP_CASES[kind]
    profile = well_profile(model)
    e = _energy(profile, top, f * 1e-9 if top else f)  # top: within 1e-9 of the ceiling
    assume(profile.u_min < e < profile.e_ceiling)
    found = profile.turning_points(e)
    assert all(type(x) is float for x in found)

    def u(x):
        with np.errstate(all="ignore"):
            return float(profile.potential(x))

    for side, (x, wall) in enumerate(zip(found, walls)):
        direction = 1 if side else -1
        points = _knots(model, direction) if outward is None else outward(model, direction)
        inside, outside = _bracket(u, e, points)
        ref = _bisect(u, e, inside, outside)
        if wall:
            assert x == ref, (kind, e, side)
            continue
        # rounding x to a float alone moves U by up to one step to a neighbour
        step = abs(u(math.nextafter(x, math.inf)) - u(math.nextafter(x, -math.inf)))
        assert abs(u(x) - e) <= 4.0 * math.ulp(scale(x, e)) + step, (kind, e, side)
        # x and the reference agree to the width the same residual allows
        delta = 1e-3 * (ref - inside)
        slope = abs(u(ref) - u(ref - delta)) / abs(delta)
        tol = 4.0 * math.ulp(abs(x)) + 8.0 * math.ulp(scale(x, e)) / slope
        assert abs(x - ref) <= tol, (kind, e, side, x, ref)


# -- actions -------------------------------------------------------------


def test_action_harmonic_linear(osc):
    # I(E) = 2 pi E / omega
    for e in (0.25, 1.0, 6.0):
        assert sc.action(osc, e) == pytest.approx(2 * math.pi * e, rel=1e-10)


def test_action_box_sqrt(box):
    # I(E) = 2 a sqrt(2 m E); at E = pi^2/2 this is 2 pi
    assert sc.action(box, math.pi**2 / 2) == pytest.approx(2 * math.pi, rel=1e-12)


def test_action_hydrogenoid(hyd):
    # I(E) = pi C sqrt(2 mu / |E|) - for atomic units I(-1/(2n^2)) = 2 pi n
    for n in (1, 3, 7):
        e = -1.0 / (2.0 * n**2)
        assert sc.action(hyd, e) == pytest.approx(2 * math.pi * n, rel=1e-10)


def test_action_morse_closed_form(morse_h2):
    # I(E) = 2 pi hbar zeta (1 - sqrt(-E/D)), from the exact Morse action
    d = morse_h2.params.depth
    z = morse_h2.zeta
    hbar = morse_h2.hbar
    for frac in (0.9, 0.5, 0.1):
        e = -frac * d
        expect = 2 * math.pi * hbar * z * (1.0 - math.sqrt(frac))
        assert sc.action(morse_h2, e) == pytest.approx(expect, rel=1e-9)


def test_action_zero_at_bottom(morse_h2, osc):
    assert sc.action(morse_h2, -morse_h2.params.depth) == 0.0
    assert sc.action(osc, 0.0) == 0.0


def test_action_monotone(morse_h2):
    d = morse_h2.params.depth
    es = [-d * (1 - t) for t in np.linspace(0.05, 0.95, 12)]
    acts = [sc.action(morse_h2, e) for e in es]
    assert all(b > a for a, b in zip(acts, acts[1:]))


def test_action_gauge_invariance(numeric_harmonic):
    xs = np.asarray(numeric_harmonic.params.x)
    us = np.asarray(numeric_harmonic.params.u)
    shifted = sl.numeric(1.0, xs, us + 2.5)
    a1 = sc.action(numeric_harmonic, 3.3)
    a2 = sc.action(shifted, 3.3 + 2.5)
    assert a2 == pytest.approx(a1, rel=1e-10)


# -- quantization ---------------------------------------------------------


def test_quantize_harmonic_example(osc):
    assert sc.quantize(osc, 3, maslov=2).energy == pytest.approx(3.5, rel=1e-10)


def test_quantize_box_example(box):
    assert sc.quantize(box, 2, maslov=0).energy == pytest.approx(2 * math.pi**2, rel=1e-12)


def test_quantize_vs_closed_box(box):
    for n in range(1, 21):
        q = sc.quantize(box, n).energy
        exact = sl.energy_level(box, n).energy
        assert abs(q / exact - 1.0) <= 1e-6


def test_quantize_vs_closed_harmonic(osc):
    for n in range(21):
        q = sc.quantize(osc, n).energy
        exact = n + 0.5
        assert abs(q / exact - 1.0) <= 1e-6


def test_quantize_vs_closed_morse(morse_h2):
    for n in range(9):
        q = sc.quantize(morse_h2, n).energy
        exact = sl.energy_level(morse_h2, n).energy
        assert abs(q / exact - 1.0) <= 1e-6


def test_quantize_vs_closed_hydrogenoid(hyd):
    # nu = 0 reproduces the Coulomb spectrum exactly
    for n in (1, 2, 5, 12, 20):
        q = sc.quantize(hyd, n).energy
        exact = -1.0 / (2.0 * n**2)
        assert abs(q / exact - 1.0) <= 1e-6


def test_quantize_numeric_harmonic(numeric_harmonic):
    # the tabulated harmonic well reproduces n + 1/2 to interpolation accuracy
    for n in range(6):
        q = sc.quantize(numeric_harmonic, n).energy
        assert q == pytest.approx(n + 0.5, rel=1e-6)


def test_quantize_integrates_each_energy_once(monkeypatch):
    # the bracket search integrates I(hi), where brentq starts again
    xs = np.linspace(-4.0, 4.0, 17)
    table = sl.numeric(1.0, xs, 0.5 * xs**2)
    energies = []
    action_si = sc._action_si

    def counted(profile, e):
        energies.append(e)
        return action_si(profile, e)

    monkeypatch.setattr(sc, "_action_si", counted)
    sc.quantize(table, 3)
    assert len(energies) > 3 and len(energies) == len(set(energies))


def test_quantize_beyond_capacity(morse_h2):
    # the engine's action range ends at the dissociation action 2 pi hbar zeta:
    # I(n=16) = 2 pi hbar * 16.5 < 2 pi hbar zeta but n=17 is out
    z = morse_h2.zeta
    d = morse_h2.params.depth
    e16 = sc.quantize(morse_h2, 16).energy
    assert e16 == pytest.approx(-d * (1 - 16.5 / z) ** 2, rel=1e-9)
    with pytest.raises(ActionOutOfRangeError):
        sc.quantize(morse_h2, 17)


def test_quantize_validation(osc):
    with pytest.raises(OutOfRangeError):
        sc.quantize(osc, -1)
    with pytest.raises(OutOfRangeError):
        sc.quantize(osc, 1, maslov=5)
    with pytest.raises(ActionOutOfRangeError):
        sc.quantize(osc, 0, maslov=0)  # zero target action


# -- periods ---------------------------------------------------------------


def test_period_harmonic_constant(osc):
    for e in (0.5, 3.0):
        assert sc.period_of_energy(osc, e) == pytest.approx(2 * math.pi, rel=1e-10)


def test_period_box(box):
    assert sc.period_of_energy(box, math.pi**2 / 2) == pytest.approx(2 / math.pi, rel=1e-12)


def test_period_hydrogenoid_example(hyd):
    assert sc.period_of_energy(hyd, -0.5) == pytest.approx(2 * math.pi, rel=1e-9)


def test_period_morse_vs_closed(morse_h2):
    for n in (0, 4, 8):
        e = sl.energy_level(morse_h2, n).energy
        tau = sc.period_of_energy(morse_h2, e)
        assert tau == pytest.approx(sl.classical_period(morse_h2, n).tau, rel=1e-9)


def test_period_matches_action_derivative():
    # tau = dI/dE checked by centered differences at a spread of energies
    cases = [
        (sl.harmonic(), np.linspace(0.3, 20.0, 50)),
        (sl.box(), np.linspace(2.0, 200.0, 50)),
        (sl.get_preset("hydrogen-atomic"), -1.0 / (2.0 * np.linspace(1.0, 7.0, 50) ** 2)),
        (sl.get_preset("morse-h2"), -4.7446 * (1.0 - np.linspace(0.05, 0.93, 50)) ** 2 - 1e-6),
    ]
    for model, energies in cases:
        for e in energies:
            chk = sc.period_check(model, float(e))
            assert chk.residual <= 1e-6, (model.kind, e, chk.residual)


def test_action_curve(osc):
    curve = sc.action_curve(osc, [0.5, 1.5, 2.5])
    assert curve.actions == pytest.approx([math.pi, 3 * math.pi, 5 * math.pi], rel=1e-10)
    assert curve.periods == pytest.approx([2 * math.pi] * 3, rel=1e-10)


# -- numeric level enumeration ---------------------------------------------


def test_numeric_level_count(numeric_harmonic, osc):
    # ceiling is u(+-8) = 32; levels with n + 1/2 < 32 are n = 0..31
    count = sc.numeric_level_count(numeric_harmonic)
    assert count == 32
    with pytest.raises(OutOfRangeError, match="applies to numeric models, not 'harmonic'"):
        sc.numeric_level_count(osc)


def test_numeric_bound_levels(numeric_harmonic):
    levels = sc.numeric_bound_levels(numeric_harmonic, 4)
    assert [lv.n for lv in levels] == [0, 1, 2, 3]
    for lv in levels:
        assert lv.energy == pytest.approx(lv.n + 0.5, rel=1e-6)


# -- batched quadrature against the per-panel reference ---------------------


def _reference_adaptive(f, segments) -> float:
    # one integrand call per panel per order
    def panel(a, b, order):
        nodes, weights = sc._gl_rule(order)
        half = 0.5 * (b - a)
        return half * float(np.dot(weights, f(0.5 * (a + b) + half * nodes)))

    prev = None
    rel = math.inf
    for order in sc._GL_ORDERS:
        val = sum(panel(a, b, order) for a, b in segments)
        if prev is not None:
            rel = abs(val - prev) / max(abs(val), 1e-300)
            if rel <= sc._RTOL_TARGET:
                return val
        prev = val
    if rel <= sc._RTOL_FLOOR:
        return prev
    raise sc.QuadratureFailureError(f"quadrature stalled at relative change {rel:.3g}")


def _bit_identity_cases():
    """(profile, SI energies) for a PCHIP table, a Morse well and the Coulomb well."""
    from speclimit.models import well_profile

    xs = np.linspace(-3.0, 3.5, 19)
    table = sl.numeric(1.3, xs, 0.5 * xs**2 + 0.1 * xs**4)
    morse = sl.get_preset("morse-h2")
    hyd = sl.get_preset("hydrogen-atomic")
    energies = {
        table: [0.4, 1.7, 4.4, 6.0],
        morse: [-morse.params.depth * f for f in (0.95, 0.5, 0.02)],
        hyd: [-1.0 / (2.0 * n * n) for n in (1, 4, 11)],
    }
    return [(well_profile(m), [m.units.to_si(e, "energy") for e in es]) for m, es in energies.items()]


def test_batched_quadrature_matches_per_panel_reference(monkeypatch):
    cases = _bit_identity_cases()
    batched = [[(sc._action_si(p, e), sc._period_si(p, e)) for e in es] for p, es in cases]
    monkeypatch.setattr(sc, "_adaptive", _reference_adaptive)
    reference = [[(sc._action_si(p, e), sc._period_si(p, e)) for e in es] for p, es in cases]
    assert batched == reference
