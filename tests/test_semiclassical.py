from __future__ import annotations

import math
import random
import re
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import speclimit as sl
from speclimit import semiclassical as sc
from speclimit.criterion import spectrum
from speclimit.errors import (
    ActionOutOfRangeError,
    NoBoundMotionError,
    OutOfRangeError,
    PotentialDomainError,
    QuadratureFailureError,
    QuadratureFloorWarning,
    ScanLimitExceededError,
    SelfCheckError,
    SpeclimitError,
)
from speclimit.models import well_profile
from speclimit.units import HBAR_SI, SI, UNIT_SYSTEMS, UnitSystem

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import bench_workloads as bw  # noqa: E402


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


def test_turning_points_refuse_a_non_finite_energy(osc):
    for e in (math.nan, math.inf, -math.inf):
        with pytest.raises(NoBoundMotionError, match=r"^energy must be a finite number, got "):
            sc.turning_points(osc, e)


def test_turning_points_take_an_energy_that_would_overflow_in_si():
    # 1e300 units of 1e10 J each is inf in SI, but the engine works in the model's units, where the orbit of
    # U = k x^2 / 2 with k / C (C the coherence factor) turns at x = sqrt(2 E C / k)
    giga = UnitSystem("giga", 1.0, 1e10, HBAR_SI / 1e10, 1.0, 1.0)
    amp = math.sqrt(2e300 * giga.factor("coherence"))
    tp = sc.turning_points(sl.harmonic(1.0, 1.0, units=giga), 1e300)
    assert tp.x_minus == pytest.approx(-amp, rel=1e-15) and tp.x_plus == pytest.approx(amp, rel=1e-15)


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


def _morse_terms(model):
    d, a = model.params.depth, model.params.alpha
    return lambda x, e: d * (math.exp(-2.0 * a * x) + 2.0 * math.exp(-a * x))


# kind -> (model, walls (left, right), outward points from the bottom, term scale of U at x)
_TABLE = sl.numeric(1.0, np.linspace(-2.0, 3.0, 14), [0.6, 0.1, 0.45, 0.2, -0.3, -0.5, -0.2, 0.4,
                                                         0.25, 0.9, 0.7, 1.4, 1.1, 1.6])
_MORSE = sl.get_preset("morse-h2")
# every case is in its model's units, as the engine integrates it; "numeric-si" is the table restated in SI
_TP_CASES = {
    "box": (sl.box(), (True, True), lambda m, d: _doubling(0.5, 0.25, d), lambda x, e: abs(e)),  # a = 1
    "harmonic": (sl.harmonic(), (False, False), lambda m, d: _doubling(0.0, 1e-3, d), lambda x, e: abs(e)),
    "hydrogenoid": (sl.get_preset("hydrogen-atomic"), (True, False), lambda m, d: _doubling(0.0, 1e-3, d),
                    lambda x, e: abs(e)),
    "morse": (_MORSE, (False, False), lambda m, d: _doubling(0.0, 1e-3 / m.params.alpha, d), _morse_terms(_MORSE)),
    "numeric": (_TABLE, (False, False), None, lambda x, e: abs(e)),
    "numeric-si": (_TABLE.converted(sl.SI), (False, False), None, lambda x, e: abs(e)),
}


def _knots(model, direction):
    xs = list(model.params.x)
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


def _counted_quadratures(monkeypatch, energies):
    """Append (E, stages) to ``energies`` for each energy integrated, of any stage, alone or in a call with others."""
    quadrature = sc._quadrature

    def counted(profile, es, stages):
        energies.extend((e, stages) for e in es)
        return quadrature(profile, es, stages)

    monkeypatch.setattr(sc, "_quadrature", counted)


def test_quantize_integrates_each_energy_once(monkeypatch):
    # the bracket's top pass is where the Newton start is taken; every pass is a fused one
    xs = np.linspace(-4.0, 4.0, 17)
    table = sl.numeric(1.0, xs, 0.5 * xs**2)
    energies = []
    _counted_quadratures(monkeypatch, energies)
    sc.quantize(table, 3)
    assert len(energies) > 3 and len(energies) == len(set(energies))
    assert {stages for _, stages in energies} == {("action", "period")}


def test_classify_integrates_each_energy_of_a_table_once(monkeypatch):
    # every level's bracket runs from u_min to the same top energy, which the level count reads too; the
    # well keeps the passes it has integrated, so only the count integrates the top
    xs = np.linspace(-4.0, 4.0, 17)
    table = sl.numeric(1.0, xs, 0.5 * xs**2 + 0.05 * xs**4)
    energies = []
    _counted_quadratures(monkeypatch, energies)
    sl.classify(table, (2, 4))
    assert len(energies) > 8 and len(energies) == len(set(energies))
    assert [e for e, _ in energies].count(sc._top(well_profile(table))) == 1


def test_a_level_asked_again_costs_no_quadrature(monkeypatch):
    xs = np.linspace(-4.0, 4.0, 17)
    table = sl.numeric(1.0, xs, 0.5 * xs**2)
    first = sc.quantize(table, 3), sc.numeric_level_count(table), sc._place(table, [3])

    def integrated(profile, es, stages):
        raise AssertionError(f"the {stages} at E={es!r} was integrated again")

    monkeypatch.setattr(sc, "_quadrature", integrated)
    assert (sc.quantize(table, 3), sc.numeric_level_count(table), sc._place(table, [3])) == first


def test_action_and_period_check_read_stored_passes_but_store_none():
    xs = np.linspace(-4.0, 4.0, 17)
    table = sl.numeric(1.0, xs, 0.5 * xs**2)
    e2 = sc.quantize(table, 2).energy
    stored = dict(well_profile(table).passes)
    sweep = np.linspace(0.2, 7.0, 25)
    for e in sweep:
        sc.action(table, float(e))
        sc.period_check(table, float(e))
    assert well_profile(table).passes == stored
    # the level's energy is the last pass of its search, so its action and period are read from the store
    assert stored[e2] == (sc._action_of(well_profile(table), e2), sc._period_of(well_profile(table), e2))


# model builder and levels of the wells below; each is quantized after two higher levels
_STORED_WELLS = {
    "numeric": (lambda: sl.numeric(1.0, np.linspace(-4.0, 4.0, 17), 0.5 * np.linspace(-4.0, 4.0, 17) ** 2),
                range(6)),
    "harmonic": (lambda: sl.harmonic(1.0, 1.0), range(6)),
    "morse": (lambda: sl.get_preset("morse-h2"), range(6)),
    "hydrogenoid": (lambda: sl.get_preset("hydrogen-atomic"), range(1, 7)),
}


@pytest.mark.parametrize("kind", sorted(_STORED_WELLS))
def test_levels_of_a_well_that_holds_other_levels_match_a_fresh_well(kind):
    # a stored action is the value the quadrature gives, so what a well holds moves no level by a bit
    build, levels = _STORED_WELLS[kind]
    fresh = {n: sc.quantize(build(), n).energy.hex() for n in levels}
    model = build()
    for n in (levels[-1] + 1, levels[-1] + 2):
        sc.quantize(model, n)
    order = list(levels)
    random.Random(kind).shuffle(order)
    assert {n: sc.quantize(model, n).energy.hex() for n in order} == fresh


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


# -- the level search's typed errors, driven by a stand-in fused pass ------


def _stand_in(monkeypatch, pass_at):
    """Make ``pass_at(profile, e)`` the fused pass at each energy, however many energies one call integrates."""
    monkeypatch.setattr(sc, "_fused_passes", lambda profile, es: [pass_at(profile, e) for e in es])


_TARGET_N1 = 2.0 * math.pi * 1.5  # I(E_1) of a harmonic well in oscillator units (hbar = 1), Maslov count 2


@pytest.mark.parametrize("stage", ["action", "period"])
def test_quantize_nan_pass_raises_quadrature_failure(monkeypatch, stage):
    # a bracketing pass, twice the target from e_scale up over the bottom's 0, but with a NaN action or period in
    # between
    osc = sl.harmonic(1.0, 1.0)
    nan = (math.nan, 1.0) if stage == "action" else (0.5, math.nan)
    _stand_in(monkeypatch, lambda p, e: (2.0 * _TARGET_N1, 1.0) if e >= p.e_scale else nan)
    with pytest.raises(QuadratureFailureError, match=rf"^harmonic level n=1: the {stage} is NaN at E=\d"):
        sc.quantize(osc, 1)


def test_quantize_iteration_cap_raises_scan_limit(monkeypatch):
    # a smooth bracketing pass, I = (E / e_scale)^3 and tau = dI/dE, whose root takes more than 3 steps; uncapped,
    # the search converges on it
    osc = sl.harmonic(1.0, 1.0)
    _stand_in(monkeypatch, lambda p, e: ((e / p.e_scale) ** 3, 3.0 * e * e / p.e_scale**3))
    e1 = sc.quantize(osc, 1).energy
    assert (e1 / well_profile(osc).e_scale) ** 3 == pytest.approx(_TARGET_N1, rel=1e-14)
    monkeypatch.setattr(sc, "_ROOT_MAXITER", 3)
    with pytest.raises(ScanLimitExceededError,
                       match=r"^harmonic level n=2: root search did not converge in 3 iterations \(last E=\d"):
        sc.quantize(osc, 2)


def test_quantize_bisects_where_a_pass_has_no_slope(monkeypatch):
    # a pass with tau = 0, inf, negative or refused (the period stage's error) gives no Newton step: the search
    # bisects and still converges
    osc = sl.harmonic(1.0, 1.0)
    true = sc._fused_passes
    refused = QuadratureFailureError("period at E=1.0: quadrature stalled")

    def flat(profile, e):
        (i, tau), = true(profile, [e])
        return i, (0.0, math.inf, -tau, refused)[int(e * 1e6) % 4] if e < profile.e_scale else tau

    _stand_in(monkeypatch, flat)
    assert sc.quantize(osc, 1).energy == pytest.approx(1.5, rel=1e-14)


def test_no_level_search_makes_a_pass_at_the_well_bottom(monkeypatch):
    # the bottom's I = 0 is _action_of's, so a level search places every level without a pass at u_min
    true = sc._fused_passes

    def above_the_bottom(profile, es):
        if profile.u_min in es:
            raise AssertionError(f"a pass at the well bottom E={profile.u_min!r}")
        return true(profile, es)

    monkeypatch.setattr(sc, "_fused_passes", above_the_bottom)
    xs = np.linspace(-4.0, 4.0, 17)
    for model in (sl.box(), sl.harmonic(), sl.get_preset("morse-h2")):
        for n in range(sl.n_min(model), sl.n_min(model) + 3):
            assert sc.quantize(model, n).energy == pytest.approx(sl.energy_level(model, n).energy, rel=1e-12)
    table = sl.numeric(1.0, xs, 0.5 * xs**2)
    assert [sc.quantize(table, n).energy for n in range(3)] == pytest.approx([0.5, 1.5, 2.5], rel=1e-2)


def test_a_level_whose_period_stalls_is_placed_and_its_period_refused():
    # level 0 of a Morse well 29,348 levels deep lies 3.4e-5 of the depth above the bottom, where E - U near the
    # turning points is too coarse for the period to converge; the action alone places the level, as Brent's
    # search did, and the level's period is refused as it was
    model = _stalled_period_morse()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", QuadratureFloorWarning)
        e0 = sc.quantize(model, 0).energy
    assert e0 == pytest.approx(sl.energy_level(model, 0).energy, rel=1e-15)
    assert isinstance(well_profile(model).passes[e0][1], QuadratureFailureError)
    with pytest.raises(QuadratureFailureError, match=r"^period at E=\S+: quadrature stalled"):
        spectrum(model, [0], "semiclassical")


def test_a_level_whose_period_stalls_is_placed_by_fused_passes_alone(monkeypatch):
    # the pass that places level 0 holds its action beside its period's refusal, so no quadrature of the action
    # alone follows it, and spectrum raises the stored refusal without integrating again
    model = _stalled_period_morse()
    energies = []
    _counted_quadratures(monkeypatch, energies)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", QuadratureFloorWarning)
        e0 = sc.quantize(model, 0).energy
    assert e0.hex() == "-0x1.070b4d499d71ep+6"
    assert energies and {stages for _, stages in energies} == {("action", "period")}

    def integrated(profile, es, stages):
        raise AssertionError(f"the {stages} at E={es!r} was integrated again")

    monkeypatch.setattr(sc, "_quadrature", integrated)
    text = "period at E=-65.76103701613872: quadrature stalled at relative change 1.18e-07 (target 1e-10, floor 1e-08)"
    with pytest.raises(QuadratureFailureError, match=f"^{re.escape(text)}$"):
        spectrum(model, [0], "semiclassical")


@pytest.mark.parametrize("build, value, why", [
    # a Coulomb well has no floor: the lower bracket end deepens toward -inf
    (lambda: sl.get_preset("hydrogen-atomic"), 10.0, "no orbit with action below the target"),  # target 2 pi
    # a harmonic well has no ceiling: the upper bracket end expands toward +inf
    (lambda: sl.harmonic(1.0, 1.0), 0.0, "not reached while expanding the bracket"),
])
def test_bracket_search_gives_up_after_40_steps(monkeypatch, build, value, why):
    energies = []

    def constant(profile, e):
        energies.append(e)
        return value, 1.0

    _stand_in(monkeypatch, constant)
    model = build()
    with pytest.raises(ActionOutOfRangeError, match=f"^{model.kind} level n=1: .*{why}"):
        sc.quantize(model, 1)
    assert len(energies) == len(set(energies)) == 40


def test_bracket_high_steps_toward_a_finite_ceiling_over_an_infinite_floor(monkeypatch):
    # a Coulomb-like stand-in, I = 2 pi hbar sqrt(e_scale / -E) / 1e7 (hbar = 1 in atomic units) with
    # tau = dI/dE = I / (2 |E|), is 0.1 of the n=1 target at the first upper end -1e-12 e_scale; each step quarters
    # the distance to the ceiling 0 and doubles it, so level 1 takes 4 steps and level 2 one more. Level 2 reads
    # the first 4 from the well's passes.
    hyd = sl.get_preset("hydrogen-atomic")
    profile = well_profile(hyd)
    energies = []

    def coulomb(p, e):
        energies.append(e)
        i = 2.0 * math.pi * math.sqrt(p.e_scale / -e) / 1e7
        return i, i / (-2.0 * e)

    _stand_in(monkeypatch, coulomb)
    assert sc.quantize(hyd, 1).energy == pytest.approx(-1e-14 * profile.e_scale, rel=1e-14)
    assert sc.quantize(hyd, 2).energy == pytest.approx(-0.25e-14 * profile.e_scale, rel=1e-14)
    hi, steps = profile.e_ceiling - 1e-12 * profile.e_scale, []
    for _ in range(5):
        hi = profile.e_ceiling - (profile.e_ceiling - hi) / 4.0
        steps.append(hi)
    assert [energies.count(e) for e in steps] == [1] * 5
    assert len(energies) == len(set(energies))


def test_root_search_returns_the_upper_end_where_the_action_meets_the_target(monkeypatch):
    # the upper bracket end of a harmonic well is u_min + e_scale, with u_min = 0
    osc = sl.harmonic(1.0, 1.0)
    _stand_in(monkeypatch, lambda p, e: (_TARGET_N1, 1.0) if e >= p.e_scale else (0.0, 1.0))
    assert sc.quantize(osc, 1).energy == well_profile(osc).e_scale


def test_level_search_errors_name_the_level_and_print_energies_in_full():
    # the golden 13-knot table raised by 1e12: the top of the well rounds onto its ceiling
    xs = np.linspace(-6.0, 6.0, 13)
    table = sl.numeric(1.0, xs, 0.5 * xs**2 + 1e12)
    profile = well_profile(table)
    with pytest.raises(NoBoundMotionError) as info:
        sc.quantize(table, 0)
    assert str(info.value) == (f"numeric level n=0: no bound orbit at E={sc._top(profile)!r}; well supports"
                               f" ({profile.u_min!r}, {profile.e_ceiling!r})")
    assert profile.u_min != profile.e_ceiling  # printed in full, the two ends differ


# -- the fused pass and the Newton search, as properties --------------------


@st.composite
def table_wells(draw):
    """A builder of a table drawn as perfbench's numeric-table workload draws one (13-25 knots)."""
    op = bw.gen_numeric_table(random.Random(draw(st.integers(0, 2**32 - 1))),
                              draw(st.sampled_from(("harmonic", "quartic", "morse"))), draw(st.integers(1, 4)))
    return lambda: sl.numeric(op["mass"], op["x"], op["u"])


@st.composite
def closed_wells(draw):
    """A builder of a closed-form well of any kind, in any unit system, with parameters over a decade."""
    kind = draw(st.sampled_from(("box", "harmonic", "hydrogenoid", "morse")))
    # SI parameters of order 1 make a macroscopic well, whose Morse levels lie some 1e-34 of the depth apart;
    # the engine refuses to place those (a typed stall, ROADMAP item 8), so SI is left to that item
    units = draw(st.sampled_from(sorted((u for u in UNIT_SYSTEMS.values() if u.name != "si"), key=lambda u: u.name)))
    a, b, c = (draw(st.floats(0.2, 5.0)) for _ in range(3))
    z = draw(st.integers(1, 3))
    build = {"box": lambda: sl.box(a, b, units), "harmonic": lambda: sl.harmonic(a, b, units),
             "hydrogenoid": lambda: sl.hydrogenoid(a, z, c, units), "morse": lambda: sl.morse(a, b, c, units)}[kind]
    try:
        build()
    except sl.ModelDefinitionError:  # a Morse well without a bound level
        assume(False)
    return build


def _ladder(model, count: int) -> list[int]:
    """The first ``count`` levels of ``model`` that the engine can place."""
    lo = sl.n_min(model)
    top = sc.numeric_level_count(model) - 1 if model.kind == "numeric" else sl.n_max(model)
    return list(range(lo, lo + count if top is None else min(lo + count, top + 1)))


@settings(max_examples=80, deadline=None)
@given(build=st.one_of(table_wells(), closed_wells()),
       points=st.lists(st.tuples(st.booleans(), st.floats(1e-6, 1.0, exclude_max=True)), min_size=1, max_size=4))
def test_fused_pass_is_the_action_and_the_period(build, points):
    # one quadrature gives both, each accepted at its own orders, so each has the bits of its own quadrature; the
    # passes of several energies share their integrand calls, and each has the bits of its energy's own
    profile = well_profile(build())
    es = [_energy(profile, top, f * 1e-6 if top else f) for top, f in points]
    assume(all(profile.u_min < e < profile.e_ceiling for e in es))
    spell = lambda values: [v.hex() if isinstance(v, float) else (type(v), str(v)) for v in values]  # noqa: E731
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", QuadratureFloorWarning)
        expected = []
        for e in es:
            action = sc._action_of(profile, e)
            try:
                period = sc._period_of(profile, e)
            except QuadratureFailureError as exc:  # E - U too coarse for the period: the pass holds its refusal
                period = exc
            expected.append(spell((action, period)))
        assert [spell(found) for found in sc._fused_passes(profile, es)] == expected


def _level_and_period(model, n: int) -> tuple[float, float]:
    """E_n of ``model``, as ``quantize`` places it, and tau_n, the period of the pass that placed it."""
    e = sc.quantize(model, n).energy
    return e, sc._period_of(well_profile(model), e)


def _placed(model, n: int) -> tuple[str, str]:
    """E_n and tau_n of ``model``, as float.hex."""
    e, tau = _level_and_period(model, n)
    return e.hex(), tau.hex()


@settings(max_examples=40, deadline=None)
@given(build=st.one_of(table_wells(), closed_wells()), order=st.randoms(use_true_random=False))
def test_a_level_has_the_same_bits_whatever_the_well_was_asked_before(build, order):
    # each level on a well of its own, against the same levels asked of one well after others, in random order
    ladder = _ladder(build(), 10)
    levels = ladder[:8]
    fresh = {n: _placed(build(), n) for n in levels}
    model = build()
    asked = list(ladder)  # with two levels above the ones compared, where there are
    order.shuffle(asked)
    shared = {n: _placed(model, n) for n in asked}
    assert {n: shared[n] for n in levels} == fresh


def _stalled_period_morse():
    """The Morse well, 29,348 levels deep, whose level 0 is placed but has no period (see the test above)."""
    return sl.morse(15.03991299842159, 65.76327781021827, 0.023439868264170702, sl.MOLECULAR)


def _outcome_of(place, *args):
    """``place(*args)``, or the (type, text) of the SpeclimitError it raises; floor warnings are ignored."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", QuadratureFloorWarning)
        try:
            return place(*args)
        except SpeclimitError as exc:
            return type(exc), str(exc)


def _placed_alone(build, n: int) -> tuple[str, str]:
    """E_n and tau_n, as float.hex, of level n placed alone on a fresh copy of the model."""
    return _placed(build(), n)


def _spectrum_bits(model, ns) -> dict:
    """``spectrum(model, ns, "semiclassical")``, its E_n and tau_n as float.hex."""
    return {n: (e.hex(), tau.hex()) for n, (e, tau) in spectrum(model, ns, "semiclassical").items()}


@settings(max_examples=40, deadline=None)
@given(build=st.one_of(table_wells(), closed_wells()), order=st.randoms(use_true_random=False))
@example(build=lambda: sl.get_preset("hydrogen-atomic"), order=random.Random(0))  # the deepening lower bracket
@example(build=_stalled_period_morse, order=random.Random(0))
def test_a_spectrum_in_lockstep_has_the_bits_of_each_level_alone(build, order):
    # spectrum places a well's levels in lockstep, integrating the energies its searches ask together; each level,
    # placed alone on a fresh copy of the model, has the same E and tau bits, or the same error, and spectrum
    # raises the error of the first level in its order that has one
    ns = _ladder(build(), 8)
    order.shuffle(ns)
    alone = [_outcome_of(_placed_alone, build, n) for n in ns]
    failed = next((outcome for outcome in alone if isinstance(outcome[0], type)), None)
    assert _outcome_of(_spectrum_bits, build(), ns) == (failed or dict(zip(ns, alone)))


@pytest.mark.parametrize("build", [
    lambda: sl.numeric(1.0, np.linspace(-4.0, 4.0, 17), 0.5 * np.linspace(-4.0, 4.0, 17) ** 2),
    lambda: sl.get_preset("morse-h2"),
], ids=["table", "morse"])
def test_a_level_with_another_maslov_count_is_searched_for_anew(build):
    # the well keeps passes by energy, not levels by n: after a spectrum with the kind's default count, level n with
    # nu = 0 has its own target, and quantize gives it the bits it has on a fresh copy of the model
    model = build()
    levels = spectrum(model, range(1, 6), "semiclassical")
    for n in range(1, 6):
        e = sc.quantize(model, n, maslov=0).energy
        assert e.hex() == sc.quantize(build(), n, maslov=0).energy.hex()
        assert e != levels[n][0]


@pytest.mark.parametrize("ns", [[1, True], [True, 1], [2, 2.0]])
def test_a_quantum_number_that_is_no_integer_is_refused_beside_the_integer_it_equals(ns):
    # True == 1 and 2.0 == 2 are one dict key, so the placed level must not answer for the refused quantum number
    table = sl.numeric(1.0, np.linspace(-4.0, 4.0, 17), 0.5 * np.linspace(-4.0, 4.0, 17) ** 2)
    bad = next(n for n in ns if type(n) is not int)
    text = f"quantum number must be an integer in [0, {2**53}], got {bad}"
    with pytest.raises(OutOfRangeError, match=f"^{re.escape(text)}$"):
        spectrum(table, ns, "semiclassical")


_CAPACITY_TABLE = (np.linspace(-4.0, 4.0, 17), 0.5 * np.linspace(-4.0, 4.0, 17) ** 2)
_LIFTED_TABLE = (np.linspace(-6.0, 6.0, 13), 0.5 * np.linspace(-6.0, 6.0, 13) ** 2 + 1e12)


@pytest.mark.parametrize("build, ns, error, text", [
    # level 0 is placed, and its period stalls; levels 3 and 1 come first
    (_stalled_period_morse, [3, 1, 0, 2], QuadratureFailureError,
     "period at E=-65.76103701613872: quadrature stalled at relative change 1.18e-07 (target 1e-10, floor 1e-08)"),
    # the search of level 17, past the well's capacity, raises while those of 15 and 16 go on
    (lambda: sl.get_preset("morse-h2"), [15, 17, 16], ActionOutOfRangeError,
     "morse level n=17: target action 72.37418469616753 exceeds the well capacity 72.00180611893455 at"
     " E=-4.7446002682249855e-09"),
    (lambda: sl.numeric(1.0, *_CAPACITY_TABLE), [2, 9, 1], ActionOutOfRangeError,
     "numeric level n=9: target action 59.690260418206066 exceeds the well capacity 50.26620695301523 at"
     " E=7.999999992"),
    # level 0 of a Coulomb well has no target
    (lambda: sl.get_preset("hydrogen-atomic"), [2, 0, 1], ActionOutOfRangeError,
     "target action is zero: degenerate orbit at the well bottom"),
    # the top of the well rounds onto its ceiling, so no search passes the pass that brackets every level
    (lambda: sl.numeric(1.0, *_LIFTED_TABLE), [1, 0], NoBoundMotionError,
     "numeric level n=1: no bound orbit at E=1000000000018.0; well supports (1000000000000.0, 1000000000018.0)"),
    # a well whose profile leaves the float range, asked first for a level that has no quantum number
    (lambda: sl.numeric(1.0, [0.0, 1e-300, 2e-300], [1e300, 0.0, 1e300]), [-1, 0], OutOfRangeError,
     "quantum number must be an integer in [0, 9007199254740992], got -1"),
    (lambda: sl.numeric(1.0, [0.0, 1e-300, 2e-300], [1e300, 0.0, 1e300]), [0, -1], sl.FloatRangeError,
     "numeric: a cubic piece of the table leaves the float range"),
], ids=["period-stalls", "morse-past-capacity", "table-past-capacity", "coulomb-n0", "top-on-ceiling",
       "bad-n-first", "bad-profile-first"])
def test_a_range_with_a_failing_level_raises_that_levels_error(build, ns, error, text):
    # the error, type and text, that spectrum raised when it placed one level after another
    assert _outcome_of(lambda: spectrum(build(), ns, "semiclassical")) == (error, text)


@settings(max_examples=60, deadline=None)
@given(build=closed_wells(), start=st.integers(0, 60))
def test_closed_kind_levels_match_the_closed_forms(build, start):
    # EBK with the kind's Maslov count is exact for the four closed kinds; 1.5e-14 is the worst error the Brent
    # search reached on the presets (hydrogen, n = 51)
    model = build()
    levels = _ladder(model, start + 4)[start:]
    for n in levels:
        exact = sl.energy_level(model, n).energy
        assert abs(sc.quantize(model, n).energy / exact - 1.0) <= 1.5e-14, (model.kind, n)


@pytest.mark.parametrize("build, n", [
    (lambda: sl.box(1.2345e-291, 1e140, sl.ATOMIC), 1),  # a subnormal SI mass, 1.1e-321 kg: off by 1.7e-3 in SI
    (lambda: sl.box(1e244, 1.0), 2),  # E_2 = 1.97e-243, whose SI value is 2.2e-311 J: off by 2.7e-14 in SI
])
def test_a_box_whose_si_values_lose_digits_keeps_its_levels(build, n):
    # the engine integrates the box in its own units, where its parameters and level are normal floats
    model = build()
    e, tau = _level_and_period(model, n)
    assert abs(e / sl.energy_level(model, n).energy - 1.0) <= 1.5e-14
    assert abs(tau / sl.classical_period(model, n).tau - 1.0) <= 1.5e-14


def test_a_level_past_the_float_range_is_refused():
    # E_1 of this box is 4.9e310 in natural-box units: its bracket expands past the largest float
    with pytest.raises(sl.FloatRangeError, match=r"^box level n=1: the level's bracket leaves the float range"):
        sc.quantize(sl.box(1e-300, 1e-5), 1)


# The same well stated in each unit system: E_n and tau_n, restated in SI, spread by at most these, relative.
# Each budget is 4 times the worst spread measured over 3,000 draws of the wells below and the corners of their
# parameter ranges: E 3.6e-15 (harmonic), and tau by kind box 1.9e-15, numeric 1.9e-14, harmonic 1.9e-13,
# hydrogenoid 3.8e-13 and morse 1.8e-11 (zeta = 547). The closed kinds but the box form E - U by subtraction near
# the turning points, which a deep Morse well feels most (ROADMAP item 6).
_UNITS_E_SPREAD = 1.5e-14
_UNITS_TAU_SPREAD = {"box": 8e-15, "numeric": 8e-14, "harmonic": 8e-13, "hydrogenoid": 1.6e-12, "morse": 8e-11}


def _in_si(model, n: int) -> tuple[float, float]:
    """E_n and tau_n of ``model``, restated in SI."""
    e, tau = _level_and_period(model, n)
    return model.units.to_si(e, "energy"), model.units.to_si(tau, "time")


@settings(max_examples=60, deadline=None)
@given(build=st.one_of(table_wells(), closed_wells()))
def test_a_well_has_the_same_levels_and_periods_in_every_unit_system(build):
    # the engine integrates each model in its own units, with the mass (and a harmonic stiffness) over the
    # system's coherence factor, so the five statements of one well differ only by the rounding of their parameters
    model = build()
    for n in _ladder(model, 3):
        es, taus = zip(*(_in_si(model.converted(u), n) for u in UNIT_SYSTEMS.values()))
        assert max(es) - min(es) <= _UNITS_E_SPREAD * max(map(abs, es)), (model, n, es)
        assert max(taus) - min(taus) <= _UNITS_TAU_SPREAD[model.kind] * max(taus), (model, n, taus)


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


def test_period_self_check_refuses_a_period_that_disagrees_with_the_action(monkeypatch):
    model = sl.harmonic(1.0, 1.0)  # a fresh well, with no stored period to answer in place of the stand-in
    period_of = sc._period_of
    monkeypatch.setattr(sc, "_period_of", lambda profile, e: period_of(profile, e) * (1.0 + 1e-5))
    with pytest.raises(SelfCheckError, match=r"^period at E=3\.0 disagrees with dI/dE by 1e-05 relative"):
        sc.period_of_energy(model, 3.0)
    assert sc.period_of_energy(model, 3.0, self_check=False) == pytest.approx(2 * math.pi * (1.0 + 1e-5), rel=1e-10)


def test_least_of_a_series_whose_vertex_lies_inside():
    # 1 - 2 s + s^2 has its vertex at s = 1, inside [0, 3], where it is 0
    assert sc._least((1.0, -2.0, 1.0), 3.0) == 0.0
    assert sc._least((1.0, -2.0, 1.0), 0.5) == 0.25  # the vertex lies past the top


def test_level_passes_are_stored_but_public_period_queries_store_none(monkeypatch):
    xs = np.linspace(-4.0, 4.0, 17)
    table = sl.numeric(1.0, xs, 0.5 * xs**2 + 0.05 * xs**4)
    levels = spectrum(table, (1, 2))
    profile = well_profile(table)
    stored = dict(profile.passes)
    assert len(stored) >= 3  # the top and at least one pass for each level
    for e in np.linspace(0.2, 7.0, 9):
        sc.period_of_energy(table, float(e), self_check=False)
        sc.period_check(table, float(e))
    sc.action_curve(table, np.linspace(0.3, 6.0, 5))
    assert profile.passes == stored

    def integrated(profile, es, stages):
        raise AssertionError(f"the {stages} at E={es!r} was integrated again")

    monkeypatch.setattr(sc, "_quadrature", integrated)
    assert spectrum(table, (2, 1)) == levels
    e1 = sc.quantize(table, 1).energy
    assert profile.passes[e1][1] == levels[1][1]
    assert sc._period_of(profile, e1) == profile.passes[e1][1]  # read from the store


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


@pytest.mark.parametrize("maslov", [7, -8, 2.5, True])
def test_maslov_count_is_checked(maslov):
    # a 7-knot harmonic table counted 3, 7 and 4 levels for the first three; quantize took True as 1
    table = sl.numeric(1.0, np.linspace(-3.0, 3.0, 7), 0.5 * np.linspace(-3.0, 3.0, 7) ** 2)
    with pytest.raises(OutOfRangeError, match="maslov count must be an integer in"):
        sc.numeric_level_count(table, maslov=maslov)
    with pytest.raises(OutOfRangeError, match="maslov count must be an integer in"):
        sc.quantize(table, 1, maslov=maslov)


def test_numeric_bound_levels(numeric_harmonic):
    levels = sl.bound_levels(numeric_harmonic, 4)
    assert [lv.n for lv in levels] == [0, 1, 2, 3]
    for lv in levels:
        assert lv.energy == pytest.approx(lv.n + 0.5, rel=1e-6)


def test_bound_levels_of_a_table_are_placed_together(monkeypatch):
    # bound_levels places a table's levels in lockstep, as spectrum does: each level has the bits it has placed
    # alone, and after the level count they take no more fused-pass calls than spectrum's on a fresh copy
    xs = np.linspace(-3.0, 3.0, 17)
    build = lambda: sl.numeric(1.0, xs, 0.5 * xs**2 + 0.1 * xs**4)  # noqa: E731
    alone = [sc.quantize(build(), n).energy.hex() for n in range(8)]
    fused_passes, calls = sc._fused_passes, []

    def counted(profile, es):
        calls.append(es)
        return fused_passes(profile, es)

    monkeypatch.setattr(sc, "_fused_passes", counted)

    def after_the_count(place):
        model = build()
        sc.numeric_level_count(model)
        calls.clear()
        return place(model), len(calls)

    levels, together = after_the_count(lambda model: sl.bound_levels(model, 8))
    _, in_spectrum = after_the_count(lambda model: spectrum(model, range(8), "semiclassical"))
    assert [(lv.n, lv.energy.hex()) for lv in levels] == list(enumerate(alone))
    assert together <= in_spectrum


# -- period quadrature near knots -----------------------------------------


def _adaptive_alone(f, segments, stages, e):
    """``sc._adaptive`` at the one energy ``e``, with no stage known up front: its stage values, or a stall raised."""
    (found,) = sc._adaptive(f, [(e, segments, (None,) * len(stages))], stages)
    return [sc._raised(value) for value in found]


def test_adaptive_warns_on_floor_acceptance(monkeypatch):
    # t^1.5 has an endpoint singularity: Gauss-Legendre orders 32 and 64 agree
    # only to about 5e-9, between the target and the floor. Stopping at order
    # 64 spares the test the seconds that the order-512 and 1024 rules take.
    monkeypatch.setattr(sc, "_GL_ORDERS", (16, 32, 64))
    accepted = r"^period at E=0\.25: quadrature accepted at relative change 5(\.\d+)?e-09"
    with pytest.warns(QuadratureFloorWarning, match=accepted):
        (value,) = _adaptive_alone(lambda t, rows: [t**1.5], [(0.0, 1.0)], ("period",), 0.25)
    assert value == pytest.approx(0.4, rel=1e-8)


def test_adaptive_accepts_each_stage_at_its_own_orders(monkeypatch):
    # a smooth action and a t^1.5 period in one call: the action converges at order 32, and the period,
    # which goes on alone, is accepted at the floor and warns; each value is the one-stage call's
    monkeypatch.setattr(sc, "_GL_ORDERS", (16, 32, 64))
    both = lambda t, rows: [np.exp(t), t**1.5]
    with pytest.warns(QuadratureFloorWarning, match=r"^period at E=0\.25: "):
        action, period = _adaptive_alone(both, [(0.0, 1.0)], ("action", "period"), 0.25)
        (alone,) = _adaptive_alone(lambda t, rows: [t**1.5], [(0.0, 1.0)], ("period",), 0.25)
    assert action == _adaptive_alone(lambda t, rows: [np.exp(t)], [(0.0, 1.0)], ("action",), 0.25)[0]
    assert period == alone
    with pytest.raises(QuadratureFailureError, match=r"^action at E=0\.25: quadrature stalled"):
        _adaptive_alone(lambda t, rows: [t**0.5, np.exp(t)], [(0.0, 1.0)], ("action", "period"), 0.25)


def test_quadrature_errors_name_the_stage_and_energy(monkeypatch):
    from speclimit.models import well_profile

    monkeypatch.setattr(sc, "_GL_ORDERS", (8, 16))  # too few orders for a Morse orbit's action to converge
    profile = well_profile(sl.get_preset("morse-h2"))
    e = 0.5 * profile.u_min
    with pytest.raises(QuadratureFailureError, match=rf"^action at E={re.escape(repr(e))}: quadrature stalled at"):
        sc._action_of(profile, e)
    with pytest.warns(QuadratureFloorWarning, match=rf"^period at E={re.escape(repr(e))}: quadrature accepted at"):
        sc._period_of(profile, e)
    # quantize names the model and the level first
    with pytest.raises(QuadratureFailureError,
                       match=r"^morse level n=3: action at E=-\d\S*: quadrature stalled at relative change "):
        sc.quantize(sl.get_preset("morse-h2"), 3)


def test_a_floor_warning_is_issued_once_per_model(monkeypatch):
    # with 8 and 16 nodes, the action of a Morse orbit at 0.9 of the depth is accepted at the floor
    monkeypatch.setattr(sc, "_GL_ORDERS", (8, 16))
    model = sl.get_preset("morse-h2")
    e = -0.9 * model.params.depth
    profile = well_profile(model)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        profile.passes[e] = sc._raised(sc._fused_passes(profile, [e])[0])  # a level search's pass, as _place stores it
        first = profile.passes[e][0]
        assert sc._action_of(profile, e) == first  # read from the well's stored actions
        assert sc.action(model, e) == first
        assert sc.action(sl.get_preset("morse-h2"), e) == first  # a new model integrates it again
    assert [type(w.message) for w in caught] == [QuadratureFloorWarning] * 2


# name -> (table ends, potential) of the wells tabulated below
_KNOT_SHAPES = {
    "harmonic": (-4.0, 4.0, lambda x: 0.5 * x * x),
    "quartic": (-3.0, 3.0, lambda x: 0.5 * x * x + 0.1 * x**4),
    "morse": (-1.5, 6.0, lambda x: 20.0 * (np.exp(-1.6 * x) - 2.0 * np.exp(-0.8 * x))),
}


@settings(max_examples=150, deadline=None)
@given(shape=st.sampled_from(sorted(_KNOT_SHAPES)), knots=st.integers(13, 25), mass=st.floats(0.5, 2.0),
       side=st.sampled_from((-1, 1)), outward=st.integers(1, 24), log_f=st.floats(-7.0, -3.0))
def test_period_converges_with_turning_point_just_past_a_knot(shape, knots, mass, side, outward, log_f):
    """A turning point 1e-7 to 1e-3 knot spacings past a knot: the period reaches 1e-10."""
    from speclimit.models import well_profile

    lo, hi, u = _KNOT_SHAPES[shape]
    xs = np.linspace(lo, hi, knots)
    us = u(xs)
    j = int(np.argmin(us)) + side * outward
    assume(0 < j < knots - 1)
    profile = well_profile(sl.numeric(mass, xs, us))
    inner = profile.pieces.knots[1:-1]  # the interior knots
    knot, h = inner[j - 1], inner[1] - inner[0]
    e = float(profile.potential(knot + side * 10.0**log_f * h))
    # an orbit barely above a flat bottom piece (two equal knot values at the
    # minimum) has E - U tiny against E across that whole piece, so its period
    # cannot be known to 1e-10 from a rounded E; such orbits are left out
    assume(profile.u_min + 1e-4 * (profile.e_ceiling - profile.u_min) < e < profile.e_ceiling)
    turning = profile.turning_points(e)[(side + 1) // 2]
    assert 0.0 < (turning - knot) * side < 2.0 * 10.0**log_f * h
    with warnings.catch_warnings():
        warnings.simplefilter("error", QuadratureFloorWarning)
        tau = sc._period_of(profile, e)
    # order 1024 of E - U formed by subtraction is good to about 1e-8 there
    assert tau == pytest.approx(_subtracted_period(profile, e), rel=1e-7)


def _subtracted_period(profile, e: float) -> float:
    """The period at Gauss-Legendre order 1024, with E - U(x) formed by subtraction."""
    xm, xp = profile.turning_points(e)
    dx = xp - xm
    nodes, weights = sc._gl_rule(1024)
    total = 0.0
    segments, _ = sc._theta_segments(profile, xm, xp)
    for a, b in segments:
        theta = 0.5 * (a + b) + 0.5 * (b - a) * nodes
        s = np.sin(theta)
        r = np.sqrt(np.maximum(e - profile.potential(xm + dx * s * s), 0.0))
        f = np.sin(2.0 * theta) / np.where(r > 0.0, r, math.inf)  # 0 where E - U rounds to 0 or below
        total += 0.5 * (b - a) * float(np.dot(weights, f))
    return math.sqrt(2.0 * profile.mass) * dx * total


# (seed, op index) in perfbench's op_stream("numeric-table", seed) -> (mass, n, x, u).
# classify(table, (n, n + 2)) on each stalled with QuadratureFailureError at
# 1.4e-8 to 2.3e-8 while E - U was formed by subtraction on the end segments.
_STALLED_TABLES = {
    (1, 610): (0.9503231441265041, 1,  # morse, 14 knots
        (-2.992376719814328, -2.346099249358807, -1.6998217789032868, -1.0535443084477663, -0.4072668379922457,
        0.23901063246327459, 0.8852881029187953, 1.531565573374316, 2.1778430438298364, 2.8241205142853567,
        3.470397984740877, 4.116675455196399, 4.762952925651918, 5.409230396107438),
        (-0.24804439589043575, -11.494468188403399, -18.27339589846554, -21.954108039941495,
        -23.522666450403797, -23.684914237767693, -22.94233455396843, -21.64784792389414, -20.046790906725036,
        -18.306957202491446, -16.54057314947775, -14.820331795497074, -13.191055793710632, -11.678149146582037),
    ),
    (6, 767): (0.9988427613165265, 1,  # harmonic, 22 knots
        (-3.529069478979134, -3.192967623838264, -2.856865768697394, -2.5207639135565243, -2.1846620584156544,
        -1.8485602032747845, -1.5124583481339147, -1.1763564929930448, -0.8402546378521749, -0.504152782711305,
        -0.16805092757043516, 0.16805092757043472, 0.5041527827113046, 0.840254637852174, 1.1763564929930443,
        1.5124583481339147, 1.848560203274784, 2.1846620584156535, 2.520763913556524, 2.856865768697394,
        3.1929676238382636, 3.529069478979134),
        (7.565298050060493, 6.192908381115279, 4.957757679064586, 3.859845943908415, 2.8991731756467654,
        2.0757393742796366, 1.3895445398070296, 0.840588672228944, 0.42887177154537964, 0.15439383775633672,
        0.017154870861815222, 0.01715487086181513, 0.15439383775633644, 0.4288717715453787, 0.8405886722289433,
        1.3895445398070296, 2.0757393742796357, 2.8991731756467627, 3.859845943908414, 4.957757679064586,
        6.192908381115278, 7.565298050060493),
    ),
    (141, 196): (1.9398693151775086, 4,  # harmonic, 16 knots
        (-3.801815875670807, -3.2949070922480326, -2.7879983088252587, -2.2810895254024843, -1.77418074197971,
        -1.2672719585569356, -0.7603631751341617, -0.2534543917113874, 0.25345439171138695, 0.7603631751341609,
        1.2672719585569356, 1.7741807419797095, 2.2810895254024834, 2.7879983088252582, 3.294907092248032,
        3.801815875670807),
        (10.418942394640748, 7.825783398641272, 5.603075687784582, 3.7508192620706704, 2.269014121499541,
        1.1576602660711943, 0.4167576957856303, 0.04630641064284787, 0.04630641064284771, 0.4167576957856294,
        1.1576602660711943, 2.2690141214995396, 3.7508192620706673, 5.60307568778458, 7.8257833986412715,
        10.418942394640748),
    ),
    (148, 191): (1.3175878516310582, 3,  # harmonic, 19 knots
        (-3.305802621147278, -2.9384912187975805, -2.571179816447883, -2.203868414098185, -1.8365570117484877,
        -1.4692456093987902, -1.1019342070490925, -0.734622804699395, -0.3673114023496975, 0.0,
        0.3673114023496975, 0.7346228046993954, 1.101934207049093, 1.4692456093987905, 1.836557011748488,
        2.2038684140981855, 2.571179816447883, 2.9384912187975805, 3.305802621147278),
        (9.113218690995026, 7.200567854613356, 5.51293476368835, 4.050319418220011, 2.8127218182083418,
        1.800141963653339, 1.0125798545550027, 0.4500354909133345, 0.11250887272833363, 0.0,
        0.11250887272833363, 0.45003549091333506, 1.0125798545550035, 1.8001419636533391, 2.812721818208342,
        4.050319418220012, 5.51293476368835, 7.200567854613356, 9.113218690995026),
    ),
    (157, 180): (1.1055999996554589, 4,  # morse, 13 knots
        (-5.172577963681677, -3.845686734923686, -2.5187955061656955, -1.1919042774077049, 0.13498695135028616,
        1.4618781801082772, 2.7887694088662673, 4.115660637624259, 5.442551866382249, 6.76944309514024,
        8.096334323898231, 9.423225552656222, 10.750116781414214),
        (9.247913790535598, -4.67975827732907, -11.804448338599865, -14.839953087182696, -15.498220433782713,
        -14.846103069255454, -13.537370260769737, -11.963177414130543, -10.349309706434761, -8.818746034395604,
        -7.4316787063528995, -6.210919925907529, -5.1578705654246395),
    ),
}


@pytest.mark.parametrize("op", sorted(_STALLED_TABLES))
def test_stalled_tables_classify(op):
    mass, n, xs, us = _STALLED_TABLES[op]
    report = sl.classify(sl.numeric(mass, xs, us), (n, n + 2))
    assert [g.n for g in report.gaps] == [n, n + 1, n + 2]


def test_period_of_an_orbit_on_one_piece():
    # an orbit with no knot strictly inside it lies on one piece and has one theta-segment. PCHIP pieces are
    # monotone, so on a table that happens only where a turning point rounds onto the bottom knot (see
    # tests/test_reference.py::test_every_table_orbit_spans_two_segments); its period is refused, naming E and
    # u_min, with no warning. U = x^2 on the one piece [-1, 1], a profile built by hand
    from speclimit.models import WellProfile
    from speclimit.profiles import CubicPieces

    mass, e = 1.7, 0.25
    pieces = CubicPieces(knots=np.array([-1.0, 1.0]), coefs=np.array([[0.0], [1.0], [-2.0], [1.0]]))
    profile = WellProfile(mass=mass, potential=pieces, turning_points=lambda en: (-math.sqrt(en), math.sqrt(en)),
                          u_min=0.0, e_ceiling=1.0, e_scale=1.0, pieces=pieces)
    assert pieces(np.array([-0.5, 0.0, 0.5])).tolist() == [0.25, 0.0, 0.25]
    assert len(sc._theta_segments(profile, -0.5, 0.5)[0]) == 1
    text = ("numeric: no period at E=0.25, within rounding of the well bottom u_min=0.0 (a turning point rounds onto"
            " the bottom knot)")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureFailureError, match=f"^{re.escape(text)}$"):
            sc._period_of(profile, e)


# a table whose left piece is nearly flat at its bottom knot (U' and U'' about 0 there), so the period grows
# toward the bottom; SI, mass 1
_FLAT_BOTTOM_TABLE = (
    (3.58e-14, 5.3701027606966, 5.3711027606966, 5.372102760696601, 6.3519687506059945),
    (0.0, -9.907168410584577, -7.763315000956611, 2.13e-151, 0.9798659899093938),
)


def test_period_within_rounding_of_a_table_bottom_is_a_typed_error():
    from speclimit.units import SI

    model = sl.numeric(1.0, *_FLAT_BOTTOM_TABLE, units=SI)
    u_min = min(_FLAT_BOTTOM_TABLE[1])
    ulps = [u_min]
    for _ in range(100):
        ulps.append(math.nextafter(ulps[-1], math.inf))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # 1 ulp up the left turning point rounds onto the bottom knot; 2 ulps up its factored E - U rounds below 0
        for k, why in ((1, "a turning point rounds onto the bottom knot"), (2, "E - U on an end piece rounds")):
            with pytest.raises(QuadratureFailureError) as ei:
                sc.period_of_energy(model, ulps[k], self_check=False)
            assert str(ei.value).startswith(f"numeric: no period at E={ulps[k]!r}, within rounding of the well"
                                            f" bottom u_min={u_min!r} ({why}")
        got = [sc.period_of_energy(model, ulps[k], self_check=False) for k in (3, 4, 100)]
    assert got == [2063.14958505158, 1518.2700484837644, 664.1252256172749]


def _flat_bottom_energy(ulps: int):
    """The energy ``ulps`` floats above the bottom of ``_FLAT_BOTTOM_TABLE``."""
    e = min(_FLAT_BOTTOM_TABLE[1])
    for _ in range(ulps):
        e = math.nextafter(e, math.inf)
    return e


@pytest.mark.parametrize("build, e", [
    # the period stalls, and the action converges
    (_stalled_period_morse, -65.76103701613872),
    # the period is refused near a table's bottom (one segment; an end piece's E - U rounding below 0), and the
    # action stalls there
    (lambda: sl.numeric(1.0, *_FLAT_BOTTOM_TABLE, units=SI), _flat_bottom_energy(1)),
    (lambda: sl.numeric(1.0, *_FLAT_BOTTOM_TABLE, units=SI), _flat_bottom_energy(2)),
], ids=["morse-period-stalls", "table-one-segment", "table-end-piece"])
def test_a_fused_pass_holds_the_actions_outcome_beside_the_periods_refusal(build, e):
    # each stage of one fused pass has the outcome of its own quadrature, value or error, on a fresh copy
    def outcome(read):
        try:
            return read().hex()
        except SpeclimitError as exc:
            return type(exc), str(exc)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", QuadratureFloorWarning)
        (action, period), = sc._fused_passes(well_profile(build()), [e])
        expected = [outcome(lambda: sc._action_of(well_profile(build()), e)),
                    outcome(lambda: sc._period_of(well_profile(build()), e))]
    assert isinstance(period, QuadratureFailureError)
    assert [outcome(lambda: sc._raised(action)), outcome(lambda: sc._raised(period))] == expected


# -- batched quadrature against the per-panel reference ---------------------


def _reference_adaptive(f, segments, stages, e, at=0) -> list[float]:
    # each stage on its own, with one integrand call per panel per order; the segments are rows at, at + 1, ...
    def panel(i, order, j):
        a, b = segments[i]
        nodes, weights = sc._gl_rule(order)
        half = 0.5 * (b - a)
        rows = slice(at + i, at + i + 1)
        return half * float(np.dot(weights, f((0.5 * (a + b) + half * nodes)[None, :], rows)[j][0]))

    out = []
    for j in range(len(stages)):
        prev = None
        rel = math.inf
        for order in sc._GL_ORDERS:
            val = sum(panel(i, order, j) for i in range(len(segments)))
            if prev is not None:
                rel = abs(val - prev) / max(abs(val), 1e-300)
                if rel <= sc._RTOL_TARGET:
                    break
            prev = val
        else:
            if rel > sc._RTOL_FLOOR:
                raise sc.QuadratureFailureError(f"quadrature stalled at relative change {rel:.3g}")
            val = prev
        out.append(val)
    return out


def _reference_groups(f, groups, stages) -> list:
    """``_reference_adaptive`` on each energy of ``groups`` in turn, on its own rows, a stall given to every stage.

    A stage whose outcome the group knows up front keeps it.
    """
    found, at = [], 0
    for e, segments, known in groups:
        try:
            values = _reference_adaptive(f, segments, stages, e, at)
        except QuadratureFailureError as exc:
            values = [exc] * len(stages)
        found.append(tuple(value if outcome is None else outcome for outcome, value in zip(known, values)))
        at += len(segments)
    return found


def _bit_identity_cases():
    """(profile, energies) for a PCHIP table, a Morse well and the Coulomb well."""
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
    return [(well_profile(m), es) for m, es in energies.items()]


def test_batched_quadrature_matches_per_panel_reference(monkeypatch):
    # the fused passes of a well's energies in one call, against each energy's on its own by the reference
    cases = _bit_identity_cases()
    batched = [([(sc._action_of(p, e), sc._period_of(p, e)) for e in es], sc._fused_passes(p, es)) for p, es in cases]
    monkeypatch.setattr(sc, "_adaptive", _reference_groups)
    reference = [([(sc._action_of(p, e), sc._period_of(p, e)) for e in es], [sc._fused_passes(p, [e])[0] for e in es])
                 for p, es in cases]
    assert batched == reference


def test_per_segment_potential_matches_searched_potential(monkeypatch):
    # each theta-segment's piece, broadcast over its row, against profile.potential's search for every node
    from speclimit.models import well_profile
    from speclimit.profiles import CubicPieces

    cases = [case for case in _bit_identity_cases() if case[0].pieces is not None]
    for mass, _, xs, us in _STALLED_TABLES.values():
        profile = well_profile(sl.numeric(mass, xs, us))
        cases.append((profile, [profile.u_min + f * (profile.e_ceiling - profile.u_min) for f in (0.01, 0.3, 0.97)]))
    per_segment = [[(sc._action_of(p, e), sc._period_of(p, e)) for e in es] for p, es in cases]
    monkeypatch.setattr(CubicPieces, "_on_rows", lambda table, pieces: lambda x, rows: table(x))
    searched = [[(sc._action_of(p, e), sc._period_of(p, e)) for e in es] for p, es in cases]
    assert per_segment == searched


def _row_integrand(rates, calls):
    """One smooth integrand per stage, whose row i oscillates at rates[stage][i]; each call's rows go to ``calls``."""
    rates = np.asarray(rates)

    def f(theta, rows):
        calls.append(rows)
        return [np.exp(np.sin(stage[rows][:, None] * theta)) for stage in rates]

    return f


def _outcome(adaptive, f, segments, stages):
    """The stages' values as float.hex, or "stalled"; a floor warning is not an outcome."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", QuadratureFloorWarning)
        try:
            return [value.hex() for value in adaptive(f, segments, stages, 1.0)]
        except QuadratureFailureError:
            return "stalled"


@settings(max_examples=150, deadline=None)
@given(panels=st.lists(st.tuples(st.floats(0.0, 1.5), st.floats(1e-3, 1.5), st.floats(0.0, 40.0),
                                 st.floats(0.0, 40.0)), min_size=1, max_size=30),
       orders=st.sampled_from([(8, 16), (16, 32, 64), sc._GL_ORDERS]))
def test_joined_first_orders_match_the_per_panel_reference(panels, orders):
    # the first two orders share one integrand call, for both stages of a fused pass; each stage's sums must
    # equal one call per panel per order for that stage alone bit for bit, and a call must make the rows it is
    # given, so a mix-up of rows, stages or rule columns shows
    segments = [(a, a + width) for a, width, _, _ in panels]
    rates = [[rate for _, _, rate, _ in panels], [rate for _, _, _, rate in panels]]
    calls, alone, reached = [], [], []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sc, "_GL_ORDERS", orders)
        got = _outcome(_adaptive_alone, _row_integrand(rates, calls), segments, ("action", "period"))
        for stage_rates in rates:
            reference_calls = []
            alone.append(_outcome(_reference_adaptive, _row_integrand([stage_rates], reference_calls), segments,
                                  ("action",)))
            reached.append(len(reference_calls) // len(segments))  # the orders the reference integrated
    assert got == ("stalled" if "stalled" in alone else [value for (value,) in alone])
    assert len(calls) == max(max(reached) - 1, 1)


def test_integrand_calls_are_one_fewer_than_the_orders_reached():
    # exp(sin(w theta)) on [0, pi/2] converges at the k-th of the default orders for these rates
    for rate, k in ((0.5, 2), (5.0, 3), (10.0, 4), (20.0, 5), (40.0, 6), (100.0, 7)):
        calls, reference_calls = [], []
        value = _adaptive_alone(_row_integrand([[rate]], calls), [(0.0, math.pi / 2)], ("action",), 1.0)
        assert value == _reference_adaptive(_row_integrand([[rate]], reference_calls), [(0.0, math.pi / 2)],
                                            ("action",), 1.0)
        assert (len(reference_calls), len(calls)) == (k, k - 1)


# 16+32 columns of the joined first call, and the widest order's own call
_PANEL_BLOCK = 16 + 32 + max(sc._GL_ORDERS)


@settings(max_examples=200, deadline=None)
@given(order=st.sampled_from(sc._GL_ORDERS), rows=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
       exponents=st.tuples(st.integers(-330, 300), st.integers(-330, 300)), zeros=st.floats(0.0, 0.5),
       negative=st.floats(0.0, 1.0))
def test_panel_sums_by_vecdot_match_per_row_dots(order, rows, seed, exponents, zeros, negative):
    # one vecdot per order must run the per-row dot kernel: values from 1e-330 (subnormal or zero) to 1e300,
    # zeros and mixed signs, on rows copied out of column slices as _adaptive copies them
    rng = np.random.default_rng(seed)
    lo, hi = sorted(exponents)
    block = rng.uniform(1.0, 10.0, (rows, _PANEL_BLOCK)) * 10.0 ** rng.integers(lo, hi, (rows, _PANEL_BLOCK),
                                                                                  endpoint=True)
    block[rng.random(block.shape) < zeros] = 0.0
    block[rng.random(block.shape) < negative] *= -1.0
    first, second = sc._GL_ORDERS[:2]
    start = {first: 0, second: first}.get(order, first + second)
    fx = np.ascontiguousarray(block[:, start:start + order])
    w = sc._gl_rule(order)[1]
    assert list(map(float.hex, np.vecdot(fx, w).tolist())) == [float(w.dot(r)).hex() for r in fx]


# -- a table's turning points against the reference walk --------------------


def _reference_piece_root(coef, x0, e, t_in, t_out):
    # the bracket test orders its ends on every step; _piece_root fixes their order once, from t_in and t_out
    c3, c2, c1, c0 = coef
    c0 -= e
    below, above = t_in, t_out
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
        t = t_new if min(below, above) < t_new < max(below, above) else 0.5 * (below + above)
    return x0 + t


@settings(max_examples=300, deadline=None)
@given(gaps=st.lists(st.floats(1e-3, 10.0), min_size=2, max_size=12), x0=st.floats(-50.0, 50.0),
       us=st.lists(st.floats(-10.0, 10.0), min_size=13, max_size=13), piece=st.integers(0, 10),
       f=st.floats(0.0, 1.0, exclude_min=True))
def test_piece_root_matches_the_reference_walk(gaps, x0, us, piece, f):
    # a PCHIP piece is monotone; its root at an energy between its end values, walked in from the lower end
    # as a table's turning points walk it, on pieces that rise (x_plus) and fall (x_minus)
    from speclimit.profiles import _pchip, _piece_root

    xs = (x0 + np.concatenate(([0.0], np.cumsum(gaps)))).tolist()
    us = us[:len(xs)]
    k = piece % (len(xs) - 1)
    h = xs[k + 1] - xs[k]
    assume(us[k] != us[k + 1])
    coef = _pchip(xs, us).coefs[:, k].tolist()
    low, high = sorted((us[k], us[k + 1]))
    e = low + f * (high - low)
    assume(e > low)
    t_in, t_out = (0.0, h) if us[k] < us[k + 1] else (h, 0.0)
    got = _piece_root(coef, xs[k], e, t_in, t_out)
    assert got.hex() == _reference_piece_root(coef, xs[k], e, t_in, t_out).hex()
