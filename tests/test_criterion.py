from __future__ import annotations

import math
import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import speclimit as sl
from speclimit.criterion import HYDROGENOID_THRESHOLD_NOTE, MORSE_TAIL_NOTE, _level_gaps, spectrum
from speclimit.errors import (
    InvalidArgumentError,
    ModelDefinitionError,
    OutOfRangeError,
    ScanLimitExceededError,
    SpeclimitError,
    UnsupportedModelError,
)
from speclimit.units import UNIT_SYSTEMS


def box_y(n: int) -> float:
    # independent closed form: y(n)/hbar = (pi/4)(2n-1) / ((n-1) n)
    return (math.pi / 4.0) * (2 * n - 1) / ((n - 1) * n)


def hyd_y(n: int) -> float:
    # independent closed form: y(n)/hbar = pi (2n-1)(3n^2-3n+1) / (4 n^2 (n-1)^2)
    return math.pi * (2 * n - 1) * (3 * n**2 - 3 * n + 1) / (4.0 * n**2 * (n - 1) ** 2)


# -- y values -------------------------------------------------------------


def test_box_y_examples(box):
    assert sl.y_function(box, 3) == pytest.approx(5 * math.pi / 24, abs=1e-12)
    assert sl.y_function(box, 4) == pytest.approx(7 * math.pi / 48, abs=1e-12)


_UNIT_SYSTEMS = sorted(UNIT_SYSTEMS.values(), key=lambda u: u.name)


@settings(max_examples=200, deadline=None)
@given(units=st.sampled_from(_UNIT_SYSTEMS), mass=st.floats(0.2, 5.0), width=st.floats(0.2, 5.0),
       n=st.one_of(st.integers(2, 60), st.sampled_from((100, 500, 1000))))
@example(units=UNIT_SYSTEMS["natural-box"], mass=1.0, width=1.0, n=2)
def test_box_y_closed_form(units, mass, width, n):
    # the same y/hbar for every mass and width, in every unit system
    assert sl.y_function(sl.box(mass, width, units), n) == pytest.approx(box_y(n), rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(units=st.sampled_from(_UNIT_SYSTEMS), mu=st.floats(0.2, 5.0), z=st.integers(1, 5), e=st.floats(0.2, 5.0),
       n=st.integers(2, 100))
@example(units=UNIT_SYSTEMS["atomic"], mu=1.0, z=1, e=1.0, n=9)
def test_hydrogenoid_y_closed_form(units, mu, z, e, n):
    # y/hbar depends on neither the reduced mass, nor Z, nor e
    assert sl.y_function(sl.hydrogenoid(mu, z, e, units), n) == pytest.approx(hyd_y(n), rel=1e-12)


def morse_y(zeta: float, n: int) -> float:
    # independent closed form: y(n)/hbar = (pi / (2 zeta)) (1 - n/zeta) / ((1 - (n + 1/2)/zeta)(1 - (n - 1/2)/zeta))
    return (math.pi / (2.0 * zeta)) * (1.0 - n / zeta) / ((1.0 - (n + 0.5) / zeta) * (1.0 - (n - 0.5) / zeta))


@settings(max_examples=200, deadline=None)
@given(units=st.sampled_from(_UNIT_SYSTEMS), mass=st.floats(0.2, 5.0), depth=st.floats(0.2, 5.0),
       alpha=st.floats(0.2, 5.0), scale=st.tuples(st.floats(0.1, 10.0), st.floats(0.1, 10.0)),
       step=st.integers(0, 10**6))
def test_morse_y_depends_on_zeta_alone(units, mass, depth, alpha, scale, step):
    try:
        model = sl.morse(mass, depth, alpha, units)
    except ModelDefinitionError:  # a Morse well without a bound level
        assume(False)
    assume(sl.n_max(model) >= 1)
    n = 1 + step % sl.n_max(model)
    y = sl.y_function(model, n)
    assert y == pytest.approx(morse_y(model.zeta, n), rel=1e-12)
    # zeta = sqrt(2 D m) / (hbar alpha) stays put under m -> l m, D -> k D, alpha -> sqrt(l k) alpha
    lm, kd = scale
    twin = sl.morse(lm * mass, kd * depth, math.sqrt(lm * kd) * alpha, units)
    assert twin.zeta == pytest.approx(model.zeta, rel=1e-14)
    assume(sl.n_max(twin) == sl.n_max(model))
    assert sl.y_function(twin, n) == pytest.approx(y, rel=1e-12)


def test_hydrogenoid_boundary_values(hyd):
    assert sl.y_function(hyd, 9) == pytest.approx(3689 * math.pi / 20736, rel=1e-12)
    assert sl.y_function(hyd, 10) == pytest.approx(5149 * math.pi / 32400, rel=1e-12)
    assert sl.y_function(hyd, 9) > 0.5
    assert sl.y_function(hyd, 10) < 0.5


def test_harmonic_y_identically_zero(osc):
    for n in (1, 2, 17):
        gap = sl.level_gap(osc, n)
        assert gap.dTau == 0.0
        assert gap.y_over_hbar == 0.0
        assert not gap.resolvable


def test_y_vanishes_at_large_n(box, hyd):
    assert sl.y_function(box, 10**4) < 1e-3
    assert sl.y_function(hyd, 10**4) < 1e-3


def test_level_gap_signs(box, hyd):
    # box periods shrink with n; Kepler periods grow
    assert sl.level_gap(box, 5).dTau < 0
    assert sl.level_gap(hyd, 5).dTau > 0
    assert sl.level_gap(box, 5).dE > 0
    assert sl.level_gap(hyd, 5).dE > 0


def test_semiclassical_route_agrees(box, morse_h2):
    for n in (2, 3, 4):
        closed = sl.y_function(box, n)
        semi = sl.y_function(box, n, method="semiclassical")
        assert semi == pytest.approx(closed, abs=1e-5)
    for n in (1, 4, 8):
        closed = sl.y_function(morse_h2, n)
        semi = sl.y_function(morse_h2, n, method="semiclassical")
        assert semi == pytest.approx(closed, abs=1e-5)


def test_method_validation(box):
    xs = [0.0, 0.5, 1.0, 1.5, 2.0]
    num = sl.numeric(1.0, xs, [4.0, 1.0, 0.0, 1.0, 4.0])
    with pytest.raises(UnsupportedModelError):
        sl.level_gap(num, 1, method="closed")
    with pytest.raises(OutOfRangeError, match="numeric: gap at n=0 needs level n-1; lowest level is 0"):
        sl.level_gap(num, 0, method="semiclassical")
    with pytest.raises(InvalidArgumentError):  # a SpeclimitError and a ValueError
        sl.level_gap(box, 2, method="magic")
    with pytest.raises(InvalidArgumentError):
        sl.classify(box, (2, 4), method="magic")


# -- thresholds ------------------------------------------------------------


def test_threshold_box(box):
    assert sl.threshold(box) == 4


def test_threshold_hydrogenoid(hyd):
    assert sl.threshold(hyd) == 10


def test_threshold_harmonic(osc):
    # first pair checked is already unresolvable
    assert sl.threshold(osc) == 1


def test_threshold_morse(morse_h2):
    assert sl.threshold(morse_h2) == 1
    # zeta = 4 holds levels 0 and 1 only, and y(1) = 0.54 hbar: the ladder ends with every pair resolvable
    shallow = sl.morse(1.0, 8.0, 1.0, units=UNIT_SYSTEMS["natural-box"])
    assert shallow.zeta == 4.0 and sl.level_gap(shallow, 1).resolvable
    assert sl.threshold(shallow) is None
    # a scan of one pair covers the ladder's last pair, so the ladder ends within it
    assert sl.threshold(shallow, scan_limit=1) is None


def test_threshold_scan_limit(box):
    with pytest.raises(ScanLimitExceededError, match=r"^no y\(n\) < hbar/2 found within 2 pairs starting at n = 2$"):
        sl.threshold(box, scan_limit=2)
    assert sl.threshold(box, scan_limit=3) == 4  # y(4) = 7 pi / 48 hbar is the first below hbar/2


def test_a_table_without_a_level_has_no_pair_and_no_threshold():
    # the well holds less than one quantum, so n_max is -1 and the ladder is empty
    table = sl.numeric(1.0, [-1.0, 0.0, 1.0], [0.1, 0.0, 0.1], units=sl.OSCILLATOR)
    assert sl.n_max(table) == -1
    with pytest.raises(OutOfRangeError, match="^numeric: no level pairs at or above n = 1$"):
        sl.classify(table, (1, 3))
    assert sl.threshold(table) is None and sl.bound_levels(table, 5) == []


@pytest.mark.parametrize("call", [
    lambda: sl.classify(sl.harmonic(), (True, 3)),
    lambda: sl.classify(sl.harmonic(), (1, True)),
    lambda: sl.threshold(sl.box(), scan_limit=True),
    lambda: sl.bound_levels(sl.box(), True),
    lambda: sl.consistency_sweep(sl.get_preset("morse-h2"), (True, 3), sl.PeriodProtocol(trials=10)),
], ids=["classify-lo", "classify-hi", "threshold", "bound_levels", "consistency_sweep"])
def test_bools_are_not_counts(call):
    with pytest.raises(OutOfRangeError, match="integer"):
        call()


# -- classify ----------------------------------------------------------------


def test_classify_box(box):
    rep = sl.classify(box, (2, 20))
    assert rep.threshold == 4
    assert rep.regime == "crossover"
    assert rep.crossings == (4,)
    assert [g.n for g in rep.gaps] == list(range(2, 21))
    rows = rep.csv_rows()
    assert rows[0][0] == 2
    assert len(rows[0]) == 7
    assert rows[0][6] is True and rows[-1][6] is False


def test_classify_hydrogenoid_note(hyd):
    rep = sl.classify(hyd, (2, 20))
    assert rep.threshold == 10
    assert HYDROGENOID_THRESHOLD_NOTE in rep.notes


def test_classify_harmonic(osc):
    rep = sl.classify(osc, (1, 10))
    assert rep.regime == "all-unresolvable"
    assert rep.threshold == 1
    assert sl.DEGENERATE_PERIOD_NOTE in rep.notes


def test_classify_morse(morse_h2):
    rep = sl.classify(morse_h2, (1, 8))
    assert rep.regime == "all-unresolvable"
    assert all(g.y_over_hbar < 0.5 for g in rep.gaps)
    assert max(g.y_over_hbar for g in rep.gaps) == pytest.approx(0.1673919156390488, rel=1e-10)
    assert MORSE_TAIL_NOTE in rep.notes  # y grows toward dissociation here
    assert rep.tail_monotone  # rising tail, but monotone


def test_classify_clips_to_bound_levels(morse_h2):
    rep = sl.classify(morse_h2, (1, 50))
    assert [g.n for g in rep.gaps] == list(range(1, 9))
    assert any("clipped" in note for note in rep.notes)


def test_classify_all_resolvable_is_none(hyd):
    rep = sl.classify(hyd, (2, 8))
    assert rep.regime == "all-resolvable"
    assert rep.threshold is None


def test_classify_range_validation(box):
    with pytest.raises(OutOfRangeError):
        sl.classify(box, (1, 5))  # needs n >= n_min + 1 = 2
    with pytest.raises(OutOfRangeError):
        sl.classify(box, (5, 3))


def test_ratio_series_decreasing(box, hyd):
    for model in (box, hyd):
        rep = sl.classify(model, (2, 20))
        ratios = [r for _, r in rep.ratio_series]
        assert all(abs(b) < abs(a) for a, b in zip(ratios, ratios[1:]))


def test_ratio_small_at_large_n(box):
    # half-spacing over energy below 1e-3 deep in the ladder
    de = sl.level_gap_energy(box, 1001)
    e = sl.energy_level(box, 1001).energy
    assert abs(de / e) < 1e-3


def test_to_json_dict(box):
    rep = sl.classify(box, (2, 6))
    doc = rep.to_json_dict()
    assert doc["threshold"] == 4
    assert doc["units"] == "natural-box"
    assert len(doc["gaps"]) == 5
    assert doc["max_y_over_hbar"] == pytest.approx(sl.y_function(box, 2), rel=1e-12)


def test_numeric_classify_quantizes_each_level_once(monkeypatch, placed_levels):
    from collections import Counter

    from speclimit import semiclassical

    xs = [0.5 * i for i in range(-16, 17)]
    model = sl.numeric(1.0, xs, [0.5 * x * x for x in xs])
    timed = Counter()
    period = semiclassical._period_of  # a spectrum's level periods

    def counted_period(profile, e):
        timed[e] += 1
        return period(profile, e)

    monkeypatch.setattr(semiclassical, "_period_of", counted_period)
    rep = sl.classify(model, (2, 5))
    monkeypatch.undo()
    assert placed_levels == Counter(range(1, 6))
    assert list(timed.values()) == [1] * 5
    for g in rep.gaps:
        assert g == sl.level_gap(model, g.n, "semiclassical")


def test_numeric_classify_coarse_table_turning_points_on_knots():
    # E_4 ~ 4.5 puts the turning points on the knots x = +-3; a turning point
    # left 1e-14 |E| short of the root used to stall the period quadrature
    xs = list(range(-6, 7))
    rep = sl.classify(sl.numeric(1.0, xs, [0.5 * x * x for x in xs]), (1, 5))
    for n, e, _ in rep.levels:
        assert abs(e - (n + 0.5)) < 0.02


# -- superposition states -----------------------------------------------------


def test_energy_uncertainty_box_example(box):
    s = sl.SuperpositionState(1 / math.sqrt(2), 1 / math.sqrt(2),
                              sl.energy_level(box, 2), sl.energy_level(box, 1))
    assert sl.energy_uncertainty(s) == pytest.approx(3 * math.pi**2 / 4, rel=1e-12)


def test_max_energy_uncertainty_examples(box, hyd):
    assert sl.max_energy_uncertainty(box, 3) == pytest.approx(5 * math.pi**2 / 4, rel=1e-12)
    assert sl.max_energy_uncertainty(hyd, 2) == pytest.approx(0.1875, rel=1e-12)


def test_max_energy_uncertainty_is_max(box):
    # random normalized amplitude splits never beat the equal split
    rng = random.Random(20240817)
    bound = sl.max_energy_uncertainty(box, 5)
    lv5, lv4 = sl.energy_level(box, 5), sl.energy_level(box, 4)
    for _ in range(1000):
        t = rng.uniform(0.0, math.pi / 2.0)
        a, b = math.cos(t), math.sin(t)
        s = sl.SuperpositionState(a, b, lv5, lv4)
        assert sl.energy_uncertainty(s) <= bound + 1e-12


def test_superposition_validation(box):
    lv2, lv1 = sl.energy_level(box, 2), sl.energy_level(box, 1)
    with pytest.raises(InvalidArgumentError):
        sl.SuperpositionState(1.0, 1.0, lv2, lv1)  # not normalized
    lv3 = sl.energy_level(box, 3)
    with pytest.raises(InvalidArgumentError):
        sl.SuperpositionState(1.0, 0.0, lv3, lv1)  # not adjacent


@pytest.mark.parametrize("a, b, e2", [
    (math.nan, 0.0, None),
    (1.0, complex(math.nan, 0.0), None),
    (complex(math.nan, 0.0), 0.0, None),
    (math.inf, 0.0, None),
    (1.0, 0.0, math.nan),
], ids=["nan-a", "complex-nan-b", "complex-nan-a", "inf-a", "nan-level"])
def test_superposition_rejects_non_finite_values(box, a, b, e2):
    # a NaN norm passes |norm - 1| > 1e-12, and energy_uncertainty then returned nan
    lv2, lv1 = sl.energy_level(box, 2), sl.energy_level(box, 1)
    if e2 is not None:
        lv2 = sl.EnergyLevel(2, e2)
    with pytest.raises(InvalidArgumentError, match="must be finite"):
        sl.SuperpositionState(a, b, lv2, lv1)


def test_complex_amplitudes(box):
    lv2, lv1 = sl.energy_level(box, 2), sl.energy_level(box, 1)
    s = sl.SuperpositionState(1j / math.sqrt(2), -1 / math.sqrt(2), lv2, lv1)
    assert sl.energy_uncertainty(s) == pytest.approx(3 * math.pi**2 / 4, rel=1e-12)


# -- closed-form ladders ---------------------------------------------------


@pytest.mark.parametrize("model, quantity, n", [
    (sl.box(1e-300, 1e-300), "energy", 1),  # t1 = 2e-900 / pi is 0, so E_1 = pi / t1 is inf
    (sl.box(1e300, 1e300), "energy", 1),  # t1 = 2e900 / pi is inf, so E_1 is 0
    (sl.hydrogenoid(1e-300, 1, 1e-300), "energy", 1),  # e1 = mu e^4 / 2 = 5e-1501 is 0
    (sl.harmonic(1e-320, 1e300), "energy", 1),  # omega = 1e310 is inf
])
def test_closed_forms_outside_the_float_range_raise_a_typed_error(model, quantity, n):
    with pytest.raises(sl.FloatRangeError, match=f"^{model.kind}: {quantity} at n={n} leaves the float range"
                                                 r" \(the scale (t1|e1|omega) is (inf|0\.0)\)$"):
        sl.classify(model, (2, 6))
    assert issubclass(sl.FloatRangeError, SpeclimitError) and issubclass(sl.FloatRangeError, ArithmeticError)
    single = sl.energy_level if quantity == "energy" else sl.classical_period
    with pytest.raises(sl.FloatRangeError, match=f"^{model.kind}: {quantity} at n={n} "):
        single(model, n)


def test_closed_forms_that_underflow_raise_a_typed_error():
    # E_1 = pi^2 / (2 m a^2) of a heavy box is subnormal, and t1 = 2 m a^2 / pi overflows: no form keeps its digits
    for model, n in ((sl.box(1e300, 1e5), 2), (sl.box(1e308, 2.0), 40), (sl.box(1e300, 1e300), 1)):
        reason = r"leaves the float range \(the scale t1 is inf\)$"
        with pytest.raises(sl.FloatRangeError, match=f"^box: period at n={n} {reason}"):
            sl.classical_period(model, n)
        with pytest.raises(sl.FloatRangeError, match=f"^box: energy at n=1 {reason}"):
            sl.classify(model, (2, 5))
    # a form can underflow where its scales do not: hbar omega = 3.16e-308 is normal, half of it is not
    osc = sl.harmonic(1e300, 9e-248, UNIT_SYSTEMS["si"])
    assert sl.energy_level(osc, 1).energy == pytest.approx(1.5 * osc.hbar * osc.omega, rel=1e-15)
    with pytest.raises(sl.FloatRangeError,
                       match=r"^harmonic: gap_energy at n=2 leaves the float range \(underflows to 1\.58\d*e-308\)$"):
        sl.classify(osc, (2, 6))
    # the period of a hydrogenoid whose mu e^4 underflows fails as well
    with pytest.raises(sl.FloatRangeError,
                       match=r"^hydrogenoid: period at n=1 leaves the float range \(the scale e1 is 0\.0\)$"):
        sl.classical_period(sl.hydrogenoid(1e-300, 1, 1e-300), 1)
    # a period-degenerate kind's period gap is exactly 0, and allowed to be
    assert sl.level_gap_period(sl.harmonic(), 3) == 0.0
    assert sl.level_gap(sl.harmonic(), 3).y_over_hbar == 0.0


@settings(max_examples=300, deadline=None)
@given(mass_exp=st.floats(-300.0, 300.0), width_exp=st.floats(-300.0, 300.0), units=st.sampled_from(_UNIT_SYSTEMS),
       n=st.one_of(st.integers(2, 60), st.sampled_from((100, 1000))))
@example(mass_exp=262.0, width_exp=0.0, units=UNIT_SYSTEMS["natural-box"], n=2)
@example(mass_exp=255.0, width_exp=0.0, units=UNIT_SYSTEMS["natural-box"], n=40)
@example(mass_exp=0.0, width_exp=-131.0, units=UNIT_SYSTEMS["atomic"], n=2)  # m a^2 is 2.55e-313 in SI
def test_box_y_is_exact_or_a_typed_error_for_every_mass(mass_exp, width_exp, units, n):
    # y(n)/hbar of a box depends on neither its mass nor its width: any y given must be the closed form's
    try:
        y = sl.y_function(sl.box(10.0**mass_exp, 10.0**width_exp, units), n)
    except sl.FloatRangeError:
        return
    assert y == pytest.approx(box_y(n), rel=1e-12)


def test_parameters_outside_the_float_range_raise_a_typed_error():
    # e^4 = 1e1200: the closed forms' scale is inf, and the engine's charge^2 overflows
    model = sl.hydrogenoid(1.0, 1, 1e300)
    with pytest.raises(sl.FloatRangeError,
                       match=r"^hydrogenoid: energy at n=1 leaves the float range \(the scale e1 is inf\)$"):
        sl.classify(model, (2, 6))
    with pytest.raises(sl.FloatRangeError,
                       match=r"^hydrogenoid: parameters leave the float range \(OverflowError\)$"):
        sl.quantize(model, 2)


_LEVEL_CALLS = (sl.energy_level, sl.classical_period)
_GAP_CALLS = (sl.level_gap_energy, sl.level_gap_period, lambda m, n: sl.level_gap(m, n, "closed"))


def _error(call):
    """(type, message) of the SpeclimitError ``call()`` raises, or None."""
    try:
        call()
    except SpeclimitError as exc:
        return type(exc), str(exc)
    return None


@st.composite
def closed_ladders(draw):
    """A closed-form model in any unit system and an iterable of levels that may cross n_min or Morse's n_max."""
    kind = draw(st.sampled_from(("box", "harmonic", "hydrogenoid", "morse")))
    units = draw(st.sampled_from(sorted(UNIT_SYSTEMS.values(), key=lambda u: u.name)))
    a, b, c = (draw(st.floats(0.2, 5.0)) for _ in range(3))
    try:
        model = {"box": lambda: sl.box(a, b, units), "harmonic": lambda: sl.harmonic(a, b, units),
                 "hydrogenoid": lambda: sl.hydrogenoid(a, draw(st.integers(1, 3)), c, units),
                 "morse": lambda: sl.morse(a, b, c, units)}[kind]()
    except ModelDefinitionError:  # a Morse well without a bound level
        assume(False)
    lo, hi = sl.n_min(model), sl.n_max(model)
    edge = hi if hi is not None and draw(st.booleans()) else lo
    start = edge + draw(st.integers(-3, 3))
    ns = range(start, start + draw(st.integers(0, 12)))
    form = draw(st.sampled_from(("range", "reversed", "list", "set", "generator")))
    if form == "reversed":
        ns = ns[::-1]
    elif form != "range":
        ns = list(ns)
        if ns and draw(st.booleans()):  # a bool among the levels
            ns.insert(draw(st.integers(0, len(ns))), draw(st.booleans()))
        ns = set(ns) if form == "set" else ns
    return model, ns, form


@settings(max_examples=300, deadline=None)
@given(closed_ladders())
@example((sl.get_preset("morse-h2"), range(11, 4, -1), "reversed"))  # crosses n_max = 8 from above
@example((sl.get_preset("morse-h2"), [7, 8, True, 9], "list"))
@example((sl.get_preset("hydrogen-atomic"), range(3, -1, -1), "reversed"))  # crosses n_min from above
@example((sl.box(), {0, 1, 2}, "set"))
def test_ladder_errors_match_the_single_level_functions(drawn):
    model, ns, form = drawn
    order = list(ns)  # the iteration order; a set iterates the same way each time
    fresh = (lambda: (n for n in order)) if form == "generator" else (lambda: ns)
    for whole, calls in ((lambda: spectrum(model, fresh()), _LEVEL_CALLS),
                         (lambda: _level_gaps(model, None, fresh(), "closed"), _GAP_CALLS)):
        # the first level in order that a single-level function rejects decides the error
        bad = next((n for n in order if _error(lambda: calls[0](model, n))), None)
        got = _error(whole)
        if bad is None:
            assert got is None
            continue
        want = _error(lambda: calls[0](model, bad))
        assert got == want and want[0] is OutOfRangeError
        assert all(_error(lambda: call(model, bad)) == want for call in calls)
        if isinstance(bad, bool):
            assert want == (OutOfRangeError, f"quantum number must be an integer, got {bad!r}")
    if all(_error(lambda: sl.energy_level(model, n)) is None for n in order):
        spec = spectrum(model, fresh())
        assert spec == {n: (sl.energy_level(model, n).energy, sl.classical_period(model, n).tau) for n in order}
    if all(_error(lambda: sl.level_gap_energy(model, n)) is None for n in order):
        assert _level_gaps(model, None, fresh(), "closed") == tuple(sl.level_gap(model, n) for n in order)
