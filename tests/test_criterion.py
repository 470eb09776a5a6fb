from __future__ import annotations

import math
import random

import pytest

import speclimit as sl
from speclimit.criterion import HYDROGENOID_THRESHOLD_NOTE, MORSE_TAIL_NOTE
from speclimit.errors import (
    InvalidArgumentError,
    OutOfRangeError,
    ScanLimitExceededError,
    UnsupportedModelError,
)


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


def test_box_y_closed_form(box):
    for n in list(range(2, 50)) + [100, 500, 1000]:
        assert sl.y_function(box, n) == pytest.approx(box_y(n), rel=1e-12)


def test_hydrogenoid_y_closed_form(hyd):
    for n in range(2, 101):
        assert sl.y_function(hyd, n) == pytest.approx(hyd_y(n), rel=1e-12)


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


def test_threshold_scan_limit(box):
    with pytest.raises(ScanLimitExceededError):
        sl.threshold(box, scan_limit=2)


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


def test_numeric_classify_quantizes_each_level_once(monkeypatch):
    from collections import Counter

    from speclimit import semiclassical

    xs = [0.5 * i for i in range(-16, 17)]
    model = sl.numeric(1.0, xs, [0.5 * x * x for x in xs])
    quantized, timed = Counter(), Counter()
    quantize, period = semiclassical.quantize, semiclassical.period_of_energy

    def counted_quantize(m, n, *args, **kwargs):
        quantized[n] += 1
        return quantize(m, n, *args, **kwargs)

    def counted_period(m, e, *args, **kwargs):
        timed[e] += 1
        return period(m, e, *args, **kwargs)

    monkeypatch.setattr(semiclassical, "quantize", counted_quantize)
    monkeypatch.setattr(semiclassical, "period_of_energy", counted_period)
    rep = sl.classify(model, (2, 5))
    monkeypatch.undo()
    assert quantized == Counter(range(1, 6))
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


def test_complex_amplitudes(box):
    lv2, lv1 = sl.energy_level(box, 2), sl.energy_level(box, 1)
    s = sl.SuperpositionState(1j / math.sqrt(2), -1 / math.sqrt(2), lv2, lv1)
    assert sl.energy_uncertainty(s) == pytest.approx(3 * math.pi**2 / 4, rel=1e-12)
