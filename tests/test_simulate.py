from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from mpmath import MPContext

import speclimit as sl
from speclimit import simulate
from speclimit.errors import (DegeneratePeriodError, FloatRangeError, InvalidArgumentError, OutOfRangeError,
                              SpeclimitError)
from speclimit.simulate import D_PRIME_CAP, D_PRIME_CUT, _bayes_overlap
from speclimit.units import UNIT_SYSTEMS


def test_protocol_validation():
    for bad in ({"s": 0}, {"trials": 5}, {"delta_t": -1.0}, {"seed": -1}):
        with pytest.raises(InvalidArgumentError) as ei:
            sl.PeriodProtocol(**bad)
        assert isinstance(ei.value, SpeclimitError) and isinstance(ei.value, ValueError)


def test_estimator_sd_scaling():
    # averaging 2s inversion timestamps: sd = delta_t / s
    for s in (1, 2, 4, 8):
        proto = sl.PeriodProtocol(s=s)
        assert proto.estimator_sd(0.3) == pytest.approx(0.3 / s, rel=1e-15)


def test_estimator_sd_per_inversion_variant():
    # independent per-inversion errors: sd = delta_t sqrt(2s) / (2s)
    for s in (1, 2, 4, 8):
        proto = sl.PeriodProtocol(s=s, per_inversion=True)
        expect = 0.3 * math.sqrt(2 * s) / (2 * s)
        assert proto.estimator_sd(0.3) == pytest.approx(expect, rel=1e-15)


def test_simulation_matches_estimator_sd(box):
    proto = sl.PeriodProtocol(s=2, delta_t=0.05, trials=10000, seed=3)
    sample = sl.simulate_period_measurement(box, 4, proto)
    assert sample.delta_t == 0.05
    # sample sd within 5 percent of delta_t/s at 1e4 trials
    assert sample.stdev() == pytest.approx(0.05 / 2, rel=0.05)
    assert sample.mean() == pytest.approx(sample.tau_true, abs=5 * 0.025 / math.sqrt(10000))


def test_simulation_sd_one_over_s(box):
    sds = []
    for s in (1, 2, 4, 8):
        proto = sl.PeriodProtocol(s=s, delta_t=0.1, trials=20000, seed=17)
        sds.append(sl.simulate_period_measurement(box, 3, proto).stdev())
    for i, s in enumerate((1, 2, 4, 8)):
        assert sds[i] == pytest.approx(0.1 / s, rel=0.10)


def test_simulation_mean_converges(box):
    tau = sl.classical_period(box, 3).tau
    for trials in (1000, 100000):
        proto = sl.PeriodProtocol(delta_t=0.02, trials=trials, seed=29)
        sample = sl.simulate_period_measurement(box, 3, proto)
        assert abs(sample.mean() - tau) <= 4 * 0.02 / math.sqrt(trials)


def test_simulation_deterministic(box):
    proto = sl.PeriodProtocol(delta_t=0.05, trials=500, seed=123)
    a = sl.simulate_period_measurement(box, 2, proto)
    b = sl.simulate_period_measurement(box, 2, proto)
    assert a.estimates == b.estimates
    c = sl.simulate_period_measurement(box, 2, sl.PeriodProtocol(delta_t=0.05, trials=500, seed=124))
    assert a.estimates != c.estimates


def test_harmonic_period_degenerate(osc):
    with pytest.raises(DegeneratePeriodError):
        sl.simulate_period_measurement(osc, 1, sl.PeriodProtocol())


def test_zero_delta_t_noise_free(box):
    proto = sl.PeriodProtocol(delta_t=0.0, trials=100, seed=0)
    result = sl.discriminate(box, 3, proto)
    assert result.noise_free
    assert result.d_prime == D_PRIME_CAP
    assert result.bayes_error == 0.0
    assert result.mc_resolvable


def _d_prime_se(d_prime: float, trials: int) -> float:
    # standard error of d' from two clouds of ``trials`` estimates each
    return math.sqrt(2.0 / trials + d_prime**2 / (4.0 * trials))


def test_discriminate_box_crossover_levels(box):
    proto = sl.PeriodProtocol(trials=10000, seed=7)
    r3 = sl.discriminate(box, 3, proto)
    assert r3.mc_resolvable and r3.criterion_resolvable
    assert abs(r3.d_prime - 4 * sl.y_function(box, 3)) <= 6 * _d_prime_se(r3.d_prime, proto.trials)
    r5 = sl.discriminate(box, 5, proto)
    assert not r5.mc_resolvable and not r5.criterion_resolvable
    assert r5.d_prime < D_PRIME_CUT


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(("box", "hydrogenoid", "morse")),
       units=st.sampled_from(sorted(UNIT_SYSTEMS.values(), key=lambda u: u.name)),
       a=st.floats(0.2, 5.0), b=st.floats(0.2, 5.0), c=st.floats(0.2, 5.0), z=st.integers(1, 3),
       step=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_d_prime_tracks_4y_at_saturating_accuracy(kind, units, a, b, c, z, step, seed):
    # with delta_t = hbar / (2 dE_n) the population d' is 4 y(n) / hbar
    try:
        model = {"box": lambda: sl.box(a, b, units), "hydrogenoid": lambda: sl.hydrogenoid(a, z, c, units),
                 "morse": lambda: sl.morse(a, b, c, units)}[kind]()
    except sl.ModelDefinitionError:  # a Morse well without a bound level
        assume(False)
    first, last = sl.n_min(model) + 1, sl.n_max(model)
    assume(last is None or last >= first)
    n = first + (step - 1) % (last - first + 1) if last is not None else first + step - 1
    proto = sl.PeriodProtocol(trials=4000, seed=seed)
    r = sl.discriminate(model, n, proto)
    assert abs(r.d_prime - 4 * sl.y_function(model, n)) <= 6 * _d_prime_se(r.d_prime, proto.trials)


def test_discriminate_auto_delta_t_is_saturating(box):
    # delta_t = hbar / (2 dE_n) when the protocol leaves it unset
    proto = sl.PeriodProtocol(trials=100, seed=1)
    r = sl.discriminate(box, 4, proto)
    assert r.delta_t == pytest.approx(1.0 / (2 * sl.level_gap_energy(box, 4)), rel=1e-12)


def test_discriminate_needs_lower_level(box):
    with pytest.raises(OutOfRangeError):
        sl.discriminate(box, 1, sl.PeriodProtocol())


def test_bayes_error_range(box):
    proto = sl.PeriodProtocol(trials=2000, seed=5)
    for n in (2, 3, 6, 9):
        r = sl.discriminate(box, n, proto)
        assert 0.0 <= r.bayes_error <= 0.5
    # overlapping clouds err toward 0.5, separated ones toward 0
    r2 = sl.discriminate(box, 2, proto)
    r9 = sl.discriminate(box, 9, proto)
    assert r2.bayes_error < r9.bayes_error


def test_bayes_error_gaussian_oracle(box):
    # for equal widths the minimum-error rate has the closed form
    # 0.5 erfc(d'/(2 sqrt 2)); the fitted-cloud estimate stays close
    proto = sl.PeriodProtocol(trials=40000, seed=13)
    r = sl.discriminate(box, 4, proto)
    oracle = 0.5 * math.erfc(r.d_prime / (2 * math.sqrt(2)))
    assert r.bayes_error == pytest.approx(oracle, abs=0.01)


def _reference_bayes(m1: float, s1: float, m2: float, s2: float) -> float:
    """0.5 * integral of min(f1, f2) by scipy quadrature, split at the crossings brentq finds."""
    from scipy import integrate, optimize

    def log_density(x, m, s):  # without the common -log(sqrt(2 pi))
        return -0.5 * ((x - m) / s) ** 2 - math.log(s)

    def g(x):
        return log_density(x, m1, s1) - log_density(x, m2, s2)

    lo, hi = min(m1 - 40 * s1, m2 - 40 * s2), max(m1 + 40 * s1, m2 + 40 * s2)
    marks = [lo, hi]
    if s1 != s2:  # g is a parabola; its vertex separates the two crossings
        vertex = (m1 / s1**2 - m2 / s2**2) / (1 / s1**2 - 1 / s2**2)
        if lo < vertex < hi:
            marks.insert(1, vertex)
    cuts = [optimize.brentq(g, a, b, xtol=1e-300, rtol=1e-15)
            for a, b in zip(marks, marks[1:]) if (g(a) < 0) != (g(b) < 0)]
    points = sorted({lo, hi, m1, m2, *cuts})

    def smaller(x):
        return math.exp(min(log_density(x, m1, s1), log_density(x, m2, s2))) / math.sqrt(2 * math.pi)

    with warnings.catch_warnings():  # quad doubts its last digits at 1e-13; the comparison is at 1e-11
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        parts = [integrate.quad(smaller, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                 for a, b in zip(points, points[1:])]
    return 0.5 * math.fsum(parts)


@settings(max_examples=300, deadline=None)
@given(log_s=st.floats(-3.0, 3.0), ratio=st.one_of(st.just(1.0), st.floats(-9.0, 1.0).map(lambda e: 1.0 + 10**e)),
       log_d=st.floats(-3.0, math.log10(40.0)), offset=st.floats(-1e6, 1e6),
       signs=st.tuples(st.booleans(), st.booleans()))
@example(log_s=0.0, ratio=1.0 + 1e-9, log_d=-3.0, offset=1e6, signs=(True, False))
@example(log_s=-3.0, ratio=11.0, log_d=math.log10(40.0), offset=-1e6, signs=(False, True))
def test_bayes_error_matches_quadrature(log_s, ratio, log_d, offset, signs):
    s1 = 10**log_s
    m1 = offset * s1
    m2 = m1 + (-1 if signs[0] else 1) * 10**log_d * s1
    s2 = ratio * s1
    if signs[1]:  # the wider cloud first
        m1, s1, m2, s2 = m2, s2, m1, s1
    got = _bayes_overlap(m1, s1, m2, s2)
    # the reference integrates about m1: at |m| / s ~ 1e6 the rounding of x itself would move its tails by 1e-9
    want = _reference_bayes(0.0, s1, m2 - m1, s2)
    assert got == pytest.approx(want, rel=1e-11, abs=0.0)
    assert got == _bayes_overlap(m2, s2, m1, s1)


@pytest.mark.parametrize("d", [0.0, 1e-3, 0.5, 2.0, 7.5, 40.0])
def test_bayes_error_equal_widths_is_half_erfc(d):
    for m, s in ((0.0, 1.0), (3e5, 0.25), (-7.0, 40.0)):
        m2 = m + d * s
        d_held = (m2 - m) / s  # the separation m2 holds after rounding
        assert _bayes_overlap(m, s, m2, s) == pytest.approx(0.5 * math.erfc(d_held / (2 * math.sqrt(2))), rel=1e-14)


def test_bayes_error_of_one_zero_width_cloud(box):
    # a clock error below half an ulp of tau_1 = 2 tau_2 leaves every level-1 estimate on tau_1, while level 2,
    # one binade lower, still spreads: a point mass against a Gaussian overlaps nowhere
    delta_t = 0.3 * math.ulp(sl.discriminate(box, 2, sl.PeriodProtocol(delta_t=0.0, trials=10)).tau_high)
    res = sl.discriminate(box, 2, sl.PeriodProtocol(delta_t=delta_t, trials=10, seed=0))
    assert (res.sd_low, res.mean_low) == (0.0, res.tau_low) and res.sd_high > 0.0
    assert not res.noise_free and res.bayes_error == 0.0


_mp = MPContext()
_mp.dps = 60


def _mp_bayes(m1: float, s1: float, m2: float, s2: float) -> float:
    """0.5 * integral of min(f1, f2) from the crossings of the k^2 - 1 quadratic, at 60 digits."""
    if s1 == 0.0 or s2 == 0.0:
        return 0.5 if m1 == m2 and s1 == s2 else 0.0
    m1, s1, m2, s2 = map(_mp.mpf, (m1, s1, m2, s2))
    if s2 < s1:
        m1, s1, m2, s2 = m2, s2, m1, s1
    d, k = abs(m2 - m1) / s1, s2 / s1
    if k == 1:
        if d == 0:
            return 0.5
        lo, hi = -_mp.inf, d / 2
    else:
        r = _mp.sqrt(d**2 + 2 * (k**2 - 1) * _mp.log(k))
        lo, hi = -(d + k * r) / (k**2 - 1), (k * r - d) / (k**2 - 1)

    def tail(z):
        return _mp.erfc(z / _mp.sqrt(2)) / 2

    return float((tail(-lo) + tail(hi) + tail((d - hi) / k) - tail((d - lo) / k)) / 2)


@settings(max_examples=300, deadline=None)
@given(log_s=st.floats(-3.0, 3.0),
       ratio=st.one_of(st.just(1.0), st.floats(-15.0, 0.0).map(lambda e: 1.0 + 10**e),
                       st.floats(0.0, 300.0).map(lambda e: 10**e)),
       widths=st.floats(0.0, 40.0), per_wide=st.booleans(), offset=st.sampled_from([0.0, -3.5, 1e6]),
       zero=st.sampled_from(["", "narrow", "wide", "both"]), wide_first=st.booleans())
@example(log_s=0.0, ratio=1.0, widths=0.0, per_wide=False, offset=1.0, zero="narrow", wide_first=False)
@example(log_s=-155.0 / 2, ratio=1e155, widths=0.0, per_wide=False, offset=1.0, zero="", wide_first=False)
@example(log_s=3.0, ratio=1e300, widths=40.0, per_wide=True, offset=0.0, zero="", wide_first=True)
def test_bayes_error_matches_mpmath_at_any_width_ratio(log_s, ratio, widths, per_wide, offset, zero, wide_first):
    # one zero width overlaps nowhere, and past a width ratio of about 1e154 k^2 - 1 leaves the floats
    s1 = 10**log_s
    s2 = s1 * ratio
    m1 = offset
    m2 = m1 + widths * (s2 if per_wide else s1)
    s1, s2 = (0.0 if zero in ("narrow", "both") else s1), (0.0 if zero in ("wide", "both") else s2)
    if wide_first:
        m1, s1, m2, s2 = m2, s2, m1, s1
    got = _bayes_overlap(m1, s1, m2, s2)
    assert abs(got - _mp_bayes(m1, s1, m2, s2)) <= 1e-12
    assert got == _bayes_overlap(m2, s2, m1, s1)


def test_consistency_sweep_box(box):
    proto = sl.PeriodProtocol(trials=10000, seed=0)
    sweep = sl.consistency_sweep(box, (2, 12), proto)
    assert sweep.criterion_threshold == 4
    assert sweep.mc_crossover is not None
    assert abs(sweep.mc_crossover - 4) <= 1
    assert sweep.crossover_within_one
    assert sweep.delta_t_mode == "auto-saturating"
    assert len(sweep.results) == 11
    assert sweep.agreements + sweep.disagreements == 11


def test_sweep_sensitivity_cuts(box):
    proto = sl.PeriodProtocol(trials=10000, seed=2)
    sweep = sl.consistency_sweep(box, (2, 12), proto)
    cuts = [cut for cut, _ in sweep.sensitivity]
    assert cuts == [1.5, 2.0, 3.0]
    crossings = [c for _, c in sweep.sensitivity]
    # a laxer cut never crosses earlier than a stricter one
    assert crossings[0] >= crossings[1] >= crossings[2]


def test_sweep_y_values_match_criterion(box):
    proto = sl.PeriodProtocol(trials=500, seed=1)
    sweep = sl.consistency_sweep(box, (2, 6), proto)
    for n, y in sweep.y_values:
        assert y == pytest.approx(sl.y_function(box, n), rel=1e-12)


def test_sweep_fixed_delta_t_mode(box):
    proto = sl.PeriodProtocol(delta_t=0.01, trials=500, seed=1)
    sweep = sl.consistency_sweep(box, (2, 4), proto)
    assert sweep.delta_t_mode == "fixed"
    assert all(r.delta_t == 0.01 for r in sweep.results)


def test_sweep_estimates_past_the_float_range_are_a_float_range_error(box):
    with pytest.raises(FloatRangeError, match="period estimates at delta_t=1e\\+308 leave the float range"):
        sl.consistency_sweep(box, (2, 4), sl.PeriodProtocol(delta_t=1e308, trials=50))


def test_sweep_range_validation(box):
    with pytest.raises(OutOfRangeError):
        sl.consistency_sweep(box, (1, 5), sl.PeriodProtocol())


def test_sweep_clips_at_the_ladders_end_as_classify_does(morse_h2):
    # H2 enumerates levels up to n = 8: a sweep asked for (1, 12) is the sweep over (1, 8)
    proto = sl.PeriodProtocol(trials=200, seed=4)
    assert sl.n_max(morse_h2) == 8
    clipped = sl.consistency_sweep(morse_h2, (1, 12), proto)
    assert clipped == sl.consistency_sweep(morse_h2, (1, 8), proto)
    assert [r.n_high for r in clipped.results] == list(range(1, 9))
    with pytest.raises(OutOfRangeError, match="^morse: no level pairs at or above n = 9$"):
        sl.discriminate(morse_h2, 9, proto)


def test_range_errors_are_classifys(box):
    proto = sl.PeriodProtocol(trials=50)
    for call, message in ((lambda: sl.discriminate(box, 1, proto), "box: n_range must start at 2 or above, got 1"),
                          (lambda: sl.consistency_sweep(box, (3, 2), proto),
                           "n_range upper bound 2 is below lower bound 3"),
                          (lambda: sl.consistency_sweep(box, (2.0, 3), proto),
                           "n_range must be a pair of integers, got (2.0, 3)")):
        with pytest.raises(OutOfRangeError) as ei:
            call()
        assert str(ei.value) == message


def test_sweep_morse(morse_h2):
    # every H2 pair is below threshold; MC at saturating accuracy agrees
    proto = sl.PeriodProtocol(trials=4000, seed=9)
    sweep = sl.consistency_sweep(morse_h2, (1, 8), proto)
    assert sweep.criterion_threshold == 1
    assert sweep.mc_crossover == 1
    assert sweep.disagreements == 0


def test_numeric_sweep_quantizes_each_level_once(monkeypatch, placed_levels):
    from collections import Counter

    xs = [0.5 * i for i in range(-16, 17)]
    model = sl.numeric(1.0, xs, [0.5 * x * x for x in xs])
    sweep = sl.consistency_sweep(model, (2, 5), sl.PeriodProtocol(trials=100))
    monkeypatch.undo()
    assert placed_levels == Counter(range(1, 6))
    for r, (n, y) in zip(sweep.results, sweep.y_values):
        gap = sl.level_gap(model, n)
        assert r.criterion_resolvable == gap.resolvable and y == gap.y_over_hbar
        assert r.delta_t == 1.0 / (2 * gap.dE)


@pytest.mark.parametrize("delta_t", [None, 0.1])
def test_period_measurement_refuses_a_level_as_the_single_level_functions_do(box, morse_h2, delta_t):
    protocol = sl.PeriodProtocol(delta_t=delta_t, trials=10)
    for model, n, message in ((box, 0, "box: n must be >= 1, got 0"),
                              (box, True, "quantum number must be an integer, got True"),
                              (box, 1.0, "quantum number must be an integer, got 1.0"),
                              (morse_h2, 9, "morse: n must be <= 8 for these parameters, got 9")):
        with pytest.raises(OutOfRangeError) as ei:
            sl.simulate_period_measurement(model, n, protocol)
        assert str(ei.value) == message


@pytest.mark.parametrize("n", [0, 1, 2])
def test_saturating_delta_t_times_with_the_gap_below_or_above_the_bottom(placed_levels, n):
    # delta_t=None times level n at hbar / (2 dE) of its own gap, or of the gap above for the bottom level
    from collections import Counter

    from speclimit import semiclassical

    xs = [0.5 * i for i in range(-16, 17)]
    table = sl.numeric(1.0, xs, [0.5 * x * x for x in xs])
    for model in (sl.box(1.3, 0.7), table):
        n_model = n + sl.n_min(model)
        gap_at = max(n_model, sl.n_min(model) + 1)
        placed_levels.clear()
        sample = sl.simulate_period_measurement(model, n_model, sl.PeriodProtocol(trials=10))
        quantized = Counter(placed_levels)
        assert sample.delta_t == model.hbar / (2.0 * sl.level_gap(model, gap_at).dE)
        if model is table:  # the three levels n, gap_at - 1 and gap_at, two of them the same, each quantized once
            assert quantized == Counter({n_model, gap_at - 1, gap_at})
            e = semiclassical.quantize(model, n_model).energy
            assert sample.tau_true == semiclassical.period_of_energy(model, e, self_check=False)
        else:
            assert not quantized
            assert sample.tau_true == sl.classical_period(model, n_model).tau


# -- one draw per level ------------------------------------------------------------


def _reference_draw(center: float, sigma: float, count: int, seed: int, stream: int, what: str) -> np.ndarray:
    # the draw of earlier versions, made per pair: each pair built a generator for each of its two levels, so an
    # inner level's normals were generated twice, once per pair it belongs to
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))
    try:
        with np.errstate(over="raise"):
            return center + sigma * gen.standard_normal(count)
    except FloatingPointError:
        raise FloatRangeError(f"{what} leave the float range") from None


def _per_pair_estimates(n, protocol, tau, delta_t, z):
    return _reference_draw(tau, protocol.estimator_sd(delta_t), protocol.trials, protocol.seed, n,
                           f"level {n}: period estimates at delta_t={delta_t!r}")


@pytest.mark.parametrize("name, n_range", [("box", (2, 7)), ("hyd", (2, 6)), ("morse_h2", (3, 12))])
@pytest.mark.parametrize("protocol", [
    sl.PeriodProtocol(trials=300, seed=5),
    sl.PeriodProtocol(delta_t=0.05, trials=300, seed=6),
    sl.PeriodProtocol(s=3, per_inversion=True, trials=200, seed=7),
    sl.PeriodProtocol(delta_t=0.2, s=3, trials=200, seed=2**64 - 1),
])
def test_levels_drawn_once_have_the_bits_of_the_per_pair_draws(request, monkeypatch, name, n_range, protocol):
    # morse_h2's ladder ends at n = 8, so its range is clipped there
    model = request.getfixturevalue(name)

    def run():
        sweep = sl.consistency_sweep(model, n_range, protocol)
        ns = [r.n_high for r in sweep.results]
        return (sweep, [sl.discriminate(model, n, protocol) for n in ns],
                [sl.simulate_period_measurement(model, n, protocol) for n in [ns[0] - 1, *ns]])

    drawn_once = run()
    monkeypatch.setattr(simulate, "_estimates", _per_pair_estimates)
    per_pair = run()
    assert repr(drawn_once) == repr(per_pair)  # repr tells every float's bits, -0.0 included
    assert drawn_once[0].results == tuple(drawn_once[1])
    assert [r.n_high for r in drawn_once[0].results][-1] == (8 if name == "morse_h2" else n_range[1])


def test_a_sweep_over_k_pairs_builds_k_plus_one_generators(box, morse_h2, monkeypatch):
    built = []
    philox = np.random.Philox
    monkeypatch.setattr(np.random, "Philox", lambda *args, **kwargs: built.append(1) or philox(*args, **kwargs))
    protocol = sl.PeriodProtocol(trials=50)
    for model, n_range, k in ((box, (2, 2), 1), (box, (2, 11), 10), (morse_h2, (3, 12), 6)):
        built.clear()
        assert len(sl.consistency_sweep(model, n_range, protocol).results) == k
        assert len(built) == k + 1
    for call, count in ((lambda: sl.discriminate(box, 5, protocol), 2),
                        (lambda: sl.simulate_period_measurement(box, 5, protocol), 1)):
        built.clear()
        call()
        assert len(built) == count
