from __future__ import annotations

import dataclasses
import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import MPContext

import speclimit as sl
from speclimit import noise
from speclimit.errors import (
    DegenerateEnsembleError,
    FloatRangeError,
    InvalidArgumentError,
    InvalidCountError,
    InvalidSigmaError,
    OutOfRangeError,
    SpeclimitError,
    UnsupportedModelError,
)
from speclimit.models import energy_level
from speclimit.noise import CharacteristicCheck, fmean, fvariance
from speclimit.units import UNIT_SYSTEMS

# First standard-normal draws of Philox(4x64-10) keyed (12345, 0); frozen to
# pin the bit-reproducibility contract.
PHILOX_12345_0 = (
    -0.22588271269700672,
    -0.133523796357427,
    0.50694626941401,
    0.4574163448870907,
    -1.1245093619573874,
)


# -- summation helpers -------------------------------------------------------


def test_fmean_fvariance_match_numpy():
    rng = np.random.default_rng(99)
    data = list(rng.normal(5.0, 2.0, 4001))
    assert fmean(data) == pytest.approx(float(np.mean(data)), rel=1e-13)
    assert fvariance(data) == pytest.approx(float(np.var(data, ddof=1)), rel=1e-12)


def test_fvariance_shifted_catastrophic_case():
    # classic cancellation trap: huge offset, tiny spread
    base = [1.0, 2.0, 3.0, 4.0]
    shifted = [v + 1e9 for v in base]
    assert fvariance(shifted) == pytest.approx(fvariance(base), rel=1e-9)


def test_fmean_empty():
    with pytest.raises(ValueError):
        fmean([])
    with pytest.raises(ValueError):
        fvariance([1.0])


@pytest.mark.parametrize("call, message", [
    (lambda: fmean(["a", 1.0]), "mean: values must be real numbers (could not convert string to float: 'a')"),
    (lambda: fmean([10**400, 1]), "mean: values must be real numbers (int too large to convert to float)"),
    (lambda: fmean(None), "mean: values must be real numbers ("),
    (lambda: fvariance([1.0, 2.0, 3.0], ddof="a"), "ddof must be an integer >= 0, got 'a'"),
    (lambda: sl.GaussianState(0.0, 0.0, 1.0, 1.0).position_density("a"),
     "position density: values must be real numbers (could not convert string to float: 'a')"),
], ids=["string", "huge int", "None", "ddof", "density"])
def test_statistics_refuse_what_numpy_cannot_convert(call, message):
    with pytest.raises(InvalidArgumentError) as ei:
        call()
    assert str(ei.value).startswith(message)


# -- array statistics against the per-element code they replaced ------------


def _reference_fmean(values) -> float:
    vals = list(values)
    return math.fsum(vals) / len(vals)


def _reference_fvariance(values, ddof: int = 1) -> float:
    vals = list(values)
    m = math.fsum(vals) / len(vals)
    ss = math.fsum((v - m) ** 2 for v in vals)
    corr = math.fsum(v - m for v in vals) ** 2 / len(vals)
    return (ss - corr) / (len(vals) - ddof)


def _reference_characteristic_check(ensemble, p: float, hbar: float = 1.0) -> CharacteristicCheck:
    xi = [x - ensemble.true_center for x in ensemble.samples]
    cos_terms = [math.cos(p * v / hbar) for v in xi]
    sin_terms = [-math.sin(p * v / hbar) for v in xi]
    n = len(xi)
    return CharacteristicCheck(
        p=p,
        delta_x=ensemble.sigma,
        mc_real=_reference_fmean(cos_terms),
        mc_imag=_reference_fmean(sin_terms),
        exact=sl.characteristic_factor(ensemble.sigma, p, hbar),
        se_real=math.sqrt(_reference_fvariance(cos_terms) / n),
        se_imag=math.sqrt(_reference_fvariance(sin_terms) / n),
    )


def _gaussian_ensemble(count: int, seed: int, center: float, sigma: float) -> sl.MeasurementEnsemble:
    draws = np.random.default_rng(seed).standard_normal(count)
    return sl.MeasurementEnsemble(samples=tuple((center + sigma * draws).tolist()), seed=seed, stream=0,
                                  true_center=center, sigma=sigma)


@settings(max_examples=60, deadline=None)
@given(values=st.lists(st.floats(-1e100, 1e100), min_size=2, max_size=60), ddof=st.integers(0, 1))
def test_statistics_of_arbitrary_values_match_reference(values, ddof):
    assert fmean(np.array(values)) == fmean(values) == _reference_fmean(values)
    for got in (fvariance(np.array(values), ddof), fvariance(iter(values), ddof)):
        assert math.isclose(got, _reference_fvariance(values, ddof), rel_tol=1e-15, abs_tol=0.0)


@settings(max_examples=80, deadline=None)
@given(count=st.integers(2, 6000), seed=st.integers(0, 2**32 - 1), center=st.floats(-1e3, 1e3),
       sigma=st.one_of(st.just(0.0), st.floats(1e-6, 1e3)), u=st.floats(0.0, 4.0), hbar=st.sampled_from((1.0, 0.5, 1.054571817e-34)))
def test_array_statistics_match_reference(count, seed, center, sigma, u, hbar):
    """fmean is exact; fvariance and every characteristic field agree to 1e-15 relative.

    The reference squares with libm pow(d, 2), which misrounds about one square
    in a thousand by one ulp; the array code uses the correctly rounded d * d.
    """
    ens = _gaussian_ensemble(count, seed, center, sigma)
    arr = np.array(ens.samples)
    assert fmean(arr) == _reference_fmean(ens.samples)
    assert math.isclose(fvariance(arr), _reference_fvariance(ens.samples), rel_tol=1e-15, abs_tol=0.0)
    p = u * hbar / sigma if sigma > 0.0 else u
    got, want = sl.characteristic_check(ens, p, hbar), _reference_characteristic_check(ens, p, hbar)
    for field in dataclasses.fields(got):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert math.isclose(a, b, rel_tol=1e-15, abs_tol=0.0), (field.name, a, b)


def test_characteristic_check_rejects_an_infinite_phase():
    ens = sl.sample_ensemble(0.0, 1.0, 10, seed=1)
    for p in (math.inf, 1e308):
        with pytest.raises(InvalidArgumentError):
            sl.characteristic_check(ens, p, hbar=1e-300)


def test_characteristic_check_sums_six_times(monkeypatch):
    # two means, then a sum of squares for each variance about the mean already
    # formed (recomputing the means made it 8); the residual sum of each variance
    # is taken only where it can change the result, so centred terms take 4
    calls = []
    exact_sum = noise._exact_sum
    monkeypatch.setattr(noise, "_exact_sum", lambda arr: calls.append(1) or exact_sum(arr))
    sl.characteristic_check(sl.sample_ensemble(0.5, 1.5, 1000, seed=3), 0.8)
    assert len(calls) == 4
    # outcomes 1 +- 1e-9 read against a center of 0: every phase sits near p, so the
    # cosines and sines both have a large offset and a tiny spread and take 6 sums
    calls.clear()
    offset = dataclasses.replace(sl.sample_ensemble(1.0, 1e-9, 1000, seed=3), true_center=0.0)
    sl.characteristic_check(offset, math.pi / 4)
    assert len(calls) == 6


def test_each_ensemble_is_converted_to_an_array_once(monkeypatch):
    # statistics on one ensemble share one cached array of its samples, and a
    # drawn ensemble's cache is the draw itself: its tuple is never converted
    converted = []
    as_array = noise._as_array
    monkeypatch.setattr(noise, "_as_array",
                        lambda values, what: converted.append(type(values)) or as_array(values, what))
    pos = sl.sample_ensemble(2.0, 0.5, 1000, seed=3, stream=0)
    mom = sl.sample_ensemble(-1.0, 1.2, 1000, seed=3, stream=1)
    state = sl.reconstruct_state(pos, mom)
    for p in (0.5, 1.0, 2.0):
        sl.characteristic_check(pos, p)
    assert (pos.mean(), pos.stdev(), mom.mean()) == (state.r, state.delta_x, state.d)
    assert [t for t in converted if t is not np.ndarray] == []
    assert pos._array.tolist() == list(pos.samples)
    assert not pos._array.flags.writeable
    # the cache is not a field: equality, hash and repr see only the samples
    fresh = sl.sample_ensemble(2.0, 0.5, 1000, seed=3, stream=0)
    assert (fresh == pos, hash(fresh) == hash(pos), repr(fresh) == repr(pos)) == (True, True, True)
    assert isinstance(pos.samples, tuple)


# -- the exact summation kernel against math.fsum ----------------------------


def _sum_case(kind: str, count: int, seed: int, log_scale: float) -> np.ndarray:
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(count)
    if kind == "gaussian":
        return x * 10.0**log_scale
    if kind == "cosine":
        return np.cos(x * 10.0 ** min(log_scale, 3.0))
    if kind == "squared-deviation":
        d = x * 10.0 ** (log_scale / 2.0)
        d = d - math.fsum(d.tolist()) / max(count, 1)
        return d * d
    if kind == "magnitudes":  # each value at its own scale, 1e-310 to 1e300
        return x * 10.0 ** rng.uniform(-310.0, 300.0, count)
    if kind == "cancelling":  # every value beside its negation: the exact sum is 0
        half = x[: count // 2] * 10.0 ** rng.uniform(-310.0, 300.0, count // 2)
        return rng.permutation(np.concatenate((half, -half)))
    if kind == "ties":  # values on a coarse grid whose exact total is a midpoint between two floats
        # a 53-bit float b at exponent t and half its ulp, then grid values a_i 2^s that sum to 0 exactly
        t = int(np.clip(log_scale * 3.32, -990.0, 900.0))
        b = float(rng.integers(2**52, 2**53)) * 2.0**t * rng.choice((-1.0, 1.0))
        a = rng.integers(-(2**30), 2**30, max(count - 3, 0))
        grid = np.append(a, -a.sum()).astype(float) * 2.0 ** (t + int(rng.integers(-80, 20)))
        return rng.permutation(np.concatenate(([b, math.copysign(2.0 ** (t - 1), b)], grid))[:count])
    return rng.choice(np.array([0.0, -0.0]), count)  # signed zeros


_SUM_KINDS = ("gaussian", "cosine", "squared-deviation", "magnitudes", "cancelling", "ties", "zeros")


@settings(max_examples=200, deadline=None)
@given(arr=st.builds(_sum_case, st.sampled_from(_SUM_KINDS), st.integers(0, 6000), st.integers(0, 2**32 - 1),
                     st.floats(-310.0, 300.0)))
@example(arr=np.array([1.0, 2.0**-53]))  # 1 + 2^-53 rounds down to the even 1.0
@example(arr=np.array([1.0, 3 * 2.0**-53]))  # 1 + 3 2^-53 rounds up to the even 1 + 2^-51
@example(arr=np.array([2.0**-1074, -1.0, 2.0**-1074, 0.5, 0.5]))  # the subnormals are all the total
@example(arr=np.array([-0.0, -0.0]))
@example(arr=np.array([]))
def test_exact_sum_has_the_bits_of_fsum(arr):
    assert noise._exact_sum(arr).hex() == math.fsum(arr.tolist()).hex()


def _counted_passes(monkeypatch) -> list[str]:
    """Record each splitting pass ("split") and each fallback ("resum") of _exact_sum."""
    calls = []
    split, resum = noise._split, noise._resum
    monkeypatch.setattr(noise, "_split", lambda *args: calls.append("split") or split(*args))
    monkeypatch.setattr(noise, "_resum", lambda *args: calls.append("resum") or resum(*args))
    return calls


@pytest.mark.parametrize("arr", [
    np.array([1.0, 2.0**-53]),
    np.array([3 * 2.0**-53, 1.0]),
    _sum_case("ties", 5000, 7, 0.0),
    _sum_case("ties", 2500, 8, -200.0),
    _sum_case("ties", 40, 21, 50.0),  # the residual's plain sum is inexact: a bound 2^20 too small rounds it wrong
])
def test_exact_sum_of_a_tie_runs_the_fallback_passes(monkeypatch, arr):
    # the certificate's interval straddles the midpoint, so the residual is split until it is all zeros
    calls = _counted_passes(monkeypatch)
    assert noise._exact_sum(arr).hex() == math.fsum(arr.tolist()).hex()
    assert calls[:2] == ["split", "resum"] and calls.count("split") >= 2


def test_period_estimates_that_sum_to_a_tie_fall_back_once(monkeypatch):
    # op 156 of the monte-carlo workload's seed 1: level 8's 4,818 estimates sum exactly to the midpoint
    # 256695.4519287281 - ulp / 2, the one fallback in the 19,524 sums of the workload's first 300 ops
    model = sl.model_from_dict({"kind": "box", "units": "molecular",
                                "params": {"mass": 1.9927944681591576, "width": 1.459986510931909}})
    protocol = sl.PeriodProtocol(trials=4818, seed=3017142434)
    calls = _counted_passes(monkeypatch)
    sweep = sl.consistency_sweep(model, (5, 14), protocol)
    assert calls.count("resum") == 1 and calls.count("split") == 40 + 1
    monkeypatch.setattr(noise, "_exact_sum", lambda arr: math.fsum(arr.tolist()))
    assert repr(sweep) == repr(sl.consistency_sweep(model, (5, 14), protocol))


def test_exact_sum_of_cosines_takes_one_pass(monkeypatch):
    calls = _counted_passes(monkeypatch)
    for seed in range(20):
        calls.clear()
        arr = np.cos(np.random.default_rng(seed).standard_normal(2500) * (1 + seed))
        assert noise._exact_sum(arr) == math.fsum(arr.tolist())
        assert calls == ["split"]


def _fsum_variance(values, ddof: int = 1) -> float:
    # the reference: _variance's formula with math.fsum on every sum
    arr = np.array(values)
    m = math.fsum(arr.tolist()) / arr.size
    d = arr - m
    return (math.fsum((d * d).tolist()) - math.fsum(d.tolist()) ** 2 / arr.size) / (arr.size - ddof)


def _outcome(f, values, quiet: bool = True):
    """f(values) as float hex ("nan" for any nan), or the type of the exception it raises.

    ``quiet`` ignores numpy's floating-point warnings; otherwise every warning is an error.
    """
    try:
        with np.errstate(all="ignore") if quiet else warnings.catch_warnings():
            if not quiet:
                warnings.simplefilter("error")
            value = f(values)
    except Exception as exc:  # noqa: BLE001 - the exception type is the outcome
        return type(exc)
    return "nan" if math.isnan(value) else value.hex()


def _as_reported(outcome, values):
    """fsum's outcome under the statistics' contract.

    fsum's refusal of inf + -inf is InvalidArgumentError; its overflow, and an
    infinite result from finite values, are FloatRangeError; any other value,
    nan and inf from non-finite values included, is fsum's.
    """
    if outcome is ValueError:
        return InvalidArgumentError
    if outcome is OverflowError or (outcome in (math.inf.hex(), (-math.inf).hex()) and all(map(math.isfinite, values))):
        return FloatRangeError
    return outcome


@pytest.mark.parametrize("values", [
    [1.0, math.inf, 2.0], [-math.inf, 3.0], [math.inf, -math.inf], [math.nan, 1.0], [1.0, math.inf, math.nan],
    [1e308, 1e308, -1e308], [1e308, -1e308], [1e300, 1e300, 1e300], [1e200, -1e200, 3.0],
    [1.2e308, 1.2e308, -1.2e308, -1.2e308, 1e308],  # the partial sums overflow in between
])
def test_statistics_of_non_finite_and_overflowing_values_match_fsum(values):
    # the exact exception type, and no warning on the way
    fsum_mean = _outcome(lambda v: math.fsum(v) / len(v), values)
    assert _outcome(fmean, values, quiet=False) == _as_reported(fsum_mean, values)
    assert _outcome(fvariance, values, quiet=False) == _as_reported(_outcome(_fsum_variance, values), values)


def _fsum_moments(arr: np.ndarray, ddof: int):
    """The statistics' contract with math.fsum on every sum: mean and variance as hex, or the error type."""
    try:
        with np.errstate(over="raise", invalid="ignore"):
            m = math.fsum(arr.tolist()) / arr.size
            d = arr - m
            dd = d * d
        var = (math.fsum(dd.tolist()) - math.fsum(d.tolist()) ** 2 / arr.size) / (arr.size - ddof)
    except (FloatingPointError, OverflowError):
        return FloatRangeError
    except ValueError:
        return InvalidArgumentError
    return tuple("nan" if math.isnan(v) else v.hex() for v in (m, var))


def test_moments_match_the_fsum_formula_bit_for_bit(monkeypatch):
    """_moments gives the bits and errors of the fsum formula, whether or not it sums the residual mean.

    The residual sum S(d)^2 / n is skipped where it cannot change the
    variance; both branches must be taken, so the count of exact sums per
    call (2 skipped, 3 summed) is tallied over the examples.
    """
    calls, taken = [], set()
    exact_sum = noise._exact_sum
    monkeypatch.setattr(noise, "_exact_sum", lambda arr: calls.append(1) or exact_sum(arr))

    @settings(max_examples=200, deadline=None)
    @given(count=st.integers(2, 3000), seed=st.integers(0, 2**32 - 1),
           center=st.one_of(st.just(0.0), st.floats(-1e300, 1e300)), log_sigma=st.floats(-300.0, 300.0),
           shape=st.sampled_from(("gaussian", "discrete", "magnitudes", "relative")), ddof=st.integers(0, 1))
    @example(count=2500, seed=1, center=0.0, log_sigma=0.0, shape="gaussian", ddof=1)  # unit Gaussian: skipped
    @example(count=2500, seed=1, center=1e8, log_sigma=-6.0, shape="gaussian", ddof=1)  # offset 1e8, sigma 1e-6
    def check(count, seed, center, log_sigma, shape, ddof):
        rng = np.random.default_rng(seed)
        with np.errstate(over="ignore", invalid="ignore"):
            if shape == "magnitudes":  # each value at its own scale
                arr = rng.standard_normal(count) * 10.0 ** rng.uniform(-300.0, 300.0, count)
            elif shape == "relative":  # a spread of 1e-12 to 1e-4 of the center: the residual term nears ulp(ss)
                arr = center * (1.0 + 10.0 ** (log_sigma / 75.0 - 8.0) * rng.standard_normal(count))
            else:
                draws = rng.standard_normal(count) if shape == "gaussian" else rng.integers(-3, 4, count)
                arr = center + 10.0**log_sigma * draws
        calls.clear()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                m, var = noise._moments(arr, "check", ddof)
        except SpeclimitError as exc:
            assert type(exc) is _fsum_moments(arr, ddof)
            return
        assert tuple("nan" if math.isnan(v) else v.hex() for v in (m, var)) == _fsum_moments(arr, ddof)
        taken.add(len(calls))

    check()
    assert taken == {2, 3}


# -- ensembles ----------------------------------------------------------------


def test_sample_ensemble_deterministic():
    a = sl.sample_ensemble(0.0, 1.0, 5, seed=12345, stream=0)
    assert a.samples == pytest.approx(PHILOX_12345_0, abs=0.0)
    b = sl.sample_ensemble(0.0, 1.0, 5, seed=12345, stream=0)
    assert a.samples == b.samples


def test_sample_ensemble_streams_differ():
    a = sl.sample_ensemble(0.0, 1.0, 100, seed=7, stream=0)
    b = sl.sample_ensemble(0.0, 1.0, 100, seed=7, stream=1)
    c = sl.sample_ensemble(0.0, 1.0, 100, seed=8, stream=0)
    assert a.samples != b.samples
    assert a.samples != c.samples


def test_sample_ensemble_zero_sigma():
    ens = sl.sample_ensemble(3.25, 0.0, 50, seed=1)
    assert all(v == 3.25 for v in ens.samples)
    assert ens.stdev() == 0.0


def test_sample_ensemble_statistics():
    ens = sl.sample_ensemble(2.0, 0.5, 100000, seed=42)
    # mean within 5 standard errors, sd within 2 percent
    se = 0.5 / math.sqrt(ens.count)
    assert abs(ens.mean() - 2.0) <= 5 * se
    assert ens.stdev() == pytest.approx(0.5, rel=0.02)


def test_ensemble_past_the_float_range_is_a_float_range_error():
    # 2500 draws at sigma 1e308 hold some |N(0, 1)| above 1.8, whose outcome overflows
    with pytest.raises(FloatRangeError, match="leave the float range"):
        sl.sample_ensemble(0.0, 1e308, 2500, seed=0)


def test_sample_ensemble_validation():
    with pytest.raises(InvalidCountError):
        sl.sample_ensemble(0.0, 1.0, 1, seed=0)
    with pytest.raises(InvalidSigmaError):
        sl.sample_ensemble(0.0, -1.0, 10, seed=0)
    with pytest.raises(ValueError):
        sl.sample_ensemble(0.0, 1.0, 10, seed=-1)
    with pytest.raises(ValueError):
        sl.sample_ensemble(math.inf, 1.0, 10, seed=0)


def test_ensemble_csv_round_trip(tmp_path):
    ens = sl.sample_ensemble(-1.0, 1.2, 256, seed=11, stream=3)
    path = tmp_path / "ens.csv"
    ens.to_csv(path)
    back = sl.MeasurementEnsemble.from_csv(path)
    assert back == ens  # exact float round trip via repr
    header = path.read_text().splitlines()[0]
    assert header == "seed,stream,center,sigma,count"


@pytest.mark.parametrize("lines", [
    ["seed,stream,centre,sigma,count", "1,0,0.0,1.0,1", "outcome", "0.5"],
    ["seed,stream,center,sigma,count", "1,0,0.0,1.0,1", "outcomes", "0.5"],
    ["seed,stream,center,sigma,count", "1,0,0.0,1.0,0"],
])
def test_ensemble_csv_refuses_a_file_without_its_header(tmp_path, lines):
    path = tmp_path / "ens.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(InvalidArgumentError, match="^not an ensemble CSV: "):
        sl.MeasurementEnsemble.from_csv(path)


@pytest.mark.parametrize("samples", [(), (0.1, -2.5e-300, 3.0)])
def test_ensemble_csv_writes_one_repr_per_line(tmp_path, samples):
    ens = sl.MeasurementEnsemble(samples=samples, seed=4, stream=1, true_center=0.5, sigma=2.0)
    path = tmp_path / "ens.csv"
    ens.to_csv(path)
    head = f"seed,stream,center,sigma,count\n4,1,0.5,2.0,{len(samples)}\noutcome\n"
    assert path.read_bytes() == (head + "".join(f"{v!r}\n" for v in samples)).encode()


# -- characteristic factor ------------------------------------------------------


def test_characteristic_factor_example():
    assert sl.characteristic_factor(1.0, 1.0, 1.0) == pytest.approx(math.exp(-0.5), rel=1e-15)


def test_characteristic_factor_limits():
    assert sl.characteristic_factor(0.0, 5.0) == 1.0
    assert sl.characteristic_factor(3.0, 0.0) == 1.0
    assert sl.characteristic_factor(10.0, 10.0) < 1e-21


_mp50 = MPContext()
_mp50.dps = 50
_magnitudes = st.builds(lambda e, s: s * 10.0**e, st.floats(-300, 300), st.sampled_from((1.0, -1.0)))


@settings(max_examples=400, deadline=None)
@given(_magnitudes, _magnitudes, st.floats(-300, 300).map(lambda e: 10.0**e))
@example(1e-10, 1e300, 1.0)  # (p delta_x)^2 overflows, the factor is 0
@example(1.0, 1.0, 1e200)  # hbar^2 overflows, the factor is 1
@example(1e300, 1e300, 1e300)  # p delta_x overflows, p delta_x / hbar does not
@example(3e-160, 1.0, 1e-160)  # 2 hbar^2 is subnormal and holds a few digits only
@example(1e-200, 1e-200, 1e-200)  # both squares underflow to 0
def test_characteristic_factor_matches_mpmath_at_any_scale(delta_x, p, hbar):
    got = sl.characteristic_factor(delta_x, p, hbar)
    x, q, h = _mp50.mpf(delta_x), _mp50.mpf(p), _mp50.mpf(hbar)
    want = _mp50.exp(-(q * x) ** 2 / (2 * h**2))
    assert abs(got - want) <= 1e-12 * want or (got < sys.float_info.min and want < sys.float_info.min)
    try:  # where the plain expression holds its digits, its bits are kept
        den = 2.0 * hbar**2
        plain = math.exp(-(p * delta_x) ** 2 / den) if den >= sys.float_info.min else None
    except OverflowError:
        plain = None
    assert plain is None or got == plain


def test_characteristic_mc_within_3se_grid():
    # 20-point (p, delta_x) grid at N = 1e5: MC mean of exp(-i p xi / hbar)
    # must match the Gaussian factor within 3 empirical standard errors
    n = 100000
    failures = []
    for j, dx in enumerate((0.25, 0.5, 1.0, 2.0)):
        ens = sl.sample_ensemble(0.7, dx, n, seed=2024, stream=j)
        for u in (0.25, 0.5, 1.0, 1.5, 2.0):
            p = u / dx
            chk = sl.characteristic_check(ens, p)
            if not chk.within_3se:
                failures.append((dx, p))
    assert not failures


def test_characteristic_sample_mean_complex():
    ens = sl.sample_ensemble(0.0, 0.8, 20000, seed=5)
    z = sl.characteristic_sample_mean(ens, 1.1)
    assert isinstance(z, complex)
    assert z.real == pytest.approx(sl.characteristic_factor(0.8, 1.1), abs=0.02)
    assert abs(z.imag) < 0.02


# -- budgets and states -----------------------------------------------------------


def test_noise_budget_example():
    budget = sl.NoiseBudget(0.5, 1.2)
    assert budget.product_over_hbar == pytest.approx(0.6, rel=1e-15)
    assert budget.preparable


def test_noise_budget_sql_boundary():
    assert sl.NoiseBudget(1.0, 0.5).preparable  # exactly hbar/2
    assert sl.NoiseBudget(1.0, 0.5 - 1e-13).preparable  # inside the slack
    assert not sl.NoiseBudget(1.0, 0.4).preparable


def test_noise_budget_validation():
    with pytest.raises(InvalidSigmaError):
        sl.NoiseBudget(-0.1, 1.0)
    with pytest.raises(InvalidSigmaError):
        sl.NoiseBudget(0.1, math.nan)


def test_reconstruct_state_example():
    pos = sl.sample_ensemble(2.0, 0.5, 100000, seed=42, stream=0)
    mom = sl.sample_ensemble(-1.0, 1.2, 100000, seed=42, stream=1)
    st = sl.reconstruct_state(pos, mom)
    assert st.r == pytest.approx(2.0, abs=0.02)
    assert st.d == pytest.approx(-1.0, abs=0.03)
    assert st.budget.product_over_hbar == pytest.approx(0.6, rel=0.02)
    assert st.budget.preparable
    assert not st.sub_sql


def test_position_density_normalized():
    st = sl.GaussianState(r=1.5, d=0.0, delta_x=0.7, delta_p=1.0)
    x = np.linspace(1.5 - 8 * 0.7, 1.5 + 8 * 0.7, 20001)
    integral = float(np.trapezoid(st.position_density(x), x))
    assert abs(integral - 1.0) <= 1e-8


def test_momentum_density_normalized():
    st = sl.GaussianState(r=0.0, d=-2.0, delta_x=1.0, delta_p=0.9)
    p = np.linspace(-2.0 - 8 * 0.9, -2.0 + 8 * 0.9, 20001)
    integral = float(np.trapezoid(st.momentum_density(p), p))
    assert abs(integral - 1.0) <= 1e-8


def test_degenerate_ensemble_rejected():
    pos = sl.MeasurementEnsemble(samples=(1.0, 1.0, 1.0), seed=0, stream=0,
                                 true_center=1.0, sigma=0.5)
    mom = sl.sample_ensemble(0.0, 1.0, 100, seed=0, stream=1)
    with pytest.raises(DegenerateEnsembleError):
        sl.reconstruct_state(pos, mom)


def test_reconstruct_state_needs_two_outcomes_in_each_ensemble(tmp_path):
    # sample_ensemble draws at least 2, but a CSV may hold one
    path = tmp_path / "one.csv"
    path.write_text("seed,stream,center,sigma,count\n0,1,0.0,1.0,1\noutcome\n0.25\n")
    one = sl.MeasurementEnsemble.from_csv(path)
    two = sl.sample_ensemble(0.0, 1.0, 2, seed=0)
    with pytest.raises(InvalidCountError, match="^position ensemble needs at least 2 outcomes$"):
        sl.reconstruct_state(one, two)
    with pytest.raises(InvalidCountError, match="^momentum ensemble needs at least 2 outcomes$"):
        sl.reconstruct_state(two, one)


def test_zero_width_density_rejected():
    st = sl.GaussianState(r=0.0, d=0.0, delta_x=0.0, delta_p=1.0)
    with pytest.raises(ValueError):
        st.position_density(0.0)


# -- harmonic error propagation ------------------------------------------------


def test_noise_widths_product():
    for a in (0.1, 0.5, 1.0):
        dq, dp = sl.noise_widths(2.0, 8.0, a)
        assert dq * dp == pytest.approx(a**2 / 2.0, rel=1e-12)


def test_harmonic_energy_error_two_routes():
    # route 1: the closed bracket form; route 2: |p/m| dp + |k q| dq with the
    # balanced widths. They must agree identically.
    m, k, a = 1.7, 3.1, 0.35
    dq, dp = sl.noise_widths(m, k, a)
    rng = np.random.default_rng(321)
    for _ in range(1000):
        q = float(rng.uniform(-2, 2))
        p = float(rng.uniform(-2, 2))
        direct = abs(p / m) * dp + abs(k * q) * dq
        assert sl.harmonic_energy_error(q, p, m, k, a) == pytest.approx(direct, rel=1e-12)


_ANY_FLOAT = st.floats()  # nan, +-inf, subnormals and both zeros included


@settings(max_examples=300, deadline=None)
@given(q=_ANY_FLOAT, p=_ANY_FLOAT, m=_ANY_FLOAT, k=_ANY_FLOAT, a=_ANY_FLOAT, hbar=_ANY_FLOAT)
@example(q=0.0, p=0.0, m=math.nan, k=1.0, a=1.0, hbar=1.0)
@example(q=0.0, p=0.0, m=1.0, k=math.inf, a=1.0, hbar=1.0)
@example(q=0.0, p=0.0, m=1.0, k=1.0, a=1.0, hbar=-1.0)
@example(q=1e300, p=1.0, m=1e-300, k=1e300, a=1.0, hbar=1.0)
@example(q=0.0, p=0.0, m=1e308, k=1e308, a=1.0, hbar=1.0)  # 2 m omega overflowed: delta_q read 0.0
@example(q=1.0, p=1.0, m=1e308, k=1e308, a=1.0, hbar=1.0)  # the error read 0.0, not about 7.07e153
def test_oscillator_noise_is_finite_or_a_typed_error(q, p, m, k, a, hbar):
    calls = (lambda: sl.noise_widths(m, k, a, hbar), lambda: (sl.harmonic_energy_error(q, p, m, k, a, hbar),))
    for call in calls:
        try:
            values = call()
        except SpeclimitError:
            continue
        assert all(math.isfinite(v) for v in values)
        if len(values) == 2:
            # the widths' product is a^2 hbar / 2 wherever that is a normal float, compared exactly
            half = Fraction(a) ** 2 * Fraction(hbar) / 2
            if sys.float_info.min <= half <= sys.float_info.max:
                assert abs(Fraction(values[0]) * Fraction(values[1]) - half) <= Fraction(1e-12) * half
    if (q, p, m, k, a, hbar) == (1.0, 1.0, 1e308, 1e308, 1.0, 1.0):
        assert sl.harmonic_energy_error(q, p, m, k, a, hbar) == pytest.approx(math.sqrt(0.5) * 1e154, rel=1e-12)


def test_required_product_examples(osc):
    assert sl.required_noise_product_for_resolution(osc, 0) == pytest.approx(1 / 8, abs=1e-9)
    assert sl.required_noise_product_for_resolution(osc, 1) == pytest.approx(1 / 24, abs=1e-9)


def test_required_product_closed_form(osc):
    # the phase maximum sits at phi = pi/4 giving bracket sqrt(2 hbar w E);
    # the product is then 1 / (16 (n + 1/2))
    for n in list(range(20)) + [50, 199, 1000]:
        got = sl.required_noise_product_for_resolution(osc, n)
        assert got == pytest.approx(1.0 / (16.0 * (n + 0.5)), abs=1e-9)


def test_required_product_below_half(osc):
    for n in range(0, 1001, 37):
        assert sl.required_noise_product_for_resolution(osc, n) < 0.5


def test_required_product_other_models(box):
    with pytest.raises(UnsupportedModelError):
        sl.required_noise_product_for_resolution(box, 3)


def _scanned_noise_product(model, n):
    """The phase scan plus bounded polish that the closed form replaced, kept as its reference."""
    from scipy.optimize import minimize_scalar

    hbar = model.units.hbar
    m = model.params.mass
    k = model.params.stiffness
    omega = math.sqrt(k / m)
    e = energy_level(model, n).energy
    p_amp = math.sqrt(2.0 * m * e)
    q_amp = math.sqrt(2.0 * e / k)
    c_p = math.sqrt(hbar * omega / (2.0 * m))
    c_q = k * math.sqrt(hbar / (2.0 * m * omega))

    def bracket(phi):
        return np.abs(p_amp * np.cos(phi)) * c_p + np.abs(q_amp * np.sin(phi)) * c_q

    phis = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
    vals = bracket(phis)
    i = int(np.argmax(vals))
    step = phis[1] - phis[0]
    res = minimize_scalar(lambda t: -float(bracket(t)),
                          bounds=(phis[i] - step, phis[i] + step),
                          method="bounded", options={"xatol": 1e-12})
    b_max = max(float(vals[i]), -float(res.fun))
    a_req = hbar * omega / (2.0 * b_max)
    return a_req**2 / 2.0


@settings(max_examples=200, deadline=None)
@given(
    mass=st.floats(1e-3, 1e3),
    stiffness=st.floats(1e-3, 1e3),
    units=st.sampled_from(sorted(UNIT_SYSTEMS)),
    n=st.integers(0, 299),
)
def test_required_product_matches_phase_scan(mass, stiffness, units, n):
    osc = sl.harmonic(mass=mass, stiffness=stiffness, units=UNIT_SYSTEMS[units])
    got = sl.required_noise_product_for_resolution(osc, n)
    assert got == pytest.approx(_scanned_noise_product(osc, n), rel=1e-14, abs=0.0)


def test_invalid_noise_calls_raise_typed_errors(tmp_path, osc):
    def read_csv(seed_row, *outcomes):
        path = tmp_path / "ensemble.csv"
        path.write_text("\n".join(["seed,stream,center,sigma,count", seed_row, "outcome", *outcomes]) + "\n")
        return sl.MeasurementEnsemble.from_csv(path)

    flat = sl.GaussianState(r=0.0, d=0.0, delta_x=0.0, delta_p=0.0)
    calls = [
        (InvalidArgumentError, lambda: fmean([])),
        (InvalidArgumentError, lambda: fvariance([1.0])),
        (InvalidArgumentError, lambda: sl.NoiseBudget(1.0, 1.0, hbar=0.0)),
        (InvalidArgumentError, lambda: read_csv("x")),
        (InvalidArgumentError, lambda: read_csv("1,0,0.0,1.0,3", "0.5")),
        (InvalidArgumentError, lambda: read_csv("1,0,0.0,1.0,abc", "0.5")),
        (InvalidArgumentError, lambda: read_csv("1,0,0.0,1.0", "0.5")),
        (InvalidArgumentError, lambda: read_csv("1,0,0.0,1.0,1", "x")),
        (InvalidArgumentError, lambda: read_csv("1,0,0.0,1.0,1", "")),
        (InvalidArgumentError, lambda: sl.sample_ensemble(math.inf, 1.0, 10, seed=1)),
        (InvalidArgumentError, lambda: sl.sample_ensemble(0.0, 1.0, 10, seed=-1)),
        (InvalidArgumentError, lambda: sl.sample_ensemble(0.0, 1.0, 10, seed=1, stream=2**64)),
        (InvalidArgumentError, lambda: sl.characteristic_factor(math.nan, 1.0)),
        (InvalidArgumentError, lambda: sl.characteristic_factor(1.0, 1.0, hbar=-1.0)),
        (InvalidArgumentError, lambda: flat.position_density(0.0)),
        (InvalidArgumentError, lambda: flat.momentum_density(0.0)),
        (InvalidArgumentError, lambda: sl.noise_widths(0.0, 1.0, 1.0)),
        (InvalidArgumentError, lambda: sl.noise_widths(1.0, 1.0, -1.0)),
        (InvalidArgumentError, lambda: sl.harmonic_energy_error(0.0, 0.0, 1.0, -1.0, 1.0)),
        (InvalidArgumentError, lambda: sl.harmonic_energy_error(0.0, 0.0, 1.0, 1.0, -1.0)),
        (OutOfRangeError, lambda: sl.required_noise_product_for_resolution(osc, -1)),
    ]
    for error, call in calls:
        with pytest.raises(error) as info:
            call()
        assert isinstance(info.value, SpeclimitError) and isinstance(info.value, ValueError)
