from __future__ import annotations

import copy
import json
import math
import pickle

import numpy as np
import pytest

import speclimit as sl
from speclimit import noise
from speclimit.errors import (
    ConfigError,
    FloatRangeError,
    InvalidArgumentError,
    InvalidCountError,
    InvalidSigmaError,
    ModelDefinitionError,
    NoBoundMotionError,
    OutOfRangeError,
    PotentialDomainError,
    UnsupportedModelError,
)
from speclimit.models import KINDS, NumericPotentialParams, well_profile
from speclimit.units import SI, UNIT_SYSTEMS, UnitSystem

# Frozen closed-form values for the shipped H2 Morse preset, derived from
# D = 4.7446 eV, alpha = 1.9426 1/A, M = 0.50391 amu with exact eV/amu/fs
# conversion factors.
H2_ZETA = 17.410509829305166
H2_HW = 0.5450271182770242
H2_LEVELS = (
    -4.475999502021246,
    -3.9622768730222804,
    -3.4798587333013735,
    -3.028745082858526,
    -2.6089359216937384,
    -2.220431249807009,
    -1.8632310671983383,
    -1.5373353738677273,
    -1.2427441698151749,
)
H2_PERIODS = (
    7.812361150620031,
    8.303380057897952,
    8.860261086981106,
    9.497208344537064,
    10.232826726003275,
    11.091969354879325,
    12.10860098148643,
    13.330394934576669,
    14.826425486132232,
)


# -- box ---------------------------------------------------------------


def test_box_levels_and_periods(box):
    assert sl.energy_level(box, 1).energy == pytest.approx(math.pi**2 / 2, rel=1e-14)
    assert sl.classical_period(box, 2).tau == pytest.approx(1.0 / math.pi, rel=1e-14)
    for n in (1, 2, 7):
        assert sl.energy_level(box, n).energy == pytest.approx(n**2 * math.pi**2 / 2, rel=1e-13)
        assert sl.classical_period(box, n).tau == pytest.approx(2.0 / (n * math.pi), rel=1e-13)


def test_box_kinetic_period_identity(box):
    # <K> = pi n hbar / tau_n, i.e. tau_n = pi n hbar / E_n, holding to 1e-12
    for n in range(1, 101):
        e = sl.energy_level(box, n).energy
        tau = sl.classical_period(box, n).tau
        assert abs(math.pi * n * 1.0 / e - tau) <= 1e-12 * tau


def test_box_monotone_spectrum(box):
    es = [sl.energy_level(box, n).energy for n in range(1, 10001, 499)]
    assert all(b > a for a, b in zip(es, es[1:]))


def test_box_n_range(box):
    assert sl.n_min(box) == 1
    assert sl.n_max(box) is None
    with pytest.raises(OutOfRangeError):
        sl.energy_level(box, 0)


# -- harmonic ----------------------------------------------------------


def test_harmonic_levels(osc):
    levels = [lv.energy for lv in sl.bound_levels(osc, 3)]
    assert levels == pytest.approx([0.5, 1.5, 2.5], rel=1e-15)
    assert sl.n_min(osc) == 0


def test_harmonic_period_energy_independent(osc):
    taus = {sl.classical_period(osc, n).tau for n in range(6)}
    assert len(taus) == 1
    assert taus.pop() == pytest.approx(2 * math.pi, rel=1e-14)


def test_harmonic_gap_constant(osc):
    for n in (1, 3, 9):
        assert sl.level_gap_energy(osc, n) == pytest.approx(0.5, rel=1e-15)
        assert sl.level_gap_period(osc, n) == 0.0


# -- hydrogenoid -------------------------------------------------------


def test_hydrogenoid_levels_atomic(hyd):
    assert sl.energy_level(hyd, 2).energy == pytest.approx(-0.125, rel=1e-13)
    assert sl.classical_period(hyd, 3).tau == pytest.approx(54 * math.pi, rel=1e-13)
    for n in (1, 4, 10):
        assert sl.energy_level(hyd, n).energy == pytest.approx(-1.0 / (2 * n**2), rel=1e-12)
        assert sl.classical_period(hyd, n).tau == pytest.approx(2 * math.pi * n**3, rel=1e-12)


def test_hydrogenoid_z_scaling():
    he = sl.hydrogenoid(reduced_mass=1.0, z=2)
    # E_n = -Z^2/(2 n^2), tau_n = 2 pi n^3 / Z^2 in atomic units
    assert sl.energy_level(he, 3).energy == pytest.approx(-4.0 / 18.0, rel=1e-12)
    assert sl.classical_period(he, 2).tau == pytest.approx(2 * math.pi * 8 / 4, rel=1e-12)


def test_hydrogenoid_gaps(hyd):
    n = 5
    de = sl.level_gap_energy(hyd, n)
    expect = (2 * n - 1) / (4.0 * n**2 * (n - 1) ** 2)
    assert de == pytest.approx(expect, rel=1e-12)
    dt = sl.level_gap_period(hyd, n)
    assert dt == pytest.approx(math.pi * (3 * n**2 - 3 * n + 1), rel=1e-12)
    assert dt > 0


def test_hydrogenoid_z_validation():
    with pytest.raises(ModelDefinitionError):
        sl.hydrogenoid(reduced_mass=1.0, z=0)


# -- morse -------------------------------------------------------------


def test_morse_h2_constants(morse_h2):
    assert morse_h2.zeta == pytest.approx(H2_ZETA, rel=1e-14)
    assert morse_h2.hbar * morse_h2.omega == pytest.approx(H2_HW, rel=1e-13)


def test_morse_h2_levels_frozen(morse_h2):
    levels = sl.bound_levels(morse_h2, 50)
    assert len(levels) == 9
    for lv, expect in zip(levels, H2_LEVELS):
        assert lv.energy == pytest.approx(expect, rel=1e-12)


def test_morse_h2_periods_frozen(morse_h2):
    for n, expect in enumerate(H2_PERIODS):
        assert sl.classical_period(morse_h2, n).tau == pytest.approx(expect, rel=1e-12)


def test_morse_enumeration_rule(morse_h2):
    # bound levels are exactly those with (n + 1/2) < zeta / 2
    z = morse_h2.zeta
    n_top = sl.n_max(morse_h2)
    assert n_top == 8
    assert (n_top + 0.5) < z / 2
    assert (n_top + 1.5) >= z / 2
    with pytest.raises(OutOfRangeError):
        sl.energy_level(morse_h2, n_top + 1)


def test_morse_spacing_positive_and_shrinking(morse_h2):
    gaps = [2 * sl.level_gap_energy(morse_h2, n) for n in range(1, 9)]
    hw = morse_h2.hbar * morse_h2.omega
    z = morse_h2.zeta
    for n, g in enumerate(gaps, start=1):
        assert g > 0
        assert g == pytest.approx(hw * (1 - n / z), rel=1e-12)
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_morse_too_shallow_rejected():
    # zeta <= 1 leaves no bound level
    with pytest.raises(ModelDefinitionError):
        sl.morse(mass=1e-4, depth=1e-4, alpha=5.0)


def test_morse_zeta_past_the_float_range_rejected():
    # 2 depth / (hbar omega) of a 1e300 J deep well with a 1e300 kg mass and a 1e-300 /m range overflows
    with pytest.raises(ModelDefinitionError, match=r"^morse: zeta = 2 depth / \(hbar omega\) leaves the float range$"):
        sl.morse(1e300, 1e300, 1e-300, units=sl.SI)


# -- numeric ----------------------------------------------------------


def test_numeric_model_validation():
    with pytest.raises(ModelDefinitionError):
        sl.numeric(1.0, [0.0, 1.0], [1.0, 0.0])
    with pytest.raises(ModelDefinitionError):
        sl.numeric(1.0, [0.0, 1.0, 0.5], [1.0, 0.0, 1.0])
    with pytest.raises(ModelDefinitionError):
        sl.numeric(1.0, [0.0, 1.0, 2.0], [0.0, 1.0, 2.0])  # no interior minimum


def test_numeric_closed_forms_unsupported():
    xs = np.linspace(-2, 2, 41)
    num = sl.numeric(1.0, xs, 0.5 * xs**2)
    with pytest.raises(UnsupportedModelError):
        sl.energy_level(num, 0)
    with pytest.raises(UnsupportedModelError):
        sl.classical_period(num, 0)


# -- unit conversion ---------------------------------------------------


def _numeric_table():
    xs = np.linspace(-2, 2, 13)
    return sl.numeric(1.3, xs, 0.5 * xs**2 + 0.1 * xs**4)


# one model per kind, each in a unit system that is not SI
ALL_KINDS = {
    "box": lambda: sl.box(1.7, 0.6, sl.MOLECULAR),
    "harmonic": lambda: sl.harmonic(1.2, 0.8),
    "hydrogenoid": lambda: sl.hydrogenoid(1.5, 3, 0.9),
    "morse": lambda: sl.get_preset("morse-h2"),
    "numeric": _numeric_table,
}


def test_converted_round_trip():
    for kind, build in ALL_KINDS.items():
        model = build()
        back = model.converted(sl.SI).converted(model.units)
        assert back.kind == kind and back.units == model.units
        for name in model.params.__dataclass_fields__:
            want, got = getattr(model.params, name), getattr(back.params, name)
            assert type(got) is type(want), (kind, name)
            assert np.allclose(got, want, rtol=1e-12, atol=0.0), (kind, name)


@pytest.mark.parametrize("kind", sorted(ALL_KINDS))
def test_to_dict_from_dict_round_trip(kind):
    model = ALL_KINDS[kind]()
    doc = model.to_dict()
    assert doc["kind"] == kind and doc["units"] == model.units.name
    assert sl.model_from_dict(doc) == model
    assert sl.model_from_json(json.dumps(doc)) == model


@pytest.mark.parametrize("kind", sorted(ALL_KINDS))
def test_model_keeps_its_si_view_and_profile_and_still_pickles(kind):
    from speclimit.models import well_profile

    model = ALL_KINDS[kind]()
    scales, profile = model._scales, well_profile(model)
    assert model._scales is scales and well_profile(model) is profile  # built once, kept on the model
    assert scales.failure is None and (len(vars(scales)) > 1) == model.params.closed_forms
    for clone in (pickle.loads(pickle.dumps(model)), copy.deepcopy(model)):
        assert clone == model and hash(clone) == hash(model)
        assert well_profile(clone) is not profile and well_profile(clone).e_ceiling == profile.e_ceiling
        assert vars(clone._scales) == vars(scales)


def test_model_spec_rejects_params_that_are_not_a_kind():
    with pytest.raises(ModelDefinitionError):
        sl.ModelSpec(object(), sl.SI)


@pytest.mark.parametrize("kind", sorted(ALL_KINDS))
def test_model_kind_comes_from_its_params(kind):
    model = ALL_KINDS[kind]()
    assert model.kind == type(model.params).kind == kind
    for clone in (pickle.loads(pickle.dumps(model)), copy.deepcopy(model)):
        assert clone.kind == kind and clone == model


def test_converted_preserves_physics(hyd):
    si = hyd.converted(sl.SI)
    e2_si = sl.energy_level(si, 2).energy
    e2 = sl.energy_level(hyd, 2).energy
    assert hyd.units.from_si(e2_si, "energy") == pytest.approx(e2, rel=1e-12)


# The worst difference over the rows below is 1.3e-15 of the size compared (morse-h2's U between its turning
# points, in molecular units); the budget is 3 times that.
_RESTATED_PROFILE_BUDGET = 4e-15


def _profile_pairs(model) -> list[tuple[float, float, float]]:
    """The profile's mass, bottom, ceiling and scale, and its turning points and U at 3 energies, restated in SI.

    Each entry is (restated value, the SI profile's value, the size their difference is measured against).
    """
    p, si = well_profile(model), well_profile(model.converted(SI))
    energy, length, time = (model.units.factor(d) for d in ("energy", "length", "time"))
    # the profile's mass is m / C, C = energy time^2 / (mass length^2) in SI: restated, it is the SI mass
    pairs = [(p.mass * energy * time**2 / length**2, si.mass)]
    pairs += [(a * energy, b) for a, b in ((p.u_min, si.u_min), (p.e_ceiling, si.e_ceiling), (p.e_scale, si.e_scale))]
    pairs = [(a, b, max(abs(a), abs(b))) for a, b in pairs]
    for f in (0.1, 0.5, 0.9):
        e = p.e_ceiling - f * p.e_scale if math.isfinite(p.e_ceiling) else p.u_min + f * p.e_scale
        xs, xs_si = p.turning_points(e), si.turning_points(e * energy)
        pairs += [(x * length, x_si, max(abs(x * length), abs(x_si))) for x, x_si in zip(xs, xs_si)]
        us = p.potential(np.array([xs[0], 0.5 * (xs[0] + xs[1]), xs[1]])) * energy
        us_si = si.potential(np.array([xs_si[0], 0.5 * (xs_si[0] + xs_si[1]), xs_si[1]]))
        pairs += [(u, u_si, si.e_scale) for u, u_si in zip(us.tolist(), us_si.tolist())]
    return pairs


@pytest.mark.parametrize("units", sorted(UNIT_SYSTEMS))
@pytest.mark.parametrize("kind", sorted(ALL_KINDS))
def test_profile_restated_in_si_is_the_profile_of_the_model_converted_to_si(kind, units):
    # the profile is built in the model's own units, with the mass over the system's coherence factor; restated,
    # each value is the SI profile's up to the rounding of the conversion (equal where infinite, as a Coulomb wall)
    model = sl.ModelSpec(ALL_KINDS[kind]().params, UNIT_SYSTEMS[units])
    for a, b, size in _profile_pairs(model):
        assert a == b or abs(a - b) <= _RESTATED_PROFILE_BUDGET * size, (a, b)


# -- JSON construction -------------------------------------------------


def test_model_from_dict_box():
    m = sl.model_from_dict({"kind": "box", "units": "natural-box", "params": {"mass": 1.0, "width": 1.0}})
    assert m.kind == "box"
    assert sl.energy_level(m, 1).energy == pytest.approx(math.pi**2 / 2, rel=1e-13)


def test_model_from_dict_preset():
    m = sl.model_from_dict({"preset": "morse-h2"})
    assert m.kind == "morse"
    assert m.zeta == pytest.approx(H2_ZETA, rel=1e-13)


def test_model_from_dict_morse_range_key():
    m = sl.model_from_dict({
        "kind": "morse", "units": "molecular",
        "params": {"mass": 0.5, "depth": 4.0, "range": 2.0},
    })
    assert m.params.alpha == 2.0


def test_model_from_dict_errors():
    with pytest.raises(ConfigError) as ei:
        sl.model_from_dict({"kind": "box", "units": "natural-box", "params": {"mass": 1.0}})
    assert "width" in str(ei.value)
    with pytest.raises(ConfigError):
        sl.model_from_dict({"kind": "trapezoid", "units": "si", "params": {}})
    with pytest.raises(ConfigError) as ei:
        sl.model_from_dict({"kind": "box", "units": "natural-box",
                            "params": {"mass": 1.0, "width": 1.0, "height": 2.0}})
    assert "height" in str(ei.value)


def test_model_from_json_round_trip(box):
    doc = box.to_dict()
    m = sl.model_from_json(json.dumps(doc))
    assert m == box


def test_to_dict_morse(morse_h2):
    doc = morse_h2.to_dict()
    assert doc["params"]["range"] == morse_h2.params.alpha
    assert doc["units"] == "molecular"


@pytest.mark.parametrize("kind, keys", [
    ("box", {"mass", "width"}),
    ("harmonic", {"mass", "stiffness"}),
    ("hydrogenoid", {"reduced_mass", "z", "charge"}),
    ("morse", {"mass", "depth", "range"}),
    ("numeric", {"mass", "x", "u"}),
])
def test_to_dict_params_match_the_config_schema(kind, keys):
    model = ALL_KINDS[kind]()
    params = model.to_dict()["params"]
    assert set(params) == keys
    if kind == "numeric":
        assert params["x"] == list(model.params.x) and params["u"] == list(model.params.u)


@pytest.mark.parametrize("kind", sorted(ALL_KINDS))
def test_model_from_dict_rejects_unknown_params_key(kind):
    doc = ALL_KINDS[kind]().to_dict()
    doc["params"]["height"] = 2.0
    with pytest.raises(ConfigError) as ei:
        sl.model_from_dict(doc)
    assert ei.value.path == "model.params.height"


@pytest.mark.parametrize("z", [1.5, "2", True, None])
def test_model_from_dict_rejects_non_integer_z(z):
    doc = {"kind": "hydrogenoid", "units": "atomic", "params": {"reduced_mass": 1.0, "z": z}}
    with pytest.raises(ConfigError) as ei:
        sl.model_from_dict(doc)
    assert ei.value.path == "model.params.z"
    doc["params"]["z"] = 0  # an integer, but below 1: rejected by the model itself
    with pytest.raises(ConfigError) as ei:
        sl.model_from_dict(doc)
    assert ei.value.path == "model.params"


def test_get_preset_unknown():
    with pytest.raises(ModelDefinitionError):
        sl.get_preset("nonexistent")


# -- refusals ------------------------------------------------------------

# valid params of each kind, in the units its dataclass is built for
_VALID_PARAMS = {
    "box": ({"mass": 1.0, "width": 1.0}, sl.NATURAL_BOX),
    "harmonic": ({"mass": 1.0, "stiffness": 1.0}, sl.OSCILLATOR),
    "hydrogenoid": ({"reduced_mass": 1.0, "z": 1, "charge": 1.0}, sl.ATOMIC),
    "morse": ({"mass": 0.50391, "depth": 4.7446, "alpha": 1.9426}, sl.MOLECULAR),
    "numeric": ({"mass": 1.0, "x": (-1.0, 0.0, 1.0), "u": (1.0, 0.0, 1.0)}, sl.OSCILLATOR),
}
_FLOAT_PARAMS = [(kind, p.attr) for kind, cls in KINDS.items() for p in cls.schema if p.type is float]


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf, True], ids=repr)
@pytest.mark.parametrize("kind, attr", _FLOAT_PARAMS)
def test_float_params_must_be_positive_and_finite(kind, attr, value):
    values, units = _VALID_PARAMS[kind]
    params = KINDS[kind](**{**values, attr: value})
    with pytest.raises(ModelDefinitionError) as ei:
        sl.ModelSpec(params, units)
    assert str(ei.value) == f"{kind}: {attr} must be a positive finite number, got {value!r}"


_BOX, _OSC = sl.box(), sl.harmonic()
_ENS = sl.sample_ensemble(0.0, 1.0, 10, 0)
_UNIT_FIELDS = {f: getattr(SI, f) for f in ("hbar", "energy_J", "time_s", "length_m", "mass_kg")}
# (argument, call with the value in that argument's place, error)
_NUMERIC_ARGUMENTS = [
    *((f"{kind}.{attr}", lambda v, kind=kind, attr=attr: sl.ModelSpec(
        KINDS[kind](**{**_VALID_PARAMS[kind][0], attr: v}), _VALID_PARAMS[kind][1]), ModelDefinitionError)
      for kind, attr in _FLOAT_PARAMS),
    ("hydrogenoid.z", lambda v: sl.ModelSpec(KINDS["hydrogenoid"](1.0, v), sl.ATOMIC), ModelDefinitionError),
    ("box(mass)", lambda v: sl.box(v), ModelDefinitionError),
    ("box(width)", lambda v: sl.box(1.0, v), ModelDefinitionError),
    ("harmonic(mass)", lambda v: sl.harmonic(v), ModelDefinitionError),
    ("harmonic(stiffness)", lambda v: sl.harmonic(1.0, v), ModelDefinitionError),
    ("hydrogenoid(reduced_mass)", lambda v: sl.hydrogenoid(v), ModelDefinitionError),
    ("hydrogenoid(z)", lambda v: sl.hydrogenoid(1.0, v), ModelDefinitionError),
    ("hydrogenoid(charge)", lambda v: sl.hydrogenoid(1.0, 1, v), ModelDefinitionError),
    ("morse(mass)", lambda v: sl.morse(v, 4.7446, 1.9426), ModelDefinitionError),
    ("morse(depth)", lambda v: sl.morse(0.50391, v, 1.9426), ModelDefinitionError),
    ("morse(alpha)", lambda v: sl.morse(0.50391, 4.7446, v), ModelDefinitionError),
    ("numeric(mass)", lambda v: sl.numeric(v, [-1.0, 0.0, 1.0], [1.0, 0.0, 1.0]), ModelDefinitionError),
    ("numeric(x entry)", lambda v: sl.numeric(1.0, [v, 0.0, 1.0], [1.0, 0.0, 1.0]), ModelDefinitionError),
    ("numeric(u entry)", lambda v: sl.numeric(1.0, [-1.0, 0.0, 1.0], [1.0, 0.0, v]), ModelDefinitionError),
    ("energy_level(n)", lambda v: sl.energy_level(_BOX, v), OutOfRangeError),
    ("level_gap_period(n)", lambda v: sl.level_gap_period(_BOX, v), OutOfRangeError),
    ("bound_levels(n_limit)", lambda v: sl.bound_levels(_BOX, v), OutOfRangeError),
    ("threshold(scan_limit)", lambda v: sl.threshold(_BOX, v), OutOfRangeError),
    ("quantize(n)", lambda v: sl.quantize(_OSC, v), OutOfRangeError),
    ("quantize(maslov)", lambda v: sl.quantize(_OSC, 1, maslov=v), OutOfRangeError),
    ("turning_points(energy)", lambda v: sl.turning_points(_OSC, v), NoBoundMotionError),
    ("action(energy)", lambda v: sl.action(_OSC, v), NoBoundMotionError),
    ("period_check(energy)", lambda v: sl.period_check(_OSC, v), NoBoundMotionError),
    ("period_of_energy(energy)", lambda v: sl.period_of_energy(_OSC, v), NoBoundMotionError),
    ("action_curve(energies entry)", lambda v: sl.action_curve(_OSC, [v]), NoBoundMotionError),
    ("fmean(values)", lambda v: noise.fmean(v), InvalidArgumentError),
    ("fvariance(ddof)", lambda v: noise.fvariance([1.0, 2.0, 3.0], ddof=v), InvalidArgumentError),
    ("NoiseBudget(delta_x)", lambda v: sl.NoiseBudget(v, 1.0), InvalidSigmaError),
    ("NoiseBudget(delta_p)", lambda v: sl.NoiseBudget(1.0, v), InvalidSigmaError),
    ("NoiseBudget(hbar)", lambda v: sl.NoiseBudget(1.0, 1.0, v), InvalidArgumentError),
    ("sample_ensemble(center)", lambda v: sl.sample_ensemble(v, 1.0, 10, 0), InvalidArgumentError),
    ("sample_ensemble(sigma)", lambda v: sl.sample_ensemble(0.0, v, 10, 0), InvalidSigmaError),
    ("sample_ensemble(count)", lambda v: sl.sample_ensemble(0.0, 1.0, v, 0), InvalidCountError),
    ("sample_ensemble(seed)", lambda v: sl.sample_ensemble(0.0, 1.0, 10, v), InvalidArgumentError),
    ("sample_ensemble(stream)", lambda v: sl.sample_ensemble(0.0, 1.0, 10, 0, v), InvalidArgumentError),
    ("characteristic_factor(delta_x)", lambda v: sl.characteristic_factor(v, 1.0), InvalidArgumentError),
    ("characteristic_factor(p)", lambda v: sl.characteristic_factor(1.0, v), InvalidArgumentError),
    ("characteristic_factor(hbar)", lambda v: sl.characteristic_factor(1.0, 1.0, v), InvalidArgumentError),
    ("characteristic_check(p)", lambda v: sl.characteristic_check(_ENS, v), InvalidArgumentError),
    ("characteristic_check(hbar)", lambda v: sl.characteristic_check(_ENS, 1.0, v), InvalidArgumentError),
    ("reconstruct_state(hbar)", lambda v: sl.reconstruct_state(_ENS, _ENS, v), InvalidArgumentError),
    *((f"noise_widths({name})", lambda v, i=i: sl.noise_widths(*[1.0] * i, v, *[1.0] * (3 - i)), InvalidArgumentError)
      for i, name in enumerate(("m", "k", "a", "hbar"))),
    *((f"harmonic_energy_error({name})", lambda v, i=i: sl.harmonic_energy_error(*[1.0] * i, v, *[1.0] * (5 - i)),
       InvalidArgumentError) for i, name in enumerate(("q", "p", "m", "k", "a", "hbar"))),
    ("required_noise_product_for_resolution(n)", lambda v: sl.required_noise_product_for_resolution(_OSC, v),
     OutOfRangeError),
    # with no delta_t the level's gap sets it, and n is checked before the gap's levels are picked
    ("simulate_period_measurement(n)", lambda v: sl.simulate_period_measurement(_BOX, v, sl.PeriodProtocol(trials=10)),
     OutOfRangeError),
    ("PeriodProtocol(s)", lambda v: sl.PeriodProtocol(s=v), InvalidArgumentError),
    ("PeriodProtocol(trials)", lambda v: sl.PeriodProtocol(trials=v), InvalidArgumentError),
    ("PeriodProtocol(delta_t)", lambda v: sl.PeriodProtocol(delta_t=v), InvalidArgumentError),
    ("PeriodProtocol(seed)", lambda v: sl.PeriodProtocol(seed=v), InvalidArgumentError),
    *((f"UnitSystem({f})", lambda v, f=f: UnitSystem("test", **{**_UNIT_FIELDS, f: v}), ModelDefinitionError)
      for f in _UNIT_FIELDS),
]
# 10**400 is too large for a float and above the bound of a bounded integer; an integer argument without an upper
# bound takes 2.0 in its place, a whole number that is not an int
_UNBOUNDED_INTEGERS = {"hydrogenoid.z", "hydrogenoid(z)", "energy_level(n)", "level_gap_period(n)",
                       "bound_levels(n_limit)", "threshold(scan_limit)", "simulate_period_measurement(n)",
                       "fvariance(ddof)"}
_NONE_IS_DEFAULT = {"quantize(maslov)", "PeriodProtocol(delta_t)"}


@pytest.mark.parametrize("value", ["a", None, True, math.nan, math.inf, -math.inf, 10**400],
                         ids=["'a'", "None", "True", "nan", "inf", "-inf", "10**400"])
@pytest.mark.parametrize("argument, call, error", _NUMERIC_ARGUMENTS, ids=[a[0] for a in _NUMERIC_ARGUMENTS])
def test_each_numeric_argument_refuses_a_bad_value_with_its_typed_error(argument, call, error, value):
    if value is None and argument in _NONE_IS_DEFAULT:
        pytest.skip("None selects the default")
    with pytest.raises(error):
        call(2.0 if value == 10**400 and argument in _UNBOUNDED_INTEGERS else value)


def test_constructors_convert_numbers_and_name_the_argument_they_refuse():
    assert sl.hydrogenoid(1.0, np.int64(2)).params == sl.hydrogenoid(1.0, 2).params
    assert type(sl.hydrogenoid(1.0, np.int64(2)).params.z) is int
    x = np.float64(0.1) + np.float64(0.2)
    box, table = sl.box(x, 3).params, sl.numeric(x, np.array([-1.0, 0.0, x]), [1, 0, 1]).params
    assert (box.mass, box.width, table.mass, table.x[2], table.u[0]) == (float(x), 3.0, float(x), float(x), 1.0)
    assert all(type(v) is float for v in (box.mass, box.width, table.mass, *table.x, *table.u))
    for call, message in ((lambda: sl.hydrogenoid(1.0, 2.7), "hydrogenoid: z must be an integer >= 1, got 2.7"),
                          (lambda: sl.hydrogenoid(1.0, 2.0), "hydrogenoid: z must be an integer >= 1, got 2.0"),
                          (lambda: sl.box("1.5"), "box: mass must be a positive finite number, got '1.5'"),
                          (lambda: sl.box(True), "box: mass must be a positive finite number, got True"),
                          (lambda: sl.numeric(1.0, [-1.0, "0", 1.0], [1.0, 0.0, 1.0]),
                           "numeric: table entries must be finite")):
        with pytest.raises(ModelDefinitionError) as ei:
            call()
        assert str(ei.value) == message


def test_numeric_table_must_be_finite_tuples():
    with pytest.raises(ModelDefinitionError, match="^numeric: x and u must be tuples of floats$"):
        sl.ModelSpec(NumericPotentialParams(1.0, [-1.0, 0.0, 1.0], [1.0, 0.0, 1.0]), sl.OSCILLATOR)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ModelDefinitionError, match="^numeric: table entries must be finite$"):
            sl.numeric(1.0, [-1.0, 0.0, 1.0], [1.0, 0.0, bad])
        with pytest.raises(ModelDefinitionError, match="^numeric: table entries must be finite$"):
            sl.numeric(1.0, [bad, 0.0, 1.0], [1.0, 0.0, 1.0])


def test_omega_and_zeta_only_on_kinds_that_have_them(box, osc):
    with pytest.raises(UnsupportedModelError, match="omega is defined for harmonic and morse models, not 'box'"):
        box.omega
    with pytest.raises(UnsupportedModelError, match="zeta is defined for morse models, not 'harmonic'"):
        osc.zeta


def test_closed_forms_refuse_a_level_past_the_float_range(box):
    # n^2 = 10^400 is an int too large for a float
    with pytest.raises(FloatRangeError, match=r"^box: energy at n=10{200} leaves the float range \(OverflowError\)$"):
        sl.energy_level(box, 10**200)
    # e1 n^2 with n^2 = 10^308 is past the largest float
    with pytest.raises(FloatRangeError, match=r"^box: energy at n=10{154} leaves the float range \(got inf\)$"):
        sl.energy_level(box, 10**154)


@pytest.mark.parametrize("x, u", [([-1e308, 0.0, 1e308], [1.0, 0.0, 1.0]), ([-1.0, 0.0, 1.0], [1e308, 0.0, -1e308])])
def test_table_whose_span_leaves_the_float_range_rejected(x, u):
    # the table is checked as given, in the model's units, where the engine integrates it
    with pytest.raises(ModelDefinitionError, match=r"^numeric: the table's x span or u range leaves the float range$"):
        sl.numeric(1.0, x, u)


def test_table_profile_keeps_the_pchip_range_reason():
    # the table's values are finite, but a cubic piece over the 1e300-wide intervals is not
    model = sl.numeric(1.0, [-1e300, 0.0, 1e300], [1.0, 0.0, 1.0], units=sl.SI)
    with pytest.raises(FloatRangeError) as ei:
        well_profile(model)
    assert str(ei.value) == "numeric: a cubic piece of the table leaves the float range"


def test_table_potential_refuses_a_query_outside_the_table():
    xs = [-2.0, -0.5, 0.0, 1.0, 3.0]
    potential = well_profile(sl.numeric(1.0, xs, [4.0, 0.5, 0.0, 1.0, 9.0], units=sl.SI)).potential
    span = xs[-1] - xs[0]
    # within 1e-12 of the span past either end the query is clipped onto the table
    assert potential(np.array([xs[0] - 0.5e-12 * span, xs[-1] + 0.5e-12 * span])).tolist() == [4.0, 9.0]
    for x in (xs[0] - 1e-9, xs[-1] + 1e-9):
        with pytest.raises(PotentialDomainError, match=r"^numeric: query outside tabulated range \[-2, 3\]$"):
            potential(np.array([0.0, x]))


def test_model_from_json_rejects_invalid_json():
    with pytest.raises(ConfigError) as ei:
        sl.model_from_json("{not json")
    assert ei.value.path == "model" and str(ei.value).startswith("model: invalid JSON: ")
