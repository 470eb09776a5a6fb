"""The closed forms against a 50-digit reference, across the float range and in the golden files.

The reference evaluates each well's SI formula in mpmath, with the unit
systems built from their exact definitions: h exact, the CODATA decimals,
and the hartree derived from them as ``speclimit.units`` derives it. It
shares nothing with the package but the parameters.
"""

from __future__ import annotations

import csv
import math
import sys
from decimal import Context, Decimal, ROUND_HALF_EVEN
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import MPContext

import speclimit as sl
from speclimit.errors import ModelDefinitionError
from speclimit.units import UNIT_SYSTEMS

mp = MPContext()
mp.dps = 50

_HBAR = mp.mpf("6.62607015e-34") / (2 * mp.pi)
_HARTREE = _HBAR**2 / (mp.mpf("9.1093837015e-31") * mp.mpf("5.29177210903e-11") ** 2)
# SI size of one unit of (energy, time, length, mass)
_UNITS = {
    "natural-box": (_HBAR**2, 1 / _HBAR, mp.mpf(1), mp.mpf(1)),
    "oscillator": (_HBAR, mp.mpf(1), mp.sqrt(_HBAR), mp.mpf(1)),
    "atomic": (_HARTREE, _HBAR / _HARTREE, mp.mpf("5.29177210903e-11"), mp.mpf("9.1093837015e-31")),
    "molecular": (mp.mpf("1.602176634e-19"), mp.mpf("1e-15"), mp.mpf("1e-10"), mp.mpf("1.66053906660e-27")),
    "si": (mp.mpf(1), mp.mpf(1), mp.mpf(1), mp.mpf(1)),
}
_ZERO = mp.mpf(0)


def _si_forms(kind: str, energy, time, length, mass, params, n: int):
    """(E_n, tau_n, dE, dTau) in SI, each from its own exact algebra: no gap is a difference of levels.

    The gaps are None at the lowest level of a box or a hydrogenoid, n = 1.
    """
    hbar, pi = _HBAR, mp.pi
    if kind == "box":
        m, a = params[0] * mass, params[1] * length
        e1, t1 = (hbar * pi) ** 2 / (2 * m * a**2), 2 * m * a**2 / (hbar * pi)
        if n == 1:
            return e1, t1, None, None
        return e1 * n**2, t1 / n, e1 * (2 * n - 1) / 2, -t1 / (2 * n * (n - 1))
    if kind == "harmonic":
        omega = mp.sqrt(params[1] * mass / time**2 / (params[0] * mass))
        return hbar * omega * (n + mp.mpf(1) / 2), 2 * pi / omega, hbar * omega / 2, _ZERO
    if kind == "hydrogenoid":
        mu, z, q2 = params[0] * mass, params[1], params[2] ** 2 * energy * length
        k = mu * (z * q2) ** 2  # mu (Z e^2)^2
        if n == 1:
            return -k / (2 * hbar**2), 2 * pi * hbar**3 / k, None, None
        return (-k / (2 * hbar**2 * n**2), 2 * pi * hbar**3 * n**3 / k,
                k * (2 * n - 1) / (4 * hbar**2 * n**2 * (n - 1) ** 2), pi * hbar**3 * (3 * n**2 - 3 * n + 1) / k)
    m, d, alpha = params[0] * mass, params[1] * energy, params[2] / length
    omega = alpha * mp.sqrt(2 * d / m)
    zeta = 2 * d / (hbar * omega)
    f, g = 1 - (n + mp.mpf(1) / 2) / zeta, 1 - (n - mp.mpf(1) / 2) / zeta
    return -d * f**2, 2 * pi / (omega * f), hbar * omega * (1 - n / zeta) / 2, pi / (omega * zeta) / (f * g)


def reference(kind: str, units: str, params, n: int) -> dict:
    """E_n, tau_n and, above the lowest level, dE, dTau and y(n)/hbar of a model, in its own units, to 50 digits."""
    energy, time, length, mass = _UNITS[units]
    params = [mp.mpf(p) for p in params]
    e, tau, de, dtau = _si_forms(kind, energy, time, length, mass, params, n)
    if de is None:
        return {"E_n": e / energy, "tau_n": tau / time}
    return {"E_n": e / energy, "tau_n": tau / time, "dE": de / energy, "dTau": dtau / time,
            "y_over_hbar": abs(de * dtau) / _HBAR}


def _ulps(got: float, want) -> float:
    """|got - want| in units of the last place of ``want`` rounded to a float; inf where that is not finite."""
    if want == 0:
        return 0.0 if got == 0.0 else math.inf
    spacing = math.ulp(max(abs(float(want)), sys.float_info.min))  # a value past the largest float has no spacing
    return float(abs(mp.mpf(got) - want) / spacing) if spacing < math.inf else math.inf


_BUILD = {"box": sl.box, "harmonic": sl.harmonic, "hydrogenoid": sl.hydrogenoid, "morse": sl.morse}
_CALLS = {
    "E_n": lambda m, n: sl.energy_level(m, n).energy,
    "tau_n": lambda m, n: sl.classical_period(m, n).tau,
    "dE": sl.level_gap_energy,
    "dTau": sl.level_gap_period,
}
_MAGNITUDES = st.floats(-300.0, 300.0).map(lambda x: 10.0**x)


@settings(max_examples=250, deadline=None)
@given(kind=st.sampled_from(sorted(_BUILD)), units=st.sampled_from(sorted(UNIT_SYSTEMS)),
       params=st.tuples(_MAGNITUDES, _MAGNITUDES, _MAGNITUDES), z=st.integers(1, 120),
       n=st.one_of(st.integers(1, 60), st.sampled_from((1001, 10**6))))
# subnormal SI products: a^2 = 1.5e-320 in SI, an SI mass of 1.1e-321, and k/m = 1.1e-318 in SI
@example(kind="box", units="si", params=(3.3e30, 1.2345e-160, 1.0), z=1, n=2)
@example(kind="box", units="atomic", params=(1.2345e-291, 1e140, 1.0), z=1, n=2)
@example(kind="harmonic", units="si", params=(1.1e18, 1.234567e-300, 1.0), z=1, n=2)
@example(kind="harmonic", units="natural-box", params=(9.975593929258104e33, 8.033223775776729e-221, 1.0), z=1, n=2)
# a plain left-to-right order of the scales loses digits here: h pi / a, k^2 and alpha sqrt(2 D) are subnormal
@example(kind="box", units="si", params=(1e-300, 1e286, 1.0), z=1, n=1)
@example(kind="box", units="natural-box", params=(3.540543035481172e-68, 5.084902611121824e+160, 1.0), z=1, n=2)
@example(kind="morse", units="natural-box",
         params=(5.0243300591853256e-253, 1.3101337880905547e-181, 1.035023922913982e-233), z=1, n=2)
# an SI product of 4.8e-321 once printed E_1001 = -0.64255 for -0.72660
@example(kind="hydrogenoid", units="atomic", params=(1.3872098156832063e274, 1.0, 7.1572689231470444e-68), z=2,
         n=1001)
def test_closed_forms_are_within_8_ulps_of_the_reference_or_refused(kind, units, params, z, n):
    unit_system = UNIT_SYSTEMS[units]
    if kind == "hydrogenoid":
        params = (params[0], z, params[2])
    try:
        model = _BUILD[kind](*params[:2 if kind in ("box", "harmonic") else 3], units=unit_system)
    except ModelDefinitionError:  # a Morse well whose zeta is not above 1, or not finite
        return
    n_max = sl.n_max(model)
    n = max(sl.n_min(model), n if n_max is None else min(n, n_max))
    want = reference(kind, units, params, n)
    for name, call in _CALLS.items():
        if name.startswith("d") and n == sl.n_min(model):
            continue
        try:
            got = call(model, n)
        except sl.FloatRangeError:
            continue
        assert _ulps(got, want[name]) <= 8.0, (name, got, mp.nstr(want[name], 20))


@pytest.mark.parametrize("kind, units, params, n", [
    ("box", "atomic", (1.0, 1e-131), 2),  # m a^2 = 2.55e-313 in SI
    ("hydrogenoid", "atomic", (1e-235, 1, 1.0), 1),  # mu (Z e^2)^2 = 4.8e-321 in SI
    ("box", "natural-box", (1e260, 1.0), 2),  # E_1 = 4.9e-260 was 0 in SI
    ("box", "natural-box", (1e262, 1.0), 2),
    ("box", "natural-box", (1e255, 1.0), 40),  # dE was subnormal in SI
    ("harmonic", "oscillator", (1e-300, 1e300), 1),  # omega = 1e300 was inf in SI
])
def test_closed_forms_once_refused_in_si_are_exact(kind, units, params, n):
    model = _BUILD[kind](*params, units=UNIT_SYSTEMS[units])
    want = reference(kind, units, params, n)
    for name, call in _CALLS.items():
        if name in want:
            assert _ulps(call(model, n), want[name]) <= 8.0, name
    if "dE" in want:
        assert _ulps(sl.y_function(model, n), want["y_over_hbar"]) <= 8.0


# -- the golden files --------------------------------------------------------

_GOLDEN = Path(__file__).parent / "golden"
_PRESETS = {
    "box-natural": ("box", "natural-box", (1.0, 1.0)),
    "harmonic-natural": ("harmonic", "oscillator", (1.0, 1.0)),
    "hydrogen-atomic": ("hydrogenoid", "atomic", (1.0, 1, 1.0)),
    "morse-h2": ("morse", "molecular", (0.50391, 4.7446, 1.9426)),
}
_COLUMNS = ("E_n", "tau_n", "dE", "dTau", "y_over_hbar")
_TWELVE = Context(prec=12, rounding=ROUND_HALF_EVEN)


def _golden_values(preset: str):
    """(file, n, column, printed text) of every closed-form number in the preset's criterion and spectrum files."""
    for path in sorted(_GOLDEN.glob(f"*-{preset}/*.csv")):
        if path.name not in ("criterion.csv", "spectrum.csv"):
            continue
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                for column in _COLUMNS:
                    if column in row:
                        yield path, int(row["n"]), column, row[column]


def test_presets_match_the_reference_models():
    for preset, (kind, units, params) in _PRESETS.items():
        assert sl.get_preset(preset) == _BUILD[kind](*params, units=UNIT_SYSTEMS[units])


@pytest.mark.parametrize("preset", sorted(_PRESETS))
def test_golden_closed_form_digits_are_the_reference_rounded_to_12(preset):
    kind, units, params = _PRESETS[preset]
    count = 0
    for path, n, column, text in _golden_values(preset):
        value = reference(kind, units, params, n)[column]
        rounded = _TWELVE.plus(Decimal(mp.nstr(value, 40, strip_zeros=False)))
        assert Decimal(text) == rounded, (path.parent.name, path.name, n, column, text, str(rounded))
        count += 1
    assert count > 0
