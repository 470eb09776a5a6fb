from __future__ import annotations

import math

import pytest

from speclimit import units
from speclimit.errors import ModelDefinitionError


HBAR_SI = 6.62607015e-34 / (2.0 * math.pi)


def test_hbar_si_value():
    assert units.HBAR_SI == pytest.approx(1.054571817e-34, rel=1e-9)


@pytest.mark.parametrize("system", list(units.UNIT_SYSTEMS.values()), ids=lambda u: u.name)
def test_hbar_consistency_identity(system):
    # the defining identity of every system: hbar expressed in its own
    # energy and time units must recover the SI hbar
    assert abs(system.hbar * system.energy_J * system.time_s / HBAR_SI - 1.0) <= 1e-9


def test_si_system_is_identity():
    si = units.SI
    for dim in ("energy", "time", "length", "mass", "stiffness", "action", "coulomb", "inverse_length"):
        assert si.factor(dim) == 1.0
    assert si.hbar == HBAR_SI


def test_round_trip_all_dimensions():
    for system in units.UNIT_SYSTEMS.values():
        for dim in ("energy", "time", "length", "mass", "stiffness", "action", "coulomb", "inverse_length"):
            v = 3.7
            assert system.from_si(system.to_si(v, dim), dim) == pytest.approx(v, rel=1e-15)


def test_molecular_hbar_value():
    # hbar in eV fs
    expected = HBAR_SI / (1.602176634e-19 * 1e-15)
    assert units.MOLECULAR.hbar == pytest.approx(expected, rel=1e-15)
    assert units.MOLECULAR.hbar == pytest.approx(0.6582119569509066, rel=1e-12)


def test_atomic_self_consistency():
    # hartree = hbar^2 / (m_e a0^2) and the atomic time unit hbar / hartree
    at = units.ATOMIC
    assert at.energy_J == pytest.approx(HBAR_SI**2 / (at.mass_kg * at.length_m**2), rel=1e-15)
    assert at.time_s == pytest.approx(HBAR_SI / at.energy_J, rel=1e-15)
    assert at.hbar == 1.0


def test_atomic_coulomb_in_ev_angstrom():
    # e^2/(4 pi eps0) = 1 hartree bohr ~ 14.40 eV angstrom
    c_si = units.ATOMIC.to_si(1.0, "coulomb")
    c_mol = units.MOLECULAR.from_si(c_si, "coulomb")
    assert c_mol == pytest.approx(14.3996, abs=2e-3)


@pytest.mark.parametrize("system", list(units.UNIT_SYSTEMS.values()), ids=lambda u: u.name)
def test_coherence_factor(system):
    # energy time^2 / (mass length^2): 1 where the energy unit is mass x (length / time)^2, up to rounding
    want = 1.602176634e-19 * 1e-15**2 / (1.66053906660e-27 * 1e-10**2) if system.name == "molecular" else 1.0
    assert system.factor("coherence") == pytest.approx(want, rel=4e-16)
    assert units.MOLECULAR.factor("coherence") == pytest.approx(9.6485332e-3, rel=1e-8)


def test_natural_box_scales():
    nb = units.NATURAL_BOX
    assert nb.hbar == 1.0 and nb.mass_kg == 1.0 and nb.length_m == 1.0
    # E = hbar^2 / (m L^2), t = m L^2 / hbar
    assert nb.energy_J == pytest.approx(HBAR_SI**2, rel=1e-15)
    assert nb.time_s == pytest.approx(1.0 / HBAR_SI, rel=1e-15)


def test_oscillator_scales():
    os_ = units.OSCILLATOR
    assert os_.hbar == 1.0 and os_.mass_kg == 1.0 and os_.time_s == 1.0
    assert os_.energy_J == pytest.approx(HBAR_SI, rel=1e-15)
    assert os_.length_m == pytest.approx(math.sqrt(HBAR_SI), rel=1e-15)


def test_get_unit_system():
    assert units.get_unit_system("molecular") is units.MOLECULAR
    with pytest.raises(ModelDefinitionError):
        units.get_unit_system("imperial")


def test_inconsistent_system_rejected():
    with pytest.raises(ModelDefinitionError):
        units.UnitSystem(name="bad", hbar=1.0, energy_J=1.0, time_s=1.0, length_m=1.0, mass_kg=1.0)


def test_nonpositive_field_rejected():
    with pytest.raises(ModelDefinitionError):
        units.UnitSystem(name="bad", hbar=0.0, energy_J=1.0, time_s=HBAR_SI, length_m=1.0, mass_kg=1.0)


def test_unknown_dimension_rejected():
    with pytest.raises(ModelDefinitionError):
        units.SI.factor("charge")
