"""Unit systems and physical constants.

Each system records the SI size of one unit of energy, time, length and
mass, plus the numerical value hbar takes inside the system. The product
``hbar * energy_J * time_s`` must equal hbar in J s, which is validated at
construction. The closed forms and the semiclassical engine run in a
model's own units and need one more number from its system, the coherence
factor energy x time^2 / (mass x length^2), which is 1 wherever the energy
unit is the mass unit times the square of the velocity unit; they divide the
mass by it. The SI factors serve ``ModelSpec.converted``, which restates a
model in another system.

The two abstract systems are anchored to SI base units so their conversion
factors are well defined:

* ``natural-box``: hbar = m = 1 with the mass unit 1 kg and length unit 1 m;
  the time and energy units follow from hbar.
* ``oscillator``: hbar = m = omega = 1 with the mass unit 1 kg and time unit
  1 s; the energy and length units follow.

``atomic`` uses CODATA 2018 values (hartree, bohr, electron mass), and
``molecular`` uses eV / angstrom / amu / fs, in which hbar is about
0.658212 eV fs. ``si`` is the identity system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ModelDefinitionError, _real

__all__ = [
    "HBAR_SI",
    "UnitSystem",
    "UNIT_SYSTEMS",
    "get_unit_system",
    "NATURAL_BOX",
    "OSCILLATOR",
    "ATOMIC",
    "MOLECULAR",
    "SI",
]

# hbar from the exact SI value of h (2019 redefinition).
HBAR_SI = 6.62607015e-34 / (2.0 * math.pi)  # J s

# Exact by definition.
_EV_J = 1.602176634e-19
_ANGSTROM_M = 1e-10
_FEMTOSECOND_S = 1e-15

# CODATA 2018.
_AMU_KG = 1.66053906660e-27
_ELECTRON_MASS_KG = 9.1093837015e-31
_BOHR_RADIUS_M = 5.29177210903e-11
# Derived rather than typed so the identity hartree = hbar^2 / (m_e a0^2)
# closes to machine precision; agrees with the listed value to ~2e-12,
# within the CODATA uncertainty.
_HARTREE_J = HBAR_SI**2 / (_ELECTRON_MASS_KG * _BOHR_RADIUS_M**2)


@dataclass(frozen=True)
class UnitSystem:
    """Scale factors from one system unit to SI.

    Attributes:
        name: registry key, e.g. "molecular".
        hbar: numerical value of hbar in system units (energy unit x time unit).
        energy_J: joules per system energy unit.
        time_s: seconds per system time unit.
        length_m: meters per system length unit.
        mass_kg: kilograms per system mass unit.
    """

    name: str
    hbar: float
    energy_J: float
    time_s: float
    length_m: float
    mass_kg: float

    def __post_init__(self):
        for field in ("hbar", "energy_J", "time_s", "length_m", "mass_kg"):
            _real(getattr(self, field), f"unit system {self.name!r}: {field}", ModelDefinitionError, positive=True)
        check = self.hbar * self.energy_J * self.time_s
        if abs(check / HBAR_SI - 1.0) > 1e-9:
            raise ModelDefinitionError(
                f"unit system {self.name!r}: hbar * energy_J * time_s = {check:.6e} J s, expected {HBAR_SI:.6e}"
            )
        # Conversion factor for the dimensions the models use. "coulomb" is the
        # Gaussian-style coupling e^2 with dimension energy x length.
        # "coherence" is dimensionless, the SI value of one energy unit over
        # one mass unit times a velocity unit squared: 1 up to rounding in every
        # built-in system but molecular (eV fs^2 / (amu A^2), about 9.65e-3).
        object.__setattr__(self, "_factors", {
            "energy": self.energy_J,
            "time": self.time_s,
            "length": self.length_m,
            "mass": self.mass_kg,
            "inverse_length": 1.0 / self.length_m,
            "stiffness": self.mass_kg / self.time_s**2,
            "action": self.energy_J * self.time_s,
            "coulomb": self.energy_J * self.length_m,
            "coherence": self.energy_J * self.time_s**2 / (self.mass_kg * self.length_m**2),
        })

    def factor(self, dimension: str) -> float:
        try:
            return self._factors[dimension]
        except KeyError:
            raise ModelDefinitionError(f"unknown dimension {dimension!r}") from None

    def to_si(self, value: float, dimension: str) -> float:
        return value * self.factor(dimension)

    def from_si(self, value: float, dimension: str) -> float:
        return value / self.factor(dimension)


NATURAL_BOX = UnitSystem(
    name="natural-box",
    hbar=1.0,
    energy_J=HBAR_SI**2,  # = hbar^2 / (1 kg * (1 m)^2)
    time_s=1.0 / HBAR_SI,  # = 1 kg * (1 m)^2 / hbar
    length_m=1.0,
    mass_kg=1.0,
)

OSCILLATOR = UnitSystem(
    name="oscillator",
    hbar=1.0,
    energy_J=HBAR_SI,  # = hbar * (1 rad/s)
    time_s=1.0,
    length_m=math.sqrt(HBAR_SI),  # = sqrt(hbar / (1 kg * 1 rad/s))
    mass_kg=1.0,
)

ATOMIC = UnitSystem(
    name="atomic",
    hbar=1.0,
    energy_J=_HARTREE_J,
    time_s=HBAR_SI / _HARTREE_J,
    length_m=_BOHR_RADIUS_M,
    mass_kg=_ELECTRON_MASS_KG,
)

MOLECULAR = UnitSystem(
    name="molecular",
    hbar=HBAR_SI / (_EV_J * _FEMTOSECOND_S),  # ~0.6582119569509067 eV fs
    energy_J=_EV_J,
    time_s=_FEMTOSECOND_S,
    length_m=_ANGSTROM_M,
    mass_kg=_AMU_KG,
)

SI = UnitSystem(
    name="si",
    hbar=HBAR_SI,
    energy_J=1.0,
    time_s=1.0,
    length_m=1.0,
    mass_kg=1.0,
)

UNIT_SYSTEMS = {u.name: u for u in (NATURAL_BOX, OSCILLATOR, ATOMIC, MOLECULAR, SI)}


def get_unit_system(name: str) -> UnitSystem:
    """Look up a built-in unit system by name."""
    try:
        return UNIT_SYSTEMS[name]
    except KeyError:
        known = ", ".join(sorted(UNIT_SYSTEMS))
        raise ModelDefinitionError(f"unknown unit system {name!r}; available: {known}") from None
