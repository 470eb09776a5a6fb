"""Closed-form 1-D bound systems and their classical periods.

Four analytic wells plus a sampled-table potential:

* box: infinite square well of width a, E_n = (hbar pi n)^2 / (2 m a^2), n >= 1.
* harmonic: U = k x^2 / 2, E_n = hbar omega (n + 1/2), n >= 0; the classical
  period 2 pi / omega does not depend on the level.
* hydrogenoid: radial s-orbit in U = -Z e^2 / r with reduced mass mu,
  E_n = -mu Z^2 e^4 / (2 hbar^2 n^2) and Kepler period
  tau_n = 2 pi hbar^3 n^3 / (mu Z^2 e^4), n >= 1. The coupling e^2 carries
  dimension energy x length (Gaussian convention), so e = 1 in atomic units.
* morse: U = D (exp(-2 a x) - 2 exp(-a x)) with omega = a sqrt(2 D / M) and
  zeta = 2 D / (hbar omega). The bound spectrum of this potential is
  E_n = -D (1 - (n + 1/2) / zeta)^2, which Bohr-Sommerfeld quantization with
  the half-integer correction reproduces exactly. Levels are enumerated while
  (n + 1/2) < zeta / 2, i.e. while E_n stays below a quarter of the well
  depth; the well supports further near-dissociation orbits, reachable
  explicitly through the semiclassical engine, but they are outside the
  declared level budget of this model.
* numeric: a strictly increasing table of (x, U) samples with an interior
  minimum, interpolated by a monotone cubic (PCHIP). No closed forms; use the
  semiclassical engine.

Each kind is one params dataclass (a ``WellKind``) holding everything about
it: name, parameter schema, validation, scales, lowest quantum number,
Maslov count, closed forms and classical well profile. The functions below
are generic over that object. Parameters are stated in the model's declared
unit system, and the closed forms stay in it: each kind computes a few
scales of the model once (an energy and a time, or omega), each formed from
``math.frexp`` mantissas so that no intermediate product leaves the float
range, and each form is a scale times a factor in n. The well profile, which
the semiclassical engine integrates, is in the same units, with the mass (and
the harmonic stiffness) divided by the system's coherence factor, as the
closed forms divide it. Each parameter's unit is stated once, in its schema's
``Param.dim``, which only ``ModelSpec.converted`` reads.
The module uses ``math`` alone: the array side of each well profile
(potentials and a table's PCHIP pieces) is in ``profiles``.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property
from types import SimpleNamespace
from typing import Callable, ClassVar

from .errors import (ConfigError, FloatRangeError, ModelDefinitionError, OutOfRangeError, UnsupportedModelError,
                     _finite_real, _integer, _real)
from .units import UnitSystem, get_unit_system, MOLECULAR, NATURAL_BOX, OSCILLATOR, ATOMIC

__all__ = [
    "BoxParams",
    "HarmonicParams",
    "HydrogenoidParams",
    "MorseParams",
    "NumericPotentialParams",
    "ModelSpec",
    "EnergyLevel",
    "PeriodPoint",
    "WellProfile",
    "energy_level",
    "classical_period",
    "bound_levels",
    "level_gap_energy",
    "level_gap_period",
    "n_min",
    "n_max",
    "well_profile",
    "model_from_dict",
    "model_from_json",
    "PRESETS",
    "get_preset",
]

_REQUIRED = object()  # default of a config key that must be present
_NORMAL_MIN = sys.float_info.min  # the smallest normal float

DEGENERATE_PERIOD_NOTE = "period-degenerate: criterion inconclusive by period measurement"

MORSE_TAIL_NOTE = (
    "y(n) grows toward dissociation for this well but stays below 1/2 for every"
    " enumerated bound level"
)


@dataclass(frozen=True)
class EnergyLevel:
    n: int
    energy: float


@dataclass(frozen=True)
class PeriodPoint:
    n: int
    tau: float


@dataclass(frozen=True)
class WellProfile:
    """One confining well for action/period quadrature, in the model's units.

    ``mass`` is the model's mass over its system's coherence factor, so that
    I = 2 integral sqrt(2 mass (E - U)) dx comes out in the system's action
    unit, in which hbar is ``units.hbar``.
    """

    mass: float
    potential: Callable  # vectorized, model units in and out
    turning_points: Callable  # E -> (x_minus, x_plus) as floats, for u_min < E < e_ceiling
    u_min: float  # potential at the well bottom; -inf for the Coulomb singularity
    e_ceiling: float  # exclusive upper bound on bound-motion energies
    e_scale: float  # characteristic energy
    pieces: CubicPieces | None = None  # a table's profiles.CubicPieces; None for a closed-form well
    # (I(E), tau(E)) by energy, for each E a level search has integrated; see semiclassical._pass_of
    passes: dict = field(default_factory=dict, init=False, compare=False, repr=False)


@dataclass(frozen=True)
class Param:
    """One config key: JSON key, dataclass attribute, type, unit dimension, default and bounds.

    ``attr`` defaults to the key. A float must be >= ``lo``; an int must lie in [``lo``, ``hi``].
    """

    key: str
    attr: str = ""
    type: type = float  # float, int, bool, or tuple (a list of floats in JSON)
    dim: str | None = None  # unit dimension; "charge" is e, whose square has dimension "coulomb"
    default: object = _REQUIRED
    lo: float | None = None
    hi: int | None = None

    def __post_init__(self):
        if not self.attr:
            object.__setattr__(self, "attr", self.key)

    def rescaled(self, value, src: UnitSystem, dst: UnitSystem):
        """``value`` stated in ``src`` units, re-expressed in ``dst`` units."""
        if self.dim is None:
            return value
        if self.dim == "charge":
            r = math.sqrt(src.factor("coulomb") / dst.factor("coulomb"))
        else:
            r = src.factor(self.dim) / dst.factor(self.dim)
        return tuple(v * r for v in value) if self.type is tuple else value * r


class WellKind:
    """Base of the five params dataclasses; each subclass is one well kind.

    A kind states its ``kind`` name, ``schema`` (each parameter's unit is its
    ``Param.dim``, and nothing else restates it), lowest quantum number
    ``n_min`` and default Maslov count ``maslov``. It implements ``profile``
    and, unless ``closed_forms`` is false, ``scales`` and the closed forms
    ``energy``, ``period``, ``gap_energy`` and ``gap_period``.
    ``scales(units)`` gives the model's constants in its own units, all
    positive, and each form is a function of those scales and n, in the same
    units. ``profile(units)`` returns the ``WellProfile`` in the same units,
    its mass (and a harmonic stiffness) divided by the coherence factor
    ``units.factor("coherence")``. ``notes`` gives the kind's remarks on a
    criterion report.
    """

    kind: ClassVar[str]
    schema: ClassVar[tuple[Param, ...]]
    n_min: ClassVar[int]
    maslov: ClassVar[int]
    closed_forms: ClassVar[bool] = True
    degenerate_period: ClassVar[bool] = False  # one period for every level

    def validate(self, units: UnitSystem):
        """Raise ModelDefinitionError unless every float parameter is positive and finite."""
        for p in self.schema:
            if p.type is float:
                _real(getattr(self, p.attr), f"{self.kind}: {p.attr}", ModelDefinitionError, positive=True)

    def n_max(self, model: ModelSpec) -> int | None:
        """Largest enumerated level, or None when the ladder is unbounded."""
        return None

    def scales(self, units: UnitSystem) -> SimpleNamespace:
        """The constants the closed forms share, in model units; none for a kind without closed forms."""
        return SimpleNamespace()

    def notes(self, regime: str, ys: list[float]) -> tuple[str, ...]:
        """The kind's notes on a criterion report of this ``regime`` and y(n)/hbar values ``ys``."""
        return (DEGENERATE_PERIOD_NOTE,) if self.degenerate_period else ()


def _scaled(num, den=(), root: bool = False) -> float:
    """The product of ``num`` over the product of ``den``, or its square root, with no intermediate under- or overflow.

    The products run over the ``math.frexp`` mantissas, which lie in
    [1/2, 1), and the exponents are summed apart, so one ``math.ldexp`` puts
    the result in place. Where every intermediate of the plain
    ``(num[0] * num[1] * ...) / (den[0] * ...)`` is a normal float, the bits
    are that expression's, or those of its ``math.sqrt`` with ``root``.
    Elsewhere the result is still correctly scaled: inf past the largest
    float (and for a division by 0), and subnormal or 0 below the smallest
    normal one.
    """
    try:
        top, bottom = [math.frexp(x) for x in num], [math.frexp(x) for x in den]
        m = math.prod(f for f, _ in top) / math.prod(f for f, _ in bottom)
        e = sum(k for _, k in top) - sum(k for _, k in bottom)
        if root:  # halve an even exponent
            m, e = math.sqrt(m * 2.0 ** (e % 2)), e // 2
        return math.ldexp(m, e)
    except ArithmeticError:  # past the largest float, a division by 0, or an int too large for a float
        return math.inf


def _converted(kind: type[WellKind], **args) -> WellKind:
    """``kind``'s params from constructor arguments, each converted to its schema type where that type's rule takes it.

    A finite real number becomes a float, with its bits, table entries
    included, and a numpy integer becomes an int. Any other argument is
    passed on unconverted, so ``validate`` refuses it with the rule's message.
    """
    def convert(p: Param, v):
        if p.type is tuple:
            return tuple(float(x) if _finite_real(x) else x for x in v) if isinstance(v, Iterable) else v
        if p.type is int:
            return int(v) if isinstance(v, numbers.Integral) and not isinstance(v, bool) else v
        return float(v) if _finite_real(v) else v

    return kind(**{p.attr: convert(p, args[p.attr]) for p in kind.schema})


@dataclass(frozen=True)
class BoxParams(WellKind):
    mass: float
    width: float

    kind = "box"
    schema = (Param("mass", dim="mass"), Param("width", dim="length"))
    n_min = 1
    maslov = 0

    def scales(self, units: UnitSystem):
        # t1 = 2 m a^2 / (C hbar pi), C the coherence factor, and e1 = pi hbar / t1 = C hbar^2 pi^2 / (2 m a^2):
        # the errors of t1 cancel in y = |dE dTau| / hbar
        c, hbar, m, a = units.factor("coherence"), units.hbar, self.mass, self.width
        t1 = _scaled((2, m, a, a), (c, hbar, math.pi))
        return SimpleNamespace(t1=t1, e1=_scaled((math.pi, hbar), (t1,)))

    energy = staticmethod(lambda s, n: s.e1 * n**2)
    period = staticmethod(lambda s, n: s.t1 / n)
    gap_energy = staticmethod(lambda s, n: s.e1 * (n - 0.5))
    gap_period = staticmethod(lambda s, n: -s.t1 / (2 * n * (n - 1)))

    def profile(self, units: UnitSystem) -> WellProfile:
        from .profiles import box_potential

        m, a = self.mass / units.factor("coherence"), self.width
        return WellProfile(mass=m, potential=box_potential(a), turning_points=lambda e: (0.0, a),
                           u_min=0.0, e_ceiling=math.inf, e_scale=(units.hbar * math.pi) ** 2 / (2.0 * (m * a**2)))


@dataclass(frozen=True)
class HarmonicParams(WellKind):
    mass: float
    stiffness: float

    kind = "harmonic"
    schema = (Param("mass", dim="mass"), Param("stiffness", dim="stiffness"))
    n_min = 0
    maslov = 2
    degenerate_period = True

    def scales(self, units: UnitSystem):
        omega = _scaled((self.stiffness,), (self.mass,), root=True)
        return SimpleNamespace(omega=omega, hw=units.hbar * omega)

    energy = staticmethod(lambda s, n: s.hw * (n + 0.5))
    period = staticmethod(lambda s, n: 2.0 * math.pi / s.omega)
    gap_energy = staticmethod(lambda s, n: s.hw / 2.0)
    gap_period = staticmethod(lambda s, n: 0.0)

    def profile(self, units: UnitSystem) -> WellProfile:
        from .profiles import harmonic_potential

        c = units.factor("coherence")
        m, k = self.mass / c, self.stiffness / c

        def turning_points(e):
            amp = math.sqrt(2.0 * e / k)
            return -amp, amp

        return WellProfile(mass=m, potential=harmonic_potential(k), turning_points=turning_points,
                           u_min=0.0, e_ceiling=math.inf, e_scale=units.hbar * math.sqrt(k / m))


@dataclass(frozen=True)
class HydrogenoidParams(WellKind):
    reduced_mass: float
    z: int
    charge: float = 1.0

    kind = "hydrogenoid"
    schema = (
        Param("reduced_mass", dim="mass"),
        Param("z", type=int),
        Param("charge", dim="charge", default=1.0),
    )
    n_min = 1
    maslov = 0

    def validate(self, units: UnitSystem):
        super().validate(units)
        _integer(self.z, "hydrogenoid: z", ModelDefinitionError, lo=1)

    def scales(self, units: UnitSystem):
        # e1 = mu Z^2 q^4 / (2 C hbar^2), C the coherence factor, and t1 = pi hbar / e1 (errors cancel in y)
        c, hbar, mu, z, q = units.factor("coherence"), units.hbar, self.reduced_mass, self.z, self.charge
        e1 = _scaled((mu, z, z, q, q, q, q), (2, c, hbar, hbar))
        return SimpleNamespace(e1=e1, t1=_scaled((math.pi, hbar), (e1,)))

    energy = staticmethod(lambda s, n: -s.e1 / n**2)
    period = staticmethod(lambda s, n: s.t1 * n**3)
    gap_energy = staticmethod(lambda s, n: s.e1 * ((2 * n - 1) / (2 * n**2 * (n - 1) ** 2)))
    gap_period = staticmethod(lambda s, n: s.t1 * ((3 * n**2 - 3 * n + 1) / 2))

    def profile(self, units: UnitSystem) -> WellProfile:
        from .profiles import coulomb_potential

        mu, c = self.reduced_mass / units.factor("coherence"), self.z * self.charge**2  # the coupling Z e^2
        # the turning points are the singular wall and r = Z e^2 / |E|
        return WellProfile(mass=mu, potential=coulomb_potential(c), turning_points=lambda e: (0.0, float(-c / e)),
                           u_min=-math.inf, e_ceiling=0.0, e_scale=mu * c**2 / (2.0 * units.hbar**2))

    def notes(self, regime: str, ys: list[float]) -> tuple[str, ...]:
        return (HYDROGENOID_THRESHOLD_NOTE,)


def _hydrogenoid_y(n: int) -> float:
    """y(n)/hbar of any hydrogenoid: the product dE dTau does not depend on mu, Z or e."""
    s = HydrogenoidParams(1.0, 1).scales(ATOMIC)
    return abs(HydrogenoidParams.gap_energy(s, n) * HydrogenoidParams.gap_period(s, n)) / ATOMIC.hbar


# The closed form y(n) = pi*(2n-1)*(3n^2-3n+1) / (4 n^2 (n-1)^2) first drops
# below 1/2 at n = 10, although the threshold is often quoted as n >= 9. The
# formula wins here; both values are reported.
HYDROGENOID_THRESHOLD_NOTE = (
    "hydrogenoid threshold: direct evaluation of the closed form gives the first"
    f" unresolvable level at n = 10 (y(9)/hbar = {_hydrogenoid_y(9):.4f} > 1/2,"
    f" y(10)/hbar = {_hydrogenoid_y(10):.4f} < 1/2);"
    " the often-quoted claim n >= 9 disagrees with the formula at n = 9"
)


@dataclass(frozen=True)
class MorseParams(WellKind):
    mass: float
    depth: float
    alpha: float  # inverse-length range parameter

    kind = "morse"
    schema = (
        Param("mass", dim="mass"),
        Param("depth", dim="energy"),
        Param("range", "alpha", dim="inverse_length"),
    )
    n_min = 0
    maslov = 2

    def validate(self, units: UnitSystem):
        super().validate(units)
        zeta = self.scales(units).zeta
        if not math.isfinite(zeta):
            raise ModelDefinitionError("morse: zeta = 2 depth / (hbar omega) leaves the float range")
        if zeta <= 1.0:
            raise ModelDefinitionError(
                f"morse: zeta = 2 depth / (hbar omega) must exceed 1 for a bound level to exist, got {zeta:.6g}"
            )

    def scales(self, units: UnitSystem):
        # omega = alpha sqrt(2 D C / m), C the coherence factor, and zeta = 2 D / (hbar omega)
        c, hbar, m, d, a = units.factor("coherence"), units.hbar, self.mass, self.depth, self.alpha
        omega = _scaled((2, d, c, a, a), (m,), root=True)
        zeta = _scaled((2, d, m), (c, hbar, hbar, a, a), root=True)
        return SimpleNamespace(depth=d, omega=omega, zeta=zeta, hw=hbar * omega)

    def n_max(self, model: ModelSpec) -> int:
        return math.ceil(model._scales.zeta / 2.0 - 0.5) - 1

    def notes(self, regime: str, ys: list[float]) -> tuple[str, ...]:
        if regime == "all-unresolvable" and ys != sorted(ys, reverse=True):
            return (MORSE_TAIL_NOTE,)
        return ()

    # Each factor 1 - (n +- 1/2) / zeta of an enumerated level lies in (1/2, 1], so a division by it
    # comes first, where it cannot overflow, and an underflow shows in the result.
    energy = staticmethod(lambda s, n: -s.depth * (1.0 - (n + 0.5) / s.zeta) ** 2)
    period = staticmethod(lambda s, n: 2.0 * math.pi / (1.0 - (n + 0.5) / s.zeta) / s.omega)
    # (E_n - E_{n-1})/2 = (hbar omega / 2)(1 - n / zeta)
    gap_energy = staticmethod(lambda s, n: s.hw * (1.0 - n / s.zeta) / 2.0)
    gap_period = staticmethod(
        lambda s, n: math.pi / ((1.0 - (n + 0.5) / s.zeta) * (1.0 - (n - 0.5) / s.zeta)) / (s.omega * s.zeta))

    def profile(self, units: UnitSystem) -> WellProfile:
        from .profiles import morse_potential

        m, d, a = self.mass / units.factor("coherence"), self.depth, self.alpha

        def turning_points(e):
            # U = E at exp(-a x) = 1 +- s; the outer root 1 - s is written as
            # (-E/D) / (1 + s), which does not cancel near dissociation
            r = e / d
            s = math.sqrt(1.0 + r)
            return -math.log1p(s) / a, -math.log(-r / (1.0 + s)) / a

        return WellProfile(mass=m, potential=morse_potential(d, a), turning_points=turning_points,
                           u_min=-d, e_ceiling=0.0, e_scale=d)


@dataclass(frozen=True)
class NumericPotentialParams(WellKind):
    mass: float
    x: tuple[float, ...]
    u: tuple[float, ...]

    kind = "numeric"
    # JSON read order: a bad table is reported before a bad mass
    schema = (
        Param("x", type=tuple, dim="length"),
        Param("u", type=tuple, dim="energy"),
        Param("mass", dim="mass"),
    )
    n_min = 0
    maslov = 2
    closed_forms = False

    def validate(self, units: UnitSystem):
        super().validate(units)
        if not (isinstance(self.x, tuple) and isinstance(self.u, tuple)):
            raise ModelDefinitionError("numeric: x and u must be tuples of floats")
        if len(self.x) < 3 or len(self.x) != len(self.u):
            raise ModelDefinitionError(
                f"numeric: need at least 3 samples with matching lengths, got {len(self.x)} x and {len(self.u)} u"
            )
        if not all(map(_finite_real, self.x + self.u)):
            raise ModelDefinitionError("numeric: table entries must be finite")
        if not (math.isfinite(self.x[-1] - self.x[0]) and math.isfinite(max(self.u) - min(self.u))):
            raise ModelDefinitionError("numeric: the table's x span or u range leaves the float range")
        if not all(a < b for a, b in zip(self.x, self.x[1:])):
            raise ModelDefinitionError("numeric: abscissae must be strictly increasing")
        imin = self.u.index(min(self.u))  # the first lowest knot, as argmin finds it
        if imin == 0 or imin == len(self.u) - 1:
            raise ModelDefinitionError("numeric: potential must attain an interior minimum")

    def n_max(self, model: ModelSpec) -> int:
        from . import semiclassical

        return semiclassical.numeric_level_count(model) - 1

    def profile(self, units: UnitSystem) -> WellProfile:
        """The table's well, interpolated by PCHIP (Fritsch & Carlson, SIAM J. Numer. Anal. 17, 1980).

        Slopes at interior knots are the weighted harmonic means of the
        neighbouring secants, or 0 where the secants change sign or one is 0;
        the end slopes are Moler's one-sided three-point estimates, limited to
        keep the shape (*Numerical Computing with MATLAB*, sec. 3.6). Every
        piece is then monotone, so the bottom of the well is its lowest knot
        (the first one, where several share the lowest value). The
        coefficients and the potential match a reference interpolator bit for
        bit (tests/test_reference.py). The semiclassical engine evaluates the
        pieces per quadrature segment; ``potential`` serves every other caller.
        """
        from .profiles import _numeric_turning_points, _pchip

        pieces = _pchip(self.x, self.u)
        bottom = self.u.index(min(self.u))
        um = self.u[bottom]
        ceiling = min(self.u[0], self.u[-1])
        return WellProfile(
            mass=self.mass / units.factor("coherence"),
            potential=pieces,
            turning_points=_numeric_turning_points(self, pieces.coefs.T.tolist(), bottom),
            u_min=um,
            e_ceiling=ceiling,
            e_scale=ceiling - um,
            pieces=pieces,
        )


KINDS = {k.kind: k for k in (BoxParams, HarmonicParams, HydrogenoidParams, MorseParams, NumericPotentialParams)}


@dataclass(frozen=True)
class ModelSpec:
    """A model's parameters, whose class is its kind, and the unit system they are stated in."""

    params: WellKind
    units: UnitSystem

    def __post_init__(self):
        if not isinstance(self.params, WellKind):
            raise ModelDefinitionError(f"params must be a WellKind, got {type(self.params).__name__}")
        self.params.validate(self.units)

    # -- constructors --------------------------------------------------

    @classmethod
    def box(cls, mass: float = 1.0, width: float = 1.0, units: UnitSystem = NATURAL_BOX) -> "ModelSpec":
        return cls(_converted(BoxParams, mass=mass, width=width), units)

    @classmethod
    def harmonic(cls, mass: float = 1.0, stiffness: float = 1.0, units: UnitSystem = OSCILLATOR) -> "ModelSpec":
        return cls(_converted(HarmonicParams, mass=mass, stiffness=stiffness), units)

    @classmethod
    def hydrogenoid(cls, reduced_mass: float = 1.0, z: int = 1, charge: float = 1.0,
                    units: UnitSystem = ATOMIC) -> "ModelSpec":
        return cls(_converted(HydrogenoidParams, reduced_mass=reduced_mass, z=z, charge=charge), units)

    @classmethod
    def morse(cls, mass: float, depth: float, alpha: float, units: UnitSystem = MOLECULAR) -> "ModelSpec":
        return cls(_converted(MorseParams, mass=mass, depth=depth, alpha=alpha), units)

    @classmethod
    def numeric(cls, mass: float, x, u, units: UnitSystem = OSCILLATOR) -> "ModelSpec":
        return cls(_converted(NumericPotentialParams, mass=mass, x=x, u=u), units)

    # -- derived quantities --------------------------------------------

    @property
    def kind(self) -> str:
        """The kind's name, as its params class states it."""
        return self.params.kind

    @property
    def hbar(self) -> float:
        """hbar in the model's unit system."""
        return self.units.hbar

    @property
    def omega(self) -> float:
        """Angular frequency at the well bottom, in system units (1/time)."""
        s = self._scales
        if not hasattr(s, "omega"):
            raise UnsupportedModelError(f"omega is defined for harmonic and morse models, not {self.kind!r}")
        return s.omega

    @property
    def zeta(self) -> float:
        """Morse well capacity 2 D / (hbar omega), dimensionless."""
        s = self._scales
        if not hasattr(s, "zeta"):
            raise UnsupportedModelError(f"zeta is defined for morse models, not {self.kind!r}")
        return s.zeta

    # The scales and the well profile are built on first use and kept on the
    # instance, so a per-level closed form reads them without hashing the model.
    @cached_property
    def _scales(self) -> SimpleNamespace:
        """The kind's scales in model units, checked once.

        ``failure`` names the first scale that is not a normal finite float,
        and is None when there is none.
        """
        s = self.params.scales(self.units)
        bad = (f"the scale {k} is {v!r}" for k, v in vars(s).items() if not _NORMAL_MIN <= v < math.inf)
        s.failure = next(bad, None)
        return s

    @cached_property
    def _profile(self) -> WellProfile:
        """The well in the model's units; a profile that leaves the float range raises FloatRangeError."""
        try:
            return self.params.profile(self.units)
        except (OverflowError, ZeroDivisionError, FloatingPointError) as exc:  # a FloatRangeError keeps its reason
            raise FloatRangeError(f"{self.kind}: parameters leave the float range ({type(exc).__name__})") from None

    def __getstate__(self):
        # a profile holds closures, which do not pickle; a copy builds its own
        return {"params": self.params, "units": self.units}

    def converted(self, units: UnitSystem) -> "ModelSpec":
        """Re-express the same physical model in another unit system, each parameter through its schema unit."""
        p, src = self.params, self.units
        return ModelSpec(type(p)(**{q.attr: q.rescaled(getattr(p, q.attr), src, units) for q in p.schema}), units)

    def to_dict(self) -> dict:
        """JSON-ready echo of the model, matching the config schema."""
        params = {}
        for q in self.params.schema:
            value = getattr(self.params, q.attr)
            params[q.key] = list(value) if q.type is tuple else value
        return {"kind": self.kind, "units": self.units.name, "params": params}


# -- level range -------------------------------------------------------


def n_min(model: ModelSpec) -> int:
    """Lowest quantum number of the model."""
    return model.params.n_min


def n_max(model: ModelSpec):
    """Largest enumerated level, or None when the ladder is unbounded."""
    return model.params.n_max(model)


def _first_levels(model: ModelSpec, count: int) -> range:
    """Quantum numbers of the first ``count`` levels, fewer if the ladder ends earlier.

    The one place, with ``n_max`` and ``_closed``'s check of a single level,
    that knows whether a ladder ends. ``stop - 1`` is the last level taken,
    ``n_min - 1`` for a well that holds none (the range is then empty), so a
    caller compares it with the level it wanted instead of indexing the range.
    """
    lo, hi = n_min(model), n_max(model)
    return range(lo, lo + count if hi is None else min(lo + count, hi + 1))


# -- closed forms ------------------------------------------------------


def _closed(model: ModelSpec, n: int, forms: tuple[str, ...], instead: str) -> list[float]:
    """The closed ``forms`` of the model's kind at level n, in model units.

    The one closed-form code path. It checks n, takes the model's scales and
    applies each form to them and n. A scale that is not a normal finite
    float, or a form that fails in float arithmetic or gives a value that is
    not finite, or is zero or subnormal, raises FloatRangeError; the one value
    allowed to be 0 is the period gap of a period-degenerate kind. A gap needs
    level n - 1 as well. ``instead`` completes the error for kinds without
    closed forms.
    """
    p = model.params
    if not p.closed_forms:
        raise UnsupportedModelError(f"{model.kind}: no closed-form {instead}")
    _integer(n, "quantum number", OutOfRangeError)
    lo = p.n_min
    if n < lo:
        raise OutOfRangeError(f"{model.kind}: n must be >= {lo}, got {n}")
    hi = p.n_max(model)
    if hi is not None and n > hi:
        raise OutOfRangeError(f"{model.kind}: n must be <= {hi} for these parameters, got {n}")
    if n == lo and forms[0].startswith("gap_"):
        raise OutOfRangeError(f"{model.kind}: gap at n={n} needs level n-1; lowest level is {n}")
    s = model._scales
    if s.failure:  # every form would inherit a scale that overflowed or lost digits
        raise FloatRangeError(f"{model.kind}: {forms[0]} at n={n} leaves the float range ({s.failure})")
    values = []
    for form in forms:
        try:
            v = getattr(p, form)(s, n)
        except ArithmeticError as exc:
            raise FloatRangeError(
                f"{model.kind}: {form} at n={n} leaves the float range ({type(exc).__name__})") from None
        if not math.isfinite(v):
            raise FloatRangeError(f"{model.kind}: {form} at n={n} leaves the float range (got {v!r})")
        # a zero or subnormal value has lost some or all of its digits; only
        # the period gap of a period-degenerate kind is exactly 0
        if abs(v) < _NORMAL_MIN and not (form == "gap_period" and p.degenerate_period):
            raise FloatRangeError(f"{model.kind}: {form} at n={n} leaves the float range (underflows to {v!r})")
        values.append(v)
    return values


def energy_level(model: ModelSpec, n: int) -> EnergyLevel:
    """Closed-form level energy in the model's unit system."""
    (e,) = _closed(model, n, ("energy",), "levels; use semiclassical.quantize")
    return EnergyLevel(n=n, energy=e)


def classical_period(model: ModelSpec, n: int) -> PeriodPoint:
    """Closed-form classical period of the orbit with energy E_n."""
    (tau,) = _closed(model, n, ("period",), "periods; use semiclassical.period_of_energy")
    return PeriodPoint(n=n, tau=tau)


def bound_levels(model: ModelSpec, n_limit: int) -> list[EnergyLevel]:
    """First ``n_limit`` bound levels, fewer if the ladder ends earlier.

    Each level is the closed form, or Bohr-Sommerfeld for a kind without one.
    """
    _integer(n_limit, "n_limit", OutOfRangeError, lo=1)
    if model.params.closed_forms:
        level = energy_level
    else:
        from .semiclassical import quantize as level
    return [level(model, n) for n in _first_levels(model, n_limit)]


def level_gap_energy(model: ModelSpec, n: int) -> float:
    """Half the spacing (E_n - E_{n-1}) / 2 in closed form, system units.

    Evaluated from per-kind difference formulas rather than by subtracting
    levels, so no precision is lost to cancellation at large n.
    """
    return _closed(model, n, ("gap_energy",), "gaps; difference semiclassical levels instead")[0]


def level_gap_period(model: ModelSpec, n: int) -> float:
    """Signed half spacing (tau_n - tau_{n-1}) / 2 in closed form, system units."""
    return _closed(model, n, ("gap_period",), "gaps; difference semiclassical periods instead")[0]


# -- classical well profile (for the semiclassical engine) -------------


def well_profile(model: ModelSpec) -> WellProfile:
    """The well description the semiclassical engine integrates, in the model's units.

    Built on the model's first call and kept on it, so it lives as long as the
    model does.
    """
    return model._profile


# -- JSON loading and presets ------------------------------------------


def _expect_object(doc, path):
    if not isinstance(doc, dict):
        raise ConfigError(path, f"expected an object, got {type(doc).__name__}")


def _key_path(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _check_keys(doc: dict, allowed, path: str = ""):
    """Reject the first key of ``doc`` that is not in ``allowed``."""
    for key in doc:
        if key not in allowed:
            raise ConfigError(_key_path(path, key), "unknown key")


def _get_param(doc: dict, p: Param, path: str):
    """The value of ``p`` in ``doc``, checked against its type and bounds; ``p.default`` when the key is absent.

    A missing key without a default raises ConfigError, and null is accepted
    only where the default is None. A float is returned as float.
    """
    where = _key_path(path, p.key)
    if p.type is tuple:
        seq = doc.get(p.key)
        if not isinstance(seq, list) or not all(map(_finite_real, seq)):
            raise ConfigError(where, "expected a list of finite numbers")
        return tuple(map(float, seq))
    v = doc.get(p.key, p.default)
    if v is _REQUIRED:
        raise ConfigError(where, "missing required key")
    if v is None and p.default is None:
        return None
    if p.type is bool:
        if not isinstance(v, bool):
            raise ConfigError(where, f"expected true or false, got {v!r}")
        return v
    if p.type is int:
        if isinstance(v, bool) or not isinstance(v, int):
            raise ConfigError(where, f"expected an integer, got {v!r}")
    elif not _finite_real(v):
        raise ConfigError(where, f"expected a finite number, got {v!r}")
    if (p.lo is not None and v < p.lo) or (p.hi is not None and v > p.hi):
        bound = f">= {p.lo}" if p.hi is None else f"in [{p.lo}, {p.hi}]"
        raise ConfigError(where, f"must be {bound}, got {v}")
    return v if p.type is int else float(v)


def _read_object(doc, schema, path: str) -> dict:
    """The value of each ``Param`` of ``schema`` in the object ``doc``, keyed by its attr.

    The one reader of a config object: anything but an object, or a key
    outside the schema, raises ConfigError at ``path``, and each value is
    read by ``_get_param``.
    """
    _expect_object(doc, path)
    _check_keys(doc, [p.key for p in schema], path)
    return {p.attr: _get_param(doc, p, path) for p in schema}


def model_from_dict(doc: dict, path: str = "model") -> ModelSpec:
    """Build a ModelSpec from ``{"kind", "units", "params"}`` or ``{"preset"}``.

    Raises ConfigError with a dotted path locating any offending key.
    """
    _expect_object(doc, path)
    if "preset" in doc:
        _check_keys(doc, ("preset",), path)
        name = doc["preset"]
        if not isinstance(name, str):
            raise ConfigError(f"{path}.preset", f"expected a string, got {name!r}")
        try:
            return get_preset(name)
        except ModelDefinitionError as exc:
            raise ConfigError(f"{path}.preset", str(exc)) from None
    _check_keys(doc, ("kind", "units", "params"), path)
    for key in ("kind", "units", "params"):
        if key not in doc:
            raise ConfigError(f"{path}.{key}", "missing required key")
    kind = doc["kind"]
    cls = KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ConfigError(f"{path}.kind", f"unknown kind {kind!r}; expected one of {list(KINDS)}")
    if not isinstance(doc["units"], str):
        raise ConfigError(f"{path}.units", f"expected a unit-system name, got {doc['units']!r}")
    try:
        units = get_unit_system(doc["units"])
    except ModelDefinitionError as exc:
        raise ConfigError(f"{path}.units", str(exc)) from None
    ppath = f"{path}.params"
    values = _read_object(doc["params"], cls.schema, ppath)
    try:
        return ModelSpec(cls(**values), units)
    except ModelDefinitionError as exc:
        raise ConfigError(ppath, str(exc)) from None


def model_from_json(text: str) -> ModelSpec:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("model", f"invalid JSON: {exc}") from None
    return model_from_dict(doc)


PRESETS = {
    "box-natural": lambda: ModelSpec.box(1.0, 1.0, NATURAL_BOX),
    "harmonic-natural": lambda: ModelSpec.harmonic(1.0, 1.0, OSCILLATOR),
    "hydrogen-atomic": lambda: ModelSpec.hydrogenoid(1.0, 1, 1.0, ATOMIC),
    # Standard literature constants for the hydrogen molecule ground state:
    # well depth 4.7446 eV, range 1.9426 1/angstrom, reduced mass 0.50391 amu.
    "morse-h2": lambda: ModelSpec.morse(mass=0.50391, depth=4.7446, alpha=1.9426, units=MOLECULAR),
}


def get_preset(name: str) -> ModelSpec:
    """Instantiate a named model preset."""
    try:
        builder = PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise ModelDefinitionError(f"unknown preset {name!r}; available: {known}") from None
    return builder()


# module-level constructor aliases
box = ModelSpec.box
harmonic = ModelSpec.harmonic
hydrogenoid = ModelSpec.hydrogenoid
morse = ModelSpec.morse
numeric = ModelSpec.numeric
