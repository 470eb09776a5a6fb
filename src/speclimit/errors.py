"""Exception types shared across the toolkit.

Every error raised by the public API derives from SpeclimitError so callers
can catch one base class. Most types also inherit a matching builtin
(ValueError, RuntimeError) to stay idiomatic.

Two rules check the numeric arguments of the public functions and
dataclasses, and each caller names the SpeclimitError subclass to raise
(the config reader and ``classify``'s level range keep checks of their
own):

* ``_integer``: an int that is not a bool, optionally within [lo, hi]. It
  refuses with ``<what> must be an integer, got 2.5``,
  ``<what> must be an integer >= 1, got 0`` or
  ``<what> must be an integer in [0, 4], got 7``.
* ``_real``: a finite ``numbers.Real`` that is not a bool, so numpy scalars
  pass and an int too large for a float does not, optionally ``>= lo`` or
  ``> 0``. It refuses with ``<what> must be a finite number, got nan``,
  ``<what> must be a finite number >= 0, got 'a'`` or
  ``<what> must be a positive finite number, got True``.
"""

from __future__ import annotations

import math
import numbers

__all__ = [
    "SpeclimitError",
    "ModelDefinitionError",
    "OutOfRangeError",
    "UnsupportedModelError",
    "NoBoundMotionError",
    "PotentialDomainError",
    "RootNotBracketedError",
    "QuadratureFailureError",
    "QuadratureFloorWarning",
    "ActionOutOfRangeError",
    "ScanLimitExceededError",
    "SelfCheckError",
    "DegeneratePeriodError",
    "DegenerateEnsembleError",
    "InvalidCountError",
    "InvalidSigmaError",
    "ConfigError",
    "InvalidArgumentError",
    "FloatRangeError",
]


class SpeclimitError(Exception):
    """Base class for all toolkit errors."""


class ModelDefinitionError(SpeclimitError, ValueError):
    """Model parameters violate a construction invariant."""


class OutOfRangeError(SpeclimitError, ValueError):
    """Quantum number outside the model's declared level range."""


class UnsupportedModelError(SpeclimitError, TypeError):
    """Operation undefined for this model kind (e.g. closed forms for a sampled potential)."""


class NoBoundMotionError(SpeclimitError, ValueError):
    """Energy does not correspond to confined classical motion."""


class PotentialDomainError(SpeclimitError, ValueError):
    """Sampled potential queried outside its tabulated range."""


class RootNotBracketedError(SpeclimitError, RuntimeError):
    """A root search found no sign change.

    No level search raises it: ``semiclassical.quantize`` brackets each
    level between ends whose actions lie on either side of its target by
    construction. It stays importable for callers that catch it.
    """


class QuadratureFailureError(SpeclimitError, RuntimeError):
    """Adaptive quadrature refinement failed to reach the requested agreement."""


class QuadratureFloorWarning(RuntimeWarning):
    """Adaptive quadrature accepted a value between its target and its floor.

    The message names the accepted relative change between the last two
    Gauss-Legendre orders, so the result is good to about that, not to the
    target.
    """


class ActionOutOfRangeError(SpeclimitError, ValueError):
    """Requested action target lies outside the well's bound-motion action range."""


class ScanLimitExceededError(SpeclimitError, RuntimeError):
    """A threshold scan or a root search hit its iteration cap before it converged."""


class SelfCheckError(SpeclimitError, RuntimeError):
    """Internal consistency check (period vs action derivative) failed."""


class DegeneratePeriodError(SpeclimitError, ValueError):
    """Adjacent levels share one classical period, so timing cannot separate them."""


class DegenerateEnsembleError(SpeclimitError, ValueError):
    """Sample ensemble has zero spread where a finite width was declared."""


class InvalidCountError(SpeclimitError, ValueError):
    """Ensemble size is not a usable integer."""


class InvalidSigmaError(SpeclimitError, ValueError):
    """Noise width is negative or not finite."""


class InvalidArgumentError(SpeclimitError, ValueError):
    """Argument outside the values a function accepts (unknown method, malformed state)."""


class ConfigError(SpeclimitError, ValueError):
    """Configuration document rejected; ``path`` locates the offending key."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


class FloatRangeError(SpeclimitError, ArithmeticError):
    """A model's well, a closed form or an engine level overflowed, divided by zero or left the finite floats."""


def _finite_real(value) -> bool:
    """Whether ``value`` is a real number, not a bool, that is a finite float; an int too large for a float is not."""
    try:
        # float comes first: it is the common case, and numbers.Real takes 20 times as long to test
        return not isinstance(value, bool) and isinstance(value, (float, numbers.Real)) and math.isfinite(value)
    except OverflowError:
        return False


def _integer(value, what: str, error: type[SpeclimitError], lo: int | None = None, hi: int | None = None) -> int:
    """``value`` if it is an int, not a bool, within [``lo``, ``hi``]; otherwise ``error`` naming ``what``."""
    is_int = isinstance(value, int) and not isinstance(value, bool)
    if is_int and (lo is None or value >= lo) and (hi is None or value <= hi):
        return value
    bound = "" if lo is None else f" >= {lo}" if hi is None else f" in [{lo}, {hi}]"
    raise error(f"{what} must be an integer{bound}, got {value!r}")


def _real(value, what: str, error: type[SpeclimitError], lo: float | None = None, positive: bool = False):
    """``value`` if it is a finite real number, not a bool, that is ``>= lo``, or ``> 0`` when ``positive``.

    Otherwise ``error`` naming ``what``.
    """
    if _finite_real(value) and (lo is None or value >= lo) and (not positive or value > 0):
        return value
    bound = "a positive finite number" if positive else "a finite number" if lo is None else f"a finite number >= {lo}"
    raise error(f"{what} must be {bound}, got {value!r}")
