"""Exception types shared across the toolkit.

Every error raised by the public API derives from SpeclimitError so callers
can catch one base class. Most types also inherit a matching builtin
(ValueError, RuntimeError) to stay idiomatic.
"""

from __future__ import annotations

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

    ``semiclassical.quantize`` raises it when the action minus its target has
    one sign at both ends of the energy bracket.
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
    """A model's SI parameters, or a closed form at level n, overflowed, divided by zero or left the finite floats."""
