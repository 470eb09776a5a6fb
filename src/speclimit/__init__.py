"""speclimit: resolvability of discrete bound spectra by classical measurements.

The package asks one question about a bound quantum system: can adjacent
energy levels be told apart by measuring classical quantities (energies and
orbital periods) to the precision quantum mechanics itself allows? The
figure of merit is

    y(n) = |dE_n * dtau_n|,

half the level spacing times half the period spacing. Levels with
y(n) >= hbar/2 are resolvable; once y drops below hbar/2 the discrete
spectrum can no longer be read off from classical data.

Modules:

- models: bound-system definitions (box, harmonic, hydrogenoid, Morse,
  tabulated numeric wells), spectra, and classical periods.
- semiclassical: action integrals, quantization, and periods for wells
  without closed forms.
- criterion: the y(n) diagnostic, thresholds, and regime classification.
- noise: Gaussian measurement noise, ensembles, the standard quantum
  limit, and state reconstruction.
- simulate: Monte Carlo period-timing experiments checking the criterion
  against direct discrimination.
- units: unit systems with hbar expressed consistently in each.
- profiles: the array side of the well profiles (potentials, a table's
  PCHIP pieces), loaded when the semiclassical engine builds a profile.
- cli: the speclimit command line.

noise, semiclassical and simulate, the modules that need numpy, load on
first use of one of their names here, so a closed-form analysis never
imports numpy.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

from .criterion import (DEGENERATE_PERIOD_NOTE, LevelGap, ResolvabilityReport, SuperpositionState, classify,
                        energy_uncertainty, level_gap, max_energy_uncertainty, threshold, y_function)
from .errors import (ConfigError, DegenerateEnsembleError, DegeneratePeriodError, FloatRangeError,
                     ModelDefinitionError, NoBoundMotionError, OutOfRangeError, ScanLimitExceededError,
                     SpeclimitError, UnsupportedModelError)
from .models import (EnergyLevel, ModelSpec, PeriodPoint, bound_levels, box, classical_period, energy_level,
                     get_preset, harmonic, hydrogenoid, level_gap_energy, level_gap_period, model_from_dict,
                     model_from_json, morse, n_max, n_min, numeric)
from .units import ATOMIC, MOLECULAR, NATURAL_BOX, OSCILLATOR, SI, UnitSystem, get_unit_system

# names of the modules that import numpy, each loaded on first use of one of its names
_LAZY = {
    "noise": ("GaussianState", "MeasurementEnsemble", "NoiseBudget", "characteristic_check",
              "characteristic_factor", "characteristic_sample_mean", "harmonic_energy_error", "noise_widths",
              "reconstruct_state", "required_noise_product_for_resolution", "sample_ensemble"),
    "semiclassical": ("ActionCurve", "TurningPoints", "action", "action_curve", "period_check", "period_of_energy",
                      "quantize", "turning_points"),
    "simulate": ("DiscriminationResult", "PeriodProtocol", "PeriodSampleSet", "SweepSummary", "consistency_sweep",
                 "discriminate", "simulate_period_measurement"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


__all__ = [
    "__version__", "ATOMIC", "ActionCurve", "ConfigError", "DEGENERATE_PERIOD_NOTE", "DegenerateEnsembleError",
    "DegeneratePeriodError", "DiscriminationResult", "EnergyLevel", "FloatRangeError", "GaussianState", "LevelGap",
    "MOLECULAR", "MeasurementEnsemble", "ModelDefinitionError", "ModelSpec", "NATURAL_BOX", "NoBoundMotionError",
    "NoiseBudget", "OSCILLATOR", "OutOfRangeError", "PeriodPoint", "PeriodProtocol", "PeriodSampleSet",
    "ResolvabilityReport", "SI", "ScanLimitExceededError", "SpeclimitError", "SuperpositionState", "SweepSummary",
    "TurningPoints", "UnitSystem", "UnsupportedModelError", "action", "action_curve", "bound_levels", "box",
    "characteristic_check", "characteristic_factor", "characteristic_sample_mean", "classical_period", "classify",
    "consistency_sweep", "discriminate", "energy_level", "energy_uncertainty", "get_preset", "get_unit_system",
    "harmonic", "harmonic_energy_error", "hydrogenoid", "level_gap", "level_gap_energy", "level_gap_period",
    "max_energy_uncertainty", "model_from_dict", "model_from_json", "morse", "n_max", "n_min", "noise_widths",
    "numeric", "period_check", "period_of_energy", "quantize", "reconstruct_state",
    "required_noise_product_for_resolution", "sample_ensemble", "simulate_period_measurement", "threshold",
    "turning_points", "y_function",
]
