"""The y(n) = |dE dTau| resolvability criterion.

For adjacent levels n-1, n define

    dE   = (E_n - E_{n-1}) / 2      (max energy spread of a two-level state)
    dTau = (tau_n - tau_{n-1}) / 2  (signed half difference of periods)
    y    = |dE * dTau|

A level pair is classically resolvable when y >= hbar/2: timing the orbital
period then distinguishes the two candidate energies without demanding a
precision the time-energy bound forbids. y < hbar/2 marks the pair as
unresolvable by any classical energy measurement. Equality counts as
resolvable; all reported y values are the dimensionless ratio y/hbar.

The harmonic oscillator is the degenerate case: its period carries no energy
information at all (dTau = 0 identically), so y = 0 is reported together
with an explicit annotation instead of an error.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

from .errors import InvalidArgumentError, OutOfRangeError, ScanLimitExceededError, UnsupportedModelError, _integer
from .models import (
    DEGENERATE_PERIOD_NOTE,
    HYDROGENOID_THRESHOLD_NOTE,
    MORSE_TAIL_NOTE,
    EnergyLevel,
    ModelSpec,
    _closed,
    _first_levels,
    classical_period,
    energy_level,
    level_gap_energy,
    n_min,
    well_profile,
)

__all__ = [
    "DEGENERATE_PERIOD_NOTE",
    "HYDROGENOID_THRESHOLD_NOTE",
    "MORSE_TAIL_NOTE",
    "SuperpositionState",
    "LevelGap",
    "ResolvabilityReport",
    "energy_uncertainty",
    "max_energy_uncertainty",
    "y_function",
    "level_gap",
    "classify",
    "spectrum",
    "threshold",
]


@dataclass(frozen=True)
class SuperpositionState:
    """Two-level state a|n> + b|n-1| over adjacent bound levels."""

    amplitude_a: complex
    amplitude_b: complex
    level_n: EnergyLevel
    level_n_minus_1: EnergyLevel

    def __post_init__(self):
        values = (self.amplitude_a, self.amplitude_b, self.level_n.energy, self.level_n_minus_1.energy)
        if not all(map(cmath.isfinite, values)):  # a NaN norm would pass the check below
            raise InvalidArgumentError(f"amplitudes and level energies must be finite, got {values!r}")
        norm = abs(self.amplitude_a) ** 2 + abs(self.amplitude_b) ** 2
        if abs(norm - 1.0) > 1e-12:
            raise InvalidArgumentError(f"amplitudes must satisfy |a|^2 + |b|^2 = 1, got {norm!r}")
        if self.level_n.n - self.level_n_minus_1.n != 1:
            raise InvalidArgumentError(
                f"levels must be adjacent: got n={self.level_n.n} and n-1={self.level_n_minus_1.n}"
            )


def energy_uncertainty(state: SuperpositionState) -> float:
    """Energy spread |a||b| (E_n - E_{n-1}) of the two-level state."""
    gap = state.level_n.energy - state.level_n_minus_1.energy
    return abs(state.amplitude_a) * abs(state.amplitude_b) * gap


def max_energy_uncertainty(model: ModelSpec, n: int) -> float:
    """Largest possible spread, attained at |a| = |b| = 1/sqrt(2)."""
    return level_gap_energy(model, n)


@dataclass(frozen=True)
class LevelGap:
    n: int
    dE: float
    dTau: float  # signed
    y_over_hbar: float
    resolvable: bool


@dataclass(frozen=True)
class ResolvabilityReport:
    model: ModelSpec
    method: str
    levels: tuple[tuple[int, float, float], ...]  # (n, E_n, tau_n)
    gaps: tuple[LevelGap, ...]
    threshold: int | None
    regime: str  # all-resolvable | all-unresolvable | crossover
    crossings: tuple[int, ...]
    tail_monotone: bool
    ratio_series: tuple[tuple[int, float], ...]  # (n, dE_n / E_n)
    notes: tuple[str, ...]

    def csv_rows(self):
        """Rows of (n, E_n, tau_n, dE, dTau, y_over_hbar, resolvable).

        The levels run in order from the first gap's n - 1, as ``classify``
        builds them, so each gap's upper level is the next one.
        """
        return [(g.n, e, tau, g.dE, g.dTau, g.y_over_hbar, g.resolvable)
                for g, (_, e, tau) in zip(self.gaps, self.levels[1:], strict=True)]

    def to_json_dict(self) -> dict:
        return {
            "method": self.method,
            "hbar": self.model.units.hbar,
            "units": self.model.units.name,
            "gaps": [
                {
                    "n": g.n,
                    "dE": g.dE,
                    "dTau": g.dTau,
                    "y_over_hbar": g.y_over_hbar,
                    "resolvable": g.resolvable,
                }
                for g in self.gaps
            ],
            "threshold": self.threshold,
            "regime": self.regime,
            "crossings": list(self.crossings),
            "tail_monotone": self.tail_monotone,
            "max_y_over_hbar": max((g.y_over_hbar for g in self.gaps), default=0.0),
            "ratio_series": [[n, r] for n, r in self.ratio_series],
            "notes": list(self.notes),
        }


def spectrum(model: ModelSpec, ns, method: str = "auto") -> dict[int, tuple[float, float]]:
    """{n: (E_n, tau_n)} in model units, each level computed once.

    Closed forms where the model has them (``method="auto"``), otherwise
    Bohr-Sommerfeld levels with their quadrature periods. Their searches run
    in lockstep, and each period is read from the pass that placed its level,
    which the well keeps. The first level in ``ns`` that fails raises its error.
    """
    if _resolve_method(model, method) == "closed":
        return {n: (energy_level(model, n).energy, classical_period(model, n).tau) for n in ns}
    from . import semiclassical

    ns = list(ns)
    placed = semiclassical._place(model, ns)
    levels = {}
    for n in ns:
        e = semiclassical._raised(placed[n])
        levels[n] = e, semiclassical._period_of(well_profile(model), e)
    return levels


def _level_gaps(model: ModelSpec, levels, ns, method: str = "auto") -> tuple[LevelGap, ...]:
    """Gaps of the (n-1, n) pairs for n in ``ns``; ``levels`` holds both levels of each pair."""
    if _resolve_method(model, method) == "closed":
        # the closed gap formulas avoid the cancellation of E_n - E_{n-1}
        return tuple(level_gap(model, n, "closed") for n in ns)
    return tuple(_gap_from_levels(model, n, levels) for n in ns)


def _resolve_method(model: ModelSpec, method: str) -> str:
    if method not in ("auto", "closed", "semiclassical"):
        raise InvalidArgumentError(f"method must be auto, closed, or semiclassical, got {method!r}")
    if method == "auto":
        return "closed" if model.params.closed_forms else "semiclassical"
    if method == "closed" and not model.params.closed_forms:
        raise UnsupportedModelError(f"{model.kind} models have no closed forms; use method='semiclassical'")
    return method


def level_gap(model: ModelSpec, n: int, method: str = "auto") -> LevelGap:
    """Criterion record for the (n-1, n) pair; dE and dTau in model units."""
    how = _resolve_method(model, method)
    if how == "closed":
        de, dt = _closed(model, n, ("gap_energy", "gap_period"), "gaps")
        return _gap(model, n, de, dt)
    lo = n_min(model)
    if n <= lo:
        raise OutOfRangeError(f"{model.kind}: gap at n={n} needs level n-1; lowest level is {lo}")
    return _gap_from_levels(model, n, spectrum(model, (n - 1, n), how))


def _gap(model: ModelSpec, n: int, de: float, dt: float) -> LevelGap:
    y = abs(de * dt) / model.units.hbar
    return LevelGap(n=n, dE=de, dTau=dt, y_over_hbar=y, resolvable=y >= 0.5)


def _gap_from_levels(model: ModelSpec, n: int, levels: dict[int, tuple[float, float]]) -> LevelGap:
    """Gap of the (n-1, n) pair from already computed (E, tau) levels."""
    de = (levels[n][0] - levels[n - 1][0]) / 2.0
    dt = (levels[n][1] - levels[n - 1][1]) / 2.0
    return _gap(model, n, de, dt)


def y_function(model: ModelSpec, n: int, method: str = "auto") -> float:
    """Dimensionless y(n)/hbar for the (n-1, n) level pair."""
    return level_gap(model, n, method).y_over_hbar


def _monotone(values) -> bool:
    diffs = [b - a for a, b in zip(values, values[1:])]
    return all(d <= 0 for d in diffs) or all(d >= 0 for d in diffs)


def classify(model: ModelSpec, n_range: tuple[int, int], method: str = "auto") -> ResolvabilityReport:
    """Full criterion report over the pairs (n-1, n), n in [n_range[0], n_range[1]] inclusive.

    A range past the ladder's last level is clipped there, with a note; one
    that starts past it raises OutOfRangeError.
    """
    lo, hi = n_range
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in (lo, hi)):
        raise OutOfRangeError(f"n_range must be a pair of integers, got {n_range!r}")
    first = n_min(model) + 1
    if lo < first:
        raise OutOfRangeError(f"{model.kind}: n_range must start at {first} or above, got {lo}")
    if hi < lo:
        raise OutOfRangeError(f"n_range upper bound {hi} is below lower bound {lo}")
    notes = []
    last = _first_levels(model, hi - first + 2).stop - 1  # levels n_min to hi, or to the ladder's end
    if last < hi:
        notes.append(f"n_range clipped at the model's last bound level n = {last}")
        hi = last
        if lo > hi:
            raise OutOfRangeError(f"{model.kind}: no level pairs at or above n = {lo}")
    how = _resolve_method(model, method)
    levels = spectrum(model, range(lo - 1, hi + 1), how)
    gaps = _level_gaps(model, levels, range(lo, hi + 1), how)

    thr = next((g.n for g in gaps if not g.resolvable), None)
    if all(not g.resolvable for g in gaps):
        regime = "all-unresolvable"
    elif all(g.resolvable for g in gaps):
        regime = "all-resolvable"
    else:
        regime = "crossover"
    crossings = tuple(b.n for a, b in zip(gaps, gaps[1:]) if a.resolvable != b.resolvable)
    ys = [g.y_over_hbar for g in gaps]
    tail = ys[max(len(ys) // 2, len(ys) - 5):]
    tail_monotone = _monotone(tail)

    notes.extend(model.params.notes(regime, ys))
    if not tail_monotone:
        notes.append("y(n) tail is not monotone over the scanned range; threshold is the first crossing only")

    ratio = tuple((g.n, g.dE / levels[g.n][0]) for g in gaps)
    return ResolvabilityReport(
        model=model,
        method=how,
        levels=tuple((n, e, tau) for n, (e, tau) in levels.items()),
        gaps=gaps,
        threshold=thr,
        regime=regime,
        crossings=crossings,
        tail_monotone=tail_monotone,
        ratio_series=ratio,
        notes=tuple(notes),
    )


def threshold(model: ModelSpec, scan_limit: int = 10**6) -> int | None:
    """Smallest n with y(n) < hbar/2 over the ladder's first ``scan_limit`` pairs, from n_min + 1 up.

    Returns None when the ladder ends within the scan with every scanned pair
    resolvable. A ladder that still has a level past the scan, as an unbounded
    one always does, raises ScanLimitExceededError instead of scanning on.
    """
    _integer(scan_limit, "scan_limit", OutOfRangeError, lo=1)
    levels = _first_levels(model, scan_limit + 2)  # the scanned pairs' levels and the one past them
    for n in levels[1:scan_limit + 1]:
        if not level_gap(model, n).resolvable:
            return n
    if len(levels) <= scan_limit + 1:
        return None
    raise ScanLimitExceededError(f"no y(n) < hbar/2 found within {scan_limit} pairs starting at n = {levels[1]}")
