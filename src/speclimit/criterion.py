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

import math
from dataclasses import dataclass

from .errors import InvalidArgumentError, OutOfRangeError, ScanLimitExceededError, UnsupportedModelError
from .models import (
    EnergyLevel,
    ModelSpec,
    classical_period,
    energy_level,
    level_gap_energy,
    level_gap_period,
    n_max,
    n_min,
)

__all__ = [
    "DEGENERATE_PERIOD_NOTE",
    "HYDROGENOID_THRESHOLD_NOTE",
    "SuperpositionState",
    "LevelGap",
    "ResolvabilityReport",
    "energy_uncertainty",
    "max_energy_uncertainty",
    "y_function",
    "level_gap",
    "classify",
    "threshold",
]

DEGENERATE_PERIOD_NOTE = "period-degenerate: criterion inconclusive by period measurement"

# The closed form y(n) = pi*(2n-1)*(3n^2-3n+1) / (4 n^2 (n-1)^2) first drops
# below 1/2 at n = 10 (y(9) ~ 0.5589, y(10) ~ 0.4993), although the threshold
# is often quoted as n >= 9. The formula wins here; both values are reported.
HYDROGENOID_THRESHOLD_NOTE = (
    "hydrogenoid threshold: direct evaluation of the closed form gives the first"
    " unresolvable level at n = 10 (y(9)/hbar = 0.5589 > 1/2, y(10)/hbar = 0.4993 < 1/2);"
    " the often-quoted claim n >= 9 disagrees with the formula at n = 9"
)

MORSE_TAIL_NOTE = (
    "y(n) grows toward dissociation for this well but stays below 1/2 for every"
    " enumerated bound level"
)


@dataclass(frozen=True)
class SuperpositionState:
    """Two-level state a|n> + b|n-1| over adjacent bound levels."""

    amplitude_a: complex
    amplitude_b: complex
    level_n: EnergyLevel
    level_n_minus_1: EnergyLevel

    def __post_init__(self):
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
        """Rows of (n, E_n, tau_n, dE, dTau, y_over_hbar, resolvable)."""
        by_n = {n: (e, tau) for n, e, tau in self.levels}
        rows = []
        for g in self.gaps:
            e, tau = by_n[g.n]
            rows.append((g.n, e, tau, g.dE, g.dTau, g.y_over_hbar, g.resolvable))
        return rows

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


def _levels_closed(model: ModelSpec, ns) -> dict[int, tuple[float, float]]:
    return {n: (energy_level(model, n).energy, classical_period(model, n).tau) for n in ns}


def _levels_semiclassical(model: ModelSpec, ns) -> dict[int, tuple[float, float]]:
    from . import semiclassical

    out = {}
    for n in ns:
        e = semiclassical.quantize(model, n).energy
        out[n] = (e, semiclassical.period_of_energy(model, e, self_check=False))
    return out


def _resolve_method(model: ModelSpec, method: str) -> str:
    if method not in ("auto", "closed", "semiclassical"):
        raise InvalidArgumentError(f"method must be auto, closed, or semiclassical, got {method!r}")
    if method == "auto":
        return "semiclassical" if model.kind == "numeric" else "closed"
    if method == "closed" and model.kind == "numeric":
        raise UnsupportedModelError("numeric models have no closed forms; use method='semiclassical'")
    return method


def level_gap(model: ModelSpec, n: int, method: str = "auto") -> LevelGap:
    """Criterion record for the (n-1, n) pair; dE and dTau in model units."""
    how = _resolve_method(model, method)
    if how == "closed":
        if model.kind == "harmonic":
            # dTau is identically zero, not merely small; bypass the generic product.
            return LevelGap(n=n, dE=level_gap_energy(model, n), dTau=0.0, y_over_hbar=0.0, resolvable=False)
        return _gap(model, n, level_gap_energy(model, n), level_gap_period(model, n))
    lo = n_min(model)
    if n <= lo:
        raise OutOfRangeError(f"{model.kind}: gap at n={n} needs level n-1; lowest level is {lo}")
    return _gap_from_levels(model, n, _levels_semiclassical(model, (n - 1, n)))


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
    """Full criterion report over n in [n_range[0], n_range[1]] inclusive."""
    lo, hi = n_range
    if not (isinstance(lo, int) and isinstance(hi, int)):
        raise OutOfRangeError(f"n_range must be a pair of integers, got {n_range!r}")
    first = n_min(model) + 1
    if lo < first:
        raise OutOfRangeError(f"{model.kind}: n_range must start at {first} or above, got {lo}")
    if hi < lo:
        raise OutOfRangeError(f"n_range upper bound {hi} is below lower bound {lo}")
    notes = []
    cap = n_max(model)
    if cap is not None and hi > cap:
        notes.append(f"n_range clipped at the model's last bound level n = {cap}")
        hi = cap
        if lo > hi:
            raise OutOfRangeError(f"{model.kind}: no level pairs at or above n = {lo}")
    how = _resolve_method(model, method)
    ns = range(lo - 1, hi + 1)
    if how == "closed":
        # the closed gap formulas avoid the cancellation of E_n - E_{n-1}
        levels = _levels_closed(model, ns)
        gaps = tuple(level_gap(model, n, how) for n in range(lo, hi + 1))
    else:
        levels = _levels_semiclassical(model, ns)
        gaps = tuple(_gap_from_levels(model, n, levels) for n in range(lo, hi + 1))

    thr = next((g.n for g in gaps if not g.resolvable), None)
    if all(not g.resolvable for g in gaps):
        regime = "all-unresolvable"
    elif all(g.resolvable for g in gaps):
        regime = "all-resolvable"
    else:
        regime = "crossover"
    crossings = tuple(
        b.n for a, b in zip(gaps, gaps[1:]) if (a.y_over_hbar >= 0.5) != (b.y_over_hbar >= 0.5)
    )
    ys = [g.y_over_hbar for g in gaps]
    tail = ys[max(len(ys) // 2, len(ys) - 5):]
    tail_monotone = _monotone(tail) if len(tail) >= 2 else True

    if model.kind == "harmonic":
        notes.append(DEGENERATE_PERIOD_NOTE)
    if model.kind == "hydrogenoid":
        notes.append(HYDROGENOID_THRESHOLD_NOTE)
    if model.kind == "morse" and regime == "all-unresolvable" and not _monotone_decreasing(ys):
        notes.append(MORSE_TAIL_NOTE)
    if not tail_monotone:
        notes.append("y(n) tail is not monotone over the scanned range; threshold is the first crossing only")

    ratio = tuple((g.n, g.dE / levels[g.n][0]) for g in gaps)
    return ResolvabilityReport(
        model=model,
        method=how,
        levels=tuple((n, levels[n][0], levels[n][1]) for n in ns),
        gaps=gaps,
        threshold=thr,
        regime=regime,
        crossings=crossings,
        tail_monotone=tail_monotone,
        ratio_series=ratio,
        notes=tuple(notes),
    )


def _monotone_decreasing(values) -> bool:
    return all(b <= a for a, b in zip(values, values[1:]))


def threshold(model: ModelSpec, scan_limit: int = 10**6) -> int | None:
    """Smallest n with y(n) < hbar/2, scanning upward from n_min + 1.

    Returns None when a finite model runs out of levels with every scanned
    pair resolvable. An unbounded ladder that never drops below hbar/2 within
    ``scan_limit`` pairs raises ScanLimitExceededError instead of looping on.
    """
    if not (isinstance(scan_limit, int) and scan_limit >= 1):
        raise OutOfRangeError(f"scan_limit must be a positive integer, got {scan_limit!r}")
    start = n_min(model) + 1
    cap = n_max(model)
    n = start
    while True:
        if cap is not None and n > cap:
            return None
        if n - start >= scan_limit:
            raise ScanLimitExceededError(
                f"no y(n) < hbar/2 found within {scan_limit} pairs starting at n = {start}"
            )
        if y_function(model, n) < 0.5:
            return n
        n += 1
