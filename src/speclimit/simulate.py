"""Monte Carlo period-timing protocol and level discrimination.

One trial times 2s momentum inversions of the orbit (s full periods) with a
single clock of accuracy delta_t, so the period estimate is

    tau_hat = (s tau_n + eps) / s,   eps ~ N(0, delta_t^2),

with standard deviation delta_t / s. The alternative reading of the accuracy
(one error per inversion) is available behind ``per_inversion`` and yields
delta_t sqrt(2s) / (2s); the default stays with the single-clock model.

Adjacent levels are then compared by the d' statistic of their estimate
clouds. d' >= 2 (clouds separated by about their width) is the operational
definition of "distinguishable"; the sweep reports how the crossover level
moves under stricter and looser cuts. With the saturating accuracy
delta_t = hbar / (2 dE_n) the population d' equals 4 y(n) / hbar, which is
what ties the simulation back to the y criterion it validates.

Level n's trials are the standard normals z of Philox keyed [seed, n], so a
level's estimates tau_n + sd z do not depend on the pair or sweep they are
drawn for. A sweep draws each level's normals once and scales them per pair:
level n serves as the upper level of pair n and the lower level of pair
n + 1, each with that pair's estimator sd.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .criterion import DEGENERATE_PERIOD_NOTE, LevelGap, ResolvabilityReport, _level_gaps, classify, spectrum
from .errors import DegeneratePeriodError, InvalidArgumentError, OutOfRangeError, _integer, _real
from .models import ModelSpec, n_min
from .noise import _MAX_COUNT, _draw, _moments, _normals, fmean, fvariance

__all__ = [
    "PeriodProtocol",
    "PeriodSampleSet",
    "DiscriminationResult",
    "SweepSummary",
    "simulate_period_measurement",
    "discriminate",
    "consistency_sweep",
    "D_PRIME_CUT",
    "D_PRIME_CAP",
]

D_PRIME_CUT = 2.0
D_PRIME_CAP = 1e9  # stands in for an infinite separation when delta_t = 0
_SENSITIVITY_CUTS = (1.5, 2.0, 3.0)


@dataclass(frozen=True)
class PeriodProtocol:
    """Timing protocol: s inversion pairs per trial, clock accuracy delta_t."""

    s: int = 1
    delta_t: float | None = None  # None: saturate per level at hbar / (2 dE_n)
    trials: int = 10000
    seed: int = 0
    per_inversion: bool = False

    def __post_init__(self):
        _integer(self.s, "s", InvalidArgumentError, 1, 2**53)
        _integer(self.trials, "trials", InvalidArgumentError, 10, _MAX_COUNT)
        if self.delta_t is not None:
            _real(self.delta_t, "delta_t", InvalidArgumentError, lo=0)
        _integer(self.seed, "seed", InvalidArgumentError, 0, 2**64 - 1)

    def estimator_sd(self, delta_t: float) -> float:
        if self.per_inversion:
            return delta_t * math.sqrt(2.0 * self.s) / (2.0 * self.s)
        return delta_t / self.s


@dataclass(frozen=True)
class PeriodSampleSet:
    n: int
    estimates: tuple[float, ...]
    protocol: PeriodProtocol
    tau_true: float
    delta_t: float  # the accuracy actually used (protocol value or saturating default)

    def mean(self) -> float:
        return fmean(self.estimates)

    def stdev(self) -> float:
        return math.sqrt(fvariance(self.estimates))


def _require_period_spread(model: ModelSpec):
    if model.params.degenerate_period:
        raise DegeneratePeriodError(DEGENERATE_PERIOD_NOTE)


def _delta_t(model: ModelSpec, protocol: PeriodProtocol, gap: LevelGap | None) -> float:
    """The protocol's delta_t, else the saturating accuracy hbar / (2 dE) of ``gap``."""
    return protocol.delta_t if protocol.delta_t is not None else model.units.hbar / (2.0 * gap.dE)


def _estimates(n: int, protocol: PeriodProtocol, tau: float, delta_t: float, z):
    return _draw(tau, protocol.estimator_sd(delta_t), z, f"level {n}: period estimates at delta_t={delta_t!r}")


def _samples(n: int, protocol: PeriodProtocol, tau: float, delta_t: float) -> PeriodSampleSet:
    estimates = tuple(_estimates(n, protocol, tau, delta_t, _normals(protocol.trials, protocol.seed, n)).tolist())
    return PeriodSampleSet(n=n, estimates=estimates, protocol=protocol, tau_true=tau, delta_t=delta_t)


def simulate_period_measurement(model: ModelSpec, n: int, protocol: PeriodProtocol) -> PeriodSampleSet:
    """Monte Carlo period estimates for level n; trial i occupies RNG slot i."""
    _require_period_spread(model)
    if protocol.delta_t is not None:
        levels, gap = spectrum(model, (n,)), None
    else:
        # saturating accuracy at this level's gap (the gap above, for the
        # bottom level, which has no lower neighbor)
        gap_at = max(_integer(n, "quantum number", OutOfRangeError), n_min(model) + 1)
        levels = spectrum(model, dict.fromkeys((n, gap_at - 1, gap_at)))  # each level once, n first
        (gap,) = _level_gaps(model, levels, (gap_at,))
    return _samples(n, protocol, levels[n][1], _delta_t(model, protocol, gap))


@dataclass(frozen=True)
class DiscriminationResult:
    n_low: int
    n_high: int
    tau_low: float
    tau_high: float
    mean_low: float
    mean_high: float
    sd_low: float
    sd_high: float
    delta_t: float
    d_prime: float
    bayes_error: float
    noise_free: bool
    mc_resolvable: bool
    criterion_resolvable: bool


def _bayes_overlap(m1: float, s1: float, m2: float, s2: float) -> float:
    """Equal-prior error rate of the two fitted Gaussians, 0.5 * integral of min(f1, f2), in closed form.

    In units of the narrower width s, centred on its mean, the wider cloud
    sits at d = |m2 - m1| / s with width k s, k >= 1. The densities cross
    where (k^2 - 1) z^2 + 2 d z - d^2 - 2 k^2 ln k = 0. Divided through by
    k^2, so that no term overflows however far apart the widths are, the
    crossings are

        z- = -(d / k^2 + rho) / q,  z+ = ((d / k)^2 + 2 ln k) / (rho + d / k^2),
        q = 1 - 1 / k^2,  rho = sqrt((d / k)^2 + 2 q ln k),

    z+ written without the cancellation of (rho - d / k^2) / q as k -> 1.
    The narrower density is the smaller one outside [z-, z+] and the wider
    one between, so the integral is a sum of normal tail masses. Equal widths
    leave the one crossing z+ = d / 2 and 0.5 erfc(d / (2 sqrt 2)). A zero
    width shares no mass with a positive one, and two zero widths share all
    of it at one mean.
    """
    if s1 <= 0.0 or s2 <= 0.0:
        return 0.5 if m1 == m2 and s1 == s2 else 0.0
    if s2 < s1:
        m1, s1, m2, s2 = m2, s2, m1, s1
    d = abs(m2 - m1) / s1
    km1 = (s2 - s1) / s1  # k - 1
    if d == 0.0 and km1 == 0.0:
        return 0.5
    k, ln_k = 1.0 + km1, math.log1p(km1)
    q = km1 / k * (1.0 + 1.0 / k)  # (k^2 - 1) / k^2
    dk, dk2 = d / k, d / k / k
    rho = math.sqrt(dk * dk + 2.0 * q * ln_k)
    hi = (dk * dk + 2.0 * ln_k) / (rho + dk2)
    lo = -(dk2 + rho) / q if q > 0.0 else -math.inf
    # the wider cloud's mass between the crossings, from its mirrored tails: neither term rounds to 1 when both
    # crossings lie far on one side of its mean
    wide = _tail((d - hi) / k) - _tail((d - lo) / k)
    return min(max(0.5 * (_tail(-lo) + _tail(hi) + wide), 0.0), 0.5)


def _tail(z: float) -> float:
    """Standard normal mass above z."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def _compare(model: ModelSpec, protocol: PeriodProtocol, rep: ResolvabilityReport) -> list[DiscriminationResult]:
    """Simulate the report's levels from their computed periods and compare the clouds of each gap's pair.

    Each level's standard normals are drawn once: a level's normals serve as
    the upper level of its own gap's pair and the lower level of the next,
    each pair scaling them by its own delta_t.
    """
    _require_period_spread(model)
    # the levels start at the first gap's n - 1
    results, z_high = [], _normals(protocol.trials, protocol.seed, rep.levels[0][0])
    for i, gap in enumerate(rep.gaps):
        z_low, z_high = z_high, _normals(protocol.trials, protocol.seed, gap.n)
        results.append(_pair(model, protocol, gap, rep.levels[i][2], rep.levels[i + 1][2], z_low, z_high))
    return results


def _pair(model: ModelSpec, protocol: PeriodProtocol, gap: LevelGap, tau_low: float, tau_high: float,
          z_low, z_high) -> DiscriminationResult:
    """Estimates of levels n - 1 and n of ``gap`` from their normals, and the comparison of the two clouds."""
    n = gap.n
    delta_t = _delta_t(model, protocol, gap)
    low, high = _estimates(n - 1, protocol, tau_low, delta_t, z_low), _estimates(n, protocol, tau_high, delta_t, z_high)
    (mean_low, var_low), (mean_high, var_high) = _moments(low, f"level {n - 1}"), _moments(high, f"level {n}")
    sd_low, sd_high = math.sqrt(var_low), math.sqrt(var_high)
    pooled = math.sqrt((var_low + var_high) / 2.0)
    noise_free = pooled == 0.0
    if noise_free:
        d_prime = 0.0 if mean_low == mean_high else D_PRIME_CAP
    else:
        d_prime = min(abs(mean_high - mean_low) / pooled, D_PRIME_CAP)
    return DiscriminationResult(
        n_low=n - 1,
        n_high=n,
        tau_low=tau_low,
        tau_high=tau_high,
        mean_low=mean_low,
        mean_high=mean_high,
        sd_low=sd_low,
        sd_high=sd_high,
        delta_t=delta_t,
        d_prime=d_prime,
        bayes_error=_bayes_overlap(mean_low, sd_low, mean_high, sd_high),
        noise_free=noise_free,
        mc_resolvable=d_prime >= D_PRIME_CUT,
        criterion_resolvable=gap.resolvable,
    )


def discriminate(model: ModelSpec, n: int, protocol: PeriodProtocol) -> DiscriminationResult:
    """Simulate levels n-1 and n under one protocol and compare the clouds.

    The pair is ``classify``'s over (n, n), with its range errors.
    """
    return _compare(model, protocol, classify(model, (n, n)))[0]


@dataclass(frozen=True)
class SweepSummary:
    results: tuple[DiscriminationResult, ...]
    y_values: tuple[tuple[int, float], ...]
    mc_crossover: int | None
    criterion_threshold: int | None
    agreement_by_n: tuple[tuple[int, bool], ...]
    agreements: int
    disagreements: int
    sensitivity: tuple[tuple[float, int | None], ...]  # (d' cut, crossover under that cut)
    seed: int
    delta_t_mode: str  # "auto-saturating" or "fixed"

    @property
    def crossover_within_one(self) -> bool:
        if self.mc_crossover is None or self.criterion_threshold is None:
            return self.mc_crossover == self.criterion_threshold
        return abs(self.mc_crossover - self.criterion_threshold) <= 1


def consistency_sweep(model: ModelSpec, n_range: tuple[int, int], protocol: PeriodProtocol) -> SweepSummary:
    """Run discriminate over the range and compare MC and criterion verdicts.

    With delta_t = None each pair is timed at its own saturating accuracy
    hbar / (2 dE_n), which is the regime where the MC crossover and the
    y-threshold are expected to land within one level of each other. The
    range check, the clipping at the ladder's last level, the levels, the
    gaps and the threshold are ``classify``'s.
    """
    rep = classify(model, n_range)
    results = _compare(model, protocol, rep)

    def crossover(cut: float):
        return next((r.n_high for r in results if r.d_prime < cut), None)

    agree = tuple((r.n_high, r.mc_resolvable == r.criterion_resolvable) for r in results)
    n_agree = sum(1 for _, ok in agree if ok)
    return SweepSummary(
        results=tuple(results),
        y_values=tuple((g.n, g.y_over_hbar) for g in rep.gaps),
        mc_crossover=crossover(D_PRIME_CUT),
        criterion_threshold=rep.threshold,
        agreement_by_n=agree,
        agreements=n_agree,
        disagreements=len(agree) - n_agree,
        sensitivity=tuple((cut, crossover(cut)) for cut in _SENSITIVITY_CUTS),
        seed=protocol.seed,
        delta_t_mode="fixed" if protocol.delta_t is not None else "auto-saturating",
    )
