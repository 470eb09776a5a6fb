"""Gaussian measurement noise: ensembles, ensemble-mean state, SQL bookkeeping.

A position (or momentum) measurement of accuracy delta returns
x_i = center + xi_i with xi_i ~ N(0, delta^2). Averaging exp(-i p xi / hbar)
over the ensemble gives the Gaussian characteristic factor
exp(-p^2 delta^2 / (2 hbar^2)), which is the testable content of the
ensemble-mean-state picture. The preparation bound is the standard quantum
limit delta_x * delta_p >= hbar / 2.

Reproducibility contract: ensembles are drawn from the counter-based
Philox(4x64-10) bit generator with the 128-bit key (seed, stream), so a
fixed (seed, stream, count) triple yields the same samples on every platform
and independent streams never overlap.

Statistics contract: per-sample terms are formed elementwise in numpy and
every sum over them is exactly rounded. ``_exact_sum`` splits the values by
error-free extraction (Rump, Ogita & Oishi, SIAM J. Sci. Comput. 31, 2008)
into a vectorized part whose sum is exact and a residual whose plain float sum
is off by at most n^2 2^(e + m - 105) (Higham's bound on a float sum, with
2^e above every value and 2^m above n + 1). Where math.fsum rounds the exact
part plus the residual's sum to the same float at both ends of that bound,
that float is the correctly rounded total, since rounding is monotone: one
pass. Otherwise, as near a midpoint between floats, the residual is split
again until it is all zeros and the exact total of the partial sums is
rounded once with math.fsum. A correctly rounded sum has one value, so every
sum has the bits of math.fsum over the values, Shewchuk's exactly rounded
summation (Discrete Comput. Geom. 18, 1997). A squared
deviation is the correctly rounded product d * d, and a mean that is also
reported is computed once and reused in the variance. A variance sums its
residual-mean term only where that term can change the result (see
``_moments``), so a characteristic_check takes 4 sums, or 6 when the term
can change a variance. A drawn ensemble's cached array is the draw itself.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateEnsembleError,
    FloatRangeError,
    InvalidArgumentError,
    InvalidCountError,
    InvalidSigmaError,
    OutOfRangeError,
    UnsupportedModelError,
    _integer,
    _real,
)
from .models import _NORMAL_MIN, ModelSpec, _scaled

__all__ = [
    "NoiseBudget",
    "MeasurementEnsemble",
    "CharacteristicCheck",
    "GaussianState",
    "sample_ensemble",
    "characteristic_factor",
    "characteristic_check",
    "characteristic_sample_mean",
    "reconstruct_state",
    "noise_widths",
    "harmonic_energy_error",
    "required_noise_product_for_resolution",
    "fmean",
    "fvariance",
]

SQL_SLACK = 1e-12  # widths at hbar/2 - slack still count as preparable
_MAX_COUNT = np.iinfo(np.intp).max // 8  # the most float64 outcomes numpy can size one array for


def _as_array(values, what: str) -> np.ndarray:
    """``values`` as float64, an iterable other than an array, list or tuple through a list.

    What numpy cannot convert, such as a string, None or an int past the
    float range, raises InvalidArgumentError naming ``what``.
    """
    try:
        return np.asarray(values if isinstance(values, (np.ndarray, list, tuple)) else list(values), dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidArgumentError(f"{what}: values must be real numbers ({exc})") from None


def _split(arr: np.ndarray, e: int, m: int) -> tuple[float, np.ndarray]:
    """One splitting pass: the exact sum of the q of ``arr`` and the residual ``arr - q``.

    Each value splits exactly as p = q + p' with q = (sigma + p) - sigma,
    where sigma = 2^(e + m), 2^e > max|p| and 2^m >= len + 2 (Rump, Ogita &
    Oishi, SIAM J. Sci. Comput. 31, 2008). Every q lies on the grid of
    sigma / 2^53 and is at most 2^e in size, so every partial sum of the q is
    exact in any order and ndarray.sum returns the exact sum. Each |p'| is at
    most sigma / 2^53.
    """
    sigma = math.ldexp(1.0, e + m)
    q = (sigma + arr) - sigma
    return float(q.sum()), arr - q


def _exact_sum(arr: np.ndarray) -> float:
    """The correctly rounded sum of ``arr``: the value, and so the bits, of math.fsum.

    One ``_split`` pass gives the exact sum S_q of the q, and a plain
    ndarray.sum of the residual gives S_r. In any order the error of a float
    sum of n values is at most gamma_(n-1) times the sum of their magnitudes
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2002, section
    4.2), and each residual is at most 2^(e + m - 53), so S_r is off by at
    most err = n^2 2^(e + m - 105), a bound with a factor 2 to spare for
    gamma_(n-1)'s denominator. The exact total therefore lies between
    S_q + S_r - err and S_q + S_r + err. Rounding is monotone, so where
    math.fsum rounds both ends to the same float, that float is the correctly
    rounded total and is returned. Otherwise, as on a total at or near a
    midpoint between floats, ``_resum`` splits the residual until it is all
    zeros and rounds the exact total of the partial sums once. Non-finite
    input, and values large enough that sigma could overflow, go to math.fsum
    itself, which keeps its values and exceptions for inf, nan and
    intermediate overflow. The reductions are ndarray methods, which skip the
    dispatch of np.sum and np.max.
    """
    if not arr.size:
        return 0.0
    top = float(np.abs(arr).max())
    if not top:
        return 0.0
    n = arr.size
    m = (n + 1).bit_length()
    e = math.frexp(top)[1]
    if not math.isfinite(top) or e + m + 1 > 1000:
        return math.fsum(arr.tolist())
    head, arr = _split(arr, e, m)
    rest, err = float(arr.sum()), math.ldexp(n * n, e + m - 105)
    total = math.fsum((head, rest, err))
    if total == math.fsum((head, rest, -err)):
        return total
    return _resum(head, arr, m)


def _resum(head: float, arr: np.ndarray, m: int) -> float:
    """The correctly rounded ``head`` plus the sum of ``arr``, by ``_split`` passes until the residual is all zeros."""
    parts = [head]
    while top := float(np.abs(arr).max()):
        part, arr = _split(arr, math.frexp(top)[1], m)
        parts.append(part)
    return math.fsum(parts)


def _moments(values, what: str, ddof: int | None = 1) -> tuple[float, float | None]:
    """Exactly rounded mean of ``values`` and, unless ``ddof`` is None, their sample variance.

    The variance is (S(d d) - S(d)^2 / n) / (n - ddof) with d = x - mean and
    S the exactly rounded sum. The residual-mean term S(d)^2 / n is summed
    only where it can change the result. Plain numpy sums bound |S(d)| by
    B = |sum d| + 2 n 2^-53 sum |d|: in any order the error of a float sum is
    at most gamma_(n-1) sum |d| (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2002, section 4.2), and the factor 2 n covers the rounding of
    sum |d| itself. When c = B^2 / n (1 + 1e-12) is a normal float below
    ulp(ss) / 4, with ss = S(d d), the rounded term r = fl(fl(t^2) / n) of the
    correctly rounded t = S(d) is below c (the 1e-12 covers every rounding on
    the way), so 0 <= r < ulp(ss) / 4. That is less than half the spacing of
    the floats under ss, a power of two included, and rounding is monotone,
    so fl(ss - r) == ss and the variance is ss / (n - ddof) with the same
    bits. Otherwise, a subnormal c, ss == 0, a non-finite B, or data with a
    large offset and a small spread, the term is summed as well. B is
    squared in Python floats, which overflow to inf without raising, and its
    numpy sums cannot overflow: once S(d d) is finite, sum |d| is at most
    sqrt(n S(d d)).

    The one checked path of every statistic here: a sum or a squared deviation
    of finite values that leaves the float range raises FloatRangeError naming
    ``what``, and fsum's refusal of inf + -inf InvalidArgumentError. Values
    holding inf or nan otherwise keep fsum's results.
    """
    arr = _as_array(values, what)
    n = arr.size
    if ddof is not None and n <= ddof:
        raise InvalidArgumentError(f"variance needs more than {ddof} values, got {n}")
    if not n:
        raise InvalidArgumentError("mean of an empty sequence")
    try:
        with np.errstate(over="raise", invalid="ignore"):
            m = _exact_sum(arr) / n
            if ddof is None:
                return m, None
            d = arr - m
            ss = _exact_sum(d * d)
            bound = abs(float(d.sum())) + 2 * n * 2.0**-53 * float(np.abs(d).sum())
            if _NORMAL_MIN <= bound * bound / n * (1.0 + 1e-12) < math.ulp(ss) / 4:
                return m, ss / (n - ddof)
            return m, (ss - _exact_sum(d) ** 2 / n) / (n - ddof)
    except (OverflowError, FloatingPointError):
        raise FloatRangeError(f"{what}: a sum or a square of {n} values leaves the float range") from None
    except ValueError:  # fsum's inf + -inf
        raise InvalidArgumentError(f"{what}: a sum of inf and -inf is undefined") from None


def fmean(values) -> float:
    return _moments(values, "mean", None)[0]


def fvariance(values, ddof: int = 1) -> float:
    return _moments(values, "variance", _integer(ddof, "ddof", InvalidArgumentError, lo=0))[1]


@dataclass(frozen=True)
class NoiseBudget:
    delta_x: float
    delta_p: float
    hbar: float = 1.0

    def __post_init__(self):
        _real(self.delta_x, "delta_x", InvalidSigmaError, lo=0)
        _real(self.delta_p, "delta_p", InvalidSigmaError, lo=0)
        _real(self.hbar, "hbar", InvalidArgumentError, positive=True)

    @property
    def product_over_hbar(self) -> float:
        return self.delta_x * self.delta_p / self.hbar

    @property
    def preparable(self) -> bool:
        return self.product_over_hbar >= 0.5 - SQL_SLACK


@dataclass(frozen=True)
class MeasurementEnsemble:
    samples: tuple[float, ...]
    seed: int
    stream: int
    true_center: float
    sigma: float

    @property
    def count(self) -> int:
        return len(self.samples)

    @functools.cached_property
    def _array(self) -> np.ndarray:
        """The samples as one read-only float64 array, converted on first use."""
        arr = _as_array(self.samples, "ensemble samples")
        arr = arr.copy() if arr is self.samples else arr
        arr.flags.writeable = False
        return arr

    def mean(self) -> float:
        return fmean(self._array)

    def stdev(self) -> float:
        return math.sqrt(fvariance(self._array))

    def csv_text(self) -> str:
        """The ensemble as CSV text: its header, the row of its parameters, then one outcome repr per line."""
        # ints and float reprs never need CSV quoting
        head = ["seed,stream,center,sigma,count",
                f"{self.seed},{self.stream},{self.true_center!r},{self.sigma!r},{self.count}", "outcome"]
        return "\n".join([*head, *map(repr, self.samples), ""])

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            fh.write(self.csv_text())

    @classmethod
    def from_csv(cls, path) -> "MeasurementEnsemble":
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if len(rows) < 3 or rows[0] != ["seed", "stream", "center", "sigma", "count"] or rows[2] != ["outcome"]:
            raise InvalidArgumentError(f"not an ensemble CSV: {path}")
        try:
            seed, stream, center, sigma, count = rows[1]
            seed, stream, count = int(seed), int(stream), int(count)
            center, sigma = float(center), float(sigma)
            samples = tuple(float(r[0]) for r in rows[3:])
        except (ValueError, IndexError) as exc:
            raise InvalidArgumentError(f"malformed ensemble CSV {path}: {exc}") from None
        if len(samples) != count:
            raise InvalidArgumentError(f"ensemble CSV declares {count} outcomes but holds {len(samples)}")
        return cls(samples=samples, seed=seed, stream=stream, true_center=center, sigma=sigma)


def _normals(count: int, seed: int, stream: int) -> np.ndarray:
    """``count`` standard normals from Philox keyed [seed, stream], one generator per stream."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64))).standard_normal(count)


def _draw(center: float, sigma: float, z: np.ndarray, what: str) -> np.ndarray:
    """Outcomes center + sigma z of the standard normals ``z`` from ``_normals``, for ensembles and estimates alike.

    Outcomes past the float range raise FloatRangeError naming ``what``.
    """
    try:
        with np.errstate(over="raise"):
            return center + sigma * z
    except FloatingPointError:
        raise FloatRangeError(f"{what} leave the float range") from None


def sample_ensemble(center: float, sigma: float, count: int, seed: int, stream: int = 0) -> MeasurementEnsemble:
    """Draw count outcomes center + N(0, sigma^2); bit-reproducible per (seed, stream)."""
    _integer(count, "count", InvalidCountError, 2, _MAX_COUNT)
    _real(sigma, "sigma", InvalidSigmaError, lo=0)
    _real(center, "center", InvalidArgumentError)
    for name, v in (("seed", seed), ("stream", stream)):
        _integer(v, name, InvalidArgumentError, 0, 2**64 - 1)
    samples = _draw(float(center), float(sigma), _normals(count, seed, stream),
                    f"outcomes of sigma={sigma!r} about center={center!r}")
    samples.flags.writeable = False
    ens = MeasurementEnsemble(samples=tuple(samples.tolist()), seed=seed, stream=stream,
                              true_center=float(center), sigma=float(sigma))
    ens.__dict__["_array"] = samples  # the draw is the cached array, so the tuple is never converted back
    return ens


def characteristic_factor(delta_x: float, p: float, hbar: float = 1.0) -> float:
    """Ensemble-mean attenuation exp(-p^2 delta_x^2 / (2 hbar^2)), for any finite arguments.

    Where both squares are finite and 2 hbar^2 is a normal float, this is the
    plain expression, with its bits. Elsewhere the exponent is formed by
    ``models._scaled`` from the mantissas and exponents of p, delta_x and
    hbar apart, so neither p delta_x nor a square leaves the float range on
    the way: the factor is 0 where the exponent is past the largest float,
    and 1 where it is below the smallest.
    """
    _real(delta_x, "delta_x", InvalidArgumentError)
    _real(p, "p", InvalidArgumentError)
    _real(hbar, "hbar", InvalidArgumentError, positive=True)
    with contextlib.suppress(OverflowError):  # a square past the largest float
        if (den := 2.0 * hbar**2) >= _NORMAL_MIN:  # a subnormal one has lost digits, and 0 would divide by zero
            return math.exp(-(p * delta_x) ** 2 / den)
    return math.exp(-_scaled((p, delta_x, p, delta_x), (2.0, hbar, hbar)))


@dataclass(frozen=True)
class CharacteristicCheck:
    p: float
    delta_x: float
    mc_real: float
    mc_imag: float
    exact: float
    se_real: float
    se_imag: float

    @property
    def within_3se(self) -> bool:
        re_ok = abs(self.mc_real - self.exact) <= 3.0 * self.se_real
        im_ok = abs(self.mc_imag) <= 3.0 * self.se_imag
        return re_ok and im_ok


def characteristic_check(ensemble: MeasurementEnsemble, p: float, hbar: float = 1.0) -> CharacteristicCheck:
    """Monte Carlo mean of exp(-i p xi / hbar) against the Gaussian factor."""
    exact = characteristic_factor(ensemble.sigma, p, hbar)  # checks p and hbar before the phase is formed
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is caught as an infinite phase
        phase = p * (ensemble._array - ensemble.true_center) / hbar
    if np.isinf(phase).any():
        raise InvalidArgumentError(f"characteristic phase p (x - center) / hbar overflows at p={p!r}")
    mc_real, var_real = _moments(np.cos(phase), "characteristic check")
    mc_imag, var_imag = _moments(-np.sin(phase), "characteristic check")
    return CharacteristicCheck(
        p=p,
        delta_x=ensemble.sigma,
        mc_real=mc_real,
        mc_imag=mc_imag,
        exact=exact,
        se_real=math.sqrt(var_real / phase.size),
        se_imag=math.sqrt(var_imag / phase.size),
    )


def characteristic_sample_mean(ensemble: MeasurementEnsemble, p: float, hbar: float = 1.0) -> complex:
    chk = characteristic_check(ensemble, p, hbar)
    return complex(chk.mc_real, chk.mc_imag)


@dataclass(frozen=True)
class GaussianState:
    """Ensemble-mean Gaussian profile after noisy position/momentum readout."""

    r: float
    d: float
    delta_x: float
    delta_p: float
    hbar: float = 1.0

    @property
    def budget(self) -> NoiseBudget:
        return NoiseBudget(self.delta_x, self.delta_p, self.hbar)

    @property
    def sub_sql(self) -> bool:
        """True when the widths are too sharp to prepare, product < hbar/2."""
        return not self.budget.preparable

    def position_density(self, x):
        return _gaussian_density(x, self.r, self.delta_x, "position")

    def momentum_density(self, p):
        return _gaussian_density(p, self.d, self.delta_p, "momentum")


def _gaussian_density(x, center: float, width: float, label: str):
    if width <= 0.0:
        raise InvalidArgumentError(f"{label} density undefined for a zero width")
    arr = _as_array((x,), f"{label} density")[0]  # x any shape, a scalar too
    norm = 1.0 / (width * math.sqrt(2.0 * math.pi))
    try:
        with np.errstate(over="raise"):
            return norm * np.exp(-((arr - center) ** 2) / (2.0 * width**2))
    except ArithmeticError:  # numpy's FloatingPointError, or OverflowError from width**2
        raise FloatRangeError(f"{label} density: a square leaves the float range") from None


def reconstruct_state(position_ens: MeasurementEnsemble, momentum_ens: MeasurementEnsemble,
                      hbar: float = 1.0) -> GaussianState:
    """Fit the ensemble-mean Gaussian: centers from means, widths from sample sd."""
    _real(hbar, "hbar", InvalidArgumentError, positive=True)

    def fit(ens: MeasurementEnsemble, label: str) -> tuple[float, float]:
        if ens.count < 2:
            raise InvalidCountError(f"{label} ensemble needs at least 2 outcomes")
        center, var = _moments(ens._array, f"{label} ensemble")
        w = math.sqrt(var)
        if w == 0.0 and ens.sigma > 0.0:
            raise DegenerateEnsembleError(
                f"{label} ensemble declares sigma={ens.sigma:.6g} but its sample variance is zero"
            )
        return center, w

    (r, delta_x), (d, delta_p) = fit(position_ens, "position"), fit(momentum_ens, "momentum")
    return GaussianState(r=r, d=d, delta_x=delta_x, delta_p=delta_p, hbar=hbar)


# -- harmonic-oscillator error propagation --------------------------------


def _oscillator_roots(m: float, k: float, a: float, hbar: float) -> tuple[float, float, float]:
    """(a sqrt(hbar / 2), sqrt(m), sqrt(omega)) with omega = sqrt(k / m), once m, k and hbar are checked
    positive and finite and the noise scale a finite and >= 0.

    Each square root is taken on its own, so the widths formed from them
    overflow or underflow only where the widths themselves do. A bad input
    raises InvalidArgumentError, an omega out of the positive finite floats
    FloatRangeError.
    """
    for name, v in (("m", m), ("k", k), ("hbar", hbar)):
        _real(v, name, InvalidArgumentError, positive=True)
    _real(a, "noise scale a", InvalidArgumentError, lo=0)
    omega = math.sqrt(k / m)
    if not 0.0 < omega < math.inf:
        raise FloatRangeError(f"omega = sqrt(k / m) leaves the float range at k={k!r}, m={m!r}")
    return math.sqrt(0.5) * math.sqrt(hbar) * a, math.sqrt(m), math.sqrt(omega)


def _finite(value: float, what: str, a: float | None = None) -> float:
    """``value`` if it is finite and, for a width at noise scale ``a``, a normal float or the 0 of a = 0."""
    if not math.isfinite(value) or (a is not None and value < _NORMAL_MIN and not value == a == 0.0):
        raise FloatRangeError(f"{what} leaves the float range (got {value!r})")
    return value


def noise_widths(m: float, k: float, a: float, hbar: float = 1.0) -> tuple[float, float]:
    """Balanced noise pair (delta_q, delta_p) with product a^2 hbar / 2.

    delta_q = a sqrt(hbar / 2) / sqrt(m omega) and delta_p = a sqrt(hbar / 2) sqrt(m omega). A width that
    is subnormal, or 0 at a > 0, has lost its digits and raises FloatRangeError.
    """
    scale, root_m, root_w = _oscillator_roots(m, k, a, hbar)
    root = root_m * root_w  # sqrt(m omega)
    return _finite(scale / root, "delta_q", a), _finite(scale * root, "delta_p", a)


def harmonic_energy_error(q: float, p: float, m: float, k: float, a: float,
                          hbar: float = 1.0) -> float:
    """First-order energy error |p/m| delta_p + |k q| delta_q at noise scale a.

    Equals [|p| sqrt(hbar w / 2m) + k |q| sqrt(hbar / 2mw)] a, and its square
    is (2/hbar) [same bracket]^2 delta_p delta_q.
    """
    _real(q, "q", InvalidArgumentError)
    _real(p, "p", InvalidArgumentError)
    scale, root_m, root_w = _oscillator_roots(m, k, a, hbar)
    error = abs(p) * (scale * (root_w / root_m)) + abs(q) * (scale * (k / (root_m * root_w)))
    return _finite(error, "harmonic energy error")


def required_noise_product_for_resolution(model: ModelSpec, n: int) -> float:
    """Smallest delta_p delta_q / hbar that lets a classical energy readout
    tell level n from its neighbors: exactly 1 / (16 (n + 1/2)).

    On the classical orbit of E_n, p = sqrt(2 m E_n) cos(phi) and
    q = sqrt(2 E_n / k) sin(phi), so both terms of the harmonic_energy_error
    bracket have amplitude sqrt(hbar w E_n) and the error is
    a sqrt(hbar w E_n) (|cos phi| + |sin phi|). It peaks at phi = pi/4 at
    a sqrt(2 hbar w E_n). Setting that worst case equal to the half spacing
    hbar w / 2 gives a^2 = hbar w / (8 E_n) = 1 / (8 (n + 1/2)), and the
    product a^2 / 2 is returned. It stays below 1/2 for every n.
    """
    # the harmonic oscillator, the one kind whose period carries no level information, is read by energy
    if not model.params.degenerate_period:
        raise UnsupportedModelError(f"noise-product resolution analysis is for harmonic models, not {model.kind!r}")
    _integer(n, "n", OutOfRangeError, 0, 2**53)
    return 1.0 / (16.0 * (n + 0.5))
