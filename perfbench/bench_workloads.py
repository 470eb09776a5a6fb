"""Workload definitions for the speclimit benchmark: op lists, execution, checks.

Three workloads, each a closed loop with one client in one process:

* ``closed-form``: in-process ``speclimit.cli.main`` runs of ``criterion`` and
  ``report`` on seeded box, harmonic, hydrogenoid and Morse configs.
* ``numeric-table``: library ``classify(table, (n, n + 2))`` on a freshly
  built tabulated well per op (harmonic, quartic-anharmonic and Morse shapes).
* ``monte-carlo``: in-process ``cli.main`` runs of ``simulate`` and ``noise``.

Every op is generated from the seed outside the timed calls and described by
a plain JSON-ready dict, so the op list has a digest. No op is run twice: a
loop that outruns the prebuilt list draws fresh ops from the same stream. Every result is checked against
references computed here, independently of the package: a wrong result fails
the run, an engine error (``SpeclimitError``, CLI exit 3) is only counted.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import random
import shutil
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("closed-form", "numeric-table", "monte-carlo")

# Constants for independent references (exact SI values and CODATA 2018).
HBAR_SI = 6.62607015e-34 / (2.0 * math.pi)
_ELECTRON_KG, _BOHR_M = 9.1093837015e-31, 5.29177210903e-11
# SI size of each unit system's (mass, energy, length) unit.
UNIT_SCALES = {
    "natural-box": (1.0, HBAR_SI**2, 1.0),
    "oscillator": (1.0, HBAR_SI, math.sqrt(HBAR_SI)),
    "atomic": (_ELECTRON_KG, HBAR_SI**2 / (_ELECTRON_KG * _BOHR_M**2), _BOHR_M),
    "molecular": (1.66053906660e-27, 1.602176634e-19, 1e-10),
    "si": (1.0, 1.0, 1.0),
}
UNIT_NAMES = tuple(UNIT_SCALES)

DEGENERATE_NOTE = "period-degenerate"
CLI_FILES = {
    "criterion": {"criterion.csv", "y_curve.csv", "criterion_summary.json"},
    "report": {"spectrum.csv", "criterion.csv", "y_curve.csv", "criterion_summary.json", "report.json"},
    "simulate": {"sweep.csv", "simulate_summary.json"},
    "noise": {"position_ensemble.csv", "momentum_ensemble.csv", "characteristic_check.csv",
              "noise_summary.json"},
}


class WrongResult(Exception):
    """An op returned a result that disagrees with its reference."""


# -- references ------------------------------------------------------------


def y_box(n: int) -> float:
    return math.pi * (2 * n - 1) / (4.0 * n * (n - 1))


def y_hydrogenoid(n: int) -> float:
    return math.pi * (2 * n - 1) * (3 * n * n - 3 * n + 1) / (4.0 * n * n * (n - 1) ** 2)


def morse_zeta(params: dict, units: str) -> float:
    """2 D / (hbar omega) with omega = range sqrt(2 D / m), evaluated in SI."""
    mass, energy, length = UNIT_SCALES[units]
    return math.sqrt(2.0 * params["mass"] * mass * params["depth"] * energy) * length / (params["range"] * HBAR_SI)


def y_morse(n: int, zeta: float) -> float:
    lo, hi = 1.0 - (n - 0.5) / zeta, 1.0 - (n + 0.5) / zeta
    return (math.pi / (2.0 * zeta)) * (1.0 - n / zeta) / (lo * hi)


def reference_y(model: dict, n: int) -> float:
    kind = model["kind"]
    if kind == "box":
        return y_box(n)
    if kind == "hydrogenoid":
        return y_hydrogenoid(n)
    if kind == "morse":
        return y_morse(n, morse_zeta(model["params"], model["units"]))
    return 0.0  # harmonic: the period does not depend on the level


def digits_match(printed: float, ref: float) -> bool:
    """True when ``printed`` is ``ref`` rounded to the CLI's 12 significant digits.

    The allowance is half a unit in the 12th digit plus a few ulps for the
    engine evaluating the same closed form in another order, so a change of
    one in any printed digit is rejected.
    """
    if ref == 0.0:
        return printed == 0.0
    unit = 10.0 ** (math.floor(math.log10(abs(ref))) - 11)
    return abs(printed - ref) <= 0.5 * unit * (1.0 + 1e-6) + 1e-15 * abs(ref)


def quartic_potential(x, k: float, lam: float):
    return 0.5 * k * x * x + lam * x**4


_GL_X, _GL_W = np.polynomial.legendre.leggauss(64)
_THETA = 0.25 * math.pi * (_GL_X + 1.0)  # nodes on [0, pi/2]
_THETA_W = 0.25 * math.pi * _GL_W


def _quartic_action(e: float, mass: float, k: float, lam: float) -> float:
    a = _quartic_amplitude(e, k, lam)  # x = a sin(theta)
    x = a * np.sin(_THETA)
    v = np.maximum(e - quartic_potential(x, k, lam), 0.0)
    return 4.0 * a * float(np.dot(_THETA_W, np.sqrt(2.0 * mass * v) * np.cos(_THETA)))


def quartic_level(n: int, mass: float, k: float, lam: float) -> float:
    """Bohr-Sommerfeld level I(E) = 2 pi (n + 1/2) of U = k x^2/2 + lam x^4 (hbar = 1)."""
    target = 2.0 * math.pi * (n + 0.5)
    lo, hi = 0.0, math.sqrt(k / mass) * (n + 0.5)  # the quartic term only raises the levels
    while _quartic_action(hi, mass, k, lam) < target:
        hi *= 2.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _quartic_action(mid, mass, k, lam) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def table_level(op: dict, n: int) -> float:
    """Bohr-Sommerfeld level n of the smooth well a table was sampled from."""
    p, mass = op["params"], op["mass"]
    if op["shape"] == "harmonic":
        return math.sqrt(p["k"] / mass) * (n + 0.5)
    if op["shape"] == "quartic":
        return quartic_level(n, mass, p["k"], p["lam"])
    zeta = math.sqrt(2.0 * mass * p["depth"]) / p["range"]
    return -p["depth"] * (1.0 - (n + 0.5) / zeta) ** 2


def table_tolerance(op: dict) -> float:
    """Allowed |E_table - E_well|: a share of the level spacing set by knot spacing.

    PCHIP follows a smooth well to O(h^2) in the knot spacing h, so the
    allowance is TABLE_TOL_FACTOR (h / table width)^2 level spacings: about
    5% of a spacing at 13 knots and 1.4% at 25, while a level off by one is
    off by a whole spacing.
    """
    xs = op["x"]
    h = (xs[-1] - xs[0]) / (len(xs) - 1)
    spacing = abs(table_level(op, op["n"] + 1) - table_level(op, op["n"]))
    return TABLE_TOL_FACTOR * (h / (xs[-1] - xs[0])) ** 2 * spacing


TABLE_TOL_FACTOR = 8.0


def _quartic_amplitude(e: float, k: float, lam: float) -> float:
    """Outer turning point a of U = k x^2/2 + lam x^4 at energy e."""
    return math.sqrt((-0.5 * k + math.sqrt(0.25 * k * k + 4.0 * lam * e)) / (2.0 * lam))


def table_orbit(op: dict, e: float) -> tuple[float, float]:
    """(classical period, distance between the turning points) at energy e in the smooth source well."""
    p, mass = op["params"], op["mass"]
    if op["shape"] == "harmonic":
        return 2.0 * math.pi * math.sqrt(mass / p["k"]), 2.0 * math.sqrt(2.0 * e / p["k"])
    if op["shape"] == "morse":
        # omega(E) = range sqrt(2 |E| / m) for a Morse well
        period = 2.0 * math.pi / (p["range"] * math.sqrt(2.0 * abs(e) / mass))
        width = _morse_x(p["depth"], p["range"], e, +1) - _morse_x(p["depth"], p["range"], e, -1)
        return period, width
    # T = 4 int_0^a m dx / p; with x = a sin(theta), E - U = cos^2(theta) (k a^2/2 + lam a^4 (1 + sin^2 theta))
    k, lam = p["k"], p["lam"]
    a = _quartic_amplitude(e, k, lam)
    inner = 0.5 * k * a * a + lam * a**4 * (1.0 + np.sin(_THETA) ** 2)
    return 4.0 * mass * a * float(np.dot(_THETA_W, 1.0 / np.sqrt(2.0 * mass * inner))), 2.0 * a


def period_tolerance(op: dict, e: float) -> float:
    """Allowed |tau_table - T_well| at energy e: a share of the period set by knot spacing.

    The orbit at e spans width / h knot intervals, and the period of a PCHIP
    well follows the smooth well's to O((h / width)^2), so the allowance is
    PERIOD_TOL_FACTOR (h / width)^2 periods. Over 643 seeded tables the
    largest error seen was 0.35 (h / width)^2 periods.
    """
    xs = op["x"]
    h = (xs[-1] - xs[0]) / (len(xs) - 1)
    period, width = table_orbit(op, e)
    return PERIOD_TOL_FACTOR * (h / width) ** 2 * period


PERIOD_TOL_FACTOR = 0.75


# -- op generation -----------------------------------------------------------


def _closed_model(rng: random.Random, kind: str, hi: int) -> dict:
    units = rng.choice(UNIT_NAMES)
    u = rng.uniform
    if kind == "box":
        params = {"mass": u(0.5, 2.0), "width": u(0.5, 2.0)}
    elif kind == "harmonic":
        params = {"mass": u(0.5, 2.0), "stiffness": u(0.5, 2.0)}
    elif kind == "hydrogenoid":
        params = {"reduced_mass": u(0.5, 2.0), "z": rng.randint(1, 6), "charge": u(0.5, 2.0)}
    else:
        # capacity zeta well above 2 hi + 1, so the scan is never clipped
        zeta = u(2.0 * hi + 10.0, 4.0 * hi + 20.0)
        mass, depth = u(0.5, 2.0), u(0.5, 2.0)
        params = {"mass": mass, "depth": depth, "range": 1.0}
        params["range"] = morse_zeta(params, units) / zeta
    return {"kind": kind, "units": units, "params": params}


def _first_pair(kind: str) -> int:
    return 2 if kind in ("box", "hydrogenoid") else 1


def gen_closed_form(rng: random.Random, sub: str, kind: str) -> dict:
    # report also tabulates the spectrum, so it scans a shorter range for the same cost
    hi = rng.randint(150, 200) if sub == "criterion" else rng.randint(100, 140)
    model = _closed_model(rng, kind, hi)
    return {"op": "cli", "sub": sub, "seed": rng.randrange(2**32),
            "config": {"model": model, "n_range": [_first_pair(kind), hi]}}


def gen_monte_carlo(rng: random.Random, sub: str, kind: str) -> dict:
    seed = rng.randrange(2**32)
    if sub == "simulate":
        lo = _first_pair(kind) + rng.randint(0, 4)
        model = _closed_model(rng, kind, lo + 9)
        config = {"model": model, "n_range": [lo, lo + 9], "protocol": {"trials": rng.randint(4800, 5200)}}
    else:
        model = _closed_model(rng, kind, 30)
        u = rng.uniform
        config = {"model": model, "noise": {
            "position_center": u(-3.0, 3.0), "momentum_center": u(-3.0, 3.0),
            "delta_x": u(0.2, 1.5), "delta_p": u(0.2, 1.5), "count": rng.randint(2400, 2600)}}
    return {"op": "cli", "sub": sub, "seed": seed, "config": config}


def _morse_x(depth: float, alpha: float, value: float, side: int) -> float:
    # solve depth (y^2 - 2 y) = value for y = exp(-alpha x) on the requested side
    y = 1.0 - side * math.sqrt(1.0 + value / depth)
    return -math.log(y) / alpha


def gen_numeric_table(rng: random.Random, shape: str, n: int) -> dict:
    knots = rng.randint(13, 25)
    mass = rng.uniform(0.5, 2.0)
    u = rng.uniform
    top = n + 2
    if shape == "harmonic":
        params = {"k": u(0.5, 2.0)}
        op = {"shape": shape, "mass": mass, "params": params}
        ceiling = table_level(op, top) * u(1.3, 2.0)
        left = right = math.sqrt(2.0 * ceiling / params["k"])
        xs = np.linspace(-left, right, knots)
        us = 0.5 * params["k"] * xs**2
    elif shape == "quartic":
        params = {"k": u(0.5, 2.0), "lam": u(0.05, 0.3)}
        op = {"shape": shape, "mass": mass, "params": params}
        ceiling = table_level(op, top) * u(1.3, 2.0)
        k, lam = params["k"], params["lam"]
        edge = _quartic_amplitude(ceiling, k, lam)
        xs = np.linspace(-edge, edge, knots)
        us = quartic_potential(xs, k, lam)
    else:
        depth = u(10.0, 25.0)
        alpha = math.sqrt(2.0 * mass * depth) / u(25.0, 40.0)  # capacity zeta in [25, 40]
        params = {"depth": depth, "range": alpha}
        op = {"shape": shape, "mass": mass, "params": params}
        e_top = table_level(op, top)
        ceiling = e_top * u(0.4, 0.7)  # between the top level and dissociation
        xs = np.linspace(_morse_x(depth, alpha, ceiling + u(0.0, 1.0) * depth, -1),
                         _morse_x(depth, alpha, ceiling, +1), knots)
        ex = np.exp(-alpha * xs)
        us = depth * (ex * ex - 2.0 * ex)
    op.update({"op": "table", "n": n, "x": xs.tolist(), "u": us.tolist()})
    return op


CLOSED_KINDS = ("box", "harmonic", "hydrogenoid", "morse")
GENERATORS = {
    "closed-form": gen_closed_form,
    "numeric-table": gen_numeric_table,
    "monte-carlo": gen_monte_carlo,
}
# Op classes of each workload; every block of consecutive ops holds each class once.
CLASSES = {
    "closed-form": [(sub, kind) for sub in ("criterion", "report") for kind in CLOSED_KINDS],
    "numeric-table": [(shape, n) for shape in ("harmonic", "quartic", "morse") for n in (1, 2, 3, 4)],
    # harmonic periods are degenerate by design, so simulate has no harmonic class
    "monte-carlo": [("simulate", kind) for kind in ("box", "hydrogenoid", "morse")]
    + [("noise", kind) for kind in CLOSED_KINDS],
}


@dataclass(frozen=True)
class Plan:
    """Per-workload loop settings."""

    warmup: int  # untimed ops before the timed loop
    list_size: int  # timed ops generated up front; the loop draws further ops from the same stream
    min_ops: int  # the timed loop runs at least this many ops; failures are counted over them


PLANS = {
    "closed-form": Plan(warmup=16, list_size=2400, min_ops=100),
    "numeric-table": Plan(warmup=2, list_size=216, min_ops=108),
    "monte-carlo": Plan(warmup=7, list_size=700, min_ops=100),
}


def op_stream(workload: str, seed: int) -> Iterator[dict]:
    """The endless op sequence of (workload, seed).

    Ops come in blocks that hold every op class of the workload once, in a
    seeded order, so any run of ops has nearly the same mix of classes.
    Every op is a freshly drawn model, so no op repeats an earlier one.
    """
    gen, classes = GENERATORS[workload], CLASSES[workload]
    rng = random.Random(f"{workload}/{seed}")
    while True:
        for cls in rng.sample(classes, len(classes)):
            yield gen(rng, *cls)


def build_ops(workload: str, seed: int) -> tuple[list[dict], list[dict], Iterator[dict]]:
    """(warm-up ops, timed ops, the stream of further timed ops), all fixed by (workload, seed)."""
    plan = PLANS[workload]
    stream = op_stream(workload, seed)
    warm = list(itertools.islice(stream, plan.warmup))
    return warm, list(itertools.islice(stream, plan.list_size)), stream


def op_class(op: dict) -> tuple:
    """The op's class, one of CLASSES[workload]."""
    if op["op"] == "table":
        return op["shape"], op["n"]
    return op["sub"], op["config"]["model"]["kind"]


def op_list_digest(ops: list[dict]) -> str:
    text = json.dumps(ops, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def cold_op(workload: str) -> dict:
    """The representative op of a workload, run once per fresh `python -m speclimit` process."""
    if workload == "closed-form":  # report on the box-natural preset's well
        model = {"kind": "box", "units": "natural-box", "params": {"mass": 1.0, "width": 1.0}}
        return {"op": "cli", "sub": "report", "seed": 0, "config": {"model": model, "n_range": [2, 20]}}
    if workload == "monte-carlo":  # simulate on the hydrogen-atomic preset's well
        model = {"kind": "hydrogenoid", "units": "atomic", "params": {"reduced_mass": 1.0, "z": 1, "charge": 1.0}}
        return {"op": "cli", "sub": "simulate", "seed": 0,
                "config": {"model": model, "n_range": [2, 20], "protocol": {"trials": 10000}}}
    xs = np.linspace(-4.0, 4.0, 49)  # criterion on one 49-knot quartic table
    table = {"op": "table", "shape": "quartic", "mass": 1.0, "params": {"k": 1.0, "lam": 0.1}, "n": 1,
             "x": xs.tolist(), "u": quartic_potential(xs, 1.0, 0.1).tolist()}
    model = {"kind": "numeric", "units": "oscillator", "params": {"mass": 1.0, "x": table["x"], "u": table["u"]}}
    return {"op": "cli", "sub": "criterion", "seed": 0, "table": table,
            "config": {"model": model, "n_range": [1, 3]}}


# -- execution -------------------------------------------------------------


class Runner:
    """Runs ops against the imported package and checks their results.

    ``prepare`` and ``finish`` are untimed; ``execute`` is the timed call
    into a public entry point.
    """

    def __init__(self, speclimit, workdir: Path):
        self.sl = speclimit
        from speclimit import cli

        self.cli = cli
        self.workdir = workdir
        self.sink = io.StringIO()

    def prepare(self, op: dict, index: int):
        """The op's arguments: the table itself, or (CLI argv, output directory)."""
        if op["op"] == "table":
            return op
        cfg = self.workdir / "config.json"
        cfg.write_text(json.dumps(op["config"]))
        out = self.workdir / f"out-{index}"
        return [op["sub"], "--config", str(cfg), "--out", str(out), "--seed", str(op["seed"])], out

    def execute(self, op: dict, prepared):
        """The timed call: the report or CLI exit code, or an EngineError."""
        sl = self.sl
        if op["op"] == "table":
            try:
                model = sl.numeric(op["mass"], op["x"], op["u"])
                return sl.classify(model, (op["n"], op["n"] + 2))
            except sl.SpeclimitError as exc:
                return EngineError(type(exc).__name__)
        err = io.StringIO()
        with contextlib.redirect_stdout(self.sink), contextlib.redirect_stderr(err):
            rc = self.cli.main(prepared[0])
        if rc == 3:
            return EngineError(json.loads(err.getvalue().splitlines()[-1])["error"]["type"])
        return rc

    def finish(self, op: dict, prepared, result) -> int:
        """Check one result (raises WrongResult) and clean up; returns the bytes the CLI wrote."""
        self.sink.seek(0)
        self.sink.truncate()
        if op["op"] == "table":
            if not isinstance(result, EngineError):
                check_table(op, result)
            return 0
        out = prepared[1]
        try:
            if isinstance(result, EngineError):
                return 0
            if result != 0:
                raise WrongResult(f"{op['sub']}: exit code {result}")
            return check_cli(op, out)
        finally:
            shutil.rmtree(out, ignore_errors=True)


@dataclass(frozen=True)
class EngineError:
    type_name: str


# -- checks ----------------------------------------------------------------


def _require(cond: bool, message: str):
    if not cond:
        raise WrongResult(message)


def check_manifest(out: Path, expected: set) -> int:
    """Every output is listed in run_record.json with its sha256 and size."""
    record = json.loads((out / "run_record.json").read_text())
    listed = {e["name"]: e for e in record["outputs"]}
    present = {p.name for p in out.iterdir()} - {"run_record.json"}
    _require(set(listed) == present == expected,
             f"manifest lists {sorted(listed)}, directory holds {sorted(present)}, expected {sorted(expected)}")
    total = (out / "run_record.json").stat().st_size
    for name, entry in listed.items():
        data = (out / name).read_bytes()
        _require(entry["bytes"] == len(data), f"{name}: manifest size {entry['bytes']} != {len(data)}")
        _require(entry["sha256"] == hashlib.sha256(data).hexdigest(), f"{name}: sha256 mismatch")
        total += len(data)
    return total


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _threshold(ys: dict) -> int | None:
    return next((n for n in sorted(ys) if ys[n] < 0.5), None)


def _check_y_rows(rows: list[dict], model: dict, lo: int, hi: int, y_key: str) -> dict:
    ns = [int(r["n"]) for r in rows]
    _require(ns == list(range(lo, hi + 1)), f"rows cover n={ns[:1]}..{ns[-1:]}, expected {lo}..{hi}")
    ys = {}
    for r in rows:
        n = int(r["n"])
        ref = reference_y(model, n)
        got = float(r[y_key])
        _require(digits_match(got, ref), f"{model['kind']} n={n}: y/hbar {r[y_key]} != reference {ref!r}")
        ys[n] = ref
    return ys


def check_cli(op: dict, out: Path) -> int:
    sub, config = op["sub"], op["config"]
    model = config["model"]
    expected = set(CLI_FILES[sub])
    if sub == "noise" and model["kind"] == "harmonic":
        expected.add("required_product.csv")
    size = check_manifest(out, expected)
    if model["kind"] == "numeric":  # the numeric-table cold run, on a table sampled from op["table"]
        check_table_csv(op, out)
    elif sub in ("criterion", "report"):
        lo, hi = config["n_range"]
        rows = _read_csv(out / "criterion.csv")
        ys = _check_y_rows(rows, model, lo, hi, "y_over_hbar")
        for r in rows:
            _require((r["resolvable"] == "true") == (ys[int(r["n"])] >= 0.5), f"n={r['n']}: resolvable flag")
        summary = json.loads((out / "criterion_summary.json").read_text())
        _require(summary["threshold"] == _threshold(ys),
                 f"threshold {summary['threshold']} != reference {_threshold(ys)}")
        if model["kind"] == "harmonic":
            _require(any(DEGENERATE_NOTE in note for note in summary["notes"]), "missing degenerate-period note")
        if sub == "report":
            report = json.loads((out / "report.json").read_text())
            _require(report["threshold"] == _threshold(ys), "report threshold")
            spectrum = _read_csv(out / "spectrum.csv")
            _require(len(spectrum) == report["level_count"] == max(10, hi), "spectrum row count")
    elif sub == "simulate":
        lo, hi = config["n_range"]
        trials = config["protocol"]["trials"]
        rows = _read_csv(out / "sweep.csv")
        ys = _check_y_rows(rows, model, lo, hi, "y_over_hbar")
        for r in rows:
            # at the saturating clock accuracy the population d' is 4 y / hbar
            d_ref = 4.0 * ys[int(r["n"])]
            se = math.sqrt(2.0 / trials + d_ref * d_ref / (4.0 * trials))
            _require(abs(float(r["d_prime"]) - d_ref) <= 6.0 * se,
                     f"n={r['n']}: d' {r['d_prime']} is not within 6 SE of 4y = {d_ref:.6g}")
        summary = json.loads((out / "simulate_summary.json").read_text())
        _require(summary["criterion_threshold"] == _threshold(ys), "simulate criterion threshold")
    else:
        check_noise(config, out)
    return size


def check_noise(config: dict, out: Path):
    ns = config["noise"]
    count = ns["count"]
    summary = json.loads((out / "noise_summary.json").read_text())
    _require(summary["count"] == count, "noise count")
    for key, center, sigma in (("position", ns["position_center"], ns["delta_x"]),
                               ("momentum", ns["momentum_center"], ns["delta_p"])):
        s = summary[key]
        _require(abs(s["estimated_center"] - center) <= 6.0 * sigma / math.sqrt(count), f"{key} center")
        _require(abs(s["estimated_width"] / sigma - 1.0) <= 6.0 / math.sqrt(2.0 * (count - 1)), f"{key} width")
        with open(out / f"{key}_ensemble.csv") as fh:
            _require(sum(1 for _ in fh) == count + 3, f"{key} ensemble line count")
    chk = summary["characteristic"]
    _require(chk["rows"] == 20 and chk["max_deviation_over_se"] <= 6.0, "characteristic check deviates")
    if config["model"]["kind"] == "harmonic":
        rows = _read_csv(out / "required_product.csv")
        _require(len(rows) == 25, "required product rows")
        for r in rows:
            ref = 1.0 / (16.0 * (int(r["n"]) + 0.5))
            _require(abs(float(r["product_over_hbar"]) / ref - 1.0) <= 1e-9, f"required product n={r['n']}")


def check_table_levels(op: dict, levels: dict, ys: dict, threshold):
    """Levels {n: (E, tau)}, y {n: y/hbar} and threshold of a table against the well it was sampled from.

    Each E_n must match the well's level and each tau_n the well's classical
    period at that E_n, to tolerances set by knot spacing. Each y must match
    the y built from the engine's energies and the well's periods, to the
    tolerance the period tolerances allow.
    """
    where = f"{op['shape']} table, {len(op['x'])} knots"
    tol = table_tolerance(op)
    periods = {}
    for m, (e, tau) in sorted(levels.items()):
        ref = table_level(op, m)
        _require(abs(e - ref) <= tol, f"{where}: E_{m} = {e!r}, well gives {ref!r} (tolerance {tol:.3g})")
        period, ptol = table_orbit(op, e)[0], period_tolerance(op, e)
        _require(abs(tau - period) <= ptol,
                 f"{where}: tau_{m} = {tau!r}, well gives {period!r} at E_{m} (tolerance {ptol:.3g})")
        periods[m] = period, ptol
    for n, y in ys.items():
        d_e = abs(levels[n][0] - levels[n - 1][0]) / 2.0
        (t0, tol0), (t1, tol1) = periods[n - 1], periods[n]
        ref, ytol = d_e * abs(t1 - t0) / 2.0, d_e * (tol0 + tol1) / 2.0
        _require(abs(y - ref) <= ytol, f"{where}: gap n={n}: y/hbar = {y!r}, well periods give {ref!r}"
                                       f" (tolerance {ytol:.3g})")
    _require(threshold == _threshold(ys), f"{where}: threshold {threshold} != {_threshold(ys)}")


def check_table(op: dict, rep):
    n = op["n"]
    levels = {m: (e, tau) for m, e, tau in rep.levels}
    ys = {g.n: g.y_over_hbar for g in rep.gaps}
    _require(sorted(levels) == list(range(n - 1, n + 3)) and sorted(ys) == list(range(n, n + 3)),
             f"levels {sorted(levels)} and gaps {sorted(ys)} for n_range ({n}, {n + 2})")
    check_table_levels(op, levels, ys, rep.threshold)


def check_table_csv(op: dict, out: Path):
    """criterion.csv of a CLI run on a table: each row holds level n and the half differences to level n - 1."""
    lo, hi = op["config"]["n_range"]
    rows = _read_csv(out / "criterion.csv")
    _require([int(r["n"]) for r in rows] == list(range(lo, hi + 1)), f"table rows do not cover n={lo}..{hi}")
    levels, ys = {}, {}
    for r in rows:
        n, e, tau = int(r["n"]), float(r["E_n"]), float(r["tau_n"])
        levels[n] = e, tau
        levels.setdefault(n - 1, (e - 2.0 * float(r["dE"]), tau - 2.0 * float(r["dTau"])))
        ys[n] = float(r["y_over_hbar"])
        _require((r["resolvable"] == "true") == (ys[n] >= 0.5), f"n={n}: resolvable flag")
    threshold = json.loads((out / "criterion_summary.json").read_text())["threshold"]
    check_table_levels(op["table"], levels, ys, threshold)
