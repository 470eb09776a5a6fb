"""speclimit command line: config loading, analyses, deterministic outputs.

Subcommands: spectrum, criterion, noise, simulate, report. Each reads one
JSON config, writes CSV/JSON files plus a run_record.json manifest with
sha256 digests, and exits 0 on success, 2 on a config error, 3 on a
computation error (one machine-readable JSON error line on stderr).

All numbers in the data files are printed with 12 significant digits so
reruns with the same config, seed, and version are byte-identical; the
manifest echoes the config at full precision. The output directory is taken
from --out, then $SPECLIMIT_OUT, then the config's output_dir, then
./speclimit-out.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .criterion import _resolve_method, classify, spectrum
from .errors import ConfigError, SpeclimitError
from .models import (ModelSpec, Param, _check_keys, _expect_object, _first_levels, _get_param, _read_object,
                     model_from_dict, n_min)

SCHEMA_VERSION = "1"
DEFAULT_OUT = "speclimit-out"

_COMMON_KEYS = ("model", "analysis", "output_dir", "seed")
_SEED = Param("seed", type=int, default=None, lo=0, hi=2**64 - 1)
_SPECTRUM_KEYS = (Param("n_limit", type=int, default=None, lo=1),
                  Param("semiclassical_check", type=bool, default=False))
# config block -> its keys in read order; the protocol's keys are PeriodProtocol's field names
_BLOCKS = {
    "noise": (
        Param("position_center", default=2.0),
        Param("momentum_center", default=-1.0),
        Param("delta_x", default=0.5, lo=0.0),
        Param("delta_p", default=1.2, lo=0.0),
        Param("count", type=int, default=100000, lo=2),
    ),
    "protocol": (
        Param("s", type=int, default=1, lo=1),
        Param("delta_t", default=None, lo=0.0),
        Param("trials", type=int, default=10000, lo=10),
        Param("per_inversion", type=bool, default=False),
    ),
}
_GRID_WIDTH_FACTORS = (0.5, 0.75, 1.0, 1.5)
_GRID_U_VALUES = (0.25, 0.5, 1.0, 1.5, 2.0)


# -- formatting ------------------------------------------------------------


def _fmt(v) -> str:
    """One CSV field: a float to 12 significant digits, a bool as true/false, an int as is.

    Any other type raises TypeError, so no field ever needs CSV quoting.
    """
    if isinstance(v, float):
        return format(v, ".12g")
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    raise TypeError(f"cannot write a {type(v).__name__} as a CSV field")


# the C formatter of each exact field type a CSV column can hold throughout
_CSV_COLUMN_FORMATS = {float: "%.12g".__mod__, int: int.__repr__, bool: ("false", "true").__getitem__}
_QUOTE = json.encoder.encode_basestring_ascii
# exponents that the 12-digit form prints but repr spells positionally
_REPR_POSITIONAL = ("e+12", "e+13", "e+14", "e+15")
# the JSON types a class can subclass, each with the function that gives its value as the exact type
_JSON_BASES = ((str, str.__str__), (int, int.__int__), (float, float.__float__), (dict, dict), (list, list),
               (tuple, tuple))


def _json_text(obj, spell) -> str:
    """The text of ``json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\\n"``, each float ``v``
    written as the repr of the float that ``spell(v)`` denotes.

    Strings are quoted ASCII-only, keys sorted, and containers broken over
    lines two spaces deep. Dict keys must be strings, and values str, float,
    int, bool, None, dict, list or tuple; anything else raises TypeError. A
    float that is not finite raises ValueError at the end of the walk, so a
    TypeError anywhere in ``obj`` takes precedence.

    The walk dispatches on each value's exact type, and a container writes
    its scalar children in its own loop. A subclass of a JSON type is written
    as the value of its base type. The sorted keys of a dict and their quoted
    heads are built once per key set and depth.

    ``spell`` is ``float.__repr__`` for full precision, or ``"%.12g".__mod__``,
    whose text already holds the digits of the rounded float's repr: two
    decimals of at most 15 digits never round to the same normal float. Only
    the spelling then differs: ``.0`` is appended to an integral value, and
    the text is parsed and re-printed only where repr spells it otherwise,
    at exponents 12 to 15 (repr prints them positionally) and |v| < 1e-307
    (the decimal may round to a subnormal with a shorter repr). A repr is
    left as it is by both steps.
    """
    parts: list[str] = []
    put = parts.append
    non_finite: list[float] = []
    heads: dict[tuple, list] = {}  # (keys, indent) -> [(key, '{' or ',', indent and '"key": '), ...], sorted

    def float_text(v: float) -> str:
        s = spell(v)
        if "e" in s:
            if s[-4:] in _REPR_POSITIONAL or -1e-307 < v < 1e-307:
                return float.__repr__(float(s))
        elif "." not in s:
            if s[-1] not in "fn":
                return s + ".0"
            non_finite.append(v)  # inf, -inf or nan
        return s

    # exact type -> its JSON text
    scalars = {float: float_text, int: int.__repr__, bool: ("false", "true").__getitem__, str: _QUOTE,
               type(None): lambda _: "null"}

    def walk(v, indent: str):
        """Append the JSON text of ``v``; ``indent`` is the newline and indent of its line."""
        t = type(v)
        if t is dict:
            if not v:
                put("{}")
                return
            inner = indent + "  "
            keys = tuple(v)
            items = heads.get((keys, indent))
            if items is None:
                for k in keys:
                    if not isinstance(k, str):
                        raise TypeError(f"keys must be str, not {type(k).__name__}")
                items = heads[keys, indent] = [(k, ("," if i else "{") + inner + _QUOTE(k) + ": ")
                                               for i, k in enumerate(sorted(keys))]
            for k, head in items:
                x = v[k]
                text = scalars.get(type(x))
                if text is None:
                    put(head)
                    walk(x, inner)
                else:
                    put(head + text(x))
            put(indent + "}")
        elif t is list or t is tuple:
            if not v:
                put("[]")
                return
            inner = indent + "  "
            head = "[" + inner
            for x in v:
                text = scalars.get(type(x))
                if text is None:
                    put(head)
                    walk(x, inner)
                else:
                    put(head + text(x))
                head = "," + inner
            put(indent + "]")
        elif t in scalars:
            put(scalars[t](v))
        else:
            exact = next((f for base, f in _JSON_BASES if isinstance(v, base)), None)
            if exact is None:
                raise TypeError(f"cannot serialize {t.__name__}")
            walk(exact(v), indent)

    walk(obj, "\n")
    if non_finite:
        raise ValueError(f"Out of range float values are not JSON compliant: {non_finite[0]!r}")
    put("\n")
    return "".join(parts)


def _json12(obj) -> str:
    """``obj`` as indented JSON text, every float rounded to 12 significant digits.

    The text of ``json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    + "\\n"`` with each float first replaced by ``float(format(v, ".12g"))``;
    see ``_json_text``.
    """
    return _json_text(obj, "%.12g".__mod__)


class OutputWriter:
    """Writes output files under one directory and keeps a digest manifest.

    Each file's text is built in memory and written once as UTF-8; its
    manifest entry is the digest and size of those bytes.

    ``write_csv`` takes a header of plain column names and rows of the
    header's width whose fields are floats (12 significant digits), bools
    (``true``/``false``) or ints; it joins them with commas and ends every
    line with ``\\n``. A row of another width raises ValueError and any other
    field type TypeError, both before the file is written, so no field needs
    quoting. ``write_json`` writes ``_json12`` text, and ``write_record`` the
    same walk's text with every float at full precision.
    """

    def __init__(self, outdir: Path):
        self.outdir = outdir
        self.entries: list[dict] = []

    def _register(self, name: str, data: bytes):
        self.entries.append({"name": name, "sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)})

    def _put(self, name: str, text: str):
        data = text.encode()
        (self.outdir / name).write_bytes(data)
        self._register(name, data)

    def write_csv(self, name: str, header, rows):
        columns = list(zip(header, *rows, strict=True))
        for i, (head, *values) in enumerate(columns):
            # a column of one exact type is formatted in C; any other goes field by field through _fmt
            kinds = set(map(type, values))
            fmt = _CSV_COLUMN_FORMATS.get(kinds.pop()) if len(kinds) == 1 else None
            columns[i] = (head, *map(fmt or _fmt, values))
        self._put(name, "\n".join(map(",".join, zip(*columns))) + "\n")

    def write_json(self, name: str, obj):
        self._put(name, _json12(obj))

    def adopt(self, name: str):
        """Pick up a file some other component already wrote into outdir."""
        self._register(name, (self.outdir / name).read_bytes())

    def write_record(self, analysis: str, config_doc, seed: int, started: str):
        record = {
            "tool": "speclimit",
            "version": __version__,
            "schema": SCHEMA_VERSION,
            "analysis": analysis,
            "config": config_doc,
            "seed": seed,
            "started_utc": started,
            "finished_utc": _utcnow(),
            "outputs": self.entries,
        }
        # every float at full precision, so the record's config reruns the run
        (self.outdir / "run_record.json").write_bytes(_json_text(record, float.__repr__).encode())


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


# -- config ------------------------------------------------------------


def load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON: {exc}") from None
    _expect_object(doc, "config")
    return doc


def _opt_n_range(doc, model: ModelSpec):
    v = doc.get("n_range")
    first = n_min(model) + 1
    if v is None:
        # the pairs of the first 20 levels, and (first, first) where the ladder holds none, which classify refuses
        return (first, max(first, _first_levels(model, 20).stop - 1))
    if (not isinstance(v, list) or len(v) != 2
            or any(isinstance(x, bool) or not isinstance(x, int) for x in v)):
        raise ConfigError("n_range", f"expected [lo, hi] with two integers, got {v!r}")
    lo, hi = v
    if lo < first:
        raise ConfigError("n_range", f"lo must be >= {first} for this model, got {lo}")
    if hi < lo:
        raise ConfigError("n_range", f"hi must be >= lo, got {v!r}")
    return (lo, hi)


def validate_config(doc: dict, analysis: str) -> dict:
    keys = _COMMANDS[analysis][1]
    _check_keys(doc, _COMMON_KEYS + keys, "")
    if "model" not in doc:
        raise ConfigError("model", "missing required key")
    model = model_from_dict(doc["model"])
    declared = doc.get("analysis")
    if declared is not None and declared != analysis:
        raise ConfigError("analysis", f"config declares {declared!r} but the {analysis!r} command was invoked")
    out = {"model": model}
    od = doc.get("output_dir")
    if od is not None and not isinstance(od, str):
        raise ConfigError("output_dir", f"expected a string, got {od!r}")
    out["output_dir"] = od
    out["seed"] = _get_param(doc, _SEED, "")

    if "n_limit" in keys:
        out.update((p.key, _get_param(doc, p, "")) for p in _SPECTRUM_KEYS)
    if "n_range" in keys:
        out["n_range"] = _opt_n_range(doc, model)
    if "method" in keys:
        method = doc.get("method", "auto")
        if method not in ("auto", "closed", "semiclassical"):
            raise ConfigError("method", f"expected auto, closed, or semiclassical, got {method!r}")
        out["method"] = method
    for name, schema in _BLOCKS.items():
        if name in keys:
            out[name] = _read_object(doc.get(name, {}), schema, name)
    return out


# -- analyses ------------------------------------------------------------


def cmd_spectrum(model: ModelSpec, cfg: dict, w: OutputWriter, seed: int, known=None) -> int:
    """Write spectrum.csv for the first ``n_limit`` levels (10 when unset); return the number of rows.

    ``known`` maps levels already computed by ``spectrum``'s method to their (E_n, tau_n); only the others are
    computed here.
    """
    semi_check = cfg["semiclassical_check"]
    ns = _first_levels(model, cfg["n_limit"] or 10)
    levels = dict(known or ())
    levels.update(spectrum(model, [n for n in ns if n not in levels]))
    rows = [[n, *levels[n]] for n in ns]
    if semi_check:
        from . import semiclassical

        # levels without closed forms are Bohr-Sommerfeld levels already
        placed = semiclassical._place(model, ns) if model.params.closed_forms else {n: e for n, e, _ in rows}
        for row in rows:
            row.append(semiclassical._raised(placed[row[0]]))
    w.write_csv("spectrum.csv", ["n", "E_n", "tau_n"] + (["E_semiclassical"] if semi_check else []), rows)
    return len(rows)


def cmd_criterion(model: ModelSpec, cfg: dict, w: OutputWriter, seed: int, rep=None) -> dict:
    """Write the criterion table, the y curve and their summary; return the summary.

    ``rep`` is the range's ``classify`` report where the caller already made it.
    """
    n_range = cfg["n_range"]
    if rep is None:
        rep = classify(model, n_range, cfg["method"])
    w.write_csv("criterion.csv", ["n", "E_n", "tau_n", "dE", "dTau", "y_over_hbar", "resolvable"], rep.csv_rows())
    w.write_csv("y_curve.csv", ["n", "y_over_hbar", "half"], [(g.n, g.y_over_hbar, 0.5) for g in rep.gaps])
    summary = {"analysis": "criterion", "model": model.to_dict(), "n_range": list(n_range)}
    summary.update(rep.to_json_dict())
    w.write_json("criterion_summary.json", summary)
    return summary


def cmd_noise(model: ModelSpec, cfg: dict, w: OutputWriter, seed: int):
    import numpy as np

    from .noise import characteristic_check, reconstruct_state, required_noise_product_for_resolution, sample_ensemble

    ns = cfg["noise"]
    hbar = model.units.hbar
    pos = sample_ensemble(ns["position_center"], ns["delta_x"], ns["count"], seed, stream=0)
    mom = sample_ensemble(ns["momentum_center"], ns["delta_p"], ns["count"], seed, stream=1)
    w._put("position_ensemble.csv", pos.csv_text())
    w._put("momentum_ensemble.csv", mom.csv_text())
    state = reconstruct_state(pos, mom, hbar)

    norm_residual = None
    if state.delta_x > 0.0:
        x, dx = np.linspace(state.r - 8.0 * state.delta_x, state.r + 8.0 * state.delta_x,
                            20001, retstep=True)
        y = state.position_density(x)
        norm_residual = abs(float(dx * (y.sum() - 0.5 * (y[0] + y[-1]))) - 1.0)  # trapezoid rule

    rows = []
    deviations = []
    for j, factor in enumerate(_GRID_WIDTH_FACTORS):
        dxv = factor * ns["delta_x"]
        ens = sample_ensemble(0.0, dxv, ns["count"], seed, stream=2 + j)
        for u in _GRID_U_VALUES:
            p = u * hbar / dxv if dxv > 0.0 else u
            chk = characteristic_check(ens, p, hbar)
            rows.append((chk.p, chk.delta_x, chk.mc_real, chk.mc_imag, chk.exact,
                         chk.se_real, chk.se_imag, chk.within_3se))
            if chk.se_real > 0.0:
                deviations.append(abs(chk.mc_real - chk.exact) / chk.se_real)
    w.write_csv(
        "characteristic_check.csv",
        ["p", "delta_x", "mc_real", "mc_imag", "exact", "se_real", "se_imag", "within_3se"],
        rows,
    )

    summary = {
        "analysis": "noise",
        "model": model.to_dict(),
        "hbar": hbar,
        "count": ns["count"],
        "position": {"true_center": pos.true_center, "true_sigma": pos.sigma,
                     "estimated_center": state.r, "estimated_width": state.delta_x},
        "momentum": {"true_center": mom.true_center, "true_sigma": mom.sigma,
                     "estimated_center": state.d, "estimated_width": state.delta_p},
        "product_over_hbar": state.budget.product_over_hbar,
        "preparable": state.budget.preparable,
        "sub_sql": state.sub_sql,
        "normalization_residual": norm_residual,
        "characteristic": {
            "rows": len(rows),
            "all_within_3se": all(r[-1] for r in rows),
            "max_deviation_over_se": max(deviations, default=0.0),
        },
    }
    # the one period-degenerate kind, the harmonic oscillator, can only be read by energy
    if model.params.degenerate_period:
        products = [(n, required_noise_product_for_resolution(model, n)) for n in range(25)]
        w.write_csv("required_product.csv", ["n", "product_over_hbar"], products)
        summary["required_product"] = {
            "levels": len(products),
            "max_over_hbar": max(p for _, p in products),
            "all_below_half": all(p < 0.5 for _, p in products),
        }
    w.write_json("noise_summary.json", summary)


def cmd_simulate(model: ModelSpec, cfg: dict, w: OutputWriter, seed: int):
    from .simulate import D_PRIME_CUT, PeriodProtocol, consistency_sweep

    protocol = PeriodProtocol(**cfg["protocol"], seed=seed)
    summary = consistency_sweep(model, cfg["n_range"], protocol)
    ys = dict(summary.y_values)
    w.write_csv(
        "sweep.csv",
        ["n", "tau_n", "d_prime", "bayes_error", "mc_resolvable", "y_over_hbar", "criterion_resolvable"],
        [(r.n_high, r.tau_high, r.d_prime, r.bayes_error, r.mc_resolvable,
          ys[r.n_high], r.criterion_resolvable) for r in summary.results],
    )
    w.write_json("simulate_summary.json", {
        "analysis": "simulate",
        "model": model.to_dict(),
        "n_range": [summary.results[0].n_high, summary.results[-1].n_high],  # clipped at the ladder's end
        "protocol": {**cfg["protocol"], "delta_t_mode": summary.delta_t_mode},
        "seed": seed,
        "d_prime_cut": D_PRIME_CUT,
        "mc_crossover": summary.mc_crossover,
        "criterion_threshold": summary.criterion_threshold,
        "crossover_within_one": summary.crossover_within_one,
        "agreements": summary.agreements,
        "disagreements": summary.disagreements,
        "agreement_by_n": [[n, ok] for n, ok in summary.agreement_by_n],
        "sensitivity": [[cut, cross] for cut, cross in summary.sensitivity],
    })


def cmd_report(model: ModelSpec, cfg: dict, w: OutputWriter, seed: int):
    rep = classify(model, cfg["n_range"], cfg["method"])
    # the spectrum takes the report's levels where classify resolved to the spectrum's method, auto
    known = {n: (e, tau) for n, e, tau in rep.levels} if rep.method == _resolve_method(model, "auto") else None
    # without n_limit the spectrum lists max(10, hi) levels, so on a ladder that starts at 0 with hi >= 10
    # it ends one level short of the criterion's last level hi
    level_count = cmd_spectrum(model, {**cfg, "n_limit": cfg["n_limit"] or max(10, cfg["n_range"][1])}, w, seed,
                               known)
    summary = cmd_criterion(model, cfg, w, seed, rep)
    w.write_json("report.json", {
        "analysis": "report",
        "model": model.to_dict(),
        "hbar": model.units.hbar,
        "level_count": level_count,
        **{key: summary[key] for key in ("threshold", "regime", "max_y_over_hbar", "notes")},
        "outputs": [e["name"] for e in w.entries],
    })


# subcommand -> (help, its config keys beside _COMMON_KEYS, the function that runs it)
_COMMANDS = {
    "spectrum": ("tabulate energy levels and classical periods", ("n_limit", "semiclassical_check"), cmd_spectrum),
    "criterion": ("evaluate the y(n) resolvability criterion", ("n_range", "method"), cmd_criterion),
    "noise": ("Gaussian measurement-noise ensembles and SQL checks", ("noise",), cmd_noise),
    "simulate": ("Monte Carlo period-timing discrimination sweep", ("n_range", "protocol"), cmd_simulate),
    "report": ("spectrum plus criterion in one run", ("n_limit", "n_range", "method", "semiclassical_check"),
               cmd_report),
}


# -- entry point ------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="speclimit",
        description="Resolvability of discrete bound spectra under classical energy and period measurements.",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__} (schema {SCHEMA_VERSION})")
    sub = parser.add_subparsers(dest="analysis", required=True)
    for name, (summary, _, _) in _COMMANDS.items():
        sp = sub.add_parser(name, help=summary)
        sp.add_argument("--config", required=True, help="path to the JSON run configuration")
        sp.add_argument("--out", default=None, help="output directory (overrides config and environment)")
        sp.add_argument("--seed", type=int, default=None, help="RNG seed (overrides the config)")
    return parser


# main keeps one parser per process: building it costs more than a parse
_parser = functools.cache(build_parser)


def _print_error(kind: str, message: str, path: str | None = None):
    payload = {"error": {"type": kind, "message": message}}
    if path is not None:
        payload["error"]["path"] = path
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        doc = load_config(args.config)
        cfg = validate_config(doc, args.analysis)
        # --seed overrides the config's seed and is read through the same Param
        seed = _get_param({"seed": cfg["seed"] if args.seed is None else args.seed}, _SEED, "") or 0
        outdir = Path(args.out or os.environ.get("SPECLIMIT_OUT") or cfg["output_dir"] or DEFAULT_OUT)
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError("output_dir", f"cannot create output directory {outdir}: {exc}") from None
        started = _utcnow()
        writer = OutputWriter(outdir)
        _COMMANDS[args.analysis][2](cfg["model"], cfg, writer, seed)
        writer.write_record(args.analysis, doc, seed, started)
    except ConfigError as exc:
        _print_error("ConfigError", str(exc), exc.path)
        return 2
    except (SpeclimitError, OSError) as exc:  # a computation that failed, or outputs that could not be written
        _print_error(type(exc).__name__, str(exc))
        return 3
    names = ", ".join(e["name"] for e in writer.entries)
    print(f"{args.analysis}: wrote {names} and run_record.json in {outdir}")
    return 0
