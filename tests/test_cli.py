from __future__ import annotations

import collections
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import speclimit as sl
from speclimit import cli, errors
from speclimit.cli import main
from speclimit.models import KINDS, _get_param


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def box_config(**extra):
    doc = {"model": {"kind": "box", "units": "natural-box", "params": {"mass": 1.0, "width": 1.0}}}
    doc.update(extra)
    return doc


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# -- the JSON writer against the stdlib ---------------------------------------


def _round12(obj):
    """Every float rounded to 12 significant digits; with json.dumps, the reference for cli._json12."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        return float(format(obj, ".12g"))
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _stdlib_json12(obj) -> str:
    return json.dumps(_round12(obj), indent=2, sort_keys=True, allow_nan=False) + "\n"


def _outcome(write, obj):
    try:
        return write(obj)
    except (TypeError, ValueError) as exc:
        return type(exc)


_SPECIAL_FLOATS = (0.0, -0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1e-5, -1.234567890123456e-5,
                   1e12, 999999999999.5, 123456789012.4, 1e15, 1234567890123456.0, 9.999999999995e15, 1e16,
                   1.7976931348623157e308)
# integers past the float range
_BIG = st.one_of(st.integers(10**300, 10**400), st.integers(-10**400, -10**300))
_floats = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(_SPECIAL_FLOATS),
                    st.floats(1e12, 1e16), st.floats(-1e16, -1e12), st.floats(1e-6, 1e-4))
_scalars = st.one_of(st.none(), st.booleans(), st.integers(-2**80, 2**80), st.text(), st.text("\"\\\x00\x1f\x7féΩ😀 "),
                     _floats, _floats.map(np.float64))
_invalid = st.sampled_from([math.nan, math.inf, -math.inf, np.float64("nan"), frozenset({1}), {1.0}, np.int64(3),
                            np.float32(1.5), b"bytes"])


def _json_values(leaves):
    return st.recursive(leaves, lambda kids: st.one_of(
        st.lists(kids, max_size=4), st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(st.text(), kids, max_size=4)), max_leaves=24)


class _List(list):
    pass


class _Str(str):
    def __str__(self):
        return "not the value"


# floats whose 12-digit form is spelled otherwise than the repr of its value
_WRITER_EXAMPLES = (999999999999.5, -999999999999.5, 1e12, 9.999999999995e15, 1e16, 2.2250738585072014e-308,
                    2.225073858507e-308, 1e-307, 5e-324, -0.0, 100000.0)


@settings(max_examples=300, deadline=None)
@given(obj=_json_values(_scalars))
@example(obj=999999999999.5)
@example(obj=-999999999999.5)
@example(obj=1e12)
@example(obj=9.999999999995e15)
@example(obj=1e16)
@example(obj=2.2250738585072014e-308)
@example(obj=2.225073858507e-308)
@example(obj=1e-307)
@example(obj=5e-324)
@example(obj=-0.0)
@example(obj=100000.0)
@example(obj={"a": list(_WRITER_EXAMPLES), "b": [{"x": v, "y": -v} for v in _WRITER_EXAMPLES]})
@example(obj=collections.OrderedDict([("b", 1.5), ("a", [collections.OrderedDict(z=True, y=None)])]))
@example(obj=_List([1e12, _List([-0.0]), _Str("x\u00e9")]))
@example(obj={"k": _Str("v"), _Str("j"): (_Str(""), 2.5)})
def test_json_writer_matches_stdlib(obj):
    assert cli._json12(obj) == _stdlib_json12(obj)


@settings(max_examples=300, deadline=None)
@given(obj=_json_values(st.one_of(_scalars, _invalid)))
def test_json_writer_raises_as_stdlib(obj):
    # a TypeError anywhere in the object wins over a non-finite float, as it did with two passes
    assert _outcome(cli._json12, obj) == _outcome(_stdlib_json12, obj)


# what json.loads gives: a config document and every value in it
_loaded = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2**70, 2**70), _BIG, st.floats(), _floats, st.text()),
    lambda kids: st.one_of(st.lists(kids, max_size=4), st.dictionaries(st.text(), kids, max_size=4)), max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(doc=st.dictionaries(st.text(), _loaded, max_size=6), seed=st.integers(0, 2**64 - 1),
       names=st.lists(st.text(), max_size=3))
@example(doc={"model": {"kind": "box", "params": {"mass": 1e16, "width": 5e-324}}, "n_range": [2, 10**30]},
         seed=0, names=["spectrum.csv"])
def test_run_record_matches_stdlib(tmp_path_factory, doc, seed, names):
    out = tmp_path_factory.mktemp("record")
    w = cli.OutputWriter(out)
    for name in names:
        w.entries.append({"name": name, "sha256": hashlib.sha256(name.encode()).hexdigest(), "bytes": len(name)})
    record = {"tool": "speclimit", "version": cli.__version__, "schema": cli.SCHEMA_VERSION, "analysis": "report",
              "config": doc, "seed": seed, "started_utc": "start", "finished_utc": "finish", "outputs": w.entries}

    def written(_):
        with mock.patch.object(cli, "_utcnow", return_value="finish"):
            w.write_record("report", doc, seed, "start")
        return (out / "run_record.json").read_text()

    assert _outcome(written, record) == _outcome(
        lambda r: json.dumps(r, indent=2, sort_keys=True, allow_nan=False) + "\n", record)


def test_json_writer_refuses_a_non_str_key():
    # json.dumps would write the key 1 as "1"; the writer's objects are keyed by name only
    with pytest.raises(TypeError, match="^keys must be str, not int$"):
        cli._json12({"a": [{1: 0.5}]})


# -- the CSV writer against the csv module -----------------------------------


def _csv_module_fmt(v) -> str:
    """The field formatter the CSV writer used with csv.writer, kept as its reference."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return format(v, ".12g")
    return str(v)


def _csv_module_text(header, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows([_csv_module_fmt(v) for v in row] for row in rows)
    return buf.getvalue()


_csv_fields = st.one_of(st.booleans(), st.integers(-2**80, 2**80), _floats, _floats.map(np.float64),
                        st.sampled_from([math.inf, -math.inf, math.nan]))


def _assert_csv_module_bytes(out, header, rows):
    w = cli.OutputWriter(out)
    w.write_csv("t.csv", header, rows)
    data = (out / "t.csv").read_bytes()
    assert data == _csv_module_text(header, rows).encode()
    assert w.entries == [{"name": "t.csv", "sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}]


@settings(max_examples=300, deadline=None)
@given(data=st.data(), header=st.lists(st.from_regex(r"[A-Za-z_]{1,8}", fullmatch=True), min_size=1, max_size=8))
def test_csv_writer_matches_csv_module(tmp_path_factory, data, header):
    rows = data.draw(st.lists(st.lists(_csv_fields, min_size=len(header), max_size=len(header)), max_size=12))
    _assert_csv_module_bytes(tmp_path_factory.mktemp("csv"), header, rows)


_edge_floats = st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 0.0])
# one strategy per column kind: a single exact type, which the writer formats by column, or a mix
_csv_column_kinds = st.sampled_from([
    st.one_of(_floats, _edge_floats),
    st.one_of(_floats, _edge_floats).map(np.float64),
    st.integers(-2**80, 2**80),
    st.booleans(),
    _csv_fields,
])


@settings(max_examples=300, deadline=None)
@given(data=st.data(), kinds=st.lists(_csv_column_kinds, min_size=1, max_size=6), count=st.integers(0, 12))
def test_csv_writer_formats_typed_columns_as_the_csv_module(tmp_path_factory, data, kinds, count):
    header = [f"c{i}" for i in range(len(kinds))]
    rows = [[data.draw(kind) for kind in kinds] for _ in range(count)]
    _assert_csv_module_bytes(tmp_path_factory.mktemp("csv"), header, rows)


@pytest.mark.parametrize("rows", [[(1, 2.0), (3,)], [(1, 2.0), (3, 4.0, 5.0)], [()]], ids=["short", "long", "empty"])
def test_csv_writer_refuses_a_ragged_row(tmp_path, rows):
    with pytest.raises(ValueError):
        cli.OutputWriter(tmp_path).write_csv("t.csv", ["a", "b"], rows)
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("field", ["1.5", None, np.bool_(True), np.int64(3), np.float32(1.5), 1j, b"1"],
                         ids=lambda v: type(v).__name__)
def test_csv_writer_rejects_other_field_types(tmp_path, field):
    with pytest.raises(TypeError, match="CSV field"):
        cli.OutputWriter(tmp_path).write_csv("t.csv", ["a", "b"], [(1, 2.0), (3, field)])
    assert not (tmp_path / "t.csv").exists()


# -- exit codes and errors ---------------------------------------------------


# -- the config reader against the three getters it replaced -------------------

_REQUIRED = object()


def _ref_key_path(path, key):
    return f"{path}.{key}" if path else key


def _ref_number(doc, key, path="", default=_REQUIRED, minimum=None):
    v = doc.get(key, default)
    if v is _REQUIRED:
        raise errors.ConfigError(_ref_key_path(path, key), "missing required key")
    if v is None and default is None:
        return None
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
        raise errors.ConfigError(_ref_key_path(path, key), f"expected a finite number, got {v!r}")
    if minimum is not None and v < minimum:
        raise errors.ConfigError(_ref_key_path(path, key), f"must be >= {minimum}, got {v}")
    return float(v)


def _ref_int(doc, key, path="", default=_REQUIRED, lo=None, hi=None):
    v = doc.get(key, default)
    if v is _REQUIRED:
        raise errors.ConfigError(_ref_key_path(path, key), "missing required key")
    if v is None and default is None:
        return None
    if isinstance(v, bool) or not isinstance(v, int):
        raise errors.ConfigError(_ref_key_path(path, key), f"expected an integer, got {v!r}")
    if (lo is not None and v < lo) or (hi is not None and v > hi):
        bound = f"in [{lo}, {hi}]" if hi is not None else f">= {lo}"
        raise errors.ConfigError(_ref_key_path(path, key), f"must be {bound}, got {v}")
    return v


def _ref_bool(doc, key, path, default):
    v = doc.get(key, default)
    if not isinstance(v, bool):
        raise errors.ConfigError(_ref_key_path(path, key), f"expected true or false, got {v!r}")
    return v


def _ref_list(doc, key, path):
    seq = doc.get(key)
    if not isinstance(seq, list) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v) for v in seq
    ):
        raise errors.ConfigError(f"{path}.{key}", "expected a list of finite numbers")
    return tuple(map(float, seq))


_MODEL = "model.params"
# every key the reader serves, as the getters read it: (path, key) -> the call on the key's enclosing object
_REFERENCE_READS = {
    ("", "seed"): lambda d: _ref_int(d, "seed", "", None, lo=0, hi=2**64 - 1),
    ("", "n_limit"): lambda d: _ref_int(d, "n_limit", "", None, lo=1),
    ("", "semiclassical_check"): lambda d: _ref_bool(d, "semiclassical_check", "", False),
    ("noise", "position_center"): lambda d: _ref_number(d, "position_center", "noise", 2.0),
    ("noise", "momentum_center"): lambda d: _ref_number(d, "momentum_center", "noise", -1.0),
    ("noise", "delta_x"): lambda d: _ref_number(d, "delta_x", "noise", 0.5, minimum=0.0),
    ("noise", "delta_p"): lambda d: _ref_number(d, "delta_p", "noise", 1.2, minimum=0.0),
    ("noise", "count"): lambda d: _ref_int(d, "count", "noise", 100000, lo=2),
    ("protocol", "s"): lambda d: _ref_int(d, "s", "protocol", 1, lo=1),
    ("protocol", "delta_t"): lambda d: _ref_number(d, "delta_t", "protocol", None, minimum=0.0),
    ("protocol", "trials"): lambda d: _ref_int(d, "trials", "protocol", 10000, lo=10),
    ("protocol", "per_inversion"): lambda d: _ref_bool(d, "per_inversion", "protocol", False),
    (_MODEL, "z"): lambda d: _ref_int(d, "z", _MODEL),
    (_MODEL, "charge"): lambda d: _ref_number(d, "charge", _MODEL, 1.0),
    (_MODEL, "x"): lambda d: _ref_list(d, "x", _MODEL),
    (_MODEL, "u"): lambda d: _ref_list(d, "u", _MODEL),
}
for _key in ("mass", "width", "stiffness", "reduced_mass", "depth", "range"):
    _REFERENCE_READS[_MODEL, _key] = lambda d, key=_key: _ref_number(d, key, _MODEL)


def _reader_params():
    """(path, Param) of every config key: the CLI's and every model kind's."""
    yield "", cli._SEED
    yield from (("", p) for p in cli._SPECTRUM_KEYS)
    yield from ((name, p) for name, schema in cli._BLOCKS.items() for p in schema)
    yield from ((_MODEL, p) for kind in KINDS.values() for p in kind.schema)


def _read(call):
    try:
        v = call()
    except errors.ConfigError as exc:
        return "error", exc.path, str(exc)
    return "value", type(v), v


_ABSENT = object()
_config_values = st.one_of(
    st.just(_ABSENT), st.none(), st.booleans(), st.integers(-2**70, 2**70),
    st.sampled_from([-1, 0, 1, 2, 9, 10, 2**64 - 1, 2**64]), _BIG, st.floats(), st.text(max_size=4),
    st.lists(st.one_of(st.floats(), st.integers(-2**70, 2**70), _BIG, st.booleans(), st.none()), max_size=4),
)


@settings(max_examples=300, deadline=None)
@given(value=_config_values)
@example(value=10**400)
@example(value=[1.0, -10**400])
@example(value=-0.0)
def test_config_reader_matches_the_getters_it_replaced(value):
    params = list(_reader_params())
    assert {(path, p.key) for path, p in params} == set(_REFERENCE_READS)
    for path, p in params:
        doc = {} if value is _ABSENT else {p.key: value}
        try:
            want = _read(lambda: _REFERENCE_READS[path, p.key](doc))
        except OverflowError:
            # the getters crashed on an int past the float range; the reader calls it what it is
            where = _ref_key_path(path, p.key)
            message = "expected a list of finite numbers" if p.type is tuple else f"expected a finite number, got {value!r}"
            want = "error", where, str(errors.ConfigError(where, message))
        assert _read(lambda: _get_param(doc, p, path)) == want


def test_missing_config_exits_2(tmp_path, capsys):
    rc = main(["spectrum", "--config", str(tmp_path / "absent.json")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"]["type"] == "ConfigError"


def test_invalid_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(["spectrum", "--config", str(bad)])
    assert rc == 2
    assert "invalid JSON" in json.loads(capsys.readouterr().err.strip())["error"]["message"]


def test_unknown_key_path_reported(tmp_path, capsys):
    cfg = write_config(tmp_path, box_config(bogus=1))
    rc = main(["spectrum", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"]["path"] == "bogus"


def test_nested_unknown_key_path(tmp_path, capsys):
    doc = box_config()
    doc["model"]["params"]["height"] = 2.0
    cfg = write_config(tmp_path, doc)
    rc = main(["spectrum", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert "model.params" in err["error"]["path"]


@pytest.mark.parametrize("sub, doc, path", [
    ("simulate", box_config(protocol={"per_inversion": 1}), "protocol.per_inversion"),
    ("spectrum", box_config(semiclassical_check="yes"), "semiclassical_check"),
])
def test_bad_boolean_path_reported(tmp_path, capsys, sub, doc, path):
    cfg = write_config(tmp_path, doc)
    rc = main([sub, "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip())["error"]
    assert (err["type"], err["path"]) == ("ConfigError", path)
    assert "expected true or false" in err["message"]


def test_analysis_mismatch_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, box_config(analysis="criterion"))
    rc = main(["spectrum", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert json.loads(capsys.readouterr().err.strip())["error"]["path"] == "analysis"


_BOX_MODEL = box_config()["model"]


# (subcommand, config, extra argv, error path, message or None): refusals a run makes before it writes anything
_REFUSALS = {
    "config-not-an-object": ("spectrum", [1, 2], [], "config", "config: expected an object, got list"),
    "no-model": ("spectrum", {"seed": 1}, [], "model", "model: missing required key"),
    "model-not-an-object": ("spectrum", {"model": "box-natural"}, [], "model", "model: expected an object, got str"),
    "preset-not-a-string": ("spectrum", {"model": {"preset": 1}}, [], "model.preset", None),
    "unknown-preset": ("spectrum", {"model": {"preset": "nope"}}, [], "model.preset", None),
    **{f"model-without-{key}": ("spectrum", {"model": {k: v for k, v in _BOX_MODEL.items() if k != key}}, [],
                                f"model.{key}", f"model.{key}: missing required key")
       for key in ("kind", "units", "params")},
    "units-not-a-string": ("spectrum", {"model": {**_BOX_MODEL, "units": 1}}, [], "model.units", None),
    "unknown-units": ("spectrum", {"model": {**_BOX_MODEL, "units": "furlongs"}}, [], "model.units", None),
    "params-not-an-object": ("spectrum", {"model": {**_BOX_MODEL, "params": [1.0, 1.0]}}, [], "model.params",
                             "model.params: expected an object, got list"),
    "output-dir-not-a-string": ("spectrum", box_config(output_dir=3), [], "output_dir", None),
    **{f"n-range-{v!r}": ("criterion", box_config(n_range=v), [], "n_range", None)
       for v in ([2], [2, 3, 4], [2, 3.0], [True, 3], "2-3", {"lo": 2})},
    "n-range-reversed": ("criterion", box_config(n_range=[5, 3]), [], "n_range",
                         "n_range: hi must be >= lo, got [5, 3]"),
    "unknown-method": ("criterion", box_config(method="fast"), [], "method", None),
    "noise-not-an-object": ("noise", box_config(noise="x"), [], "noise", "noise: expected an object, got str"),
    "protocol-not-an-object": ("simulate", box_config(protocol=[10]), [], "protocol",
                               "protocol: expected an object, got list"),
    "param-refused-by-the-model": ("spectrum", {"model": {**_BOX_MODEL, "params": {"mass": 0, "width": 1.0}}}, [],
                                   "model.params", "model.params: box: mass must be a positive finite number, got 0.0"),
    **{f"seed-option-{v}": ("noise", box_config(), ["--seed", str(v)], "seed",
                            f"seed: must be in [0, 18446744073709551615], got {v}") for v in (-1, 2**64)},
}


@pytest.mark.parametrize("sub, doc, extra, path, message", _REFUSALS.values(), ids=_REFUSALS)
def test_config_refusal_exits_2_with_its_path(tmp_path, capsys, sub, doc, extra, path, message):
    out = tmp_path / "out"
    assert main([sub, "--config", write_config(tmp_path, doc), "--out", str(out), *extra]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])["error"]
    assert (err["type"], err["path"]) == ("ConfigError", path)
    if message is not None:
        assert err["message"] == message
    assert not out.exists()


def test_computation_error_exits_3(tmp_path, capsys):
    # simulate on a harmonic model hits the degenerate-period error
    doc = {"model": {"kind": "harmonic", "units": "oscillator",
                     "params": {"mass": 1.0, "stiffness": 1.0}}}
    cfg = write_config(tmp_path, doc)
    rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"]["type"] == "DegeneratePeriodError"


@pytest.mark.parametrize("params", [{"mass": 1e-300, "width": 1e-300}, {"mass": 1.0, "width": 1e-200}])
def test_closed_form_outside_the_float_range_exits_3_typed(tmp_path, capsys, params):
    # m width^2 is 1e-900 or 1e-400, so t1 = 2 m width^2 / pi underflows to 0 and E_1 = pi / t1 overflows
    doc = {"model": {"kind": "box", "units": "natural-box", "params": params}}
    rc = main(["report", "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "out")])
    assert rc == 3
    err = json.loads(capsys.readouterr().err.strip())["error"]
    assert err == {"type": "FloatRangeError",
                   "message": "box: energy at n=1 leaves the float range (the scale t1 is 0.0)"}


@pytest.mark.parametrize("sub", ["spectrum", "criterion", "report"])
def test_closed_form_that_underflows_exits_3_typed(tmp_path, capsys, sub):
    # E_1 of this box is subnormal, 4.93e-310, as t1 = 2 m a^2 / pi overflows; criterion and report used to
    # divide by such a value
    doc = {"model": {"kind": "box", "units": "natural-box", "params": {"mass": 1e300, "width": 1e5}}}
    rc = main([sub, "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "out")])
    assert rc == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])["error"]
    assert err["type"] == "FloatRangeError"
    assert err["message"] == "box: energy at n=1 leaves the float range (the scale t1 is inf)"
    # E_1 of a box of mass 1e260 is 4.93e-260, a normal float: it was 0 when the forms ran in SI
    doc["model"]["params"] = {"mass": 1e260, "width": 1.0}
    out = tmp_path / "heavy"
    assert main([sub, "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
    rows = read_csv(out / ("spectrum.csv" if sub != "criterion" else "criterion.csv"))
    assert rows[1][:2] == (["1", "4.93480220054e-260"] if sub != "criterion" else ["2", "1.97392088022e-259"])


def _table_model(mass, x, u):
    return {"kind": "numeric", "units": "si", "params": {"mass": mass, "x": x, "u": u}}


# Configs whose values pass the JSON checks but leave the float range somewhere in the engine.
_CRAFTED_MODELS = {
    # zeta = 2 D / (hbar omega): the SI mass underflows to 0
    "morse-zeta": {"kind": "morse", "units": "molecular", "params": {"mass": 1e-300, "depth": 1e300, "range": 1e300}},
    "table-x-span": _table_model(1.0, [-1e308, 0.0, 1e308], [1.0, 0.0, 1.0]),
    "table-u-range": _table_model(1.0, [-1.0, 0.0, 1.0], [1e308, -1e308, 1e308]),
    "table-top-action": _table_model(1e300, [0.0, 1e100, 2e100], [1e100, 0.0, 1e100]),  # the action is inf
    "table-quadrature": _table_model(1.0, [0.0, 1e300, 2e300], [1e300, 0.0, 1e300]),  # s^2 overflows in a piece
    "table-wide": _table_model(1.0, [-0.8e308, 0.0, 0.8e308], [1.0, 0.0, 1.0]),  # the PCHIP weights overflow
}
_LEVEL_SUBCOMMANDS = ("spectrum", "criterion", "simulate", "report")
_XS13 = [-3.0 + 0.5 * i for i in range(13)]
# Ladders with one level or none and so no level pair: the criterion subcommands' default n_range has nothing
# to cover
_NO_PAIR_MODELS = {
    "morse-one-level": {"kind": "morse", "units": "natural-box", "params": {"mass": 1.0, "depth": 2.0, "range": 1.0}},
    "table-one-level": {"kind": "numeric", "units": "oscillator",
                        "params": {"mass": 1.0, "x": _XS13, "u": [min(x * x / 2, 1.0) for x in _XS13]}},
    # the well holds less than one quantum, so n_max is -1
    "table-no-level": {"kind": "numeric", "units": "oscillator",
                       "params": {"mass": 1.0, "x": [-1.0, 0.0, 1.0], "u": [0.1, 0.0, 0.1]}},
}
_CRAFTED = [
    *((f"{name}-{sub}", sub, {"model": model})
      for name, model in _CRAFTED_MODELS.items() for sub in _LEVEL_SUBCOMMANDS),
    *((f"{name}-noise", "noise", {"model": _CRAFTED_MODELS[name]})
      for name in ("morse-zeta", "table-x-span", "table-u-range")),
    *((f"noise-{dx:g}-{count}", "noise", box_config(noise={"delta_x": dx, "count": count}))
      for dx in (1e308, 1e200) for count in (10, 2500)),
    # the samples' squares stay finite, but not those 8 widths out in the normalization check
    ("noise-2e+153-10", "noise", box_config(noise={"delta_x": 2e153, "count": 10})),
    ("simulate-delta-t", "simulate", box_config(protocol={"delta_t": 1e308, "trials": 50})),
    # a JSON int past the float range, where the config reader used to raise OverflowError
    ("big-int-mass-criterion", "criterion",
     {"model": {"kind": "box", "units": "natural-box", "params": {"mass": 10**400, "width": 1.0}}}),
    ("big-int-delta-x-noise", "noise", box_config(noise={"delta_x": -10**400})),
    # integers that the config's open upper bounds take, past the bounds of the functions they reach
    ("big-int-count-noise", "noise", box_config(noise={"count": 10**100})),
    ("big-int-trials-simulate", "simulate", box_config(protocol={"trials": 10**100})),
    ("big-int-s-simulate", "simulate", box_config(protocol={"s": 10**400})),
    *((f"{name}-{sub}", sub, {"model": model})
      for name, model in _NO_PAIR_MODELS.items() for sub in _LEVEL_SUBCOMMANDS[1:]),
]


@pytest.mark.parametrize("sub, doc", [case[1:] for case in _CRAFTED], ids=[case[0] for case in _CRAFTED])
def test_crafted_config_exits_typed(tmp_path, capsys, sub, doc):
    # numpy warnings are errors under the test settings, so a warning would escape main as well
    rc = main([sub, "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1, captured.err
    err = json.loads(lines[0])["error"]
    assert issubclass(getattr(errors, err["type"]), errors.SpeclimitError)
    assert rc == (2 if err["type"] == "ConfigError" else 3)


@pytest.mark.parametrize("sub", _LEVEL_SUBCOMMANDS[1:])
@pytest.mark.parametrize("name", sorted(_NO_PAIR_MODELS))
def test_default_n_range_on_a_ladder_without_a_pair_names_no_range(tmp_path, capsys, name, sub):
    model = _NO_PAIR_MODELS[name]
    rc = main([sub, "--config", write_config(tmp_path, {"model": model}), "--out", str(tmp_path / "out")])
    err = json.loads(capsys.readouterr().err)["error"]
    assert rc == 3 and err == {"type": "OutOfRangeError",
                               "message": f"{model['kind']}: no level pairs at or above n = 1"}
    # its one level is still listed, and a table without a level writes the header alone
    assert main(["spectrum", "--config", write_config(tmp_path, {"model": model}), "--out", str(tmp_path / "s")]) == 0
    levels = [] if name == "table-no-level" else ["0"]
    assert [row[0] for row in read_csv(tmp_path / "s" / "spectrum.csv")] == ["n", *levels]


# an extreme hydrogenoid whose check once died in the root search with a ZeroDivisionError (a Brent step's
# denominator rounded to 0); whatever search places its levels must exit cleanly
_ZERO_STEP_HYDROGENOID = {
    "model": {"kind": "hydrogenoid", "units": "natural-box",
              "params": {"reduced_mass": 8.075016415089637e+246, "z": 3, "charge": 7205747691.101466}},
    "semiclassical_check": True, "n_limit": 2,
}


def test_semiclassical_check_whose_root_step_divides_by_zero_exits_cleanly(tmp_path):
    cfg, out = write_config(tmp_path, _ZERO_STEP_HYDROGENOID), tmp_path / "out"
    argv = ["spectrum", "--config", cfg, "--out", str(out)]
    proc = _run_probe(f"import sys; from speclimit.cli import main; sys.exit(main({argv!r}))")
    assert "Traceback" not in proc.stderr, proc.stderr
    if proc.returncode == 0:
        rows = read_csv(out / "spectrum.csv")
        assert rows[0] == ["n", "E_n", "tau_n", "E_semiclassical"] and len(rows) == 3
        for row in rows[1:]:  # the semiclassical levels are the closed forms' to the printed digits
            assert row[3] == row[1]
    else:
        lines = proc.stderr.splitlines()
        assert (proc.returncode, len(lines)) == (3, 1), proc.stderr
        assert issubclass(getattr(errors, json.loads(lines[0])["error"]["type"]), errors.SpeclimitError)


@pytest.mark.parametrize("below", [False, True])
def test_out_path_that_is_a_file_exits_2(tmp_path, capsys, below):
    taken = tmp_path / "taken"
    taken.write_text("")
    out = taken / "sub" if below else taken
    cfg = write_config(tmp_path, box_config(n_range=[2, 4]))
    assert main(["criterion", "--config", cfg, "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])["error"]
    assert (err["type"], err["path"]) == ("ConfigError", "output_dir")
    assert str(out) in err["message"]


def test_main_reuses_one_parser():
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["--version"])
    assert ei.value.code == 0
    assert capsys.readouterr().out.strip() == "speclimit 0.1.0 (schema 1)"


# -- spectrum -----------------------------------------------------------------


def test_spectrum_box_default_rows(tmp_path, capsys):
    cfg = write_config(tmp_path, box_config())
    out = tmp_path / "out"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv(out / "spectrum.csv")
    assert rows[0] == ["n", "E_n", "tau_n"]
    assert len(rows) == 11  # header + default n_limit 10
    assert float(rows[1][1]) == pytest.approx(math.pi**2 / 2, rel=1e-11)
    assert float(rows[2][2]) == pytest.approx(1 / math.pi, rel=1e-11)


def test_spectrum_harmonic_constant_period(tmp_path):
    doc = {"model": {"kind": "harmonic", "units": "oscillator",
                     "params": {"mass": 1.0, "stiffness": 1.0}}, "n_limit": 5}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv(out / "spectrum.csv")[1:]
    taus = {r[2] for r in rows}
    assert len(rows) == 5
    assert len(taus) == 1
    assert float(taus.pop()) == pytest.approx(2 * math.pi, rel=1e-11)


def test_spectrum_morse_stops_at_capacity(tmp_path):
    doc = {"model": {"preset": "morse-h2"}, "n_limit": 50}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv(out / "spectrum.csv")[1:]
    assert len(rows) == 9
    assert [r[0] for r in rows] == [str(n) for n in range(9)]
    assert all(float(r[1]) < 0 for r in rows)


def test_spectrum_semiclassical_column(tmp_path):
    cfg = write_config(tmp_path, box_config(n_limit=4, semiclassical_check=True))
    out = tmp_path / "out"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv(out / "spectrum.csv")
    assert rows[0] == ["n", "E_n", "tau_n", "E_semiclassical"]
    for row in rows[1:]:
        assert float(row[3]) == pytest.approx(float(row[1]), rel=1e-9)


# -- criterion ----------------------------------------------------------------


def test_criterion_box_outputs(tmp_path):
    cfg = write_config(tmp_path, box_config(n_range=[2, 20]))
    out = tmp_path / "out"
    assert main(["criterion", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv(out / "criterion.csv")
    assert rows[0] == ["n", "E_n", "tau_n", "dE", "dTau", "y_over_hbar", "resolvable"]
    by_n = {r[0]: r for r in rows[1:]}
    assert by_n["3"][6] == "true"
    assert by_n["4"][6] == "false"
    assert float(by_n["3"][5]) == pytest.approx(5 * math.pi / 24, rel=1e-11)
    summary = json.loads((out / "criterion_summary.json").read_text())
    assert summary["threshold"] == 4
    assert summary["regime"] == "crossover"


def test_criterion_y_curve_reference(tmp_path):
    cfg = write_config(tmp_path, box_config(n_range=[2, 6]))
    out = tmp_path / "out"
    assert main(["criterion", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv(out / "y_curve.csv")
    assert rows[0] == ["n", "y_over_hbar", "half"]
    assert all(r[2] == "0.5" for r in rows[1:])


def test_criterion_hydrogen_threshold_and_note(tmp_path):
    doc = {"model": {"preset": "hydrogen-atomic"}, "n_range": [2, 20]}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["criterion", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "criterion_summary.json").read_text())
    assert summary["threshold"] == 10
    assert any("n = 10" in note for note in summary["notes"])


def test_criterion_default_range_morse(tmp_path):
    doc = {"model": {"preset": "morse-h2"}}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["criterion", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv(out / "criterion.csv")[1:]
    assert [r[0] for r in rows] == [str(n) for n in range(1, 9)]
    summary = json.loads((out / "criterion_summary.json").read_text())
    assert summary["regime"] == "all-unresolvable"
    assert summary["max_y_over_hbar"] < 0.5


def test_criterion_bad_range_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, box_config(n_range=[1, 5]))
    rc = main(["criterion", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert json.loads(capsys.readouterr().err.strip())["error"]["path"] == "n_range"


# -- noise ---------------------------------------------------------------------


def test_noise_outputs(tmp_path):
    doc = {
        "model": {"kind": "harmonic", "units": "oscillator", "params": {"mass": 1.0, "stiffness": 1.0}},
        "noise": {"count": 5000},
        "seed": 5,
    }
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["noise", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "noise_summary.json").read_text())
    assert summary["product_over_hbar"] == pytest.approx(0.6, rel=0.05)
    assert summary["preparable"] is True
    assert summary["characteristic"]["all_within_3se"] is True
    assert summary["normalization_residual"] <= 1e-8
    assert summary["required_product"]["all_below_half"] is True
    ens = read_csv(out / "position_ensemble.csv")
    assert ens[0] == ["seed", "stream", "center", "sigma", "count"]
    assert ens[1][0] == "5"
    assert len(ens) == 3 + 5000
    grid = read_csv(out / "characteristic_check.csv")
    assert len(grid) == 21  # header + 20 grid points
    assert all(r[7] == "true" for r in grid[1:])
    products = read_csv(out / "required_product.csv")[1:]
    assert float(products[0][1]) == pytest.approx(1 / 8, abs=1e-9)
    assert float(products[1][1]) == pytest.approx(1 / 24, abs=1e-9)


def test_noise_box_has_no_required_product(tmp_path):
    doc = box_config(noise={"count": 2000})
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["noise", "--config", cfg, "--out", str(out)]) == 0
    assert not (out / "required_product.csv").exists()
    summary = json.loads((out / "noise_summary.json").read_text())
    assert "required_product" not in summary


# -- simulate --------------------------------------------------------------------


def test_simulate_box_sweep(tmp_path):
    cfg = write_config(tmp_path, box_config(n_range=[2, 12], seed=0))
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv(out / "sweep.csv")
    assert rows[0] == ["n", "tau_n", "d_prime", "bayes_error", "mc_resolvable",
                       "y_over_hbar", "criterion_resolvable"]
    assert len(rows) == 12
    summary = json.loads((out / "simulate_summary.json").read_text())
    assert summary["criterion_threshold"] == 4
    assert abs(summary["mc_crossover"] - 4) <= 1
    assert summary["crossover_within_one"] is True
    assert summary["protocol"]["delta_t_mode"] == "auto-saturating"


def test_simulate_protocol_echo(tmp_path):
    cfg = write_config(tmp_path, box_config(
        n_range=[2, 4], protocol={"s": 2, "trials": 500, "delta_t": 0.01}))
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "simulate_summary.json").read_text())
    assert summary["protocol"]["s"] == 2
    assert summary["protocol"]["trials"] == 500
    assert summary["protocol"]["delta_t"] == 0.01
    assert summary["protocol"]["delta_t_mode"] == "fixed"


# -- report ---------------------------------------------------------------------


def test_report_combined(tmp_path):
    cfg = write_config(tmp_path, box_config(n_range=[2, 12]))
    out = tmp_path / "out"
    assert main(["report", "--config", cfg, "--out", str(out)]) == 0
    for name in ("spectrum.csv", "criterion.csv", "y_curve.csv",
                 "criterion_summary.json", "report.json", "run_record.json"):
        assert (out / name).exists(), name
    rep = json.loads((out / "report.json").read_text())
    assert rep["threshold"] == 4
    assert rep["regime"] == "crossover"
    assert rep["level_count"] == 12


_XS13_WIDE = [-6.0 + i for i in range(13)]
# the four closed kinds' presets and a 13-knot table, with the first pair of each ladder
_REPORT_MODELS = {
    "box": ({"preset": "box-natural"}, 2),
    "harmonic": ({"preset": "harmonic-natural"}, 1),
    "hydrogenoid": ({"preset": "hydrogen-atomic"}, 2),
    "morse": ({"preset": "morse-h2"}, 1),
    "table13": ({"kind": "numeric", "units": "oscillator",
                 "params": {"mass": 1.0, "x": _XS13_WIDE, "u": [x * x / 2 for x in _XS13_WIDE]}}, 1),
}
_REPORT_METHODS = [(name, method) for name in _REPORT_MODELS for method in ("auto", "closed", "semiclassical")
                   if not (name == "table13" and method == "closed")]


# n_limit 3 lists levels the criterion holds, 12 lists more than it holds (all 9 of morse-h2's)
@pytest.mark.parametrize("n_limit", [3, 12])
@pytest.mark.parametrize("name, method", _REPORT_METHODS)
def test_report_spectrum_is_the_spectrum_commands(tmp_path, name, method, n_limit):
    # the report's spectrum takes the levels classify made where it used the spectrum's method (auto), and computes
    # the others; under semiclassical a closed kind's spectrum still lists its closed forms
    model, first = _REPORT_MODELS[name]
    doc = {"model": model, "n_limit": n_limit}
    report = write_config(tmp_path, {**doc, "n_range": [first, 6], "method": method}, "report.json")
    assert main(["report", "--config", report, "--out", str(tmp_path / "report")]) == 0
    assert main(["spectrum", "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "spectrum")]) == 0
    want = (tmp_path / "spectrum" / "spectrum.csv").read_bytes()
    assert (tmp_path / "report" / "spectrum.csv").read_bytes() == want


def test_report_computes_each_level_once(tmp_path, monkeypatch):
    from speclimit import criterion

    calls, energy_level = [], criterion.energy_level

    def counted(model, n):
        calls.append(n)
        return energy_level(model, n)

    monkeypatch.setattr(criterion, "energy_level", counted)
    cfg = write_config(tmp_path, box_config(n_range=[2, 8], n_limit=12))
    assert main(["report", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert calls == [*range(1, 9), *range(9, 13)]  # the criterion's levels, then the spectrum's others


def test_report_whose_criterion_fails_writes_nothing(tmp_path, capsys):
    # classify comes first, so a range past a short ladder stops the run before spectrum.csv is written
    cfg = write_config(tmp_path, {"model": _NO_PAIR_MODELS["morse-one-level"], "n_range": [1, 3]})
    assert main(["report", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "OutOfRangeError"
    assert list((tmp_path / "out").iterdir()) == []


# -- precedence and the run record ---------------------------------------------


def test_seed_precedence_cli_over_config(tmp_path):
    doc = box_config(noise={"count": 100}, seed=1)
    doc["model"] = {"kind": "harmonic", "units": "oscillator", "params": {"mass": 1.0, "stiffness": 1.0}}
    cfg = write_config(tmp_path, doc)
    out1, out2, out3 = (tmp_path / d for d in ("o1", "o2", "o3"))
    assert main(["noise", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["noise", "--config", cfg, "--out", str(out2), "--seed", "1"]) == 0
    assert main(["noise", "--config", cfg, "--out", str(out3), "--seed", "2"]) == 0
    ens1 = (out1 / "position_ensemble.csv").read_bytes()
    ens2 = (out2 / "position_ensemble.csv").read_bytes()
    ens3 = (out3 / "position_ensemble.csv").read_bytes()
    assert ens1 == ens2  # config seed 1 == explicit seed 1
    assert ens1 != ens3


def test_out_dir_precedence(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, box_config(output_dir=str(tmp_path / "from-config")))
    assert main(["spectrum", "--config", cfg]) == 0
    assert (tmp_path / "from-config" / "spectrum.csv").exists()
    monkeypatch.setenv("SPECLIMIT_OUT", str(tmp_path / "from-env"))
    assert main(["spectrum", "--config", cfg]) == 0
    assert (tmp_path / "from-env" / "spectrum.csv").exists()
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "from-flag")]) == 0
    assert (tmp_path / "from-flag" / "spectrum.csv").exists()


_MANIFEST_RUNS = {
    "spectrum": (box_config(n_limit=5), {"spectrum.csv"}),
    "criterion": (box_config(n_range=[2, 6]), {"criterion.csv", "y_curve.csv", "criterion_summary.json"}),
    "noise": (box_config(noise={"count": 500}, seed=4),
              {"position_ensemble.csv", "momentum_ensemble.csv", "characteristic_check.csv", "noise_summary.json"}),
    "simulate": (box_config(n_range=[2, 4], protocol={"trials": 200}), {"sweep.csv", "simulate_summary.json"}),
    "report": (box_config(n_range=[2, 6]),
               {"spectrum.csv", "criterion.csv", "y_curve.csv", "criterion_summary.json", "report.json"}),
}


def test_run_record_manifest(tmp_path):
    for sub, (doc, names) in _MANIFEST_RUNS.items():
        cfg = write_config(tmp_path, doc, f"{sub}.json")
        out = tmp_path / sub
        assert main([sub, "--config", cfg, "--out", str(out)]) == 0
        text = (out / "run_record.json").read_text()
        record = json.loads(text)
        assert (record["tool"], record["schema"], record["analysis"]) == ("speclimit", "1", sub)
        assert record["seed"] == doc.get("seed", 0)
        assert {e["name"] for e in record["outputs"]} == names
        assert {p.name for p in out.iterdir()} == names | {"run_record.json"}
        for entry in record["outputs"]:
            data = (out / entry["name"]).read_bytes()
            assert entry["sha256"] == hashlib.sha256(data).hexdigest(), (sub, entry["name"])
            assert entry["bytes"] == len(data), (sub, entry["name"])
        # the stdlib's own dump of the record, timestamps aside, is the file
        del record["started_utc"], record["finished_utc"]
        stamps = ('  "started_utc": ', '  "finished_utc": ')
        assert json.dumps(record, indent=2, sort_keys=True) + "\n" == "".join(
            line for line in text.splitlines(keepends=True) if not line.startswith(stamps))


def test_ensemble_csvs_are_written_once_with_the_bytes_of_to_csv(tmp_path):
    from speclimit.noise import sample_ensemble

    doc = box_config(seed=6, noise={"count": 300, "delta_x": 0.7})
    out = tmp_path / "out"
    assert main(["noise", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
    entries = {e["name"]: e for e in json.loads((out / "run_record.json").read_text())["outputs"]}
    for stream, (name, center, sigma) in enumerate((("position_ensemble.csv", 2.0, 0.7),
                                                    ("momentum_ensemble.csv", -1.0, 1.2))):
        ens = sample_ensemble(center, sigma, 300, 6, stream)
        ens.to_csv(tmp_path / name)
        data = (tmp_path / name).read_bytes()
        assert (out / name).read_bytes() == data == ens.csv_text().encode()
        assert entries[name] == {"name": name, "sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def test_adopt_registers_a_written_file_as_put_does(tmp_path):
    w = cli.OutputWriter(tmp_path)
    w._put("put.txt", "one\ntwo\n")
    (tmp_path / "adopted.txt").write_bytes(b"one\ntwo\n")
    w.adopt("adopted.txt")
    put, adopted = w.entries
    assert {**adopted, "name": "put.txt"} == put


def test_run_record_config_reruns_the_run(tmp_path):
    # echoed at 12 digits, the center read back as 7205747691.1 and every outcome moved
    doc = box_config(seed=3, noise={"count": 200, "position_center": 7205747691.101466, "delta_x": 0.1234567890123456})
    first, again = tmp_path / "first", tmp_path / "again"
    assert main(["noise", "--config", write_config(tmp_path, doc), "--out", str(first)]) == 0
    record = json.loads((first / "run_record.json").read_text())
    assert record["config"] == doc
    replay = write_config(tmp_path, record["config"], "replay.json")
    assert main(["noise", "--config", replay, "--out", str(again)]) == 0
    assert json.loads((again / "run_record.json").read_text())["outputs"] == record["outputs"]


def test_rerun_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path, box_config(n_range=[2, 8], seed=9))
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
    rec1 = json.loads((out1 / "run_record.json").read_text())
    rec2 = json.loads((out2 / "run_record.json").read_text())
    assert rec1["outputs"] == rec2["outputs"]
    for entry in rec1["outputs"]:
        assert (out1 / entry["name"]).read_bytes() == (out2 / entry["name"]).read_bytes()


def test_numeric_spectrum_check_quantizes_each_level_once(tmp_path, monkeypatch, placed_levels):
    xs = [0.25 * i for i in range(-16, 17)]
    doc = {"model": {"kind": "numeric", "units": "oscillator",
                     "params": {"mass": 1.0, "x": xs, "u": [0.5 * x * x for x in xs]}},
           "n_limit": 6, "semiclassical_check": True}
    assert main(["spectrum", "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "out")]) == 0
    monkeypatch.undo()
    assert placed_levels == collections.Counter(range(6))
    rows = read_csv(tmp_path / "out" / "spectrum.csv")
    assert rows[0] == ["n", "E_n", "tau_n", "E_semiclassical"]
    # for a numeric well the column repeats E_n: both come from the same quantization
    assert len(rows) == 7 and all(r[3] == r[1] for r in rows[1:])


def _table_model():
    xs = [0.5 * i for i in range(-16, 17)]
    return sl.numeric(1.0, xs, [0.5 * x * x for x in xs])


def _spectrum_check(tmp_path):
    doc = {"model": {"preset": "morse-h2"}, "n_limit": 6, "semiclassical_check": True}
    assert main(["spectrum", "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("run, levels", [
    (lambda tmp_path: sl.classify(_table_model(), (2, 5)), 5),  # levels 1 to 5
    (lambda tmp_path: sl.consistency_sweep(_table_model(), (2, 5), sl.PeriodProtocol(trials=100)), 5),
    (_spectrum_check, 6),  # the closed kind's column of levels 0 to 5
], ids=["classify-table", "sweep-table", "spectrum-check-morse"])
def test_each_level_is_searched_for_once(tmp_path, monkeypatch, newton_searches, run, levels):
    # one driver places a run's levels: it reads each level's energy, and the well keeps the pass its period is read
    # from, so no level's search is run a second time
    run(tmp_path)
    monkeypatch.undo()
    assert sorted(newton_searches.values()) == [1] * levels


_SCIPY_PROBE = """
import contextlib, io, json, sys, tempfile
from pathlib import Path
from speclimit import cli, errors

def run(sub, doc):
    cfg = Path(tempfile.mkdtemp())
    (cfg / "c.json").write_text(json.dumps(doc))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main([sub, "--config", str(cfg / "c.json"), "--out", str(cfg / "out")])

extra = {"noise": {"noise": {"count": 50}}, "simulate": {"protocol": {"trials": 20}}}
failed = {}
for preset in ("box-natural", "harmonic-natural", "hydrogen-atomic", "morse-h2"):
    for sub in ("spectrum", "criterion", "noise", "simulate", "report"):
        rc = run(sub, {"model": {"preset": preset}, **extra.get(sub, {})})
        if rc:
            failed[f"{sub} {preset}"] = rc
xs = [-4.0 + 0.5 * i for i in range(17)]
table = {"kind": "numeric", "units": "oscillator", "params": {"mass": 1.0, "x": xs, "u": [0.5 * x * x for x in xs]}}
for sub, levels in (("spectrum", {"n_limit": 4, "semiclassical_check": True}), ("criterion", {"n_range": [1, 3]}),
                    ("simulate", {"n_range": [1, 3]}), ("report", {"n_range": [1, 3]})):
    rc = run(sub, {"model": table, **levels, **extra.get(sub, {})})
    if rc:
        failed[f"{sub} table"] = rc
scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps({"failed": failed, "scipy": scipy}))
"""


def _run_probe(code: str) -> subprocess.CompletedProcess:
    src = str(Path(__import__("speclimit").__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)


def test_no_scipy_module_loads():
    proc = _run_probe(_SCIPY_PROBE)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    # every subcommand on every preset and on a 17-knot table; harmonic simulate is period-degenerate
    assert got["failed"] == {"simulate harmonic-natural": 3}
    assert got["scipy"] == []


_NUMPY_PROBE = """
import contextlib, io, json, sys, tempfile
from pathlib import Path
import speclimit, speclimit.cli
from speclimit import cli, errors

def run(sub, doc):
    cfg = Path(tempfile.mkdtemp())
    (cfg / "c.json").write_text(json.dumps(doc))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main([sub, "--config", str(cfg / "c.json"), "--out", str(cfg / "out")])

after_import = "numpy" in sys.modules
failed = {}
for preset in ("box-natural", "harmonic-natural", "hydrogen-atomic", "morse-h2"):
    for sub in ("criterion", "report", "spectrum"):
        rc = run(sub, {"model": {"preset": preset}, "semiclassical_check": False} if sub != "criterion"
                 else {"model": {"preset": preset}})
        if rc:
            failed[f"{sub} {preset}"] = rc
after_closed = sorted(m for m in sys.modules if m.split(".")[0] == "numpy" or m in (
    "speclimit.noise", "speclimit.semiclassical", "speclimit.simulate", "speclimit.profiles"))
xs = [-4.0 + 0.5 * i for i in range(17)]
table = {"kind": "numeric", "units": "oscillator", "params": {"mass": 1.0, "x": xs, "u": [0.5 * x * x for x in xs]}}
for sub, doc in (("noise", {"model": {"preset": "box-natural"}, "noise": {"count": 50}}),
                 ("simulate", {"model": {"preset": "box-natural"}, "n_range": [2, 4], "protocol": {"trials": 20}}),
                 ("criterion", {"model": table, "n_range": [1, 3]})):
    rc = run(sub, doc)
    if rc:
        failed[f"{sub} after"] = rc
print(json.dumps({"after_import": after_import, "after_closed": after_closed, "failed": failed,
                  "numpy_at_end": "numpy" in sys.modules}))
"""


def test_closed_form_runs_load_no_numpy():
    proc = _run_probe(_NUMPY_PROBE)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got == {"after_import": False, "after_closed": [], "failed": {}, "numpy_at_end": True}


_EXPORTS_PROBE = """
import json, speclimit
names = {}
exec("from speclimit import *", names)
try:
    speclimit.no_such_name
    unknown = None
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps({"missing": [n for n in speclimit.__all__ if n not in names], "count": len(speclimit.__all__),
                  "distinct": len(set(speclimit.__all__)), "unknown": unknown}))
"""


def test_every_export_resolves_lazily():
    import speclimit as sl
    from speclimit import noise, semiclassical, simulate

    got = json.loads(_run_probe(_EXPORTS_PROBE).stdout)
    assert got == {"missing": [], "count": got["distinct"], "distinct": len(sl.__all__),
                   "unknown": "module 'speclimit' has no attribute 'no_such_name'"}
    assert all(getattr(sl, name) is not None for name in sl.__all__)
    assert (sl.sample_ensemble, sl.quantize, sl.consistency_sweep) == (
        noise.sample_ensemble, semiclassical.quantize, simulate.consistency_sweep)
    assert "FloatRangeError" in sl.__all__
    with pytest.raises(AttributeError, match="no attribute 'also_missing'"):
        sl.also_missing  # noqa: B018


def test_table_criterion_runs_with_scipy_blocked():
    # a None entry in sys.modules makes every import of scipy raise ImportError
    proc = _run_probe('import sys\nsys.modules["scipy"] = None\n' + _SCIPY_PROBE)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["failed"] == {"simulate harmonic-natural": 3}
