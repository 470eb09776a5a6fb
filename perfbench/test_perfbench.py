"""Tests of the benchmark itself: op lists, result checks, span arithmetic."""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import bench_workloads as bw  # noqa: E402
from bench_tracing import Tracer, self_times  # noqa: E402
from run import END_TO_END, per_layer_units  # noqa: E402


@pytest.mark.parametrize("workload", bw.WORKLOADS)
def test_same_seed_same_op_list(workload):
    a = bw.op_list_digest(sum(bw.build_ops(workload, 7)[:2], []))
    b = bw.op_list_digest(sum(bw.build_ops(workload, 7)[:2], []))
    c = bw.op_list_digest(sum(bw.build_ops(workload, 8)[:2], []))
    assert a == b != c


@pytest.mark.parametrize("workload", bw.WORKLOADS)
def test_ops_past_the_list_are_fresh_and_seeded(workload):
    warm, timed, stream = bw.build_ops(workload, 7)
    more = list(itertools.islice(stream, 20))
    assert more == list(itertools.islice(bw.build_ops(workload, 7)[2], 20))
    seen = {bw.op_list_digest([op]) for op in warm + timed + more}
    assert len(seen) == len(warm) + len(timed) + len(more)


def test_digits_match_rejects_one_digit():
    ref = bw.y_box(3)  # 5 pi / 24
    printed = float(format(ref, ".12g"))
    assert bw.digits_match(printed, ref)
    last = 10.0 ** (int(f"{ref:e}".split("e")[1]) - 11)
    assert not bw.digits_match(printed + last, ref)
    assert not bw.digits_match(printed - last, ref)
    assert not bw.digits_match(float(format(ref, ".12g").replace("654", "655", 1)), ref)


def _rewrite_manifest(out: Path):
    record = json.loads((out / "run_record.json").read_text())
    for entry in record["outputs"]:
        data = (out / entry["name"]).read_bytes()
        entry.update(sha256=hashlib.sha256(data).hexdigest(), bytes=len(data))
    (out / "run_record.json").write_text(json.dumps(record))


def _perturb_y(out: Path, row: int, digit: int):
    """Change one significant digit of one printed y/hbar value."""
    path = out / "criterion.csv"
    lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    text = cells[5]
    positions = [i for i, ch in enumerate(text) if ch.isdigit()]
    significant = [i for i in positions if text[: i + 1].strip("0.-") != ""]
    i = significant[digit]
    cells[5] = text[:i] + str((int(text[i]) + 5) % 10) + text[i + 1:]
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture
def box_run(tmp_path):
    from speclimit import cli

    op = {"op": "cli", "sub": "criterion", "seed": 0,
          "config": {"model": {"kind": "box", "units": "molecular", "params": {"mass": 1.7, "width": 0.6}},
                     "n_range": [2, 12]}}
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(op["config"]))
    out = tmp_path / "out"
    assert cli.main(["criterion", "--config", str(cfg), "--out", str(out)]) == 0
    return op, out


def test_checker_accepts_a_correct_result(box_run):
    op, out = box_run
    assert bw.check_cli(op, out) > 0


@pytest.mark.parametrize("digit", [0, 5, -1])
def test_checker_rejects_one_perturbed_digit(box_run, digit):
    op, out = box_run
    _perturb_y(out, 3, digit)
    _rewrite_manifest(out)
    with pytest.raises(bw.WrongResult, match="y/hbar"):
        bw.check_cli(op, out)


def test_checker_rejects_a_stale_manifest(box_run):
    op, out = box_run
    _perturb_y(out, 3, -1)
    with pytest.raises(bw.WrongResult, match="sha256|size"):
        bw.check_cli(op, out)


@pytest.fixture(scope="module")
def table_run():
    import speclimit as sl

    op = bw.gen_numeric_table(random.Random(3), "quartic", 2)
    return op, sl.classify(sl.numeric(op["mass"], op["x"], op["u"]), (2, 4))


def test_table_checker_accepts_the_engine(table_run):
    bw.check_table(*table_run)


@pytest.mark.parametrize("field", [1, 2])
def test_table_checker_rejects_a_shifted_level_or_period(table_run, field):
    op, rep = table_run
    levels = [list(level) for level in rep.levels]
    levels[1][field] *= 1.02
    with pytest.raises(bw.WrongResult, match=["E_", "tau_"][field - 1]):
        bw.check_table(op, dataclasses.replace(rep, levels=tuple(map(tuple, levels))))


def test_table_checker_rejects_a_wrong_y(table_run):
    op, rep = table_run
    gaps = (dataclasses.replace(rep.gaps[0], y_over_hbar=1.5 * rep.gaps[0].y_over_hbar),) + rep.gaps[1:]
    with pytest.raises(bw.WrongResult, match="y/hbar"):
        bw.check_table(op, dataclasses.replace(rep, gaps=gaps))


def test_self_times_on_a_hand_built_tree():
    # a [0, 100] holds b [10, 40] and c [50, 90]; b holds a [20, 25]; d [200, 210] is a root
    spans = [
        ("a", 0, 100, -1),
        ("b", 10, 40, 0),
        ("a", 20, 25, 1),
        ("c", 50, 90, 0),
        ("d", 200, 210, -1),
    ]
    assert self_times(spans) == {
        "a": [2, 105, 30 + 5],
        "b": [1, 30, 25],
        "c": [1, 40, 40],
        "d": [1, 10, 10],
    }


def test_tracer_sees_calls_inside_the_package_and_restores():
    import speclimit as sl
    from speclimit import criterion, models

    original = models.energy_level
    tracer = Tracer()
    tracer.enable()
    assert criterion.energy_level is not original
    sl.classify(sl.box(1.0, 1.0), (2, 6))
    tracer.disable()
    assert criterion.energy_level is original and models.energy_level is original
    m = tracer.metrics()
    assert m["criterion.classify.calls"] == 1
    assert m["models.energy_level.calls"] == 6  # levels 1..6, called from inside classify
    assert m["criterion.level_gap.calls"] == 5
    assert m["semiclassical.quantize.calls"] == 0
    assert m["criterion.classify.total_ms"] >= m["criterion.classify.self_ms"] >= 0
    assert m["units.conversions"] > 0


def test_tracer_covers_modules_imported_later(monkeypatch):
    import types

    from speclimit import models

    original = models.energy_level
    tracer = Tracer()
    late = types.ModuleType("speclimit._late")
    late.energy_level = original  # a module imported after the tracer was built
    monkeypatch.setitem(sys.modules, "speclimit._late", late)
    tracer.enable()
    assert late.energy_level is not original
    during = types.ModuleType("speclimit._during")
    during.energy_level = models.energy_level  # bound the wrapper while tracing was on
    monkeypatch.setitem(sys.modules, "speclimit._during", during)
    tracer.disable()
    assert late.energy_level is original and during.energy_level is original


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_units()
    assert {w["name"] for w in spec["workloads"]} == set(bw.WORKLOADS)
