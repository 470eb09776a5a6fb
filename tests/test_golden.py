"""Every golden config reproduces its committed output files byte for byte."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_GOLDEN = Path(__file__).parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_regenerate", _GOLDEN / "regenerate.py")
regenerate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regenerate)


def _first_difference(got: bytes, want: bytes) -> str:
    """The first differing line of two files, golden then new, with its line number."""
    old, new = want.decode().splitlines(), got.decode().splitlines()
    for i, (a, b) in enumerate(zip(old, new), 1):
        if a != b:
            return f"line {i}:\n  golden: {a}\n  new:    {b}"
    i = min(len(old), len(new)) + 1
    return f"line {i}: golden has {len(old)} lines, new has {len(new)}"


def test_every_config_has_a_golden_directory():
    on_disk = {p.name for p in _GOLDEN.iterdir() if p.is_dir() and p.name != "__pycache__"}
    assert on_disk == set(regenerate.CONFIGS)


@pytest.mark.parametrize("name", sorted(regenerate.CONFIGS))
def test_golden_outputs(name, tmp_path):
    got = regenerate.run(name, tmp_path)
    want = {p.name: p.read_bytes() for p in (_GOLDEN / name).iterdir()}
    assert sorted(got) == sorted(want)
    for fname, data in want.items():
        assert got[fname] == data, f"{name}/{fname} differs from the golden file, first at " + _first_difference(
            got[fname], data)


@pytest.mark.parametrize("table", ["quartic25", "harmonic13"])
def test_report_integrates_each_level_period_once(table, tmp_path, monkeypatch):
    # report lists a spectrum and then classifies; the criterion's levels hold the spectrum's, and the well
    # keeps the passes that placed each level, so the report makes as many period quadratures as the criterion
    # alone; a period is counted at each energy, however it is integrated: alone or in a fused pass with the
    # action, and in a call for its energy alone or for several
    from speclimit import semiclassical

    energies, quadrature = [], semiclassical._quadrature

    def counted(profile, es, stages):
        if "period" in stages:
            energies.extend(es)
        return quadrature(profile, es, stages)

    monkeypatch.setattr(semiclassical, "_quadrature", counted)
    counts = {}
    for sub in ("criterion", "report"):
        energies.clear()
        doc = regenerate.CONFIGS[f"criterion-{table}"][1]
        monkeypatch.setitem(regenerate.CONFIGS, "counted", (sub, doc))
        (tmp_path / sub).mkdir()
        regenerate.run("counted", tmp_path / sub)
        assert len(energies) == len(set(energies))
        counts[sub] = len(energies)
    assert counts["report"] == counts["criterion"] > 8
