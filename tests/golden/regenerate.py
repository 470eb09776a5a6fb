"""Golden outputs of the speclimit command line: the config matrix and its writer.

``CONFIGS`` maps a directory name under tests/golden/ to one subcommand and
its JSON config: every subcommand on every preset, a 25-knot quartic table
and the 13-knot u = x^2/2 table. ``run`` executes one config through
``speclimit.cli.main`` in a scratch directory and returns every data file it
wrote, keyed by name; ``run_record.json`` is left out because it carries
timestamps. A run that exits non-zero also returns ``exit.json``, holding
the exit code and the stderr error payload.

tests/test_golden.py reruns the matrix and compares each file byte for
byte. A change that moves golden bytes on purpose reruns this script and
lists the moved digits in CHANGES.md:

    PYTHONPATH=src python tests/golden/regenerate.py
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
PRESETS = ("box-natural", "harmonic-natural", "hydrogen-atomic", "morse-h2")


def _table(x0: float, x1: float, knots: int, u) -> dict:
    xs = [x0 + (x1 - x0) * i / (knots - 1) for i in range(knots)]
    return {"kind": "numeric", "units": "oscillator", "params": {"mass": 1.0, "x": xs, "u": [u(x) for x in xs]}}


QUARTIC_25 = _table(-4.0, 4.0, 25, lambda x: 0.5 * x * x + 0.1 * x**4)
HARMONIC_13 = _table(-6.0, 6.0, 13, lambda x: 0.5 * x * x)


def _preset_configs() -> dict:
    out = {}
    for preset in PRESETS:
        model = {"preset": preset}
        out[f"spectrum-{preset}"] = ("spectrum", {"model": model, "semiclassical_check": True})
        out[f"criterion-{preset}"] = ("criterion", {"model": model})
        out[f"noise-{preset}"] = ("noise", {"model": model, "seed": 11, "noise": {"count": 500}})
        out[f"simulate-{preset}"] = ("simulate", {"model": model, "seed": 5, "protocol": {"trials": 200}})
        out[f"report-{preset}"] = ("report", {"model": model})
    return out


CONFIGS = {
    **_preset_configs(),
    "spectrum-quartic25": ("spectrum", {"model": QUARTIC_25, "n_limit": 8, "semiclassical_check": True}),
    "criterion-quartic25": ("criterion", {"model": QUARTIC_25, "n_range": [1, 10]}),
    "report-quartic25": ("report", {"model": QUARTIC_25, "n_range": [2, 8]}),
    "simulate-quartic25": ("simulate", {"model": QUARTIC_25, "n_range": [2, 6], "seed": 7,
                                        "protocol": {"trials": 200}}),
    "criterion-harmonic13": ("criterion", {"model": HARMONIC_13}),
    "report-harmonic13": ("report", {"model": HARMONIC_13}),
}


def run(name: str, workdir: Path) -> dict[str, bytes]:
    """Run one config in ``workdir``; return its data files (and exit.json on failure)."""
    from speclimit import cli

    sub, doc = CONFIGS[name]
    config, out = workdir / "config.json", workdir / "out"
    config.write_text(json.dumps(doc))
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = cli.main([sub, "--config", str(config), "--out", str(out)])
    files = {p.name: p.read_bytes() for p in out.glob("*") if p.name != "run_record.json"}
    if code != 0:
        payload = {"exit": code, "stderr": json.loads(stderr.getvalue())}
        files["exit.json"] = (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()
    return files


def main() -> int:
    for name in CONFIGS:
        with tempfile.TemporaryDirectory() as tmp:
            files = run(name, Path(tmp))
        target = GOLDEN / name
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir()
        for fname, data in files.items():
            (target / fname).write_bytes(data)
        print(f"{name}: {', '.join(sorted(files))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
