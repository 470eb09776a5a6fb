"""One sha256 over every data file a checkout writes for the first ops of a benchmark workload.

Run from the repository root:

    python3 tools/output_digest.py closed-form 1 400
    python3 tools/output_digest.py --root ../parent-checkout closed-form 1 400
    python3 tools/output_digest.py

With no workload it prints the five standard digests, one per line after
their workload, seed and count: numeric-table 1, 2 and 3 over 216 ops,
closed-form 1 over 400 and monte-carlo 1 over 300. Two checkouts' outputs
are then compared with one ``diff``.

It takes the first N ops of ``op_stream(workload, seed)`` from the
checkout's ``perfbench/bench_workloads.py`` and runs them against the
checkout's ``src/``:

* closed-form and monte-carlo ops go through ``speclimit.cli.main``, with
  the op's config and seed, as the benchmark runs them; every file the run
  writes is digested, ``run_record.json`` with the values of its two
  wall-clock times, ``started_utc`` and ``finished_utc``, masked;
* numeric-table ops go through ``classify(table, (n, n + 2))``, and the
  report's levels, gaps, threshold, regime and notes are digested as text,
  every float written as ``float.hex``.

An op that fails adds its exit code or error type instead. Two checkouts
whose outputs are byte-identical print the same digest. Nothing under
``perfbench/`` is changed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import itertools
import json
import re
import sys
import tempfile
from pathlib import Path


# the run record's wall-clock times, whose values the digest masks
_CLOCKS = re.compile(rb'("(?:started|finished)_utc": )"[^"]*"')


def _report_text(rep) -> str:
    """The classify report's numbers and verdicts, one line each, floats as hex."""
    lines = [f"level {n} {e.hex()} {tau.hex()}" for n, e, tau in rep.levels]
    lines += [f"gap {g.n} {g.dE.hex()} {g.dTau.hex()} {g.y_over_hbar.hex()} {g.resolvable}" for g in rep.gaps]
    lines += [f"threshold {rep.threshold}", f"regime {rep.regime}", *(f"note {s}" for s in rep.notes)]
    return "\n".join(lines) + "\n"


def digest(root: Path, workload: str, seed: int, count: int) -> str:
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    bw = importlib.import_module("bench_workloads")
    sl = importlib.import_module("speclimit")
    from speclimit import cli

    h = hashlib.sha256()

    def add(label: str, data: bytes):
        h.update(f"{label}\0{len(data)}\0".encode())
        h.update(data)

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for i, op in enumerate(itertools.islice(bw.op_stream(workload, seed), count)):
            if op["op"] == "table":
                try:
                    text = _report_text(sl.classify(sl.numeric(op["mass"], op["x"], op["u"]), (op["n"], op["n"] + 2)))
                except sl.SpeclimitError as exc:
                    text = f"error {type(exc).__name__}\n"
                add(f"{i}/classify", text.encode())
                continue
            config, out = work / "config.json", work / f"out-{i}"
            config.write_text(json.dumps(op["config"]))
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = cli.main([op["sub"], "--config", str(config), "--out", str(out), "--seed", str(op["seed"])])
            add(f"{i}/exit", f"{rc} {err.getvalue()}".encode())
            for path in sorted(out.iterdir()) if out.is_dir() else ():
                data = path.read_bytes()
                if path.name == "run_record.json":
                    data = _CLOCKS.sub(rb'\1"-"', data)
                add(f"{i}/{path.name}", data)
                path.unlink()
            if out.is_dir():
                out.rmdir()
    return h.hexdigest()


STANDARD = (("numeric-table", 1, 216), ("numeric-table", 2, 216), ("numeric-table", 3, 216),
            ("closed-form", 1, 400), ("monte-carlo", 1, 300))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", nargs="?", choices=("closed-form", "numeric-table", "monte-carlo"),
                    help="omit it, with seed and count, for the five standard digests")
    ap.add_argument("seed", type=int, nargs="?")
    ap.add_argument("count", type=int, nargs="?", help="number of ops, from the start of the stream")
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                    help="checkout whose src/ and perfbench/ are used (default: this one)")
    args = ap.parse_args(argv)
    root = args.root.resolve()
    if args.workload is None:
        for workload, seed, count in STANDARD:
            print(workload, seed, count, digest(root, workload, seed, count), flush=True)
    elif args.count is None:
        ap.error("a workload needs its seed and count")
    else:
        print(digest(root, args.workload, args.seed, args.count))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
