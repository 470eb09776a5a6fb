"""Benchmark summary of checkouts side by side, written as one JSON file.

Run from the repository root, naming each side and its checkout:

    python3 tools/bench_summary.py --out BENCH_12.json parent=../parent-checkout change=.

For seeds 1-3 and every workload it runs ``python3 perfbench/run.py
--workload W --seed S`` in each checkout, the sides taking turns so that a change in the
host's speed hits them alike, and reads the run's
``.perfbench-out/record-W-S-trace0.json``. Then, again taking turns, it makes
one traced run (``--trace 1``, seed 1) per workload and side and reads its
``record-W-1-trace1.json``. It then times a cold
``python -m speclimit`` five times on each config of
``tests/golden/regenerate.py`` (26 configs: every subcommand on every
preset, and the two tables), again taking turns. The file holds:

* ``machine``: nproc, CPU model, and the Python, numpy and scipy versions
  the records report;
* per side and workload, the median, q1 and q3 over seeds of perfbench's six
  end-to-end metrics, and the failed and attempted ops of every seed;
* per side and workload, the per-layer metrics of the traced run: calls, self
  and total time per op of each traced function, work counters, import time
  and tracing overhead;
* per side, the median wall time (s) of the cold runs of every config, with
  its exit code;
* per side, the median over five fresh processes, again taking turns, of the
  cumulative ``-X importtime`` of ``import speclimit.cli`` (s) and of the
  share of it that the ``numpy`` entry takes (0 when numpy is not imported);
* per side, the action quadratures, period quadratures and fused passes
  (one quadrature of both) per op over the first 108 ops of numeric-table
  seed 1 (``quadratures``: ``action_per_op``, ``period_per_op``,
  ``pass_per_op``), each counted once per energy integrated, whether a call
  of ``semiclassical._adaptive`` integrates that energy alone or with
  others; the integrand calls each kind makes per op, one per call however
  many energies it covers (``action_calls_per_op``, ``period_calls_per_op``,
  ``pass_calls_per_op``); the distinct levels, (model, n) pairs, that
  ``semiclassical._place`` is asked to place per op and the fused passes per
  placed level (``levels_per_op``, ``pass_per_level``); and the level
  searches started per op (``searches_per_op``), one per call of
  ``semiclassical._newton``. They are counted in a fresh process that
  imports that side's ``src/`` and wraps ``semiclassical._adaptive``, the
  integrand it is given, ``semiclassical._place`` and
  ``semiclassical._newton``; the ops run as perfbench runs them, untimed;
* per side, over the first 300 ops of monte-carlo seed 1 (``statistics``):
  the exact sums per op (``sums_per_op``), the splitting passes per exact
  sum (``passes_per_sum``), the sums per op whose certificate failed and
  that ran the fallback passes (``fallbacks_per_op``, null on a side without
  the certificate), and the Philox generators per op, in all and per
  subcommand (``philox_per_op``, ``philox_per_simulate_op``,
  ``philox_per_noise_op``). They are counted in a fresh process that
  imports that side's ``src/`` and wraps ``noise._exact_sum``,
  ``noise._resum`` and ``numpy.random.Philox``; a pass is an execution of
  the splitting statement ``q = (sigma + arr) - sigma``, counted by
  ``sys.settrace``. The ops run as perfbench runs them, untimed;
* per side, the size of ``src/``: its line count, as ``wc -l`` counts the
  ``.py`` files; its code lines, those that are not blank, a comment or part
  of a module, class or function docstring, in total and per module
  (``modules``, keyed by the path under ``src/``); and its well-kind
  branches, the lines that ``grep -cE 'kind ?(==|!=|in )'`` matches.
"""

from __future__ import annotations

import argparse
import ast
import importlib.util
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

WORKLOADS = ("closed-form", "numeric-table", "monte-carlo")
SEEDS = (1, 2, 3)
TRACE_SEED = 1
CLI_REPEATS = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
QUADRATURE_SEED, QUADRATURE_OPS = 1, 108
# argv: seed and op count; run with the side's src/ on the path and its root as the working directory
_COUNT_QUADRATURES = """
import itertools, json, sys
from collections import Counter
sys.path.insert(0, "perfbench")
import bench_workloads as bw
import speclimit as sl
from speclimit import semiclassical

counts, levels = Counter(), {}
adaptive, place, newton = semiclassical._adaptive, semiclassical._place, semiclassical._newton

def counted(f, *args):
    # a side's _adaptive takes (segments, stages, e) for one energy, or (groups, stages) with one group per
    # energy, (e, segments) or (e, segments, known outcomes); its quadrature is one stage ("action" or "period") or
    # a fused pass of both (a tuple)
    stages, energies = (args[1], 1) if len(args) == 3 else (args[1], len(args[0]))
    kind = {"action": "action", "period": "period"}.get(stages if isinstance(stages, str) else "+".join(stages),
                                                        "pass")
    counts[kind] += energies

    def call(theta, rows):
        counts[kind + "_calls"] += 1
        return f(theta, rows)

    return adaptive(call, *args)

def placed(model, ns, *args, **kwargs):
    ns = list(ns)
    levels.update(((id(model), n), model) for n in ns)  # each model held, so that no later model takes its id
    return place(model, ns, *args, **kwargs)

def searched(*args):
    counts["searches"] += 1
    return newton(*args)

semiclassical._adaptive, semiclassical._place, semiclassical._newton = counted, placed, searched
ops = list(itertools.islice(bw.op_stream("numeric-table", int(sys.argv[1])), int(sys.argv[2])))
for op in ops:
    try:
        sl.classify(sl.numeric(op["mass"], op["x"], op["u"]), (op["n"], op["n"] + 2))
    except sl.SpeclimitError:
        pass
print(json.dumps({"seed": int(sys.argv[1]), "ops": len(ops), "levels_per_op": len(levels) / len(ops),
                  "pass_per_level": counts["pass"] / len(levels),
                  **{key + "_per_op": counts[key] / len(ops)
                     for key in ("action", "period", "pass", "action_calls", "period_calls", "pass_calls",
                                 "searches")}}))
"""


STATISTICS_SEED, STATISTICS_OPS = 1, 300
# argv: seed and op count; run with the side's src/ on the path and its root as the working directory
_COUNT_STATISTICS = """
import itertools, json, sys, tempfile
from collections import Counter
from pathlib import Path
import numpy as np
sys.path.insert(0, "perfbench")
import bench_workloads as bw
import speclimit as sl
from speclimit import noise

counts, exact_sum, philox = Counter(), noise._exact_sum, np.random.Philox
# a splitting pass runs this statement once, on either side
split = {i for i, line in enumerate(Path(noise.__file__).read_text().splitlines(), 1)
         if line.strip() == "q = (sigma + arr) - sigma"}

def summed(arr):
    counts["sums"] += 1
    return exact_sum(arr)

def generator(*args, **kwargs):
    counts["philox"] += 1
    return philox(*args, **kwargs)

def lines(frame, event, arg):
    if event == "line" and frame.f_lineno in split:
        counts["passes"] += 1
    return lines

noise._exact_sum, np.random.Philox = summed, generator
certified = hasattr(noise, "_resum")  # a side without the certificate has no fallback
if certified:
    resum = noise._resum

    def fallback(*args):
        counts["fallbacks"] += 1
        return resum(*args)

    noise._resum = fallback
ops = list(itertools.islice(bw.op_stream("monte-carlo", int(sys.argv[1])), int(sys.argv[2])))
philox_by_sub = Counter()
with tempfile.TemporaryDirectory() as tmp:
    runner = bw.Runner(sl, Path(tmp))
    for i, op in enumerate(ops):
        prepared = runner.prepare(op, i)
        before = counts["philox"]
        sys.settrace(lambda frame, event, arg: lines if frame.f_code.co_filename == noise.__file__ else None)
        try:
            result = runner.execute(op, prepared)
        finally:
            sys.settrace(None)
        philox_by_sub[op["sub"]] += counts["philox"] - before
        runner.finish(op, prepared, result)
subs = Counter(op["sub"] for op in ops)
print(json.dumps({"seed": int(sys.argv[1]), "ops": len(ops), "sums_per_op": counts["sums"] / len(ops),
                  "passes_per_sum": counts["passes"] / counts["sums"],
                  "fallbacks_per_op": counts["fallbacks"] / len(ops) if certified else None,
                  "philox_per_op": counts["philox"] / len(ops),
                  **{f"philox_per_{sub}_op": philox_by_sub[sub] / subs[sub] for sub in sorted(subs)}}))
"""


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def side_env(root: Path) -> dict:
    """The environment of a child process that imports ``root``'s ``src/``, on one thread."""
    return {**os.environ, "PYTHONPATH": str(root / "src"), **{v: "1" for v in THREAD_VARS}}


def perfbench_record(root: Path, workload: str, seed: int, trace: int = 0) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    subprocess.run(cmd, cwd=root, check=True, stdout=subprocess.DEVNULL)
    return json.loads((root / ".perfbench-out" / f"record-{workload}-{seed}-trace{trace}.json").read_text())


def golden_configs(root: Path) -> dict:
    spec = importlib.util.spec_from_file_location("regenerate", root / "tests" / "golden" / "regenerate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.CONFIGS


def cold_cli(root: Path, sub: str, doc: dict) -> tuple[float, int]:
    """Wall time (s) and exit code of one fresh ``python -m speclimit`` on ``doc``."""
    env = side_env(root)
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(doc))
        cmd = [sys.executable, "-m", "speclimit", sub, "--config", str(config), "--out", str(Path(tmp) / "out")]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=tmp, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        return time.perf_counter() - t0, proc.returncode


def import_time(root: Path) -> tuple[float, float]:
    """Cumulative ``-X importtime`` (s) of ``import speclimit.cli`` in a fresh process, and numpy's share of it."""
    env = side_env(root)
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import speclimit.cli"],
                          env=env, cwd=root, capture_output=True, text=True, check=True)
    cumulative = {}  # microseconds by module, from lines "import time: self | cumulative | name"
    for line in proc.stderr.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[1].strip().isdigit():
            cumulative[fields[2].strip()] = int(fields[1])
    total = cumulative["speclimit.cli"]
    return total / 1e6, cumulative.get("numpy", 0) / total


def quadratures(root: Path) -> dict:
    """Quadratures by kind, their integrand calls and the levels placed, per numeric-table op of ``root``'s checkout.

    They are counted in a fresh process.
    """
    env = side_env(root)
    proc = subprocess.run([sys.executable, "-c", _COUNT_QUADRATURES, str(QUADRATURE_SEED), str(QUADRATURE_OPS)],
                          env=env, cwd=root, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def statistics_counts(root: Path) -> dict:
    """Exact sums, splitting passes, certificate fallbacks and Philox generators per monte-carlo op of ``root``.

    They are counted in a fresh process.
    """
    env = side_env(root)
    proc = subprocess.run([sys.executable, "-c", _COUNT_STATISTICS, str(STATISTICS_SEED), str(STATISTICS_OPS)],
                          env=env, cwd=root, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def code_lines(text: str) -> int:
    """Lines of Python source ``text`` that are not blank, a comment or part of a docstring."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(getattr(first.value, "value", None), str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    return sum(1 for i, line in enumerate(text.splitlines(), 1)
               if line.strip() and not line.lstrip().startswith("#") and i not in docstrings)


def source_size(root: Path) -> dict:
    """Line count, code line count, code lines per module and well-kind branch count of ``root/src``'s ``.py`` files."""
    texts = {f.relative_to(root / "src").as_posix(): f.read_text() for f in sorted((root / "src").rglob("*.py"))}
    lines = [line for text in texts.values() for line in text.splitlines()]
    modules = {name: code_lines(text) for name, text in texts.items()}
    return {"lines": len(lines), "code_lines": sum(modules.values()), "modules": modules,
            "kind_branches": sum(bool(re.search(r"kind ?(==|!=|in )", line)) for line in lines)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("sides", nargs="+", metavar="NAME=CHECKOUT")
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)
    sides = {name: Path(path).resolve() for name, path in (s.split("=", 1) for s in args.sides)}

    records = {name: {w: [] for w in WORKLOADS} for name in sides}
    for seed in SEEDS:
        for workload in WORKLOADS:
            for name, root in sides.items():
                print(f"perfbench {name} {workload} seed {seed}", file=sys.stderr, flush=True)
                records[name][workload].append(perfbench_record(root, workload, seed))
    traced = {name: {} for name in sides}
    for workload in WORKLOADS:
        for name, root in sides.items():
            print(f"perfbench {name} {workload} seed {TRACE_SEED} traced", file=sys.stderr, flush=True)
            traced[name][workload] = perfbench_record(root, workload, TRACE_SEED, trace=1)

    configs = {name: golden_configs(root) for name, root in sides.items()}
    walls = {name: {config: [] for config in configs[name]} for name in sides}
    codes = {name: {} for name in sides}
    for _ in range(CLI_REPEATS):
        for config in next(iter(configs.values())):
            for name, root in sides.items():
                sub, doc = configs[name][config]
                wall, codes[name][config] = cold_cli(root, sub, doc)
                walls[name][config].append(wall)
    imports = {name: [] for name in sides}
    for _ in range(CLI_REPEATS):
        for name, root in sides.items():
            imports[name].append(import_time(root))

    first = records[next(iter(sides))][WORKLOADS[0]][0]
    versions = first["loop"]["versions"]
    summary = {
        "machine": {"nproc": first["machine"]["nproc"], "cpu": first["machine"]["cpu"], **versions},
        "seeds": SEEDS,
        "trace_seed": TRACE_SEED,
        "sides": {},
    }
    for name in sides:
        workloads = {}
        for workload, recs in records[name].items():
            metrics = {m: {**quartiles([r["metrics"][m]["value"] for r in recs]), "unit": recs[0]["metrics"][m]["unit"]}
                       for m in recs[0]["metrics"]}
            failed = {str(r["seed"]): {"failed": r["failed"], "attempted": r["attempted"]} for r in recs}
            workloads[workload] = {"metrics": metrics, "failed_ops": failed,
                                   "per_layer": traced[name][workload]["metrics"]}
        cli = {config: {"wall_s": statistics.median(ws), "exit": codes[name][config]}
               for config, ws in walls[name].items()}
        seconds, shares = zip(*imports[name])
        summary["sides"][name] = {"workloads": workloads, "cli_cold": cli, "src": source_size(sides[name]),
                                  "quadratures": quadratures(sides[name]),
                                  "statistics": statistics_counts(sides[name]),
                                  "import_cli": {"cumulative_s": statistics.median(seconds),
                                                 "numpy_share": statistics.median(shares)}}
    args.out.write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
