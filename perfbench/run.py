"""speclimit benchmark: CPU-timed workloads with every result checked.

Run from the repository root:

    python3 perfbench/run.py --workload closed-form --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # every workload in turn

Workloads (bench_workloads.py): ``closed-form``, ``numeric-table`` and
``monte-carlo``. Each run starts one fresh workload process (bench_loop.py)
with BLAS/OpenMP thread counts pinned to 1 and the process pinned to one
CPU. It times in CPU time, so steal and scheduling do not count as program
cost, and scales each time by a calibration kernel run next to it, so a
neighbour slowing the shared core does not count either (see bench_loop.py).

* ``ops_per_cpu_s``, ``op_p50_ms``, ``op_p90_ms``: per-op time of the timed
  loop (closed, one client, ops generated from ``--seed`` outside the timed
  calls, none run twice);
* ``peak_rss_mib``: the workload process's ``ru_maxrss``;
* ``setup_s``: a fresh interpreter importing speclimit and building the
  workload's op list, median of the probes spread over the loop;
* ``cold_run_s``: one fresh ``python -m speclimit`` on the workload's
  representative config, median of the cold runs spread over the loop.

With ``--trace 1`` the run reports per-layer metrics instead: per-op calls,
self and total time of the package's public functions from a traced loop
(every second op), ``-X importtime`` figures, the share of engine errors
and the tracing overhead.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` (ops that raised SpeclimitError) and ``metrics``.
A wrong result exits 1; a missing package or a crashed child exits 2
without that line. Each run also writes its full record (metrics, raw
samples, failures by type, machine, steal ticks and wall time) to
``.perfbench-out/record-<workload>-<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

import bench_workloads as bw
from bench_loop import CAL_REF_NS
from bench_probes import ChildFailed, child_env, exit_on_sigterm, import_times, spawn

IMPORT_REPEATS = 3
HERE = Path(__file__).resolve().parent

END_TO_END = {
    "setup_s": "s",
    "cold_run_s": "s",
    "ops_per_cpu_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mib": "MiB",
}


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    from bench_tracing import SPAN_TARGETS

    units = {"import.speclimit_s": "s", "import.scipy_interpolate_share": "1"}
    for path in SPAN_TARGETS:
        units.update({f"{path}.calls": "count/op", f"{path}.self_ms": "ms/op", f"{path}.total_ms": "ms/op"})
    units.update({
        "semiclassical.quantize_per_level": "count",
        "noise.samples_drawn": "count/op",
        "simulate.trials": "count/op",
        "cli.output_bytes": "B/op",
        "units.conversions": "count/op",
        "failed_op_share": "1",
        "trace.overhead_pct": "%",
    })
    return units


def read_steal_ticks() -> int | None:
    """Steal ticks of all CPUs from /proc/stat (read only), or None off Linux."""
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)), "cpu": cpu}


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload's process (and, traced, the import probes) in a scratch directory."""
    steal0, wall0 = read_steal_ticks(), time.perf_counter()
    work = root / ".perfbench-work" / f"{workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace}
    try:
        imports = import_times(root, work, IMPORT_REPEATS) if trace else None
        cmd = [sys.executable, str(HERE / "bench_loop.py"), "--root", str(root), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)), "--work", str(work)]
        _, _, text = spawn(cmd, child_env(root), work, work / "loop.log")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    loop = json.loads(text.strip().splitlines()[-1])
    if trace:
        layers = dict(loop.get("layers", {}), failed_op_share=loop["failed_op_share"])
        layers["import.speclimit_s"], layers["import.scipy_interpolate_share"] = imports
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in per_layer_units().items()
                   if layers.get(name) is not None}
    else:
        values = {
            "setup_s": statistics.median(loop["setup_samples"]) if loop.get("setup_samples") else None,
            "cold_run_s": statistics.median(loop["cold_samples"]) if loop.get("cold_samples") else None,
            "ops_per_cpu_s": loop.get("ops_per_cpu_s"),
            "op_p50_ms": loop.get("op_p50_ms"),
            "op_p90_ms": loop.get("op_p90_ms"),
            "peak_rss_mib": loop["peak_rss_kib"] / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()
                   if values[name] is not None}
    steal1 = read_steal_ticks()
    record.update(
        correct=loop["correct"],
        error=loop["error"],
        attempted=loop["attempted"],
        failed=loop["failed"],
        metrics=metrics,
        loop=loop,
        machine=machine(),
        context={"wall_s": time.perf_counter() - wall0,
                 "steal_ticks": None if steal0 is None or steal1 is None else steal1 - steal0},
    )
    return record


def describe(record: dict) -> list[str]:
    loop = record["loop"]
    lines = [f"workload {record['workload']}  seed {record['seed']}  trace {int(record['trace'])}"
             f"  op list sha256 {loop.get('digest')}"
             f" (+{loop.get('beyond_list', 0)} fresh ops from the same seeded stream)"]
    if record["error"]:
        lines.append(f"  WRONG RESULT: {record['error']}")
    if loop.get("capped"):
        lines.append("  the loop hit its wall-time cap before its op count and CPU budget were met")
    samples = loop.get("samples", 0)
    for name, m in record["metrics"].items():
        note = ""
        if name == "setup_s":
            note = f"median of {len(loop['setup_samples'])} interpreters"
        elif name == "cold_run_s":
            note = f"median of {len(loop['cold_samples'])} processes"
        elif name in ("op_p50_ms", "ops_per_cpu_s"):
            note = f"{samples} ops"
        elif name == "op_p90_ms":
            note = f"{samples} ops, {loop.get('p90_beyond')} beyond p90"
        lines.append(f"  {name:<54} {m['value']:>14.6g} {m['unit']:<9} {note}")
    share = loop.get("failed_op_share")
    lines.append(f"  ops attempted {loop['attempted']}, engine errors {loop['failed']} {loop.get('failures', {})},"
                 f" failed_op_share {share} over the first"
                 f" {min(loop['attempted'], bw.PLANS[record['workload']].min_ops)} ops")
    versions = loop.get("versions", {})
    mach = record["machine"]
    lines.append(f"  machine: nproc {mach['nproc']} (affinity {mach['affinity']}), {mach['cpu']},"
                 f" python {versions.get('python')}, numpy {versions.get('numpy')}, scipy {versions.get('scipy')}")
    if "raw_op_p50_ms" in loop:
        lines.append(f"  host speed: calibration kernel median {loop['calibration_ms']:.4g} ms"
                     f" (reference {CAL_REF_NS / 1e6:g} ms); unscaled CPU op p50 {loop['raw_op_p50_ms']:.5g} ms,"
                     f" p90 {loop['raw_op_p90_ms']:.5g} ms")
    ctx = record["context"]
    lines.append(f"  host (unguarded): run wall {ctx['wall_s']:.1f} s, loop wall {loop.get('loop_wall_s', 0):.1f} s"
                 f" for {loop.get('loop_cpu_s', 0):.1f} s of op CPU, steal ticks {ctx['steal_ticks']}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="speclimit benchmark")
    ap.add_argument("--workload", required=True, choices=bw.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12.0, help="CPU seconds of ops in the timed loop")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    exit_on_sigterm()
    root = HERE.parent
    if not (root / "src" / "speclimit" / "__init__.py").is_file():
        print(f"perfbench: no speclimit package under {root / 'src'}", file=sys.stderr)
        return 2
    names = bw.WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        try:
            record = run_workload(root, name, args.seed, args.seconds, bool(args.trace))
        except ChildFailed as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 2
        records.append(record)
        out = root / ".perfbench-out" / f"record-{name}-{args.seed}-trace{args.trace}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps(record, indent=2) + "\n")
        print("\n".join(describe(record)), flush=True)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0 if all(r["correct"] for r in records) else 1


if __name__ == "__main__":
    raise SystemExit(main())
