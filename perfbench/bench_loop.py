"""One workload process: build the op list, warm up, then run the timed loop.

``run.py`` starts this file in a fresh interpreter with thread counts pinned
to 1:

    python3 perfbench/bench_loop.py --root . --workload closed-form --seed 1 \
        --seconds 12 --trace 0 --work .perfbench-work/x [--probe]

The loop is closed with one client: each op starts after the previous one
has been checked. Ops are timed in process CPU time. The loop ends once it
has run ``min_ops`` ops and its ops have used ``--seconds`` of CPU.

Host-speed scaling. On a shared host the same work can take 1.5x the CPU
time while a neighbour loads the physical core, in stretches of seconds. So
a fixed calibration kernel (``calibrate``) runs between ops, and
each op's CPU time is scaled by CAL_REF_NS over the mean of the kernel's
time just before and just after it. The reported times therefore read as
CPU time on a host where the kernel takes CAL_REF_NS. The process is pinned
to one CPU, so the kernel, the ops and the probes see the same core. The raw
CPU percentiles and the kernel's median time are reported alongside.

Between ops, at evenly spaced points of the loop's CPU time, the process
runs its set-up and cold-run probes (bench_probes.py) one at a time, so
their samples are spread over the run rather than taken in one burst. With
``--trace 1`` there are no probes, and every second op runs with the span
tracer installed. With ``--probe`` the process only imports speclimit and
builds its inputs, which is what a set-up probe times. The last stdout line
is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

import bench_workloads as bw

WALL_CAP = 6.0  # the loop stops at WALL_CAP x --seconds of wall time whatever it has run
PROBE_ROUNDS = 5  # set-up probes and cold runs per run, one of each per round
CAL_LOOPS = 1500
CAL_VECTOR = np.linspace(0.0, 1.0, 4000)
CAL_REF_NS = 2_000_000  # the kernel's CPU time on the reference host
CAL_WINDOW_S = 2.0  # a probe (about 1 s long) is scaled by the kernel times this close to it


def calibrate(clock=time.process_time_ns) -> int:
    """CPU nanoseconds of a fixed kernel, about half interpreter work and half numpy vector work.

    The mix follows the workloads, which spend their time in both; on a
    loaded core both kinds of work slow down, by somewhat different factors.
    """
    t0 = clock()
    acc = 0.0
    slots = {}
    for i in range(CAL_LOOPS):
        x = i * 0.37
        acc += (x * x) % 7.0
        slots[i & 63] = format(acc, ".12g")
    x = CAL_VECTOR
    for _ in range(12):
        acc += float((np.exp(-x * x) * np.sin(x)).sum())
    return clock() - t0


def pin_to_one_cpu():
    """Keep this process and its children on one CPU, where the kernel measures the speed."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def import_speclimit(root: Path):
    """Import the checkout's package and its CLI, the entry point of two workloads."""
    src = root / "src"
    sys.path.insert(0, str(src))
    import speclimit
    import speclimit.cli  # noqa: F401

    if Path(speclimit.__file__).resolve().parent != (src / "speclimit").resolve():
        raise SystemExit(f"imported speclimit from {speclimit.__file__}, not from {src}")
    return speclimit


def percentiles(samples_ns: list[float], prefix: str = "") -> dict:
    ms = [s / 1e6 for s in samples_ns]
    p90 = statistics.quantiles(ms, n=10)[8]
    return {
        f"{prefix}op_p50_ms": statistics.median(ms),
        f"{prefix}op_p90_ms": p90,
        f"{prefix}ops_per_cpu_s": len(ms) / (sum(ms) / 1e3),
        f"{prefix}p90_beyond": sum(1 for v in ms if v > p90),
    }


def overhead_pct(traced: dict, plain: dict) -> float:
    """Tracing overhead: the median over op classes of traced p50 / untraced p50 in that class, minus 1.

    Ops alternate between traced and untraced, and op classes differ in cost
    by up to 10x, so only ops of the same class are compared.
    """
    ratios = [statistics.median(traced[c]) / statistics.median(plain[c]) for c in traced if plain.get(c)]
    return 100.0 * (statistics.median(ratios) - 1.0)


def run_loop(speclimit, workload: str, seed: int, seconds: float, work: Path, probes=None,
             tracer=None) -> dict:
    """Warm up, then run timed ops until the plan's op count and CPU budget are both met."""
    warm, timed, stream = bw.build_ops(workload, seed)
    plan = bw.PLANS[workload]
    runner = bw.Runner(speclimit, work)
    clock = time.process_time_ns
    out = {"digest": bw.op_list_digest(warm + timed), "correct": True, "error": None, "beyond_list": 0}
    schedule = [probes.setup, probes.cold] * PROBE_ROUNDS if probes is not None else []
    samples = {probe: [] for probe in schedule}  # probe -> [(CPU s, wall start, wall end)]
    cals = [(time.perf_counter(), calibrate())]

    def scale() -> float:
        """CAL_REF_NS over the mean kernel time just before and just after the last op."""
        cals.append((time.perf_counter(), calibrate()))
        return 2.0 * CAL_REF_NS / (cals[-2][1] + cals[-1][1])

    def run_probe(probe):
        start = time.perf_counter()
        samples[probe].append((probe(), start, time.perf_counter()))

    def probe_scaled(cpu: float, start: float, end: float) -> float:
        """A probe's CPU scaled by the median kernel time within CAL_WINDOW_S of it."""
        near = [ns for t, ns in cals if start - CAL_WINDOW_S <= t <= end + CAL_WINDOW_S]
        if not near:  # probes ran back to back: use the nearest kernel times on either side
            near = [ns for t, ns in cals if t < start][-1:] + [ns for t, ns in cals if t > end][:1]
        return cpu * CAL_REF_NS / statistics.median(near)

    def one(op: dict, index: int, traced: bool):
        prepared = runner.prepare(op, index)
        if traced:
            tracer.enable()
        t0 = clock()
        result = runner.execute(op, prepared)
        t1 = clock()
        factor = scale()
        if traced:
            tracer.disable(factor)
        return result, t1 - t0, factor, runner.finish(op, prepared, result)

    plain, raw, failures = [], [], Counter()
    by_class = {False: defaultdict(list), True: defaultdict(list)}  # traced? -> op class -> scaled ns
    attempted = failed = failed_first = 0
    traced_bytes = 0
    cpu_ns = 0
    done_probes = 0
    wall0 = time.perf_counter()
    i = -len(warm)
    try:
        for op in warm:
            one(op, i, False)  # warm-up ops carry negative indices
            i += 1
        while attempted < plan.min_ops or cpu_ns < seconds * 1e9:
            while done_probes < len(schedule) and cpu_ns >= done_probes * seconds * 1e9 / len(schedule):
                run_probe(schedule[done_probes])
                done_probes += 1
            if time.perf_counter() - wall0 > WALL_CAP * seconds:
                out["capped"] = True
                break
            traced = tracer is not None and i % 2 == 1
            if i < len(timed):
                op = timed[i]
            else:  # past the prebuilt list: a fresh op from the same seeded stream, never a replay
                op = next(stream)
                out["beyond_list"] += 1
            result, dt, factor, size = one(op, i, traced)
            by_class[traced][bw.op_class(op)].append(dt * factor)
            if traced:
                traced_bytes += size
            else:
                plain.append(dt * factor)
                raw.append(dt)
            cpu_ns += dt
            attempted += 1
            if isinstance(result, bw.EngineError):
                failed += 1
                failures[result.type_name] += 1
                failed_first += i < plan.min_ops
            i += 1
        for probe in schedule[done_probes:]:
            run_probe(probe)
    except bw.WrongResult as exc:
        out.update(correct=False, error=f"op {i}: {exc}")
    import scipy

    out.update(
        attempted=attempted,
        failed=failed,
        failures=dict(failures),
        failed_op_share=failed_first / min(max(attempted, 1), plan.min_ops),
        loop_wall_s=time.perf_counter() - wall0,
        loop_cpu_s=cpu_ns / 1e9,
        calibration_ms=statistics.median(ns for _, ns in cals) / 1e6,
        peak_rss_kib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        versions={"python": sys.version.split()[0], "numpy": np.__version__, "scipy": scipy.__version__},
    )
    if probes is not None:
        for name, probe in (("setup", probes.setup), ("cold", probes.cold)):
            out[f"{name}_samples"] = [probe_scaled(*sample) for sample in samples[probe]]
            out[f"raw_{name}_samples"] = [cpu for cpu, _, _ in samples[probe]]
    if len(plain) >= 2:
        out.update(percentiles(plain), samples=len(plain))
        out.update(percentiles(raw, prefix="raw_"))
    if tracer is not None and tracer.ops >= 2:
        layers = tracer.metrics()
        layers["cli.output_bytes"] = traced_bytes / tracer.ops
        layers["trace.overhead_pct"] = overhead_pct(by_class[True], by_class[False])
        out["layers"] = layers
        out["traced_samples"] = tracer.ops
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True, choices=bw.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--probe", action="store_true", help="stop after importing and building the inputs")
    args = ap.parse_args(argv)
    root = Path(args.root).resolve()
    speclimit = import_speclimit(root)
    if args.probe:
        bw.build_ops(args.workload, args.seed)
        return 0
    from bench_probes import Probes, exit_on_sigterm

    pin_to_one_cpu()
    exit_on_sigterm()
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    if args.trace:
        from bench_tracing import Tracer

        tracer = Tracer()
        result = run_loop(speclimit, args.workload, args.seed, args.seconds, work, tracer=tracer)
        tracer.write_spans(root / ".perfbench-out" / f"spans-{args.workload}-{args.seed}.json")
    else:
        probes = Probes(root, args.workload, args.seed, work)
        result = run_loop(speclimit, args.workload, args.seed, args.seconds, work, probes=probes)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
