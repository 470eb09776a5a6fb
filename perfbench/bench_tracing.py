"""Span tracing for the benchmark's traced runs.

The tracer wraps public speclimit functions in every speclimit module
namespace that binds them, so calls made inside the package are seen too.
Each call records a span (name, start, end, parent) in CPU nanoseconds. Spans
are kept in memory per op; at the end of each op they are folded into
per-function calls, total time and self time (a span minus its direct
children), and a bounded log of them is kept for writing out at exit.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# Public functions traced with spans, as "<module>.<attribute path>".
SPAN_TARGETS = (
    "models.energy_level",
    "models.classical_period",
    "models.level_gap_energy",
    "models.level_gap_period",
    "models.well_profile",
    "semiclassical.quantize",
    "semiclassical.period_of_energy",
    "semiclassical.numeric_level_count",
    "criterion.classify",
    "criterion.level_gap",
    "criterion.threshold",
    "noise.sample_ensemble",
    "noise.characteristic_check",
    "noise.reconstruct_state",
    "noise.required_noise_product_for_resolution",
    "simulate.simulate_period_measurement",
    "simulate.discriminate",
    "simulate.consistency_sweep",
    "cli.validate_config",
    "cli.OutputWriter.write_csv",
    "cli.OutputWriter.write_json",
    "cli.OutputWriter.adopt",
    "cli.OutputWriter.write_record",
)
# Called too often for spans; only counted, under one name.
COUNT_TARGETS = {
    "units.UnitSystem.to_si": "units.conversions",
    "units.UnitSystem.from_si": "units.conversions",
    "units.UnitSystem.factor": "units.conversions",
}
SPAN_LOG_LIMIT = 20000


def self_times(spans) -> dict:
    """Fold spans [(name, start, end, parent_index)] into {name: [calls, total, self]}.

    ``parent_index`` is the position of the enclosing span in the same list,
    or -1. Self time is a span's duration minus the durations of its direct
    children.
    """
    child_time = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {}
    for i, (name, start, end, parent) in enumerate(spans):
        agg = out.setdefault(name, [0, 0, 0])
        agg[0] += 1
        agg[1] += end - start
        agg[2] += max(end - start - child_time[i], 0)
    return out


def _resolve(path: str):
    """(owner, attribute, original) for "module.attr" or "module.Class.method".

    The module is imported here if the package has not imported it yet, so
    a package that imports its modules lazily is traced all the same.
    """
    parts = path.split(".")
    owner = importlib.import_module("speclimit." + parts[0])
    for part in parts[1:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], owner.__dict__[parts[-1]] if isinstance(owner, type) else getattr(owner, parts[-1])


class Tracer:
    """Installs wrappers on enable() and removes them on disable()."""

    def __init__(self, clock=time.process_time_ns):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.totals: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.counts: Counter = Counter()
        self.quantized: set = set()  # distinct (model, n) pairs passed to quantize, per op
        self.distinct_levels = 0
        self.span_log: list = []
        self.ops = 0
        self._wrappers = self._build()  # (owner, attribute, original, wrapper)

    def _observe(self, name, args, kwargs):
        if name == "semiclassical.quantize":
            self.quantized.add((args[0], args[1] if len(args) > 1 else kwargs["n"]))
        elif name == "noise.sample_ensemble":
            self.counts["noise.samples_drawn"] += args[2] if len(args) > 2 else kwargs["count"]
        elif name == "simulate.simulate_period_measurement":
            protocol = args[2] if len(args) > 2 else kwargs["protocol"]
            self.counts["simulate.trials"] += protocol.trials

    def _span_wrapper(self, name, fn):
        tracer, clock, spans, stack = self, self.clock, self.spans, self._stack
        observed = name in ("semiclassical.quantize", "noise.sample_ensemble",
                            "simulate.simulate_period_measurement")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if observed:
                tracer._observe(name, args, kwargs)
            index = len(spans)
            span = [name, clock(), 0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _build(self):
        wrappers = []
        for path in SPAN_TARGETS:
            owner, attr, original = _resolve(path)
            wrappers.append((owner, attr, original, self._span_wrapper(path, original)))
        for path, name in COUNT_TARGETS.items():
            owner, attr, original = _resolve(path)
            wrappers.append((owner, attr, original, self._count_wrapper(name, original)))
        return wrappers

    def _swap(self, to_wrapper: bool):
        """Rebind every original to its wrapper (or back) in the classes and in every speclimit module.

        The modules are scanned afresh on each call, so a module imported
        since the last call, or one that bound a wrapper while tracing was
        on, is covered too.
        """
        swap = {}
        for owner, attr, original, wrapper in self._wrappers:
            old, new = (original, wrapper) if to_wrapper else (wrapper, original)
            if isinstance(owner, type):
                setattr(owner, attr, new)
            else:
                swap[id(old)] = (old, new)
        for key, module in list(sys.modules.items()):
            if key == "speclimit" or key.startswith("speclimit."):
                for name, value in list(vars(module).items()):
                    pair = swap.get(id(value))
                    if pair is not None and pair[0] is value:
                        setattr(module, name, pair[1])

    def enable(self):
        """Bind each wrapper wherever a speclimit module or class binds the original."""
        self._swap(True)

    def disable(self, scale: float = 1.0):
        """Restore the originals and fold this op's spans, times multiplied by ``scale``."""
        self._swap(False)
        for name, (calls, total, own) in self_times(self.spans).items():
            agg = self.totals[name]
            agg[0] += calls
            agg[1] += total * scale
            agg[2] += own * scale
        room = SPAN_LOG_LIMIT - len(self.span_log)
        if room > 0:
            self.span_log.extend([self.ops] + s for s in self.spans[:room])
        self.spans.clear()
        self.distinct_levels += len(self.quantized)
        self.quantized.clear()
        self.ops += 1

    def metrics(self) -> dict:
        """Per-op calls, self and total milliseconds for every target, plus counters."""
        ops = max(self.ops, 1)
        out = {}
        for path in SPAN_TARGETS:
            calls, total, own = self.totals.get(path, (0, 0, 0))
            out[f"{path}.calls"] = calls / ops
            out[f"{path}.self_ms"] = own / 1e6 / ops
            out[f"{path}.total_ms"] = total / 1e6 / ops
        quantize_calls = self.totals.get("semiclassical.quantize", (0, 0, 0))[0]
        out["semiclassical.quantize_per_level"] = quantize_calls / self.distinct_levels if self.distinct_levels else 0.0
        for name in ("noise.samples_drawn", "simulate.trials", "units.conversions"):
            out[name] = self.counts[name] / ops
        return out

    def write_spans(self, path: Path):
        """Write the span log as JSON rows [op, name, start_ns, end_ns, parent]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"clock": "process_time_ns", "spans": self.span_log}) + "\n")
