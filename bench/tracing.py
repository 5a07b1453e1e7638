"""In-memory spans for the traced benchmark run, and the layer metrics derived from them.

A span is recorded around one call into a public function of the package:
name, start and end (perf_counter ns), the index of the enclosing span (-1
for a root) and the run id of the operation that caused it. The package is
not edited. For a traced operation, `Instrument` swaps the package's
module-level names (and the constructors of its two classes) for wrappers
that record spans, runs the workload's own operation, and puts the
originals back. So the spans time the calls the program really makes,
including those inside `run_walk`, `verify_trials` and `cli.main`.

A layer that a workload never reaches is probed after each operation on the
pairs that operation touched; probe spans are named `probe.<layer>` and are
never counted with real calls. Nothing is written until the run ends.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

MODULES = ("core", "bounds", "walk", "verify", "cli")

# Public functions (and classes, timed through construction) whose median
# call time every traced run reports. A workload that never calls one gets
# its median from probe spans on the workload's own pairs.
LAYER_FUNCTIONS = (
    "core.JointDistribution",
    "core.DistributionPair",
    "core.conditional_entropy",
    "core.tv_distance",
    "bounds.continuity_bound",
    "bounds.check_bound",
    "walk.canonical_orient",
    "walk.reorder",
    "walk.average_blocks",
    "walk.run_walk",
    "verify.sample_joint",
    "verify.perturb_within_tv",
    "cli.parse_distribution",
)
# Layers every workload calls for real, so their calls per operation and
# share of operation time never come from probes.
COUNTED_EVERYWHERE = ("core.JointDistribution", "core.DistributionPair", "bounds.continuity_bound")
# Further calls that are spanned when the program makes them; they appear in
# the run record's span summary only.
EXTRA_FUNCTIONS = (
    "verify.verify_trials",
    "verify.grid_search_max_gap",
    "verify._compositions",
    "cli.write_trace",
)


def layer_metric_units() -> dict[str, str]:
    """Name -> unit of every per-layer metric a traced run reports."""
    units: dict[str, str] = {}
    for fn in LAYER_FUNCTIONS:
        units[f"{fn}.us_p50"] = "us"
    for fn in COUNTED_EVERYWHERE:
        units[f"{fn}.calls_per_op"] = "count"
        units[f"{fn}.busy_share"] = "ratio"
    units["walk.steps_per_walk"] = "count"
    units["walk.us_per_step"] = "us"
    for module in MODULES:
        units[f"{module}.errors"] = "count"
    units["process.cpu_per_wall"] = "ratio"
    units["trace.overhead_ratio"] = "ratio"
    return units


class Tracer:
    """Records spans and counters in memory; one instance per traced run."""

    def __init__(self) -> None:
        # each span: [name, start_ns, end_ns, parent_index, run_id, error]
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.run_id = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, 0, 0, parent, self.run_id, False]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter_ns()
        try:
            yield rec
        except BaseException:
            rec[5] = True
            raise
        finally:
            rec[2] = perf_counter_ns()
            self._stack.pop()

    def wrap(self, name: str, fn, label=None, after=None):
        """`fn` recording a span per call; `label(args)` suffixes the name, `after` sees the result."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name if label is None else f"{name}.{label(args)}", 0, 0,
                   stack[-1] if stack else -1, self.run_id, False]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[5] = True
                raise
            finally:
                rec[2] = perf_counter_ns()
                stack.pop()
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] += n

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["name", "start_ns", "end_ns", "parent", "run_id", "error"]}) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")

    def durations(self) -> dict[str, list[int]]:
        out: dict[str, list[int]] = defaultdict(list)
        for name, start, end, *_ in self.spans:
            out[name].append(end - start)
        return out

    def self_times(self) -> dict[str, int]:
        """Per span name, total duration minus the time its child spans cover."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, int] = defaultdict(int)
        for i, (name, start, end, *_) in enumerate(self.spans):
            out[name] += end - start - child_ns[i]
        return out


def count_walk(tr: Tracer, prefix: str, args, kwargs, trace) -> None:
    """Step counters of one run_walk call, and move kinds from the labels of an `all` walk."""
    mode = args[1] if len(args) > 1 else kwargs.get("snapshots", "phases")
    tr.count(f"{prefix}walk.steps", len(trace.steps))
    tr.count(f"{prefix}walk.steps.{mode}", len(trace.steps))
    if mode == "all" and not prefix:
        for step in trace.steps:
            if " i=" in step.label:
                tr.count(f"walk.moves.{step.label.split()[2]}")


def _config_label(args) -> str:
    nx, ny, eps, k = args[:4]
    return f"{nx}x{ny}_e{eps}_k{k}"


def _count_compositions(tr: Tracer, args, kwargs, result) -> None:
    # points on the grid, C(k + c - 1, c - 1): computed, not measured
    nx, ny, _, k = args[:4]
    tr.count(f"verify.compositions.{_config_label(args)}", math.comb(k + nx * ny - 1, nx * ny - 1))


def _count_trace_bytes(tr: Tracer, args, kwargs, result) -> None:
    tr.count("cli.trace_bytes", os.path.getsize(args[1]))


class Instrument:
    """Context manager that installs span-recording wrappers into the package's modules.

    Every module of the package, plus `extra_modules`, that binds one of the
    traced functions under its own name gets the wrapper; the classes get a
    wrapped `__init__`. Leaving the context restores every original.
    """

    def __init__(self, tr: Tracer, extra_modules=()):
        modules = [m for name, m in sorted(sys.modules.items()) if name == "equibound" or name.startswith("equibound.")]
        modules += list(extra_modules)
        hooks = {
            "walk.run_walk": dict(after=lambda tr, a, k, r: count_walk(tr, "", a, k, r)),
            "verify.grid_search_max_gap": dict(label=_config_label, after=_count_compositions),
            "cli.write_trace": dict(after=_count_trace_bytes),
        }
        self.patches: list[tuple[object, str, object, object]] = []
        for name in LAYER_FUNCTIONS + EXTRA_FUNCTIONS:
            short, attr = name.split(".", 1)
            orig = getattr(sys.modules[f"equibound.{short}"], attr)
            if isinstance(orig, type):
                init = orig.__dict__["__init__"]
                self.patches.append((orig, "__init__", init, tr.wrap(name, init)))
                continue
            wrapper = tr.wrap(name, orig, **hooks.get(name, {}))
            for module in modules:
                if getattr(module, attr, None) is orig:
                    self.patches.append((module, attr, orig, wrapper))

    def __enter__(self):
        for obj, attr, _, wrapper in self.patches:
            setattr(obj, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for obj, attr, orig, _ in reversed(self.patches):
            setattr(obj, attr, orig)
        return False


def _median_us(durations_ns: list[int]) -> float:
    return statistics.median(durations_ns) / 1e3 if durations_ns else 0.0


def layer_metrics(tracer: Tracer, cpu_per_wall: float, overhead_ratio: float) -> dict[str, tuple[float, int]]:
    """Name -> (value, sample count) of every metric in layer_metric_units(), from one traced run."""
    durations = tracer.durations()
    out: dict[str, tuple[float, int]] = {}
    for fn in LAYER_FUNCTIONS:
        samples = durations.get(fn) or durations.get(f"probe.{fn}", [])
        out[f"{fn}.us_p50"] = (_median_us(samples), len(samples))
    ops = durations.get("op", [])
    for fn in COUNTED_EVERYWHERE:
        samples = durations.get(fn, [])
        out[f"{fn}.calls_per_op"] = (len(samples) / len(ops) if ops else 0.0, len(ops))
        out[f"{fn}.busy_share"] = (sum(samples) / sum(ops) if ops else 0.0, len(samples))
    # the workload's own walks, or the probe walks where it never runs one
    prefix = "" if "walk.run_walk" in durations else "probe."
    walk_ns = durations.get(f"{prefix}walk.run_walk", [])
    steps = tracer.counters.get(f"{prefix}walk.steps", 0.0)
    out["walk.steps_per_walk"] = (steps / len(walk_ns) if walk_ns else 0.0, len(walk_ns))
    out["walk.us_per_step"] = (sum(walk_ns) / 1e3 / steps if steps else 0.0, len(walk_ns))
    errors = defaultdict(int)
    spans_of = defaultdict(int)
    for name, _, _, _, _, error in tracer.spans:
        module = name.split(".", 1)[0]
        spans_of[module] += 1
        errors[module] += error
    for module in MODULES:
        out[f"{module}.errors"] = (errors[module], spans_of[module])
    out["process.cpu_per_wall"] = (cpu_per_wall, 1)
    out["trace.overhead_ratio"] = (overhead_ratio, 1)
    return out


def span_summary(tracer: Tracer) -> dict[str, dict]:
    """Every span name with calls, median, busy and self time, plus every counter."""
    durations = tracer.durations()
    self_ns = tracer.self_times()
    spans = {}
    for name in sorted(durations):
        samples = durations[name]
        spans[name] = {"calls": len(samples), "us_p50": _median_us(samples),
                       "busy_s": sum(samples) / 1e9, "self_s": self_ns[name] / 1e9}
    return {"spans": spans, "counters": dict(sorted(tracer.counters.items()))}
