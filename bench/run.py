"""Benchmark of the equibound package: one workload per run, closed loop, one thread.

    python3 bench/run.py --workload campaign --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --smoke

The inputs are built from --seed. One caller waits for each operation to
return before making the next, for --seconds seconds, and every output is
checked. With --trace 0 the run reports the end-to-end metrics, with
every time normalised to a reference host speed (hostspeed.py); with
--trace 1 it alternates untraced and traced cycles and reports the
per-layer metrics derived from the spans; a traced cycle runs the same
operations with span-recording wrappers installed in the package's
modules. A run record (machine, versions, seed, sample count and unit of
each metric) is printed before the result and written under .bench_out/
with the spans. The last line of stdout is
the result: {"correct", "attempted", "failed", "metrics"}.

The package is imported from src/ next to this directory; no install is needed.
"""

from __future__ import annotations

import os

# pin native thread pools before numpy is imported, here and in child processes
THREAD_ENV = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(THREAD_ENV)

import argparse
import gc
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter, perf_counter_ns, process_time

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
RUN_DIR = ROOT / ".bench_run"
SETUP_REPEATS = 7
IMPORT_PROBE = "import numpy, equibound, equibound.cli"

E2E_UNITS = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the package sources, so runs outside a git checkout are still identified."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_record() -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "thread_env": THREAD_ENV,
    }


def percentile(values: list[float], q: int) -> float:
    """q-th percentile, linear interpolation between closest ranks."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure_setup(workload_cls, args, workdir: str):
    """Median import time in fresh interpreters plus median in-process set-up.

    In-process set-up builds the inputs from the seed, writes the
    distribution files and warms up. Each repeat is normalised to the
    reference host speed like the operations (hostspeed.py).
    Returns (setup_s, workload, samples).
    """
    from hostspeed import HostSpeed

    clock = HostSpeed()
    clock.sample(0.2)
    repeats = 1 if args.size == "tiny" else SETUP_REPEATS

    def timed(step) -> float:
        t0 = perf_counter()
        step()
        t1 = perf_counter()
        clock.sample(max(t1 - t0, 0.2))
        return (t1 - t0) * clock.scale(t0, t1)

    def fresh_import():
        subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=_child_env(), check=True, timeout=120, cwd=ROOT
        )

    built = []

    def build():
        built.append(workload_cls(args.seed, args.size == "tiny", workdir, args.tamper))
        built[-1].warm()

    import_s = [timed(fresh_import) for _ in range(repeats)]
    build_s = [timed(build) for _ in range(repeats)]
    return statistics.median(import_s) + statistics.median(build_s), built[-1], len(import_s)


class Loop:
    """Closed-loop driver: runs cycles over the items, checks outputs, counts failures."""

    def __init__(self, workload):
        self.wl = workload
        self.attempted = 0
        self.failed = 0
        self.first_error: str | None = None

    def _record(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1

    def _checked(self, index: int, item, out) -> bool:
        try:
            fails = self.wl.check(item, out)
        except Exception:
            self._note_error(traceback.format_exc())
            return False
        if fails:
            self._note_error(f"item {index} of {self.wl.name} fails the checks {fails}")
        return not fails

    def _note_error(self, message: str) -> None:
        if self.first_error is None:
            self.first_error = message

    def untraced_cycle(self, samples: list | None = None, clock=None) -> tuple[int, int]:
        """One pass over the items; returns (busy ns, work units).

        With `samples`, each operation appends (item index, start, seconds,
        work units) and `clock` times its reference kernel after it.
        """
        busy = units = 0
        for index, item in enumerate(self.wl.items):
            t0 = perf_counter_ns()
            try:
                out = self.wl.op(item)
                ok = True
            except Exception:
                ok = False
                self._note_error(traceback.format_exc())
            dt = perf_counter_ns() - t0
            n = self.wl.units(item)
            busy += dt
            units += n
            if samples is not None:
                samples.append((index, t0 / 1e9, dt / 1e9, n))
                clock.sample(dt / 1e9)
            self._record(ok and self._checked(index, item, out))
        return busy, units

    def traced_cycle(self, tr, instrument) -> int:
        """One pass with the wrappers installed, then probes; returns the ns spent inside operations."""
        busy = 0
        for index, item in enumerate(self.wl.items):
            tr.run_id += 1
            first_span = len(tr.spans)
            ok = True
            with instrument:
                try:
                    with tr.span("op") as rec:
                        out = self.wl.op(item)
                except Exception:
                    ok = False
                    self._note_error(traceback.format_exc())
            busy += rec[2] - rec[1]
            if ok:
                ok = self._checked(index, item, out)
                reached = {span[0] for span in tr.spans[first_span:]}
                try:
                    self.wl.probe(self.wl.pairs_of(item, out), reached, tr)
                except Exception:
                    ok = False
                    self._note_error(traceback.format_exc())
            self._record(ok)
        return busy


def run_timed(loop: Loop, seconds: float):
    """One warm-up cycle, then whole cycles until the time is up; returns (samples, clock)."""
    from hostspeed import HostSpeed

    clock = HostSpeed(loop.wl.HOST_KERNEL)
    loop.untraced_cycle([], clock)
    samples: list[tuple[int, float, float, int]] = []
    deadline = perf_counter() + seconds
    while True:
        loop.untraced_cycle(samples, clock)
        if perf_counter() >= deadline:
            break
    return samples, clock


def timing_metrics(samples, clock) -> dict[str, tuple[float, int]]:
    """Operation time percentiles and rate, normalised to the reference host speed.

    Each item's time is its median over the run's cycles, so one slow call
    (a file-system stall, a collection) does not move the result. op_ms_p50
    and op_ms_p90 are percentiles over the items; ops_per_s is the work of
    one cycle over the sum of the items' median times. On campaign an
    operation's time is per trial.
    """
    per_item: dict[int, list[float]] = {}
    raw_item: dict[int, list[float]] = {}
    units_of: dict[int, int] = {}
    scales = []
    raw_busy = 0.0
    for index, t0, dt, n in samples:
        scale = clock.scale(t0, t0 + dt)
        scales.append(scale)
        per_item.setdefault(index, []).append(dt * scale * 1e3 / n)
        raw_item.setdefault(index, []).append(dt * 1e3 / n)
        units_of[index] = n
        raw_busy += dt

    def summary(times: dict[int, list[float]]) -> tuple[float, float, float]:
        medians = {index: statistics.median(v) for index, v in times.items()}
        cycle_s = sum(medians[index] * units_of[index] for index in medians) / 1e3
        values = list(medians.values())
        return statistics.median(values), percentile(values, 90), sum(units_of.values()) / cycle_s

    p50, p90, rate = summary(per_item)
    raw_p50, raw_p90, raw_rate = summary(raw_item)
    return {
        "op_ms_p50": (p50, len(samples)),
        "op_ms_p90": (p90, len(samples)),
        "ops_per_s": (rate, len(samples)),
        "raw.op_ms_p50": (raw_p50, len(samples)),
        "raw.op_ms_p90": (raw_p90, len(samples)),
        "raw.ops_per_s": (raw_rate, len(samples)),
        "host.scale_p50": (statistics.median(scales), len(scales)),
        "host.kernel_share": (sum(clock.took) / (sum(clock.took) + raw_busy), len(clock.took)),
    }


def run_traced(loop: Loop, seconds: float):
    from tracing import Instrument, Tracer

    tr = Tracer()
    instrument = Instrument(tr, extra_modules=[sys.modules[type(loop.wl).__module__]])
    untraced_ns = traced_ns = 0
    wall0, cpu0 = perf_counter(), process_time()
    deadline = wall0 + seconds
    while True:
        untraced_ns += loop.untraced_cycle()[0]
        traced_ns += loop.traced_cycle(tr, instrument)
        if perf_counter() >= deadline:
            break
    cpu_per_wall = (process_time() - cpu0) / (perf_counter() - wall0)
    return tr, cpu_per_wall, traced_ns / untraced_ns


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="equibound benchmark")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: inputs for the smoke test")
    parser.add_argument("--tamper", metavar="CHECK", help="shift the expected value of one named check (smoke test)")
    parser.add_argument("--smoke", action="store_true", help="run every workload tiny and check the output contract")
    args = parser.parse_args(argv)

    if args.smoke:
        from smoke import run_smoke

        return run_smoke()

    sys.path.insert(0, str(SRC))
    try:
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"error: cannot import the equibound package from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    if args.tamper is not None and args.tamper not in WORKLOADS[args.workload].CHECKS:
        parser.error(f"--tamper must be one of {WORKLOADS[args.workload].CHECKS}")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    RUN_DIR.mkdir(exist_ok=True)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUN_DIR)
    try:
        setup_s, workload, setup_samples = measure_setup(WORKLOADS[args.workload], args, workdir)
        loop = Loop(workload)
        gc.collect()
        if args.trace == 0:
            metrics = timing_metrics(*run_timed(loop, args.seconds))
            metrics["setup_s"] = (setup_s, setup_samples)
            metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
            units_of = E2E_UNITS
            extra = {"host_speed": {name: {"value": v, "samples": n}
                                    for name, (v, n) in metrics.items() if name not in units_of}}
        else:
            from tracing import layer_metric_units, layer_metrics, span_summary

            tr, cpu_per_wall, overhead = run_traced(loop, args.seconds)
            metrics = layer_metrics(tr, cpu_per_wall, overhead)
            units_of = layer_metric_units()
            extra = {"spans": span_summary(tr)}
            tr.write(OUT_DIR / f"spans-{args.workload}-s{args.seed}.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if loop.first_error is not None:
        print(f"first failure:\n{loop.first_error}", file=sys.stderr)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "tamper": args.tamper,
        "machine": machine_record(),
        "attempted": loop.attempted,
        "failed": loop.failed,
        "failed_ratio": loop.failed / loop.attempted,
        "metrics": {
            name: {"value": metrics[name][0], "unit": unit, "samples": metrics[name][1]}
            for name, unit in units_of.items()
        },
        **extra,
    }
    record_path = OUT_DIR / f"record-{args.workload}-s{args.seed}-t{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1))
    print(json.dumps({"record": {k: v for k, v in record.items() if k != "spans"}}))
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": unit} for name, unit in units_of.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
