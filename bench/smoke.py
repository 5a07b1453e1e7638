"""Self-test of the benchmark: `python3 bench/run.py --smoke`.

Runs every workload at a tiny size in a child process, untraced and traced,
and checks the output contract: the last stdout line is the result object,
every output is correct, and the metric names and units are exactly those
listed in BENCHMARK.json. Then, for every named check of every workload,
runs the workload with the expected value of that one check shifted and
requires the run to count failures instead of passing. Exits 0 when all of
it holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(workload: str, trace: int, tamper: str | None) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"]
    if tamper:
        cmd += ["--tamper", tamper]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_smoke() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    listed = {w["name"] for w in spec["workloads"]}
    if listed != set(WORKLOADS):
        problems.append(f"BENCHMARK.json lists workloads {sorted(listed)}, the benchmark has {sorted(WORKLOADS)}")
    for workload in WORKLOADS:
        for trace in (0, 1):
            res = _run(workload, trace, tamper=None)
            where = f"{workload} --trace {trace}"
            if set(res) != RESULT_KEYS:
                problems.append(f"{where}: result keys {sorted(res)}")
                continue
            if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
                problems.append(f"{where}: correct={res['correct']} failed={res['failed']} attempted={res['attempted']}")
            emitted = {name: m["unit"] for name, m in res["metrics"].items()}
            if emitted != declared[trace]:
                missing = sorted(set(declared[trace]) - set(emitted))
                extra = sorted(set(emitted) - set(declared[trace]))
                wrong = sorted(n for n in set(emitted) & set(declared[trace]) if emitted[n] != declared[trace][n])
                problems.append(f"{where}: missing {missing}, undeclared {extra}, wrong unit {wrong}")
            print(f"ok   {where}: attempted {res['attempted']}, {len(emitted)} metrics", file=sys.stderr)
        for check in WORKLOADS[workload].CHECKS:
            res = _run(workload, 0, tamper=check)
            where = f"{workload} --tamper {check}"
            if res["correct"] or res["failed"] == 0:
                problems.append(f"{where}: a tampered expected value passed (failed={res['failed']})")
            else:
                print(f"ok   {where}: {res['failed']} of {res['attempted']} failed", file=sys.stderr)
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print(json.dumps({"smoke": "fail" if problems else "pass", "problems": problems}))
    return 1 if problems else 0
