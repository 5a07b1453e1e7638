"""Time the one-pair walk of two source trees, in fresh interpreters taken in turn.

    python tools/walk_timing.py PARENT_SRC CHANGE_SRC

Each of ROUNDS rounds starts one interpreter on PARENT_SRC and one on
CHANGE_SRC, the order swapped every round so drift on a busy host falls on
both. Each times `run_walk` on one 3x2 pair in each snapshot mode (median
over batches of 20 calls, the modes in turn, CALLS calls a mode after a
warm-up) and the loop of acceptance criterion 5 (sample a pair, walk it in
"none" mode, read every step's tv and gap, check the final pair) over
PER_SHAPE pairs of each of its 16 shapes, and then the campaign
`verify_trials(3, 2, 2000, 5)` and `verify_trials(3, 2, 20, 5)`, the
bench's batch size, per trial, without and with eps = 0.1 (median of
CAMPAIGNS runs each, after a warm-up; a run of the 20-trial campaign is
100 calls). Times are the process's CPU time, which load on the host
inflates less than wall time. The output is each tree's median over the
rounds in microseconds, and change / parent.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROUNDS, CALLS, PER_SHAPE, CAMPAIGNS = 15, 600, 20, 5  # CALLS: a multiple of 20

CHILD = r"""
import json, statistics, sys, time
import numpy as np
from equibound import DistributionPair, conditional_entropy, continuity_bound, marginal, run_walk, sample_joint, verify_trials

calls, per_shape, campaigns = int(sys.argv[1]), int(sys.argv[2]), int(sys.argv[3])
rng = np.random.default_rng(3)
pair = DistributionPair(sample_joint(3, 2, rng), sample_joint(3, 2, rng))
modes = ("none", "phases", "all")
for mode in modes * 50:
    run_walk(pair, mode)
# batches of 20 calls, the modes in turn, so a burst of load on the host falls on all of them
batches = {mode: [] for mode in modes}
for _ in range(calls // 20):
    for mode in modes:
        t0 = time.process_time()
        for _ in range(20):
            run_walk(pair, mode)
        batches[mode].append((time.process_time() - t0) / 20)
out = {f"run_walk 3x2 {mode}": statistics.median(b) * 1e6 for mode, b in batches.items()}

t0 = time.process_time()
for nx, ny in [(nx, ny) for nx in (2, 3, 4, 5) for ny in (1, 2, 3, 4)]:
    for t in range(per_shape):
        rng = np.random.default_rng(20260810 + 1_000_000 + 1009 * nx + 31 * ny + t)
        trace = run_walk(DistributionPair(sample_joint(nx, ny, rng), sample_joint(nx, ny, rng)), "none")
        tvs, gaps = [s.tv for s in trace.steps], [s.gap for s in trace.steps]
        assert all(b <= a + 1e-9 for a, b in zip(tvs, tvs[1:]))
        assert all(b >= a - 1e-9 for a, b in zip(gaps, gaps[1:]))
        assert conditional_entropy(trace.final.q) <= 1e-9
        assert abs(marginal(trace.final.q, "x")[0] - 1.0) <= 1e-9
        assert trace.final_gap <= continuity_bound(trace.initial_tv, nx).value + 1e-9
out["criterion 5, per walk"] = (time.process_time() - t0) / (16 * per_shape) * 1e6

for eps in (None, 0.1):
    verify_trials(3, 2, 200, 5, eps=eps)
    runs = []
    for _ in range(campaigns):
        t0 = time.process_time()
        verify_trials(3, 2, 2000, 5, eps=eps)
        runs.append(time.process_time() - t0)
    out[f"verify_trials 3x2 eps={eps}, per trial"] = statistics.median(runs) / 2000 * 1e6
    # the bench's batch of 20 trials, 100 campaigns a run
    runs = []
    for _ in range(campaigns):
        t0 = time.process_time()
        for _ in range(100):
            verify_trials(3, 2, 20, 5, eps=eps)
        runs.append(time.process_time() - t0)
    out[f"verify_trials 3x2x20 eps={eps}, per trial"] = statistics.median(runs) / 2000 * 1e6
print(json.dumps(out))
"""


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="src/ directory of the parent tree")
    ap.add_argument("change", help="src/ directory of the changed tree")
    args = ap.parse_args(argv)

    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for r in range(ROUNDS):
        for side in ("parent", "change") if r % 2 == 0 else ("change", "parent"):
            cmd = [sys.executable, "-c", CHILD, str(CALLS), str(PER_SHAPE), str(CAMPAIGNS)]
            done = subprocess.run(cmd, env={**os.environ, "PYTHONPATH": getattr(args, side)}, capture_output=True, text=True, check=True)
            runs[side].append(json.loads(done.stdout))
    for name in runs["parent"][0]:
        p, c = (statistics.median(run[name] for run in runs[side]) for side in ("parent", "change"))
        print(f"{name:40s} parent {p:9.1f} us  change {c:9.1f} us  ratio {c / p:.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
