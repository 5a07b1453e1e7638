"""Digest every walk and campaign result on a fixed input set, to compare two trees bit for bit.

    PYTHONPATH=<tree>/src python tools/walk_digest.py

prints one SHA-256 per section. Two trees whose digests match give the same
bits on these inputs:

- walks: every pair of tests/test_walk.py's `_kernel_pairs(default_rng(20240), 240)`
  and one pair of each kind (independent, near, sparse) at each bench walk
  shape, in all three snapshot modes: labels, tv and gap (float.hex), moved
  masses, snapshot bytes and final-grid bytes;
- campaigns: the 32 bench `campaign` items (seed 2001) and the sixteen
  campaigns of acceptance criterion 1: violation counts,
  max_gap_over_bound_ratio (float.hex) and worst-pair bytes.

The pairs are drawn by this tree's tests and the package under PYTHONPATH,
so run it from one checkout with PYTHONPATH pointing at each tree in turn.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from equibound import DistributionPair, JointDistribution, perturb_within_tv, run_walk, sample_joint, verify_trials  # noqa: E402
from test_walk import _kernel_pairs  # noqa: E402

BENCH_SHAPES = [(48, 48), (16, 144), (144, 16), (12, 12), (6, 24), (24, 6)]
CAMPAIGN_SHAPES = [(nx, ny) for nx in range(2, 6) for ny in range(1, 5)]


def _hex(x):
    return "none" if x is None else float(x).hex()


def _grid(J):
    return b"-" if J is None else J.probs.tobytes()


def _bench_pairs(rng):
    for nx, ny in BENCH_SHAPES:
        p = sample_joint(nx, ny, rng)
        yield DistributionPair(p, sample_joint(nx, ny, rng))
        yield DistributionPair(p, perturb_within_tv(p, 0.1, rng))
        yield DistributionPair(p, JointDistribution(rng.dirichlet(np.full(nx * ny, 0.1)).reshape(nx, ny)))


def walks() -> tuple[int, str]:
    h, count = hashlib.sha256(), 0
    pairs = list(_kernel_pairs(np.random.default_rng(20240), 240)) + list(_bench_pairs(np.random.default_rng(2001)))
    for pair in pairs:
        for mode in ("none", "phases", "all"):
            trace = run_walk(pair, snapshots=mode)
            for s in trace.steps:
                h.update(f"{s.label}|{_hex(s.tv)}|{_hex(s.gap)}|{_hex(s.transferred)}|".encode())
                h.update(_grid(s.p) + _grid(s.q))
            h.update(_grid(trace.final.p) + _grid(trace.final.q))
            count += 1
    return count, h.hexdigest()


def campaigns() -> tuple[int, str]:
    rng = np.random.default_rng(2001)
    items = [(nx, ny, eps, int(rng.integers(0, 2**31)), 20) for nx, ny in CAMPAIGN_SHAPES for eps in (None, 0.1)]
    items += [(nx, ny, None, 20260810 + 97 * nx + ny, 100_000 // 16) for nx, ny in CAMPAIGN_SHAPES]
    h = hashlib.sha256()
    for nx, ny, eps, seed, trials in items:
        rep = verify_trials(nx, ny, trials, seed, eps=eps)
        h.update(f"{rep.violations}|{_hex(rep.max_gap_over_bound_ratio)}|".encode())
        h.update(_grid(rep.worst_pair.p) + _grid(rep.worst_pair.q))
    return len(items), h.hexdigest()


if __name__ == "__main__":
    for name, section in (("walks", walks), ("campaigns", campaigns)):
        count, digest = section()
        print(f"{name} {count} {digest}")
