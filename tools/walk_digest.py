"""Digest every walk, campaign and grid-search result on a fixed input set, to compare two trees bit for bit.

    PYTHONPATH=<tree>/src python tools/walk_digest.py [SECTION ...]

prints one line per section, `name count sha256`, for the sections named
(walks, campaigns, ranges, orientation, jsonl, search; all of them, in
that order, by default). An unknown section exits 2. Two trees whose
digests match give the same bits on these inputs:

- walks: every pair of tests/test_walk.py's `_kernel_pairs(default_rng(20240), 240)`
  and one pair of each kind (independent, near, sparse) at each bench walk
  shape, in all three snapshot modes: labels, tv and gap (float.hex), moved
  masses, snapshot bytes and final-grid bytes;
- campaigns: the 32 bench `campaign` items (seed 2001) and the sixteen
  campaigns of acceptance criterion 1: violation counts,
  max_gap_over_bound_ratio (float.hex) and worst-pair bytes;
- ranges: walks past the kernel's cell budget, so that each walks its blocks
  in several ranges: one pair of each kind at 200x200 and 1000x40 in the
  "none" and "phases" modes, and at 2x30000 and 20000x2 in "none" mode,
  hashed like the walks;
- orientation: the walks whose orientation swaps or ties: every pair of
  `_kernel_pairs(default_rng(20240), 240)` walked swapped, (q, p), in
  "none" mode, 120 of tests/test_walk.py's `_tied_pairs` (pairs related
  by a block symmetry) in all three modes, hashed like the walks, and one
  200-trial eps = 0 campaign (q = p) at each shape of criterion 1, hashed
  like the campaigns;
- jsonl: the walks section's pairs in all three snapshot modes, each trace
  written by `cli.write_trace` and hashed byte for byte;
- search: `grid_search_max_gap` on the bench `grid_search` oracle set, on
  the configurations of tests/test_verify.py's bit-identity test against
  the loop reference (three of them at 101 steps, where L1 distances
  reach 202), on the four grids of 7 and 8 cells the tests search, and on
  three desk-scale grids with the most orbits or the largest symmetry
  groups, (3,2,0.3,44), (4,2,0.3,22) and (2,4,0.2,20), each once (34 in
  all, two of them with eps below 1/(2*steps_per_dim), where only b = a
  is feasible): max_gap (float.hex) and the argmax pair's bytes.

The pairs are drawn by this tree's tests and the package under PYTHONPATH,
so run it from one checkout with PYTHONPATH pointing at each tree in turn.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from equibound import cli  # noqa: E402
from equibound import (  # noqa: E402
    DistributionPair,
    JointDistribution,
    grid_search_max_gap,
    perturb_within_tv,
    run_walk,
    sample_joint,
    verify_trials,
)
from test_walk import _kernel_pairs, _tied_pairs  # noqa: E402

BENCH_SHAPES = [(48, 48), (16, 144), (144, 16), (12, 12), (6, 24), (24, 6)]
# (shape, modes) of the walks that span several ranges of blocks
RANGE_WALKS = [((200, 200), ("none", "phases")), ((1000, 40), ("none", "phases")), ((2, 30000), ("none",)), ((20000, 2), ("none",))]
CAMPAIGN_SHAPES = [(nx, ny) for nx in range(2, 6) for ny in range(1, 5)]
# (nx, ny, eps, steps_per_dim): the bench oracle set, the bit-identity test's configurations, the
# grids of 7 and 8 cells, then three desk-scale grids
SEARCH_CONFIGS = [
    (2, 1, 0.3, 100), (2, 2, 0.3, 40), (3, 2, 0.3, 16), (2, 3, 0.2, 16), (3, 2, 0.3, 22),
    (3, 2, 0.3, 10), (3, 2, 0.6, 6), (2, 3, 0.2, 10), (2, 3, 0.5, 6),
    (2, 1, 0.05, 100), (2, 1, 0.5, 100), (3, 1, 1.0 - 1.0 / 3, 20),
    (2, 1, 0.3, 1), (3, 2, 0.3, 1), (2, 3, 0.5, 1), (3, 1, 0.4, 30), (2, 2, 0.3, 20),
    (6, 1, 0.3, 14), (3, 2, 0.1, 12), (2, 3, 0.33, 12), (3, 2, 0.01, 8), (2, 1, 0.004, 100),
    (2, 3, 0.25, 12), (2, 2, 0.05, 40), (2, 1, 0.5, 101), (3, 1, 1.0 - 1.0 / 3, 101), (3, 1, 0.1, 101),
    (4, 2, 0.3, 10), (2, 4, 0.25, 8), (8, 1, 0.35, 20), (7, 1, 0.3, 5),
    (3, 2, 0.3, 44), (4, 2, 0.3, 22), (2, 4, 0.2, 20),
]


def _hex(x):
    return "none" if x is None else float(x).hex()


def _grid(J):
    return b"-" if J is None else J.probs.tobytes()


def _bench_pairs(rng, shapes=BENCH_SHAPES):
    for nx, ny in shapes:
        p = sample_joint(nx, ny, rng)
        yield DistributionPair(p, sample_joint(nx, ny, rng))
        yield DistributionPair(p, perturb_within_tv(p, 0.1, rng))
        yield DistributionPair(p, JointDistribution(rng.dirichlet(np.full(nx * ny, 0.1)).reshape(nx, ny)))


def _walk_digest(runs, h=None) -> tuple[int, str]:
    # runs: (pair, modes) items; one walk per pair and mode
    h, count = h or hashlib.sha256(), 0
    for pair, modes in runs:
        for mode in modes:
            trace = run_walk(pair, snapshots=mode)
            for s in trace.steps:
                h.update(f"{s.label}|{_hex(s.tv)}|{_hex(s.gap)}|{_hex(s.transferred)}|".encode())
                h.update(_grid(s.p) + _grid(s.q))
            h.update(_grid(trace.final.p) + _grid(trace.final.q))
            del trace  # else the next walk's trace is built while this one is still held
            count += 1
    return count, h.hexdigest()


def _walks_pairs():
    return list(_kernel_pairs(np.random.default_rng(20240), 240)) + list(_bench_pairs(np.random.default_rng(2001)))


def walks() -> tuple[int, str]:
    return _walk_digest((pair, ("none", "phases", "all")) for pair in _walks_pairs())


def ranges() -> tuple[int, str]:
    rng = np.random.default_rng(2002)
    return _walk_digest((pair, modes) for shape, modes in RANGE_WALKS for pair in _bench_pairs(rng, [shape]))


def _campaign_digest(items, h=None) -> tuple[int, str]:
    # items: (nx, ny, eps, seed, trials); one campaign each
    h = h or hashlib.sha256()
    for nx, ny, eps, seed, trials in items:
        rep = verify_trials(nx, ny, trials, seed, eps=eps)
        h.update(f"{rep.violations}|{_hex(rep.max_gap_over_bound_ratio)}|".encode())
        h.update(_grid(rep.worst_pair.p) + _grid(rep.worst_pair.q))
    return len(items), h.hexdigest()


def campaigns() -> tuple[int, str]:
    rng = np.random.default_rng(2001)
    items = [(nx, ny, eps, int(rng.integers(0, 2**31)), 20) for nx, ny in CAMPAIGN_SHAPES for eps in (None, 0.1)]
    items += [(nx, ny, None, 20260810 + 97 * nx + ny, 100_000 // 16) for nx, ny in CAMPAIGN_SHAPES]
    return _campaign_digest(items)


def orientation() -> tuple[int, str]:
    swapped = [DistributionPair(pair.q, pair.p) for pair in _kernel_pairs(np.random.default_rng(20240), 240)]
    tied = list(_tied_pairs(np.random.default_rng(2003), 120))
    runs = [(pair, ("none",)) for pair in swapped] + [(pair, ("none", "phases", "all")) for pair in tied]
    h = hashlib.sha256()
    walked, _ = _walk_digest(runs, h)
    campaigned, digest = _campaign_digest([(nx, ny, 0.0, 2003, 200) for nx, ny in CAMPAIGN_SHAPES], h)
    return walked + campaigned, digest


def jsonl() -> tuple[int, str]:
    h, count = hashlib.sha256(), 0
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "trace.jsonl")
        for pair in _walks_pairs():
            for mode in ("none", "phases", "all"):
                cli.write_trace(run_walk(pair, snapshots=mode), path)
                h.update(Path(path).read_bytes())
                count += 1
    return count, h.hexdigest()


def search() -> tuple[int, str]:
    h = hashlib.sha256()
    for cfg in SEARCH_CONFIGS:
        result = grid_search_max_gap(*cfg)
        h.update(f"{result.max_gap.hex()}|".encode())
        h.update(_grid(result.argmax_pair.p) + _grid(result.argmax_pair.q))
    return len(SEARCH_CONFIGS), h.hexdigest()


SECTIONS = {"walks": walks, "campaigns": campaigns, "ranges": ranges, "orientation": orientation, "jsonl": jsonl, "search": search}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description="Print one 'name count sha256' line per section, in the order given.")
    parser.add_argument("sections", nargs="*", metavar="SECTION",
                        help=f"sections to digest, from {' '.join(SECTIONS)} (default: all, in that order)")
    names = parser.parse_args(argv).sections or list(SECTIONS)
    # checked here, not by choices=: Python 3.10 and 3.11 reject an empty nargs="*" list against choices
    unknown = [name for name in names if name not in SECTIONS]
    if unknown:
        parser.error(f"unknown section {unknown[0]!r} (choose from {', '.join(SECTIONS)})")
    for name in names:
        count, digest = SECTIONS[name]()
        print(f"{name} {count} {digest}")


if __name__ == "__main__":
    main()
