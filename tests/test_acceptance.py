"""Acceptance suite: every criterion runs at its stated tolerance.

Each test prints one `[PASS]`/`[FAIL]` line (visible with `pytest -s`).
The module takes about 9-12 s on a 2-CPU host, most of it in the 10 000
walk certificates (about 5.5-7.5 s); the 100 000-pair bound-validity
campaign takes about 1-1.5 s.
"""

import json
import subprocess
import sys
import time

import numpy as np

from equibound import (
    DistributionPair,
    JointDistribution,
    SymmetryElement,
    apply_symmetry,
    average_blocks,
    conditional_entropy,
    continuity_bound,
    extremal_pair,
    grid_search_max_gap,
    marginal,
    run_walk,
    sample_joint,
    tv_distance,
    verify_trials,
)
from equibound.cli import distribution_doc, parse_distribution

SEED = 20260810
NX_RANGE = (2, 3, 4, 5)
NY_RANGE = (1, 2, 3, 4)
H_03 = 0.8812908992306926  # binary entropy at 0.3, frozen from mpmath


def report(num, description, ok, detail=""):
    marker = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{marker}] criterion {num}: {description}{suffix}")
    assert ok, f"criterion {num} failed: {description}{suffix}"


def test_criterion_1_bound_validity():
    t0 = time.time()
    total_trials = 0
    total_violations = 0
    per_combo = 100_000 // (len(NX_RANGE) * len(NY_RANGE))
    for nx in NX_RANGE:
        for ny in NY_RANGE:
            rep = verify_trials(nx, ny, per_combo, seed=SEED + 97 * nx + ny)
            total_trials += rep.trials
            total_violations += rep.violations
            assert rep.max_gap_over_bound_ratio <= 1.0 + 1e-9
    elapsed = time.time() - t0
    report(
        1,
        "bound validity on 1e5 random pairs",
        total_violations == 0 and total_trials == per_combo * 16,
        f"{total_trials} trials, {total_violations} violations, {elapsed:.1f}s",
    )


def test_criterion_2_tightness_of_extremal_pairs():
    worst = 0.0
    for nx in NX_RANGE:
        edge = 1.0 - 1.0 / nx
        for k in range(1, 21):
            eps = k * edge / 20.0
            pair = extremal_pair(eps, nx, 1)
            gap = conditional_entropy(pair.p) - conditional_entropy(pair.q)
            worst = max(worst, abs(gap - continuity_bound(eps, nx).value))
    report(2, "extremal pairs saturate the bound to 1e-12", worst <= 1e-12, f"worst |gap-bound| = {worst:.2e}")


def test_criterion_3_brute_force_tightness_oracle():
    t0 = time.time()
    result = grid_search_max_gap(2, 1, 0.3, 100)
    elapsed = time.time() - t0
    ok = abs(result.max_gap - H_03) <= 0.02 and result.max_gap <= result.bound + 1e-9
    report(3, "grid oracle (2,1,eps=0.3,steps=100) reaches h(0.3)", ok,
           f"max_gap = {result.max_gap:.7f}, bound = {result.bound:.7f}, {elapsed:.1f}s")


def test_criterion_4_conditioning_independence():
    result = grid_search_max_gap(2, 2, 0.3, 50)
    bound = continuity_bound(0.3, 2).value
    ok = result.max_gap <= bound + 1e-9 and result.max_gap >= bound - 0.05
    report(4, "grid oracle (2,2) stays within the |Y|-independent bound", ok,
           f"max_gap = {result.max_gap:.7f}, bound = {bound:.7f}")


def test_criterion_5_walk_certificate():
    t0 = time.time()
    per_combo = 10_000 // (len(NX_RANGE) * len(NY_RANGE))
    checked = 0
    for nx in NX_RANGE:
        for ny in NY_RANGE:
            for t in range(per_combo):
                rng = np.random.default_rng(SEED + 1_000_000 + 1009 * nx + 31 * ny + t)
                pair = DistributionPair(sample_joint(nx, ny, rng), sample_joint(nx, ny, rng))
                trace = run_walk(pair, snapshots="none")
                tvs = [s.tv for s in trace.steps]
                gaps = [s.gap for s in trace.steps]
                assert all(b <= a + 1e-9 for a, b in zip(tvs, tvs[1:]))
                assert all(b >= a - 1e-9 for a, b in zip(gaps, gaps[1:]))
                assert conditional_entropy(trace.final.q) <= 1e-9
                assert abs(marginal(trace.final.q, "x")[0] - 1.0) <= 1e-9
                assert trace.final_gap <= continuity_bound(trace.initial_tv, nx).value + 1e-9
                checked += 1
    elapsed = time.time() - t0
    report(5, "walk certificate on 1e4 random pairs", checked == per_combo * 16,
           f"{checked} walks, 0 violations, {elapsed:.1f}s")


def test_criterion_6_formula_equivalence():
    rng = np.random.default_rng(SEED + 6)
    worst = 0.0
    for _ in range(10_000):
        nx, ny = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        J = JointDistribution(rng.dirichlet(np.ones(nx * ny)).reshape(nx, ny))
        hs = [conditional_entropy(J, f) for f in ("difference", "mixture", "direct")]
        worst = max(worst, max(hs) - min(hs))
    report(6, "three equivocation formulas agree to 1e-10 on 1e4 grids", worst <= 1e-10,
           f"worst spread = {worst:.2e}")


def test_criterion_7_symmetry_invariance():
    rng = np.random.default_rng(SEED + 7)
    nx, ny = 4, 3
    joints = [JointDistribution(rng.dirichlet(np.ones(nx * ny)).reshape(nx, ny)) for _ in range(100)]
    worst_h = 0.0
    worst_tv = 0.0
    for _ in range(100):
        g = SymmetryElement.random(nx, ny, rng)
        images = [apply_symmetry(J, g) for J in joints]
        for J, gJ in zip(joints, images):
            worst_h = max(worst_h, abs(conditional_entropy(gJ) - conditional_entropy(J)))
        for k in range(len(joints)):
            a, b = joints[k], joints[(k + 1) % len(joints)]
            worst_tv = max(worst_tv, abs(tv_distance(images[k], images[(k + 1) % len(joints)]) - tv_distance(a, b)))
    ok = worst_h <= 1e-12 and worst_tv <= 1e-12
    report(7, "equivocation and TV invariant under 100x100 block symmetries", ok,
           f"worst dH = {worst_h:.2e}, worst dTV = {worst_tv:.2e}")


def test_criterion_8_averaging_map_properties():
    rng = np.random.default_rng(SEED + 8)
    worst_expand = -1.0
    worst_drop = -1.0
    for _ in range(1000):
        nx, ny = int(rng.integers(2, 6)), int(rng.integers(1, 5))
        p = JointDistribution(rng.dirichlet(np.ones(nx * ny)).reshape(nx, ny))
        q = JointDistribution(rng.dirichlet(np.ones(nx * ny)).reshape(nx, ny))
        ap, aq = average_blocks(p), average_blocks(q)
        worst_expand = max(worst_expand, tv_distance(ap, aq) - tv_distance(p, q))
        worst_drop = max(worst_drop, conditional_entropy(p) - conditional_entropy(ap))
    ok = worst_expand <= 1e-12 and worst_drop <= 1e-9
    report(8, "block averaging is TV-contractive and entropy non-decreasing", ok,
           f"worst expansion = {worst_expand:.2e}, worst entropy drop = {worst_drop:.2e}")


def test_criterion_9_cli_goldens_and_round_trip(tmp_path):
    bound_proc = subprocess.run(
        [sys.executable, "-m", "equibound", "bound", "--epsilon", "0.5", "--nx", "2"],
        capture_output=True, text=True,
    )
    bound_ok = bound_proc.returncode == 0 and json.loads(bound_proc.stdout)["value"] == 1.0

    extremal_proc = subprocess.run(
        [sys.executable, "-m", "equibound", "extremal", "--epsilon", "0.5", "--nx", "2", "--ny", "1"],
        capture_output=True, text=True,
    )
    extremal_ok = extremal_proc.returncode == 0 and json.loads(extremal_proc.stdout) == {
        "p": {"nx": 2, "ny": 1, "probs": [[0.5], [0.5]]},
        "q": {"nx": 2, "ny": 1, "probs": [[1.0], [0.0]]},
    }

    rng = np.random.default_rng(SEED + 9)
    round_trip_ok = True
    for _ in range(25):
        nx, ny = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        J = JointDistribution(rng.dirichlet(np.ones(nx * ny)).reshape(nx, ny))
        path = tmp_path / "dist.json"
        path.write_text(json.dumps(distribution_doc(J)))
        round_trip_ok = round_trip_ok and parse_distribution(path.read_text()) == J

    ok = bound_ok and extremal_ok and round_trip_ok
    report(9, "CLI goldens and bit-exact file round-trip", ok,
           f"bound_ok={bound_ok}, extremal_ok={extremal_ok}, round_trip_ok={round_trip_ok}")
