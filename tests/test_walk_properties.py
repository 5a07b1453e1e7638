"""Property tests of the walk on adversarial grids: sparse, quantized, and masses near 1e-13.

Each example checks the walk's invariants, and that the per-block ledger the
walk certifies with agrees with a full recompute of every snapshot.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from equibound import (
    DistributionPair,
    JointDistribution,
    conditional_entropy,
    continuity_bound,
    marginal,
    run_walk,
    tv_distance,
)
from equibound.walk import STEP_TOL

LEDGER_TOL = 1e-12


def _grid(kind: str, nx: int, ny: int, rng: np.random.Generator) -> np.ndarray:
    n = nx * ny
    if kind == "sparse":
        a = np.where(rng.random(n) < 0.2, rng.random(n), 0.0)
    elif kind == "quantized":
        a = rng.integers(0, 4, n).astype(float)
    else:  # tiny: most cells near 1e-13, a few carry the mass
        a = rng.random(n) * 2e-13
        a[rng.integers(0, n, 1 + n // 50)] = rng.random(1 + n // 50) + 0.1
    if a.sum() == 0.0:
        a[rng.integers(0, n)] = 1.0
    return (a / a.sum()).reshape(nx, ny)


@st.composite
def pairs(draw):
    nx = draw(st.integers(1, 30))
    ny = draw(st.integers(1, 20))
    kinds = st.sampled_from(["sparse", "quantized", "tiny"])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = _grid(draw(kinds), nx, ny, rng)
    q = _grid(draw(kinds), nx, ny, rng)
    return DistributionPair(JointDistribution(p), JointDistribution(q))


@settings(max_examples=150, deadline=None)
@given(pairs())
def test_walk_invariants_and_ledger(pair):
    trace = run_walk(pair, snapshots="phases")
    steps = trace.steps
    for a, b in zip(steps, steps[1:]):
        assert b.tv <= a.tv + STEP_TOL, b.label
        assert b.gap >= a.gap - STEP_TOL, b.label
    for k, step in enumerate(steps):
        gap = conditional_entropy(step.p) - conditional_entropy(step.q)
        assert abs(step.tv - tv_distance(step.p, step.q)) <= LEDGER_TOL, step.label
        assert abs(step.gap - (abs(gap) if k == 0 else gap)) <= LEDGER_TOL, step.label
    assert conditional_entropy(trace.final.q) <= STEP_TOL
    assert abs(marginal(trace.final.q, "x")[0] - 1.0) <= STEP_TOL
    if pair.nx >= 2:
        assert trace.final_gap <= continuity_bound(trace.initial_tv, pair.nx).value + STEP_TOL

    # the unsnapshotted walk certifies the same values
    bare = run_walk(pair, snapshots="none")
    assert [(s.label, s.tv, s.gap) for s in bare.steps] == [(s.label, s.tv, s.gap) for s in steps]
