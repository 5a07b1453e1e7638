import math
import tracemalloc

import numpy as np
import pytest

from equibound import (
    DistributionPair,
    InvariantViolation,
    JointDistribution,
    SymmetryElement,
    ValidationError,
    apply_symmetry,
    average_blocks,
    canonical_orient,
    conditional_entropy,
    continuity_bound,
    entropy,
    extremal_pair,
    marginal,
    perturb_within_tv,
    reorder,
    run_walk,
    sample_joint,
    tv_distance,
)
from equibound import walk


def _pair(p_rows, q_rows):
    return DistributionPair(JointDistribution(p_rows), JointDistribution(q_rows))


def _random_pair(rng, nx, ny):
    p = JointDistribution(rng.dirichlet(np.ones(nx * ny)).reshape(nx, ny))
    q = JointDistribution(rng.dirichlet(np.ones(nx * ny)).reshape(nx, ny))
    return DistributionPair(p, q)


# ---------------------------------------------------------------- canonical_orient

def test_orient_keeps_ordered_pair():
    pair = extremal_pair(0.5, 2, 1)
    assert canonical_orient(pair) is pair


def test_orient_swaps_reversed_pair():
    pair = extremal_pair(0.5, 2, 1)
    swapped = canonical_orient(DistributionPair(pair.q, pair.p))
    assert swapped.p == pair.p
    assert swapped.q == pair.q


def test_orient_no_swap_on_tie():
    J = JointDistribution([[0.25, 0.25], [0.25, 0.25]])
    K = JointDistribution([[0.25, 0.25], [0.25, 0.25]])
    oriented = canonical_orient(DistributionPair(J, K))
    assert oriented.p is J
    assert oriented.q is K


# ---------------------------------------------------------------- reorder

def _in_set_sizes(pair):
    """Per block of a reordered pair, the in-set size k: rows 1..k have q >= p, the others q < p."""
    in_set = pair.q.probs >= pair.p.probs
    k = in_set.sum(axis=0)
    assert np.array_equal(in_set, np.arange(pair.nx)[:, None] < k), "the in-set is not a prefix of every block"
    return k


def test_reorder_extremal_already_canonical():
    pair = extremal_pair(0.3, 2, 1)
    out = reorder(pair)
    assert out.p == pair.p
    assert out.q == pair.q
    assert _in_set_sizes(out).tolist() == [1]


def test_reorder_sorts_blocks_by_mass_surplus():
    # p_Y = (0.7, 0.3), q_Y = (0.4, 0.6): q_Y - p_Y = (-0.3, +0.3), so blocks swap
    pair = _pair([[0.4, 0.1], [0.3, 0.2]], [[0.2, 0.5], [0.2, 0.1]])
    out = reorder(pair)
    assert np.allclose(marginal(out.p, "y"), [0.3, 0.7], atol=1e-15)
    assert np.allclose(marginal(out.q, "y"), [0.6, 0.4], atol=1e-15)


def test_reorder_all_rows_in_set():
    # block 1: q >= p entrywise, so in_set covers both rows
    pair = _pair([[0.1, 0.7], [0.2, 0.0]], [[0.3, 0.4], [0.3, 0.0]])
    out = reorder(pair)
    assert _in_set_sizes(out)[0] == 2


def test_reorder_sorts_in_set_by_q_descending():
    pair = _pair([[0.1, 0.3], [0.2, 0.4]], [[0.2, 0.35], [0.3, 0.15]])
    out = reorder(pair)
    for j0, k in enumerate(_in_set_sizes(out).tolist()):
        qcol = out.q.probs[:, j0]
        assert all(qcol[i] >= qcol[i + 1] for i in range(k - 1))
        assert all(qcol[i] >= qcol[i + 1] for i in range(k, out.nx - 1))


def test_reorder_preserves_entropies_and_tv():
    rng = np.random.default_rng(42)
    for _ in range(100):
        pair = _random_pair(rng, int(rng.integers(2, 6)), int(rng.integers(1, 5)))
        out = reorder(pair)
        assert conditional_entropy(out.p) == pytest.approx(conditional_entropy(pair.p), abs=1e-12)
        assert conditional_entropy(out.q) == pytest.approx(conditional_entropy(pair.q), abs=1e-12)
        assert tv_distance(out.p, out.q) == pytest.approx(tv_distance(pair.p, pair.q), abs=1e-12)
        _in_set_sizes(out)


# ---------------------------------------------------------------- block processing
#
# The examples are written in canonical (reordered) form and run through the
# walk's lockstep block kernel, walk._walk_blocks, on copies of the grids.


def _process(pair, j):
    """Process block j (1-based) of a canonical pair; returns the new pair and the phases run."""
    assert reorder(pair) == pair, "example is not in canonical form"
    W = np.stack((pair.p.probs, pair.q.probs))
    block = W[:, :, j - 1 : j].copy()
    phases = [ph.kind for ph in walk._walk_blocks(block, 0, 1)]
    W[:, :, j - 1 : j] = block
    return DistributionPair(JointDistribution(W[0]), JointDistribution(W[1])), phases


def test_nonempty_block_two_rows_in_set():
    pair = _pair([[0.1, 0.0], [0.2, 0.7]], [[0.3, 0.0], [0.3, 0.4]])
    out, phases = _process(pair, 1)
    assert phases == ["concentrate", "transfer"]
    assert np.allclose(out.p.probs[:, 0], [0.3, 0.0], atol=1e-15)
    assert np.allclose(out.q.probs[:, 0], [0.6, 0.0], atol=1e-15)
    # block TV contribution 0.3 before and after; the other block untouched
    assert np.abs(out.p.probs[:, 0] - out.q.probs[:, 0]).sum() == pytest.approx(0.3, abs=1e-15)
    assert np.array_equal(out.p.probs[:, 1], pair.p.probs[:, 1])
    assert np.array_equal(out.q.probs[:, 1], pair.q.probs[:, 1])


def test_nonempty_block_equal_blocks_walk_together():
    pair = _pair([[0.5], [0.5]], [[0.5], [0.5]])
    out, phases = _process(pair, 1)
    assert phases == ["concentrate", "transfer"]
    assert out.p == JointDistribution([[1.0], [0.0]])
    assert out.q == JointDistribution([[1.0], [0.0]])
    assert tv_distance(out.p, out.q) == 0.0


def test_nonempty_block_singleton_in_set():
    # Phase 1 is a no-op; Phase 2 moves s = 0.2 in both grids
    pair = _pair([[0.5, 0.2], [0.0, 0.3]], [[0.55, 0.25], [0.0, 0.2]])
    before = np.abs(pair.p.probs[:, 1] - pair.q.probs[:, 1]).sum()
    out, phases = _process(pair, 2)
    assert phases == ["concentrate", "transfer"]
    assert np.allclose(out.q.probs[:, 1], [0.45, 0.0], atol=1e-15)
    assert np.allclose(out.p.probs[:, 1], [0.4, 0.1], atol=1e-15)
    after = np.abs(out.p.probs[:, 1] - out.q.probs[:, 1]).sum()
    assert before == pytest.approx(0.15, abs=1e-15)
    assert after == pytest.approx(before, abs=1e-15)


def test_empty_block_cap_binds_and_switches():
    pair = _pair([[0.2, 0.4], [0.1, 0.3]], [[0.5, 0.2], [0.1, 0.2]])
    out, phases = _process(pair, 2)
    assert phases == ["fill", "concentrate", "transfer"]
    assert np.allclose(out.q.probs[:, 1], [0.4, 0.0], atol=1e-15)
    assert np.array_equal(out.p.probs, pair.p.probs)
    assert np.abs(out.p.probs[:, 1] - out.q.probs[:, 1]).sum() == pytest.approx(0.3, abs=1e-15)


def test_empty_block_sources_run_out():
    pair = _pair([[0.0, 0.9], [0.05, 0.05]], [[0.4, 0.5], [0.06, 0.04]])
    out, phases = _process(pair, 2)
    assert phases == ["fill"]
    assert np.allclose(out.q.probs[:, 1], [0.54, 0.0], atol=1e-15)
    assert out.q.probs[0, 1] == pytest.approx(marginal(pair.q, "y")[1], abs=1e-15)
    assert np.array_equal(out.p.probs, pair.p.probs)


def test_empty_block_single_row_is_terminal():
    pair = _pair([[0.3, 0.7]], [[0.6, 0.4]])
    out, phases = _process(pair, 2)
    assert phases == ["fill"]
    assert out.p == pair.p
    assert out.q == pair.q


def test_block_processing_preserves_block_masses():
    rng = np.random.default_rng(7)
    for _ in range(100):
        pair = _random_pair(rng, int(rng.integers(2, 6)), int(rng.integers(1, 4)))
        reordered = reorder(canonical_orient(pair))
        W = np.stack((reordered.p.probs, reordered.q.probs))
        walk._walk_blocks(W, 0, W.shape[2])
        out = DistributionPair(JointDistribution(W[0]), JointDistribution(W[1]))
        assert np.allclose(marginal(out.p, "y"), marginal(reordered.p, "y"), atol=1e-12)
        assert np.allclose(marginal(out.q, "y"), marginal(reordered.q, "y"), atol=1e-12)
        assert tv_distance(out.p, out.q) == pytest.approx(tv_distance(reordered.p, reordered.q), abs=1e-12)
        # every block of q is a point mass on the top row
        assert np.all(out.q.probs[1:, :] == 0.0)


# ---------------------------------------------------------------- average_blocks

def test_average_blocks_examples():
    assert average_blocks(JointDistribution([[0.5, 0.0], [0.0, 0.5]])) == JointDistribution(
        [[0.25, 0.25], [0.25, 0.25]]
    )
    J = JointDistribution([[0.3, 0.3], [0.2, 0.2]])
    assert average_blocks(J) == J
    assert average_blocks(JointDistribution([[1.0, 0.0], [0.0, 0.0]])) == JointDistribution(
        [[0.5, 0.5], [0.0, 0.0]]
    )


def test_average_blocks_is_product_with_uniform_y():
    rng = np.random.default_rng(11)
    for _ in range(50):
        nx, ny = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        J = JointDistribution(rng.dirichlet(np.ones(nx * ny)).reshape(nx, ny))
        out = average_blocks(J)
        assert np.allclose(marginal(out, "y"), np.full(ny, 1.0 / ny), atol=1e-12)
        assert np.allclose(marginal(out, "x"), marginal(J, "x"), atol=1e-13)
        # every block identical
        assert np.all(out.probs == out.probs[:, :1])


def test_average_blocks_contracts_tv_and_raises_entropy():
    rng = np.random.default_rng(13)
    for _ in range(200):
        nx, ny = int(rng.integers(2, 6)), int(rng.integers(1, 5))
        pair = _random_pair(rng, nx, ny)
        ap, aq = average_blocks(pair.p), average_blocks(pair.q)
        assert tv_distance(ap, aq) <= tv_distance(pair.p, pair.q) + 1e-12
        assert conditional_entropy(ap) >= conditional_entropy(pair.p) - 1e-9


# ---------------------------------------------------------------- run_walk

def test_walk_extremal_pair_is_fixed_point():
    pair = extremal_pair(0.5, 2, 1)
    trace = run_walk(pair)
    assert all(step.tv == 0.5 for step in trace.steps)
    assert all(step.gap == 1.0 for step in trace.steps)
    assert trace.final.p == pair.p
    assert trace.final.q == pair.q


def test_walk_identical_pair():
    J = JointDistribution([[0.3, 0.2], [0.1, 0.4]])
    trace = run_walk(DistributionPair(J, J))
    assert trace.final_tv == 0.0
    assert trace.final_gap >= 0.0
    assert conditional_entropy(trace.final.q) == pytest.approx(0.0, abs=1e-12)


def test_walk_second_saturating_family():
    # initial gap 1 at tv 0.5 and bound(0.5, 2) = 1 pin the final gap at 1
    p = JointDistribution([[0.25, 0.25], [0.25, 0.25]])
    q = JointDistribution([[0.5, 0.5], [0.0, 0.0]])
    trace = run_walk(DistributionPair(p, q))
    assert trace.final_gap == pytest.approx(1.0, abs=1e-12)
    assert trace.final_tv <= 0.5 + 1e-12


def test_walk_trace_invariants_on_random_pairs():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        nx, ny = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        pair = _random_pair(rng, nx, ny)
        trace = run_walk(pair)
        assert len(trace.steps) <= 3 * ny + 4
        tvs = [s.tv for s in trace.steps]
        gaps = [s.gap for s in trace.steps]
        assert all(b <= a + 1e-9 for a, b in zip(tvs, tvs[1:]))
        assert all(b >= a - 1e-9 for a, b in zip(gaps, gaps[1:]))
        assert conditional_entropy(trace.final.q) <= 1e-9
        assert marginal(trace.final.q, "x")[0] == pytest.approx(1.0, abs=1e-9)
        # the final gap is the entropy of the final X-marginal of p
        assert trace.final_gap == pytest.approx(entropy(marginal(trace.final.p, "x")), abs=1e-12)
        if nx >= 2:
            assert trace.final_gap <= continuity_bound(trace.initial_tv, nx).value + 1e-9
        assert trace.final_gap >= trace.initial_gap - 1e-9


def test_walk_snapshot_modes():
    pair = DistributionPair(
        JointDistribution([[0.2, 0.3], [0.4, 0.1]]),
        JointDistribution([[0.4, 0.1], [0.1, 0.4]]),
    )
    phases = run_walk(pair, snapshots="phases")
    assert all(s.p is not None and s.q is not None for s in phases.steps)

    none = run_walk(pair, snapshots="none")
    assert all(s.p is None and s.q is None for s in none.steps)
    assert [s.label for s in none.steps] == [s.label for s in phases.steps]

    full = run_walk(pair, snapshots="all")
    sublabels = [s.label for s in full.steps if " i=" in s.label]
    assert sublabels, "per-move records expected in 'all' mode"
    assert all(s.transferred is not None for s in full.steps if " i=" in s.label)
    # phase records agree across modes
    assert [(s.label, s.tv, s.gap) for s in phases.steps] == [
        (s.label, s.tv, s.gap) for s in full.steps if " i=" not in s.label
    ]


def test_walk_rejects_unknown_snapshot_mode():
    pair = extremal_pair(0.3, 2, 1)
    with pytest.raises(ValidationError):
        run_walk(pair, snapshots="verbose")


def test_walk_guards_the_grid_and_the_trace_size(monkeypatch):
    from equibound import core

    pair = _random_pair(np.random.default_rng(100), 100, 100)  # 160 KB per grid
    big = _random_pair(np.random.default_rng(101), 300, 300)
    huge = DistributionPair(*[JointDistribution(np.full((1000, 1000), 1e-6))] * 2)
    real = walk._walk
    monkeypatch.setattr(walk, "_walk", lambda *args, **kwargs: pytest.fail("the pair was walked"))
    # an "all" trace may hold the reordered pair, 16 * nx * ny bytes, and per step a 16 * nx-byte
    # column state and a 320-byte row, over 3 * nx * ny + 4 steps: about 1.4 GB at 300x300 and
    # 49 GB at 1000x1000
    for refused, size in ((big, 1383860480), (huge, 48976065280)):
        n = refused.nx
        message = rf"^the 'all' snapshots of the {n}x{n} pair may take {size} bytes, over the trace guard 1073741824$"
        with pytest.raises(ValidationError, match=message):
            run_walk(refused, snapshots="all")
    monkeypatch.setattr(core, "MAX_GRID_CELLS", 100 * 100 - 1)
    for mode in ("none", "phases", "all"):
        with pytest.raises(ValidationError, match="grid-size guard"):
            run_walk(pair, snapshots=mode)
    monkeypatch.undo()
    assert walk._walk is real
    # "phases" may hold 16 * 10^4 bytes plus 16 * 100 + 320 bytes over 3 * 100 + 4 steps, about 0.7 MB,
    # and "all" 16 * 10^4 bytes plus 16 * 100 + 320 bytes over 3 * 10^4 + 4 steps, about 58 MB: both admitted
    assert len(run_walk(pair, snapshots="phases").steps) <= 304
    assert len(run_walk(pair, snapshots="all").steps) <= 30004


def test_walk_admits_a_128x128_all_trace_within_its_memory():
    # the guard admits 128 x 128 "all": its trace holds a 16 * 128-byte column state and a row per
    # step, and the walk's peak growth stays under 150 MB
    pair = _random_pair(np.random.default_rng(128), 128, 128)
    tracemalloc.start()
    try:
        trace = run_walk(pair, snapshots="all")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(trace.steps) <= 3 * 128 * 128 + 4
    assert peak < 150e6


def test_walk_single_outcome_alphabet():
    pair = _pair([[0.7, 0.3]], [[0.4, 0.6]])
    trace = run_walk(pair)
    assert trace.final_gap == 0.0
    assert conditional_entropy(trace.final.q) == 0.0


def test_walk_seeded_campaign_matches_verify_route():
    # same trial stream derivation as verify_trials (seed 900, trials 0..49), exercised directly
    for t in range(50):
        rng = np.random.default_rng([900, t])
        p = sample_joint(3, 3, rng)
        q = sample_joint(3, 3, rng)
        trace = run_walk(DistributionPair(p, q), snapshots="none")
        assert trace.final_gap >= abs(conditional_entropy(p) - conditional_entropy(q)) - 1e-9


# ---------------------------------------------------------------- block kernel against the sequential reference
#
# The three loops below are the original one-move-at-a-time phases, kept as
# the reference. The lockstep kernel runs each phase once over all blocks; it
# must reproduce their grids, moved masses and single-move states bit for bit,
# block by block.


def _ref_concentrate(P, Q, j0, on_move=None):
    moved = 0.0
    for i0 in range(1, P.shape[0]):
        if Q[i0, j0] >= P[i0, j0]:
            s = Q[i0, j0] - P[i0, j0]
            if s == 0.0:
                continue
            Q[0, j0] += s
            Q[i0, j0] = P[i0, j0]
            moved += s
            if on_move is not None:
                on_move("concentrate", i0 + 1, s)
    return moved


def _ref_transfer(P, Q, j0, on_move=None):
    moved = 0.0
    for i0 in range(1, P.shape[0]):
        s = Q[i0, j0]
        if s == 0.0:
            continue
        Q[0, j0] += s
        P[0, j0] += s
        Q[i0, j0] = 0.0
        P[i0, j0] -= s
        moved += s
        if on_move is not None:
            on_move("transfer", i0 + 1, s)
    return moved


def _ref_fill(P, Q, j0, on_move=None):
    moved = 0.0
    for i0 in range(P.shape[0] - 1, 0, -1):
        avail = Q[i0, j0]
        if avail == 0.0:
            continue
        cap = P[0, j0] - Q[0, j0]
        if avail >= cap:
            t = cap if cap > 0.0 else 0.0
            if t > 0.0:
                Q[i0, j0] -= t
                moved += t
            Q[0, j0] = P[0, j0]
            if on_move is not None:
                on_move("fill", i0 + 1, t)
            return moved, True
        Q[0, j0] += avail
        Q[i0, j0] = 0.0
        moved += avail
        if on_move is not None:
            on_move("fill", i0 + 1, avail)
    return moved, False


def _ref_process_block(P, Q, j0, in_set_nonempty, on_move=None):
    phases = []
    if not in_set_nonempty:
        moved, switched = _ref_fill(P, Q, j0, on_move)
        phases.append(("fill", moved))
        if not switched:
            return phases
    phases.append(("concentrate", _ref_concentrate(P, Q, j0, on_move)))
    phases.append(("transfer", _ref_transfer(P, Q, j0, on_move)))
    return phases


def _kernel_pairs(rng, count):
    kinds = ("independent", "near", "sparse")
    for t in range(count):
        nx, ny = int(rng.integers(1, 25)), int(rng.integers(1, 6))
        p = sample_joint(nx, ny, rng)
        kind = kinds[t % 3]
        if kind == "independent":
            q = sample_joint(nx, ny, rng)
        elif kind == "near":
            q = perturb_within_tv(p, 0.1, rng)
        else:
            q = JointDistribution(rng.dirichlet(np.full(nx * ny, 0.1)).reshape(nx, ny))
        yield DistributionPair(p, q)


def _tied_pairs(rng, count):
    # q = g.p for a block symmetry g: equal equivocations, which float sums may split either way
    for _ in range(count):
        nx, ny = int(rng.integers(2, 12)), int(rng.integers(1, 8))
        p = sample_joint(nx, ny, rng)
        yield DistributionPair(p, apply_symmetry(p, SymmetryElement.random(nx, ny, rng)))


def _wide_and_tall_pairs(rng):
    # one pair of each kind at a wide and a tall shape: many blocks of two rows, few blocks of many rows
    for nx, ny in ((2, 500), (300, 3)):
        p = sample_joint(nx, ny, rng)
        yield DistributionPair(p, sample_joint(nx, ny, rng))
        yield DistributionPair(p, perturb_within_tv(p, 0.1, rng))
        yield DistributionPair(p, JointDistribution(rng.dirichlet(np.full(nx * ny, 0.1)).reshape(nx, ny)))


def _signed_zero_pairs():
    """Pairs holding -0.0: two small ones, then _kernel_pairs(default_rng(20240), 240) with every 0.0 made -0.0."""
    yield _pair([[0.25, 0.25], [0.25, 0.25]], [[1.0, -0.0], [0.0, 0.0]])
    yield _pair([[0.5, -0.0], [0.5, 0.0]], [[0.25, 0.5], [0.0, 0.25]])
    for pair in _kernel_pairs(np.random.default_rng(20240), 240):
        yield DistributionPair(*(JointDistribution(np.where(J.probs == 0.0, -0.0, J.probs)) for J in (pair.p, pair.q)))


def _ref_blocks(P, Q):
    """The sequential reference, block after block: per block its phases and its single moves."""
    phases, moves = [], []
    for j0 in range(P.shape[1]):
        log = []

        def on_move(kind, i, s):
            log.append((kind, i, float(s), P[:, j0].tobytes(), Q[:, j0].tobytes()))

        phases.append(_ref_process_block(P, Q, j0, bool(Q[0, j0] >= P[0, j0]), on_move))
        moves.append(log)
    return phases, moves


def _kernel_blocks(W):
    """The lockstep kernel on W, regrouped per block like _ref_blocks."""
    ny = W.shape[2]
    phases, moves = [[] for _ in range(ny)], [[] for _ in range(ny)]
    for ph in walk._walk_blocks(W, 0, ny):
        for j0, moved in zip(ph.cols.tolist(), ph.moved.tolist()):
            phases[j0].append((ph.kind, moved))
        c, r, states = walk._move_states(ph)
        for n, (j0, i0) in enumerate(zip(ph.cols[c].tolist(), r.tolist())):
            p, q = states[:, :, n]
            moves[j0].append((ph.kind, i0 + 1, float(ph.s[i0, c[n]]), p.tobytes(), q.tobytes()))
    return phases, moves


def test_kernel_matches_sequential_reference():
    rng = np.random.default_rng(20240)
    switched = stayed = blocks = 0
    pairs = list(_kernel_pairs(rng, 240)) + list(_wide_and_tall_pairs(rng)) + list(_signed_zero_pairs())
    for pair in pairs:
        reordered = reorder(canonical_orient(pair))
        P0, Q0 = np.array(reordered.p.probs), np.array(reordered.q.probs)
        W = np.stack((P0, Q0))
        filled = Q0[0] < P0[0]
        ref_phases, ref_moves = _ref_blocks(P0, Q0)
        new_phases, new_moves = _kernel_blocks(W)
        assert new_phases == ref_phases
        assert all(type(moved) is float for block in new_phases for _, moved in block)
        assert W[0].tobytes() == P0.tobytes()
        assert W[1].tobytes() == Q0.tobytes()
        assert new_moves == ref_moves
        blocks += reordered.ny
        switched += sum(len(ph) == 3 for ph in ref_phases)
        stayed += sum(len(ph) == 1 for ph, f in zip(ref_phases, filled) if f)
    assert blocks >= 1000
    # both outcomes of the fill procedure are exercised
    assert switched > 0 and stayed > 0


def _ref_walk_steps(pair, mode):
    """(label, moved mass, snapshot bytes) of every block step, from the sequential reference."""
    reordered = reorder(canonical_orient(pair))
    P, Q = np.array(reordered.p.probs), np.array(reordered.q.probs)
    steps = []
    for j0 in range(P.shape[1]):

        def on_move(kind, i, s):
            if mode == "all":
                steps.append((f"block {j0 + 1} {kind} i={i}", float(s), P.tobytes() + Q.tobytes()))

        def phase(kind, moved):
            steps.append((f"block {j0 + 1} {kind}", moved, P.tobytes() + Q.tobytes()))

        if Q[0, j0] < P[0, j0]:
            moved, switched = _ref_fill(P, Q, j0, on_move)
            phase("fill", moved)
            if not switched:
                continue
        phase("concentrate", _ref_concentrate(P, Q, j0, on_move))
        phase("transfer", _ref_transfer(P, Q, j0, on_move))
    return steps


@pytest.mark.parametrize("mode", ["phases", "all"])
def test_walk_trace_matches_sequential_reference(mode):
    # the trace lists the lockstep kernel's steps block by block, with the snapshots of a sequential
    # walk from the pair as canonical_orient orients it, ties included
    rng = np.random.default_rng(505)
    pairs = list(_kernel_pairs(rng, 90)) + list(_tied_pairs(rng, 60))
    if mode == "phases":
        pairs += list(_wide_and_tall_pairs(rng))
    for pair in pairs:
        trace = run_walk(pair, snapshots=mode)
        assert len(trace.steps) <= (3 * pair.ny + 4 if mode == "phases" else 3 * pair.nx * pair.ny + 4)
        block_steps = [s for s in trace.steps if s.label.startswith("block ")]
        got = [(s.label, s.transferred, s.p.probs.tobytes() + s.q.probs.tobytes()) for s in block_steps]
        assert got == _ref_walk_steps(pair, mode)
        assert all(not s.p.probs.flags.writeable and not s.q.probs.flags.writeable for s in trace.steps)


@pytest.mark.parametrize("mode", ["phases", "all"])
def test_walk_steps_match_full_recompute(mode):
    rng = np.random.default_rng(77)
    for pair in _kernel_pairs(rng, 60):
        trace = run_walk(pair, snapshots=mode)
        for k, step in enumerate(trace.steps):
            gap = conditional_entropy(step.p) - conditional_entropy(step.q)
            if k == 0:
                gap = abs(gap)
            assert abs(step.tv - tv_distance(step.p, step.q)) <= 1e-12, step.label
            assert abs(step.gap - gap) <= 1e-12, step.label


def test_concentrate_leaves_p_as_it_was():
    # concentrate moves weight in q only, so p's bytes stay those of the step before, -0.0 or not
    for pair in _signed_zero_pairs():
        before = None
        for step in run_walk(pair, snapshots="all").steps:
            if " concentrate" in step.label:
                assert step.p.probs.tobytes() == before.p.probs.tobytes(), step.label
            before = step


def test_walk_orient_reuses_initial_measurement():
    pair = extremal_pair(0.3, 3, 2)
    trace = run_walk(DistributionPair(pair.q, pair.p))
    initial, orient = trace.steps[:2]
    assert (initial.label, orient.label) == ("initial", "orient")
    assert initial.p == pair.q and initial.q == pair.p
    assert orient.p == pair.p and orient.q == pair.q
    assert (orient.tv, orient.gap) == (initial.tv, initial.gap)
    assert initial.gap == pytest.approx(continuity_bound(0.3, 3).value, abs=1e-12)


def test_walk_of_the_swapped_pair_is_the_same_walk():
    # orienting fixes only the sign of the gap: unless the equivocations tie, (p, q) and (q, p)
    # start from the same tv and gap and take the same steps from "orient" on, bit for bit
    def steps(trace):
        return [
            (s.label, s.tv.hex(), s.gap.hex(), s.transferred, s.p.probs.tobytes() + s.q.probs.tobytes())
            for s in trace.steps[1:]
        ]

    walked = 0
    for pair in _kernel_pairs(np.random.default_rng(20240), 240):
        (gap,) = walk._orientation(np.array((pair.p.probs, pair.q.probs)))[2]
        if gap == 0.0:
            continue
        trace = run_walk(pair, snapshots="phases")
        swapped = run_walk(DistributionPair(pair.q, pair.p), snapshots="phases")
        assert (swapped.initial_tv.hex(), swapped.initial_gap.hex()) == (trace.initial_tv.hex(), trace.initial_gap.hex())
        assert steps(swapped) == steps(trace)
        walked += 1
    assert walked >= 200


def _three_block_pair():
    rng = np.random.default_rng(3)
    return DistributionPair(sample_joint(3, 3, rng), sample_joint(3, 3, rng))


@pytest.mark.parametrize("mode", ["none", "phases", "all"])
def test_faulty_move_raises_naming_the_block(monkeypatch, mode):
    real = walk._transfer

    def leaky(W, cols):
        phase = real(W, cols)
        if 1 in cols:
            # put half of block 2's q top row back below it
            half = W[1, 0, 1] / 2
            W[1, 0, 1] -= half
            W[1, 1, 1] += half
        return phase

    monkeypatch.setattr(walk, "_transfer", leaky)
    with pytest.raises(InvariantViolation, match=r"'block 2 transfer': block 2 "):
        run_walk(_three_block_pair(), snapshots=mode)


@pytest.mark.parametrize("mode", ["none", "phases", "all"])
def test_bad_entry_in_a_moved_column_raises(monkeypatch, mode):
    real = walk._concentrate

    def corrupt(W, cols):
        phase = real(W, cols)
        if 2 in cols:
            W[0, 1, 2] = np.nan
        return phase

    monkeypatch.setattr(walk, "_concentrate", corrupt)
    with pytest.raises(InvariantViolation, match=r"'block 3 concentrate': block 3 has an entry that is not finite"):
        run_walk(_three_block_pair(), snapshots=mode)


@pytest.mark.parametrize("mode", ["none", "phases", "all"])
def test_negative_entry_in_a_moved_column_raises(monkeypatch, mode):
    real = walk._transfer

    def negative(W, cols):
        # 1e-13 of block 3's q top row moved below a zero: tv, gap and mass move by far less than 1e-9
        phase = real(W, cols)
        if 2 in cols:
            W[1, 1, 2] -= 1e-13
            W[1, 0, 2] += 1e-13
        return phase

    monkeypatch.setattr(walk, "_transfer", negative)
    with pytest.raises(InvariantViolation, match=r"'block 3 transfer': block 3 has an entry that is not finite"):
        run_walk(_three_block_pair(), snapshots=mode)


def test_mass_drift_in_a_moved_column_raises(monkeypatch):
    real = walk._transfer

    def inflate(W, cols):
        # the same weight added to both top rows: tv is unchanged and the gap grows
        phase = real(W, cols)
        if 0 in cols:
            W[:, 0, 0] += 1e-6
        return phase

    monkeypatch.setattr(walk, "_transfer", inflate)
    with pytest.raises(InvariantViolation, match=r"'block 1 transfer': total mass of p is 1.00000"):
        run_walk(_three_block_pair(), snapshots="phases")


@pytest.mark.parametrize("mode", ["none", "phases", "all"])
def test_ledger_chunks_certify_the_same_trace(monkeypatch, mode):
    # ranges of one block, and of two blocks, against the one-range walk: the same trace, bit for bit
    rng = np.random.default_rng(606)
    pairs = list(_kernel_pairs(rng, 30))
    whole = [run_walk(pair, snapshots=mode) for pair in pairs]
    for blocks_per_range in (1, 2):
        for pair, expected in zip(pairs, whole):
            monkeypatch.setattr(walk, "_CHUNK_CELLS", blocks_per_range * pair.nx)
            trace = run_walk(pair, snapshots=mode)
            assert [(s.label, s.tv.hex(), s.gap.hex(), s.transferred, s.p, s.q) for s in trace.steps] == [
                (s.label, s.tv.hex(), s.gap.hex(), s.transferred, s.p, s.q) for s in expected.steps
            ]
            assert trace.final == expected.final


def _step_key(s):
    grids = b"-" if s.p is None else s.p.probs.tobytes() + s.q.probs.tobytes()
    return (s.label, s.tv.hex(), s.gap.hex(), s.transferred, grids)


@pytest.mark.parametrize("mode", ["none", "phases", "all"])
def test_trace_steps_read_in_any_order_match_in_order_iteration(monkeypatch, mode):
    # the steps are built when read: any index, slice or iterator gives the k-th step of the
    # in-order iteration, in one range and in ranges of one and two blocks
    rng = np.random.default_rng(1212)
    pairs = list(_kernel_pairs(rng, 24)) + list(_tied_pairs(rng, 12))
    cells = walk._CHUNK_CELLS
    for blocks_per_range in (None, 1, 2):
        for pair in pairs:
            monkeypatch.setattr(walk, "_CHUNK_CELLS", blocks_per_range * pair.nx if blocks_per_range else cells)
            steps = run_walk(pair, snapshots=mode).steps
            n = len(steps)
            forward = [_step_key(s) for s in steps]
            assert len(forward) == n
            assert [_step_key(steps[k]) for k in reversed(range(n))] == forward[::-1]
            assert [_step_key(s) for s in reversed(steps)] == forward[::-1]
            assert [_step_key(steps[k - n]) for k in range(n)] == forward
            assert [_step_key(s) for s in steps[1::3]] == forward[1::3]
            assert [_step_key(s) for s in steps[-3:]] == forward[-3:]
            assert steps[n:] == ()
            for k in (n, -n - 1):
                with pytest.raises(IndexError):
                    steps[k]
            with pytest.raises(TypeError):
                steps[0] = steps[1]
            ahead, behind = iter(steps), iter(steps)
            next(ahead)
            assert [(_step_key(a), _step_key(b)) for a, b in zip(ahead, behind)] == list(zip(forward[1:], forward))


@pytest.mark.parametrize("mode", ["phases", "all"])
def test_trace_snapshots_read_earlier_keep_their_bytes(monkeypatch, mode):
    # every read builds its own read-only grids: steps held while later ones are read keep their bytes
    rng = np.random.default_rng(1313)
    for blocks_per_range in (None, 1):
        for pair in _kernel_pairs(rng, 24):
            if blocks_per_range:
                monkeypatch.setattr(walk, "_CHUNK_CELLS", blocks_per_range * pair.nx)
            trace = run_walk(pair, snapshots=mode)
            forward = [_step_key(s) for s in trace.steps]
            held = list(trace.steps) + list(reversed(trace.steps))
            assert [_step_key(s) for s in held] == forward + forward[::-1]
            for s in held:
                for J in (s.p, s.q):
                    assert not J.probs.flags.writeable
                    with pytest.raises(ValueError):
                        J.probs[0, 0] = 0.5
            assert trace.final.p == held[len(forward) - 1].p and trace.final.q == held[len(forward) - 1].q


@pytest.mark.parametrize("mode", ["none", "phases", "all"])
def test_traces_of_the_same_pair_compare_equal(mode):
    # the steps compare step by step, as a tuple of steps does, unequal to what is not a
    # sequence, and show as that tuple
    rng = np.random.default_rng(1414)
    pair, other = _random_pair(rng, 3, 2), _random_pair(rng, 3, 2)
    trace = run_walk(pair, snapshots=mode)
    assert trace == run_walk(pair, snapshots=mode)
    assert trace.steps == tuple(trace.steps) and tuple(trace.steps) == trace.steps
    assert trace != run_walk(other, snapshots=mode)
    assert trace.steps != tuple(trace.steps)[:-1]
    assert trace.steps != 3 and (trace.steps == None) is False  # noqa: E711
    assert repr(trace.steps) == repr(tuple(trace.steps))
    assert repr(trace).startswith("WalkTrace(steps=(WalkStep(label='initial'")


def test_faulty_move_in_a_later_chunk_raises_naming_the_block(monkeypatch):
    monkeypatch.setattr(walk, "_CHUNK_CELLS", 3)  # one block per range
    test_faulty_move_raises_naming_the_block(monkeypatch, "none")


def _batch(pairs):
    """The pairs as one (2, trials, nx, ny) stack: the p grids, then the q grids."""
    return np.array([[pair.p.probs for pair in pairs], [pair.q.probs for pair in pairs]])


def _pairs_of_shape(rng, nx, ny, count):
    """count pairs of one shape, of the independent, near and sparse kinds in turn."""
    pairs = []
    for t in range(count):
        p = sample_joint(nx, ny, rng)
        if t % 3 == 0:
            q = sample_joint(nx, ny, rng)
        elif t % 3 == 1:
            q = perturb_within_tv(p, 0.1, rng)
        else:
            q = JointDistribution(rng.dirichlet(np.full(nx * ny, 0.1)).reshape(nx, ny))
        pairs.append(DistributionPair(p, q))
    return pairs


@pytest.mark.parametrize("shape", [(2, 1), (3, 2), (5, 4), (1, 3), (9, 1), (12, 3), (24, 5)])
def test_batched_walk_keeps_each_trials_totals(monkeypatch, shape):
    # one pass over many trials: each trial's running totals are bit-identical to its own walk,
    # and the zero-change steps that pad a shorter trial leave its totals as they are
    runs = []
    real = walk._running

    def recording(start, s):
        run = real(start, s)
        runs.append(run.copy())
        return run

    monkeypatch.setattr(walk, "_running", recording)
    nx, ny = shape
    rng = np.random.default_rng(808 + nx * ny)
    pairs = _pairs_of_shape(rng, nx, ny, 10)
    tb = walk._walk(_batch(pairs))
    (batch,) = runs
    for b, pair in enumerate(pairs):
        runs.clear()
        trace = run_walk(pair, snapshots="none")
        (own,) = runs
        n = own.shape[-1]
        assert batch[:, b, :n].tobytes() == own[:, 0].tobytes()
        assert (batch[:, b, n:] == own[:, 0, -1:]).all()
        assert (tb.initial_tv[b], tb.tv[b], tb.gap[b]) == (trace.initial_tv, trace.final_tv, trace.final_gap)


@pytest.mark.parametrize("shape", [(3, 2), (24, 2)])
def test_batched_ledger_chunks_split_trials(monkeypatch, shape):
    # ranges that end inside a trial carry its totals into the next range, and a lone last
    # block is measured like the others, so the ledger's totals do not depend on the ranges
    nx, ny = shape
    pairs = _pairs_of_shape(np.random.default_rng(909), nx, ny, 12)
    cells, certify, ledgers = walk._CHUNK_CELLS, walk._TraceBuilder._certify, []

    def recording(self, block, *args):
        result = certify(self, block, *args)
        ledgers.append((block.size, self.tv, self.gap, self.mass))
        return result

    monkeypatch.setattr(walk._TraceBuilder, "_certify", recording)
    walk._walk(_batch(pairs))
    (whole,) = [ledger[1:] for ledger in ledgers]
    # range sizes that leave a lone last block
    blocks = len(pairs) * ny
    lone_last = [c for c in range(2, blocks) if blocks % c == 1]
    assert lone_last
    for blocks_per_range in [1, 5] + lone_last:
        ledgers.clear()
        monkeypatch.setattr(walk, "_CHUNK_CELLS", blocks_per_range * nx)
        walk._walk(_batch(pairs))
        assert len(ledgers) == -(-blocks // blocks_per_range)
        assert ledgers[-1][1:] == whole
    monkeypatch.setattr(walk, "_CHUNK_CELLS", cells)
    for b, pair in enumerate(pairs):
        ledgers.clear()
        run_walk(pair, snapshots="none")
        _, tv, gap, (mp, mq) = ledgers[0]
        assert (tv, gap, mp, mq) == ([whole[0][b]], [whole[1][b]], [whole[2][0][b]], [whole[2][1][b]])


@pytest.mark.parametrize("shape", [(300, 300), (2, 50_000)])
def test_walk_takes_its_blocks_a_bounded_range_at_a_time(monkeypatch, shape):
    # every kernel call runs its phases on at most one range of blocks, and the calls cover each block once
    nx, ny = shape
    real, calls = walk._walk_blocks, []

    def recording(W, lo, hi, moves=True):
        phases = real(W, lo, hi, moves)
        calls.append(np.unique(np.concatenate([ph.cols for ph in phases])))
        return phases

    monkeypatch.setattr(walk, "_walk_blocks", recording)
    rng = np.random.default_rng(31)
    run_walk(DistributionPair(sample_joint(nx, ny, rng), sample_joint(nx, ny, rng)), snapshots="none")
    size = max(1, walk._CHUNK_CELLS // nx)
    assert len(calls) > 1
    assert max(cols.size for cols in calls) <= size
    assert np.array_equal(np.sort(np.concatenate(calls)), np.arange(ny))


@pytest.mark.parametrize("shape", [(300, 300), (2, 50_000)])
def test_walk_memory_stays_within_a_few_copies_of_the_pair(shape):
    # numpy reports its allocations to tracemalloc; the walk's peak is a few copies of the
    # stacked pair, since the kernel and its ledger hold one range of blocks at a time
    nx, ny = shape
    rng = np.random.default_rng(32)
    W = np.stack((sample_joint(nx, ny, rng).probs, sample_joint(nx, ny, rng).probs))
    tracemalloc.start()
    try:
        walk._walk(W[:, None])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * W.nbytes


def test_batched_walk_raises_its_first_failing_step(monkeypatch):
    # trials 4 and 5 fail at the same step: trial 4's comes first in trace order, with its own walk's message
    rng = np.random.default_rng(4)
    pairs = [DistributionPair(sample_joint(3, 3, rng), sample_joint(3, 3, rng)) for _ in range(6)]
    real = walk._concentrate

    def corrupt(trials):
        def concentrate(W, cols):
            phase = real(W, cols)
            for c in {3 * b + 2 for b in trials} & set(cols.tolist()):
                W[0, 1, c] = np.nan
            return phase

        return concentrate

    monkeypatch.setattr(walk, "_concentrate", corrupt([0]))
    with pytest.raises(InvariantViolation) as own:
        run_walk(pairs[4], snapshots="none")
    monkeypatch.setattr(walk, "_concentrate", corrupt([4, 5]))
    with pytest.raises(InvariantViolation) as exc:
        walk._walk(_batch(pairs))
    assert str(exc.value) == str(own.value)
    assert str(exc.value).startswith("step 'block 3 concentrate': block 3 has an entry that is not finite")


def test_whole_grid_snapshots_are_certified():
    pair = _three_block_pair()
    W = np.stack((pair.p.probs, pair.q.probs))

    def snapshot(W):
        # a whole-grid measurement certifies the grid before it records the snapshots
        # starting totals that no measurement's tv or gap fails against
        tb = walk._TraceBuilder("phases", 3, [math.inf], [-math.inf])
        tb.measure("average", W)
        (step,) = tb.steps
        return step.p, step.q

    p, q = snapshot(W)
    assert p == pair.p and q == pair.q
    assert p.probs.tobytes() == pair.p.probs.tobytes() and not p.probs.flags.writeable
    bad = W.copy()
    bad[1, 2, 0] = -1e-13
    with pytest.raises(InvariantViolation, match="'average': an entry is not finite or outside"):
        snapshot(bad)
    with pytest.raises(InvariantViolation, match="'average': total mass of p is 1.001"):
        snapshot(W * 1.001)


@pytest.mark.parametrize("mode", ["none", "phases", "all"])
def test_bad_entry_left_by_reorder_raises_at_reorder(monkeypatch, mode):
    # -1e-13 in both grids of the zero block: tv, gap and mass move by far less than 1e-9
    real = walk._reorder

    def negative(W, trials=1):
        out = real(W, trials)
        out[:, :, ~out.any(axis=(0, 1))] = -1e-13
        return out

    monkeypatch.setattr(walk, "_reorder", negative)
    with pytest.raises(InvariantViolation, match=r"^step 'reorder': an entry is not finite or outside \[0, 1.000000001\]$"):
        run_walk(extremal_pair(0.3, 3, 2), snapshots=mode)


def test_unprocessed_block_raises_naming_the_block(monkeypatch):
    def skipping(real):
        return lambda W, cols: real(W, cols[cols != 2])

    for name in ("_fill", "_concentrate", "_transfer"):
        monkeypatch.setattr(walk, name, skipping(getattr(walk, name)))
    with pytest.raises(InvariantViolation, match="block 3 processed but q still has weight below the top row"):
        run_walk(_three_block_pair())


def test_rising_running_total_is_caught(monkeypatch):
    real = walk._running

    def rising(start, s):
        run = real(start, s)
        run[0] += 2e-9 * np.arange(run.shape[-1])  # each step's block checks still pass
        return run

    monkeypatch.setattr(walk, "_running", rising)
    with pytest.raises(InvariantViolation, match=r"'block 1 [a-z]+': tv increased from "):
        run_walk(_three_block_pair(), snapshots="none")


def test_drift_of_running_totals_is_caught(monkeypatch):
    real = walk._running

    def drifting(start, s):
        run = real(start, s)
        run[0] -= 1e-9 * np.arange(run.shape[-1])  # a tv falling by 1e-9 per step passes every step check
        return run

    monkeypatch.setattr(walk, "_running", drifting)
    with pytest.raises(InvariantViolation, match="drifted from the full measurement"):
        run_walk(_three_block_pair(), snapshots="none")
