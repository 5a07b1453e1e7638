"""Executable simplex walk: transport a pair to the extremal configuration.

The walk turns the tightness argument into a runtime-checkable certificate.
Starting from any pair (p, q) it

1. orients the pair so p has the larger equivocation H(X|Y), as the walk
   measures it (ties are left as they are),
2. reorders blocks and rows into a canonical form,
3. drives every block of q to a point mass on its top row
   (so H(X'|Y') = 0), moving shared weight in p where needed,
4. averages both grids over blocks, leaving product distributions with a
   uniform Y-marginal.

Along the way the total variation distance never increases and the
equivocation gap never decreases; a violation beyond 1e-9 raises
InvariantViolation (that signals an implementation bug, never valid-input
behavior). The final gap is then at most the continuity bound evaluated at
the initial TV.

After reordering the blocks are independent, so step 3 runs them in
lockstep: each phase (fill, concentrate, transfer) runs once, as array
operations down the rows, over every block it applies to. The trace still
lists the steps block by block (block 1's phases, then block 2's, ...), and
its grids, moved masses and snapshots are bit-identical to processing the
blocks one after another.

The certificate is block-local. TV and H(X|Y) = sum_j p_Y(j) H(X|Y=j) are
both sums of per-Y-block terms, and every step changes a single block, so a
block step is measured on its own column: O(nx) per step, in one array pass
over the block steps. Each step's block TV must not rise and its gap must
not fall, its column's entries must be finite and in [0, 1 + 1e-9], and
the running totals (the per-step changes summed in trace order) must keep
TV non-increasing, the gap non-decreasing and each grid's mass within 1e-9
of 1. The first failing step in trace order raises. The whole grid is
measured only at the initial pair, after reordering, once before averaging
as a cross-check of the running totals (a drift beyond 1e-9 raises
InvariantViolation), and after averaging. The reordered and the averaged
grids are certified the same way in every snapshot mode and in batches:
entries finite and in [0, 1 + 1e-9], each grid's mass within 1e-9 of 1.
Snapshots are read-only copies of this certified state, not re-validated
grids.

The initial measurement also decides the orientation, and it is the only
rule that does: canonical_orient is its one-pair case. Pairs related by a
block symmetry have equal equivocations, but float sums taken in different
orders may split such a tie either way; one rule splits it the same way
everywhere.

Because the blocks are independent, the columns of many pairs placed side
by side form one valid input too. A campaign (verify.verify_trials) walks a
whole batch of trials in one pass: each trial is oriented, reordered and
averaged within its own columns, the kernel runs once over all of them,
and the ledger keeps the running totals per trial, padding a trial with
fewer steps with steps that change nothing (adding 0.0 is exact). Each
trial's columns are summed as its own walk sums them, so its totals are
bit-identical to its own walk. run_walk is this path for one pair, plus the
trace. A batch raises at its first failing check, as a single walk does.

Block labels and trace labels are 1-based; in-memory arrays are 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Literal

import numpy as np

from .bounds import continuity_bound
from .core import (
    MASS_TOL,
    MAX_TRACE_BYTES,
    UPPER_TOL,
    DistributionPair,
    JointDistribution,
    ValidationError,
    _check_grid_size,
    _freeze,
    _in_range,
    _xlog2x_arr,
)

STEP_TOL = 1e-9  # tolerance for every walk invariant

SnapshotMode = Literal["phases", "all", "none"]
_SNAPSHOT_MODES = ("phases", "all", "none")


class InvariantViolation(RuntimeError):
    """A walk step broke a monotonicity or terminal-state guarantee."""


@dataclass(frozen=True)
class WalkStep:
    """One recorded step: label, measured tv/gap, optional snapshots and moved mass."""

    label: str
    tv: float
    gap: float
    p: JointDistribution | None = None
    q: JointDistribution | None = None
    transferred: float | None = None


@dataclass(frozen=True)
class WalkTrace:
    """Ordered record of a walk, with the untouched initial and final pairs."""

    steps: tuple[WalkStep, ...]
    initial: DistributionPair
    final: DistributionPair

    @property
    def initial_tv(self) -> float:
        return self.steps[0].tv

    @property
    def final_tv(self) -> float:
        return self.steps[-1].tv

    @property
    def initial_gap(self) -> float:
        return self.steps[0].gap

    @property
    def final_gap(self) -> float:
        return self.steps[-1].gap


def canonical_orient(pair: DistributionPair) -> DistributionPair:
    """Swap the pair if needed so p has the larger equivocation, as run_walk orients it.

    The equivocations compared are the walk's own measurement of the pair
    (see _orientation), so a tie is split the same way here as in the walk.
    Ties are left unchanged. Gap and TV are unaffected.
    """
    (swap,), _ = _orientation(np.array((pair.p.probs, pair.q.probs)))
    return DistributionPair(pair.q, pair.p) if swap else pair


def _reorder(W: np.ndarray, trials: int = 1) -> np.ndarray:
    """Reordered copy of the stacked pair W = [P, Q] (see reorder), each trial within its own columns."""
    P, Q = W
    key = -(Q.sum(axis=0) - P.sum(axis=0))
    # lexsort is stable: within a trial, blocks with equal keys keep their order
    W = W[:, :, np.lexsort((key, np.arange(key.size) // (key.size // trials)))]
    P, Q = W
    # per column: rows with q >= p first, each group by q non-increasing (lexsort is stable)
    rows = np.lexsort((-Q, Q < P), axis=0)
    return np.take_along_axis(W, rows[None], axis=1)


def reorder(pair: DistributionPair) -> DistributionPair:
    """Apply the canonical block/row ordering simultaneously to both grids.

    Blocks are sorted so q_Y(j) - p_Y(j) is non-increasing (stable); within
    each block, rows with q >= p come first, each group sorted by q
    non-increasing (stable, ties keep original index order). All moves are
    block symmetries, so equivocations and TV are unchanged.
    """
    W = _reorder(np.stack((pair.p.probs, pair.q.probs)))
    return DistributionPair(JointDistribution(W[0]), JointDistribution(W[1]))


def _running(start: np.ndarray, s: np.ndarray) -> np.ndarray:
    # start, start + s[..., 0], (start + s[..., 0]) + s[..., 1], ... along the
    # last axis of s: accumulate adds left to right, so these are
    # bit-identical to a sequential loop of `+=`
    run = np.concatenate((start[..., None], s), axis=-1)
    return np.add.accumulate(run, axis=-1, out=run)


@dataclass
class _Phase:
    """One phase run over the columns `cols` of the stacked pair W = [P, Q].

    Arrays are indexed like W's columns: (2, nx, k) for the p and q grids,
    or (nx, k). `before` is the state the phase started from and `new` the
    state it wrote; `move` marks the rows a move took weight from, `s` the
    weight each moved and `tops` the p and q top rows right after that move.
    `moved` is each column's moved mass, summed in move order; `switched`
    (fill only) is whether the cap bound. `after` is read back from W once
    the phase has run: it is what the ledger measures.
    """

    kind: str
    cols: np.ndarray
    before: np.ndarray
    new: np.ndarray
    move: np.ndarray
    s: np.ndarray
    tops: np.ndarray
    moved: np.ndarray
    switched: np.ndarray | None = None
    after: np.ndarray | None = None


# Every phase works down the rows of all its columns at once. A row that does
# not move adds exactly 0.0 to the running sums, so each column's sums are
# bit-identical to a loop over its moved rows alone.


def _concentrate(W: np.ndarray, cols: np.ndarray) -> _Phase:
    """Phase 1: fold q's excess over p (rows below 1 with q > p) into q's top row.

    Touches q only. Requires q[0] >= p[0] in every column; afterwards q's
    top row dominates p's and every other row of q is dominated by p's.
    """
    before = W[:, :, cols]
    P, Q = before
    move = Q > P
    move[0] = False
    s = np.where(move, Q - P, 0.0)
    run = np.array((s, s, s))  # p's and q's top rows, and the moved mass
    run[0, 1:] = 0.0
    run[:2, 0] = before[:, 0]
    np.add.accumulate(run, axis=1, out=run)
    new = np.where(move, P, before)
    new[1, 0] = run[1, -1]
    W[:, :, cols] = new
    return _Phase("concentrate", cols, before, new, move, s, run[:2], run[2, -1])


def _transfer(W: np.ndarray, cols: np.ndarray) -> _Phase:
    """Phase 2: move each remaining q weight to the top row of the block, in both grids.

    Requires q[0] >= p[0] and p[i] >= q[i] for i > 0; then each shared move
    of weight s keeps the block's TV contribution constant and cannot
    shrink the entropy difference (x*log2(x) is convex).
    """
    before = W[:, :, cols]
    Q = before[1]
    move = Q != 0.0
    move[0] = False
    s = np.where(move, Q, 0.0)
    run = np.array((s, s, s))  # p's and q's top rows, and the moved mass
    run[:2, 0] = before[:, 0]
    np.add.accumulate(run, axis=1, out=run)
    new = before - s
    new[:, 0] = run[:2, -1]
    W[:, :, cols] = new
    return _Phase("transfer", cols, before, new, move, s, run[:2], run[2, -1])


def _fill(W: np.ndarray, cols: np.ndarray) -> _Phase:
    """Empty in-set procedure: raise q's top row from the bottom rows, q only.

    Requires q[i] < p[i] for all i. Sources are consumed from the bottom row
    upward; each transfer is capped at p[0] - q[0] so the block's TV
    contribution is unchanged. In a column where the cap binds (switched),
    the first source that covers it gives only the cap, q[0] reaches p[0]
    exactly, fill ends there and two-phase processing applies from here.
    """
    before = W[:, :, cols]
    P, Q = before
    nx = Q.shape[0]
    # up[m] is row (nx - m) % nx: the top row, then the sources bottom-up
    # (the map is its own inverse, so x[up] also maps back)
    up = np.concatenate(([0], np.arange(nx - 1, 0, -1)))
    src = Q[up]
    run = np.add.accumulate(src, axis=0)  # q's top row after consuming each source in full
    caps = P[0] - run  # caps[m - 1] is the cap source m meets
    hit = np.zeros_like(src, dtype=bool)
    hit[1:] = (src[1:] != 0.0) & (src[1:] >= caps[:-1])
    switched = hit.any(axis=0)
    first = hit.argmax(axis=0)  # 0 where nothing hit
    m = np.arange(nx)[:, None]
    full = (m >= 1) & (m < np.where(switched, first, nx)) & (src != 0.0)
    at = m == np.where(switched, first, -1)
    t = caps[first - 1, np.arange(first.size)]
    t = np.where(t > 0.0, t, 0.0)
    s = np.where(full, src, np.where(at, t, 0.0))
    new = before.copy()
    new[1] = np.where(full, 0.0, src - s)[up]
    new[1, 0] = np.where(switched, P[0], run[-1])
    W[:, :, cols] = new
    tops = np.empty_like(before)
    tops[0] = P[0]
    tops[1] = np.where(at, P[0], run)[up]
    moved = np.add.accumulate(s, axis=0)[-1]
    return _Phase("fill", cols, before, new, (full | at)[up], s[up], tops, moved, switched)


def _walk_blocks(W: np.ndarray, moves: bool = True) -> list[_Phase]:
    """Drive every block of Q to a point mass on its top row, in place, in lockstep.

    W = [P, Q] is a reordered stacked pair. Blocks whose top row has q < p
    (an empty in-set) are filled first; those where fill's cap bound, and
    all others, then run concentrate and transfer. Returns the phases in run
    order; a phase with no block to run on is left out. With moves=False the
    arrays that only single-move replay reads (before, new, tops, s) are
    dropped, so they do not outlive their phase.
    """
    phases: list[_Phase] = []

    def run(phase, cols: np.ndarray) -> _Phase:
        ph = phase(W, cols)
        ph.after = W[:, :, ph.cols]
        if not moves:
            ph.before = ph.new = ph.tops = ph.s = None
        phases.append(ph)
        return ph

    P, Q = W
    fill = Q[0] < P[0]
    rest = ~fill
    cols = fill.nonzero()[0]
    if cols.size:
        ph = run(_fill, cols)
        rest[ph.cols[ph.switched]] = True
    cols = rest.nonzero()[0]
    if cols.size:
        run(_concentrate, cols)
        run(_transfer, cols)
    return phases


def _move_states(ph: _Phase) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every single move of a phase, replayed from its arrays.

    Returns (c, r, states): for move n, ph.cols[c[n]] is its block, r[n] the
    row it took weight from, and states[:, :, n] the block's (2, nx) column
    state right after it. Moves come column by column, each column's in move
    order (fill works bottom-up, the other phases top-down).
    """
    nx = ph.move.shape[0]
    i = np.arange(nx)[:, None]
    if ph.kind == "fill":
        c, r = np.nonzero(ph.move[::-1].T)
        r = nx - 1 - r
        done = i >= r
    else:
        c, r = np.nonzero(ph.move.T)
        done = i <= r
    states = np.where(done, ph.new[:, :, c], ph.before[:, :, c])
    states[:, 0] = ph.tops[:, r, c]
    return c, r, states


def _average(A: np.ndarray, trials: int = 1) -> np.ndarray:
    # every block (last axis) replaced by the mean over its trial's blocks;
    # a read-only view for one trial
    T = A.reshape(*A.shape[:-1], trials, -1)
    return np.broadcast_to(T.mean(axis=-1, keepdims=True), T.shape).reshape(A.shape)


def average_blocks(J: JointDistribution) -> JointDistribution:
    """Replace every block by the average over all blocks.

    The output is a product distribution with a uniform Y-marginal and the
    same X-marginal. The map is a uniform mixture of block permutations, so
    it cannot decrease the equivocation, and it cannot increase TV.
    """
    return JointDistribution(_average(J.probs))


def _block_terms(W: np.ndarray) -> np.ndarray:
    """Per column of the stacked pair W = [P, Q], shape (2, ..., nx, k): a (6, ..., k) array of terms.

    The first four rows are the ones the walk's ledger tracks: the TV share,
    the gap (P's equivocation term minus Q's), and the masses of P and of Q.
    The last two are the equivocation terms of P and of Q. The equivocation
    term of a block is p_Y(j) H(X|Y=j) = p_Y(j) log2 p_Y(j) - sum_i p(i,j)
    log2 p(i,j). Summed over all blocks the terms give tv(P, Q) and H(X|Y)
    of P and Q.

    The sums down the rows are numpy's, and their order follows the memory
    layout: the rows of a row-major grid of several columns are added in
    order, but a column whose rows are contiguous (a lone column, or one
    gathered by fancy indexing) is summed pairwise, which differs once there
    are 8 or more rows. A batch keeps each trial's columns in the layout its
    own walk measures them in.
    """
    m = W.sum(axis=-2)
    h = _xlog2x_arr(m) - _xlog2x_arr(W).sum(axis=-2)
    tv = 0.5 * np.abs(W[0] - W[1]).sum(axis=-2)
    return np.concatenate((tv[None], (h[0] - h[1])[None], m, h))


def _trial_sums(terms: np.ndarray, trials: int) -> np.ndarray:
    # (rows, trials * ny) block terms -> (rows, trials): each trial's blocks summed
    return terms.reshape(len(terms), trials, -1).sum(axis=2)


def _measure(W: np.ndarray, trials: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Every block's terms of the stacked pair W of `trials` pairs (see _block_terms), and each trial's sums.

    The ny columns of each trial are measured together, unless every trial
    is a single block: then each column is summed on its own, as a lone
    column is, whatever the batch holds. So a trial measures the same in a
    batch as on its own.
    """
    if W.shape[2] == trials:
        terms = _block_terms(np.ascontiguousarray(W.transpose(0, 2, 1))[..., None])[..., 0]
    else:
        terms = _block_terms(W)
    return terms, _trial_sums(terms, trials)


# the rows of a trial's sums (see _measure) for its swapped pair (q, p), and their
# signs: p's and q's rows exchanged, the gap row negated (negation is exact)
_SWAPPED_ROWS = np.array([0, 1, 3, 2, 5, 4])
_SWAPPED_SIGNS = np.array([[1.0], [-1.0], [1.0], [1.0], [1.0], [1.0]])


def _orientation(W: np.ndarray, trials: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Which of the `trials` pairs in the stacked pair W the walk swaps, and each trial's sums as oriented.

    A trial is swapped when its q has the larger measured equivocation
    (see _measure); ties are left as they are. A swapped trial's sums are
    those of (q, p): its p and q rows are exchanged and its gap row negated.
    """
    _, sums = _measure(W, trials)
    swap = sums[5] > sums[4]
    return swap, np.where(swap, sums[_SWAPPED_ROWS] * _SWAPPED_SIGNS, sums)


# column cells the ledger measures at a time (4 MB of float64 for the pair)
_LEDGER_CELLS = 1 << 18
# signs that turn "tv rises" and "gap falls" into one comparison (negation is exact),
# for a block's tv and gap and for the running totals
_RISE = np.array([[1.0], [-1.0], [1.0], [-1.0]])


def _replay(R: np.ndarray, blocks: np.ndarray, states: np.ndarray, order: np.ndarray):
    """Snapshots of the block steps: each step's column state written into R in trace order.

    The snapshots are read-only copies that skip re-validation: the ledger
    has certified the entries of every moved column and both total masses.
    """
    for j, n in zip(blocks.tolist(), order.tolist()):
        R[:, :, j] = states[:, :, n]
        yield _freeze(R[0]), _freeze(R[1])


def _labels(parts, order: np.ndarray, ny: int) -> list[str]:
    """Trace labels of the block steps of `parts` (kind, columns, rows or None), taken in `order`.

    A label names the block within its trial: in a batch of trials with ny
    blocks each, column c is block c % ny + 1.
    """
    labels = []
    for kind, cols, rows in parts:
        blocks = cols % ny + 1
        if rows is None:
            labels += [f"block {j} {kind}" for j in blocks.tolist()]
        else:
            labels += [f"block {j} {kind} i={i + 1}" for j, i in zip(blocks.tolist(), rows.tolist())]
    return np.array(labels, dtype=object)[order].tolist()


class _TraceBuilder:
    """Certifies the walk of a batch of trials from a per-block ledger, and records one trial's steps.

    The stacked pair W = [P, Q] holds `trials` pairs side by side: trial b
    owns columns b*ny ... (b+1)*ny - 1. `terms` holds every block's terms
    from the last whole-grid measurement (see _measure); tv, gap and mass
    hold each trial's running totals after its last step, one float per
    trial. Every check is made per trial, and the first failing check found
    raises InvariantViolation. With trace=True (one trial) the steps are
    recorded as WalkSteps, with snapshots unless mode is "none" (`keep`).
    """

    def __init__(self, mode: SnapshotMode, ny: int, trials: int = 1, trace: bool = False):
        self.mode, self.ny, self.trials = mode, ny, trials
        self.steps: list[WalkStep] | None = [] if trace else None
        self.keep = trace and mode != "none"
        self.tv: list[float] | None = None
        self.gap: list[float] | None = None

    def advance(self, label: str, sums: np.ndarray) -> None:
        """Take each trial's totals from its sums (see _measure), checking tv and gap against its last step."""
        tv, gap = sums[0].tolist(), (sums[4] - sums[5]).tolist()
        if self.tv is not None:
            for old_tv, new_tv, old_gap, new_gap in zip(self.tv, tv, self.gap, gap):
                if new_tv > old_tv + STEP_TOL:
                    raise InvariantViolation(f"step {label!r}: tv increased from {old_tv} to {new_tv}")
                if new_gap < old_gap - STEP_TOL:
                    raise InvariantViolation(f"step {label!r}: gap decreased from {old_gap} to {new_gap}")
        self.tv, self.gap, self.mass = tv, gap, tuple(sums[2:4].tolist())

    def measure(self, label: str, W: np.ndarray) -> None:
        """Measure the whole stacked pair W, certify it and record it.

        Each trial's new totals are checked against its last step; then
        every entry must be finite and in [0, 1 + 1e-9], and each grid's
        measured mass within 1e-9 of 1.
        """
        self.terms, sums = _measure(W, self.trials)
        self.advance(label, sums)
        if not _in_range(W, 0.0):
            raise InvariantViolation(f"step {label!r}: an entry is not finite or outside [0, {1.0 + UPPER_TOL}]")
        for masses in zip(*self.mass):
            for name, m in zip("pq", masses):
                if abs(m - 1.0) > MASS_TOL:
                    raise InvariantViolation(f"step {label!r}: total mass of {name} is {m}, not 1 within {MASS_TOL}")
        self.record(label, *self.snapshots(W))

    def snapshots(self, W: np.ndarray) -> tuple[JointDistribution | None, JointDistribution | None]:
        """Read-only copies of the grids of the stacked pair W if the trace keeps snapshots, else (None, None)."""
        return (_freeze(W[0]), _freeze(W[1])) if self.keep else (None, None)

    def blocks(self, phases: list[_Phase]) -> None:
        """Certify the block steps of the phases in one array pass, and record them when tracing.

        Steps are listed trial by trial and, within a trial, block by block:
        a block's fill, concentrate and transfer (in "all" mode each
        preceded by its single moves). Their snapshots replay the states in
        trace order onto a copy of the last recorded snapshot, the
        reordered pair.
        """
        # part by part: a phase's single moves ("all" mode only), then its phase
        # steps; a stable sort by column then lists each block's steps in run order
        parts, moved, states = [], [], []
        for ph in phases:
            if self.mode == "all":
                c, r, st = _move_states(ph)
                parts.append((ph.kind, ph.cols[c], r))
                moved.append(ph.s[r, c])
                states.append(st)
            parts.append((ph.kind, ph.cols, None))
            moved.append(ph.moved)
            states.append(ph.after)
            ph.after = None  # held once, in the concatenation below
        block = np.concatenate([cols for _, cols, _ in parts])
        order = block.argsort(kind="stable")
        states = np.concatenate(states, axis=2)
        tvs, gaps = self._certify(block[order], order, states, parts)
        if self.steps is None:
            return
        if self.keep:
            reordered = self.steps[-1]
            R = np.array((reordered.p.probs, reordered.q.probs))
            snapshots = _replay(R, block[order], states, order)
        else:
            snapshots = repeat((None, None))
        del states  # in "none" mode nothing reads the column states again
        labels, moved = _labels(parts, order, self.ny), np.concatenate(moved)[order].tolist()
        self.steps.extend(
            WalkStep(label, tv, gap, p, q, s)
            for label, tv, gap, (p, q), s in zip(labels, tvs, gaps, snapshots, moved)
        )

    def _certify(self, block: np.ndarray, order: np.ndarray, states: np.ndarray, parts) -> tuple[list, list]:
        """Check every block step; returns the running tv and gap after each when tracing.

        block is each step's column in trace order, and states[:, :, order]
        the column states in trace order. Each step is measured against the
        block's previous step (or its reorder measurement), and its trial's
        running totals move by the differences: a trial's changes form one
        row, padded with zero changes, summed along the row. A step's block
        tv must not rise nor its gap fall, nor may its trial's totals; its
        column's entries must be finite and in [0, 1 + 1e-9], and each
        grid's mass within 1e-9 of 1. The first failing step in trace order
        raises. Steps are taken in chunks of about _LEDGER_CELLS column cells,
        so the ledger's arrays stay small on grids with very many blocks.
        """
        ny = self.ny
        size = max(1, _LEDGER_CELLS // states.shape[1])
        totals = np.array((self.tv, self.gap, *self.mass))
        tvs, gaps = [], []
        last_block, last = -1, self.terms[:4, :1]  # the step before the chunk (none before the first)
        for lo in range(0, block.size, size):
            b, st = block[lo : lo + size], states[:, :, order[lo : lo + size]]
            # gathered column by column, so each column's rows are contiguous and summed
            # the same way (pairwise) whatever the chunk holds
            new = _block_terms(st)[:4]
            same = b == np.concatenate(((last_block,), b[:-1]))
            old = np.where(same, np.concatenate((last, new[:, :-1]), axis=1), self.terms[:4, b])
            # one row per trial t0 .. t1 - 1 of the chunk, each step at its position in its trial
            t0, t1 = int(b[0]) // ny, int(b[-1]) // ny + 1
            row = b // ny - t0
            pos = np.arange(b.size) - np.searchsorted(row, np.arange(t1 - t0))[row]
            delta = np.zeros((4, t1 - t0, int(pos.max()) + 1))
            delta[:, row, pos] = new - old
            run = _running(totals[:, t0:t1], delta)
            before, after = run[:, row, pos], run[:, row, pos + 1]
            totals[:, t0:t1] = run[:, :, -1]
            mass = after[2:] - 1.0
            np.abs(mass, out=mass)
            # rows: the block's tv rose, its gap fell, the total tv rose, the total gap fell
            rise = np.concatenate((new[:2], after[:2])) * _RISE
            bad = rise > np.concatenate((old[:2], before[:2])) * _RISE + STEP_TOL
            if bad.any() or not (_in_range(st, 0.0) and mass.max() <= MASS_TOL):
                entries = _in_range(st, 0.0, axis=(0, 1))
                bad = np.concatenate((bad, ~entries[None], ~(mass <= MASS_TOL)))
                n = int(bad.any(axis=0).argmax())
                j = int(b[n]) % ny + 1
                (o_tv, o_gap), (n_tv, n_gap) = old[:2, n].tolist(), new[:2, n].tolist()
                (l_tv, l_gap), (tv, gap, mp, mq) = before[:2, n].tolist(), after[:, n].tolist()
                messages = (
                    f"block {j} tv increased from {o_tv} to {n_tv}",
                    f"block {j} gap decreased from {o_gap} to {n_gap}",
                    f"tv increased from {l_tv} to {tv}",
                    f"gap decreased from {l_gap} to {gap}",
                    f"block {j} has an entry that is not finite or outside [0, {1.0 + UPPER_TOL}]",
                    f"total mass of p is {mp}, not 1 within {MASS_TOL}",
                    f"total mass of q is {mq}, not 1 within {MASS_TOL}",
                )
                label = _labels(parts, order[lo : lo + size], ny)[n]
                raise InvariantViolation(f"step {label!r}: {messages[int(bad[:, n].argmax())]}")
            if self.steps is not None:
                tvs += after[0].tolist()
                gaps += after[1].tolist()
            last_block, last = b[-1], new[:, -1:]
        self.tv, self.gap, mp, mq = totals.tolist()
        self.mass = (mp, mq)
        return tvs, gaps

    def cross_check(self, W: np.ndarray) -> None:
        """Compare each trial's running totals with a full measurement of the stacked pair W."""
        _, (tvs, _, _, _, hp, hq) = _measure(W, self.trials)
        for run_tv, run_gap, tv, gap in zip(self.tv, self.gap, tvs.tolist(), (hp - hq).tolist()):
            if abs(tv - run_tv) > STEP_TOL or abs(gap - run_gap) > STEP_TOL:
                raise InvariantViolation(
                    f"running totals (tv {run_tv}, gap {run_gap}) drifted from the full measurement (tv {tv}, gap {gap})"
                )

    def record(self, label: str, p: JointDistribution | None, q: JointDistribution | None) -> None:
        """Append the traced trial's current totals, with the snapshots p and q."""
        if self.steps is not None:
            self.steps.append(WalkStep(label=label, tv=self.tv[0], gap=self.gap[0], p=p, q=q))


def _walk(
    W: np.ndarray, trials: int = 1, snapshots: SnapshotMode = "none", pair: DistributionPair | None = None
) -> _TraceBuilder:
    """Run the certified walk on `trials` pairs placed side by side in the stacked pair W = [P, Q].

    Trial b owns the columns b*ny ... (b+1)*ny - 1. Each trial is oriented,
    reordered and averaged within its own columns; the kernel and the
    ledger run once over all of them, and the final checks run per trial.
    The first failing check found raises InvariantViolation. With `pair`
    (the one trial W holds) the steps are recorded in the snapshot mode,
    and the grids of `pair` are the snapshots of the initial and oriented
    steps, which do not change them. The returned ledger's `final` is the
    averaged stacked pair.
    """
    ny = W.shape[2] // trials
    tb = _TraceBuilder(snapshots, ny, trials, trace=pair is not None)
    # one measurement decides the orientation and gives the initial totals:
    # the recorded initial gap is |gap|, which is the oriented gap
    swap, sums = _orientation(W, trials)
    tb.initial_tv = sums[0].tolist()
    tb.advance("initial", sums)
    grids = (pair.p, pair.q) if tb.keep else (None, None)
    tb.record("initial", *grids)
    tb.record("orient", *(grids[::-1] if swap[0] else grids))
    if swap.any():
        W = np.where(np.repeat(swap, ny), W[::-1], W)
    W = _reorder(W, trials)
    tb.measure("reorder", W)
    tb.blocks(_walk_blocks(W, moves=snapshots == "all"))

    left = np.flatnonzero((W[1, 1:] > 0.0).any(axis=0))
    if left.size:
        raise InvariantViolation(f"block {left[0] % ny + 1} processed but q still has weight below the top row")
    tb.cross_check(W)

    W = _average(W, trials)
    tb.measure("average", W)
    tb.final = W

    final_q_entropy = _trial_sums(tb.terms[5:], trials)[0].tolist()
    q_x_top = W[1, 0].reshape(trials, ny).sum(axis=1).tolist()
    nx = W.shape[1]
    for h, top, initial_tv, final_gap in zip(final_q_entropy, q_x_top, tb.initial_tv, tb.gap):
        if h > STEP_TOL:
            raise InvariantViolation(f"final q has conditional entropy {h} > {STEP_TOL}")
        if abs(top - 1.0) > STEP_TOL:
            raise InvariantViolation(f"final q_X(1) = {top}, expected 1")
        chain_cap = continuity_bound(initial_tv, nx).value if nx >= 2 else 0.0
        if final_gap > chain_cap + STEP_TOL:
            raise InvariantViolation(f"final gap {final_gap} exceeds the bound {chain_cap} at the initial tv {initial_tv}")
    return tb


def run_walk(pair: DistributionPair, snapshots: SnapshotMode = "phases") -> WalkTrace:
    """Run the full walk and return its invariant-checked trace.

    `snapshots` controls how much of the state is copied into the trace:
    "phases" snapshots at phase boundaries (default), "all" additionally
    records every individual weight move, "none" keeps only labels and the
    measured tv/gap per phase.

    Before it walks, the pair is refused (ValidationError) if it has more
    than MAX_GRID_CELLS cells, or if its snapshots could exceed
    MAX_TRACE_BYTES: 16*nx*ny bytes per step, over at most 3*ny + 4 steps
    in "phases" mode and 3*nx*ny + 4 in "all" mode.

    Guarantees on return (each checked, violation raises InvariantViolation):
    per recorded step tv is non-increasing and the gap non-decreasing within
    1e-9, for the moved block and for the totals; every block step leaves its
    column's entries finite and in [0, 1 + 1e-9], and so do the reordered
    and the averaged grids, each grid's mass staying within 1e-9 of 1; the
    running totals agree with a full measurement before averaging within
    1e-9; the final q has conditional entropy <= 1e-9 and X-marginal 1 on
    outcome 1; and the final gap is at most the continuity bound evaluated
    at the initial TV.
    """
    if snapshots not in _SNAPSHOT_MODES:
        raise ValidationError(f"snapshots must be one of {_SNAPSHOT_MODES}, got {snapshots!r}")
    nx, ny = pair.nx, pair.ny
    _check_grid_size(nx, ny)
    size = 16 * nx * ny * {"phases": 3 * ny + 4, "all": 3 * nx * ny + 4, "none": 0}[snapshots]
    if size > MAX_TRACE_BYTES:
        raise ValidationError(
            f"the {snapshots!r} snapshots of the {nx}x{ny} pair may take {size} bytes, over the trace guard {MAX_TRACE_BYTES}"
        )
    tb = _walk(np.array((pair.p.probs, pair.q.probs)), 1, snapshots, pair)
    # the averaged pair: the last step's snapshots, or copies when the trace keeps none
    last = tb.steps[-1]
    final = (last.p, last.q) if tb.keep else (_freeze(tb.final[0]), _freeze(tb.final[1]))
    return WalkTrace(steps=tuple(tb.steps), initial=pair, final=DistributionPair(*final))
