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
lockstep, a range of blocks at a time: each range holds at most
max(1, _CHUNK_CELLS // nx) blocks, and each phase (fill, concentrate,
transfer) runs once, as array operations down the rows, over every block of
the range it applies to. So every pass of the kernel and its ledger works
on about _CHUNK_CELLS cells of each grid (a whole block when one block is
taller). The trace still lists the steps block by block (block 1's phases,
then block 2's, ...), and its grids, moved masses and snapshots are
bit-identical to processing the blocks one after another.

The certificate is block-local. TV and H(X|Y) = sum_j p_Y(j) H(X|Y=j) are
both sums of per-Y-block terms, and every step changes a single block, so a
block step is measured on its own column: O(nx) per step, in one array
pass over the block steps of a range. Each step's block TV must not rise
and its gap must not fall, its column's entries must be finite and in
[0, 1 + 1e-9], and the running totals (the per-step changes summed in trace
order) must keep TV non-increasing, the gap non-decreasing and each grid's
mass within 1e-9 of 1. The first failing step in trace order raises. The whole grid is
measured only at the initial pair, after reordering, once before averaging
as a cross-check of the running totals (a drift beyond 1e-9 raises
InvariantViolation), and after averaging. The reordered and the averaged
grids are certified the same way in every snapshot mode and in batches:
entries finite and in [0, 1 + 1e-9], each grid's mass within 1e-9 of 1.

The ledger certifies every step as the walk goes; the trace only keeps what
it needs to show the steps later. Per step it keeps the label, tv, gap and
moved mass, and in snapshot modes each block step's (2, nx) column state,
which the ledger has already concatenated to measure it. A step's
snapshots are built when the step is read, by writing its column state
onto the grids around it: read-only copies of this certified state, not
re-validated grids.

The initial measurement also decides the orientation, and it is the only
rule that does: canonical_orient is its one-pair case. Pairs related by a
block symmetry have equal equivocations, but float sums taken in different
orders may split such a tie either way; one rule splits it the same way
everywhere. Orienting changes no tv and only the sign of the gap, so the
ledger starts from the measured tv and |H(p) - H(q)|, whichever way the
pair was given.

Because the blocks are independent, the columns of many pairs placed side
by side form one valid input too. The walk takes a stack of trials, shape
(2, trials, nx, ny), and lays them side by side itself. A campaign
(verify.verify_trials) walks a batch of trials, sized to one range, in one
pass: each trial is oriented, reordered and averaged within its own
columns, the kernel runs once over all of them, and the ledger keeps the
running totals per trial (carried from range to range when a trial spans
several), padding a trial with fewer steps with steps that change nothing
(adding 0.0 is exact). Each trial's columns are summed as its own walk
sums them, so its totals are bit-identical to its own walk. run_walk is
this path for one pair, plus the trace. A batch raises at its first
failing check, as a single walk does.

Block labels and trace labels are 1-based; in-memory arrays are 0-based.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Literal, get_args

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
_SNAPSHOT_MODES = get_args(SnapshotMode)


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
    """Ordered record of a walk, with its final (averaged) pair.

    `steps` is a read-only sequence (len, indices, slices, iteration); each
    WalkStep is built when it is read and not kept.
    """

    steps: Sequence[WalkStep]
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
    (swap,), _, _ = _orientation(np.array((pair.p.probs, pair.q.probs)))
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
    W = np.take_along_axis(W, rows[None], axis=1)
    W += 0.0  # -0.0 becomes 0.0, so the kernel's exact zeros change no bit (see _to_top)
    return W


def reorder(pair: DistributionPair) -> DistributionPair:
    """Apply the canonical block/row ordering simultaneously to both grids.

    Blocks are sorted so q_Y(j) - p_Y(j) is non-increasing (stable); within
    each block, rows with q >= p come first, each group sorted by q
    non-increasing (stable, ties keep original index order). All moves are
    block symmetries, so equivocations and TV are unchanged. A -0.0 entry
    becomes 0.0.
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
# bit-identical to a loop over its moved rows alone (the reordered grids hold
# no -0.0, which adding 0.0 would turn into 0.0; see _reorder).


def _to_top(kind: str, W: np.ndarray, cols: np.ndarray, before, new, move, s) -> _Phase:
    """Finish concentrate or transfer: each row's weight s goes to the top row, row by row down the columns.

    q's top row gains it, and so does p's in transfer; the top rows' running
    sums and the moved mass are taken in move order. The phase writes `new`,
    with those top rows, into W's columns `cols`.
    """
    run = np.array((s, s, s))  # p's and q's top rows, and the moved mass
    if kind == "concentrate":
        run[0, 1:] = 0.0  # p does not move
    run[:2, 0] = before[:, 0]
    np.add.accumulate(run, axis=1, out=run)
    new[:, 0] = run[:2, -1]
    W[:, :, cols] = new
    return _Phase(kind, cols, before, new, move, s, run[:2], run[2, -1])


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
    return _to_top("concentrate", W, cols, before, np.where(move, P, before), move, s)


def _transfer(W: np.ndarray, cols: np.ndarray) -> _Phase:
    """Phase 2: move each remaining q weight to the top row of the block, in both grids.

    Requires q[0] >= p[0] and p[i] >= q[i] for i > 0; then each shared move
    of weight s keeps the block's TV contribution constant and cannot
    shrink the entropy difference (x*log2(x) is convex).
    """
    before = W[:, :, cols]
    move = before[1] != 0.0
    move[0] = False
    s = np.where(move, before[1], 0.0)
    return _to_top("transfer", W, cols, before, before - s, move, s)


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


# grid cells the kernel and its ledger work on at a time, and so the cells of a campaign batch
# (see _range_blocks): 128 KB of float64 for each grid of the pair
_CHUNK_CELLS = 1 << 14


def _range_blocks(nx: int) -> int:
    # the blocks of one range: about _CHUNK_CELLS cells of each grid, and at least one block
    return max(1, _CHUNK_CELLS // nx)


def _walk_blocks(W: np.ndarray, lo: int, hi: int, moves: bool = True) -> list[_Phase]:
    """Drive the blocks lo ... hi - 1 of Q to a point mass on their top row, in place, in lockstep.

    W = [P, Q] is a reordered stacked pair; the phases work on those columns
    of W and name them by their column in W. Blocks whose top row has q < p
    (an empty in-set) are filled first; those where fill's cap bound, and
    all others, then run concentrate and transfer. Returns the phases in run
    order; a phase with no block to run on is left out. Every array a phase
    holds has one column per block it runs on, so a range of blocks bounds
    them. With moves=False the arrays that only single-move replay reads
    (before, new, tops, s) are dropped, so they do not outlive their phase.
    """
    phases: list[_Phase] = []

    def run(phase, cols: np.ndarray) -> _Phase:
        ph = phase(W, cols)
        ph.after = W[:, :, ph.cols]
        if not moves:
            ph.before = ph.new = ph.tops = ph.s = None
        phases.append(ph)
        return ph

    fill = W[1, 0, lo:hi] < W[0, 0, lo:hi]
    rest = ~fill
    cols = fill.nonzero()[0] + lo
    if cols.size:
        ph = run(_fill, cols)
        rest[ph.cols[ph.switched] - lo] = True
    cols = rest.nonzero()[0] + lo
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
    states = ph.before[:, :, c]
    np.copyto(states, ph.new[:, :, c], where=done)
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
    # (6, trials * ny) block terms -> (6, trials): each trial's blocks summed
    return terms, terms.reshape(len(terms), trials, -1).sum(axis=2)


def _orientation(W: np.ndarray, trials: int = 1) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Which of the `trials` pairs in the stacked pair W the walk swaps, and each trial's tv and gap as oriented.

    A trial is swapped when its q has the larger measured equivocation
    (see _measure); ties are left as they are. Swapping changes no tv, and
    the oriented gap is |H(p) - H(q)|: for a swapped trial that is exactly
    H(q) - H(p), since a - b is exactly -(b - a).
    """
    _, (tv, _, _, _, hp, hq) = _measure(W, trials)
    return hq > hp, tv, np.abs(hp - hq)


# signs that turn "tv rises" and "gap falls" into one comparison (negation is exact),
# for a block's tv and gap and for the running totals
_RISE = np.array([[1.0], [-1.0], [1.0], [-1.0]])


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


class _Steps(Sequence):
    """The recorded steps of one walk, held column by column: each WalkStep is built when it is read.

    Every step has a label, tv, gap and moved mass (None for a whole-grid
    step). When the trace keeps snapshots, a whole-grid step holds its
    stacked pair, read-only, and each range of block steps its column
    states, once (see _TraceBuilder.blocks). The walk finishes each block
    before it starts the next, so the grids after a block step are `end`
    (the stacked pair the block steps end at, before averaging) left of its
    block, its column state in it, and the reordered pair right of it. A
    read builds them from these, and iteration writes one column per step
    onto the grids of the step before; either way a block step's snapshots
    are copies of their own, while a whole-grid step's share its pair.
    """

    def __init__(self, snapshots: bool):
        self.snapshots = snapshots
        self.rows: list[tuple[str, float, float, float | None]] = []  # each step's label, tv, gap and moved mass
        self.grids: dict[int, np.ndarray] = {}  # whole-grid step -> its stacked pair, read-only
        # per range: its first step, and each of its steps' column and index into its states
        self.ranges: list[tuple[int, np.ndarray, np.ndarray, np.ndarray]] = []
        self.end = None  # set by _walk

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(map(self.__getitem__, range(len(self))[k]))
        k = range(len(self))[k]  # negative from the end; IndexError past it
        return self._step(k, None)[0]

    def __iter__(self):
        grids = None
        for k in range(len(self)):
            step, grids = self._step(k, grids)
            yield step

    def __eq__(self, other) -> bool:
        # step by step, as the tuple of steps compared, with any sequence of steps
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return repr(tuple(self))

    def _step(self, k: int, grids: np.ndarray | None) -> tuple[WalkStep, np.ndarray | None]:
        """Step k, and the stacked pair after it if it is a block step; `grids` is that of step k - 1, or None."""
        label, tv, gap, moved = self.rows[k]
        if not self.snapshots:
            return WalkStep(label, tv, gap, transferred=moved), None
        if k in self.grids:
            W = self.grids[k]
            return WalkStep(label, tv, gap, _freeze(W[0]), _freeze(W[1])), None
        first, block, states, order = self.ranges[bisect_right(self.ranges, k, key=lambda r: r[0]) - 1]
        j = block[k - first]
        if grids is None:
            grids = np.concatenate((self.end[:, :, :j], self.grids[self.ranges[0][0] - 1][:, :, j:]), axis=2)
        grids[:, :, j] = states[:, :, order[k - first]]
        return WalkStep(label, tv, gap, _freeze(grids[0].copy()), _freeze(grids[1].copy()), moved), grids

    def append(self, label: str, tv: float, gap: float, W: np.ndarray) -> None:
        """Append a whole-grid step ending at the stacked pair W, which snapshot modes keep.

        A read-only contiguous W is kept as it is; any other is copied, as
        the walk goes on changing its own grids.
        """
        if self.snapshots:
            if W.flags.writeable or not W.flags.c_contiguous:
                W = W.copy()
                W.flags.writeable = False
            self.grids[len(self)] = W
        self.rows.append((label, tv, gap, None))

    def extend(self, labels: list[str], totals: np.ndarray, moved: np.ndarray, block: np.ndarray, states, order) -> None:
        """Append one range's block steps, in trace order: the running tv and gap (`totals`), moved masses and columns.

        Step t's column state is states[:, :, order[t]]; the states are kept
        only in snapshot modes.
        """
        if self.snapshots:
            self.ranges.append((len(self), block, states, order))
        self.rows += zip(labels, *totals.tolist(), moved.tolist())


class _TraceBuilder:
    """Certifies the walk of a batch of trials from a per-block ledger, and records one trial's steps.

    The stacked pair W = [P, Q] holds `trials` pairs side by side: trial b
    owns columns b*ny ... (b+1)*ny - 1. The ledger starts from each trial's
    initial tv and gap, `tv` and `gap` (one float per trial, the gap as
    oriented; see _orientation), which it keeps as `initial_tv` too. `terms`
    and `sums` hold every block's terms and each trial's sums from the last
    whole-grid measurement (see _measure); tv, gap and mass hold each
    trial's running totals after its last step. Every check is made per
    trial, and the first failing check found raises InvariantViolation.
    With a mode (one trial) the steps are recorded in `steps` (see _Steps),
    with snapshots unless the mode is "none"; with mode None nothing is.
    """

    def __init__(self, mode: SnapshotMode | None, ny: int, tv: list[float], gap: list[float]):
        self.mode, self.ny, self.trials = mode, ny, len(tv)
        self.steps = None if mode is None else _Steps(mode != "none")
        self.initial_tv, self.tv, self.gap = tv, tv, gap

    def measure(self, label: str, W: np.ndarray) -> None:
        """Measure the whole stacked pair W, certify it and record it.

        Each trial's new totals are checked against its last step; then
        every entry must be finite and in [0, 1 + 1e-9], and each grid's
        measured mass within 1e-9 of 1.
        """
        self.terms, self.sums = _measure(W, self.trials)
        tv, gap = self.sums[0].tolist(), (self.sums[4] - self.sums[5]).tolist()
        for old_tv, new_tv, old_gap, new_gap in zip(self.tv, tv, self.gap, gap):
            if new_tv > old_tv + STEP_TOL:
                raise InvariantViolation(f"step {label!r}: tv increased from {old_tv} to {new_tv}")
            if new_gap < old_gap - STEP_TOL:
                raise InvariantViolation(f"step {label!r}: gap decreased from {old_gap} to {new_gap}")
        self.tv, self.gap, self.mass = tv, gap, tuple(self.sums[2:4].tolist())
        if not _in_range(W, 0.0):
            raise InvariantViolation(f"step {label!r}: an entry is not finite or outside [0, {1.0 + UPPER_TOL}]")
        for masses in zip(*self.mass):
            for name, m in zip("pq", masses):
                if abs(m - 1.0) > MASS_TOL:
                    raise InvariantViolation(f"step {label!r}: total mass of {name} is {m}, not 1 within {MASS_TOL}")
        self.record(label, W)

    def blocks(self, phases: list[_Phase]) -> None:
        """Certify the block steps of one range's phases in one array pass, and record them when tracing.

        Steps are listed trial by trial and, within a trial, block by block:
        a block's fill, concentrate and transfer (in "all" mode each
        preceded by its single moves). The column states are concatenated
        once and measured once; in snapshot modes the trace keeps that
        concatenation as the range's snapshots.
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
                del st  # held once, in the concatenation below
            parts.append((ph.kind, ph.cols, None))
            moved.append(ph.moved)
            states.append(ph.after)
            ph.after = None  # held once, in the concatenation below
        block = np.concatenate([cols for _, cols, _ in parts])
        order = block.argsort(kind="stable")
        # laid out column by column, so each column's rows are contiguous and summed the same
        # way (pairwise) whatever the range holds
        out = np.empty((block.size, *states[0].shape[:2])).transpose(1, 2, 0)
        states = np.concatenate(states, axis=2, out=out)
        terms = _block_terms(states)[:4, order]
        # one min and one max pass a whole range; per-column flags, much slower on short
        # columns, are taken only to name the column that fails
        ok = _in_range(states, 0.0)
        entries = np.full(block.size, True) if ok else _in_range(states, 0.0, axis=(0, 1))[order]
        totals = self._certify(block[order], terms, entries, parts, order)
        if self.steps is not None:
            labels, moved = _labels(parts, order, self.ny), np.concatenate(moved)[order]
            self.steps.extend(labels, totals, moved, block[order], states, order)

    def _certify(self, block: np.ndarray, new: np.ndarray, entries: np.ndarray, parts, order) -> np.ndarray:
        """Check every block step of a range; returns the running tv and gap after each, shape (2, steps).

        In trace order, block is each step's column, new the first four
        terms of its column state (see _block_terms) and entries whether
        that state's entries are finite and in [0, 1 + 1e-9]; order maps
        trace order to the steps of `parts`, for the labels. Each step is
        measured against the block's previous step (or its reorder
        measurement: a block lies in one range), and its trial's running
        totals move by the differences: a trial's changes form one row,
        padded with zero changes, summed along the row from the totals the
        range before left. A step's block tv must not rise nor its gap fall,
        nor may its trial's totals; its entries must be in range, and each
        grid's mass within 1e-9 of 1. The first failing step in trace order
        raises.
        """
        ny = self.ny
        totals = np.array((self.tv, self.gap, *self.mass))
        old = self.terms[:4, block]
        same = np.flatnonzero(block[1:] == block[:-1]) + 1
        old[:, same] = new[:, same - 1]
        # one row per trial t0 .. t1 - 1 of the range, each step at its position in its trial
        t0, t1 = int(block[0]) // ny, int(block[-1]) // ny + 1
        row = block // ny - t0
        pos = np.arange(block.size) - np.searchsorted(row, np.arange(t1 - t0))[row]
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
        if bad.any() or not (entries.all() and mass.max() <= MASS_TOL):
            bad = np.concatenate((bad, ~entries[None], ~(mass <= MASS_TOL)))
            n = int(bad.any(axis=0).argmax())
            j = int(block[n]) % ny + 1
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
            label = _labels(parts, order, ny)[n]
            raise InvariantViolation(f"step {label!r}: {messages[int(bad[:, n].argmax())]}")
        self.tv, self.gap, mp, mq = totals.tolist()
        self.mass = (mp, mq)
        return after[:2]

    def cross_check(self, W: np.ndarray) -> None:
        """Compare each trial's running totals with a full measurement of the stacked pair W."""
        _, (tvs, _, _, _, hp, hq) = _measure(W, self.trials)
        for run_tv, run_gap, tv, gap in zip(self.tv, self.gap, tvs.tolist(), (hp - hq).tolist()):
            if abs(tv - run_tv) > STEP_TOL or abs(gap - run_gap) > STEP_TOL:
                raise InvariantViolation(
                    f"running totals (tv {run_tv}, gap {run_gap}) drifted from the full measurement (tv {tv}, gap {gap})"
                )

    def record(self, label: str, W: np.ndarray) -> None:
        """Append the traced trial's current totals as a whole-grid step ending at the stacked pair W."""
        if self.steps is not None:
            self.steps.append(label, self.tv[0], self.gap[0], W)


def _walk(W: np.ndarray, snapshots: SnapshotMode | None = None) -> _TraceBuilder:
    """Run the certified walk on every pair of W, a (2, trials, nx, ny) stack: the p grids, then the q grids.

    The trials are laid side by side, trial b in the columns b*ny ...
    (b+1)*ny - 1 (for one trial, a view of W). Each trial is oriented,
    reordered and averaged within its own columns; the kernel and the
    ledger run over all of them, one range of blocks (see _range_blocks)
    at a time, and the final checks run per trial.
    The first failing check found raises InvariantViolation. With a
    snapshot mode (W holds one trial) the steps are recorded in that mode;
    with None (campaigns) none are. The returned ledger's `final` is the
    averaged pair, laid side by side.
    """
    _, trials, nx, ny = W.shape
    W = W.transpose(0, 2, 1, 3).reshape(2, nx, trials * ny)
    # one measurement decides the orientation and gives the initial totals, as oriented
    swap, tv, gap = _orientation(W, trials)
    tb = _TraceBuilder(snapshots, ny, tv.tolist(), gap.tolist())
    tb.record("initial", W)
    if swap.any():
        W = np.where(np.repeat(swap, ny), W[::-1], W)
    tb.record("orient", W)
    W = _reorder(W, trials)
    tb.measure("reorder", W)
    size = _range_blocks(nx)
    for lo in range(0, W.shape[2], size):
        tb.blocks(_walk_blocks(W, lo, lo + size, moves=snapshots == "all"))

    left = np.flatnonzero((W[1, 1:] > 0.0).any(axis=0))
    if left.size:
        raise InvariantViolation(f"block {left[0] % ny + 1} processed but q still has weight below the top row")
    tb.cross_check(W)
    if tb.steps is not None:
        tb.steps.end = W  # the grids the block steps end at

    W = _average(W, trials)
    tb.measure("average", W)
    tb.final = W

    q_x_top = W[1, 0].reshape(trials, ny).sum(axis=1).tolist()
    for h, top, initial_tv, final_gap in zip(tb.sums[5].tolist(), q_x_top, tb.initial_tv, tb.gap):
        if h > STEP_TOL:
            raise InvariantViolation(f"final q has conditional entropy {h} > {STEP_TOL}")
        if abs(top - 1.0) > STEP_TOL:
            raise InvariantViolation(f"final q_X(1) = {top}, expected 1")
        chain_cap = continuity_bound(initial_tv, nx).value if nx >= 2 else 0.0
        if final_gap > chain_cap + STEP_TOL:
            raise InvariantViolation(f"final gap {final_gap} exceeds the bound {chain_cap} at the initial tv {initial_tv}")
    return tb


# what a snapshot trace keeps per step besides its column state: the (label, tv, gap, moved) row,
# its string and floats, and the step's column and order index (280-300 bytes measured)
_STEP_BYTES = 320


def _check_trace_size(nx: int, ny: int, snapshots: SnapshotMode, to_file: bool = False) -> None:
    """Refuse (ValidationError) a walk whose snapshots could take more than MAX_TRACE_BYTES.

    A walk records at most 3*ny + 4 steps with snapshots in "phases" mode
    (3 per block, plus the 4 whole-grid steps), 3*nx*ny + 4 in "all" mode
    and none in "none" mode. In memory the trace holds the reordered pair,
    16*nx*ny bytes, and per step a 16*nx-byte column state and
    _STEP_BYTES; a trace file (to_file) holds both whole grids of every
    step, 16*nx*ny bytes a step.
    """
    steps = {"phases": 3 * ny + 4, "all": 3 * nx * ny + 4, "none": 0}[snapshots]
    if to_file:
        size = 16 * nx * ny * steps
        text = f"trace file of the {nx}x{ny} pair may hold {size} bytes of grids"
    else:
        size = 16 * nx * ny + steps * (16 * nx + _STEP_BYTES) if steps else 0
        text = f"snapshots of the {nx}x{ny} pair may take {size} bytes"
    if size > MAX_TRACE_BYTES:
        raise ValidationError(f"the {snapshots!r} {text}, over the trace guard {MAX_TRACE_BYTES}")


def run_walk(pair: DistributionPair, snapshots: SnapshotMode = "phases") -> WalkTrace:
    """Run the full walk and return its invariant-checked trace.

    `snapshots` controls how much of the state is copied into the trace:
    "phases" snapshots at phase boundaries (default), "all" additionally
    records every individual weight move, "none" keeps only labels and the
    measured tv/gap per phase.

    The trace's steps are a read-only sequence, and each WalkStep in it is
    built when it is read, its snapshots from the step's column state.
    Before it walks, the pair is refused (ValidationError) if it has more
    than MAX_GRID_CELLS cells, or if its snapshots could exceed
    MAX_TRACE_BYTES: 16*nx*ny bytes for the reordered pair plus, per step,
    16*nx bytes (one column state) and 320 bytes (its label, tv, gap and
    moved mass), over at most 3*ny + 4 steps in "phases" mode and
    3*nx*ny + 4 in "all" mode. A snapshot trace also keeps a few more whole
    pairs (the given and the oriented pair, the grids before averaging and
    the averaged pair), which MAX_GRID_CELLS bounds.

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
    _check_trace_size(nx, ny, snapshots)
    W = np.array((pair.p.probs, pair.q.probs))
    W.flags.writeable = False  # the trace keeps it as the initial step's grids
    tb = _walk(W[:, None], snapshots)
    # the averaged pair: the last step's snapshots, or copies when the trace keeps none
    last = tb.steps[-1]
    final = (last.p, last.q) if tb.steps.snapshots else (_freeze(tb.final[0].copy()), _freeze(tb.final[1].copy()))
    return WalkTrace(steps=tb.steps, final=DistributionPair(*final))
