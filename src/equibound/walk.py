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
taller). Every move of every phase shifts mass within one block onto its
top row, so the three phases share one fold of the top rows' running sums
(_to_top), each in its own move order, and hand the ledger their steps as
each returns. The trace still lists the steps block by block (block 1's
phases, then block 2's, ...), and its grids, moved masses and snapshots are
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

The ledger certifies every step as the walk goes; the trace only keeps the
ledger's own arrays, and builds each step's record when the step is read.
A whole-grid step keeps its label, tv and gap. A range of block steps keeps
the table the ledger certified it from, in trace order (each step's
column, kind, moved row, moved mass and where its column state sits), the
running tv and gap the ledger summed, and in snapshot modes each step's
(2, nx) column state, which the ledger has already concatenated to measure
it. Reading one step formats its one label; iterating formats each range's
labels in one pass; the length and the first and last steps (whole-grid
steps) format none.
A step's snapshots are built when the step is read, by writing its column
state onto the grids around it: read-only copies of this certified state,
not re-validated grids.

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


_KINDS = ("fill", "concentrate", "transfer")


@dataclass
class _Phase:
    """One phase run over the columns `cols` of the stacked pair W = [P, Q].

    `before` is the state the phase started from and `new` the state it
    wrote, both (2, nx, k) and indexed like W's columns. `move`, `s` (both
    (nx, k)) and `tops` ((2, nx, k)) list each column's moves in move
    order: move m takes weight from row order[m] (order[0] is the top row,
    which gives none). `move` marks the moves that took weight, `s` the
    weight each moved and `tops` the p and q top rows right after it.
    `moved` is each column's moved mass, summed in move order; `switched`
    (fill only) holds the columns where the cap bound.
    """

    kind: str
    cols: np.ndarray
    before: np.ndarray
    new: np.ndarray
    move: np.ndarray
    s: np.ndarray
    order: np.ndarray
    tops: np.ndarray
    moved: np.ndarray
    switched: np.ndarray | None


# Every phase works down the rows of all its columns at once. A row that does
# not move adds exactly 0.0 to the running sums, so each column's sums are
# bit-identical to a loop over its moved rows alone (the reordered grids hold
# no -0.0, which adding 0.0 would turn into 0.0; see _reorder).


def _to_top(kind: str, W: np.ndarray, cols: np.ndarray, before, new, move, s, order, exact=None) -> _Phase:
    """Finish a phase: each move's weight s goes to the top row, move by move down `order`.

    move, s and `exact` are in move order (see _Phase). q's top row gains
    each s, and so does p's in transfer; the top rows' running sums and the
    moved mass are taken in move order. Where `exact` is set (fill, from
    the move where the cap binds on) q's top row is p's exactly. The phase
    writes `new`, with the last top rows, into W's columns `cols`.
    """
    run = np.array((s, s, s))  # p's and q's top rows, and the moved mass
    if kind != "transfer":
        run[0, 1:] = 0.0  # p does not move
    run[:2, 0] = before[:, 0]
    np.add.accumulate(run, axis=1, out=run)
    if exact is not None:
        np.copyto(run[1], before[0, 0], where=exact)
    new[:, 0] = run[:2, -1]
    W[:, :, cols] = new
    switched = None if exact is None else cols[exact[-1]]
    return _Phase(kind, cols, before, new, move, s, order, run[:2], run[2, -1], switched)


def _concentrate(W: np.ndarray, cols: np.ndarray) -> _Phase:
    """Phase 1: fold q's excess over p (rows below 1 with q > p) into q's top row, top down.

    Touches q only. Requires q[0] >= p[0] in every column; afterwards q's
    top row dominates p's and every other row of q is dominated by p's.
    """
    before = W[:, :, cols]
    P, Q = before
    move = Q > P
    move[0] = False
    s = np.where(move, Q - P, 0.0)
    return _to_top("concentrate", W, cols, before, np.where(move, P, before), move, s, np.arange(len(move)))


def _transfer(W: np.ndarray, cols: np.ndarray) -> _Phase:
    """Phase 2: move each remaining q weight to the top row of the block, in both grids, top down.

    Requires q[0] >= p[0] and p[i] >= q[i] for i > 0; then each shared move
    of weight s keeps the block's TV contribution constant and cannot
    shrink the entropy difference (x*log2(x) is convex).
    """
    before = W[:, :, cols]
    move = before[1] != 0.0
    move[0] = False
    s = np.where(move, before[1], 0.0)
    return _to_top("transfer", W, cols, before, before - s, move, s, np.arange(len(move)))


def _fill(W: np.ndarray, cols: np.ndarray) -> _Phase:
    """Empty in-set procedure: raise q's top row from the bottom rows, q only.

    Requires q[i] < p[i] for all i. Sources are consumed from the bottom row
    upward; each transfer is capped at p[0] - q[0] so the block's TV
    contribution is unchanged. In a column where the cap binds (switched),
    the first source that covers it gives only the cap, q[0] reaches p[0]
    exactly, fill ends there and two-phase processing applies from here.
    Only the caps are worked out here; _to_top moves the weight.
    """
    before = W[:, :, cols]
    P, Q = before
    nx = Q.shape[0]
    # up[m] is row (nx - m) % nx: the top row, then the sources bottom-up
    # (the map is its own inverse, so x[up] also maps back)
    up = np.concatenate(([0], np.arange(nx - 1, 0, -1)))
    src = Q[up]
    caps = P[0] - np.add.accumulate(src, axis=0)  # caps[m - 1] is the cap source m meets
    hit = np.zeros_like(src, dtype=bool)
    hit[1:] = (src[1:] != 0.0) & (src[1:] >= caps[:-1])
    switched = hit.any(axis=0)
    first = hit.argmax(axis=0)  # 0 where nothing hit
    m = np.arange(nx)[:, None]
    exact = switched & (m >= first)  # from the source that meets the cap on
    full = (m >= 1) & ~exact & (src != 0.0)
    at = exact & (m == first)
    t = caps[first - 1, np.arange(first.size)]
    t = np.where(t > 0.0, t, 0.0)
    s = np.where(full, src, np.where(at, t, 0.0))
    new = before.copy()
    new[1] = np.where(full, 0.0, src - s)[up]
    return _to_top("fill", W, cols, before, new, full | at, s, up, exact)


# grid cells the kernel and its ledger work on at a time, and so the cells of a campaign batch
# (see _range_blocks): 128 KB of float64 for each grid of the pair
_CHUNK_CELLS = 1 << 14


def _range_blocks(nx: int) -> int:
    # the blocks of one range: about _CHUNK_CELLS cells of each grid, and at least one block
    return max(1, _CHUNK_CELLS // nx)


def _walk_blocks(W: np.ndarray, lo: int, hi: int, moves: bool) -> list[tuple]:
    """Drive the blocks lo ... hi - 1 of Q to a point mass on their top row, in place, in lockstep.

    W = [P, Q] is a reordered stacked pair; the phases work on those columns
    of W and name them by their column in W. Blocks whose top row has q < p
    (an empty in-set) are filled first; those where fill's cap bound, and
    all others, then run concentrate and transfer. Returns the ledger's
    parts (see _TraceBuilder.blocks) in run order, as each phase hands them
    over: with moves set its single moves (see _moves), then its phase
    steps, whose states are read back from W right after the phase. A phase
    with no block to run on is left out, and no phase outlives its parts.
    Every array a part holds has one column per step, so a range of blocks
    bounds them.
    """
    parts: list[tuple] = []

    def run(phase, cols: np.ndarray) -> _Phase:
        ph = phase(W, cols)
        k = _KINDS.index(ph.kind)
        if moves:
            parts.append((k, *_moves(ph)))
        parts.append((k, ph.cols, np.zeros(ph.cols.size, dtype=np.intp), ph.moved, W[:, :, ph.cols]))
        return ph

    fill = W[1, 0, lo:hi] < W[0, 0, lo:hi]
    rest = ~fill
    cols = fill.nonzero()[0] + lo
    if cols.size:
        rest[run(_fill, cols).switched - lo] = True
    cols = rest.nonzero()[0] + lo
    if cols.size:
        run(_concentrate, cols)
        run(_transfer, cols)
    return parts


def _moves(ph: _Phase) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every single move of a phase, replayed from its arrays in move order.

    Returns (cols, rows, moved, states): for move n, cols[n] is its block,
    rows[n] the row it took weight from plus 1, moved[n] that weight, and
    states[:, :, n] the block's (2, nx) column state right after it. Moves
    come column by column, each column's in move order (fill works
    bottom-up, the other phases top-down): a state is `new` in the rows
    whose move came no later, `before` in the others, with the move's top
    rows.
    """
    c, m = np.nonzero(ph.move.T)
    states = ph.before[:, :, c]
    np.copyto(states, ph.new[:, :, c], where=ph.order.argsort()[:, None] <= m)
    states[:, 0] = ph.tops[:, m, c]
    return ph.cols[c], ph.order[m] + 1, ph.s[m, c], states


def _average(A: np.ndarray, trials: int = 1) -> np.ndarray:
    # every block (last axis) replaced by the mean over its trial's blocks;
    # a read-only view for one trial
    T = A.reshape(*A.shape[:-1], trials, -1)
    # the sum divided by the count: np.mean's bits, without its Python-level setup
    return np.broadcast_to(T.sum(axis=-1, keepdims=True) / T.shape[-1], T.shape).reshape(A.shape)


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


def _labels(block: np.ndarray, kind: np.ndarray, row: np.ndarray, ny: int) -> list[str]:
    """Trace labels of block steps, from their columns, kinds (indices into _KINDS) and rows + 1 (0: a phase step).

    A label names the block within its trial: in a batch of trials with ny
    blocks each, column c is block c % ny + 1.
    """
    return [
        f"block {j} {_KINDS[k]} i={i}" if i else f"block {j} {_KINDS[k]}"
        for j, k, i in zip((block % ny + 1).tolist(), kind.tolist(), row.tolist())
    ]


class _Steps(Sequence):
    """The recorded steps of one walk, held as the ledger's arrays: each WalkStep is built when it is read.

    The steps are one list of segments, in step order. A whole-grid step is
    a segment (label, tv, gap, W): W is its stacked pair, read-only, in
    snapshot modes and None otherwise. A range of block steps is a segment
    (table, totals, states), as the ledger certified it (see
    _TraceBuilder.blocks): the table in trace order, the running tv and gap
    and, in snapshot modes, the column states. Reading a block step formats
    its one label (see _labels); iteration formats each range's labels in
    one call. The walk finishes each block before it starts the next, so
    the grids after a block step are `end` (the stacked pair the block steps
    end at, before averaging) left of its block, its column state in it,
    and `reordered` (the pair they start from) right of it; _walk sets both.
    A read builds them from these, and iteration writes one column per step
    onto the grids of the step before; either way a block step's snapshots
    are copies of their own, while a whole-grid step's share its pair.
    """

    def __init__(self, snapshots: bool, ny: int):
        self.snapshots, self.ny, self.size = snapshots, ny, 0
        self.segments: list[tuple] = []
        self.first: list[int] = []  # each segment's first step
        self.end = self.reordered = None

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(map(self.__getitem__, range(len(self))[k]))
        k = range(len(self))[k]  # negative from the end; IndexError past it
        n = bisect_right(self.first, k) - 1
        k -= self.first[n]
        return next(self._read(self.segments[n], slice(k, k + 1)))

    def __iter__(self):
        for segment in self.segments:
            yield from self._read(segment, slice(None))

    def __eq__(self, other) -> bool:
        # step by step, as the tuple of steps compared, with any sequence of steps
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return repr(tuple(self))

    def _read(self, segment: tuple, steps: slice):
        """The WalkSteps of the steps `steps` (a slice of the segment's own steps, in order) of one segment."""
        if isinstance(segment[0], str):  # a whole-grid step
            label, tv, gap, W = segment
            yield WalkStep(label, tv, gap) if W is None else WalkStep(label, tv, gap, _freeze(W[0]), _freeze(W[1]))
            return
        (block, kind, row, moved, order), totals, states = segment
        block = block[steps]
        rows = zip(_labels(block, kind[steps], row[steps], self.ny), *totals[:, steps].tolist(), moved[steps].tolist())
        if not self.snapshots:
            for label, tv, gap, m in rows:
                yield WalkStep(label, tv, gap, transferred=m)
            return
        grids = None
        for (label, tv, gap, m), j, t in zip(rows, block.tolist(), order[steps].tolist()):
            if grids is None:
                grids = np.concatenate((self.end[:, :, :j], self.reordered[:, :, j:]), axis=2)
            grids[:, :, j] = states[:, :, t]
            yield WalkStep(label, tv, gap, _freeze(grids[0].copy()), _freeze(grids[1].copy()), m)

    def append(self, label: str, tv: float, gap: float, W: np.ndarray) -> np.ndarray | None:
        """Append a whole-grid step ending at the stacked pair W; returns the pair kept, in snapshot modes.

        A read-only contiguous W is kept as it is; any other is copied, as
        the walk goes on changing its own grids.
        """
        if self.snapshots and (W.flags.writeable or not W.flags.c_contiguous):
            W = W.copy()
            W.flags.writeable = False
        W = W if self.snapshots else None
        self.first.append(self.size)
        self.segments.append((label, tv, gap, W))
        self.size += 1
        return W

    def extend(self, table: tuple, totals: np.ndarray, states: np.ndarray) -> None:
        """Append one range's block steps: its table and running tv and gap (see _TraceBuilder.blocks) and column states.

        The states are kept only in snapshot modes.
        """
        self.first.append(self.size)
        self.segments.append((table, totals, states if self.snapshots else None))
        self.size += table[0].size


class _TraceBuilder:
    """Certifies the walk of a batch of trials from a per-block ledger, and records one trial's steps.

    The stacked pair W = [P, Q] holds `trials` pairs side by side: trial b
    owns columns b*ny ... (b+1)*ny - 1. The ledger starts from each trial's
    initial tv and gap, `tv` and `gap` (one float per trial, the gap as
    oriented; see _orientation), which it keeps as `initial_tv` too. `terms`
    holds every block's four ledger terms and `sums` each trial's sums from
    the last whole-grid measurement (see _measure); tv, gap and mass hold
    each trial's running totals after its last step. Every check is made
    per trial, and the first failing check found raises InvariantViolation.
    With `steps` (one trial) the steps are recorded there (see _Steps); with
    None nothing is.
    """

    def __init__(self, steps: _Steps | None, ny: int, tv: list[float], gap: list[float]):
        self.steps, self.ny, self.trials = steps, ny, len(tv)
        self.initial_tv, self.tv, self.gap = tv, tv, gap

    def measure(self, label: str, W: np.ndarray) -> np.ndarray | None:
        """Measure the whole stacked pair W, certify it and record it; returns what record returns.

        Each trial's new totals are checked against its last step; then
        every entry must be finite and in [0, 1 + 1e-9], and each grid's
        measured mass within 1e-9 of 1.
        """
        terms, self.sums = _measure(W, self.trials)
        self.terms = terms[:4].copy()  # the rows _certify reads; a copy, so the entropy rows die here
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
        return self.record(label, W)

    def blocks(self, parts: list[tuple]) -> None:
        """Certify one range's block steps in one array pass, and record them when tracing.

        `parts` are the range's steps as _walk_blocks hands them over, part
        by part in run order: per part its kind (an index into _KINDS), the
        steps' columns, rows (the row a step moved weight from plus 1, or 0
        for a phase step), moved masses and (2, nx, steps) column states.
        Steps are listed trial by trial and, within a trial, block by block:
        a block's fill, concentrate and transfer, each preceded by its single
        moves ("all" mode). The steps' table is built once, in trace order:
        for each step its column (`block`), `kind`, `row`, `moved` mass and
        `order`, where its column state sits in the concatenated states. The
        column states are concatenated once, in part order, and measured
        once; in snapshot modes the trace keeps that concatenation as the
        range's snapshots.
        """
        kinds, cols, rows, moved, states = zip(*parts)
        parts.clear()  # the states are held once, in the concatenation below
        block = np.concatenate(cols)
        order = block.argsort(kind="stable")  # lists each block's steps in run order
        kind = np.array(kinds, dtype=np.int8).repeat([c.size for c in cols])
        block, kind, row, moved = (a[order] for a in (block, kind, np.concatenate(rows), np.concatenate(moved)))
        table = (block, kind, row, moved, order)
        del cols, rows  # what the ledger reads of the parts is in the table now
        # laid out column by column, so each column's rows are contiguous and summed the same
        # way (pairwise) whatever the range holds
        out = np.empty((block.size, *states[0].shape[:2])).transpose(1, 2, 0)
        states = np.concatenate(states, axis=2, out=out)
        terms = _block_terms(states)[:4, order]
        # one min and one max pass a whole range; per-column flags, much slower on short
        # columns, are taken only to name the column that fails
        ok = _in_range(states, 0.0)
        entries = np.full(block.size, True) if ok else _in_range(states, 0.0, axis=(0, 1))[order]
        totals = self._certify(table, terms, entries)
        if self.steps is not None:
            self.steps.extend(table, totals, states)

    def _certify(self, table: tuple, new: np.ndarray, entries: np.ndarray) -> np.ndarray:
        """Check every block step of a range; returns the running tv and gap after each, shape (2, steps).

        In trace order, table is the steps' table (see blocks), new the four
        ledger terms of each step's column state (see _block_terms) and
        entries whether that state's entries are finite and in [0, 1 + 1e-9].
        Each step is
        measured against the block's previous step (or its reorder
        measurement: a block lies in one range), and its trial's running
        totals move by the differences: a trial's changes form one row,
        padded with zero changes, summed along the row from the totals the
        range before left. A step's block tv must not rise nor its gap fall,
        nor may its trial's totals; its entries must be in range, and each
        grid's mass within 1e-9 of 1. The first failing step in trace order
        raises.
        """
        block, ny = table[0], self.ny
        totals = np.array((self.tv, self.gap, *self.mass))
        old = self.terms[:, block]
        same = np.flatnonzero(block[1:] == block[:-1]) + 1
        old[:, same] = new[:, same - 1]
        # one row per trial t0 .. t1 - 1 of the range, each step at its position in its trial
        t0, t1 = int(block[0]) // ny, int(block[-1]) // ny + 1
        trial = block // ny - t0
        pos = np.arange(block.size) - np.searchsorted(trial, np.arange(t1 - t0))[trial]
        delta = np.zeros((4, t1 - t0, int(pos.max()) + 1))
        delta[:, trial, pos] = new - old
        run = _running(totals[:, t0:t1], delta)
        before, after = run[:, trial, pos], run[:, trial, pos + 1]
        totals[:, t0:t1] = run[:, :, -1]
        # one row per message below, in its order; a NaN fails every comparison, so ~(m <= MASS_TOL) flags it
        bad = np.array((new[0] > old[0] + STEP_TOL, new[1] < old[1] - STEP_TOL, after[0] > before[0] + STEP_TOL,
                        after[1] < before[1] - STEP_TOL, ~entries, *~(np.abs(after[2:] - 1.0) <= MASS_TOL)))
        if bad.any():
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
            (label,) = _labels(*(a[n : n + 1] for a in table[:3]), ny)
            raise InvariantViolation(f"step {label!r}: {messages[int(bad[:, n].argmax())]}")
        self.tv, self.gap, mp, mq = totals.tolist()
        self.mass = (mp, mq)
        return after[:2].copy()  # the trace keeps it: not the masses' rows

    def cross_check(self, W: np.ndarray) -> None:
        """Compare each trial's running totals with a full measurement of the stacked pair W."""
        _, (tvs, _, _, _, hp, hq) = _measure(W, self.trials)
        for run_tv, run_gap, tv, gap in zip(self.tv, self.gap, tvs.tolist(), (hp - hq).tolist()):
            if abs(tv - run_tv) > STEP_TOL or abs(gap - run_gap) > STEP_TOL:
                raise InvariantViolation(
                    f"running totals (tv {run_tv}, gap {run_gap}) drifted from the full measurement (tv {tv}, gap {gap})"
                )

    def record(self, label: str, W: np.ndarray) -> np.ndarray | None:
        """Append the traced trial's current totals as a whole-grid step ending at the stacked pair W.

        Returns the pair the trace keeps for it (see _Steps.append), or None.
        """
        if self.steps is not None:
            return self.steps.append(label, self.tv[0], self.gap[0], W)


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
    steps = None if snapshots is None else _Steps(snapshots != "none", ny)
    tb = _TraceBuilder(steps, ny, tv.tolist(), gap.tolist())
    tb.record("initial", W)
    if swap.any():
        W = np.where(np.repeat(swap, ny), W[::-1], W)
    tb.record("orient", W)
    W = _reorder(W, trials)
    reordered = tb.measure("reorder", W)
    size = _range_blocks(nx)
    for lo in range(0, W.shape[2], size):
        tb.blocks(_walk_blocks(W, lo, lo + size, snapshots == "all"))

    left = np.flatnonzero((W[1, 1:] > 0.0).any(axis=0))
    if left.size:
        raise InvariantViolation(f"block {left[0] % ny + 1} processed but q still has weight below the top row")
    tb.cross_check(W)
    if steps is not None and steps.snapshots:
        # the grids the block steps end at and start from, which only snapshots are built from
        steps.end, steps.reordered = W, reordered

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


# what a snapshot trace keeps per step besides its column state: its row of its range's table
# (column, kind, row, moved mass and order index) and its running tv and gap (49 bytes measured
# at 128x128 "all" and at 2x30000 "phases")
_STEP_BYTES = 96


def _check_trace_size(nx: int, ny: int, snapshots: SnapshotMode, to_file: bool = False) -> None:
    """Refuse (ValidationError) a walk whose snapshots could take more than MAX_TRACE_BYTES.

    A walk records at most 3 steps per block with snapshots in "phases"
    mode and 3*nx in "all" mode, plus the 4 whole-grid steps, and none in
    "none" mode. In memory the trace holds the reordered pair, 16*nx*ny
    bytes, and per step a 16*nx-byte column state and _STEP_BYTES. While
    the ledger certifies a range (see _range_blocks) it also holds about
    one more column state per step of that range: the parts it
    concatenates, then its measurement's temporaries. A trace file
    (to_file) holds both whole grids of every step, 16*nx*ny bytes a step.
    """
    per_block = {"phases": 3, "all": 3 * nx, "none": 0}[snapshots]
    steps = per_block * ny + 4 if per_block else 0
    if to_file:
        size = 16 * nx * ny * steps
        text = f"trace file of the {nx}x{ny} pair may hold {size} bytes of grids"
    else:
        transient = 16 * nx * per_block * min(ny, _range_blocks(nx))
        size = 16 * nx * ny + steps * (16 * nx + _STEP_BYTES) + transient if steps else 0
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
    16*nx bytes (one column state) and 96 bytes (its row of its range's
    table, and its running tv and gap), over at most 3*ny + 4 steps in
    "phases" mode and 3*nx*ny + 4 in "all" mode, plus one more column
    state per step of one range, which the ledger holds while it
    certifies that range (see _check_trace_size). A snapshot trace also
    keeps a few more whole pairs (the given and the oriented pair, the
    grids before averaging and the averaged pair), which MAX_GRID_CELLS
    bounds.

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
