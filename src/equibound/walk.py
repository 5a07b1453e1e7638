"""Executable simplex walk: transport a pair to the extremal configuration.

The walk turns the tightness argument into a runtime-checkable certificate.
Starting from any pair (p, q) it

1. orients the pair so H(X|Y) of p is the larger equivocation,
2. reorders blocks and rows into a canonical form,
3. walks q block by block until every block of q is a point mass
   (so H(X'|Y') = 0), moving shared weight in p where needed,
4. averages both grids over blocks, leaving product distributions with a
   uniform Y-marginal.

Along the way the total variation distance never increases and the
equivocation gap never decreases; a violation beyond 1e-9 raises
InvariantViolation (that signals an implementation bug, never valid-input
behavior). The final gap is then at most the continuity bound evaluated at
the initial TV.

The certificate is block-local. TV and H(X|Y) = sum_j p_Y(j) H(X|Y=j) are
both sums of per-Y-block terms, and every move changes a single block, so
each recorded block step re-measures only that block: O(nx) per step, not
O(nx*ny). The block's TV must not rise and its gap must not fall, and the
running totals are checked as well. The whole grid is measured only at the
initial pair (which also decides the orientation), after reordering, once
before averaging as a cross-check of the running totals (a drift beyond
1e-9 raises InvariantViolation), and after averaging.

Block labels and trace labels are 1-based; in-memory arrays are 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Literal, Optional

import numpy as np

from .bounds import continuity_bound
from .core import (
    DistributionPair,
    JointDistribution,
    ValidationError,
    conditional_entropy,
    _xlog2x_arr,
)

STEP_TOL = 1e-9  # tolerance for every walk invariant

SnapshotMode = Literal["phases", "all", "none"]
_SNAPSHOT_MODES = ("phases", "all", "none")

# move callback: (kind, 1-based row, transferred mass)
_OnMove = Optional[Callable[[str, int, float], None]]


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
    """Swap the pair if needed so conditional_entropy(p) >= conditional_entropy(q).

    Ties are left unchanged. Gap and TV are unaffected.
    """
    if conditional_entropy(pair.q) > conditional_entropy(pair.p):
        return DistributionPair(pair.q, pair.p)
    return pair


def _reorder(W: np.ndarray) -> np.ndarray:
    """Reordered copy of the stacked pair W = [P, Q] (see reorder)."""
    P, Q = W
    W = W[:, :, np.argsort(-(Q.sum(axis=0) - P.sum(axis=0)), kind="stable")]
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


def _running(start: float, s: np.ndarray) -> np.ndarray:
    # start + s[0], (start + s[0]) + s[1], ...: accumulate adds left to right,
    # so these are bit-identical to a sequential loop of `+=`
    return np.add.accumulate(np.concatenate(((start,), s)))[1:]


def _total(s: np.ndarray) -> float:
    # the sequential sum 0.0 + s[0] + s[1] + ...
    return float(np.add.accumulate(s)[-1]) if s.size else 0.0


def _apply(rows: np.ndarray, s: np.ndarray, writes, kind: str, on_move: _OnMove) -> None:
    """Write one phase's moves into a block's columns.

    Move k sets row rows[k] of each column g in `writes` = [(g, top, new),
    ...] to new[k] and g's top row to top[k]. Without on_move only the final
    state is written; with it, every move is written in turn and reported
    as on_move(kind, rows[k] + 1, s[k]).
    """
    if not rows.size:
        return
    if on_move is None:
        for g, top, new in writes:
            g[0] = top[-1]
            g[rows] = new
        return
    for k, i0 in enumerate(rows.tolist()):
        for g, top, new in writes:
            g[0] = top[k]
            g[i0] = new[k]
        on_move(kind, i0 + 1, float(s[k]))


def _concentrate(p: np.ndarray, q: np.ndarray, on_move: _OnMove = None) -> float:
    """Phase 1: fold q's excess over p (rows below 1 with q > p) into q's top row.

    p and q are one block's columns. Touches q only. Requires q[0] >= p[0];
    afterwards q's top row dominates p's and every other row of q is
    dominated by p's.
    """
    rows = 1 + (q[1:] > p[1:]).nonzero()[0]
    s = q[rows] - p[rows]
    _apply(rows, s, [(q, _running(q[0], s), p[rows])], "concentrate", on_move)
    return _total(s)


def _transfer(p: np.ndarray, q: np.ndarray, on_move: _OnMove = None) -> float:
    """Phase 2: move each remaining q weight to the top row of the block, in both grids.

    Requires q[0] >= p[0] and p[i] >= q[i] for i > 0; then each shared move
    of weight s keeps the block's TV contribution constant and cannot
    shrink the entropy difference (x*log2(x) is convex).
    """
    rows = 1 + q[1:].nonzero()[0]
    s = q[rows]
    writes = [(q, _running(q[0], s), np.zeros_like(s)), (p, _running(p[0], s), p[rows] - s)]
    _apply(rows, s, writes, "transfer", on_move)
    return _total(s)


def _fill(p: np.ndarray, q: np.ndarray, on_move: _OnMove = None) -> tuple[float, bool]:
    """Empty in-set procedure: raise q's top row from the bottom rows, q only.

    Requires q[i] < p[i] for all i. Sources are consumed from the bottom row
    upward; each transfer is capped at p[0] - q[0] so the block's TV
    contribution is unchanged. Returns (moved, switched): switched is True
    when the cap bound the last transfer, i.e. q[0] reached p[0] exactly and
    two-phase processing applies from here.
    """
    rows = (1 + q[1:].nonzero()[0])[::-1]
    s = q[rows]
    top = _running(q[0], s)  # q's top row after consuming each source in full
    caps = p[0] - np.concatenate(((q[0],), top[:-1]))
    hits = (s >= caps).nonzero()[0]
    new = np.zeros_like(s)
    switched = bool(hits.size)
    if switched:
        # the first source that covers the cap gives only the cap; fill ends there
        n = int(hits[0])
        t = caps[n] if caps[n] > 0.0 else 0.0
        rows = rows[: n + 1]
        s = np.append(s[:n], t)
        top = np.append(top[:n], p[0])
        new = np.append(new[:n], q[rows[n]] - t)
    _apply(rows, s, [(q, top, new)], "fill", on_move)
    return _total(s), switched


def _process_block(P: np.ndarray, Q: np.ndarray, j0: int, on_move: _OnMove = None) -> Iterator[tuple[str, float]]:
    """Drive block j0 of Q to a point mass on its top row, in place.

    Yields (phase, moved mass) after each phase. A block whose top row has
    q >= p (after reordering: a nonempty in-set) runs concentrate, then
    transfer. Otherwise fill runs first, and the two phases follow only when
    fill's cap binds. on_move, when given, sees every individual move.
    """
    p, q = P[:, j0], Q[:, j0]
    if q[0] < p[0]:
        moved, switched = _fill(p, q, on_move)
        yield "fill", moved
        if not switched:
            return
    yield "concentrate", _concentrate(p, q, on_move)
    yield "transfer", _transfer(p, q, on_move)


def _average(A: np.ndarray) -> np.ndarray:
    # every block (last axis) replaced by the mean over blocks, as a read-only view
    return np.broadcast_to(A.mean(axis=-1, keepdims=True), A.shape)


def average_blocks(J: JointDistribution) -> JointDistribution:
    """Replace every block by the average over all blocks.

    The output is a product distribution with a uniform Y-marginal and the
    same X-marginal. The map is a uniform mixture of block permutations, so
    it cannot decrease the equivocation, and it cannot increase TV.
    """
    return JointDistribution(_average(J.probs))


def _block_terms(W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per block of the stacked pair W = [P, Q]: TV share, and equivocation terms of P and of Q.

    W is (2, nx, k) for k blocks, or (2, nx) for one block; the terms are
    (k,) and (2, k), or a scalar and (2,). The equivocation term of a block
    is p_Y(j) H(X|Y=j) = p_Y(j) log2 p_Y(j) - sum_i p(i,j) log2 p(i,j).
    Summed over all blocks the terms give tv(P, Q) and H(X|Y) of P and Q.
    """
    h = _xlog2x_arr(W.sum(axis=1)) - _xlog2x_arr(W).sum(axis=1)
    return 0.5 * np.abs(W[0] - W[1]).sum(axis=0), h


def _measure(W: np.ndarray) -> tuple[np.ndarray, np.ndarray, float, float, float]:
    """Full measurement of the stacked pair W: the block terms, then tv and H(X|Y) of P and of Q."""
    tv_j, h_j = _block_terms(W)
    hp, hq = h_j.sum(axis=1).tolist()
    return tv_j, h_j, float(tv_j.sum()), hp, hq


class _TraceBuilder:
    """Records walk steps and certifies them from a per-block ledger.

    tv_j holds every block's TV share and h_j (rows p, q) its equivocation
    terms; tv and gap are the running totals of the last step.
    """

    def __init__(self, mode: SnapshotMode):
        self.mode = mode
        self.steps: list[WalkStep] = []
        self.tv: float | None = None
        self.gap: float | None = None

    def _advance(self, label: str, tv: float, gap: float) -> None:
        if self.tv is not None and tv > self.tv + STEP_TOL:
            raise InvariantViolation(f"step {label!r}: tv increased from {self.tv} to {tv}")
        if self.gap is not None and gap < self.gap - STEP_TOL:
            raise InvariantViolation(f"step {label!r}: gap decreased from {self.gap} to {gap}")
        self.tv, self.gap = tv, gap

    def measure(self, label: str, W: np.ndarray, orient: bool = False) -> bool:
        """Measure every block of the stacked pair W, then check the new totals against the last step.

        With orient=True the roles of p and q are swapped when q has the
        larger equivocation (ties are left); returns whether they were.
        """
        tv_j, h_j, tv, hp, hq = _measure(W)
        swap = orient and hq > hp
        if swap:
            h_j, hp, hq = h_j[::-1], hq, hp
        self.tv_j, self.h_j = tv_j, h_j
        self._advance(label, tv, hp - hq)
        return swap

    def measure_block(self, label: str, j0: int, W: np.ndarray) -> None:
        """Re-measure block j0 only: its TV must not rise nor its gap fall; the totals move by its change."""
        tv, (hp, hq) = _block_terms(W[:, :, j0])
        tv, hp, hq = float(tv), float(hp), float(hq)
        old_tv = float(self.tv_j[j0])
        old_gap = float(self.h_j[0, j0]) - float(self.h_j[1, j0])
        if tv > old_tv + STEP_TOL:
            raise InvariantViolation(f"step {label!r}: block {j0 + 1} tv increased from {old_tv} to {tv}")
        if hp - hq < old_gap - STEP_TOL:
            raise InvariantViolation(f"step {label!r}: block {j0 + 1} gap decreased from {old_gap} to {hp - hq}")
        self.tv_j[j0], self.h_j[0, j0], self.h_j[1, j0] = tv, hp, hq
        self._advance(label, self.tv + (tv - old_tv), self.gap + ((hp - hq) - old_gap))

    def cross_check(self, W: np.ndarray) -> None:
        """Compare the running totals with a full measurement of the stacked pair W."""
        _, _, tv, hp, hq = _measure(W)
        gap = hp - hq
        if abs(tv - self.tv) > STEP_TOL or abs(gap - self.gap) > STEP_TOL:
            raise InvariantViolation(
                f"running totals (tv {self.tv}, gap {self.gap}) drifted from the full measurement (tv {tv}, gap {gap})"
            )

    def record(self, label: str, p, q, transferred: float | None = None) -> None:
        """Append the current totals, with snapshots of p and q (grids or JointDistributions) unless mode is "none"."""
        if self.mode == "none":
            p = q = None
        else:
            p = p if isinstance(p, JointDistribution) else JointDistribution(p)
            q = q if isinstance(q, JointDistribution) else JointDistribution(q)
        self.steps.append(WalkStep(label=label, tv=self.tv, gap=self.gap, p=p, q=q, transferred=transferred))


def run_walk(pair: DistributionPair, snapshots: SnapshotMode = "phases") -> WalkTrace:
    """Run the full walk and return its invariant-checked trace.

    `snapshots` controls how much of the state is copied into the trace:
    "phases" snapshots at phase boundaries (default), "all" additionally
    records every individual weight move, "none" keeps only labels and the
    measured tv/gap per phase.

    Guarantees on return (each checked, violation raises InvariantViolation):
    per recorded step tv is non-increasing and the gap non-decreasing within
    1e-9, for the moved block and for the totals; the running totals agree
    with a full measurement before averaging within 1e-9; the final q has
    conditional entropy <= 1e-9 and X-marginal 1 on outcome 1; and the final
    gap is at most the continuity bound evaluated at the initial TV.
    """
    if snapshots not in _SNAPSHOT_MODES:
        raise ValidationError(f"snapshots must be one of {_SNAPSHOT_MODES}, got {snapshots!r}")
    tb = _TraceBuilder(snapshots)
    # one measurement serves the initial record and the orientation: the
    # recorded initial gap is |gap|, which is the oriented gap
    W = np.stack((pair.p.probs, pair.q.probs))
    oriented = pair
    if tb.measure("initial", W, orient=True):
        W = W[::-1]
        oriented = DistributionPair(pair.q, pair.p)
    tb.record("initial", pair.p, pair.q)
    tb.record("orient", oriented.p, oriented.q)
    W = _reorder(W)
    P, Q = W
    tb.measure("reorder", W)
    tb.record("reorder", P, Q)

    def on_move(kind: str, i: int, s: float) -> None:
        # per-move records, "all" mode only; reads the loop's current block j0
        label = f"block {j0 + 1} {kind} i={i}"
        tb.measure_block(label, j0, W)
        tb.record(label, P, Q, transferred=s)

    for j0 in range(W.shape[2]):
        for kind, moved in _process_block(P, Q, j0, on_move if snapshots == "all" else None):
            label = f"block {j0 + 1} {kind}"
            tb.measure_block(label, j0, W)
            tb.record(label, P, Q, transferred=moved)

    left = np.flatnonzero((Q[1:, :] > 0.0).any(axis=0))
    if left.size:
        raise InvariantViolation(f"block {left[0] + 1} processed but q still has weight below the top row")
    tb.cross_check(W)

    W = _average(W)
    final = DistributionPair(JointDistribution(W[0]), JointDistribution(W[1]))
    tb.measure("average", W)
    tb.record("average", final.p, final.q)

    steps = tuple(tb.steps)
    final_q_entropy = float(tb.h_j[1].sum())
    if final_q_entropy > STEP_TOL:
        raise InvariantViolation(f"final q has conditional entropy {final_q_entropy} > {STEP_TOL}")
    q_x_top = float(final.q.probs[0, :].sum())
    if abs(q_x_top - 1.0) > STEP_TOL:
        raise InvariantViolation(f"final q_X(1) = {q_x_top}, expected 1")
    initial_tv = steps[0].tv
    final_gap = steps[-1].gap
    chain_cap = continuity_bound(initial_tv, pair.nx).value if pair.nx >= 2 else 0.0
    if final_gap > chain_cap + STEP_TOL:
        raise InvariantViolation(
            f"final gap {final_gap} exceeds the bound {chain_cap} at the initial tv {initial_tv}"
        )
    return WalkTrace(steps=steps, initial=pair, final=final)
