"""Desk-scale empirical verification of the bound and the walk.

Two independent routes are provided: seeded random campaigns
(`verify_trials`) that check every sampled pair against the bound and run
the invariant-checked walk on it, and an exhaustive simplex grid search
(`grid_search_max_gap`) that serves as the brute-force oracle for
tightness. The grid search never consults the bound formula while
searching; it only reports it next to the measured maximum.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .bounds import SLACK_TOL, _check_bounds, _check_radius, continuity_bound
from .core import (
    DistributionPair,
    JointDistribution,
    ValidationError,
    _as_prob,
    _check_grid_size,
    _check_int,
    _xlog2x_arr,
)
from .walk import InvariantViolation, _range_blocks, _walk

# `_row_sum` has numpy's bits for sums of up to 8 terms, and the orbit margin below is derived
# for at most 8 cells
DESK_SCALE_CELLS = 8
DESK_SCALE_STEPS = 101
# cap on the grid points C(steps + cells - 1, cells - 1). The search builds only the canonical
# points and the points of the orbits pass 2 reads, so its memory grows with the orbits: under
# tracemalloc, 4.5 MB at (3,2,0.3,44) (1.9 M points, 35 858 orbits), 6.7 MB at (2,3,0.2,44)
# (46 956 orbits, 5.3 MB of it in pass 1's scan), 0.9 MB at (4,2,0.3,22) (1.56 M points of
# eight cells). The every-point fallback, admitted up to _FALLBACK_POINTS, peaks at 7.2 MB at
# (4,2,1e-9,13)
DESK_SCALE_POINTS = 2_000_000
# consecutive a (ascending entropy) whose distances the pair scan computes in one pass: at least
# _SCAN_BLOCK, and more while their distances to all candidates number at most _SCAN_ENTRIES
_SCAN_BLOCK = 8
_SCAN_ENTRIES = 2**15
# Pruning margin delta of the orbit-pruned pair scan, not a certificate tolerance. A block
# symmetry g (reorder the blocks, and the rows inside each block) permutes a point's cells,
# so h(g.x) adds the same table terms as h(x) in another order: the H(XY) sum of at most 8
# terms x*log2(x), of total magnitude <= log2 8 = 3, and the H(Y) sum of m*log2(m) over at
# most 4 block masses m, each an ordered add of at most 8 levels. With u = 2^-53, a reordered
# sum of 8 terms moves by at most 2 * 7u times its magnitude (42u for H(XY)); the masses move
# by at most 2 * 7u * m, which moves sum m*log2(m) by at most 14u * (H(Y) + 1/ln 2) < 49u
# (H(Y) <= log2 4); the logs, the 4-term H(Y) sum and the final subtraction add at most 24u.
# So |h(g.x) - h(x)| < 115u < 1.3e-14 (the worst measured over every point and symmetry is
# 1.3e-15: each shape of up to 6 cells at steps 14 to 50, 4x2 and 2x4 at 14 and 20, 7x1 at
# 10, 8x1 at 8), and a point's value, its largest feasible h[b] - h[a], differs from its
# orbit-mates' by less than 3e-14, far inside delta.
_ORBIT_MARGIN = 1e-10
# most orbits kept for the search's second pass: each covers at most 1e-13 of the width-delta
# window below pass 1's best, so this many leave part of it free (else every point is scanned)
_ORBIT_KEEP_MAX = 900
# most grid points the every-point fallback scans, each against every point above it. At radius
# 0 nothing prunes that scan: (4,2,1e-9,13), 77 520 points, takes about 5 s on a 2-CPU host
_FALLBACK_POINTS = 80_000


@dataclass(frozen=True)
class TrialReport:
    """Aggregate of one random campaign: counts, worst ratio, worst pair."""

    trials: int
    violations: int
    max_gap_over_bound_ratio: float
    worst_pair: DistributionPair
    seed: int
    nx: int
    ny: int


@dataclass(frozen=True)
class GridSearchResult:
    """Result of the exhaustive grid search: measured maximum vs the bound."""

    max_gap: float
    bound: float
    argmax_pair: DistributionPair


def _sample(out: np.ndarray, rng: np.random.Generator) -> None:
    """One Dirichlet-1 draw from rng, written into the flat array out."""
    out[:] = rng.dirichlet(np.ones(out.size))


def _rng(seed) -> np.random.Generator:
    """A numpy Generator as it is, or a new one from an int seed >= 0 (see core._check_int)."""
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(_check_int(seed, "seed", 0))


def sample_joint(nx: int, ny: int, seed) -> JointDistribution:
    """Draw a joint grid from the flat (Dirichlet-1) measure on the simplex.

    `seed` is an int >= 0 (deterministic: same seed, same draw) or a numpy
    Generator for callers managing their own stream. A grid of one row
    (nx = 1) is admitted, while verify_trials refuses nx = 1: the bound
    needs nx >= 2.
    """
    nx, ny = _check_int(nx, "nx"), _check_int(ny, "ny")
    if nx < 1 or ny < 1:
        raise ValidationError(f"nx and ny must be >= 1, got ({nx}, {ny})")
    _check_grid_size(nx, ny)
    v = np.empty(nx * ny)
    _sample(v, _rng(seed))
    return JointDistribution(v.reshape(nx, ny))


def _perturb(flat: np.ndarray, eps: float, rng: np.random.Generator) -> None:
    """perturb_within_tv on the flat grid `flat`, in place; eps is a probability already checked."""
    ncells = flat.size
    if eps == 0.0 or ncells == 1:
        return
    positive = rng.permutation(np.flatnonzero(flat > 0.0))
    n_donors_max = len(positive) if len(positive) < ncells else ncells - 1
    n_donors = int(rng.integers(1, n_donors_max + 1))
    donors = positive[:n_donors]
    pool = np.ones(ncells, dtype=bool)
    pool[donors] = False
    others = rng.permutation(np.flatnonzero(pool))
    recipients = others[: int(rng.integers(1, len(others) + 1))]

    held = flat[donors]
    target = min(eps, float(held.sum()))
    remaining = target
    for c, v in zip(donors.tolist(), held.tolist()):
        if remaining <= 0.0:
            break
        take = min(v, remaining)
        flat[c] = v - take
        remaining -= take
    adds = target * rng.dirichlet(np.ones(len(recipients)))
    # the last recipient takes the exact remainder, so the added mass is target
    adds[-1] = max(0.0, target - float(adds[:-1].sum()))
    flat[recipients] += adds


def perturb_within_tv(p: JointDistribution, eps: float, seed) -> JointDistribution:
    """Move mass eps away from p: returns q with tv(p, q) = min(eps, movable).

    Donor cells are chosen at random among the positive entries of p,
    recipients at random among the remaining cells; mass is taken from the
    donors (capped by their current values) and spread over the recipients
    with random weights. `movable` is the chosen donors' total mass, so the
    achieved displacement never exceeds eps (within 1e-12) and is exactly
    eps whenever the donors carry enough. `seed` is an int >= 0
    (deterministic per seed) or a numpy Generator.
    """
    eps = _as_prob(eps, "eps")
    rng = _rng(seed)
    if eps == 0.0 or p.probs.size == 1:
        return p
    flat = p.probs.ravel().copy()
    _perturb(flat, eps, rng)
    return JointDistribution(flat.reshape(p.probs.shape))


def _ratio(gap: float, bound: float) -> float:
    if bound > 0.0:
        return gap / bound
    return 0.0 if gap <= 1e-12 else math.inf


def verify_trials(nx: int, ny: int, trials: int, seed: int, eps: float | None = None) -> TrialReport:
    """Run a seeded campaign of independent bound checks plus walk certificates.

    Each trial t draws from its own stream default_rng([seed, t]): p, then
    q (an independent sample when eps is None, a TV-eps perturbation of p
    otherwise), with the draws of sample_joint and perturb_within_tv.
    Campaigns at different seeds share no trial, and results do not depend
    on execution order. The trials run in batches that fill one range of
    the walk's blocks, 2^14 grid cells (one trial per batch on larger
    grids, whose walk takes several ranges). A batch is drawn straight into
    one (2, trials, nx*ny) array, which, as a (2, trials, nx, ny) stack, is
    checked against the bound at once (the checks are check_bound's, bit
    for bit) and certified by one pass of the invariant-checked walk. The
    drawn grids are not JointDistributions: what that validation checks
    (entries finite and in range, each grid's mass within 1e-9 of 1) the
    walk certifies at its reorder and average measurements, before
    anything is reported. Only the worst pair becomes JointDistributions,
    at the end. If a batch's walk fails, its trials are walked again one
    at a time, and the first failing trial's violation propagates, with
    the seed and that trial's number attached (if none fails on its own,
    the batch's violation, with its trials' range).
    """
    nx, ny = _check_int(nx, "nx", 2), _check_int(ny, "ny", 1)
    trials, seed = _check_int(trials, "trials", 1), _check_int(seed, "seed", 0)
    if eps is not None:
        eps = _as_prob(eps, "eps")
    _check_grid_size(nx, ny)

    violations = 0
    max_ratio = 0.0
    worst: np.ndarray | None = None
    size = min(trials, max(1, _range_blocks(nx) // ny))
    for t0 in range(0, trials, size):
        t1 = min(t0 + size, trials)
        batch = np.empty((2, t1 - t0, nx * ny))
        for b in range(t1 - t0):
            rng = np.random.default_rng([seed, t0 + b])
            p, q = batch[:, b]
            _sample(p, rng)
            if eps is None:
                _sample(q, rng)
            else:
                q[:] = p
                _perturb(q, eps, rng)
        grids = batch.reshape(2, t1 - t0, nx, ny)
        for b, result in enumerate(_check_bounds(*grids)):
            if result.slack < -SLACK_TOL:
                violations += 1
            ratio = _ratio(result.gap, result.bound_at_tv)
            if worst is None or ratio > max_ratio:
                max_ratio = ratio
                # a view, which keeps its batch alive until the report is built
                worst = grids[:, b]
        try:
            _walk(grids)
        except InvariantViolation as exc:
            # the batch raised its first failure found, which need not be its first failing
            # trial's: the trials walk again one at a time, and the first to fail is named
            for b in range(t1 - t0):
                try:
                    # contiguous, as run_walk stacks a pair
                    _walk(grids[:, b : b + 1].copy())
                except InvariantViolation as own:
                    raise InvariantViolation(
                        f"{own} [seed {seed}, trial {t0 + b}, nx={nx}, ny={ny}, eps={eps}]"
                    ) from own
            raise InvariantViolation(
                f"{exc} [seed {seed}, trials {t0}-{t1 - 1}, nx={nx}, ny={ny}, eps={eps}]"
            ) from exc
    return TrialReport(
        trials=trials,
        violations=violations,
        max_gap_over_bound_ratio=max_ratio,
        worst_pair=DistributionPair(JointDistribution(worst[0]), JointDistribution(worst[1])),
        seed=seed,
        nx=nx,
        ny=ny,
    )


def _compositions(total: int, parts: int) -> np.ndarray:
    """All orderings of `total` units into `parts` nonnegative cells: one int8 row per cell, one column per ordering.

    Orderings come out in lexicographic order of (c0, c1, ...). They are
    built by plain extension, one cell at a time: each partial ordering,
    with `rest` units still unplaced, is extended by every value 0, 1, ...,
    rest of its next cell in turn, and the last cell takes what is left.
    Counts are at most DESK_SCALE_STEPS = 101, so int8 holds every cell.
    """
    columns: list[np.ndarray] = []
    rest = np.array([total], dtype=np.int8)
    for _ in range(parts - 1):
        widths = rest.astype(np.intp) + 1
        columns = [np.repeat(c, widths) for c in columns]
        # each partial ordering's run counts 0, 1, ..., rest: steps of 1, back to 0 at a run's start
        step = np.ones(int(widths.sum()), dtype=np.int8)
        step[np.cumsum(widths[:-1])] = -rest[:-1]
        step[0] = 0
        columns.append(np.cumsum(step, dtype=np.int8))
        rest = np.repeat(rest, widths) - columns[-1]
    columns.append(rest)
    return np.stack(columns)


def _row_sum(table: np.ndarray, rows: list[np.ndarray]) -> np.ndarray:
    """Each point's sum of its terms table[rows[k]], as numpy sums a row of the (points, len(rows)) array of them.

    numpy adds fewer than 8 terms left to right, and 8 (the most the search
    admits) as ((t0 + t1) + (t2 + t3)) + ((t4 + t5) + (t6 + t7)). These are
    its bits, gathered one row at a time, without the (points, terms) temporary.
    """
    if len(rows) == 8:
        low, high = (_row_sum(table, rows[k : k + 2]) + _row_sum(table, rows[k + 2 : k + 4]) for k in (0, 4))
        return low + high
    total = table.take(rows[0])
    for row in rows[1:]:
        total += table.take(row)
    return total


def _entropies(rows: np.ndarray, ny: int, steps: int) -> np.ndarray:
    """H(X|Y) of each grid point, one column of `rows`, whose row x*ny + y counts cell (x, y) out of steps."""
    # H(X|Y) = H(XY) - H(Y); a cell's level and x*log2(x) are looked up by its count, and each
    # sum over cells has the bits of numpy's sum over a grid's cells. Every step is elementwise,
    # so a point's entropy has the same bits whichever other points are computed with it.
    levels = np.arange(steps + 1) / float(steps)
    h = _row_sum(_xlog2x_arr(levels), list(rows))
    np.negative(h, out=h)
    h_y = None
    for y in range(ny):
        mass = _row_sum(levels, list(rows[y::ny]))
        h_y = _xlog2x_arr(mass) if h_y is None else h_y + _xlog2x_arr(mass)
    h += h_y
    return h


def _orbit_points(total: int, nx: int, ny: int) -> np.ndarray:
    """The canonical point of each block-symmetry orbit of the grid: one int8 row per cell, one column per orbit.

    A canonical point has each block's rows non-increasing and its blocks
    in non-increasing lexicographic order; every orbit holds exactly one.
    They are built as `_compositions` builds every point, one cell at a
    time in the cell order x*ny + y, each partial point extended by every
    count its next cell may take, in increasing order, so they come out in
    the order of their points among all compositions. A cell's count is at
    most the one above it in its block, and at most the same row's count in
    the block before while the two blocks are tied. It is at least what the
    later cells, each at most its block's last count, leave unplaced; that
    is loose where blocks tie, and a partial point that cannot be completed
    finds no count for a later cell. The last cell takes what is left.
    """
    cells = nx * ny
    cols: list[np.ndarray] = []
    rest = np.array([total])
    # tied[y]: block y equals block y - 1 in the rows placed so far (set from row 0's cell on)
    tied: list = [None] * ny
    for k in range(cells):
        x, y = divmod(k, ny)
        hi = np.minimum(rest, cols[k - ny]) if x else rest
        if y:
            hi = np.where(tied[y], np.minimum(hi, cols[k - 1]), hi) if x else np.minimum(hi, cols[k - 1])
        if k == cells - 1:
            keep = rest <= hi
            return np.array([c[keep] for c in cols] + [rest[keep]], dtype=np.int8)
        # the most the later cells can hold: each block's last count per cell for the blocks before y
        # (rows after x) and after y (rows x on), and the cell's own count v per cell of block y
        # and, in row 0, of the blocks not begun. With v they must hold all of rest
        below = nx - 1 - x
        held = sum(below * c for c in cols[k - y : k]) + sum((below + 1) * c for c in cols[k - ny + 1 : x * ny])
        weight = below + (0 if x else nx * (ny - 1 - y))
        lo = np.maximum(0, (rest - held + weight) // (weight + 1))
        widths = np.maximum(hi - lo + 1, 0)
        starts = widths.cumsum() - widths
        v = np.arange(int(starts[-1] + widths[-1])) - (starts - lo).repeat(widths)
        cols, tied = [c.repeat(widths) for c in cols], [t if t is None else t.repeat(widths) for t in tied]
        rest = rest.repeat(widths) - v
        if y:
            tied[y] = (v == cols[k - 1]) if not x else tied[y] & (v == cols[k - 1])
        cols.append(v)


def _images(points: np.ndarray, nx: int, ny: int) -> tuple[np.ndarray, np.ndarray]:
    """Every point of the orbits of the canonical `points`, in enumeration order, and each one's column of `points`.

    An orbit's points are its distinct orders of the blocks and, in each
    block, the distinct orders of its rows. They are built one choice at a
    time: first which block of the canonical point goes to block 0, 1, ...,
    then which of its rows goes to row 0, 1, ... of each block. Of equal
    items (rows, or blocks) only the first not yet taken may be taken, so
    no point comes twice and no table of the symmetries is built; the last
    item is the one left. A lexicographic sort over the cells puts the
    points in enumeration order.
    """
    n = points.shape[1]
    grid = points.reshape(nx, ny, n)
    # bit t set: item t equals item t - 1, for each block's rows (ny, n) and for the blocks (n,)
    row_same = ((grid[1:] == grid[:-1]) << np.arange(1, nx)[:, None, None]).sum(axis=0)
    block_same = ((grid[:, 1:] == grid[:, :-1]).all(axis=0) << np.arange(1, ny)[:, None]).sum(axis=0)
    # taken[j]: the block that becomes block j; taken[ny + j * nx + x]: the count of cell (x, j)
    orbit, taken = np.arange(n), []
    for j in range(-1, ny):
        k = ny if j < 0 else nx
        # one bit per item taken
        used = np.zeros(len(orbit), dtype=np.intp)
        for i in range(k):
            if i < k - 1:
                same = block_same[orbit] if j < 0 else row_same[taken[j], orbit]
                part, t = ((~used & (~same | used << 1))[:, None] >> np.arange(k) & 1).nonzero()
                orbit, used, taken = orbit[part], used[part] | 1 << t, [c[part] for c in taken]
            else:
                t = np.frexp((1 << k) - 1 - used)[1] - 1
            taken.append(t if j < 0 else points[t * ny + taken[j], orbit])
    rows = np.array([taken[ny + j * nx + x] for x in range(nx) for j in range(ny)])
    order = np.lexsort(rows[::-1])
    return rows.take(order, axis=1), orbit[order]


def _distances(candidates: np.ndarray, own: np.ndarray, orders: list[tuple[int, ...]]) -> np.ndarray:
    """The (a's, b's) array of `_scan`'s distances, each a of `own` to each b of `candidates`, over the block `orders`.

    Both hold rows laid out as `_scan`'s columns, own shaped (rows, a's, 1).
    The temporaries of one block of a's are freed when this returns, before
    the next block's are made.
    """
    blocks = len(orders[0])
    # pairs[j, k]: the L1 distances of a's block j to b's block k, summed row by row. Counts are
    # at most 101: a difference fits int8, and every distance (at most 202) uint8
    pairs = {}
    for j, k in itertools.product(range(blocks), repeat=2):
        diffs = (candidates[x * blocks + k] - own[x * blocks + j] for x in range(len(candidates) // blocks))
        pairs[j, k] = functools.reduce(operator.iadd, (np.abs(t, out=t).view(np.uint8) for t in diffs))
    sums = (sum((pairs[j, o[j]] for j in range(1, blocks)), pairs[0, o[0]]) for o in orders)
    return functools.reduce(np.minimum, sums)


def _scan(
    ranks: np.ndarray,
    h_sorted: np.ndarray,
    columns: np.ndarray,
    max_l1: int,
    best: float,
    margin: float,
    hit=None,
    blocks: int = 1,
):
    """The pair scan over the points of `ranks`, ascending, from `best`, pruned against best - margin.

    For each such a in turn, the scan takes the last feasible b among those
    with h[b] > h[a] + best - margin and records its gap h[b] - h[a]; a gap
    above best becomes best, with (a, b) as its pair. It stops once no b can
    beat best - margin. The rows of `columns` fall into `blocks` blocks,
    block j holding the rows j, j + blocks, ...; b is feasible for a when
    the least, over the orderings pi of the blocks, of the sum over j of
    the L1 distance of a's block j to b's block pi(j) is at most max_l1.
    One block (one ordering) is the plain L1 distance. A block of
    consecutive a of `ranks` has the distances of each pair of blocks to
    all candidates summed row by row, then summed per ordering. If `hit` is
    given (one flag per position of `columns`), every feasible b of a
    block's candidates is flagged there too: a superset of each a's feasible
    b with h[b] > h[a] + best - margin. Returns best, the pair's ranks and
    the recorded gaps (-inf where none was recorded).
    """
    n = len(h_sorted)
    top_h = float(h_sorted[-1])
    low = high = 0
    gaps = np.full(len(ranks), -np.inf)
    orders = list(itertools.permutations(range(blocks)))
    size = max(_SCAN_BLOCK, _SCAN_ENTRIES // n)
    for r0 in range(0, len(ranks), size):
        block = ranks[r0 : r0 + size]
        h_block = h_sorted[block].tolist()
        cut = best - margin
        if top_h - h_block[0] <= cut:
            break
        # every a of the block scans the first a's candidates b >= lo; those below an a's own
        # candidates have h[b] <= h[a] + cut and are skipped below, so the result is exact
        lo = int(np.searchsorted(h_sorted, h_block[0] + cut, side="right"))
        if lo >= n:
            continue
        # position n - 1 - a of a row holds the point of rank a
        f = _distances(columns[:, : n - lo], columns[:, n - 1 - block, None], orders) <= max_l1
        if hit is not None:
            hit[: n - lo] |= f.any(axis=0)
        # the first feasible position is the last feasible b
        first = np.argmax(f, axis=1)
        for i, h_a in enumerate(h_block):
            if top_h - h_a <= cut:
                break
            if not f[i, first[i]]:
                continue
            b = n - 1 - int(first[i])
            h_b = float(h_sorted[b])
            if h_b <= h_a + cut:
                continue
            gaps[r0 + i] = gap = h_b - h_a
            if gap > best:
                best, low, high = gap, int(block[i]), b
                cut = best - margin
    return best, low, high, gaps


def _ranked(rows: np.ndarray, ny: int, steps: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The entropies of the points of `rows`, ascending, their rows by descending entropy, and the stable order.

    Position n - 1 - a of each returned row holds the point of rank a, the
    layout `_scan` reads. Ties keep the order of `rows`.
    """
    h = _entropies(rows, ny, steps)
    order = np.argsort(h, kind="stable")
    # take, not fancy indexing, keeps the rows contiguous
    return h[order], rows.take(order[::-1], axis=1), order


def grid_search_max_gap(nx: int, ny: int, eps: float, steps_per_dim: int) -> GridSearchResult:
    """Exhaustively maximize the equivocation gap over grid pairs within TV <= eps.

    Every grid point is a composition of steps_per_dim into nx*ny cells
    scaled to the simplex, and the points are ordered lexicographically
    (the enumeration order of `_compositions`). The value of a point a is
    its largest h[b] - h[a] over the feasible b. Feasibility is decided in
    exact integer arithmetic (L1 distance of the counts), so no pair is
    lost to float noise. The search returns the same bits as a full scan
    that sorts every point by equivocation (stably, in enumeration order)
    and, for each a in ascending order, takes the last feasible b among
    those with h[b] > h[a] + best, keeps a strictly greater gap, and stops
    once no b can beat the best gap; it visits far fewer points, in two
    passes of that scan. Reordering the blocks, or the rows inside a block,
    of both grids of a pair keeps their equivocations and their distance,
    so a point's value is its whole orbit's up to rounding, which the
    margin delta = _ORBIT_MARGIN bounds with room to spare. Each orbit has
    one canonical point (rows non-increasing in each block, blocks in
    non-increasing lexicographic order), and `_orbit_points` generates
    these directly, in enumeration order, so the search builds neither
    every point nor a table of the symmetries.

    Pass 1 sorts and scans only the canonical points against each other at
    orbit distance: the least L1 distance from a to an image g.b of b.
    Canonical rows are sorted the same way in every block, and for one
    pairing of the blocks the sorted matching of their rows minimises the
    sum of the row distances, so that least is the least, over the ny!
    pairings of the blocks, of the summed L1 distances of the paired
    blocks: exact, in integers. A canonical point's pass-1 value is thus
    within 3e-14 of each of its orbit's values, and pass 1, pruning against
    best - 2*delta, ends with a best within 3e-14 of the maximum. A point
    outside the orbits whose canonical value is within delta of that best
    has a value below best - delta + 3e-14, so the kept orbits hold every
    point that can reach or tie the maximum.

    Pass 2 scans all their points with the full scan's exact rule, but
    only against the candidates of a subset: the kept orbits and the orbits
    of their partners, the canonical b' within orbit distance of a kept
    canonical c with h[b'] > h[c] + best - 3*delta, which one more scan of
    the kept canonical points flags. A symmetry g maps the feasible points
    of c onto those of a = g.c and moves h by under 3e-14, so every b the
    rule can take for a (h[b] > h[a] + best - 2*delta) lies in a partner's
    orbit. `_images` expands just these orbits into their points, in
    enumeration order, each with its orbit, and their entropies have the
    bits they have among all points, so the subset's stable sort is its
    subsequence of the full sort, ties included. So each a's last feasible
    b over the subset is the one it has over all points, and pass 2
    returns the full scan's maximum and argmax pair. Past 900 kept orbits,
    pass 2 sorts every point and scans each against all points instead;
    that scan's work grows with the square of the points, so past
    _FALLBACK_POINTS = 80 000 points it is refused with a ValidationError
    after pass 1 (every search whose eps is below 1/(2*steps_per_dim), where
    only b = a is feasible and every orbit ties at 0, takes that path).

    The search prunes with its own best-so-far gap only; the bound is
    computed once for the report and never steers the search. Guarded to
    desk scale: nx*ny <= 8, steps_per_dim <= 101, and at most 2 000 000
    grid points, which bounds the orbits and so the search's memory.
    """
    nx, ny, steps = _check_int(nx, "nx", 2), _check_int(ny, "ny", 1), _check_int(steps_per_dim, "steps_per_dim")
    cells = nx * ny
    if cells > DESK_SCALE_CELLS:
        raise ValidationError(f"nx*ny = {cells} exceeds the desk-scale guard {DESK_SCALE_CELLS}")
    if not 1 <= steps <= DESK_SCALE_STEPS:
        raise ValidationError(f"steps_per_dim must be in 1..{DESK_SCALE_STEPS}, got {steps}")
    points = math.comb(steps + cells - 1, cells - 1)
    if points > DESK_SCALE_POINTS:
        raise ValidationError(
            f"{points} grid points (nx*ny = {cells}, steps_per_dim = {steps}) exceed the desk-scale guard {DESK_SCALE_POINTS}"
        )
    eps = _check_radius(eps, nx, "epsilon")
    max_l1 = int(math.floor(2.0 * eps * steps + 1e-9))

    # pass 1: the canonical point of each orbit, against the canonical points at orbit distance,
    # pruned with room for the orbits' rounding
    h_sorted, columns, _ = _ranked(_orbit_points(steps, nx, ny), ny, steps)
    n = len(h_sorted)
    best, _, _, gaps = _scan(np.arange(n), h_sorted, columns, max_l1, -1.0, 2.0 * _ORBIT_MARGIN, blocks=ny)
    # pass 2: every point of the kept orbits, by the full scan's rule, from below all their values.
    # Whether that rule takes a point depends on the running best only within 1e-15 below the
    # point's value. A kept orbit's values lie within 3e-14 of its canonical gap, all others
    # below best - delta + 3e-14, and the maximum above best - 3e-14. While the kept orbits leave
    # a stretch of (best - delta + 3e-14, best - 3e-14) free of values (each covers at most 1e-13
    # of it), this pass and the full scan both take the first point above that stretch and agree
    # from there.
    kept = np.flatnonzero(gaps >= best - _ORBIT_MARGIN)
    if len(kept) <= _ORBIT_KEEP_MAX:
        # its candidates: the kept orbits and their partners' orbits, the partners flagged by a
        # scan of the kept canonical points (the docstring says why no b the rule takes is lost)
        hit = np.zeros(n, dtype=bool)
        _scan(kept, h_sorted, columns, max_l1, best, 3.0 * _ORBIT_MARGIN, hit, blocks=ny)
        # the kept orbits too; hit flags positions, in descending rank
        hit[n - 1 - kept] = True
        rows, orbit = _images(columns[:, hit], nx, ny)
        h_sorted, columns, order = _ranked(rows, ny, steps)
        kept_hit = gaps[::-1][hit] >= best - _ORBIT_MARGIN
        ranks, start = np.flatnonzero(kept_hit[orbit[order]]), best - 2.0 * _ORBIT_MARGIN
    else:
        # too many near-ties for that argument: every point, from the full scan's start
        if points > _FALLBACK_POINTS:
            raise ValidationError(
                f"{len(kept)} orbits (past {_ORBIT_KEEP_MAX}) come within {_ORBIT_MARGIN} of the best gap, so the search "
                f"would scan all {points} grid points against each other, past the guard {_FALLBACK_POINTS}"
            )
        h_sorted, columns, _ = _ranked(_compositions(steps, cells), ny, steps)
        ranks, start = np.arange(len(h_sorted)), -1.0
    best, best_low, best_high, _ = _scan(ranks, h_sorted, columns, max_l1, start, 0.0)

    def _point(idx: int) -> JointDistribution:
        # position -1 - idx, the last but idx, holds the point of rank idx
        return JointDistribution(columns[:, -1 - idx].reshape(nx, ny) / float(steps))

    argmax = DistributionPair(p=_point(best_high), q=_point(best_low))
    return GridSearchResult(max_gap=best, bound=continuity_bound(eps, nx).value, argmax_pair=argmax)
