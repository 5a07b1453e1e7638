"""Desk-scale empirical verification of the bound and the walk.

Two independent routes are provided: seeded random campaigns
(`verify_trials`) that check every sampled pair against the bound and run
the invariant-checked walk on it, and an exhaustive simplex grid search
(`grid_search_max_gap`) that serves as the brute-force oracle for
tightness. The grid search never consults the bound formula while
searching; it only reports it next to the measured maximum.

Campaigns. A campaign runs in batches that fill one range of the walk's
blocks, 2^14 grid cells (one trial per batch on larger grids, whose walk
takes several ranges), and draws its trials in windows of W consecutive
trials, W the largest power of two up to 256 that fits in a batch, each
batch cut down to whole windows. Window w of the campaign at seed s draws
from its own PCG64 streams, the children of SeedSequence([s, w]):
standard exponentials for the grids and, at an eps > 0, uniform keys for
the perturbation, each one row-major call over the window (see _draw). A
Dirichlet-1 grid is a row of exponentials times 1/their left-to-right
sum, numpy dirichlet's own arithmetic (see _dirichlet), and the
perturbation is one pass over the window's rows (see _perturb), of which
perturb_within_tv is the one-row case. A batch's pairs, side by side,
run through one pass of the walk's kernel and ledger, which keeps the
running totals per trial; each trial's verdict reads the gap and tv of
the walk's initial measurement of it and the bound the walk's final
check computed at that tv, so each pair is measured once and its bound
computed once. The drawn grids are not JointDistributions: the walk
certifies their entries and masses at its reorder and average
measurements, and only the worst pair is built, once, from copies,
without validating it again. If a batch's walk fails, its trials are
walked again one at a time, without a trace.

Search. Grid points are held as one contiguous int8 row per cell (counts
are at most 101), and only the canonical point of each block-symmetry
orbit is generated, cell by cell in lexicographic order (see
_orbit_points): no table of every point or of the symmetries is built,
and no orbit is named by a number, so no integer width limits the
search. A point's equivocation is computed block by block from its
integer counts, as the walk measures a block, with the block's mass
looked up exactly by its summed count, so a block whose mass sits in one
cell adds exactly 0.0 (see _entropies). The pair scan (see _scan) sums
the distances of a block of points to all candidates row by row, in int8
differences and uint8 distances (at most 202), in new arrays for each
block, and its maximum has the bits of a pair-at-a-time scan of every
point. With eps below 1/(2*steps_per_dim) only b = a is feasible, and
the search returns 0.0 in milliseconds: (4, 2, 1e-300, 20) scans the
3 354 canonical points of its 888 030 points.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .bounds import _check_radius, _holds, continuity_bound
from .core import (
    DistributionPair,
    JointDistribution,
    ValidationError,
    _as_prob,
    _check_grid_size,
    _check_int,
    _freeze,
    _in_range,
    _xlog2x_arr,
)
from .walk import InvariantViolation, _range_blocks, _walk

# the pair scan's ny! block pairings and a point cap that does not bound the orbits' work hold it here
DESK_SCALE_CELLS = 8
DESK_SCALE_STEPS = 101
# cap on the grid points C(steps + cells - 1, cells - 1). The search builds only the canonical
# points, so its memory grows with the orbits: under tracemalloc, 4.5 MB at (3,2,0.3,44) (1.9 M
# points, 35 858 orbits), 6.0 MB at (2,3,0.2,44) (46 956 orbits), 0.9 MB at (4,2,0.3,22) (1.56 M
# points of eight cells, 5 343 orbits)
DESK_SCALE_POINTS = 2_000_000
# consecutive a (ascending entropy) whose distances the pair scan computes in one pass: at least
# _SCAN_BLOCK, and more while their distances to all candidates number at most _SCAN_ENTRIES
_SCAN_BLOCK = 8
_SCAN_ENTRIES = 2**15


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


def _dirichlet(e: np.ndarray) -> np.ndarray:
    """Standard exponentials e made Dirichlet-1 draws, one per row along the last axis: scaled in place and returned.

    Exponentials divided by their sum are uniform on the simplex. numpy's
    dirichlet at alpha = 1 draws the same exponentials, in the same order,
    and multiplies them by 1.0 / their left-to-right sum, so a row that
    standard_exponential fills has its bytes, and leaves the stream where
    it leaves it.
    """
    e *= 1.0 / np.add.accumulate(e, axis=-1)[..., -1:]
    return e


def _rng(seed) -> np.random.Generator:
    """A numpy Generator as it is, or a new one from an int seed >= 0 (see core._check_int)."""
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(_check_int(seed, "seed", 0))


def sample_joint(nx: int, ny: int, seed) -> JointDistribution:
    """Draw a joint grid from the flat (Dirichlet-1) measure on the simplex.

    The grid has the bytes of `rng.dirichlet(np.ones(nx * ny))` and leaves
    the generator where that call leaves it (see _dirichlet). `seed` is an int
    >= 0 (deterministic: same seed, same draw) or a numpy Generator for
    callers managing their own stream. A grid of one row (nx = 1) is
    admitted, while verify_trials refuses nx = 1: the bound needs nx >= 2.
    """
    nx, ny = _check_int(nx, "nx"), _check_int(ny, "ny")
    if nx < 1 or ny < 1:
        raise ValidationError(f"nx and ny must be >= 1, got ({nx}, {ny})")
    _check_grid_size(nx, ny)
    return JointDistribution(_dirichlet(_rng(seed).standard_exponential(nx * ny)).reshape(nx, ny))


def _before(v: np.ndarray) -> np.ndarray:
    """Each entry's sum of the entries before it in its row, added left to right (0.0 for the first)."""
    out = np.zeros_like(v)
    np.cumsum(v[:, :-1], axis=1, out=out[:, 1:])
    return out


def _perturb(rows: np.ndarray, eps: float, keys: np.ndarray, weights: np.ndarray) -> None:
    """perturb_within_tv on each row of `rows` (trials, cells >= 2), in place; eps > 0 is a probability already checked.

    A row's draws are its keys (2, cells + 1), uniforms on [0, 1), and its
    weights (cells), standard exponentials. The positive cells, sorted by
    keys[0], are the donor order, and its first 1 + floor(keys[0, -1] *
    most) are the donors (most: the positive cells, or cells - 1 if all are
    positive). The other cells, sorted by keys[1], are the recipient order,
    and its first 1 + floor(keys[1, -1] * their number) are the recipients.
    The moved mass is target = min(eps, the donors' mass, added in donor
    order); each donor in turn gives min(its value, what target leaves
    after the donors before it). Recipient k takes weights[k] of the mass,
    a Dirichlet-1 draw in the form of _dirichlet scaled by target, and the
    last recipient the exact remainder, so the added mass is target. Every
    sum is added left to right, so a row's bytes do not depend on the
    other rows.
    """
    trials, n = rows.shape
    row, rank = np.arange(trials)[:, None], np.arange(n)
    positive = rows > 0.0
    most = np.minimum(np.count_nonzero(positive, axis=1), n - 1)
    donors = (keys[:, 0, n] * most).astype(np.intp) + 1
    # keys lie in [0, 1), so a key of 2.0 sorts a cell past every candidate
    order = np.argsort(np.where(positive, keys[:, 0, :n], 2.0), axis=1, kind="stable")
    donor = rank < donors[:, None]
    held = rows[row, order]
    v = np.where(donor, held, 0.0)
    before = _before(v)
    target = np.minimum(eps, before[:, -1] + v[:, -1])
    rows[row, order] = held - np.minimum(v, np.maximum(target[:, None] - before, 0.0))

    is_donor = np.empty_like(donor)
    is_donor[row, order] = donor
    order = np.argsort(np.where(is_donor, 2.0, keys[:, 1, :n]), axis=1, kind="stable")
    last = (keys[:, 1, n] * (n - donors)).astype(np.intp)
    adds = _dirichlet(np.where(rank <= last[:, None], weights, 0.0))
    adds *= target[:, None]
    # the last recipient takes the exact remainder, so the added mass is target
    adds[row[:, 0], last] = np.maximum(0.0, target - _before(adds)[row[:, 0], last])
    rows[row, order] += adds


def perturb_within_tv(p: JointDistribution, eps: float, seed) -> JointDistribution:
    """Move mass eps away from p: returns q with tv(p, q) = min(eps, movable).

    Donor cells are chosen at random among the positive entries of p,
    recipients at random among the remaining cells; mass is taken from the
    donors (capped by their current values) and spread over the recipients
    with random weights. `movable` is the chosen donors' total mass, so the
    achieved displacement never exceeds eps (within 1e-12) and is exactly
    eps whenever the donors carry enough. `seed` is an int >= 0
    (deterministic per seed) or a numpy Generator. The draws are the
    generator's random((1, 2, cells + 1)), the keys, then its
    standard_exponential((1, cells)), the weights, and this is the one-row
    case of the campaigns' perturbation (see _perturb). At eps = 0, or on
    one cell, q is p and nothing is drawn.
    """
    eps = _as_prob(eps, "eps")
    rng = _rng(seed)
    rows = p.probs.reshape(1, -1).copy()
    n = rows.shape[1]
    if eps > 0.0 and n > 1:
        _perturb(rows, eps, rng.random((1, 2, n + 1)), rng.standard_exponential((1, n)))
    return JointDistribution(rows.reshape(p.probs.shape))


def _ratio(gap, bound):
    """gap / bound, elementwise; where the bound is 0, 0.0 for a gap of at most 1e-12 and inf otherwise.

    Arrays give an array, floats a float (numpy's float64).
    """
    # [()] takes a 0-d result's scalar and leaves an array as it is
    return np.divide(gap, bound, out=np.where(gap <= 1e-12, 0.0, np.inf), where=np.greater(bound, 0.0))[()]


# most trials a draw window holds (see verify_trials)
_WINDOW = 256


def _draw(draws: np.ndarray, seed: int, w: int, eps: float | None) -> None:
    """Draw the first len(draws) trials of window w of the campaign at `seed` into `draws`, shape (trials, 2, nx*ny), in place.

    The window's streams are the children of SeedSequence([seed, w]), a
    PCG64 each: the first fills the array with standard exponentials, a
    trial's row p then q, and the second (at an eps > 0) draws the
    perturbation's keys, one (trials, 2, nx*ny + 1) array. Each is one
    row-major call, so a window's first m trials are the same whatever m
    is. Without an eps both grids are made Dirichlet-1 draws (see
    _dirichlet); at an eps p is, and q's exponentials are the perturbation's
    weights before q becomes p perturbed (see _perturb). The generators die
    when this returns.
    """
    streams = np.random.SeedSequence([seed, w]).spawn(2 if eps else 1)
    grids, *keys = (np.random.Generator(np.random.PCG64(s)) for s in streams)
    grids.standard_exponential(out=draws)
    if eps is None:
        _dirichlet(draws)
        return
    _dirichlet(draws[:, 0])
    weights = draws[:, 1].copy()
    draws[:, 1] = draws[:, 0]
    if eps:
        _perturb(draws[:, 1], eps, keys[0].random((len(draws), 2, draws.shape[2] + 1)), weights)


def verify_trials(nx: int, ny: int, trials: int, seed: int, eps: float | None = None) -> TrialReport:
    """Run a seeded campaign of independent bound checks plus walk certificates.

    Each trial draws p, then q: an independent sample when eps is None, a
    TV-eps perturbation of p otherwise, with the arithmetic of sample_joint
    and perturb_within_tv. The trials are drawn in windows of W consecutive
    trials, W the largest power of two up to 256 that fits in a batch
    (below), so W depends on the shape alone. Window w draws from its own
    streams, the children of SeedSequence([seed, w]), each array one
    row-major call over the window's trials (see _draw), so trial t's bytes
    depend on seed and t alone, not on how many trials run or how they are
    batched. Campaigns at different seeds share no trial, and results do
    not depend on execution order. The trials run in batches that fill one
    range of the walk's blocks, 2^14 grid cells (one trial per batch on
    larger grids, whose walk takes several ranges), cut down to whole
    windows. A batch is drawn straight into one (trials, 2, nx*ny) array, a
    window at a time. The array, as a (2, trials, nx, ny) stack, is
    certified by one pass of the invariant-checked walk. Each trial is then
    checked against the bound at the gap and tv of the walk's initial
    measurement of it, which are
    check_bound's, bit for bit, with the bound the walk's final check
    computed there (its chain cap, `_bound` at that tv) and check_bound's
    rule (see bounds._holds), over the whole batch at once; a tv that
    check_bound would refuse is refused with its message. The drawn grids
    are not JointDistributions: what that validation checks (entries finite
    and in range, each grid's mass within 1e-9 of 1) the walk certifies at
    its reorder and average measurements, before anything is reported. Only
    the worst pair (the first trial of the largest ratio) becomes
    JointDistributions, at the end, copied and not validated again. If a
    batch's walk fails, its trials are walked again one at a time, and the
    first failing trial's violation propagates, with the seed and that
    trial's number attached (if none fails on its own, the batch's
    violation, with its trials' range).
    """
    nx, ny = _check_int(nx, "nx", 2), _check_int(ny, "ny", 1)
    trials, seed = _check_int(trials, "trials", 1), _check_int(seed, "seed", 0)
    if eps is not None:
        eps = _as_prob(eps, "eps")
    _check_grid_size(nx, ny)

    violations, max_ratio, worst = 0, 0.0, None
    blocks = max(1, _range_blocks(nx) // ny)
    window = min(_WINDOW, 1 << (blocks.bit_length() - 1))
    # whole windows, so every batch starts at a window's first trial
    size = min(trials, blocks - blocks % window)
    for t0 in range(0, trials, size):
        t1 = min(t0 + size, trials)
        draws = np.empty((t1 - t0, 2, nx * ny))
        for a in range(t0, t1, window):
            _draw(draws[a - t0 : a - t0 + window], seed, a // window, eps)
        grids = draws.reshape(t1 - t0, 2, nx, ny).swapaxes(0, 1)
        try:
            tb = _walk(grids)
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
        # each chain cap is _verdict's bound at its trial's tv (a tv is never negative); a tv _verdict
        # refuses (not finite, or past 1 + 1e-9) is refused with its message, at the first such trial
        if not _in_range(np.array(tb.initial_tv), 0.0):
            for tv in tb.initial_tv:
                _as_prob(tv, "epsilon")
        gap, bound = np.array(tb.initial_gap), np.array(tb.bound)
        violations += int(np.count_nonzero(~_holds(bound - gap)))
        ratio = _ratio(gap, bound)
        b = int(ratio.argmax())  # the first of the largest
        if worst is None or ratio[b] > max_ratio:
            # a view, which keeps its batch alive until the report is built
            max_ratio, worst = float(ratio[b]), grids[:, b]
    return TrialReport(
        trials=trials,
        violations=violations,
        max_gap_over_bound_ratio=max_ratio,
        # certified by the walk, so copied, not validated again
        worst_pair=DistributionPair(_freeze(worst[0].copy()), _freeze(worst[1].copy())),
        seed=seed,
        nx=nx,
        ny=ny,
    )


def _compositions(total: int, parts: int) -> np.ndarray:
    """All orderings of `total` units into `parts` nonnegative cells: one int8 row per cell, one column per ordering.

    Stars and bars: each choice of parts - 1 bar positions among total +
    parts - 1 slots is one ordering, its cells the runs of units between
    the bars. itertools gives the choices in lexicographic order, and so the
    orderings in lexicographic order of (c0, c1, ...), the order the
    search's canonical points follow. Counts are at most DESK_SCALE_STEPS =
    101, so int8 holds every cell. The search builds no point this way: it
    is the reference its canonical points are tested against.
    """
    slots = total + parts - 1
    bars = np.array(list(itertools.combinations(range(slots), parts - 1)), dtype=np.intp)
    edges = np.pad(bars.T, ((1, 1), (0, 0)), constant_values=((-1, slots), (0, 0)))
    return np.ascontiguousarray((np.diff(edges, axis=0) - 1).astype(np.int8))


def _entropies(rows: np.ndarray, ny: int, steps: int) -> np.ndarray:
    """H(X|Y) of each grid point, one column of `rows`, whose row x*ny + y counts cell (x, y) out of steps."""
    # per block, as core._block_terms measures one: x*log2(x) of the block's mass minus its cells'
    # terms added down the rows, and the blocks' terms added in order. Cell terms and block masses are
    # looked up by their integer counts, so a block whose mass sits in one cell adds exactly 0.0.
    # Every step is elementwise, so a point's entropy has the same bits whichever other points are
    # computed with it.
    table = _xlog2x_arr(np.arange(steps + 1) / float(steps))
    h = np.zeros(rows.shape[1])
    for y in range(ny):
        block = rows[y::ny]
        cells = table.take(block[0])
        for row in block[1:]:
            cells += table.take(row)
        h += table.take(block.sum(axis=0)) - cells
    return h


def _orbit_points(total: int, nx: int, ny: int) -> np.ndarray:
    """The canonical point of each block-symmetry orbit of the grid: one int8 row per cell, one column per orbit.

    A canonical point has each block's rows non-increasing and its blocks
    in non-increasing lexicographic order; every orbit holds exactly one.
    They are built one cell at a time in the cell order x*ny + y, each
    partial point extended by every count its next cell may take, in
    increasing order, so they come out in lexicographic order, the order of
    their points among all compositions. A cell's count is at
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


def _scan(h_sorted: np.ndarray, columns: np.ndarray, max_l1: int, blocks: int) -> tuple[float, int, int]:
    """The pair scan over every point, ascending, from a best of -1.0: the largest feasible gap and the pair's ranks.

    For each a in turn, the scan takes the last feasible b among those
    with h[b] > h[a] + best and its gap h[b] - h[a]; a gap above best
    becomes best, with (a, b) as its pair. It stops once no b can beat
    best. The rows of `columns` fall into `blocks` blocks, block j holding
    the rows j, j + blocks, ...; b is feasible for a when the least, over
    the orderings pi of the blocks, of the sum over j of the L1 distance of
    a's block j to b's block pi(j) is at most max_l1. One block (one
    ordering) is the plain L1 distance. A block of consecutive a has the
    distances of each pair of blocks to all candidates summed row by row,
    then summed per ordering. Returns best, a's rank and b's rank.
    """
    n = len(h_sorted)
    top_h = float(h_sorted[-1])
    best, low, high = -1.0, 0, 0
    orders = list(itertools.permutations(range(blocks)))
    size = max(_SCAN_BLOCK, _SCAN_ENTRIES // n)
    for r0 in range(0, n, size):
        block = np.arange(r0, min(r0 + size, n))
        h_block = h_sorted[block].tolist()
        if top_h - h_block[0] <= best:
            break
        # every a of the block scans the first a's candidates b >= lo; those below an a's own
        # candidates have h[b] <= h[a] + best and are skipped below, so the result is exact
        lo = int(np.searchsorted(h_sorted, h_block[0] + best, side="right"))
        if lo >= n:
            continue
        # position n - 1 - a of a row holds the point of rank a
        f = _distances(columns[:, : n - lo], columns[:, n - 1 - block, None], orders) <= max_l1
        # the first feasible position is the last feasible b
        first = np.argmax(f, axis=1)
        for i, h_a in enumerate(h_block):
            if top_h - h_a <= best:
                break
            if not f[i, first[i]]:
                continue
            b = n - 1 - int(first[i])
            h_b = float(h_sorted[b])
            if h_b <= h_a + best:
                continue
            if h_b - h_a > best:
                best, low, high = h_b - h_a, r0 + i, b
    return best, low, high


def grid_search_max_gap(nx: int, ny: int, eps: float, steps_per_dim: int) -> GridSearchResult:
    """Exhaustively maximize the equivocation gap over grid pairs within TV <= eps.

    Every grid point is a composition of steps_per_dim into nx*ny cells
    scaled to the simplex. Reordering the blocks, or the rows inside a
    block, of both grids of a pair keeps their equivocations and their
    distance. Each such orbit has one canonical point (rows non-increasing
    in each block, blocks in non-increasing lexicographic order), which
    `_orbit_points` generates directly, in lexicographic order, so the
    search builds neither every point nor a table of the symmetries. The
    entropy h of a point is its canonical point's (`_entropies`): orbit-mates
    tie exactly, where their own float sums could differ by an ulp or two
    (8.9e-16 at most, measured). Feasibility is decided in exact integer
    arithmetic (L1 distance of the counts), so no pair is lost to float
    noise. The search returns the largest h[b] - h[a] over the feasible
    pairs of points, with the bits of a full scan over every point.

    It sorts the canonical points by h (stably, in lexicographic order) and
    scans them against each other at orbit distance: the least L1 distance
    from a to an image g.b of b. Canonical rows are sorted the same way in
    every block, and for one pairing of the blocks the sorted matching of
    their rows minimises the sum of the row distances, so that least is the
    least, over the ny! pairings of the blocks, of the summed L1 distances
    of the paired blocks: exact, in integers. For each a in ascending order
    the scan takes the last feasible b among those with h[b] > h[a] + best,
    keeps a strictly greater gap, and stops once no b can beat the best gap.
    Orbit-mates share h and their sets of feasible orbits, so this is the
    maximum over all pairs of points. The argmax pair's q is a's canonical
    point and its p is b's with its blocks reordered by the pairing that
    attains the orbit distance, so their TV is at most eps; their own
    `conditional_entropy` values may differ from max_gap by a few ulps.

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

    rows = _orbit_points(steps, nx, ny)
    h = _entropies(rows, ny, steps)
    order = np.argsort(h, kind="stable")
    # position n - 1 - a of each row of columns holds the point of rank a, the layout _scan reads;
    # ties keep the order of rows, and take, not fancy indexing, keeps the rows contiguous
    columns = rows.take(order[::-1], axis=1)
    best, low, high = _scan(h[order], columns, max_l1, ny)
    # position -1 - rank holds the canonical point of that rank; b's blocks are paired with a's as
    # the orbit distance pairs them, and the rows of paired blocks, both sorted, match in order
    q, b = (columns[:, -1 - r].reshape(nx, ny) for r in (low, high))
    pairing = min(itertools.permutations(range(ny)), key=lambda o: int(np.abs(b[:, o] - q).sum()))
    argmax = DistributionPair(p=JointDistribution(b[:, pairing] / float(steps)), q=JointDistribution(q / float(steps)))
    return GridSearchResult(max_gap=best, bound=continuity_bound(eps, nx).value, argmax_pair=argmax)
