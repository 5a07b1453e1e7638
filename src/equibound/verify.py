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

# `_row_sum` has numpy's bits for sums of up to 8 terms
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


def _perturb(flat: np.ndarray, eps: float, rng: np.random.Generator) -> None:
    """perturb_within_tv on the flat grid `flat`, in place; eps is a probability already checked.

    The recipients' weights are one Dirichlet-1 draw in the exponential form
    of _dirichlet, numpy dirichlet's bytes, scaled by the mass moved.
    """
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
    adds = target * _dirichlet(rng.standard_exponential(len(recipients)))
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
    flat = p.probs.ravel().copy()
    _perturb(flat, eps, rng)
    return JointDistribution(flat.reshape(p.probs.shape))


def _ratio(gap, bound):
    """gap / bound, elementwise; where the bound is 0, 0.0 for a gap of at most 1e-12 and inf otherwise.

    Arrays give an array, floats a float (numpy's float64).
    """
    # [()] takes a 0-d result's scalar and leaves an array as it is
    return np.divide(gap, bound, out=np.where(gap <= 1e-12, 0.0, np.inf), where=np.greater(bound, 0.0))[()]


# most trials a campaign draws at once, and so most generators alive at once; a divisor of 2**32,
# at whose multiples the draw windows are cut
_DRAW_TRIALS = 256


def _words(n: int) -> bytes:
    # n's little-endian 32-bit words, at least one: the words numpy's SeedSequence takes an int >= 0 to
    return n.to_bytes(4 * max(1, (n.bit_length() + 31) // 32), "little")


def _seed_rows(seed: int, t0: int, t1: int) -> np.ndarray:
    """The uint32 rows SeedSequence makes of [seed, t] for t = t0 ... t1 - 1 (seed's words, then t's), as one (trials, words) array.

    The trials must share every word of t but the lowest, as a draw window's
    do (see verify_trials): the rows are t0's, with each trial's offset
    added to t's lowest word. default_rng of a row gives the stream of
    default_rng([seed, t]).
    """
    head = _words(seed)
    rows = np.frombuffer(head + _words(t0), dtype="<u4")[None].repeat(t1 - t0, axis=0)
    rows[:, len(head) // 4] += np.arange(t1 - t0, dtype=np.uint32)
    return rows


# numpy's SeedSequence, its port of O'Neill's seed_seq_fe: the pool's size, the hash constants and the shift
_POOL = 4
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R, _XSHIFT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), 16


def _hash_constants(init: int, mult: int, n: int) -> np.ndarray:
    # init * mult**k mod 2**32 for k = 0 ... n - 1, as uint32: masked Python ints, which do not overflow
    return np.array([init * pow(mult, k, 2**32) & 0xFFFFFFFF for k in range(n)], dtype=np.uint32)


# generate_state's constants, a column each: the pool, read twice, hashed into 8 words
_STATE_HASH = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL + 1)[:, None]


@functools.cache
def _mix_constants(words: int):
    """The xor and multiply constants of mix_entropy's hash calls on rows of `words` words: (stages, 4, 1) each.

    The calls take INIT_A * MULT_A**k in turn, each xoring with its own
    and multiplying by the next. Stage 0 hashes the pool's 4 words; stage
    1 + s mixes word s into the pool: for s < 4 into the other 3 (its own
    slot's constants are unused), past the pool into all 4.
    """
    ks, k = [range(_POOL)], _POOL
    for s in range(max(words, _POOL)):
        if s < _POOL:  # the other 3 words take 3 constants; s's own slot repeats the first
            ks.append([k + d - (d > s) if d != s else k for d in range(_POOL)])
            k += _POOL - 1
        else:
            ks.append(range(k, k + _POOL))
            k += _POOL
    a = _hash_constants(_INIT_A, _MULT_A, k + 1)
    ks = np.array(ks)
    xor, mul = a[ks][..., None], a[ks + 1][..., None]
    xor.flags.writeable = mul.flags.writeable = False  # cached, so shared by every call
    return xor, mul


def _hashmix(v: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    v = v ^ xor
    v *= mul
    v ^= v >> _XSHIFT
    return v


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # in place on both: x is returned
    x *= _MIX_MULT_L
    y *= _MIX_MULT_R
    x -= y
    x ^= x >> _XSHIFT
    return x


def _seed_states(rows: np.ndarray) -> np.ndarray:
    """SeedSequence(row).generate_state(4, np.uint64) for each row of `rows`, (trials, words) uint32, in one pass.

    numpy's mix_entropy and generate_state, the same uint32 arithmetic on
    every trial at once (uint32 arrays wrap without a warning): the row's
    first 4 words (0 past its end) are hashed into the pool, each pool word
    is mixed into the other 3 and each word past the pool into all 4, and
    the pool, read twice, is hashed into 8 words, read as 4 little-endian
    uint64. Returns (trials, 4) uint64.
    """
    trials, words = rows.shape
    xor, mul = _mix_constants(words)
    pool = np.zeros((_POOL, trials), dtype=np.uint32)
    pool[: min(words, _POOL)] = rows[:, :_POOL].T
    pool = _hashmix(pool, xor[0], mul[0])
    for s in range(max(words, _POOL)):
        if s < _POOL:
            own = pool[s].copy()
            pool = _mix(pool, _hashmix(own, xor[1 + s], mul[1 + s]))
            pool[s] = own
        else:
            pool = _mix(pool, _hashmix(rows[:, s], xor[1 + s], mul[1 + s]))
    state = _hashmix(np.concatenate((pool, pool)), _STATE_HASH[:-1], _STATE_HASH[1:])
    return state.T.astype("<u4", order="C").view("<u8").astype(np.uint64, copy=False)


@functools.cache
def _seed_state():
    """The class of a seed sequence whose state is already computed, made at first use.

    PCG64 takes an instance's state as its generate_state(4, np.uint64).
    numpy imports numpy.random at first use too, so importing equibound
    does not.
    """
    from numpy.random.bit_generator import ISeedSequence

    class SeedState(ISeedSequence):
        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            return self.state

    return SeedState


def _generators(seed: int, t0: int, t1: int) -> list:
    """Generators for the trials t0 ... t1 - 1 of a draw window of the campaign at `seed`, each in default_rng([seed, t])'s state.

    The state words of the trials' rows (see _seed_rows) come from one pass
    (see _seed_states), and each trial's PCG64 takes its words as they are.
    """
    seed_state = _seed_state()
    return [np.random.Generator(np.random.PCG64(seed_state(state))) for state in _seed_states(_seed_rows(seed, t0, t1))]


def _draw(draws: np.ndarray, seed: int, t0: int, eps: float | None) -> None:
    """Draw trials t0, t0 + 1, ... of the campaign at `seed` into `draws`, shape (trials, 2, nx*ny), in place.

    Each trial draws from its own generator (see _generators).
    Trial by trial a trial's grids, p and q (p alone at an eps), are one
    contiguous standard_exponential fill, and these are made Dirichlet-1
    draws at once (see _dirichlet). At an eps, q then starts as p and each
    trial perturbs it with its own generator, in trial order. The
    generators die when this returns.
    """
    k = 2 if eps is None else 1
    rngs = _generators(seed, t0, t0 + len(draws))
    for d, rng in zip(draws, rngs):
        rng.standard_exponential(out=d[:k])
    _dirichlet(draws[:, :k])
    if eps is not None:
        draws[:, 1] = draws[:, 0]
        for d, rng in zip(draws, rngs):
            _perturb(d[1], eps, rng)


def verify_trials(nx: int, ny: int, trials: int, seed: int, eps: float | None = None) -> TrialReport:
    """Run a seeded campaign of independent bound checks plus walk certificates.

    Each trial t draws from its own stream default_rng([seed, t]): p, then
    q (an independent sample when eps is None, a TV-eps perturbation of p
    otherwise), the bytes of sample_joint and perturb_within_tv. The
    generator is a PCG64 on the state words SeedSequence([seed, t]) gives
    it, computed for a window of trials at once (see _generators), which
    gives the same stream. Campaigns at different
    seeds share no trial, and results do not depend on execution order.
    The trials run in batches that fill one range of the walk's blocks,
    2^14 grid cells (one trial per batch on larger grids, whose walk takes
    several ranges). A batch is drawn straight into one (trials, 2, nx*ny)
    array, a window at a time, cut at the multiples of 256 (so at most 256
    trials and generators at a time, whose t share all words but the
    lowest): each trial fills both its grids (p alone at an eps) with one
    standard_exponential call,
    those trials are made Dirichlet-1 draws at once (see _dirichlet), and
    the eps trials then perturb p's copy in trial order, each with its own
    generator, so every stream is read in the order of those functions. The
    array, as a (2, trials, nx, ny) stack, is certified by one pass of the
    invariant-checked walk. Each trial is then checked against the bound at
    the gap and tv of the walk's initial measurement of it, which are
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
    size = min(trials, max(1, _range_blocks(nx) // ny))
    for t0 in range(0, trials, size):
        t1 = min(t0 + size, trials)
        draws = np.empty((t1 - t0, 2, nx * ny))
        # a window per block of _DRAW_TRIALS trials met by the batch: its trials share t's words but the lowest
        for c in range(t0 - t0 % _DRAW_TRIALS, t1, _DRAW_TRIALS):
            a = max(c, t0)
            _draw(draws[a - t0 : c + _DRAW_TRIALS - t0], seed, a, eps)
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

    Orderings come out in lexicographic order of (c0, c1, ...). They are
    built by plain extension, one cell at a time: each partial ordering,
    with `rest` units still unplaced, is extended by every value 0, 1, ...,
    rest of its next cell in turn, and the last cell takes what is left.
    Counts are at most DESK_SCALE_STEPS = 101, so int8 holds every cell.
    The search builds no point this way: this order is the one its
    canonical points follow, and the reference they are tested against.
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


def _ranked(rows: np.ndarray, ny: int, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """The entropies of the points of `rows`, ascending, and their rows by descending entropy.

    Position n - 1 - a of each returned row holds the point of rank a, the
    layout `_scan` reads. Ties keep the order of `rows`.
    """
    h = _entropies(rows, ny, steps)
    order = np.argsort(h, kind="stable")
    # take, not fancy indexing, keeps the rows contiguous
    return h[order], rows.take(order[::-1], axis=1)


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
    (1.3e-15 at most, measured). Feasibility is decided in exact integer
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

    h_sorted, columns = _ranked(_orbit_points(steps, nx, ny), ny, steps)
    best, low, high = _scan(h_sorted, columns, max_l1, ny)
    # position -1 - rank holds the canonical point of that rank; b's blocks are paired with a's as
    # the orbit distance pairs them, and the rows of paired blocks, both sorted, match in order
    q, b = (columns[:, -1 - r].reshape(nx, ny) for r in (low, high))
    pairing = min(itertools.permutations(range(ny)), key=lambda o: int(np.abs(b[:, o] - q).sum()))
    argmax = DistributionPair(p=JointDistribution(b[:, pairing] / float(steps)), q=JointDistribution(q / float(steps)))
    return GridSearchResult(max_gap=best, bound=continuity_bound(eps, nx).value, argmax_pair=argmax)
