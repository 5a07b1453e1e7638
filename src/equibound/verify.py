"""Desk-scale empirical verification of the bound and the walk.

Two independent routes are provided: seeded random campaigns
(`verify_trials`) that check every sampled pair against the bound and run
the invariant-checked walk on it, and an exhaustive simplex grid search
(`grid_search_max_gap`) that serves as the brute-force oracle for
tightness. The grid search never consults the bound formula while
searching; it only reports it next to the measured maximum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import SLACK_TOL, _check_bounds, _check_nx, _check_ny, _check_radius, continuity_bound
from .core import (
    DistributionPair,
    JointDistribution,
    ValidationError,
    _as_prob,
    _check_grid_size,
    _xlog2x_arr,
)
from .walk import InvariantViolation, _range_blocks, _walk

DESK_SCALE_CELLS = 6
DESK_SCALE_STEPS = 101
# cap on the grid points C(steps + cells - 1, cells - 1): the search's peak
# memory grows by about 150 bytes per point, so this keeps it near 0.3 GB
DESK_SCALE_POINTS = 2_000_000
# consecutive a (ascending entropy) whose L1 distances the pair scan computes in one pass
_SCAN_BLOCK = 8


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


def sample_joint(nx: int, ny: int, seed) -> JointDistribution:
    """Draw a joint grid from the flat (Dirichlet-1) measure on the simplex.

    `seed` is an int (deterministic: same seed, same draw) or a numpy
    Generator for callers managing their own stream.
    """
    nx, ny = int(nx), int(ny)
    if nx < 1 or ny < 1:
        raise ValidationError(f"nx and ny must be >= 1, got ({nx}, {ny})")
    _check_grid_size(nx, ny)
    v = np.empty(nx * ny)
    _sample(v, np.random.default_rng(seed))
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
    eps whenever the donors carry enough. Deterministic per int seed.
    """
    eps = _as_prob(eps, "eps")
    rng = np.random.default_rng(seed)
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
    nx, ny, trials, seed = _check_nx(nx), _check_ny(ny), int(trials), int(seed)
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
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
    """All orderings of `total` units into `parts` nonnegative cells, one per row.

    Rows come out in lexicographic order of (c0, c1, ...). They are built by
    plain extension, one cell at a time: each partial row, with `rest`
    units still unplaced, is extended by every value 0, 1, ..., rest of its
    next cell in turn, and the last cell takes what is left.
    """
    columns: list[np.ndarray] = []
    rest = np.array([total], dtype=np.int64)
    for _ in range(parts - 1):
        widths = rest + 1
        columns = [np.repeat(c, widths) for c in columns]
        columns.append(np.arange(widths.sum(), dtype=np.int64) - np.repeat(np.cumsum(widths) - widths, widths))
        rest = np.repeat(rest, widths) - columns[-1]
    columns.append(rest)
    return np.stack(columns, axis=1)


def grid_search_max_gap(nx: int, ny: int, eps: float, steps_per_dim: int) -> GridSearchResult:
    """Exhaustively maximize the equivocation gap over grid pairs within TV <= eps.

    Every grid point is a composition of steps_per_dim into nx*ny cells
    scaled to the simplex; `_compositions` enumerates them as one array.
    The points are sorted by equivocation, and for each point a, in
    ascending order, the scan takes the last feasible b among those with
    h[b] > h[a] + best, and stops once no b can beat the best gap.
    Feasibility is decided in exact integer arithmetic (L1 distance of the
    counts), so no pair is lost to float noise. The counts are stored once
    per cell as a contiguous int16 row, and the distances of a block of
    consecutive a to all candidates are summed row by row. The search prunes
    with its own best-so-far gap only; the bound is computed once for the
    report and never steers the search. Guarded to desk scale: nx*ny <= 6,
    steps_per_dim <= 101, and at most 2 000 000 grid points, which bounds
    the search's memory.
    """
    nx, ny, steps = _check_nx(nx), _check_ny(ny), int(steps_per_dim)
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

    counts = _compositions(steps, cells)
    levels = np.arange(steps + 1) / float(steps)
    block_mass = levels[counts].reshape(-1, nx, ny).sum(axis=1)
    # H(X|Y) = H(XY) - H(Y), vectorized over all grid points; a cell's x*log2(x) is looked up by its count
    h_values = -_xlog2x_arr(levels)[counts].sum(axis=1) + _xlog2x_arr(block_mass).sum(axis=1)

    order = np.argsort(h_values, kind="stable")
    h_sorted = h_values[order]
    # one contiguous row per cell, in descending entropy: the point of ascending rank a sits
    # at position n - 1 - a. Counts are at most 101, so every L1 distance fits in int16.
    n = len(h_sorted)
    columns = np.ascontiguousarray(counts.astype(np.int16)[order[::-1]].T)
    max_l1 = int(math.floor(2.0 * eps * steps + 1e-9))

    best = -1.0
    best_low = best_high = 0
    top_h = float(h_sorted[-1])
    dist = np.empty((_SCAN_BLOCK, n), dtype=np.int16)
    term = np.empty((_SCAN_BLOCK, n), dtype=np.int16)
    feasible = np.empty((_SCAN_BLOCK, n), dtype=bool)
    for a0 in range(0, n, _SCAN_BLOCK):
        if top_h - h_sorted[a0] <= best:
            break
        # every a of the block scans a0's candidates b >= lo; those below an a's own
        # candidates have h[b] <= h[a] + best and are skipped below, so the result is exact
        lo = int(np.searchsorted(h_sorted, h_sorted[a0] + best, side="right"))
        if lo >= n:
            continue
        a1 = min(a0 + _SCAN_BLOCK, n)
        shape = (a1 - a0, n - lo)
        d = dist[: shape[0], : shape[1]]
        t = term[: shape[0], : shape[1]]
        f = feasible[: shape[0], : shape[1]]
        for k, column in enumerate(columns):
            np.subtract(column[: n - lo], column[n - a1 : n - a0][::-1, None], out=t)
            np.abs(t, out=d if k == 0 else t)
            if k:
                np.add(d, t, out=d)
        np.less_equal(d, max_l1, out=f)
        # the first feasible position is the last feasible b
        first = np.argmax(f, axis=1)
        h_block = h_sorted[a0:a1].tolist()
        for i, h_a in enumerate(h_block):
            if top_h - h_a <= best:
                break
            if not f[i, first[i]]:
                continue
            b = n - 1 - int(first[i])
            h_b = float(h_sorted[b])
            if h_b <= h_a + best:
                continue
            gap = h_b - h_a
            if gap > best:
                best = gap
                best_low, best_high = a0 + i, b

    def _point(idx: int) -> JointDistribution:
        return JointDistribution(columns[:, n - 1 - idx].reshape(nx, ny) / float(steps))

    argmax = DistributionPair(p=_point(best_high), q=_point(best_low))
    return GridSearchResult(max_gap=best, bound=continuity_bound(eps, nx).value, argmax_pair=argmax)
