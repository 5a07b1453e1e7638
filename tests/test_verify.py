import dataclasses
import itertools
import math
import re

import numpy as np
import pytest

from equibound import (
    DistributionPair,
    InvariantViolation,
    JointDistribution,
    ValidationError,
    check_bound,
    conditional_entropy,
    continuity_bound,
    grid_search_max_gap,
    perturb_within_tv,
    run_walk,
    sample_joint,
    tv_distance,
    verify_trials,
)
from equibound import bounds, verify
from equibound.core import _xlog2x_arr
from equibound.verify import _compositions, _ratio

H_03 = 0.8812908992306926  # binary entropy at 0.3, frozen from mpmath


# ---------------------------------------------------------------- sample_joint

def test_sample_single_cell():
    assert sample_joint(1, 1, 5) == JointDistribution([[1.0]])


def test_sample_is_deterministic():
    a = sample_joint(2, 2, 31)
    b = sample_joint(2, 2, 31)
    assert a == b


def test_sample_is_normalized():
    for seed in range(20):
        J = sample_joint(3, 2, seed)
        assert abs(J.probs.sum() - 1.0) <= 1e-12
        assert J.probs.shape == (3, 2)


def test_sample_rejects_bad_shape():
    with pytest.raises(ValidationError):
        sample_joint(0, 2, 1)


# ---------------------------------------------------------------- perturb_within_tv

def test_perturb_zero_budget():
    p = sample_joint(2, 2, 8)
    assert perturb_within_tv(p, 0.0, 99) == p


def test_perturb_unique_move():
    # only one donor/recipient choice exists, so the output is seed-independent
    p = JointDistribution([[1.0], [0.0]])
    for seed in (0, 1, 17, 123456):
        q = perturb_within_tv(p, 0.3, seed)
        assert q == JointDistribution([[0.7], [0.3]])


def test_perturb_hits_requested_tv():
    p = JointDistribution([[0.25, 0.25], [0.25, 0.25]])
    for seed in range(30):
        q = perturb_within_tv(p, 0.25, seed)
        assert tv_distance(p, q) == pytest.approx(0.25, abs=1e-12)


def test_perturb_caps_at_movable_mass():
    # donors are a subset of the positive cells, so tv can cap below eps
    p = JointDistribution([[0.25, 0.25], [0.25, 0.25]])
    for seed in range(30):
        tv = tv_distance(p, perturb_within_tv(p, 0.9, seed))
        assert tv <= 0.9 + 1e-12
        k = round(tv / 0.25)
        assert tv == pytest.approx(0.25 * k, abs=1e-12)


def test_perturb_never_exceeds_eps():
    rng = np.random.default_rng(404)
    for _ in range(100):
        nx, ny = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        p = sample_joint(nx, ny, rng)
        eps = float(rng.uniform(0.0, 1.0))
        q = perturb_within_tv(p, eps, rng)
        assert tv_distance(p, q) <= eps + 1e-12


def test_perturb_single_cell_is_identity():
    p = JointDistribution([[1.0]])
    assert perturb_within_tv(p, 0.5, 3) == p


def test_perturb_domain_error():
    with pytest.raises(ValidationError):
        perturb_within_tv(JointDistribution([[1.0]]), 1.5, 0)


def _reference_perturb_within_tv(p, eps, seed):
    # perturb_within_tv as it was, with the recipient pool from np.setdiff1d
    rng = np.random.default_rng(seed)
    flat = np.array(p.probs).ravel()
    ncells = flat.size
    if eps == 0.0 or ncells == 1:
        return p
    positive = rng.permutation(np.flatnonzero(flat > 0.0))
    n_donors_max = len(positive) if len(positive) < ncells else ncells - 1
    n_donors = int(rng.integers(1, n_donors_max + 1))
    donors = positive[:n_donors]
    others = rng.permutation(np.setdiff1d(np.arange(ncells), donors))
    recipients = others[: int(rng.integers(1, len(others) + 1))]
    target = min(eps, float(flat[donors].sum()))
    remaining = target
    for c in donors:
        if remaining <= 0.0:
            break
        take = min(float(flat[c]), remaining)
        flat[c] -= take
        remaining -= take
    adds = target * rng.dirichlet(np.ones(len(recipients)))
    adds[-1] = max(0.0, target - float(adds[:-1].sum()))
    flat[recipients] += adds
    return JointDistribution(flat.reshape(p.probs.shape))


def test_perturb_matches_the_setdiff1d_reference():
    # the boolean-mask recipient pool is the same sorted array, so the draws and the bytes are the same;
    # 500 seeds on each of the 16 campaign shapes, the three eps taken in turn
    for seed in range(500):
        for k, (nx, ny) in enumerate((nx, ny) for nx in range(2, 6) for ny in range(1, 5)):
            eps = (0.05, 0.1, 0.9)[(seed + k) % 3]
            p = sample_joint(nx, ny, np.random.default_rng([seed, nx, ny]))
            q = perturb_within_tv(p, eps, np.random.default_rng([seed, 1]))
            ref = _reference_perturb_within_tv(p, eps, np.random.default_rng([seed, 1]))
            assert q.probs.tobytes() == ref.probs.tobytes()


# ---------------------------------------------------------------- verify_trials

def test_trials_random_mode_no_violations():
    report = verify_trials(2, 1, 1000, seed=7)
    assert report.violations == 0
    assert report.trials == 1000
    assert report.max_gap_over_bound_ratio <= 1.0 + 1e-9
    assert report.worst_pair is not None
    assert check_bound(report.worst_pair).holds


def test_trials_fixed_mode_no_violations():
    report = verify_trials(5, 4, 1000, seed=7, eps=0.2)
    assert report.violations == 0
    assert report.max_gap_over_bound_ratio <= 1.0 + 1e-9


def test_trials_fixed_zero_eps_identical_pair():
    report = verify_trials(2, 1, 1, seed=7, eps=0.0)
    assert report.violations == 0
    assert report.max_gap_over_bound_ratio == 0.0
    assert report.worst_pair.p == report.worst_pair.q


def test_trials_are_deterministic():
    a = verify_trials(3, 2, 50, seed=11)
    b = verify_trials(3, 2, 50, seed=11)
    assert a.max_gap_over_bound_ratio == b.max_gap_over_bound_ratio
    assert a.worst_pair.p == b.worst_pair.p
    assert a.worst_pair.q == b.worst_pair.q


def test_campaigns_at_neighbouring_seeds_share_no_trial(monkeypatch):
    from equibound import verify

    seen = []
    real = verify.sample_joint

    def recording(nx, ny, seed):
        J = real(nx, ny, seed)
        seen.append(J.probs.tobytes())
        return J

    def sampled(seed):
        """The (p, q) bytes of every trial of a campaign, in trial order."""
        seen.clear()
        verify_trials(3, 2, 50, seed=seed)
        return [p + q for p, q in zip(seen[0::2], seen[1::2])]

    monkeypatch.setattr(verify, "sample_joint", recording)
    at_7, at_8 = sampled(7), sampled(8)
    assert len(set(at_7)) == len(set(at_8)) == 50
    assert not set(at_7) & set(at_8)
    assert sampled(7) == at_7


def _trial_pair(nx, ny, seed, t, eps=None):
    rng = np.random.default_rng([seed, t])
    p = sample_joint(nx, ny, rng)
    return DistributionPair(p, sample_joint(nx, ny, rng) if eps is None else perturb_within_tv(p, eps, rng))


def _column_states(monkeypatch, name, pair):
    """The column states (as bytes) that walk.<name> is given in the pair's own walk."""
    from equibound import walk

    real, seen = getattr(walk, name), set()

    def spy(W, *args):
        if W.ndim == 3:  # the walk's stacked pair, not a single grid
            seen.update(W[:, :, c].tobytes() for c in range(W.shape[2]))
        return real(W, *args)

    with monkeypatch.context() as m:
        m.setattr(walk, name, spy)
        run_walk(pair, snapshots="none")
    return seen


# A column's state at each step is the same in a batch as in its trial's own walk, so a
# fault keyed on the states of a trial's own walk hits that trial wherever it runs.


def _leaky_transfer(monkeypatch, states):
    """Wrap walk._transfer so that it puts half of q's top row back below it in every column it starts from one of `states`."""
    from equibound import walk

    real = walk._transfer

    def leaky(W, cols):
        hit = [c for c in cols.tolist() if W[:, :, c].tobytes() in states]
        phase = real(W, cols)
        for c in hit:
            half = W[1, 0, c] / 2
            W[1, 0, c] -= half
            W[1, 1, c] += half
        return phase

    monkeypatch.setattr(walk, "_transfer", leaky)


def _average_fault(fault):
    """An injector that wraps walk._average so that fault(G) changes the averaged columns G (2, nx, k) of every column averaged from one of `states`."""

    def inject(monkeypatch, states):
        from equibound import walk

        real = walk._average

        def average(A, trials=1):
            out = real(A, trials)
            if A.ndim == 3:
                hit = [c for c in range(A.shape[2]) if A[:, :, c].tobytes() in states]
                out = np.array(out)
                G = out[:, :, hit]
                fault(G)
                out[:, :, hit] = G
            return out

        monkeypatch.setattr(walk, "_average", average)

    return inject


def _move_down(grids, s):
    """Move s of the given grids' top row to the row below it, in every column."""

    def fault(G):
        G[grids, 0] -= s
        G[grids, 1] += s

    return fault


def _p_is_q(G):
    G[0] = G[1]


def _rows_reversed(G):
    G[:] = G[:, ::-1].copy()


_skewed_average = _average_fault(_move_down(0, 0.01))


def _negative_after_reorder(monkeypatch, states):
    """Wrap walk._reorder so that it leaves -1e-13 in the bottom row of both grids of every trial given a column of `states`."""
    from equibound import walk

    real = walk._reorder

    def reorder(W, trials=1):
        out = real(W, trials)
        ny = W.shape[2] // trials
        for t in {c // ny for c in range(W.shape[2]) if W[:, :, c].tobytes() in states}:
            out[:, -1, t * ny : (t + 1) * ny] = -1e-13
        return out

    monkeypatch.setattr(walk, "_reorder", reorder)


def _fault(monkeypatch, inject, nx, ny, seed, trials, eps=None, name="_transfer"):
    """Put inject's fault on the given trials of a campaign; returns the messages of their own walks under it."""
    pairs = {t: _trial_pair(nx, ny, seed, t, eps) for t in trials}
    states = set().union(*(_column_states(monkeypatch, name, pair) for pair in pairs.values()))
    inject(monkeypatch, states)
    own = {}
    for t, pair in pairs.items():
        with pytest.raises(InvariantViolation) as exc:
            run_walk(pair, snapshots="none")
        own[t] = str(exc.value)
    return own


def test_walk_violation_names_seed_and_trial(monkeypatch):
    # a fault in trial 3's column only, inside one batch of 10 trials
    own = _fault(monkeypatch, _leaky_transfer, 2, 1, 7, [3])
    assert re.match(r"step 'block 1 transfer': block 1 ", own[3])
    with pytest.raises(InvariantViolation) as exc:
        verify_trials(2, 1, 10, seed=7)
    assert str(exc.value) == own[3] + " [seed 7, trial 3, nx=2, ny=1, eps=None]"


def test_walk_violation_in_a_later_batch_names_its_campaign_trial(monkeypatch):
    # batches of 4: trial 6 is column 2 of the second batch
    monkeypatch.setattr(verify, "_BATCH_CELLS", 4 * 2)
    own = _fault(monkeypatch, _leaky_transfer, 2, 1, 7, [6])
    with pytest.raises(InvariantViolation) as exc:
        verify_trials(2, 1, 10, seed=7)
    assert str(exc.value) == own[6] + " [seed 7, trial 6, nx=2, ny=1, eps=None]"


def test_walk_violation_names_the_first_failing_trial(monkeypatch):
    own = _fault(monkeypatch, _leaky_transfer, 2, 1, 7, [3, 7])
    with pytest.raises(InvariantViolation) as exc:
        verify_trials(2, 1, 10, seed=7)
    assert str(exc.value) == own[3] + " [seed 7, trial 3, nx=2, ny=1, eps=None]"


def test_a_later_check_of_an_earlier_trial_comes_first(monkeypatch):
    # trial 7 fails in the block ledger, trial 3 only once averaged: the batch raises at
    # trial 7's step, and the campaign names trial 3, with the message of its own walk
    _fault(monkeypatch, _leaky_transfer, 3, 2, 11, [7], eps=0.1)
    with pytest.raises(InvariantViolation, match=r"^step 'block \d transfer': .* \[seed 11, trial 7, "):
        verify_trials(3, 2, 10, seed=11, eps=0.1)
    own = _fault(monkeypatch, _skewed_average, 3, 2, 11, [3], eps=0.1, name="_average")
    assert own[3].startswith("step 'average': ")
    with pytest.raises(InvariantViolation) as exc:
        verify_trials(3, 2, 10, seed=11, eps=0.1)
    assert str(exc.value) == own[3] + " [seed 11, trial 3, nx=3, ny=2, eps=0.1]"


# Faults caught only by the checks of the whole walk: the reordered grid's entries, the
# averaged grid's gap, and the final checks. eps = 0 campaigns have q = p, so tv and gap
# are 0 throughout and a fault of 1e-10 already breaks the bound at the initial tv.
WHOLE_WALK_FAULTS = {
    "reorder_entry": (_negative_after_reorder, "_reorder", 0.0, r"step 'reorder': an entry is not finite or outside \[0, 1\.000000001\]"),
    "average_gap": (_average_fault(_p_is_q), "_average", 0.1, r"step 'average': gap decreased from \S+ to 0\.0"),
    "final_q_entropy": (_average_fault(_move_down([0, 1], 1e-6)), "_average", 0.0, r"final q has conditional entropy \S+ > 1e-09"),
    "final_q_top": (_average_fault(_rows_reversed), "_average", 0.0, r"final q_X\(1\) = 0\.0, expected 1"),
    "final_bound": (_average_fault(_move_down(0, 1e-10)), "_average", 0.0, r"final gap \S+ exceeds the bound 0\.0 at the initial tv 0\.0"),
}


@pytest.mark.parametrize("fault", WHOLE_WALK_FAULTS)
def test_whole_walk_checks_name_the_trial(monkeypatch, fault):
    # a fault in trial 3 only: its own walk raises the check's message, and the campaign that
    # certifies it in a batch names trial 3 with that message
    inject, name, eps, message = WHOLE_WALK_FAULTS[fault]
    own = _fault(monkeypatch, inject, 3, 2, 11, [3], eps=eps, name=name)
    assert re.fullmatch(message, own[3]), own[3]
    with pytest.raises(InvariantViolation) as exc:
        verify_trials(3, 2, 10, seed=11, eps=eps)
    assert str(exc.value) == own[3] + f" [seed 11, trial 3, nx=3, ny=2, eps={eps}]"


def test_a_batch_failure_no_trial_repeats_names_the_batch(monkeypatch):
    # a fault only in a batch's column 3, never in a walk of one pair
    from equibound import walk

    real = walk._transfer

    def leaky_in_batches(W, cols):
        phase = real(W, cols)
        if W.shape[2] > 1:
            W[1, 0, 3] /= 2
            W[1, 1, 3] += W[1, 0, 3]
        return phase

    monkeypatch.setattr(walk, "_transfer", leaky_in_batches)
    with pytest.raises(InvariantViolation, match=r"^step 'block 1 transfer': .* \[seed 7, trials 0-9, nx=2, ny=1, eps=None\]$"):
        verify_trials(2, 1, 10, seed=7)


def test_trials_validation():
    with pytest.raises(ValidationError):
        verify_trials(1, 1, 10, seed=0)
    with pytest.raises(ValidationError):
        verify_trials(2, 0, 10, seed=0)
    with pytest.raises(ValidationError):
        verify_trials(2, 1, 0, seed=0)
    with pytest.raises(ValidationError):
        verify_trials(2, 1, 10, seed=-1)


def test_sampling_guards_the_grid_size():
    with pytest.raises(ValidationError, match="grid-size guard"):
        sample_joint(100_000, 100_000, 0)
    with pytest.raises(ValidationError, match="grid-size guard"):
        verify_trials(100_000, 100_000, 1, seed=0)


# ---------------------------------------------------------------- batched campaigns against the per-trial loop
#
# The loop below is the campaign as it ran before batching: sample, check_bound and
# run_walk, one trial at a time. The batched route must give the same report.

CAMPAIGN_SHAPES = [(nx, ny) for nx in range(2, 6) for ny in range(1, 5)]
BATCH = 4


def _reference_trials(nx, ny, trials, seed, eps=None):
    """(violated, ratio, pair) of every trial of the per-trial loop."""
    out = []
    for t in range(trials):
        pair = _trial_pair(nx, ny, seed, t, eps)
        result = check_bound(pair)
        run_walk(pair, snapshots="none")
        out.append((result.slack < -1e-9, _ratio(result.gap, result.bound_at_tv), pair))
    return out


def _reference_report(per_trial):
    """Violations, largest ratio and worst pair, aggregated as the loop did."""
    violations, max_ratio, worst = 0, 0.0, None
    for violated, ratio, pair in per_trial:
        violations += violated
        if worst is None or ratio > max_ratio:
            max_ratio, worst = ratio, pair
    return violations, max_ratio, worst


def _assert_same_report(report, reference):
    violations, ratio, worst = reference
    assert report.violations == violations
    assert report.max_gap_over_bound_ratio.hex() == ratio.hex()  # bit-equal
    assert report.worst_pair.p.probs.tobytes() == worst.p.probs.tobytes()
    assert report.worst_pair.q.probs.tobytes() == worst.q.probs.tobytes()


@pytest.mark.parametrize("eps", [None, 0.1, 0.0])
def test_batched_campaign_matches_the_per_trial_loop(monkeypatch, eps):
    # batches of BATCH trials, and campaigns of 1, B - 1, B, B + 1 and 2B + 3 trials, on every campaign shape
    for nx, ny in CAMPAIGN_SHAPES:
        monkeypatch.setattr(verify, "_BATCH_CELLS", BATCH * nx * ny)
        seed = 1000 + 10 * nx + ny
        reference = _reference_trials(nx, ny, 2 * BATCH + 3, seed, eps)
        for trials in (1, BATCH - 1, BATCH, BATCH + 1, 2 * BATCH + 3):
            _assert_same_report(verify_trials(nx, ny, trials, seed, eps=eps), _reference_report(reference[:trials]))


def test_violation_counts_match_the_per_trial_loop(monkeypatch):
    # a bound shrunk to a third of its value is violated by some trials, and the routes count the same ones
    real = bounds.continuity_bound

    def shrunk(epsilon, nx):
        result = real(epsilon, nx)
        return dataclasses.replace(result, value=result.value / 3)

    monkeypatch.setattr(bounds, "continuity_bound", shrunk)
    monkeypatch.setattr(verify, "_BATCH_CELLS", BATCH * 6)
    for eps in (None, 0.1):
        reference = _reference_report(_reference_trials(3, 2, 2 * BATCH + 3, 77, eps))
        assert 0 < reference[0] < 2 * BATCH + 3
        _assert_same_report(verify_trials(3, 2, 2 * BATCH + 3, 77, eps=eps), reference)


def test_batch_size_follows_the_cell_budget(monkeypatch):
    sizes = []
    real = verify._walk

    def recording(W, trials, *args):
        sizes.append(trials)
        return real(W, trials, *args)

    monkeypatch.setattr(verify, "_walk", recording)

    def batches(*args, **kwargs):
        sizes.clear()
        verify_trials(*args, **kwargs)
        return list(sizes)

    assert batches(3, 2, 1, seed=1) == [1]
    assert batches(3, 2, 25, seed=1) == [25]
    monkeypatch.setattr(verify, "_BATCH_CELLS", 10 * 6)
    assert batches(3, 2, 25, seed=1) == [10, 10, 5]
    assert batches(3, 2, 1, seed=1) == [1]
    monkeypatch.setattr(verify, "_BATCH_CELLS", 5)  # a grid past the budget is a batch of one
    assert batches(3, 2, 3, seed=1, eps=0.2) == [1, 1, 1]


# ---------------------------------------------------------------- grid search oracle

def test_grid_search_two_outcomes_is_binary_entropy():
    result = grid_search_max_gap(2, 1, 0.3, 100)
    assert abs(result.max_gap - H_03) <= 0.02
    assert result.max_gap <= result.bound + 1e-9


def test_grid_search_two_outcomes_half():
    result = grid_search_max_gap(2, 1, 0.5, 100)
    assert abs(result.max_gap - 1.0) <= 0.02
    assert result.max_gap <= result.bound + 1e-9


def test_grid_search_conditioning_does_not_raise_supremum():
    result = grid_search_max_gap(2, 2, 0.3, 50)
    assert abs(result.max_gap - H_03) <= 0.05
    assert result.max_gap <= continuity_bound(0.3, 2).value + 1e-9


@pytest.mark.parametrize("steps", [10, 25, 40])
def test_grid_search_never_exceeds_bound(steps):
    result = grid_search_max_gap(2, 1, 0.35, steps)
    assert result.max_gap <= result.bound + 1e-9


def test_grid_search_argmax_pair_is_consistent():
    result = grid_search_max_gap(3, 1, 0.4, 30)
    pair = result.argmax_pair
    gap = abs(conditional_entropy(pair.p) - conditional_entropy(pair.q))
    assert gap == pytest.approx(result.max_gap, abs=1e-12)
    assert tv_distance(pair.p, pair.q) <= 0.4 + 1e-12
    assert conditional_entropy(pair.p) >= conditional_entropy(pair.q)


def test_grid_search_guards():
    with pytest.raises(ValidationError, match="desk-scale"):
        grid_search_max_gap(4, 2, 0.3, 10)
    with pytest.raises(ValidationError):
        grid_search_max_gap(2, 1, 0.3, 102)
    with pytest.raises(ValidationError):
        grid_search_max_gap(2, 1, 0.0, 10)
    with pytest.raises(ValidationError):
        grid_search_max_gap(2, 1, 0.6, 10)
    with pytest.raises(ValidationError):
        grid_search_max_gap(1, 1, 0.3, 10)


@pytest.mark.parametrize("nx", [2, 3])
def test_grid_search_admits_float_noise_at_the_range_edge(nx):
    edge = 1.0 - 1.0 / nx
    result = grid_search_max_gap(nx, 1, edge + 5e-13, 6)
    assert result.max_gap <= result.bound + 1e-9
    with pytest.raises(ValidationError, match=r"eps must be in \(0, "):
        grid_search_max_gap(nx, 1, edge + 2e-12, 6)


def test_grid_search_matches_plain_enumeration():
    # independent route: enumerate the same grid pairs with library calls only
    steps, eps = 12, 0.4
    points = [JointDistribution([[k / steps], [(steps - k) / steps]]) for k in range(steps + 1)]
    best = 0.0
    for a in points:
        for b in points:
            if tv_distance(a, b) <= eps + 1e-12:
                best = max(best, abs(conditional_entropy(a) - conditional_entropy(b)))
    result = grid_search_max_gap(2, 1, eps, steps)
    assert result.max_gap == pytest.approx(best, abs=1e-12)


def test_grid_search_guards_the_number_of_grid_points():
    # C(106, 5) = 1.06e8 grid points would need tens of GB
    with pytest.raises(ValidationError, match="grid points"):
        grid_search_max_gap(3, 2, 0.3, 101)
    with pytest.raises(ValidationError, match="grid points"):
        grid_search_max_gap(2, 3, 0.3, 46)


# ---------------------------------------------------------------- array oracle vs the loop reference

def _reference_compositions(total, parts):
    # the itertools enumeration the array form replaced
    if parts == 1:
        return np.array([[total]], dtype=np.int64)
    rows = []
    for bars in itertools.combinations(range(total + parts - 1), parts - 1):
        prev = -1
        row = []
        for b in bars:
            row.append(b - prev - 1)
            prev = b
        row.append(total + parts - 2 - prev)
        rows.append(row)
    return np.array(rows, dtype=np.int64)


def _reference_grid_search(nx, ny, eps, steps):
    # the row-major int64 pair scan the column scan replaced; returns (max_gap, p grid, q grid)
    counts = _reference_compositions(steps, nx * ny)
    grids = counts.reshape(-1, nx, ny) / float(steps)
    block_mass = grids.sum(axis=1)
    h_values = -_xlog2x_arr(grids).sum(axis=(1, 2)) + _xlog2x_arr(block_mass).sum(axis=1)
    order = np.argsort(h_values, kind="stable")
    h_sorted = h_values[order]
    counts_sorted = counts[order]
    n = len(h_sorted)
    max_l1 = int(math.floor(2.0 * eps * steps + 1e-9))
    best = -1.0
    best_low = best_high = 0
    top_h = h_sorted[-1]
    for a in range(n):
        if top_h - h_sorted[a] <= best:
            break
        lo = int(np.searchsorted(h_sorted, h_sorted[a] + best, side="right"))
        if lo >= n:
            continue
        l1 = np.abs(counts_sorted[lo:] - counts_sorted[a]).sum(axis=1)
        feasible = np.flatnonzero(l1 <= max_l1)
        if len(feasible) == 0:
            continue
        b = lo + int(feasible[-1])
        gap = float(h_sorted[b] - h_sorted[a])
        if gap > best:
            best = gap
            best_low, best_high = a, b
    high, low = (counts_sorted[idx].reshape(nx, ny) / float(steps) for idx in (best_high, best_low))
    return max(best, 0.0), high, low


@pytest.mark.parametrize("total,parts", [(0, 3), (1, 1), (3, 1), (5, 3), (16, 6), (100, 2)])
def test_compositions_match_the_loop_reference(total, parts):
    rows = _compositions(total, parts)
    assert rows.dtype == np.int64
    assert len(rows) == math.comb(total + parts - 1, parts - 1)
    assert (rows.sum(axis=1) == total).all()
    np.testing.assert_array_equal(rows, _reference_compositions(total, parts))


@pytest.mark.parametrize(
    "cfg",
    [
        (3, 2, 0.3, 10), (3, 2, 0.6, 6), (2, 3, 0.2, 10), (2, 3, 0.5, 6),
        (2, 1, 0.05, 100), (2, 1, 0.3, 100), (2, 1, 0.5, 100), (3, 1, 1.0 - 1.0 / 3, 20),
        (2, 1, 0.3, 1), (3, 2, 0.3, 1), (2, 3, 0.5, 1),
        (3, 1, 0.4, 30), (2, 2, 0.3, 20),
    ],
)
def test_grid_search_is_bit_identical_to_the_loop_reference(cfg):
    max_gap, p, q = _reference_grid_search(*cfg)
    result = grid_search_max_gap(*cfg)
    assert result.max_gap == max_gap
    np.testing.assert_array_equal(result.argmax_pair.p.probs, p)
    np.testing.assert_array_equal(result.argmax_pair.q.probs, q)
