import itertools
import math

import numpy as np
import pytest

from equibound import (
    JointDistribution,
    ValidationError,
    check_bound,
    conditional_entropy,
    continuity_bound,
    grid_search_max_gap,
    perturb_within_tv,
    sample_joint,
    tv_distance,
    verify_trials,
)
from equibound.core import _xlog2x_arr
from equibound.verify import _compositions

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
    real = verify.check_bound

    def recording(pair):
        seen.append(pair.p.probs.tobytes() + pair.q.probs.tobytes())
        return real(pair)

    def sampled(seed):
        """The (p, q) bytes of every trial of a campaign, in trial order."""
        seen.clear()
        verify_trials(3, 2, 50, seed=seed)
        return list(seen)

    monkeypatch.setattr(verify, "check_bound", recording)
    at_7, at_8 = sampled(7), sampled(8)
    assert len(set(at_7)) == len(set(at_8)) == 50
    assert not set(at_7) & set(at_8)
    assert sampled(7) == at_7


def test_walk_violation_names_seed_and_trial(monkeypatch):
    from equibound import InvariantViolation, verify

    calls = []

    def failing_on_trial_3(pair, snapshots="phases"):
        calls.append(pair)
        if len(calls) == 4:
            raise InvariantViolation("synthetic failure")

    monkeypatch.setattr(verify, "run_walk", failing_on_trial_3)
    with pytest.raises(InvariantViolation, match=r"synthetic failure \[seed 7, trial 3, nx=2, ny=1, eps=None\]"):
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
