import functools
import itertools
import math
import re
import time
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equibound import (
    DistributionPair,
    InvariantViolation,
    JointDistribution,
    SymmetryElement,
    ValidationError,
    apply_symmetry,
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
from equibound import bounds, verify, walk
from equibound.core import _xlog2x_arr
from equibound.verify import _compositions, _ratio
from test_walk_properties import _grid

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


def test_sample_is_numpys_dirichlet_draw():
    # the bytes of numpy's own Dirichlet(1, ..., 1) draw, and the stream left where that draw leaves it
    for n in range(1, 65):
        for nx, ny in ((n, 1), (1, n)):
            for seed in (0, 1, 7, 2**40 + n):
                ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
                assert sample_joint(nx, ny, ours).probs.tobytes() == numpys.dirichlet(np.ones(n)).tobytes()
                assert ours.integers(2**62) == numpys.integers(2**62)


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


def _reference_perturb_row(p, eps, keys, weights):
    """The perturbation of one flat row p, a plain loop over its cells: (the new row, the donors, the moved mass).

    keys (2, cells + 1) are uniforms and weights (cells) standard exponentials.
    Donors are the positive cells in the order of keys[0], the first
    1 + floor(keys[0][-1] * most) of them; recipients are the other cells
    (np.setdiff1d) in the order of keys[1], the first 1 + floor(keys[1][-1] *
    their number). Sums run left to right, as Python adds floats.
    """
    flat = [float(x) for x in p]
    n = len(flat)
    if eps == 0.0 or n == 1:
        return np.array(flat), [], 0.0
    positive = [c for c in range(n) if flat[c] > 0.0]
    most = len(positive) if len(positive) < n else n - 1
    donors = sorted(positive, key=lambda c: keys[0][c])[: 1 + int(keys[0][n] * most)]
    mass = 0.0
    for c in donors:
        mass += flat[c]
    target = min(eps, mass)
    taken = 0.0  # the donors' mass before the current one
    for c in donors:
        v = flat[c]
        flat[c] = v - min(v, max(target - taken, 0.0))
        taken += v
    others = sorted(np.setdiff1d(np.arange(n), donors).tolist(), key=lambda c: keys[1][c])
    recipients = others[: 1 + int(keys[1][n] * len(others))]
    w = [float(weights[k]) for k in range(len(recipients))]
    total = 0.0
    for x in w:
        total += x
    adds = [target * (x * (1.0 / total)) for x in w]
    before = 0.0
    for a in adds[:-1]:
        before += a
    adds[-1] = max(0.0, target - before)
    for c, a in zip(recipients, adds):
        flat[c] += a
    return np.array(flat), donors, target


def _reference_perturb_within_tv(p, eps, seed):
    # perturb_within_tv from numpy's public draws: the keys, then the weights, and the loop above
    rng = np.random.default_rng(seed)
    n = p.probs.size
    if eps == 0.0 or n == 1:
        return p
    keys = rng.random((2, n + 1))
    row, _, _ = _reference_perturb_row(p.probs.ravel(), eps, keys, rng.standard_exponential(n))
    return JointDistribution(row.reshape(p.probs.shape))


def _assert_perturbed(p, q, eps, donors, target):
    # the moved mass is min(eps, the donors' mass), and no donor is a zero cell or any entry negative
    p, q = np.asarray(p).ravel(), np.asarray(q).ravel()
    assert all(p[c] > 0.0 for c in donors)
    mass = 0.0
    for c in donors:
        mass += float(p[c])
    assert target == min(eps, mass)
    tv = tv_distance(JointDistribution(p.reshape(1, -1)), JointDistribution(q.reshape(1, -1)))
    assert tv == pytest.approx(target, abs=1e-12)
    assert tv <= eps + 1e-12
    assert (q >= 0.0).all()


def test_perturb_matches_the_setdiff1d_reference():
    # on each campaign shape, the array core over 64 rows at once gives each row the bytes of the loop
    # reference, and perturb_within_tv, its one-row case, gives the reference's bytes from the same seed
    for (nx, ny), eps in itertools.product(CAMPAIGN_SHAPES, (0.05, 0.1, 0.5, 0.9)):
        n = nx * ny
        rng = np.random.default_rng([nx, ny, int(eps * 100)])
        P = rng.dirichlet(np.ones(n), size=64)
        keys, weights = rng.random((64, 2, n + 1)), rng.standard_exponential((64, n))
        rows = P.copy()
        verify._perturb(rows, eps, keys, weights.copy())
        for p, q, k, w in zip(P, rows, keys, weights):
            ref, donors, target = _reference_perturb_row(p, eps, k, w)
            assert q.tobytes() == ref.tobytes()
            _assert_perturbed(p, q, eps, donors, target)
        for seed in range(10):
            p = JointDistribution(P[seed].reshape(nx, ny))
            q = perturb_within_tv(p, eps, seed)
            assert q.probs.tobytes() == _reference_perturb_within_tv(p, eps, seed).probs.tobytes()


@st.composite
def perturbations(draw):
    nx, ny = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["sparse", "quantized", "tiny"]))
    p = JointDistribution(_grid(kind, nx, ny, np.random.default_rng(draw(st.integers(0, 2**32 - 1)))))
    # eps is 0, a simple fraction (which a quantized grid's donors may carry exactly) or any probability
    eps = draw(st.one_of(st.just(0.0), st.integers(1, 12).map(lambda k: k / 12), st.floats(0.0, 1.0)))
    return p, eps, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(perturbations())
def test_perturb_core_matches_the_public_and_reference_draws(case):
    # perturb_within_tv gives the reference's bytes and leaves the generator where the reference
    # leaves it; the array core gives three rows of the grid, each under its own keys and weights,
    # the reference's bytes
    p, eps, seed = case
    ours, other = np.random.default_rng(seed), np.random.default_rng(seed)
    assert perturb_within_tv(p, eps, ours).probs.tobytes() == _reference_perturb_within_tv(p, eps, other).probs.tobytes()
    assert ours.random() == other.random()
    n = p.probs.size
    if eps == 0.0 or n == 1:
        return
    rng = np.random.default_rng(seed)
    keys, weights = rng.random((3, 2, n + 1)), rng.standard_exponential((3, n))
    rows = np.repeat(p.probs.reshape(1, n), 3, axis=0)
    verify._perturb(rows, eps, keys, weights.copy())
    for q, k, w in zip(rows, keys, weights):
        ref, donors, target = _reference_perturb_row(p.probs.ravel(), eps, k, w)
        assert q.tobytes() == ref.tobytes()
        _assert_perturbed(p.probs, q, eps, donors, target)


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
    seen = []
    real = verify._walk

    def recording(W, *args):
        # each batch's (2, trials, nx, ny) stack, read before the walk
        seen.extend(p.tobytes() + q.tobytes() for p, q in zip(W[0], W[1]))
        return real(W, *args)

    def sampled(seed):
        """The (p, q) bytes of every trial of a campaign, in trial order."""
        seen.clear()
        verify_trials(3, 2, 50, seed=seed)
        return list(seen)

    monkeypatch.setattr(verify, "_walk", recording)
    at_7, at_8 = sampled(7), sampled(8)
    assert len(set(at_7)) == len(set(at_8)) == 50
    assert not set(at_7) & set(at_8)
    assert sampled(7) == at_7


def _window(nx, ny):
    """The campaign's window: the largest power of two, up to 256, within a batch of the walk's blocks."""
    blocks, w = max(1, walk._range_blocks(nx) // ny), 1
    while 2 * w <= min(256, blocks):
        w *= 2
    return w


def _trial_pair(nx, ny, seed, t, eps=None):
    """Trial t's pair from numpy's public API, not the package's draws.

    Trial t is row r of window w = t // W, whose streams are the children of
    SeedSequence([seed, w]): the first's fill of (trials, 2, cells) standard
    exponentials gives p and q by numpy's dirichlet, or p and the weights at
    an eps, and the second's (trials, 2, cells + 1) uniforms the keys of the
    loop reference perturbation.
    """
    w, r = divmod(t, _window(nx, ny))
    n = nx * ny
    grids, keys = np.random.SeedSequence([seed, w]).spawn(2)
    p, q = np.random.default_rng(grids).dirichlet(np.ones(n), size=(r + 1, 2))[r]
    if eps is not None:
        weights = np.random.default_rng(grids).standard_exponential((r + 1, 2, n))[r, 1]
        q, _, _ = _reference_perturb_row(p, eps, np.random.default_rng(keys).random((r + 1, 2, n + 1))[r], weights)
    return DistributionPair(JointDistribution(p.reshape(nx, ny)), JointDistribution(q.reshape(nx, ny)))


def _column_states(monkeypatch, name, pair):
    """The column states (as bytes) that walk.<name> is given in the pair's own walk."""
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
    monkeypatch.setattr(walk, "_CHUNK_CELLS", 4 * 2)
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


def test_sizes_trials_seeds_and_steps_are_integers():
    # ints and numpy integers are admitted; floats, strings, bools and negative seeds are refused
    # as ValidationErrors, not rounded down or left to numpy
    refused = [
        (sample_joint, (2.5, 2, 0)),
        (sample_joint, (2, True, 0)),
        (sample_joint, (2, 2, -1)),
        (sample_joint, (2, 2, 1.0)),
        (perturb_within_tv, (JointDistribution([[0.5, 0.5]]), 0.1, -1)),
        (verify_trials, (3, 2, 2.7, 0)),
        (verify_trials, ("3", 2, 1, 0)),
        (verify_trials, (2, 1, True, 0)),
        (verify_trials, (2, 1, 1, 0.0)),
        (grid_search_max_gap, (2, 1, 0.3, 10.5)),
        (grid_search_max_gap, (2.0, 1, 0.3, 10)),
        (continuity_bound, (0.1, 3.0)),
        (bounds.extremal_pair, (0.1, 2, np.True_)),
    ]
    for fn, args in refused:
        with pytest.raises(ValidationError, match="must be an integer|seed must be >= 0, got -1"):
            fn(*args)
    assert sample_joint(np.int64(3), np.int32(2), np.uint8(5)) == sample_joint(3, 2, 5)
    assert verify_trials(np.int64(2), np.int8(1), np.int64(3), np.uint64(4)) == verify_trials(2, 1, 3, 4)
    assert grid_search_max_gap(np.int64(2), 1, 0.3, np.int16(10)) == grid_search_max_gap(2, 1, 0.3, 10)
    # out-of-range integers keep their messages
    with pytest.raises(ValidationError, match=r"^trials must be >= 1, got 0$"):
        verify_trials(2, 1, np.int64(0), 0)
    with pytest.raises(ValidationError, match=r"^nx must be >= 2, got 1$"):
        continuity_bound(0.1, np.int64(1))
    with pytest.raises(ValidationError, match=r"^nx and ny must be >= 1, got \(0, 2\)$"):
        sample_joint(0, 2, 1)


def test_sampling_guards_the_grid_size():
    with pytest.raises(ValidationError, match="grid-size guard"):
        sample_joint(100_000, 100_000, 0)
    with pytest.raises(ValidationError, match="grid-size guard"):
        verify_trials(100_000, 100_000, 1, seed=0, eps=0.1)
    # the campaign refuses before it allocates its batch (149 GiB here)
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="grid-size guard"):
            verify_trials(100_000, 100_000, 1, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


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


def test_ratio_at_a_zero_bound_is_inf_past_1e_12_and_0_below():
    np.testing.assert_array_equal(_ratio(np.array([2e-12, 5e-13]), np.array([0.0, 0.0])), [np.inf, 0.0])


def _assert_same_report(report, reference):
    violations, ratio, worst = reference
    assert report.violations == violations
    assert report.max_gap_over_bound_ratio.hex() == ratio.hex()  # bit-equal
    assert report.worst_pair.p.probs.tobytes() == worst.p.probs.tobytes()
    assert report.worst_pair.q.probs.tobytes() == worst.q.probs.tobytes()


@pytest.mark.parametrize("eps", [None, 0.1, 0.0])
def test_batched_campaign_matches_the_per_trial_loop(monkeypatch, eps):
    # batches of BATCH trials, and campaigns of 1, B - 1, B, B + 1 and 2B + 3 trials, on every campaign
    # shape, and on a few shapes at seeds of two and three 32-bit words
    cases = [(nx, ny, 1000 + 10 * nx + ny) for nx, ny in CAMPAIGN_SHAPES]
    for nx, ny, seed in cases + [(2, 1, 2**32), (3, 2, 2**40 + 5), (5, 4, 2**64 + 3)]:
        monkeypatch.setattr(walk, "_CHUNK_CELLS", BATCH * nx * ny)
        reference = _reference_trials(nx, ny, 2 * BATCH + 3, seed, eps)
        for trials in (1, BATCH - 1, BATCH, BATCH + 1, 2 * BATCH + 3):
            _assert_same_report(verify_trials(nx, ny, trials, seed, eps=eps), _reference_report(reference[:trials]))


@pytest.mark.parametrize("eps", [None, 0.1, 0.0])
def test_campaign_walks_the_public_draws(monkeypatch, eps):
    # every trial the walk is given, across batch boundaries, is the pair numpy's dirichlet and
    # the reference perturbation draw from the trial's stream, byte for byte
    stacks = []
    real = verify._walk

    def recording(W, *args):
        stacks.append(W.copy())
        return real(W, *args)

    monkeypatch.setattr(verify, "_walk", recording)
    for nx, ny in CAMPAIGN_SHAPES:
        monkeypatch.setattr(walk, "_CHUNK_CELLS", BATCH * nx * ny)
        seed = 2000 + 10 * nx + ny
        stacks.clear()
        verify_trials(nx, ny, 2 * BATCH + 3, seed, eps=eps)
        assert [W.shape[1] for W in stacks] == [BATCH, BATCH, 3]
        walked = np.concatenate(stacks, axis=1)
        for t in range(2 * BATCH + 3):
            pair = _trial_pair(nx, ny, seed, t, eps)
            assert walked[0, t].tobytes() == pair.p.probs.tobytes()
            assert walked[1, t].tobytes() == pair.q.probs.tobytes()


def test_violation_counts_match_the_per_trial_loop(monkeypatch):
    # a bound shrunk to a third of its value is violated by some trials, and the routes count the same ones.
    # check_bound reaches bounds._bound through the verdict; the campaign reads each trial's chain cap
    # from the ledger, which the walk's final check computed with the true bound (it imports _bound by
    # name), and a third of it is taken once the walk has returned
    real, real_walk = bounds._bound, verify._walk
    monkeypatch.setattr(bounds, "_bound", lambda epsilon, nx: real(epsilon, nx) / 3)

    def shrunk(W, *args):
        tb = real_walk(W, *args)
        tb.bound = [cap / 3 for cap in tb.bound]
        return tb

    monkeypatch.setattr(verify, "_walk", shrunk)
    monkeypatch.setattr(walk, "_CHUNK_CELLS", BATCH * 6)
    for eps in (None, 0.1):
        reference = _reference_report(_reference_trials(3, 2, 2 * BATCH + 3, 78, eps))
        assert 0 < reference[0] < 2 * BATCH + 3
        _assert_same_report(verify_trials(3, 2, 2 * BATCH + 3, 78, eps=eps), reference)


def _walked(monkeypatch, *args, **kwargs):
    """The (2, trials, nx, ny) stack of every trial a campaign walks, in trial order, and its batches' sizes."""
    stacks = []
    real = verify._walk

    def recording(W, *more):
        stacks.append(W.copy())
        return real(W, *more)

    with monkeypatch.context() as m:
        m.setattr(verify, "_walk", recording)
        verify_trials(*args, **kwargs)
    return np.concatenate(stacks, axis=1), [W.shape[1] for W in stacks]


@pytest.mark.parametrize("eps", [None, 0.1, 0.0])
def test_a_windows_first_trials_are_the_same_whatever_their_number(eps):
    # a window drawn in full and its first m trials drawn alone agree byte for byte; the next
    # window, and the same window at the next seed, share none of its trials
    for nx, ny in [(2, 1), (3, 2), (5, 4)]:
        full = np.empty((256, 2, nx * ny))
        verify._draw(full, 41, 3, eps)
        for m in (1, 2, 7, 20, 255):
            part = np.empty((m, 2, nx * ny))
            verify._draw(part, 41, 3, eps)
            assert part.tobytes() == full[:m].tobytes()
        for seed, w in ((41, 4), (42, 3)):
            other = np.empty_like(full)
            verify._draw(other, seed, w, eps)
            assert not {p.tobytes() for p in full[:, 0]} & {p.tobytes() for p in other[:, 0]}


@pytest.mark.parametrize("eps", [None, 0.1])
def test_a_trials_bytes_depend_on_seed_and_trial_alone(monkeypatch, eps):
    # 3 x 2 trials in campaigns of 1, 300 and 700 trials, and 700 in batches of 256 and of 512 (the
    # window stays 256): every trial is the same pair, and the pair of the public-API reference
    full, sizes = _walked(monkeypatch, 3, 2, 700, 52, eps=eps)
    assert sizes == [700]
    assert _walked(monkeypatch, 3, 2, 1, 52, eps=eps)[0].tobytes() == full[:, :1].tobytes()
    assert _walked(monkeypatch, 3, 2, 300, 52, eps=eps)[0].tobytes() == full[:, :300].tobytes()
    for blocks, expected in ((256, [256, 256, 188]), (767, [512, 188])):
        monkeypatch.setattr(walk, "_CHUNK_CELLS", 6 * blocks)
        walked, sizes = _walked(monkeypatch, 3, 2, 700, 52, eps=eps)
        assert sizes == expected
        assert walked.tobytes() == full.tobytes()
    for t in (0, 255, 256, 699):
        pair = _trial_pair(3, 2, 52, t, eps)
        assert full[0, t].tobytes() == pair.p.probs.tobytes()
        assert full[1, t].tobytes() == pair.q.probs.tobytes()


def test_draw_windows_are_cut_at_multiples_of_the_window(monkeypatch):
    # every batch is whole windows, and every window starts at a multiple of its size: 3 x 2 campaigns
    # of 3000 trials in batches of 2560 (the walk's 2730 blocks cut to ten windows of 256), and of 25
    # trials in batches of 8 (10 blocks, windows of 8), the last window cut short by the campaign's end
    windows, real = [], verify._draw

    def recording(draws, seed, w, eps):
        windows.append((w, len(draws)))
        real(draws, seed, w, eps)

    monkeypatch.setattr(verify, "_draw", recording)
    for chunk, trials, window, batches in ((1 << 14, 3000, 256, [2560, 440]), (10 * 6, 25, 8, [8, 8, 8, 1])):
        monkeypatch.setattr(walk, "_CHUNK_CELLS", chunk)
        windows.clear()
        _, sizes = _walked(monkeypatch, 3, 2, trials, 402)
        assert sizes == batches
        full, last = divmod(trials, window)
        assert windows == [(w, window) for w in range(full)] + [(full, last)]
        starts = np.cumsum([0] + sizes[:-1])
        assert all(start % window == 0 for start in starts)


@pytest.mark.parametrize("tv, message", [(math.nan, "epsilon must be finite, got nan"), (1.0 + 2e-9, "epsilon must be in [0, 1], got 1.000000002"), (1.0 + 5e-10, None)])
def test_campaign_refuses_a_tv_the_verdict_refuses(monkeypatch, tv, message):
    # ledgers reporting the third trial's tv of each batch of 10 as `tv`: the campaign raises the
    # verdict's refusal, and a tv the verdict clamps changes nothing
    real = verify._walk

    def faulty(W, *args):
        tb = real(W, *args)
        if W.shape[1] > 2:
            tb.initial_tv = tb.initial_tv[:2] + [tv] + tb.initial_tv[3:]
        return tb

    monkeypatch.setattr(walk, "_CHUNK_CELLS", 10 * 6)
    expected = verify_trials(3, 2, 25, seed=11)
    monkeypatch.setattr(verify, "_walk", faulty)
    if message is None:
        assert bounds._verdict(0.1, tv, 3).holds
        assert verify_trials(3, 2, 25, seed=11) == expected
        return
    with pytest.raises(ValidationError) as own:
        bounds._verdict(0.1, tv, 3)
    assert str(own.value) == message
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        verify_trials(3, 2, 25, seed=11)


@pytest.mark.parametrize("eps", [None, 0.1])
def test_a_campaign_keeps_at_most_256_generators_alive(monkeypatch, eps):
    # a 2 x 1 campaign of 1 000 trials is one batch of four windows; each window's generators (one
    # stream, and a second for the perturbation's keys at an eps) are counted while they live
    live, peak, made = [0], [0], [0]

    class Counted(np.random.Generator):  # numpy's Generator takes no weak reference; a subclass does
        pass

    def release():
        live[0] -= 1

    def counted(bit_generator):
        rng = Counted(bit_generator)
        made[0] += 1
        live[0] += 1
        peak[0] = max(peak[0], live[0])
        weakref.finalize(rng, release)
        return rng

    expected = verify_trials(2, 1, 1000, 3, eps=eps)
    monkeypatch.setattr(np.random, "Generator", counted)
    assert verify_trials(2, 1, 1000, 3, eps=eps) == expected
    streams = 1 if eps is None else 2
    assert made[0] == 4 * streams
    assert live[0] == 0
    assert peak[0] == streams


def test_batch_size_follows_the_cell_budget(monkeypatch):
    sizes = []
    real = verify._walk

    def recording(W, *args):
        sizes.append(W.shape[1])
        return real(W, *args)

    monkeypatch.setattr(verify, "_walk", recording)

    def batches(*args, **kwargs):
        sizes.clear()
        verify_trials(*args, **kwargs)
        return list(sizes)

    assert batches(3, 2, 1, seed=1) == [1]
    assert batches(3, 2, 25, seed=1) == [25]
    monkeypatch.setattr(walk, "_CHUNK_CELLS", 10 * 6)  # 10 blocks: whole windows of 8
    assert batches(3, 2, 25, seed=1) == [8, 8, 8, 1]
    assert batches(3, 2, 1, seed=1) == [1]
    monkeypatch.setattr(walk, "_CHUNK_CELLS", 5)  # a grid past the budget is a batch of one
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
        grid_search_max_gap(3, 3, 0.3, 10)
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
    with pytest.raises(ValidationError, match=r"epsilon must be in \(0, "):
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
    # every composition by its bar positions, each turned into its runs of units in a plain loop
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


def _reference_entropies(counts, nx, ny, steps):
    # each point's H(X|Y) block by block, one point per row of `counts`: x*log2(x) of a block's mass,
    # its summed count over steps, minus its cells' terms added down the rows, and the blocks' terms
    # added in order; add.accumulate adds strictly left to right, whatever the number of terms
    grids = counts.reshape(-1, nx, ny).astype(np.int64)
    cells = np.add.accumulate(_xlog2x_arr(grids / float(steps)), axis=1)[:, -1]
    terms = _xlog2x_arr(grids.sum(axis=1) / float(steps)) - cells
    return np.add.accumulate(terms, axis=1)[:, -1]


def _reference_scan(h_values, counts, max_l1):
    # the row-major int64 pair scan the column scan replaced, over every point: the largest gap
    order = np.argsort(h_values, kind="stable")
    h_sorted = h_values[order]
    counts_sorted = counts[order]
    n = len(h_sorted)
    best = -1.0
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
        gap = float(h_sorted[lo + int(feasible[-1])] - h_sorted[a])
        if gap > best:
            best = gap
    return max(best, 0.0)


def _reference_grid_search(nx, ny, eps, steps):
    # the loop scan over every point, with each point's entropy its canonical point's (the search's
    # definition) and with its own (the definition before it): (orbit-valued, point-valued) maxima
    counts = _reference_compositions(steps, nx * ny)
    h = _reference_entropies(counts, nx, ny, steps)
    own, orbit = _reference_orbit_codes(counts.T, nx, ny, steps)
    canonical = own == orbit
    h_of = dict(zip(own[canonical].tolist(), h[canonical].tolist()))
    h_orbit = np.array([h_of[code] for code in orbit.tolist()])
    max_l1 = int(math.floor(2.0 * eps * steps + 1e-9))
    return _reference_scan(h_orbit, counts, max_l1), _reference_scan(h, counts, max_l1)


def _descending(values):
    # the arrays of `values` sorted elementwise, largest first, by a network of maximum and minimum
    values = list(values)
    for end in range(len(values) - 1, 0, -1):
        for i in range(end):
            values[i], values[i + 1] = np.maximum(values[i], values[i + 1]), np.minimum(values[i], values[i + 1])
    return values


def _code(digits, base):
    # the int64 number whose digits in `base` are `digits`, most significant first, elementwise
    code = digits[0].astype(np.int64)
    for d in digits[1:]:
        code *= base
        code += d
    return code


def _reference_orbit_codes(rows, nx, ny, steps):
    # each point's own code and its orbit's code, for the points of `rows` (one row per cell), as the
    # search named orbits before it generated their canonical points: a point's code reads its counts
    # as digits in base steps + 1, block by block; its orbit's code is that of the orbit's canonical
    # point (each block's rows sorted largest first, then the blocks sorted largest first by their
    # codes). Two points share an orbit code exactly when a block symmetry maps one onto the other, and
    # the canonical point is the one whose two codes agree. Both fit int64 up to 9 cells at 101 steps.
    base = steps + 1
    blocks = [rows[y::ny] for y in range(ny)]
    orbit = _code(_descending([_code(_descending(block), base) for block in blocks]), base**nx)
    return _code([row for block in blocks for row in block], base), orbit


@pytest.mark.parametrize("total,parts", [(0, 3), (1, 1), (3, 1), (5, 3), (16, 6), (100, 2), (12, 8), (22, 6)])
def test_compositions_match_the_loop_reference(total, parts):
    # one contiguous int8 row per cell, one column per composition
    rows = _compositions(total, parts)
    assert rows.dtype == np.int8 and rows.flags.c_contiguous
    assert rows.shape == (parts, math.comb(total + parts - 1, parts - 1))
    assert (rows.sum(axis=0) == total).all()
    np.testing.assert_array_equal(rows, _reference_compositions(total, parts).T)


BIT_IDENTITY_CONFIGS = [
    (3, 2, 0.3, 10), (3, 2, 0.6, 6), (2, 3, 0.2, 10), (2, 3, 0.5, 6),
    (2, 1, 0.05, 100), (2, 1, 0.3, 100), (2, 1, 0.5, 100), (3, 1, 1.0 - 1.0 / 3, 20),
    (2, 1, 0.3, 1), (3, 2, 0.3, 1), (2, 3, 0.5, 1),
    (3, 1, 0.4, 30), (2, 2, 0.3, 20),
    (3, 2, 0.3, 16), (2, 3, 0.2, 16), (2, 2, 0.3, 40), (6, 1, 0.3, 14), (3, 2, 0.1, 12), (2, 3, 0.33, 12),
    (3, 2, 0.01, 8), (2, 1, 0.004, 100),
    # ties: many orbits within delta of pass 1's best, or many points at the maximum
    (2, 3, 0.25, 12), (2, 2, 0.05, 40),
    # counts reach 101 and L1 distances 202, the range edges of the scan's int8 differences and
    # uint8 distances; at eps 0.1 a distance past 127 read as a signed byte would pass as feasible
    (2, 1, 0.5, 101), (3, 1, 1.0 - 1.0 / 3, 101), (3, 1, 0.1, 101),
    # radius 0: all 969 orbits (7 140 points) tie at gap 0
    (2, 2, 1e-9, 33),
]
# the most the search's max_gap may differ from the maximum over the points' own float entropies
POINT_VALUED_MARGIN = 1e-13


def _canonical(counts):
    # the canonical point of the orbit of an (nx, ny) grid of counts: each block's rows largest
    # first, then the blocks largest first
    return np.array(sorted((sorted(block, reverse=True) for block in counts.T.tolist()), reverse=True)).T


def _assert_argmax_attains(result, cfg):
    # the argmax pair lies within the radius in L1, its q is a canonical point, and the entropies of
    # the canonical points of p and q differ by exactly max_gap
    nx, ny, eps, steps = cfg
    p, q = (np.rint(g.probs * steps).astype(np.int64) for g in (result.argmax_pair.p, result.argmax_pair.q))
    assert p.sum() == q.sum() == steps
    assert np.abs(p - q).sum() <= math.floor(2.0 * eps * steps + 1e-9)
    np.testing.assert_array_equal(_canonical(q), q)
    h_p, h_q = verify._entropies(np.stack((_canonical(p).ravel(), q.ravel()), axis=1), ny, steps)
    assert h_p - h_q == result.max_gap


def _assert_matches_the_loop_references(cfg):
    orbit_valued, point_valued = _reference_grid_search(*cfg)
    result = grid_search_max_gap(*cfg)
    assert result.max_gap == orbit_valued
    assert abs(result.max_gap - point_valued) <= POINT_VALUED_MARGIN
    _assert_argmax_attains(result, cfg)


@pytest.mark.parametrize("cfg", BIT_IDENTITY_CONFIGS)
def test_grid_search_is_bit_identical_to_the_loop_reference(cfg):
    _assert_matches_the_loop_references(cfg)


# every shape the grid search admits that has a block symmetry to prune with
ORBIT_SHAPES = [(nx, ny) for nx in range(2, 9) for ny in range(1, 5) if nx * ny <= 8]


@settings(max_examples=100, deadline=None)
@given(
    shape=st.sampled_from(ORBIT_SHAPES),
    share=st.floats(1e-6, 1.0),
    steps=st.integers(1, 8),
)
def test_grid_search_is_bit_identical_to_the_loop_reference_on_random_configurations(shape, share, steps):
    nx, ny = shape
    # past six cells, at most 5 steps (792 points at 8 cells) keep the loop reference fast
    _assert_matches_the_loop_references((nx, ny, share * (1.0 - 1.0 / nx), steps if nx * ny <= 6 else min(steps, 5)))


@pytest.mark.parametrize("cfg", [(4, 2, 0.3, 4), (2, 4, 0.25, 4), (8, 1, 0.35, 4), (7, 1, 0.3, 5)])
def test_grid_search_is_bit_identical_to_the_loop_reference_past_six_cells(cfg):
    _assert_matches_the_loop_references(cfg)


def test_grid_search_scans_the_canonical_points_once(monkeypatch):
    calls = []

    def recorder(h_sorted, columns, *rest):
        calls.append(columns.copy())
        return scan(h_sorted, columns, *rest)

    scan = verify._scan
    monkeypatch.setattr(verify, "_scan", recorder)
    grid_search_max_gap(2, 3, 0.25, 12)
    rows = _compositions(12, 6)
    own, orbit = _reference_orbit_codes(rows, 2, 3, 12)
    # one scan, of each orbit's canonical point against the canonical points only
    assert len(calls) == 1
    np.testing.assert_array_equal(np.unique(calls[0], axis=1), np.unique(rows[:, own == orbit], axis=1))
    assert calls[0].shape[1] == np.count_nonzero(own == orbit)


def test_grid_search_pairs_the_argmax_blocks_as_the_orbit_distance_does(monkeypatch):
    # canonical q with blocks (4, 0), (3, 3) and b with blocks (3, 3), (2, 2), out of 10: their blocks
    # in order lie 6 apart in L1, swapped 4 apart. The scan is made to name them, and p is b swapped
    q, b = np.array([[4, 3], [0, 3]]), np.array([[3, 2], [3, 2]])

    def scan(h_sorted, columns, *rest):
        # position n - 1 - a holds the point of rank a
        position = {tuple(c): k for k, c in enumerate(columns.T.tolist())}
        low, high = (len(h_sorted) - 1 - position[tuple(g.ravel().tolist())] for g in (q, b))
        return float(h_sorted[high] - h_sorted[low]), low, high

    monkeypatch.setattr(verify, "_scan", scan)
    pair = grid_search_max_gap(2, 2, 0.2, 10).argmax_pair
    np.testing.assert_array_equal(pair.q.probs, q / 10.0)
    np.testing.assert_array_equal(pair.p.probs, b[:, ::-1] / 10.0)


@pytest.mark.parametrize("cfg", [(2, 3, 1e-9, 20), (4, 2, 1e-9, 13), (4, 2, 1e-300, 20), (8, 1, 1e-9, 20)])
def test_grid_search_at_zero_radius_returns_zero_within_a_second(cfg):
    # below 1/(2*steps_per_dim) only b = a is feasible, so every orbit ties at gap 0: 1 582, 475,
    # 3 354 and 434 orbits of 53 130, 77 520, 888 030 and 888 030 points, scanned as canonical points
    start = time.perf_counter()
    result = grid_search_max_gap(*cfg)
    assert time.perf_counter() - start < 1.0
    assert result.max_gap == 0.0
    _assert_argmax_attains(result, cfg)


def test_scan_skips_a_block_whose_candidates_rounding_leaves_empty():
    # 200 points, scanned _SCAN_ENTRIES // 200 = 163 a's at a time. Rank 0 (h = 0.0) and rank 198
    # (h = 0.2) are the only distinct points at distance 0, so the first block ends at best = 0.2.
    # The second block opens at h_a = 0.1: top_h - h_a = 0.20000000000000004 beats best, but
    # h_a + best rounds up to top_h, so no b lies above it, and the block has no candidates
    h_sorted = np.array([0.0] * 163 + [0.1] * 35 + [0.2, 0.30000000000000004])
    counts = np.array([divmod(r, 100) for r in range(200)], dtype=np.int8)
    counts[198] = counts[0]
    # position n - 1 - a holds the point of rank a
    assert verify._scan(h_sorted, np.ascontiguousarray(counts[::-1].T), 0, 1) == (0.2, 0, 198)


@pytest.mark.parametrize("cfg", [(2, 3, 0.2, 44), (3, 2, 0.3, 44)])
def test_grid_search_memory_grows_with_the_orbits_not_the_points(cfg):
    # 1.9 M grid points, about 47 000 and 36 000 orbits
    tracemalloc.start()
    try:
        grid_search_max_gap(*cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 20e6


@pytest.mark.parametrize("cfg", [(4, 2, 0.3, 10), (2, 4, 0.25, 8), (8, 1, 0.35, 20)])
def test_grid_search_reaches_the_bound_past_six_cells(cfg):
    # eps * steps is a whole number of units on these grids, which hold the extremal pair
    result = grid_search_max_gap(*cfg)
    assert abs(result.max_gap - result.bound) <= 1e-12


# ---------------------------------------------------------------- block symmetries of the grid search

@functools.cache
def _block_symmetries(nx, ny):
    # every SymmetryElement as a gather of the flat cells, read off a grid whose cells are all distinct
    cells = nx * ny
    J = JointDistribution((np.arange(cells) + 1.0).reshape(nx, ny) / (cells * (cells + 1) / 2))
    gathers = []
    for s in itertools.permutations(range(ny)):
        for rows in itertools.product(itertools.permutations(range(nx)), repeat=ny):
            moved = apply_symmetry(J, SymmetryElement(np.array(s), tuple(np.array(r) for r in rows)))
            gathers.append(np.searchsorted(J.probs.ravel(), moved.probs.ravel()))
    return np.array(gathers)


@pytest.mark.parametrize("nx,ny", ORBIT_SHAPES)
def test_block_symmetries_are_every_distinct_bijection(nx, ny):
    table = _block_symmetries(nx, ny)
    assert table.shape == (math.factorial(nx) ** ny * math.factorial(ny), nx * ny)
    assert len({tuple(g) for g in table.tolist()}) == len(table)
    assert (np.sort(table, axis=1) == np.arange(nx * ny)).all()


@pytest.mark.parametrize("nx,ny", ORBIT_SHAPES)
def test_orbit_codes_name_the_block_symmetry_orbits(nx, ny):
    steps = 6 if nx * ny <= 4 else 4
    rows = _compositions(steps, nx * ny)
    own, orbit = _reference_orbit_codes(rows, nx, ny, steps)
    assert len(np.unique(own)) == rows.shape[1]
    # a point's orbit, as the smallest of its images under every symmetry read as one number
    weights = (steps + 1) ** np.arange(nx * ny, dtype=np.int64)
    key = functools.reduce(np.minimum, (weights @ rows[g] for g in _block_symmetries(nx, ny)))
    # two points share an orbit code exactly when they share an orbit
    assert len(np.unique(orbit)) == len(np.unique(key)) == len(set(zip(orbit.tolist(), key.tolist())))


@pytest.mark.parametrize("nx,ny", ORBIT_SHAPES)
def test_scan_orbit_distance_is_the_least_distance_to_an_image(nx, ny):
    # between canonical points, the least over the pairings of the blocks of their summed L1
    # distances is the least L1 distance from a to any image g.b of b
    steps = 6 if nx * ny <= 4 else 4
    rows = _compositions(steps, nx * ny)
    own, orbit = _reference_orbit_codes(rows, nx, ny, steps)
    canonical = rows[:, own == orbit].astype(np.int64)
    columns = np.ascontiguousarray(canonical, dtype=np.int8)
    orders = list(itertools.permutations(range(ny)))
    images = canonical[_block_symmetries(nx, ny)]
    rng = np.random.default_rng(nx * 10 + ny)
    for a in rng.choice(canonical.shape[1], min(canonical.shape[1], 8), replace=False):
        expected = np.abs(images - canonical[:, a, None]).sum(axis=1).min(axis=0)
        np.testing.assert_array_equal(verify._distances(columns, columns[:, [a], None], orders)[0], expected)


@pytest.mark.parametrize("nx,ny", ORBIT_SHAPES)
def test_block_symmetries_keep_equivocation_and_distance(nx, ny):
    rng = np.random.default_rng(nx * 10 + ny)
    table = _block_symmetries(nx, ny)
    if len(table) > 1152:
        # 7x1 and 8x1: 1152 symmetries drawn at random, as many as 4x2 has
        table = table[np.random.default_rng(len(table)).choice(len(table), 1152, replace=False)]
    for _ in range(5):
        p, q = rng.dirichlet(np.ones(nx * ny)), rng.dirichlet(np.ones(nx * ny))
        # entries on a 2^-12 lattice: every TV sum is exact, in any order
        dp, dq = (rng.multinomial(4096, v) / 4096.0 for v in (p, q))
        for pair in ((p, q), (dp, dq)):
            P, Q = (JointDistribution(v.reshape(nx, ny)) for v in pair)
            h, tv = conditional_entropy(P), tv_distance(P, Q)
            for g in table:
                gP, gQ = (JointDistribution(v[g].reshape(nx, ny)) for v in pair)
                assert abs(conditional_entropy(gP) - h) <= 1e-15
                if pair[0] is dp:
                    assert tv_distance(gP, gQ) == tv
                else:
                    # a reordered float sum of |p - q| may round differently
                    assert abs(tv_distance(gP, gQ) - tv) <= 1e-15


@pytest.mark.parametrize("nx,ny,steps", [(3, 2, 16), (2, 3, 16), (2, 2, 40), (4, 2, 8), (2, 4, 8)])
def test_orbit_rounding_is_far_inside_the_margin(nx, ny, steps):
    # orbit-mates' own entropies differ by rounding only (4.4e-16 at most here); a gap between two
    # points moves by at most twice that, and an ulp, when each takes its canonical point's entropy
    rows = _compositions(steps, nx * ny)
    h = verify._entropies(rows, ny, steps)
    worst = max(float(np.abs(verify._entropies(rows[g], ny, steps) - h).max()) for g in _block_symmetries(nx, ny))
    assert 2.0 * worst <= POINT_VALUED_MARGIN / 10


@pytest.mark.parametrize("nx,ny,steps", [(2, 1, 7), (3, 2, 5), (2, 3, 4), (6, 1, 4), (2, 2, 6), (4, 2, 4), (8, 1, 5)])
def test_every_orbit_has_exactly_one_canonical_point(nx, ny, steps):
    rows = _compositions(steps, nx * ny)
    own, orbit = _reference_orbit_codes(rows, nx, ny, steps)
    canonical = own == orbit
    # each orbit code is held by exactly one point whose two codes agree
    assert sorted(orbit[canonical].tolist()) == np.unique(orbit).tolist()
    # and that point is the one with rows non-increasing in each block, blocks in non-increasing order
    grids = rows.T.reshape(-1, nx, ny)
    rows_sorted = (np.diff(grids, axis=1) <= 0).all(axis=(1, 2))
    blocks = [tuple(b) for b in grids.transpose(0, 2, 1).tolist()]
    blocks_sorted = np.array([all(u >= v for u, v in zip(g, g[1:])) for g in blocks])
    np.testing.assert_array_equal(canonical, rows_sorted & blocks_sorted)


# the grid_search bench workload's configurations, as (nx, ny, steps)
BENCH_GRIDS = [(2, 1, 100), (2, 2, 40), (3, 2, 16), (2, 3, 16), (3, 2, 22)]


@pytest.mark.parametrize("nx,ny,steps", [(nx, ny, None) for nx, ny in ORBIT_SHAPES] + BENCH_GRIDS)
def test_orbit_points_are_the_canonical_points_in_enumeration_order(nx, ny, steps):
    for total in range(1, 9) if steps is None else [steps]:
        rows = _compositions(total, nx * ny)
        own, orbit = _reference_orbit_codes(rows, nx, ny, total)
        points = verify._orbit_points(total, nx, ny)
        assert points.dtype == np.int8 and points.flags.c_contiguous
        np.testing.assert_array_equal(points, rows[:, own == orbit])


@pytest.mark.parametrize("nx,ny", [(3, 2), (2, 3), (7, 1), (4, 2), (2, 4), (8, 1)])
def test_entropies_have_the_bits_of_the_loop_reference(nx, ny):
    rows = _compositions(12, nx * ny)
    expected = _reference_entropies(rows.T, nx, ny, 12)
    np.testing.assert_array_equal(verify._entropies(rows, ny, 12), expected)
    # each point's bits do not depend on the other points: the search computes a subset's entropies on their own
    subset = np.random.default_rng(nx * 10 + ny).choice(rows.shape[1], 500, replace=False)
    np.testing.assert_array_equal(verify._entropies(rows.take(subset, axis=1), ny, 12), expected[subset])


@pytest.mark.parametrize("nx,ny,steps", [(3, 3, 6), (5, 2, 5), (2, 5, 5), (4, 3, 4), (2, 6, 5), (12, 1, 5)])
def test_entropies_past_eight_cells(nx, ny, steps):
    # the search stops at 8 cells; its entropies do not: each point has the loop reference's bits and
    # is within 1e-14 of conditional_entropy, and a point whose every block holds its mass in one cell
    # gets exactly 0.0 (every other point a positive value)
    assert nx * ny > verify.DESK_SCALE_CELLS == 8
    rows = _compositions(steps, nx * ny)
    h = verify._entropies(rows, ny, steps)
    np.testing.assert_array_equal(h, _reference_entropies(rows.T, nx, ny, steps))
    for row, value in zip(rows.T, h.tolist()):
        assert abs(value - conditional_entropy(JointDistribution(row.reshape(nx, ny) / float(steps)))) <= 1e-14
    one_cell = (np.count_nonzero(rows.reshape(nx, ny, -1), axis=0) <= 1).all(axis=0)
    assert one_cell.any() and (h[one_cell] == 0.0).all() and (h[~one_cell] > 0.0).all()


def test_entropies_match_conditional_entropy():
    rows = _compositions(9, 6)
    h = verify._entropies(rows, 2, 9)
    for row, value in zip(rows.T[::97], h[::97]):
        assert value == pytest.approx(conditional_entropy(JointDistribution(row.reshape(3, 2) / 9.0)), abs=1e-14)
