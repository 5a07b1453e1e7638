import math

import mpmath
import numpy as np
import pytest

from equibound import (
    DistributionPair,
    JointDistribution,
    ValidationError,
    check_bound,
    conditional_entropy,
    continuity_bound,
    extremal_pair,
    run_walk,
    tv_distance,
)
from equibound import bounds
from equibound.bounds import _bound, _verdict
from test_walk_properties import _grid

# frozen from a 60-digit mpmath evaluation
BOUND_QUARTER_4 = 1.207518749639422   # 0.25*log2(3) + h(0.25)
H_03 = 0.8812908992306926             # binary entropy at 0.3


# ---------------------------------------------------------------- continuity_bound

def test_bound_at_half_for_two_outcomes():
    result = continuity_bound(0.5, 2)
    assert result.value == 1.0
    assert not result.clamped


def test_bound_at_zero():
    assert continuity_bound(0.0, 4).value == 0.0


def test_bound_quarter_four():
    assert continuity_bound(0.25, 4).value == pytest.approx(BOUND_QUARTER_4, abs=1e-15)


@pytest.mark.parametrize("nx", [2, 3, 4, 5, 6])
def test_bound_clamps_beyond_formula_range(nx):
    result = continuity_bound(1.0 - 1.0 / nx + 0.01, nx)
    assert result.clamped
    assert result.value == math.log2(nx)


@pytest.mark.parametrize("nx", [2, 3, 4, 5, 6])
def test_bound_hits_log_nx_at_range_edge(nx):
    result = continuity_bound(1.0 - 1.0 / nx, nx)
    assert not result.clamped
    assert result.value == pytest.approx(math.log2(nx), abs=1e-12)


@pytest.mark.parametrize("nx", [2, 3, 1000])
@pytest.mark.parametrize("eps", [1e-17, 1e-12, 1e-9, 0.3, None], ids=["1e-17", "1e-12", "1e-9", "0.3", "edge"])
def test_bound_relative_accuracy(eps, nx):
    eps = 1.0 - 1.0 / nx if eps is None else eps
    with mpmath.workdps(60):
        e = mpmath.mpf(eps)
        exact = e * mpmath.log(nx - 1, 2) - (e * mpmath.log(e, 2) + (1 - e) * mpmath.log(1 - e, 2))
        rel = abs((mpmath.mpf(continuity_bound(eps, nx).value) - exact) / exact)
    # a few units of double rounding: the formula adds two rounded terms
    assert rel <= 4 * 2.0**-53


@pytest.mark.parametrize("nx", [2, 3, 5])
def test_bound_monotone_on_formula_range(nx):
    edge = 1.0 - 1.0 / nx
    grid = np.arange(0.0, edge + 1e-12, 1e-3)
    values = [continuity_bound(e, nx).value for e in grid]
    assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))
    assert all(v <= math.log2(nx) + 1e-12 for v in values)


def test_bound_domain_errors():
    with pytest.raises(ValidationError):
        continuity_bound(0.5, 1)
    with pytest.raises(ValidationError):
        continuity_bound(-0.1, 2)
    with pytest.raises(ValidationError):
        continuity_bound(1.1, 2)


def test_bound_on_an_alphabet_past_the_float_range():
    # 1 / nx is correctly rounded for any int nx, where 1.0 / nx overflows
    result = continuity_bound(0.5, 10**400)
    assert (result.value, result.clamped) == (665.3856189774725, False)


@pytest.mark.parametrize("nx", [2, 3, 10, 10**6, 10**400], ids=["2", "3", "10", "1e6", "1e400"])
def test_bound_core_is_the_checked_bounds_value(nx):
    # the unchecked core the verdict and the walk's final check call has continuity_bound's bits,
    # from the smallest subnormal through the edge 1 - 1/nx to the clamp past it
    edge = 1.0 - 1 / nx
    for eps in (0.0, 5e-324, 1e-300, 1e-12, 0.1, 0.5, edge, edge + 1e-13, 1.0):
        assert _bound(eps, nx).hex() == continuity_bound(eps, nx).value.hex(), eps
    # past the edge the envelope, where 1 / nx is not below float resolution
    assert continuity_bound(edge + 1e-13, nx).clamped == (edge < 1.0)


@pytest.mark.parametrize("tv", [1.0 + 2e-9, math.nan, math.inf, -1e-9])
def test_verdict_refuses_a_tv_outside_the_probabilities(monkeypatch, tv):
    # the verdict validates the tv it is given before the unchecked core sees it, and check_bound
    # raises with it
    with pytest.raises(ValidationError, match="epsilon must be"):
        _verdict(0.1, tv, 3)
    monkeypatch.setattr(bounds, "_orientation", lambda W: (False, (tv,), (0.1,)))
    J = JointDistribution([[0.5, 0.5], [0.0, 0.0]])
    with pytest.raises(ValidationError, match="epsilon must be"):
        check_bound(DistributionPair(J, J))


def test_verdict_clamps_a_tv_within_the_tolerance():
    # a tv up to 1e-9 past 1 is 1, as continuity_bound clamps it
    assert _verdict(0.1, 1.0 + 5e-10, 3).bound_at_tv == continuity_bound(1.0, 3).value == math.log2(3)


# ---------------------------------------------------------------- extremal_pair

def test_extremal_half_two():
    pair = extremal_pair(0.5, 2, 1)
    assert pair.q == JointDistribution([[1.0], [0.0]])
    assert pair.p == JointDistribution([[0.5], [0.5]])
    gap = conditional_entropy(pair.p) - conditional_entropy(pair.q)
    assert gap == continuity_bound(0.5, 2).value == 1.0


def test_extremal_gap_full_range_four():
    # H(p) = 0.75*log2(3) + h(0.75) = 2 = log2(4), frozen oracle value
    pair = extremal_pair(0.75, 4, 1)
    gap = conditional_entropy(pair.p) - conditional_entropy(pair.q)
    assert gap == pytest.approx(2.0, abs=1e-12)


def test_extremal_multi_block():
    pair = extremal_pair(0.3, 2, 3)
    assert pair.q.probs[0, 0] == 1.0
    assert pair.q.probs.sum() == 1.0
    assert np.allclose(pair.p.probs[:, 0], [0.7, 0.3], atol=1e-15)
    assert np.all(pair.p.probs[:, 1:] == 0.0)
    gap = conditional_entropy(pair.p) - conditional_entropy(pair.q)
    assert gap == pytest.approx(H_03, abs=1e-12)


def test_extremal_tv_equals_epsilon():
    for nx in (2, 3, 4, 5):
        for eps in (0.1, 0.25, 1.0 - 1.0 / nx):
            pair = extremal_pair(eps, nx, 2)
            assert tv_distance(pair.p, pair.q) == pytest.approx(eps, abs=1e-14)


def test_extremal_guards_the_grid_size():
    with pytest.raises(ValidationError, match="grid-size guard"):
        extremal_pair(0.3, 3, 10**11)


def test_extremal_domain_errors():
    with pytest.raises(ValidationError):
        extremal_pair(0.0, 2, 1)
    with pytest.raises(ValidationError):
        extremal_pair(0.51, 2, 1)
    with pytest.raises(ValidationError):
        extremal_pair(0.3, 1, 1)
    with pytest.raises(ValidationError):
        extremal_pair(0.3, 2, 0)


@pytest.mark.parametrize("nx", [2, 3, 7])
def test_extremal_admits_float_noise_at_the_range_edge(nx):
    edge = 1.0 - 1.0 / nx
    pair = extremal_pair(edge + 5e-13, nx)
    assert tv_distance(pair.p, pair.q) == pytest.approx(edge, abs=1e-12)
    with pytest.raises(ValidationError, match=r"epsilon must be in \(0, "):
        extremal_pair(edge + 2e-12, nx)


@pytest.mark.parametrize("nx", [2, 3, 4, 5])
def test_extremal_saturates_across_eps_grid(nx):
    edge = 1.0 - 1.0 / nx
    for k in range(1, 21):
        eps = k * edge / 20.0
        result = check_bound(extremal_pair(eps, nx, 1))
        assert abs(result.slack) <= 1e-12


# ---------------------------------------------------------------- check_bound

def test_check_bound_identical_pair():
    J = JointDistribution([[0.3, 0.2], [0.1, 0.4]])
    result = check_bound(DistributionPair(J, J))
    assert result.gap == 0.0
    assert result.tv == 0.0
    assert result.holds
    assert result.slack == result.bound_at_tv


def test_check_bound_second_saturating_family():
    # hand-computed: gap = 1 - 0, tv = 0.5, bound(0.5, 2) = 1
    p = JointDistribution([[0.25, 0.25], [0.25, 0.25]])
    q = JointDistribution([[0.5, 0.5], [0.0, 0.0]])
    result = check_bound(DistributionPair(p, q))
    assert result.gap == pytest.approx(1.0, abs=1e-12)
    assert result.tv == 0.5
    assert result.bound_at_tv == pytest.approx(1.0, abs=1e-12)
    assert abs(result.slack) <= 1e-12
    assert result.holds


def test_check_bound_holds_on_random_pairs():
    rng = np.random.default_rng(1234)
    for _ in range(300):
        nx, ny = int(rng.integers(2, 6)), int(rng.integers(1, 5))
        p = JointDistribution(rng.dirichlet(np.ones(nx * ny)).reshape(nx, ny))
        q = JointDistribution(rng.dirichlet(np.ones(nx * ny)).reshape(nx, ny))
        assert check_bound(DistributionPair(p, q)).holds


def test_check_bound_is_the_walks_initial_measurement():
    # one number per pair: check_bound's gap and tv are run_walk's initial gap and tv, bit for bit, on the
    # walk property tests' kinds and on Dirichlet pairs, including tall blocks, single blocks and zero-mass blocks
    rng = np.random.default_rng(77)
    kinds = ("sparse", "quantized", "tiny")
    grids = []
    for nx in (2, 3, 8, 9, 30):
        for ny in (1, 2, 4, 9):
            grids += [(_grid(a, nx, ny, rng), _grid(b, nx, ny, rng)) for a in kinds for b in kinds]
            P, Q = rng.dirichlet(np.ones(nx * ny), size=2).reshape(2, nx, ny)
            if ny > 1:
                P[:, 0] = 0.0  # a zero-mass block
                P /= P.sum()
            grids.append((P, Q))
    for p, q in grids:
        pair = DistributionPair(JointDistribution(p), JointDistribution(q))
        result, trace = check_bound(pair), run_walk(pair, "none")
        assert (result.gap.hex(), result.tv.hex()) == (trace.initial_gap.hex(), trace.initial_tv.hex())


def test_verdict_tolerance_at_literal_gaps():
    # the literals, not the tolerance constant: a gap 2e-9 past the bound is a violation, one 5e-10 past it is not
    bound = continuity_bound(0.3, 3).value
    over = _verdict(bound + 2e-9, 0.3, 3)
    assert over.bound_at_tv == bound and not over.holds
    assert _verdict(bound + 5e-10, 0.3, 3).holds


def test_check_bound_requires_two_outcomes():
    J = JointDistribution([[0.5, 0.5]])
    with pytest.raises(ValidationError):
        check_bound(DistributionPair(J, J))
