import json
import math

import mpmath
import numpy as np
import pytest

from equibound import (
    DistributionPair,
    JointDistribution,
    SymmetryElement,
    ValidationError,
    apply_symmetry,
    average_blocks,
    binary_entropy,
    conditional_entropy,
    continuity_bound,
    entropy,
    extremal_pair,
    grid_search_max_gap,
    marginal,
    perturb_within_tv,
    tv_distance,
    verify_trials,
    xlog2x,
)
from equibound.core import _xlog2x_arr

# high-precision reference values (frozen from a 60-digit mpmath evaluation)
H_QUARTER = 0.8112781244591328  # binary entropy at 0.25


# ---------------------------------------------------------------- xlog2x

@pytest.mark.parametrize("x,expected", [(0.0, 0.0), (1.0, 0.0), (0.5, -0.5)])
def test_xlog2x_values(x, expected):
    assert xlog2x(x) == expected


def test_xlog2x_clamps_tiny_negative():
    assert xlog2x(-1e-13) == 0.0


@pytest.mark.parametrize("x", [-1e-11, 1.0 + 1e-8, 2.0, float("nan"), float("inf")])
def test_xlog2x_domain_errors(x):
    with pytest.raises(ValidationError):
        xlog2x(x)


# ---------------------------------------------------------------- binary entropy

@pytest.mark.parametrize("eps,expected", [(0.0, 0.0), (1.0, 0.0), (0.5, 1.0)])
def test_binary_entropy_exact(eps, expected):
    assert binary_entropy(eps) == expected


def test_binary_entropy_quarter():
    assert binary_entropy(0.25) == pytest.approx(H_QUARTER, abs=1e-15)


def test_binary_entropy_symmetric():
    for eps in np.linspace(0.0, 1.0, 41):
        assert binary_entropy(eps) == pytest.approx(binary_entropy(1.0 - eps), abs=1e-12)


@pytest.mark.parametrize("eps", [1e-17, 1e-12, 1e-9, 0.3, 0.9999])
def test_binary_entropy_relative_accuracy(eps):
    with mpmath.workdps(60):
        e = mpmath.mpf(eps)
        exact = -(e * mpmath.log(e, 2) + (1 - e) * mpmath.log(1 - e, 2))
        rel = abs((mpmath.mpf(binary_entropy(eps)) - exact) / exact)
    # two units of double rounding; with log2(1 - eps) the value was 2.5% low at 1e-17
    assert rel <= 2 * 2.0**-53


def test_binary_entropy_domain_error():
    with pytest.raises(ValidationError):
        binary_entropy(1.1)


# ---------------------------------------------------------------- entropy

def test_entropy_uniform_four():
    assert entropy([0.25, 0.25, 0.25, 0.25]) == 2.0


def test_entropy_point_mass():
    assert entropy([1.0, 0.0]) == 0.0
    # +0.0, not -0.0
    for v in ([1.0], [1.0, 0.0], []):
        assert math.copysign(1.0, entropy(v)) == 1.0


def test_entropy_weighted():
    # brute-force sum: 0.5*1 + 0.25*2 + 0.25*2
    assert entropy([0.5, 0.25, 0.25]) == pytest.approx(1.5, abs=1e-15)


def test_entropy_subnormalized_allowed():
    assert entropy([0.25, 0.25]) == pytest.approx(1.0, abs=1e-15)


def test_entropy_negative_entry_rejected():
    with pytest.raises(ValidationError):
        entropy([0.5, -1e-3])


def test_entropy_range_on_random_vectors():
    rng = np.random.default_rng(2101)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        v = rng.dirichlet(np.ones(n))
        h = entropy(v)
        assert -1e-12 <= h <= math.log2(n) + 1e-12


# ---------------------------------------------------------------- joint grids

def test_joint_clamps_tiny_negative():
    J = JointDistribution([[0.5, -1e-13], [0.25, 0.25]])
    assert J.probs[0, 1] == 0.0


def test_joint_rejects_bad_mass():
    with pytest.raises(ValidationError, match="mass"):
        JointDistribution([[0.6], [0.5]])


def test_joint_mass_tolerance_at_literal_masses():
    # the literals, not the tolerance constant: 2e-9 of excess mass is refused, 5e-10 admitted
    with pytest.raises(ValidationError, match="mass"):
        JointDistribution([[0.5], [0.5 + 2e-9]])
    JointDistribution([[0.5], [0.5 + 5e-10]])


def test_joint_rejects_negative_beyond_tolerance():
    with pytest.raises(ValidationError, match="negative"):
        JointDistribution([[1.0, -1e-3], [0.0, 1e-3]])


def test_joint_rejects_nan_and_inf():
    with pytest.raises(ValidationError, match="finite"):
        JointDistribution([[float("nan")], [1.0]])
    with pytest.raises(ValidationError, match="finite"):
        JointDistribution([[float("inf")], [0.0]])


def test_joint_rejects_entry_above_one():
    # the entry is named, before the total mass is checked
    with pytest.raises(ValidationError, match=r"probs\[0\]\[0\] = 1.000000002 exceeds 1"):
        JointDistribution([[1.0 + 2e-9], [0.0]])
    with pytest.raises(ValidationError, match="negative"):
        JointDistribution([[1.5], [-0.5]])


def test_joint_rejects_bad_shape():
    with pytest.raises(ValidationError):
        JointDistribution([0.5, 0.5])
    with pytest.raises(ValidationError):
        JointDistribution(np.ones((2, 0)))


_HALVES = JointDistribution([[0.5], [0.5]])


@pytest.mark.parametrize(
    "fn, args",
    [
        (continuity_bound, ("x", 2)),
        (extremal_pair, ("x", 2)),
        (grid_search_max_gap, (2, 1, "x", 10)),
        (verify_trials, (2, 1, 1, 0, "x")),
        (xlog2x, ("x",)),
        (binary_entropy, (None,)),
        (perturb_within_tv, (_HALVES, None, 0)),
        (JointDistribution, ([[object()]],)),
        (conditional_entropy, (_HALVES, [])),
        (JointDistribution, ([[0.5], [0.25, 0.25]],)),
        (entropy, ([[0.5], [0.5, 0.0]],)),
    ],
)
def test_non_numbers_raise_validation_errors(fn, args):
    # a value float() or numpy cannot convert, or an unhashable formula, is refused like any bad
    # input, not left to escape as numpy's or Python's own ValueError or TypeError
    with pytest.raises(ValidationError):
        fn(*args)


def test_joint_is_immutable():
    J = JointDistribution([[0.5], [0.5]])
    with pytest.raises(ValueError):
        J.probs[0, 0] = 0.9
    with pytest.raises(AttributeError):
        J.probs = np.ones((1, 1))


def test_joint_equality_is_bitwise():
    a = JointDistribution([[0.5, 0.25], [0.0, 0.25]])
    b = JointDistribution([[0.5, 0.25], [0.0, 0.25]])
    c = JointDistribution([[0.25, 0.5], [0.25, 0.0]])
    assert a == b
    assert a != c
    # a grid is never equal to its nested lists
    assert a.__eq__(a.to_lists()) is NotImplemented
    assert (a == a.to_lists()) is False


def test_joint_repr():
    assert repr(JointDistribution([[1.0], [0.0]])) == "JointDistribution(nx=2, ny=1, probs=[[1.0], [0.0]])"


def _per_element_lists(J):
    return [[float(x) for x in row] for row in J.probs]


def test_to_lists_matches_per_element_floats():
    rng = np.random.default_rng(31)
    J = JointDistribution(rng.dirichlet(np.full(48, 0.3)).reshape(6, 8))
    # average_blocks builds its grid from a read-only broadcast view
    for grid in (J, average_blocks(J)):
        lists = grid.to_lists()
        assert lists == _per_element_lists(grid)
        assert json.dumps(lists) == json.dumps(_per_element_lists(grid))
        assert len(lists) == grid.nx and all(len(row) == grid.ny for row in lists)
        assert all(type(x) is float for row in lists for x in row)


def test_pair_shape_mismatch():
    with pytest.raises(ValidationError, match="mismatch"):
        DistributionPair(JointDistribution([[1.0]]), JointDistribution([[0.5], [0.5]]))


# ---------------------------------------------------------------- marginals

def test_marginal_diagonal():
    J = JointDistribution([[0.5, 0.0], [0.0, 0.5]])
    assert np.allclose(marginal(J, "y"), [0.5, 0.5])
    assert np.allclose(marginal(J, "x"), [0.5, 0.5])


def test_marginal_hand_sums():
    J = JointDistribution([[0.1, 0.4], [0.2, 0.3]])
    assert np.allclose(marginal(J, "y"), [0.3, 0.7], atol=1e-15)


def test_marginal_bad_axis():
    with pytest.raises(ValidationError):
        marginal(JointDistribution([[1.0]]), "z")


# ---------------------------------------------------------------- conditional entropy

def test_conditional_entropy_uniform_2x2():
    J = JointDistribution([[0.25, 0.25], [0.25, 0.25]])
    assert conditional_entropy(J) == pytest.approx(1.0, abs=1e-15)


def test_conditional_entropy_deterministic():
    J = JointDistribution([[0.5, 0.0], [0.0, 0.5]])
    assert conditional_entropy(J) == pytest.approx(0.0, abs=1e-15)


def test_conditional_entropy_half_bit():
    # mixture by hand: 0.5 * 0 + 0.5 * h(0.5)
    J = JointDistribution([[0.5, 0.25], [0.0, 0.25]])
    assert conditional_entropy(J) == pytest.approx(0.5, abs=1e-14)


@pytest.mark.parametrize("formula", ["difference", "mixture", "direct"])
def test_conditional_entropy_formulas_on_example(formula):
    J = JointDistribution([[0.5, 0.25], [0.0, 0.25]])
    assert conditional_entropy(J, formula) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("formula", ["difference", "mixture", "direct"])
@pytest.mark.parametrize(
    "J",
    [
        JointDistribution([[1.0]]),
        JointDistribution([[1.0], [0.0]]),
        JointDistribution([[0.0, 0.0], [0.0, 1.0]]),
        JointDistribution([[0.5, 0.0], [0.0, 0.5]]),
        extremal_pair(0.3, 3, 2).q,
    ],
    ids=["1x1", "2x1", "2x2-corner", "2x2-diagonal", "extremal-q"],
)
def test_conditional_entropy_is_positive_zero_on_point_mass_blocks(J, formula):
    h = conditional_entropy(J, formula)
    assert h == 0.0
    assert math.copysign(1.0, h) == 1.0


def test_conditional_entropy_unknown_formula():
    with pytest.raises(ValidationError):
        conditional_entropy(JointDistribution([[1.0]]), "exact")


def test_formulas_agree_on_random_grids():
    rng = np.random.default_rng(314)
    for _ in range(300):
        nx, ny = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        J = JointDistribution(rng.dirichlet(np.ones(nx * ny)).reshape(nx, ny))
        hs = [conditional_entropy(J, f) for f in ("difference", "mixture", "direct")]
        assert max(hs) - min(hs) <= 1e-10
        assert -1e-12 <= hs[1] <= math.log2(nx) + 1e-12


# ---------------------------------------------------------------- tv distance

def _reference_mixture(P):
    # the mixture formula one grid at a time, each block divided by its mass
    my = P.sum(axis=0)
    pos = my > 0.0
    if not pos.any():
        return 0.0
    cond = P[:, pos] / my[pos]
    block_h = -_xlog2x_arr(cond).sum(axis=0)
    return float(my[pos] @ block_h)


def test_stacked_entropies_match_the_per_grid_formula():
    # bit for bit, on several grids of each shape, including tall blocks, single blocks and zero-mass blocks
    rng = np.random.default_rng(41)
    for nx in (1, 2, 3, 5, 7, 8, 9, 30):
        for ny in (1, 2, 3, 4, 9, 33):
            for count in (1, 2, 7):
                P = rng.dirichlet(np.ones(nx * ny), size=count).reshape(count, nx, ny)
                if ny > 1:
                    P[0, :, 0] = 0.0  # a zero-mass block
                    P[0] /= P[0].sum()
                assert [conditional_entropy(JointDistribution(G)) for G in P] == [_reference_mixture(G) for G in P]


def test_tv_identical_is_zero():
    J = JointDistribution([[0.3, 0.2], [0.1, 0.4]])
    assert tv_distance(J, J) == 0.0


def test_tv_disjoint_supports():
    assert tv_distance(JointDistribution([[1.0], [0.0]]), JointDistribution([[0.0], [1.0]])) == 1.0


def test_tv_half():
    assert tv_distance(JointDistribution([[0.5], [0.5]]), JointDistribution([[1.0], [0.0]])) == 0.5


def test_tv_shape_mismatch():
    with pytest.raises(ValidationError):
        tv_distance(JointDistribution([[1.0]]), JointDistribution([[0.5], [0.5]]))


def test_tv_is_a_metric_on_samples():
    rng = np.random.default_rng(99)
    for _ in range(200):
        a, b, c = (JointDistribution(rng.dirichlet(np.ones(6)).reshape(3, 2)) for _ in range(3))
        dab, dba = tv_distance(a, b), tv_distance(b, a)
        assert dab >= 0.0
        assert dab == dba
        assert dab <= tv_distance(a, c) + tv_distance(c, b) + 1e-12
    assert tv_distance(a, a) == 0.0


# ---------------------------------------------------------------- block symmetries

def test_symmetry_identity_is_fixed_point():
    J = JointDistribution([[0.5, 0.25], [0.0, 0.25]])
    assert apply_symmetry(J, SymmetryElement.identity(2, 2)) == J


def test_symmetry_uniform_is_fixed_point():
    J = JointDistribution(np.full((3, 2), 1.0 / 6.0))
    rng = np.random.default_rng(5)
    for _ in range(20):
        g = SymmetryElement.random(3, 2, rng)
        assert np.allclose(apply_symmetry(J, g).probs, J.probs, atol=0)


def test_symmetry_block_swap_example():
    J = JointDistribution([[0.5, 0.25], [0.0, 0.25]])
    g = SymmetryElement(block_perm=[1, 0], within_perms=(np.arange(2), np.arange(2)))
    out = apply_symmetry(J, g)
    assert out == JointDistribution([[0.25, 0.5], [0.25, 0.0]])
    assert conditional_entropy(out) == pytest.approx(conditional_entropy(J), abs=1e-12)


def test_symmetry_preserves_equivocation_and_tv():
    rng = np.random.default_rng(77)
    for _ in range(100):
        nx, ny = int(rng.integers(2, 6)), int(rng.integers(1, 5))
        p = JointDistribution(rng.dirichlet(np.ones(nx * ny)).reshape(nx, ny))
        q = JointDistribution(rng.dirichlet(np.ones(nx * ny)).reshape(nx, ny))
        g = SymmetryElement.random(nx, ny, rng)
        gp, gq = apply_symmetry(p, g), apply_symmetry(q, g)
        assert conditional_entropy(gp) == pytest.approx(conditional_entropy(p), abs=1e-12)
        assert tv_distance(gp, gq) == pytest.approx(tv_distance(p, q), abs=1e-12)


def test_symmetry_dimension_mismatch():
    with pytest.raises(ValidationError):
        apply_symmetry(JointDistribution([[1.0]]), SymmetryElement.identity(2, 2))


def test_symmetry_rejects_non_permutations():
    with pytest.raises(ValidationError):
        SymmetryElement(block_perm=[0, 0], within_perms=(np.arange(2), np.arange(2)))
    with pytest.raises(ValidationError):
        SymmetryElement(block_perm=[0, 1], within_perms=(np.arange(2),))
    with pytest.raises(ValidationError, match="non-empty 1-d"):
        SymmetryElement(block_perm=[], within_perms=())
    with pytest.raises(ValidationError, match="non-empty 1-d"):
        SymmetryElement(block_perm=[[0, 1]], within_perms=(np.arange(2), np.arange(2)))
