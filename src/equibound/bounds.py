"""The tight equivocation continuity bound, its saturating pair, and a bound check.

For alphabets with |X| = nx >= 2 and any conditioning alphabet, two joint
distributions within total variation eps of each other have equivocations
differing by at most

    eps * log2(nx - 1) + h(eps)        for eps in (0, 1 - 1/nx],

with h the binary entropy. The bound is saturated by a point mass paired
against a distribution spreading eps uniformly over the other nx - 1
outcomes of the same block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DistributionPair,
    JointDistribution,
    ValidationError,
    binary_entropy,
    _as_prob,
    _check_grid_size,
    _check_int,
    _check_real,
    _cond_entropies,
)

SLACK_TOL = 1e-9  # absorbs accumulated float error in entropy sums
_EDGE_TOL = 1e-12  # grace at the eps = 1 - 1/nx boundary for float inputs


@dataclass(frozen=True)
class BoundResult:
    """Value of the continuity bound at a given TV radius.

    `clamped` is set when epsilon exceeded 1 - 1/nx and the trivial
    envelope log2(nx) was returned instead of the formula.
    """

    epsilon: float
    nx: int
    value: float
    clamped: bool


@dataclass(frozen=True)
class BoundCheck:
    """Outcome of checking one pair against the bound at its measured TV."""

    gap: float
    tv: float
    bound_at_tv: float
    holds: bool
    slack: float


def _check_radius(epsilon: float, nx: int, name: str) -> float:
    """epsilon as a float in (0, 1 - 1/nx], admitting _EDGE_TOL past the upper end."""
    epsilon = _check_real(epsilon, name)
    threshold = 1.0 - 1 / nx
    if not (0.0 < epsilon <= threshold + _EDGE_TOL):
        raise ValidationError(f"{name} must be in (0, {threshold}], got {epsilon}")
    return epsilon


def continuity_bound(epsilon: float, nx: int) -> BoundResult:
    """Largest possible equivocation gap at TV radius epsilon for an X alphabet of size nx.

    Returns epsilon * log2(nx - 1) + h(epsilon) for epsilon in [0, 1 - 1/nx]
    (the value at 0 is defined by continuity); beyond that radius the
    formula no longer applies and the trivial envelope log2(nx) is returned
    with clamped = True.
    """
    nx = _check_int(nx, "nx", 2)
    epsilon = _as_prob(epsilon, "epsilon")
    threshold = 1.0 - 1 / nx
    if epsilon > threshold:
        return BoundResult(epsilon=epsilon, nx=nx, value=math.log2(nx), clamped=True)
    value = epsilon * math.log2(nx - 1) + binary_entropy(epsilon)
    return BoundResult(epsilon=epsilon, nx=nx, value=value, clamped=False)


def extremal_pair(epsilon: float, nx: int, ny: int = 1) -> DistributionPair:
    """The saturating pair at TV radius epsilon: gap equals the bound exactly.

    q puts all mass on outcome (1, 1); p keeps 1 - epsilon there and spreads
    epsilon uniformly over the other nx - 1 outcomes of block 1. All blocks
    j != 1 are zero (any block choice is equivalent under the block
    symmetries). tv(p, q) = epsilon and the equivocation gap equals
    continuity_bound(epsilon, nx).value.
    """
    nx, ny = _check_int(nx, "nx", 2), _check_int(ny, "ny", 1)
    _check_grid_size(nx, ny)
    epsilon = _check_radius(epsilon, nx, "epsilon")
    q = np.zeros((nx, ny))
    q[0, 0] = 1.0
    p = np.zeros((nx, ny))
    p[0, 0] = 1.0 - epsilon
    p[1:, 0] = epsilon / (nx - 1)
    return DistributionPair(JointDistribution(p), JointDistribution(q))


def check_bound(pair: DistributionPair) -> BoundCheck:
    """Measure a pair's equivocation gap against the bound at its measured TV.

    slack = bound_at_tv - gap; the pair `holds` when slack >= -1e-9.
    """
    return _check_bounds(pair.p.probs[None], pair.q.probs[None])[0]


def _check_bounds(P: np.ndarray, Q: np.ndarray) -> list[BoundCheck]:
    """check_bound on every pair (P[b], Q[b]) of two (B, nx, ny) stacks of grids.

    The gaps and TVs are computed for the whole stack at once, and a pair's
    values do not depend on the pairs stacked with it (see
    core._cond_entropies; each pair's TV is one flat sum). The bound is
    the scalar continuity_bound, once per pair.
    """
    nx = _check_int(P.shape[1], "nx", 2)
    tvs = (0.5 * np.abs(P - Q).reshape(len(P), -1).sum(axis=1)).tolist()
    checks = []
    for hp, hq, tv in zip(_cond_entropies(P), _cond_entropies(Q), tvs):
        gap = abs(hp - hq)
        bound_at_tv = continuity_bound(tv, nx).value
        slack = bound_at_tv - gap
        checks.append(BoundCheck(gap=gap, tv=tv, bound_at_tv=bound_at_tv, holds=bool(slack >= -SLACK_TOL), slack=slack))
    return checks
