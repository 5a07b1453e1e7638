"""The tight equivocation continuity bound, its saturating pair, and a bound check.

For alphabets with |X| = nx >= 2 and any conditioning alphabet, two joint
distributions within total variation eps of each other have equivocations
differing by at most

    eps * log2(nx - 1) + h(eps)        for eps in (0, 1 - 1/nx],

with h the binary entropy. The bound is saturated by a point mass paired
against a distribution spreading eps uniformly over the other nx - 1
outcomes of the same block.

check_bound measures a pair with the walk's own initial measurement, one
pass of per-Y-block terms (core._measure), so its gap and tv equal
run_walk(pair).initial_gap and .initial_tv bit for bit; verify_trials
judges its trials by check_bound's rule (_holds).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DistributionPair,
    JointDistribution,
    ValidationError,
    _as_prob,
    _binary_entropy,
    _check_grid_size,
    _check_int,
    _check_real,
    _orientation,
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


def _bound(epsilon: float, nx: int) -> float:
    """continuity_bound's value, unchecked: epsilon a float in [0, 1], nx an int >= 2."""
    if epsilon > 1.0 - 1 / nx:
        return math.log2(nx)
    return epsilon * math.log2(nx - 1) + _binary_entropy(epsilon)


def continuity_bound(epsilon: float, nx: int) -> BoundResult:
    """Largest possible equivocation gap at TV radius epsilon for an X alphabet of size nx.

    Returns epsilon * log2(nx - 1) + h(epsilon) for epsilon in [0, 1 - 1/nx]
    (the value at 0 is defined by continuity); beyond that radius the
    formula no longer applies and the trivial envelope log2(nx) is returned
    with clamped = True. The arguments are validated here; the value is
    `_bound`'s, the one formula, which the verdict and the walk's final
    check call on values already checked.
    """
    nx = _check_int(nx, "nx", 2)
    epsilon = _as_prob(epsilon, "epsilon")
    return BoundResult(epsilon=epsilon, nx=nx, value=_bound(epsilon, nx), clamped=epsilon > 1.0 - 1 / nx)


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


def _holds(slack):
    """The one verdict rule: a gap holds against its bound when slack = bound - gap >= -SLACK_TOL.

    slack is a float (check_bound) or an array of them (a campaign's batch);
    a NaN slack does not hold.
    """
    return slack >= -SLACK_TOL


def _verdict(gap: float, tv: float, nx: int) -> BoundCheck:
    """A pair's measured gap and tv against the bound at that tv, by the rule of `_holds`.

    tv is validated and clamped as continuity_bound's epsilon, then the bound is `_bound`'s, looked
    up here at each call. A campaign applies the same rule to a whole batch, with the bound the
    walk's chain cap computed at the same tv.
    """
    bound_at_tv = _bound(_as_prob(tv, "epsilon"), nx)
    slack = bound_at_tv - gap
    return BoundCheck(gap=gap, tv=tv, bound_at_tv=bound_at_tv, holds=bool(_holds(slack)), slack=slack)


def check_bound(pair: DistributionPair) -> BoundCheck:
    """Measure a pair's equivocation gap against the bound at its measured TV.

    slack = bound_at_tv - gap; the pair `holds` when slack >= -1e-9, the one
    rule (`_holds`) that verify_trials applies to its trials too. The gap
    and tv are the walk's initial measurement of the pair (see
    core._measure), so they equal run_walk(pair).initial_gap and
    initial_tv bit for bit.
    """
    nx = _check_int(pair.nx, "nx", 2)
    _, (tv,), (gap,) = _orientation(np.array((pair.p.probs, pair.q.probs)))
    return _verdict(float(gap), float(tv), nx)
