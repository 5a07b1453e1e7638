"""Tight continuity bound for conditional Shannon entropy in total variation distance.

The library exposes four layers: probability grids with entropy/distance
functionals and their block symmetries (`core`), the bound formula with its
saturating construction (`bounds`), the invariant-checked simplex walk
(`walk`), and a desk-scale verification harness (`verify`). The `equibound`
CLI wraps all of it behind JSON-in/JSON-out subcommands.
"""

from .core import (
    DistributionPair,
    JointDistribution,
    SymmetryElement,
    ValidationError,
    apply_symmetry,
    binary_entropy,
    conditional_entropy,
    entropy,
    marginal,
    tv_distance,
    xlog2x,
)
from .bounds import (
    BoundCheck,
    BoundResult,
    check_bound,
    continuity_bound,
    extremal_pair,
)
from .walk import (
    InvariantViolation,
    WalkStep,
    WalkTrace,
    average_blocks,
    canonical_orient,
    reorder,
    run_walk,
)
from .verify import (
    GridSearchResult,
    TrialReport,
    grid_search_max_gap,
    perturb_within_tv,
    sample_joint,
    verify_trials,
)

__version__ = "0.1.0"

__all__ = [
    "BoundCheck",
    "BoundResult",
    "DistributionPair",
    "GridSearchResult",
    "InvariantViolation",
    "JointDistribution",
    "SymmetryElement",
    "TrialReport",
    "ValidationError",
    "WalkStep",
    "WalkTrace",
    "apply_symmetry",
    "average_blocks",
    "binary_entropy",
    "canonical_orient",
    "check_bound",
    "conditional_entropy",
    "continuity_bound",
    "entropy",
    "extremal_pair",
    "grid_search_max_gap",
    "marginal",
    "perturb_within_tv",
    "reorder",
    "run_walk",
    "sample_joint",
    "tv_distance",
    "verify_trials",
    "xlog2x",
]
