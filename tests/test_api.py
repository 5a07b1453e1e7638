import equibound
from equibound import walk

PUBLIC_NAMES = [
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

REMOVED_NAMES = ["BlockPartition", "process_block_empty", "process_block_nonempty"]


def test_all_is_the_pinned_list():
    assert equibound.__all__ == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in PUBLIC_NAMES:
        assert getattr(equibound, name) is not None, name


def test_removed_names_are_gone():
    for name in REMOVED_NAMES:
        assert not hasattr(equibound, name), name
        assert not hasattr(walk, name), name


def test_walk_steps_stay_module_attributes():
    # instrumentation wraps these as attributes of equibound.walk
    for name in ("canonical_orient", "reorder", "average_blocks", "run_walk"):
        assert getattr(walk, name) is getattr(equibound, name), name
