"""Joint probability grids, entropy functionals, and block symmetries.

Conventions used throughout the package:

- all logarithms are base 2, so entropies are in bits;
- 0 * log 0 = 0, and conditioning blocks with zero mass contribute 0;
- entries in [-1e-12, 0) are clamped to 0 on construction (repeated
  subtraction during simplex walks must not fail on representation noise);
- the total mass of a joint grid must be 1 within 1e-9.

A joint grid is indexed (i, j): row i ranges over the X alphabet, column j
over the Y alphabet. Storage is 0-based numpy; trace output and block
labels are 1-based.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

NEG_TOL = 1e-12   # entries below -NEG_TOL are rejected; in [-NEG_TOL, 0) clamped
UPPER_TOL = 1e-9  # slack allowed above 1.0 for probabilities
MASS_TOL = 1e-9   # total-mass tolerance for joint grids
# Cap on nx*ny for the grids the package builds from sizes alone (sample_joint,
# hence verify_trials, and extremal_pair) and for the pairs run_walk (hence the
# `walk` CLI) accepts. Peak memory grows by up to about 350 bytes per cell:
# measured 342 B per cell for the `extremal` CLI at nx=1 000 000, ny=1; a
# one-trial verify_trials grew by 90 MB at 1000 x 1000, 118-121 MB at nx=2,
# ny=500 000 (with and without eps) and 189 MB at 1 000 000 x 1, whose one
# block the walk takes as a whole range (Python 3.11, numpy 2.4), so an
# admitted grid stays under about 0.35 GB.
MAX_GRID_CELLS = 1_000_000
# Cap on the snapshots of a walk trace, in memory and in a trace file.
# walk._check_trace_size states what each holds and applies both bounds:
# run_walk and the walk subcommand refuse a pair over the cap before they walk.
MAX_TRACE_BYTES = 1 << 30
_LN2 = math.log(2.0)

Axis = Literal["x", "y"]
Formula = Literal["difference", "mixture", "direct"]


class ValidationError(ValueError):
    """Input violates a domain precondition or a distribution invariant."""


def _check_real(x, name: str) -> float:
    """x as a float, as float() makes it; ValidationError for what float() refuses as a type or a string.

    An int too large for a float still raises float()'s OverflowError.
    """
    try:
        return float(x)
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must be a real number, got {x!r}") from None


def _as_prob(x: float, name: str) -> float:
    """Validate a scalar probability, clamping tolerated excursions into [0, 1]."""
    x = _check_real(x, name)
    if not math.isfinite(x):
        raise ValidationError(f"{name} must be finite, got {x!r}")
    if x < -NEG_TOL or x > 1.0 + UPPER_TOL:
        raise ValidationError(f"{name} must be in [0, 1], got {x}")
    return min(max(x, 0.0), 1.0)


def xlog2x(x: float) -> float:
    """x * log2(x), continuously extended so that xlog2x(0) = 0.

    The building block of every entropy here: H(v) = -sum_i xlog2x(v_i).
    Raises ValidationError outside [0, 1] beyond the clamp tolerances.
    """
    x = _as_prob(x, "x")
    if x == 0.0:
        return 0.0
    return x * math.log2(x)


def binary_entropy(eps: float) -> float:
    """Entropy of a Bernoulli(eps) variable in bits: -xlog2x(eps) - xlog2x(1-eps).

    Symmetric about 1/2; 0 at the endpoints; maximum 1 at eps = 1/2.
    Evaluated at t = min(eps, 1 - eps) with log2(1-t) as log1p(-t)/ln 2,
    so the relative error stays at rounding level for tiny eps, where
    log2(1 - eps) would lose the digits of eps that 1 - eps cannot hold.
    """
    return _binary_entropy(_as_prob(eps, "eps"))


def _binary_entropy(eps: float) -> float:
    """binary_entropy's value, unchecked: eps a float in [0, 1]."""
    t = min(eps, 1.0 - eps)
    if t == 0.0:
        return 0.0
    return -(t * math.log2(t)) - (1.0 - t) * (math.log1p(-t) / _LN2)


def _check_int(value, name: str, lo: int | None = None) -> int:
    """value as an int: an int or a numpy integer, not a bool, and at least lo if lo is given."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if lo is not None and value < lo:
        raise ValidationError(f"{name} must be >= {lo}, got {value}")
    return value


def _check_grid_size(nx: int, ny: int) -> None:
    """Refuse an nx-by-ny grid past MAX_GRID_CELLS before anything is allocated."""
    if nx * ny > MAX_GRID_CELLS:
        raise ValidationError(f"nx*ny = {nx * ny} exceeds the grid-size guard {MAX_GRID_CELLS}")


def _xlog2x_arr(a: np.ndarray) -> np.ndarray:
    # non-positive entries take log2(1) = 0, so they contribute a * 0 = 0;
    # one temporary, updated in place
    out = np.where(a > 0.0, a, 1.0)
    np.log2(out, out=out)
    out *= a
    return out


def _field_path(name: str, index: np.ndarray) -> str:
    return name + "".join(f"[{int(k)}]" for k in index)


def _in_range(a: np.ndarray, lo: float, axis=None):
    """Whether the entries of `a` (all of them, or each slice along `axis`) are finite and in [lo, 1 + UPPER_TOL].

    One min and one max: a NaN propagates through both and fails both
    comparisons, an infinity fails one, and an empty array passes.
    """
    return (a.min(axis=axis, initial=np.inf) >= lo) & (a.max(axis=axis, initial=-np.inf) <= 1.0 + UPPER_TOL)


def _clean_vector(v, name: str) -> np.ndarray:
    """v as a new float64 array, its entries finite and in [0, 1] within tolerance, tolerated negatives clamped to 0."""
    try:
        a = np.array(v, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be an array of real numbers: {exc}") from None
    if not _in_range(a, -NEG_TOL):
        if not np.isfinite(a).all():
            k = np.argwhere(~np.isfinite(a))[0]
            raise ValidationError(f"{_field_path(name, k)} is not finite")
        if (a < -NEG_TOL).any():
            k = np.argwhere(a < -NEG_TOL)[0]
            raise ValidationError(f"{_field_path(name, k)} = {a[tuple(k)]} is negative beyond tolerance")
        k = np.argwhere(a > 1.0 + UPPER_TOL)[0]
        raise ValidationError(f"{_field_path(name, k)} = {a[tuple(k)]} exceeds 1 beyond tolerance")
    a[a < 0.0] = 0.0
    return a


def entropy(v) -> float:
    """Shannon entropy -sum_i xlog2x(v_i) of a (possibly sub-normalized) vector, in bits.

    Entries must be in [0, 1] within tolerance; the sum is not checked, so
    sub-normalized block vectors can be fed directly.
    """
    a = _clean_vector(v, "v")
    return float(0.0 - _xlog2x_arr(a).sum())  # not -sum: a point mass gives +0.0, not -0.0


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Immutable |X| x |Y| grid of probabilities p(i, j) with total mass 1.

    `probs` accepts any 2-d array-like; it is copied, validated (finite,
    entries >= -1e-12 with tolerated negatives clamped to 0, mass within
    1e-9 of 1) and frozen read-only.
    """

    probs: np.ndarray

    def __post_init__(self) -> None:
        a = _clean_vector(self.probs, "probs")
        if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
            raise ValidationError(f"probs must be a 2-d grid with positive dimensions, got shape {a.shape}")
        total = float(a.sum())
        if abs(total - 1.0) > MASS_TOL:
            raise ValidationError(f"total probability mass is {total}, must be 1 within {MASS_TOL}")
        a.flags.writeable = False
        object.__setattr__(self, "probs", a)

    @property
    def nx(self) -> int:
        return self.probs.shape[0]

    @property
    def ny(self) -> int:
        return self.probs.shape[1]

    def to_lists(self) -> list[list[float]]:
        return self.probs.tolist()

    def __eq__(self, other) -> bool:
        if not isinstance(other, JointDistribution):
            return NotImplemented
        return self.probs.shape == other.probs.shape and bool(np.array_equal(self.probs, other.probs))

    def __repr__(self) -> str:
        return f"JointDistribution(nx={self.nx}, ny={self.ny}, probs={self.to_lists()!r})"


def _freeze(a: np.ndarray) -> JointDistribution:
    """A JointDistribution holding the float64 grid `a` itself, made read-only, without validation.

    For grids whose caller has certified them and that nothing writes
    afterwards: the walk's ledger checks the entries of every column a step
    moves and the total mass, so its snapshots skip the whole-grid
    re-validation, and so does a campaign's worst pair, which the walk
    certified before it is reported. Its bytes are those of JointDistribution(a) for a grid
    that passes validation without clamping.
    """
    a.flags.writeable = False
    J = object.__new__(JointDistribution)
    object.__setattr__(J, "probs", a)
    return J


@dataclass(frozen=True)
class DistributionPair:
    """An ordered pair (p, q) of joint distributions on a common alphabet."""

    p: JointDistribution
    q: JointDistribution

    def __post_init__(self) -> None:
        if (self.p.nx, self.p.ny) != (self.q.nx, self.q.ny):
            raise ValidationError(
                f"pair components have mismatched shapes {(self.p.nx, self.p.ny)} vs {(self.q.nx, self.q.ny)}"
            )

    @property
    def nx(self) -> int:
        return self.p.nx

    @property
    def ny(self) -> int:
        return self.p.ny


def _check_perm(perm, n: int, name: str) -> np.ndarray:
    a = np.array(perm, dtype=np.intp)
    if a.shape != (n,) or not np.array_equal(np.sort(a), np.arange(n)):
        raise ValidationError(f"{name} must be a permutation of 0..{n - 1}, got {perm!r}")
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class SymmetryElement:
    """A permutation of Y-blocks plus an independent X-permutation inside each block.

    The group generated by these moves leaves the equivocation H(X|Y) and
    pairwise total variation distances invariant.

    Permutations are 0-based arrays mapping source index k to destination
    perm[k]; `within_perms` carries one X-permutation per destination block.
    """

    block_perm: np.ndarray
    within_perms: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        bp = np.array(self.block_perm, dtype=np.intp)
        if bp.ndim != 1 or bp.size < 1:
            raise ValidationError(f"block_perm must be a non-empty 1-d permutation, got {self.block_perm!r}")
        ny = bp.size
        bp = _check_perm(bp, ny, "block_perm")
        wps = tuple(self.within_perms)
        if len(wps) != ny:
            raise ValidationError(f"need {ny} within-block permutations, got {len(wps)}")
        nx = np.asarray(wps[0]).size
        wps = tuple(_check_perm(w, nx, f"within_perms[{j}]") for j, w in enumerate(wps))
        object.__setattr__(self, "block_perm", bp)
        object.__setattr__(self, "within_perms", wps)

    @property
    def nx(self) -> int:
        return len(self.within_perms[0])

    @property
    def ny(self) -> int:
        return len(self.block_perm)

    @classmethod
    def identity(cls, nx: int, ny: int) -> "SymmetryElement":
        return cls(np.arange(ny), tuple(np.arange(nx) for _ in range(ny)))

    @classmethod
    def random(cls, nx: int, ny: int, rng) -> "SymmetryElement":
        rng = np.random.default_rng(rng)
        return cls(rng.permutation(ny), tuple(rng.permutation(nx) for _ in range(ny)))


def marginal(J: JointDistribution, axis: Axis) -> np.ndarray:
    """Marginal vector of a joint grid: row sums for axis="x", column sums for "y"."""
    if axis == "x":
        return J.probs.sum(axis=1)
    if axis == "y":
        return J.probs.sum(axis=0)
    raise ValidationError(f'axis must be "x" or "y", got {axis!r}')


def _cond_entropy_difference(P: np.ndarray) -> float:
    # H(XY) - H(Y)
    my = P.sum(axis=0)
    return float(-_xlog2x_arr(P).sum() + _xlog2x_arr(my).sum())


def _cond_entropy_mixture(P: np.ndarray) -> float:
    # sum_j p_Y(j) * H(X | Y=j) over the blocks with mass; zero-mass blocks contribute 0. Each
    # block's rows are summed pairwise, as contiguous rows of the transposed grid
    my = P.sum(axis=0)
    pos = my > 0.0
    block_h = -_xlog2x_arr(P.T[pos] / my[pos, None]).sum(axis=1)
    return float(my[pos] @ block_h)


def _cond_entropy_direct(P: np.ndarray) -> float:
    # -sum_{i,j} p(i,j) * log2(p(i,j) / p_Y(j)); zero-probability terms contribute 0
    my = P.sum(axis=0)
    ratio = np.divide(P, my[None, :], out=np.ones_like(P), where=my[None, :] > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = P * np.log2(ratio)
    return float(0.0 - np.where(P > 0.0, t, 0.0).sum())  # not -sum: a point mass gives +0.0


_COND_FORMULAS = {
    "difference": _cond_entropy_difference,
    "mixture": _cond_entropy_mixture,
    "direct": _cond_entropy_direct,
}


def conditional_entropy(J: JointDistribution, formula: Formula = "mixture") -> float:
    """Equivocation H(X|Y) of a joint grid, in bits.

    Three equivalent evaluation routes are kept as mutual cross-checks:

    - "difference": H(XY) - H(Y);
    - "mixture": sum_j p_Y(j) * H(X | Y=j), the default;
    - "direct": -sum_{i,j} p(i,j) * log2(p(i,j) / p_Y(j)).

    All three agree within 1e-10 on valid grids. check_bound and the walk
    measure a pair with none of them but per block (see _block_terms).
    """
    try:
        f = _COND_FORMULAS[formula]
    except (KeyError, TypeError):  # TypeError: an unhashable formula
        raise ValidationError(f"unknown formula {formula!r}; expected one of {sorted(_COND_FORMULAS)}") from None
    return f(J.probs)


def tv_distance(p: JointDistribution, q: JointDistribution) -> float:
    """Total variation distance (1/2) * sum_{i,j} |p(i,j) - q(i,j)| in [0, 1]."""
    if p.probs.shape != q.probs.shape:
        raise ValidationError(f"shape mismatch {p.probs.shape} vs {q.probs.shape}")
    return 0.5 * float(np.abs(p.probs - q.probs).sum())


def _block_terms(W: np.ndarray) -> np.ndarray:
    """Per column of the stacked pair W = [P, Q], shape (2, ..., nx, k): a (6, ..., k) array of terms.

    The first four rows are the ones the walk's ledger tracks: the TV share,
    the gap (P's equivocation term minus Q's), and the masses of P and of Q.
    The last two are the equivocation terms of P and of Q. The equivocation
    term of a block is p_Y(j) H(X|Y=j) = p_Y(j) log2 p_Y(j) - sum_i p(i,j)
    log2 p(i,j). Summed over all blocks the terms give tv(P, Q) and H(X|Y)
    of P and Q.

    The sums down the rows are numpy's, and their order follows the memory
    layout: the rows of a row-major grid of several columns are added in
    order, but a column whose rows are contiguous (a lone column, or one
    gathered by fancy indexing) is summed pairwise, which differs once there
    are 8 or more rows. A batch keeps each trial's columns in the layout its
    own walk measures them in.
    """
    m = W.sum(axis=-2)
    h = _xlog2x_arr(m) - _xlog2x_arr(W).sum(axis=-2)
    tv = 0.5 * np.abs(W[0] - W[1]).sum(axis=-2)
    return np.concatenate((tv[None], (h[0] - h[1])[None], m, h))


def _measure(W: np.ndarray, trials: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Every block's terms of the stacked pair W of `trials` pairs (see _block_terms), and each trial's sums.

    This is the one measurement of a pair's gap and TV. W has shape
    (2, nx, trials * ny), trial b in the columns b*ny ... (b+1)*ny - 1.
    check_bound measures one pair with it, and the walk measures its whole
    grids with it: the initial measurement, which orients each trial (see
    _orientation) and gives a campaign trial's verdict its gap and tv, the
    reorder and average measurements and the cross-check. The sums of a
    trial are its tv, its gap as the sum of its blocks' gap terms, its
    masses and its two equivocations. The ny columns of each trial are
    measured together, unless every trial is a single block: then each
    column is summed on its own, as a lone column is, whatever the batch
    holds. So a trial measures the same in a batch as on its own.
    """
    if W.shape[2] == trials:
        terms = _block_terms(np.ascontiguousarray(W.transpose(0, 2, 1))[..., None])[..., 0]
    else:
        terms = _block_terms(W)
    # (6, trials * ny) block terms -> (6, trials): each trial's blocks summed
    return terms, terms.reshape(len(terms), trials, -1).sum(axis=2)


def _orientation(W: np.ndarray, trials: int = 1) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Which of the `trials` pairs in the stacked pair W the walk swaps, and each trial's tv and gap as oriented.

    A trial is swapped when its q has the larger measured equivocation
    (see _measure); ties are left as they are. Swapping changes no tv, and
    the oriented gap is |H(p) - H(q)|: for a swapped trial that is exactly
    H(q) - H(p), since a - b is exactly -(b - a).
    """
    _, (tv, _, _, _, hp, hq) = _measure(W, trials)
    return hq > hp, tv, np.abs(hp - hq)


def apply_symmetry(J: JointDistribution, g: SymmetryElement) -> JointDistribution:
    """Act with a block symmetry on a joint grid.

    output(i, j) = J(within_perms[j]^-1(i), block_perm^-1(j)); the result has
    the same equivocation as J, and the action preserves pairwise TV.
    """
    if (g.nx, g.ny) != (J.nx, J.ny):
        raise ValidationError(f"symmetry is {g.nx}x{g.ny} but grid is {J.nx}x{J.ny}")
    inv_block = np.argsort(g.block_perm)
    out = np.empty_like(J.probs)
    for j in range(J.ny):
        inv_within = np.argsort(g.within_perms[j])
        out[:, j] = J.probs[inv_within, inv_block[j]]
    return JointDistribution(out)
