"""Problem instances: minimize the product norm of anchor displacements.

An instance is a list of distinct anchor points plus a product norm.  The
objective at a point is the product norm of the stacked differences between
the point and each anchor.  This module evaluates the objective, bounds where
minimizers can live, classifies uniqueness, and produces subgradients with a
dual-block decomposition.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import ArityMismatchError, InvalidInputError
from .ground_norms import (
    DEFAULT_TOL,
    _TIE_RTOL,
    _ground_subgradient,
    as_vector,
    ground_norm_eval,
    ground_norm_eval_many,
)
from .product_norms import (
    ProductNorm,
    _from_block_norms_many,
    product_norm_from_block_norms,
)

# Anchors closer than this are considered duplicated.
_MIN_ANCHOR_GAP = 1e-12

STRICTLY_CONVEX = "strictly_convex"
STRICT_BY_COLLINEARITY = "strict_by_collinearity"
UNKNOWN = "unknown"


@dataclasses.dataclass(frozen=True)
class ProblemInstance:
    """Distinct anchors stacked as rows, plus the product norm to minimize."""

    anchors: np.ndarray
    norm: ProductNorm

    def __post_init__(self):
        arr = np.asarray(self.anchors, dtype=float)
        if arr.ndim != 2 or arr.shape[0] < 2 or arr.shape[1] < 1:
            raise InvalidInputError(
                f"anchors must be an (n, d) stack with n >= 2, got shape {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise InvalidInputError("anchors must be finite")
        if _closest_pair_within(arr, _MIN_ANCHOR_GAP):
            raise InvalidInputError("anchors must be distinct")
        if not self.norm.arity_accepts(arr.shape[0]):
            raise ArityMismatchError(
                f"anchor count {arr.shape[0]} disagrees with generator arity "
                f"{self.norm.generator.arity}"
            )
        object.__setattr__(self, "anchors", arr)

    @property
    def n(self) -> int:
        return self.anchors.shape[0]

    @property
    def dim(self) -> int:
        return self.anchors.shape[1]

    def centroid(self) -> np.ndarray:
        return self.anchors.mean(axis=0)


def _closest_pair_within(arr: np.ndarray, gap: float) -> bool:
    """Whether two rows of ``arr`` lie within Euclidean distance ``gap``, in O(n d) memory.

    The rows are sorted by their coordinate of largest spread, and the
    sorted order is walked offset by offset; only pairs whose sort keys lie
    within ``2 gap`` get a distance.  A pair within ``gap`` is within it on
    every coordinate, so no such pair is skipped.  Once no pair at some
    offset has close keys, none at a larger offset has.
    """
    axis = int(np.argmax(arr.max(axis=0) - arr.min(axis=0)))
    rows = arr[np.argsort(arr[:, axis], kind="stable")]
    keys = rows[:, axis]
    for offset in range(1, arr.shape[0]):
        near = np.flatnonzero(keys[offset:] - keys[:-offset] <= 2.0 * gap)
        if near.size == 0:
            return False
        diffs = rows[near + offset] - rows[near]
        if np.sqrt((diffs * diffs).sum(-1)).min() <= gap:
            return True
    return False


def _point(prob: ProblemInstance, u) -> np.ndarray:
    """``u`` as a validated vector of the anchors' dimension."""
    u = as_vector(u, "u")
    if u.size != prob.dim:
        raise InvalidInputError(
            f"point has dimension {u.size}, anchors have dimension {prob.dim}"
        )
    return u


def displacements(prob: ProblemInstance, u) -> np.ndarray:
    """Block stack of ``u`` minus each anchor."""
    return _point(prob, u)[None, :] - prob.anchors


def objective_eval(prob: ProblemInstance, u) -> float:
    """Objective value at ``u``: its row of :func:`objective_eval_many`, bit for bit.

    The point goes through the batch path as a one-row batch, so its sums
    over coordinates and over blocks run in the batch's order.
    """
    return float(objective_eval_many(prob, _point(prob, u)[None, :])[0])


def objective_eval_many(prob: ProblemInstance, us: np.ndarray) -> np.ndarray:
    """Vectorized objective over rows of ``us``."""
    us = np.asarray(us, dtype=float)
    if us.ndim != 2 or us.shape[1] != prob.dim:
        raise InvalidInputError(f"points must form an (N, {prob.dim}) array")
    r = ground_norm_eval_many(prob.norm.ground, _displacements_many(us, prob.anchors))
    return _from_block_norms_many(prob.norm.generator, r)


def _displacements_many(us: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    """The ``(k, n, d)`` stack ``us[:, None] - anchors[None]``, stored as ``(d, n, k)``.

    numpy keeps that memory order through elementwise passes, so the ground
    norm's reduction over ``d`` and the reductions over anchors run over whole
    columns, not over rows of length ``d``.
    """
    out = np.empty((*anchors.shape[::-1], us.shape[0])).transpose(2, 1, 0)
    return np.subtract(us[:, None, :], anchors[None, :, :], out=out)


@dataclasses.dataclass(frozen=True)
class SolveBound:
    """Ground-norm ball guaranteed to contain every minimizer."""

    radius: float


def solve_bound(prob: ProblemInstance) -> SolveBound:
    """Every minimizer has ground norm at most (1 + 1/n) times the anchor norm total."""
    total = float(sum(ground_norm_eval(prob.norm.ground, v) for v in prob.anchors))
    return SolveBound(radius=(1.0 + 1.0 / prob.n) * total)


def dual_selection(prob: ProblemInstance, u) -> np.ndarray:
    """Dual block stack certifying a subgradient of the objective at ``u``.

    Each block is a ground-norm subgradient at its displacement, weighted by
    the generator's dual profile, so the blocks have unit dual product norm
    and their pairing with the anchor displacements equals the objective
    value.  Summing the blocks gives an objective subgradient.
    """
    diffs = displacements(prob, u)
    r = ground_norm_eval_many(prob.norm.ground, diffs)
    gen = prob.norm.generator
    if gen.kind != "p":
        raise InvalidInputError("dual selection requires a power generator")
    selections = _ground_subgradient(prob.norm.ground, diffs)
    p = gen.p
    if p == 1.0:
        return selections
    if p == math.inf:
        m = float(r.max())
        active = r >= m * (1.0 - _TIE_RTOL)
        weights = np.where(active, 1.0 / int(active.sum()), 0.0)
    else:
        weights = (r / product_norm_from_block_norms(gen, r)) ** (p - 1.0)
    return weights[:, None] * selections


def objective_subgradient(prob: ProblemInstance, u) -> np.ndarray:
    """A subgradient of the objective at ``u`` (sum of the dual selection)."""
    return dual_selection(prob, u).sum(axis=0)


def strict_convexity_class(prob: ProblemInstance) -> str:
    """Classify uniqueness of the minimizer from norm structure and anchors.

    "strictly_convex" needs strictly convex ground and generator, giving a
    unique minimizer for every anchor set.  The constant generator with a
    strictly convex ground is strict unless the anchors are collinear, tested
    by a singular-value ratio at 1e-9.  Everything else is "unknown".
    """
    ground_strict = prob.norm.ground.kind in ("p", "euclidean")
    gen = prob.norm.generator
    gen_strict = gen.kind == "p" and gen.p != 1.0 and gen.p != math.inf
    if ground_strict and gen_strict:
        return STRICTLY_CONVEX
    if ground_strict and gen.kind == "p" and gen.p == 1.0:
        diffs = prob.anchors[1:] - prob.anchors[0]
        s = np.linalg.svd(diffs, compute_uv=False)
        collinear = s.size < 2 or s[1] <= 1e-9 * s[0]
        if not collinear:
            return STRICT_BY_COLLINEARITY
    return UNKNOWN
