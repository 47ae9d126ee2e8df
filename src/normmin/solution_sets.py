"""Membership predicates for the full solution set given one certificate.

A single optimality certificate describes every minimizer, not just the one
it was built from: a point is optimal exactly when the certified dual blocks
attain their pairing bounds against its anchor displacements.  The general
predicate works for any norm; the specialized ones decompose membership
blockwise into alignment cones, farthest-point conditions, and power-profile
matching, and agree with the general predicate wherever both apply.

All predicates share one set of vectorized residual kernels, so scalar
queries and region sampling cannot drift apart.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .certificates import (
    CHEBYSHEV,
    FERMAT_TORRICELLI,
    GENERAL,
    P_FERMAT,
    Certificate,
    check_certificate,
    matching_theorem,
)
from .errors import (
    BudgetExceededError,
    ContractError,
    DimensionMismatchError,
    InvalidInputError,
    MembershipViolationError,
)
from .geometry import _lattice_tiles
from .ground_norms import (
    GroundNorm,
    alignment_set_contains,
    as_vector,
    dual_ground_norm,
    ground_norm_eval_many,
)
from .problem import ProblemInstance, _displacements_many
from .product_norms import _from_block_norms_many
from .psi_generators import conjugate_exponent

GENERAL_PREDICATE = "general_predicate"
FT_INTERSECTION = "ft_intersection"
CHEBYSHEV_INTERSECTION = "chebyshev_intersection"
PFT_INTERSECTION = "pft_intersection"

DESCRIPTION_TOL = 1e-7
_REGION_POINT_CAP = 1_000_000

_KIND_BY_THEOREM = {
    GENERAL: GENERAL_PREDICATE,
    FERMAT_TORRICELLI: FT_INTERSECTION,
    CHEBYSHEV: CHEBYSHEV_INTERSECTION,
    P_FERMAT: PFT_INTERSECTION,
}


@dataclasses.dataclass(frozen=True)
class SolutionSetDescription:
    """A validated certificate packaged with the predicate that applies.

    ``skipped_blocks`` lists blocks whose dual mass was below the
    construction tolerance (they impose no constraint); ``note`` records why
    a specialized description was downgraded, if it was.
    """

    kind: str
    instance: ProblemInstance
    certificate: Certificate
    construction_tol: float
    skipped_blocks: tuple = ()
    note: str = ""


def describe_solution_set(
    prob: ProblemInstance, cert: Certificate, tol: float = DESCRIPTION_TOL
) -> SolutionSetDescription:
    """Validate the certificate and pick the matching membership predicate.

    The blockwise intersection formula for the plain sum-of-norms objective
    does not cover a minimizer sitting on an anchor, so that case downgrades
    to the general pairing predicate.
    """
    theorem = matching_theorem(prob)
    report = check_certificate(prob, cert, tol=tol, theorem=theorem)
    if not report.verdict:
        name, value = report.worst
        raise MembershipViolationError(
            f"certificate fails the {theorem} conditions: {name}={value:.3e}"
        )
    kind = _KIND_BY_THEOREM[theorem]
    note = ""
    skipped: tuple = ()
    diffs = cert.solution[None, :] - prob.anchors
    r = ground_norm_eval_many(prob.norm.ground, diffs)
    if kind == FT_INTERSECTION:
        if float(r.min()) <= tol * max(1.0, float(r.max())):
            kind = GENERAL_PREDICATE
            note = "solution coincides with an anchor; using the general predicate"
    if kind == CHEBYSHEV_INTERSECTION:
        rstar = ground_norm_eval_many(dual_ground_norm(prob.norm.ground), cert.duals)
        skipped = tuple(int(i) for i in np.nonzero(rstar <= tol)[0])
    return SolutionSetDescription(
        kind=kind,
        instance=prob,
        certificate=cert,
        construction_tol=tol,
        skipped_blocks=skipped,
        note=note,
    )


# ---------------------------------------------------------------------------
# Vectorized membership kernels.  Each returns a boolean array over query
# rows, using the same residual scaling as the scalar alignment helpers.
# ---------------------------------------------------------------------------


def _query_rows(desc: SolutionSetDescription, us) -> np.ndarray:
    a = np.asarray(us, dtype=float)
    if a.ndim == 1:
        a = a[None, :]
    if a.ndim != 2 or a.shape[1] != desc.instance.dim:
        raise DimensionMismatchError(
            f"query points must have {desc.instance.dim} coordinates"
        )
    if not np.all(np.isfinite(a)):
        raise InvalidInputError("query points must be finite")
    return a


def _pairings(desc: SolutionSetDescription, us: np.ndarray):
    prob = desc.instance
    diffs = _displacements_many(us, prob.anchors)
    dots = np.einsum("kid,id->ki", diffs, desc.certificate.duals)
    r = ground_norm_eval_many(prob.norm.ground, diffs)
    return dots, r


def _member_general(desc: SolutionSetDescription, us: np.ndarray, tol: float):
    dots, r = _pairings(desc, us)
    f = _from_block_norms_many(desc.instance.norm.generator, r)
    resid = np.abs(dots.sum(axis=1) - f)
    return resid <= tol * np.maximum(1.0, f)


def _dual_block_norms(desc: SolutionSetDescription) -> np.ndarray:
    return ground_norm_eval_many(
        dual_ground_norm(desc.instance.norm.ground), desc.certificate.duals
    )


def _alignment_ok(dots, r, rstar, tol):
    bound = rstar[None, :] * r
    return np.abs(bound - dots) <= tol * np.maximum(1.0, bound)


def _member_ft(desc: SolutionSetDescription, us: np.ndarray, tol: float):
    dots, r = _pairings(desc, us)
    rstar = _dual_block_norms(desc)
    return _alignment_ok(dots, r, rstar, tol).all(axis=1)


def _member_chebyshev(desc: SolutionSetDescription, us: np.ndarray, tol: float):
    dots, r = _pairings(desc, us)
    rstar = _dual_block_norms(desc)
    m = r.max(axis=1)
    resid = np.abs(dots - rstar[None, :] * m[:, None])
    ok = resid <= tol * np.maximum(1.0, m)[:, None]
    return ok[:, rstar > tol].all(axis=1)


def _power_profile(r: np.ndarray, p: float) -> np.ndarray:
    peak = r.max(axis=1, keepdims=True)
    safe = np.where(peak > 0.0, peak, 1.0)
    w = (r / safe) ** p
    return w / w.sum(axis=1, keepdims=True)


def _member_pft(desc: SolutionSetDescription, us: np.ndarray, tol: float):
    prob = desc.instance
    p = prob.norm.generator.p
    q = conjugate_exponent(p)
    dots, r = _pairings(desc, us)
    rstar = _dual_block_norms(desc)
    aligned = _alignment_ok(dots, r, rstar, tol).all(axis=1)
    # The pairing gap is quadratic in the profile mismatch, so the mismatch
    # is squared to accept the same band as the general predicate.
    mismatch = _power_profile(r, p) - (rstar**q)[None, :]
    profiled = (mismatch**2 <= tol).all(axis=1)
    return aligned & profiled


_KERNELS = {
    GENERAL_PREDICATE: _member_general,
    FT_INTERSECTION: _member_ft,
    CHEBYSHEV_INTERSECTION: _member_chebyshev,
    PFT_INTERSECTION: _member_pft,
}


# ---------------------------------------------------------------------------
# Scalar predicates
# ---------------------------------------------------------------------------


def _require_generator(desc: SolutionSetDescription, p: float, label: str) -> None:
    gen = desc.instance.norm.generator
    if gen.kind != "p" or gen.p != p:
        raise ContractError(f"{label} predicate needs the matching built-in generator")


def sol_contains_general(
    desc: SolutionSetDescription, u, tol: float = DESCRIPTION_TOL
) -> bool:
    """Whether the certified pairing attains the objective value at ``u``."""
    us = _query_rows(desc, u)
    return bool(_member_general(desc, us, tol)[0])


def sol_contains_ft(
    desc: SolutionSetDescription, u, tol: float = DESCRIPTION_TOL
) -> bool:
    """Blockwise alignment-cone membership for the plain sum objective.

    Valid only when the certified minimizer is off the anchors; otherwise
    the caller is directed to the general predicate, which has no caveat.
    """
    _require_generator(desc, 1.0, "sum-objective")
    if desc.kind != FT_INTERSECTION:
        raise ContractError(
            "certified minimizer coincides with an anchor; "
            "use sol_contains_general"
        )
    us = _query_rows(desc, u)
    return bool(_member_ft(desc, us, tol)[0])


def sol_contains_chebyshev(
    desc: SolutionSetDescription, u, tol: float = DESCRIPTION_TOL
) -> bool:
    """Pairing-attains-max membership over blocks with dual mass above tol."""
    _require_generator(desc, math.inf, "max-objective")
    us = _query_rows(desc, u)
    return bool(_member_chebyshev(desc, us, tol)[0])


def sol_contains_chebyshev_via_cells(
    desc: SolutionSetDescription, u, tol: float = DESCRIPTION_TOL
) -> bool:
    """Equivalent route: alignment cone plus farthest-cell per massive block."""
    _require_generator(desc, math.inf, "max-objective")
    us = _query_rows(desc, u)
    prob = desc.instance
    rstar = _dual_block_norms(desc)
    diffs = us[0][None, :] - prob.anchors
    for i in range(prob.n):
        if rstar[i] <= tol:
            continue
        if not alignment_set_contains(
            prob.norm.ground, desc.certificate.duals[i], diffs[i], tol
        ):
            return False
        if not farthest_voronoi_contains(prob.norm.ground, prob.anchors, i + 1, us[0], tol):
            return False
    return True


def sol_contains_pft(
    desc: SolutionSetDescription, u, tol: float = DESCRIPTION_TOL
) -> bool:
    """Alignment plus power-profile proportionality for power generators."""
    gen = desc.instance.norm.generator
    if gen.kind != "p" or not (1.0 < gen.p < math.inf):
        raise ContractError(
            "profile predicate needs a built-in generator with finite exponent above 1"
        )
    us = _query_rows(desc, u)
    return bool(_member_pft(desc, us, tol)[0])


def solution_set_contains(
    desc: SolutionSetDescription, u, tol: float = DESCRIPTION_TOL
) -> bool:
    """Dispatch to the predicate selected at description time."""
    return bool(_KERNELS[desc.kind](desc, _query_rows(desc, u), tol)[0])


# ---------------------------------------------------------------------------
# Farthest Voronoi cells
# ---------------------------------------------------------------------------


def farthest_voronoi_contains(
    ground: GroundNorm, anchors, i: int, u, tol: float = DESCRIPTION_TOL
) -> bool:
    """Whether anchor ``i`` (numbered from 1) is farthest from ``u``.

    The metric test: the distance to anchor ``i`` is within ``tol`` of the
    largest anchor distance.
    """
    a = np.asarray(anchors, dtype=float)
    if a.ndim != 2 or a.shape[0] < 1:
        raise InvalidInputError("anchors must form a 2-d array")
    if not 1 <= i <= a.shape[0]:
        raise InvalidInputError(f"anchor index {i} out of range 1..{a.shape[0]}")
    point = as_vector(u, "u")
    if point.size != a.shape[1]:
        raise DimensionMismatchError("query point does not match anchor dimension")
    dists = ground_norm_eval_many(ground, point[None, :] - a)
    return float(dists[i - 1] - dists.max()) >= -tol


# ---------------------------------------------------------------------------
# Region sampling
# ---------------------------------------------------------------------------


def sample_solution_region(
    desc: SolutionSetDescription, box, grid: int, tol: float = DESCRIPTION_TOL
) -> np.ndarray:
    """All lattice points of ``box`` accepted by the description's predicate.

    ``box`` holds one (low, high) pair per coordinate; the lattice uses
    ``grid`` points per axis and the result keeps row-major lattice order.
    An empty box yields an empty result.
    """
    prob = desc.instance
    b = np.asarray(box, dtype=float)
    if b.shape != (prob.dim, 2):
        raise InvalidInputError(
            f"box must hold {prob.dim} (low, high) pairs, got shape {b.shape}"
        )
    if grid < 1:
        raise InvalidInputError("grid must be at least 1")
    total = grid**prob.dim
    if total > _REGION_POINT_CAP:
        raise BudgetExceededError(
            f"region lattice would hold {total} points (cap {_REGION_POINT_CAP})"
        )
    if np.any(b[:, 0] > b[:, 1]):
        return np.empty((0, prob.dim))
    axes = [np.linspace(lo, hi, grid) for lo, hi in b]
    kernel = _KERNELS[desc.kind]
    return np.concatenate([pts[kernel(desc, pts, tol)] for pts in _lattice_tiles(axes)])
