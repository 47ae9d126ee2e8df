"""Membership predicates for the full solution set given one certificate.

A single optimality certificate describes every minimizer, not just the one
it was built from: a point is optimal exactly when the certified dual blocks
attain their pairing bounds against its anchor displacements.  The general
predicate works for any norm; the specialized ones decompose membership
blockwise into alignment cones, farthest-point conditions, and power-profile
matching, and agree with the general predicate wherever both apply.

All predicates share one set of vectorized residual kernels, so scalar
queries and region sampling cannot drift apart.  The kernels sum over blocks
left to right whatever the batch, so a point's answer does not depend on the
rows evaluated with it.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from .certificates import (
    CHEBYSHEV,
    FERMAT_TORRICELLI,
    GENERAL,
    P_FERMAT,
    Certificate,
    check_certificate,
)
from .errors import (
    BudgetExceededError,
    ContractError,
    DimensionMismatchError,
    InvalidInputError,
    MembershipViolationError,
)
from .geometry import _LEAF_POINTS, _TILE_POINTS, _lattice_walk
from .ground_norms import (
    _block_sum,
    _power_profile,
    conjugate_exponent,
    dual_ground_norm,
    ground_norm_eval_many,
)
from .problem import ProblemInstance, _displacements_many, _rounding_slack, _value_slope, lipschitz_bound
from .product_norms import _from_block_norms_many
from .psi_generators import _EVAL_BAND

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

    @functools.cached_property
    def dual_norms(self) -> np.ndarray:
        """Dual ground norms of the certificate's blocks, taken once."""
        return ground_norm_eval_many(
            dual_ground_norm(self.instance.norm.ground), self.certificate.duals
        )


def describe_solution_set(
    prob: ProblemInstance, cert: Certificate, tol: float = DESCRIPTION_TOL
) -> SolutionSetDescription:
    """Validate the certificate and pick the matching membership predicate.

    The blockwise intersection formula for the plain sum-of-norms objective
    does not cover a minimizer sitting on an anchor, so that case downgrades
    to the general pairing predicate.
    """
    report = check_certificate(prob, cert, tol=tol)
    if not report.verdict:
        name, value = report.worst
        raise MembershipViolationError(
            f"certificate fails the {report.theorem} conditions: {name}={value:.3e}"
        )
    kind = _KIND_BY_THEOREM[report.theorem]
    note = ""
    skipped: tuple = ()
    if kind == FT_INTERSECTION:
        r = ground_norm_eval_many(prob.norm.ground, cert.solution[None, :] - prob.anchors)
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
    resid = np.abs(_block_sum(dots) - f)
    return resid <= tol * np.maximum(1.0, f)


def _alignment_ok(dots, r, rstar, tol):
    bound = rstar[None, :] * r
    return np.abs(bound - dots) <= tol * np.maximum(1.0, bound)


def _member_ft(desc: SolutionSetDescription, us: np.ndarray, tol: float):
    dots, r = _pairings(desc, us)
    return _alignment_ok(dots, r, desc.dual_norms, tol).all(axis=1)


def _member_chebyshev(desc: SolutionSetDescription, us: np.ndarray, tol: float):
    dots, r = _pairings(desc, us)
    rstar = desc.dual_norms
    m = r.max(axis=1)
    resid = np.abs(dots - rstar[None, :] * m[:, None])
    ok = resid <= tol * np.maximum(1.0, m)[:, None]
    return ok[:, rstar > tol].all(axis=1)


def _member_pft(desc: SolutionSetDescription, us: np.ndarray, tol: float):
    prob = desc.instance
    p = prob.norm.generator.p
    q = conjugate_exponent(p)
    dots, r = _pairings(desc, us)
    rstar = desc.dual_norms
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


def _block_test(desc: SolutionSetDescription, tol: float):
    """``judge(centers, radii, lows, highs)`` of :func:`~normmin.geometry._lattice_walk` for the kernel.

    A block of radius rho about a middle point c is ruled out when a residual
    the kernel tests, evaluated at c, exceeds the kernel's largest threshold
    over the block by more than the residual's Lipschitz slope times rho,
    plus a rounding margin; it is near when every such residual at c is
    within its threshold.  With d_i the pairing of dual block y_i (dual norm
    w_i) with the displacement from anchor i, r_i its ground norm, kappa the
    ground norm's Euclidean Lipschitz constant and L the objective's:

    - alignment (FT and the first half of PFT): w_i r_i - d_i against
      tol * max(1, w_i r_i), slope w_i kappa + |y_i|_2;
    - Chebyshev: w_i max(r) - d_i against tol * max(1, max(r)) over the
      blocks with w_i > tol, slope w_i kappa + |y_i|_2;
    - general: |sum(d) - f| against tol * max(1, f), slope |sum(y)|_2 + L;
      a block this bound neither rules out nor marks near is also ruled out
      by a midpoint convexity bound (see ``_general_judge``).
    """
    prob = desc.instance
    y, w = desc.certificate.duals, desc.dual_norms
    kappa = lipschitz_bound(prob) / prob.n
    slack = _rounding_slack(prob)
    if desc.kind == GENERAL_PREDICATE:
        return _general_judge(desc, tol, kappa, slack)
    if desc.kind == CHEBYSHEV_INTERSECTION:
        on = w > tol
        slope = w[on] * kappa + np.linalg.norm(y[on], axis=1)

        def excess(centers, radii):
            dots, r = _pairings(desc, centers)
            m = r.max(axis=1)[:, None]
            reach = m + kappa * radii[:, None]
            limit = tol * np.maximum(1.0, reach)
            gap = w[on] * m - dots[:, on] - slack * (w[on] * reach + limit) - limit
            return gap, slope * radii[:, None]

    else:
        slope = w * kappa + np.linalg.norm(y, axis=1)

        def excess(centers, radii):
            dots, r = _pairings(desc, centers)
            reach = w * (r + kappa * radii[:, None])
            limit = tol * np.maximum(1.0, reach)
            gap = w * r - dots - slack * (reach + limit) - limit
            return gap, slope * radii[:, None]

    def judge(centers, radii, *_):
        gap, spread = excess(centers, radii)
        return (gap > spread).any(axis=1), (gap <= 0.0).all(axis=1)

    return judge


def _general_judge(desc: SolutionSetDescription, tol: float, kappa: float, slack: float):
    """The general predicate's judge: a Lipschitz bound, then a midpoint convexity bound.

    The residual phi = f - sum(d) is convex, as f is a norm of the
    displacements and sum(d) is affine in the point.  Every x of a block B
    with middle point c has its mirror image 2c - x in the box 2c - B, so
    phi(x) >= 2 phi(c) - max phi over the corners of 2c - B, the lower
    bound of convex branch and bound (Horst and Tuy 1996).  The mirror box
    is the one to take, not B: c sits half a spacing off B's centre on runs
    of even length.  B holds no accepted point when this floor exceeds
    tol * max(1, f(c) + L rho), which bounds the threshold over B.  The
    floor is lowered by ``_rounding_slack`` times the evaluations' scale for
    each of the four evaluated terms (phi at c twice, at a corner and at x)
    and, for a tabulated generator, by 4 ``_EVAL_BAND`` times a bound on
    sum(r) over the ball of radius rho about c, which holds B and its
    mirror: the generator's values are trusted to lie within the band of a
    convex generator, as ``_value_slope`` trusts them.  Only the blocks the
    Lipschitz bound neither rules out nor marks near have their corners
    evaluated, and only while 2^d <= ``_LEAF_POINTS``: from d = 7 on, the
    walk's leaves hold 2^d points, so the corners of the blocks near the
    leaves cost as many evaluations as their points.
    """
    prob = desc.instance
    gen = prob.norm.generator
    w = desc.dual_norms
    lip = _value_slope(prob)
    slope = float(np.linalg.norm(desc.certificate.duals.sum(axis=0))) + lip
    band = _EVAL_BAND if gen.kind == "tabulated" else 0.0
    mirror = (1 << prob.dim) <= _LEAF_POINTS

    def residual(us):
        dots, r = _pairings(desc, us)
        f = _from_block_norms_many(gen, r)
        return f - _block_sum(dots), f, r

    def judge(centers, radii, lows, highs):
        phi, f, r = residual(centers)
        reach = f + lip * radii
        limit = tol * np.maximum(1.0, reach)
        norms = r + kappa * radii[:, None]
        scale = reach + norms @ w + limit
        gap = np.abs(phi) - slack * scale - limit
        out, near = gap > slope * radii, gap <= 0.0
        rest = np.flatnonzero(~(out | near))
        if mirror and rest.size:
            top = _mirror_max(lambda us: residual(us)[0], centers[rest], lows[rest], highs[rest])
            margin = 4.0 * (slack * scale[rest] + band * _block_sum(norms[rest]))
            out[rest] = 2.0 * phi[rest] - top - margin > limit[rest]
        return out, near

    return judge


def _mirror_max(residual, centers, lows, highs):
    """Largest ``residual`` over the corners of each block's mirror box 2c - [lows, highs].

    An axis on which a block is one point wide adds no corners, so a block
    has no more corners than points.  Blocks go in batches of about a tile
    of corners.
    """
    d = centers.shape[1]
    pick = ((np.arange(1 << d)[:, None] >> np.arange(d)) & 1).astype(bool)
    top = np.empty(len(centers))
    step = max(1, _TILE_POINTS >> d)
    for lo in range(0, len(centers), step):
        c, a, b = (v[lo : lo + step, None, :] for v in (centers, lows, highs))
        corners = 2.0 * c - np.where(pick, b, a)
        real = ~(pick & (a == b)).any(axis=2)
        vals = np.full(real.shape, -np.inf)
        vals[real] = residual(corners[real])
        top[lo : lo + step] = vals.max(axis=1)
    return top


# ---------------------------------------------------------------------------
# Scalar predicates
# ---------------------------------------------------------------------------


def _require_kind(desc: SolutionSetDescription, kind: str) -> None:
    if desc.kind != kind:
        raise ContractError(
            f"the {kind} predicate does not apply to a {desc.kind} description"
            + (f": {desc.note}" if desc.note else "")
        )


def _contains(desc: SolutionSetDescription, u, tol: float, kind: str) -> bool:
    """Whether the ``kind`` kernel accepts ``u``; the description must be of that kind."""
    _require_kind(desc, kind)
    return bool(_KERNELS[kind](desc, _query_rows(desc, u), tol)[0])


def sol_contains_general(
    desc: SolutionSetDescription, u, tol: float = DESCRIPTION_TOL
) -> bool:
    """Whether the certified pairing attains the objective value at ``u``."""
    return bool(_member_general(desc, _query_rows(desc, u), tol)[0])


def sol_contains_ft(
    desc: SolutionSetDescription, u, tol: float = DESCRIPTION_TOL
) -> bool:
    """Blockwise alignment-cone membership for the plain sum objective.

    Valid only when the certified minimizer is off the anchors; otherwise
    the caller is directed to the general predicate, which has no caveat.
    """
    return _contains(desc, u, tol, FT_INTERSECTION)


def sol_contains_chebyshev(
    desc: SolutionSetDescription, u, tol: float = DESCRIPTION_TOL
) -> bool:
    """Pairing-attains-max membership over blocks with dual mass above tol."""
    return _contains(desc, u, tol, CHEBYSHEV_INTERSECTION)


def sol_contains_pft(
    desc: SolutionSetDescription, u, tol: float = DESCRIPTION_TOL
) -> bool:
    """Alignment plus power-profile proportionality for power generators."""
    return _contains(desc, u, tol, PFT_INTERSECTION)


def solution_set_contains(
    desc: SolutionSetDescription, u, tol: float = DESCRIPTION_TOL
) -> bool:
    """Dispatch to the predicate selected at description time."""
    return _contains(desc, u, tol, desc.kind)


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

    The lattice is walked block by block (see
    :func:`~normmin.geometry._lattice_walk`): a block is dropped unevaluated
    when a residual of the predicate at its middle point exceeds the
    threshold by more than a Lipschitz bound allows over the block, or,
    under the general predicate, when a convexity bound from the middle
    point and the corners of the block's mirror image rules it out (see
    ``_block_test``).  The predicate runs on the points of the kept blocks.
    The answer is bitwise the one of evaluating every lattice point.
    """
    prob = desc.instance
    b = np.asarray(box, dtype=float)
    if b.shape != (prob.dim, 2):
        raise InvalidInputError(
            f"box must hold {prob.dim} (low, high) pairs, got shape {b.shape}"
        )
    if not np.all(np.isfinite(b)):
        raise InvalidInputError("box bounds must be finite")
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
    walk = _lattice_walk(axes, _block_test(desc, tol))
    found = [_rows(pts, kernel(desc, pts, tol)) for pts in walk]
    return np.concatenate(found) if found else np.empty((0, prob.dim))


def _rows(pts: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """``pts[keep]`` for a coordinate-major chunk, gathered a coordinate at a time.

    Boolean indexing of the chunk's transpose view copies row by row and
    takes several times longer.
    """
    idx = np.flatnonzero(keep)
    out = np.empty((idx.size, pts.shape[1]))
    for k, column in enumerate(pts.T):
        out[:, k] = column.take(idx)
    return out
