"""Solvers for the anchor-displacement minimization problem.

Built-in (power) generators get the exact method for their family, read off
the dual optimality conditions:

- two anchors under a symmetric generator: the midpoint;
- sum ground with p = 1: the objective splits by coordinate, so the
  coordinatewise median;
- max ground with p = inf: the midpoint of the anchors' bounding box;
- max ground with p = 1, sum ground with p = inf: every block norm is a
  maximum of linear pieces, so the problem is one sparse HiGHS linear
  program;
- sum or max ground with finite p > 1: the smooth objective ``sum r_i^p``
  over an exact linear model of the block norms in a box around the
  incumbent, solved by SLSQP box by box, then Newton on the face of the
  block norms that holds SLSQP's answer, where they are affine;
- Euclidean or power ground with finite p: the objective is smooth away from
  the anchors, so damped Newton from the centroid with the analytic Hessian;
  when p = 1 each iteration also tests the anchor nearest the iterate for
  optimality and steps off it when it fails;
- Euclidean or power ground with p = inf: SLSQP on the epigraph of the
  largest block norm, then Newton on the Chebyshev conditions.

Derivative-free Nelder-Mead restarts from the centroid cover generators
that are opaque callables; :func:`solve` picks between the two by
generator kind.  A brute-force lattice oracle provides certified reference
values for cross-checks.
"""

from __future__ import annotations

import bisect
import dataclasses
import math

import numpy as np

from .errors import (
    BudgetExceededError,
    ContractError,
    InvalidInputError,
    UnsupportedGeneratorError,
)
from .geometry import _lattice_walk, _min_norm_rows, affine_hull_basis
from .ground_norms import _ground_subgradient, dual_ground_norm, ground_norm_eval_many
from .problem import (
    ProblemInstance,
    objective_eval,
    objective_eval_many,
    objective_subgradient,
    solve_bound,
)
from .psi_generators import _EVAL_BAND

_GRID_POINT_CAP = 100_000_000
_NEAR_MIN_SLACK = 1e-9

# Step halvings tried before a Newton iteration counts as stalled.
_BACKTRACKS = 50

# Newton stops once the gradient norm is within this many ulps of the sum of
# its blocks' dual norms, the rounding floor of the gradient itself.
_GRAD_ULPS = 16.0

# HiGHS feasibility tolerances of the polyhedral program.
_LP_TOL = 1e-10

# Cap on the inequality rows of one round of the polyhedral finite-p solve.
_MODEL_ROWS = 32

# Relative rounding allowed between a polyhedral model's value and the
# block norms it models, and between a Newton finish's value and its start's.
_SUM_RTOL = 1e-12

# Coordinates within this much of an anchor's (sum ground) or of their
# block's largest (max ground), relative to the largest block norm, hold the
# face of a polyhedral finite-p answer; a Newton finish takes at most
# ``_FACE_STEPS`` steps.
_FACE_TOL = 1e-9
_FACE_STEPS = 16

# Box radii at or below this count as zero in the polyhedral finite-p solve,
# whose rounds scale the largest block norm at the centroid to one.  A round
# that ends on a box edge at a kink leaves that coordinate a few ulps off
# zero; a box that small would stop the next round where it starts.
_KINK = 1e-12

# The pattern search reports convergence when its last Nelder-Mead run
# gains at most this much, relative to max(1, value).
_STALL_TOL = 1e-9

# The largest search dimension in which the pattern search was checked
# against the exact methods; above it, it never reports convergence.
_VERIFIED_DIM = 3


@dataclasses.dataclass(frozen=True)
class SolverConfig:
    """``max_iters`` caps the iterations of the method that runs."""

    max_iters: int = 2000


@dataclasses.dataclass
class SolveResult:
    point: np.ndarray
    value: float
    iterations: int
    converged: bool

    def to_dict(self) -> dict:
        return {
            "point": self.point.tolist(),
            "value": self.value,
            "iterations": self.iterations,
        }


def lipschitz_bound(prob: ProblemInstance) -> float:
    """Euclidean Lipschitz constant bound for the objective."""
    ground = prob.norm.ground
    d = prob.dim
    if ground.kind == "sum":
        kappa = math.sqrt(d)
    elif ground.kind == "p":
        kappa = d ** max(0.0, 1.0 / ground.p - 0.5)
    else:
        kappa = 1.0
    return prob.n * kappa


def _value_slope(prob: ProblemInstance) -> float:
    """A Euclidean Lipschitz constant of the objective as it is evaluated.

    The objective's change is at most the total change of the block norms
    times the generator's largest vertex value; a tabulated generator's
    values may exceed 1 by ``_EVAL_BAND``.
    """
    lip = lipschitz_bound(prob)
    return lip * (1.0 + _EVAL_BAND) if prob.norm.generator.kind == "tabulated" else lip


def _rounding_slack(prob: ProblemInstance) -> float:
    """Relative bound on the rounding between two evaluated block bounds.

    Objective values, block norms and pairings each round by at most about
    ``(n + d + 8)`` ulps of their scale; a block bound compares two of them.
    """
    return 8.0 * (prob.n + prob.dim + 8) * float(np.finfo(float).eps)


def midpoint_shortcut(prob: ProblemInstance) -> SolveResult:
    """Exact solution for two anchors under a symmetric generator.

    The midpoint is always optimal, and its objective value equals the
    anchor distance times the generator at the even split.
    """
    if prob.n != 2:
        raise ContractError("midpoint shortcut requires exactly two anchors")
    if not prob.norm.generator.symmetric:
        raise ContractError("midpoint shortcut requires a symmetric generator")
    mid = prob.anchors.mean(axis=0)
    return SolveResult(point=mid, value=objective_eval(prob, mid), iterations=0, converged=True)


def _search_basis(prob: ProblemInstance) -> np.ndarray:
    """Directions about the centroid that reach every minimizer.

    On the Euclidean ground every minimizer lies in the anchors' affine hull,
    so a hull of lower dimension gets its basis (taken about the centroid by
    :func:`~normmin.geometry.affine_hull_basis`); otherwise the identity.
    """
    if prob.norm.ground.kind == "euclidean":
        _, hull = affine_hull_basis(prob.anchors)
        if 0 < hull.shape[1] < prob.dim:
            return hull
    return np.eye(prob.dim)


def _polyhedral_lp(prob: ProblemInstance, cfg: SolverConfig, u0: np.ndarray, f0: float):
    """Max ground with p = 1 or sum ground with p = inf: one sparse HiGHS linear program.

    HiGHS runs its interior-point method, whose iteration count stays in the
    tens as the program grows (its default simplex choice hit a 2000
    iteration cap on the sum ground at n=256, d=10), then crosses over to a
    vertex.

    Variables are ``u``, then on the max ground one epigraph variable
    ``t_i`` per block, and on the sum ground the coordinate bounds ``s_ij
    >= |u_j - v_ij|`` and one epigraph variable ``t`` shared by all blocks.
    The rows are built from index arrays: coordinate ``j`` of block ``i``
    sits in row ``i d + j``.
    """
    from scipy import sparse
    from scipy.optimize import linprog

    n, d = prob.anchors.shape
    nd, v, rows = n * d, prob.anchors.ravel(), np.arange(n * d)
    on_max = prob.norm.ground.kind == "max"
    # +-(u_j - v_ij) <= e_r with r = i d + j: e_r is t_i on the max ground and
    # s_ij on the sum ground, whose last rows are sum_j s_ij <= t.
    ecol = d + (rows // d if on_max else rows)
    ri, ci = [rows, rows, nd + rows, nd + rows], [rows % d, ecol, rows % d, ecol]
    vals, b_ub = [1.0, -1.0, -1.0, -1.0], [v, -v]
    if not on_max:
        ri += [2 * nd + rows // d, 2 * nd + np.arange(n)]
        ci += [d + rows, np.full(n, d + nd)]
        vals += [1.0, -1.0]
        b_ub.append(np.zeros(n))
    nt = n if on_max else 1
    b_ub, width = np.concatenate(b_ub), d + nt + (0 if on_max else nd)
    data = np.repeat(vals, [r.size for r in ri])
    a_ub = sparse.csc_matrix((data, (np.concatenate(ri), np.concatenate(ci))), shape=(b_ub.size, width))
    cost = np.zeros(width)
    cost[-nt:] = 1.0
    res = linprog(
        cost,
        A_ub=a_ub,
        b_ub=b_ub,
        bounds=(None, None),
        method="highs-ipm",
        options={
            "maxiter": cfg.max_iters,
            "primal_feasibility_tolerance": _LP_TOL,
            "dual_feasibility_tolerance": _LP_TOL,
        },
    )
    return (u0 if res.x is None else res.x[:d]), int(res.nit), bool(res.success)


def _coordinate_median(prob: ProblemInstance, cfg: SolverConfig, u0: np.ndarray, f0: float):
    """Sum ground with p = 1: the coordinatewise median.

    The objective ``sum_i sum_j |u_j - v_ij|`` splits into one sum of
    absolute values per coordinate, each minimized by a median of its
    column.  The median is taken from a sort, since ``np.median``'s first
    call in a process costs about 20 ms.
    """
    col = np.sort(prob.anchors, axis=0)
    return 0.5 * (col[(prob.n - 1) // 2] + col[prob.n // 2]), 0, True


def _box_center(prob: ProblemInstance, cfg: SolverConfig, u0: np.ndarray, f0: float):
    """Max ground with p = inf: the anchors' bounding-box midpoint, at half the widest range."""
    return 0.5 * (prob.anchors.min(axis=0) + prob.anchors.max(axis=0)), 0, True


def _anchor_pairs(anchors: np.ndarray):
    """Columns and values of the sorted distinct (column, anchor value) pairs, and each entry's pair."""
    n, d = anchors.shape
    pairs, slot = np.unique(
        np.column_stack([np.tile(np.arange(d), n), anchors.ravel()]), axis=0, return_inverse=True
    )
    return pairs[:, 0].astype(int), pairs[:, 1], slot.reshape(n, d)


def _box_radius(kind: str, u: np.ndarray, x: np.ndarray, r: np.ndarray, pairs) -> float:
    """Largest box radius whose model keeps within ``_MODEL_ROWS`` rows.

    The candidates are the radii at which a block gains a piece, above
    ``_KINK``; the radius is infinite when the whole model fits.  Where even
    the smallest candidate breaks the cap, that candidate is used: its model
    still has at most two rows per distinct anchor coordinate within the
    radius on the sum ground, and at most ``2 d`` per block on the max
    ground, so it stays linear in the size of the instance.  The rows are
    counted without building the model; on the sum ground they are two per
    pair of :func:`_anchor_pairs` within the radius of ``u``.
    """
    a = np.abs(u[pairs[0]] - pairs[1]) if kind == "sum" else np.abs(x)
    cand = np.unique(a if kind == "sum" else np.concatenate([a, (r[:, None] - a) / 2.0]))
    cand = cand[cand > _KINK]

    def overfull(delta):
        if kind == "sum":
            return 2 * np.count_nonzero(a <= delta) > _MODEL_ROWS
        near = a >= r[:, None] - 2.0 * delta
        counts = (near * np.where(a <= delta, 2, 1)).sum(axis=1)
        return int(counts[counts >= 2].sum()) > _MODEL_ROWS

    k = bisect.bisect_left(cand, True, key=overfull)
    if k == cand.size:
        return math.inf
    return float(cand[max(k - 1, 0)])


def _box_model(kind: str, x: np.ndarray, r: np.ndarray, anchors: np.ndarray, delta: float, pairs):
    """Linear model of the block norms inside a box of radius ``delta`` around ``u``.

    The box holds every ``u'`` within ``delta`` of ``u = x + anchors`` in
    the max norm.  The model has variables ``z = (u', w)`` with ``w >= 0``
    and returns ``(lin, off, cons, cons_off, w0)``: inside the box, block
    ``i``'s norm is the least ``lin_i z - off_i`` over the ``w`` that meet
    ``cons z + cons_off >= 0``, and ``w0`` meets them at ``u' = u``.

    On the sum ground a coordinate whose sign is fixed in the box enters
    block ``i`` linearly; every other one goes through a variable ``s >=
    |u'_j - c|``, one for each distinct anchor value ``c`` of column ``j``,
    shared by all blocks that hold it.  On the max ground a block norm is
    the largest of the signed coordinates that can become the largest in
    the box; a block with one such piece is that piece, and one with several
    gets an epigraph variable ``t_i`` above each.
    """
    n, d = x.shape
    a = np.abs(x)
    sign = np.where(x < 0.0, -1.0, 1.0)
    if kind == "sum":
        free = a <= delta
        fi, fj = np.nonzero(free)
        keep, slot = np.unique(pairs[2][free], return_inverse=True)
        cols, vals, m = pairs[0][keep], pairs[1][keep], keep.size
        fixed = np.where(free, 0.0, sign)
        lin = np.zeros((n, d + m))
        lin[:, :d] = fixed
        lin[fi, d + slot] = 1.0
        off = np.einsum("ij,ij->i", fixed, anchors)
        picks = np.zeros((m, d))
        picks[np.arange(m), cols] = 1.0
        # s_k >= +-(u'_j - c_k)
        cons = np.hstack([np.vstack([picks, -picks]), np.vstack([np.eye(m), np.eye(m)])])
        cons_off = np.concatenate([-vals, vals])
        w0 = np.zeros(m)
        w0[slot] = a[fi, fj]
        return lin, off, cons, cons_off, w0
    near = a >= r[:, None] - 2.0 * delta
    flip = near & (a <= delta)
    (ni, nj), (fi, fj) = np.nonzero(near), np.nonzero(flip)
    owners, cols = np.concatenate([ni, fi]), np.concatenate([nj, fj])
    pieces = np.zeros((owners.size, d))
    pieces[np.arange(owners.size), cols] = np.concatenate([sign[near], -sign[flip]])
    offsets = np.einsum("ij,ij->i", pieces, anchors[owners])
    multi = np.bincount(owners, minlength=n) >= 2
    m = int(multi.sum())
    slot = np.cumsum(multi) - 1
    lin = np.zeros((n, d + m))
    off = np.zeros(n)
    single = ~multi[owners]
    lin[owners[single], :d] = pieces[single]
    off[owners[single]] = offsets[single]
    lin[np.flatnonzero(multi), d + np.arange(m)] = 1.0
    # t_i >= <piece, u' - v_i>
    shared = ~single
    cons = np.hstack([-pieces[shared], np.eye(m)[slot[owners[shared]]]])
    return lin, off, cons, offsets[shared], r[multi]


def _polyhedral_epigraph(prob: ProblemInstance, cfg: SolverConfig, u0: np.ndarray, f0: float):
    """Sum or max ground with finite p > 1: SLSQP on ``sum r_i^p``, box by box.

    Each round centres a box on the incumbent, builds the exact linear
    model of the block norms inside it (:func:`_box_model`) and minimizes
    ``sum r_i^p`` over the box with SLSQP.  Inside the box this program is
    exact, so a round whose answer is off the box boundary has found the
    optimum.  SLSQP can stop a little short of a boundary that its answer
    should reach, so only an answer in the inner half of the box counts;
    otherwise the next round starts from that answer.
    The box radius keeps the model within ``_MODEL_ROWS`` inequality rows
    (:func:`_box_radius`).  The rounds work on anchors shifted to the
    centroid and scaled by the largest block norm there, since SLSQP's
    tolerances are absolute; so does the face finish (:func:`_face_finish`)
    that ends the solve, since ``r^(p-2)`` underflows at large p on tiny
    anchors.
    """
    from scipy.optimize import minimize

    ground = prob.norm.ground
    p = prob.norm.generator.p
    d = prob.dim
    r = ground_norm_eval_many(ground, u0 - prob.anchors)
    length = float(r.max())
    anchors = (prob.anchors - u0) / length
    u, r = np.zeros(d), r / length
    pairs = _anchor_pairs(anchors) if ground.kind == "sum" else None
    scale = total = float((r**p).sum())
    steps, converged = 0, False
    while steps < cfg.max_iters:
        x = u - anchors
        delta = _box_radius(ground.kind, u, x, r, pairs)
        lin, off, cons, cons_off, w0 = _box_model(ground.kind, x, r, anchors, delta, pairs)

        def obj(z):
            s = np.maximum(lin @ z - off, 0.0)
            return float((s**p).sum()) / scale

        def obj_grad(z):
            s = np.maximum(lin @ z - off, 0.0)
            return (p * s ** (p - 1.0)) @ lin / scale

        box = [(None, None)] * d if delta == math.inf else list(zip(u - delta, u + delta))
        res = minimize(
            obj,
            np.concatenate([u, w0]),
            jac=obj_grad,
            method="SLSQP",
            bounds=box + [(0.0, None)] * w0.size,
            constraints=[{
                "type": "ineq",
                "fun": lambda z: cons @ z + cons_off,
                "jac": lambda z: cons,
            }] if w0.size else [],
            options={"maxiter": cfg.max_iters - steps, "ftol": 1e-14},
        )
        steps += max(int(res.nit), 1)
        un = np.asarray(res.x[:d], dtype=float)
        rn = ground_norm_eval_many(ground, un - anchors)
        tn = float((rn**p).sum())
        inside = delta == math.inf or bool(np.all(np.abs(un - u) <= 0.5 * delta))
        if tn > total:
            # The model and the norms sum in different orders, so a round
            # that confirms the incumbent can end a few ulps above it.
            converged = inside and bool(res.success) and tn <= total * (1.0 + _SUM_RTOL)
            break
        u, r, total = un, rn, tn
        if inside:
            converged = bool(res.success)
            break
    un = _face_finish(ground.kind, u, anchors, r, p)
    if float((ground_norm_eval_many(ground, un - anchors) ** p).sum()) <= total * (1.0 + _SUM_RTOL):
        u = un
    return u0 + length * u, steps, converged


def _kkt_newton(system, z: np.ndarray, floor: float):
    """Least-squares Newton on ``F(z) = 0``, where ``system(z)`` returns ``F`` and its Jacobian.

    Stops once ``|F|`` reaches the rounding ``floor`` or stops falling (or
    is NaN), after at most ``_FACE_STEPS`` steps; returns the iterate of
    least ``|F|`` and that norm.
    """
    best, least = z, math.inf
    for _ in range(_FACE_STEPS):
        f, jac = system(z)
        norm = float(np.linalg.norm(f))
        if not norm < least:
            break
        best, least = z, norm
        if norm <= floor:
            break
        z = z + np.linalg.lstsq(jac, -f, rcond=None)[0]
    return best, least


def _face_finish(kind: str, u: np.ndarray, anchors: np.ndarray, r: np.ndarray, p: float):
    """Newton on the KKT system of ``sum r_i^p`` over the face of the block norms that holds ``u``.

    On the sum ground each coordinate within ``_FACE_TOL`` of an anchor's is
    fixed to it; on the max ground each block's coordinates within
    ``_FACE_TOL`` of its largest stay tied to it.  On that face the block
    norms are affine, ``r = a u - b`` subject to ``e u = c``: Newton from
    ``mu = 0`` on ``a^T r^(p-1) + e^T mu = 0``, ``e u = c`` (Jacobian ``[[(p -
    1) a^T diag(r^(p-2)) a, e^T], [e, 0]]``, floor ``_GRAD_ULPS`` ulps of
    ``sum r_i^(p-1)``; :func:`_kkt_newton`).
    """
    x = u - anchors
    ax = np.abs(x)
    tol = _FACE_TOL * float(r.max())
    n, d = x.shape
    if kind == "sum":
        near = ax.argmin(axis=0)
        pinned = np.flatnonzero(ax[near, np.arange(d)] <= tol)
        at = u.copy()
        at[pinned] = anchors[near[pinned], pinned]
        a = np.sign(at - anchors)
        e, c = np.eye(d)[pinned], at[pinned]
    else:
        top = ax.argmax(axis=1)
        a = np.zeros((n, d))
        a[np.arange(n), top] = np.sign(x[np.arange(n), top])
        ti, tj = np.nonzero((ax >= r[:, None] - tol) & (np.arange(d) != top[:, None]))
        e = -a[ti]
        e[np.arange(ti.size), tj] = np.sign(x[ti, tj])
        c = np.einsum("ij,ij->i", e, anchors[ti])
    b = np.einsum("ij,ij->i", a, anchors)
    m = e.shape[0]
    jac = np.block([[np.zeros((d, d)), e.T], [e, np.zeros((m, m))]])

    def kkt(z):
        rm = a @ z[:d] - b
        pos = rm > 0.0
        rs = np.where(pos, rm, 1.0)
        w = np.where(pos, rs ** (p - 2.0), 0.0)
        jac[:d, :d] = (a.T * ((p - 1.0) * w)) @ a
        return np.concatenate([a.T @ (w * rs) + e.T @ z[d:], e @ z[:d] - c]), jac

    floor = _GRAD_ULPS * float(np.finfo(float).eps * (r ** (p - 1.0)).sum())
    return _kkt_newton(kkt, np.concatenate([u, np.zeros(m)]), floor)[0][:d]


def _hessian(prob: ProblemInstance, u, f: float, g, basis: np.ndarray) -> np.ndarray:
    """Objective Hessian at ``u`` (value ``f``, gradient ``g``) in the coordinates of ``basis``.

    With ground exponent ``e`` (2 on the Euclidean ground), ``a_i = |u - v_i|
    / r_i`` elementwise, ``g_i`` block ``i``'s unit gradient and ``c_i = (r_i
    / f)^(p - 1) / r_i``, the Hessian is ``(e - 1) diag(sum_i c_i a_i^(e -
    2)) + (p - e) sum_i c_i g_i g_i^T - (p - 1) g g^T / f``.  Below exponent
    2 a coordinate that meets its anchor's has unbounded curvature; it
    counts as flat, and the step's backtracking takes the rest.
    """
    ground = prob.norm.ground
    p = prob.norm.generator.p
    e = 2.0 if ground.kind == "euclidean" else ground.p
    diffs = u - prob.anchors
    r = np.maximum(ground_norm_eval_many(ground, diffs), np.finfo(float).tiny)
    c = (r / f) ** (p - 1.0) / r
    a = np.abs(diffs) / r[:, None]
    unit = (np.sign(diffs) * a ** (e - 1.0)) @ basis
    if e < 2.0:
        a[a == 0.0] = np.inf
    gb = basis.T @ g
    hess = (e - 1.0) * (basis.T * (c @ a ** (e - 2.0))) @ basis + (p - e) * (unit.T * c) @ unit
    return hess - (p - 1.0) / f * np.outer(gb, gb)


def _newton(prob: ProblemInstance, cfg: SolverConfig, u0: np.ndarray, f0: float):
    """Euclidean or power ground with finite p: damped Newton from ``u0``.

    On the Euclidean ground the iterates stay in the anchors' affine hull,
    which holds every minimizer.  A step is halved until it lowers the value
    or the gradient norm; the gradient norm keeps shrinking long after the
    value stops resolving a descent.  Stops converged once the gradient norm
    is within ``_GRAD_ULPS`` ulps of the sum of its blocks' dual norms.

    When p = 1 each iteration first tests the anchor nearest the iterate, in
    O(n d) (Vardi and Zhang 2000, "The multivariate L1-median and associated
    data depth"): it is optimal, and returned converged, exactly when the
    other blocks' unit gradients there sum to at most one in the dual norm,
    as its own block's dual may be anything in the dual ball.  A failing
    anchor no higher than the iterate replaces it, and the step leaves along
    the dual map of the pull (minus that sum) by the Weiszfeld length
    ``(|pull| - 1) / sum_i 1 / r_i`` over the other blocks; Newton alone
    creeps towards such an anchor.
    """
    ground = prob.norm.ground
    dual = dual_ground_norm(ground)
    basis = _search_basis(prob)
    radius = solve_bound(prob).radius
    p = prob.norm.generator.p
    eps = np.finfo(float).eps
    u, f = u0, f0
    g = objective_subgradient(prob, u)
    steps, converged = 0, False
    while steps < cfg.max_iters:
        r = ground_norm_eval_many(ground, u - prob.anchors)
        s = None
        if p == 1.0:
            k = int(np.argmin(r))
            anchor = prob.anchors[k].copy()
            pull = -_ground_subgradient(ground, anchor - prob.anchors).sum(axis=0)
            excess = float(ground_norm_eval_many(dual, pull)) - 1.0
            if excess <= 0.0:
                return anchor, steps, True
            fk = objective_eval(prob, anchor)
            if fk <= f:
                others = np.delete(ground_norm_eval_many(ground, anchor - prob.anchors), k)
                out = excess / float((1.0 / others).sum()) * _ground_subgradient(dual, pull)
                u, f, g, s = anchor, fk, -pull, basis.T @ out
        gb = basis.T @ g
        gn = float(np.linalg.norm(gb))
        if s is None:
            # The dual norms of the gradient's blocks are (r_i / f)^(p - 1).
            if gn <= _GRAD_ULPS * eps * float(((r / f) ** (p - 1.0)).sum()):
                converged = True
                break
            hess = _hessian(prob, u, f, g, basis)
            try:
                s = np.linalg.solve(hess, -gb)
            except np.linalg.LinAlgError:
                s = -gb
            if not np.all(np.isfinite(s)) or float(s @ gb) >= 0.0:
                s = -gb
            length = float(np.linalg.norm(s))
            if length > radius:
                s *= radius / length
        for _ in range(_BACKTRACKS):
            trial = u + basis @ s
            ft = objective_eval(prob, trial)
            gt = objective_subgradient(prob, trial)
            if ft < f or (
                ft - f <= _GRAD_ULPS * eps * f and float(np.linalg.norm(basis.T @ gt)) < gn
            ):
                break
            s = 0.5 * s
        else:
            break
        steps += 1
        u, f, g = trial, ft, gt
    return u, steps, converged


def _minimax(prob: ProblemInstance, cfg: SolverConfig, u0: np.ndarray, f0: float):
    """Euclidean or power ground with p = inf: SLSQP on the epigraph of the largest block norm.

    Minimizing t subject to ground(u - v_i) <= t is a smooth constrained
    program whenever the ground norm is differentiable away from zero.
    Newton then solves the Chebyshev conditions ``sum lam_i grad r_i = 0``,
    ``r_i = t``, ``sum lam_i = 1`` (:func:`_kkt_newton`) on the blocks within
    1e-7 relative of SLSQP's value that carry Wolfe's minimum-norm weights
    of their gradients (:func:`~normmin.geometry._min_norm_rows`), which
    start ``lam``, on anchors shifted to SLSQP's point and scaled by its
    value.  Block ``i``'s Hessian is ``(e - 1) / r_i (diag(a_i^(e-2)) - g_i
    g_i^T)``, with ``a_i``, ``g_i`` and the flat coordinates of
    :func:`_hessian`.  The point is kept when no weight is below the
    ``_GRAD_ULPS`` ulps floor and its value is at most ``_SUM_RTOL`` above
    SLSQP's; ``converged`` means it was kept with its residual at the floor.
    """
    from scipy.optimize import minimize

    ground = prob.norm.ground
    n, d = prob.anchors.shape
    e = 2.0 if ground.kind == "euclidean" else ground.p

    def cons(z):
        return z[d] - ground_norm_eval_many(ground, z[:d] - prob.anchors)

    def cons_jac(z):
        jac = np.ones((n, d + 1))
        jac[:, :d] = -_ground_subgradient(ground, z[:d] - prob.anchors)
        return jac

    res = minimize(
        lambda z: z[d],
        np.append(u0, f0),
        jac=lambda z: np.eye(d + 1)[d],
        method="SLSQP",
        constraints=[{"type": "ineq", "fun": cons, "jac": cons_jac}],
        options={"maxiter": cfg.max_iters, "ftol": 1e-10},
    )
    us = res.x[:d]
    r = ground_norm_eval_many(ground, us - prob.anchors)
    t, floor = float(r.max()), _GRAD_ULPS * float(np.finfo(float).eps)
    near = np.flatnonzero(r >= t * (1.0 - 1e-7))
    sel, lam, _ = _min_norm_rows(_ground_subgradient(ground, us - prob.anchors[near]))
    anchors, k = (prob.anchors[near[sel]] - us) / t, sel.size
    jac = np.zeros((d + k + 1, d + k + 1))
    jac[d:-1, d], jac[-1, d + 1:] = -1.0, 1.0

    def chebyshev(z):
        x, lam = z[:d] - anchors, z[d + 1:]
        r = ground_norm_eval_many(ground, x)
        a = np.abs(x) / r[:, None]
        g = np.sign(x) * a ** (e - 1.0)
        a[(a == 0.0) & (e < 2.0)] = np.inf
        jac[:d, :d] = (e - 1.0) * (np.diag((lam / r) @ a ** (e - 2.0)) - (g.T * (lam / r)) @ g)
        jac[:d, d + 1:], jac[d:-1, :d] = g.T, g
        return np.concatenate([lam @ g, r - z[d], [lam.sum() - 1.0]]), jac

    z, least = _kkt_newton(chebyshev, np.concatenate([np.zeros(d), [1.0], lam]), floor)
    u = us + t * z[:d]
    if z[d + 1:].min() >= -floor and ground_norm_eval_many(ground, u - prob.anchors).max() <= t * (1.0 + _SUM_RTOL):
        return u, int(res.nit), least <= floor
    return us, int(res.nit), False


def _validate_config(cfg: SolverConfig) -> None:
    if cfg.max_iters < 1:
        raise InvalidInputError("max_iters must be at least 1")


def solve_subgradient(prob: ProblemInstance, config: SolverConfig | None = None) -> SolveResult:
    """Minimize a built-in-generator instance with the exact method for its family.

    - Two anchors under a symmetric generator: :func:`midpoint_shortcut`.
    - Sum ground, p = 1: the coordinatewise median, converged.
    - Max ground, p = inf: the bounding-box midpoint, converged.
    - Max ground with p = 1, sum ground with p = inf: one sparse HiGHS
      linear program (interior point, then crossover); ``converged`` means
      HiGHS reported an optimal solution (status 0).
    - Sum or max ground, finite p > 1: SLSQP on ``sum r_i^p`` over an exact
      linear model of the block norms in a box around the incumbent, box by
      box (:func:`_polyhedral_epigraph`); ``converged`` means the last
      SLSQP solve succeeded with its answer in the inner half of its box.
      SLSQP stops about 1e-8 short in the gradient, so Newton then finishes
      on the face that holds its answer (:func:`_face_finish`), whose point
      is kept unless its value is more than 1e-12 relative above SLSQP's.
    - Euclidean or power ground, finite p: damped Newton from the centroid
      (:func:`_newton`), where ``converged`` means the gradient norm fell to
      the rounding floor of its blocks, or, for p = 1, that the anchor
      nearest an iterate passed the dual-norm test and is returned as is.
    - Euclidean or power ground, p = inf: the epigraph SLSQP from the
      centroid, then Newton on the Chebyshev conditions (:func:`_minimax`);
      ``converged`` means the finished point was kept with the conditions'
      residual within ``_GRAD_ULPS`` ulps.

    Each method returns ``(point, iterations, converged)``.
    ``config.max_iters`` caps the simplex, SQP or Newton iterations of the
    method that runs, and ``iterations`` reports how many it took.  The
    point is evaluated once here, and a point above the centroid's value
    gives way to the centroid, not converged.  A centroid with a zero
    subgradient is optimal and is returned at once, converged.
    """
    cfg = config or SolverConfig()
    _validate_config(cfg)
    if prob.norm.generator.kind != "p":
        raise UnsupportedGeneratorError(
            "subgradient solver needs a built-in generator; "
            "use the pattern search for tabulated ones"
        )
    if prob.n == 2 and prob.norm.generator.symmetric:
        return midpoint_shortcut(prob)
    u0 = prob.centroid()
    f0 = objective_eval(prob, u0)
    if not np.any(objective_subgradient(prob, u0)):
        return SolveResult(point=u0, value=f0, iterations=0, converged=True)
    p = prob.norm.generator.p
    if prob.norm.ground.kind == "sum" and p == 1.0:
        method = _coordinate_median
    elif prob.norm.ground.kind == "max" and p == math.inf:
        method = _box_center
    elif prob.norm.ground.kind in ("sum", "max"):
        method = _polyhedral_lp if p in (1.0, math.inf) else _polyhedral_epigraph
    else:
        method = _minimax if p == math.inf else _newton
    u, steps, converged = method(prob, cfg, u0, f0)
    f = objective_eval(prob, u)
    if f > f0:
        u, f, converged = u0, f0, False
    return SolveResult(point=u, value=f, iterations=steps, converged=converged)


def solve_pattern_search(prob: ProblemInstance, config: SolverConfig | None = None) -> SolveResult:
    """Derivative-free Nelder-Mead restarts; works for any validated generator.

    The generator is only ever evaluated, never differentiated.  Three
    Nelder-Mead runs (Nelder and Mead 1965) search ``u = centroid + basis @
    y`` over the directions of :func:`_search_basis`, the first from the
    centroid and each from the best point so far, at simplex sizes 1, 1e-2
    and 1e-4 times 5% of the anchor spread.  ``config.max_iters`` caps the
    iterations of all runs together, and ``iterations`` reports the total.
    ``converged`` means the search has at most ``_VERIFIED_DIM`` directions,
    every run ran and the last one gained at most ``_STALL_TOL`` times
    max(1, value).  The value is never above the centroid's.  Verified
    against the exact methods in dimension at most 3; from dimension 5 on it
    can stop up to about 1e-2 relative above the optimum with a last run
    that gains nothing, so with more directions it never reports
    ``converged``.
    """
    from scipy.optimize import minimize

    cfg = config or SolverConfig()
    _validate_config(cfg)
    u0 = prob.centroid()
    basis = _search_basis(prob)

    def fun(y):
        return objective_eval(prob, u0 + basis @ y)

    y = np.zeros(basis.shape[1])
    f = fun(y)
    h0 = 0.05 * max(float(np.ptp(prob.anchors, axis=0).max()), 1e-3)
    iterations, converged = 0, False
    for shrink in (1.0, 1e-2, 1e-4):
        if iterations >= cfg.max_iters:
            break
        h = h0 * shrink
        res = minimize(
            fun,
            y,
            method="Nelder-Mead",
            options={
                "initial_simplex": np.vstack([y, y + h * np.eye(y.size)]),
                "xatol": 1e-13,
                "fatol": 1e-15,
                "maxfev": 700,
                "maxiter": cfg.max_iters - iterations,
            },
        )
        iterations += int(res.nit)
        # The start point is a vertex of the simplex, so no run ends above it.
        gain = f - float(res.fun)
        if gain > 0.0:
            y, f = res.x, float(res.fun)
    else:
        converged = y.size <= _VERIFIED_DIM and gain <= _STALL_TOL * max(1.0, f)
    return SolveResult(point=u0 + basis @ y, value=f, iterations=iterations, converged=converged)


def solve(prob: ProblemInstance, config: SolverConfig | None = None) -> SolveResult:
    """Minimize ``prob`` with the solver for its generator kind.

    Built-in (power) generators go to :func:`solve_subgradient`; every other
    kind is an opaque callable and goes to :func:`solve_pattern_search`.
    """
    if prob.norm.generator.kind == "p":
        return solve_subgradient(prob, config)
    return solve_pattern_search(prob, config)


@dataclasses.dataclass
class GridOracleResult:
    """Lattice minimum with a certified distance to the true optimum.

    The true minimum is at least ``value - error_bound``; ``argmin`` lists
    every lattice point within 1e-9 of the lattice minimum, in row-major
    lattice order.
    """

    value: float
    argmin: np.ndarray
    spacing: float
    lipschitz_bound: float
    error_bound: float
    box_radius: float


def grid_oracle(prob: ProblemInstance, grid: int) -> GridOracleResult:
    """Exhaustive evaluation on a lattice covering the solution ball.

    Supports dimension at most 3 and at most 1e8 lattice points.  The box is
    the solution ball's bounding box; a single-point grid degenerates to the
    anchor centroid.  The lattice is walked block by block (see
    :func:`~normmin.geometry._lattice_walk`): a block whose middle point's
    value, less the objective's Lipschitz constant times the block's radius,
    still exceeds the least value seen so far by more than the near-minimum
    slack holds neither the minimum nor a near-minimal point and is dropped
    unevaluated.  The value and the near-minimal points, in row-major order,
    are bitwise those of evaluating every lattice point.
    """
    if prob.dim > 3:
        raise ContractError("grid oracle supports dimension at most 3")
    if grid < 1:
        raise InvalidInputError("grid must be at least 1")
    total = grid**prob.dim
    if total > _GRID_POINT_CAP:
        raise BudgetExceededError(
            f"grid would hold {total} points (cap {_GRID_POINT_CAP})"
        )
    radius = solve_bound(prob).radius
    if grid == 1:
        # The centroid is always inside the solution ball and is a far more
        # useful single sample than the origin.
        axes = [np.array([c]) for c in prob.centroid()]
        spacing = 2.0 * radius
    else:
        axes = [np.linspace(-radius, radius, grid) for _ in range(prob.dim)]
        spacing = 2.0 * radius / (grid - 1)
    lip = lipschitz_bound(prob)
    slope, slack = _value_slope(prob), _rounding_slack(prob)
    best = math.inf

    def judge(centers, radii, *_):
        nonlocal best
        vals = objective_eval_many(prob, centers)
        best = min(best, float(vals.min()))
        spread = slope * radii
        gap = vals - slack * (vals + spread) - (best + _NEAR_MIN_SLACK)
        return gap > spread, gap <= 0.0

    results = []
    for pts in _lattice_walk(axes, judge):
        vals = objective_eval_many(prob, pts)
        lo = float(vals.min())
        near = vals <= lo + _NEAR_MIN_SLACK
        results.append((lo, pts[near], vals[near]))
        # Release this chunk before the next one is built.
        del pts, vals
    value = min(lo for lo, _, _ in results)
    pts = []
    for lo, p, v in results:
        keep = v <= value + _NEAR_MIN_SLACK
        if np.any(keep):
            pts.append(p[keep])
    argmin = np.vstack(pts)
    return GridOracleResult(
        value=value,
        argmin=argmin,
        spacing=spacing,
        lipschitz_bound=lip,
        error_bound=lip * spacing,
        box_radius=radius,
    )
