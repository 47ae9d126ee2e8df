"""Solvers for the anchor-displacement minimization problem.

Built-in (power) generators get the exact method for their family, read off
the dual optimality conditions:

- two anchors under a symmetric generator: the midpoint;
- sum ground with p = 1: the objective splits by coordinate, so the
  coordinatewise median;
- max ground with p = 1 in d <= 2: in the plane ``max(|a|, |b|) = (|a + b| +
  |a - b|) / 2``, so the coordinatewise median of the turned anchors ``(v_0
  + v_1, v_0 - v_1)``, turned back; in d = 1 the plain median;
- max ground with p = inf: the midpoint of the anchors' bounding box;
- sum ground with p = inf: the l1 norm is the support function of its dual
  ball, a maximum over the ``2^d`` sign vectors, so the largest block norm
  is a maximum of ``2^d`` linear pieces in ``u``, which pair into
  directions ``a`` and ``-a`` and bound each ``<a, u>`` to an interval; in
  d <= 3 the answer is the intervals' middle (in d = 3 under the one
  linear relation among the four directions), and for 4 <= d <= 12 one
  dense HiGHS program in ``d + 1`` variables;
- max ground with p = 1 beyond d = 2, and sum ground with p = inf beyond
  d = 12: every block norm is a maximum of linear pieces, so the problem is
  one sparse HiGHS linear program over coordinate bounds;
- sum or max ground with finite p > 1: damped Newton on ``sum r_i^p`` over
  block norms smoothed at levels 1e-1 down to 1e-11, each level from the
  last one's point; after each settled level, Newton on the face of the
  block norms that holds its point, where they are affine, which ends the
  solve once the face's multipliers lie in the ground norms'
  subdifferentials (the dual conditions certify the face);
- Euclidean or power ground with finite p: the objective is smooth away from
  the anchors, so damped Newton on ``sum r_i^p`` from the centroid, with
  its value, gradient and Hessian from one pass over the blocks per point;
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
    _rounding_slack,
    _value_slope,
    lipschitz_bound,
    objective_eval,
    objective_eval_many,
    solve_bound,
)

_GRID_POINT_CAP = 100_000_000
_NEAR_MIN_SLACK = 1e-9

# Step halvings tried before a Newton iteration counts as stalled.
_BACKTRACKS = 50

# Newton stops once the gradient norm is within this many ulps of the sum of
# its blocks' dual norms, the rounding floor of the gradient itself.
_GRAD_ULPS = 16.0

# HiGHS feasibility tolerances of the polyhedral programs.
_LP_TOL = 1e-10

# The sum ground's Chebyshev center is solved over the facets of the l1 ball
# up to this many (d <= 12), and by the coordinate-bound program beyond; the
# facet sums go in chunks of about ``_FACET_CHUNK`` (facet, anchor) entries.
_FACETS = 4096
_FACET_CHUNK = 1 << 18

# Relative rounding allowed between a Newton finish's value and its start's,
# and between a method's value and the centroid's.
_SUM_RTOL = 1e-12

# Coordinates within this much of an anchor's (sum ground) or of their
# block's largest (max ground), relative to the largest block norm, hold the
# face of a polyhedral finite-p answer; a Newton finish takes at most
# ``_FACE_STEPS`` steps.
_FACE_TOL = 1e-9
_FACE_STEPS = 16

# A face finish certifies its face when its multipliers lie in the ground
# norms' subdifferentials within this much of ``sum r_i^(p-1)``.
_DUAL_RTOL = 1e-12

# Smoothing levels of the sum- and max-ground finite-p solve, relative to the
# largest block norm at its start.
_SMOOTHING = tuple(10.0**-k for k in range(1, 12))

# The pattern search stops, and reports convergence, at the first Nelder-Mead
# restart that gains at most this much, relative to max(1, value).
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


def _highs(cfg: SolverConfig, u0: np.ndarray, method: str, cost, a_ub, b_ub, bounds):
    """Minimize ``cost @ x`` subject to ``a_ub @ x <= b_ub`` with HiGHS; ``u`` is ``x``'s first coordinates.

    Returns ``(u, iterations, converged)``: ``u0`` when HiGHS returns no
    point, and ``converged`` when it reported an optimal solution (status
    0).  ``max_iters`` caps its iterations; its primal and dual feasibility
    tolerances are ``_LP_TOL``.
    """
    from scipy.optimize import linprog

    res = linprog(
        cost,
        A_ub=a_ub,
        b_ub=b_ub,
        bounds=bounds,
        method=method,
        options={
            "maxiter": cfg.max_iters,
            "primal_feasibility_tolerance": _LP_TOL,
            "dual_feasibility_tolerance": _LP_TOL,
        },
    )
    return (u0 if res.x is None else res.x[: u0.size]), int(res.nit), bool(res.success)


def _polyhedral_lp(prob: ProblemInstance, cfg: SolverConfig, u0: np.ndarray, f0: float):
    """Max ground with p = 1 beyond d = 2, sum ground with p = inf beyond d = 12: one sparse HiGHS program.

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
    return _highs(cfg, u0, "highs-ipm", cost, a_ub, b_ub, (None, None))


def _facet_floor(anchors: np.ndarray) -> np.ndarray:
    """``min_i <s, v_i>`` for each of the ``2^d`` sign vectors ``s`` (the l1 ball's facets).

    Row ``k`` has ``s_j = -1`` where bit ``j`` of ``k`` is set.  The sums are
    built by doubling, coordinate by coordinate, so each adds ``s_j v_ij`` in
    coordinate order and none depends on the anchors' order or the thread
    count.  Anchors go in chunks of about ``_FACET_CHUNK`` sums.
    """
    n, d = anchors.shape
    rows = 1 << d
    step = max(1, _FACET_CHUNK // rows)
    floor = np.full(rows, np.inf)
    for lo in range(0, n, step):
        v = anchors[lo : lo + step]
        acc = np.empty((rows, v.shape[0]))
        acc[0], acc[1] = v[:, 0], -v[:, 0]
        for j in range(1, d):
            h = 1 << j
            np.subtract(acc[:h], v[:, j], out=acc[h : 2 * h])
            acc[:h] += v[:, j]
        np.minimum(floor, acc.min(axis=1), out=floor)
    return floor


def _l1_chebyshev(prob: ProblemInstance, cfg: SolverConfig, u0: np.ndarray, f0: float):
    """Sum ground with p = inf up to d = 12: the Chebyshev center over the l1 ball's facets.

    ``|y|_1 = max_s <s, y>`` over the ``2^d`` sign vectors ``s``, so the
    largest block norm is ``max_s (<s, u> - c_s)`` with ``c_s = min_i <s,
    v_i>`` (:func:`_facet_floor`).  Opposite facets pair into a direction
    ``a``: with ``L_a = c_a`` and ``H_a = -c_(-a)``, the radius ``t`` holds
    when every ``<a, u>`` lies in ``[H_a - t, L_a + t]``, whose middle does
    not depend on ``t``.

    For d <= 3 that gives a closed form, with no iterations.  For d <= 2 the
    directions with ``a_0 = 1`` are independent: each ``<a, u>`` takes its
    interval's middle, and the radius is the largest half-width.  For d = 3
    they obey ``a1 + a4 = a2 + a3`` (``a1 = (1, 1, 1)``, ``a2 = (1, 1,
    -1)``, ``a3 = (1, -1, 1)``, ``a4 = (1, -1, -1)``), so the pair sums'
    intervals must meet as well, and the radius is the largest of the
    half-widths, ``(H1 + H4 - L2 - L3) / 4`` and ``(H2 + H3 - L1 - L4) /
    4``; the common pair sum takes the middle of its interval, and each
    pair splits it at the middle of its first member's interval.  The
    directions' columns are orthogonal, so ``u = sum_a <a, u> a / 2^(d-1)``.

    For 4 <= d <= 12 HiGHS's dual simplex minimizes ``t`` subject to ``<s,
    u> - t <= c_s``, with ``u`` in the anchors' bounding box, since
    clamping ``u`` to it shortens every ``|u_j - v_ij|``.
    """
    d = prob.dim
    signs = 1.0 - 2.0 * ((np.arange(1 << d)[:, None] >> np.arange(d)) & 1)
    if d <= 3:
        # Row k of the facets and row 2^d - 1 - k are opposite; the even rows
        # have a_0 = 1 and, for d = 3, come in the order a1, a3, a2, a4.
        floor = _facet_floor(prob.anchors)
        lo, hi = floor[::2], -floor[::-2]
        y = 0.5 * (lo + hi)
        if d == 3:
            mid = 0.5 * (max(hi[0] + hi[3], hi[1] + hi[2]) + min(lo[0] + lo[3], lo[1] + lo[2]))
            first, second = np.array([0, 1]), np.array([3, 2])
            y[first] = 0.5 * (np.maximum(hi[first], mid - lo[second]) + np.minimum(lo[first], mid - hi[second]))
            y[second] = mid - y[first]
        return signs[::2].T @ y / (1 << (d - 1)), 0, True
    a_ub = np.hstack([signs, -np.ones((1 << d, 1))])
    bounds = [*zip(prob.anchors.min(axis=0), prob.anchors.max(axis=0)), (None, None)]
    return _highs(cfg, u0, "highs-ds", np.eye(d + 1)[d], a_ub, _facet_floor(prob.anchors), bounds)


def _turn(x: np.ndarray) -> np.ndarray:
    """``(x_0 + x_1, x_0 - x_1)`` along the last axis; turning twice doubles ``x``."""
    return np.stack([x[..., 0] + x[..., 1], x[..., 0] - x[..., 1]], axis=-1)


def _coordinate_median(prob: ProblemInstance, cfg: SolverConfig, u0: np.ndarray, f0: float):
    """Sum ground with p = 1, max ground with p = 1 in d <= 2: the coordinatewise median.

    The objective ``sum_i sum_j |u_j - v_ij|`` splits into one sum of
    absolute values per coordinate, each minimized by a median of its
    column.  The median is taken from a sort, since ``np.median``'s first
    call in a process costs about 20 ms.  On the max ground in the plane
    ``max(|y_0|, |y_1|) = (|y_0 + y_1| + |y_0 - y_1|) / 2``, so the answer is
    the median of the turned anchors (:func:`_turn`), turned back; in d = 1
    both grounds are ``|y|``.
    """
    turned = prob.norm.ground.kind == "max" and prob.dim == 2
    col = np.sort(_turn(prob.anchors) if turned else prob.anchors, axis=0)
    m = 0.5 * (col[(prob.n - 1) // 2] + col[prob.n // 2])
    return (0.5 * _turn(m) if turned else m), 0, True


def _box_center(prob: ProblemInstance, cfg: SolverConfig, u0: np.ndarray, f0: float):
    """Max ground with p = inf: the anchors' bounding-box midpoint, at half the widest range."""
    return 0.5 * (prob.anchors.min(axis=0) + prob.anchors.max(axis=0)), 0, True


def _block_terms(ground, x: np.ndarray, width: float = 0.0):
    """The rows of ``x`` as blocks: their ground norms with first and second derivatives.

    Returns ``(r, g, h, k)``: row ``i``'s norm ``r_i``, its gradient ``g_i``
    and its Hessian ``diag(h_i) - k_i g_i g_i^T``.  The sum and max grounds
    are smoothed at ``width``: the sum ground smooths each ``|x_ij|`` as
    ``sqrt(x_ij^2 + width^2)`` (``k = 0``); the max ground smooths ``max_j
    |x_ij|`` as ``width log sum_j (e^(x_ij / width) + e^(-x_ij / width))``,
    with the row maximum subtracted first (``k = 1 / width``; Nesterov 2005,
    "Smooth minimization of non-smooth functions").  On the Euclidean and
    power grounds, with exponent ``e`` (2 on the Euclidean ground) and ``a_i
    = |x_i| / r_i`` elementwise, ``g_i = sign(x_i) a_i^(e - 1)``, ``h_i = (e
    - 1) a_i^(e - 2) / r_i`` and ``k_i = (e - 1) / r_i``.  Below exponent 2 a
    coordinate where ``x`` is zero has unbounded curvature; it counts as
    flat (``h = 0``).
    """
    if ground.kind == "sum":
        s = np.sqrt(x * x + width * width)
        return s.sum(axis=1), x / s, width * width / s**3, 0.0
    if ground.kind == "max":
        top = np.abs(x).max(axis=1, keepdims=True)
        up, down = np.exp((x - top) / width), np.exp((-x - top) / width)
        z = (up + down).sum(axis=1, keepdims=True)
        return top[:, 0] + width * np.log(z[:, 0]), (up - down) / z, (up + down) / (width * z), 1.0 / width
    e = ground.exponent
    r = np.maximum(ground_norm_eval_many(ground, x), np.finfo(float).tiny)
    a = np.abs(x) / r[:, None]
    g = np.sign(x) * a ** (e - 1.0)
    a[(a == 0.0) & (e < 2.0)] = np.inf
    return r, g, (e - 1.0) * a ** (e - 2.0) / r[:, None], (e - 1.0) / r


def _power_sum(ground, x: np.ndarray, p: float, width: float = 0.0):
    """``sum r_i^p`` over the blocks of :func:`_block_terms`, with its gradient and Hessian.

    Returns ``(value, gradient, Hessian, r)``.  With ``c_i = p r_i^(p - 1)``
    the gradient is ``sum_i c_i g_i`` and the Hessian ``sum_i c_i (diag(h_i)
    - k_i g_i g_i^T) + (p - 1) c_i / r_i g_i g_i^T``.
    """
    r, g, h, k = _block_terms(ground, x, width)
    c = p * r ** (p - 1.0)
    hess = (g.T * ((p - 1.0) * c / r - k * c)) @ g + np.diag(c @ h)
    return float((r**p).sum()), c @ g, hess, r


def _smoothing_homotopy(prob: ProblemInstance, cfg: SolverConfig, u0: np.ndarray, f0: float):
    """Sum or max ground with finite p > 1: damped Newton on smoothed block norms, level by level.

    Each smoothing level ``eps`` of ``_SMOOTHING`` (1e-1 down to 1e-11),
    times the largest block norm at ``u0``, runs damped Newton on ``sum
    r_i^p`` over the smoothed norms of :func:`_block_terms` (gradient and
    Hessian from :func:`_power_sum`), from the last level's point;
    ``max_iters`` caps the steps of all levels together.  The face finish
    (:func:`_face_finish`) lands a level's point on the face of the block
    norms that holds it, and its point is kept unless its value is more
    than ``_SUM_RTOL`` relative above the level point's.

    After each settled level, and after the last level whether or not it
    settled, the finish runs once on the face within ``max(_FACE_TOL, 10
    eps)`` of the level's point (``_FACE_TOL`` at the last level); the solve
    ends there, converged, when the finished point is kept and the finish
    certifies its face (the paper's optimality conditions are necessary and
    sufficient, so that point is optimal; Wright 1993, "Identifiable
    surfaces in constrained optimization").  A face with more equality rows
    than ``d`` is not tried before the last level: at eps = 1e-1 nearly
    every max-ground coordinate ties, and the n = 1 024, d = 10 cell of the
    probe's scale grid did not finish in 300 s with those attempts (0.13 s
    without).  Otherwise the last level's finish ends the solve, and
    ``converged`` means that level settled and the finish's point was kept.
    On the 288 sum- and max-ground finite-p cells of ``tools/certify_grid.py``
    the early stop takes the Newton steps from 7 091 to 1 959 (Gaussian
    grid) and from 6 767 to 3 598 (lattice grid).

    Three choices keep each level fast and exact (timings on a 2-core
    machine):

    - The step is a least-squares solve (``lstsq``), not ``solve``: the
      log-sum-exp Hessian reaches a condition number of 1e68 at eps = 1e-3
      on the cell (max, p=2, n=13, d=10, s=2) of ``tools/certify_grid.py``.
      With ``solve`` and a gradient fallback that cell ends 3.6e-6 relative
      above the optimum, and 18 of the 36 max-ground d = 10 cells of the
      Gaussian grid with finite p fail recovery.
    - A level settles once the Newton decrement ``-g . s`` is at most
      ``eps`` times the smoothed objective.  Running Newton to the rounding
      floor at every level takes a median of 56 steps, against 19, and 47
      to 55 ms against 31 to 38 ms, on the 15 sum- and max-ground p = 2
      solves of a solve-certify benchmark run.
    - Each line search starts at min(1, 4 times the last accepted step) and
      halves until the value falls.  Starting at 1 takes 10 evaluations per
      step, against 3, on the max ground with p = 2 at n = 4 096, d = 10:
      1.3 to 1.5 s against 0.33 to 0.36 s.  A short start can ask for a
      decrease below the value's rounding, so a search that fails from it
      is tried once more from 1; a level whose search fails from 1 ends
      unsettled.
    """
    ground, anchors = prob.norm.ground, prob.anchors
    p = prob.norm.generator.p
    length = float(ground_norm_eval_many(ground, u0 - anchors).max())
    u, steps, t = u0, 0, 1.0
    for eps in _SMOOTHING:
        settled, width = False, eps * length
        while steps < cfg.max_iters:
            f, grad, hess, _ = _power_sum(ground, u - anchors, p, width)
            s = np.linalg.lstsq(hess, -grad, rcond=None)[0]
            if -float(grad @ s) <= eps * f:
                settled = True
                break
            t = start = min(1.0, 4.0 * t)
            for _ in range(_BACKTRACKS):
                trial = u + t * s
                if float((_block_terms(ground, trial - anchors, width)[0] ** p).sum()) < f:
                    break
                t *= 0.5
            else:
                if start == 1.0:
                    break
                t = 0.25  # the retry starts at min(1, 4 t) = 1
                continue
            u = trial
            steps += 1
        last = eps == _SMOOTHING[-1]
        if settled or last:
            r = ground_norm_eval_many(ground, u - anchors)
            un, certified = _face_finish(ground.kind, u, anchors, r, p, max(_FACE_TOL, 10.0 * eps), math.inf if last else prob.dim)
            kept = float((ground_norm_eval_many(ground, un - anchors) ** p).sum()) <= float((r**p).sum()) * (1.0 + _SUM_RTOL)
            if last or (kept and certified):
                return (un if kept else u), steps, settled and kept


def _kkt_newton(system, z: np.ndarray, floor: float):
    """Least-squares Newton on ``F(z) = 0``, where ``system(z)`` returns ``F`` and its Jacobian.

    Stops once ``|F|`` reaches the rounding ``floor`` or stops falling (or
    is NaN), after at most ``_FACE_STEPS`` steps; returns the iterate of
    least ``|F|`` and that norm.  A coordinate whose Jacobian column is zero
    keeps its value: ``lstsq`` can leave an ulp in it.
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
        z = z + np.where(jac.any(axis=0), np.linalg.lstsq(jac, -f, rcond=None)[0], 0.0)
    return best, least


def _face_finish(kind: str, u: np.ndarray, anchors: np.ndarray, r: np.ndarray, p: float, tol: float, rows: float):
    """Newton on the KKT system of ``sum r_i^p`` over the face of the block norms that holds ``u``.

    On the sum ground each coordinate within ``tol`` (relative to the
    largest block norm ``r``) of an anchor's is fixed to it; on the max
    ground each block's coordinates within ``tol`` of its largest stay tied
    to it.  On that face the block norms are affine, ``r = a u - b`` subject
    to ``e u = c``: Newton from ``mu = 0`` on ``a^T r^(p-1) + e^T mu = 0``,
    ``e u = c`` (Jacobian ``[[(p - 1) a^T diag(r^(p-2)) a, e^T], [e, 0]]``,
    floor ``_GRAD_ULPS`` ulps of ``sum r_i^(p-1)``; :func:`_kkt_newton`).

    Returns the finished point and whether it certifies the face: the
    residual reached its floor, the point still lies on the face (on the
    sum ground no free coordinate changed sign against an anchor; on the
    max ground no coordinate of a block exceeds its top one), and the
    multipliers lie in the ground norms' subdifferentials within
    ``_DUAL_RTOL`` of ``sum r_i^(p-1)``: on the sum ground ``|mu_j|`` is at
    most the ``r_i^(p-1)`` of the anchors pinned at coordinate ``j``; on the
    max ground every tie's ``mu`` is non-negative and a block's total at
    most its ``r_i^(p-1)``.  A face with more than ``rows`` equality rows is
    not tried: ``u`` comes back uncertified.
    """
    x = u - anchors
    ax = np.abs(x)
    tol = tol * float(r.max())
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
        tied = (ax >= r[:, None] - tol) & (np.arange(d) != top[:, None])
        ti, tj = np.nonzero(tied)
        e = -a[ti]
        e[np.arange(ti.size), tj] = np.sign(x[ti, tj])
        c = np.einsum("ij,ij->i", e, anchors[ti])
    m = e.shape[0]
    if m > rows:
        return u, False
    b = np.einsum("ij,ij->i", a, anchors)
    jac = np.zeros((d + m, d + m))
    jac[:d, d:], jac[d:, :d] = e.T, e

    def kkt(z):
        rm = a @ z[:d] - b
        pos = rm > 0.0
        rs = np.where(pos, rm, 1.0)
        w = np.where(pos, rs ** (p - 2.0), 0.0)
        jac[:d, :d] = (a.T * ((p - 1.0) * w)) @ a
        return np.concatenate([a.T @ (w * rs) + e.T @ z[d:], e @ z[:d] - c]), jac

    scale = float((r ** (p - 1.0)).sum())
    floor = _GRAD_ULPS * float(np.finfo(float).eps) * scale
    z, least = _kkt_newton(kkt, np.concatenate([u, np.zeros(m)]), floor)
    un, mu = z[:d], z[d:]
    xn = un - anchors
    weight = np.maximum(a @ un - b, 0.0) ** (p - 1.0)
    slack = _DUAL_RTOL * scale
    if kind == "sum":
        on_face = bool(np.all(np.delete(np.sign(xn) == a, pinned, axis=1)))
        # |mu_j| is at most the weight of the anchors pinned at coordinate j.
        feasible = bool(np.all(np.abs(mu) <= weight @ (a[:, pinned] == 0.0) + slack))
    else:
        on_face = bool(np.all(tied | (np.abs(xn) <= np.einsum("ij,ij->i", a, xn)[:, None])))
        # Each tie's weight is non-negative; a block's weights total at most its own.
        feasible = bool(mu.min(initial=0.0) >= -slack and np.all(np.bincount(ti, mu, n) <= weight + slack))
    return un, least <= floor and on_face and feasible


def _newton(prob: ProblemInstance, cfg: SolverConfig, u0: np.ndarray, f0: float):
    """Euclidean or power ground with finite p: damped Newton on ``sum r_i^p`` from ``u0``.

    ``sum r_i^p`` has the minimizers of the objective ``(sum r_i^p)^(1/p)``;
    one :func:`_power_sum` pass per point gives its value, gradient and
    Hessian.  On the Euclidean ground the gradient at a point of the
    anchors' affine hull lies in the hull's directions, which the Hessian
    maps to themselves, so the iterates stay in the hull, which holds every
    minimizer.  A step is halved until it lowers the value, or leaves it
    within ``_GRAD_ULPS`` ulps and at least halves the gradient norm: the
    gradient norm keeps shrinking long after the value stops resolving a
    descent, but below ground exponent 2 a coordinate on an anchor's makes
    Newton reflect it across that anchor at every step while rounding
    elsewhere shaves the gradient norm by about 1e-7 relative; the half step
    lands it on the anchor.  Stops converged once the gradient norm is
    within ``_GRAD_ULPS`` ulps of the sum of its blocks' dual norms ``p
    r_i^(p - 1)``.

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
    ground, anchors = prob.norm.ground, prob.anchors
    dual = dual_ground_norm(ground)
    radius = solve_bound(prob).radius
    p = prob.norm.generator.p
    eps = np.finfo(float).eps
    u = u0
    f, grad, hess, r = _power_sum(ground, u - anchors, p)
    steps, converged = 0, False
    while steps < cfg.max_iters:
        s = None
        if p == 1.0:
            k = int(np.argmin(r))
            anchor = anchors[k].copy()
            fk, gk, _, rk = _power_sum(ground, anchor - anchors, p)
            excess = float(ground_norm_eval_many(dual, -gk)) - 1.0
            if excess <= 0.0:
                return anchor, steps, True
            if fk <= f:
                s = excess / float((1.0 / np.delete(rk, k)).sum()) * _ground_subgradient(dual, -gk)
                u, f, grad = anchor, fk, gk
        gn = float(np.linalg.norm(grad))
        if s is None:
            if gn <= _GRAD_ULPS * eps * p * float((r ** (p - 1.0)).sum()):
                converged = True
                break
            try:
                s = np.linalg.solve(hess, -grad)
            except np.linalg.LinAlgError:
                s = -grad
            if not np.all(np.isfinite(s)) or float(s @ grad) >= 0.0:
                s = -grad
            length = float(np.linalg.norm(s))
            if length > radius:
                s *= radius / length
        for _ in range(_BACKTRACKS):
            trial = u + s
            terms = _power_sum(ground, trial - anchors, p)
            if terms[0] < f or (terms[0] - f <= _GRAD_ULPS * eps * f and float(np.linalg.norm(terms[1])) <= 0.5 * gn):
                break
            s = 0.5 * s
        else:
            break
        steps += 1
        u, (f, grad, hess, r) = trial, terms
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
    value, with the blocks' gradients ``g`` and Hessians ``diag(h_i) - k_i
    g_i g_i^T`` of :func:`_block_terms`, so the Jacobian's ``u`` block is
    ``diag(lam @ h) - (g^T lam k) g``.  Below ground exponent 2 a coordinate
    where some selected block's displacement lies within the same 1e-7 band
    is put on that block's anchor coordinate and held there (its Jacobian
    column is zero): the gradient behaves like ``sign(y) |y|^(e - 1)``
    about it, so Newton would step it across the anchor and stall above the
    floor.  The point is kept when no weight is below the ``_GRAD_ULPS``
    ulps floor and its value is at most ``_SUM_RTOL`` above SLSQP's;
    ``converged`` means it was kept with its residual at the floor.
    """
    from scipy.optimize import minimize

    ground = prob.norm.ground
    n, d = prob.anchors.shape

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
    g = _block_terms(ground, us - prob.anchors[near])[1]
    sel, lam, _ = _min_norm_rows(g)
    anchors, m = (prob.anchors[near[sel]] - us) / t, sel.size
    gap = np.abs(anchors)
    held = (gap.min(axis=0) <= 1e-7) & (ground.exponent < 2.0)
    z0 = np.where(held, anchors[gap.argmin(axis=0), np.arange(d)], 0.0)
    jac = np.zeros((d + m + 1, d + m + 1))
    jac[d:-1, d], jac[-1, d + 1:] = -1.0, 1.0

    def chebyshev(z):
        lam = z[d + 1:]
        r, g, h, k = _block_terms(ground, z[:d] - anchors)
        jac[:d, :d] = np.diag(lam @ h) - (g.T * (lam * k)) @ g
        jac[:d, d + 1:], jac[d:-1, :d] = g.T, g
        jac[:, :d][:, held] = 0.0
        return np.concatenate([lam @ g, r - z[d], [lam.sum() - 1.0]]), jac

    z, least = _kkt_newton(chebyshev, np.concatenate([z0, [1.0], lam]), floor)
    u = us + t * z[:d]
    kept = z[d + 1:].min() >= -floor and ground_norm_eval_many(ground, u - prob.anchors).max() <= t * (1.0 + _SUM_RTOL)
    return (u if kept else us), int(res.nit), bool(kept and least <= floor)


def _validate_config(cfg: SolverConfig) -> None:
    if cfg.max_iters < 1:
        raise InvalidInputError("max_iters must be at least 1")


def solve_subgradient(prob: ProblemInstance, config: SolverConfig | None = None) -> SolveResult:
    """Minimize a built-in-generator instance with the exact method for its family.

    - Two anchors under a symmetric generator: :func:`midpoint_shortcut`.
    - Sum ground, p = 1, and max ground, p = 1, in d <= 2: the
      coordinatewise median (of the turned anchors on the max ground in the
      plane), converged, with no iterations.
    - Max ground, p = inf: the bounding-box midpoint, converged.
    - Sum ground, p = inf, with at most ``_FACETS`` facets (d <= 12): the
      Chebyshev center over the facets of the l1 ball
      (:func:`_l1_chebyshev`).  In d <= 3 it is a closed form, converged,
      with no iterations; beyond, one dense program solved by HiGHS's dual
      simplex, where ``converged`` means HiGHS reported an optimal
      solution (status 0) and ``iterations`` counts its simplex
      iterations.
    - Max ground with p = 1 beyond d = 2, sum ground with p = inf beyond
      d = 12: one sparse HiGHS linear program (interior point, then
      crossover); ``converged`` means HiGHS reported an optimal solution
      (status 0).
    - Sum or max ground, finite p > 1: damped Newton on ``sum r_i^p`` over
      smoothed block norms, level by level from 1e-1 down to 1e-11
      (:func:`_smoothing_homotopy`); after each settled level, Newton on
      the face of the block norms that holds its point
      (:func:`_face_finish`), whose point is kept unless its value is more
      than 1e-12 relative above the level point's.  ``iterations`` counts
      the Newton steps of the levels that ran.  The solve stops, converged,
      at the first level whose finished point is kept and whose face the
      dual conditions certify; otherwise ``converged`` means the last level
      settled (its Newton decrement fell to 1e-11 of the smoothed
      objective) and the finish's point was kept.
    - Euclidean or power ground, finite p: damped Newton on ``sum r_i^p``
      from the centroid (:func:`_newton`), where ``converged`` means the
      gradient norm fell to the rounding floor of its blocks, or, for p =
      1, that the anchor nearest an iterate passed the dual-norm test and
      is returned as is.
    - Euclidean or power ground, p = inf: the epigraph SLSQP from the
      centroid, then Newton on the Chebyshev conditions (:func:`_minimax`);
      ``converged`` means the finished point was kept with the conditions'
      residual within ``_GRAD_ULPS`` ulps.

    Each method returns ``(point, iterations, converged)``.
    ``config.max_iters`` caps the simplex, SQP or Newton iterations of the
    method that runs (of all smoothing levels together), and
    ``iterations`` reports how many it took.

    The problem is invariant under ``u -> a u + b`` (``a > 0``), but the
    tolerances of HiGHS and SLSQP are absolute and the Newton floors ignore
    the rounding of ``u - v_i`` far from the origin, so beyond two anchors
    every method runs on a private copy of the instance.  Its anchors are
    shifted by the centroid rounded to a multiple of the power of two
    nearest (in ratio) the largest block norm at the centroid, and divided
    by that power.  The division is exact, and so is the shift
    wherever it is zero or within a factor of two of the coordinate
    (Sterbenz's lemma), as for anchors far from the origin; elsewhere it
    rounds by half an ulp of the copy's coordinate.  Anchors of order one
    about the origin are the copy's anchors bit for bit.  On the copy, the
    method's point is kept unless its value is more than ``_SUM_RTOL``
    (1e-12) relative above the centroid's, which then replaces it, not
    converged; an optimal centroid ties the method's point up to rounding.
    The point is mapped back once, and ``value``
    is the objective there on the original anchors.  Anchors scaled by a
    power of two give the point scaled by it, bit for bit.
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
    centroid = prob.centroid()
    mant, exp = math.frexp(float(ground_norm_eval_many(prob.norm.ground, centroid - prob.anchors).max()))
    scale = math.ldexp(1.0, exp - (mant < math.sqrt(0.5)))
    shift = scale * np.round(centroid / scale)
    # The copy skips __post_init__: its absolute distinctness gap would
    # reject valid anchors once they are divided by a scale above one.
    copy = object.__new__(ProblemInstance)
    object.__setattr__(copy, "anchors", (prob.anchors - shift) / scale)
    object.__setattr__(copy, "norm", prob.norm)
    u0 = copy.centroid()
    f0 = objective_eval(copy, u0)
    p = prob.norm.generator.p
    if p == 1.0 and (prob.norm.ground.kind == "sum" or (prob.norm.ground.kind == "max" and prob.dim <= 2)):
        method = _coordinate_median
    elif prob.norm.ground.kind == "max" and p == math.inf:
        method = _box_center
    elif prob.norm.ground.kind == "sum" and p == math.inf and 1 << prob.dim <= _FACETS:
        method = _l1_chebyshev
    elif prob.norm.ground.kind in ("sum", "max"):
        method = _polyhedral_lp if p in (1.0, math.inf) else _smoothing_homotopy
    else:
        method = _minimax if p == math.inf else _newton
    u, steps, converged = method(copy, cfg, u0, f0)
    if objective_eval(copy, u) > f0 * (1.0 + _SUM_RTOL):
        u, converged = u0, False
    point = shift + scale * u
    return SolveResult(point=point, value=objective_eval(prob, point), iterations=steps, converged=converged)


def solve_pattern_search(prob: ProblemInstance, config: SolverConfig | None = None) -> SolveResult:
    """Derivative-free Nelder-Mead restarts; works for any validated generator.

    The generator is only ever evaluated, never differentiated.  Nelder-Mead
    runs (Nelder and Mead 1965) search ``u = centroid + basis @ y`` over the
    directions of :func:`_search_basis`, the first from the centroid at
    simplex size 5% of the anchor spread (``h0``), and each restart from the
    best point so far, at sizes alternating 1e-2 and 1e-4 times ``h0``.
    Nelder-Mead can stall short of a minimizer (McKinnon 1998), so restarts
    go on while they gain: the first restart that gains at most
    ``_STALL_TOL`` times max(1, value) ends the search, unless Nelder-Mead
    cut it off at its evaluation cap with some gain, where a further restart
    can still gain.  ``config.max_iters`` caps the iterations of all runs
    together, and ``iterations`` reports the total.  ``converged`` means
    that such a restart, not the cap, ended the search and the search has
    at most ``_VERIFIED_DIM`` directions.  The
    value is never above the centroid's.  Verified against the exact methods
    in dimension at most 3; from dimension 5 on it can stop up to about 2e-2
    relative above the optimum with a restart that gains nothing, so with
    more directions it never reports ``converged``.
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
    shrink = 1.0
    while iterations < cfg.max_iters:
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
        # A run cut off at ``maxfev`` (status 1) with some gain is no stall.
        if shrink < 1.0 and gain <= _STALL_TOL * max(1.0, f) and (res.status != 1 or gain <= 0.0):
            converged = y.size <= _VERIFIED_DIM
            break
        shrink = 1e-4 if shrink == 1e-2 else 1e-2
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
