"""Solvers for the anchor-displacement minimization problem.

Two anchors under a symmetric generator get the exact midpoint.  Otherwise
the workhorse is a projected subgradient method confined to the a-priori
solution ball, with diminishing steps scaled by the anchor spread, followed
by a deterministic local refinement (quasi-Newton when the objective is
smooth, simplex descent restarts otherwise).  For Euclidean grounds the
refinement runs inside the anchors' affine hull, where every minimizer lives,
and finishes with an exact convex-hull projection that is only kept when it
does not increase the objective.

A derivative-free compass search covers generators that are opaque
callables, and a brute-force lattice oracle provides certified reference
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
from .geometry import (
    affine_hull_basis,
    project_onto_ball,
    project_onto_convex_hull,
)
from .ground_norms import ground_norm_eval
from .problem import (
    ProblemInstance,
    _ground_subgradient,
    objective_eval,
    objective_eval_many,
    objective_subgradient,
    solve_bound,
)

_GRID_POINT_CAP = 100_000_000
_NEAR_MIN_SLACK = 1e-9


@dataclasses.dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 2000
    stop_tol: float = 1e-9


@dataclasses.dataclass
class SolveResult:
    point: np.ndarray
    value: float
    iterations: int
    best_trace: list
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


def _anchor_spread(prob: ProblemInstance) -> float:
    return float(np.ptp(prob.anchors, axis=0).max())


def _is_symmetric(prob: ProblemInstance) -> bool:
    return prob.norm.generator.symmetric


def midpoint_shortcut(prob: ProblemInstance) -> SolveResult:
    """Exact solution for two anchors under a symmetric generator.

    The midpoint is always optimal, and its objective value equals the
    anchor distance times the generator at the even split.
    """
    if prob.n != 2:
        raise ContractError("midpoint shortcut requires exactly two anchors")
    if not _is_symmetric(prob):
        raise ContractError("midpoint shortcut requires a symmetric generator")
    mid = prob.anchors.mean(axis=0)
    value = objective_eval(prob, mid)
    return SolveResult(
        point=mid, value=value, iterations=0, best_trace=[(0, value)], converged=True
    )


def _local_descent(fun, x0, f0, jac, h0, budget=700):
    """Quasi-Newton plus simplex-descent restarts from the incumbent.

    Returns the refined point, value, and the value gained during the final
    restart stage (zero gain means the refinement has stalled).
    """
    from scipy.optimize import minimize

    best_x = np.asarray(x0, dtype=float).copy()
    best_f = f0
    if jac is not None:
        res = minimize(
            fun,
            best_x,
            jac=jac,
            method="BFGS",
            options={"gtol": 1e-11, "maxiter": 200},
        )
        val = float(res.fun)
        if val < best_f:
            best_x, best_f = np.asarray(res.x, dtype=float), val
    last_gain = 0.0
    d = best_x.size
    for stage, shrink in enumerate((1.0, 1e-2, 1e-4)):
        h = max(h0 * shrink, 1e-12)
        simplex = np.vstack([best_x, best_x + h * np.eye(d)])
        res = minimize(
            fun,
            best_x,
            method="Nelder-Mead",
            options={
                "initial_simplex": simplex,
                "xatol": 1e-13,
                "fatol": 1e-15,
                "maxfev": budget,
            },
        )
        val = float(res.fun)
        gain = best_f - val
        if val < best_f:
            best_x, best_f = np.asarray(res.x, dtype=float), val
        if stage == 2:
            last_gain = max(gain, 0.0)
    return best_x, best_f, last_gain


def _minimax_polish(prob: ProblemInstance, u0: np.ndarray, f0: float):
    """Epigraph solve for the largest-block objective over smooth grounds.

    Minimizing t subject to ground(u - v_i) <= t is a smooth constrained
    program whenever the ground norm is differentiable away from zero, and a
    sequential quadratic step reaches far sharper optima there than direct
    descent on the nonsmooth max.
    """
    from scipy.optimize import minimize

    ground = prob.norm.ground
    n, d = prob.anchors.shape

    def obj(z):
        return z[d]

    def obj_grad(z):
        g = np.zeros(d + 1)
        g[d] = 1.0
        return g

    cons = []
    for i in range(n):
        vi = prob.anchors[i]

        def c_i(z, vi=vi):
            return z[d] - ground_norm_eval(ground, z[:d] - vi)

        def j_i(z, vi=vi):
            g = np.zeros(d + 1)
            g[:d] = -_ground_subgradient(ground, z[:d] - vi)
            g[d] = 1.0
            return g

        cons.append({"type": "ineq", "fun": c_i, "jac": j_i})
    res = minimize(
        obj,
        np.append(u0, f0),
        jac=obj_grad,
        method="SLSQP",
        constraints=cons,
        options={"maxiter": 150, "ftol": 1e-14},
    )
    u = np.asarray(res.x[:d], dtype=float)
    f = objective_eval(prob, u)
    if f < f0:
        return u, f
    return u0, f0


def _refine(prob: ProblemInstance, u0: np.ndarray, f0: float):
    """Local refinement of an incumbent; never returns a worse point."""
    ground = prob.norm.ground
    gen = prob.norm.generator
    if gen.kind == "p" and gen.p == math.inf and ground.kind in ("euclidean", "p"):
        u0, f0 = _minimax_polish(prob, u0, f0)
    smooth = ground.kind in ("euclidean", "p") and gen.kind == "p" and gen.p != math.inf
    h0 = max(1e-6, 0.05 * max(_anchor_spread(prob), 1e-3))
    if ground.kind == "euclidean":
        origin, basis = affine_hull_basis(prob.anchors)
        k = basis.shape[1]
        if 0 < k < prob.dim:
            def fun(y):
                return objective_eval(prob, origin + basis @ y)

            jac = None
            if smooth:
                def jac(y):
                    return basis.T @ objective_subgradient(prob, origin + basis @ y)

            y0 = basis.T @ (u0 - origin)
            y_best, f_best, gain = _local_descent(fun, y0, fun(y0), jac, h0)
            if f_best <= f0:
                return origin + basis @ y_best, f_best, gain
            return u0, f0, 0.0
    jac = (lambda x: objective_subgradient(prob, x)) if smooth else None
    x_best, f_best, gain = _local_descent(
        lambda x: objective_eval(prob, x), u0, f0, jac, h0
    )
    if f_best <= f0:
        return x_best, f_best, gain
    return u0, f0, 0.0


def _hull_clip(prob: ProblemInstance, u: np.ndarray, f: float):
    """Snap to the anchors' convex hull when that does not cost anything."""
    proj = project_onto_convex_hull(prob.anchors, u)
    fp = objective_eval(prob, proj)
    if fp <= f:
        return proj, fp
    return u, f


def _validate_config(cfg: SolverConfig) -> None:
    if cfg.max_iters < 1:
        raise InvalidInputError("max_iters must be at least 1")
    if cfg.stop_tol <= 0.0:
        raise InvalidInputError("stop_tol must be positive")


def solve_subgradient(prob: ProblemInstance, config: SolverConfig | None = None) -> SolveResult:
    """Projected subgradient descent plus deterministic local refinement.

    Two anchors under a symmetric generator return :func:`midpoint_shortcut`.
    Every other instance steps by ``c / (sqrt(k) |g|)`` along the subgradient
    ``g``, with ``c`` the anchor spread, and keeps its best iterate: a rising
    objective is part of the method, not a failure.  ``converged`` means
    either a zero subgradient was met or the final refinement stage gained at
    most ``stop_tol`` (scaled); a False value signals the budget ran out while
    progress was still being made.
    """
    cfg = config or SolverConfig()
    _validate_config(cfg)
    if prob.norm.generator.kind != "p":
        raise UnsupportedGeneratorError(
            "subgradient solver needs a built-in generator; "
            "use the pattern search for tabulated ones"
        )
    if prob.n == 2 and _is_symmetric(prob):
        return midpoint_shortcut(prob)
    u = prob.centroid()
    f = objective_eval(prob, u)
    c = max(_anchor_spread(prob), 1e-12)
    radius = solve_bound(prob).radius
    best_u, best_f = u.copy(), f
    trace = [(0, f)]
    iterations = 0
    stationary = False
    for k in range(1, cfg.max_iters + 1):
        g = objective_subgradient(prob, u)
        gnorm = float(np.linalg.norm(g))
        if gnorm <= 1e-18:
            stationary = True
            break
        step = c / (math.sqrt(k) * gnorm)
        u = project_onto_ball(prob.norm.ground, u - step * g, radius)
        f = objective_eval(prob, u)
        iterations = k
        if f < best_f:
            best_u, best_f = u.copy(), f
            trace.append((k, f))
    converged = stationary
    if not stationary:
        ref_u, ref_f, gain = _refine(prob, best_u, best_f)
        if ref_f < best_f:
            best_u, best_f = ref_u, ref_f
            trace.append((iterations, best_f))
        converged = gain <= cfg.stop_tol * max(1.0, best_f)
    if prob.norm.ground.kind == "euclidean":
        clipped_u, clipped_f = _hull_clip(prob, best_u, best_f)
        if clipped_f < best_f:
            trace.append((iterations, clipped_f))
        best_u, best_f = clipped_u, clipped_f
    value = objective_eval(prob, best_u)
    return SolveResult(
        point=best_u,
        value=value,
        iterations=iterations,
        best_trace=trace,
        converged=converged,
    )


def _compass_directions(d: int) -> np.ndarray:
    axes = np.vstack([np.eye(d), -np.eye(d)])
    if d > 4:
        return axes
    corners = np.array(
        [[(1.0 if (m >> j) & 1 else -1.0) for j in range(d)] for m in range(2**d)]
    )
    corners /= math.sqrt(d)
    return np.vstack([axes, corners])


def solve_pattern_search(prob: ProblemInstance, config: SolverConfig | None = None) -> SolveResult:
    """Derivative-free compass search; works for any validated generator.

    Sweeps axis and diagonal directions with a shrinking step, confined to
    the solution-ball bounding box, then hands off to the simplex-descent
    refinement.  Convergence reporting matches :func:`solve_subgradient`.
    """
    cfg = config or SolverConfig()
    _validate_config(cfg)
    u = prob.centroid()
    f = objective_eval(prob, u)
    radius = solve_bound(prob).radius
    dirs = _compass_directions(prob.dim)
    h = max(_anchor_spread(prob) * 0.5, 1e-3)
    trace = [(0, f)]
    iterations = 0
    for k in range(1, cfg.max_iters + 1):
        candidates = np.clip(u[None, :] + h * dirs, -radius, radius)
        vals = objective_eval_many(prob, candidates)
        j = int(np.argmin(vals))
        iterations = k
        if vals[j] < f - 1e-15:
            u = candidates[j]
            f = float(vals[j])
            trace.append((k, f))
        else:
            h *= 0.5
            if h < 1e-12:
                break
    ref_u, ref_f, gain = _refine(prob, u, f)
    if ref_f < f:
        u, f = ref_u, ref_f
        trace.append((iterations, f))
    value = objective_eval(prob, u)
    converged = gain <= cfg.stop_tol * max(1.0, value)
    return SolveResult(
        point=u, value=value, iterations=iterations, best_trace=trace, converged=converged
    )


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
    anchor centroid.  The lattice is evaluated in four slabs along the first
    axis, which bounds peak memory; slab results are merged in slab order.
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

    def slab(i0: int, i1: int):
        mesh = np.meshgrid(axes[0][i0:i1], *axes[1:], indexing="ij")
        pts = np.stack(mesh, axis=-1).reshape(-1, prob.dim)
        vals = objective_eval_many(prob, pts)
        lo = float(vals.min())
        near = vals <= lo + _NEAR_MIN_SLACK
        return lo, pts[near], vals[near]

    chunk = max(1, math.ceil(axes[0].size / 4))
    results = [slab(i, min(i + chunk, axes[0].size)) for i in range(0, axes[0].size, chunk)]
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
