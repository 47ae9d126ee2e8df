"""Reference computations made apart from normmin.

Everything here uses numpy only and never imports normmin, so the benchmark
can check the program's answers against arithmetic it did not write.

Norms are identified by their exponent: a ground norm ``e`` is the l_e norm
on R^d (1 = sum, inf = max, 2 = Euclidean), and the power generator with
exponent ``p`` aggregates block norms by their l_p norm.
"""

from __future__ import annotations

import math

import numpy as np

GROUND_EXPONENT = {"sum": 1.0, "max": math.inf, "euclidean": 2.0, "p3": 3.0}


def conjugate_exponent(p: float) -> float:
    if p == 1.0:
        return math.inf
    if p == math.inf:
        return 1.0
    return p / (p - 1.0)


def lp_norm(x, e: float) -> np.ndarray:
    """l_e norm over the last axis."""
    a = np.abs(np.asarray(x, dtype=float))
    if e == 1.0:
        return a.sum(axis=-1)
    if e == math.inf:
        return a.max(axis=-1)
    if e == 2.0:
        return np.sqrt(np.einsum("...i,...i->...", a, a))
    m = a.max(axis=-1)
    safe = np.where(m > 0.0, m, 1.0)
    return m * ((a / safe[..., None]) ** e).sum(axis=-1) ** (1.0 / e)


def ground_norm(x, e: float) -> np.ndarray:
    return lp_norm(x, e)


def dual_ground_norm(y, e: float) -> np.ndarray:
    return lp_norm(y, conjugate_exponent(e))


def power_aggregate(r, p: float) -> np.ndarray:
    """Product norm of blocks with norms ``r`` under the power generator ``p``."""
    return lp_norm(r, p)


def dual_power_aggregate(rstar, p: float) -> np.ndarray:
    """Dual product norm from dual block norms: the conjugate aggregate."""
    return lp_norm(rstar, conjugate_exponent(p))


def power_generator(t, p: float) -> np.ndarray:
    """psi_p on the simplex (last axis): 1 for p=1, max for inf, else l_p."""
    t = np.asarray(t, dtype=float)
    if p == 1.0:
        return np.ones(t.shape[:-1])
    return lp_norm(t, p)


def power_conjugate(s, p: float) -> np.ndarray:
    """Closed-form conjugate sup_t <s, t> / psi_p(t): the l_q norm of ``s``."""
    return lp_norm(s, conjugate_exponent(p))


def objective(anchors, e: float, p: float, us) -> np.ndarray:
    """Objective at the rows of ``us`` (or at one point)."""
    us = np.asarray(us, dtype=float)
    single = us.ndim == 1
    us2 = us[None, :] if single else us
    out = np.empty(us2.shape[0])
    # Chunked so a 10^6-point lattice never holds the full (N, n, d) stack.
    step = max(1, 2_000_000 // max(1, anchors.size))
    for i in range(0, us2.shape[0], step):
        diffs = us2[i : i + step, None, :] - anchors[None, :, :]
        out[i : i + step] = power_aggregate(ground_norm(diffs, e), p)
    return out[0] if single else out


def feasible_duals(duals, e: float, p: float) -> np.ndarray:
    """Nearest-by-construction blocks with sum exactly zero and dual norm <= 1.

    The mean block is removed, then the stack is scaled down if its dual
    product norm exceeds one.  The result satisfies the weak-duality premise
    up to rounding, whatever the input.
    """
    y = np.asarray(duals, dtype=float)
    y = y - y.mean(axis=0)
    scale = float(dual_power_aggregate(dual_ground_norm(y, e), p))
    return y / max(1.0, scale)


def duality_gap(anchors, e: float, p: float, u, duals) -> float:
    """Weak-duality gap f(u) - sum <y_i, u - v_i> for feasible blocks ``y``.

    It bounds f(u) - min f from above, so a small gap proves ``u`` optimal.
    """
    y = feasible_duals(duals, e, p)
    u = np.asarray(u, dtype=float)
    lower = float(np.sum(y * (u[None, :] - anchors)))
    return float(objective(anchors, e, p, u)) - lower


# ---------------------------------------------------------------------------
# Planted instances: an optimum and dual blocks chosen first, anchors after.
# ---------------------------------------------------------------------------


def unit_dual(rng, d: int, e: float, k: int) -> np.ndarray:
    """The ``k``-th pair's vector of dual norm one, sparse on polyhedral grounds.

    Sparse duals give full-dimensional alignment cones, so the planted
    solution sets hold many lattice points; pair ``k`` uses axis ``k mod d``,
    which keeps the anchors distinct.
    """
    if e == math.inf or e == 1.0:
        w = np.zeros(d)
        w[k % d] = 1.0 if rng.random() < 0.5 else -1.0
        return w
    w = rng.normal(size=d)
    return w / float(dual_ground_norm(w, e))


def aligned_unit(rng, w: np.ndarray, e: float) -> np.ndarray:
    """A vector ``z`` of ground norm one with <w, z> = dual norm of w = 1."""
    if e == 1.0:
        j = int(np.argmax(np.abs(w)))
        z = np.zeros_like(w)
        z[j] = np.sign(w[j])
        return z
    if e == math.inf:
        z = np.sign(w)
        free = w == 0.0
        # Multiples of 1/4 keep the anchors on dyadic coordinates.
        z[free] = rng.integers(-3, 4, size=int(free.sum())) / 4.0
        return z
    b = conjugate_exponent(e)
    z = np.sign(w) * np.abs(w) ** (b - 1.0)
    return z / float(ground_norm(z, e))


def planted_instance(rng, e: float, p: float, d: int, pairs: int):
    """Anchors, a minimizer, its dual blocks and the optimal value.

    Blocks come in pairs (w, -w), so they sum to zero.  Each anchor sits at
    the minimizer minus a radius times a direction aligned with its block;
    within a pair the radii agree, which the power-profile condition needs.
    Radii and the minimizer are multiples of 1/8 so lattices can hit the
    solution set exactly.
    """
    u = rng.integers(-4, 5, size=d) / 8.0
    anchors, duals, radii = [], [], []
    for k in range(pairs):
        w = unit_dual(rng, d, e, k)
        rho = float(rng.integers(6, 17)) / 8.0
        for sign in (1.0, -1.0):
            z = aligned_unit(rng, sign * w, e)
            anchors.append(u - rho * z)
            duals.append(sign * w)
            radii.append(rho)
    anchors = np.array(anchors)
    radii = np.array(radii)
    value = float(power_aggregate(radii, p))
    q = conjugate_exponent(p)
    if p == 1.0:
        weights = np.ones_like(radii)
    elif p == math.inf:
        weights = np.full_like(radii, 1.0 / radii.size)
        # The max generator needs every weighted block at the largest radius.
        anchors = u[None, :] + (anchors - u[None, :]) * (radii.max() / radii)[:, None]
        radii = np.full_like(radii, radii.max())
        value = float(radii.max())
    else:
        weights = (radii**p / float((radii**p).sum())) ** (1.0 / q)
    return anchors, u, weights[:, None] * np.array(duals), value


# ---------------------------------------------------------------------------
# Closed-form solution sets of the bundled planar examples (anchors (0,0) and
# (2,0)), derived from the optimality conditions by hand.
# ---------------------------------------------------------------------------

_SLACK = 1e-9


def _segment(pts):
    x, y = pts[:, 0], pts[:, 1]
    return (np.abs(y) <= _SLACK) & (x >= -_SLACK) & (x <= 2.0 + _SLACK)


def _diamond(pts):
    # Both max-norm alignment cones: |y| <= x and |y| <= 2 - x.
    x, y = pts[:, 0], pts[:, 1]
    return (np.abs(y) <= x + _SLACK) & (np.abs(y) <= 2.0 - x + _SLACK)


def _vertical(pts):
    x, y = pts[:, 0], pts[:, 1]
    return (np.abs(x - 1.0) <= _SLACK) & (np.abs(y) <= 1.0 + _SLACK)


def _midpoint(pts):
    return (np.abs(pts[:, 0] - 1.0) <= _SLACK) & (np.abs(pts[:, 1]) <= _SLACK)


PLANAR_PAIR = np.array([[0.0, 0.0], [2.0, 0.0]])
PLANAR_BOX = np.array([[-3.0, 3.0], [-3.0, 3.0]])

# case id -> (ground exponent, generator exponent, value, duals, region)
PLANAR_CASES = {
    "ft-linf-pair": (math.inf, 1.0, 2.0, [[1.0, 0.0], [-1.0, 0.0]], _diamond),
    "ft-l1-pair": (1.0, 1.0, 2.0, [[1.0, 0.0], [-1.0, 0.0]], _segment),
    "ft-l2-pair": (2.0, 1.0, 2.0, [[1.0, 0.0], [-1.0, 0.0]], _segment),
    "ft-l3-pair": (3.0, 1.0, 2.0, [[1.0, 0.0], [-1.0, 0.0]], _segment),
    "cheb-linf-pair": (math.inf, math.inf, 1.0, [[0.5, 0.0], [-0.5, 0.0]], _vertical),
    "cheb-l2-pair": (2.0, math.inf, 1.0, [[0.5, 0.0], [-0.5, 0.0]], _midpoint),
    "pft-linf-pair": (
        math.inf, 2.0, math.sqrt(2.0),
        [[1 / math.sqrt(2.0), 0.0], [-1 / math.sqrt(2.0), 0.0]], _vertical,
    ),
    "pft-l2-pair": (
        2.0, 2.0, math.sqrt(2.0),
        [[1 / math.sqrt(2.0), 0.0], [-1 / math.sqrt(2.0), 0.0]], _midpoint,
    ),
}
PLANAR_SOLUTION = np.array([1.0, 0.0])


def lattice(box, grid: int) -> np.ndarray:
    """Row-major lattice of ``grid`` points per axis over ``box``."""
    axes = [np.linspace(lo, hi, grid) for lo, hi in np.asarray(box, dtype=float)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack(mesh, axis=-1).reshape(-1, len(axes))
