"""Small exact-geometry helpers: ball projections, affine hulls and the
convex-hull projection (Wolfe's minimum-norm-point method)."""

from __future__ import annotations

import numpy as np

from .ground_norms import GroundNorm, ground_norm_eval


def project_onto_ball(nrm: GroundNorm, u: np.ndarray, radius: float) -> np.ndarray:
    """Project onto the closed ``nrm`` ball of given radius.

    Coordinate clipping for the max norm, sorting-based shrinkage for the sum
    norm, radial scaling for the Euclidean and power kinds (exact for the
    Euclidean norm, norm-decreasing and idempotent for power norms, which is
    all the solver needs).
    """
    u = np.asarray(u, dtype=float)
    if ground_norm_eval(nrm, u) <= radius:
        return u.copy()
    if nrm.kind == "max":
        return np.clip(u, -radius, radius)
    if nrm.kind == "sum":
        return _project_l1(u, radius)
    return u * (radius / ground_norm_eval(nrm, u))


def _project_l1(u: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection onto the sum-norm ball, by soft thresholding."""
    a = np.abs(u)
    if a.sum() <= radius:
        return u.copy()
    s = np.sort(a)[::-1]
    cumsum = np.cumsum(s)
    ks = np.arange(1, a.size + 1)
    theta_candidates = (cumsum - radius) / ks
    valid = s - theta_candidates > 0
    k = int(np.max(ks[valid]))
    theta = (cumsum[k - 1] - radius) / k
    return np.sign(u) * np.maximum(a - theta, 0.0)


def affine_hull_basis(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal basis of the affine hull of the rows of ``points``.

    Returns (origin, basis) with basis of shape (d, k); k may be zero when
    all points coincide.
    """
    pts = np.asarray(points, dtype=float)
    origin = pts.mean(axis=0)
    diffs = pts - origin
    u, s, vt = np.linalg.svd(diffs, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return origin, np.zeros((pts.shape[1], 0))
    rank = int(np.sum(s > 1e-12 * s[0]))
    return origin, vt[:rank].T


def project_onto_convex_hull(points: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Euclidean projection of ``u`` onto the convex hull of the rows.

    Wolfe's minimum-norm-point method (Wolfe 1976, "Finding the nearest point
    in a polytope") on the rows shifted by ``u``.  It keeps an affinely
    independent active set with positive convex weights, adds the row with
    the least inner product with the current point, and solves the affine
    least-squares problem on the active set, stepping back along the weights
    whenever one turns negative.  Exact, deterministic and finite; the active
    set never holds more than ``d + 1`` rows, so any number of points is fine.
    """
    pts = np.asarray(points, dtype=float)
    u = np.asarray(u, dtype=float)
    q = pts - u
    sq = np.einsum("ij,ij->i", q, q)
    tol = 1e-12 * float(sq.max())
    active = np.array([int(np.argmin(sq))])
    lam = np.ones(1)
    x = q[active[0]]
    xx = float(x @ x)
    while True:
        j = int(np.argmin(q @ x))
        if xx - float(q[j] @ x) <= tol or j in active:
            break
        cand, weights = np.append(active, j), np.append(lam, 0.0)
        while True:
            mu = _affine_min_norm_weights(q[cand])
            if mu.min() >= 0.0:
                keep = mu > 0.0
                cand, weights = cand[keep], mu[keep]
                break
            neg = np.flatnonzero(mu < 0.0)
            ratios = weights[neg] / (weights[neg] - mu[neg])
            weights = weights + ratios.min() * (mu - weights)
            weights[neg[np.argmin(ratios)]] = 0.0
            keep = weights > 0.0
            cand, weights = cand[keep], weights[keep]
        y = weights @ q[cand]
        yy = float(y @ y)
        if yy >= xx:
            break
        active, lam, x, xx = cand, weights, y, yy
    return u + x


def _affine_min_norm_weights(q: np.ndarray) -> np.ndarray:
    """Weights summing to one whose combination of the rows has least norm."""
    if q.shape[0] == 1:
        return np.ones(1)
    c, *_ = np.linalg.lstsq((q[1:] - q[0]).T, -q[0], rcond=None)
    return np.concatenate([[1.0 - c.sum()], c])


def hull_distance(points: np.ndarray, u: np.ndarray) -> float:
    """Euclidean distance from ``u`` to the convex hull of the rows."""
    proj = project_onto_convex_hull(points, u)
    return float(np.linalg.norm(np.asarray(u, dtype=float) - proj))
