"""Small exact-geometry helpers: affine hulls, Wolfe's minimum-norm point of
a polytope given by a linear-minimisation oracle, and coordinate-major
lattice tiles.

The minimum-norm point serves three callers: the hull projection and the
convex weights that dual recovery balances block gradients with (the oracle
over explicit rows), and dual recovery on the sum and max grounds (oracles
over the alignment faces)."""

from __future__ import annotations

import math

import numpy as np


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
    """Euclidean projection of ``u`` onto the convex hull of any number of rows."""
    u = np.asarray(u, dtype=float)
    _, _, y = _min_norm_rows(np.asarray(points, dtype=float) - u)
    return u + y


def _min_norm_rows(q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Wolfe's method on the hull of the rows of ``q``.

    The oracle returns the row with the least inner product with the current
    point, and the start is the row of least norm.  Returns the active row
    indices, their convex weights and the minimum-norm point.
    """
    sq = np.einsum("ij,ij->i", q, q)

    def row(j):
        return j, q[j, None]

    keys, lam, y = _min_norm_weights(
        lambda x: row(int(np.argmin(q @ x))), row(int(np.argmin(sq))), 1e-12 * float(sq.max())
    )
    return np.array(keys), lam, y[0]


def _min_norm_weights(oracle, first, tol: float):
    """Convex weights on vertex stacks whose summed point has least norm.

    Wolfe's minimum-norm-point method (Wolfe 1976, "Finding the nearest point
    in a polytope"), driven by a linear-minimisation oracle.  An atom is an
    ``(n, d)`` stack of vertices and the point it contributes is the stack's
    sum over its ``n`` rows; ``oracle(x)`` returns ``(key, stack)`` for an
    atom whose point has the least inner product with ``x``, and ``first``
    is the starting atom in the same form.  Keys identify atoms, so an atom
    already in the active set ends the search.  The method keeps an affinely
    independent active set with positive convex weights, adds the oracle's
    atom while it lowers ``<point, x>`` below ``|x|^2`` by more than ``tol``,
    and solves the affine least-squares problem on the active set, stepping
    back along the weights whenever one turns negative.  Exact,
    deterministic and finite; the active set never holds more than ``d + 1``
    atoms.  Callers pass ``tol`` as a small multiple of the largest squared
    norm an atom's point can have: 1e-12 for explicit rows, 1e-22 for the
    alignment faces of dual recovery.  Explicit rows are the case ``n = 1``
    (see ``_min_norm_rows``).

    Returns the active atoms' keys, their weights and the weighted sum of
    their stacks, an ``(n, d)`` array whose row sum is the minimum-norm
    point.
    """
    keys, stacks, pts = [first[0]], [first[1]], first[1].sum(axis=0)[None]
    active, lam = np.zeros(1, dtype=int), np.ones(1)
    x = pts[0]
    xx = float(x @ x)
    while True:
        key, stack = oracle(x)
        q = stack.sum(axis=0)
        if xx - float(q @ x) <= tol or any(keys[i] == key for i in active):
            break
        keys.append(key)
        stacks.append(stack)
        pts = np.vstack([pts, q])
        cand, weights = np.append(active, len(keys) - 1), np.append(lam, 0.0)
        while True:
            mu = _affine_min_norm_weights(pts[cand])
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
        y = weights @ pts[cand]
        yy = float(y @ y)
        if yy >= xx:
            break
        active, lam, x, xx = cand, weights, y, yy
    blocks = lam @ np.array([stacks[i] for i in active]).reshape(lam.size, -1)
    return [keys[i] for i in active], lam, blocks.reshape(first[1].shape)


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


# A tile's displacement stack at four anchors in R^3 (768 KiB) fits a 2 MiB L2
# cache; on a Xeon core with that cache, 4x larger tiles ran 1.7x slower.
_TILE_POINTS = 1 << 13


def _lattice_tiles(axes):
    """The row-major lattice of ``axes`` in tiles of whole first-axis layers.

    Yields ``(m, len(axes))`` point arrays of at most ``_TILE_POINTS`` points
    (one layer if a layer holds more) whose concatenation is the whole lattice
    in row-major order; each is the transpose view of a ``(len(axes), m)``
    array.  A tile is built only after the previous one has been handed over
    and the generator keeps no reference to it, so the caller's peak memory
    is about one tile.
    """
    step = max(1, _TILE_POINTS // math.prod(a.size for a in axes[1:]))
    for i in range(0, axes[0].size, step):
        mesh = np.meshgrid(axes[0][i : i + step], *axes[1:], indexing="ij", copy=False)
        yield np.stack(mesh).reshape(len(axes), -1).T
