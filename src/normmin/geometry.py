"""Small exact-geometry helpers: affine hulls, Wolfe's minimum-norm point of
a polytope given by a linear-minimisation oracle, and the lattice walk.

The minimum-norm point serves three callers: the hull projection and the
convex weights that dual recovery balances block gradients with (the oracle
over explicit rows), and dual recovery on the sum and max grounds (oracles
over the alignment faces).

The lattice walk serves region sampling and the grid oracle.  It judges
blocks of the lattice by their middle points and a caller's Lipschitz
bound, drops the blocks that provably hold nothing the caller wants, and
hands the rest over in row-major, coordinate-major chunks of at most a
tile, cut at plain tile strides; a chunk may hold a single point."""

from __future__ import annotations

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

# The lattice walk's blocks stop splitting at leaves of about this many
# points, and a block has about this many children: every level costs a
# judge call and a few dozen small array operations, so a 1-D walk that
# halves its blocks spends more on levels than on points.
_LEAF_POINTS = 64
_CHILDREN = 16


def _lattice_walk(axes, judge):
    """The row-major lattice of nondecreasing ``axes``, less the blocks ``judge`` rules out.

    A branch and bound over index blocks (Piyavskii 1972; Shubert 1972).  The
    walk starts from the whole index box and, at each level, cuts every axis
    of a block into a few even runs, about ``_CHILDREN`` children in all,
    down to leaves of about ``_LEAF_POINTS`` points.
    ``judge(centers, radii, lows, highs)`` receives, one row per block, the
    block's middle lattice point, the Euclidean radius of the block's points
    about it, and its first and last lattice coordinates (the lowest and
    highest corners of its box).  It returns two boolean arrays over the
    blocks: ``out``, the blocks that provably hold no point the caller
    wants, which are dropped, and ``near``, the blocks whose middle point is
    one the caller wants.  The surviving children of a block are
    split further unless most of the children are near, in which case each
    survivor that fits a tile is taken whole: a lattice where every point is
    wanted costs a few centers more than a dense walk, and a thin wanted set
    is still refined down to leaves.  A lattice of at most a tile, or of one
    leaf, is walked whole, unjudged.

    Yields ``(m, len(axes))`` point arrays of at most ``_TILE_POINTS``
    points whose concatenation is every point of the kept blocks in
    row-major order; each is the transpose view of a ``(len(axes), m)``
    array.  The order comes from a mask over the leaves, not from a sort,
    and a chunk is built only after the previous one has been handed over,
    so the caller's peak memory is about one tile.
    Every block is judged before the first chunk is yielded.
    """
    shape = np.array([a.size for a in axes])
    inner = (
        np.stack(np.meshgrid(*axes[1:], indexing="ij")).reshape(shape.size - 1, -1)
        if shape.size > 1
        else np.empty((0, 1))
    )
    side = max(2, round(_LEAF_POINTS ** (1.0 / shape.size)))
    leaves = -(-shape // side)
    if shape.prod() <= _TILE_POINTS or leaves.max() == 1:
        # Judging costs more than walking a lattice of one tile or one leaf.
        yield from (piece.T for piece in _layer_pieces(axes[0], inner))
        return
    sizes = [np.append(np.full(g - 1, side), n - (g - 1) * side) for g, n in zip(leaves, shape)]
    kept = _kept_leaves(axes, side, sizes, judge)
    if kept.any():
        yield from _packed(_kept_pieces(axes, inner, kept, sizes))


def _kept_leaves(axes, side, sizes, judge):
    """Boolean mask over the leaves of the blocks that ``judge`` keeps."""
    shape = np.array([a.size for a in axes])
    leaves = np.array([s.size for s in sizes])

    def survive(lo, hi):
        first = lo * side
        last = np.minimum(hi * side, shape) - 1
        mid = (first + last) // 2
        centers, lows, highs = np.empty(mid.shape), np.empty(mid.shape), np.empty(mid.shape)
        for k, a in enumerate(axes):
            centers[:, k], lows[:, k], highs[:, k] = a[mid[:, k]], a[first[:, k]], a[last[:, k]]
        reach = np.maximum(centers - lows, highs - centers)
        out, near = judge(centers, np.sqrt((reach * reach).sum(axis=1)), lows, highs)
        return ~out, near, last + 1 - first

    kept = np.zeros(leaves, dtype=bool)
    lo, hi = np.zeros((1, leaves.size), dtype=np.intp), leaves[None, :]
    # A block splits each axis of more than one leaf into ``parts`` runs;
    # child j takes run ``part[j, k]`` of axis k.
    split = leaves > 1
    parts = max(2, round(_CHILDREN ** (1.0 / split.sum())))
    runs = np.unravel_index(np.arange(parts ** split.sum()), (parts,) * split.sum())
    part = np.zeros((runs[0].size, leaves.size), dtype=np.intp)
    part[:, split] = np.stack(runs, axis=1)
    while lo.size:
        span = (hi - lo)[:, None]
        clo = lo[:, None] + span * part // parts
        chi = lo[:, None] + span * (part + 1) // parts
        real = (chi > clo).all(axis=2)
        live = np.zeros(real.shape, dtype=bool)
        near = np.zeros(real.shape, dtype=bool)
        points = np.zeros(real.shape, dtype=np.intp)
        live[real], near[real], extent = survive(clo[real], chi[real])
        points[real] = extent.prod(axis=1)
        most = 2 * near.sum(axis=1) > real.sum(axis=1)
        leaf = (chi - clo == 1).all(axis=2)
        done = live & (leaf | (most[:, None] & (points <= _TILE_POINTS)))
        kept[tuple(clo[done & leaf].T)] = True
        for l, h in zip(clo[done & ~leaf].tolist(), chi[done & ~leaf].tolist()):
            kept[tuple(map(slice, l, h))] = True
        lo, hi = clo[live & ~done], chi[live & ~done]
    return kept


def _kept_pieces(axes, inner, kept, sizes):
    """``(len(axes), m)`` coordinates of the kept leaves' points, row-major, in pieces.

    ``inner`` is the ``(len(axes) - 1, m)`` lattice of the other axes.  Runs
    of first-axis leaf slabs with the same mask share one inner point set,
    ``inner`` less the dropped leaves.
    """
    d = len(axes)
    if kept.all():
        yield from _layer_pieces(axes[0], inner)
        return
    slabs = kept.reshape(kept.shape[0], -1)
    starts = np.flatnonzero(np.append(True, (slabs[1:] != slabs[:-1]).any(axis=1)))
    ends = np.append(starts[1:], slabs.shape[0])
    bounds = np.append(0, np.cumsum(sizes[0]))
    for a, b in zip(starts, ends):
        if not slabs[a].any():
            continue
        mask = kept[a]
        for k in range(d - 1):
            mask = np.repeat(mask, sizes[k + 1], axis=k)
        coords = inner if slabs[a].all() else inner[:, np.flatnonzero(mask)]
        yield from _layer_pieces(axes[0][bounds[a] : bounds[b]], coords)


def _layer_pieces(layers, coords):
    """Each of ``layers`` with every column of ``coords``, row-major, in pieces.

    A piece is as many whole layers as fit a tile, or a tile of one layer
    that holds more than a tile; the last piece takes what is left.
    """
    d, m = coords.shape[0] + 1, coords.shape[1]
    if m > _TILE_POINTS:
        for x in layers:
            for lo in range(0, m, _TILE_POINTS):
                cols = coords[:, lo : lo + _TILE_POINTS]
                yield np.vstack([np.full((1, cols.shape[1]), x), cols])
        return
    step = _TILE_POINTS // m
    for lo in range(0, layers.size, step):
        run = layers[lo : lo + step]
        piece = np.empty((d, run.size, m))
        piece[0] = run[:, None]
        piece[1:] = coords[:, None, :]
        yield piece.reshape(d, -1)


def _packed(pieces):
    """Consecutive pieces joined into transposed chunks of at most a tile."""
    buf, size = [], 0
    for piece in pieces:
        if buf and size + piece.shape[1] > _TILE_POINTS:
            yield (buf[0] if len(buf) == 1 else np.concatenate(buf, axis=1)).T
            buf, size = [], 0
        buf.append(piece)
        size += piece.shape[1]
    if buf:
        yield (buf[0] if len(buf) == 1 else np.concatenate(buf, axis=1)).T
