"""Shared factories for randomized instances and block data.

Counts in the module-level property tests are scaled-down versions of the
full acceptance runs in test_acceptance.py; seeds are fixed so every run
sees the same draws.
"""

import math

import numpy as np

from normmin import GroundNorm, ProblemInstance, ProductNorm, PsiGenerator

ALL_GROUNDS = (
    GroundNorm.sum(),
    GroundNorm.max(),
    GroundNorm.euclidean(),
    GroundNorm.power(3.0),
)
ALL_GENERATORS = (
    PsiGenerator.power(1.0),
    PsiGenerator.power(1.5),
    PsiGenerator.power(2.0),
    PsiGenerator.power(math.inf),
)


def make_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_anchors(rng, n: int, d: int, spread: float = 2.0) -> np.ndarray:
    """Anchor sets with a guaranteed pairwise separation."""
    while True:
        pts = rng.normal(scale=spread, size=(n, d))
        diff = pts[:, None, :] - pts[None, :, :]
        dist = np.sqrt((diff**2).sum(axis=-1))
        dist[np.arange(n), np.arange(n)] = np.inf
        if dist.min() > 1e-3:
            return pts


def gaussian_anchors(n: int, d: int, s: int = 0) -> np.ndarray:
    """The gaussian grid of tools/certify_grid.py."""
    return np.random.default_rng(1000 * n + 10 * d + s).normal(size=(n, d)) * 2


def lattice_anchors(n: int, d: int, s: int = 0) -> np.ndarray:
    """n distinct points of {-k, ..., k}^d, k the least integer >= 2 with
    (2k+1)^d >= 2n: the lattice grid of tools/certify_grid.py."""
    k = 2
    while (2 * k + 1) ** d < 2 * n:
        k += 1
    side = 2 * k + 1
    picks = np.random.default_rng(1000 * n + 10 * d + s).choice(side**d, n, replace=False)
    return np.stack(np.unravel_index(picks, (side,) * d), axis=1) - float(k)


def random_instance(rng, ground=None, gen=None, n=None, d=None) -> ProblemInstance:
    if ground is None:
        ground = ALL_GROUNDS[int(rng.integers(len(ALL_GROUNDS)))]
    if gen is None:
        gen = ALL_GENERATORS[int(rng.integers(len(ALL_GENERATORS)))]
    if n is None:
        n = int(rng.integers(2, 6))
    if d is None:
        d = int(rng.integers(2, 5))
    return ProblemInstance(
        anchors=random_anchors(rng, n, d),
        norm=ProductNorm(ground=ground, generator=gen),
    )


def random_blocks(rng, n: int, d: int, scale: float = 1.0) -> np.ndarray:
    return rng.normal(scale=scale, size=(n, d))


def unit_dual_at(ground: GroundNorm, x: np.ndarray) -> np.ndarray:
    """A subgradient of the ground norm at nonzero x (unit dual norm)."""
    x = np.asarray(x, dtype=float)
    if ground.kind == "euclidean":
        return x / np.linalg.norm(x)
    if ground.kind == "sum":
        return np.sign(x)
    if ground.kind == "max":
        j = int(np.argmax(np.abs(x)))
        out = np.zeros_like(x)
        out[j] = np.sign(x[j])
        return out
    r = float(np.max(np.abs(x)))
    scaled = np.abs(x) / r
    norm = r * float((scaled**ground.p).sum()) ** (1.0 / ground.p)
    return np.sign(x) * (np.abs(x) / norm) ** (ground.p - 1.0)


def aligned_pair(rng, ground, p, n=3, d=2):
    """A (dual, primal) pair engineered to meet the pairing bound exactly."""
    from normmin import ground_norm_eval_many

    x = rng.normal(size=(n, d))
    r = ground_norm_eval_many(ground, x)
    units = np.array([unit_dual_at(ground, xi) for xi in x])
    if p == 1.0:
        xstar = units
    elif p == math.inf:
        xstar = np.zeros_like(units)
        j = int(np.argmax(r))
        xstar[j] = units[j] * abs(rng.normal() + 0.2)
    else:
        weights = (r / float(np.max(r))) ** (p - 1.0)
        weights = weights / float(np.sum((r / np.max(r)) ** p)) ** ((p - 1.0) / p)
        xstar = units * weights[:, None]
    return xstar, x
