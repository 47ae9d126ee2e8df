"""Affine hull and convex hull helpers."""

import numpy as np
import pytest
from scipy.optimize import linprog

from conftest import make_rng
from normmin import (
    affine_hull_basis,
    hull_distance,
    project_onto_convex_hull,
)
from normmin.geometry import _affine_min_norm_weights


def test_affine_hull_basis_ranks():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    origin, basis = affine_hull_basis(pts)
    assert basis.shape == (2, 1)
    assert np.allclose(np.abs(basis[:, 0]), [1.0, 0.0])
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    _, basis2 = affine_hull_basis(tri)
    assert basis2.shape == (2, 2)
    assert np.allclose(basis2.T @ basis2, np.eye(2), atol=1e-12)


def test_convex_hull_projection_triangle():
    tri = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    inside = np.array([0.5, 0.5])
    assert np.allclose(project_onto_convex_hull(tri, inside), inside, atol=1e-9)
    far = np.array([-1.0, -1.0])
    assert np.allclose(project_onto_convex_hull(tri, far), [0.0, 0.0], atol=1e-9)
    side = np.array([1.0, -1.0])
    assert np.allclose(project_onto_convex_hull(tri, side), [1.0, 0.0], atol=1e-9)


def test_hull_distance_values():
    seg = np.array([[0.0, 0.0], [2.0, 0.0]])
    assert hull_distance(seg, np.array([1.0, 0.0])) == pytest.approx(0.0, abs=1e-9)
    assert hull_distance(seg, np.array([1.0, 1.0])) == pytest.approx(1.0)
    assert hull_distance(seg, np.array([3.0, 0.0])) == pytest.approx(1.0)


def test_hull_projection_random_optimality():
    rng = make_rng(43)
    pts = rng.normal(size=(5, 3))
    for _ in range(50):
        u = rng.normal(scale=2.0, size=3)
        proj = project_onto_convex_hull(pts, u)
        d = np.linalg.norm(u - proj)
        # No random convex combination does better.
        w = rng.dirichlet(np.ones(5), size=40)
        cand = w @ pts
        dists = np.linalg.norm(cand - u, axis=1)
        assert d <= dists.min() + 1e-9


@pytest.mark.parametrize("n", [17, 64, 256])
@pytest.mark.parametrize("d", [2, 3, 10])
def test_hull_projection_at_scale(n, d):
    rng = make_rng(44 + n + d)
    pts = rng.normal(size=(n, d))
    coord_scale = float(np.abs(pts).max())
    for u in rng.normal(scale=3.0, size=(4, d)):
        proj = project_onto_convex_hull(pts, u)
        # Optimality: no row lies beyond the supporting plane through proj.
        scale = float(((pts - u) ** 2).sum(axis=1).max())
        assert ((pts - proj) @ (u - proj)).max() <= 1e-9 * scale
        # Membership, checked by an LP that knows nothing of the projection.
        lp = linprog(
            np.zeros(n),
            A_eq=np.vstack([pts.T, np.ones(n)]),
            b_eq=np.append(proj, 1.0),
            bounds=(0, None),
            method="highs",
            options={"primal_feasibility_tolerance": 1e-10},
        )
        assert lp.status == 0
        assert np.abs(pts.T @ lp.x - proj).max() <= 1e-9 * coord_scale
        assert abs(lp.x.sum() - 1.0) <= 1e-9
    inside = rng.dirichlet(np.ones(n)) @ pts
    assert np.allclose(project_onto_convex_hull(pts, inside), inside, rtol=0, atol=1e-9)


def _explicit_rows_projection(points, u):
    # Wolfe's loop on explicit rows as it stood before the oracle form: the
    # row of least inner product with the current point joins the active set.
    u = np.asarray(u, dtype=float)
    q = np.asarray(points, dtype=float) - u
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
    return u + lam @ q[active]


def test_hull_projection_through_the_oracle_is_bitwise_the_explicit_rows_loop():
    rng = make_rng(45)
    for _ in range(120):
        n, d = int(rng.integers(1, 200)), int(rng.integers(1, 12))
        pts = rng.normal(size=(n, d)) * rng.choice([1e-6, 1.0, 1e4])
        for u in rng.normal(scale=3.0, size=(3, d)):
            got = project_onto_convex_hull(pts, u)
            assert got.tobytes() == _explicit_rows_projection(pts, u).tobytes()
