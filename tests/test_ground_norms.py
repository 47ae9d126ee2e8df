"""Ground norm evaluation, duality, and alignment geometry."""

import math
import warnings

import numpy as np
import pytest

from conftest import ALL_GROUNDS, make_rng, unit_dual_at
from normmin import (
    BoxCone,
    CoordinateCone,
    GroundNorm,
    InvalidInputError,
    Ray,
    WholeSpace,
    alignment_ray_basis,
    alignment_set_contains,
    dual_ground_norm,
    ground_norm_eval,
    ground_norm_eval_many,
    norm_subdifferential_contains,
)
from normmin.ground_norms import DEFAULT_TOL


def test_eval_examples():
    assert ground_norm_eval(GroundNorm.max(), (1.0, -2.0)) == 2.0
    assert ground_norm_eval(GroundNorm.sum(), (1.0, -2.0)) == 3.0
    assert ground_norm_eval(GroundNorm.euclidean(), (3.0, 4.0)) == pytest.approx(5.0)
    assert ground_norm_eval(GroundNorm.power(2.0), (3.0, 4.0)) == pytest.approx(5.0)
    assert ground_norm_eval(GroundNorm.power(3.0), (1.0, 0.0)) == pytest.approx(1.0)


def test_eval_zero_and_callable():
    for nrm in ALL_GROUNDS:
        assert nrm(np.zeros(3)) == 0.0
        assert nrm((0.5, -0.5)) == ground_norm_eval(nrm, (0.5, -0.5))


def test_eval_many_matches_scalar():
    rng = make_rng(1)
    xs = rng.normal(size=(64, 3))
    for nrm in ALL_GROUNDS:
        many = ground_norm_eval_many(nrm, xs)
        single = np.array([ground_norm_eval(nrm, x) for x in xs])
        assert np.allclose(many, single, rtol=0.0, atol=1e-14)


def test_construction_rejects_bad_kinds():
    with pytest.raises(InvalidInputError):
        GroundNorm("taxicab")
    with pytest.raises(InvalidInputError):
        GroundNorm.power(1.0)
    with pytest.raises(InvalidInputError):
        GroundNorm("max", 2.0)


def test_dual_kinds():
    assert dual_ground_norm(GroundNorm.sum()).kind == "max"
    assert dual_ground_norm(GroundNorm.max()).kind == "sum"
    assert dual_ground_norm(GroundNorm.euclidean()).kind == "euclidean"
    dual3 = dual_ground_norm(GroundNorm.power(3.0))
    assert dual3.kind == "p" and dual3.p == pytest.approx(1.5)
    for nrm in ALL_GROUNDS:
        assert dual_ground_norm(dual_ground_norm(nrm)) == nrm


def test_dual_values_match_known_norms():
    rng = make_rng(2)
    xs = rng.normal(size=(50, 4))
    dual_of_max = dual_ground_norm(GroundNorm.max())
    for x in xs:
        assert ground_norm_eval(dual_of_max, x) == pytest.approx(np.abs(x).sum())


def test_norm_axioms_sampled():
    rng = make_rng(3)
    for nrm in ALL_GROUNDS:
        xs = rng.normal(size=(25_000, 3))
        ys = rng.normal(size=(25_000, 3))
        nx = ground_norm_eval_many(nrm, xs)
        ny = ground_norm_eval_many(nrm, ys)
        nsum = ground_norm_eval_many(nrm, xs + ys)
        assert np.all(nsum <= nx + ny + 1e-12 * np.maximum(1.0, nx + ny))
        a = rng.normal(size=25_000)
        nax = ground_norm_eval_many(nrm, a[:, None] * xs)
        assert np.all(np.abs(nax - np.abs(a) * nx) <= 1e-12 * np.maximum(1.0, nax))
        assert np.all(nx[np.any(xs != 0.0, axis=1)] > 0.0)


def test_holder_inequality_sampled():
    rng = make_rng(4)
    for nrm in ALL_GROUNDS:
        dual = dual_ground_norm(nrm)
        xs = rng.normal(size=(25_000, 3))
        ss = rng.normal(size=(25_000, 3))
        dots = np.abs(np.sum(xs * ss, axis=1))
        bound = ground_norm_eval_many(dual, ss) * ground_norm_eval_many(nrm, xs)
        assert np.all(dots <= bound + 1e-9 * np.maximum(1.0, bound))


def test_subdifferential_membership_examples():
    assert norm_subdifferential_contains(GroundNorm.max(), (1.0, 1.0), (0.5, 0.5))
    assert norm_subdifferential_contains(GroundNorm.max(), (0.0, 0.0), (0.0, 0.0))
    assert not norm_subdifferential_contains(
        GroundNorm.euclidean(), (1.0, 0.0), (0.0, 1.0)
    )


def test_subdifferential_of_constructed_subgradients():
    rng = make_rng(5)
    for nrm in ALL_GROUNDS:
        for _ in range(200):
            x = rng.normal(size=3)
            xstar = unit_dual_at(nrm, x)
            assert norm_subdifferential_contains(nrm, x, xstar)


def test_alignment_examples():
    assert alignment_set_contains(GroundNorm.max(), (1.0, 0.0), (2.0, 1.0))
    assert alignment_set_contains(GroundNorm.euclidean(), (1.0, 0.0), (3.0, 0.0))
    assert not alignment_set_contains(GroundNorm.sum(), (1.0, 0.5), (1.0, 1.0))


def test_alignment_routes_agree_sampled():
    # The pairing-residual verdict of alignment_set_contains must match the
    # structured description of the aligned set whenever the scaled residual
    # lies outside the band (tol/4, 4 tol).  Mix random pairs with engineered
    # aligned ones.
    rng = make_rng(6)
    tol = DEFAULT_TOL
    for nrm in ALL_GROUNDS:
        dual = dual_ground_norm(nrm)
        for k in range(12_500):
            xstar = rng.normal(size=3)
            if k % 2 == 0:
                x = rng.normal(size=3)
            else:
                base = rng.normal(size=3)
                xstar = unit_dual_at(nrm, base) * abs(rng.normal() + 0.1)
                x = abs(rng.normal()) * base
            verdict = alignment_set_contains(nrm, xstar, x, tol)
            if k % 2 == 1:
                assert verdict
            bound = ground_norm_eval(dual, xstar) * ground_norm_eval(nrm, x)
            resid = abs(bound - float(xstar @ x)) / max(1.0, bound)
            if not 0.25 * tol < resid < 4.0 * tol:
                assert verdict == alignment_ray_basis(nrm, xstar, tol).contains(x, tol)


def test_alignment_zero_cases():
    for nrm in ALL_GROUNDS:
        assert alignment_set_contains(nrm, (0.0, 0.0), (1.0, 2.0))
        assert alignment_set_contains(nrm, (1.0, 0.0), (0.0, 0.0))


def test_ray_basis_examples():
    ray = alignment_ray_basis(GroundNorm.euclidean(), (0.0, 2.0))
    assert isinstance(ray, Ray)
    assert np.allclose(ray.generator, (0.0, 1.0))

    ray2 = alignment_ray_basis(GroundNorm.power(2.0), (1.0, 0.0))
    assert isinstance(ray2, Ray)
    assert np.allclose(ray2.generator, (1.0, 0.0))

    cone = alignment_ray_basis(GroundNorm.sum(), (1.0, -1.0))
    assert isinstance(cone, CoordinateCone)
    assert cone.contains((2.0, -3.0))
    assert cone.contains((0.0, 0.0))
    assert not cone.contains((2.0, 3.0))

    box = alignment_ray_basis(GroundNorm.max(), (1.0, 0.0))
    assert isinstance(box, BoxCone)
    assert box.contains((2.0, 1.0))
    assert not box.contains((1.0, 2.0))

    whole = alignment_ray_basis(GroundNorm.max(), (0.0, 0.0))
    assert isinstance(whole, WholeSpace)
    assert whole.contains((9.0, -9.0))


def test_euclidean_ray_matches_projection():
    rng = make_rng(7)
    nrm = GroundNorm.euclidean()
    for _ in range(500):
        xstar = rng.normal(size=3)
        x = rng.normal(size=3)
        u = xstar / np.linalg.norm(xstar)
        lam = max(float(x @ u), 0.0)
        on_ray = np.abs(x - lam * u).max() <= 1e-9 * max(1.0, np.abs(x).max())
        assert alignment_set_contains(nrm, xstar, x) == on_ray


def test_euclidean_extreme_scales():
    # Squares of 1e300 overflow and squares of 1e-300 underflow; the norm
    # and the unit subgradient must not.
    from normmin.problem import _ground_subgradient

    nrm = GroundNorm.euclidean()
    rows = np.array([[1e300, -1e300, 1e300], [1e-300, 0.0, 0.0], [3.0, 4.0, 0.0], [0.0, 0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = ground_norm_eval_many(nrm, rows)
        g = _ground_subgradient(nrm, rows)
    assert r[0] == pytest.approx(math.sqrt(3.0) * 1e300, rel=1e-15)
    assert r[1] == 1e-300
    assert r[2] == 5.0 and r[3] == 0.0
    assert ground_norm_eval(nrm, [1e-300, 1e-300]) == pytest.approx(math.sqrt(2.0) * 1e-300)
    dual = ground_norm_eval_many(nrm, g)
    assert np.allclose(dual[:3], 1.0, rtol=0.0, atol=1e-15) and dual[3] == 0.0
