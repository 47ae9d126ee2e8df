"""Problem instances, the objective, its subgradients, and structure."""

import math
import tracemalloc

import numpy as np
import pytest

from conftest import (
    ALL_GENERATORS,
    ALL_GROUNDS,
    make_rng,
    random_anchors,
    random_instance,
)
from normmin import (
    GroundNorm,
    InvalidInputError,
    ProblemInstance,
    ProductNorm,
    PsiGenerator,
    dual_product_norm_eval,
    dual_selection,
    ground_norm_eval,
    ground_norm_eval_many,
    objective_eval,
    objective_eval_many,
    objective_subgradient,
    pairing,
    solve_bound,
    strict_convexity_class,
)
from normmin.problem import _MIN_ANCHOR_GAP, _ground_subgradient


def two_anchor(ground, gen):
    return ProblemInstance(
        anchors=np.array([[0.0, 0.0], [2.0, 0.0]]),
        norm=ProductNorm(ground=ground, generator=gen),
    )


def test_objective_examples():
    assert objective_eval(two_anchor(GroundNorm.max(), PsiGenerator.power(1.0)), (1.0, 0.0)) == 2.0
    assert (
        objective_eval(two_anchor(GroundNorm.max(), PsiGenerator.power(math.inf)), (1.0, 0.0))
        == 1.0
    )
    assert objective_eval(
        two_anchor(GroundNorm.power(2.0), PsiGenerator.power(2.0)), (1.0, 0.0)
    ) == pytest.approx(math.sqrt(2.0))


def test_objective_strictly_positive_everywhere():
    rng = make_rng(31)
    prob = random_instance(rng)
    us = rng.normal(scale=3.0, size=(200, prob.dim))
    assert np.all(objective_eval_many(prob, us) > 0.0)


@pytest.mark.parametrize("n", [3, 8, 13])
@pytest.mark.parametrize("d", [1, 2, 3, 8, 10, 16])
def test_objective_many_matches_row_by_row(n, d):
    # Sums over blocks run left to right in every batch, so a row's value
    # does not depend on the rows evaluated with it.  The scalar objective
    # is a one-row batch, so it is its row too: over a lone row-major (n, d)
    # block numpy would sum 8 or more coordinates pairwise, where the
    # batch's coordinate-major stack adds them in order.
    rng = make_rng(40 + d + 100 * n)
    anchors = random_anchors(rng, n, d)
    us = np.concatenate(
        [
            rng.normal(scale=3.0, size=(20, d)),
            anchors,  # zero displacement: the Euclidean off-range fallback
            1e200 * rng.normal(size=(4, d)),  # squares overflow: the same fallback
        ]
    )
    generators = ALL_GENERATORS
    if n <= 8:
        generators += (PsiGenerator.tabulated(lambda t: float(np.sqrt(np.sum(t * t))), arity=n),)
    for ground in ALL_GROUNDS:
        for gen in generators:
            prob = ProblemInstance(anchors=anchors, norm=ProductNorm(ground=ground, generator=gen))
            many = objective_eval_many(prob, us)
            one = np.concatenate([objective_eval_many(prob, u[None]) for u in us])
            rows = np.array([objective_eval(prob, u) for u in us])
            assert np.all(np.isfinite(many))
            assert one.tobytes() == many.tobytes(), (ground, gen)
            assert many.tobytes() == rows.tobytes(), (ground, gen)


def test_instance_invariants():
    with pytest.raises(InvalidInputError, match="distinct"):
        ProblemInstance(
            anchors=np.array([[1.0, 0.0], [1.0, 0.0]]),
            norm=ProductNorm(ground=GroundNorm.max(), generator=PsiGenerator.power(1.0)),
        )
    tab = PsiGenerator.tabulated(lambda t: float(np.max(t)), arity=3, symmetric=True)
    with pytest.raises(InvalidInputError):
        ProblemInstance(
            anchors=np.array([[0.0, 0.0], [2.0, 0.0]]),
            norm=ProductNorm(ground=GroundNorm.max(), generator=tab),
        )


def _dense_has_duplicates(anchors):
    # The all-pairs distance test, with its (n, n, d) difference array.
    diffs = anchors[:, None, :] - anchors[None, :, :]
    dists = np.sqrt((diffs * diffs).sum(-1))
    np.fill_diagonal(dists, np.inf)
    return dists.min() <= _MIN_ANCHOR_GAP


def test_distinctness_verdict_matches_all_pairs():
    # Pairs planted at, just inside and just outside the gap, along one
    # coordinate or a random direction, and pairs that tie on a coordinate
    # while lying far apart on the others.
    rng = make_rng(77)
    norm = ProductNorm(ground=GroundNorm.euclidean(), generator=PsiGenerator.power(1.0))
    verdicts = set()
    for _ in range(400):
        n, d = int(rng.integers(2, 30)), int(rng.integers(1, 5))
        if rng.random() < 0.2:
            anchors = rng.integers(0, 3, size=(n, d)).astype(float)
        else:
            anchors = rng.normal(size=(n, d))
        i, j = rng.choice(n, size=2, replace=False)
        step = rng.normal(size=d) if rng.random() < 0.5 else np.eye(d)[rng.integers(d)]
        factor = rng.choice([0.0, 0.5, 1.0 - 1e-6, 1.0, 1.0 + 1e-6, 2.0, 1e6])
        anchors[j] = anchors[i] + step / np.linalg.norm(step) * factor * _MIN_ANCHOR_GAP
        expected = _dense_has_duplicates(anchors)
        verdicts.add(bool(expected))
        if expected:
            with pytest.raises(InvalidInputError, match="distinct"):
                ProblemInstance(anchors=anchors, norm=norm)
        else:
            ProblemInstance(anchors=anchors, norm=norm)
    assert verdicts == {True, False}


def test_distinctness_check_memory_is_linear():
    # At n=2048, d=10 the all-pairs difference array alone takes 335 MB.
    anchors = make_rng(78).normal(size=(2048, 10))
    norm = ProductNorm(ground=GroundNorm.euclidean(), generator=PsiGenerator.power(1.0))
    tracemalloc.start()
    try:
        ProblemInstance(anchors=anchors, norm=norm)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20e6, peak


def test_solve_bound_examples():
    prob = two_anchor(GroundNorm.max(), PsiGenerator.power(1.0))
    assert solve_bound(prob).radius == pytest.approx(3.0)
    tri = ProblemInstance(
        anchors=np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]),
        norm=ProductNorm(ground=GroundNorm.sum(), generator=PsiGenerator.power(1.0)),
    )
    assert solve_bound(tri).radius == pytest.approx(4.0)


def test_solve_bound_contains_grid_argmin():
    from normmin import grid_oracle

    rng = make_rng(32)
    for _ in range(50):
        prob = random_instance(rng, d=2, n=int(rng.integers(2, 5)))
        oracle = grid_oracle(prob, 41)
        radius = solve_bound(prob).radius
        for pt in oracle.argmin:
            assert np.abs(pt).max() < radius - 1e-9


def test_subgradient_example_ft_euclidean():
    prob = two_anchor(GroundNorm.euclidean(), PsiGenerator.power(1.0))
    g = objective_subgradient(prob, (1.0, 1.0))
    assert np.allclose(g, (0.0, math.sqrt(2.0)), atol=1e-12)
    # Central differences around the same point agree.
    h = 1e-6
    for k in range(2):
        e = np.zeros(2)
        e[k] = h
        fd = (objective_eval(prob, np.array([1.0, 1.0]) + e) - objective_eval(prob, np.array([1.0, 1.0]) - e)) / (2 * h)
        assert abs(fd - g[k]) <= 1e-5 * max(1.0, abs(g[k]))


def test_subgradient_at_anchor_with_smooth_generator():
    prob = two_anchor(GroundNorm.euclidean(), PsiGenerator.power(2.0))
    g = objective_subgradient(prob, (0.0, 0.0))
    assert np.all(np.isfinite(g))
    # Validity at the anchor: still a global underestimator.
    rng = make_rng(33)
    f0 = objective_eval(prob, (0.0, 0.0))
    for _ in range(100):
        w = rng.normal(size=2)
        assert objective_eval(prob, w) >= f0 + g @ (w - np.zeros(2)) - 1e-9


def test_subgradient_max_generator_tie():
    prob = two_anchor(GroundNorm.max(), PsiGenerator.power(math.inf))
    g = objective_subgradient(prob, (1.0, 0.0))
    assert np.all(np.isfinite(g))


def test_dual_selection_certifies_objective():
    # For every ground and generator the selected dual blocks have unit dual
    # product norm and pair with the displacements to the objective value, at
    # random points, at anchors, and at points where block norms and max-norm
    # coordinates tie.
    rng = make_rng(35)
    for ground in ALL_GROUNDS:
        for gen in ALL_GENERATORS:
            norm = ProductNorm(ground=ground, generator=gen)
            for k in range(20):
                prob = random_instance(rng, ground=ground, gen=gen, n=4, d=3)
                c = rng.normal(size=3)
                v = rng.normal(size=3)
                if k % 2:
                    v = abs(v[0]) * np.array([1.0, -1.0, 1.0])
                tied = ProblemInstance(
                    anchors=np.stack([c + v, c - v, c + v[[1, 0, 2]], c + v * (1.0, 1.0, -1.0)]),
                    norm=norm,
                )
                for inst, u in (
                    (prob, rng.normal(scale=2.0, size=3)),
                    (prob, prob.anchors[k % 4]),
                    (tied, c),
                ):
                    duals = dual_selection(inst, u)
                    f = objective_eval(inst, u)
                    assert abs(dual_product_norm_eval(norm, duals) - 1.0) <= 1e-7
                    assert abs(pairing(duals, u - inst.anchors) - f) <= 1e-7 * max(1.0, f)


def one_row_subgradient(nrm, x):
    """The one-row selection rule that the row-wise kernel must reproduce."""
    if not np.any(x):
        return np.zeros_like(x)
    if nrm.kind == "euclidean":
        return x / float(np.linalg.norm(x))
    if nrm.kind == "sum":
        return np.sign(x)
    if nrm.kind == "max":
        a = np.abs(x)
        active = a >= float(a.max()) * (1.0 - 1e-12)
        g = np.zeros_like(x)
        g[active] = np.sign(x[active]) / int(active.sum())
        return g
    nx = ground_norm_eval(nrm, x)
    return np.sign(x) * (np.abs(x) / nx) ** (nrm.p - 1.0)


def test_row_wise_subgradient_matches_one_row_rule():
    # Sum and max rows take the same arithmetic, so they must agree exactly;
    # Euclidean and power rows divide by a norm summed in another order, so
    # they may differ by a few units in the last place.
    rng = make_rng(36)
    rows = np.vstack(
        [
            rng.normal(size=(40, 3)),
            rng.integers(-2, 3, size=(40, 3)).astype(float),
            np.zeros((2, 3)),
            [[1e-100, 0.0, -1e-100], [1e100, -1e100, 0.0]],
        ]
    )
    for ground in ALL_GROUNDS:
        got = _ground_subgradient(ground, rows.reshape(4, -1, 3)).reshape(-1, 3)
        want = np.array([one_row_subgradient(ground, x) for x in rows])
        if ground.kind in ("sum", "max"):
            assert np.array_equal(got, want)
        else:
            assert np.allclose(got, want, rtol=8 * np.finfo(float).eps, atol=0.0)
        assert np.array_equal(got[80:82], np.zeros((2, 3)))


def test_subgradient_validity_sampled():
    rng = make_rng(34)
    for _ in range(100):
        prob = random_instance(rng)
        u = rng.normal(scale=2.0, size=prob.dim)
        g = objective_subgradient(prob, u)
        fu = objective_eval(prob, u)
        ws = u + rng.normal(scale=2.0, size=(30, prob.dim))
        fw = objective_eval_many(prob, ws)
        slack = fw - fu - (ws - u) @ g
        assert slack.min() >= -1e-9


def test_subgradient_finite_difference_smooth():
    rng = make_rng(35)
    for p in (1.5, 2.0, 3.0):
        for _ in range(15):
            prob = random_instance(
                rng, ground=GroundNorm.euclidean(), gen=PsiGenerator.power(p), d=3
            )
            u = rng.normal(scale=2.0, size=3)
            if min(
                float(np.linalg.norm(u - v)) for v in prob.anchors
            ) < 1e-2:
                continue
            g = objective_subgradient(prob, u)
            h = 1e-6
            for k in range(3):
                e = np.zeros(3)
                e[k] = h
                fd = (objective_eval(prob, u + e) - objective_eval(prob, u - e)) / (2 * h)
                assert abs(fd - g[k]) <= 1e-5 * max(1.0, abs(g[k]))


def test_coercivity_lower_bound():
    rng = make_rng(36)
    for _ in range(20):
        prob = random_instance(rng)
        vmax = float(ground_norm_eval_many(prob.norm.ground, prob.anchors).max())
        us = rng.normal(scale=30.0, size=(500, prob.dim))
        f = objective_eval_many(prob, us)
        gu = ground_norm_eval_many(prob.norm.ground, us)
        assert np.all(f >= gu - vmax - 1e-9)


def test_objective_convexity_midpoint_sampled():
    rng = make_rng(37)
    for ground in ALL_GROUNDS:
        for gen in ALL_GENERATORS:
            prob = ProblemInstance(
                anchors=random_anchors(rng, 3, 2),
                norm=ProductNorm(ground=ground, generator=gen),
            )
            us = rng.normal(scale=3.0, size=(3_000, 2))
            ws = rng.normal(scale=3.0, size=(3_000, 2))
            mid = objective_eval_many(prob, 0.5 * (us + ws))
            avg = 0.5 * (objective_eval_many(prob, us) + objective_eval_many(prob, ws))
            assert np.all(mid <= avg + 1e-12 * np.maximum(1.0, avg))


def test_monotone_growth_along_rays():
    rng = make_rng(38)
    prob = random_instance(rng, ground=GroundNorm.euclidean(), gen=PsiGenerator.power(2.0))
    radius = solve_bound(prob).radius
    for _ in range(50):
        direction = rng.normal(size=prob.dim)
        direction /= np.linalg.norm(direction)
        f1 = objective_eval(prob, radius * direction)
        f2 = objective_eval(prob, 2.0 * radius * direction)
        f3 = objective_eval(prob, 4.0 * radius * direction)
        assert f1 <= f2 + 1e-12 and f2 <= f3 + 1e-12


def test_strict_convexity_class_examples():
    assert (
        strict_convexity_class(two_anchor(GroundNorm.power(2.0), PsiGenerator.power(2.0)))
        == "strictly_convex"
    )
    tri = ProblemInstance(
        anchors=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        norm=ProductNorm(ground=GroundNorm.euclidean(), generator=PsiGenerator.power(1.0)),
    )
    assert strict_convexity_class(tri) == "strict_by_collinearity"
    assert (
        strict_convexity_class(two_anchor(GroundNorm.max(), PsiGenerator.power(1.0)))
        == "unknown"
    )
    collinear = ProblemInstance(
        anchors=np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]),
        norm=ProductNorm(ground=GroundNorm.euclidean(), generator=PsiGenerator.power(1.0)),
    )
    assert strict_convexity_class(collinear) == "unknown"
