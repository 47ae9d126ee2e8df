"""Membership predicates and region sampling from one certificate."""

import math

import numpy as np
import pytest

from conftest import make_rng, random_instance
from normmin import (
    BudgetExceededError,
    Certificate,
    ContractError,
    GroundNorm,
    Infeasible,
    InvalidInputError,
    MembershipViolationError,
    ProblemInstance,
    ProductNorm,
    PsiGenerator,
    SolverConfig,
    alignment_set_contains,
    describe_solution_set,
    farthest_voronoi_contains,
    find_cases,
    grid_oracle,
    hull_distance,
    objective_eval_many,
    recover_certificate,
    sample_solution_region,
    sol_contains_chebyshev,
    sol_contains_chebyshev_via_cells,
    sol_contains_ft,
    sol_contains_general,
    sol_contains_pft,
    solution_set_contains,
    solve_bound,
    solve_subgradient,
)
from normmin import geometry
from normmin.solution_sets import _KERNELS, DESCRIPTION_TOL
from normmin.solvers import _NEAR_MIN_SLACK


def case_desc(case_id):
    case = find_cases(case_id)[0]
    prob = case.instance()
    return describe_solution_set(prob, case.certificate()), prob


def test_general_predicate_examples():
    desc, _ = case_desc("ft-linf-pair")
    assert sol_contains_general(desc, (1.0, 0.5))
    assert not sol_contains_general(desc, (0.5, 0.8))
    assert sol_contains_general(desc, desc.certificate.solution)


def test_ft_predicate_examples():
    desc, _ = case_desc("ft-linf-pair")
    assert desc.kind == "ft_intersection"
    assert sol_contains_ft(desc, (1.0, 1.0))
    assert sol_contains_ft(desc, (0.0, 0.0))

    desc2, _ = case_desc("ft-l2-pair")
    assert sol_contains_ft(desc2, (1.5, 0.0))
    assert not sol_contains_ft(desc2, (1.0, 0.1))


def test_chebyshev_predicate_examples():
    desc, _ = case_desc("cheb-linf-pair")
    assert desc.kind == "chebyshev_intersection"
    assert sol_contains_chebyshev(desc, (1.0, 0.7))
    assert not sol_contains_chebyshev(desc, (1.2, 0.0))

    desc2, _ = case_desc("cheb-l2-pair")
    assert sol_contains_chebyshev(desc2, (1.0, 0.0))
    assert not sol_contains_chebyshev(desc2, (1.01, 0.0))


def test_pft_predicate_examples():
    desc, _ = case_desc("pft-linf-pair")
    assert desc.kind == "pft_intersection"
    assert sol_contains_pft(desc, (1.0, -0.5))
    assert sol_contains_pft(desc, desc.certificate.solution)

    desc2, _ = case_desc("pft-l2-pair")
    assert sol_contains_pft(desc2, (1.0, 0.0))
    assert not sol_contains_pft(desc2, (0.9, 0.0))


def test_dispatcher_matches_specialized():
    for cid, fn in (
        ("ft-linf-pair", sol_contains_ft),
        ("cheb-linf-pair", sol_contains_chebyshev),
        ("pft-linf-pair", sol_contains_pft),
    ):
        desc, _ = case_desc(cid)
        for u in ((1.0, 0.3), (0.2, 1.4), (1.0, -0.9), (2.5, 0.0)):
            assert solution_set_contains(desc, u) == fn(desc, u)


def test_wrong_kind_predicate_raises():
    desc, _ = case_desc("ft-linf-pair")
    with pytest.raises(ContractError):
        sol_contains_chebyshev(desc, (1.0, 0.0))
    with pytest.raises(ContractError):
        sol_contains_pft(desc, (1.0, 0.0))


def test_describe_rejects_bad_certificates():
    case = find_cases("ft-linf-pair")[0]
    prob = case.instance()
    good = case.certificate()
    bad = Certificate(solution=good.solution, duals=good.duals * 0.7)
    with pytest.raises(MembershipViolationError, match="fails"):
        describe_solution_set(prob, bad)


def test_describe_anchor_coincident_falls_back_to_general():
    prob = ProblemInstance(
        anchors=np.array([[0.0, 0.0], [2.0, 0.0]]),
        norm=ProductNorm(ground=GroundNorm.euclidean(), generator=PsiGenerator.power(1.0)),
    )
    cert = Certificate(
        solution=np.array([0.0, 0.0]),
        duals=np.array([[1.0, 0.0], [-1.0, 0.0]]),
    )
    desc = describe_solution_set(prob, cert)
    assert desc.kind == "general_predicate"
    assert desc.note
    with pytest.raises(ContractError):
        sol_contains_ft(desc, (1.0, 0.0))
    assert sol_contains_general(desc, (1.0, 0.0))
    assert not sol_contains_general(desc, (1.0, 0.5))


def test_chebyshev_zero_dual_blocks_are_skipped():
    # Three anchors where the middle one never matters: duals sit on the
    # outer pair only.
    prob = ProblemInstance(
        anchors=np.array([[0.0, 0.0], [1.0, 0.0], [4.0, 0.0]]),
        norm=ProductNorm(ground=GroundNorm.euclidean(), generator=PsiGenerator.power(math.inf)),
    )
    res = solve_subgradient(prob, SolverConfig())
    cert = recover_certificate(prob, res.point)
    assert not isinstance(cert, Infeasible)
    desc = describe_solution_set(prob, cert)
    assert 1 in desc.skipped_blocks
    assert sol_contains_chebyshev(desc, (2.0, 0.0))


def test_farthest_voronoi_examples():
    anchors = np.array([[0.0, 0.0], [2.0, 0.0]])
    assert farthest_voronoi_contains(GroundNorm.max(), anchors, 1, (1.5, 2.0))
    assert not farthest_voronoi_contains(GroundNorm.euclidean(), anchors, 1, (0.5, 0.0))
    assert farthest_voronoi_contains(GroundNorm.euclidean(), anchors, 1, (2.0, 0.0))
    rng = make_rng(61)
    for _ in range(50):
        pts = rng.normal(size=(4, 2))
        u = rng.normal(size=2)
        d = np.linalg.norm(pts - u, axis=1)
        assert farthest_voronoi_contains(GroundNorm.euclidean(), pts, int(np.argmax(d)) + 1, u)


def test_farthest_voronoi_index_bounds():
    anchors = np.array([[0.0, 0.0], [2.0, 0.0]])
    with pytest.raises(InvalidInputError):
        farthest_voronoi_contains(GroundNorm.max(), anchors, 0, (1.0, 0.0))
    with pytest.raises(InvalidInputError):
        farthest_voronoi_contains(GroundNorm.max(), anchors, 3, (1.0, 0.0))


def test_farthest_voronoi_halfspace_route_agreement():
    # For the Euclidean ground the metric verdict must match the half-space
    # description of the farthest cell whenever the slack is decisive; ties
    # within the tolerance band may go either way.
    rng = make_rng(62)
    tol = DESCRIPTION_TOL
    for _ in range(2_000):
        pts = rng.normal(scale=2.0, size=(3, 2))
        u = rng.normal(scale=3.0, size=2)
        dists = np.linalg.norm(u - pts, axis=1)
        for i in range(3):
            metric = farthest_voronoi_contains(GroundNorm.euclidean(), pts, i + 1, u)
            vi = pts[i]
            margins = (u @ (pts - vi).T) - ((pts * pts).sum(axis=1) - float(vi @ vi)) / 2.0
            scales = (dists + dists[i]) / 2.0
            halfspace = bool(np.all(margins >= -tol * np.maximum(scales, 1e-30)))
            slack = float(dists[i] - dists.max())
            if abs(slack + tol) > 4.0 * tol * max(1.0, float(dists.max())):
                assert metric == halfspace


def test_ft_predicate_matches_blockwise_alignment():
    # The vectorized kernel behind sol_contains_ft must give the verdict of
    # blockwise alignment-cone membership, on lattice points of each bundled
    # sum-objective case.
    for case in find_cases():
        if not case.case_id.startswith("ft-"):
            continue
        desc, prob = case_desc(case.case_id)
        assert desc.kind == "ft_intersection"
        axes = [np.linspace(lo, hi, 61) for lo, hi in case.region_box]
        lattice = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, prob.dim)
        for u in lattice:
            blockwise = all(
                alignment_set_contains(prob.norm.ground, w, d, DESCRIPTION_TOL)
                for w, d in zip(desc.certificate.duals, u - prob.anchors)
            )
            assert sol_contains_ft(desc, u) == blockwise


def test_chebyshev_cell_route_equivalence():
    rng = make_rng(63)
    for case in find_cases("cheb-"):
        desc, prob = case_desc(case.case_id)
        radius = solve_bound(prob).radius
        for _ in range(2_500):
            u = rng.uniform(-radius, radius, size=prob.dim)
            assert sol_contains_chebyshev(desc, u) == sol_contains_chebyshev_via_cells(desc, u)
        assert sol_contains_chebyshev_via_cells(desc, desc.certificate.solution)
        # Lattice points of the sampled box land exactly on the region's
        # boundary, where random draws never do: up to 400 of them, at the
        # examples' tolerance.
        axes = [np.linspace(lo, hi, 241) for lo, hi in case.region_box]
        lattice = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, prob.dim)
        for u in lattice[:: lattice.shape[0] // 400 + 1]:
            assert sol_contains_chebyshev_via_cells(desc, u, 1e-7) == solution_set_contains(
                desc, u, 1e-7
            ), (case.case_id, u)


def test_specialized_predicates_agree_with_general_sampled():
    rng = make_rng(64)
    for cid in (
        "ft-linf-pair",
        "ft-l1-pair",
        "ft-l2-pair",
        "ft-l3-pair",
        "cheb-linf-pair",
        "cheb-l2-pair",
        "pft-linf-pair",
        "pft-l2-pair",
    ):
        desc, prob = case_desc(cid)
        radius = solve_bound(prob).radius
        mismatches = 0
        for _ in range(2_000):
            u = rng.uniform(-radius, radius, size=prob.dim)
            if solution_set_contains(desc, u) != sol_contains_general(desc, u):
                mismatches += 1
        assert mismatches == 0, cid


def test_accepted_set_is_convex_sampled():
    rng = make_rng(65)
    for cid in ("ft-linf-pair", "cheb-linf-pair", "pft-linf-pair"):
        desc, prob = case_desc(cid)
        pts = sample_solution_region(desc, np.array([[-3.0, 3.0], [-3.0, 3.0]]), 61)
        assert pts.shape[0] >= 2
        for _ in range(60):
            a, b = pts[rng.integers(pts.shape[0], size=2)]
            lam = rng.uniform()
            assert solution_set_contains(desc, lam * a + (1 - lam) * b)


def test_region_sampling_examples():
    desc, _ = case_desc("ft-linf-pair")
    box = np.array([[-3.0, 3.0], [-3.0, 3.0]])
    pts = sample_solution_region(desc, box, 121)
    u1, u2 = pts[:, 0], pts[:, 1]
    eps = 1e-9
    assert np.all(u1 >= np.abs(u2) - eps)
    assert np.all(2.0 - u1 >= np.abs(u2) - eps)

    desc2, _ = case_desc("cheb-l2-pair")
    pts2 = sample_solution_region(desc2, box, 121)
    assert pts2.shape[0] == 1
    assert np.allclose(pts2[0], (1.0, 0.0))

    empty = sample_solution_region(desc, np.array([[1.0, -1.0], [0.0, 1.0]]), 11)
    assert empty.shape[0] == 0


def test_region_sampling_is_row_major_and_deterministic():
    desc, _ = case_desc("ft-linf-pair")
    box = np.array([[-3.0, 3.0], [-3.0, 3.0]])
    a = sample_solution_region(desc, box, 61)
    b = sample_solution_region(desc, box, 61)
    assert np.array_equal(a, b)
    lin = a[:, 0] * 1e6 + a[:, 1]
    assert np.all(np.diff(lin) > 0.0)


def test_region_sampling_matches_pointwise_membership():
    # Grid 7 in the plane and grid 5 in space each fit in one lattice tile;
    # grid 130 (16 900 points) spans several tiles of the shipped size, the
    # last one partial; grid 1 is a single point.  Smaller tiles are tested
    # below.
    plane, _ = case_desc("ft-linf-pair")
    prob = ProblemInstance(
        anchors=np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]]),
        norm=ProductNorm(ground=GroundNorm.max(), generator=PsiGenerator.power(1.0)),
    )
    space = describe_solution_set(
        prob, Certificate(solution=(1.0, 0.0, 0.0), duals=((1.0, 0.0, 0.0), (-1.0, 0.0, 0.0)))
    )
    runs = [
        (plane, [[-3.0, 3.0], [-3.0, 3.0]], 7),
        (plane, [[-3.0, 3.0], [-3.0, 3.0]], 130),
        (space, [[-1.0, 3.0], [-2.0, 2.0], [-2.0, 2.0]], 5),
        (plane, [[1.0, 3.0], [0.0, 3.0]], 1),
        (plane, [[3.0, 4.0], [0.0, 1.0]], 1),
        (space, [[1.0, 2.0], [0.0, 1.0], [0.0, 1.0]], 1),
    ]
    for desc, box, grid in runs:
        box = np.array(box)
        axes = [np.linspace(lo, hi, grid) for lo, hi in box]
        lattice = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
        inside = np.array([solution_set_contains(desc, pt) for pt in lattice])
        if grid > 1:
            assert 0 < inside.sum() < inside.size
        got = sample_solution_region(desc, box, grid)
        assert got.shape == (int(inside.sum()), len(axes))
        assert np.array_equal(got, lattice[inside])


def pair_on_axis(d, ground, p, solution, dual):
    """Anchors 0 and 2 e_1 in R^d with a two-block certificate along e_1."""
    e = np.eye(d)[0]
    prob = ProblemInstance(
        anchors=np.array([0.0 * e, 2.0 * e]),
        norm=ProductNorm(ground=ground, generator=PsiGenerator.power(p)),
    )
    return describe_solution_set(
        prob, Certificate(solution=solution * e, duals=np.array([dual * e, -dual * e]))
    )


def keep_every_block(centers, radii):
    return np.zeros(len(centers), dtype=bool), np.ones(len(centers), dtype=bool)


@pytest.mark.parametrize("tile_points", [15, 60])
@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize(
    "kind, ground, p, solution, dual",
    [
        ("general_predicate", GroundNorm.euclidean(), 1.0, 0.0, 1.0),
        ("ft_intersection", GroundNorm.max(), 1.0, 1.0, 1.0),
        ("chebyshev_intersection", GroundNorm.max(), math.inf, 1.0, 0.5),
        ("pft_intersection", GroundNorm.max(), 2.0, 1.0, math.sqrt(0.5)),
    ],
)
def test_region_sampling_across_tile_boundaries(
    monkeypatch, tile_points, d, kind, ground, p, solution, dual
):
    # Both lattices are a single leaf of the walk.  With 15 points per tile,
    # the 7 x 7 plane splits into 2+2+2+1 layers and each 5 x 5 layer of the
    # 5^3 lattice into halves of 13 and 12 points; with 60, the plane fits in
    # one tile and the space splits into 2+2+1 layers.
    monkeypatch.setattr(geometry, "_TILE_POINTS", tile_points)
    desc = pair_on_axis(d, ground, p, solution, dual)
    assert desc.kind == kind
    grid = 7 if d == 2 else 5
    box = np.array([[-1.0, 3.0]] + [[-2.0, 2.0]] * (d - 1))
    axes = [np.linspace(lo, hi, grid) for lo, hi in box]
    tiles = list(geometry._lattice_walk(axes, keep_every_block))
    expected = {
        (15, 2): [14, 14, 14, 7],
        (15, 3): [13, 12] * 5,
        (60, 2): [49],
        (60, 3): [50, 50, 25],
    }
    assert [t.shape[0] for t in tiles] == expected[tile_points, d]
    assert all(t.T.flags.c_contiguous for t in tiles)
    lattice = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    assert np.array_equal(np.concatenate(tiles), lattice)
    inside = np.array([solution_set_contains(desc, pt) for pt in lattice])
    assert 0 < inside.sum() < inside.size
    assert np.array_equal(sample_solution_region(desc, box, grid), lattice[inside])


def test_region_sampling_budget_guard():
    desc, _ = case_desc("ft-linf-pair")
    with pytest.raises(BudgetExceededError):
        sample_solution_region(desc, np.array([[-3.0, 3.0], [-3.0, 3.0]]), 1_001)


def test_region_matches_oracle_near_minimum():
    desc, prob = case_desc("ft-linf-pair")
    oracle = grid_oracle(prob, 201)
    radius = oracle.box_radius
    box = np.array([[-radius, radius], [-radius, radius]])
    pts = sample_solution_region(desc, box, 201)
    vals = objective_eval_many(prob, pts)
    assert vals.max() <= oracle.value + 2.0 * oracle.error_bound
    for pt in oracle.argmin:
        assert solution_set_contains(desc, pt)


def test_hull_containment_for_euclidean_instances():
    rng = make_rng(66)
    for _ in range(10):
        prob = random_instance(rng, ground=GroundNorm.euclidean(), d=2, n=3)
        res = solve_subgradient(prob, SolverConfig(max_iters=600))
        cert = recover_certificate(prob, res.point, tol=1e-6)
        assert not isinstance(cert, Infeasible)
        desc = describe_solution_set(prob, cert, tol=1e-6)
        lo = prob.anchors.min(axis=0) - 0.5
        hi = prob.anchors.max(axis=0) + 0.5
        pts = sample_solution_region(desc, np.stack([lo, hi], axis=1), 41, tol=1e-6)
        for pt in pts:
            assert hull_distance(prob.anchors, pt) <= 1e-6


def dense_tiles(axes):
    """The dense walk that the block walk replaced: whole first-axis layers."""
    step = max(1, geometry._TILE_POINTS // math.prod(a.size for a in axes[1:]))
    for i in range(0, axes[0].size, step):
        mesh = np.meshgrid(axes[0][i : i + step], *axes[1:], indexing="ij", copy=False)
        yield np.stack(mesh).reshape(len(axes), -1).T


def dense_sample(desc, box, grid, tol):
    kernel = _KERNELS[desc.kind]
    axes = [np.linspace(lo, hi, grid) for lo, hi in box]
    return np.concatenate([pts[kernel(desc, pts, tol)] for pts in dense_tiles(axes)])


def dense_oracle(prob, grid):
    radius = solve_bound(prob).radius
    if grid == 1:
        axes = [np.array([c]) for c in prob.centroid()]
    else:
        axes = [np.linspace(-radius, radius, grid) for _ in range(prob.dim)]
    pts = list(dense_tiles(axes))
    vals = np.concatenate([objective_eval_many(prob, t) for t in pts])
    value = float(vals.min())
    return value, np.concatenate(pts)[vals <= value + _NEAR_MIN_SLACK]


def tabulated_copy(gen, n):
    p = gen.p
    if p == math.inf:
        return PsiGenerator.tabulated(lambda t: float(np.max(t)), n, symmetric=True)
    return PsiGenerator.tabulated(
        lambda t: float(np.sum(np.asarray(t) ** p) ** (1.0 / p)), n, symmetric=True
    )


def assert_walk_matches_dense(desc, box, grid, tol):
    got = sample_solution_region(desc, box, grid, tol)
    want = dense_sample(desc, box, grid, tol)
    assert got.shape == want.shape and np.array_equal(got, want), (desc.kind, grid, tol)
    return want.shape[0]


def test_block_walk_matches_the_dense_tile_walk():
    # Every sample and oracle answer is bitwise the dense walk's: the walk
    # only drops blocks whose Lipschitz bound proves they hold no answer.
    # Lattices of more than a tile are judged block by block.
    rng = make_rng(71)
    grids = {1: (1, 2, 300, 9001, 30001), 2: (1, 2, 33, 101, 201), 3: (1, 2, 17, 23, 41)}
    tabulated_grids = {1: 9001, 2: 101, 3: 23}
    seen = set()
    for cell in range(72):
        d = 1 + cell % 3
        tol = (1e-7, 1e-4, 1e-2)[cell // 3 % 3]
        prob = random_instance(rng, d=d, n=int(rng.integers(2, 5)))
        cert = recover_certificate(prob, solve_subgradient(prob).point, tol=1e-7)
        if isinstance(cert, Infeasible):
            continue
        desc = describe_solution_set(prob, cert)
        half = rng.choice([0.01, 0.3, 3.0]) * rng.random(d)
        box = np.stack([cert.solution - half, cert.solution + half], axis=1)
        grid = int(rng.choice(grids[d]))
        if cell % 8 == 7:
            gen = tabulated_copy(prob.norm.generator, prob.n)
            copy = ProblemInstance(prob.anchors, ProductNorm(prob.norm.ground, gen))
            desc = describe_solution_set(copy, cert, tol=1e-6)
            grid = tabulated_grids[d]
        assert_walk_matches_dense(desc, box, grid, tol)
        seen.add((desc.kind, d, tol, desc.instance.norm.generator.kind))
        oracle = grid_oracle(prob, grid)
        value, argmin = dense_oracle(prob, grid)
        assert oracle.value == value and np.array_equal(oracle.argmin, argmin)
    assert {k for k, _, _, _ in seen} == set(_KERNELS)
    assert {d for _, d, _, _ in seen} == {1, 2, 3}
    assert {t for _, _, t, _ in seen} == {1e-7, 1e-4, 1e-2}
    assert "tabulated" in {g for _, _, _, g in seen}


@pytest.mark.parametrize("grid", [1, 101, 997])
def test_block_walk_on_boxes_where_every_or_no_point_is_accepted(monkeypatch, grid):
    desc, _ = case_desc("ft-linf-pair")
    every = np.array([[0.7, 1.3], [-0.25, 0.25]])
    assert assert_walk_matches_dense(desc, every, grid, DESCRIPTION_TOL) == grid**2
    none = np.array([[4.0, 5.0], [-0.25, 0.25]])
    assert assert_walk_matches_dense(desc, none, grid, DESCRIPTION_TOL) == 0
    # Far from the solution set, every block is dropped unevaluated.
    rows = []
    kernel = _KERNELS[desc.kind]
    monkeypatch.setitem(
        _KERNELS, desc.kind, lambda *args: rows.append(len(args[1])) or kernel(*args)
    )
    sample_solution_region(desc, none, grid)
    assert rows == ([] if grid > 1 else [1])
