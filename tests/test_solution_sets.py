"""Membership predicates and region sampling from one certificate."""

import math

import numpy as np
import pytest

from conftest import make_rng, random_instance
from normmin import (
    BudgetExceededError,
    Certificate,
    ContractError,
    DimensionMismatchError,
    GroundNorm,
    Infeasible,
    InvalidInputError,
    MembershipViolationError,
    ProblemInstance,
    ProductNorm,
    PsiGenerator,
    SolverConfig,
    alignment_set_contains,
    conjugate_exponent,
    describe_solution_set,
    dual_ground_norm,
    find_cases,
    grid_oracle,
    ground_norm_eval,
    ground_norm_eval_many,
    hull_distance,
    objective_eval_many,
    recover_certificate,
    sample_solution_region,
    sol_contains_chebyshev,
    sol_contains_ft,
    sol_contains_general,
    sol_contains_pft,
    solution_set_contains,
    solve_bound,
    solve_subgradient,
)
from normmin import geometry, solution_sets, solvers
from normmin.ground_norms import as_vector
from normmin.psi_generators import _EVAL_BAND
from normmin.solution_sets import (
    _KERNELS,
    CHEBYSHEV_INTERSECTION,
    DESCRIPTION_TOL,
    PFT_INTERSECTION,
    _query_rows,
    _require_kind,
)
from normmin.solvers import _NEAR_MIN_SLACK


# The Chebyshev predicate computed a second way, as a cross-check of the
# vectorized kernel: alignment cone plus farthest cell per massive block.


def farthest_voronoi_contains(ground, anchors, i: int, u, tol: float = DESCRIPTION_TOL) -> bool:
    """Whether anchor ``i`` (numbered from 1) is farthest from ``u``.

    The metric test: the distance to anchor ``i`` is within ``tol`` of the
    largest anchor distance.
    """
    a = np.asarray(anchors, dtype=float)
    if a.ndim != 2 or a.shape[0] < 1:
        raise InvalidInputError("anchors must form a 2-d array")
    if not 1 <= i <= a.shape[0]:
        raise InvalidInputError(f"anchor index {i} out of range 1..{a.shape[0]}")
    point = as_vector(u, "u")
    if point.size != a.shape[1]:
        raise DimensionMismatchError("query point does not match anchor dimension")
    dists = ground_norm_eval_many(ground, point[None, :] - a)
    return float(dists[i - 1] - dists.max()) >= -tol


def sol_contains_chebyshev_via_cells(desc, u, tol: float = DESCRIPTION_TOL) -> bool:
    _require_kind(desc, CHEBYSHEV_INTERSECTION)
    us = _query_rows(desc, u)
    prob = desc.instance
    rstar = desc.dual_norms
    diffs = us[0][None, :] - prob.anchors
    for i in range(prob.n):
        if rstar[i] <= tol:
            continue
        if not alignment_set_contains(prob.norm.ground, desc.certificate.duals[i], diffs[i], tol):
            return False
        if not farthest_voronoi_contains(prob.norm.ground, prob.anchors, i + 1, us[0], tol):
            return False
    return True


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


def keep_every_block(centers, *_):
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
    # Every block is kept.  With 15 points per tile, the 7 x 7 plane splits
    # into 2+2+2+1 layers and each 5 x 5 layer of the 5^3 lattice into a
    # tile of 15 points and the 10 left; with 60, the plane fits in one tile
    # and the space splits into 2+2+1 layers.
    monkeypatch.setattr(geometry, "_TILE_POINTS", tile_points)
    desc = pair_on_axis(d, ground, p, solution, dual)
    assert desc.kind == kind
    grid = 7 if d == 2 else 5
    box = np.array([[-1.0, 3.0]] + [[-2.0, 2.0]] * (d - 1))
    axes = [np.linspace(lo, hi, grid) for lo, hi in box]
    tiles = list(geometry._lattice_walk(axes, keep_every_block))
    expected = {
        (15, 2): [14, 14, 14, 7],
        (15, 3): [15, 10] * 5,
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


def test_region_sampling_rejects_non_finite_boxes():
    desc, _ = case_desc("ft-linf-pair")
    for bad in (math.nan, math.inf, -math.inf):
        box = np.array([[-3.0, 3.0], [-3.0, bad]])
        with pytest.raises(InvalidInputError, match="finite"):
            sample_solution_region(desc, box, 11)


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


def planted_profile(rng, ground, p):
    """Two pairs of anchors about a known minimizer u in the plane, and its certificate.

    Each anchor sits at u minus a radius times a ground-unit vector aligned
    with its dual direction; a pair shares its radius and has opposite
    directions, so the blocks, weighted by the power profile of the radii,
    sum to zero.
    """
    u = rng.integers(-4, 5, size=2) / 8.0
    q = conjugate_exponent(ground.exponent)
    anchors, duals, radii = [], [], []
    for k in range(2):
        w = rng.normal(size=2)
        w /= ground_norm_eval(dual_ground_norm(ground), w)
        z = np.sign(w) * np.abs(w) ** (q - 1.0)
        z /= ground_norm_eval(ground, z)
        rho = (6.0 + 3.0 * k) / 8.0
        for sign in (1.0, -1.0):
            anchors.append(u - rho * sign * z)
            duals.append(sign * w)
            radii.append(rho)
    radii = np.array(radii)
    weights = (radii**p / (radii**p).sum()) ** (1.0 / conjugate_exponent(p))
    prob = ProblemInstance(np.array(anchors), ProductNorm(ground, PsiGenerator.power(p)))
    return prob, Certificate(solution=u, duals=weights[:, None] * np.array(duals))


def test_block_walk_matches_the_dense_walk_under_the_profile_bound():
    # The PFT judge also drops blocks by the power profile, and the oracle
    # prunes with the slope kappa n^(1/p): generator exponents near 1 and
    # large, ground exponents near 1, 2 and large, a tight and a loose
    # tolerance.  The second box holds an anchor, so a block norm's range
    # over the blocks about it reaches 0.
    rng = make_rng(39)
    accepted = []
    for ground in (GroundNorm.power(1.05), GroundNorm.euclidean(), GroundNorm.power(20.0)):
        for p in (1.05, 20.0):
            prob, cert = planted_profile(rng, ground, p)
            desc = describe_solution_set(prob, cert)
            assert desc.kind == PFT_INTERSECTION
            u, a = cert.solution, prob.anchors[0]
            around = u[:, None] + [-0.3, 0.3]
            reaching = np.stack([np.minimum(u, a) - 0.1, np.maximum(u, a) + 0.1], axis=1)
            for tol in (1e-7, 1e-2):
                for box in (around, reaching):
                    accepted.append(assert_walk_matches_dense(desc, box, 101, tol))
            oracle = grid_oracle(prob, 101)
            value, argmin = dense_oracle(prob, 101)
            assert oracle.value == value and np.array_equal(oracle.argmin, argmin)
    assert min(accepted) == 0 and max(accepted) > 0


def test_one_point_chunks_answer_as_their_rows_of_the_lattice(monkeypatch):
    # Thirteen anchors: numpy would add one row's block terms pairwise and a
    # batch's in order.  With seven-point tiles the 36 x 36 lattices' kept
    # runs leave one-point chunks for the kernels and the objective, and
    # every answer must still be the one of a dense evaluation.
    angles = 2.0 * np.pi * np.arange(12) / 12.0
    ring = (1.0 + 0.1 * np.arange(12))[:, None] * np.stack([np.cos(angles), np.sin(angles)], 1)
    anchors = np.vstack([np.zeros(2), ring])
    # The sum objective with its minimizer on anchor 0 uses the general predicate.
    median = ProblemInstance(anchors, ProductNorm(GroundNorm.euclidean(), PsiGenerator.power(1.0)))
    units = -ring / np.linalg.norm(ring, axis=1)[:, None]
    general = describe_solution_set(
        median, Certificate(solution=np.zeros(2), duals=np.vstack([-units.sum(axis=0), units]))
    )
    assert general.kind == "general_predicate"
    power = ProblemInstance(anchors, ProductNorm(GroundNorm.power(3.0), PsiGenerator.power(2.0)))
    cert = recover_certificate(power, solve_subgradient(power).point, tol=1e-7)
    profile = describe_solution_set(power, cert)
    assert profile.kind == "pft_intersection"
    grid = 36
    # Both runs' tolerances and boxes are wide enough that the blocks the
    # mirror bound (general) and the profile bound (PFT) keep still leave
    # one-point chunks.
    runs = [(general, 3e-2), (profile, 1e-2)]
    boxes = [
        desc.certificate.solution[:, None] + [-half, half]
        for (desc, _), half in zip(runs, (0.4, 0.5))
    ]
    samples = [dense_sample(desc, box, grid, tol) for (desc, tol), box in zip(runs, boxes)]
    oracles = [dense_oracle(prob, grid) for prob in (median, power)]
    monkeypatch.setattr(geometry, "_TILE_POINTS", 7)
    sizes = []

    def walk(axes, judge, walk=geometry._lattice_walk):
        for chunk in walk(axes, judge):
            sizes[-1].append(len(chunk))
            yield chunk

    monkeypatch.setattr(solution_sets, "_lattice_walk", walk)
    monkeypatch.setattr(solvers, "_lattice_walk", walk)
    for ((desc, tol), box), want in zip(zip(runs, boxes), samples):
        sizes.append([])
        got = sample_solution_region(desc, box, grid, tol)
        assert 0 < len(want) < grid**2 and 1 in sizes[-1]
        assert got.shape == want.shape and np.array_equal(got, want), desc.kind
    for prob, (value, argmin) in zip((median, power), oracles):
        sizes.append([])
        oracle = grid_oracle(prob, grid)
        assert 1 in sizes[-1]
        assert oracle.value == value and np.array_equal(oracle.argmin, argmin)


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


def anchor_at_minimizer(psi, p):
    """A tabulated 3-anchor Euclidean instance whose third anchor is its minimizer u.

    An aligned pair about u with balanced dual blocks and a zero third block
    certify u for the power generator ``p``; ``psi`` is its tabulated copy.
    """
    w, u, rho = np.array([-0.96, 0.28]), np.array([0.375, -0.5]), 1.875
    anchors = np.vstack([u - rho * w, u + rho * w, u])
    c = 0.5 ** (1.0 - 1.0 / p)
    gen = PsiGenerator.tabulated(psi, 3, symmetric=True)
    prob = ProblemInstance(anchors, ProductNorm(GroundNorm.euclidean(), gen))
    return prob, Certificate(solution=u, duals=np.vstack([c * w, -c * w, np.zeros(2)]))


def power_psi(p):
    return lambda t: float(np.sum(np.asarray(t) ** p) ** (1.0 / p))


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_mirror_bound_keeps_the_dense_answer_with_an_anchor_at_the_minimizer(p):
    # The general predicate's residual grows quadratically away from u, so
    # the Lipschitz bound keeps most blocks and the convexity bound drops them.
    prob, cert = anchor_at_minimizer(power_psi(p), p)
    desc = describe_solution_set(prob, cert)
    assert desc.kind == "general_predicate"
    box = cert.solution[:, None] + [-50.0 / 64.0, 50.0 / 64.0]
    assert assert_walk_matches_dense(desc, box, 101, DESCRIPTION_TOL) == 1


def test_mirror_bound_on_a_cell_where_the_blocks_own_corners_fail():
    # The middle point sits half a spacing off a block's centre on runs of
    # even length, so a bound taken over the block's own corners instead of
    # its mirror box's drops accepted points of this cell (Euclidean ground,
    # p = 1, d = 2, seed 4 of tools/region_probe.py).
    rng = np.random.default_rng([2, 4])
    n = int(rng.integers(2, 6))
    anchors = rng.normal(size=(n, 2)) * 2
    prob = ProblemInstance(anchors, ProductNorm(GroundNorm.euclidean(), PsiGenerator.power(1.0)))
    cert = recover_certificate(prob, solve_subgradient(prob).point)
    desc = describe_solution_set(prob, cert)
    assert n == 5 and desc.kind == "general_predicate"
    tol = float(rng.choice([1e-7, 1e-4, 1e-2]))
    half = rng.choice([0.01, 0.3, 3.0]) * rng.random(2)
    box = np.stack([cert.solution - half, cert.solution + half], axis=1)
    assert tol == 1e-4
    assert assert_walk_matches_dense(desc, box, 201, tol) > 0


@pytest.mark.parametrize("d", [6, 7])
def test_general_walk_matches_dense_on_both_sides_of_the_mirror_dimension_limit(d):
    # The sum objective of a symmetric anchor set has its minimizer on the
    # anchor at the origin; from d = 7 on the judge uses the Lipschitz bound alone.
    v = np.random.default_rng(d).normal(size=(2, d))
    anchors = np.vstack([np.zeros(d), v, -v])
    prob = ProblemInstance(anchors, ProductNorm(GroundNorm.euclidean(), PsiGenerator.power(1.0)))
    desc = describe_solution_set(prob, recover_certificate(prob, solve_subgradient(prob).point))
    assert desc.kind == "general_predicate"
    box = desc.certificate.solution[:, None] + [-0.3, 0.3]
    assert assert_walk_matches_dense(desc, box, 5, 1e-2) > 0


def test_mirror_bound_allows_for_the_tabulated_value_band(monkeypatch):
    # A power generator whose values wiggle by half the band: the accepted
    # set is ragged at the band's scale, and the walk keeps it whole only
    # with the band's share of the margin.
    def psi(t):
        t = np.asarray(t)
        return power_psi(2.0)(t) + 0.5 * _EVAL_BAND * math.sin(1e5 * float(t @ t))

    prob, cert = anchor_at_minimizer(psi, 2.0)
    desc = describe_solution_set(prob, cert, tol=1e-6)
    box = cert.solution[:, None] + [-1e-3, 1e-3]
    accepted = assert_walk_matches_dense(desc, box, 101, DESCRIPTION_TOL)
    assert 0 < accepted < 101**2
    monkeypatch.setattr(solution_sets, "_EVAL_BAND", 0.0)
    assert len(sample_solution_region(desc, box, 101)) < accepted


def test_sampling_the_planted_p3_tabulated_instance_calls_psi_at_most_2000_times():
    calls = []

    def psi(t):
        calls.append(1)
        return power_psi(3.0)(t)

    # The benchmark's sample op describes the solution set and samples it;
    # with the Lipschitz bound alone it called psi over 7 000 times here.
    prob, cert = anchor_at_minimizer(psi, 3.0)
    calls.clear()
    box = cert.solution[:, None] + [-50.0 / 64.0, 50.0 / 64.0]
    pts = sample_solution_region(describe_solution_set(prob, cert), box, 101)
    assert len(pts) == 1
    assert len(calls) <= 2000
