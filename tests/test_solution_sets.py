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
from normmin.solution_sets import DESCRIPTION_TOL


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
    # Grid 7 in the plane and grid 5 in space split the first axis into
    # uneven slabs (2+2+2+1 and 2+2+1 layers); grid 1 is a single point.
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
