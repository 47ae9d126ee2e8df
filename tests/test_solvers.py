"""Exact per-family solves, Nelder-Mead pattern search, midpoint shortcut, grid oracle."""

import dataclasses
import math

import numpy as np
import pytest

from conftest import ALL_GENERATORS, ALL_GROUNDS, make_rng, random_anchors, random_instance
from normmin import (
    BudgetExceededError,
    ContractError,
    GroundNorm,
    Infeasible,
    InvalidInputError,
    ProblemInstance,
    ProductNorm,
    PsiGenerator,
    SolverConfig,
    UnsupportedGeneratorError,
    all_cases,
    check_certificate,
    grid_oracle,
    ground_norm_eval,
    ground_norm_eval_many,
    hull_distance,
    lipschitz_bound,
    midpoint_shortcut,
    objective_eval,
    psi_eval,
    recover_certificate,
    solve,
    solve_pattern_search,
    solve_subgradient,
)


def two_anchor(ground, gen, b=(2.0, 0.0)):
    return ProblemInstance(
        anchors=np.array([[0.0, 0.0], list(b)]),
        norm=ProductNorm(ground=ground, generator=gen),
    )


def test_midpoint_shortcut_examples():
    res = midpoint_shortcut(two_anchor(GroundNorm.max(), PsiGenerator.power(math.inf)))
    assert np.allclose(res.point, (1.0, 0.0))
    assert res.value == 1.0

    res2 = midpoint_shortcut(two_anchor(GroundNorm.power(2.0), PsiGenerator.power(2.0)))
    assert np.allclose(res2.point, (1.0, 0.0))
    assert res2.value == pytest.approx(math.sqrt(2.0))

    rng = make_rng(71)
    for ground in ALL_GROUNDS:
        v1, v2 = rng.normal(size=(2, 3))
        prob = ProblemInstance(
            anchors=np.stack([v1, v2]),
            norm=ProductNorm(ground=ground, generator=PsiGenerator.power(1.0)),
        )
        res3 = midpoint_shortcut(prob)
        assert res3.value == pytest.approx(ground_norm_eval(ground, v1 - v2))
        assert np.allclose(res3.point, 0.5 * (v1 + v2))


def test_midpoint_value_matches_closed_form():
    # The midpoint value is the anchor gap times the generator at (1/2, 1/2).
    rng = make_rng(70)
    for ground in ALL_GROUNDS:
        for gen in ALL_GENERATORS:
            for _ in range(20):
                prob = ProblemInstance(
                    anchors=rng.normal(scale=2.0, size=(2, 3)),
                    norm=ProductNorm(ground=ground, generator=gen),
                )
                gap = ground_norm_eval(ground, prob.anchors[0] - prob.anchors[1])
                closed = gap * psi_eval(gen, np.array([0.5, 0.5]))
                value = midpoint_shortcut(prob).value
                assert abs(value - closed) <= 1e-9 * max(1.0, closed)


def test_midpoint_shortcut_preconditions():
    tri = ProblemInstance(
        anchors=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        norm=ProductNorm(ground=GroundNorm.max(), generator=PsiGenerator.power(1.0)),
    )
    with pytest.raises((InvalidInputError, ContractError)):
        midpoint_shortcut(tri)


def test_solve_subgradient_bundled_values():
    res = solve_subgradient(two_anchor(GroundNorm.max(), PsiGenerator.power(1.0)))
    assert abs(res.value - 2.0) <= 1e-5
    res2 = solve_subgradient(two_anchor(GroundNorm.max(), PsiGenerator.power(math.inf)))
    assert abs(res2.value - 1.0) <= 1e-5


def test_solve_subgradient_equilateral_triangle():
    side = np.array(
        [[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]]
    )
    prob = ProblemInstance(
        anchors=side,
        norm=ProductNorm(ground=GroundNorm.euclidean(), generator=PsiGenerator.power(1.0)),
    )
    res = solve_subgradient(prob)
    assert abs(res.value - math.sqrt(3.0)) <= 1e-4
    assert np.abs(res.point - side.mean(axis=0)).max() <= 1e-4
    oracle = grid_oracle(prob, 201)
    assert abs(res.value - oracle.value) <= oracle.error_bound + 1e-4


def test_solve_result_contract():
    rng = make_rng(72)
    prob = random_instance(rng, d=2)
    res = solve_subgradient(prob, SolverConfig(max_iters=200))
    assert [f.name for f in dataclasses.fields(res)] == ["point", "value", "iterations", "converged"]
    assert res.value == objective_eval(prob, res.point)
    assert res.value <= objective_eval(prob, prob.centroid())
    assert res.to_dict().keys() == {"point", "value", "iterations"}


def test_determinism_same_seed_same_trace():
    rng = make_rng(73)
    prob = random_instance(rng, d=3, n=4)
    a = solve_subgradient(prob, SolverConfig(max_iters=150))
    b = solve_subgradient(prob, SolverConfig(max_iters=150))
    _same_result(a, b)


def test_config_validation():
    prob = two_anchor(GroundNorm.max(), PsiGenerator.power(1.0))
    with pytest.raises(InvalidInputError):
        solve_subgradient(prob, SolverConfig(max_iters=0))


def test_two_anchor_cases_return_the_exact_midpoint():
    for case in all_cases():
        prob = case.instance()
        res = solve_subgradient(prob)
        assert res.point.tobytes() == prob.anchors.mean(axis=0).tobytes(), case.case_id
        assert res.iterations == 0 and res.converged


SCALE_GENERATORS = (
    PsiGenerator.power(1.0),
    PsiGenerator.power(2.0),
    PsiGenerator.power(math.inf),
)
SCALE_CASES = [
    (ground, gen, 64, 2) for ground in ALL_GROUNDS for gen in SCALE_GENERATORS
] + [(GroundNorm.euclidean(), PsiGenerator.power(1.0), 256, 3)]


@pytest.mark.parametrize(
    "ground,gen,n,d",
    SCALE_CASES,
    ids=[f"{g.kind}-p{gen.p}-n{n}-d{d}" for g, gen, n, d in SCALE_CASES],
)
def test_solve_at_scale_improves_on_centroid(ground, gen, n, d):
    prob = ProblemInstance(
        anchors=random_anchors(make_rng(78), n, d),
        norm=ProductNorm(ground=ground, generator=gen),
    )
    res = solve_subgradient(prob)
    assert math.isfinite(res.value)
    assert res.value <= objective_eval(prob, prob.centroid())
    if ground.kind == "euclidean":
        assert hull_distance(prob.anchors, res.point) <= 1e-6


@pytest.mark.parametrize(
    "ground,p,seed,n,d",
    [(GroundNorm.sum(), 1.0, 12, 12, 3), (GroundNorm.euclidean(), 2.0, 17, 17, 2)],
    ids=["sum-p1-n12", "euclidean-p2-n17"],
)
def test_former_benchmark_faults_certify(ground, p, seed, n, d):
    # The first once raised DivergenceError, the second hit a 16-anchor cap
    # in the hull projection.
    prob = ProblemInstance(
        anchors=np.random.default_rng(seed).normal(size=(n, d)) * 2,
        norm=ProductNorm(ground=ground, generator=PsiGenerator.power(p)),
    )
    res = solve_subgradient(prob)
    cert = recover_certificate(prob, res.point)
    assert not isinstance(cert, Infeasible), cert
    assert check_certificate(prob, cert, tol=1e-7).verdict


def test_subgradient_rejects_tabulated():
    tab = PsiGenerator.tabulated(lambda t: float(np.max(t)), arity=2, symmetric=True)
    with pytest.raises(UnsupportedGeneratorError):
        solve_subgradient(two_anchor(GroundNorm.max(), tab))


def test_pattern_search_matches_subgradient_on_tabulated_copy():
    tab = PsiGenerator.tabulated(lambda t: 1.0, arity=2, symmetric=True)
    prob_tab = two_anchor(GroundNorm.max(), tab)
    res_tab = solve_pattern_search(prob_tab)
    prob_p1 = two_anchor(GroundNorm.max(), PsiGenerator.power(1.0))
    res_p1 = solve_subgradient(prob_p1)
    assert abs(res_tab.value - res_p1.value) <= 1e-4


def test_pattern_search_matches_midpoint():
    prob = two_anchor(GroundNorm.euclidean(), PsiGenerator.power(2.0), b=(1.0, 1.0))
    res = solve_pattern_search(prob)
    mid = midpoint_shortcut(prob)
    assert abs(res.value - mid.value) <= 1e-6


def _tabulated_copy(prob):
    # ``prob`` with its power generator behind an opaque callable, and the
    # list that the callable appends each of its arguments to.
    calls = []
    base = prob.norm.generator

    def psi(t):
        calls.append(t)
        return psi_eval(base, t)

    tab = PsiGenerator.tabulated(psi, arity=prob.n, symmetric=True)
    return ProblemInstance(anchors=prob.anchors, norm=ProductNorm(ground=prob.norm.ground, generator=tab)), calls


def _same_result(a, b):
    assert a.point.tobytes() == b.point.tobytes()
    assert (a.value, a.iterations, a.converged) == (b.value, b.iterations, b.converged)


def test_solve_dispatches_by_generator_kind():
    anchors = np.random.default_rng(7).normal(size=(3, 2)) * 2
    tab = PsiGenerator.tabulated(lambda t: float(np.max(t)), arity=3, symmetric=True)
    prob_tab = ProblemInstance(anchors=anchors, norm=ProductNorm(ground=GroundNorm.euclidean(), generator=tab))
    _same_result(solve(prob_tab), solve_pattern_search(prob_tab))
    prob_p = _instance(anchors, GroundNorm.euclidean(), math.inf)
    _same_result(solve(prob_p), solve_subgradient(prob_p))


@pytest.mark.parametrize(
    "ground,p",
    [(g, p) for g in ALL_GROUNDS for p in (1.0, 2.0, math.inf)],
    ids=[f"{g.kind}-p{p}" for g in ALL_GROUNDS for p in (1.0, 2.0, math.inf)],
)
def test_pattern_search_matches_exact_methods(ground, p):
    # The pattern search only evaluates the objective, whatever the
    # generator; on built-in ones, and on the same ones behind an opaque
    # callable, it must still reach the exact optimum.
    for d, tabulated in ((3, False), (2, True), (3, True)):
        prob = _instance(np.random.default_rng(5030).normal(size=(5, d)) * 2, ground, p)
        exact = solve_subgradient(prob)
        res = solve_pattern_search(_tabulated_copy(prob)[0] if tabulated else prob)
        assert abs(res.value - exact.value) <= 1e-9 * max(1.0, exact.value), (d, tabulated)


def test_lipschitz_bound_formula_and_validity():
    rng = make_rng(74)
    d = 3
    kappas = {
        "sum": math.sqrt(d),
        "max": 1.0,
        "euclidean": 1.0,
        "p": d ** max(0.0, 1.0 / 3.0 - 0.5),
    }
    for ground in ALL_GROUNDS:
        prob = random_instance(rng, ground=ground, d=d, n=4)
        L = lipschitz_bound(prob)
        assert L == pytest.approx(prob.n * kappas[ground.kind])
        us = rng.normal(scale=3.0, size=(300, d))
        ws = us + rng.normal(scale=0.1, size=(300, d))
        from normmin import objective_eval_many

        gap = np.abs(objective_eval_many(prob, us) - objective_eval_many(prob, ws))
        step = np.linalg.norm(us - ws, axis=1)
        assert np.all(gap <= L * step + 1e-9)


def test_grid_oracle_examples():
    prob = two_anchor(GroundNorm.max(), PsiGenerator.power(1.0))
    oracle = grid_oracle(prob, 601)
    assert abs(oracle.value - 2.0) <= oracle.error_bound
    assert oracle.spacing == pytest.approx(6.0 / 600.0)
    assert oracle.error_bound == pytest.approx(oracle.spacing * oracle.lipschitz_bound)

    cheb = two_anchor(GroundNorm.euclidean(), PsiGenerator.power(math.inf))
    oracle2 = grid_oracle(cheb, 601)
    assert oracle2.argmin.shape[0] >= 1
    assert np.all(np.abs(oracle2.argmin - np.array([1.0, 0.0])) <= oracle2.spacing)


def test_grid_oracle_degenerate_single_point():
    prob = two_anchor(GroundNorm.max(), PsiGenerator.power(1.0))
    oracle = grid_oracle(prob, 1)
    assert oracle.argmin.shape == (1, 2)
    assert np.allclose(oracle.argmin[0], (1.0, 0.0))
    assert oracle.value == pytest.approx(objective_eval(prob, (1.0, 0.0)))


def test_grid_oracle_budget_and_dimension_guards():
    prob = two_anchor(GroundNorm.max(), PsiGenerator.power(1.0))
    with pytest.raises(BudgetExceededError):
        grid_oracle(prob, 10_001)
    rng = make_rng(75)
    prob4 = random_instance(rng, d=4)
    with pytest.raises(ContractError):
        grid_oracle(prob4, 11)
    with pytest.raises(InvalidInputError):
        grid_oracle(prob, 0)


def test_solver_oracle_agreement_sampled():
    rng = make_rng(76)
    for k in range(10):
        prob = random_instance(rng, d=2)
        res = solve_subgradient(prob, SolverConfig(max_iters=600))
        oracle = grid_oracle(prob, 201)
        assert abs(res.value - oracle.value) <= oracle.error_bound + 1e-4


def test_midpoint_never_beaten_by_grid():
    rng = make_rng(77)
    for k in range(25):
        gen = ALL_GENERATORS[k % len(ALL_GENERATORS)]
        ground = ALL_GROUNDS[k % len(ALL_GROUNDS)]
        prob = ProblemInstance(
            anchors=rng.normal(scale=2.0, size=(2, 2)),
            norm=ProductNorm(ground=ground, generator=gen),
        )
        res = midpoint_shortcut(prob)
        oracle = grid_oracle(prob, 81)
        assert oracle.value >= res.value - 1e-9


def _instance(anchors, ground, p):
    return ProblemInstance(
        anchors=np.asarray(anchors, dtype=float),
        norm=ProductNorm(ground=ground, generator=PsiGenerator.power(p)),
    )


TOLERANCE_EDGE_ANCHORS = [
    [1.4190027696506287, 0.11939034151036412, -1.5449514948227783],
    [-1.812478187249973, 2.330958564302605, 1.262094804299144],
    [3.9510371594920763, -1.0533103927545768, -1.487081173205689],
]
FORMER_FAULTS = [
    # the sum-ground p=2 instance in R^10 where subgradient steps stalled
    ("d10-polyhedral", np.random.default_rng(306).normal(size=(4, 10)) * 2, GroundNorm.sum(), 2.0, 1e-7),
    # BFGS could not push the gradient below 1e-7 here
    ("local-descent", np.random.default_rng(8031).normal(size=(8, 3)) * 2, GroundNorm.power(3.0), 1.0, 1e-9),
    ("tolerance-edge", TOLERANCE_EDGE_ANCHORS, GroundNorm.max(), 2.0, 1e-9),
    ("r10-euclidean-p1", np.random.default_rng(40).normal(size=(4, 10)) * 2, GroundNorm.euclidean(), 1.0, 1e-9),
    ("r10-euclidean-p2", np.random.default_rng(41).normal(size=(4, 10)) * 2, GroundNorm.euclidean(), 2.0, 1e-9),
    # below exponent 2 the ground Hessian is unbounded where a coordinate of
    # a displacement vanishes
    ("ground-1.5-p1", np.random.default_rng(13101).normal(size=(13, 10)) * 2, GroundNorm.power(1.5), 1.0, 1e-9),
    ("ground-1.5-p2", np.random.default_rng(13101).normal(size=(13, 10)) * 2, GroundNorm.power(1.5), 2.0, 1e-9),
]


@pytest.mark.parametrize(
    "anchors,ground,p,tol", [f[1:] for f in FORMER_FAULTS], ids=[f[0] for f in FORMER_FAULTS]
)
def test_former_solver_faults_certify(anchors, ground, p, tol):
    prob = _instance(anchors, ground, p)
    res = solve_subgradient(prob)
    assert res.converged
    for level in sorted({tol, 1e-7}):
        cert = recover_certificate(prob, res.point, tol=level)
        assert not isinstance(cert, Infeasible), (level, cert)
        assert check_certificate(prob, cert, tol=level).verdict


def test_obtuse_triangle_returns_its_vertex():
    # The angle at the origin is about 159 degrees, above 120, so the
    # vertex is the Fermat-Torricelli point; the anchor test finds it
    # without iterating.
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [-0.8, 0.3]])
    res = solve_subgradient(_instance(tri, GroundNorm.euclidean(), 1.0))
    assert res.point.tobytes() == tri[0].tobytes()
    assert res.converged and res.iterations == 0


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
def test_max_iters_caps_every_method(p):
    for ground in ALL_GROUNDS:
        prob = _instance(np.random.default_rng(5).normal(size=(13, 3)) * 2, ground, p)
        res = solve_subgradient(prob, SolverConfig(max_iters=2))
        assert res.iterations <= 2
        assert res.value <= objective_eval(prob, prob.centroid())
        # The cap covers every Nelder-Mead run of the pattern search, which
        # evaluates the generator once per objective value.
        tab, calls = _tabulated_copy(_instance(np.random.default_rng(5).normal(size=(5, 3)) * 2, ground, p))
        calls.clear()
        res = solve_pattern_search(tab, SolverConfig(max_iters=2))
        assert len(calls) <= 50
        assert res.iterations <= 2
        assert res.value <= objective_eval(tab, tab.centroid())


MODE_8_CELLS = [
    ("euclidean", 256, 2, 0),
    ("p3", 256, 3, 0),
    ("p3", 4, 2, 0),
    # Stationarity of SLSQP's multipliers from 2.0e-9 to 1.4e-8 here.
    ("euclidean", 4, 2, 2),
    ("p3", 4, 10, 2),
    ("p1.5", 13, 10, 1),
    ("p1.5", 64, 2, 2),
    ("p1.5", 64, 10, 2),
]
MODE_8_GROUNDS = {"euclidean": GroundNorm.euclidean(), "p3": GroundNorm.power(3.0), "p1.5": GroundNorm.power(1.5)}


@pytest.mark.parametrize("ground,n,d,s", MODE_8_CELLS, ids=[f"{g}-n{n}-d{d}-s{s}" for g, n, d, s in MODE_8_CELLS])
def test_minimax_mode_8_on_an_optimum_is_converged(monkeypatch, ground, n, d, s):
    # SLSQP ends these epigraph solves in mode 8 (positive directional
    # derivative in the line search) at points that certify.  The solve
    # judges the end by SLSQP's own multipliers, without dual recovery.
    prob = _instance(
        np.random.default_rng(1000 * n + 10 * d + s).normal(size=(n, d)) * 2, MODE_8_GROUNDS[ground], math.inf
    )

    def no_check(*args, **kwargs):
        raise AssertionError("the solve checked a certificate")

    with monkeypatch.context() as patch:
        patch.setattr("normmin.certificates.check_certificate", no_check)
        res = solve_subgradient(prob)
    assert res.converged
    cert = recover_certificate(prob, res.point)
    assert not isinstance(cert, Infeasible), cert


GRID_GENERATORS = (1.0, 2.0, math.inf)


@pytest.mark.parametrize(
    "ground,p",
    [(g, p) for g in ALL_GROUNDS for p in GRID_GENERATORS],
    ids=[f"{g.kind}-p{p}" for g in ALL_GROUNDS for p in GRID_GENERATORS],
)
def test_random_grid_certifies(ground, p):
    # Every cell certifies at 1e-7.  The median and the linear program
    # (polyhedral grounds, p in {1, inf}) and Newton's method (smooth
    # grounds, finite p) are exact up to rounding, so their cells also
    # certify at 1e-9.
    exact = (ground.kind in ("sum", "max")) == (p in (1.0, math.inf))
    failures = []
    for n in (4, 13, 64):
        for d in (2, 3, 10):
            prob = _instance(np.random.default_rng(1000 * n + 10 * d).normal(size=(n, d)) * 2, ground, p)
            res = solve_subgradient(prob)
            if res.value > objective_eval(prob, prob.centroid()):
                failures.append((n, d, "above the centroid"))
            for tol in (1e-7, 1e-9) if exact else (1e-7,):
                cert = recover_certificate(prob, res.point, tol=tol)
                if isinstance(cert, Infeasible):
                    failures.append((n, d, tol, cert))
    assert not failures, failures


def _cross_polytope(d, extra):
    # The origin and +-e_j, plus 2 e_0 when ``extra``: at the centroid
    # nearly every displacement coordinate is exactly zero.
    rows = [np.zeros(d), np.eye(d), -np.eye(d)] + ([2.0 * np.eye(d)[:1]] if extra else [])
    return np.vstack(rows)


@pytest.mark.parametrize("ground", [GroundNorm.sum(), GroundNorm.max()], ids=["sum", "max"])
def test_zero_subgradient_returns_the_centroid(ground):
    prob = _instance(_cross_polytope(16, extra=False), ground, 2.0)
    res = solve_subgradient(prob)
    assert res.point.tobytes() == prob.centroid().tobytes()
    assert res.converged and res.iterations == 0


@pytest.mark.parametrize("d", [16, 32])
@pytest.mark.parametrize("ground", [GroundNorm.sum(), GroundNorm.max()], ids=["sum", "max"])
def test_many_zero_coordinates_keep_the_model_small(ground, d):
    # Each block's zero coordinates can take either sign in any box around
    # the centroid; the model must grow with their number, not with the
    # number of sign patterns (2^(d-1) per block).
    prob = _instance(_cross_polytope(d, extra=True), ground, 2.0)
    res = solve_subgradient(prob)
    assert res.converged
    assert res.value < objective_eval(prob, prob.centroid())
    cert = recover_certificate(prob, res.point, tol=1e-7)
    assert not isinstance(cert, Infeasible), cert
    assert check_certificate(prob, cert, tol=1e-7).verdict
