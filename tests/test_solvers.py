"""Exact per-family solves, Nelder-Mead pattern search, midpoint shortcut, grid oracle."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.optimize

from conftest import (
    ALL_GENERATORS,
    ALL_GROUNDS,
    gaussian_anchors,
    lattice_anchors,
    make_rng,
    random_anchors,
    random_instance,
)
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
    objective_subgradient,
    psi_eval,
    recover_certificate,
    solve,
    solve_pattern_search,
    solve_subgradient,
)
from normmin import certificates, ground_norms, problem, solvers
from normmin.solvers import _block_terms, _power_sum


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


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
def test_pattern_search_stops_at_the_first_restart_without_gain(p):
    # The pair's minimizer is the third anchor u.  Neither restart gains
    # here, so the search ends after the first one.
    u = np.array([0.25, -0.5])
    v = np.array([1.3, 0.4])
    prob = _instance([u + v, u - v, u], GroundNorm.euclidean(), p)
    tab, calls = _tabulated_copy(prob)
    calls.clear()
    res = solve_pattern_search(tab)
    assert len(calls) <= 200
    f = objective_eval(prob, u)
    assert abs(res.value - f) <= 1e-9 * max(1.0, f)


def test_pattern_search_restarts_while_they_gain():
    # Both restarts at 1e-2 and 1e-4 times the start size still gain here,
    # and a third, at 1e-2 again, gains 4.9e-6 more: three fixed runs end
    # 6.0e-7 relative above the optimum.
    prob = _instance(np.random.default_rng(8050).normal(size=(8, 5)) * 2, GroundNorm.max(), 2.0)
    exact = solve_subgradient(prob)
    res = solve_pattern_search(_tabulated_copy(prob)[0])
    assert abs(res.value - exact.value) <= 1e-12 * exact.value


@pytest.mark.parametrize(
    "ground,p,d,s",
    [(GroundNorm.euclidean(), math.inf, 5, 2), (GroundNorm.max(), 2.0, 10, 0)],
    ids=["euclidean-pinf-d5", "max-p2-d10"],
)
def test_pattern_search_converged_only_where_verified(ground, p, d, s):
    # On these cells the pattern search stops about 1e-8 relative above the
    # optimum while its last run gains nothing, so ``converged`` must not
    # claim the optimum there.
    n = 8
    prob = _instance(np.random.default_rng(1000 * n + 10 * d + s).normal(size=(n, d)) * 2, ground, p)
    exact = solve_subgradient(prob)
    res = solve_pattern_search(_tabulated_copy(prob)[0])
    assert exact.converged
    if res.converged:
        assert abs(res.value - exact.value) <= 1e-9 * max(1.0, exact.value)


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
CROSS_POLYTOPE = np.vstack([np.zeros(4), np.eye(4), -np.eye(4), 2.0 * np.eye(4)[:1]])
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
    # The centroid of the origin, +-e_j and 2 e_0 meets the anchors' zero
    # coordinates, where that Hessian is infinite: central differences took
    # 266 Newton steps at p=1.5 and stopped unconverged after 2 000 at p=2.
    ("ground-1.5-zero-coordinates-p1.5", CROSS_POLYTOPE, GroundNorm.power(1.5), 1.5, 1e-9),
    ("ground-1.5-zero-coordinates-p2", CROSS_POLYTOPE, GroundNorm.power(1.5), 2.0, 1e-9),
    # tied max-ground pieces filled the former box model's 32-row cap, and
    # its rounds reported converged=True at 12.649188, uncertified
    ("max-lattice-p2", np.random.default_rng([20, 6, 0, 7]).integers(-3, 4, size=(20, 6)), GroundNorm.max(), 2.0, 1e-9),
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
        if p == 2.0 and ground.kind in ("sum", "max"):
            # Two Newton steps leave the smoothing homotopy short of its last level.
            assert not res.converged
        # The cap covers every Nelder-Mead run of the pattern search, which
        # evaluates the generator once per objective value.
        tab, calls = _tabulated_copy(_instance(np.random.default_rng(5).normal(size=(5, 3)) * 2, ground, p))
        calls.clear()
        res = solve_pattern_search(tab, SolverConfig(max_iters=2))
        assert len(calls) <= 50
        assert res.iterations <= 2
        assert res.value <= objective_eval(tab, tab.centroid())
    # Beyond d = 12 the sum ground with p = inf goes to the coordinate-bound
    # program, which the cap covers too.
    prob = _instance(np.random.default_rng(5).normal(size=(13, 13)) * 2, GroundNorm.sum(), p)
    res = solve_subgradient(prob, SolverConfig(max_iters=2))
    assert res.iterations <= 2
    assert res.value <= objective_eval(prob, prob.centroid())


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
    # With an ftol of 1e-14 SLSQP ended these epigraph solves in mode 8
    # (positive directional derivative in the line search) at points that
    # certify.  At the solve's ftol they end in mode 0, and the Newton finish
    # on the Chebyshev conditions decides convergence, without dual recovery.
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


GRID_CASES = [
    pytest.param(g, p, sample, id=f"{g.kind}-p{p}{tag}")
    for sample, tag in ((gaussian_anchors, ""), (lattice_anchors, "-lattice"))
    for g in ALL_GROUNDS
    for p in GRID_GENERATORS
]


@pytest.mark.parametrize("ground,p,sample", GRID_CASES)
def test_random_grid_certifies(ground, p, sample):
    # Every method is exact up to rounding: the median, the bounding-box
    # midpoint, the linear programs and the face-finished smoothing
    # homotopy (polyhedral grounds), Newton's method (smooth grounds, finite
    # p) and the Chebyshev-finished epigraph solve (smooth grounds, p =
    # inf).  So every cell certifies at 1e-7 and at 1e-9, on Gaussian
    # anchors and on lattice anchors, whose coordinates tie.
    failures = []
    for n in (4, 13, 64):
        for d in (2, 3, 10):
            prob = _instance(sample(n, d), ground, p)
            res = solve_subgradient(prob)
            if res.value > objective_eval(prob, prob.centroid()):
                failures.append((n, d, "above the centroid"))
            for tol in (1e-7, 1e-9):
                cert = recover_certificate(prob, res.point, tol=tol)
                if isinstance(cert, Infeasible):
                    failures.append((n, d, tol, cert))
    assert not failures, failures


# Cells (ground, p, n, d, s) of the certification probe's grid whose
# epigraph answer, without a Newton finish, was short of 1e-9
# certification, with that answer's value: polyhedral grounds with finite p
# (the face finish) and smooth grounds with p = inf (the Chebyshev finish).
# The finish certifies each at 1e-9 and moves no value by more than 1e-12
# relative.
FACE_FINISH_CELLS = [
    ("sum", 1.5, 4, 2, 0, 5.397813843745076),
    ("sum", 1.5, 4, 2, 1, 3.424777526321153),
    ("sum", 1.5, 4, 2, 2, 7.545962003109666),
    ("sum", 1.5, 4, 3, 2, 10.753180567612224),
    ("sum", 1.5, 4, 10, 2, 28.215145214737564),
    ("sum", 1.5, 13, 2, 1, 18.913005222512936),
    ("sum", 2.0, 13, 2, 1, 12.75226338310287),
    ("sum", 2.0, 13, 2, 2, 12.902607359420564),
    ("sum", 2.0, 13, 3, 1, 17.05657185162946),
    ("sum", 3.0, 4, 3, 2, 8.229910134607572),
    ("sum", 3.0, 13, 3, 1, 11.55369508938106),
    ("max", 1.5, 4, 2, 0, 3.750838458291463),
    ("max", 1.5, 4, 3, 1, 7.071513523633627),
    ("max", 1.5, 4, 10, 0, 6.693392973140293),
    ("max", 1.5, 4, 10, 1, 8.081433002345905),
    ("max", 1.5, 64, 2, 0, 42.029751693353525),
    ("max", 3.0, 13, 3, 1, 5.796645638395286),
    ("euclidean", math.inf, 4, 2, 2, 3.002094056834102),
    ("euclidean", math.inf, 4, 10, 1, 5.5183952056027215),
    ("euclidean", math.inf, 64, 2, 2, 5.569803554023716),
    ("p3", math.inf, 4, 3, 0, 2.4184040134357767),
    ("p3", math.inf, 4, 10, 0, 5.12377737135498),
    ("p3", math.inf, 4, 10, 1, 4.460205478723355),
    ("p3", math.inf, 4, 10, 2, 3.8143621631342977),
    ("p3", math.inf, 13, 10, 1, 5.774867906838416),
    ("p3", math.inf, 64, 10, 2, 6.480395742243625),
    ("p3", math.inf, 256, 10, 2, 7.862968161739892),
    ("p1.5", math.inf, 4, 3, 1, 4.186954951414645),
    ("p1.5", math.inf, 4, 10, 0, 8.812080692483411),
    ("p1.5", math.inf, 4, 10, 1, 7.250545611658366),
    ("p1.5", math.inf, 4, 10, 2, 6.4343500929250705),
    ("p1.5", math.inf, 13, 10, 0, 10.163061133543051),
    ("p1.5", math.inf, 13, 10, 1, 10.183777068387704),
    ("p1.5", math.inf, 13, 10, 2, 9.521556084829607),
    ("p1.5", math.inf, 64, 2, 2, 6.137870459564815),
    ("p1.5", math.inf, 64, 10, 0, 11.201048343912332),
    ("p1.5", math.inf, 64, 10, 1, 12.418756789614763),
    ("p1.5", math.inf, 64, 10, 2, 11.137629587069481),
    ("p1.5", math.inf, 256, 10, 1, 13.265836361400014),
    ("p1.5", math.inf, 256, 10, 2, 12.78430821424769),
]
FINISH_GROUNDS = {"sum": GroundNorm.sum(), "max": GroundNorm.max(), **MODE_8_GROUNDS}


@pytest.mark.parametrize(
    "ground,p,n,d,s,value", FACE_FINISH_CELLS, ids=[f"{c[0]}-p{c[1]}-n{c[2]}-d{c[3]}-s{c[4]}" for c in FACE_FINISH_CELLS]
)
def test_newton_finish_certifies_cells_at_1e_9(ground, p, n, d, s, value):
    anchors = np.random.default_rng(1000 * n + 10 * d + s).normal(size=(n, d)) * 2
    prob = _instance(anchors, FINISH_GROUNDS[ground], p)
    res = solve_subgradient(prob)
    assert res.converged
    assert abs(res.value - value) <= 1e-12 * value
    cert = recover_certificate(prob, res.point, tol=1e-9)
    assert not isinstance(cert, Infeasible), cert
    assert check_certificate(prob, cert, tol=1e-9).verdict


START_CELLS = [("euclidean", 4, 0), ("euclidean", 13, 2), ("euclidean", 64, 0), ("p1.5", 256, 0)]


@pytest.mark.parametrize("ground,n,s", START_CELLS, ids=[f"{g}-n{n}-d10-s{s}" for g, n, s in START_CELLS])
def test_minimax_answer_does_not_depend_on_the_start_rounding(ground, n, s):
    # The epigraph variable's start moved by an ulp or two once decided
    # whether these cells certified at 1e-9; the Chebyshev finish ends each
    # start on the same optimum.
    anchors = np.random.default_rng(1000 * n + 100 + s).normal(size=(n, 10)) * 2
    prob = _instance(anchors, MODE_8_GROUNDS[ground], math.inf)
    u0 = prob.centroid()
    f0 = objective_eval(prob, u0)
    values = []
    for ulps in (-2, -1, 0, 1, 2):
        start = f0
        for _ in range(abs(ulps)):
            start = np.nextafter(start, math.copysign(math.inf, ulps))
        point, _, converged = solvers._minimax(prob, SolverConfig(), u0, float(start))
        assert converged, ulps
        cert = recover_certificate(prob, point, tol=1e-9)
        assert not isinstance(cert, Infeasible), (ulps, cert)
        values.append(objective_eval(prob, point))
    assert max(values) - min(values) <= 1e-12 * min(values), values


def test_minimax_with_a_zero_weight_block_is_converged():
    # The third anchor is as far from the optimum (the origin) as the other
    # two, yet its gradient takes no weight; Newton ends a rounding error
    # below zero on it.  On the p = 1.5 ground every farthest block also has
    # a coordinate that is zero at the optimum, where the curvature is
    # unbounded, so the finish holds both coordinates on the anchors'.
    for ground in (GroundNorm.euclidean(), GroundNorm.power(1.5)):
        prob = _instance([[-1.0, 0.0], [1.0, 0.0], [0.0, 1.0]], ground, math.inf)
        res = solve_subgradient(prob)
        assert res.converged, ground
        assert abs(res.value - 1.0) <= 1e-15, ground
        assert not isinstance(recover_certificate(prob, res.point, tol=1e-9), Infeasible), ground


@pytest.mark.parametrize("n,d,s", [(4, 2, 1), (4, 10, 2)], ids=["n4-d2-s1", "n4-d10-s2"])
def test_minimax_holds_a_coordinate_the_farthest_blocks_share(n, d, s):
    # Lattice cells of the certification probe where farthest blocks meet the
    # optimum in a coordinate on the p = 1.5 ground; the finish holds that
    # coordinate on the anchor's, since a drift of an ulp stalls Newton above
    # its floor.
    prob = _instance(lattice_anchors(n, d, s), GroundNorm.power(1.5), math.inf)
    res = solve_subgradient(prob)
    assert res.converged
    cert = recover_certificate(prob, res.point, tol=1e-9)
    assert not isinstance(cert, Infeasible), cert
    assert check_certificate(prob, cert, tol=1e-9).verdict


def test_minimax_coordinate_on_an_anchor_counts_as_flat():
    # At the optimum (0, -0.25) the third displacement's first coordinate is
    # exactly zero, where the p = 1.5 ground's curvature is unbounded; an
    # infinite Jacobian entry would stall the least-squares solve.
    prob = _instance([[-1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, -1.5]], GroundNorm.power(1.5), math.inf)
    res = solve_subgradient(prob)
    assert res.converged
    assert res.value == 1.25
    assert not isinstance(recover_certificate(prob, res.point, tol=1e-9), Infeasible)


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


TIE_CELLS = [("sum", 4, 2, 1), ("sum", 64, 2, 2), ("max", 4, 10, 1)]


@pytest.mark.parametrize("ground,n,d,s", TIE_CELLS, ids=[f"{g}-n{n}-d{d}-s{s}" for g, n, d, s in TIE_CELLS])
def test_a_point_tying_the_centroid_by_rounding_is_converged(ground, n, d, s):
    # The centroid is optimal on these p = 1 cells, and the median or the
    # linear program returns another optimum whose value may round above the
    # centroid's; it is kept, converged.
    prob = _instance(gaussian_anchors(n, d, s), FINISH_GROUNDS[ground], 1.0)
    res = solve_subgradient(prob)
    assert res.converged
    assert res.value <= objective_eval(prob, prob.centroid()) * (1.0 + 1e-12)


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


def _region_probe_anchors():
    # tools/region_probe.py draws the anchor count, then the anchors.
    rng = np.random.default_rng([2, 3])
    return rng.normal(size=(int(rng.integers(2, 6)), 2)) * 2


STALL_CELLS = [
    # Newton stepped onto anchor 1, whose pull is 1.098 > 1, and stalled
    # there at 8.888363 (n is 5).
    ("euclidean-region-probe", _region_probe_anchors(), GroundNorm.euclidean(), 8.887211642634503),
    # An exact Hessian alone creeps towards anchor 0, which is not optimal.
    ("p3-creep", np.random.default_rng(4031).normal(size=(4, 3)) * 2, GroundNorm.power(3.0), 11.347105744858858),
]


@pytest.mark.parametrize(
    "anchors,ground,value", [c[1:] for c in STALL_CELLS], ids=[c[0] for c in STALL_CELLS]
)
def test_newton_leaves_a_failing_anchor(anchors, ground, value):
    prob = _instance(anchors, ground, 1.0)
    res = solve_subgradient(prob)
    assert res.converged
    assert abs(res.value - value) <= 1e-12 * value
    cert = recover_certificate(prob, res.point, tol=1e-7)
    assert not isinstance(cert, Infeasible), cert
    assert check_certificate(prob, cert, tol=1e-7).verdict


@pytest.mark.parametrize(
    "ground",
    [GroundNorm.euclidean(), GroundNorm.power(1.5), GroundNorm.power(3.0), GroundNorm.power(7.0)],
    ids=["euclidean", "p1.5", "p3", "p7"],
)
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_hessian_matches_central_differences(ground, p):
    # The gradient of sum r_i^p = f^p is p f^(p - 1) times the objective's.
    rng = make_rng(int(10 * p) + 7)
    for _ in range(4):
        prob = _instance(random_anchors(rng, 6, 3), ground, p)
        u = prob.centroid() + rng.normal(size=3)

        def grad(v):
            return p * objective_eval(prob, v) ** (p - 1.0) * objective_subgradient(prob, v)

        value, g, hess, _ = _power_sum(ground, u - prob.anchors, p)
        assert abs(value - objective_eval(prob, u) ** p) <= 1e-12 * value
        assert np.abs(g - grad(u)).max() <= 1e-12 * np.abs(g).max()
        h = 1e-5
        cols = [grad(u + h * e) - grad(u - h * e) for e in np.eye(3)]
        diff = np.column_stack(cols) / (2.0 * h)
        assert np.abs(hess - diff).max() <= 1e-6 * np.abs(hess).max()


@pytest.mark.parametrize("n,d,s,t", [(4, 10, 1, 1), (13, 10, 2, 0), (13, 10, 2, 3)], ids=["n4-d10-s1-t1", "n13-d10-s2-t0", "n13-d10-s2-t3"])
def test_newton_lands_a_coordinate_on_an_anchor(n, d, s, t):
    # A signed permutation of the coordinates gives the same problem.  On the
    # p = 1.5 ground a coordinate of the optimum on an anchor's made Newton
    # reflect it across that anchor at every step, to max_iters, while
    # rounding elsewhere shaved the gradient norm.
    a = lattice_anchors(n, d, s)
    rng = np.random.default_rng([n, d, s, t])
    prob = _instance(a[:, rng.permutation(d)] * rng.choice([-1.0, 1.0], size=d), GroundNorm.power(1.5), 1.5)
    res = solve_subgradient(prob)
    assert res.converged, res.iterations
    assert _certifies_at_1e_9(prob, res.point)
    value = solve_subgradient(_instance(a, GroundNorm.power(1.5), 1.5)).value
    assert abs(res.value - value) <= 1e-12 * value


@pytest.mark.parametrize("ground", [GroundNorm.euclidean(), GroundNorm.power(3.0)], ids=["euclidean", "p3"])
def test_p1_newton_tests_one_anchor_per_iteration(monkeypatch, ground):
    # The anchor test runs at the anchor nearest each iterate, in O(n d);
    # testing every anchor would hand the ground gradient n^2 rows.
    n = 2048
    prob = _instance(np.random.default_rng(1000 * n + 100).normal(size=(n, 10)) * 2, ground, 1.0)
    rows = []
    select = ground_norms._ground_subgradient

    def counted(nrm, x):
        rows.append(np.asarray(x).size // np.shape(x)[-1])
        return select(nrm, x)

    for module in (ground_norms, problem, solvers, certificates):
        monkeypatch.setattr(module, "_ground_subgradient", counted)
    res = solve_subgradient(prob)
    assert sum(rows) < n * n
    monkeypatch.undo()
    assert res.converged
    cert = recover_certificate(prob, res.point, tol=1e-7)
    assert not isinstance(cert, Infeasible), cert
    assert check_certificate(prob, cert, tol=1e-7).verdict


@pytest.mark.parametrize("eps", [1e-1, 1e-4])
@pytest.mark.parametrize("kind", ["sum", "max"])
def test_smoothed_norms_match_central_differences(kind, eps):
    # Besides random rows, rows whose coordinates tie in value, in magnitude
    # with opposite signs, at zero, or to within the smoothing, where the
    # block norms have their kinks.
    rng = make_rng(37)
    ties = [[0.3, 0.3, -0.1], [0.5, -0.5, 0.2], [0.0, 0.0, 0.4], [0.2, 0.2 + 0.5 * eps, -0.2]]
    x = np.vstack([rng.normal(size=(4, 3)), ties])
    ground = GroundNorm.sum() if kind == "sum" else GroundNorm.max()
    r, g, h, k = _block_terms(ground, x, eps)
    # The smoothing adds at most eps per coordinate (sum) or eps log 2d (max).
    exact = ground_norm_eval_many(ground, x)
    assert np.all(exact <= r) and np.all(r <= exact + eps * (3.0 if kind == "sum" else math.log(6.0)))
    step = 1e-3 * eps
    for i, row in enumerate(x):
        up = _block_terms(ground, row + step * np.eye(3), eps)
        down = _block_terms(ground, row - step * np.eye(3), eps)
        assert np.abs((up[0] - down[0]) / (2.0 * step) - g[i]).max() <= 1e-6
        hess = np.diag(h[i]) - k * np.outer(g[i], g[i])
        diff = (up[1] - down[1]) / (2.0 * step)
        # Far from a kink the sum ground's curvature eps^2 / |x|^3 lies below
        # the rounding of the gradients' difference, about 1e-16 / step.
        assert np.abs(hess - diff).max() <= 1e-6 * np.abs(hess).max() + 1e-15 / step


def _certifies_at_1e_9(prob, point):
    cert = recover_certificate(prob, point, tol=1e-9)
    return not isinstance(cert, Infeasible) and check_certificate(prob, cert, tol=1e-9).verdict


def test_homotopy_stops_at_the_first_certified_level():
    # The benchmark's d10-polyhedral instance: every level down to 1e-11
    # took 36 Newton steps; the face of the 1e-3 level's point certifies.
    prob = _instance(np.random.default_rng(306).normal(size=(4, 10)) * 2, GroundNorm.sum(), 2.0)
    res = solve_subgradient(prob)
    assert res.converged and res.iterations <= 12, res
    assert _certifies_at_1e_9(prob, res.point)


# Gaussian cells (ground, p, n, d, s) of the certification probe, with the
# value of the homotopy run down to its last level.  Coarse levels' finished
# points left their face here, up to 5.3e-6 relative above these values, yet
# their multipliers were dual-feasible.
OFF_FACE_CELLS = [
    ("sum", 2.0, 64, 2, 0, 31.130829722645245),
    ("sum", 3.0, 256, 10, 2, 109.03787060652526),
    ("max", 1.5, 64, 1, 1, 28.06371594262142),
    ("max", 3.0, 13, 10, 0, 9.25443726935821),
]


@pytest.mark.parametrize(
    "ground,p,n,d,s,value", OFF_FACE_CELLS, ids=[f"{c[0]}-p{c[1]}-n{c[2]}-d{c[3]}-s{c[4]}" for c in OFF_FACE_CELLS]
)
def test_homotopy_stops_only_on_its_face(ground, p, n, d, s, value):
    prob = _instance(gaussian_anchors(n, d, s), FINISH_GROUNDS[ground], p)
    res = solve_subgradient(prob)
    assert res.converged
    assert abs(res.value - value) <= 1e-12 * value, res.value
    assert _certifies_at_1e_9(prob, res.point)


def test_max_ground_p1_in_the_plane_is_the_turned_median():
    # The certification probe's max-ground p = 1 cells with d <= 2, against
    # the coordinate-bound program that solves them in higher dimensions.
    for sample in (gaussian_anchors, lattice_anchors):
        for n in (4, 13, 64, 256):
            for d in (1, 2):
                for s in (0, 1, 2):
                    prob = _instance(sample(n, d, s), GroundNorm.max(), 1.0)
                    res = solve_subgradient(prob)
                    u, _, ok = solvers._polyhedral_lp(prob, SolverConfig(), prob.centroid(), math.inf)
                    lp = objective_eval(prob, u)
                    assert ok and abs(res.value - lp) <= 1e-12 * lp, (n, d, s, res.value, lp)
                    assert res.converged and res.iterations == 0
                    assert _certifies_at_1e_9(prob, res.point), (n, d, s)


@pytest.mark.parametrize("n", [3, 4096])
def test_max_ground_chebyshev_is_the_bounding_box_midpoint(n):
    anchors = np.random.default_rng(1000 * n + 100).normal(size=(n, 10)) * 2
    prob = _instance(anchors, GroundNorm.max(), math.inf)
    res = solve_subgradient(prob)
    assert res.point.tobytes() == (0.5 * (anchors.min(axis=0) + anchors.max(axis=0))).tobytes()
    assert res.converged and res.iterations == 0
    assert res.value == 0.5 * float(np.ptp(anchors, axis=0).max())
    cert = recover_certificate(prob, res.point, tol=1e-9)
    assert not isinstance(cert, Infeasible), cert
    assert check_certificate(prob, cert, tol=1e-9).verdict


def _former_chebyshev_lp_value(prob):
    # The HiGHS program that solved the max ground with p = inf before the
    # closed form: minimize t subject to +-(u_j - v_ij) <= t.
    from scipy.optimize import linprog

    n, d = prob.anchors.shape
    cols, ones, v = np.tile(np.eye(d), (n, 1)), np.ones((n * d, 1)), prob.anchors.ravel()
    res = linprog(
        np.eye(d + 1)[d],
        A_ub=np.block([[cols, -ones], [-cols, -ones]]),
        b_ub=np.concatenate([v, -v]),
        bounds=(None, None),
        method="highs-ipm",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert res.success
    return objective_eval(prob, res.x[:d])


def test_max_ground_chebyshev_matches_the_former_lp_on_the_probe_grid():
    # The certification probe's max-ground p = inf cells.
    for n in (4, 13, 64, 256):
        for d in (2, 3, 10):
            for s in (0, 1, 2):
                anchors = np.random.default_rng(1000 * n + 10 * d + s).normal(size=(n, d)) * 2
                prob = _instance(anchors, GroundNorm.max(), math.inf)
                value, lp = solve_subgradient(prob).value, _former_chebyshev_lp_value(prob)
                assert abs(value - lp) <= 1e-12 * lp, (n, d, s, value, lp)


def _former_l1_chebyshev_lp_value(prob):
    # The coordinate-bound HiGHS program that solved the sum ground with
    # p = inf before the facet method, and still solves it beyond d = 12:
    # s_ij >= |u_j - v_ij| with sum_j s_ij <= t, over n d + d + 1 variables.
    u, _, ok = solvers._polyhedral_lp(prob, SolverConfig(), prob.centroid(), math.inf)
    assert ok
    return objective_eval(prob, u)


def _l1_chebyshev_cells():
    # The certification probe's sum-ground p = inf cells, Gaussian and
    # lattice, then d = 12, the most facets the dense program takes, and
    # d = 13, which goes to the coordinate-bound program.
    for sample in (gaussian_anchors, lattice_anchors):
        for n in (4, 13, 64, 256):
            for d in (1, 2, 3, 10):
                for s in (0, 1, 2):
                    yield sample(n, d, s)
    for n in (5, 40, 200):
        yield gaussian_anchors(n, 12)
    yield gaussian_anchors(40, 13)
    yield PAIR_SUM_CELL


# A cell in R^3 whose radius is set by the gap between the two pair sums of
# the facet directions, not by a direction's half-width; about 2 % of
# Gaussian cells in R^3 are like it.
PAIR_SUM_CELL = np.random.default_rng(107).normal(size=(6, 3)) * 2


def test_l1_chebyshev_matches_the_former_lp():
    for anchors in _l1_chebyshev_cells():
        prob = _instance(anchors, GroundNorm.sum(), math.inf)
        res = solve_subgradient(prob)
        lp = _former_l1_chebyshev_lp_value(prob)
        assert res.converged, anchors.shape
        assert abs(res.value - lp) <= 1e-12 * lp, (anchors.shape, res.value, lp)


def test_l1_chebyshev_calls_no_linprog_up_to_three_dimensions(monkeypatch):
    def no_lp(*args, **kwargs):
        raise AssertionError("the sum ground with p = inf in d <= 3 called linprog")

    monkeypatch.setattr(scipy.optimize, "linprog", no_lp)
    dims = set()
    for anchors in _l1_chebyshev_cells():
        if anchors.shape[1] <= 3:
            res = solve_subgradient(_instance(anchors, GroundNorm.sum(), math.inf))
            assert res.converged and res.iterations == 0, anchors.shape
            dims.add(anchors.shape[1])
    assert dims == {1, 2, 3}


def test_l1_chebyshev_radius_can_be_a_pair_sum_gap():
    # The directions a1 = (1, 1, 1), a3 = (1, -1, 1), a2 = (1, 1, -1) and
    # a4 = (1, -1, -1), the even facet rows, obey a1 + a4 = a2 + a3.
    floor = solvers._facet_floor(PAIR_SUM_CELL)
    lo, hi = floor[::2], -floor[::-2]
    assert ((hi[1] + hi[2]) - (lo[0] + lo[3])) / 4 > (hi - lo).max() / 2
    prob = _instance(PAIR_SUM_CELL, GroundNorm.sum(), math.inf)
    res = solve_subgradient(prob)
    assert res.value == 6.957457407827306 == _former_l1_chebyshev_lp_value(prob)
    assert not isinstance(recover_certificate(prob, res.point, tol=1e-9), Infeasible)


@pytest.mark.parametrize("n,d", [(64, 2), (64, 3), (4096, 10), (200, 12)])
def test_l1_chebyshev_is_deterministic(monkeypatch, n, d):
    # The facet sums add coordinates in one order, in chunks of anchors, so
    # neither the anchors' order, a second run nor the chunk size moves the
    # answer by a bit.
    anchors = gaussian_anchors(n, d)
    point = solve_subgradient(_instance(anchors, GroundNorm.sum(), math.inf)).point
    again = solve_subgradient(_instance(anchors, GroundNorm.sum(), math.inf)).point
    shuffled = anchors[np.random.default_rng(n).permutation(n)]
    assert point.tobytes() == again.tobytes()
    assert solve_subgradient(_instance(shuffled, GroundNorm.sum(), math.inf)).point.tobytes() == point.tobytes()
    monkeypatch.setattr(solvers, "_FACET_CHUNK", 100)
    assert solve_subgradient(_instance(anchors, GroundNorm.sum(), math.inf)).point.tobytes() == point.tobytes()


@pytest.mark.parametrize("d", [1, 3, 10])
def test_facet_floor_matches_the_product(d):
    # The doubling builds min_i <s, v_i> for every sign vector s, row k
    # negating the coordinates of the set bits of k.
    anchors = gaussian_anchors(300, d)
    signs = 1.0 - 2.0 * ((np.arange(1 << d)[:, None] >> np.arange(d)) & 1)
    np.testing.assert_allclose(solvers._facet_floor(anchors), (signs @ anchors.T).min(axis=1), rtol=0, atol=1e-12)


EXPONENTS = (1.0, 1.5, 2.0, 3.0, math.inf)


@pytest.mark.parametrize("p", EXPONENTS)
@pytest.mark.parametrize("ground", list(FINISH_GROUNDS))
def test_power_of_two_scaling_scales_the_point_bit_for_bit(ground, p):
    # The solve runs on a copy divided by a power of two, and anchors scaled
    # by 2^k change only that power, so every method sees the same copy.
    for n in (5, 13):
        for d in (2, 3, 10):
            anchors = gaussian_anchors(n, d)
            base = solve_subgradient(_instance(anchors, FINISH_GROUNDS[ground], p))
            for k in (-30, -3, 3, 30):
                res = solve_subgradient(_instance(anchors * 2.0**k, FINISH_GROUNDS[ground], p))
                assert res.point.tobytes() == (base.point * 2.0**k).tobytes(), (n, d, k)
                assert res.converged == base.converged, (n, d, k)


# One Gaussian cell (ground, p, n, d, s) per method: the medians, the box
# midpoint, the l1 Chebyshev center (closed form and HiGHS), the sparse
# program, the smoothing homotopy, Newton with p = 1 and p > 1, and SLSQP.
MOVED_CELLS = [
    ("sum", 1.0, 13, 3, 0),
    ("max", 1.0, 13, 2, 1),
    ("max", math.inf, 13, 3, 0),
    ("sum", math.inf, 13, 3, 0),
    ("sum", math.inf, 13, 10, 1),
    ("max", 1.0, 13, 3, 0),
    ("sum", 2.0, 13, 3, 1),
    ("max", 1.5, 13, 10, 0),
    ("euclidean", 1.0, 13, 3, 0),
    ("p3", 2.0, 13, 10, 1),
    ("euclidean", math.inf, 13, 3, 0),
    ("p1.5", math.inf, 13, 10, 0),
]


@pytest.mark.parametrize("ground,p,n,d,s", MOVED_CELLS, ids=[f"{c[0]}-p{c[1]}-n{c[2]}-d{c[3]}-s{c[4]}" for c in MOVED_CELLS])
def test_scaled_and_shifted_copies_certify(ground, p, n, d, s):
    # The problem is invariant under u -> a u + b, so an absolute tolerance
    # anywhere in a method (HiGHS's, SLSQP's, a Newton floor that ignores
    # the rounding of u - v_i) shows here as a lost converged flag, a value
    # off the scaled one, or no certificate.
    anchors = gaussian_anchors(n, d, s)
    base = solve_subgradient(_instance(anchors, FINISH_GROUNDS[ground], p))
    assert base.converged
    for moved, value, atol in (
        (anchors * 1e-8, base.value * 1e-8, 1e-12 * base.value * 1e-8),
        (anchors + 1e6, base.value, 1e-9),
    ):
        prob = _instance(moved, FINISH_GROUNDS[ground], p)
        res = solve_subgradient(prob)
        assert res.converged
        assert abs(res.value - value) <= atol, (res.value, value)
        cert = recover_certificate(prob, res.point, tol=1e-7)
        assert not isinstance(cert, Infeasible), cert
        assert check_certificate(prob, cert, tol=1e-7).verdict


def test_max_ground_p1_on_tiny_anchors_certifies_at_1e_9():
    # HiGHS's tolerances are absolute: on these anchors times 1e-8 a
    # program on the raw anchors reports success 3.7e-4 above the optimum.
    prob = _instance(gaussian_anchors(13, 3) * 1e-8, GroundNorm.max(), 1.0)
    res = solve_subgradient(prob)
    assert res.converged
    assert _certifies_at_1e_9(prob, res.point)
