"""Subgradient descent, pattern search, midpoint shortcut, grid oracle."""

import math

import numpy as np
import pytest

from conftest import ALL_GENERATORS, ALL_GROUNDS, make_rng, random_instance
from normmin import (
    BudgetExceededError,
    ContractError,
    DiminishingC,
    GroundNorm,
    InvalidInputError,
    Polyak,
    ProblemInstance,
    ProductNorm,
    PsiGenerator,
    SolverConfig,
    UnsupportedGeneratorError,
    grid_oracle,
    ground_norm_eval,
    ground_norm_eval_many,
    lipschitz_bound,
    midpoint_shortcut,
    objective_eval,
    psi_eval,
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
    assert abs(res.value - objective_eval(prob, res.point)) <= 1e-12
    values = [v for _, v in res.best_trace]
    assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))
    assert res.to_dict().keys() == {"point", "value", "iterations"}


def test_determinism_same_seed_same_trace():
    rng = make_rng(73)
    prob = random_instance(rng, d=3, n=4)
    a = solve_subgradient(prob, SolverConfig(max_iters=150))
    b = solve_subgradient(prob, SolverConfig(max_iters=150))
    assert a.best_trace == b.best_trace
    assert np.array_equal(a.point, b.point)


def test_config_validation():
    prob = two_anchor(GroundNorm.max(), PsiGenerator.power(1.0))
    with pytest.raises(InvalidInputError):
        solve_subgradient(prob, SolverConfig(max_iters=0))
    with pytest.raises(InvalidInputError):
        solve_subgradient(prob, SolverConfig(stop_tol=0.0))
    with pytest.raises(InvalidInputError):
        solve_subgradient(prob, SolverConfig(step_rule=DiminishingC(c=-1.0)))
    tri = ProblemInstance(
        anchors=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        norm=ProductNorm(ground=GroundNorm.max(), generator=PsiGenerator.power(1.0)),
    )
    with pytest.raises(ContractError):
        solve_subgradient(tri, SolverConfig(step_rule=Polyak()))


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
