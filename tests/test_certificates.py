"""Optimality condition checkers and dual recovery."""

import math

import numpy as np
import pytest

from conftest import ALL_GENERATORS, ALL_GROUNDS, make_rng, random_instance
from normmin import (
    CHEBYSHEV,
    FERMAT_TORRICELLI,
    GENERAL,
    P_FERMAT,
    Certificate,
    GroundNorm,
    Infeasible,
    ProblemInstance,
    ProductNorm,
    PsiGenerator,
    SolverConfig,
    UnsupportedGeneratorError,
    all_cases,
    check_certificate,
    check_chebyshev,
    check_fermat_torricelli,
    check_general,
    check_p_fermat,
    dual_ground_norm,
    ground_norm_eval,
    matching_theorem,
    objective_eval,
    objective_eval_many,
    recover_certificate,
    solve_bound,
    solve_subgradient,
)

ISQ2 = 1.0 / math.sqrt(2.0)


def two_anchor(ground, gen):
    return ProblemInstance(
        anchors=np.array([[0.0, 0.0], [2.0, 0.0]]),
        norm=ProductNorm(ground=ground, generator=gen),
    )


def cert(solution, duals):
    return Certificate(
        solution=np.asarray(solution, dtype=float),
        duals=np.asarray(duals, dtype=float),
    )


def test_check_general_examples():
    prob = two_anchor(GroundNorm.max(), PsiGenerator.power(1.0))
    good = cert((1.0, 0.0), ((1.0, 0.0), (-1.0, 0.0)))
    assert check_general(prob, good).verdict

    bad = cert((1.0, 0.0), ((1.0, 0.0), (-0.5, 0.0)))
    report = check_general(prob, bad)
    assert not report.verdict
    assert report.residuals["dual_sum"] == pytest.approx(0.5)

    prob_inf = two_anchor(GroundNorm.max(), PsiGenerator.power(math.inf))
    half = cert((1.0, 0.0), ((0.5, 0.0), (-0.5, 0.0)))
    assert check_general(prob_inf, half).verdict


def test_check_fermat_torricelli_examples():
    good = cert((1.0, 0.0), ((1.0, 0.0), (-1.0, 0.0)))
    assert check_fermat_torricelli(
        two_anchor(GroundNorm.max(), PsiGenerator.power(1.0)), good
    ).verdict
    for ground in (GroundNorm.euclidean(), GroundNorm.power(3.0)):
        assert check_fermat_torricelli(two_anchor(ground, PsiGenerator.power(1.0)), good).verdict

    tilted = cert((1.0, 0.1), ((1.0, 0.0), (-1.0, 0.0)))
    report = check_fermat_torricelli(
        two_anchor(GroundNorm.euclidean(), PsiGenerator.power(1.0)), tilted
    )
    assert not report.verdict
    assert report.residuals["alignment"] > 0.0

    with pytest.raises(UnsupportedGeneratorError):
        check_fermat_torricelli(
            two_anchor(GroundNorm.max(), PsiGenerator.power(2.0)), good
        )


def test_check_chebyshev_examples():
    half = cert((1.0, 0.0), ((0.5, 0.0), (-0.5, 0.0)))
    assert check_chebyshev(two_anchor(GroundNorm.max(), PsiGenerator.power(math.inf)), half).verdict
    assert check_chebyshev(
        two_anchor(GroundNorm.power(3.0), PsiGenerator.power(math.inf)), half
    ).verdict

    full = cert((1.0, 0.0), ((1.0, 0.0), (-1.0, 0.0)))
    report = check_chebyshev(two_anchor(GroundNorm.max(), PsiGenerator.power(math.inf)), full)
    assert not report.verdict
    assert report.residuals["dual_norm_total"] == pytest.approx(1.0)


def test_check_chebyshev_single_block_warning():
    prob = two_anchor(GroundNorm.max(), PsiGenerator.power(math.inf))
    lone = cert((1.0, 0.0), ((1.0, 0.0), (0.0, 0.0)))
    report = check_chebyshev(prob, lone)
    assert report.warnings


def test_check_p_fermat_examples():
    duals = ((ISQ2, 0.0), (-ISQ2, 0.0))
    good = cert((1.0, 0.0), duals)
    assert check_p_fermat(
        two_anchor(GroundNorm.euclidean(), PsiGenerator.power(2.0)), good
    ).verdict
    assert check_p_fermat(two_anchor(GroundNorm.max(), PsiGenerator.power(2.0)), good).verdict

    doubled = cert((1.0, 0.0), ((2 * ISQ2, 0.0), (-2 * ISQ2, 0.0)))
    report = check_p_fermat(
        two_anchor(GroundNorm.euclidean(), PsiGenerator.power(2.0)), doubled
    )
    assert not report.verdict
    assert report.residuals["dual_power_total"] > 1.0


def test_matching_theorem():
    assert matching_theorem(two_anchor(GroundNorm.max(), PsiGenerator.power(1.0))) == FERMAT_TORRICELLI
    assert matching_theorem(two_anchor(GroundNorm.max(), PsiGenerator.power(math.inf))) == CHEBYSHEV
    assert matching_theorem(two_anchor(GroundNorm.max(), PsiGenerator.power(1.7))) == P_FERMAT
    tab = PsiGenerator.tabulated(lambda t: float(np.max(t)), arity=2, symmetric=True)
    assert matching_theorem(two_anchor(GroundNorm.max(), tab)) == GENERAL


def test_check_certificate_dispatch_and_theorem_field():
    prob = two_anchor(GroundNorm.max(), PsiGenerator.power(1.0))
    good = cert((1.0, 0.0), ((1.0, 0.0), (-1.0, 0.0)))
    report = check_certificate(prob, good)
    assert report.theorem == FERMAT_TORRICELLI
    report2 = check_certificate(prob, good, theorem=GENERAL)
    assert report2.theorem == GENERAL and report2.verdict


def test_recover_examples():
    prob = two_anchor(GroundNorm.max(), PsiGenerator.power(1.0))
    got = recover_certificate(prob, (1.0, 0.0))
    assert isinstance(got, Certificate)
    assert check_fermat_torricelli(prob, got, tol=1e-7).verdict

    assert isinstance(recover_certificate(prob, (5.0, 5.0)), Infeasible)

    smooth = two_anchor(GroundNorm.euclidean(), PsiGenerator.power(2.0))
    got2 = recover_certificate(smooth, (1.0, 0.0))
    assert isinstance(got2, Certificate)
    assert np.allclose(got2.duals, ((ISQ2, 0.0), (-ISQ2, 0.0)), atol=1e-9)


def planted_optimum(rng, ground, p, d, pairs):
    """Anchors around a known minimizer ``u``, plus one extra anchor at ``u``.

    Blocks come in opposite pairs (w, -w) of unit dual norm; each anchor sits
    at ``u`` minus a radius times a ground-unit vector aligned with its
    block, and both anchors of a pair share the radius.  On polyhedral
    grounds pair ``k`` uses axis ``k mod d`` and all data are dyadic.  Under
    the max generator every radius is raised to the largest one.  The extra
    anchor has a zero displacement, so its block is unpaired, zero-capped or
    inactive depending on the generator.
    """
    u = rng.integers(-4, 5, size=d) / 8.0
    anchors = []
    for k in range(pairs):
        rho = (6.0 + 3.0 * k + float(rng.integers(0, 3))) / 8.0
        if ground.kind in ("sum", "max"):
            w = np.zeros(d)
            w[k % d] = rng.choice((-1.0, 1.0))
        else:
            w = rng.normal(size=d)
            w /= ground_norm_eval(dual_ground_norm(ground), w)
        for sign in (1.0, -1.0):
            if ground.kind in ("sum", "euclidean"):
                z = sign * w
            elif ground.kind == "max":
                z = np.where(w != 0.0, sign * w, rng.integers(-3, 4, size=d) / 4.0)
            else:
                z = np.sign(sign * w) * np.abs(w) ** (ground.q - 1.0)
                z /= ground_norm_eval(ground, z)
            anchors.append((rho, z))
    if p == math.inf:
        top = max(rho for rho, _ in anchors)
        anchors = [(top, z) for _, z in anchors]
    anchors = np.array([u - rho * z for rho, z in anchors] + [u])
    prob = ProblemInstance(anchors, ProductNorm(ground, PsiGenerator.power(p)))
    return prob, u


def test_recover_at_planted_optima_is_exact():
    # Pairs run up to min(3, d): with the max generator on the sum ground a
    # third pair in the plane would repeat the first pair's anchors.
    rng = make_rng(57)
    combos = [(g, p) for g in (GroundNorm.sum(), GroundNorm.max()) for p in (1.0, 2.0, math.inf)]
    combos += [(GroundNorm.euclidean(), math.inf), (GroundNorm.power(3.0), math.inf)]
    checked = 0
    for ground, p in combos:
        for d in (2, 3, 5):
            for pairs in range(1, min(3, d) + 1):
                for _ in range(4):
                    prob, u = planted_optimum(rng, ground, p, d, pairs)
                    got = recover_certificate(prob, u, tol=1e-9)
                    assert isinstance(got, Certificate), (ground.kind, p, d, pairs, got)
                    assert check_certificate(prob, got, tol=1e-9).verdict
                    checked += 1
    assert checked == 8 * 8 * 4


def test_recover_rejects_clearly_suboptimal_points():
    rng = make_rng(51)
    for _ in range(10):
        prob = random_instance(rng, d=2)
        radius = solve_bound(prob).radius
        far = np.full(2, 2.0 * radius)
        got = recover_certificate(prob, far)
        assert isinstance(got, Infeasible)
        assert got.theorem == matching_theorem(prob)


def test_soundness_of_bundled_certificates():
    rng = make_rng(52)
    for case in all_cases():
        prob = case.instance()
        c = case.certificate()
        assert check_certificate(prob, c).verdict
        radius = solve_bound(prob).radius
        us = rng.uniform(-radius, radius, size=(2_000, prob.dim))
        f_opt = objective_eval(prob, c.solution)
        assert objective_eval_many(prob, us).min() >= f_opt - 1e-7


def test_specialized_checkers_agree_with_general():
    rng = make_rng(53)
    checkers = {
        1.0: check_fermat_torricelli,
        math.inf: check_chebyshev,
        1.5: check_p_fermat,
        2.0: check_p_fermat,
    }
    checked = 0
    for k in range(100):
        p = (1.0, 1.5, 2.0, math.inf)[k % 4]
        ground = ALL_GROUNDS[k % len(ALL_GROUNDS)]
        prob = random_instance(rng, ground=ground, gen=PsiGenerator.power(p), d=2)
        res = solve_subgradient(prob, SolverConfig(max_iters=300))
        base = recover_certificate(prob, res.point, tol=1e-5)
        if isinstance(base, Infeasible):
            continue
        variants = [(base, 1e-5)]
        for _ in range(9):
            noise = rng.normal(scale=10 ** rng.uniform(-3, -1), size=base.duals.shape)
            corrupted = Certificate(solution=base.solution, duals=base.duals + noise)
            variants.append((corrupted, 1e-9))
        for got, tol in variants:
            general = check_general(prob, got, tol=tol).verdict
            special = checkers[p](prob, got, tol=tol).verdict
            assert general == special
            checked += 1
    assert checked >= 900


def test_round_trip_all_combinations():
    # Scaled-down version of the full acceptance round-trip; the recovery
    # tolerance absorbs the solver's terminal accuracy.
    rng = make_rng(54)
    for ground in ALL_GROUNDS:
        for gen in ALL_GENERATORS:
            for k in range(3):
                prob = random_instance(rng, ground=ground, gen=gen)
                res = solve_subgradient(prob, SolverConfig(max_iters=600))
                got = recover_certificate(prob, res.point, tol=1e-6)
                assert isinstance(got, Certificate), (ground.kind, gen.p)
                assert check_certificate(prob, got, tol=1e-6).verdict, (
                    ground.kind,
                    gen.p,
                )


def test_corruption_detection():
    rng = make_rng(55)
    for case in all_cases():
        prob = case.instance()
        c = case.certificate()
        for i in range(prob.n):
            bump = np.zeros_like(c.duals)
            direction = rng.normal(size=prob.dim)
            bump[i] = 1e-3 * direction / np.linalg.norm(direction)
            report = check_certificate(prob, Certificate(c.solution, c.duals + bump))
            assert (not report.verdict) or report.worst[1] > 1e-4


def test_recovery_lp_tolerance_sits_inside_the_check_tolerance():
    # An optimal point of a max-ground, p=2 instance, pinned so the test does
    # not depend on the solver.  With HiGHS's default 1e-7 feasibility
    # tolerances the recovery program stops short and recovery at 1e-9
    # reports Infeasible.
    prob = ProblemInstance(
        anchors=np.random.default_rng(8020).normal(size=(8, 2)) * 2,
        norm=ProductNorm(ground=GroundNorm.max(), generator=PsiGenerator.power(2.0)),
    )
    point = np.array([1.194508602363445, -0.3804975815340292])
    recovered = recover_certificate(prob, point, tol=1e-9)
    assert not isinstance(recovered, Infeasible), recovered
    assert check_certificate(prob, recovered, tol=1e-9).verdict
