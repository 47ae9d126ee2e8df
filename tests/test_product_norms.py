"""Block-aggregated norms, their duals, and the pairing inequality."""

import math

import numpy as np
import pytest

from conftest import ALL_GENERATORS, ALL_GROUNDS, aligned_pair, make_rng, unit_dual_at
from normmin import (
    GroundNorm,
    InvalidInputError,
    ProductNorm,
    PsiGenerator,
    UnsupportedGeneratorError,
    block_norms,
    dual_ground_norm,
    dual_product_norm_eval,
    equality_case_check,
    ground_norm_eval_many,
    holder_gap,
    pairing,
    product_norm_eval,
    product_norm_from_block_norms,
    psi_eval,
    psi_eval_many,
)


def pn(ground, gen):
    return ProductNorm(ground=ground, generator=gen)


def test_eval_examples():
    x = ((1.0, 0.0), (-1.0, 0.0))
    assert product_norm_eval(pn(GroundNorm.max(), PsiGenerator.power(1.0)), x) == 2.0
    assert product_norm_eval(pn(GroundNorm.max(), PsiGenerator.power(math.inf)), x) == 1.0
    y = ((3.0, 0.0), (0.0, 4.0))
    assert product_norm_eval(
        pn(GroundNorm.power(2.0), PsiGenerator.power(2.0)), y
    ) == pytest.approx(5.0)
    assert product_norm_eval(pn(GroundNorm.max(), PsiGenerator.power(1.0)), np.zeros((2, 2))) == 0.0


def test_dual_eval_examples():
    xstar = ((1.0, 0.0), (-1.0, 0.0))
    assert dual_product_norm_eval(
        pn(GroundNorm.max(), PsiGenerator.power(1.0)), xstar
    ) == pytest.approx(1.0)
    half = ((0.5, 0.0), (-0.5, 0.0))
    assert dual_product_norm_eval(
        pn(GroundNorm.max(), PsiGenerator.power(math.inf)), half
    ) == pytest.approx(1.0)
    z = ((1.0, 0.0), (0.0, 1.0))
    assert dual_product_norm_eval(
        pn(GroundNorm.power(2.0), PsiGenerator.power(2.0)), z
    ) == pytest.approx(math.sqrt(2.0))


def test_pairing_examples():
    a = ((1.0, 0.0), (-1.0, 0.0))
    assert pairing(a, a) == 2.0
    assert pairing(a, np.zeros((2, 2))) == 0.0
    assert pairing(((1.0, 2.0), (0.0, 1.0)), ((1.0, 0.0), (3.0, 3.0))) == 4.0
    with pytest.raises(InvalidInputError):
        pairing(a, np.zeros((3, 2)))


def test_holder_gap_examples():
    norm = pn(GroundNorm.max(), PsiGenerator.power(1.0))
    x = ((1.0, 0.0), (-1.0, 0.0))
    assert holder_gap(norm, np.zeros((2, 2)), x) == 0.0
    assert holder_gap(norm, x, x) == pytest.approx(0.0, abs=1e-12)
    norm2 = pn(GroundNorm.power(2.0), PsiGenerator.power(2.0))
    gap = holder_gap(norm2, ((1.0, 0.0), (0.0, 0.0)), ((0.0, 0.0), (0.0, 1.0)))
    assert gap == pytest.approx(1.0)


def test_block_norms_and_arity_guard():
    norm = pn(GroundNorm.sum(), PsiGenerator.power(1.0))
    r = block_norms(norm, ((1.0, -1.0), (2.0, 0.0), (0.0, 0.5)))
    assert np.allclose(r, (2.0, 2.0, 0.5))
    tab = PsiGenerator.tabulated(lambda t: float(np.max(t)), arity=2, symmetric=True)
    with pytest.raises(InvalidInputError):
        product_norm_eval(pn(GroundNorm.sum(), tab), np.ones((3, 2)))


def test_sandwich_between_max_and_sum_generators():
    rng = make_rng(21)
    lo = PsiGenerator.power(math.inf)
    hi = PsiGenerator.power(1.0)
    for gen in ALL_GENERATORS:
        for ground in ALL_GROUNDS:
            norm = pn(ground, gen)
            xs = rng.normal(size=(6_250, 3, 2))
            vals = np.array([product_norm_eval(norm, x) for x in xs])
            vlo = np.array([product_norm_eval(pn(ground, lo), x) for x in xs[:500]])
            vhi = np.array([product_norm_eval(pn(ground, hi), x) for x in xs[:500]])
            assert np.all(vals[:500] >= vlo - 1e-12 * np.maximum(1.0, vhi))
            assert np.all(vals[:500] <= vhi + 1e-12 * np.maximum(1.0, vhi))
            assert np.all(vals >= 0.0)


def test_product_norm_axioms_sampled():
    rng = make_rng(22)
    for ground in (GroundNorm.max(), GroundNorm.euclidean()):
        for gen in ALL_GENERATORS:
            norm = pn(ground, gen)
            for _ in range(2_000):
                x = rng.normal(size=(3, 2))
                y = rng.normal(size=(3, 2))
                nx = product_norm_eval(norm, x)
                ny = product_norm_eval(norm, y)
                nxy = product_norm_eval(norm, x + y)
                scale = max(1.0, nx + ny)
                assert nxy <= nx + ny + 1e-12 * scale
                a = float(rng.normal())
                nax = product_norm_eval(norm, a * x)
                assert abs(nax - abs(a) * nx) <= 1e-12 * max(1.0, nax)


def test_duality_consistency_for_power_generators():
    rng = make_rng(23)
    pairs = [(1.0, math.inf), (math.inf, 1.0), (2.0, 2.0), (1.5, 3.0)]
    for ground in ALL_GROUNDS:
        for p, q in pairs:
            norm = pn(ground, PsiGenerator.power(p))
            flipped = pn(dual_ground_norm(ground), PsiGenerator.power(q))
            for _ in range(625):
                xstar = rng.normal(size=(3, 2))
                direct = dual_product_norm_eval(norm, xstar)
                via_flip = product_norm_eval(flipped, xstar)
                assert abs(direct - via_flip) <= 1e-12 * max(1.0, via_flip)


def test_holder_gap_nonnegative_sampled():
    rng = make_rng(24)
    worst = 0.0
    for ground in ALL_GROUNDS:
        for gen in ALL_GENERATORS:
            norm = pn(ground, gen)
            for _ in range(1_500):
                xstar = rng.normal(size=(2, 3))
                x = rng.normal(size=(2, 3))
                worst = min(worst, holder_gap(norm, xstar, x))
    assert worst >= -1e-12


def test_power_aggregate_matches_profile_route():
    # Power generators evaluate through the closed-form aggregate; it must
    # equal the total times the generator at the normalized profile to 1e-10
    # relative, on rows that mix zero, tiny and huge block norms.
    rng = make_rng(24)
    rows = np.abs(rng.normal(size=(600, 4))) * 10.0 ** rng.uniform(-6.0, 6.0, size=(600, 1))
    rows[0::6] = 0.0
    rows[1::6, 0] = 0.0
    rows[2::6, 1] = 1e-300
    rows[3::6] *= 1e-150
    rows[4::6] *= 1e150
    rows[5::6, 2] *= 1e12
    totals = rows.sum(axis=1)
    safe = np.where(totals > 0.0, totals, 1.0)
    for gen in ALL_GENERATORS + (PsiGenerator.power(3.0),):
        closed = np.array([product_norm_from_block_norms(gen, r) for r in rows])
        via_profile = totals * psi_eval_many(gen, rows / safe[:, None])
        gap = np.abs(closed - via_profile)
        assert np.all(gap <= 1e-10 * np.maximum(1.0, np.abs(closed)))


def test_equality_case_examples():
    norm_inf = pn(GroundNorm.max(), PsiGenerator.power(math.inf))
    rep = equality_case_check(
        norm_inf, ((0.5, 0.0), (-0.5, 0.0)), ((1.0, 0.0), (-1.0, 0.0))
    )
    assert rep.equality_holds and rep.conditions_hold
    assert rep.structure_label == "primal_mass_on_max_norm"

    norm_one = pn(GroundNorm.max(), PsiGenerator.power(1.0))
    rep = equality_case_check(
        norm_one, ((1.0, 0.0), (-1.0, 0.0)), ((1.0, 0.0), (-1.0, 0.0))
    )
    assert rep.equality_holds and rep.conditions_hold
    assert rep.structure_label == "dual_mass_on_max_dual_norm"

    norm_two = pn(GroundNorm.power(2.0), PsiGenerator.power(2.0))
    rep = equality_case_check(
        norm_two, ((1.0, 0.0), (0.0, 0.0)), ((0.0, 0.0), (0.0, 1.0))
    )
    assert not rep.equality_holds and not rep.conditions_hold
    assert rep.structure_residuals.max() > rep.tol


def test_equality_case_rejects_tabulated():
    tab = PsiGenerator.tabulated(lambda t: float(np.max(t)), arity=2, symmetric=True)
    with pytest.raises(UnsupportedGeneratorError):
        equality_case_check(pn(GroundNorm.max(), tab), np.ones((2, 2)), np.ones((2, 2)))


def test_equality_verdicts_agree_sampled():
    # The norm-value verdict and the structural conditions are computed
    # independently; the characterization says they agree.  Engineered pairs
    # must come out as equalities.
    rng = make_rng(25)
    for ground in ALL_GROUNDS:
        for p in (1.0, 1.5, 2.0, math.inf):
            norm = pn(ground, PsiGenerator.power(p))
            for k in range(300):
                if k % 2 == 0:
                    xstar, x = aligned_pair(rng, ground, p)
                    rep = equality_case_check(norm, xstar, x)
                    assert rep.equality_holds
                else:
                    rep = equality_case_check(
                        norm, rng.normal(size=(3, 2)), rng.normal(size=(3, 2))
                    )
                assert rep.equality_holds == rep.conditions_hold


def test_strict_convexity_witness():
    rng = make_rng(26)
    norm = pn(GroundNorm.power(2.0), PsiGenerator.power(2.0))
    for _ in range(1_000):
        x = rng.normal(size=(2, 2))
        y = rng.normal(size=(2, 2))
        x = x / product_norm_eval(norm, x)
        y = y / product_norm_eval(norm, y)
        if np.linalg.norm(x - y) < 1e-3:
            continue
        assert product_norm_eval(norm, x + y) < 2.0 - 1e-9

    # Blockwise-parallel vectors give equality for the constant generator.
    norm1 = pn(GroundNorm.euclidean(), PsiGenerator.power(1.0))
    x = np.array([[1.0, 0.0], [0.0, 2.0]])
    y = np.array([[3.0, 0.0], [0.0, 1.0]])
    lhs = product_norm_eval(norm1, x + y)
    assert lhs == pytest.approx(product_norm_eval(norm1, x) + product_norm_eval(norm1, y))
