"""Simplex generators: evaluation, validation, conjugacy, minima."""

import itertools
import math

import numpy as np
import pytest

from conftest import ALL_GENERATORS, make_rng
from normmin import (
    Certificate,
    ContractError,
    GroundNorm,
    InvalidInputError,
    MembershipViolationError,
    ProblemInstance,
    ProductNorm,
    PsiGenerator,
    check_general,
    conjugate_exponent,
    dual_norm_from_block_norms,
    psi_conjugate_eval,
    psi_conjugate_generator,
    psi_eval,
    psi_eval_many,
    psi_min_symmetric,
    psi_sandwich_bounds,
    validate_psi,
)


def random_simplex(rng, count, n):
    return rng.dirichlet(np.ones(n), size=count)


def test_eval_examples():
    assert psi_eval(PsiGenerator.power(1.0), (0.3, 0.7)) == 1.0
    assert psi_eval(PsiGenerator.power(math.inf), (0.5, 0.5)) == 0.5
    assert psi_eval(PsiGenerator.power(2.0), (0.5, 0.5)) == pytest.approx(
        1.0 / math.sqrt(2.0)
    )
    for gen in ALL_GENERATORS:
        assert psi_eval(gen, (1.0, 0.0, 0.0)) == pytest.approx(1.0)


def test_eval_many_matches_scalar():
    rng = make_rng(11)
    ts = random_simplex(rng, 128, 4)
    for gen in ALL_GENERATORS:
        many = psi_eval_many(gen, ts)
        single = np.array([psi_eval(gen, t) for t in ts])
        assert np.allclose(many, single, rtol=0.0, atol=1e-14)


def test_construction_rejects_bad_generators():
    with pytest.raises(InvalidInputError):
        PsiGenerator.power(0.5)
    with pytest.raises(InvalidInputError):
        PsiGenerator("tabulated", func=None, arity=2)
    with pytest.raises(InvalidInputError):
        PsiGenerator.tabulated(lambda t: 1.0, arity=1)
    with pytest.raises(ContractError):
        PsiGenerator.tabulated(lambda t: 1.0, arity=99)


def test_tabulated_rejects_off_simplex_input():
    gen = PsiGenerator.tabulated(lambda t: float(np.max(t)), arity=2, symmetric=True)
    with pytest.raises(MembershipViolationError):
        psi_eval(gen, (0.9, 0.9))
    with pytest.raises(MembershipViolationError):
        psi_eval(gen, (-0.1, 1.1))


def test_validate_psi_accepts_builtins_and_copies():
    for gen in ALL_GENERATORS:
        assert validate_psi(gen, samples=400, arity=3).passed
    copy2 = PsiGenerator.tabulated(
        lambda t: float(np.sqrt(np.sum(np.square(t)))), arity=2, symmetric=True
    )
    report = validate_psi(copy2, samples=400)
    assert report.passed
    assert report.symmetry_ok
    assert report.note == "sampled, not certified"


def test_validate_psi_rejects_constant_half():
    gen = PsiGenerator.tabulated(lambda t: 0.5, arity=2)
    report = validate_psi(gen, samples=400)
    assert not report.vertex_values_ok
    assert not report.passed
    assert "vertex" in " ".join(report.failures)


def test_validate_psi_rejects_sum_of_squares():
    gen = PsiGenerator.tabulated(
        lambda t: float(np.sum(np.square(t))), arity=2, symmetric=True
    )
    report = validate_psi(gen, samples=400)
    assert report.vertex_values_ok
    assert not report.passed
    assert not (report.midpoint_convexity_ok and report.restriction_ok and report.bounds_ok)


def test_bounds_sampled():
    rng = make_rng(12)
    for gen in ALL_GENERATORS:
        for n in (2, 3, 5):
            ts = random_simplex(rng, 10_000, n)
            vals = psi_eval_many(gen, ts)
            assert np.all(vals <= 1.0 + 1e-12)
            assert np.all(vals >= ts.max(axis=1) - 1e-12)


def test_sandwich_bounds_helper():
    lo, hi = psi_sandwich_bounds(PsiGenerator.power(1.5), (0.2, 0.3, 0.5))
    assert lo == pytest.approx(0.5)
    assert hi == 1.0


def test_uniform_point_minimizes_symmetric_generators():
    rng = make_rng(13)
    for gen in ALL_GENERATORS:
        for n in (2, 4):
            uniform_val = psi_eval(gen, np.full(n, 1.0 / n))
            ts = random_simplex(rng, 2_500, n)
            vals = psi_eval_many(gen, ts)
            assert np.all(vals >= uniform_val - 1e-12)


def test_psi_min_symmetric_examples():
    t, val = psi_min_symmetric(PsiGenerator.power(math.inf), arity=2)
    assert np.allclose(t, (0.5, 0.5))
    assert val == pytest.approx(0.5)
    assert psi_min_symmetric(PsiGenerator.power(1.0), arity=3)[1] == pytest.approx(1.0)
    assert psi_min_symmetric(PsiGenerator.power(2.0), arity=2)[1] == pytest.approx(
        1.0 / math.sqrt(2.0)
    )


def test_conjugate_exponent_pairs():
    assert conjugate_exponent(1.0) == math.inf
    assert conjugate_exponent(math.inf) == 1.0
    assert conjugate_exponent(2.0) == pytest.approx(2.0)
    assert conjugate_exponent(3.0) == pytest.approx(1.5)


def test_conjugate_eval_examples():
    assert psi_conjugate_eval(PsiGenerator.power(1.0), (0.3, 0.7)) == pytest.approx(0.7)
    assert psi_conjugate_eval(PsiGenerator.power(2.0), (0.5, 0.5)) == pytest.approx(
        1.0 / math.sqrt(2.0)
    )
    tab = PsiGenerator.tabulated(
        lambda t: float(np.sqrt(np.sum(np.square(t)))), arity=2, symmetric=True
    )
    assert psi_conjugate_eval(tab, (1.0, 0.0), grid=200) == pytest.approx(1.0, abs=1e-4)


def test_conjugate_generator_closed_forms():
    rng = make_rng(14)
    pairs = [(1.0, math.inf), (math.inf, 1.0), (2.0, 2.0), (1.5, 3.0)]
    for p, q in pairs:
        conj = psi_conjugate_generator(PsiGenerator.power(p))
        assert conj.kind == "p" and conj.p == q
        ss = random_simplex(rng, 2_500, 3)
        got = psi_eval_many(conj, ss)
        want = psi_eval_many(PsiGenerator.power(q), ss)
        assert np.max(np.abs(got - want)) <= 1e-12


def test_conjugate_of_tabulated_is_valid_generator():
    tab = PsiGenerator.tabulated(
        lambda t: float(np.sqrt(np.sum(np.square(t)))), arity=2, symmetric=True
    )
    conj = psi_conjugate_generator(tab, grid=200)
    assert conj.kind == "tabulated"
    assert validate_psi(conj, samples=300, tol=1e-3).passed
    rng = make_rng(15)
    ss = random_simplex(rng, 50, 2)
    want = psi_eval_many(PsiGenerator.power(2.0), ss)
    got = np.array([psi_eval(conj, s) for s in ss])
    assert np.max(np.abs(got - want)) <= 5e-4


def test_conjugate_lattice_matches_closed_form():
    rng = make_rng(16)
    for p in (1.0, 1.5, 2.0, math.inf):
        gen = PsiGenerator.power(p)
        q = conjugate_exponent(p)
        for n, count in ((2, 40), (3, 15)):
            ss = random_simplex(rng, count, n)
            for s in ss:
                lattice = psi_conjugate_eval(gen, s, grid=400)
                closed = psi_eval(PsiGenerator.power(q), s)
                assert abs(lattice - closed) <= 5e-4


class Counted:
    """An opaque generator callable that counts its calls and records each point."""

    def __init__(self, func):
        self.func = func
        self.calls = 0
        self.points = []

    def __call__(self, t) -> float:
        t = np.asarray(t, dtype=float)
        self.calls += 1
        self.points.append(t.tobytes())
        return float(self.func(t))


def _power(p):
    if p == math.inf:
        return lambda t: float(np.max(t))
    return lambda t: float(np.sum(t**p) ** (1.0 / p))


def _walk(psi, weights, grid):
    """Reference: every point of the ``grid`` simplex lattice, then a pairwise
    mass-transfer polish with a barycenter blend.  Returns the value and the
    number of ``psi`` calls.
    """
    n = weights.size
    calls = 0

    def ratio(t):
        nonlocal calls
        calls += 1
        return float(weights @ t) / psi(t)

    best, t = -math.inf, None
    for bars in itertools.combinations(range(grid + n - 1), n - 1):
        cand = (np.diff((-1, *bars, grid + n - 1)) - 1.0) * (1.0 / grid)
        val = ratio(cand)
        if val > best:
            best, t = val, cand
    step = 1.0 / grid
    while step > 1e-12:
        improved = False
        for i, j in itertools.permutations(range(n), 2):
            move = min(step, t[j])
            if move <= 0.0:
                continue
            cand = t.copy()
            cand[i] += move
            cand[j] -= move
            cand = np.clip(cand, 0.0, None)
            cand /= cand.sum()
            val = ratio(cand)
            if val > best + 1e-15:
                t, best, improved = cand, val, True
        cand = (1.0 - step) * t + step * np.full(n, 1.0 / n)
        val = ratio(cand)
        if val > best + 1e-15:
            t, best, improved = cand, val, True
        if not improved:
            step *= 0.5
    return best, calls


SEARCH_GRIDS = {2: 200, 3: 200, 4: 40, 5: 20, 6: 12, 7: 12, 8: 12}
CALL_CEILINGS = {3: 1_200, 4: 3_600}


def test_conjugate_search_accuracy_and_cost():
    rng = make_rng(17)
    for n, grid in SEARCH_GRIDS.items():
        for p in (1.0, 1.5, 2.0, 3.0, math.inf):
            closed = PsiGenerator.power(conjugate_exponent(p))
            for s in random_simplex(rng, 3, n):
                psi = Counted(_power(p))
                value = psi_conjugate_eval(PsiGenerator.tabulated(psi, n), s, grid=grid)
                want = psi_eval(closed, s)
                assert abs(value - want) <= 1e-12 * want, (n, p, s)
                if n in CALL_CEILINGS:
                    assert psi.calls <= CALL_CEILINGS[n], (n, p, s, psi.calls)
        if n in (2, 8):
            for p in (1.5, 3.0, math.inf):
                s = random_simplex(rng, 1, n)[0]
                psi = Counted(_power(p))
                psi_conjugate_eval(PsiGenerator.tabulated(psi, n), s, grid=grid)
                _, walk_calls = _walk(_power(p), s, grid)
                assert psi.calls <= walk_calls, (n, p, s, psi.calls, walk_calls)


def test_conjugate_search_on_kinked_generators():
    kinked = (
        lambda t: 0.5 * float(np.max(t)) + 0.5 * float(np.sum(t**3) ** (1.0 / 3.0)),
        lambda t: max(float(np.sum(t**3) ** (1.0 / 3.0)), float(t[0] + t[1])),
    )
    rng = make_rng(18)
    for n in (2, 3, 4, 5, 8):
        grid = SEARCH_GRIDS[n]
        for psi in kinked:
            for s in random_simplex(rng, 2, n):
                value = psi_conjugate_eval(PsiGenerator.tabulated(psi, n), s, grid=grid)
                walked, _ = _walk(psi, s, grid)
                assert value >= walked * (1.0 - 1.0 / grid), (n, s, value, walked)


def test_conjugate_search_calls_psi_once_per_point():
    kinked = lambda t: max(float(np.sum(t**3) ** (1.0 / 3.0)), float(t[0] + t[1]))
    rng = make_rng(19)
    for n in (3, 4):
        grid = SEARCH_GRIDS[n]
        for func in (_power(1.0), _power(1.5), _power(2.0), _power(math.inf), kinked):
            for s in random_simplex(rng, 2, n):
                psi = Counted(func)
                psi_conjugate_eval(PsiGenerator.tabulated(psi, n), s, grid=grid)
                assert len(set(psi.points)) == psi.calls, (n, s, psi.calls)
                psi = Counted(func)
                rstar = rng.exponential(size=n)
                dual_norm_from_block_norms(PsiGenerator.tabulated(psi, n), rstar, grid=grid)
                assert len(set(psi.points)) == psi.calls, (n, rstar, psi.calls)


def test_conjugate_search_climbs_the_ridge_of_a_kinked_generator():
    # The fourth arity-3 input of test_conjugate_search_on_kinked_generators,
    # where the ratio's maximum sits on the kink t0 + t1 = |t|_3.  A vectorized
    # lattice of 3 000 subdivisions reaches 0.676981 there.
    psi = lambda t: max(float(np.sum(t**3) ** (1.0 / 3.0)), float(t[0] + t[1]))
    s = (0.37073962565221313, 0.22255350389884795, 0.406706870448939)
    value = psi_conjugate_eval(PsiGenerator.tabulated(psi, 3), s, grid=200)
    assert value >= 0.676981 * (1.0 - 1e-5)


def test_conjugate_search_guards_every_batch():
    for const in (2.0, 0.0):
        gen = PsiGenerator.tabulated(lambda t, c=const: c, arity=3)
        with pytest.raises(MembershipViolationError):
            psi_conjugate_eval(gen, (0.2, 0.3, 0.5))
        with pytest.raises(MembershipViolationError):
            dual_norm_from_block_norms(gen, np.array([1.0, 2.0, 0.5]))

        # Sampled validation rejects an out-of-band generator at construction,
        # so the problem is built on a valid one that then goes bad.
        psi = Counted(lambda t: float(np.sqrt(np.sum(t**2))))
        norm = ProductNorm(GroundNorm.euclidean(), PsiGenerator.tabulated(psi, arity=3))
        prob = ProblemInstance(np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]]), norm)
        duals = np.array([[0.4, 0.2], [-0.3, 0.1], [-0.1, -0.3]])
        psi.func = lambda t, c=const: c
        with pytest.raises(MembershipViolationError):
            check_general(prob, Certificate(solution=np.array([0.5, 0.5]), duals=duals))
