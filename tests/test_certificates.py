"""Optimality condition checkers and dual recovery."""

import math

import numpy as np
import pytest
import scipy.optimize
from scipy.optimize import linprog

from conftest import (
    ALL_GENERATORS,
    ALL_GROUNDS,
    gaussian_anchors,
    lattice_anchors,
    make_rng,
    random_instance,
)
from normmin import (
    CHEBYSHEV,
    FERMAT_TORRICELLI,
    GENERAL,
    P_FERMAT,
    Certificate,
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
    check_chebyshev,
    check_fermat_torricelli,
    check_general,
    check_p_fermat,
    conjugate_exponent,
    describe_solution_set,
    dual_ground_norm,
    ground_norm_eval,
    ground_norm_eval_many,
    matching_theorem,
    objective_eval,
    objective_eval_many,
    recover_certificate,
    sol_contains_chebyshev,
    sol_contains_ft,
    sol_contains_pft,
    solve_bound,
    solve_subgradient,
)
from normmin import certificates
from normmin.certificates import _cap_table, _power_profile
from normmin.geometry import _min_norm_weights
from normmin.problem import _ground_subgradient

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


_GUARD_GENERATORS = {
    "p1": PsiGenerator.power(1.0),
    "p1.5": PsiGenerator.power(1.5),
    "pinf": PsiGenerator.power(math.inf),
    # The 1.5-norm behind an opaque callable.
    "tabulated": PsiGenerator.tabulated(
        lambda t: float(np.sum(np.abs(t) ** 1.5) ** (1.0 / 1.5)), arity=3, symmetric=True
    ),
}
_PUBLIC_CHECKERS = {
    GENERAL: check_general,
    FERMAT_TORRICELLI: check_fermat_torricelli,
    CHEBYSHEV: check_chebyshev,
    P_FERMAT: check_p_fermat,
}
_PREDICATES = {
    FERMAT_TORRICELLI: (sol_contains_ft, "ft_intersection"),
    CHEBYSHEV: (sol_contains_chebyshev, "chebyshev_intersection"),
    P_FERMAT: (sol_contains_pft, "pft_intersection"),
}


@pytest.mark.parametrize("gen_id", sorted(_GUARD_GENERATORS))
@pytest.mark.parametrize("name", ["auto", GENERAL, FERMAT_TORRICELLI, CHEBYSHEV, P_FERMAT, "fermat"])
def test_theorem_and_predicate_guards(name, gen_id):
    # Three anchors whose Fermat point is off the anchors, so the sum
    # generator keeps its blockwise predicate.
    anchors = np.array([[0.0, 0.0], [4.0, 0.0], [1.0, 3.0]])
    gen = _GUARD_GENERATORS[gen_id]
    prob = ProblemInstance(anchors=anchors, norm=ProductNorm(ground=GroundNorm.euclidean(), generator=gen))
    source = gen if gen.kind == "p" else PsiGenerator.power(1.5)
    solved = ProblemInstance(anchors=anchors, norm=ProductNorm(ground=GroundNorm.euclidean(), generator=source))
    good = recover_certificate(solved, solve_subgradient(solved).point)
    assert isinstance(good, Certificate)
    own = matching_theorem(prob)
    if name not in _PUBLIC_CHECKERS and name != "auto":
        with pytest.raises(InvalidInputError):
            check_certificate(prob, good, theorem=name)
    elif name not in ("auto", GENERAL, own):
        with pytest.raises(UnsupportedGeneratorError):
            check_certificate(prob, good, theorem=name)
        with pytest.raises(UnsupportedGeneratorError):
            _PUBLIC_CHECKERS[name](prob, good)
    else:
        public = _PUBLIC_CHECKERS[own if name == "auto" else name]
        assert check_certificate(prob, good, tol=1e-7, theorem=name) == public(prob, good, tol=1e-7)
    if name in _PREDICATES:
        predicate, kind = _PREDICATES[name]
        desc = describe_solution_set(prob, good)
        if desc.kind != kind:
            with pytest.raises(ContractError):
                predicate(desc, good.solution)
        else:
            assert predicate(desc, good.solution)


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

    # A balanced free coordinate of the sum ground's box faces is +0, so the
    # serialized blocks carry no "-0".
    line = two_anchor(GroundNorm.sum(), PsiGenerator.power(1.0))
    got3 = recover_certificate(line, (1.0, 0.0))
    assert isinstance(got3, Certificate)
    assert got3.duals.tolist() == [[1.0, 0.0], [-1.0, 0.0]]
    assert not np.signbit(got3.duals[:, 1]).any()


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
    smooth = (GroundNorm.euclidean(), GroundNorm.power(3.0))
    combos += [(g, p) for g in smooth for p in (1.0, 2.0, math.inf)]
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
    assert checked == 12 * 8 * 4


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


def test_face_finish_certifies_where_the_exact_faces_reject_the_epigraph_point():
    # A max-ground, p=2 instance whose SLSQP answer (pinned here) is short of
    # the optimum by a few 1e-9 in the gradient: the exact faces leave its
    # blocks unbalanced at 1e-9 and say by how much.  The solver's face
    # finish lands on a point that certifies at 1e-9.
    prob = ProblemInstance(
        anchors=np.random.default_rng(8020).normal(size=(8, 2)) * 2,
        norm=ProductNorm(ground=GroundNorm.max(), generator=PsiGenerator.power(2.0)),
    )
    point = np.array([1.194508602363445, -0.3804975815340292])
    short = recover_certificate(prob, point, tol=1e-9)
    assert isinstance(short, Infeasible), short
    assert short.reason.startswith("the exact alignment faces leave the blocks unbalanced by ")
    assert 1e-9 < short.residual < 1e-8
    assert isinstance(recover_certificate(prob, point, tol=1e-7), Certificate)
    res = solve_subgradient(prob)
    recovered = recover_certificate(prob, res.point, tol=1e-9)
    assert isinstance(recovered, Certificate), recovered
    assert check_certificate(prob, recovered, tol=1e-9).verdict


def test_power_profile_survives_tiny_displacements():
    # At anchor scale 1e-9 every r_i**40 underflows to zero; the profile is
    # taken from r / max(r), so the tiny copy certifies like the unit one.
    anchors = np.random.default_rng(3).normal(size=(5, 2)) * 1e-9
    for ground in ALL_GROUNDS:
        prob = ProblemInstance(anchors, ProductNorm(ground, PsiGenerator.power(40.0)))
        res = solve_subgradient(prob)
        got = recover_certificate(prob, res.point)
        assert isinstance(got, Certificate), (ground.kind, got)
        assert check_p_fermat(prob, got).verdict
        assert check_general(prob, got).verdict


def _elastic_lp_chebyshev(prob, u, tol):
    """Reference: smooth-ground p=inf recovery by an elastic LP on the weights.

    Convex weights on the gradients of the blocks within ``tol`` of the
    farthest minimize the l1 violation of "the weighted gradients sum to zero
    and the weights to one"; the point certifies when the violation is within
    tolerance and the weighted gradients pass the Chebyshev check.
    """
    diffs = u - prob.anchors
    r = ground_norm_eval_many(prob.norm.ground, diffs)
    m = float(r.max())
    active = r >= m - tol * max(1.0, m)
    grads = _ground_subgradient(prob.norm.ground, diffs)
    n, d = grads.shape
    a_eq = np.vstack([grads.T, np.ones((1, n))])
    res = linprog(
        np.concatenate([np.zeros(n), np.ones(2 * (d + 1))]),
        A_eq=np.hstack([a_eq, np.kron(np.eye(d + 1), [1.0, -1.0])]),
        b_eq=np.append(np.zeros(d), 1.0),
        bounds=[(0.0, np.inf if a else 0.0) for a in active] + [(0.0, np.inf)] * (2 * (d + 1)),
        method="highs",
        options={
            "primal_feasibility_tolerance": max(1e-10, 1e-3 * tol),
            "dual_feasibility_tolerance": max(1e-10, 1e-3 * tol),
        },
    )
    assert res.status == 0
    if res.fun > tol * max(1.0, m):
        return False
    duals = res.x[:n, None] * grads
    return check_certificate(prob, Certificate(u, duals), tol=tol).verdict


def test_smooth_recovery_needs_no_lp(monkeypatch):
    def no_lp(*args, **kwargs):
        raise AssertionError("smooth-ground recovery called linprog")

    # The reference keeps this module's own binding of linprog.
    monkeypatch.setattr(scipy.optimize, "linprog", no_lp)
    rng = make_rng(58)
    outcomes = set()
    for ground in (GroundNorm.euclidean(), GroundNorm.power(3.0)):
        for p in (1.0, 1.5, 2.0, math.inf):
            for _ in range(6):
                prob = random_instance(rng, ground=ground, gen=PsiGenerator.power(p))
                res = solve_subgradient(prob)
                kick = rng.normal(size=prob.dim)
                points = (res.point, res.point + 1e-6 * kick / np.linalg.norm(kick))
                for u in points:
                    for tol in (1e-7, 1e-5):
                        got = recover_certificate(prob, u, tol=tol)
                        certified = isinstance(got, Certificate)
                        if p == math.inf:
                            assert certified == _elastic_lp_chebyshev(prob, u, tol), (
                                ground.kind, tol, got,
                            )
                            outcomes.add(certified)
    assert outcomes == {True, False}


def test_checker_residuals_are_scale_free():
    # A triangle at scale 1e-9 and its unit copy.  The duals recovered at the
    # optimum, paired with a point moved by half an anchor gap, must fail at
    # either scale; residuals scaled by max(1, max r) were absolute below
    # unit scale and let the tiny copy pass (alignment 2.2e-10).
    alignments = []
    for scale in (1e-9, 1.0):
        prob = ProblemInstance(
            np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 3.0]]) * scale,
            ProductNorm(GroundNorm.euclidean(), PsiGenerator.power(1.0)),
        )
        u = solve_subgradient(prob).point
        got = recover_certificate(prob, u)
        assert isinstance(got, Certificate), got
        assert check_certificate(prob, got, tol=1e-9).verdict
        moved = check_certificate(prob, Certificate(u + 0.5 * scale, got.duals), tol=1e-9)
        assert not moved.verdict
        alignments.append(moved.residuals["alignment"])
    assert alignments[0] == pytest.approx(alignments[1], rel=1e-6)


def _dense_recovery_lp(prob, diffs, r, cap_lo, cap_hi, paired):
    # The elastic recovery program's (A_ub, A_eq): the columns are the
    # nonnegative parts P and N of the blocks W = P - N, the caps, and two
    # slacks per equality row.  Block i lies in the dual ball of radius c_i;
    # the equality rows balance the blocks and pair the paired ones.
    n, d = diffs.shape
    nd = n * d
    blocks = np.repeat(np.eye(n), d, axis=1)
    if prob.norm.ground.kind == "max":
        a_ub = np.hstack([blocks, blocks, -np.eye(n)])
    else:
        a_ub = np.hstack([np.eye(nd), np.eye(nd), -blocks.T])
    a_w = np.vstack([np.tile(np.eye(d), n), (blocks * diffs.ravel())[paired]])
    a_c = np.vstack([np.zeros((d, n)), -np.diag(r)[paired]])
    a_eq = np.hstack([a_w, -a_w, a_c])
    ne = a_eq.shape[0]
    return (
        np.hstack([a_ub, np.zeros((a_ub.shape[0], 2 * ne))]),
        np.hstack([a_eq, np.kron(np.eye(ne), [1.0, -1.0])]),
    )


def _recovery_lp(prob, diffs, r, cap_lo, cap_hi, paired, tol):
    """Reference: blocks of least total slack in the elastic recovery program.

    Caps are bounded by ``[cap_lo, cap_hi]`` (a zero upper cap pins the
    block to zero) and the cost is the slacks' sum.  HiGHS's feasibility
    tolerances are ``1e-3 * tol`` (at least 1e-10).  Returns the blocks and
    the total violation.
    """
    n, d = diffs.shape
    nd = n * d
    a_ub, a_eq = _dense_recovery_lp(prob, diffs, r, cap_lo, cap_hi, paired)
    ne = a_eq.shape[0]
    pn = np.column_stack([np.zeros(nd), np.repeat(np.where(cap_hi > 0.0, np.inf, 0.0), d)])
    lp_tol = max(1e-10, 1e-3 * tol)
    res = linprog(
        np.concatenate([np.zeros(2 * nd + n), np.ones(2 * ne)]),
        A_ub=a_ub,
        b_ub=np.zeros(a_ub.shape[0]),
        A_eq=a_eq,
        b_eq=np.zeros(ne),
        bounds=np.vstack([pn, pn, np.column_stack([cap_lo, cap_hi]), np.tile([0.0, np.inf], (2 * ne, 1))]),
        method="highs",
        options={"primal_feasibility_tolerance": lp_tol, "dual_feasibility_tolerance": lp_tol},
    )
    assert res.status == 0, res.message
    return (res.x[:nd] - res.x[nd : 2 * nd]).reshape(n, d), float(res.fun)


def _lp_recovery(prob, u, tol):
    """Reference: sum- and max-ground recovery by the elastic LP.

    The sum generator fixes the caps at one and the finite power generators
    at the power profile.  Free caps sum to one under the max generator; the
    program is homogeneous in the blocks and caps, so each farthest block in
    turn is pinned at cap one, and a solution is scaled back by the sum of
    its blocks' dual norms.  The point certifies when some program's scaled
    violation is within tolerance and its scaled blocks pass the checker.
    """
    diffs = u - prob.anchors
    r = ground_norm_eval_many(prob.norm.ground, diffs)
    ztol = tol * float(r.max())
    budget = tol * max(1.0, float(r.sum()))
    p = prob.norm.generator.p
    if p != math.inf:
        if p == 1.0:
            caps, paired = np.ones(prob.n), r > ztol
        else:
            profile = _power_profile(r, p) ** (1.0 / conjugate_exponent(p))
            caps = np.where(r > ztol, profile, 0.0)
            paired = caps > 0.0
        duals, violation = _recovery_lp(prob, diffs, r, caps, caps, paired, tol)
        return violation <= budget and check_certificate(prob, Certificate(u, duals), tol=tol).verdict
    farthest = r >= float(r.max()) - ztol
    dual_ground = dual_ground_norm(prob.norm.ground)
    for k in np.flatnonzero(farthest):
        cap_lo, cap_hi = np.zeros(prob.n), np.where(farthest, np.inf, 0.0)
        cap_lo[k] = cap_hi[k] = 1.0
        duals, violation = _recovery_lp(prob, diffs, r, cap_lo, cap_hi, farthest, tol)
        total = float(ground_norm_eval_many(dual_ground, duals).sum())
        if violation <= budget * total and check_certificate(prob, Certificate(u, duals / total), tol=tol).verdict:
            return True
    return False


def test_polyhedral_face_recovery_needs_no_lp(monkeypatch):
    # Under the sum and max generators the faces decide what the LP decides
    # on every case built from this seed.  That is not a law: on other seeds
    # a few kicked points at 1e-7 go the other way (max-ground p = 1 points
    # at d = 10 that only the LP certifies, a sum-ground p = 1 point that
    # only the faces certify).  Under the finite power generators the LP
    # spreads the solver's error differently, so kicked points may go either
    # way; the solve point must certify wherever the LP certifies it.
    def no_lp(*args, **kwargs):
        raise AssertionError("sum- or max-ground recovery called linprog")

    rng = make_rng(62)
    cases = []
    for ground in (GroundNorm.sum(), GroundNorm.max()):
        for p in (1.0, 1.5, 2.0, 3.0, math.inf):
            for n in (3, 8, 13, 64):
                for d in (2, 3, 10):
                    prob = random_instance(rng, ground=ground, gen=PsiGenerator.power(p), n=n, d=d)
                    point = solve_subgradient(prob).point
                    kick = rng.normal(size=d)
                    cases += [(prob, point, True), (prob, point + 1e-6 * kick / np.linalg.norm(kick), False)]
    # The middle of three collinear anchors is the sum-ground median, and its
    # block gets the whole dual ball.
    line = ProblemInstance(
        np.array([[0.0, 0.0], [1.0, 0.5], [3.0, 1.5]]),
        ProductNorm(GroundNorm.sum(), PsiGenerator.power(1.0)),
    )
    cases += [(line, np.array([1.0, 0.5]), True), (line, np.array([1.0 + 1e-6, 0.5]), False), (line, np.array([1.5, 0.75]), False)]
    # Corners of a square about the origin: every displacement ties its
    # coordinates on the max ground, and every block is farthest.
    square = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [0.5, -0.25]])
    for p in (1.0, 2.0, math.inf):
        prob = ProblemInstance(square, ProductNorm(GroundNorm.max(), PsiGenerator.power(p)))
        cases += [(prob, np.zeros(2), False), (prob, np.array([1e-6, 0.0]), False), (prob, solve_subgradient(prob).point, True)]
    outcomes = set()
    for prob, u, solved in cases:
        p = prob.norm.generator.p
        for tol in (1e-7, 1e-5):
            want = _lp_recovery(prob, u, tol)
            with monkeypatch.context() as patch:
                patch.setattr(scipy.optimize, "linprog", no_lp)
                got = recover_certificate(prob, u, tol=tol)
            certified = isinstance(got, Certificate)
            if p in (1.0, math.inf):
                assert certified == want, (prob.norm.ground.kind, p, prob.n, prob.dim, tol, got)
            elif solved and want:
                assert certified, (prob.norm.ground.kind, p, prob.n, prob.dim, tol, got)
            outcomes.add(certified)
    assert outcomes == {True, False}


def test_face_recovery_is_scale_free():
    # The faces are cut by tol times the largest block norm, so an optimum
    # shrunk by 1e-9 certifies like its unit-scale copy; an elastic LP's
    # absolute tolerances rejected the tiny copies.
    for ground in (GroundNorm.sum(), GroundNorm.max()):
        for p in (1.0, 1.5, 2.0, 3.0, math.inf):
            for seed in range(4):
                anchors = np.random.default_rng(seed).normal(size=(6, 3))
                unit = ProblemInstance(anchors, ProductNorm(ground, PsiGenerator.power(p)))
                tiny = ProblemInstance(anchors * 1e-9, ProductNorm(ground, PsiGenerator.power(p)))
                u = solve_subgradient(unit).point
                for prob, point in ((unit, u), (tiny, u * 1e-9)):
                    got = recover_certificate(prob, point, tol=1e-7)
                    assert isinstance(got, Certificate), (ground.kind, p, seed, got)


def test_box_and_signed_vertex_faces_need_no_wolfe(monkeypatch):
    # Fixed caps on the sum ground's boxes and the max generator on the max
    # ground's signed unit vectors have closed forms.
    def no_wolfe(*args, **kwargs):
        raise AssertionError("recovery ran Wolfe's method")

    monkeypatch.setattr(certificates, "_min_norm_weights", no_wolfe)
    for ground, p in ((GroundNorm.sum(), 1.0), (GroundNorm.sum(), 2.0), (GroundNorm.max(), math.inf)):
        for sample in (gaussian_anchors, lattice_anchors):
            for n in (4, 13, 64, 256):
                for d in (2, 3, 10):
                    prob = ProblemInstance(sample(n, d), ProductNorm(ground, PsiGenerator.power(p)))
                    got = recover_certificate(prob, solve_subgradient(prob).point, tol=1e-9)
                    assert isinstance(got, Certificate), (ground.kind, p, sample.__name__, n, d, got)


def _former_wolfe_face_duals(kind, diffs, r, ztol, caps, paired):
    """Reference: Wolfe's method on the sum ground's boxes under fixed caps and
    on the max ground's signed unit vectors under the max generator, as
    recovery ran it before their closed forms."""
    n, d = diffs.shape
    idx = np.flatnonzero(paired if caps is None else caps > 0.0)
    x, rx = diffs[idx], r[idx]
    if kind == "sum":
        cap, fixed = caps[idx, None], np.abs(x) > ztol
        lo, hi = np.where(fixed, np.sign(x), -1.0), np.where(fixed, np.sign(x), 1.0)

        def oracle(y):
            v = cap * np.where(y > 0.0, lo, hi)
            return v.tobytes(), v

        atom_sq = idx.size**2 * d
    else:
        sx = np.concatenate([x, -x], axis=1)
        face = (((sx >= 0.0) & (rx[:, None] - sx <= ztol)) | (rx[:, None] <= ztol)).ravel()

        def oracle(y):
            w = np.zeros(face.size)
            w[np.argmin(np.where(face, np.tile(np.concatenate([y, -y]), idx.size), np.inf))] = 1.0
            w = w.reshape(idx.size, 2 * d)
            v = w[:, :d] - w[:, d:]
            return v.tobytes(), v

        atom_sq = 1
    duals = np.zeros((n, d))
    _, _, duals[idx] = _min_norm_weights(oracle, oracle(np.zeros(d)), 1e-22 * atom_sq)
    return duals


def test_closed_face_forms_fail_by_the_former_wolfe_residual():
    # Off the optimum the closed forms leave the same imbalance, so the same
    # Infeasible residual, as the Wolfe runs they replaced.
    rng = make_rng(71)
    infeasible = 0
    for ground, exponents in ((GroundNorm.sum(), (1.0, 1.5, 2.0, 3.0)), (GroundNorm.max(), (math.inf,))):
        for p in exponents:
            for sample in (gaussian_anchors, lattice_anchors):
                for n in (4, 13, 64):
                    for d in (2, 3, 10):
                        prob = ProblemInstance(sample(n, d), ProductNorm(ground, PsiGenerator.power(p)))
                        kick = rng.normal(size=d)
                        u = solve_subgradient(prob).point + 1e-6 * kick / np.linalg.norm(kick)
                        diffs = u - prob.anchors
                        r = ground_norm_eval_many(ground, diffs)
                        for tol in (1e-7, 1e-5):
                            ztol = tol * float(r.max())
                            caps, paired = _cap_table(matching_theorem(prob), prob.norm.generator, r, ztol)
                            duals = _former_wolfe_face_duals(ground.kind, diffs, r, ztol, caps, paired)
                            want = check_certificate(prob, Certificate(u, duals), tol=tol)
                            got = recover_certificate(prob, u, tol=tol)
                            assert isinstance(got, Infeasible) == (not want.verdict), (ground.kind, p, n, d, tol)
                            if isinstance(got, Infeasible):
                                assert abs(got.residual - want.worst[1]) <= 1e-12, (ground.kind, p, n, d, tol, got)
                                infeasible += 1
    assert infeasible >= 50
