"""Acceptance gate.

Each test covers one shipping criterion and prints a single PASS/FAIL line
with the measured quantities before asserting.  Sample counts and tolerances
here are fixed contract values, not tunables; the module-level test files
carry the scaled-down versions of the same properties.
"""

import math
import time

import numpy as np

from conftest import (
    ALL_GENERATORS,
    ALL_GROUNDS,
    aligned_pair,
    make_rng,
    random_anchors,
    random_instance,
)
from normmin import (
    Certificate,
    GroundNorm,
    Infeasible,
    ProblemInstance,
    ProductNorm,
    PsiGenerator,
    SolverConfig,
    all_cases,
    check_certificate,
    describe_solution_set,
    dual_product_norm_eval,
    equality_case_check,
    grid_oracle,
    ground_norm_eval,
    holder_gap,
    hull_distance,
    objective_eval,
    objective_eval_many,
    objective_subgradient,
    product_norm_eval,
    psi_conjugate_eval,
    psi_conjugate_generator,
    psi_eval,
    psi_eval_many,
    recover_certificate,
    sample_solution_region,
    solution_set_contains,
    solve_bound,
    solve_subgradient,
)

BOX2 = np.array([[-3.0, 3.0], [-3.0, 3.0]])


def _emit(num: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'} [{num:02d}] {label}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def _case(case_id: str):
    return next(c for c in all_cases() if c.case_id == case_id)


def _region_mask(pts: np.ndarray, grid: int) -> np.ndarray:
    """Rebuild the boolean lattice mask from accepted points on BOX2."""
    h = 6.0 / (grid - 1)
    idx = np.rint((pts + 3.0) / h).astype(int)
    mask = np.zeros((grid, grid), dtype=bool)
    mask[idx[:, 0], idx[:, 1]] = True
    return mask


def _lattice(grid: int):
    ax = np.linspace(-3.0, 3.0, grid)
    return np.meshgrid(ax, ax, indexing="ij")


def test_01_max_ground_pair_value_certificate_region():
    t0 = time.perf_counter()
    prob = _case("ft-linf-pair").instance()
    res = solve_subgradient(prob, SolverConfig())
    cert = Certificate(
        solution=np.array([1.0, 0.0]), duals=np.array([[1.0, 0.0], [-1.0, 0.0]])
    )
    report = check_certificate(prob, cert, tol=1e-9)
    desc = describe_solution_set(prob, cert, tol=1e-7)
    pts = sample_solution_region(desc, BOX2, 601, tol=1e-7)
    X, Y = _lattice(601)
    closed = (X >= np.abs(Y) - 1e-7) & (2.0 - X >= np.abs(Y) - 1e-7)
    mis = int(np.count_nonzero(_region_mask(pts, 601) != closed))
    dt = time.perf_counter() - t0
    ok = abs(res.value - 2.0) <= 1e-4 and report.verdict and mis == 0 and dt < 5.0
    _emit(
        1,
        "max ground, sum generator, two anchors: value 2, certificate, cone region",
        ok,
        f"value={res.value:.10f} verdict={report.verdict} misclassified={mis} t={dt:.2f}s",
    )


def test_02_p_ground_segment_regions():
    details = []
    ok = True
    for cid in ("ft-l1-pair", "ft-l2-pair", "ft-l3-pair"):
        t0 = time.perf_counter()
        case = _case(cid)
        desc = describe_solution_set(case.instance(), case.certificate(), tol=1e-7)
        pts = sample_solution_region(desc, BOX2, 601, tol=1e-7)
        X, Y = _lattice(601)
        closed = (np.abs(Y) <= 1e-7) & (X >= -1e-7) & (X <= 2.0 + 1e-7)
        mis = int(np.count_nonzero(_region_mask(pts, 601) != closed))
        dt = time.perf_counter() - t0
        ok = ok and mis == 0 and dt < 5.0
        details.append(f"{cid}: mis={mis} t={dt:.2f}s")
    _emit(2, "p grounds (1, 2, 3): region is the anchor segment", ok, "; ".join(details))


def _segment_region_ok(case_id: str, grid: int = 241):
    """Accepted points within one cell of {(1, y): |y| <= 1}, segment covered."""
    case = _case(case_id)
    desc = describe_solution_set(case.instance(), case.certificate(), tol=1e-7)
    pts = sample_solution_region(desc, BOX2, grid, tol=1e-7)
    h = 6.0 / (grid - 1)
    gap = np.hypot(pts[:, 0] - 1.0, np.maximum(np.abs(pts[:, 1]) - 1.0, 0.0))
    covered = pts[np.abs(pts[:, 0] - 1.0) < h / 2.0]
    ys = np.sort(covered[:, 1])
    want = np.linspace(-1.0, 1.0, int(round(2.0 / h)) + 1)
    cover_ok = ys.size == want.size and np.allclose(ys, want, atol=1e-9)
    return bool(gap.size and gap.max() <= h + 1e-9 and cover_ok), float(
        gap.max() if gap.size else math.inf
    )


def _singleton_region_ok(case_id: str, grid: int = 241):
    case = _case(case_id)
    desc = describe_solution_set(case.instance(), case.certificate(), tol=1e-7)
    pts = sample_solution_region(desc, BOX2, grid, tol=1e-7)
    h = 6.0 / (grid - 1)
    gap = np.hypot(pts[:, 0] - 1.0, pts[:, 1])
    return bool(pts.shape[0] >= 1 and gap.max() <= h + 1e-9), pts.shape[0]


def test_03_max_generator_pair_regions():
    prob = _case("cheb-linf-pair").instance()
    res = solve_subgradient(prob, SolverConfig())
    seg_ok, seg_gap = _segment_region_ok("cheb-linf-pair")
    single_ok, n_pts = _singleton_region_ok("cheb-l2-pair")
    ok = abs(res.value - 1.0) <= 1e-4 and seg_ok and single_ok
    _emit(
        3,
        "max generator: midline segment region and euclidean singleton",
        ok,
        f"value={res.value:.10f} seg_gap={seg_gap:.2e} singleton_pts={n_pts}",
    )


def test_04_power_mean_generator_duals_and_regions():
    ok = True
    details = []
    half = 2.0**-0.5
    for cid in ("pft-linf-pair", "pft-l2-pair"):
        case = _case(cid)
        cert = case.certificate()
        dual_ok = np.allclose(
            cert.duals, [[half, 0.0], [-half, 0.0]], atol=1e-12
        ) or np.allclose(cert.duals, [[-half, 0.0], [half, 0.0]], atol=1e-12)
        report = check_certificate(case.instance(), cert, tol=1e-9)
        ok = ok and dual_ok and report.verdict
        details.append(f"{cid}: verdict={report.verdict}")
    seg_ok, _ = _segment_region_ok("pft-linf-pair")
    single_ok, _ = _singleton_region_ok("pft-l2-pair")
    ok = ok and seg_ok and single_ok
    _emit(
        4,
        "power-mean generator: half-root duals verify, regions match",
        ok,
        "; ".join(details) + f"; segment={seg_ok} singleton={single_ok}",
    )


def test_05_two_anchor_value_law():
    t0 = time.perf_counter()
    rng = make_rng(500)
    worst = 0.0
    cert_fail = 0
    for k in range(100):
        v = random_anchors(rng, 2, int(rng.integers(2, 5)))
        ground = ALL_GROUNDS[k % len(ALL_GROUNDS)]
        for gen in ALL_GENERATORS:
            prob = ProblemInstance(
                anchors=v, norm=ProductNorm(ground=ground, generator=gen)
            )
            res = solve_subgradient(prob, SolverConfig())
            want = ground_norm_eval(ground, v[0] - v[1]) * psi_eval(
                gen, np.array([0.5, 0.5])
            )
            worst = max(worst, abs(res.value - want))
            mid = 0.5 * (v[0] + v[1])
            cert = recover_certificate(prob, mid)
            if isinstance(cert, Infeasible) or not check_certificate(prob, cert).verdict:
                cert_fail += 1
    dt = time.perf_counter() - t0
    ok = worst <= 1e-5 and cert_fail == 0 and dt < 30.0
    _emit(
        5,
        "two-anchor law: value = |v1-v2| * psi(1/2, 1/2), midpoint certified",
        ok,
        f"pairs=100x4 worst_err={worst:.2e} cert_failures={cert_fail} t={dt:.1f}s",
    )


def test_06_pairing_gap_and_equality_biimplication():
    rng = make_rng(600)
    combos = [
        ProductNorm(ground=g, generator=p) for g in ALL_GROUNDS for p in ALL_GENERATORS
    ]
    min_gap = math.inf
    for k in range(100_000):
        pn = combos[k % len(combos)]
        x = rng.normal(size=(3, 2))
        z = rng.normal(size=(3, 2))
        min_gap = min(min_gap, holder_gap(pn, z, x))
    gap_ok = min_gap >= -1e-12

    disagreements = 0
    pairs = []
    grounds_gens = [(g, p) for g in ALL_GROUNDS for p in (1.0, 1.5, 2.0, math.inf)]
    for k in range(5000):
        g, p = grounds_gens[k % len(grounds_gens)]
        pairs.append((ProductNorm(ground=g, generator=PsiGenerator.power(p)),)
                     + aligned_pair(rng, g, p))
    for k in range(5000):
        g, p = grounds_gens[k % len(grounds_gens)]
        pn = ProductNorm(ground=g, generator=PsiGenerator.power(p))
        pairs.append((pn, rng.normal(size=(3, 2)), rng.normal(size=(3, 2))))
    for pn, z, x in pairs:
        gap = holder_gap(pn, z, x)
        scale = 1.0 + dual_product_norm_eval(pn, z) * product_norm_eval(pn, x)
        truth = gap <= 1e-8 * scale
        if equality_case_check(pn, z, x).equality_holds != truth:
            disagreements += 1
    ok = gap_ok and disagreements == 0
    _emit(
        6,
        "pairing gap nonnegative on 1e5 triples, equality cases on 1e4 pairs",
        ok,
        f"min_gap={min_gap:.2e} disagreements={disagreements}",
    )


def test_07_generator_bounds_and_conjugates():
    rng = make_rng(700)
    gens = [PsiGenerator.power(p) for p in (1.0, 1.5, 2.0, 3.0, math.inf)]
    bound_violations = 0
    total = 0
    for gen in gens:
        for arity, cnt in ((2, 7000), (3, 7000), (5, 6000)):
            ts = rng.dirichlet(np.ones(arity), size=cnt)
            vals = psi_eval_many(gen, ts)
            lower = ts.max(axis=1)
            bound_violations += int(np.count_nonzero(vals < lower - 1e-12))
            bound_violations += int(np.count_nonzero(vals > 1.0 + 1e-12))
            total += cnt
    assert total == 100_000

    closed_err = 0.0
    for p, q in ((1.0, math.inf), (math.inf, 1.0), (1.5, 3.0), (2.0, 2.0), (3.0, 1.5)):
        assert psi_conjugate_generator(PsiGenerator.power(p)).p == q
        for arity in (2, 3):
            ss = rng.dirichlet(np.ones(arity), size=100)
            for s in ss:
                err = abs(
                    psi_conjugate_eval(PsiGenerator.power(p), s)
                    - psi_eval(PsiGenerator.power(q), s)
                )
                closed_err = max(closed_err, err)

    lattice_err = 0.0
    for p in (1.0, 1.5, 2.0, math.inf):
        q = math.inf if p == 1.0 else (1.0 if p == math.inf else p / (p - 1.0))
        base = PsiGenerator.power(p)
        for arity, cnt in ((2, 40), (3, 15)):
            tab = PsiGenerator.tabulated(
                lambda t, _b=base: psi_eval(_b, t), arity=arity, symmetric=True
            )
            ss = rng.dirichlet(np.ones(arity), size=cnt)
            for s in ss:
                err = abs(
                    psi_conjugate_eval(tab, s, grid=400)
                    - psi_eval(PsiGenerator.power(q), s)
                )
                lattice_err = max(lattice_err, err)
    ok = bound_violations == 0 and closed_err <= 1e-12 and lattice_err <= 5e-4
    _emit(
        7,
        "generator bounds on 1e5 samples, conjugate identities closed and searched",
        ok,
        f"violations={bound_violations} closed_err={closed_err:.2e} "
        f"lattice_err={lattice_err:.2e}",
    )


def _soundness_margin(prob, solution, rng, m=10_000):
    radius = solve_bound(prob).radius
    probes = rng.uniform(-radius, radius, size=(m, prob.dim))
    return float(objective_eval_many(prob, probes).min() - objective_eval(prob, solution))


def test_08_certificate_soundness_sampling():
    rng = make_rng(800)
    worst = math.inf
    checked = 0
    for case in all_cases():
        prob = case.instance()
        cert = case.certificate()
        assert check_certificate(prob, cert, tol=1e-9).verdict
        worst = min(worst, _soundness_margin(prob, cert.solution, rng))
        checked += 1
    grounds = (GroundNorm.euclidean(), GroundNorm.power(3.0))
    gens = (PsiGenerator.power(1.5), PsiGenerator.power(2.0))
    for k in range(50):
        prob = random_instance(
            rng, ground=grounds[k % 2], gen=gens[(k // 2) % 2]
        )
        res = solve_subgradient(prob, SolverConfig(max_iters=600))
        cert = recover_certificate(prob, res.point, tol=1e-6)
        assert not isinstance(cert, Infeasible)
        assert check_certificate(prob, cert, tol=1e-5).verdict
        worst = min(worst, _soundness_margin(prob, cert.solution, rng))
        checked += 1
    ok = worst >= -1e-7
    _emit(
        8,
        "certificate soundness: 1e4 probes never beat any certified value",
        ok,
        f"certificates={checked} worst_margin={worst:.2e}",
    )


def test_09_hull_containment_and_escape():
    rng = make_rng(900)
    worst = 0.0
    for k in range(50):
        prob = random_instance(
            rng,
            ground=GroundNorm.euclidean(),
            gen=ALL_GENERATORS[k % len(ALL_GENERATORS)],
            n=int(rng.integers(2, 6)),
            d=int(rng.integers(2, 5)),
        )
        res = solve_subgradient(prob, SolverConfig(max_iters=600))
        worst = max(worst, hull_distance(prob.anchors, res.point))
    inside_ok = worst <= 1e-6

    case = _case("ft-linf-pair")
    prob = case.instance()
    desc = describe_solution_set(prob, case.certificate(), tol=1e-7)
    pts = sample_solution_region(desc, BOX2, 241, tol=1e-7)
    seg_dist = np.hypot(pts[:, 0] - np.clip(pts[:, 0], 0.0, 2.0), pts[:, 1])
    far = pts[int(np.argmax(seg_dist))]
    far_dist = hull_distance(prob.anchors, far)
    escape_ok = far_dist > 0.5 and solution_set_contains(desc, far, tol=1e-7)
    ok = inside_ok and escape_ok
    _emit(
        9,
        "euclidean solutions stay in the anchor hull; max ground escapes it",
        ok,
        f"max_hull_dist={worst:.2e} escape_point=({far[0]:.2f},{far[1]:.2f}) "
        f"escape_dist={far_dist:.2f}",
    )


def test_10_solver_matches_grid_oracle():
    t0 = time.perf_counter()
    rng = make_rng(1000)
    probs = [case.instance() for case in all_cases()]
    for k in range(50):
        probs.append(random_instance(rng, d=2, n=int(rng.integers(2, 6))))
    worst_excess = -math.inf
    for k, prob in enumerate(probs):
        res = solve_subgradient(prob, SolverConfig(max_iters=600))
        oracle = grid_oracle(prob, 601)
        worst_excess = max(
            worst_excess, abs(res.value - oracle.value) - oracle.error_bound
        )
    dt = time.perf_counter() - t0
    ok = worst_excess <= 1e-4 and dt < 120.0
    _emit(
        10,
        "solver value within h*L of the 601-point grid oracle on 61 instances",
        ok,
        f"worst_excess={worst_excess:.2e} t={dt:.1f}s",
    )


def test_11_subgradient_inequality_and_finite_differences():
    rng = make_rng(1100)
    min_slack = math.inf
    for _ in range(1000):
        prob = random_instance(rng)
        u = rng.normal(scale=2.0, size=prob.dim)
        g = objective_subgradient(prob, u)
        fu = objective_eval(prob, u)
        ws = u + rng.normal(scale=2.0, size=(100, prob.dim))
        slack = objective_eval_many(prob, ws) - fu - (ws - u) @ g
        min_slack = min(min_slack, float(slack.min()))
    slack_ok = min_slack >= -1e-9

    fd_worst = 0.0
    for k in range(20):
        prob = random_instance(
            rng,
            ground=GroundNorm.euclidean(),
            gen=PsiGenerator.power((1.5, 2.0, 3.0)[k % 3]),
        )
        while True:
            u = rng.normal(scale=2.0, size=prob.dim)
            if np.linalg.norm(prob.anchors - u, axis=1).min() > 0.3:
                break
        g = objective_subgradient(prob, u)
        for _ in range(3):
            direction = rng.normal(size=prob.dim)
            direction /= np.linalg.norm(direction)
            h = 1e-6
            fd = (
                objective_eval(prob, u + h * direction)
                - objective_eval(prob, u - h * direction)
            ) / (2.0 * h)
            gd = float(g @ direction)
            fd_worst = max(fd_worst, abs(fd - gd) / max(1.0, abs(gd)))
    fd_ok = fd_worst < 1e-5
    ok = slack_ok and fd_ok
    _emit(
        11,
        "subgradient inequality on 1e3 x 1e2 probes, finite differences agree",
        ok,
        f"min_slack={min_slack:.2e} fd_rel_err={fd_worst:.2e}",
    )
