"""Bundled worked examples with closed-form solutions and regions.

Each case packages an instance, its optimal value, one known minimizer, a
hand-checked dual certificate, and an exact membership oracle for the full
solution set.  The runner solves, recovers duals, certifies both the known
and the recovered certificates, and compares the sampled region against the
oracle point by point; it is the end-to-end consistency harness behind the
command-line `reproduce-examples` subcommand.

The `*-line-reduction` cases compress a two-anchor problem posed in a
function space: both anchors are multiples of a single unit-energy profile,
so the whole problem lives on the line they span and the coordinates are the
signed Euclidean lengths along that profile.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable

import numpy as np

from .certificates import (
    Certificate,
    Infeasible,
    check_certificate,
    recover_certificate,
)
from .errors import InvalidInputError
from .ground_norms import GroundNorm
from .problem import ProblemInstance
from .product_norms import ProductNorm
from .psi_generators import PsiGenerator
from .solution_sets import (
    describe_solution_set,
    sample_solution_region,
    sol_contains_chebyshev_via_cells,
    solution_set_contains,
)
from .solvers import solve_pattern_search, solve_subgradient

_EPS = 1e-9
_A = 1.0 / math.sqrt(3.0)


@dataclasses.dataclass(frozen=True)
class ExampleCase:
    case_id: str
    comment: str
    anchors: tuple
    ground: GroundNorm
    generator: PsiGenerator
    value: float
    solution: tuple
    duals: tuple
    region_box: tuple
    region_contains: Callable[[np.ndarray], np.ndarray]

    def instance(self) -> ProblemInstance:
        return ProblemInstance(
            anchors=np.asarray(self.anchors, dtype=float),
            norm=ProductNorm(self.ground, self.generator),
        )

    def certificate(self) -> Certificate:
        return Certificate(
            solution=np.asarray(self.solution, dtype=float),
            duals=np.asarray(self.duals, dtype=float),
        )


def _cone_pair(pts):
    u1, u2 = pts[:, 0], pts[:, 1]
    return (u1 >= np.abs(u2) - _EPS) & (2.0 - u1 >= np.abs(u2) - _EPS)


def _base_segment(pts):
    u1, u2 = pts[:, 0], pts[:, 1]
    return (np.abs(u2) <= _EPS) & (u1 >= -_EPS) & (u1 <= 2.0 + _EPS)


def _vertical_segment(pts):
    u1, u2 = pts[:, 0], pts[:, 1]
    return (np.abs(u1 - 1.0) <= _EPS) & (np.abs(u2) <= 1.0 + _EPS)


def _center_point(pts):
    return (np.abs(pts[:, 0] - 1.0) <= _EPS) & (np.abs(pts[:, 1]) <= _EPS)


def _line_segment(pts):
    return np.abs(pts[:, 0]) <= _A + _EPS


def _line_origin(pts):
    return np.abs(pts[:, 0]) <= _EPS


_PAIR = ((0.0, 0.0), (2.0, 0.0))
_PLANAR_BOX = ((-3.0, 3.0), (-3.0, 3.0))
_LINE = ((-_A,), (_A,))
_LINE_BOX = ((-2.0, 2.0),)
_HALF = 0.5
_ISQ2 = 1.0 / math.sqrt(2.0)

_CASES = (
    ExampleCase(
        case_id="ft-linf-pair",
        comment="sum of max-norm distances to two anchors; solutions fill "
        "the intersection of two diagonal cones",
        anchors=_PAIR,
        ground=GroundNorm.max(),
        generator=PsiGenerator.power(1.0),
        value=2.0,
        solution=(1.0, 0.0),
        duals=((1.0, 0.0), (-1.0, 0.0)),
        region_box=_PLANAR_BOX,
        region_contains=_cone_pair,
    ),
    ExampleCase(
        case_id="ft-l1-pair",
        comment="sum of taxicab distances; solutions fill the anchor segment",
        anchors=_PAIR,
        ground=GroundNorm.sum(),
        generator=PsiGenerator.power(1.0),
        value=2.0,
        solution=(1.0, 0.0),
        duals=((1.0, 0.0), (-1.0, 0.0)),
        region_box=_PLANAR_BOX,
        region_contains=_base_segment,
    ),
    ExampleCase(
        case_id="ft-l2-pair",
        comment="sum of Euclidean distances; solutions fill the anchor segment",
        anchors=_PAIR,
        ground=GroundNorm.euclidean(),
        generator=PsiGenerator.power(1.0),
        value=2.0,
        solution=(1.0, 0.0),
        duals=((1.0, 0.0), (-1.0, 0.0)),
        region_box=_PLANAR_BOX,
        region_contains=_base_segment,
    ),
    ExampleCase(
        case_id="ft-l3-pair",
        comment="sum of cubic-mean distances; solutions fill the anchor segment",
        anchors=_PAIR,
        ground=GroundNorm.power(3.0),
        generator=PsiGenerator.power(1.0),
        value=2.0,
        solution=(1.0, 0.0),
        duals=((1.0, 0.0), (-1.0, 0.0)),
        region_box=_PLANAR_BOX,
        region_contains=_base_segment,
    ),
    ExampleCase(
        case_id="cheb-linf-pair",
        comment="farthest max-norm distance to two anchors; solutions fill "
        "the vertical segment between the diagonal cones",
        anchors=_PAIR,
        ground=GroundNorm.max(),
        generator=PsiGenerator.power(math.inf),
        value=1.0,
        solution=(1.0, 0.0),
        duals=((_HALF, 0.0), (-_HALF, 0.0)),
        region_box=_PLANAR_BOX,
        region_contains=_vertical_segment,
    ),
    ExampleCase(
        case_id="cheb-l2-pair",
        comment="farthest Euclidean distance; the midpoint is the only solution",
        anchors=_PAIR,
        ground=GroundNorm.euclidean(),
        generator=PsiGenerator.power(math.inf),
        value=1.0,
        solution=(1.0, 0.0),
        duals=((_HALF, 0.0), (-_HALF, 0.0)),
        region_box=_PLANAR_BOX,
        region_contains=_center_point,
    ),
    ExampleCase(
        case_id="pft-linf-pair",
        comment="quadratic mean of max-norm distances; solutions fill the "
        "vertical segment",
        anchors=_PAIR,
        ground=GroundNorm.max(),
        generator=PsiGenerator.power(2.0),
        value=math.sqrt(2.0),
        solution=(1.0, 0.0),
        duals=((_ISQ2, 0.0), (-_ISQ2, 0.0)),
        region_box=_PLANAR_BOX,
        region_contains=_vertical_segment,
    ),
    ExampleCase(
        case_id="pft-l2-pair",
        comment="quadratic mean of Euclidean distances; the midpoint is the "
        "only solution",
        anchors=_PAIR,
        ground=GroundNorm.euclidean(),
        generator=PsiGenerator.power(2.0),
        value=math.sqrt(2.0),
        solution=(1.0, 0.0),
        duals=((_ISQ2, 0.0), (-_ISQ2, 0.0)),
        region_box=_PLANAR_BOX,
        region_contains=_center_point,
    ),
    ExampleCase(
        case_id="ft-line-reduction",
        comment="two function-space anchors spanning one profile, reduced to "
        "the line; sum of distances, solved by the whole segment",
        anchors=_LINE,
        ground=GroundNorm.euclidean(),
        generator=PsiGenerator.power(1.0),
        value=2.0 * _A,
        solution=(0.0,),
        duals=((1.0,), (-1.0,)),
        region_box=_LINE_BOX,
        region_contains=_line_segment,
    ),
    ExampleCase(
        case_id="cheb-line-reduction",
        comment="same reduced pair under the farthest distance; the midpoint "
        "is the only solution",
        anchors=_LINE,
        ground=GroundNorm.euclidean(),
        generator=PsiGenerator.power(math.inf),
        value=_A,
        solution=(0.0,),
        duals=((_HALF,), (-_HALF,)),
        region_box=_LINE_BOX,
        region_contains=_line_origin,
    ),
    ExampleCase(
        case_id="pft-line-reduction",
        comment="same reduced pair under the quadratic mean of distances; the "
        "midpoint is the only solution",
        anchors=_LINE,
        ground=GroundNorm.euclidean(),
        generator=PsiGenerator.power(2.0),
        value=math.sqrt(2.0 / 3.0),
        solution=(0.0,),
        duals=((_ISQ2,), (-_ISQ2,)),
        region_box=_LINE_BOX,
        region_contains=_line_origin,
    ),
)


def all_cases() -> tuple:
    return _CASES


def find_cases(only: str | None = None) -> tuple:
    """Cases whose id contains ``only`` (all cases when it is empty)."""
    if not only:
        return _CASES
    hits = tuple(c for c in _CASES if only in c.case_id)
    if not hits:
        known = ", ".join(c.case_id for c in _CASES)
        raise InvalidInputError(f"no bundled example matches {only!r}; known: {known}")
    return hits


@dataclasses.dataclass
class CaseResult:
    case_id: str
    passed: bool
    failures: tuple
    value: float
    solve_result: object
    recovered: object
    reports: dict
    region: np.ndarray
    lattice_total: int


def _route_agreement_points(pts: np.ndarray, limit: int = 400) -> np.ndarray:
    if pts.shape[0] <= limit:
        return pts
    stride = pts.shape[0] // limit + 1
    return pts[::stride]


def run_case(
    case: ExampleCase,
    grid: int = 241,
    tol: float = 1e-7,
    value_tol: float = 1e-6,
) -> CaseResult:
    """Solve, recover, certify, and sample one bundled case end to end."""
    failures = []
    prob = case.instance()
    if prob.norm.generator.kind == "p":
        res = solve_subgradient(prob)
    else:
        res = solve_pattern_search(prob)
    if abs(res.value - case.value) > value_tol:
        failures.append(
            f"solver value {res.value!r} misses known value {case.value!r}"
        )
    reports = {}
    recovered = recover_certificate(prob, res.point, tol=tol)
    if isinstance(recovered, Infeasible):
        failures.append(f"dual recovery infeasible: {recovered.reason}")
    else:
        rep = check_certificate(prob, recovered, tol=tol)
        reports["recovered"] = rep
        if not rep.verdict:
            name, value = rep.worst
            failures.append(f"recovered certificate fails: {name}={value:.3e}")
    known = case.certificate()
    rep_known = check_certificate(prob, known, tol=min(tol, 1e-9))
    reports["known"] = rep_known
    if not rep_known.verdict:
        name, value = rep_known.worst
        failures.append(f"known certificate fails: {name}={value:.3e}")
    desc = describe_solution_set(prob, known, tol=tol)
    box = np.asarray(case.region_box, dtype=float)
    region = sample_solution_region(desc, box, grid, tol=tol)
    axes = [np.linspace(lo, hi, grid) for lo, hi in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    lattice = np.stack(mesh, axis=-1).reshape(-1, prob.dim)
    oracle_mask = case.region_contains(lattice)
    # Each region row should be a lattice point, in lattice order: locate it
    # axis by axis and compare it with the lattice row at that index.
    idx = np.ravel_multi_index(
        [np.searchsorted(ax, region[:, k]).clip(0, grid - 1) for k, ax in enumerate(axes)],
        (grid,) * prob.dim,
    )
    on_lattice = (lattice[idx] == region).all(axis=1)
    member_mask = np.zeros(lattice.shape[0], dtype=bool)
    member_mask[idx[on_lattice]] = True
    if not (on_lattice.all() and np.all(np.diff(idx) > 0)):
        failures.append("sampled region points do not align with the lattice")
    mism = int((member_mask != oracle_mask).sum())
    if mism:
        failures.append(f"{mism} lattice points disagree with the closed-form region")
    if prob.norm.generator.p == math.inf:
        probe = _route_agreement_points(lattice)
        for u in probe:
            via_cells = sol_contains_chebyshev_via_cells(desc, u, tol)
            direct = solution_set_contains(desc, u, tol)
            if via_cells != direct:
                failures.append(
                    f"farthest-cell route disagrees with the pairing route at {u.tolist()}"
                )
                break
    return CaseResult(
        case_id=case.case_id,
        passed=not failures,
        failures=tuple(failures),
        value=res.value,
        solve_result=res,
        recovered=recovered,
        reports=reports,
        region=region,
        lattice_total=lattice.shape[0],
    )
