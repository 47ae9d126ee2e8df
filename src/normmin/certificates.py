"""Dual optimality certificates: verification and recovery.

A certificate pairs a candidate solution with one dual block per anchor.
Checkers score it against the optimality conditions for the claimed norm
family and return named residuals; recovery reconstructs dual blocks at a
given point, or reports that none exist, which certifies the point is not
optimal at the requested tolerance.

Recovery is one routine for the three theorems.  Block ``i`` lies in ``c_i``
times the ground subdifferential at its displacement, and a cap table read
off the generator gives the bounds on the caps ``c_i``, the blocks that must
pair with their displacements and the caps' total.  When the ground norm has
a unique unit-pairing dual vector (Euclidean and power kinds) the blocks are
the capped ground gradients; under the max generator the caps are the convex
weights of Wolfe's minimum-norm point of the gradients' hull.  On the
polyhedral grounds it solves one elastic feasibility linear program: each
block is split into nonnegative parts inside a dual ball whose radius is a
variable bounded by the cap table.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import (
    InvalidInputError,
    RecoveryError,
    UnsupportedGeneratorError,
)
from .ground_norms import (
    DEFAULT_TOL,
    as_vector,
    dual_ground_norm,
    ground_norm_eval,
    ground_norm_eval_many,
)
from .geometry import _min_norm_weights
from .problem import (
    ProblemInstance,
    _ground_subgradient,
    displacements,
    objective_eval,
)
from .product_norms import as_product_vector
from .psi_generators import conjugate_exponent, dual_norm_from_block_norms

RECOVERY_TOL = 1e-7

GENERAL = "general"
FERMAT_TORRICELLI = "fermat_torricelli"
CHEBYSHEV = "chebyshev"
P_FERMAT = "p_fermat"


@dataclasses.dataclass(frozen=True)
class Certificate:
    """Candidate solution plus one dual block per anchor."""

    solution: np.ndarray
    duals: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "solution", as_vector(self.solution, "solution"))
        object.__setattr__(self, "duals", as_product_vector(self.duals, "duals"))
        if self.duals.shape[1] != self.solution.size:
            raise InvalidInputError(
                "dual blocks and solution live in different spaces"
            )


@dataclasses.dataclass
class CertificateReport:
    """Named residuals (already scale-normalized) and the resulting verdict."""

    theorem: str
    verdict: bool
    residuals: dict
    tol: float
    warnings: list

    @property
    def worst(self) -> tuple[str, float]:
        name = max(self.residuals, key=lambda k: self.residuals[k])
        return name, self.residuals[name]

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "verdict": self.verdict,
            "residuals": dict(self.residuals),
            "tol": self.tol,
            "warnings": list(self.warnings),
        }


@dataclasses.dataclass(frozen=True)
class Infeasible:
    """Recovery outcome certifying no dual blocks exist at the tolerance."""

    theorem: str
    reason: str
    residual: float


def _cert_arrays(prob: ProblemInstance, cert: Certificate):
    if cert.duals.shape != prob.anchors.shape:
        raise InvalidInputError(
            f"certificate blocks {cert.duals.shape} do not match anchors "
            f"{prob.anchors.shape}"
        )
    if cert.solution.size != prob.dim:
        raise InvalidInputError("certificate solution dimension mismatch")
    diffs = displacements(prob, cert.solution)
    r = ground_norm_eval_many(prob.norm.ground, diffs)
    rstar = ground_norm_eval_many(dual_ground_norm(prob.norm.ground), cert.duals)
    return diffs, r, rstar


def _report(theorem: str, residuals: dict, tol: float, warnings=None) -> CertificateReport:
    verdict = all(v <= tol for v in residuals.values())
    return CertificateReport(
        theorem=theorem,
        verdict=verdict,
        residuals=residuals,
        tol=tol,
        warnings=list(warnings or []),
    )


def check_general(
    prob: ProblemInstance, cert: Certificate, tol: float = DEFAULT_TOL, grid: int = 200
) -> CertificateReport:
    """Score the generator-independent optimality conditions.

    Dual blocks must sum to zero, have unit dual product norm, and pair with
    the anchor displacements to the objective value.  Works for every
    generator; tabulated generators price the dual norm with the search of
    ``psi_conjugate_eval`` (start lattice capped by ``grid``), which can stop
    short at a kink of the generator, so choose ``tol`` accordingly for them.
    """
    diffs, r, rstar = _cert_arrays(prob, cert)
    f = objective_eval(prob, cert.solution)
    dual_sum = ground_norm_eval(dual_ground_norm(prob.norm.ground), cert.duals.sum(axis=0))
    dual_scale = max(1.0, float(rstar.max()))
    dual_norm = float(dual_norm_from_block_norms(prob.norm.generator, rstar, grid=grid))
    paired = float(np.sum(cert.duals * diffs))
    residuals = {
        "dual_sum": dual_sum / dual_scale,
        "normalization": abs(dual_norm - 1.0),
        "pairing": abs(paired - f) / f,
    }
    return _report(GENERAL, residuals, tol)


def _require_power(prob: ProblemInstance, value: float, theorem: str) -> None:
    gen = prob.norm.generator
    if gen.kind != "p" or gen.p != value:
        raise UnsupportedGeneratorError(
            f"{theorem} conditions require the power generator with exponent "
            f"{value}, got {gen.kind}"
            + (f"({gen.p})" if gen.kind == "p" else "")
        )


def check_fermat_torricelli(
    prob: ProblemInstance, cert: Certificate, tol: float = DEFAULT_TOL
) -> CertificateReport:
    """Optimality conditions for the constant generator (sum of block norms).

    Dual blocks sum to zero, the largest dual norm is one, each block pairs
    with its displacement to the displacement's norm, and blocks of dual norm
    below one only occur where the displacement vanishes.
    """
    _require_power(prob, 1.0, FERMAT_TORRICELLI)
    diffs, r, rstar = _cert_arrays(prob, cert)
    dual_sum = ground_norm_eval(dual_ground_norm(prob.norm.ground), cert.duals.sum(axis=0))
    paired = np.sum(cert.duals * diffs, axis=1)
    scale = float(r.max())
    residuals = {
        "dual_sum": dual_sum / max(1.0, float(rstar.max())),
        "max_dual_norm": abs(float(rstar.max()) - 1.0),
        "alignment": float(np.abs(paired - r).max()) / scale,
        "complementarity": float((np.abs(rstar - 1.0) * r).max()) / scale,
    }
    return _report(FERMAT_TORRICELLI, residuals, tol)


def check_chebyshev(
    prob: ProblemInstance, cert: Certificate, tol: float = DEFAULT_TOL
) -> CertificateReport:
    """Optimality conditions for the max generator (largest block norm).

    Dual norms sum to one, every block with a nonzero dual is aligned with
    its displacement, and nonzero duals only sit on blocks whose displacement
    norm attains the maximum.  Fewer than two nonzero duals is geometrically
    impossible at a true optimum and is reported as a warning.
    """
    _require_power(prob, math.inf, CHEBYSHEV)
    diffs, r, rstar = _cert_arrays(prob, cert)
    m = float(r.max())
    dual_sum = ground_norm_eval(dual_ground_norm(prob.norm.ground), cert.duals.sum(axis=0))
    paired = np.sum(cert.duals * diffs, axis=1)
    residuals = {
        "dual_sum": dual_sum / max(1.0, float(rstar.max())),
        "dual_norm_total": abs(float(rstar.sum()) - 1.0),
        "alignment": float(np.abs(paired - rstar * r).max()) / m,
        "complementarity": float(((m - r) * rstar).max()) / m,
    }
    warnings = []
    nonzero = int(np.sum(rstar > tol))
    if nonzero < 2:
        warnings.append(
            f"only {nonzero} nonzero dual block(s); an optimum needs at least 2"
        )
    return _report(CHEBYSHEV, residuals, tol, warnings)


def _power_profile(r: np.ndarray, p: float) -> np.ndarray:
    """Block norms to the power ``p``, normalized to sum to one along the last axis.

    The norms are scaled by their maximum first, so the powers cannot all
    underflow to zero.
    """
    peak = r.max(axis=-1, keepdims=True)
    safe = np.where(peak > 0.0, peak, 1.0)
    w = (r / safe) ** p
    return w / w.sum(axis=-1, keepdims=True)


def check_p_fermat(
    prob: ProblemInstance, cert: Certificate, tol: float = DEFAULT_TOL
) -> CertificateReport:
    """Optimality conditions for finite power generators above exponent one.

    Dual norms raised to the conjugate exponent sum to one and follow the
    profile of the displacement norms raised to the exponent; every block is
    aligned with its displacement.
    """
    gen = prob.norm.generator
    if gen.kind != "p" or gen.p == 1.0 or gen.p == math.inf:
        raise UnsupportedGeneratorError(
            "power-profile conditions require a finite power generator above 1"
        )
    p = gen.p
    q = conjugate_exponent(p)
    diffs, r, rstar = _cert_arrays(prob, cert)
    dual_sum = ground_norm_eval(dual_ground_norm(prob.norm.ground), cert.duals.sum(axis=0))
    paired = np.sum(cert.duals * diffs, axis=1)
    powers = rstar**q
    residuals = {
        "dual_sum": dual_sum / max(1.0, float(rstar.max())),
        "dual_power_total": abs(float(powers.sum()) - 1.0),
        "alignment": float(np.abs(paired - rstar * r).max()) / float(r.max()),
        "proportionality": float(np.abs(powers - _power_profile(r, p)).max()),
    }
    return _report(P_FERMAT, residuals, tol)


def matching_theorem(prob: ProblemInstance) -> str:
    """The specialized condition set for this instance's generator."""
    gen = prob.norm.generator
    if gen.kind != "p":
        return GENERAL
    if gen.p == 1.0:
        return FERMAT_TORRICELLI
    if gen.p == math.inf:
        return CHEBYSHEV
    return P_FERMAT


def check_certificate(
    prob: ProblemInstance,
    cert: Certificate,
    tol: float = DEFAULT_TOL,
    theorem: str = "auto",
    grid: int = 200,
) -> CertificateReport:
    """Dispatch to a checker by name, or to the generator's specialized one."""
    if theorem == "auto":
        theorem = matching_theorem(prob)
    if theorem == GENERAL:
        return check_general(prob, cert, tol, grid=grid)
    if theorem == FERMAT_TORRICELLI:
        return check_fermat_torricelli(prob, cert, tol)
    if theorem == CHEBYSHEV:
        return check_chebyshev(prob, cert, tol)
    if theorem == P_FERMAT:
        return check_p_fermat(prob, cert, tol)
    raise InvalidInputError(f"unknown theorem name {theorem!r}")


# ---------------------------------------------------------------------------
# Recovery.
# ---------------------------------------------------------------------------


def _polyhedral_duals(prob, diffs, r, cap_lo, cap_hi, paired, tol, total=None):
    """Dual blocks inside polyhedral dual balls of bounded radius, by one elastic LP.

    The blocks are ``W = P - N`` with ``P, N >= 0``, and block ``i`` lies in
    the dual ball of radius ``c_i``, a variable bounded by ``[cap_lo_i,
    cap_hi_i]`` (a zero upper cap pins the block to zero).  Equality rows ask
    that the blocks sum to zero, that ``<W_i, diffs_i> = r_i c_i`` where
    ``paired`` holds, and that the caps sum to ``total`` when it is given.
    Each equality row gets two nonnegative slacks whose sum is the cost.
    HiGHS's primal and dual feasibility tolerances are ``1e-3 * tol`` (at
    least 1e-10), well inside the recovery tolerance ``tol``, so a point that
    meets the conditions at ``tol`` is not lost to the solver's own slack.
    Returns the blocks and the total violation.

    The columns are ``P`` and ``N`` (entry ``j`` of block ``i`` in column
    ``i d + j`` of each), the caps, then the slacks.  Both constraint
    matrices are built as COO from index arrays, the form ``linprog`` turns
    sparse input into before stacking it, with no stored zeros, so HiGHS
    gets the same matrix as from their dense forms.
    """
    from scipy import sparse
    from scipy.optimize import linprog

    n, d = diffs.shape
    nd, cells = n * d, np.arange(n * d)
    blk, caps = cells // d, 2 * nd + np.arange(n)
    nvar, ne = 2 * nd + n, d + int(paired.sum()) + (total is not None)

    def matrix(rows, entries):
        ri = np.concatenate([e[0] for e in entries])
        ci = np.concatenate([e[1] for e in entries])
        vals = np.concatenate([np.broadcast_to(e[2], e[1].shape) for e in entries])
        keep = vals != 0.0
        return sparse.coo_array((vals[keep], (ri[keep], ci[keep])), shape=(rows, nvar + 2 * ne))

    pn = np.column_stack([np.zeros(nd), np.repeat(np.where(cap_hi > 0.0, np.inf, 0.0), d)])
    bounds = np.vstack([pn, pn, np.column_stack([cap_lo, cap_hi])])
    if prob.norm.ground.kind == "max":
        # Dual of the max ground is the sum norm: sum_j (P + N)_ij <= c_i.
        a_ub = matrix(n, [(blk, cells, 1.0), (blk, nd + cells, 1.0), (np.arange(n), caps, -1.0)])
    else:
        # Dual of the sum ground is the max norm: (P + N)_ij <= c_i.
        a_ub = matrix(nd, [(cells, cells, 1.0), (cells, nd + cells, 1.0), (cells, caps[blk], -1.0)])
    # Row j balances coordinate j, row d + k pairs the k-th paired block, and
    # the last row sums the caps when a total is given.
    row, on, slack = d - 1 + np.cumsum(paired), cells[paired[blk]], np.arange(ne)
    eq = [
        (cells % d, cells, 1.0),
        (cells % d, nd + cells, -1.0),
        (row[blk[on]], on, diffs.ravel()[on]),
        (row[blk[on]], nd + on, -diffs.ravel()[on]),
        (row[paired], caps[paired], -r[paired]),
        (slack, nvar + 2 * slack, 1.0),
        (slack, nvar + 2 * slack + 1, -1.0),
    ]
    b_eq = np.zeros(ne)
    if total is not None:
        eq.append((np.full(n, ne - 1), caps, 1.0))
        b_eq[-1] = total
    lp_tol = max(1e-10, 1e-3 * tol)
    res = linprog(
        np.concatenate([np.zeros(nvar), np.ones(2 * ne)]),
        A_ub=a_ub,
        b_ub=np.zeros(a_ub.shape[0]),
        A_eq=matrix(ne, eq),
        b_eq=b_eq,
        bounds=np.vstack([bounds, np.tile([0.0, np.inf], (2 * ne, 1))]),
        method="highs",
        options={
            "primal_feasibility_tolerance": lp_tol,
            "dual_feasibility_tolerance": lp_tol,
        },
    )
    if res.status != 0:
        raise RecoveryError(f"feasibility subproblem failed: {res.message}")
    return (res.x[:nd] - res.x[nd : 2 * nd]).reshape(n, d), float(res.fun)


def recover_certificate(
    prob: ProblemInstance, u, tol: float = RECOVERY_TOL
) -> Certificate | Infeasible:
    """Reconstruct dual blocks at ``u`` or certify that none exist.

    Every theorem asks for block ``i`` to lie in ``c_i`` times the ground
    subdifferential at its displacement; only the caps ``c_i`` differ.  The
    sum generator fixes them at one, the power generators at the power
    profile, and the max generator leaves them free on the farthest blocks,
    summing to one.  Blocks whose displacement vanishes at ``tol`` relative
    to the largest are not paired with it.

    The returned certificate always passes the generator's specialized
    checker at ``tol``; an :class:`Infeasible` result means ``u`` is not
    optimal at that tolerance.  The default tolerance is looser than the
    checking default because recovery stacks solver error on top of
    arithmetic error.
    """
    u = as_vector(u, "u")
    theorem = matching_theorem(prob)
    if theorem == GENERAL:
        raise UnsupportedGeneratorError("recovery requires a power generator")
    diffs = displacements(prob, u)
    r = ground_norm_eval_many(prob.norm.ground, diffs)
    m = float(r.max())
    ztol = tol * m
    # The cap table: cap bounds, the paired blocks and the caps' total.
    total = None
    if theorem == FERMAT_TORRICELLI:
        cap_lo = cap_hi = np.ones(prob.n)
        paired = r > ztol
    elif theorem == CHEBYSHEV:
        paired = r >= m - ztol
        cap_lo, cap_hi, total = np.zeros(prob.n), np.where(paired, np.inf, 0.0), 1.0
    else:
        p = prob.norm.generator.p
        profile = _power_profile(r, p) ** (1.0 / conjugate_exponent(p))
        cap_lo = cap_hi = np.where(r > ztol, profile, 0.0)
        paired = cap_hi > 0.0
    if prob.norm.ground.kind in ("sum", "max"):
        duals, violation = _polyhedral_duals(prob, diffs, r, cap_lo, cap_hi, paired, tol, total)
        if violation > tol * max(1.0, float(r.sum())):
            return Infeasible(theorem, "no feasible dual blocks", violation)
    else:
        # Smooth grounds: each paired block is its cap times the ground
        # gradient; free caps are the convex weights of the gradients'
        # minimum-norm point.
        grads = _ground_subgradient(prob.norm.ground, diffs)
        caps = cap_hi
        if total is not None:
            idx = np.flatnonzero(paired)
            sel, weights = _min_norm_weights(grads[idx])
            caps = np.zeros(prob.n)
            caps[idx[sel]] = weights
            violation = float(np.linalg.norm(weights @ grads[idx[sel]]))
            if violation > tol * max(1.0, m):
                return Infeasible(theorem, "no convex weights balance the gradients", violation)
        duals = np.where(paired[:, None], caps[:, None] * grads, 0.0)
        # An unpaired block with a positive cap sits on its anchor and takes
        # minus the others' sum.
        near = np.flatnonzero(~paired & (caps > 0.0))
        if near.size > 1:
            return Infeasible(theorem, "point is near several anchors at once", float(near.size))
        if near.size == 1:
            k = int(near[0])
            duals[k] = -duals.sum(axis=0)
            excess = ground_norm_eval(dual_ground_norm(prob.norm.ground), duals[k]) - caps[k]
            if excess > 10.0 * tol:
                return Infeasible(
                    theorem, "anchor-coincident block would need dual norm above one", excess
                )
    cert = Certificate(solution=u, duals=duals)
    report = check_certificate(prob, cert, tol=tol)
    if report.verdict:
        return cert
    name, value = report.worst
    return Infeasible(
        report.theorem,
        f"reconstructed blocks fail the {name} condition",
        value,
    )
