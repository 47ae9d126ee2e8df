"""Dual optimality certificates: verification and recovery.

A certificate pairs a candidate solution with one dual block per anchor.
Checkers score it against the optimality conditions for the claimed norm
family and return named residuals; recovery reconstructs dual blocks at a
given point, or reports that none exist, which certifies the point is not
optimal at the requested tolerance.

Recovery uses closed forms when the ground norm has a unique unit-pairing
dual vector (Euclidean and power kinds).  On the polyhedral grounds it solves
one elastic feasibility linear program whose matrices are built from whole
arrays: each block is split into nonnegative parts inside a dual ball whose
radius is a bounded variable, and the three theorems differ only in the
radius bounds, the blocks whose pairing is required and the radius total.
The Chebyshev conditions on smooth grounds use the same elastic program for
convex weights that balance the block gradients.
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
from .problem import (
    ProblemInstance,
    _block_maps,
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
        "pairing": abs(paired - f) / max(1.0, f),
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
    scale = max(1.0, float(r.max()))
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
    scale = max(1.0, m)
    dual_sum = ground_norm_eval(dual_ground_norm(prob.norm.ground), cert.duals.sum(axis=0))
    paired = np.sum(cert.duals * diffs, axis=1)
    residuals = {
        "dual_sum": dual_sum / max(1.0, float(rstar.max())),
        "dual_norm_total": abs(float(rstar.sum()) - 1.0),
        "alignment": float(np.abs(paired - rstar * r).max()) / scale,
        "complementarity": float(((m - r) * rstar).max()) / scale,
    }
    warnings = []
    nonzero = int(np.sum(rstar > tol))
    if nonzero < 2:
        warnings.append(
            f"only {nonzero} nonzero dual block(s); an optimum needs at least 2"
        )
    return _report(CHEBYSHEV, residuals, tol, warnings)


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
    scale = max(1.0, float(r.max()))
    powers = rstar**q
    profile = r**p
    total = profile.sum()
    target = profile / total if total > 0.0 else np.zeros_like(profile)
    residuals = {
        "dual_sum": dual_sum / max(1.0, float(rstar.max())),
        "dual_power_total": abs(float(powers.sum()) - 1.0),
        "alignment": float(np.abs(paired - rstar * r).max()) / scale,
        "proportionality": float(np.abs(powers - target).max()),
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


def _elastic_lp(bounds, a_eq, b_eq, tol, a_ub=None, b_ub=None) -> tuple[np.ndarray, float]:
    """Minimize the total violation of ``a_eq x = b_eq`` over the other constraints.

    Each equality row gets two nonnegative slacks whose sum is the cost; the
    variables keep ``bounds`` (one (low, high) row each) and ``a_ub x <= b_ub``.
    HiGHS's primal and dual feasibility tolerances are ``1e-3 * tol`` (at
    least 1e-10), well inside the recovery tolerance ``tol``, so a point
    that meets the conditions at ``tol`` is not lost to the solver's own
    slack.  Returns the variables and the total violation.
    """
    from scipy.optimize import linprog

    ne, nvar = a_eq.shape
    lp_tol = max(1e-10, 1e-3 * tol)
    slacks = np.kron(np.eye(ne), [1.0, -1.0])
    res = linprog(
        np.concatenate([np.zeros(nvar), np.ones(2 * ne)]),
        A_ub=None if a_ub is None else np.hstack([a_ub, np.zeros((a_ub.shape[0], 2 * ne))]),
        b_ub=b_ub,
        A_eq=np.hstack([a_eq, slacks]),
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
    return res.x[:nvar], float(res.fun)


def _polyhedral_duals(prob, diffs, r, cap_lo, cap_hi, paired, tol, total=None):
    """Dual blocks inside polyhedral dual balls of bounded radius.

    The blocks are ``W = P - N`` with ``P, N >= 0``, and block ``i`` lies in
    the dual ball of radius ``c_i``, a variable bounded by ``[cap_lo_i,
    cap_hi_i]`` (a zero upper cap pins the block to zero).  Elastic rows ask
    that the blocks sum to zero, that ``<W_i, diffs_i> = r_i c_i`` where
    ``paired`` holds, and that the caps sum to ``total`` when it is given.
    ``tol`` is the recovery tolerance.  Returns the blocks and the total
    violation.
    """
    n, d = diffs.shape
    nd = n * d
    cap_lo = np.broadcast_to(cap_lo, (n,))
    cap_hi = np.broadcast_to(cap_hi, (n,))
    pn = np.column_stack([np.zeros(nd), np.repeat(np.where(cap_hi > 0.0, np.inf, 0.0), d)])
    bounds = np.vstack([pn, pn, np.column_stack([cap_lo, cap_hi])])
    stack, blocks = (m.toarray() for m in _block_maps(n, d))
    if prob.norm.ground.kind == "max":
        # Dual of the max ground is the sum norm: sum_j (P + N)_ij <= c_i.
        a_ub = np.hstack([blocks, blocks, -np.eye(n)])
    else:
        # Dual of the sum ground is the max norm: (P + N)_ij <= c_i.
        a_ub = np.hstack([np.eye(nd), np.eye(nd), -blocks.T])
    a_w = np.vstack([stack.T, (blocks * diffs.ravel())[paired]])
    a_c = np.vstack([np.zeros((d, n)), -np.diag(r)[paired]])
    a_eq = np.hstack([a_w, -a_w, a_c])
    b_eq = np.zeros(a_eq.shape[0])
    if total is not None:
        a_eq = np.vstack([a_eq, np.concatenate([np.zeros(2 * nd), np.ones(n)])])
        b_eq = np.append(b_eq, total)
    x, violation = _elastic_lp(bounds, a_eq, b_eq, tol, a_ub, np.zeros(a_ub.shape[0]))
    return (x[:nd] - x[nd : 2 * nd]).reshape(n, d), violation


def _recover_ft(prob, diffs, r, tol):
    scale = max(1.0, float(r.max()))
    ztol = tol * scale
    if prob.norm.ground.kind in ("euclidean", "p"):
        grads = _ground_subgradient(prob.norm.ground, diffs)
        near = np.flatnonzero(r <= ztol)
        if near.size == 0:
            duals = grads
        elif near.size == 1:
            k = int(near[0])
            duals = grads.copy()
            duals[k] = -np.delete(grads, k, axis=0).sum(axis=0)
            cap = ground_norm_eval(dual_ground_norm(prob.norm.ground), duals[k])
            if cap > 1.0 + 10.0 * tol:
                return Infeasible(
                    FERMAT_TORRICELLI,
                    "anchor-coincident block would need dual norm above one",
                    cap - 1.0,
                )
        else:
            return Infeasible(
                FERMAT_TORRICELLI, "point is near several anchors at once", float(near.size)
            )
        return duals
    duals, violation = _polyhedral_duals(prob, diffs, r, 1.0, 1.0, r > ztol, tol)
    if violation > tol * max(1.0, float(r.sum())):
        return Infeasible(FERMAT_TORRICELLI, "no feasible dual blocks", violation)
    return duals


def _recover_cheb(prob, diffs, r, tol):
    m = float(r.max())
    atol = tol * max(1.0, m)
    active = r >= m - atol
    if prob.norm.ground.kind in ("euclidean", "p"):
        grads = _ground_subgradient(prob.norm.ground, diffs)
        bounds = np.column_stack([np.zeros(prob.n), np.where(active, np.inf, 0.0)])
        a_eq = np.vstack([grads.T, np.ones((1, prob.n))])
        b_eq = np.append(np.zeros(prob.dim), 1.0)
        x, violation = _elastic_lp(bounds, a_eq, b_eq, tol)
        if violation > tol * max(1.0, m):
            return Infeasible(CHEBYSHEV, "no convex weights balance the gradients", violation)
        return x[:, None] * grads
    duals, violation = _polyhedral_duals(
        prob, diffs, r, 0.0, np.where(active, np.inf, 0.0), active, tol, total=1.0
    )
    if violation > tol * max(1.0, float(r.sum())):
        return Infeasible(CHEBYSHEV, "no feasible dual blocks", violation)
    return duals


def _recover_pft(prob, diffs, r, tol):
    p = prob.norm.generator.p
    q = conjugate_exponent(p)
    total = float((r**p).sum())
    if total <= 0.0:
        return Infeasible(P_FERMAT, "all displacements vanish", 0.0)
    caps = (r**p / total) ** (1.0 / q)
    if prob.norm.ground.kind in ("euclidean", "p"):
        return caps[:, None] * _ground_subgradient(prob.norm.ground, diffs)
    scale = max(1.0, float(r.max()))
    caps = np.where(r > tol * scale, caps, 0.0)
    duals, violation = _polyhedral_duals(prob, diffs, r, caps, caps, caps > 0.0, tol)
    if violation > tol * max(1.0, float(r.sum())):
        return Infeasible(P_FERMAT, "no feasible dual blocks", violation)
    return duals


def recover_certificate(
    prob: ProblemInstance, u, tol: float = RECOVERY_TOL
) -> Certificate | Infeasible:
    """Reconstruct dual blocks at ``u`` or certify that none exist.

    The returned certificate always passes the generator's specialized
    checker at ``tol``; an :class:`Infeasible` result means ``u`` is not
    optimal at that tolerance.  The default tolerance is looser than the
    checking default because recovery stacks solver error on top of
    arithmetic error.
    """
    u = as_vector(u, "u")
    gen = prob.norm.generator
    if gen.kind != "p":
        raise UnsupportedGeneratorError("recovery requires a power generator")
    diffs = displacements(prob, u)
    r = ground_norm_eval_many(prob.norm.ground, diffs)
    if gen.p == 1.0:
        out = _recover_ft(prob, diffs, r, tol)
    elif gen.p == math.inf:
        out = _recover_cheb(prob, diffs, r, tol)
    else:
        out = _recover_pft(prob, diffs, r, tol)
    if isinstance(out, Infeasible):
        return out
    cert = Certificate(solution=u, duals=out)
    report = check_certificate(prob, cert, tol=tol)
    if report.verdict:
        return cert
    name, value = report.worst
    return Infeasible(
        report.theorem,
        f"reconstructed blocks fail the {name} condition",
        value,
    )
