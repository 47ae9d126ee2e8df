"""Dual optimality certificates: verification and recovery.

A certificate pairs a candidate solution with one dual block per anchor.
Checkers score it against the optimality conditions for the claimed norm
family and return named residuals; recovery reconstructs dual blocks at a
given point, or reports that none exist, which certifies the point is not
optimal at the requested tolerance.

Recovery is one routine for the three theorems.  Block ``i`` lies in ``c_i``
times the ground subdifferential at its displacement, and a cap table read
off the generator gives the bounds on the caps ``c_i`` and the blocks that
must pair with their displacements.  When the ground norm has a unique
unit-pairing dual vector (Euclidean and power kinds) the blocks are the
capped ground gradients; under the max generator the caps are the convex
weights of Wolfe's minimum-norm point of the gradients' hull.  On the
polyhedral grounds each block is its cap times a point of its alignment
face, the part of the dual ball that pairs with the displacement: Wolfe's
method, driven by each face's linear oracle, finds the blocks whose sum has
least norm.  Recovery solves no linear program.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import InvalidInputError, UnsupportedGeneratorError
from .ground_norms import (
    DEFAULT_TOL,
    as_vector,
    dual_ground_norm,
    ground_norm_eval,
    ground_norm_eval_many,
)
from .geometry import _min_norm_rows, _min_norm_weights
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


def _cheapest(g, cost, budget, edges):
    """Row by row, weights of the least-``g`` point of a cut simplex.

    The simplex is over the columns and the cut is ``w . cost <= budget``,
    with a column of budgets, one per row, or one budget for all.  Its
    vertices are the columns within budget and, when ``edges`` is set, the
    points on the edges between a column within budget and one beyond it
    where the cut is tight; without ``edges`` only the columns within budget
    are candidates.  Columns of infinite cost never enter.
    """
    budget = np.broadcast_to(budget, (g.shape[0], 1))
    within = cost <= budget
    single = np.where(within, g, np.inf)
    best = single.argmin(axis=1)
    w = np.zeros(g.shape)
    w[np.arange(g.shape[0]), best] = 1.0
    if not edges:
        return w
    # One row of edge values per column within budget, over every column of
    # its row; only the columns beyond budget count.
    row, a = np.nonzero(within)
    ga, ca = g[row, a, None], cost[row, a, None]
    beyond = (cost[row] > budget[row]) & np.isfinite(cost[row])
    mu = np.divide(budget[row] - ca, cost[row] - ca, out=np.zeros(beyond.shape), where=beyond)
    val = np.where(beyond, ga + mu * (g[row] - ga), np.inf)
    b = val.argmin(axis=1)
    low = val[np.arange(row.size), b]
    least = np.full(g.shape[0], np.inf)
    np.minimum.at(least, row, low)
    # The first edge of least value in each row that beats its best column.
    hit = np.flatnonzero((low == least[row]) & (least < single.min(axis=1))[row])
    i, first = np.unique(row[hit], return_index=True)
    k = hit[first]
    w[i, best[i]] = 0.0
    w[i, a[k]], w[i, b[k]] = 1.0 - mu[k, b[k]], mu[k, b[k]]
    return w


def _bend(v, y, x, bendable, budget):
    """Rows of ``v`` moved off their signs towards least ``v . y``, within budget.

    A bendable coordinate of ``v`` sits at ``sign(x_ij)`` and may move by up
    to 2 towards ``-sign(x_ij)`` at a cost of ``|x_ij|`` per unit.  Each row
    spends at most its budget, on the coordinates with the most gain in
    ``v . y`` per unit of cost first: a fractional knapsack.
    """
    ax = np.abs(x)
    gain = np.where(bendable & (v * y > 0.0), np.abs(y), 0.0)
    ratio = np.divide(gain, ax, out=np.zeros_like(gain), where=gain > 0.0)
    order = np.argsort(-ratio, axis=1, kind="stable")
    unit = np.take_along_axis(np.where(gain > 0.0, ax, 0.0), order, axis=1)
    spent = np.cumsum(2.0 * unit, axis=1) - 2.0 * unit
    step = np.divide(budget - spent, unit, out=np.zeros_like(unit), where=unit > 0.0)
    dev = np.zeros_like(v)
    np.put_along_axis(dev, order, np.clip(step, 0.0, 2.0), axis=1)
    return v - np.sign(v) * dev


def _face_duals(kind, diffs, r, ztol, caps, paired, push=None):
    """Dual blocks on the alignment faces whose sum has least norm, by Wolfe's method.

    Block ``i`` is its cap ``c_i`` times a point of its face, the part of
    the unit dual ball that pairs with the displacement ``x_i`` to ``r_i``.
    On the sum ground the face fixes ``W_ij = sign(x_ij)`` where ``|x_ij| >
    ztol`` and leaves the other coordinates free in ``[-1, 1]``; on the max
    ground it is the hull of ``sign(x_ij) e_j`` over the coordinates within
    ``ztol`` of the row's maximum.  A block whose displacement is within
    ``ztol`` of zero gets its whole dual ball.  With fixed ``caps`` (the sum
    and finite power generators) the blocks of positive cap are in play, and
    the oracle returns each block's best face vertex times its cap, so the
    candidate sums fill the Minkowski sum of the scaled faces.  With
    ``caps`` None (the max generator) the ``paired`` blocks are in play, and
    the oracle returns the single best vertex over their faces, so the
    candidate sums fill the hull of the faces' union and the convex weights
    are the caps.

    ``push``, the imbalance a pass on these faces left, widens them towards
    what the checker accepts: a block may pair short of ``c_i r_i`` by
    ``ztol`` less a thousandth for rounding, so its face may fall short by
    ``ztol / c_i`` (one cap under the max generator).  On the sum ground a
    fixed coordinate may move off its sign at a cost of ``|x_ij|`` per unit,
    except the block's largest, which keeps the block's dual norm at one.
    On the max ground a coordinate short of the row's maximum by ``delta``
    may carry weight ``w`` at a cost of ``w * delta``, summed over the block
    (under the max generator, over all the farthest blocks); off the tie
    only the sign that pushes ``push`` back is allowed, whatever the sign of
    ``x_ij``.  Returns the ``(n, d)`` blocks; their sum is the least-norm
    point of the candidate sums.
    """
    n, d = diffs.shape
    chebyshev = caps is None
    idx = np.flatnonzero(paired if chebyshev else caps > 0.0)
    x, rx = diffs[idx], r[idx]
    cap = 1.0 if chebyshev else caps[idx, None]
    budget = ztol if push is None else ztol * (1.0 - 1e-3) / cap
    if kind == "sum":
        sign = np.sign(x)
        fixed = np.abs(x) > ztol
        lo, hi = np.where(fixed, sign, -1.0), np.where(fixed, sign, 1.0)
        bendable = fixed.copy()
        bendable[np.arange(idx.size), np.abs(x).argmax(axis=1)] = False

        def oracle(y):
            v = np.where(y > 0.0, lo, hi)
            if push is not None:
                v = _bend(v, y, x, bendable, budget)
            if chebyshev:
                k = int(np.argmin(v @ y))
                atom = np.zeros_like(v)
                atom[k] = v[k]
                v = atom
            v = cap * v
            return v.tobytes(), v

    else:
        # Atoms are the signed unit vectors, column j for +e_j and d + j for
        # -e_j; each costs its shortfall from the row's maximum, a barred
        # sign costs infinity and a ball block's atoms are free.
        sx = np.concatenate([x, -x], axis=1)
        short = rx[:, None] - sx
        allowed = sx >= 0.0
        if push is not None:
            tie = np.tile(rx[:, None] - np.abs(x) <= ztol, 2)
            allowed = np.where(tie, allowed, np.concatenate([push < 0.0, push > 0.0]))
        cost = np.where(allowed, short, np.inf)
        cost[rx <= ztol] = 0.0
        groups = cost.reshape(1, -1) if chebyshev else cost

        def oracle(y):
            g = np.broadcast_to(np.concatenate([y, -y]), cost.shape).reshape(groups.shape)
            w = _cheapest(g, groups, budget, push is not None).reshape(cost.shape)
            v = cap * (w[:, :d] - w[:, d:])
            return v.tobytes(), v

    # An atom's point has squared norm at most this many squared vertex norms.
    # The stop is 1e-22 of it: at 1e-12 Wolfe left imbalances up to 2.5e-4,
    # and 62 cells of the 900-cell probe failed at 1e-7.
    reach = 1 if chebyshev else idx.size
    atom_sq = reach * reach * (d if kind == "sum" else 1)
    _, _, blocks = _min_norm_weights(oracle, oracle(np.zeros(d)), 1e-22 * atom_sq)
    duals = np.zeros((n, d))
    duals[idx] = blocks
    return duals


def _cap_table(theorem: str, gen, r: np.ndarray, ztol: float):
    """The caps (None, free, under the max generator) and the paired blocks.

    A block is paired with its displacement unless the displacement's norm
    ``r_i`` is within ``ztol`` of zero (within ``ztol`` of the largest, for
    the max generator, which pairs only the farthest blocks).
    """
    if theorem == FERMAT_TORRICELLI:
        return np.ones(r.size), r > ztol
    if theorem == CHEBYSHEV:
        return None, r >= float(r.max()) - ztol
    profile = _power_profile(r, gen.p) ** (1.0 / conjugate_exponent(gen.p))
    caps = np.where(r > ztol, profile, 0.0)
    return caps, caps > 0.0


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

    On the sum and max grounds each block is its cap times a point of its
    alignment face, and Wolfe's method reads the blocks off the faces
    (``_face_duals``), with ``tol`` times the largest block norm as the zero
    and tie tolerance.  When the faces leave the blocks unbalanced by more
    than a thousandth of ``tol``, they are also widened once to the alignment
    slack the checker allows, and of the passes the checker accepts the one
    with the smaller worst residual is returned.

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
    caps, paired = _cap_table(theorem, prob.norm.generator, r, ztol)
    kind = prob.norm.ground.kind
    if kind in ("sum", "max"):
        passes = [_face_duals(kind, diffs, r, ztol, caps, paired)]
        push = passes[0].sum(axis=0)
        if float(np.abs(push).sum()) > 1e-3 * tol:
            # The exact faces do not balance; spend the alignment slack the
            # checker allows.  Wolfe's method balances the Euclidean norm of
            # the sum and the checker its dual ground norm, so the widened
            # blocks may balance worse: both passes go to the checker.
            passes.append(_face_duals(kind, diffs, r, ztol, caps, paired, push))
    else:
        # Smooth grounds: each paired block is its cap times the ground
        # gradient; free caps are the convex weights of the gradients'
        # minimum-norm point.
        grads = _ground_subgradient(prob.norm.ground, diffs)
        if caps is None:
            idx = np.flatnonzero(paired)
            sel, weights, balance = _min_norm_rows(grads[idx])
            caps = np.zeros(prob.n)
            caps[idx[sel]] = weights
            violation = float(np.linalg.norm(balance))
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
        passes = [duals]
    certs = [Certificate(solution=u, duals=duals) for duals in passes]
    reports = [check_certificate(prob, cert, tol=tol) for cert in certs]
    passed = [i for i, report in enumerate(reports) if report.verdict]
    if passed:
        # The pass with the smaller worst residual, the exact one on a tie.
        return certs[min(passed, key=lambda i: reports[i].worst[1])]
    name, value = reports[-1].worst
    return Infeasible(
        reports[-1].theorem,
        f"reconstructed blocks fail the {name} condition",
        value,
    )
