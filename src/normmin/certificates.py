"""Dual optimality certificates: verification and recovery.

A certificate pairs a candidate solution with one dual block per anchor.
Checkers score it against the optimality conditions for the claimed norm
family and return named residuals; recovery reconstructs dual blocks at a
given point, or reports which condition its blocks fail and by how much.

Recovery is one routine for the three theorems.  Block ``i`` lies in ``c_i``
times the ground subdifferential at its displacement, and a cap table read
off the generator gives the bounds on the caps ``c_i`` and the blocks that
must pair with their displacements.  When the ground norm has a unique
unit-pairing dual vector (Euclidean and power kinds) the blocks are the
capped ground gradients; under the max generator the caps are the convex
weights of Wolfe's minimum-norm point of the gradients' hull.  On the
polyhedral grounds each block is its cap times a point of its alignment
face, the part of the dual ball that pairs with the displacement, and
recovery finds the blocks whose sum has least norm: in closed form for
fixed caps on the sum ground's boxes and for the max generator on the max
ground's signed unit vectors, otherwise by Wolfe's method, driven by each
face's linear oracle.  Recovery solves no linear program.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import InvalidInputError, UnsupportedGeneratorError
from .ground_norms import (
    DEFAULT_TOL,
    _ground_subgradient,
    _power_profile,
    as_vector,
    conjugate_exponent,
    dual_ground_norm,
    ground_norm_eval,
    ground_norm_eval_many,
)
from .geometry import _min_norm_rows, _min_norm_weights
from .problem import (
    ProblemInstance,
    displacements,
    objective_eval,
)
from .product_norms import as_product_vector
from .psi_generators import dual_norm_from_block_norms

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
    """Recovery outcome: no dual blocks found at the tolerance, why, and by how much."""

    theorem: str
    reason: str
    residual: float


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
) -> CertificateReport:
    """Score a certificate against a named condition set, or the generator's own.

    Every set asks the dual blocks to sum to zero (``dual_sum``).  The
    general set, valid for every generator, adds the conditions of
    :func:`check_general`.  A power theorem asks each block to pair with its
    displacement to its cap times the displacement's norm (``alignment``);
    the cap is the block's dual norm, or one under the sum generator.  The
    power theorems differ only in the two residuals on the caps, stated in
    :func:`check_fermat_torricelli`, :func:`check_chebyshev` and
    :func:`check_p_fermat`.  ``theorem`` is ``"auto"`` (the generator's
    :func:`matching_theorem`), :data:`GENERAL` or the matching power theorem.
    """
    own = matching_theorem(prob)
    theorem = own if theorem == "auto" else theorem
    if theorem not in (GENERAL, FERMAT_TORRICELLI, CHEBYSHEV, P_FERMAT):
        raise InvalidInputError(f"unknown theorem name {theorem!r}")
    if theorem not in (GENERAL, own):
        raise UnsupportedGeneratorError(
            f"{theorem} conditions do not apply to a generator whose own are {own}"
        )
    if cert.duals.shape != prob.anchors.shape:
        raise InvalidInputError(
            f"certificate blocks {cert.duals.shape} do not match anchors "
            f"{prob.anchors.shape}"
        )
    diffs = displacements(prob, cert.solution)
    r = ground_norm_eval_many(prob.norm.ground, diffs)
    rstar = ground_norm_eval_many(dual_ground_norm(prob.norm.ground), cert.duals)
    dual_sum = ground_norm_eval(dual_ground_norm(prob.norm.ground), cert.duals.sum(axis=0))
    residuals = {"dual_sum": dual_sum / max(1.0, float(rstar.max()))}
    warnings = []
    if theorem == GENERAL:
        f = objective_eval(prob, cert.solution)
        dual_norm = float(dual_norm_from_block_norms(prob.norm.generator, rstar))
        residuals["normalization"] = abs(dual_norm - 1.0)
        residuals["pairing"] = abs(float(np.sum(cert.duals * diffs)) - f) / f
    else:
        m = float(r.max())
        if theorem == FERMAT_TORRICELLI:
            bound = r
            total = "max_dual_norm", abs(float(rstar.max()) - 1.0)
            rule = "complementarity", float((np.abs(rstar - 1.0) * r).max()) / m
        elif theorem == CHEBYSHEV:
            bound = rstar * r
            total = "dual_norm_total", abs(float(rstar.sum()) - 1.0)
            rule = "complementarity", float(((m - r) * rstar).max()) / m
            nonzero = int(np.sum(rstar > tol))
            if nonzero < 2:
                warnings.append(
                    f"only {nonzero} nonzero dual block(s); an optimum needs at least 2"
                )
        else:
            bound, p = rstar * r, prob.norm.generator.p
            powers = rstar ** conjugate_exponent(p)
            total = "dual_power_total", abs(float(powers.sum()) - 1.0)
            rule = "proportionality", float(np.abs(powers - _power_profile(r, p)).max())
        alignment = float(np.abs(np.sum(cert.duals * diffs, axis=1) - bound).max()) / m
        residuals.update([total, ("alignment", alignment), rule])
    return CertificateReport(
        theorem=theorem,
        verdict=all(v <= tol for v in residuals.values()),
        residuals=residuals,
        tol=tol,
        warnings=warnings,
    )


def check_general(
    prob: ProblemInstance, cert: Certificate, tol: float = DEFAULT_TOL
) -> CertificateReport:
    """Score the generator-independent optimality conditions.

    Dual blocks must sum to zero, have unit dual product norm, and pair with
    the anchor displacements to the objective value.  Works for every
    generator; tabulated generators price the dual norm with the search of
    ``psi_conjugate_eval``, which can stop short at a kink of the generator,
    so choose ``tol`` accordingly for them.
    """
    return check_certificate(prob, cert, tol, GENERAL)


def check_fermat_torricelli(
    prob: ProblemInstance, cert: Certificate, tol: float = DEFAULT_TOL
) -> CertificateReport:
    """Optimality conditions for the constant generator (sum of block norms).

    Dual blocks sum to zero, the largest dual norm is one, each block pairs
    with its displacement to the displacement's norm, and blocks of dual norm
    below one only occur where the displacement vanishes.
    """
    return check_certificate(prob, cert, tol, FERMAT_TORRICELLI)


def check_chebyshev(
    prob: ProblemInstance, cert: Certificate, tol: float = DEFAULT_TOL
) -> CertificateReport:
    """Optimality conditions for the max generator (largest block norm).

    Dual norms sum to one, every block with a nonzero dual is aligned with
    its displacement, and nonzero duals only sit on blocks whose displacement
    norm attains the maximum.  Fewer than two nonzero duals is geometrically
    impossible at a true optimum and is reported as a warning.
    """
    return check_certificate(prob, cert, tol, CHEBYSHEV)


def check_p_fermat(
    prob: ProblemInstance, cert: Certificate, tol: float = DEFAULT_TOL
) -> CertificateReport:
    """Optimality conditions for finite power generators above exponent one.

    Dual norms raised to the conjugate exponent sum to one and follow the
    profile of the displacement norms raised to the exponent; every block is
    aligned with its displacement.
    """
    return check_certificate(prob, cert, tol, P_FERMAT)


# ---------------------------------------------------------------------------
# Recovery.
# ---------------------------------------------------------------------------


def _face_duals(kind, diffs, r, ztol, caps, paired):
    """Dual blocks on the alignment faces whose sum has least norm.

    Block ``i`` is its cap ``c_i`` times a point of its face, the part of
    the unit dual ball that pairs with the displacement ``x_i`` to ``r_i``.
    On the sum ground the face is a box: it fixes ``W_ij = sign(x_ij)``
    where ``|x_ij| > ztol`` and leaves the other coordinates free in ``[-1,
    1]``.  On the max ground it is the hull of ``sign(x_ij) e_j`` over the
    coordinates within ``ztol`` of the row's maximum.  A block whose
    displacement is within ``ztol`` of zero gets its whole dual ball.  With
    fixed ``caps`` (the sum and finite power generators) the blocks of
    positive cap are in play and the candidate sums fill the Minkowski sum
    of the scaled faces; with ``caps`` None (the max generator) the
    ``paired`` blocks are in play, the candidate sums fill the hull of the
    faces' union, and the convex weights are the caps.

    Fixed caps on the sum ground have a closed form, as a Minkowski sum of
    boxes is a box: per coordinate ``j`` the fixed values sum to ``F_j`` and
    the free caps to ``C_j``, the least-norm sum is ``F_j + S_j`` with ``S_j
    = clip(-F_j, -C_j, C_j)``, and each free coordinate of block ``i`` takes
    ``c_i S_j / C_j``.  So does the max generator on the max ground, where
    the candidates are the hull of signed unit vectors: it holds zero when
    some ``e_j`` carries both signs, ``e_j / 2`` on a block holding ``+e_j``
    and ``-e_j / 2`` on one holding ``-e_j``, and otherwise its least-norm
    point is the vectors' mean.  The other two cases run Wolfe's method on
    the faces' linear oracle.  Returns the ``(n, d)`` blocks; their sum is
    the least-norm point of the candidate sums.
    """
    n, d = diffs.shape
    chebyshev = caps is None
    idx = np.flatnonzero(paired if chebyshev else caps > 0.0)
    x, rx = diffs[idx], r[idx]
    duals = np.zeros((n, d))
    if kind == "sum":
        fixed = np.abs(x) > ztol
        if not chebyshev:
            cap = caps[idx, None]
            value = np.where(fixed, cap * np.sign(x), 0.0)
            free = np.where(fixed, 0.0, cap)
            room = free.sum(axis=0)
            # 0.0 - F, not -F, so that a balanced coordinate is +0, not -0.
            shift = np.clip(0.0 - value.sum(axis=0), -room, room)
            duals[idx] = np.where(fixed, value, free * shift / np.where(room > 0.0, room, 1.0))
            return duals
        sign = np.sign(x)
        lo, hi = np.where(fixed, sign, -1.0), np.where(fixed, sign, 1.0)

        def oracle(y):
            v = np.where(y > 0.0, lo, hi)
            k = int(np.argmin(v @ y))
            atom = np.zeros_like(v)
            atom[k] = v[k]
            return atom.tobytes(), atom

    else:
        # Atoms are the signed unit vectors, column j for +e_j and d + j for
        # -e_j: those of a block's coordinates of the right sign within ztol
        # of its maximum, and all of a ball block's.
        sx = np.concatenate([x, -x], axis=1)
        face = ((sx >= 0.0) & (rx[:, None] - sx <= ztol)) | (rx[:, None] <= ztol)
        if chebyshev:
            held = face.any(axis=0)
            both = np.flatnonzero(held[:d] & held[d:])
            if both.size:
                # Only a ball block holds both signs and no farthest block is
                # one, so the two halves go on different blocks.
                j = both[0]
                duals[idx[np.argmax(face[:, j])], j] += 0.5
                duals[idx[np.argmax(face[:, d + j])], j] -= 0.5
            else:
                atoms = np.flatnonzero(held)
                w = np.zeros(face.shape)
                w[np.argmax(face[:, atoms], axis=0), atoms] = 1.0 / atoms.size
                duals[idx] = w[:, :d] - w[:, d:]
            return duals
        cap = caps[idx, None]

        def oracle(y):
            best = np.where(face, np.concatenate([y, -y]), np.inf).argmin(axis=1)
            w = np.zeros(face.shape)
            w[np.arange(face.shape[0]), best] = 1.0
            v = cap * (w[:, :d] - w[:, d:])
            return v.tobytes(), v

    # An atom's point has squared norm at most this: d for one box vertex,
    # |idx|^2 for a stack of capped signed unit vectors.  The stop is 1e-22
    # of it: at 1e-12 Wolfe left imbalances up to 2.5e-4, and 62 cells of the
    # 900-cell probe failed at 1e-7.
    atom_sq = d if chebyshev else idx.size**2
    _, _, duals[idx] = _min_norm_weights(oracle, oracle(np.zeros(d)), 1e-22 * atom_sq)
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
    alignment face, and the blocks are read off the faces (``_face_duals``),
    with ``tol`` times the largest block norm as the zero and tie
    tolerance: in closed form for fixed caps on the sum ground (a Minkowski
    sum of boxes is a box) and for the max generator on the max ground (a
    hull of signed unit vectors), by Wolfe's method for the max generator
    on the sum ground and fixed caps on the max ground.  There is one pass,
    over the exact faces: at a point whose gradient on its face exceeds
    about ``tol``, the blocks stay unbalanced and the :class:`Infeasible`
    result says by how much.

    The returned certificate always passes the generator's specialized
    checker at ``tol``; an :class:`Infeasible` result names the condition
    the reconstructed blocks fail and by how much.  The default tolerance
    is looser than the checking default because recovery stacks solver
    error on top of arithmetic error.
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
        duals = _face_duals(kind, diffs, r, ztol, caps, paired)
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
    cert = Certificate(solution=u, duals=duals)
    report = check_certificate(prob, cert, tol=tol)
    if report.verdict:
        return cert
    name, value = report.worst
    if kind in ("sum", "max") and name == "dual_sum":
        reason = f"the exact alignment faces leave the blocks unbalanced by {value:.3g}"
    else:
        reason = f"reconstructed blocks fail the {name} condition"
    return Infeasible(theorem, reason, value)
