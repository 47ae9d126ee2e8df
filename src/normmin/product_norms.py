"""Norms on stacked blocks built from a ground norm and a simplex generator.

The norm of a block tuple is the total of the block norms times the generator
at the normalized block-norm profile.  The dual norm is the same construction
over the dual ground norm with the conjugate generator.  The power family
evaluates through its closed-form aggregate (sum, max or power norm of the
block norms), which equals the profile formula.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import (
    ArityMismatchError,
    InvalidInputError,
    MembershipViolationError,
    UnsupportedGeneratorError,
)
from .ground_norms import (
    DEFAULT_TOL,
    GroundNorm,
    dual_ground_norm,
    ground_norm_eval_many,
)
from .psi_generators import (
    PsiGenerator,
    _block_sum,
    _power_aggregate,
    conjugate_exponent,
    dual_norm_from_block_norms,
    psi_eval_many,
    validate_psi,
)

# Totals below this count as the zero block tuple.
_ZERO_TOTAL = 1e-300


def as_product_vector(blocks, name: str = "blocks") -> np.ndarray:
    """Validate a stack of blocks as an (n, d) float array, n >= 2."""
    arr = np.asarray(blocks, dtype=float)
    if arr.ndim != 2:
        raise InvalidInputError(f"{name} must be a 2-D block stack, got shape {arr.shape}")
    if arr.shape[0] < 2:
        raise InvalidInputError(f"{name} needs at least 2 blocks")
    if arr.shape[1] < 1:
        raise InvalidInputError(f"{name} blocks must have dimension >= 1")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} must be finite")
    return arr


@dataclasses.dataclass(frozen=True)
class ProductNorm:
    """Ground norm plus generator; tabulated generators are validated on build.

    The check is ``validate_psi`` on 256 samples, about 1 350 rows at arity 3
    in one batch: an opaque callable is called once per row, a generator
    loaded from a formula runs the formula's kernel once over them all.
    """

    ground: GroundNorm
    generator: PsiGenerator

    def __post_init__(self):
        if self.generator.kind == "tabulated":
            report = validate_psi(self.generator, samples=256, tol=1e-7, seed=0)
            if not report.passed:
                raise MembershipViolationError(
                    f"tabulated generator failed sampled validation: {report.failures}"
                )

    def arity_accepts(self, n: int) -> bool:
        return self.generator.accepts_arity(n)

    def __call__(self, blocks) -> float:
        return product_norm_eval(self, blocks)


def block_norms(pn: ProductNorm, blocks) -> np.ndarray:
    """Ground norms of each block row."""
    arr = as_product_vector(blocks)
    _check_arity(pn, arr.shape[0])
    return ground_norm_eval_many(pn.ground, arr)


def _check_arity(pn: ProductNorm, n: int) -> None:
    if not pn.arity_accepts(n):
        raise ArityMismatchError(
            f"block count {n} disagrees with generator arity {pn.generator.arity}"
        )


def product_norm_from_block_norms(gen: PsiGenerator, r: np.ndarray) -> float:
    """Product norm value given the vector of block norms."""
    r = np.asarray(r, dtype=float)
    return float(_from_block_norms_many(gen, r[None, :])[0])


def _from_block_norms_many(gen: PsiGenerator, rs: np.ndarray) -> np.ndarray:
    """Vectorized product norm from rows of block norms.

    The power family uses the closed-form aggregate; other generators scale
    the total by the generator at the normalized block-norm profile.
    """
    rs = np.asarray(rs, dtype=float)
    totals = _block_sum(rs)
    if gen.kind == "p":
        return np.where(totals > _ZERO_TOTAL, _power_aggregate(rs, gen.p), 0.0)
    safe = np.where(totals > _ZERO_TOTAL, totals, 1.0)
    vals = psi_eval_many(gen, rs / safe[..., None])
    return np.where(totals > _ZERO_TOTAL, totals * vals, 0.0)


def product_norm_eval(pn: ProductNorm, blocks) -> float:
    """Norm of a block stack; exactly zero on the zero stack."""
    r = block_norms(pn, blocks)
    return product_norm_from_block_norms(pn.generator, r)


def dual_block_norms(pn: ProductNorm, dual_blocks) -> np.ndarray:
    """Dual ground norms of each block row of a dual stack."""
    arr = as_product_vector(dual_blocks, "dual blocks")
    _check_arity(pn, arr.shape[0])
    return ground_norm_eval_many(dual_ground_norm(pn.ground), arr)


def dual_product_norm_eval(pn: ProductNorm, dual_blocks) -> float:
    """Dual norm of a dual block stack.

    Power generators conjugate in closed form; tabulated generators maximize
    the weighted block-norm sum over the generator with the search of
    ``psi_conjugate_eval``.
    """
    rstar = dual_block_norms(pn, dual_blocks)
    return float(dual_norm_from_block_norms(pn.generator, rstar))


def pairing(dual_blocks, blocks) -> float:
    """Blockwise duality pairing, summed."""
    a = as_product_vector(dual_blocks, "dual blocks")
    b = as_product_vector(blocks)
    if a.shape != b.shape:
        raise InvalidInputError(f"block stacks differ in shape: {a.shape} vs {b.shape}")
    return float(np.sum(a * b))


def holder_gap(pn: ProductNorm, dual_blocks, blocks) -> float:
    """Product of the two norms minus the blockwise norm-product sum.

    Nonnegative up to rounding; a meaningfully negative value would violate
    the pairing inequality.
    """
    r = block_norms(pn, blocks)
    rstar = dual_block_norms(pn, dual_blocks)
    primal = product_norm_from_block_norms(pn.generator, r)
    dual = float(dual_norm_from_block_norms(pn.generator, rstar))
    return dual * primal - float(np.dot(rstar, r))


@dataclasses.dataclass
class EqualityReport:
    """Outcome of the equality-case analysis for the pairing inequality.

    ``equality_holds`` is the verdict from norm values, ``conditions_hold``
    the verdict from the structural characterization; the characterization
    says they coincide outside the tolerance band.  Residuals are scaled by
    max(1, product of the norms).
    """

    case: str
    equality_holds: bool
    conditions_hold: bool
    equality_residual: float
    alignment_residuals: np.ndarray
    structure_residuals: np.ndarray
    structure_label: str
    degenerate_zero: bool
    tol: float

    def to_dict(self) -> dict:
        return {
            "case": self.case,
            "equality_holds": self.equality_holds,
            "conditions_hold": self.conditions_hold,
            "equality_residual": self.equality_residual,
            "alignment_residuals": self.alignment_residuals.tolist(),
            "structure_residuals": self.structure_residuals.tolist(),
            "structure_label": self.structure_label,
            "degenerate_zero": self.degenerate_zero,
            "tol": self.tol,
        }


def equality_case_check(
    pn: ProductNorm, dual_blocks, blocks, tol: float = DEFAULT_TOL
) -> EqualityReport:
    """Check pairing-equality against its structural characterization.

    Equality of the blockwise norm-product sum with the product of the two
    norms holds exactly when every block pair is aligned and, depending on
    the generator: the constant generator concentrates dual mass on blocks of
    maximal dual norm; the max generator concentrates primal mass on blocks
    of maximal norm; finite exponents force the dual-norm powers and norm
    powers to share one profile.  Both verdicts are reported; they are
    computed independently and not reconciled.  Only power generators are
    supported.
    """
    if pn.generator.kind != "p":
        raise UnsupportedGeneratorError(
            "equality-case analysis requires a power generator"
        )
    a = as_product_vector(dual_blocks, "dual blocks")
    b = as_product_vector(blocks)
    if a.shape != b.shape:
        raise InvalidInputError(f"block stacks differ in shape: {a.shape} vs {b.shape}")
    _check_arity(pn, b.shape[0])

    r = ground_norm_eval_many(pn.ground, b)
    rstar = ground_norm_eval_many(dual_ground_norm(pn.ground), a)
    primal = product_norm_from_block_norms(pn.generator, r)
    dual = float(dual_norm_from_block_norms(pn.generator, rstar))
    lhs = pairing(a, b)
    rhs = dual * primal
    scale = max(1.0, rhs)
    equality_residual = abs(rhs - lhs) / scale
    equality_holds = equality_residual <= tol

    align = rstar * r - np.sum(a * b, axis=-1)
    align_scaled = np.abs(align) / scale
    aligned = bool(np.all(align_scaled <= tol))

    p = pn.generator.p
    degenerate = (not np.any(r)) or (not np.any(rstar))
    if degenerate:
        structure = np.zeros(r.size)
        label = "degenerate"
        structural = True
    elif p == 1.0:
        structure = (rstar.max() - rstar) * r / scale
        label = "dual_mass_on_max_dual_norm"
        structural = bool(np.all(structure <= tol))
    elif p == math.inf:
        structure = (r.max() - r) * rstar / scale
        label = "primal_mass_on_max_norm"
        structural = bool(np.all(structure <= tol))
    else:
        q = conjugate_exponent(p)
        wp = (r / r.max()) ** p
        wq = (rstar / rstar.max()) ** q
        # The equality gap is second-order in the profile mismatch, so the
        # residual is squared to live on the same scale as the gap.
        structure = (wq / wq.sum() - wp / wp.sum()) ** 2
        label = "matched_power_profiles"
        structural = bool(np.all(structure <= tol))

    conditions_hold = aligned and structural
    if degenerate:
        conditions_hold = True
    return EqualityReport(
        case=("constant" if p == 1.0 else "max" if p == math.inf else "power"),
        equality_holds=equality_holds,
        conditions_hold=conditions_hold,
        equality_residual=equality_residual,
        alignment_residuals=align_scaled,
        structure_residuals=np.asarray(structure, dtype=float),
        structure_label=label,
        degenerate_zero=degenerate,
        tol=tol,
    )
