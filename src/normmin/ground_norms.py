"""Ground norms on R^d: evaluation, duals, subdifferentials, alignment cones.

The supported families are the absolute-sum norm, the max norm, the power
norms with exponent strictly between 1 and infinity, and the Euclidean norm.
The Euclidean norm is kept as its own kind even though it coincides with the
power norm at exponent 2: it gets specialised closed forms and serves as an
independent cross-check of the exponent-2 code path.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import DimensionMismatchError, InvalidInputError

DEFAULT_TOL = 1e-9

# Largest power-norm exponent we promise accurate arithmetic for.
MAX_EXPONENT = 50.0

_KINDS = ("sum", "max", "p", "euclidean")

# Relative tie width when spreading weight over tied maxima (of a row's
# coordinates, or of the block norms under the max generator).
_TIE_RTOL = 1e-12


def as_vector(x, name: str = "vector") -> np.ndarray:
    """Validate and convert to a 1-D float array with finite entries."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise InvalidInputError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise InvalidInputError(f"{name} must have dimension >= 1")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} must have finite coordinates")
    return arr


def _same_space(x: np.ndarray, y: np.ndarray) -> None:
    if x.shape != y.shape:
        raise DimensionMismatchError(
            f"vectors live in different spaces: {x.shape} vs {y.shape}"
        )


@dataclasses.dataclass(frozen=True)
class GroundNorm:
    """A norm on R^d, identified by kind and (for power norms) exponent."""

    kind: str
    p: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InvalidInputError(f"unknown ground norm kind {self.kind!r}")
        if self.kind == "p":
            if self.p is None or not (1.0 < float(self.p) < math.inf):
                raise InvalidInputError(
                    "power ground norm needs a finite exponent strictly above 1"
                )
            if float(self.p) > MAX_EXPONENT:
                raise InvalidInputError(
                    f"exponent {self.p} above supported cap {MAX_EXPONENT}"
                )
            object.__setattr__(self, "p", float(self.p))
        elif self.p is not None:
            raise InvalidInputError(f"kind {self.kind!r} takes no exponent")

    @classmethod
    def sum(cls) -> "GroundNorm":
        return cls("sum")

    @classmethod
    def max(cls) -> "GroundNorm":
        return cls("max")

    @classmethod
    def power(cls, p: float) -> "GroundNorm":
        return cls("p", float(p))

    @classmethod
    def euclidean(cls) -> "GroundNorm":
        return cls("euclidean")

    @property
    def q(self) -> float:
        """Conjugate exponent of a power norm."""
        if self.kind != "p":
            raise InvalidInputError("conjugate exponent only defined for power norms")
        return self.p / (self.p - 1.0)

    def __call__(self, x) -> float:
        return ground_norm_eval(self, x)

    def dual(self) -> "GroundNorm":
        return dual_ground_norm(self)


def _power_norm(abs_x: np.ndarray, p: float) -> np.ndarray:
    """Power norm over the last axis of nonnegative data.

    Factoring out the max keeps large exponents away from underflow.
    """
    m = abs_x.max(axis=-1)
    safe = np.where(m[..., None] > 0.0, m[..., None], 1.0)
    total = ((abs_x / safe) ** p).sum(axis=-1)
    return m * total ** (1.0 / p)


def ground_norm_eval_many(nrm: GroundNorm, xs) -> np.ndarray:
    """Vectorized evaluation over the last axis of ``xs``."""
    a = np.asarray(xs, dtype=float)
    if nrm.kind == "sum":
        return np.abs(a).sum(axis=-1)
    if nrm.kind == "max":
        return np.abs(a).max(axis=-1)
    if nrm.kind == "euclidean":
        with np.errstate(over="ignore"):
            sq = (a * a).sum(axis=-1)
        out = np.sqrt(sq)
        # Rows whose squared sum overflowed or left the normal range are
        # redone with the row maximum factored out, as the power kind does.
        off = ~((sq >= np.finfo(float).tiny) & (sq < np.inf))
        if np.any(off):
            out = np.asarray(out)
            out[off] = _power_norm(np.abs(a[off]), 2.0)
        return out
    return _power_norm(np.abs(a), nrm.p)


def ground_norm_eval(nrm: GroundNorm, x) -> float:
    x = as_vector(x)
    return float(ground_norm_eval_many(nrm, x))


def _ground_subgradient(nrm: GroundNorm, x: np.ndarray) -> np.ndarray:
    """A deterministic subgradient selection of the ground norm, row by row.

    ``x`` is an ``(..., d)`` stack of rows.  A zero row maps to the zero
    vector; any other row maps to a unit-dual-norm vector whose pairing with
    the row equals its norm (up to tie rounding for the max kind, which
    splits the weight evenly over the coordinates tied for the maximum).
    """
    x = np.asarray(x, dtype=float)
    if nrm.kind == "sum":
        return np.sign(x)
    a = np.abs(x)
    if nrm.kind == "max":
        m = a.max(axis=-1, keepdims=True)
        active = (a >= m * (1.0 - _TIE_RTOL)) & (m > 0.0)
        ties = np.maximum(active.sum(axis=-1, keepdims=True), 1)
        return np.where(active, np.sign(x), 0.0) / ties
    nx = ground_norm_eval_many(nrm, x)[..., None]
    safe = np.where(nx > 0.0, nx, 1.0)
    if nrm.kind == "euclidean":
        return x / safe
    return np.sign(x) * (a / safe) ** (nrm.p - 1.0)


def dual_ground_norm(nrm: GroundNorm) -> GroundNorm:
    """The dual norm; applying twice returns an equal ``GroundNorm``."""
    if nrm.kind == "sum":
        return GroundNorm.max()
    if nrm.kind == "max":
        return GroundNorm.sum()
    if nrm.kind == "euclidean":
        return GroundNorm.euclidean()
    return GroundNorm.power(nrm.q)


def norm_subdifferential_contains(
    nrm: GroundNorm, x, xstar, tol: float = DEFAULT_TOL
) -> bool:
    """Whether ``xstar`` is a subgradient of the norm at ``x``.

    Away from the origin this means unit dual norm plus pairing equal to the
    norm of ``x``; at the origin it is membership in the dual unit ball.
    Residuals are compared against ``tol`` scaled by max(1, norm of x).
    """
    x = as_vector(x, "x")
    xstar = as_vector(xstar, "xstar")
    _same_space(x, xstar)
    dual = dual_ground_norm(nrm)
    dual_val = ground_norm_eval(dual, xstar)
    if not np.any(x):
        return dual_val <= 1.0 + tol
    nx = ground_norm_eval(nrm, x)
    scale = max(1.0, nx)
    return abs(dual_val - 1.0) <= tol and abs(float(np.dot(xstar, x)) - nx) <= tol * scale


# ---------------------------------------------------------------------------
# Alignment: the set of x at which a fixed dual vector attains the pairing
# bound with equality.  Membership is the pairing-residual test; the per-kind
# structured descriptions below describe the same set.
# ---------------------------------------------------------------------------


def alignment_set_contains(
    nrm: GroundNorm, xstar, x, tol: float = DEFAULT_TOL
) -> bool:
    """Whether the pairing of ``xstar`` with ``x`` attains its norm bound.

    The residual ``dual_norm(xstar) * norm(x) - <xstar, x>`` is compared
    against ``tol`` scaled by max(1, dual_norm(xstar) * norm(x)).
    """
    x = as_vector(x, "x")
    xstar = as_vector(xstar, "xstar")
    _same_space(x, xstar)
    dual_val = ground_norm_eval(dual_ground_norm(nrm), xstar)
    nx = ground_norm_eval(nrm, x)
    residual = dual_val * nx - float(np.dot(xstar, x))
    return abs(residual) <= tol * max(1.0, dual_val * nx)


# ---------------------------------------------------------------------------
# Structured descriptions of aligned sets.
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Ray:
    """Half-line {lam * generator : lam >= 0}; generator has unit Euclidean length."""

    generator: np.ndarray

    def contains(self, x, tol: float = DEFAULT_TOL) -> bool:
        x = as_vector(x)
        lam = max(float(np.dot(x, self.generator)), 0.0)
        return float(np.abs(x - lam * self.generator).max()) <= tol * max(
            1.0, float(np.abs(x).max())
        )


@dataclasses.dataclass(frozen=True)
class BoxCone:
    """Aligned set for the max norm: active coordinates sit at the overall max.

    ``signs[i]`` is the required sign on active coordinate ``i`` (0 means the
    coordinate is unconstrained and excluded from ``active``).
    """

    signs: tuple[int, ...]
    active: tuple[int, ...]

    def contains(self, x, tol: float = DEFAULT_TOL) -> bool:
        x = as_vector(x)
        if len(self.signs) != x.size:
            raise DimensionMismatchError("sign pattern length disagrees with vector")
        m = float(np.abs(x).max())
        sx = max(1.0, m)
        for i in self.active:
            if self.signs[i] * x[i] < -tol * sx:
                return False
            if m - abs(x[i]) > tol * sx:
                return False
        return True


@dataclasses.dataclass(frozen=True)
class CoordinateCone:
    """Aligned set for the sum norm: support restricted to given coordinates."""

    support: tuple[int, ...]
    signs: tuple[int, ...]

    def contains(self, x, tol: float = DEFAULT_TOL) -> bool:
        x = as_vector(x)
        if len(self.signs) != x.size:
            raise DimensionMismatchError("sign pattern length disagrees with vector")
        sx = max(1.0, float(np.abs(x).max()))
        support = set(self.support)
        for i in range(x.size):
            if i in support:
                if self.signs[i] * x[i] < -tol * sx:
                    return False
            elif abs(x[i]) > tol * sx:
                return False
        return True


@dataclasses.dataclass(frozen=True)
class WholeSpace:
    """Aligned set of the zero dual vector: everything."""

    dim: int

    def contains(self, x, tol: float = DEFAULT_TOL) -> bool:
        as_vector(x)
        return True


AlignmentDescription = Ray | BoxCone | CoordinateCone | WholeSpace


def alignment_ray_basis(nrm: GroundNorm, xstar, tol: float = DEFAULT_TOL):
    """Structured description of the set aligned with ``xstar``.

    Returns a :class:`Ray` for the Euclidean and power kinds, a
    :class:`BoxCone` for the max kind, a :class:`CoordinateCone` for the sum
    kind, and :class:`WholeSpace` when ``xstar`` is exactly zero.
    """
    xstar = as_vector(xstar, "xstar")
    if not np.any(xstar):
        return WholeSpace(dim=xstar.size)
    if nrm.kind in ("euclidean", "p"):
        # The dual norm's gradient at xstar is the unit-norm vector that xstar
        # aligns with.
        gen = _ground_subgradient(dual_ground_norm(nrm), xstar)
        return Ray(generator=gen / float(np.linalg.norm(gen)))
    if nrm.kind == "max":
        signs = tuple(int(np.sign(v)) for v in xstar)
        active = tuple(i for i, v in enumerate(xstar) if v != 0.0)
        return BoxCone(signs=signs, active=active)
    mstar = float(np.abs(xstar).max())
    support = tuple(
        i
        for i in range(xstar.size)
        if abs(xstar[i]) >= mstar - tol * max(1.0, mstar)
    )
    signs = tuple(
        int(np.sign(xstar[i])) if i in support else 0 for i in range(xstar.size)
    )
    return CoordinateCone(support=support, signs=signs)
