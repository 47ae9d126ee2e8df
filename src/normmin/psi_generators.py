"""Generator functions on the weight simplex and their conjugates.

A generator is a convex continuous function on the probability simplex that
equals 1 at every vertex and never drops when one weight is zeroed out and the
rest are renormalized.  Built-in generators are the power family (exponent 1
gives the constant-one function, infinity gives the max of the weights);
arbitrary callables can be wrapped as tabulated generators and are validated
by sampling.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from typing import Callable

import numpy as np

from .errors import (
    ContractError,
    InvalidInputError,
    MembershipViolationError,
)
from .ground_norms import DEFAULT_TOL, _power_norm

# Sum-to-one slack accepted on simplex points.
SIMPLEX_TOL = 1e-12

# Tabulated generator values may stray this far outside [max(t), 1] before an
# evaluation is rejected outright.
_EVAL_BAND = 1e-7

MAX_TABULATED_ARITY = 8

# Point cap of the conjugate search's start lattice and local stencil, and the
# stencil's step count below that cap.
_LATTICE_POINTS = 64
_STENCIL_STEPS = 4

# The conjugate search multiplies its scale by this after a poll with no gain,
# and stops once the scale is at or below the stop scale.
_CONTRACTION = 0.25
_RHO_STOP = 2.5e-13

# A search move must raise the ratio by more than this relative amount, so
# rounding noise in a flat ratio cannot keep the search crawling.
_GAIN_RTOL = 1e-15


def as_simplex_point(t, name: str = "weights") -> np.ndarray:
    """Validate a nonnegative weight vector summing to one."""
    arr = np.asarray(t, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise InvalidInputError(f"{name} must be a 1-D vector with at least 2 entries")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} must be finite")
    if arr.min() < -SIMPLEX_TOL or arr.max() > 1.0 + SIMPLEX_TOL:
        raise MembershipViolationError(f"{name} must lie in [0, 1]")
    if abs(float(arr.sum()) - 1.0) > 100 * SIMPLEX_TOL:
        raise MembershipViolationError(f"{name} must sum to 1, got {float(arr.sum())!r}")
    return arr


def conjugate_exponent(p: float) -> float:
    if p == 1.0:
        return math.inf
    if p == math.inf:
        return 1.0
    return p / (p - 1.0)


@dataclasses.dataclass(frozen=True)
class PsiGenerator:
    """Generator on the weight simplex.

    ``kind`` is "p" for the built-in power family (``p`` in [1, inf]) or
    "tabulated" for a user callable with a fixed arity.  Power generators work
    at any arity; ``arity`` is None for them.
    """

    kind: str
    p: float | None = None
    func: Callable[[np.ndarray], float] | None = None
    arity: int | None = None
    symmetric: bool = True

    def __post_init__(self):
        if self.kind == "p":
            if self.p is None or (self.p != math.inf and not 1.0 <= float(self.p)):
                raise InvalidInputError("power generator needs exponent in [1, inf]")
            if self.p != math.inf:
                object.__setattr__(self, "p", float(self.p))
            if self.func is not None or self.arity is not None:
                raise InvalidInputError("power generator takes no callable or arity")
            object.__setattr__(self, "symmetric", True)
        elif self.kind == "tabulated":
            if self.func is None:
                raise InvalidInputError("tabulated generator needs a callable")
            if self.arity is None or int(self.arity) < 2:
                raise InvalidInputError("tabulated generator needs arity >= 2")
            if int(self.arity) > MAX_TABULATED_ARITY:
                raise ContractError(
                    f"tabulated arity {self.arity} above cap {MAX_TABULATED_ARITY}"
                )
            object.__setattr__(self, "arity", int(self.arity))
        else:
            raise InvalidInputError(f"unknown generator kind {self.kind!r}")

    @classmethod
    def power(cls, p: float) -> "PsiGenerator":
        return cls("p", p=p)

    @classmethod
    def tabulated(
        cls, func: Callable[[np.ndarray], float], arity: int, symmetric: bool = False
    ) -> "PsiGenerator":
        return cls("tabulated", func=func, arity=arity, symmetric=symmetric)

    def accepts_arity(self, n: int) -> bool:
        return self.kind == "p" or self.arity == n

    def __call__(self, t) -> float:
        return psi_eval(self, t)


def _psi_value_builtin(p: float, t: np.ndarray) -> float:
    if p == 1.0:
        return 1.0
    if p == math.inf:
        return float(t.max())
    return float(_power_norm(np.asarray(t, dtype=float), p))


def _psi_value_raw(gen: PsiGenerator, t: np.ndarray) -> float:
    """Evaluation without the range guard; axiom validation wants raw values."""
    if gen.kind == "p":
        return _psi_value_builtin(gen.p, t)
    return float(gen.func(t))


def _band_error(val: float, lo: float) -> MembershipViolationError:
    """The error for a tabulated value ``val`` outside [``lo``, 1 + band]."""
    if not math.isfinite(val):
        return MembershipViolationError("tabulated generator returned a non-finite value")
    return MembershipViolationError(
        f"tabulated generator value {val!r} outside [{lo!r}, {1.0 + _EVAL_BAND!r}]"
    )


def _psi_value(gen: PsiGenerator, t: np.ndarray) -> float:
    """Evaluation without input validation; ``t`` must already be a simplex point."""
    if gen.kind == "p":
        return _psi_value_builtin(gen.p, t)
    val = float(gen.func(t))
    lo = float(t.max()) - _EVAL_BAND
    if not lo <= val <= 1.0 + _EVAL_BAND:
        raise _band_error(val, lo)
    return val


def psi_eval(gen: PsiGenerator, t) -> float:
    """Value of the generator at a simplex point."""
    t = as_simplex_point(t)
    if not gen.accepts_arity(t.size):
        raise InvalidInputError(
            f"generator arity {gen.arity} does not accept weight vector of size {t.size}"
        )
    return _psi_value(gen, t)


def psi_eval_many(gen: PsiGenerator, ts: np.ndarray) -> np.ndarray:
    """Vectorized evaluation over rows of ``ts``; rows must be simplex points."""
    ts = np.asarray(ts, dtype=float)
    if gen.kind == "p":
        if gen.p == 1.0:
            return np.ones(ts.shape[:-1])
        if gen.p == math.inf:
            return ts.max(axis=-1)
        return _power_norm(ts, gen.p)
    # Call the callable row by row, then guard every value in one pass; the
    # error names the first bad row, as a row-by-row guard would.
    rows = ts.reshape(-1, ts.shape[-1])
    vals = np.array([float(gen.func(row)) for row in rows], dtype=float)
    lo = rows.max(axis=-1) - _EVAL_BAND
    bad = np.flatnonzero(~((lo <= vals) & (vals <= 1.0 + _EVAL_BAND)))
    if bad.size:
        raise _band_error(float(vals[bad[0]]), float(lo[bad[0]]))
    return vals.reshape(ts.shape[:-1])


# ---------------------------------------------------------------------------
# Sampled validation of the defining axioms.
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class ValidationReport:
    """Outcome of sampled axiom checks; a pass is evidence, not a proof."""

    arity: int
    samples: int
    tol: float
    vertex_values_ok: bool
    midpoint_convexity_ok: bool
    restriction_ok: bool
    bounds_ok: bool
    symmetry_ok: bool | None
    lipschitz_estimate: float
    failures: dict
    note: str = "sampled, not certified"

    @property
    def passed(self) -> bool:
        checks = [
            self.vertex_values_ok,
            self.midpoint_convexity_ok,
            self.restriction_ok,
            self.bounds_ok,
        ]
        if self.symmetry_ok is not None:
            checks.append(self.symmetry_ok)
        return all(checks)

    def to_dict(self) -> dict:
        return {
            "arity": self.arity,
            "samples": self.samples,
            "tol": self.tol,
            "vertex_values_ok": self.vertex_values_ok,
            "midpoint_convexity_ok": self.midpoint_convexity_ok,
            "restriction_ok": self.restriction_ok,
            "bounds_ok": self.bounds_ok,
            "symmetry_ok": self.symmetry_ok,
            "lipschitz_estimate": self.lipschitz_estimate,
            "failures": dict(self.failures),
            "passed": self.passed,
            "note": self.note,
        }


def _removal_value(gen: PsiGenerator, t: np.ndarray, i: int) -> float:
    """(1 - t_i) times the generator at t with slot i removed and renormalized."""
    rest = 1.0 - t[i]
    reduced = t.copy()
    reduced[i] = 0.0
    reduced = reduced / rest
    # Renormalization leaves the sum within a few ulps of 1; snap it exactly.
    reduced = reduced / reduced.sum()
    return rest * _psi_value_raw(gen, reduced)


def validate_psi(
    gen: PsiGenerator,
    samples: int = 2000,
    tol: float = DEFAULT_TOL,
    arity: int | None = None,
    seed: int = 0,
) -> ValidationReport:
    """Sampled check of the generator axioms.

    Draws Dirichlet points on the simplex and tests vertex values, midpoint
    convexity, the zeroed-slot restriction inequality, the bracketing between
    the largest weight and 1, and (if declared) permutation symmetry.  The
    report records the first counterexample per failed axiom.
    """
    if gen.kind == "p":
        n = arity if arity is not None else 3
    else:
        n = gen.arity
        if arity is not None and arity != n:
            raise InvalidInputError("arity argument disagrees with tabulated arity")
    if samples < n + 1:
        raise InvalidInputError(f"need at least arity+1 samples, got {samples}")

    rng = np.random.default_rng(seed)
    failures: dict[str, str] = {}

    vertex_ok = True
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        v = _psi_value_raw(gen, e)
        if not math.isfinite(v) or abs(v - 1.0) > tol:
            vertex_ok = False
            failures.setdefault("vertex_values", f"value {v!r} at vertex {i}")
            break

    pts = rng.dirichlet(np.ones(n), size=samples)
    vals = np.array([_psi_value_raw(gen, t) for t in pts])

    bounds_ok = True
    for t, v in zip(pts, vals):
        if not math.isfinite(v) or v < t.max() - tol or v > 1.0 + tol:
            bounds_ok = False
            failures.setdefault("bounds", f"value {v!r} at {t.tolist()}")
            break

    convex_ok = True
    half = samples // 2
    for a, va, b, vb in zip(pts[:half], vals[:half], pts[half : 2 * half], vals[half : 2 * half]):
        if not (math.isfinite(va) and math.isfinite(vb)):
            continue
        mid = 0.5 * (a + b)
        vm = _psi_value_raw(gen, mid / mid.sum())
        if vm > 0.5 * (va + vb) + tol:
            convex_ok = False
            failures.setdefault(
                "midpoint_convexity",
                f"midpoint value {vm!r} above chord between {a.tolist()} and {b.tolist()}",
            )
            break

    restriction_ok = True
    for t, v in zip(pts, vals):
        if not math.isfinite(v):
            continue
        for i in range(n):
            if t[i] >= 1.0 - 1e-9:
                continue
            lower = _removal_value(gen, t, i)
            if v < lower - tol:
                restriction_ok = False
                failures.setdefault(
                    "restriction",
                    f"value {v!r} below zeroed-slot bound {lower!r} at {t.tolist()} slot {i}",
                )
                break
        if not restriction_ok:
            break

    symmetry_ok: bool | None = None
    if gen.symmetric:
        symmetry_ok = True
        for t, v in zip(pts[: min(samples, 200)], vals[: min(samples, 200)]):
            perm = rng.permutation(n)
            vp = _psi_value_raw(gen, t[perm])
            if abs(vp - v) > tol:
                symmetry_ok = False
                failures.setdefault(
                    "symmetry", f"values {v!r} vs {vp!r} under permutation of {t.tolist()}"
                )
                break

    diffs = pts[1:] - pts[:-1]
    gaps = np.abs(vals[1:] - vals[:-1])
    with np.errstate(invalid="ignore", divide="ignore"):
        slopes = gaps / np.abs(diffs).sum(axis=1)
    lipschitz = float(np.nanmax(slopes)) if slopes.size else 0.0

    return ValidationReport(
        arity=n,
        samples=samples,
        tol=tol,
        vertex_values_ok=vertex_ok,
        midpoint_convexity_ok=convex_ok,
        restriction_ok=restriction_ok,
        bounds_ok=bounds_ok,
        symmetry_ok=symmetry_ok,
        lipschitz_estimate=lipschitz,
        failures=failures,
    )


# ---------------------------------------------------------------------------
# Conjugates.
# ---------------------------------------------------------------------------


def _compositions(n: int, m: int) -> np.ndarray:
    """Every split of ``m`` into ``n`` nonnegative integer parts, one per row."""
    bars = np.array(list(itertools.combinations(range(m + n - 1), n - 1)), dtype=int)
    rows = len(bars)
    edges = np.hstack([np.full((rows, 1), -1), bars, np.full((rows, 1), m + n - 1)])
    return np.diff(edges, axis=1) - 1


def _subdivisions(n: int, cap: int) -> int:
    """Largest lattice step count up to ``cap`` whose lattice fits the point cap."""
    m = 1
    while m < cap and math.comb(m + n, n - 1) <= _LATTICE_POINTS:
        m += 1
    return m


def _onto_simplex(ts: np.ndarray) -> np.ndarray:
    """Rows clipped at zero and rescaled to sum to one."""
    ts = np.maximum(ts, 0.0)
    return ts / ts.sum(axis=-1, keepdims=True)


def _conjugate_sup(gen: PsiGenerator, weights: np.ndarray, grid: int) -> float:
    """Sup of <t, weights> / psi(t) over the simplex.

    The ratio is a nonnegative linear function over a positive convex one, so
    every local maximum is global.  The best point of a coarse lattice (at
    most ``grid`` subdivisions) starts a pattern search: a small local lattice
    minus its barycenter, in both orientations, scaled by ``rho``.  A move to
    its best point that gains is repeated with doubled length while it keeps
    gaining; a batch with no gain multiplies ``rho`` by ``_CONTRACTION`` (1/4),
    and the search stops once ``rho`` is at or below ``_RHO_STOP`` (2.5e-13),
    so its finest scale lies in (2.5e-13, 1e-12].  A memo keyed by the
    point's bytes calls ``psi`` once per distinct point: a batch with no gain
    leaves ``t`` in place, so the next scale's row ``4 s`` repeats this
    scale's row ``s`` wherever the stencil holds both, and clipping onto the
    simplex merges rows near a face.  The value is a ratio at a point the
    search evaluated, so it never exceeds the supremum.
    """
    seen: dict[bytes, float] = {}

    def ratios(ts: np.ndarray) -> np.ndarray:
        keys = [row.tobytes() for row in ts]
        fresh = {key: row for key, row in zip(keys, ts) if key not in seen}
        if fresh:
            pts = np.array(list(fresh.values()))
            vals = psi_eval_many(gen, pts)
            bad = np.flatnonzero(vals <= 0.0)
            if bad.size:
                raise MembershipViolationError(
                    f"generator must stay positive, got {vals[bad[0]]!r} at {pts[bad[0]].tolist()}"
                )
            seen.update(zip(fresh, vals))
        return ts @ weights / np.array([seen[key] for key in keys])

    n = weights.size
    m = _subdivisions(n, grid)
    starts = _compositions(n, m) / m
    vals = ratios(starts)
    i = int(np.argmax(vals))
    t, best = starts[i], vals[i]
    k = _subdivisions(n, _STENCIL_STEPS)
    local = n * _compositions(n, k) - k
    stencil = np.unique(np.vstack([local, -local]), axis=0)
    stencil = stencil[np.any(stencil, axis=1)] / (n * k)
    rho = 1.0 / m
    while rho > _RHO_STOP:
        cands = _onto_simplex(t + rho * stencil)
        vals = ratios(cands)
        i = int(np.argmax(vals))
        if vals[i] <= best * (1.0 + _GAIN_RTOL):
            rho *= _CONTRACTION
            continue
        step, t, best = cands[i] - t, cands[i], vals[i]
        # Repeat the winning move with doubled length while it keeps gaining.
        while True:
            step *= 2.0
            cand = _onto_simplex(t + step)
            ratio = ratios(cand[None])[0]
            if ratio <= best * (1.0 + _GAIN_RTOL):
                break
            t, best = cand, ratio
    return float(best)


def psi_conjugate_eval(gen: PsiGenerator, s, grid: int = 200) -> float:
    """Conjugate generator value at a simplex point ``s``.

    Power generators use closed forms (exponent 1 and infinity swap, finite
    exponents conjugate).  Tabulated generators run a deterministic search:
    the best point of a coarse simplex lattice, whose subdivisions ``grid``
    caps, starts a shrinking local pattern search.  The value is attained at
    a point the search evaluated, so it never exceeds the supremum.  On power
    generators behind a callable it stays within 1e-12 relative of the closed
    form on the 560 cells of ``tools/conjugate_probe.py`` (arities 2 to 8,
    worst 7.2e-13 short); at a kink it can stop short.
    """
    s = as_simplex_point(s, "s")
    if gen.kind == "p":
        q = conjugate_exponent(gen.p)
        return _psi_value_builtin(q, s)
    if s.size != gen.arity:
        raise InvalidInputError("conjugate argument arity mismatch")
    if grid < 2:
        raise InvalidInputError("conjugate lattice needs grid >= 2")
    return _conjugate_sup(gen, s, grid)


def dual_norm_from_block_norms(gen: PsiGenerator, rstar: np.ndarray, grid: int = 200) -> float:
    """Dual product norm given the blockwise dual ground norms ``rstar``.

    For power generators this is the conjugate-exponent aggregate; for
    tabulated generators it maximizes the weighted sum over the generator on
    the simplex with the search of ``psi_conjugate_eval``, whose start
    lattice ``grid`` caps.
    """
    rstar = np.asarray(rstar, dtype=float)
    if gen.kind == "p":
        q = conjugate_exponent(gen.p)
        if q == 1.0:
            return float(rstar.sum())
        if q == math.inf:
            return float(rstar.max())
        return float(_power_norm(np.abs(rstar), q))
    if rstar.size != gen.arity:
        raise InvalidInputError("block count disagrees with tabulated arity")
    if not np.any(rstar):
        return 0.0
    return _conjugate_sup(gen, rstar, grid)


def psi_conjugate_generator(gen: PsiGenerator, grid: int = 200) -> PsiGenerator:
    """The conjugate as a generator object.

    Power generators conjugate in closed form.  For tabulated generators the
    result is itself tabulated, each evaluation running the search of
    ``psi_conjugate_eval`` (on power generators, up to about 1 100 generator
    calls at arity 3 and 3 000 at arity 4).
    """
    if gen.kind == "p":
        return PsiGenerator.power(conjugate_exponent(gen.p))
    return PsiGenerator.tabulated(
        lambda s: _conjugate_sup(gen, np.asarray(s, dtype=float), grid),
        arity=gen.arity,
        symmetric=gen.symmetric,
    )


def psi_min_symmetric(gen: PsiGenerator, arity: int | None = None) -> tuple[np.ndarray, float]:
    """Minimizer and minimum of a symmetric generator: the uniform point."""
    if not gen.symmetric:
        raise ContractError("generator is not declared symmetric")
    if gen.kind == "tabulated":
        n = gen.arity
        if arity is not None and arity != n:
            raise InvalidInputError("arity argument disagrees with tabulated arity")
    else:
        n = arity if arity is not None else 3
    if n < 2:
        raise InvalidInputError("arity must be >= 2")
    t = np.full(n, 1.0 / n)
    return t, _psi_value(gen, t / t.sum())


def psi_sandwich_bounds(gen: PsiGenerator, t) -> tuple[float, float]:
    """Lower and upper envelope values (largest weight and 1) at ``t``."""
    t = as_simplex_point(t)
    return float(t.max()), 1.0
