"""Generator functions on the weight simplex and their conjugates.

A generator is a convex continuous function on the probability simplex that
equals 1 at every vertex and never drops when one weight is zeroed out and the
rest are renormalized.  Built-in generators are the power family (exponent 1
gives the constant-one function, infinity gives the max of the weights);
arbitrary callables can be wrapped as tabulated generators and are validated
by sampling.  A power generator is the l_p aggregate of its weights, the
kernel that ``ground_norms`` evaluates every ground norm with.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from typing import Callable

import numpy as np

from .errors import (
    ContractError,
    InvalidInputError,
    MembershipViolationError,
)
from .ground_norms import DEFAULT_TOL, _power_aggregate, conjugate_exponent

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

# The conjugate search multiplies its scale by the contraction after a poll
# with no gain, or by the model contraction when the quadratic model's step
# gains instead, and stops once the scale is at or below the stop scale.
_CONTRACTION = 0.25
_MODEL_CONTRACTION = 1.0 / 16.0
_RHO_STOP = 2.5e-13

# After a winning move the conjugate search first polls only the stencil
# points within this cosine of that move.
_NEAR_COSINE = 0.8

# A search move must raise the ratio by more than this relative amount, so
# rounding noise in a flat ratio cannot keep the search crawling.
_GAIN_RTOL = 1e-15

# A poll's drops count as first order in the scale when each is a quarter of
# the drop at four times the scale within this relative amount.  Measured
# ratios run from 1.00 to 1.11 at vertices and stay below 0.48 on smooth
# faces, where the drops are quadratic.
_LINEAR_RTOL = 0.25


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


@dataclasses.dataclass(frozen=True)
class _Formula:
    """A built-in generator behind a tabulated generator's callable.

    Tabulated generators loaded from JSON hold one.  Called, it gives the
    value at one row; ``_psi_values_raw`` runs ``base``'s kernel over a whole
    batch instead, and serialization writes ``base`` back as the source
    formula.
    """

    base: PsiGenerator

    def __call__(self, t) -> float:
        return float(_psi_values_raw(self.base, np.asarray(t, dtype=float)))


def _psi_values_raw(gen: PsiGenerator, ts: np.ndarray) -> np.ndarray:
    """Evaluation over rows without the range guard; axiom validation wants raw values.

    This is the one place that calls a tabulated generator's callable: once
    per row, except that a formula-backed one (``_Formula``) runs its
    built-in generator's kernel over all rows in one pass.  The values are
    the same bit for bit, since the aggregate sums left to right whatever
    the layout.
    """
    if gen.kind == "p":
        # The constant generator is exactly 1, not a rounded sum of weights.
        return np.ones(ts.shape[:-1]) if gen.p == 1.0 else _power_aggregate(ts, gen.p)
    if isinstance(gen.func, _Formula):
        return _psi_values_raw(gen.func.base, ts)
    rows = ts.reshape(-1, ts.shape[-1])
    return np.array([float(gen.func(row)) for row in rows], dtype=float).reshape(ts.shape[:-1])


def _band_error(val: float, lo: float) -> MembershipViolationError:
    """The error for a tabulated value ``val`` outside [``lo``, 1 + band]."""
    if not math.isfinite(val):
        return MembershipViolationError("tabulated generator returned a non-finite value")
    return MembershipViolationError(
        f"tabulated generator value {val!r} outside [{lo!r}, {1.0 + _EVAL_BAND!r}]"
    )


def psi_eval(gen: PsiGenerator, t) -> float:
    """Value of the generator at a simplex point."""
    t = as_simplex_point(t)
    if not gen.accepts_arity(t.size):
        raise InvalidInputError(
            f"generator arity {gen.arity} does not accept weight vector of size {t.size}"
        )
    return float(psi_eval_many(gen, t))


def psi_eval_many(gen: PsiGenerator, ts: np.ndarray) -> np.ndarray:
    """Vectorized evaluation over rows of ``ts``; rows must be simplex points.

    A 1-D ``ts`` is one row and gives a 0-d array.
    """
    ts = np.asarray(ts, dtype=float)
    vals = _psi_values_raw(gen, ts)
    if gen.kind == "tabulated":
        # Guard every value in one pass; the error names the first bad row,
        # as a row-by-row guard would.
        lo = ts.max(axis=-1) - _EVAL_BAND
        bad = np.flatnonzero(~((lo <= vals) & (vals <= 1.0 + _EVAL_BAND)))
        if bad.size:
            raise _band_error(float(np.ravel(vals)[bad[0]]), float(np.ravel(lo)[bad[0]]))
    return vals


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
    the largest weight and 1, and (if declared) permutation symmetry.  Every
    probe row is built first and evaluated in one batch; the report records
    the first counterexample per failed axiom.
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
    pts = rng.dirichlet(np.ones(n), size=samples)
    half = samples // 2
    mids = 0.5 * (pts[:half] + pts[half : 2 * half])
    mids = mids / mids.sum(axis=1, keepdims=True)
    # Each sample with slot i zeroed and the rest renormalized, for every slot
    # that does not hold almost all the weight.
    owner, slot = np.nonzero(pts < 1.0 - 1e-9)
    rest = 1.0 - pts[owner, slot]
    reduced = pts[owner]
    reduced[np.arange(owner.size), slot] = 0.0
    reduced = reduced / rest[:, None]
    # Renormalization leaves the sum within a few ulps of 1; snap it exactly.
    reduced = reduced / reduced.sum(axis=1, keepdims=True)
    swept = min(samples, 200) if gen.symmetric else 0
    perms = np.array([rng.permutation(n) for _ in range(swept)], dtype=int).reshape(swept, n)
    permuted = pts[np.arange(swept)[:, None], perms]

    rows = np.vstack([np.eye(n), pts, mids, reduced, permuted])
    cuts = np.cumsum([n, samples, half, owner.size])
    tops, vals, vm, lower, vp = np.split(_psi_values_raw(gen, rows), cuts)
    lower = rest * lower
    failures: dict[str, str] = {}

    def first(bad: np.ndarray) -> int | None:
        return int(np.argmax(bad)) if bad.any() else None

    i = first(~np.isfinite(tops) | (np.abs(tops - 1.0) > tol))
    if i is not None:
        failures["vertex_values"] = f"value {float(tops[i])!r} at vertex {i}"

    i = first(~np.isfinite(vals) | (vals < pts.max(axis=1) - tol) | (vals > 1.0 + tol))
    if i is not None:
        failures["bounds"] = f"value {float(vals[i])!r} at {pts[i].tolist()}"

    va, vb = vals[:half], vals[half : 2 * half]
    i = first(np.isfinite(va) & np.isfinite(vb) & (vm > 0.5 * (va + vb) + tol))
    if i is not None:
        failures["midpoint_convexity"] = (
            f"midpoint value {float(vm[i])!r} above chord between "
            f"{pts[i].tolist()} and {pts[half + i].tolist()}"
        )

    v = vals[owner]
    i = first(np.isfinite(v) & (v < lower - tol))
    if i is not None:
        failures["restriction"] = (
            f"value {float(v[i])!r} below zeroed-slot bound {float(lower[i])!r} "
            f"at {pts[owner[i]].tolist()} slot {slot[i]}"
        )

    symmetry_ok: bool | None = None
    if gen.symmetric:
        i = first(np.abs(vp - vals[:swept]) > tol)
        symmetry_ok = i is None
        if i is not None:
            failures["symmetry"] = (
                f"values {float(vals[i])!r} vs {float(vp[i])!r} under permutation of {pts[i].tolist()}"
            )

    diffs = pts[1:] - pts[:-1]
    gaps = np.abs(vals[1:] - vals[:-1])
    with np.errstate(invalid="ignore", divide="ignore"):
        slopes = gaps / np.abs(diffs).sum(axis=1)
    lipschitz = float(np.nanmax(slopes)) if slopes.size else 0.0

    return ValidationReport(
        arity=n,
        samples=samples,
        tol=tol,
        vertex_values_ok="vertex_values" not in failures,
        midpoint_convexity_ok="midpoint_convexity" not in failures,
        restriction_ok="restriction" not in failures,
        bounds_ok="bounds" not in failures,
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


def _model_step(stencil: np.ndarray) -> Callable:
    """The search step of a quadratic model fitted to a failed poll's values.

    The model is a least-squares quadratic on the centre and the stencil, in
    an orthonormal basis of the sum-zero plane; its pseudo-inverse depends
    only on the stencil, so each fit is one matrix-vector product.  The
    returned ``peak(t, rho, best, vals)`` takes the centre ``t``, its value
    ``best`` and the values ``vals`` at ``t + rho * stencil``.  It gives the
    model's maximizer, or None unless the fitted Hessian is negative definite
    and the maximizer lies within the stencil's radius and inside the
    simplex; and whether the model is flat: it reproduces every value, and
    its maximum lies above ``best``, by at most ``_GAIN_RTOL`` relative.
    """
    n = stencil.shape[1]
    basis = np.linalg.qr(np.eye(n)[:, :-1] - 1.0 / n)[0]
    zs = np.vstack([np.zeros(n - 1), stencil @ basis])
    upper = np.triu_indices(n - 1)
    design = np.hstack([np.ones((len(zs), 1)), zs, zs[:, upper[0]] * zs[:, upper[1]]])
    pinv = np.linalg.pinv(design)
    radius = float(np.linalg.norm(stencil, axis=1).max())

    def peak(
        t: np.ndarray, rho: float, best: float, vals: np.ndarray
    ) -> tuple[np.ndarray | None, bool]:
        rise = np.append(0.0, vals - best)
        coef = pinv @ rise
        hess = np.zeros((n - 1, n - 1))
        hess[upper] = coef[n:]
        hess += hess.T
        if np.linalg.eigvalsh(hess)[-1] >= 0.0:
            return None, False
        z = np.linalg.solve(hess, -coef[1:n])
        top = t + rho * (basis @ z)
        if z @ z > radius * radius or top.min() < 0.0:
            return None, False
        # c + g.z + z'Hz/2 peaks at z = -H^-1 g, with value c + g.z/2.
        top_rise = coef[0] + 0.5 * coef[1:n] @ z
        flat = max(np.abs(design @ coef - rise).max(), top_rise) <= _GAIN_RTOL * best
        return _onto_simplex(top), flat

    return peak


@functools.cache
def _search_frame(n: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, Callable]:
    """The conjugate search's start lattice, stencil, stencil directions and
    model step at arity ``n`` and ``m`` subdivisions.

    They depend on nothing else, so each is built once and kept read-only;
    tabulated arities stop at ``MAX_TABULATED_ARITY`` and the lattice point
    cap bounds ``m``, so few frames exist.  The start lattice holds the
    barycenter even where ``m`` misses it.
    """
    starts = _compositions(n, m) / m
    if m % n:
        starts = np.vstack([starts, np.full(n, 1.0 / n)])
    k = _subdivisions(n, _STENCIL_STEPS)
    local = n * _compositions(n, k) - k
    stencil = np.unique(np.vstack([local, -local]), axis=0)
    stencil = stencil[np.any(stencil, axis=1)] / (n * k)
    units = stencil / np.linalg.norm(stencil, axis=1)[:, None]
    for arr in (starts, stencil, units):
        arr.flags.writeable = False
    return starts, stencil, units, _model_step(stencil)


def _conjugate_sup(gen: PsiGenerator, weights: np.ndarray, grid: float = math.inf) -> float:
    """Sup of <t, weights> / psi(t) over the simplex.

    The ratio is a nonnegative linear function over a positive convex one, so
    every local maximum is global.  The best point of a coarse lattice (at
    most ``grid`` subdivisions and ``_LATTICE_POINTS`` points), together with
    the barycenter where the lattice misses it (the minimizer of every
    symmetric generator and the max generator's kink), starts a pattern
    search, split into a poll and a model-driven search step in the manner of
    mesh adaptive direct search (Audet and Dennis 2006).

    - The poll tries ``t + rho * stencil``, where the stencil is a small local
      lattice minus its barycenter, in both orientations.  After a winning
      move it first tries only the stencil points within cosine
      ``_NEAR_COSINE`` (0.8) of that move, and falls back to the whole
      stencil when none of them gains.  A move to the best point that gains
      is repeated with doubled length while it keeps gaining.
    - The search ends once the best ratio comes within ``_GAIN_RTOL`` of the
      sum of the positive weights: ``psi(t) >= max(t)`` caps every ratio
      there, so the sup is reached wherever the conjugate is that sum.
    - A full poll with no gain ends the search when its lowest ratio lies
      within ``_GAIN_RTOL`` of the best: no finer poll could register a gain.
    - If the stencil leaves the simplex, no model fits the clipped poll.  A
      failed full poll at ``rho`` that follows one at ``4 rho`` from the same
      point ends the search when the same points drop both times and each
      drop is a quarter of the earlier one within ``_LINEAR_RTOL`` (25%):
      drops linear in ``rho`` are first order, so finer scales only repeat
      them.  This ends the search at a vertex maximum; else ``rho`` is
      multiplied by ``_CONTRACTION`` (1/4).
    - Otherwise, if the stencil lies wholly inside the simplex, a quadratic is
      fitted to the values the poll paid for (``_model_step``; Conn,
      Scheinberg and Vicente 2009) and its maximizer is tried.  If that
      gains, the search moves there and multiplies ``rho`` by
      ``_MODEL_CONTRACTION`` (1/16).  If it does not, and the model is flat
      (it reproduces the poll and peaks within ``_GAIN_RTOL``), the search
      ends for the same reason as at a flat poll.  Else ``rho`` is
      multiplied by ``_CONTRACTION`` (1/4).
    - The search stops once ``rho`` is at or below ``_RHO_STOP`` (2.5e-13).
      That floor governs at kinks inside the simplex, where the poll's drops
      are linear in ``rho`` and the model does not fit.

    Smooth maxima thus converge superlinearly, and ridges are climbed by
    polls of a few points.  A memo keyed by the point's bytes calls ``psi``
    once per distinct point: a failed poll leaves ``t`` in place, so the
    next scale's row ``4 s`` repeats this scale's row ``s`` wherever the
    stencil holds both, the full poll repeats the points of the directed
    one, and clipping onto the simplex merges rows near a face.  The value
    is a ratio at a point the search evaluated, so it never exceeds the
    supremum.
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
    starts, stencil, units, peak = _search_frame(n, m)
    vals = ratios(starts)
    i = int(np.argmax(vals))
    t, best = starts[i], vals[i]
    # psi(t) >= max(t) caps the ratio at the sum of the positive weights.
    cap = np.maximum(weights, 0.0).sum() * (1.0 - _GAIN_RTOL)
    near = stencil[:0]
    drops = None
    rho = 1.0 / m
    while rho > _RHO_STOP and best < cap:
        for poll in (near, stencil):
            if not len(poll):
                continue
            raw = t + rho * poll
            cands = _onto_simplex(raw)
            vals = ratios(cands)
            i = int(np.argmax(vals))
            if vals[i] > best * (1.0 + _GAIN_RTOL):
                break
        else:
            # The full poll failed: stop where it is flat, else try the model.
            if vals.min() >= best * (1.0 - _GAIN_RTOL):
                break
            if raw.min() < 0.0:
                # No model fits a clipped stencil.  Drops a quarter of those
                # at 4 rho, at the same points, are first order in rho.
                last, drops = drops, best - vals
                fell = drops > _GAIN_RTOL * best
                if (
                    last is not None
                    and np.array_equal(fell, last > _GAIN_RTOL * best)
                    and np.all(np.abs(4.0 * drops[fell] / last[fell] - 1.0) <= _LINEAR_RTOL)
                ):
                    break
                rho *= _CONTRACTION
                continue
            top, flat = peak(t, rho, best, vals)
            ratio = ratios(top[None])[0] if top is not None else -math.inf
            if ratio > best * (1.0 + _GAIN_RTOL):
                t, best, rho, drops = top, ratio, rho * _MODEL_CONTRACTION, None
            elif flat:
                break
            else:
                rho *= _CONTRACTION
            continue
        step, t, best = cands[i] - t, cands[i], vals[i]
        near = stencil[units @ step >= _NEAR_COSINE * np.linalg.norm(step)]
        drops = None
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
    caps, starts a shrinking local pattern search with a quadratic-model
    step.  The value is attained at a point the search evaluated, so it never
    exceeds the supremum.  On power generators behind a callable it stays
    within 1e-12 relative of the closed form on the 560 cells of
    ``tools/conjugate_probe.py`` (arities 2 to 8, worst 6.2e-13 short).  At a
    vertex maximum (exponent 1) and at the max generator's kink it ends on the
    exact value within two polls of the start lattice; at a kink inside the
    simplex that lies off the lattice it can stop short.
    """
    s = as_simplex_point(s, "s")
    if gen.kind == "p":
        return float(psi_eval_many(psi_conjugate_generator(gen), s))
    if s.size != gen.arity:
        raise InvalidInputError("conjugate argument arity mismatch")
    if grid < 2:
        raise InvalidInputError("conjugate lattice needs grid >= 2")
    return _conjugate_sup(gen, s, grid)


def dual_norm_from_block_norms(gen: PsiGenerator, rstar: np.ndarray) -> float:
    """Dual product norm given the blockwise dual ground norms ``rstar``.

    For power generators this is the conjugate-exponent aggregate; for
    tabulated generators it maximizes the weighted sum over the generator on
    the simplex with the search of ``psi_conjugate_eval``.  Either way the
    dual ground norms enter in absolute value.
    """
    rstar = np.asarray(rstar, dtype=float)
    if gen.kind == "p":
        return float(_power_aggregate(np.abs(rstar), conjugate_exponent(gen.p)))
    if rstar.size != gen.arity:
        raise InvalidInputError("block count disagrees with tabulated arity")
    if not np.any(rstar):
        return 0.0
    return _conjugate_sup(gen, np.abs(rstar))


def psi_conjugate_generator(gen: PsiGenerator) -> PsiGenerator:
    """The conjugate as a generator object.

    Power generators conjugate in closed form.  For tabulated generators the
    result is itself tabulated, each evaluation running the search of
    ``psi_conjugate_eval`` (on power generators, up to about 700 generator
    calls at arity 3 and 1 500 at arity 4 on the probe's cells; the max
    generator ends at the barycenter after the start lattice, 57 calls at
    arity 4).
    """
    if gen.kind == "p":
        return PsiGenerator.power(conjugate_exponent(gen.p))
    return PsiGenerator.tabulated(
        lambda s: _conjugate_sup(gen, np.asarray(s, dtype=float)),
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
    return t, float(psi_eval_many(gen, t / t.sum()))


def psi_sandwich_bounds(gen: PsiGenerator, t) -> tuple[float, float]:
    """Lower and upper envelope values (largest weight and 1) at ``t``."""
    t = as_simplex_point(t)
    return float(t.max()), 1.0
