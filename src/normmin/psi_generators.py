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

# Point cap of the conjugate search's start lattice and local stencil, the
# stencil's step count below that cap, and the step count of the small stencil
# polled before it.
_LATTICE_POINTS = 64
_STENCIL_STEPS = 4
_SMALL_STEPS = 2

# The conjugate search multiplies its scale by the contraction after a poll
# with no gain, or by the model contraction when the quadratic model's step
# gains instead, and stops once the scale is at or below the stop scale.
_CONTRACTION = 0.25
_MODEL_CONTRACTION = 1.0 / 16.0
_RHO_STOP = 2.5e-13

# Along a coordinate smaller than the scale, the stencil shrinks to that
# coordinate's size, but by no more than this factor, so a poll can still
# leave a face.
_FACE_SCALE = 0.25

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
    if seed < 0:
        raise InvalidInputError(f"seed must be non-negative, got {seed}")

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
    """The search step of a quadratic model fitted to a poll of ``stencil``.

    The model is a least-squares quadratic on the centre ``t`` (value
    ``best``) and the poll's points ``cands`` (values ``vals``) where the
    poll put them, in an orthonormal basis of the sum-zero plane and units
    of ``rho``.  Where the poll's per-coordinate ``scale`` is ``rho``
    throughout, the points are ``t + rho * stencil``, and the fit is one
    product with a pseudo-inverse built here.  The step is the model's
    maximizer if the Hessian is negative definite and the maximizer lies
    within the poll's reach; else it is far: that Newton step cut back to
    the reach, or a Levenberg-Marquardt step no longer than the reach.
    ``peak`` gives the step's point (None if the fit is rank deficient),
    whether the model is flat (it reproduces every value, and its value at
    the step lies above ``best``, by at most ``_GAIN_RTOL`` relative) and
    whether the step is far.
    """
    k = stencil.shape[1] - 1
    basis = np.linalg.qr(np.eye(k + 1)[:, :-1] - 1.0 / (k + 1))[0]
    upper = np.triu_indices(k)

    def quadratic(zs: np.ndarray) -> np.ndarray:
        zs = np.vstack([np.zeros(k), zs])
        return np.hstack([np.ones((len(zs), 1)), zs, zs[:, upper[0]] * zs[:, upper[1]]])

    nominal = quadratic(stencil @ basis)
    pinv = np.linalg.pinv(nominal)

    def peak(
        t: np.ndarray,
        rho: float,
        scale: np.ndarray,
        best: float,
        vals: np.ndarray,
        cands: np.ndarray,
    ) -> tuple[np.ndarray | None, bool, bool]:
        rise = np.append(0.0, vals - best)
        zs = (cands - t) @ basis / rho
        if scale.min() == rho:
            design, coef = nominal, pinv @ rise
        else:
            design = quadratic(zs)
            coef, _, rank, _ = np.linalg.lstsq(design, rise, rcond=None)
            if rank < design.shape[1]:
                return None, False, False
        grad = coef[1 : k + 1]
        hess = np.zeros((k, k))
        hess[upper] = coef[k + 1 :]
        hess += hess.T
        reach = math.sqrt(float(np.max(np.sum(zs * zs, axis=1))))
        top_eig = np.linalg.eigvalsh(hess)[-1]
        z = np.linalg.solve(hess, -grad) if top_eig < 0.0 else None
        far = z is None or z @ z > reach * reach
        if z is None:
            # The shift keeps the step within the reach:
            # |z| <= |grad| / (shift - max(top_eig, 0)) = reach.
            slope = np.linalg.norm(grad)
            shift = max(top_eig, 0.0) + slope / reach
            z = np.linalg.solve(hess - shift * np.eye(k), -grad) if slope else np.zeros(k)
        elif far:
            z *= reach / math.sqrt(z @ z)
        top_rise = coef[0] + grad @ z + 0.5 * z @ hess @ z
        flat = max(np.abs(design @ coef - rise).max(), top_rise) <= _GAIN_RTOL * best
        return _onto_simplex(t + rho * (basis @ z)), flat, far

    return peak


def _stencil(n: int, k: int) -> np.ndarray:
    """The local lattice at ``k`` steps minus its barycenter, in both
    orientations, scaled so its points reach the vertex directions."""
    local = n * _compositions(n, k) - k
    stencil = np.unique(np.vstack([local, -local]), axis=0)
    return stencil[np.any(stencil, axis=1)] / (n * k)


@functools.cache
def _search_frame(
    n: int, m: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, Callable, np.ndarray, Callable | None]:
    """The conjugate search's start lattice, stencil, stencil directions and
    model step at arity ``n`` and ``m`` subdivisions, then the small stencil
    (the local lattice at ``_SMALL_STEPS``) and its model step.

    The start lattice holds the barycenter first, also where ``m`` misses
    it.  They depend on nothing else, so each is built once and kept
    read-only; tabulated arities stop at ``MAX_TABULATED_ARITY`` and the
    lattice point cap bounds ``m``, so few frames exist.  Where the stencil
    itself has no more steps than the small one, the small stencil is empty.
    """
    lattice = _compositions(n, m)
    starts = np.vstack([np.full(n, 1.0 / n), lattice[np.any(n * lattice != m, axis=1)] / m])
    k = _subdivisions(n, _STENCIL_STEPS)
    stencil = _stencil(n, k)
    units = stencil / np.linalg.norm(stencil, axis=1)[:, None]
    small = _stencil(n, _SMALL_STEPS) if k > _SMALL_STEPS else stencil[:0]
    for arr in (starts, stencil, units, small):
        arr.flags.writeable = False
    small_peak = _model_step(small) if len(small) else None
    return starts, stencil, units, _model_step(stencil), small, small_peak


def _conjugate_sup(gen: PsiGenerator, weights: np.ndarray, grid: float = math.inf) -> float:
    """Sup of <t, weights> / psi(t) over the simplex.

    The ratio is a nonnegative linear function over a positive convex one, so
    every local maximum is global.  Zeroing a slot whose weight is not
    positive never lowers the ratio, since the generator's restriction axiom
    gives psi(t) >= (1 - t_i) psi(t with slot i zeroed and renormalized); so
    the sup is reached on the face of the positive weights, and the search
    runs there, at that face's arity (one positive weight gives its vertex).
    ``psi(t) >= max(t)`` caps every ratio at the sum of the positive
    weights, so the search ends as soon as its best ratio comes within
    ``_GAIN_RTOL`` of that sum.  It first tries the barycenter (the minimizer
    of every symmetric generator and the max generator's kink, where the cap
    is reached), then the best point of a coarse lattice on the face (at
    most ``grid`` subdivisions and ``_LATTICE_POINTS`` points) starts a
    pattern search, split into a poll and a model-driven search step in the
    manner of mesh adaptive direct search (Audet and Dennis 2006).

    - The poll tries ``t + rho * stencil``, where the stencil is a small local
      lattice minus its barycenter, in both orientations.  Along each
      coordinate below ``rho`` it shrinks to that coordinate, but by no more
      than ``_FACE_SCALE`` (1/4), so only coordinates below ``rho / 4`` get
      points clipped onto the simplex.  After a winning move the poll first
      tries the stencil points within cosine ``_NEAR_COSINE`` (0.8) of that
      move, then the small stencil (the local lattice at ``_SMALL_STEPS``
      steps), then the whole stencil.
    - Each poll of the small or the whole stencil also fits a quadratic to
      its values, where the poll put its points (``_model_step``; Conn,
      Scheinberg and Vicente 2009), and tries the model's step.  The better
      of the poll's best point and the step wins if it gains.  A model step
      within the poll's reach then multiplies ``rho`` by
      ``_MODEL_CONTRACTION`` (1/16); a far one (the maximizer lies beyond
      the reach, or the model is not concave) keeps ``rho``.  A winning poll
      point or far step is repeated with doubled length while it keeps
      gaining.
    - When the whole stencil and its model fail, the search ends if the
      poll's lowest ratio, or the model, is flat to ``_GAIN_RTOL``: no finer
      poll could register a gain.  If points were clipped, it also ends when
      this failed poll at ``rho`` follows one at ``4 rho`` from the same
      point, the same points drop both times and each drop is a quarter of
      the earlier one within ``_LINEAR_RTOL`` (25%): drops linear in ``rho``
      are first order, so finer scales only repeat them (a vertex maximum).
      Else ``rho`` is multiplied by ``_CONTRACTION`` (1/4).
    - The search stops once ``rho`` is at or below ``_RHO_STOP`` (2.5e-13).
      That floor governs at kinks inside the simplex, where the poll's drops
      are linear in ``rho`` and the model does not fit.

    Smooth maxima thus converge superlinearly, also within ``rho`` of a
    face, and ridges are climbed by polls of a few points.  A memo keyed by
    the point's bytes calls ``psi`` once per distinct point: a failed poll
    leaves ``t`` in place, so where no coordinate lies below ``rho`` the
    next scale's row ``4 s`` repeats this scale's row ``s`` wherever the
    stencil holds both, the full poll repeats
    the points of the directed and the small ones, and clipping onto the
    simplex merges rows near a face.  ``psi`` sees every point at full
    length, zero off the face.  The value is a ratio at a point the search
    evaluated, so it never exceeds the supremum.
    """
    seen: dict[bytes, float] = {}
    face = weights > 0.0
    w = weights[face]

    def ratios(ts: np.ndarray) -> np.ndarray:
        full = ts
        if w.size < weights.size:
            full = np.zeros((len(ts), weights.size))
            full[:, face] = ts
        keys = [row.tobytes() for row in full]
        fresh = {key: row for key, row in zip(keys, full) if key not in seen}
        if fresh:
            pts = np.array(list(fresh.values()))
            vals = psi_eval_many(gen, pts)
            bad = np.flatnonzero(vals <= 0.0)
            if bad.size:
                raise MembershipViolationError(
                    f"generator must stay positive, got {vals[bad[0]]!r} at {pts[bad[0]].tolist()}"
                )
            seen.update(zip(fresh, vals))
        return ts @ w / np.array([seen[key] for key in keys])

    n = w.size
    if n == 1:
        return float(ratios(np.ones((1, 1)))[0])
    m = _subdivisions(n, grid)
    starts, stencil, units, peak, small, small_peak = _search_frame(n, m)
    # psi(t) >= max(t) caps the ratio at the sum of the positive weights.
    cap = w.sum() * (1.0 - _GAIN_RTOL)
    best = ratios(starts[:1])[0]
    if best >= cap:
        return float(best)
    vals = ratios(starts)
    i = int(np.argmax(vals))
    t, best = starts[i], vals[i]
    near = stencil[:0]
    drops = None
    rho = 1.0 / m
    while rho > _RHO_STOP and best < cap:
        scale = rho * np.clip(t / rho, _FACE_SCALE, 1.0)
        inside = (t + scale * stencil).min() >= 0.0
        for poll, model in ((near, None), (small, small_peak), (stencil, peak)):
            if not len(poll):
                continue
            cands = _onto_simplex(t + scale * poll)
            vals = ratios(cands)
            i = int(np.argmax(vals))
            top, ratio, flat, far = None, -math.inf, False, False
            if model is not None:
                top, flat, far = model(t, rho, scale, best, vals, cands)
                if top is not None:
                    ratio = ratios(top[None])[0]
            if max(vals[i], ratio) > best * (1.0 + _GAIN_RTOL):
                break
        else:
            # The whole stencil and its model failed: stop where either is
            # flat, or where clipped drops are first order.
            if flat or vals.min() >= best * (1.0 - _GAIN_RTOL):
                break
            if not inside:
                # Drops a quarter of those at 4 rho, at the same points, are
                # first order in rho.
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
        drops = None
        if ratio >= vals[i]:
            step, t, best = top - t, top, ratio
            if not far:
                rho *= _MODEL_CONTRACTION
                continue
        else:
            step, t, best = cands[i] - t, cands[i], vals[i]
            near = stencil[units @ step >= _NEAR_COSINE * np.linalg.norm(step)]
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
    the barycenter, then the best point of a coarse simplex lattice, whose
    subdivisions the whole number ``grid`` caps, starts a shrinking local
    pattern search with a quadratic-model step.  The value is attained at a
    point the search evaluated, so it never exceeds the supremum.  On power
    generators behind a callable it stays within 1e-12 relative of the
    closed form on the 840 cells of ``tools/conjugate_probe.py`` (arities 2
    to 8, 280 of them with a zero weight; worst 2.9e-13 short), also where
    the maximizer lies near a face.  At a vertex maximum (exponent 1) it
    ends on the exact value within two polls of the start lattice, and at
    the max generator's kink on the barycenter; at a kink inside the simplex
    that lies off the lattice it can stop short.
    """
    s = as_simplex_point(s, "s")
    if gen.kind == "p":
        return float(psi_eval_many(psi_conjugate_generator(gen), s))
    if s.size != gen.arity:
        raise InvalidInputError("conjugate argument arity mismatch")
    if not grid >= 2 or (math.isfinite(grid) and grid != int(grid)):
        raise InvalidInputError(f"conjugate lattice needs a whole grid >= 2, got {grid!r}")
    return _conjugate_sup(gen, s, grid)


def dual_norm_from_block_norms(gen: PsiGenerator, rstar: np.ndarray) -> float:
    """Dual product norm given the blockwise dual ground norms ``rstar``.

    For power generators this is the conjugate-exponent aggregate; for
    tabulated generators it maximizes the weighted sum over the generator on
    the simplex with the search of ``psi_conjugate_eval``.  Either way the
    dual ground norms enter in absolute value, and must be finite.
    """
    rstar = np.asarray(rstar, dtype=float)
    if not np.all(np.isfinite(rstar)):
        raise InvalidInputError("dual block norms must be finite")
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
    ``psi_conjugate_eval`` (on power generators, a median of about 145
    generator calls at arity 3 and 180 at arity 4 on the probe's cells, up
    to about 330 and 590 where the maximizer lies near a face; the max
    generator ends at the barycenter, one call).
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
