"""Conjugate probe: the tabulated-conjugate search against closed forms on 840 cells.

The grid is arities n in {2, ..., 8} x power generators p in
{1, 1.5, 2, 3, inf} x Dirichlet(1) and Dirichlet(0.3) weights x 8 points,
drawn in that order from ``numpy.random.default_rng(510)``: 560 cells.  Each
Dirichlet(0.3) point also runs with its smallest coordinate set to zero and
the rest renormalized, 280 zeroed cells on a face of the simplex.  Each cell
puts the power generator behind an opaque callable that counts its calls,
runs ``psi_conjugate_eval`` at the start-lattice cap of the tests'
``SEARCH_GRIDS`` and compares the value with the closed form (the power
generator of the conjugate exponent at the same point).

Prints one JSON line per cell, then one summary line with the cells beyond
1e-12, the largest relative excess over the closed form and shortfall under
it, the generator calls of the 560 cells and of the zeroed cells, the count
and calls of the near-face cells among each (finite p > 1 whose closed-form
maximizer, t proportional to s^(q - 1) on the positive weights, has a
coordinate below ``NEAR_FACE``) and, per arity, the largest call count and
the seconds of the search.  Exits 1 if any
value lies more than 1e-12 relative above or below the closed form, or if
the generator calls of the 560 cells exceed ``MAX_CALLS`` or those of the
zeroed cells ``MAX_ZEROED_CALLS``.  Run from the repository root:

    PYTHONPATH=src python tools/conjugate_probe.py

It takes about five seconds on one core.
"""

from __future__ import annotations

import json
import math
import sys
import time

import numpy as np

from normmin import PsiGenerator, conjugate_exponent, psi_conjugate_eval, psi_eval

ARITIES = range(2, 9)
EXPONENTS = (1.0, 1.5, 2.0, 3.0, math.inf)
CONCENTRATIONS = (1.0, 0.3)
POINTS = 8
# Each point of this concentration also runs with its smallest weight set to
# zero and the rest renormalized: a cell on a face of the simplex.
ZEROED_CONCENTRATION = 0.3
# The start-lattice caps of ``SEARCH_GRIDS`` in tests/test_psi_generators.py.
SEARCH_GRIDS = {2: 200, 3: 200, 4: 40, 5: 20, 6: 12, 7: 12, 8: 12}
RTOL = 1e-12
# A cell is near a face when its maximizer has a coordinate below this.
NEAR_FACE = 1e-2
# The total generator calls of the search on the 560 cells (173 811 when this
# gate was set) and on the zeroed cells (57 350), each plus about 5%, so a
# change that makes the search costlier fails.
MAX_CALLS = 182_500
MAX_ZEROED_CALLS = 60_200


class Counted:
    """The power generator ``p`` as an opaque callable that counts its calls."""

    def __init__(self, p: float):
        self.p = p
        self.calls = 0

    def __call__(self, t) -> float:
        self.calls += 1
        t = np.asarray(t, dtype=float)
        if self.p == math.inf:
            return float(np.max(t))
        return float(np.sum(t**self.p) ** (1.0 / self.p))


def near_face(p: float, s: np.ndarray) -> bool:
    """Whether the closed-form maximizer of <t, s> / psi_p(t) nears a face."""
    if p in (1.0, math.inf):
        return False
    t = s[s > 0.0] ** (conjugate_exponent(p) - 1.0)
    return bool(t.min() < NEAR_FACE * t.sum())


def main() -> int:
    rng = np.random.default_rng(510)
    beyond = 0
    excess = shortfall = 0.0
    calls = {False: 0, True: 0}
    near = {False: [0, 0], True: [0, 0]}
    arities: dict[int, dict] = {}

    def cell(n: int, p: float, alpha: float, s: np.ndarray, zeroed: bool) -> None:
        nonlocal beyond, excess, shortfall
        grid = SEARCH_GRIDS[n]
        stats = arities.setdefault(n, {"max_calls": 0, "seconds": 0.0})
        psi = Counted(p)
        t0 = time.perf_counter()
        value = psi_conjugate_eval(PsiGenerator.tabulated(psi, n), s, grid=grid)
        stats["seconds"] += time.perf_counter() - t0
        want = psi_eval(PsiGenerator.power(conjugate_exponent(p)), s)
        rel = (value - want) / want
        ok = abs(rel) <= RTOL
        beyond += not ok
        excess, shortfall = max(excess, rel), max(shortfall, -rel)
        calls[zeroed] += psi.calls
        stats["max_calls"] = max(stats["max_calls"], psi.calls)
        face = near_face(p, s)
        if face:
            near[zeroed][0] += 1
            near[zeroed][1] += psi.calls
        print(json.dumps({
            "n": n,
            "p": "inf" if p == math.inf else p,
            "alpha": alpha,
            "zeroed": zeroed,
            "grid": grid,
            "s": s.tolist(),
            "value": value,
            "closed": want,
            "rel": rel,
            "calls": psi.calls,
            "near_face": face,
            "ok": ok,
        }), flush=True)

    for n in ARITIES:
        for p in EXPONENTS:
            for alpha in CONCENTRATIONS:
                for s in rng.dirichlet(np.full(n, alpha), size=POINTS):
                    cell(n, p, alpha, s, False)
                    if alpha == ZEROED_CONCENTRATION:
                        z = s.copy()
                        z[np.argmin(z)] = 0.0
                        cell(n, p, alpha, z / z.sum(), True)
    print(json.dumps({
        "cells": len(ARITIES) * len(EXPONENTS) * len(CONCENTRATIONS) * POINTS,
        "zeroed_cells": len(ARITIES) * len(EXPONENTS) * POINTS,
        "beyond_1e-12": beyond,
        "worst_excess": excess,
        "worst_shortfall": shortfall,
        "calls": calls[False],
        "zeroed_calls": calls[True],
        "near_face": {
            "cells": near[False][0],
            "calls": near[False][1],
            "zeroed_cells": near[True][0],
            "zeroed_calls": near[True][1],
        },
        "arities": {
            n: {"max_calls": a["max_calls"], "seconds": round(a["seconds"], 3)}
            for n, a in arities.items()
        },
    }))
    return 1 if beyond or calls[False] > MAX_CALLS or calls[True] > MAX_ZEROED_CALLS else 0


if __name__ == "__main__":
    sys.exit(main())
