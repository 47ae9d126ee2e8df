"""Conjugate probe: the tabulated-conjugate search against closed forms on 560 cells.

The grid is arities n in {2, ..., 8} x power generators p in
{1, 1.5, 2, 3, inf} x Dirichlet(1) and Dirichlet(0.3) weights x 8 points,
drawn in that order from ``numpy.random.default_rng(510)``.  Each cell puts
the power generator behind an opaque callable that counts its calls, runs
``psi_conjugate_eval`` at the start-lattice cap of the tests'
``SEARCH_GRIDS`` and compares the value with the closed form (the power
generator of the conjugate exponent at the same point).

Prints one JSON line per cell, then one summary line with the cells beyond
1e-12, the largest relative excess over the closed form and shortfall under
it, the total generator calls and, per arity, the largest call count and the
seconds of the search.  Exits 1 if any value lies more than 1e-12 relative
above or below the closed form, or if the generator calls of all cells
together exceed ``MAX_CALLS``.  Run from the repository root:

    PYTHONPATH=src python tools/conjugate_probe.py

It takes about half a minute on one core.
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
# The start-lattice caps of ``SEARCH_GRIDS`` in tests/test_psi_generators.py.
SEARCH_GRIDS = {2: 200, 3: 200, 4: 40, 5: 20, 6: 12, 7: 12, 8: 12}
RTOL = 1e-12
# The total generator calls of the search on these cells (561 005 when this
# gate was set) plus about 5%, so a change that makes the search costlier fails.
MAX_CALLS = 590_000


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


def main() -> int:
    rng = np.random.default_rng(510)
    beyond = 0
    excess = shortfall = 0.0
    calls = 0
    arities: dict[int, dict] = {}
    for n in ARITIES:
        grid = SEARCH_GRIDS[n]
        stats = arities.setdefault(n, {"max_calls": 0, "seconds": 0.0})
        for p in EXPONENTS:
            closed = PsiGenerator.power(conjugate_exponent(p))
            for alpha in CONCENTRATIONS:
                for s in rng.dirichlet(np.full(n, alpha), size=POINTS):
                    psi = Counted(p)
                    t0 = time.perf_counter()
                    value = psi_conjugate_eval(PsiGenerator.tabulated(psi, n), s, grid=grid)
                    stats["seconds"] += time.perf_counter() - t0
                    want = psi_eval(closed, s)
                    rel = (value - want) / want
                    ok = abs(rel) <= RTOL
                    beyond += not ok
                    excess, shortfall = max(excess, rel), max(shortfall, -rel)
                    calls += psi.calls
                    stats["max_calls"] = max(stats["max_calls"], psi.calls)
                    print(json.dumps({
                        "n": n,
                        "p": "inf" if p == math.inf else p,
                        "alpha": alpha,
                        "grid": grid,
                        "s": s.tolist(),
                        "value": value,
                        "closed": want,
                        "rel": rel,
                        "calls": psi.calls,
                        "ok": ok,
                    }), flush=True)
    print(json.dumps({
        "cells": len(ARITIES) * len(EXPONENTS) * len(CONCENTRATIONS) * POINTS,
        "beyond_1e-12": beyond,
        "worst_excess": excess,
        "worst_shortfall": shortfall,
        "calls": calls,
        "arities": {
            n: {"max_calls": a["max_calls"], "seconds": round(a["seconds"], 3)}
            for n, a in arities.items()
        },
    }))
    return 1 if beyond or calls > MAX_CALLS else 0


if __name__ == "__main__":
    sys.exit(main())
