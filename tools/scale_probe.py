"""Scale probe: solve and certify thousands of anchors on every built-in ground.

The cells are grounds {sum, max, Euclidean, p=3} x power generators
p in {1, 2, inf} x n in {1 024, 4 096} anchors, in dimension d = 10.  The
anchors of a cell are
``numpy.random.default_rng(1000 n + 10 d).normal(size=(n, d)) * 2``.  Each
cell runs ``solve_subgradient`` and then ``recover_certificate`` at the point
it returns, at tolerances 1e-7 and 1e-9.

Prints one JSON line per cell (its value, whether the solve converged, the
seconds of the solve and of the recoveries, and, per tolerance, whether the
recovery certified, with the reason and residual when it did not), then one
summary line with the cell count, the uncertified cells per tolerance, the
unconverged cells, the seconds per phase and the process's peak resident
set size.  Exits 1 if any cell fails to certify at either tolerance or
reports ``converged=False``, or if the peak resident set reaches
``MAX_RSS_MB``.  Run from the repository root:

    PYTHONPATH=src python tools/scale_probe.py

It takes about ten seconds on two cores, most of it in the sum-ground
p = inf linear program.  n = 16 384 is left out: there that program (one
sparse HiGHS solve over ``n d`` coordinate bounds) took 49 s and peaked at
563 MB, above the probe's memory bound.
"""

from __future__ import annotations

import json
import math
import resource
import sys
import time

import numpy as np
# Imported here so that the first cell to call SLSQP or HiGHS does not count
# scipy's import in its solve time.
import scipy.optimize  # noqa: F401

from normmin import (
    Certificate,
    GroundNorm,
    ProblemInstance,
    ProductNorm,
    PsiGenerator,
    recover_certificate,
    solve_subgradient,
)

GROUNDS = {
    "sum": GroundNorm.sum(),
    "max": GroundNorm.max(),
    "euclidean": GroundNorm.euclidean(),
    "p3": GroundNorm.power(3.0),
}
EXPONENTS = (1.0, 2.0, math.inf)
SIZES = (1024, 4096)
DIM = 10
TOLS = (1e-7, 1e-9)
MAX_RSS_MB = 500.0


def run_cell(ground: str, p: float, n: int) -> dict:
    anchors = np.random.default_rng(1000 * n + 10 * DIM).normal(size=(n, DIM)) * 2
    prob = ProblemInstance(anchors, ProductNorm(GROUNDS[ground], PsiGenerator.power(p)))
    t0 = time.perf_counter()
    res = solve_subgradient(prob)
    t1 = time.perf_counter()
    cell = {
        "ground": ground,
        "p": "inf" if p == math.inf else p,
        "n": n,
        "d": DIM,
        "value": res.value,
        "converged": res.converged,
        "solve_s": round(t1 - t0, 4),
    }
    for tol in TOLS:
        got = recover_certificate(prob, res.point, tol=tol)
        outcome = {"certified": isinstance(got, Certificate)}
        if not outcome["certified"]:
            outcome.update(reason=got.reason, residual=got.residual)
        cell[f"{tol:.0e}"] = outcome
    cell["recover_s"] = round(time.perf_counter() - t1, 4)
    return cell


def main() -> int:
    cells = not_converged = 0
    uncertified = {f"{tol:.0e}": 0 for tol in TOLS}
    seconds = {"solve_s": 0.0, "recover_s": 0.0}
    for ground in GROUNDS:
        for p in EXPONENTS:
            for n in SIZES:
                cell = run_cell(ground, p, n)
                print(json.dumps(cell), flush=True)
                cells += 1
                for key in uncertified:
                    uncertified[key] += not cell[key]["certified"]
                not_converged += not cell["converged"]
                for key in seconds:
                    seconds[key] += cell[key]
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({
        "cells": cells,
        "uncertified": uncertified,
        "not_converged": not_converged,
        **{key: round(t, 3) for key, t in seconds.items()},
        "peak_rss_mb": round(peak_mb, 1),
    }))
    return 1 if any(uncertified.values()) or not_converged or peak_mb >= MAX_RSS_MB else 0


if __name__ == "__main__":
    sys.exit(main())
