"""Certification probe: solve and recover a certificate on a 1 200-cell grid.

The grid is grounds {Euclidean, p=3, p=1.5, sum, max} x power generators
p in {1, 1.5, 2, 3, inf} x n in {4, 13, 64, 256} anchors x d in {1, 2, 3, 10}
x seeds s in {0, 1, 2}.  The anchors of a cell are
``numpy.random.default_rng(1000 n + 10 d + s).normal(size=(n, d)) * 2``.
Each cell runs ``solve_subgradient`` and then ``recover_certificate`` at the
point it returns, at tolerances 1e-7 and 1e-9, and records, per tolerance,
the ``check_certificate`` residuals of each recovered certificate, or the
reason and residual of an ``Infeasible`` outcome.

Prints one JSON line per cell, then one summary line with the cell count,
the failures at each tolerance, the cells whose solve reports
``converged=False``, the seconds spent in ``recover_certificate`` per ground
(both tolerances together) and the process's peak resident set size.  Exits
1 if any cell fails to certify at either tolerance or reports
``converged=False``.
Run from the repository root:

    PYTHONPATH=src python tools/certify_grid.py

It takes under a minute on two cores, most of it in the solves.  Two runs
whose cell lines agree once the ``*_s`` timing fields are dropped computed
the same reports bit for bit, since JSON floats round-trip exactly.
"""

from __future__ import annotations

import json
import math
import resource
import sys
import time

import numpy as np

from normmin import (
    Certificate,
    GroundNorm,
    ProblemInstance,
    ProductNorm,
    PsiGenerator,
    check_certificate,
    recover_certificate,
    solve_subgradient,
)

GROUNDS = {
    "euclidean": GroundNorm.euclidean(),
    "p3": GroundNorm.power(3.0),
    "p1.5": GroundNorm.power(1.5),
    "sum": GroundNorm.sum(),
    "max": GroundNorm.max(),
}
EXPONENTS = (1.0, 1.5, 2.0, 3.0, math.inf)
SIZES = (4, 13, 64, 256)
DIMS = (1, 2, 3, 10)
SEEDS = (0, 1, 2)
TOLS = (1e-7, 1e-9)


def outcome(prob: ProblemInstance, point: np.ndarray, tol: float) -> dict:
    got = recover_certificate(prob, point, tol=tol)
    if isinstance(got, Certificate):
        return {"certified": True, "residuals": check_certificate(prob, got, tol=tol).residuals}
    return {"certified": False, "reason": got.reason, "residual": got.residual}


def run_cell(ground: str, p: float, n: int, d: int, s: int) -> tuple[dict, float]:
    """The cell's JSON record and its seconds in ``recover_certificate``."""
    anchors = np.random.default_rng(1000 * n + 10 * d + s).normal(size=(n, d)) * 2
    prob = ProblemInstance(anchors, ProductNorm(GROUNDS[ground], PsiGenerator.power(p)))
    t0 = time.perf_counter()
    res = solve_subgradient(prob)
    t1 = time.perf_counter()
    cell = {
        "ground": ground,
        "p": "inf" if p == math.inf else p,
        "n": n,
        "d": d,
        "s": s,
        "converged": res.converged,
        "value": res.value,
        "solve_s": round(t1 - t0, 4),
    }
    recover_s = 0.0
    for tol in TOLS:
        t0 = time.perf_counter()
        cell[f"{tol:.0e}"] = outcome(prob, res.point, tol)
        dt = time.perf_counter() - t0
        cell[f"recover_{tol:.0e}_s"] = round(dt, 4)
        recover_s += dt
    return cell, recover_s


def main() -> int:
    failures = {f"{tol:.0e}": 0 for tol in TOLS}
    cells = not_converged = 0
    recover_s = dict.fromkeys(GROUNDS, 0.0)
    for ground in GROUNDS:
        for p in EXPONENTS:
            for n in SIZES:
                for d in DIMS:
                    for s in SEEDS:
                        cell, seconds = run_cell(ground, p, n, d, s)
                        print(json.dumps(cell), flush=True)
                        cells += 1
                        not_converged += not cell["converged"]
                        recover_s[ground] += seconds
                        for key in failures:
                            failures[key] += not cell[key]["certified"]
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({
        "cells": cells,
        "failures": failures,
        "not_converged": not_converged,
        "recover_s": {g: round(t, 3) for g, t in recover_s.items()},
        "peak_rss_mb": round(peak_mb, 1),
    }))
    return 1 if any(failures.values()) or not_converged else 0


if __name__ == "__main__":
    sys.exit(main())
