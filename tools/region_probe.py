"""Region probe: the block walk against the dense lattice walk on 1 125 cells.

The grid is grounds {Euclidean, p=3, p=1.5, sum, max} x power generators
p in {1, 1.5, 2, 3, inf} x d in {1, 2, 3} x seeds s in {0, ..., 14}.  A
cell draws 2 to 5 anchors from ``numpy.random.default_rng([d, s])`` times 2,
runs ``solve`` -> ``recover_certificate`` -> ``describe_solution_set`` and
samples a random box about the solution at a random tolerance in
{1e-7, 1e-4, 1e-2} and a random grid, and runs ``grid_oracle`` on the same
instance.  Every sixth cell samples a tabulated copy of its generator (the
same power generator behind an opaque callable) with the same certificate.
Each answer is compared bitwise with the dense walk over every lattice
point in tiles of whole first-axis layers, which the block walk replaced.

Prints one JSON line per cell, then one summary line with, per kind (the
description's predicate, or ``oracle``), the cells, the share of lattice
points the walk evaluated (block middle points and the points of the
blocks it kept), the seconds of the walk and of the dense walk (each the
lesser of two runs) and the mismatches, and the process's peak resident
set size.  Exits 1 if any answer differs from the dense walk's.  Run from
the repository root:

    PYTHONPATH=src python tools/region_probe.py

It takes under a minute on one core.
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
    describe_solution_set,
    grid_oracle,
    objective_eval_many,
    recover_certificate,
    sample_solution_region,
    solve,
    solve_bound,
)
from normmin import geometry, solution_sets, solvers

GROUNDS = {
    "euclidean": GroundNorm.euclidean(),
    "p3": GroundNorm.power(3.0),
    "p1.5": GroundNorm.power(1.5),
    "sum": GroundNorm.sum(),
    "max": GroundNorm.max(),
}
EXPONENTS = (1.0, 1.5, 2.0, 3.0, math.inf)
DIMS = (1, 2, 3)
SEEDS = range(15)
TOLS = (1e-7, 1e-4, 1e-2)
HALF_WIDTHS = (0.01, 0.3, 3.0)
# Lattices of at most a tile (8 192 points) are walked whole, unjudged.
SAMPLE_GRIDS = {1: (1, 2, 999, 9001, 20001), 2: (1, 2, 57, 101, 201), 3: (1, 2, 6, 23, 41)}
TABULATED_GRIDS = {1: (2, 999, 9001), 2: (2, 33, 101), 3: (2, 11, 23)}
ORACLE_GRIDS = {1: (1, 2, 999, 20001), 2: (1, 2, 57, 201), 3: (1, 2, 23, 41)}
COUNTS = ("cells", "lattice", "evaluated", "walk_s", "dense_s", "mismatches")


def dense_tiles(axes):
    step = max(1, geometry._TILE_POINTS // math.prod(a.size for a in axes[1:]))
    for i in range(0, axes[0].size, step):
        mesh = np.meshgrid(axes[0][i : i + step], *axes[1:], indexing="ij", copy=False)
        yield np.stack(mesh).reshape(len(axes), -1).T


def dense_sample(desc, box, grid, tol):
    kernel = solution_sets._KERNELS[desc.kind]
    axes = [np.linspace(lo, hi, grid) for lo, hi in box]
    return np.concatenate([pts[kernel(desc, pts, tol)] for pts in dense_tiles(axes)])


def dense_oracle(prob, grid):
    radius = solve_bound(prob).radius
    if grid == 1:
        axes = [np.array([c]) for c in prob.centroid()]
    else:
        axes = [np.linspace(-radius, radius, grid) for _ in range(prob.dim)]
    pts = list(dense_tiles(axes))
    vals = np.concatenate([objective_eval_many(prob, t) for t in pts])
    value = float(vals.min())
    return value, np.concatenate(pts)[vals <= value + solvers._NEAR_MIN_SLACK]


class Counted:
    """The lattice walk, counting the points it evaluates."""

    def __init__(self):
        self.points = 0
        self.walk = geometry._lattice_walk

    def __call__(self, axes, judge):
        def counted(centers, radii):
            self.points += len(centers)
            return judge(centers, radii)

        for pts in self.walk(axes, counted):
            self.points += len(pts)
            yield pts


def tabulated_copy(p: float, n: int) -> PsiGenerator:
    if p == math.inf:
        return PsiGenerator.tabulated(lambda t: float(np.max(t)), n, symmetric=True)
    return PsiGenerator.tabulated(
        lambda t: float(np.sum(np.asarray(t) ** p) ** (1.0 / p)), n, symmetric=True
    )


def timed(f):
    """The answer of ``f`` and the lesser of two timed runs."""
    seconds = []
    for _ in range(2):
        t0 = time.perf_counter()
        out = f()
        seconds.append(time.perf_counter() - t0)
    return out, min(seconds)


def run_cell(ground: str, p: float, d: int, s: int, counter: Counted) -> list[dict]:
    rng = np.random.default_rng([d, s])
    n = int(rng.integers(2, 6))
    anchors = rng.normal(size=(n, d)) * 2
    prob = ProblemInstance(anchors, ProductNorm(GROUNDS[ground], PsiGenerator.power(p)))
    tag = {"ground": ground, "p": "inf" if p == math.inf else p, "n": n, "d": d, "s": s}
    cert = recover_certificate(prob, solve(prob).point)
    if not isinstance(cert, Certificate):
        return [{**tag, "kind": None, "reason": cert.reason}]
    desc = describe_solution_set(prob, cert)
    tabulated = s % 6 == 5
    if tabulated:
        copy = ProblemInstance(anchors, ProductNorm(GROUNDS[ground], tabulated_copy(p, n)))
        desc = describe_solution_set(copy, cert, tol=1e-6)
    tol = float(rng.choice(TOLS))
    half = rng.choice(HALF_WIDTHS) * rng.random(d)
    box = np.stack([cert.solution - half, cert.solution + half], axis=1)
    grid = int(rng.choice((TABULATED_GRIDS if tabulated else SAMPLE_GRIDS)[d]))
    counter.points = 0
    got, walk_s = timed(lambda: sample_solution_region(desc, box, grid, tol))
    evaluated = counter.points // 2
    want, dense_s = timed(lambda: dense_sample(desc, box, grid, tol))
    cells = [{
        **tag,
        "kind": desc.kind,
        "tabulated": tabulated,
        "tol": tol,
        "grid": grid,
        "lattice": grid**d,
        "evaluated": evaluated,
        "accepted": len(want),
        "walk_s": round(walk_s, 5),
        "dense_s": round(dense_s, 5),
        "match": got.shape == want.shape and bool(np.array_equal(got, want)),
    }]
    grid = int(rng.choice(ORACLE_GRIDS[d]))
    counter.points = 0
    got, walk_s = timed(lambda: grid_oracle(prob, grid))
    evaluated = counter.points // 2
    (value, argmin), dense_s = timed(lambda: dense_oracle(prob, grid))
    cells.append({
        **tag,
        "kind": "oracle",
        "grid": grid,
        "lattice": grid**d,
        "evaluated": evaluated,
        "accepted": len(argmin),
        "walk_s": round(walk_s, 5),
        "dense_s": round(dense_s, 5),
        "match": got.value == value and bool(np.array_equal(got.argmin, argmin)),
    })
    return cells


def main() -> int:
    counter = Counted()
    solution_sets._lattice_walk = solvers._lattice_walk = counter
    kinds: dict[str, dict] = {}
    skipped = 0
    for ground in GROUNDS:
        for p in EXPONENTS:
            for d in DIMS:
                for s in SEEDS:
                    for cell in run_cell(ground, p, d, s, counter):
                        print(json.dumps(cell), flush=True)
                        if cell["kind"] is None:
                            skipped += 1
                            continue
                        k = kinds.setdefault(cell["kind"], dict.fromkeys(COUNTS, 0))
                        k["cells"] += 1
                        k["mismatches"] += not cell["match"]
                        for key in ("lattice", "evaluated", "walk_s", "dense_s"):
                            k[key] += cell[key]
    summary = {
        kind: {
            "cells": k["cells"],
            "evaluated_share": round(k["evaluated"] / k["lattice"], 4),
            "walk_s": round(k["walk_s"], 3),
            "dense_s": round(k["dense_s"], 3),
            "mismatches": k["mismatches"],
        }
        for kind, k in sorted(kinds.items())
    }
    mismatches = sum(k["mismatches"] for k in kinds.values())
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({
        "cells": sum(k["cells"] for k in kinds.values()),
        "unrecovered": skipped,
        "mismatches": mismatches,
        "kinds": summary,
        "peak_rss_mb": round(peak_mb, 1),
    }))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
