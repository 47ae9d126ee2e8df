"""Compare two runs of tools/certify_grid.py cell by cell.

Prints one JSON line per grid: the cells whose ``converged`` flag or
certification at 1e-7 or 1e-9 changed, the count of values equal bit for
bit, and the worst relative rise of a value from OLD to NEW.  Exits 1 on
any status change, a cell missing from either run, or a rise above 1e-12.
Run from the repository root:

    python tools/compare_probe.py OLD.jsonl NEW.jsonl
"""

import json
import sys

KEY = ("grid", "ground", "p", "n", "d", "s", "move")


def cells(path):
    with open(path) as fh:
        lines = [json.loads(line) for line in fh]
    return {tuple(c.get(k) for k in KEY): c for c in lines if "grid" in c}


old, new = cells(sys.argv[1]), cells(sys.argv[2])
grids, bad = {}, old.keys() != new.keys()
for key in [k for k in old if k in new]:
    a, b = old[key], new[key]
    g = grids.setdefault(key[0], {"grid": key[0], "cells": 0, "changed": [], "bitwise_equal": 0, "worst_rise": 0.0})
    g["cells"] += 1
    if (a["converged"], a["1e-07"]["certified"], a["1e-09"]["certified"]) != (b["converged"], b["1e-07"]["certified"], b["1e-09"]["certified"]):
        g["changed"].append(key[1:])
    g["bitwise_equal"] += a["value"] == b["value"]
    g["worst_rise"] = max(g["worst_rise"], (b["value"] - a["value"]) / abs(a["value"]))
for g in grids.values():
    print(json.dumps(g))
    bad |= bool(g["changed"]) or g["worst_rise"] > 1e-12
sys.exit(1 if bad else 0)
