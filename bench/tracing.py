"""Runtime tracing of normmin's layers, installed from outside the package.

``Tracer.install`` replaces, in every normmin module's namespace, each
function that the module imported from another normmin module by a wrapper
that records a span (layer, name, start, end, parent).  It also wraps the
package-level entry points, the public functions of ``serialization`` (which
the command line reaches through the module object), and the library calls
the program makes at call time: ``scipy.optimize.minimize``,
``scipy.optimize.linprog`` and ``numpy.linalg.lstsq``.  No file of the
program changes, and ``uninstall`` restores every replaced attribute.

Spans live in memory and are written out when the run ends.  A layer's self
time is the duration of its spans minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from collections import defaultdict

import numpy as np

MODULES = (
    "ground_norms",
    "psi_generators",
    "product_norms",
    "problem",
    "geometry",
    "solvers",
    "certificates",
    "solution_sets",
    "serialization",
    "examples",
    "cli",
)

# Per-layer metrics reported by the traced run, with their units.
PER_LAYER = {
    "problem.self_s": "s",
    "problem.objective_points": "count",
    "problem.subgradient_calls": "count",
    "product_norms.self_s": "s",
    "product_norms.rows": "count",
    "ground_norms.self_s": "s",
    "ground_norms.rows": "count",
    "solvers.self_s": "s",
    "solvers.iterations": "count",
    "solvers.refine_s": "s",
    "solvers.refine_nfev": "count",
    "solvers.grid_points": "count",
    "geometry.hull_s": "s",
    "geometry.lstsq_calls": "count",
    "certificates.recover_s": "s",
    "certificates.lp_s": "s",
    "certificates.lp_calls": "count",
    "certificates.check_s": "s",
    "psi_generators.self_s": "s",
    "psi_generators.psi_calls": "count",
    "solution_sets.self_s": "s",
    "solution_sets.points": "count",
    "solution_sets.accepted": "count",
    "serialization.self_s": "s",
    "serialization.bytes_out": "bytes",
    "examples.run_case_s": "s",
    "cli.import_s": "s",
    "cli.solve_s": "s",
    "cli.certify_s": "s",
    "cli.recover_s": "s",
    "cli.describe_s": "s",
    "cli.sample_s": "s",
    "cli.validate-psi_s": "s",
    "cli.reproduce-examples_s": "s",
}

_SELF_LAYERS = (
    "problem",
    "product_norms",
    "ground_norms",
    "solvers",
    "psi_generators",
    "solution_sets",
    "serialization",
)

# Inclusive (not self) durations: metric -> span names.
_INCLUSIVE = {
    "solvers.refine_s": ("scipy.minimize",),
    "geometry.hull_s": ("geometry.project_onto_convex_hull",),
    "certificates.recover_s": ("certificates.recover_certificate",),
    "certificates.lp_s": ("scipy.linprog",),
    "certificates.check_s": (
        "certificates.check_certificate",
        "certificates.check_general",
        "certificates.check_fermat_torricelli",
        "certificates.check_chebyshev",
        "certificates.check_p_fermat",
    ),
    "examples.run_case_s": ("examples.run_case",),
}


def _rows(a) -> int:
    shape = np.shape(a)
    return int(math.prod(shape[:-1])) if len(shape) >= 1 else 1


# Counters taken from a wrapped call: span name -> fn(args, kwargs, result).
_COUNTERS = {
    "problem.objective_eval": lambda a, k, out: {"problem.objective_points": 1},
    "problem.objective_eval_many": lambda a, k, out: {
        "problem.objective_points": int(np.shape(a[1])[0])
    },
    "problem.objective_subgradient": lambda a, k, out: {"problem.subgradient_calls": 1},
    "product_norms.product_norm_from_block_norms": lambda a, k, out: {
        "product_norms.rows": 1
    },
    "product_norms._from_block_norms_many": lambda a, k, out: {
        "product_norms.rows": _rows(a[1])
    },
    "ground_norms.ground_norm_eval": lambda a, k, out: {"ground_norms.rows": 1},
    "ground_norms.ground_norm_eval_many": lambda a, k, out: {
        "ground_norms.rows": _rows(a[1])
    },
    "solvers.solve_subgradient": lambda a, k, out: {"solvers.iterations": out.iterations},
    "solvers.solve_pattern_search": lambda a, k, out: {
        "solvers.iterations": out.iterations
    },
    "solvers.grid_oracle": lambda a, k, out: {
        "solvers.grid_points": int(a[1]) ** int(a[0].dim)
    },
    "solution_sets.sample_solution_region": lambda a, k, out: {
        "solution_sets.points": int(a[2]) ** int(a[0].instance.dim),
        "solution_sets.accepted": int(out.shape[0]),
    },
    "scipy.minimize": lambda a, k, out: {"solvers.refine_nfev": int(out.nfev)},
    "scipy.linprog": lambda a, k, out: {"certificates.lp_calls": 1},
    "serialization.dumps": lambda a, k, out: {"serialization.bytes_out": len(out)},
    "serialization.region_csv": lambda a, k, out: {"serialization.bytes_out": len(out)},
    "serialization.region_svg": lambda a, k, out: {"serialization.bytes_out": len(out)},
}


class Tracer:
    """Span recorder; one per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # span rows: name id, start, end, parent row (-1 at top), op index
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self.op_index = -1

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        counter = _COUNTERS.get(name)
        spans = self.spans
        stack = self._stack
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            row = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(row)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[row] = (nid, start, end, parent, self.op_index)
            if counter is not None:
                for key, value in counter(args, kwargs, out).items():
                    counts[key] += value
            return out

        wrapper.__wrapped_by_bench__ = True
        return wrapper

    # -- installation ----------------------------------------------------------

    def _patch(self, owner, attr: str, name: str) -> None:
        orig = getattr(owner, attr)
        if getattr(orig, "__wrapped_by_bench__", False):
            return
        self._patched.append((owner, attr, orig))
        setattr(owner, attr, self.wrap(name, orig))

    def install(self) -> None:
        import normmin

        mods = {m: importlib.import_module(f"normmin.{m}") for m in MODULES}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                origin = getattr(obj, "__module__", "") or ""
                if (
                    callable(obj)
                    and not isinstance(obj, type)
                    and origin.startswith("normmin.")
                    and origin != mod.__name__
                ):
                    self._patch(mod, attr, f"{origin[8:]}.{obj.__name__}")
        for attr, obj in list(vars(normmin).items()):
            origin = getattr(obj, "__module__", "") or ""
            if callable(obj) and not isinstance(obj, type) and origin.startswith("normmin."):
                self._patch(normmin, attr, f"{origin[8:]}.{obj.__name__}")
        ser = mods["serialization"]
        for attr in ("dumps", "dump_path", "region_csv", "region_svg", "load_path"):
            self._patch(ser, attr, f"serialization.{attr}")
        import scipy.optimize

        self._patch(scipy.optimize, "minimize", "scipy.minimize")
        self._patch(scipy.optimize, "linprog", "scipy.linprog")
        lstsq = np.linalg.lstsq
        counts = self.counts

        def counted_lstsq(*args, **kwargs):
            counts["geometry.lstsq_calls"] += 1
            return lstsq(*args, **kwargs)

        counted_lstsq.__wrapped_by_bench__ = True
        self._patched.append((np.linalg, "lstsq", lstsq))
        np.linalg.lstsq = counted_lstsq

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    # -- reduction -------------------------------------------------------------

    def save(self, path) -> None:
        np.savez_compressed(
            path, spans=np.array(self.spans, dtype=float).reshape(-1, 5), names=np.array(self.names)
        )

    def layer_totals(self, factors: list[float]) -> dict[str, float]:
        """Normalized self time per layer and inclusive time of named spans.

        ``factors[i]`` is the normalization factor of operation ``i``; spans
        recorded outside an operation keep their raw duration.
        """
        child = np.zeros(len(self.spans))
        for nid, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_by_layer: dict[str, float] = defaultdict(float)
        incl_by_name: dict[str, float] = defaultdict(float)
        for row, (nid, start, end, parent, op) in enumerate(self.spans):
            name = self.names[nid]
            factor = factors[op] if 0 <= op < len(factors) else 1.0
            self_by_layer[name.split(".", 1)[0]] += (end - start - child[row]) * factor
            incl_by_name[name] += (end - start) * factor
        out = {f"{layer}.self_s": self_by_layer.get(layer, 0.0) for layer in _SELF_LAYERS}
        for metric, names in _INCLUSIVE.items():
            out[metric] = sum(incl_by_name.get(n, 0.0) for n in names)
        return out


def merge_child(totals: dict, counts: dict, child: dict) -> None:
    """Add one traced command-line child's totals and counts into the run's."""
    for key, value in child["totals"].items():
        totals[key] = totals.get(key, 0.0) + value
    for key, value in child["counts"].items():
        counts[key] = counts.get(key, 0) + value
