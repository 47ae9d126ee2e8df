"""JSON interchange for instances, certificates, and results.

The on-disk schema mirrors the constructors: a ground norm is a kind plus an
optional exponent, a generator is a kind plus an exponent (the string
``"inf"`` stands for the max generator, since JSON has no infinity literal),
and an instance bundles anchors with both.  Tabulated generators are stored
as a built-in source formula; on load the formula becomes the generator's
callable, which is evaluated a batch of rows at a time and written back as
the same formula.

Dumping is deterministic: keys keep insertion order and floats are written
with 17 significant digits, enough to round-trip bit-for-bit.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import InputFormatError, NormMinError
from .ground_norms import GroundNorm
from .psi_generators import PsiGenerator, _Formula

if TYPE_CHECKING:
    from .certificates import Certificate
    from .problem import ProblemInstance

_GROUND_KINDS = ("sum", "max", "euclidean", "p")


# ---------------------------------------------------------------------------
# Deterministic dumping
# ---------------------------------------------------------------------------


def _format_float(v: float) -> str:
    if math.isnan(v) or math.isinf(v):
        raise InputFormatError("number", "cannot serialize non-finite numbers")
    text = format(v, ".17g")
    # ".17g" can emit bare integers; keep them valid JSON as they are.
    return text


def _emit(obj, indent: int) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [
            f"{inner}{json.dumps(str(k))}: {_emit(v, indent + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        flat = all(isinstance(v, (int, float, str, bool)) for v in obj)
        if flat:
            return "[" + ", ".join(_emit(v, indent + 1) for v in obj) + "]"
        parts = [f"{inner}{_emit(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise InputFormatError("value", f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    """Deterministic JSON text with a trailing newline."""
    return _emit(obj, 0) + "\n"


def dump_path(obj, path) -> None:
    Path(path).write_text(dumps(obj), encoding="utf-8")


def load_path(path) -> dict:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise InputFormatError(str(path), f"cannot read file: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFormatError(str(path), f"invalid JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# Schema helpers
# ---------------------------------------------------------------------------


def _require(obj: dict, key: str, field: str):
    if not isinstance(obj, dict):
        raise InputFormatError(field, "expected an object")
    if key not in obj:
        raise InputFormatError(f"{field}.{key}", "missing")
    return obj[key]


def _as_matrix(raw, field: str) -> np.ndarray:
    try:
        a = np.asarray(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputFormatError(field, f"expected numeric rows: {exc}") from exc
    if a.ndim != 2:
        raise InputFormatError(field, "expected a list of equal-length rows")
    return a


def _as_vector_field(raw, field: str) -> np.ndarray:
    try:
        a = np.asarray(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputFormatError(field, f"expected numbers: {exc}") from exc
    if a.ndim != 1:
        raise InputFormatError(field, "expected a flat list of numbers")
    return a


def _parse_exponent(raw, field: str) -> float:
    if isinstance(raw, str):
        if raw.strip().lower() in ("inf", "infinity"):
            return math.inf
        raise InputFormatError(field, f"unrecognized exponent {raw!r}")
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise InputFormatError(field, "exponent must be a number or 'inf'")
    return float(raw)


def _exponent_json(p: float):
    return "inf" if p == math.inf else float(p)


def ground_norm_to_json(nrm: GroundNorm) -> dict:
    out = {"kind": nrm.kind}
    if nrm.kind == "p":
        out["p"] = float(nrm.p)
    return out


def ground_norm_from_json(obj, field: str = "ground") -> GroundNorm:
    kind = _require(obj, "kind", field)
    if kind not in _GROUND_KINDS:
        raise InputFormatError(f"{field}.kind", f"unknown ground kind {kind!r}")
    try:
        if kind == "p":
            return GroundNorm.power(_parse_exponent(_require(obj, "p", field), f"{field}.p"))
        return getattr(GroundNorm, kind)()
    except NormMinError as exc:
        if isinstance(exc, InputFormatError):
            raise
        raise InputFormatError(field, str(exc)) from exc


def generator_to_json(gen: PsiGenerator) -> dict:
    if gen.kind == "p":
        return {"kind": "p", "p": _exponent_json(gen.p)}
    if not isinstance(gen.func, _Formula):
        raise InputFormatError(
            "generator", "only tabulated generators built from a formula serialize"
        )
    return {"kind": "tabulated", "arity": gen.arity, "source": generator_to_json(gen.func.base)}


def generator_from_json(obj, field: str = "generator") -> PsiGenerator:
    kind = _require(obj, "kind", field)
    try:
        if kind == "p":
            return PsiGenerator.power(_parse_exponent(_require(obj, "p", field), f"{field}.p"))
        if kind == "tabulated":
            arity = _require(obj, "arity", field)
            if not isinstance(arity, int) or isinstance(arity, bool):
                raise InputFormatError(f"{field}.arity", "must be an integer")
            source = _require(obj, "source", field)
            base = generator_from_json(source, field=f"{field}.source")
            if base.kind != "p":
                raise InputFormatError(
                    f"{field}.source", "tabulated source must be a built-in generator"
                )
            return PsiGenerator.tabulated(_Formula(base), arity=arity, symmetric=True)
    except NormMinError as exc:
        if isinstance(exc, InputFormatError):
            raise
        raise InputFormatError(field, str(exc)) from exc
    raise InputFormatError(f"{field}.kind", f"unknown generator kind {kind!r}")


def instance_to_json(prob: ProblemInstance) -> dict:
    return {
        "anchors": [[float(v) for v in row] for row in prob.anchors],
        "ground": ground_norm_to_json(prob.norm.ground),
        "generator": generator_to_json(prob.norm.generator),
    }


def instance_from_json(obj, field: str = "instance") -> ProblemInstance:
    # Imported here so that a command reading only generators (validate-psi)
    # loads no instance layers.
    from .problem import ProblemInstance
    from .product_norms import ProductNorm

    anchors = _as_matrix(_require(obj, "anchors", field), f"{field}.anchors")
    ground = ground_norm_from_json(_require(obj, "ground", field), f"{field}.ground")
    gen = generator_from_json(_require(obj, "generator", field), f"{field}.generator")
    try:
        return ProblemInstance(anchors=anchors, norm=ProductNorm(ground, gen))
    except NormMinError as exc:
        if isinstance(exc, InputFormatError):
            raise
        raise InputFormatError(field, str(exc)) from exc


def certificate_to_json(cert: Certificate) -> dict:
    return {
        "solution": [float(v) for v in cert.solution],
        "duals": [[float(v) for v in row] for row in cert.duals],
    }


def certificate_from_json(obj, field: str = "certificate") -> Certificate:
    from .certificates import Certificate

    solution = _as_vector_field(_require(obj, "solution", field), f"{field}.solution")
    duals = _as_matrix(_require(obj, "duals", field), f"{field}.duals")
    try:
        return Certificate(solution=solution, duals=duals)
    except NormMinError as exc:
        raise InputFormatError(field, str(exc)) from exc


def parse_box(text: str, dim: int) -> np.ndarray:
    """Parse ``x0,x1,y0,y1,...`` into one (low, high) pair per coordinate."""
    try:
        vals = [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise InputFormatError("--box", f"expected numbers: {exc}") from exc
    if len(vals) != 2 * dim:
        raise InputFormatError(
            "--box", f"expected {2 * dim} comma-separated numbers, got {len(vals)}"
        )
    if not all(math.isfinite(v) for v in vals):
        raise InputFormatError("--box", "bounds must be finite")
    return np.asarray(vals, dtype=float).reshape(dim, 2)


# ---------------------------------------------------------------------------
# CSV and SVG region output
# ---------------------------------------------------------------------------


def region_csv(points: np.ndarray, dim: int) -> str:
    """Accepted lattice points, one row each, with a trailing member flag."""
    if dim == 2:
        header = "x,y,member"
    else:
        header = ",".join(f"x{i}" for i in range(dim)) + ",member"
    lines = [header]
    for row in np.asarray(points, dtype=float).reshape(-1, dim):
        lines.append(",".join(_format_float(float(v)) for v in row) + ",1")
    return "\n".join(lines) + "\n"


def region_svg(points: np.ndarray, anchors: np.ndarray, box: np.ndarray, grid: int) -> str:
    """Static plot: accepted cells as squares, anchors as circles.

    Output is a pure function of the inputs; the y axis points up.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    (x0, x1), (y0, y1) = box
    width = max(x1 - x0, 1e-9)
    height = max(y1 - y0, 1e-9)
    size = 640.0
    scale = size / max(width, height)
    cell = (width / max(grid - 1, 1)) * scale

    def sx(x):
        return (x - x0) * scale

    def sy(y):
        return (y1 - y) * scale

    out = [
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{width * scale:.2f}" height="{height * scale:.2f}" '
        f'viewBox="0 0 {width * scale:.2f} {height * scale:.2f}">',
        f'<rect width="{width * scale:.2f}" height="{height * scale:.2f}" fill="white"/>',
    ]
    half = cell / 2.0
    for x, y in pts:
        out.append(
            f'<rect x="{sx(x) - half:.3f}" y="{sy(y) - half:.3f}" '
            f'width="{cell:.3f}" height="{cell:.3f}" fill="#4a90d9" fill-opacity="0.6"/>'
        )
    for x, y in np.asarray(anchors, dtype=float):
        out.append(f'<circle cx="{sx(x):.3f}" cy="{sy(y):.3f}" r="4" fill="black"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
