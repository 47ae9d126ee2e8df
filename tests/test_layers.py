"""The package's import layering: each module builds only on the ones below it."""

import ast
from pathlib import Path

import normmin

# Bottom to top.  The power-family arithmetic lives in ground_norms, the
# objective and its bounds in problem, so no layer reaches up for them.
LAYERS = (
    "errors",
    "ground_norms",
    "psi_generators",
    "product_norms",
    "problem",
    "geometry",
    "certificates",
    "solution_sets",
    "solvers",
    "serialization",
    "examples",
    "cli",
)


def _relative_imports(path: Path) -> set[str]:
    """The package modules that ``path`` imports with ``from .x import`` or ``from . import x``."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                found.update(alias.name for alias in node.names)
            else:
                found.add(node.module.split(".")[0])
    return found


def test_modules_import_only_lower_layers():
    package = Path(normmin.__file__).parent
    assert {path.stem for path in package.glob("*.py")} - {"__init__"} == set(LAYERS)
    upward = {
        name: sorted(dep for dep in _relative_imports(package / f"{name}.py") if LAYERS.index(dep) >= rank)
        for rank, name in enumerate(LAYERS)
    }
    assert {name: deps for name, deps in upward.items() if deps} == {}
