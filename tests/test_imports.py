"""What importing the package and running each subcommand loads.

Each check runs in a fresh interpreter, since the test process has long since
loaded every module.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import normmin
from normmin import dumps

SRC = str(Path(normmin.__file__).resolve().parents[1])
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))

# The public names, by defining module.
EXPORTS = {
    "certificates": [
        "CHEBYSHEV", "FERMAT_TORRICELLI", "GENERAL", "P_FERMAT", "Certificate",
        "CertificateReport", "Infeasible", "check_certificate", "check_chebyshev",
        "check_fermat_torricelli", "check_general", "check_p_fermat", "matching_theorem",
        "recover_certificate",
    ],
    "errors": [
        "ArityMismatchError", "BudgetExceededError", "ContractError", "DimensionMismatchError",
        "InputFormatError", "InvalidInputError", "MembershipViolationError", "NormMinError",
        "UnsupportedGeneratorError",
    ],
    "examples": ["CaseResult", "ExampleCase", "all_cases", "find_cases", "run_case"],
    "geometry": ["affine_hull_basis", "hull_distance", "project_onto_convex_hull"],
    "ground_norms": [
        "BoxCone", "CoordinateCone", "GroundNorm", "Ray", "WholeSpace", "alignment_ray_basis",
        "alignment_set_contains", "conjugate_exponent", "dual_ground_norm", "ground_norm_eval",
        "ground_norm_eval_many", "norm_subdifferential_contains",
    ],
    "problem": [
        "ProblemInstance", "SolveBound", "dual_selection", "lipschitz_bound", "objective_eval",
        "objective_eval_many", "objective_subgradient", "solve_bound", "strict_convexity_class",
    ],
    "product_norms": [
        "EqualityReport", "ProductNorm", "block_norms", "dual_block_norms",
        "dual_product_norm_eval", "equality_case_check", "holder_gap", "pairing",
        "product_norm_eval", "product_norm_from_block_norms",
    ],
    "psi_generators": [
        "PsiGenerator", "ValidationReport", "dual_norm_from_block_norms", "psi_conjugate_eval",
        "psi_conjugate_generator", "psi_eval", "psi_eval_many", "psi_min_symmetric",
        "psi_sandwich_bounds", "validate_psi",
    ],
    "serialization": [
        "certificate_from_json", "certificate_to_json", "dump_path", "dumps",
        "generator_from_json", "generator_to_json", "ground_norm_from_json",
        "ground_norm_to_json", "instance_from_json", "instance_to_json", "load_path",
        "parse_box", "region_csv", "region_svg",
    ],
    "solution_sets": [
        "SolutionSetDescription", "describe_solution_set", "sample_solution_region",
        "sol_contains_chebyshev", "sol_contains_ft", "sol_contains_general", "sol_contains_pft",
        "solution_set_contains",
    ],
    "solvers": [
        "GridOracleResult", "SolveResult", "SolverConfig", "grid_oracle", "midpoint_shortcut",
        "solve", "solve_pattern_search", "solve_subgradient",
    ],
}

# Modules each subcommand loads besides the package itself.
_FRONT = {"errors", "serialization", "ground_norms", "psi_generators"}
_INSTANCE = _FRONT | {"problem", "product_norms", "geometry"}
_DESCRIBE = _INSTANCE | {"certificates", "solution_sets"}
LOADS = {
    "validate-psi": _FRONT,
    "solve": _INSTANCE | {"solvers"},
    "certify": _INSTANCE | {"certificates"},
    "recover": _INSTANCE | {"certificates"},
    "describe": _DESCRIBE,
    "sample": _DESCRIBE,
    "reproduce-examples": _DESCRIBE | {"solvers", "examples"},
}

PROBLEM = {
    "anchors": [[0.0, 0.0], [2.0, 0.0]],
    "ground": {"kind": "max"},
    "generator": {"kind": "p", "p": 1.0},
}
CERTIFICATE = {"solution": [1.0, 0.0], "duals": [[1.0, 0.0], [-1.0, 0.0]]}


def _python(*args, cwd=None):
    done = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, cwd=cwd, env=ENV, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done


def _loaded(script: str) -> list[str]:
    """The lines a fresh interpreter prints after running ``script``."""
    return _python("-c", script).stdout.splitlines()


def test_importing_the_package_loads_no_module():
    out = _loaded(
        "import sys, normmin\n"
        "print(sorted(m for m in sys.modules if m.startswith('normmin.')))\n"
        "from normmin import serialization\n"
        "print(sorted(m for m in sys.modules if m.startswith('normmin.')))\n"
    )
    assert out == ["[]", str(sorted(f"normmin.{m}" for m in LOADS["validate-psi"]))]


def test_first_access_binds_every_export():
    out = _loaded(
        "import sys, normmin\n"
        "normmin.GroundNorm\n"
        "print(sorted(set(normmin.__all__) - set(vars(normmin))))\n"
        "print(len([m for m in sys.modules if m.startswith('normmin.')]))\n"
    )
    assert out == ["[]", str(len(EXPORTS))]


def test_exports_are_frozen_and_are_their_modules_objects():
    assert normmin.__all__ == [name for names in EXPORTS.values() for name in names]
    for module, names in EXPORTS.items():
        mod = importlib.import_module(f"normmin.{module}")
        for name in names:
            assert getattr(normmin, name) is getattr(mod, name), name
    assert not hasattr(normmin, "no_such_name")
    with pytest.raises(ImportError):
        from normmin import sol_contains_chebyshev_via_cells  # noqa: F401


def test_dir_and_star_import_cover_all():
    out = _loaded(
        "import normmin\n"
        "print(sorted(set(normmin.__all__) - set(dir(normmin))))\n"
        "from normmin import *\n"
        "print(sorted(set(normmin.__all__) - set(globals())))\n"
    )
    assert out == ["[]", "[]"]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    path = tmp_path_factory.mktemp("inputs")
    for name, obj in {
        "problem": PROBLEM,
        "certificate": CERTIFICATE,
        "point": {"point": [1.0, 0.5]},
        "generator": {"kind": "tabulated", "arity": 3, "source": {"kind": "p", "p": 2.0}},
    }.items():
        (path / f"{name}.json").write_text(dumps(obj), encoding="utf-8")
    return path


@pytest.mark.parametrize("subcommand", sorted(LOADS))
def test_each_subcommand_loads_only_its_modules(subcommand, inputs, tmp_path):
    i = {name: str(inputs / f"{name}.json") for name in ("problem", "certificate", "point", "generator")}
    args = {
        "validate-psi": [i["generator"]],
        "solve": [i["problem"]],
        "certify": [i["problem"], i["certificate"]],
        "recover": [i["problem"], i["point"]],
        "describe": [i["problem"], i["certificate"]],
        "sample": [i["problem"], i["certificate"], "--box", "-1,3,-2,2", "--grid", "21", "--svg", "r.svg"],
        "reproduce-examples": ["--only", "ft-linf-pair", "--grid", "21"],
    }[subcommand]
    done = _python("-X", "importtime", "-m", "normmin.cli", subcommand, *args, "-o", "out", cwd=tmp_path)
    names = {line.rsplit("|", 1)[1].strip() for line in done.stderr.splitlines() if line.startswith("import time:")}
    assert {name[len("normmin."):] for name in names if name.startswith("normmin.")} == LOADS[subcommand]
