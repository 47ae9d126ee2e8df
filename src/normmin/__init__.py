"""Minimization of product norms of anchor displacements.

Build a norm on stacked blocks from a ground norm and a simplex generator,
minimize the resulting aggregate distance to a set of anchors, verify
optimality through dual certificates, and reconstruct the full solution set
from a single certificate.

Importing the package loads none of its modules.  The first access to any
exported name (``normmin.solve``, ``from normmin import GroundNorm``) loads
every module of ``_EXPORTS`` and binds every exported name at once, so later
accesses are plain attribute reads.  A submodule (``normmin.serialization``,
``normmin.cli``) is loaded on its own by a normal import and brings in only
the modules it imports.
"""

__version__ = "0.1.0"

# Exported names by defining module, in load order.
_EXPORTS = {
    "certificates": (
        "CHEBYSHEV",
        "FERMAT_TORRICELLI",
        "GENERAL",
        "P_FERMAT",
        "Certificate",
        "CertificateReport",
        "Infeasible",
        "check_certificate",
        "check_chebyshev",
        "check_fermat_torricelli",
        "check_general",
        "check_p_fermat",
        "matching_theorem",
        "recover_certificate",
    ),
    "errors": (
        "ArityMismatchError",
        "BudgetExceededError",
        "ContractError",
        "DimensionMismatchError",
        "InputFormatError",
        "InvalidInputError",
        "MembershipViolationError",
        "NormMinError",
        "UnsupportedGeneratorError",
    ),
    "examples": (
        "CaseResult",
        "ExampleCase",
        "all_cases",
        "find_cases",
        "run_case",
    ),
    "geometry": (
        "affine_hull_basis",
        "hull_distance",
        "project_onto_convex_hull",
    ),
    "ground_norms": (
        "BoxCone",
        "CoordinateCone",
        "GroundNorm",
        "Ray",
        "WholeSpace",
        "alignment_ray_basis",
        "alignment_set_contains",
        "conjugate_exponent",
        "dual_ground_norm",
        "ground_norm_eval",
        "ground_norm_eval_many",
        "norm_subdifferential_contains",
    ),
    "problem": (
        "ProblemInstance",
        "SolveBound",
        "dual_selection",
        "lipschitz_bound",
        "objective_eval",
        "objective_eval_many",
        "objective_subgradient",
        "solve_bound",
        "strict_convexity_class",
    ),
    "product_norms": (
        "EqualityReport",
        "ProductNorm",
        "block_norms",
        "dual_block_norms",
        "dual_product_norm_eval",
        "equality_case_check",
        "holder_gap",
        "pairing",
        "product_norm_eval",
        "product_norm_from_block_norms",
    ),
    "psi_generators": (
        "PsiGenerator",
        "ValidationReport",
        "dual_norm_from_block_norms",
        "psi_conjugate_eval",
        "psi_conjugate_generator",
        "psi_eval",
        "psi_eval_many",
        "psi_min_symmetric",
        "psi_sandwich_bounds",
        "validate_psi",
    ),
    "serialization": (
        "certificate_from_json",
        "certificate_to_json",
        "dump_path",
        "dumps",
        "generator_from_json",
        "generator_to_json",
        "ground_norm_from_json",
        "ground_norm_to_json",
        "instance_from_json",
        "instance_to_json",
        "load_path",
        "parse_box",
        "region_csv",
        "region_svg",
    ),
    "solution_sets": (
        "SolutionSetDescription",
        "describe_solution_set",
        "sample_solution_region",
        "sol_contains_chebyshev",
        "sol_contains_ft",
        "sol_contains_general",
        "sol_contains_pft",
        "solution_set_contains",
    ),
    "solvers": (
        "GridOracleResult",
        "SolveResult",
        "SolverConfig",
        "grid_oracle",
        "midpoint_shortcut",
        "solve",
        "solve_pattern_search",
        "solve_subgradient",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]


def __getattr__(name):
    # Any other name, a submodule's included, is not ours to load here: an
    # AttributeError lets ``from . import serialization`` fall back to
    # importing that one module.
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Bind every export at once, so no later first access pays an import.
    import importlib

    namespace = globals()
    for module, names in _EXPORTS.items():
        mod = importlib.import_module(f".{module}", __name__)
        for export in names:
            namespace[export] = getattr(mod, export)
    return namespace[name]


def __dir__():
    return sorted(set(globals()) | set(__all__))
