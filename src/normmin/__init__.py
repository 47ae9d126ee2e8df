"""Minimization of product norms of anchor displacements.

Build a norm on stacked blocks from a ground norm and a simplex generator,
minimize the resulting aggregate distance to a set of anchors, verify
optimality through dual certificates, and reconstruct the full solution set
from a single certificate.
"""

from .certificates import (
    CHEBYSHEV,
    FERMAT_TORRICELLI,
    GENERAL,
    P_FERMAT,
    Certificate,
    CertificateReport,
    Infeasible,
    check_certificate,
    check_chebyshev,
    check_fermat_torricelli,
    check_general,
    check_p_fermat,
    matching_theorem,
    recover_certificate,
)
from .errors import (
    ArityMismatchError,
    BudgetExceededError,
    ContractError,
    DimensionMismatchError,
    InputFormatError,
    InvalidInputError,
    MembershipViolationError,
    NormMinError,
    RecoveryError,
    UnsupportedGeneratorError,
)
from .examples import (
    CaseResult,
    ExampleCase,
    all_cases,
    find_cases,
    run_case,
)
from .geometry import (
    affine_hull_basis,
    hull_distance,
    project_onto_convex_hull,
)
from .ground_norms import (
    BoxCone,
    CoordinateCone,
    GroundNorm,
    Ray,
    WholeSpace,
    alignment_ray_basis,
    alignment_set_contains,
    dual_ground_norm,
    ground_norm_eval,
    ground_norm_eval_many,
    norm_subdifferential_contains,
)
from .problem import (
    ProblemInstance,
    SolveBound,
    dual_selection,
    objective_eval,
    objective_eval_many,
    objective_subgradient,
    solve_bound,
    strict_convexity_class,
)
from .product_norms import (
    EqualityReport,
    ProductNorm,
    block_norms,
    dual_block_norms,
    dual_product_norm_eval,
    equality_case_check,
    holder_gap,
    pairing,
    product_norm_eval,
    product_norm_from_block_norms,
)
from .psi_generators import (
    PsiGenerator,
    ValidationReport,
    conjugate_exponent,
    dual_norm_from_block_norms,
    psi_conjugate_eval,
    psi_conjugate_generator,
    psi_eval,
    psi_eval_many,
    psi_min_symmetric,
    psi_sandwich_bounds,
    validate_psi,
)
from .serialization import (
    certificate_from_json,
    certificate_to_json,
    dump_path,
    dumps,
    generator_from_json,
    generator_to_json,
    ground_norm_from_json,
    ground_norm_to_json,
    instance_from_json,
    instance_to_json,
    load_path,
    parse_box,
    region_csv,
    region_svg,
)
from .solution_sets import (
    SolutionSetDescription,
    describe_solution_set,
    farthest_voronoi_contains,
    sample_solution_region,
    sol_contains_chebyshev,
    sol_contains_chebyshev_via_cells,
    sol_contains_ft,
    sol_contains_general,
    sol_contains_pft,
    solution_set_contains,
)
from .solvers import (
    GridOracleResult,
    SolveResult,
    SolverConfig,
    grid_oracle,
    lipschitz_bound,
    midpoint_shortcut,
    solve,
    solve_pattern_search,
    solve_subgradient,
)

__version__ = "0.1.0"
