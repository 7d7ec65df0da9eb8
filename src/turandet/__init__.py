"""Turán determinants of symmetric orthogonal polynomials on [-1, 1]:
recurrence evaluation, nonnegativity criteria with witnesses, grid scans,
and orthogonality-density estimation.
"""
from .arith import format_number, to_fraction
from .criteria import (
    COROLLARY1,
    COROLLARY2,
    CRITERION_NAMES,
    LAMBDA_ROUTE,
    SZW_THEOREM1,
    THEOREM1,
    Y_ROUTE,
    ConditionCheck,
    CriterionReport,
    DeltaSeq,
    LambdaData,
    Verdict,
    check_corollary1,
    check_corollary2,
    check_lambda_route,
    check_szw_normalized,
    check_theorem1,
    check_y_route,
    lambda_data,
    lambda_step_bound,
    matches_corollary1,
    matches_corollary2,
    y_from_lambda,
)
from .density import DensityEstimate, default_density_grid, estimate_density, orthonormal_turan
from .errors import (
    InvalidLambda,
    NonpositiveRatio,
    ParamError,
    StructuralMismatch,
    TableRangeError,
    TuranError,
)
from .families import (
    FAMILY_INFO,
    FAMILY_KINDS,
    CorollaryShape,
    FamilySpec,
    build,
    certified,
    chebyshev_t,
    chebyshev_u,
    classify,
    corollary1_family,
    corollary2_family,
    criterion_reports,
    example2,
    example3,
    example4,
    gegenbauer,
    legendre,
    pollaczek,
    table_family,
)
from .recurrence import (
    CoefficientFamily,
    NormalizedFamily,
    RatioSequence,
    SandwichRow,
    ScalingSequence,
    associated_family,
    coefficients,
    eval_polys,
    float_view,
    normalize,
    orthonormal_offdiag,
    ratio_sandwich,
    ratios_at_one,
    scaled_polys,
)
from .turan import GridInfo, TuranEntry, TuranReport, grid_scan, scaled_scan, scan_grid, turan_det

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # recurrence
    "CoefficientFamily", "NormalizedFamily", "RatioSequence", "ScalingSequence",
    "SandwichRow", "coefficients", "eval_polys", "float_view", "normalize",
    "ratios_at_one", "ratio_sandwich", "associated_family", "orthonormal_offdiag",
    "scaled_polys",
    # criteria
    "Verdict", "ConditionCheck", "CriterionReport", "DeltaSeq", "LambdaData",
    "THEOREM1", "SZW_THEOREM1", "COROLLARY1", "COROLLARY2", "LAMBDA_ROUTE",
    "Y_ROUTE", "CRITERION_NAMES", "check_theorem1", "check_szw_normalized",
    "check_corollary1", "check_corollary2", "check_lambda_route", "check_y_route",
    "lambda_data", "lambda_step_bound", "y_from_lambda", "matches_corollary1",
    "matches_corollary2",
    # turan scans
    "TuranEntry", "TuranReport", "GridInfo", "turan_det", "scan_grid",
    "grid_scan", "scaled_scan",
    # families
    "FAMILY_KINDS", "FAMILY_INFO", "FamilySpec", "CorollaryShape", "build",
    "chebyshev_t", "chebyshev_u", "legendre", "gegenbauer", "pollaczek",
    "example2", "example3", "example4", "table_family", "corollary1_family",
    "corollary2_family", "criterion_reports", "certified", "classify",
    # density
    "DensityEstimate", "orthonormal_turan", "default_density_grid",
    "estimate_density",
    # errors
    "TuranError", "ParamError", "TableRangeError", "NonpositiveRatio",
    "InvalidLambda", "StructuralMismatch",
    # arithmetic helpers
    "to_fraction", "format_number",
]
