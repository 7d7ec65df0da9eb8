"""The public API changes only on purpose.

turandet.__all__ is frozen here: removing or adding a name means editing this
list too, and recording the change in CHANGES.md. Every function that the
benchmark's tracer (perfbench/tracing.py) wraps must stay a module-level name
of its module, or the per-layer metrics silently read zero.
"""
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import turandet

PUBLIC = {
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
}


def test_public_names_are_frozen():
    assert len(turandet.__all__) == len(set(turandet.__all__))
    assert set(turandet.__all__) == PUBLIC
    assert all(hasattr(turandet, name) for name in turandet.__all__)


def _traced_spans():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.SPANS


def test_traced_functions_stay_module_level_names():
    spans = _traced_spans()
    assert ("families", "classify") in spans and ("recurrence", "ratios_at_one") in spans
    for module, attr in spans:
        assert callable(getattr(importlib.import_module(f"turandet.{module}"), attr, None)), \
            f"turandet.{module}.{attr}"


def test_import_leaves_mpmath_out():
    """The package computes in the standard library's decimal: importing it
    loads no mpmath, which only the test references use."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, turandet; print('mpmath' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout == "False\n"
