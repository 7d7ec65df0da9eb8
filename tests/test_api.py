"""The public API changes only on purpose.

turandet.__all__ is frozen here: removing or adding a name means editing this
list too, and recording the change in CHANGES.md. Every function that the
benchmark's tracer (perfbench/tracing.py) wraps must stay a module-level name
of its module, or the per-layer metrics silently read zero.
"""
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import turandet
from turandet import (
    ParamError,
    associated_family,
    check_corollary1,
    check_corollary2,
    check_lambda_route,
    check_szw_normalized,
    check_theorem1,
    check_y_route,
    classify,
    criterion_reports,
    grid_scan,
    lambda_data,
    legendre,
    normalize,
    orthonormal_turan,
    pollaczek,
    turan_det,
)

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


_SHAPE = pollaczek(Fraction(3, 2), 1).meta["corollary1"]
_SHAPE_ARGS = (_SHAPE.alpha_const, _SHAPE.gamma_const, _SHAPE.delta)


@pytest.mark.parametrize("name, least, call", [
    pytest.param("N", 2, lambda v: check_theorem1(legendre(), v), id="check_theorem1"),
    pytest.param("N", 2, lambda v: criterion_reports(legendre(), v), id="criterion_reports"),
    pytest.param("N", 2, lambda v: classify(legendre(), v), id="classify"),
    pytest.param("N", 1, lambda v: check_szw_normalized(normalize(legendre(), 5), v),
                 id="check_szw_normalized"),
    pytest.param("N", 1, lambda v: check_corollary1(*_SHAPE_ARGS, v), id="check_corollary1"),
    pytest.param("N", 1, lambda v: check_corollary2(*_SHAPE_ARGS, v), id="check_corollary2"),
    pytest.param("N", 1, lambda v: lambda_data(legendre(), v), id="lambda_data"),
    pytest.param("N", 1, lambda v: check_lambda_route(legendre(), v), id="check_lambda_route"),
    pytest.param("N", 1, lambda v: check_y_route(pollaczek(Fraction(3, 2), 1), v),
                 id="check_y_route"),
    pytest.param("n", 1, lambda v: turan_det(legendre(), v, 0.5), id="turan_det"),
    pytest.param("n", 1, lambda v: orthonormal_turan([0.5] * 10, v, 0.1), id="orthonormal_turan"),
    pytest.param("k", 0, lambda v: associated_family(legendre(), v), id="associated_family"),
])
def test_counts_must_be_ints_at_least_their_least_value(name, least, call):
    """A count that is not an int, a bool, or one below its least value is a
    ParamError that names the parameter, not a TypeError from deep inside."""
    for bad in (2.5, True, least - 1):
        with pytest.raises(ParamError, match=rf"^{name} must be an int >= {least} "
                                             rf"\(got {re.escape(repr(bad))}\)$"):
            call(bad)
    call(least + 1)
