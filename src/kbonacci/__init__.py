"""Exact k-bonacci numbers, their generating series, and decimal identities."""

from .bench import (
    BenchConfig,
    BenchRecord,
    MethodMismatchError,
    digit_count,
    emit_report,
    min_wall_times,
    parse_report,
    run_bench,
)
from .classic_sums import (
    ClassicReport,
    alternating_reciprocal_sum,
    millin_type_sum,
    verify_classic,
)
from .decimal_identity import (
    RepunitDenominator,
    digit_overlap_check,
    identity_line,
    reciprocal_digits,
    repunit_denominator,
    verify_decimal_identity,
)
from .rational import (
    Rational,
    format_ratio,
    parse_rational,
    to_decimal_string,
)
from .sequence import (
    Window,
    initial_terms,
    iter_terms,
    range_terms,
    term_fast,
    term_matrix,
    term_naive,
    window,
)
from .series import (
    EvalReport,
    SeriesPoint,
    closed_form,
    converge_until,
    evaluate,
    evaluate_range,
    partial_sum,
    tail_bound,
)

__version__ = "0.1.0"

__all__ = [
    "BenchConfig",
    "BenchRecord",
    "ClassicReport",
    "EvalReport",
    "MethodMismatchError",
    "Rational",
    "RepunitDenominator",
    "SeriesPoint",
    "Window",
    "alternating_reciprocal_sum",
    "closed_form",
    "converge_until",
    "digit_count",
    "digit_overlap_check",
    "emit_report",
    "evaluate",
    "evaluate_range",
    "format_ratio",
    "identity_line",
    "initial_terms",
    "iter_terms",
    "millin_type_sum",
    "min_wall_times",
    "parse_rational",
    "parse_report",
    "partial_sum",
    "range_terms",
    "reciprocal_digits",
    "repunit_denominator",
    "run_bench",
    "term_fast",
    "term_matrix",
    "term_naive",
    "to_decimal_string",
    "verify_classic",
    "verify_decimal_identity",
    "window",
]
