"""Exact k-bonacci numbers, their generating series, and decimal identities.

The namespace is lazy (PEP 562): ``import kbonacci`` loads no submodule,
and a public name imports its defining module on first access, so a CLI
run loads only what its subcommand uses.
"""

__version__ = "0.1.0"

# public name -> defining submodule; __all__ and __getattr__ both read it
_MODULE_OF = {
    "BenchConfig": "bench",
    "BenchRecord": "bench",
    "MethodMismatchError": "bench",
    "emit_report": "bench",
    "min_wall_times": "bench",
    "parse_report": "bench",
    "run_bench": "bench",
    "ClassicReport": "classic_sums",
    "alternating_reciprocal_sum": "classic_sums",
    "millin_type_sum": "classic_sums",
    "verify_classic": "classic_sums",
    "RepunitDenominator": "decimal_identity",
    "identity_line": "decimal_identity",
    "reciprocal_digits": "decimal_identity",
    "repunit_denominator": "decimal_identity",
    "verify_decimal_identity": "decimal_identity",
    "format_ratio": "rational",
    "parse_rational": "rational",
    "initial_terms": "sequence",
    "iter_terms": "sequence",
    "range_terms": "sequence",
    "term_fast": "sequence",
    "term_matrix": "methods",
    "term_naive": "methods",
    "EvalReport": "series",
    "SeriesPoint": "series",
    "closed_form": "series",
    "converge_until": "series",
    "evaluate": "series",
    "evaluate_range": "series",
}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip __getattr__
    return value
