"""Timing harness for the three term-computation strategies.

Runs a (method, k, n) grid with repetitions on a monotonic clock and
emits machine-readable reports; methods are looked up by name in
``sequence.METHODS``.  Each repetition times the call ``term`` makes,
``METHODS[m](k, n, to_decimal)`` under ``EXACT_CONTEXT``, whose result
is a ``Decimal``.  Correctness is enforced while timing:
every method must produce the same term for the same (k, n), compared
through a 64-bit checksum so reports never carry million-digit
integers.  Full-value equality for small n is asserted in the test
suite, where it is cheap.  A config whose cells or repetitions pass the
CLI's bounds (``bounds.check_term``), or whose grid as a whole would
take longer than its largest accepted cell (``bounds.check_grid``), is
refused with ValueError before anything runs.

When comparing times across methods use the minimum over repetitions;
the minimum is the conventional noise floor for wall-clock microbench
numbers.
"""

import csv
import io
import json
import time
from collections import namedtuple
from collections.abc import Sequence
from decimal import localcontext

from .bounds import _MAX_REPETITIONS, check_grid, check_term
from .rational import EXACT_CONTEXT, to_decimal
from .sequence import METHODS

__all__ = [
    "BenchConfig",
    "BenchRecord",
    "MethodMismatchError",
    "run_bench",
    "emit_report",
    "parse_report",
    "min_wall_times",
    "load_config",
]


class MethodMismatchError(AssertionError):
    """Two strategies disagreed on a term value.  Not a timing problem."""


class BenchConfig(namedtuple("BenchConfig", "k_values n_values repetitions methods")):
    """A timing grid, validated on construction; the three lists become tuples."""

    __slots__ = ()

    def __new__(cls, k_values, n_values, repetitions, methods):
        # the fields come from a user's JSON file: reject wrong types with
        # ValueError (a usage error), never let them raise TypeError later
        for name, values, kind in (
            ("k_values", k_values, int),
            ("n_values", n_values, int),
            ("methods", methods, str),
        ):
            if not isinstance(values, (list, tuple)) or not all(
                _of_type(v, kind) for v in values
            ):
                raise ValueError(
                    f"{name} must be a list of {kind.__name__}, got {values!r}"
                )
        if not _of_type(repetitions, int):
            raise ValueError(f"repetitions must be an int, got {repetitions!r}")
        self = super().__new__(
            cls, tuple(k_values), tuple(n_values), repetitions, tuple(methods)
        )
        for name in ("k_values", "n_values", "methods"):
            if not getattr(self, name):
                raise ValueError(f"{name} must be non-empty")
        if not 1 <= repetitions <= _MAX_REPETITIONS:
            raise ValueError(
                f"repetitions must be 1 to {_MAX_REPETITIONS}, got {repetitions}"
            )
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ValueError(
                f"unknown methods {unknown}; expected subset of {tuple(METHODS)}"
            )
        # the CLI's term bounds, so no cell runs longer than its largest term,
        # and no grid longer than its largest cell at the most repetitions
        cells = [(k, n, m) for k in self.k_values for n in self.n_values for m in self.methods]
        for cell in cells:
            check_term(*cell)
        check_grid(cells, repetitions)
        return self


def _of_type(value, kind) -> bool:
    # bool is an int subclass, but True is no count or index
    return isinstance(value, kind) and not isinstance(value, bool)


class BenchRecord(
    namedtuple("BenchRecord", "method k n rep wall_time result_digits checksum")
):
    """One timed call; the fields in this order are the report's columns."""

    __slots__ = ()


# each column's type, which parses its CSV cell
_COLUMN_TYPES = (str, int, int, int, float, int, int)


def run_bench(config: BenchConfig) -> list[BenchRecord]:
    """One record per (method, k, n, repetition), sequentially timed.

    Aborts with MethodMismatchError the moment two methods disagree on
    a checksum for the same cell.
    """
    records = []
    for k in config.k_values:
        for n in config.n_values:
            seen: dict[str, int] = {}
            for method in config.methods:
                func = METHODS[method]
                for rep in range(config.repetitions):
                    with localcontext(EXACT_CONTEXT):
                        start = time.perf_counter()
                        value = func(k, n, to_decimal)
                        elapsed = time.perf_counter() - start
                        checksum = int(value % 2**64)
                    records.append(
                        BenchRecord(
                            method=method,
                            k=k,
                            n=n,
                            rep=rep,
                            wall_time=elapsed,
                            result_digits=value.adjusted() + 1,
                            checksum=checksum,
                        )
                    )
                if seen:
                    other, other_sum = next(iter(seen.items()))
                    if checksum != other_sum:
                        raise MethodMismatchError(
                            f"k={k} n={n}: {method} checksum {checksum:#x} "
                            f"!= {other} checksum {other_sum:#x}"
                        )
                seen[method] = checksum
    return records


def min_wall_times(records: Sequence[BenchRecord]) -> dict[tuple[str, int, int], float]:
    """Best (minimum) wall time per (method, k, n) cell."""
    best: dict[tuple[str, int, int], float] = {}
    for rec in records:
        key = (rec.method, rec.k, rec.n)
        if key not in best or rec.wall_time < best[key]:
            best[key] = rec.wall_time
    return best


def emit_report(records: Sequence[BenchRecord], format: str) -> str:
    """Serialize records, one column or key per ``BenchRecord`` field, in field order."""
    if format == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(BenchRecord._fields)
        writer.writerows(records)  # floats as repr()
        return out.getvalue()
    if format == "json":
        return json.dumps([rec._asdict() for rec in records], indent=2)
    raise ValueError(f"unknown format {format!r}; expected 'csv' or 'json'")


def parse_report(document: str, format: str) -> list[BenchRecord]:
    """Inverse of emit_report."""
    if format == "csv":
        rows = list(csv.reader(io.StringIO(document)))
        if not rows or tuple(rows[0]) != BenchRecord._fields:
            raise ValueError("missing or malformed CSV header")
        return [
            BenchRecord(*(kind(cell) for kind, cell in zip(_COLUMN_TYPES, row)))
            for row in rows[1:]
        ]
    if format == "json":
        return [BenchRecord(**entry) for entry in json.loads(document)]
    raise ValueError(f"unknown format {format!r}; expected 'csv' or 'json'")


def load_config(path: str) -> BenchConfig:
    """Read a BenchConfig from a JSON file with the field names as keys.

    Any other key is a ValueError, so a misspelled one cannot silently
    leave its field at the default.
    """
    with open(path, "r", encoding="utf-8") as handle:
        try:
            raw = json.load(handle)
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            raise ValueError(f"bench config {path!r} is not UTF-8 JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ValueError(
            f"bench config must be a JSON object, got {type(raw).__name__}"
        )
    known = list(BenchConfig._fields)
    unknown = sorted(set(raw) - set(known))
    if unknown:
        raise ValueError(f"unknown bench config keys {unknown}; expected {known}")
    try:
        return BenchConfig(
            k_values=raw["k_values"],
            n_values=raw["n_values"],
            repetitions=raw.get("repetitions", 1),
            methods=raw.get("methods", list(METHODS)),
        )
    except KeyError as missing:
        raise ValueError(f"bench config missing key {missing}") from None
