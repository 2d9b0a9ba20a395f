"""Timing harness for the three term-computation strategies.

Runs a (method, k, n) grid with repetitions on a monotonic clock and
emits machine-readable reports; methods are looked up by name in
``sequence.METHODS``.  Correctness is enforced while timing:
every method must produce the same term for the same (k, n), compared
through a 64-bit checksum so reports never carry million-digit
integers.  Full-value equality for small n is asserted in the test
suite, where it is cheap.  A config whose cells or repetitions pass the
CLI's bounds (``bounds.check_term``) is refused with ValueError before
anything runs.

When comparing times across methods use the minimum over repetitions;
the minimum is the conventional noise floor for wall-clock microbench
numbers.
"""

import csv
import io
import json
import time
from dataclasses import asdict, astuple, dataclass, fields
from typing import Dict, List, Sequence, Tuple

from .rational import to_decimal
from .bounds import check_term
from .sequence import METHODS

__all__ = [
    "BenchConfig",
    "BenchRecord",
    "MethodMismatchError",
    "run_bench",
    "emit_report",
    "parse_report",
    "min_wall_times",
    "digit_count",
    "load_config",
]

_CHECKSUM_MASK = (1 << 64) - 1
# min-of-reps needs a handful, and each repetition of a cell may take as long
# as the largest term request check_term accepts, about 2 s
_MAX_REPETITIONS = 100


class MethodMismatchError(AssertionError):
    """Two strategies disagreed on a term value.  Not a timing problem."""


@dataclass(frozen=True)
class BenchConfig:
    k_values: Tuple[int, ...]
    n_values: Tuple[int, ...]
    repetitions: int
    methods: Tuple[str, ...]

    def __post_init__(self):
        # the fields come from a user's JSON file: reject wrong types with
        # ValueError (a usage error), never let them raise TypeError later
        for name, kind in (
            ("k_values", int),
            ("n_values", int),
            ("methods", str),
        ):
            values = getattr(self, name)
            if not isinstance(values, (list, tuple)) or not all(
                _of_type(v, kind) for v in values
            ):
                raise ValueError(
                    f"{name} must be a list of {kind.__name__}, got {values!r}"
                )
            object.__setattr__(self, name, tuple(values))
        if not _of_type(self.repetitions, int):
            raise ValueError(f"repetitions must be an int, got {self.repetitions!r}")
        if not self.k_values:
            raise ValueError("k_values must be non-empty")
        if not self.n_values:
            raise ValueError("n_values must be non-empty")
        if not self.methods:
            raise ValueError("methods must be non-empty")
        if not 1 <= self.repetitions <= _MAX_REPETITIONS:
            raise ValueError(
                f"repetitions must be 1 to {_MAX_REPETITIONS}, got {self.repetitions}"
            )
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ValueError(
                f"unknown methods {unknown}; expected subset of {tuple(METHODS)}"
            )
        # the CLI's term bounds, so no cell runs longer than its largest term
        for k in self.k_values:
            for n in self.n_values:
                for method in self.methods:
                    check_term(k, n, method)


def _of_type(value, kind) -> bool:
    # bool is an int subclass, but True is no count or index
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass(frozen=True)
class BenchRecord:
    """One timed call; the fields in this order are the report's columns."""

    method: str
    k: int
    n: int
    rep: int
    wall_time: float
    result_digits: int
    checksum: int


_COLUMNS = tuple(field.name for field in fields(BenchRecord))


def digit_count(value: int) -> int:
    """Decimal digit count of a non-negative integer.

    Avoids str(): CPython caps int-to-str conversions at a few thousand
    digits by default, and the terms here reach hundreds of thousands.
    """
    if value < 0:
        raise ValueError(f"expected non-negative value, got {value}")
    return to_decimal(value).adjusted() + 1


def run_bench(config: BenchConfig) -> List[BenchRecord]:
    """One record per (method, k, n, repetition), sequentially timed.

    Aborts with MethodMismatchError the moment two methods disagree on
    a checksum for the same cell.
    """
    records = []
    for k in config.k_values:
        for n in config.n_values:
            seen: Dict[str, int] = {}
            for method in config.methods:
                func = METHODS[method]
                for rep in range(config.repetitions):
                    start = time.perf_counter()
                    value = func(k, n)
                    elapsed = time.perf_counter() - start
                    checksum = value & _CHECKSUM_MASK
                    records.append(
                        BenchRecord(
                            method=method,
                            k=k,
                            n=n,
                            rep=rep,
                            wall_time=elapsed,
                            result_digits=digit_count(value),
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


def min_wall_times(records: Sequence[BenchRecord]) -> Dict[Tuple[str, int, int], float]:
    """Best (minimum) wall time per (method, k, n) cell."""
    best: Dict[Tuple[str, int, int], float] = {}
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
        writer.writerow(_COLUMNS)
        writer.writerows(astuple(rec) for rec in records)  # floats as repr()
        return out.getvalue()
    if format == "json":
        return json.dumps([asdict(rec) for rec in records], indent=2)
    raise ValueError(f"unknown format {format!r}; expected 'csv' or 'json'")


def parse_report(document: str, format: str) -> List[BenchRecord]:
    """Inverse of emit_report."""
    if format == "csv":
        rows = list(csv.reader(io.StringIO(document)))
        if not rows or tuple(rows[0]) != _COLUMNS:
            raise ValueError("missing or malformed CSV header")
        # each field's type parses its cell: without postponed annotations
        # in this module, field.type is the class itself
        kinds = [field.type for field in fields(BenchRecord)]
        return [
            BenchRecord(*(kind(cell) for kind, cell in zip(kinds, row)))
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
        raw = json.load(handle)
    if not isinstance(raw, dict):
        raise ValueError(
            f"bench config must be a JSON object, got {type(raw).__name__}"
        )
    known = [field.name for field in fields(BenchConfig)]
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
