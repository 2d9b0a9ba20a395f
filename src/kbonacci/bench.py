"""Timing harness for the three term-computation strategies.

Runs a (method, k, n) grid with repetitions on a monotonic clock and
emits machine-readable reports.  Correctness is enforced while timing:
every method must produce the same term for the same (k, n), compared
through a 64-bit checksum so reports never carry million-digit
integers.  Full-value equality for small n is asserted in the test
suite, where it is cheap.

When comparing times across methods use the minimum over repetitions;
the minimum is the conventional noise floor for wall-clock microbench
numbers.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .sequence import term_fast, term_matrix, term_naive, validate_order

__all__ = [
    "METHOD_NAMES",
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

# The term-method registry: bench runs and the CLI's --method look
# strategies up here at call time.
METHODS = {
    "naive": term_naive,
    "matrix": term_matrix,
    "polymod": term_fast,
}
METHOD_NAMES = tuple(METHODS)

_CHECKSUM_MASK = (1 << 64) - 1

_COLUMNS = ("method", "k", "n", "rep", "wall_time", "result_digits", "checksum")


class MethodMismatchError(AssertionError):
    """Two strategies disagreed on a term value.  Not a timing problem."""


@dataclass(frozen=True)
class BenchConfig:
    k_values: Tuple[int, ...]
    n_values: Tuple[int, ...]
    repetitions: int
    methods: Tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "k_values", tuple(self.k_values))
        object.__setattr__(self, "n_values", tuple(self.n_values))
        object.__setattr__(self, "methods", tuple(self.methods))
        if not self.k_values:
            raise ValueError("k_values must be non-empty")
        if not self.n_values:
            raise ValueError("n_values must be non-empty")
        if not self.methods:
            raise ValueError("methods must be non-empty")
        for k in self.k_values:
            validate_order(k)
        for n in self.n_values:
            if n < 0:
                raise ValueError(f"term index must be >= 0, got {n}")
        if self.repetitions < 1:
            raise ValueError(f"repetitions must be >= 1, got {self.repetitions}")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ValueError(
                f"unknown methods {unknown}; expected subset of {METHOD_NAMES}"
            )


@dataclass(frozen=True)
class BenchRecord:
    method: str
    k: int
    n: int
    rep: int
    wall_time: float
    result_digits: int
    checksum: int


def digit_count(value: int) -> int:
    """Decimal digit count of a non-negative integer.

    Avoids str(): CPython caps int-to-str conversions at a few thousand
    digits by default, and the terms here reach hundreds of thousands.
    """
    if value < 0:
        raise ValueError(f"expected non-negative value, got {value}")
    if value == 0:
        return 1
    # bit_length * log10(2), then settle the off-by-one exactly
    digits = value.bit_length() * 30103 // 100000
    while 10**digits <= value:
        digits += 1
    while digits > 1 and 10 ** (digits - 1) > value:
        digits -= 1
    return digits


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
    """Serialize records, column order fixed as method,k,n,rep,wall_time,result_digits,checksum."""
    if format == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(_COLUMNS)
        for rec in records:
            writer.writerow(
                [
                    rec.method,
                    rec.k,
                    rec.n,
                    rec.rep,
                    repr(rec.wall_time),
                    rec.result_digits,
                    rec.checksum,
                ]
            )
        return out.getvalue()
    if format == "json":
        payload = [
            {col: getattr(rec, col) for col in _COLUMNS} for rec in records
        ]
        return json.dumps(payload, indent=2)
    raise ValueError(f"unknown format {format!r}; expected 'csv' or 'json'")


def parse_report(document: str, format: str) -> List[BenchRecord]:
    """Inverse of emit_report."""
    if format == "csv":
        rows = list(csv.reader(io.StringIO(document)))
        if not rows or tuple(rows[0]) != _COLUMNS:
            raise ValueError("missing or malformed CSV header")
        return [
            BenchRecord(
                method=row[0],
                k=int(row[1]),
                n=int(row[2]),
                rep=int(row[3]),
                wall_time=float(row[4]),
                result_digits=int(row[5]),
                checksum=int(row[6]),
            )
            for row in rows[1:]
        ]
    if format == "json":
        return [BenchRecord(**entry) for entry in json.loads(document)]
    raise ValueError(f"unknown format {format!r}; expected 'csv' or 'json'")


def load_config(path: str) -> BenchConfig:
    """Read a BenchConfig from a JSON file with the field names as keys."""
    with open(path, "r", encoding="utf-8") as handle:
        raw = json.load(handle)
    try:
        return BenchConfig(
            k_values=raw["k_values"],
            n_values=raw["n_values"],
            repetitions=raw.get("repetitions", 1),
            methods=raw.get("methods", list(METHOD_NAMES)),
        )
    except KeyError as missing:
        raise ValueError(f"bench config missing key {missing}") from None
