"""Exact rational arithmetic and decimal-string rendering.

``Rational`` is the standard library's ``fractions.Fraction``, which keeps
values normalized exactly as this package requires: denominator >= 1,
gcd(|num|, den) == 1, zero as 0/1.  The helpers here add the pieces the
rest of the package needs on top of that: strict "p/q" parsing for
command-line input and reproducible truncating decimal rendering.

Every big integer the CLI prints goes through ``int_to_str``.  CPython
before 3.12 converts int to str in quadratic time (the subquadratic path
came with gh-90716), so large values are converted to ``Decimal`` by
divide and conquer instead: libmpdec multiplies big operands with a
number-theoretic transform, and ``str(Decimal)`` is linear.  All of that
arithmetic runs in ``EXACT_CONTEXT``, where a rounding raises instead of
producing wrong digits.
"""

from __future__ import annotations

import decimal
import re
from decimal import Decimal
from fractions import Fraction

Rational = Fraction

__all__ = [
    "Rational",
    "parse_rational",
    "format_ratio",
    "to_decimal_string",
    "EXACT_CONTEXT",
    "to_decimal",
    "int_to_str",
]

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")

# Unbounded precision and exponent range; any rounding raises.
EXACT_CONTEXT = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    Emin=decimal.MIN_EMIN,
    traps=[
        decimal.Inexact,
        decimal.Rounded,
        decimal.InvalidOperation,
        decimal.DivisionByZero,
        decimal.Overflow,
    ],
)

# Below this width str() and Decimal(int) are as fast as splitting further,
# and str() stays under CPython's default 4300-digit conversion limit.
_LEAF_BITS = 1 << 13

_POW2 = {0: Decimal(2)}  # j -> 2**(2**j), filled on demand


def parse_rational(text: str) -> Rational:
    """Parse an exact "p/q" or integer string.

    Rejects anything else -- in particular decimal floats -- so exactness
    is preserved end to end.
    """
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise ValueError(f"expected an integer or p/q fraction, got {text!r}")
    if "/" in s and int(s.split("/")[1]) == 0:
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(s)


def to_decimal(n: int) -> Decimal:
    """The exact ``Decimal`` equal to ``n``, in subquadratic time."""
    with decimal.localcontext(EXACT_CONTEXT):
        return _to_decimal(n) if n >= 0 else -_to_decimal(-n)


def _to_decimal(n: int) -> Decimal:
    # n = lo + hi * 2**(2**j), with 2**j the largest power of two below
    # the width of n
    width = n.bit_length()
    if width <= _LEAF_BITS:
        return Decimal(n)
    j = (width - 1).bit_length() - 1
    hi = n >> (1 << j)
    lo = n - (hi << (1 << j))
    return _to_decimal(lo) + _to_decimal(hi) * _pow2(j)


def _pow2(j: int) -> Decimal:
    power = _POW2.get(j)
    if power is None:
        half = _pow2(j - 1)
        power = _POW2[j] = half * half
    return power


def int_to_str(n: int) -> str:
    """``str(n)``, in subquadratic time for large ``n``."""
    if n.bit_length() <= _LEAF_BITS:
        return str(n)
    return str(to_decimal(n))


def format_ratio(value: Rational) -> str:
    """Canonical "p/q" form, always with an explicit denominator."""
    return f"{int_to_str(value.numerator)}/{int_to_str(value.denominator)}"


def to_decimal_string(value: Rational, digits: int) -> str:
    """Decimal rendering with exactly ``digits`` fraction digits.

    Truncates toward zero rather than rounding, so the digit stream of a
    value is a prefix of any longer rendering of it.
    """
    if digits < 1:
        raise ValueError(f"digit count must be >= 1, got {digits}")
    sign = "-" if value < 0 else ""
    scaled = abs(value.numerator) * 10 ** digits // value.denominator
    text = int_to_str(scaled).rjust(digits + 1, "0")
    return f"{sign}{text[:-digits]}.{text[-digits:]}"
