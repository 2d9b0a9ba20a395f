"""Exact rational arithmetic and decimal-string rendering.

``Rational`` is the standard library's ``fractions.Fraction``, which keeps
values normalized exactly as this package requires: denominator >= 1,
gcd(|num|, den) == 1, zero as 0/1.  It is read on first use (PEP 562),
and ``parse_rational`` loads ``fractions`` and ``re`` in its own body, so
a term or seq request loads neither.  The helpers add strict "p/q" parsing
for command-line input, its library counterpart ``require_rational``,
and fixed-point decimal rendering.

CPython before 3.12 converts int to str in quadratic time (the
subquadratic path came with gh-90716), while libmpdec multiplies big
operands with a number-theoretic transform and ``str(Decimal)`` is
linear.  So the CLI prints Decimals.  The big terms never become ints:
``term`` gets F_n from the kernel as a ``Decimal`` (``sequence.term_fast``
with ``cast=to_decimal``), and ``seq`` sweeps in ``Decimal`` from
converted seed terms.  ``gf`` and ``verify-classic`` build their big
numbers in ``Decimal`` from terms and small factors, which ``to_decimal``
converts by divide and conquer (``int_to_str`` renders an int so).  All
of it runs in ``EXACT_CONTEXT``, where a rounding raises instead of
producing wrong digits.  The way back, ``int(Decimal)``, is quadratic on
CPython 3.11 too, so the CLI takes it only of small remainders (``gf``'s
gcds); ``str_to_int`` of a ``Decimal``'s text serves library callers.
``fixed_point`` renders every fixed-point decimal the package prints.
``parse_rational`` reads digit strings of any length through
``str_to_int``, which keeps each ``int()`` call under CPython's
4300-digit int/str limit.
"""

import decimal
from decimal import Decimal

__all__ = [
    "Rational",
    "parse_rational",
    "require_rational",
    "format_ratio",
    "EXACT_CONTEXT",
    "to_decimal",
    "int_to_str",
    "fraction_to_str",
    "str_to_int",
    "fixed_point",
]


def __getattr__(name):
    # PEP 562: only a caller of Rational loads fractions
    if name != "Rational":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from fractions import Fraction

    return Fraction


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
# int() of a digit string up to this length, under that limit too
_LEAF_DIGITS = 2048

_POW2 = {0: Decimal(2)}  # j -> 2**(2**j), filled on demand


def parse_rational(text: str) -> "Rational":
    """Parse an exact "p/q" or integer string.

    Rejects anything else -- in particular decimal floats -- so exactness
    is preserved end to end.
    """
    import re
    from fractions import Fraction

    s = text.strip()
    if not re.match(r"^[+-]?\d+(/\d+)?$", s):
        raise ValueError(f"expected an integer or p/q fraction, got {text!r}")
    num, _, den = s.partition("/")
    den = str_to_int(den) if den else 1
    if den == 0:
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(str_to_int(num), den)


def require_rational(value: "Rational | int", name: str) -> "Rational":
    """``value`` as a ``Fraction``; ValueError naming it unless an int (not a bool) or a Fraction."""
    from fractions import Fraction

    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise ValueError(f"{name} must be an integer or a Fraction, got {value!r}")
    return Fraction(value)


def to_decimal(n: int) -> Decimal:
    """The exact ``Decimal`` equal to ``n``, in subquadratic time."""
    if n.bit_length() <= _LEAF_BITS:
        return Decimal(n)  # exact under any context
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


def fraction_to_str(value: "Rational") -> str:
    """``str(value)`` ("p/q", or "p" for an integer), past CPython's int/str limit."""
    numerator = int_to_str(value.numerator)
    return numerator if value.denominator == 1 else f"{numerator}/{int_to_str(value.denominator)}"


def str_to_int(digits: str) -> int:
    """``int(digits)`` of a string of decimal digits with an optional sign, however long.

    Splits in halves down to pieces ``int()`` takes under CPython's
    int/str limit, then joins them with powers of ten.
    """
    if digits.startswith("-"):
        return -str_to_int(digits[1:])
    if len(digits) <= _LEAF_DIGITS:
        return int(digits)
    half = len(digits) // 2
    return str_to_int(digits[:-half]) * 10**half + str_to_int(digits[-half:])


def format_ratio(value: "Rational") -> str:
    """Canonical "p/q" form, always with an explicit denominator."""
    return f"{int_to_str(value.numerator)}/{int_to_str(value.denominator)}"


def fixed_point(n: Decimal, digits: int) -> str:
    """n / 10^digits with ``digits`` >= 1 fraction digits, for an integer ``Decimal`` n."""
    text = str(n).lstrip("-").rjust(digits + 1, "0")
    return f"{'-' if n < 0 else ''}{text[:-digits]}.{text[-digits:]}"
