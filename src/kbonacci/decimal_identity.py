"""Reciprocals whose decimal digits are generated by k-bonacci numbers.

For every order k, summing F_n / 10^(n+1) over all n gives exactly
1 / D_k where D_k is the k-digit integer written as k-1 eights followed
by a nine.  Equivalently D_k = (8*10^k + 1) / 9.  The k = 2 case is the
familiar fact that 1/89 opens with the Fibonacci numbers 0, 1, 1, 2, 3,
5, 8 before carries start to interfere.

Verification is exact: the eta = 10 closed form of the generating series,
in lowest terms, against 10/D_k.  The digits of 1/D_k come from one exact
division of 10^m by D_k, which the tests check against a long division
and against a truncated sum of the terms.  Only the verification needs
``series``, and it imports it in its body, so ``digits`` loads neither
``series`` nor ``fractions``; the argument checks come from ``bounds``,
so it loads no ``sequence`` either.
"""

from collections import namedtuple
from decimal import Decimal, localcontext

from .bounds import require_int, validate_order
from .rational import EXACT_CONTEXT, int_to_str, to_decimal

__all__ = [
    "RepunitDenominator",
    "repunit_denominator",
    "verify_decimal_identity",
    "reciprocal_digits",
    "identity_line",
]


class RepunitDenominator(namedtuple("RepunitDenominator", "k value")):
    """The denominator D_k: k-1 eights then a nine, as an integer.

    An immutable named tuple of the order k and D_k; ``int()`` gives D_k
    and ``str()`` its digits.
    """

    __slots__ = ()

    def __int__(self) -> int:
        return self.value

    def __str__(self) -> str:
        return int_to_str(self.value)


def repunit_denominator(k: int) -> RepunitDenominator:
    """D_k built two independent ways, which must agree.

    Route one writes the digits, ``_digits``; route two evaluates
    (8*10^k + 1) / 9, checking the division is exact.  Route one meets it
    when its digits times 9 equal 8*10^k + 1, checked in exact ``Decimal``
    arithmetic, so no k-digit number passes between int and str.
    ArithmeticError if either check fails.
    """
    validate_order(k)
    nine_d, rem = divmod(8 * 10**k + 1, 9)
    if rem:
        raise ArithmeticError(f"8*10^{k}+1 not divisible by 9")
    with localcontext(EXACT_CONTEXT):
        if Decimal(_digits(k)) * 9 != Decimal(8).scaleb(k) + 1:
            raise ArithmeticError(f"digit construction != algebraic value for k = {k}")
    return RepunitDenominator(k=k, value=nine_d)


def _digits(k: int) -> str:
    """The digits of D_k: k-1 eights, then a nine."""
    return "8" * (k - 1) + "9"


def verify_decimal_identity(k: int) -> bool:
    """True iff closed_form(k, 10), in lowest terms, is 10/D_k (D_k ends in 9: prime to 10)."""
    from .series import SeriesPoint, closed_form

    d = repunit_denominator(k).value
    return closed_form(SeriesPoint(k=k, eta=10)).as_integer_ratio() == (10, d)


def reciprocal_digits(den: int, m: int) -> str:
    """First m decimal digits of 1/den after the point, from one exact division.

    The digits are floor(10^m / den), zero-padded to m, for den >= 2, and
    m zeros for den = 1.  libmpdec divides 10^m by den exactly, with a
    number-theoretic transform for big operands, where a long division
    takes one Python-level step per digit.  den reaches ``Decimal`` through
    ``to_decimal``, since ``Decimal(int)`` is quadratic in the digits.
    """
    require_int(den, "den")
    require_int(m, "m")
    if den < 1:
        raise ValueError(f"denominator must be >= 1, got {den}")
    if m < 1:
        raise ValueError(f"digit count must be >= 1, got {m}")
    with localcontext(EXACT_CONTEXT):
        return str(to_decimal(1 % den).scaleb(m) // to_decimal(den)).zfill(m)


def identity_line(k: int, passed: bool) -> str:
    """Display line for one order's identity check."""
    validate_order(k)
    verdict = "PASS" if passed else "FAIL"
    return f"1/{_digits(k)} == sum F_n^(k)/10^(n+1): {verdict}"
