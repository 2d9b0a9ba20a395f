"""Reference implementations the tests compare the package against."""

from fractions import Fraction
from math import isqrt

from kbonacci.rational import fixed_point, to_decimal


def to_decimal_string(value: Fraction, digits: int) -> str:
    """Decimal rendering with exactly ``digits`` fraction digits.

    Truncates toward zero rather than rounding, so the digit stream of a
    value is a prefix of any longer rendering of it.
    """
    if digits < 1:
        raise ValueError(f"digit count must be >= 1, got {digits}")
    # the sign is the value's, so a small negative value prints as -0.000
    scaled = abs(value.numerator) * 10**digits // value.denominator
    return ("-" if value < 0 else "") + fixed_point(to_decimal(scaled), digits)


def _scaled_difference(p: int, q: int, a: int, c: int, w: int) -> int:
    """(p/q - (a - sqrt 5)/c) * 10^w truncated toward zero, exactly, for q > 0.

    The scaled difference is (A + sqrt B)/(qc), where A = (pc - aq) 10^w
    and B = 5 (q 10^w)^2.  B is five times a nonzero square, so sqrt B
    lies strictly between s = isqrt(B) and s + 1: the difference is
    positive with floor (A + s) // (qc) when A + s >= 0, and negative with
    |difference| flooring to (-A - s - 1) // (qc) otherwise.  p/q need not
    be in lowest terms.
    """
    scale = 10**w
    bound = (p * c - a * q) * scale + isqrt(5 * (q * scale) ** 2)
    if bound >= 0:
        return bound // (q * c)
    return -((-bound - 1) // (q * c))
