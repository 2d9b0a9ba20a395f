"""Reference implementations the tests compare the package against."""

from kbonacci.rational import Rational, fixed_point, to_decimal


def to_decimal_string(value: Rational, digits: int) -> str:
    """Decimal rendering with exactly ``digits`` fraction digits.

    Truncates toward zero rather than rounding, so the digit stream of a
    value is a prefix of any longer rendering of it.
    """
    if digits < 1:
        raise ValueError(f"digit count must be >= 1, got {digits}")
    # the sign is the value's, so a small negative value prints as -0.000
    scaled = abs(value.numerator) * 10**digits // value.denominator
    return ("-" if value < 0 else "") + fixed_point(to_decimal(scaled), digits)
