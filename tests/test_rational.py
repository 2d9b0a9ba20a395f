import decimal
import random
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from kbonacci.rational import (
    EXACT_CONTEXT,
    _LEAF_BITS,
    format_ratio,
    int_to_str,
    parse_rational,
    to_decimal,
    to_decimal_string,
)

rationals = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=999
)


class TestOperations:
    def test_construction_normalizes(self):
        assert Fraction(90, 801) == Fraction(10, 89)


class TestNormalizationProperties:
    @given(num=st.integers(-10**6, 10**6), den=st.integers(1, 10**6))
    def test_canonical_form(self, num, den):
        from math import gcd

        f = Fraction(num, den)
        assert f.denominator >= 1
        assert gcd(abs(f.numerator), f.denominator) == 1
        if f == 0:
            assert (f.numerator, f.denominator) == (0, 1)

    @given(rationals)
    def test_renormalizing_is_idempotent(self, f):
        again = Fraction(f.numerator, f.denominator)
        assert (again.numerator, again.denominator) == (f.numerator, f.denominator)


class TestParsing:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("10", Fraction(10)),
            ("5/2", Fraction(5, 2)),
            ("-7/2", Fraction(-7, 2)),
            ("+3", Fraction(3)),
            (" 4/6 ", Fraction(2, 3)),
            ("0", Fraction(0)),
        ],
    )
    def test_accepts_exact_forms(self, text, expected):
        assert parse_rational(text) == expected

    @pytest.mark.parametrize(
        "text", ["2.5", "1e3", "", "a/b", "1/ 2", "--3", "1/0", "3/00", "1/2/3"]
    )
    def test_rejects_everything_else(self, text):
        with pytest.raises(ValueError):
            parse_rational(text)

    @given(rationals)
    def test_format_parse_round_trip(self, f):
        assert parse_rational(format_ratio(f)) == f

    def test_format_always_has_denominator(self):
        assert format_ratio(Fraction(10)) == "10/1"
        assert format_ratio(Fraction(-3, 7)) == "-3/7"


class TestDecimalRendering:
    def test_truncates_not_rounds(self):
        assert to_decimal_string(Fraction(2, 3), 4) == "0.6666"
        assert to_decimal_string(Fraction(1, 89), 10) == "0.0112359550"

    def test_negative_values(self):
        assert to_decimal_string(Fraction(-1, 6), 6) == "-0.166666"

    def test_integer_values(self):
        assert to_decimal_string(Fraction(5), 3) == "5.000"

    def test_digit_count_enforced(self):
        with pytest.raises(ValueError):
            to_decimal_string(Fraction(1, 3), 0)

    def test_prefix_stability(self):
        short = to_decimal_string(Fraction(1, 7), 8)
        long = to_decimal_string(Fraction(1, 7), 20)
        assert long.startswith(short)

    @given(rationals, st.integers(1, 30))
    def test_round_trip_error_below_one_ulp(self, f, d):
        rendered = to_decimal_string(f, d)
        whole, frac = rendered.lstrip("-").split(".")
        reread = Fraction(int(whole) * 10**d + int(frac), 10**d)
        if rendered.startswith("-"):
            reread = -reread
        assert abs(reread - f) < Fraction(1, 10**d)


class TestIntToStr:
    """int_to_str against str() as the oracle."""

    @pytest.fixture(autouse=True, scope="class")
    def lift_str_limit(self):
        # the oracle str() needs CPython's int-to-str digit limit lifted
        if not hasattr(sys, "set_int_max_str_digits"):
            yield
            return
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        yield
        sys.set_int_max_str_digits(old)

    @given(st.integers(0, 6 * _LEAF_BITS), st.integers(0, 2**32), st.booleans())
    def test_matches_str_across_widths(self, width, seed, negative):
        n = random.Random(seed).getrandbits(width)
        n = -n if negative else n
        assert int_to_str(n) == str(n)

    @pytest.mark.parametrize(
        "base,j",
        [(2, j) for j in (1, 63, _LEAF_BITS - 1, _LEAF_BITS, _LEAF_BITS + 1, 60_000)]
        + [(10, j) for j in (1, 19, 2_466, 2_467, 4_301, 30_103)],
    )
    @pytest.mark.parametrize("d", [-1, 0, 1])
    def test_boundaries(self, base, j, d):
        n = base**j + d
        assert int_to_str(n) == str(n)
        assert int_to_str(-n) == str(-n)

    def test_to_decimal_is_exact(self):
        n = 3**40_000
        assert to_decimal(n) == Decimal(n)
        assert to_decimal(-n) == Decimal(-n)

    def test_ignores_the_current_context(self):
        n = 7**30_000
        with decimal.localcontext() as ctx:
            ctx.prec = 5
            assert int_to_str(n) == str(n)

    def test_rounding_raises_under_exact_context(self):
        assert EXACT_CONTEXT.traps[decimal.Inexact]
        assert EXACT_CONTEXT.traps[decimal.Rounded]
        with pytest.raises((decimal.Inexact, decimal.Rounded)):
            EXACT_CONTEXT.quantize(Decimal("2.5"), Decimal(1))
        # the same traps at a precision too small for the sum
        with decimal.localcontext(EXACT_CONTEXT) as ctx:
            ctx.prec = 10
            with pytest.raises((decimal.Inexact, decimal.Rounded)):
                Decimal(10**10) + Decimal(1)

    def test_format_ratio_and_decimal_string_of_big_values(self):
        value = Fraction(5**20_000 + 1, 3**15_000)
        num, den = value.numerator, value.denominator
        assert format_ratio(value) == f"{num}/{den}"
        digits = 12_000
        whole, frac = divmod(num * 10**digits // den, 10**digits)
        assert to_decimal_string(value, digits) == f"{whole}.{frac:0{digits}d}"
