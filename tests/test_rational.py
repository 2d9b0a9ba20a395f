import decimal
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from kbonacci.rational import (
    EXACT_CONTEXT,
    _LEAF_BITS,
    _LEAF_DIGITS,
    fixed_point,
    format_ratio,
    fraction_to_str,
    int_to_str,
    parse_rational,
    str_to_int,
    to_decimal,
)

from oracles import to_decimal_string

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

    def test_digits_past_the_str_limit(self):
        # under the default int/str limit, which int() and Fraction(str)
        # would hit; a run of n sevens is 7 (10^n - 1) / 9
        sevens = lambda n: 7 * (10**n - 1) // 9
        assert parse_rational("-" + "7" * 9000 + "/1" + "0" * 5000) == Fraction(
            -sevens(9000), 10**5000
        )
        assert parse_rational("+" + "7" * 4301) == sevens(4301)
        with pytest.raises(ValueError, match="zero denominator"):
            parse_rational("1/" + "0" * 5000)

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

    def test_small_negative_keeps_its_sign(self):
        assert to_decimal_string(Fraction(-1, 10**9), 3) == "-0.000"
        assert fixed_point(0, 3) == "0.000"

    @pytest.mark.parametrize(
        "n,digits,text",
        [(0, 1, "0.0"), (5, 3, "0.005"), (-5, 3, "-0.005"), (123456, 2, "1234.56"), (-10**6, 6, "-1.000000")],
    )
    def test_fixed_point(self, n, digits, text):
        assert fixed_point(n, digits) == text

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


@pytest.mark.usefixtures("lifted_str_limit")  # for the oracle int()
class TestStrToInt:
    @pytest.mark.parametrize(
        "length",
        [1, _LEAF_DIGITS, _LEAF_DIGITS + 1, 2 * _LEAF_DIGITS + 1, 4300, 4301, 50_000],
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_int(self, length, seed):
        rng = random.Random(length * 10 + seed)
        digits = "".join(rng.choice("0123456789") for _ in range(length))
        assert str_to_int(digits) == int(digits)

    def test_leading_zeros(self):
        assert str_to_int("0" * 10_000 + "12") == 12

    @pytest.mark.parametrize("sign", ["-", "+"])
    @pytest.mark.parametrize("length", [1, 4301, 50_000])
    def test_sign(self, sign, length):
        digits = sign + "7" * length
        assert str_to_int(digits) == int(digits)


@pytest.mark.usefixtures("lifted_str_limit")  # for the oracle str()
class TestIntToStr:
    """int_to_str against str() as the oracle."""

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
            # below the leaf width to_decimal builds the Decimal at once
            assert str(to_decimal(-(7**300))) == str(-(7**300))

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

    @pytest.mark.parametrize(
        "value",
        [Fraction(0), Fraction(-7), Fraction(-5, 2), Fraction(10**5000 + 1, 10**4999),
         Fraction(-1, 3**9000), Fraction(-(7**6000))],
    )
    def test_fraction_to_str_is_str_of_the_fraction(self, value):
        # the integer form drops "/1", as str() does, at any size
        assert fraction_to_str(value) == str(value)
