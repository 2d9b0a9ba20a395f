from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from kbonacci import decimal_identity
from kbonacci.decimal_identity import (
    RepunitDenominator,
    identity_line,
    reciprocal_digits,
    repunit_denominator,
    verify_decimal_identity,
)
from kbonacci.rational import int_to_str
from kbonacci.sequence import iter_terms, range_terms
from kbonacci.series import SeriesPoint, closed_form

from oracles import to_decimal_string


def long_division_digits(den: int, m: int) -> str:
    """First m digits of 1/den after the point, one divmod per digit.

    The oracle for ``reciprocal_digits``, which divides once in Decimal.
    """
    rem = 1 % den
    out = bytearray()
    for _ in range(m):
        rem *= 10
        digit, rem = divmod(rem, den)
        out.append(48 + digit)  # ord("0") + digit
    return out.decode()


class TestRepunitDenominator:
    @pytest.mark.parametrize("k,value", [(2, 89), (3, 889), (5, 88889)])
    def test_golden_values(self, k, value):
        d = repunit_denominator(k)
        assert d.value == value
        assert d.k == k
        assert int(d) == value

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            repunit_denominator(1)

    def test_named_tuple(self):
        d = repunit_denominator(3)
        assert d == RepunitDenominator(3, 889) == RepunitDenominator(k=3, value=889)
        assert d != repunit_denominator(4)
        assert repr(d) == "RepunitDenominator(k=3, value=889)"
        assert str(d) == "889"
        for name in ("k", "value", "other"):
            with pytest.raises(AttributeError):
                setattr(d, name, 1)

    @pytest.mark.parametrize("k", range(2, 65))
    def test_digit_shape(self, k):
        rendered = str(repunit_denominator(k))
        assert len(rendered) == k
        assert rendered[: k - 1] == "8" * (k - 1)
        assert rendered[-1] == "9"

    @pytest.mark.parametrize("k", range(2, 65))
    def test_nine_times_value(self, k):
        assert 9 * repunit_denominator(k).value == 8 * 10**k + 1

    def test_largest_order_against_the_algebraic_value(self):
        k = 100_000
        d = repunit_denominator(k)
        assert 9 * d.value == 8 * 10**k + 1
        assert str(d) == "8" * (k - 1) + "9"

    def test_a_route_that_disagrees_raises(self, monkeypatch):
        # explicit checks, which python -O keeps; not ValueErrors, which the
        # CLI reports as usage errors
        with monkeypatch.context() as patch:
            patch.setattr(decimal_identity, "divmod", lambda a, b: (a // b, 1), raising=False)
            with pytest.raises(ArithmeticError, match=r"8\*10\^5\+1 not divisible by 9"):
                repunit_denominator(5)
        def off_by_one(x):  # route one's digits, one too many
            return Decimal(x) + 1 if isinstance(x, str) else Decimal(x)

        monkeypatch.setattr(decimal_identity, "Decimal", off_by_one)
        with pytest.raises(ArithmeticError, match="digit construction != algebraic value for k = 5"):
            repunit_denominator(5)


class TestIdentity:
    @pytest.mark.parametrize("k", range(2, 17))
    def test_holds_exactly(self, k):
        assert verify_decimal_identity(k)

    @pytest.mark.parametrize("k,den", [(2, 89), (3, 889), (4, 8889), (10, None)])
    def test_closed_form_route(self, k, den):
        d = den if den is not None else repunit_denominator(k).value
        tenth = closed_form(SeriesPoint(k=k, eta=Fraction(10))) / 10
        assert tenth == Fraction(1, d)


class TestReciprocalDigits:
    def test_fibonacci_prefix_of_one_over_89(self):
        # frozen from a hand long division: 0,1,1,2,3,5(,8 with carries)
        assert reciprocal_digits(89, 10) == "0112359550"

    def test_one_over_889(self):
        digits = reciprocal_digits(889, 12)
        # independent route: floor(10^12 / 889), zero-padded
        assert digits == f"{10**12 // 889:012d}"
        assert digits == "001124859392"

    def test_unit_denominator(self):
        assert reciprocal_digits(1, 3) == "000"

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            reciprocal_digits(0, 5)
        with pytest.raises(ValueError):
            reciprocal_digits(89, 0)

    @settings(deadline=None, max_examples=200)
    @given(den=st.integers(1, 10**40), m=st.integers(1, 120))
    @example(den=1, m=1)
    @example(den=1, m=50)
    @example(den=10**7, m=7)
    @example(den=10**7 + 1, m=6)
    @example(den=10**40, m=3)
    def test_against_long_division(self, den, m):
        # den = 1 gives zeros, and den > 10^m a quotient padded from 0
        assert reciprocal_digits(den, m) == long_division_digits(den, m)

    @settings(deadline=None, max_examples=25)
    @given(k=st.integers(2, 100_000), m=st.integers(1, 60))
    @example(k=100_000, m=1)
    @example(k=100_000, m=60)
    @example(k=2, m=1)
    def test_repunit_against_long_division(self, k, m):
        d = repunit_denominator(k).value
        assert reciprocal_digits(d, m) == long_division_digits(d, m)

    @pytest.mark.parametrize("k,m", [(2, 20_000), (31, 5000), (36, 4000), (1000, 3000)])
    def test_many_digits_against_long_division(self, k, m):
        d = repunit_denominator(k).value
        assert reciprocal_digits(d, m) == long_division_digits(d, m)

    def test_prefix_stability(self):
        assert reciprocal_digits(89, 30).startswith(reciprocal_digits(89, 12))

    @pytest.mark.parametrize("k", [2, 3, 5, 8])
    @pytest.mark.parametrize("m", [1, 8, 17, 33, 64])
    def test_consistent_with_exact_rendering(self, k, m):
        d = repunit_denominator(k).value
        tenth = closed_form(SeriesPoint(k=k, eta=Fraction(10))) / 10
        rendered = to_decimal_string(tenth, m)
        assert rendered.startswith("0.")
        assert reciprocal_digits(d, m) == rendered[2:]


class TestDigitOverlap:
    """The digits of 1/D_k are those of the series' partial sum of terms."""

    @pytest.mark.parametrize("k,m", [(2, 8), (3, 8), (2, 1)])
    def test_examples(self, k, m):
        self.check_against_term_sum(k, m)

    @pytest.mark.parametrize(
        "m,k", [(m, k) for m in (1, 8, 32, 64) for k in range(2, 7)] + [(5000, 2)]
    )
    def test_grid(self, m, k):
        # m = 5000 is past CPython's 4300-digit int/str limit
        self.check_against_term_sum(k, m)

    @staticmethod
    def check_against_term_sum(k, m):
        d = (8 * 10**k + 1) // 9
        # From F_{k-1} = 1 on, F_{n+1} <= 2 F_n, so the sum beyond F_N is at
        # most F_{N+1} / (8 * 10^(N+1)), which this N keeps below 10^-m / d.
        # 10^m / d is not an integer and its fractional part is at least 1/d,
        # so the partial sum's first m digits are floor(10^m / d).
        scale = 10**m * d
        n_trunc = next(
            n
            for n, following in enumerate(iter_terms(k, k - 1), start=k - 2)
            if scale * following < 8 * 10 ** (n + 1)
        )
        scaled = 0  # sum of F_n * 10^(N-n) for n <= N, by Horner's rule
        for term in range_terms(k, 0, n_trunc):
            scaled = scaled * 10 + term
        oracle = scaled * 10**m // 10 ** (n_trunc + 1)
        assert int_to_str(oracle).zfill(m) == reciprocal_digits(d, m)


class TestIdentityLine:
    def test_pass_format(self):
        assert identity_line(2, True) == "1/89 == sum F_n^(k)/10^(n+1): PASS"

    def test_fail_format(self):
        assert identity_line(3, False) == "1/889 == sum F_n^(k)/10^(n+1): FAIL"

    def test_names_the_denominator(self):
        for k in range(2, 40):
            assert identity_line(k, True).startswith(f"1/{repunit_denominator(k)} == ")

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            identity_line(1, True)


class TestBeyondTheStrLimit:
    """Orders and digit counts past CPython's default 4300-digit int/str limit,
    which the suite keeps in force (tests/conftest.py)."""

    K = 5000

    def test_repunit_denominator(self):
        d = repunit_denominator(self.K)
        assert 9 * d.value == 8 * 10**self.K + 1
        assert str(d) == "8" * (self.K - 1) + "9"

    def test_identity_line(self):
        line = identity_line(self.K, verify_decimal_identity(self.K))
        assert line == f"1/{'8' * (self.K - 1)}9 == sum F_n^(k)/10^(n+1): PASS"
