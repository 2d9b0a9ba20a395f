from fractions import Fraction

import pytest

from kbonacci.classic_sums import (
    FixedReal,
    alternating_reciprocal_sum,
    millin_type_sum,
    sqrt5,
    verify_classic,
)
from kbonacci.sequence import range_terms, term_fast


def newton_isqrt(n: int) -> int:
    """Integer square root by Newton iteration, independent of math.isqrt."""
    if n < 0:
        raise ValueError(n)
    if n == 0:
        return 0
    x = 1 << ((n.bit_length() + 1) // 2)
    while True:
        y = (x + n // x) // 2
        if y >= x:
            return x
        x = y


def sqrt5_fraction(d: int) -> Fraction:
    """Oracle value of sqrt(5) to d digits, via the Newton iteration."""
    return Fraction(newton_isqrt(5 * 10 ** (2 * d)), 10**d)


class TestNewtonOracle:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 24, 25, 26, 10**12, 5 * 10**20])
    def test_floor_square_root(self, n):
        r = newton_isqrt(n)
        assert r * r <= n < (r + 1) * (r + 1)


class TestSqrt5:
    def test_ten_digits(self):
        s = sqrt5(10)
        assert s.mantissa == 22360679774
        assert s.to_decimal_string() == "2.2360679774"

    def test_one_digit(self):
        assert sqrt5(1).to_decimal_string() == "2.2"

    @pytest.mark.parametrize("d", [1, 10, 40, 60])
    def test_matches_newton_oracle(self, d):
        assert sqrt5(d).to_fraction() == sqrt5_fraction(d)

    @pytest.mark.parametrize("d", [1, 5, 10, 40])
    def test_square_is_close_to_five(self, d):
        v = sqrt5(d).to_fraction()
        assert abs(v * v - 5) <= 6 * Fraction(1, 10**d)

    def test_invalid_digits(self):
        with pytest.raises(ValueError):
            sqrt5(0)


class TestFixedReal:
    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            FixedReal(1, 0)

    def test_error_budget_nonnegative(self):
        with pytest.raises(ValueError):
            FixedReal(1, 4, -1)

    def test_from_int_is_exact(self):
        x = FixedReal.from_int(7, 5)
        assert x.to_fraction() == 7
        assert x.err_ulps == 0

    def test_reciprocal_exactness_tracking(self):
        assert FixedReal.reciprocal_of_int(2, 6).err_ulps == 0
        assert FixedReal.reciprocal_of_int(3, 6).err_ulps == 1
        assert FixedReal.reciprocal_of_int(3, 6).mantissa == 333333

    def test_reciprocal_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            FixedReal.reciprocal_of_int(0, 6)

    def test_add_requires_matching_scale(self):
        with pytest.raises(ValueError):
            FixedReal(1, 4) + FixedReal(1, 5)

    def test_add_accumulates_error(self):
        x = FixedReal(100, 4, 1) + FixedReal(200, 4, 2)
        assert (x.mantissa, x.err_ulps) == (300, 3)

    def test_sub_and_neg(self):
        x = FixedReal(500, 4) - FixedReal(200, 4, 1)
        assert (x.mantissa, x.err_ulps) == (300, 1)
        assert (-x).mantissa == -300

    def test_div_int_truncates_toward_zero(self):
        assert FixedReal(-7, 4).div_int(2).mantissa == -3
        assert FixedReal(7, 4).div_int(2).mantissa == 3

    def test_div_int_error_propagation(self):
        # exact division keeps the (shrunken) budget, inexact adds one
        assert FixedReal(10, 4, 2).div_int(2).err_ulps == 1
        assert FixedReal(7, 4, 0).div_int(2).err_ulps == 1

    def test_div_int_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            FixedReal(7, 4).div_int(0)

    def test_error_bound(self):
        assert FixedReal(1, 6, 3).error_bound() == Fraction(3, 10**6)


def alternating_sum_by_fixed_reals(n_terms: int, d: int) -> FixedReal:
    """The term-by-term FixedReal loop, the oracle for the integer one."""
    fib = range_terms(2, 0, n_terms + 2)
    acc = FixedReal(0, d, 0)
    for n in range(1, n_terms + 1):
        term = FixedReal.reciprocal_of_int(fib[n] * fib[n + 2], d)
        acc = acc - term if n % 2 else acc + term
    return acc


class TestAlternatingSum:
    @pytest.mark.parametrize(
        "n_terms,d",
        # (8192, 2601), (4096, 1663) and (128, 56) are verify_classic's
        # (terms, working digits) at 2595, 1657 and 50 digits; most terms of
        # (2048, 333) and (30, 4) are below one ulp; (3, 1) meets a product
        # equal to 10^d (F_3 F_5 = 10); (1, 1) is one exact term
        [(8192, 2601), (4096, 1663), (2048, 333), (128, 56), (3, 1), (30, 4), (1, 1)],
    )
    def test_equals_fixed_real_loop(self, n_terms, d):
        assert alternating_reciprocal_sum(n_terms, d) == alternating_sum_by_fixed_reals(
            n_terms, d
        )

    def test_single_term_is_exact(self):
        v = alternating_reciprocal_sum(1, 8)
        assert v.to_fraction() == Fraction(-1, 2)
        assert v.err_ulps == 0

    def test_two_terms(self):
        v = alternating_reciprocal_sum(2, 8)
        assert abs(v.to_fraction() - Fraction(-1, 6)) <= v.error_bound()

    def test_needs_a_term(self):
        with pytest.raises(ValueError):
            alternating_reciprocal_sum(0, 8)

    def test_matches_exact_fraction_oracle(self):
        fib = range_terms(2, 0, 27)
        exact = Fraction(0)
        for n in range(1, 26):
            exact += Fraction((-1) ** n, fib[n] * fib[n + 2])
        v = alternating_reciprocal_sum(25, 30)
        assert abs(v.to_fraction() - exact) <= v.error_bound()

    def test_forty_terms_near_target(self):
        target = 2 - sqrt5_fraction(40)
        v = alternating_reciprocal_sum(40, 12)
        assert abs(v.to_fraction() - target) < Fraction(1, 10**10)

    def test_partial_sums_bracket_the_target(self):
        # alternating series: consecutive truncations enclose the limit
        target = 2 - sqrt5_fraction(60)
        fib = range_terms(2, 0, 24)
        partial = Fraction(0)
        previous_sign = None
        for n in range(1, 21):
            partial += Fraction((-1) ** n, fib[n] * fib[n + 2])
            if n >= 2:
                sign = 1 if partial > target else -1
                if previous_sign is not None:
                    assert sign == -previous_sign
                previous_sign = sign


class TestMillinSum:
    def test_zero_terms(self):
        v = millin_type_sum(0, 8)
        assert v.to_fraction() == 1
        assert v.err_ulps == 0

    def test_three_terms(self):
        v = millin_type_sum(2, 8)
        assert abs(v.to_fraction() - Fraction(7, 3)) <= v.error_bound()

    def test_negative_terms_rejected(self):
        with pytest.raises(ValueError):
            millin_type_sum(-1, 8)

    def test_seven_terms_near_target(self):
        target = (7 - sqrt5_fraction(40)) / 2
        v = millin_type_sum(6, 15)
        assert abs(v.to_fraction() - target) < Fraction(1, 10**12)

    def test_partial_sums_increase_toward_target(self):
        target = (7 - sqrt5_fraction(60)) / 2
        sums = []
        acc = Fraction(0)
        for n in range(9):
            acc += Fraction(1, term_fast(2, 2**n))
            sums.append(acc)
        assert all(a < b for a, b in zip(sums, sums[1:]))
        assert all(s < target + Fraction(1, 10**12) for s in sums)


class TestVerifyClassic:
    @pytest.mark.parametrize("identity", ["alternating", "millin"])
    def test_passes_at_eight_digits(self, identity):
        report = verify_classic(identity, 8)
        assert report.passed
        assert report.abs_diff <= Fraction(1, 10**6) + report.error_budget
        assert report.terms >= 1

    def test_millin_minimum_digits(self):
        assert verify_classic("millin", 4).passed

    def test_digit_floor_enforced(self):
        with pytest.raises(ValueError):
            verify_classic("alternating", 3)

    def test_unknown_identity_rejected(self):
        with pytest.raises(ValueError):
            verify_classic("golden", 8)

    @pytest.mark.parametrize("identity", ["alternating", "millin"])
    def test_json_shape(self, identity):
        doc = verify_classic(identity, 10).to_json_dict()
        assert list(doc) == [
            "identity", "terms", "digits", "value", "target", "abs_diff", "pass",
        ]
        assert doc["identity"] == identity
        assert doc["digits"] == 10
        assert doc["pass"] is True
        # value and target agree through the requested digits
        assert doc["value"] == doc["target"]

    @pytest.mark.parametrize("identity", ["alternating", "millin"])
    def test_doubling_digits_keeps_leading_agreement(self, identity):
        v10 = verify_classic(identity, 10).value.to_fraction()
        v20 = verify_classic(identity, 20).value.to_fraction()
        assert abs(v10 - v20) <= 2 * Fraction(1, 10**8)
