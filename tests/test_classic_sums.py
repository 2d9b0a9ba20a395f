from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from kbonacci.classic_sums import (
    _alternating_terms_needed,
    _scaled_difference,
    alternating_reciprocal_sum,
    millin_type_sum,
    verify_classic,
)
from kbonacci.rational import to_decimal_string
from kbonacci.sequence import range_terms, term_fast, term_naive, window


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


@lru_cache(maxsize=None)
def alternating_by_terms(n_terms: int) -> Fraction:
    """The term-by-term Fraction sum, the oracle for the telescoped one."""
    fib = range_terms(2, 0, n_terms + 2)
    return sum(
        (Fraction((-1) ** n, fib[n] * fib[n + 2]) for n in range(1, n_terms + 1)), Fraction(0)
    )


@lru_cache(maxsize=None)
def millin_by_terms(m_terms: int) -> Fraction:
    """The term-by-term Fraction sum, the oracle for the telescoped one."""
    return sum((Fraction(1, term_naive(2, 2**n)) for n in range(m_terms + 1)), Fraction(0))


def target_bounds(identity: str, e: int) -> tuple:
    """(lo, hi) with lo < target < hi and hi - lo <= 10^-e, via the Newton iteration."""
    a, c = (2, 1) if identity == "alternating" else (7, 2)
    root = newton_isqrt(5 * 10 ** (2 * e))  # root <= sqrt(5) 10^e < root + 1
    return Fraction(a * 10**e - root - 1, c * 10**e), Fraction(a * 10**e - root, c * 10**e)


class TestAlternatingSum:
    def test_single_term_is_exact(self):
        assert alternating_reciprocal_sum(1) == Fraction(-1, 2)

    def test_two_terms(self):
        assert alternating_reciprocal_sum(2) == Fraction(-1, 6)

    def test_needs_a_term(self):
        with pytest.raises(ValueError):
            alternating_reciprocal_sum(0)

    @settings(deadline=None)
    @given(st.integers(1, 300))
    def test_matches_exact_fraction_oracle(self, n_terms):
        assert alternating_reciprocal_sum(n_terms) == alternating_by_terms(n_terms)

    def test_forty_terms_near_target(self):
        target = 2 - sqrt5_fraction(40)
        assert abs(alternating_reciprocal_sum(40) - target) < Fraction(1, 10**10)

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
        assert millin_type_sum(0) == 1

    def test_three_terms(self):
        assert millin_type_sum(2) == Fraction(7, 3)

    def test_negative_terms_rejected(self):
        with pytest.raises(ValueError):
            millin_type_sum(-1)

    @settings(deadline=None)
    @given(st.integers(0, 12))
    def test_matches_exact_fraction_oracle(self, m_terms):
        assert millin_type_sum(m_terms) == millin_by_terms(m_terms)

    def test_seven_terms_near_target(self):
        target = (7 - sqrt5_fraction(40)) / 2
        assert abs(millin_type_sum(6) - target) < Fraction(1, 10**12)

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
        assert report.abs_diff < Fraction(1, 10**6)
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
        v10 = verify_classic(identity, 10).value
        v20 = verify_classic(identity, 20).value
        assert abs(v10 - v20) <= 2 * Fraction(1, 10**8)

    @settings(deadline=None)
    @given(st.sampled_from(["alternating", "millin"]), st.integers(4, 400))
    def test_matches_independent_oracle(self, identity, d):
        report = verify_classic(identity, d)
        by_terms = alternating_by_terms if identity == "alternating" else millin_by_terms
        exact = by_terms(report.terms)
        assert report.value == exact
        doc = report.to_json_dict()
        assert doc["value"] == to_decimal_string(exact, d)
        # the target lies strictly inside (lo, hi), 10^-(2d+20) wide, far
        # narrower than the digits compared, so both ends truncate alike
        lo, hi = target_bounds(identity, 2 * d + 20)
        assert doc["target"] == to_decimal_string(lo, d) == to_decimal_string(hi, d)
        w = d + 6
        assert doc["abs_diff"] == to_decimal_string(abs(exact - lo), w)
        assert doc["abs_diff"] == to_decimal_string(abs(exact - hi), w)
        threshold = Fraction(1, 10 ** (d - 2))
        assert (abs(exact - lo) < threshold) == (abs(exact - hi) < threshold) == report.passed

    @pytest.mark.parametrize("d,passed", [(27394, True), (27395, False)])
    def test_verdict_turns_where_the_distance_crosses_the_threshold(self, d, passed):
        # past the Millin cap the distance stays near 8.3e-27393, so the
        # threshold 10^-(d-2) passes it between these two precisions
        report = verify_classic("millin", d)
        exact = millin_by_terms(report.terms)
        assert report.value == exact
        lo, hi = target_bounds("millin", d + 20)
        threshold = Fraction(1, 10 ** (d - 2))
        assert (abs(exact - lo) < threshold) == (abs(exact - hi) < threshold) == passed
        assert report.passed == passed

    @pytest.mark.parametrize(
        "x,a,c,w,expected",
        [
            (Fraction(0), 2, 1, 4, 2360),  # sqrt 5 - 2 = 0.23606...
            (Fraction(3), 7, 2, 4, 6180),  # 3 - 2.38196... = 0.61803...
            (Fraction(2), 7, 2, 4, -3819),  # 2 - 2.38196... = -0.38196...
            (Fraction(-1, 4), 2, 1, 6, -13932),  # -0.25 + 0.2360679... = -0.0139320...
        ],
    )
    def test_scaled_difference_truncates_toward_zero(self, x, a, c, w, expected):
        assert _scaled_difference(x, a, c, w) == expected

    def test_alternating_search_has_no_cap(self):
        # the doubling search used to stop at 2^20 terms, a false FAIL from
        # about 438k digits on
        f = window(2, 2**20 + 1, 3)
        assert _alternating_terms_needed(f[0] * f[2]) == 2**21

    @pytest.mark.xfail(strict=True, reason="ROADMAP 4: Millin cap")
    def test_millin_above_the_cap_passes(self):
        assert verify_classic("millin", 30000).passed
