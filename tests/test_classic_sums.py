from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from kbonacci import classic_sums
from kbonacci.classic_sums import (
    ClassicReport,
    _alternating_terms_needed,
    _millin_terms_needed,
    alternating_reciprocal_sum,
    millin_type_sum,
    verify_classic,
)
from kbonacci.rational import to_decimal
from kbonacci.sequence import range_terms, term_fast, term_naive, window

from oracles import _scaled_difference, to_decimal_string


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


class TestClassicReport:
    """ClassicReport is an immutable named tuple."""

    FIELDS = ("millin", 3, 4, 50, 21, 23809, 23819, 10136302, True)

    def test_by_keyword_and_position(self):
        report = ClassicReport(*self.FIELDS)
        assert report == ClassicReport(**dict(zip(ClassicReport._fields, self.FIELDS)))
        assert report == verify_classic("millin", 4)
        assert report != verify_classic("millin", 5)
        assert (report.value, report.target) == (Fraction(50, 21), Fraction(23819, 10**4))
        assert report.abs_diff == Fraction(10136302, 10**10)

    def test_repr(self):
        # verify_classic's numbers are integer Decimals, equal to the ints
        assert repr(verify_classic("millin", 4)) == (
            "ClassicReport(identity='millin', terms=3, digits=4, numerator=Decimal('50'),"
            " denominator=Decimal('21'),"
            " scaled_value=Decimal('23809'), scaled_target=Decimal('23819'),"
            " scaled_diff=Decimal('10136302'), passed=True)"
        )

    @pytest.mark.parametrize("identity", ["alternating", "millin"])
    @pytest.mark.parametrize("d", [4, 50, 5000])
    def test_scaled_numbers_are_integer_decimals(self, identity, d):
        report = verify_classic(identity, d)
        for value in report[3:8]:  # numerator .. scaled_diff
            assert isinstance(value, Decimal) and value.as_tuple().exponent == 0

    @pytest.mark.parametrize("name", ["passed", "digits", "value", "other"])
    def test_immutable(self, name):
        with pytest.raises(AttributeError):
            setattr(ClassicReport(*self.FIELDS), name, 0)

    @pytest.mark.parametrize(
        "identity,d", [("alternating", 27000), ("millin", 27000), ("alternating", 30000)]
    )
    def test_fractions_of_a_large_report(self, identity, d):
        # target and abs_diff come back from their Decimals through str, not
        # int(Decimal); the alternating target is negative, Millin's positive
        report = verify_classic(identity, d)
        numbers, _ = exact_lines(identity, d, report.terms)
        assert (report.value, report.target, report.abs_diff) == numbers
        assert (report.target < 0) == (identity == "alternating")


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
        assert _scaled_difference(x.numerator, x.denominator, a, c, w) == expected
        # p/q need not be in lowest terms
        assert _scaled_difference(3 * x.numerator, 3 * x.denominator, a, c, w) == expected

    def test_alternating_search_has_no_cap(self):
        # the doubling search used to stop at 2^20 terms, a false FAIL from
        # about 438k digits on; the threshold is a Decimal, as verify_classic
        # passes it, since comparing with an int converts it at every step
        f = window(2, 2**20 + 1, 3)
        terms, _ = _alternating_terms_needed(to_decimal(f[0] * f[2]))
        assert terms == 2**21

    @pytest.mark.parametrize("d", [50, 3000, 30000])
    def test_alternating_takes_no_window(self, d, monkeypatch):
        # the search doubles F_{N-1}, F_N from N = 4 and reads F_{N+1},
        # F_{N+2} off the pair it stops on, so neither it nor the sum jumps
        calls = []
        monkeypatch.setattr(classic_sums, "window", lambda *args: calls.append(args))
        report = verify_classic("alternating", d)
        assert calls == []
        monkeypatch.undo()
        assert report.value == alternating_reciprocal_sum(report.terms)

    @pytest.mark.parametrize("d", [4, 50, 3000, 27000, 30000])
    def test_millin_takes_one_window_per_step(self, d, monkeypatch):
        # step M holds the window F_{2^M - 1}, F_{2^M} and tests
        # F_{2^(M+1)} = F_{2^M} (F_{2^M} + 2 F_{2^M - 1}); each step doubles
        # the index of its pair instead of jumping to it, so no step and
        # nothing after the search calls window
        calls = []
        monkeypatch.setattr(classic_sums, "window", lambda *args: calls.append(args))
        report = verify_classic("millin", d)
        terms, run = _millin_terms_needed(8 * 10 ** (d - 2))
        assert calls == []
        assert not hasattr(classic_sums, "term_fast")
        monkeypatch.undo()
        assert terms == report.terms
        assert run == window(2, 2**terms - 1, 2)
        assert report.value == millin_type_sum(report.terms)

    @pytest.mark.parametrize(
        "w", [0, 1, 2, 19, 20, 21, 22, 23, 50, 55, 56, 100, 113, 1000, 4301, 10**4, 36_758, 200_014]
    )
    def test_newton_root_is_the_integer_root(self, w):
        s = classic_sums._sqrt5_scaled(w)
        assert s.as_tuple().exponent == 0
        assert s == to_decimal(isqrt(5 * 10 ** (2 * w)))

    @settings(deadline=None)
    @given(st.integers(0, 3000))
    def test_newton_root_of_every_small_width(self, w):
        assert classic_sums._sqrt5_scaled(w) == to_decimal(isqrt(5 * 10 ** (2 * w)))

    @pytest.mark.xfail(strict=True, reason="ROADMAP 1: Millin cap")
    def test_millin_above_the_cap_passes(self):
        assert verify_classic("millin", 30000).passed


def alternating_search_by_windows(threshold_den: int) -> tuple:
    """The alternating search by jumps: window(2, N + 1, 3) from F_0 at N = 4, 8, 16, ..."""
    n = 4
    while True:
        fib = window(2, n + 1, 3)
        if fib[0] * fib[2] > threshold_den:
            return n, fib[:2]
        n *= 2


def millin_search_by_windows(threshold_den: int) -> tuple:
    """The Millin search by jumps: F_{2^(M+1)}, then F_{2^M - 1}, F_{2^M}, each from F_0."""
    m = 1
    while True:
        if m == classic_sums._MAX_MILLIN_TERMS or window(2, 2 ** (m + 1), 1)[0] > threshold_den:
            return m, window(2, 2**m - 1, 2)
        m += 1


class TestSearchOracles:
    """The doubling searches stop where the window-stepping ones stop, on the same pair."""

    DIGITS = [*range(4, 400), 1000, 3000, 27000, 27500, 30000, 100_000]

    @pytest.mark.parametrize(
        "search,oracle",
        [
            (_alternating_terms_needed, alternating_search_by_windows),
            (_millin_terms_needed, millin_search_by_windows),
        ],
        ids=["alternating", "millin"],
    )
    def test_searches_match_the_window_oracles(self, search, oracle):
        for d in self.DIGITS:
            threshold = 8 * 10 ** (d - 2)
            assert search(threshold) == oracle(threshold), d

    @pytest.mark.parametrize("m", [1, 2, 3, 8, 17])
    def test_millin_sum_from_its_doublings(self, m):
        assert millin_type_sum(m) == Fraction(*classic_sums._millin_parts(*window(2, 2**m - 1, 2)))


def exact_lines(identity: str, d: int, terms: int) -> tuple:
    """The report's three numbers and its JSON document, by the exact
    ``_scaled_difference`` path alone: one Fraction sum, two isqrt-based
    truncations and ``to_decimal_string``."""
    if identity == "alternating":
        value, a, c = alternating_reciprocal_sum(terms), 2, 1
    else:
        value, a, c = millin_type_sum(terms), 7, 2
    target = Fraction(-_scaled_difference(0, 1, a, c, d), 10**d)
    diff = abs(_scaled_difference(value.numerator, value.denominator, a, c, d + 6))
    abs_diff = Fraction(diff, 10 ** (d + 6))
    doc = {
        "identity": identity,
        "terms": terms,
        "digits": d,
        "value": to_decimal_string(value, d),
        "target": to_decimal_string(target, d),
        "abs_diff": to_decimal_string(abs_diff, d + 6),
        "pass": diff < 10**8,
    }
    return (value, target, abs_diff), doc


def assert_matches_exact_path(report):
    numbers, doc = exact_lines(report.identity, report.digits, report.terms)
    assert (report.value, report.target, report.abs_diff) == numbers
    assert report.to_json_dict() == doc
    assert report.passed is doc["pass"]


@pytest.fixture
def roots(monkeypatch):
    """The width W of every square root verify_classic takes: one a request, one more a retry."""
    widths = []
    root = classic_sums._sqrt5_scaled
    monkeypatch.setattr(classic_sums, "_sqrt5_scaled", lambda w: widths.append(w) or root(w))
    return widths


class TestSharedRootFastPath:
    """verify_classic's lines from one square root and one division a pass,
    against the exact _scaled_difference path of the oracles."""

    @settings(deadline=None, max_examples=60)
    @given(st.sampled_from(["alternating", "millin"]), st.integers(4, 3000))
    def test_lines_and_verdict_match_the_exact_path(self, identity, d):
        assert_matches_exact_path(verify_classic(identity, d))

    def test_typical_requests_take_no_fallback(self, roots):
        # one pass a request, at W = d + 6 + 8: no retry
        for identity in ("alternating", "millin"):
            for d in range(4, 200):
                roots.clear()
                verify_classic(identity, d)
                assert roots == [d + 14]

    @pytest.mark.parametrize("identity", ["alternating", "millin"])
    def test_without_guard_digits_every_distance_falls_back(
        self, identity, monkeypatch, roots
    ):
        # with g = 0 the interval of c + 1 units always holds a multiple of
        # c, so every distance takes a retry (a few take two, at g = 1 and 3)
        fast = [verify_classic(identity, d).to_json_dict() for d in range(4, 120)]
        monkeypatch.setattr(classic_sums, "_GUARD_DIGITS", 0)
        slow = []
        for d in range(4, 120):
            roots.clear()
            report = verify_classic(identity, d)
            assert roots[:2] == [d + 6, d + 7]
            assert_matches_exact_path(report)
            slow.append(report.to_json_dict())
        assert slow == fast

    @pytest.mark.parametrize("identity", ["alternating", "millin"])
    def test_one_guard_digit_decides_most_lines_exactly(self, identity, monkeypatch, roots):
        # with g = 1 a truncation boundary is often near the distance, so a
        # bound off by one unit would show; most requests still take no retry
        monkeypatch.setattr(classic_sums, "_GUARD_DIGITS", 1)
        for d in range(4, 400):
            assert_matches_exact_path(verify_classic(identity, d))
        assert 0 < len(roots) - 396 < 396 // 2

    @pytest.mark.parametrize("identity,d", [("alternating", 5000), ("millin", 27400), ("millin", 40000)])
    def test_large_requests_without_guard_digits_fall_back_alike(
        self, identity, d, monkeypatch, roots
    ):
        # a retry at full size prints what one pass at g = 8 prints
        fast = verify_classic(identity, d).to_json_dict()
        monkeypatch.setattr(classic_sums, "_GUARD_DIGITS", 0)
        roots.clear()
        report = verify_classic(identity, d)
        assert roots == [d + 6, d + 7]
        assert report.to_json_dict() == fast
        assert_matches_exact_path(report)

    @pytest.mark.parametrize(
        "identity,d,passed",
        [
            ("millin", 27394, True),
            ("millin", 27395, False),
            ("millin", 28000, False),
            ("millin", 33333, False),
            ("millin", 40000, False),
            ("alternating", 30000, True),
            ("alternating", 100000, True),
        ],
    )
    def test_large_requests_print_what_the_exact_path_prints(self, identity, d, passed):
        # the verdict turn of the capped Millin sum, the FAILs above it that
        # perfbench pins, and the alternating sum at large d
        report = verify_classic(identity, d)
        assert report.passed is passed
        assert_matches_exact_path(report)
