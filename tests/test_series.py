import json
import math
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from itertools import repeat
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from kbonacci import bounds, cli, series
from kbonacci.rational import format_ratio, parse_rational, to_decimal
from kbonacci.sequence import iter_terms, range_terms, term_fast
from kbonacci.series import (
    EvalReport,
    SeriesPoint,
    closed_form,
    converge_until,
    evaluate,
    evaluate_range,
)

P210 = SeriesPoint(k=2, eta=Fraction(10))
P310 = SeriesPoint(k=3, eta=Fraction(10))


def horner_partial_sum(point, n_trunc):
    """Sum of F_n / eta^n for n = 0 .. n_trunc by Horner's rule over the terms.

    The oracle for ``evaluate``'s ``partial``: N + 1 rational
    multiply-adds over the sweep from F_0, quadratic in N.
    """
    inv = 1 / point.eta
    acc = Fraction(0)
    for f in reversed(range_terms(point.k, 0, n_trunc)):
        acc = acc * inv + f
    return acc


@st.composite
def point_and_index(draw):
    """(k, eta, N): eta just above 2, with 30-bit p and q, or an integer."""
    k = draw(st.integers(2, 40))
    eta = draw(
        st.one_of(
            st.integers(1, 2**30).map(lambda q: 2 + Fraction(1, q)),
            st.integers(2**28, 2**29 - 1).flatmap(
                lambda q: st.integers(2 * q + 1, 2**30 - 1).map(lambda p: Fraction(p, q))
            ),
            st.integers(3, 1000).map(Fraction),
        )
    )
    n = draw(
        st.one_of(
            st.integers(0, 400),
            st.integers(0, k - 1),
            st.sampled_from([k - 1, k]),
        )
    )
    return SeriesPoint(k=k, eta=eta), n


class TestSeriesPoint:
    def test_order_validated(self):
        with pytest.raises(ValueError):
            SeriesPoint(k=1, eta=Fraction(10))

    @pytest.mark.parametrize("eta", [Fraction(2), Fraction(199, 100), Fraction(0), Fraction(-5)])
    def test_eta_at_most_two_rejected(self, eta):
        with pytest.raises(ValueError):
            SeriesPoint(k=2, eta=eta)

    def test_integer_eta_normalized_to_fraction(self):
        pt = SeriesPoint(k=2, eta=10)
        assert isinstance(pt.eta, Fraction)
        assert pt.eta == 10

    def test_barely_inside_domain(self):
        SeriesPoint(k=2, eta=Fraction(201, 100))

    @pytest.mark.parametrize(
        "value", [True, False, 2.5, 0.5, "7/2", "1/10", Decimal("0.1"), Decimal(3), None]
    )
    @pytest.mark.parametrize("name", ["eta", "epsilon"])
    def test_eta_and_epsilon_are_ints_or_fractions(self, name, value):
        # exact input, as parse_rational reads it: no bool, float, Decimal or text
        with pytest.raises(ValueError) as refused:
            if name == "eta":
                SeriesPoint(2, value)
            else:
                converge_until(SeriesPoint(2, 3), value)
        assert str(refused.value) == f"{name} must be an integer or a Fraction, got {value!r}"


class TestReportTypes:
    """SeriesPoint and EvalReport are immutable named tuples."""

    def test_series_point_by_keyword_and_position(self):
        pt = SeriesPoint(2, 10)
        assert pt == SeriesPoint(k=2, eta=Fraction(10)) == SeriesPoint(2, eta=10)
        assert (pt.k, pt.eta) == (2, Fraction(10))
        assert pt != SeriesPoint(3, 10)
        assert hash(pt) == hash(SeriesPoint(k=2, eta=10))
        assert repr(pt) == "SeriesPoint(k=2, eta=Fraction(10, 1))"

    def test_series_point_validates_positional_arguments(self):
        with pytest.raises(ValueError, match="series requires eta > 2, got 2"):
            SeriesPoint(2, 2)
        with pytest.raises(ValueError):
            SeriesPoint(1, 10)

    def test_eval_report_by_keyword_and_position(self):
        # the report is the numbers that fix it: acc and F_{N+1}, integer
        # Decimals equal to the int route's
        report = evaluate(P210, 5)
        fields = (P210, 5, omitted_numerator(P210, 5), range_terms(2, 6, 6)[0])
        assert EvalReport._fields == ("point", "n_trunc", "acc", "f_next")
        assert report == EvalReport(*fields)
        assert report == EvalReport(**dict(zip(EvalReport._fields, fields)))
        assert report != evaluate(P210, 6)
        assert repr(report) == (
            "EvalReport(point=SeriesPoint(k=2, eta=Fraction(10, 1)), n_trunc=5,"
            " acc=Decimal('85'), f_next=Decimal('8'))"
        )

    @pytest.mark.parametrize("name", ["k", "eta", "other"])
    def test_series_point_is_immutable(self, name):
        with pytest.raises(AttributeError):
            setattr(P210, name, 3)

    @pytest.mark.parametrize("name", ["n_trunc", "acc", "partial", "passed", "other"])
    def test_eval_report_is_immutable(self, name):
        with pytest.raises(AttributeError):
            setattr(evaluate(P210, 5), name, 3)


class TestClosedForm:
    def test_golden_k2(self):
        assert closed_form(P210) == Fraction(10, 89)

    def test_golden_k3(self):
        assert closed_form(P310) == Fraction(10, 889)

    def test_golden_small_eta(self):
        # 3*2/(1*9+1), confirmed below by partial-sum convergence
        assert closed_form(SeriesPoint(k=2, eta=Fraction(3))) == Fraction(3, 5)

    def test_small_eta_value_confirmed_by_convergence(self):
        report = converge_until(
            SeriesPoint(k=2, eta=Fraction(3)), Fraction(1, 10**12)
        )
        assert abs(Fraction(3, 5) - report.partial) <= report.tail_bound

    @pytest.mark.parametrize("k", range(2, 13))
    def test_eta_ten_row(self, k):
        pt = SeriesPoint(k=k, eta=Fraction(10))
        assert closed_form(pt) == Fraction(90, 8 * 10**k + 1)

    @pytest.mark.parametrize(
        "eta", [Fraction(5, 2), Fraction(3), Fraction(7, 3), Fraction(10), Fraction(100)]
    )
    def test_specialization_k2(self, eta):
        expected = eta * (eta - 1) / ((eta - 2) * eta**2 + 1)
        assert closed_form(SeriesPoint(k=2, eta=eta)) == expected

    @pytest.mark.parametrize(
        "eta", [Fraction(5, 2), Fraction(3), Fraction(7, 3), Fraction(10), Fraction(100)]
    )
    def test_specialization_k3(self, eta):
        expected = eta * (eta - 1) / ((eta - 2) * eta**3 + 1)
        assert closed_form(SeriesPoint(k=3, eta=eta)) == expected


class TestPartialSum:
    def test_first_term_is_zero(self):
        # F_0 = 0 adds nothing: P_1 is F_1 / 10 alone
        assert evaluate(P210, 1).partial == Fraction(1, 10)

    def test_hand_summed_k2(self):
        # 1/10 + 1/100 + 2/1000
        assert evaluate(P210, 3).partial == Fraction(14, 125)

    def test_hand_summed_k3(self):
        assert evaluate(P310, 2).partial == Fraction(1, 100)

    def test_negative_truncation_rejected(self):
        with pytest.raises(ValueError):
            evaluate(P210, -1)

    def test_monotone_in_truncation(self):
        sums = [evaluate(P210, n).partial for n in range(1, 30)]
        assert all(a <= b for a, b in zip(sums, sums[1:]))
        assert all(s < closed_form(P210) for s in sums)


class TestTailBound:
    def test_frozen_value(self):
        # (F_11 / 10^11) * (10/8) with F_11 = 89
        assert evaluate(P210, 10).tail_bound == Fraction(89, 80000000000)

    def test_below_first_valid_index_rejected(self):
        with pytest.raises(ValueError):
            evaluate(SeriesPoint(k=4, eta=Fraction(3)), 2)

    def test_bound_dominates_residual(self):
        report = evaluate(P210, 3)
        assert report.tail_bound >= abs(closed_form(P210) - report.partial)

    def test_strictly_decreasing_three_steps_out(self):
        pt = SeriesPoint(k=3, eta=Fraction(4))
        for n in range(2, 40):
            assert evaluate(pt, n + 3).tail_bound < evaluate(pt, n).tail_bound

    @pytest.mark.parametrize("k", [2, 3, 5])
    @pytest.mark.parametrize("eta", [Fraction(5, 2), Fraction(10)])
    def test_nonincreasing_past_two_k(self, k, eta):
        pt = SeriesPoint(k=k, eta=eta)
        bounds = [evaluate(pt, n).tail_bound for n in range(2 * k, 80)]
        assert all(b1 >= b2 for b1, b2 in zip(bounds, bounds[1:]))
        assert bounds[-1] < bounds[0]


class TestEvaluate:
    def test_passes_at_moderate_truncation(self):
        report = evaluate(P210, 20)
        assert report.passed
        assert report.residual == report.closed - report.partial

    def test_k5_closed_value(self):
        report = evaluate(SeriesPoint(k=5, eta=Fraction(10)), 30)
        assert report.passed
        assert report.closed == Fraction(10, 88889)

    def test_small_eta_point(self):
        report = evaluate(SeriesPoint(k=2, eta=Fraction(5, 2)), 60)
        assert report.passed

    def test_json_shape(self):
        doc = evaluate(P210, 10).to_json_dict()
        assert list(doc) == [
            "k", "eta", "N", "partial", "closed", "tail_bound", "residual", "pass",
        ]
        assert doc["k"] == 2 and doc["N"] == 10
        assert doc["eta"] == "10/1"
        assert doc["pass"] is True
        for field in ("partial", "closed", "tail_bound", "residual"):
            assert parse_rational(doc[field]) is not None
        assert parse_rational(doc["partial"]) == evaluate(P210, 10).partial
        assert parse_rational(doc["closed"]) == Fraction(10, 89)


class TestOracles:
    @settings(deadline=None)
    @given(point_and_index())
    @example((SeriesPoint(k=40, eta=Fraction(2**30 - 1, 2**29 - 1)), 400))
    @example((SeriesPoint(k=40, eta=Fraction(3)), 38))
    @example((SeriesPoint(k=40, eta=2 + Fraction(1, 2**30)), 39))
    @example((SeriesPoint(k=2, eta=Fraction(1001, 500)), 0))
    def test_partial_sum_equals_horner(self, case):
        # below N = k-1, where every term is 0, evaluate refuses N
        point, n = case
        if n < point.k - 1:
            assert horner_partial_sum(point, n) == 0
            with pytest.raises(ValueError, match="tail bound needs n_trunc >= k-1"):
                evaluate(point, n)
        else:
            assert evaluate(point, n).partial == horner_partial_sum(point, n)

    @settings(deadline=None)
    @given(point_and_index())
    @example((SeriesPoint(k=40, eta=Fraction(2**30 - 1, 2**29 - 1)), 400))
    @example((SeriesPoint(k=2, eta=Fraction(3)), 1))
    def test_evaluate_equals_oracles(self, case):
        point, n = case
        k, eta = point.k, point.eta
        n = max(n, k - 1)
        report = evaluate(point, n)
        assert report.partial == horner_partial_sum(point, n)
        f_next = term_fast(k, n + 1)
        assert report.tail_bound == f_next / eta ** (n + 1) / (1 - 2 / eta)
        assert report.closed == closed_form(point)
        assert report.residual == report.closed - report.partial
        assert report.passed

    @pytest.mark.parametrize(
        "n,message",
        [
            (-1, "negative indices are not defined, got -1"),
            (2, "tail bound needs n_trunc >= k-1 = 3, got 2"),
        ],
    )
    def test_evaluate_below_first_valid_index(self, n, message):
        with pytest.raises(ValueError, match=message):
            evaluate(SeriesPoint(k=4, eta=Fraction(3)), n)

    @pytest.mark.parametrize("n", [0.5, 1.0, True, False, 4.0, 3.5, Fraction(4), "5"])
    @pytest.mark.parametrize(
        "function",
        [
            evaluate,
            lambda point, n: evaluate(point, n).partial,
            lambda point, n: evaluate(point, n).tail_bound,
            lambda point, n: list(evaluate_range(point, n)),
        ],
        ids=["evaluate", "partial_sum", "tail_bound", "evaluate_range"],
    )
    def test_index_that_is_not_an_int(self, function, n):
        # refused with N itself in the message, on either side of k - 1
        with pytest.raises(ValueError) as refused:
            function(SeriesPoint(3, 3), n)
        assert str(refused.value) == f"index must be an integer, got {n!r}"


class TestGfPartialField:
    """The CLI's ``partial`` field, text and JSON, against the Horner oracle."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["gf", "-k", "3", "--eta", "7/3", "-N", "300"],
            ["gf", "-k", "6", "--eta", "600834261/150208565", "-N", "260", "--json"],
            ["gf", "-k", "8", "--eta", "3", "--epsilon", "1/" + "1" + "0" * 60],
            ["gf", "-k", "5", "--eta", "2001/1000", "--epsilon", "1/1000", "--json"],
        ],
    )
    def test_partial_equals_oracle(self, capsys, argv):
        code = cli.parse_and_dispatch(argv)
        out = capsys.readouterr().out
        if "--json" in argv:
            doc = json.loads(out)
        else:
            assert out.splitlines()[-1] == "PASS"
            doc = dict(line.split(" = ") for line in out.splitlines()[:-1])
        point = SeriesPoint(k=int(argv[2]), eta=parse_rational(argv[4]))
        assert code == 0
        assert doc["partial"] == format_ratio(horner_partial_sum(point, int(doc["N"])))


class TestEvaluateRange:
    @pytest.mark.parametrize("k,eta", [(2, Fraction(10)), (3, Fraction(5, 2))])
    def test_matches_pointwise_evaluate(self, k, eta):
        pt = SeriesPoint(k=k, eta=eta)
        reports = list(evaluate_range(pt, 40))
        assert [r.n_trunc for r in reports] == list(range(k - 1, 41))
        for r in reports:
            single = evaluate(pt, r.n_trunc)
            assert r.partial == single.partial
            assert r.tail_bound == single.tail_bound
            assert r.residual == single.residual
            assert r.passed == single.passed

    def test_short_range_rejected(self):
        with pytest.raises(ValueError):
            list(evaluate_range(SeriesPoint(k=4, eta=Fraction(3)), 1))


class TestExactVerdict:
    """The verdict compares acc (p - 2q) with F_{N+1} den exactly, under any caller context."""

    @pytest.mark.parametrize("context", [Context(), Context(prec=40)], ids=["default", "prec-40"])
    def test_at_the_boundary(self, context):
        # the largest acc that passes, then one more: products of 90 digits,
        # which a context rounding at 28 or 40 digits would call equal
        point = SeriesPoint(k=3, eta=Fraction(7, 2))
        report = evaluate(point, 300)
        den, gap = series._denominator(point), 7 - 2 * 2
        largest = int(report.f_next) * den // gap
        assert len(str(largest * gap)) > 80
        for acc, verdict in ((largest, True), (largest + 1, False)):
            boundary = report._replace(acc=Decimal(acc))
            with localcontext(context):
                assert boundary.passed is verdict
                assert boundary.to_json_dict()["pass"] is verdict

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP 2: gf's PASS cannot fail")
    @pytest.mark.parametrize("k,eta,n_trunc", [(2, 3, 200), (5, 7, 300), (8, 3, 5000)])
    def test_a_wrong_denominator_fails(self, monkeypatch, k, eta, n_trunc):
        # the verdict rests on den; one off must turn the PASS into a FAIL
        denominator = series._denominator
        monkeypatch.setattr(series, "_denominator", lambda point: denominator(point) + 1)
        series._numbers.cache_clear()
        try:
            assert not evaluate(SeriesPoint(k, eta), n_trunc).passed
        finally:
            series._numbers.cache_clear()


class TestConvergeUntil:
    def test_reaches_requested_bound(self):
        report = converge_until(P210, Fraction(1, 10**6))
        assert report.tail_bound <= Fraction(1, 10**6)
        assert report.passed

    def test_loose_epsilon_needs_few_terms(self):
        report = converge_until(P310, Fraction(1))
        assert report.n_trunc <= 3

    def test_tight_epsilon_small_eta(self):
        report = converge_until(SeriesPoint(k=4, eta=Fraction(3)), Fraction(1, 10**9))
        assert report.passed
        assert report.tail_bound <= Fraction(1, 10**9)

    @pytest.mark.parametrize("eps", [Fraction(0), Fraction(-1, 10)])
    def test_nonpositive_epsilon_rejected(self, eps):
        with pytest.raises(ValueError):
            converge_until(P210, eps)

    @pytest.mark.parametrize(
        "point,eps",
        [
            (P210, Fraction(1)),
            (P210, Fraction(1, 10**40)),
            (SeriesPoint(k=8, eta=Fraction(3)), Fraction(1, 10**300)),
            (SeriesPoint(k=5, eta=Fraction(2001, 1000)), Fraction(1, 1000)),
        ],
    )
    def test_one_window_per_doubling_step(self, monkeypatch, point, eps):
        # each check jumps once in Decimal, to F_{N-k+1} .. F_{N+1}, and the
        # report comes from the last of those runs, not from a second jump;
        # only that run's weighted sum is taken
        calls, sums = [], []

        def spy(k, n, cast):
            calls.append((k, n, cast))
            return iter_terms(k, n, cast)

        def acc_spy(point, run):
            sums.append(len(run))
            return acc(point, run)

        acc = series._acc
        monkeypatch.setattr(series, "iter_terms", spy)
        monkeypatch.setattr(series, "_acc", acc_spy)
        report = converge_until(point, eps)
        monkeypatch.undo()
        k, n0 = point.k, max(point.k - 1, 1)
        checked = [n0 << i for i in range(len(calls))]
        assert calls == [(k, n - k + 1, to_decimal) for n in checked]
        assert sums == [k + 1]
        assert checked[-1] == report.n_trunc
        assert report == evaluate(point, report.n_trunc)
        if len(checked) > 1:
            assert evaluate(point, checked[-2]).tail_bound > eps >= report.tail_bound


class TestPartialSumBound:
    """Reports whose partial sum passes _MAX_PARTIAL_DIGITS are refused."""

    @pytest.fixture
    def no_window(self, monkeypatch):
        def jump(k, n, cast):
            raise ZeroDivisionError  # stands for the jump the check lets through

        monkeypatch.setattr(series, "iter_terms", jump)

    @pytest.mark.parametrize(
        "k,eta,last,digits",
        [
            (2, Fraction(3), 523_973, 250_001),
            (8, Fraction(3), 523_967, 250_001),
            (2, Fraction(10**9 + 1, 10**8), 27_775, 250_003),
        ],
    )
    def test_evaluate(self, no_window, k, eta, last, digits):
        assert series._MAX_PARTIAL_DIGITS == 250_000
        point = SeriesPoint(k=k, eta=eta)
        with pytest.raises(ZeroDivisionError):
            evaluate(point, last)
        message = f"a partial sum to N = {last + 1} has about {digits} digits, more than 250000"
        with pytest.raises(ValueError, match=message):
            evaluate(point, last + 1)

    @pytest.mark.parametrize(
        "function",
        [
            lambda point, n: evaluate(point, n).partial,
            lambda point, n: evaluate(point, n).tail_bound,
        ],
        ids=["partial_sum", "tail_bound"],
    )
    def test_partial_sum_and_tail_bound(self, no_window, function):
        # eta^(N+1) in the tail bound has about as many digits as P_N
        point = SeriesPoint(k=2, eta=Fraction(3))
        with pytest.raises(ZeroDivisionError):
            function(point, 523_973)
        message = "a partial sum to N = 523974 has about 250001 digits, more than 250000"
        with pytest.raises(ValueError, match=message):
            function(point, 523_974)

    def test_search_stops_before_the_jump(self, monkeypatch):
        # a tail bound that never shrinks: the search doubles N up to 2^18,
        # checks the largest N within the bound, 523973, and refuses
        # N = 2^19 without its jump
        calls = []

        def jump(k, n, cast):
            calls.append(n)
            assert len(calls) <= 20, "the search ran past the bound"
            return repeat(cast(0))

        monkeypatch.setattr(series, "iter_terms", jump)
        monkeypatch.setattr(series, "_tail_within", lambda *args: False)
        with pytest.raises(ValueError, match="a partial sum to N = 524288 has about 250150 digits"):
            converge_until(SeriesPoint(k=2, eta=Fraction(3)), Fraction(1, 10**10))
        assert calls == [(1 << i) - 1 for i in range(19)] + [523_972]


class TestJumpBound:
    """Every jump the series makes is within bounds.check_jump, checked first."""

    POINT = SeriesPoint(k=100_000, eta=Fraction(3))
    MESSAGE = (
        "the jump to n = 398 at k = 100000 has a modelled cost of 1.01 times"
        f" the most a jump may cost, that of k = 2, n = {bounds._MAX_INDEX}"
    )

    @pytest.fixture
    def no_jump(self, monkeypatch):
        reached = []

        def jump(k, n, cast):
            reached.append(n)
            raise ZeroDivisionError  # stands for the jump the check lets through

        monkeypatch.setattr(series, "iter_terms", jump)
        return reached

    @pytest.mark.parametrize(
        "function",
        [
            evaluate,
            lambda point, n: evaluate(point, n).partial,
            lambda point, n: evaluate(point, n).tail_bound,
        ],
        ids=["evaluate", "partial_sum", "tail_bound"],
    )
    def test_report_partial_sum_and_tail_bound(self, no_jump, function):
        # the largest accepted jump starts at n = 397, which N = 100396 needs
        with pytest.raises(ZeroDivisionError):
            function(self.POINT, 100_396)
        with pytest.raises(ValueError, match=self.MESSAGE):
            function(self.POINT, 100_397)
        assert no_jump == [397]

    @staticmethod
    def _search_reaches(monkeypatch, k, refused):
        # a tail bound that never shrinks; returns the n each window starts at
        reached = []

        def jump(k, n, cast):
            reached.append(n)
            return repeat(cast(0))

        monkeypatch.setattr(series, "iter_terms", jump)
        monkeypatch.setattr(series, "_tail_within", lambda *args: False)
        with pytest.raises(ValueError, match=f"the jump to n = {refused} at k = {k}"):
            converge_until(SeriesPoint(k=k, eta=Fraction(3)), Fraction(1, 2))
        return reached

    def test_search_step(self, monkeypatch):
        # N = k - 1 jumps to n = 0, the largest accepted N to 397, and
        # N = 2(k - 1) is refused before its jump to n = 99999
        assert self._search_reaches(monkeypatch, 100_000, 99_999) == [0, 397]

    def test_search_step_small_k(self, monkeypatch):
        # the doublings of N = 255 up to 130560, then the largest N the
        # jump's bound accepts, 180365, below the digit bound's 523719; the
        # doubling to N = 261120 is refused before its jump
        calls = [255 * (2**j - 1) for j in range(10)] + [180_110]
        assert self._search_reaches(monkeypatch, 256, 260_865) == calls


def partial_digits(point, n_trunc):
    """The digits bounds.check_window estimates for the partial sum to N: (N + k) log10 p."""
    return math.ceil((n_trunc + point.k) * math.log10(point.eta.numerator))


def largest_partial_index_oracle(point):
    """The largest N whose partial sum is within the digit bound, from a float
    estimate and a linear walk."""
    n = int(series._MAX_PARTIAL_DIGITS / math.log10(point.eta.numerator)) - point.k - 1
    while partial_digits(point, n + 1) <= series._MAX_PARTIAL_DIGITS:
        n += 1
    return n


def largest_jump_oracle(k, limit):
    """The largest n <= limit whose jump check_jump(k, n) accepts; limit if below 0."""
    if limit < 0 or bounds._kernel_cost(k, limit) <= bounds._MAX_COST:
        return limit
    lo, hi = 0, limit
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if bounds._kernel_cost(k, mid) <= bounds._MAX_COST:
            lo = mid
        else:
            hi = mid
    return lo


ORACLE_ORDERS = [
    2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 16, 17, 20, 24, 28, 32, 40, 48, 64, 80, 100, 128,
    200, 256, 300, 500, 1000, 1500, 2000, 3000, 5000, 8000, 10_000, 20_000, 30_000, 50_000,
    70_000, 100_000,
]
ORACLE_ETAS = [
    Fraction(3), Fraction(5, 2), Fraction(7, 2), Fraction(2001, 1000),
    Fraction(2_000_001, 1_000_000), Fraction(10**9 + 1, 10**8), Fraction(4_000_000_007, 10**9),
    Fraction(5), Fraction(10), Fraction(100), Fraction(10**5 + 1), Fraction(586_606_005, 146_651_501),
    Fraction(10**40 + 1, 10**40 // 3),
]


class TestLargestAcceptedIndex:
    """When the doubling passes a bound, the search tries the largest N within both."""

    @pytest.mark.parametrize(
        "k,eta,top",
        [
            (2, Fraction(3), 523_973),
            (8, Fraction(3), 523_967),
            (2, Fraction(2_000_001, 1_000_000), 39_674),
            (2, Fraction(10**9 + 1, 10**8), 27_775),
            (16, Fraction(3), 523_959),
            (64, Fraction(3), 523_911),  # from k = 89 on the jump bound stops first
        ],
    )
    def test_largest_partial_index(self, k, eta, top):
        # here the digit bound stops N before the jump bound does
        point = SeriesPoint(k=k, eta=eta)
        assert series._largest_index(point) == top
        digits = partial_digits
        assert digits(point, top) <= series._MAX_PARTIAL_DIGITS < digits(point, top + 1)

    def test_one_bisection_matches_the_two_chained_searches(self):
        # the digit bound's walk, then the jump bound's bisection below it;
        # where no N >= k-1 passes, the bisection gives k - 2
        assert len(ORACLE_ORDERS) * len(ORACLE_ETAS) == 507
        below = 0
        for k in ORACLE_ORDERS:
            for eta in ORACLE_ETAS:
                point = SeriesPoint(k=k, eta=eta)
                chained = largest_jump_oracle(k, largest_partial_index_oracle(point) - k + 1) + k - 1
                assert series._largest_index(point) == max(chained, k - 2), (k, eta)
                below += chained < k - 1
        assert 0 < below < 100

    def test_search_returns_the_largest_index(self):
        # N = 65536 needs 412957 digits; N = 39674 meets epsilon within them
        point = SeriesPoint(k=2, eta=Fraction(2_000_001, 1_000_000))
        eps = Fraction(1, 10**3600)
        report = converge_until(point, eps)
        assert report.n_trunc == 39_674
        assert report.passed
        assert report.tail_bound <= eps < evaluate(point, 32_768).tail_bound

    def test_search_refuses_when_the_largest_index_misses(self, monkeypatch):
        calls = []

        def jump(k, n, cast):
            calls.append(n)
            return repeat(cast(0))

        monkeypatch.setattr(series, "iter_terms", jump)
        monkeypatch.setattr(series, "_tail_within", lambda *args: False)
        point = SeriesPoint(k=2, eta=Fraction(2_000_001, 1_000_000))
        with pytest.raises(ValueError, match="a partial sum to N = 65536 has about 412957 digits"):
            converge_until(point, Fraction(1, 2))
        assert calls == [(1 << i) - 1 for i in range(16)] + [39_673]

    def test_no_smaller_index_than_the_first_is_tried(self, monkeypatch):
        # the first N = k - 1 already passes the bound: nothing is checked
        monkeypatch.setattr(series, "iter_terms", None)
        point = SeriesPoint(k=100_000, eta=Fraction(10**5 + 1))
        with pytest.raises(ValueError, match="a partial sum to N = 99999 has about"):
            converge_until(point, Fraction(1, 2))


class TestOneWindow:
    """Every entry point reads its terms from one window per checked N."""

    def test_series_takes_no_other_terms(self):
        assert not hasattr(series, "term_fast")
        from_sequence = {
            name for name, value in vars(series).items()
            if getattr(value, "__module__", None) == "kbonacci.sequence"
        }
        assert from_sequence == {"iter_terms"}

    @pytest.mark.parametrize(
        "call,checked",
        [
            (lambda pt: evaluate(pt, 7), [7]),
            (lambda pt: evaluate(pt, 7).partial, [7]),
            # refused below N = k-1 before any jump
            (lambda pt: pytest.raises(ValueError, evaluate, pt, 1), []),
            (lambda pt: evaluate(pt, 7).tail_bound, [7]),
            (lambda pt: list(evaluate_range(pt, 5)), [2, 3, 4, 5]),
            (lambda pt: converge_until(pt, Fraction(1, 10**6)), [2, 4, 8, 16, 32, 64]),
        ],
        ids=["evaluate", "partial_sum", "evaluate_below_k_minus_1", "tail_bound",
             "evaluate_range", "converge_until"],
    )
    def test_one_window_per_index(self, monkeypatch, call, checked):
        calls = []

        def spy(k, n, cast):
            calls.append((k, n, cast))
            return iter_terms(k, n, cast)

        monkeypatch.setattr(series, "iter_terms", spy)
        point = SeriesPoint(k=3, eta=Fraction(5, 2))
        call(point)
        assert calls == [(3, n - 2, to_decimal) for n in checked]


def composite_eta():
    """p/q in lowest terms with p > 2q, and p and q each a product of two factors >= 2."""
    def build(factors):
        a, b, c = factors
        d = st.integers(max(2, 2 * a * b // c + 1), 2 * a * b // c + 10**6)
        return d.map(lambda d: (c * d, a * b))

    pairs = st.tuples(*[st.integers(2, 999)] * 3).flatmap(build)
    return pairs.filter(lambda pq: gcd(*pq) == 1).map(lambda pq: Fraction(*pq))


class TestDecimalRun:
    """The Decimal window's acc and F_{N+1} equal the int window's."""

    @settings(deadline=None)
    @given(st.integers(2, 64), composite_eta(), st.integers(0, 3000))
    @example(2, Fraction(9, 4), 0)
    @example(64, Fraction(1001, 10), 3000)
    def test_acc_and_next_term_equal_the_int_route(self, k, eta, extra):
        point = SeriesPoint(k=k, eta=eta)
        n_trunc = k - 1 + extra
        run = series._checked_run(point, n_trunc)
        f_next = run[-1]
        ints = range_terms(k, n_trunc - k + 1, n_trunc + 1)
        suffixes = [sum(ints[j:-1]) for j in range(k)]  # T_1 .. T_k
        acc = series._weighted_sum(suffixes, eta.numerator, eta.denominator)
        assert (series._acc(point, run), f_next) == (acc, ints[-1])


class TestDenominator:
    @settings(deadline=None)
    @given(
        st.integers(2, 60),
        st.integers(1, 10**7).flatmap(
            lambda q: st.tuples(st.integers(2 * q + 1, 2 * q + 10**7), st.just(q))
        ),
    )
    def test_closed_form_of_the_geometric_sum(self, k, pq):
        point = SeriesPoint(k=k, eta=Fraction(*pq))
        p, q = point.eta.numerator, point.eta.denominator
        den = p**k - sum(q**i * p ** (k - i) for i in range(1, k + 1))
        assert series._denominator(point) == den > 0
        eta = point.eta
        assert closed_form(point) == eta * (eta - 1) / ((eta - 2) * eta**k + 1)

    def test_an_inexact_division_raises(self, monkeypatch):
        # an explicit check, which python -O keeps; not a ValueError, which
        # the CLI reports as a usage error
        monkeypatch.setattr(series, "divmod", lambda a, b: (a // b, 1), raising=False)
        with pytest.raises(ArithmeticError, match="not divisible by p - q for eta = 7/2"):
            series._denominator(SeriesPoint(k=3, eta=Fraction(7, 2)))


class TestShiftedSumIdentity:
    # Splitting the sum at n=k and applying the recurrence shifts it onto
    # itself: partial(N) = eta^(1-k) + sum_{p=1..k} eta^(-p) * partial(N-p).
    # The leading zeros make the boundary corrections vanish, so this holds
    # exactly for every N >= k, and exact equality is what we assert.
    @pytest.mark.parametrize("k", range(2, 7))
    @pytest.mark.parametrize("eta", [Fraction(5, 2), Fraction(10)])
    def test_exact_for_all_tested_truncations(self, k, eta):
        pt = SeriesPoint(k=k, eta=eta)
        r = 1 / eta

        def partial(n):  # 0 below N = k-1, where every term is
            return evaluate(pt, n).partial if n >= k - 1 else 0

        for n in (k, 2 * k, 2 * k + 1, 37):
            lhs = partial(n)
            rhs = r ** (k - 1) + sum(r**p * partial(n - p) for p in range(1, k + 1))
            assert lhs == rhs


def horner_omitted(point, n_trunc, run):
    """The omitted part closed - P_N by a k-step Horner loop, quadratic in k."""
    p, q = point.eta.numerator, point.eta.denominator
    suffix = sum(run)
    acc, q_pow = 0, 1
    for oldest in run:
        acc = acc * p + q_pow * suffix
        suffix -= oldest
        q_pow *= q
    return Fraction(q, p) ** n_trunc * Fraction(q * acc, series._denominator(point))


class TestOmittedByHalves:
    @settings(deadline=None)
    @given(
        st.one_of(st.integers(2, 300), st.sampled_from([63, 64, 65, 127, 128, 129])),
        st.one_of(
            st.integers(1, 2**30).map(lambda q: 2 + Fraction(1, q)),
            st.integers(1, 2**30).flatmap(
                lambda q: st.integers(2 * q + 1, 5 * q).map(lambda p: Fraction(p, q))
            ),
            st.integers(3, 1000).map(Fraction),
        ),
        st.integers(0, 600),
    )
    @example(2, Fraction(3), 0)
    @example(3, Fraction(7, 3), 1)
    @example(300, Fraction(1000), 600)
    def test_halves_equal_horner(self, k, eta, extra):
        point = SeriesPoint(k=k, eta=eta)
        n_trunc = k - 1 + extra
        omitted = evaluate(point, n_trunc).residual
        assert omitted == horner_omitted(point, n_trunc, range_terms(k, n_trunc - k + 1, n_trunc))

    @pytest.mark.parametrize("length", [*range(1, 40), 63, 64, 65, 1000])
    def test_weighted_sum_of_every_length(self, length):
        # distinct values and coprime p, q: a misplaced power shows
        values = [3**j + j for j in range(length)]
        expected = sum(7 ** (length - 1 - j) * 5**j * v for j, v in enumerate(values))
        assert series._weighted_sum(values, 7, 5) == expected


def fraction_route(point, n_trunc):
    """(partial, closed, tail bound, residual) by normalised Fraction arithmetic.

    The route the reports took before they were built from their factors:
    the closed form from eta, the omitted part by Horner's loop, the tail
    bound from its formula, each reduced by Fraction's own gcds.
    """
    k, eta = point.k, point.eta
    run = range_terms(k, n_trunc - k + 1, n_trunc + 1)
    closed = eta * (eta - 1) / ((eta - 2) * eta**k + 1)
    residual = horner_omitted(point, n_trunc, run[:-1])
    tail = Fraction(run[-1]) / eta ** (n_trunc + 1) * eta / (eta - 2)
    return closed - residual, closed, tail, residual


def omitted_numerator(point, n_trunc):
    """acc, the run's weighted suffix sum (``series._acc``), by Horner's rule."""
    p, q = point.eta.numerator, point.eta.denominator
    run = range_terms(point.k, n_trunc - point.k + 1, n_trunc)
    suffix, acc, q_pow = sum(run), 0, 1
    for oldest in run:
        acc, suffix, q_pow = acc * p + q_pow * suffix, suffix - oldest, q_pow * q
    return acc


def valuation(x, p):
    v = 0
    while x % p == 0:
        x, v = x // p, v + 1
    return v


# p times a smooth number, so that p shares factors with acc, with F_{N+1}
# and (through 2) with p - 2q
SMOOTH = [1, 2, 4, 6, 12, 30, 64, 210, 1024, 3**12, 2**10 * 3**5, 2**20]


@st.composite
def factored_point(draw):
    """(k, eta, N): k up to 64, q up to 10^9, p often composite, N from k - 1."""
    k = draw(st.integers(2, 64))
    q = draw(st.integers(1, 10**9))
    smooth = draw(st.sampled_from(SMOOTH))
    p = smooth * ((2 * q) // smooth + 1 + draw(st.integers(0, 10**3)))
    n = k - 1 + draw(st.one_of(st.integers(0, 3), st.integers(0, 400)))
    return SeriesPoint(k=k, eta=Fraction(p, q)), n


class TestFactoredReport:
    """Reports built from factors equal the normalised Fraction route, and print as format_ratio."""

    def check(self, point, n):
        report = evaluate(point, n)
        fields = (report.partial, report.closed, report.tail_bound, report.residual)
        expected = fraction_route(point, n)
        # Fraction equality compares numerators and denominators, so this
        # also checks every field is in lowest terms
        assert [(f.numerator, f.denominator) for f in fields] == [
            (f.numerator, f.denominator) for f in expected
        ]
        doc = report.to_json_dict()
        names = ("partial", "closed", "tail_bound", "residual")
        assert [doc[name] for name in names] == [format_ratio(f) for f in expected]
        assert report.passed

    @settings(deadline=None, max_examples=150)
    @given(factored_point())
    @example((SeriesPoint(k=2, eta=Fraction(12, 5)), 1))
    @example((SeriesPoint(k=6, eta=Fraction(586606005, 146651501)), 5))
    @example((SeriesPoint(k=64, eta=Fraction(2**20, 3)), 63))
    @example((SeriesPoint(k=3, eta=Fraction(30, 7)), 300))
    def test_equals_the_fraction_route(self, case):
        self.check(*case)

    @pytest.mark.parametrize(
        "k,eta", [(2, Fraction(3)), (3, Fraction(3)), (2, Fraction(5, 2)), (4, Fraction(7, 3))]
    )
    def test_acc_with_a_high_p_adic_valuation(self, k, eta):
        # gcd(acc, p^N) takes several steps of strip_p_power only when p
        # divides acc several times; find such N and check them
        point = SeriesPoint(k=k, eta=eta)
        p = eta.numerator
        found = [
            n for n in range(k - 1, k + 400)
            if valuation(omitted_numerator(point, n), p) >= 3
        ]
        assert len(found) >= 2
        for n in found:
            self.check(point, n)

    def test_f_next_shares_factors_with_p_and_p_minus_2q(self):
        # eta = 12/5: p - 2q = 2 divides every third F_{N+1}, and 12 = 2^2 * 3
        point = SeriesPoint(k=2, eta=Fraction(12, 5))
        for n in range(1, 60):
            self.check(point, n)
        assert {term_fast(2, n + 1) % 12 for n in range(1, 60)} >= {0, 2, 3}

    def test_strip_p_power(self):
        for p, x, n, expected in (
            (12, 7, 5, (7, 5, 1)),
            (12, 2**3 * 3**5 * 7, 5, (7, 0, 128)),  # five steps take 2^3 3^5
            (12, 2**3 * 3**2 * 7, 5, (7, 3, 2)),  # two take 2^3 3^2: 12^5 / g = 2 * 12^3
            (12, 12**9 * 5, 5, (12**4 * 5, 0, 1)),  # capped at n steps
            (3, 3**40 * 2, 50, (2, 10, 1)),
        ):
            reduced, e, c = series.strip_p_power(x, p, n)
            assert (reduced, e, c) == expected
            g = x // reduced
            assert g == math.gcd(x, p**n) and c * p**e == p**n // g

    def test_a_mutant_without_the_p_part_fails(self, monkeypatch):
        # the checks above see a report whose p-part gcd is skipped
        point = SeriesPoint(k=2, eta=Fraction(3))
        n = next(
            n for n in range(1, 400) if valuation(omitted_numerator(point, n), 3) >= 2
        )
        monkeypatch.setattr(series, "strip_p_power", lambda x, p, n: (x, n, 1))
        series._numbers.cache_clear()  # numbers kept from before the patch would hide it
        with pytest.raises(AssertionError):
            self.check(point, n)
