from decimal import Decimal, localcontext
from itertools import islice

import pytest

from kbonacci.rational import EXACT_CONTEXT
from kbonacci.sequence import (
    Window,
    initial_terms,
    iter_terms,
    range_terms,
    term_fast,
    term_matrix,
    term_naive,
    validate_order,
)

FIB = [0, 1, 1, 2, 3, 5, 8, 13, 21]
TRIB = [0, 0, 1, 1, 2, 4, 7, 13, 24]


class TestValidation:
    @pytest.mark.parametrize("k", [1, 0, -3])
    def test_small_orders_rejected(self, k):
        with pytest.raises(ValueError):
            validate_order(k)

    @pytest.mark.parametrize("k", ["2", 2.0, True, None])
    def test_non_integer_orders_rejected(self, k):
        with pytest.raises(ValueError):
            validate_order(k)

    def test_valid_order_passes_through(self):
        assert validate_order(2) == 2
        assert validate_order(64) == 64

    @pytest.mark.parametrize("func", [term_naive, term_fast, term_matrix])
    def test_negative_index_rejected(self, func):
        with pytest.raises(ValueError):
            func(2, -1)

    @pytest.mark.parametrize("func", [term_naive, term_fast, term_matrix])
    def test_bool_index_rejected(self, func):
        with pytest.raises(ValueError):
            func(2, True)


class TestInitialTerms:
    def test_k2(self):
        assert initial_terms(2) == [0, 1]

    def test_k3(self):
        assert initial_terms(3) == [0, 0, 1]

    def test_k5(self):
        assert initial_terms(5) == [0, 0, 0, 0, 1]

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            initial_terms(1)


class TestGoldenValues:
    def test_fibonacci_prefix(self):
        assert range_terms(2, 0, 8) == FIB

    def test_tribonacci_prefix(self):
        assert range_terms(3, 0, 8) == TRIB

    def test_single_element_range(self):
        assert range_terms(2, 4, 4) == [3]

    def test_naive_examples(self):
        assert term_naive(2, 7) == 13
        assert term_naive(3, 8) == 24
        assert term_naive(4, 2) == 0

    def test_fast_examples(self):
        assert term_fast(2, 8) == 21
        # oracle: the same index by window iteration
        assert term_fast(2, 11) == term_naive(2, 11) == 89
        assert term_fast(6, 500) == term_naive(6, 500)

    def test_matrix_examples(self):
        assert term_matrix(3, 7) == 13
        assert term_matrix(2, 0) == 0
        assert term_matrix(5, 300) == term_naive(5, 300)


class TestRangeTerms:
    def test_inverted_range_rejected(self):
        with pytest.raises(ValueError):
            range_terms(2, 5, 4)

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            range_terms(2, -1, 4)

    def test_offset_range_matches_suffix(self):
        assert range_terms(3, 4, 8) == TRIB[4:]

    @pytest.mark.parametrize("k", [2, 3, 5, 8])
    def test_agrees_with_term_naive(self, k):
        values = range_terms(k, 0, 60)
        assert values == [term_naive(k, n) for n in range(61)]


class TestWindow:
    @pytest.mark.parametrize("k", [2, 3, 4, 7])
    def test_starts_at_initial_terms(self, k):
        w = Window(k)
        assert w.terms == initial_terms(k)
        assert w.head_index == k - 1

    @pytest.mark.parametrize("k", [2, 3, 4, 7])
    def test_advance_keeps_recurrence(self, k):
        w = Window(k)
        for _ in range(50):
            before = w.terms
            new = w.advance()
            assert new == sum(before)
            assert len(w.terms) == k
            assert w.terms == (before + [new])[1:]

    def test_head_index_tracks_advances(self):
        w = Window(4)
        for _ in range(10):
            w.advance()
        assert w.head_index == 3 + 10

    def test_iter_terms_prefix(self):
        it = iter_terms(2)
        assert [next(it) for _ in range(9)] == FIB

    @pytest.mark.parametrize("k", [2, 3, 16])
    def test_decimal_sweep_matches_int_sweep(self, k):
        with localcontext(EXACT_CONTEXT):
            values = list(islice(iter_terms(k, Decimal(1)), 3000))
        assert all(type(v) is Decimal for v in values)
        assert [int(v) for v in values] == range_terms(k, 0, 2999)
        assert [str(v) for v in values[:9]] == [str(v) for v in range_terms(k, 0, 8)]


class TestRecurrenceProperty:
    @pytest.mark.parametrize("k", range(2, 9))
    def test_each_term_is_sum_of_previous_k(self, k):
        values = range_terms(k, 0, 200)
        for n in range(k, 201):
            assert values[n] == sum(values[n - p] for p in range(1, k + 1))


class TestMethodAgreementSample:
    # the full 2..8 x 0..1000 sweep lives in the acceptance suite
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_three_methods_agree(self, k):
        values = range_terms(k, 0, 150)
        for n in range(0, 151, 7):
            assert term_fast(k, n) == values[n]
            assert term_matrix(k, n) == values[n]

    def test_large_single_index(self):
        n = 4000
        assert term_fast(2, n) == term_matrix(2, n)


class TestGrowth:
    @pytest.mark.parametrize("k", range(2, 9))
    def test_terms_nonnegative_and_positive_after_prefix(self, k):
        values = range_terms(k, 0, 300)
        assert all(v >= 0 for v in values)
        assert all(v >= 1 for v in values[k - 1 :])

    @pytest.mark.parametrize("k", range(2, 9))
    def test_monotone_and_at_most_doubling(self, k):
        values = range_terms(k, 0, 300)
        for n in range(k - 1, 300):
            assert values[n] <= values[n + 1] <= 2 * values[n]
