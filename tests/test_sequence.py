import json
from contextlib import nullcontext
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from itertools import islice
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from kbonacci import bounds, sequence
from kbonacci.rational import EXACT_CONTEXT, int_to_str, to_decimal
from kbonacci.sequence import (
    _binomial_term,
    _square_mod,
    _times_x,
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

    @pytest.mark.parametrize("n1", [True, 3.0, "3", Fraction(3), None])
    def test_end_that_is_not_an_int(self, n1):
        # checked as the start is: a bool ends no range, a float no slice
        with pytest.raises(ValueError) as refused:
            range_terms(2, 0, n1)
        assert str(refused.value) == f"index must be an integer, got {n1!r}"

    def test_offset_range_matches_suffix(self):
        assert range_terms(3, 4, 8) == TRIB[4:]

    @pytest.mark.parametrize("k", [2, 3, 5, 8])
    def test_agrees_with_term_naive(self, k):
        values = range_terms(k, 0, 60)
        assert values == [term_naive(k, n) for n in range(61)]


class TestWindow:
    # the ring of the k most recent terms that iter_terms sweeps
    @pytest.mark.parametrize("k", [2, 3, 4, 7])
    def test_starts_at_initial_terms(self, k):
        assert list(islice(iter_terms(k), k)) == initial_terms(k)

    @pytest.mark.parametrize("k", [2, 3, 4, 7])
    def test_advance_keeps_recurrence(self, k):
        for start in (0, 1000):
            values = list(islice(iter_terms(k, start), k + 50))
            for i in range(k, k + 50):
                assert values[i] == sum(values[i - k : i])

    def test_iter_terms_prefix(self):
        it = iter_terms(2)
        assert [next(it) for _ in range(9)] == FIB

    @pytest.mark.parametrize("k", [2, 3, 16])
    def test_decimal_sweep_matches_int_sweep(self, k):
        with localcontext(EXACT_CONTEXT):
            values = list(islice(iter_terms(k, 0, to_decimal), 3000))
        assert all(type(v) is Decimal for v in values)
        assert [int(v) for v in values] == range_terms(k, 0, 2999)
        assert [str(v) for v in values[:9]] == [str(v) for v in range_terms(k, 0, 8)]

    @pytest.mark.parametrize("k", [2, 3, 16])
    def test_decimal_sweep_from_n0(self, k):
        # seeds far above Decimal's 28-digit default context
        with localcontext(EXACT_CONTEXT):
            values = list(islice(iter_terms(k, 2500, to_decimal), 500))
        assert all(type(v) is Decimal for v in values)
        assert [str(v) for v in values] == [str(v) for v in range_terms(k, 0, 2999)[2500:]]

    F203 = 1188518561323126046432205871807859915657177

    @pytest.mark.parametrize("prec", [28, 10**6])
    def test_decimal_sweeps_refuse_a_rounding_context(self, prec):
        # under the default context F_203 used to come out as 1.188...E+42
        with localcontext(Context(prec=prec)):
            with pytest.raises(ValueError, match="traps Inexact"):
                list(islice(iter_terms(2, 200, to_decimal), 3, 4))
            with pytest.raises(ValueError, match="traps Inexact"):
                next(iter_terms(3, 0, to_decimal))
            with pytest.raises(ValueError, match="traps Inexact"):
                term_naive(2, 203, to_decimal)

    def test_decimal_sweep_under_the_exact_context_is_f203(self):
        with localcontext(EXACT_CONTEXT):
            (value,) = islice(iter_terms(2, 200, to_decimal), 3, 4)
            assert term_naive(2, 203, to_decimal) == value
        assert value == Decimal(self.F203) == Decimal(term_fast(2, 203))
        assert str(value) == str(self.F203)

    def test_int_sweeps_need_no_exact_context(self):
        with localcontext(Context(prec=28)):
            assert list(islice(iter_terms(2, 200), 3, 4)) == [self.F203]
            assert term_naive(2, 203) == self.F203


class TestOneSweep:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: next(iter_terms(1, 5)),
            lambda: range_terms(1, 5, 7),
            lambda: next(iter_terms(2, -1)),
        ],
        ids=["iter_terms-order", "window-order", "iter_terms-index"],
    )
    def test_bad_order_or_index_rejected(self, call):
        # the order is checked before the jump-ahead sees it
        with pytest.raises(ValueError):
            call()

    @settings(deadline=None)
    @given(st.integers(2, 12), st.integers(0, 300), st.integers(1, 40))
    @example(2, 0, 1)
    @example(12, 11, 40)
    @example(12, 300, 40)
    def test_window_matches_range_and_matrix(self, k, n, count):
        run = range_terms(k, n, n + count - 1)
        assert run == list(islice(iter_terms(k, n), count))
        assert run == [term_matrix(k, i) for i in range(n, n + count)]

    def test_naive_stays_off_the_kernel(self):
        def kernel(*args):
            raise AssertionError("term_naive reached the kernel")

        with mock.patch.object(sequence, "_x_pow_mod", kernel), mock.patch.object(
            sequence, "_run_from_residue", kernel
        ):
            assert [term_naive(2, n) for n in range(9)] == FIB
            assert term_naive(2, 203) == TestWindow.F203


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


def schoolbook_mul_mod(a, b, k):
    """Product of two degree-<k polynomials, reduced mod the char poly.

    The O(k^2) reference for the kernel: every product, then each degree
    d >= k folded into d-1 .. d-k from the top down.
    """
    prod = [0] * (2 * k - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
    for d in range(2 * k - 2, k - 1, -1):
        c = prod[d]
        if c:
            prod[d] = 0
            for p in range(1, k + 1):
                prod[d - p] += c
    return prod[:k]


def sweep_from_zero(k, stop):
    """F_0 .. F_{stop-1} by additions from the initial terms alone."""
    return list(islice(iter_terms(k), stop))


@st.composite
def order_and_index(draw):
    k = draw(st.integers(2, 140))
    n = draw(
        st.one_of(
            st.integers(0, 3000),
            st.integers(0, k - 1),
            st.just(k - 1),
            st.builds(
                lambda j, d: 2**j + d, st.integers(1, 11), st.sampled_from([-1, 1])
            ),
        )
    )
    return k, n


@st.composite
def residue(draw, k, bits):
    """k nonnegative coefficients, zeros and widths from 0 to ``bits``."""
    widths = st.integers(0, bits)
    return [
        draw(st.one_of(st.just(0), widths.flatmap(lambda b: st.integers(0, 2**b))))
        for _ in range(k)
    ]


class TestKernelOracles:
    @settings(deadline=None)
    @given(order_and_index())
    @example((2, 0))
    @example((140, 139))
    @example((140, 2049))
    @example((3, 2047))
    def test_fast_equals_naive(self, kn):
        k, n = kn
        assert term_fast(k, n) == term_naive(k, n)

    @settings(deadline=None)
    @given(st.integers(2, 40), st.integers(0, 1500), st.integers(1, 60))
    @example(2, 0, 1)
    @example(40, 39, 60)
    def test_window_is_a_slice_of_the_sweep(self, k, n, count):
        assert range_terms(k, n, n + count - 1) == sweep_from_zero(k, n + count)[n:]

    @settings(deadline=None)
    @given(st.integers(2, 40), st.integers(1, 1500), st.integers(0, 80))
    def test_range_from_n0_is_a_slice_of_the_sweep(self, k, n0, extra):
        n1 = n0 + extra
        assert range_terms(k, n0, n1) == sweep_from_zero(k, n1 + 1)[n0:]

    @settings(deadline=None)
    @given(st.integers(2, 70).flatmap(lambda k: st.tuples(st.just(k), residue(k, 300))))
    def test_square_matches_schoolbook(self, ka):
        k, a = ka
        assert _square_mod(a, k) == schoolbook_mul_mod(a, a, k)

    @pytest.mark.parametrize("k", [2, 3, 5, 17, 64, 100])
    @pytest.mark.parametrize("bits", [*range(1, 17), 64, 1000, 1001, 1002])
    def test_square_of_all_ones_coefficients(self, k, bits):
        # the middle coefficient of the square is k(2^b - 1)^2, which needs
        # 2b + bitlen(k) bits unless k is a power of two: a narrower slot
        # carries into its neighbour here
        a = [2**bits - 1] * k
        assert _square_mod(a, k) == schoolbook_mul_mod(a, a, k)

    @pytest.mark.parametrize("k", [2, 5, 33])
    def test_square_with_very_uneven_widths(self, k):
        for top in range(k):
            a = [1] * k
            a[top] = 3**5000
            assert _square_mod(a, k) == schoolbook_mul_mod(a, a, k)

    @pytest.mark.parametrize("k", [2, 3, 9])
    def test_times_x_matches_schoolbook(self, k):
        x = [0, 1] + [0] * (k - 2)
        a = [7**i for i in range(k)]
        assert _times_x(a) == schoolbook_mul_mod(a, x, k)

    def test_matrix_spot_check_at_k64(self):
        for n in (63, 64, 200, 301):
            assert term_fast(64, n) == term_matrix(64, n)


def square_in(cast, a, k):
    """``_square_mod`` of a with its coefficients passed through ``cast``, as ints."""
    with localcontext(EXACT_CONTEXT):
        square = _square_mod([cast(c) for c in a], k)
    if cast is to_decimal:
        # exponent 0: the Decimal prints as its plain digits
        assert all(type(c) is Decimal and c.as_tuple().exponent == 0 for c in square)
    return [int(c) for c in square]


def decimal_term(method, k, n, cast_bits=None):
    """``str`` of F_n from ``method`` in Decimal, the switch moved to ``cast_bits`` if given."""
    switch = nullcontext()
    if cast_bits is not None:
        switch = mock.patch.object(sequence, "_CAST_BITS", cast_bits)
    with switch, localcontext(EXACT_CONTEXT):
        value = method(k, n, to_decimal)
    assert type(value) is Decimal
    return str(value)


class TestDecimalKernel:
    @settings(deadline=None)
    @given(st.integers(2, 40), st.integers(0, 12_000), st.integers(0, 2 * sequence._CAST_BITS))
    @example(2, 0, 0)
    @example(2, 12_000, 0)
    @example(40, 39, 1)
    @example(2, 12_000, sequence._CAST_BITS)
    @example(3, 12_000, 2 * sequence._CAST_BITS)
    def test_decimal_term_equals_int_term(self, k, n, cast_bits):
        # the operand of the last square has coefficients of about
        # n/4 * log2(rho_k) < 3000 bits here, so a switch at 0 to 2000 bits,
        # around the real one, puts n on either side of it
        assert decimal_term(term_fast, k, n, cast_bits) == int_to_str(term_fast(k, n))

    @settings(deadline=None)
    @given(st.integers(2, 40), st.integers(0, 400))
    @example(2, 0)
    @example(40, 39)
    @example(40, 40)
    def test_every_method_agrees_with_the_oracles(self, k, n):
        expected = str(term_naive(k, n))
        assert expected == str(term_matrix(k, n))
        for method in (term_fast, term_naive, term_matrix):
            assert decimal_term(method, k, n, cast_bits=0) == expected

    @pytest.mark.parametrize("k,n", [(2, 190_140), (3, 150_156), (16, 100_000)])
    def test_decimal_term_above_the_real_switch(self, k, n):
        assert decimal_term(term_fast, k, n) == int_to_str(term_fast(k, n))

    @pytest.mark.parametrize("prec", [28, 10**6])
    def test_decimal_squares_refuse_a_rounding_context(self, prec):
        # F_1000 squares below the switch and is converted at the end, where
        # its last products would already round
        with localcontext(Context(prec=prec)):
            with pytest.raises(ValueError, match="traps Inexact"):
                term_fast(2, 1000, to_decimal)

    def test_defaults_stay_int(self):
        # above the switch, where a cast would take the Decimal path
        assert type(term_fast(2, 200_000)) is int
        assert {type(t) for t in range_terms(2, 200_000, 200_002)} == {int}
        assert {type(t) for t in range_terms(2, 200_000, 200_002)} == {int}

    @settings(deadline=None)
    @given(st.integers(2, 70).flatmap(lambda k: st.tuples(st.just(k), residue(k, 300))))
    def test_decimal_square_matches_schoolbook(self, ka):
        k, a = ka
        assert square_in(to_decimal, a, k) == schoolbook_mul_mod(a, a, k)

    @pytest.mark.parametrize("cast", [int, to_decimal], ids=["int", "decimal"])
    @pytest.mark.parametrize("k", [2, 3, 5, 9, 10, 11, 64, 100])
    @pytest.mark.parametrize("digits", [1, 2, 3, 7, 19, 20, 300, 301])
    def test_square_of_all_nines_coefficients(self, cast, k, digits):
        # the middle coefficient of the square is k(10^D - 1)^2, which needs
        # 2D + len(str(k)) digits unless k is a power of ten: a narrower
        # decimal slot carries into its neighbour here
        a = [10**digits - 1] * k
        assert square_in(cast, a, k) == schoolbook_mul_mod(a, a, k)

    @pytest.mark.parametrize("k", [2, 5, 33])
    def test_decimal_square_with_very_uneven_widths(self, k):
        for top in range(k):
            a = [1] * k
            a[top] = 3**5000
            assert square_in(to_decimal, a, k) == schoolbook_mul_mod(a, a, k)


def forced(path):
    """A patch that sends every ``term_fast`` call down one path, or none for "rule"."""
    if path == "binomial":
        return mock.patch.multiple(sequence, _BINOMIAL_ORDER=2, _BINOMIAL_STEPS=10**9)
    if path == "kernel":
        return mock.patch.object(sequence, "_BINOMIAL_ORDER", 10**9)
    return nullcontext()


class TestBinomialBranch:
    @pytest.mark.parametrize("k", range(2, 31))
    def test_binomial_sum_is_the_sweep(self, k):
        # n from 0 takes in the zeros before F_{k-1}, F_{k-1} = 1 and every
        # residue of N + 1 modulo k + 1, where the last Horner step differs
        assert [_binomial_term(k, n) for n in range(400)] == sweep_from_zero(k, 400)

    @settings(deadline=None)
    @given(
        st.integers(2, 60),
        st.integers(0, 2500),
        st.sampled_from(["binomial", "kernel", "rule"]),
        st.sampled_from([int, to_decimal]),
    )
    @example(2, 2500, "binomial", int)
    @example(60, 59, "binomial", to_decimal)
    @example(20, 2500, "rule", to_decimal)
    @example(19, 2500, "rule", to_decimal)
    def test_either_path_equals_the_oracles(self, k, n, path, cast):
        expected = term_naive(k, n)
        if n <= 600:
            assert term_matrix(k, n) == expected
        with forced(path), localcontext(EXACT_CONTEXT):
            value = term_fast(k, n, cast)
        assert type(value) is (int if cast is int else Decimal)
        if cast is int:
            assert value == expected
        else:
            assert str(value) == int_to_str(expected)

    def test_rule(self):
        assert sequence._takes_binomial(20, 42_020)  # n // (k+1) = 2000 = 100 k
        assert not sequence._takes_binomial(20, 42_021)
        assert not sequence._takes_binomial(19, 0)
        assert sequence._takes_binomial(100_000, bounds._MAX_INDEX)

    @pytest.mark.parametrize("k", [2, 3])
    def test_never_for_k_up_to_three(self, k):
        for n in (0, 1, 10, 10**4, 10**6, bounds._MAX_INDEX):
            assert not sequence._takes_binomial(k, n)

    @pytest.mark.parametrize(
        "k,n",
        [(20, 42_020), (20, 42_021), (20, 84_020), (20, 84_021), (20, 105_000), (20, 105_021),
         (64, 40_000), (256, 8000)],
    )
    def test_paths_agree_at_scale(self, k, n):
        with forced("kernel"):
            kernel = term_fast(k, n)
        with forced("binomial"):
            assert term_fast(k, n) == kernel
        assert term_fast(k, n) == kernel


def benchmark_terms(workload):
    """(k, n) of the recorded benchmark passes' term requests in ``workload``, n > 0."""
    golden = json.loads(Path(__file__).with_name("golden_requests.json").read_text())
    return sorted({
        (int(argv[2]), int(argv[4]))
        for key, outcomes in golden.items() if key.startswith(f"{workload}:")
        for argv, _, _ in outcomes if argv[0] == "term" and argv[4] != "0"
    })


def first_decimal_square_bits(call):
    """Widest coefficient of the first Decimal square that ``call()`` makes, in bits, or None."""
    widths = []
    square = sequence._decimal_square_slots

    def spy(a, k):
        if not widths:
            widths.append(int(max(a)).bit_length())
        return square(a, k)

    with mock.patch.object(sequence, "_decimal_square_slots", spy), localcontext(EXACT_CONTEXT):
        call()
    return widths[0] if widths else None


def first_term_square_bits(k, n):
    """``first_decimal_square_bits`` of ``term_fast(k, n, to_decimal)``."""
    return first_decimal_square_bits(lambda: term_fast(k, n, to_decimal))


class TestBenchmarkPaths:
    # W = _CAST_BITS; a square at most doubles the widest coefficient, plus
    # a few bits, so the first square at W bits or more is below 2W
    def test_kernel_terms_convert_below_order_20_and_sum_above(self):
        terms = benchmark_terms("term-kernel")
        assert (17, 31_506) in terms
        for k, n in terms:
            if k < sequence._BINOMIAL_ORDER:
                bits = first_term_square_bits(k, n)
                assert sequence._CAST_BITS <= bits < 2 * sequence._CAST_BITS
            else:
                assert sequence._takes_binomial(k, n)

    def test_render_terms_convert_below_20k_bit_coefficients(self):
        terms = benchmark_terms("term-render")
        assert {k for k, _ in terms} == {2, 3}
        for k, n in terms:
            assert sequence._CAST_BITS <= first_term_square_bits(k, n) < 2 * sequence._CAST_BITS


class TestOneSwitch:
    @pytest.mark.parametrize("k", [2, 3, 17, 1000])
    def test_every_exponentiation_hands_back_the_cast_type(self, k):
        # below: coefficients of at most W/4 bits, so no square switches and
        # the residue is converted at the end; above: W bits or more before
        # the last square, so the squares switch on the way
        width = sequence._CAST_BITS
        below, above = width // 4, 4 * width + 2 * k
        for n, switches in [(0, False), (below, False), (above, True)]:
            residue = []
            bits = first_decimal_square_bits(
                lambda: residue.extend(sequence._x_pow_mod(n, k, to_decimal))
            )
            assert (bits is not None) is switches
            assert {type(c) for c in residue} == {Decimal}
            assert [int(c) for c in residue] == sequence._x_pow_mod(n, k, int)
        with localcontext(EXACT_CONTEXT):
            assert type(term_fast(k, below, to_decimal)) is Decimal
            run = list(islice(iter_terms(k, below, to_decimal), k + 1))
        assert {type(t) for t in run} == {Decimal}
        assert [int(t) for t in run] == range_terms(k, below, below + k)


def dot_product_step(r, t):
    """The kernel's former last step, sum_i r_i F_{m+t+i}: k products."""
    run = sequence._run_from_residue(r)
    if t:
        run.append(sum(run))  # F_{m+k}
    return sum(c * f for c, f in zip(r, run[t:]))


def dot_product_term(k, n, cast=int):
    """F_n from the kernel's residue and ``dot_product_step``."""
    m, t = divmod(n, 2)
    return dot_product_step(sequence._x_pow_mod(m, k, cast), t)


class Counted(int):
    """An int that counts the products of two ``Counted`` operands."""

    products = 0

    def __add__(self, other):
        return Counted(int(self) + other)

    __radd__ = __add__

    def __sub__(self, other):
        return Counted(int(self) - other)

    def __mul__(self, other):
        if isinstance(other, Counted):
            Counted.products += 1
        return Counted(int(self) * other)

    __rmul__ = __mul__


class TestFoldedStep:
    @settings(deadline=None)
    @given(st.integers(2, 64), st.integers(0, 6000))
    @example(2, 0)
    @example(2, 1)
    @example(64, 63)
    @example(64, 6000)
    @example(63, 5999)
    def test_fold_equals_the_dot_product_and_the_sweep(self, k, n):
        with forced("kernel"):
            value = term_fast(k, n)
        assert value == dot_product_term(k, n) == term_naive(k, n)

    @settings(deadline=None)
    @given(
        st.integers(2, 64),
        st.integers(0, 6000),
        st.sampled_from([int, to_decimal]),
        st.integers(0, 1200),
    )
    @example(2, 6001, to_decimal, 0)
    @example(3, 6000, to_decimal, 1200)
    @example(64, 5999, to_decimal, 1)
    def test_fold_in_either_type(self, k, n, cast, cast_bits):
        # the residue's coefficients reach about n/2 * log2(rho_k) < 2100
        # bits here, and the operand of its last square half that, so the
        # patched switch falls on either side of the squares
        expected = int_to_str(term_naive(k, n))
        with forced("kernel"), mock.patch.object(sequence, "_CAST_BITS", cast_bits):
            with localcontext(EXACT_CONTEXT):
                value = term_fast(k, n, cast)
                oracle = dot_product_term(k, n, cast)
        assert type(value) is (int if cast is int else Decimal)
        assert str(value) == str(oracle) == expected

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 8, 17, 64])
    @pytest.mark.parametrize("t", [0, 1])
    def test_last_step_makes_k_minus_half_products(self, k, t):
        r = [7**i + 1 for i in range(k)]
        Counted.products = 0
        value = sequence._top_of_square([Counted(c) for c in r], t)
        assert Counted.products == k - (k - t) // 2  # ceil((k + t) / 2)
        assert value == dot_product_step(r, t)


class TestDecimalSeed:
    @settings(deadline=None)
    @given(st.integers(2, 40), st.integers(1, 6000), st.integers(1, 40))
    @example(2, 1, 1)
    @example(2, 3000, 5)  # the operand of the last square has 1040-bit coefficients
    @example(16, 2200, 20)
    @example(40, 6000, 40)
    def test_seed_in_decimal_equals_the_int_window(self, k, n0, count):
        with localcontext(EXACT_CONTEXT):
            values = list(islice(iter_terms(k, n0, to_decimal), count))
        assert all(type(v) is Decimal for v in values)
        ints = range_terms(k, n0, n0 + count - 1)
        assert [str(v) for v in values] == [int_to_str(v) for v in ints]

    @pytest.mark.parametrize("k,n0", [(2, 3000), (3, 2500), (16, 2200)])
    def test_jump_crosses_the_seed_width(self, k, n0):
        squares = []
        square = sequence._decimal_square_slots
        with mock.patch.object(
            sequence, "_decimal_square_slots", lambda a, k: squares.append(k) or square(a, k)
        ), localcontext(EXACT_CONTEXT):
            values = list(islice(iter_terms(k, n0, to_decimal), k + 2))
        assert squares, "the jump never reached the switch width"
        assert [str(v) for v in values] == [int_to_str(v) for v in range_terms(k, n0, n0 + k + 1)]

    @pytest.mark.parametrize("prec", [28, 10**6])
    def test_decimal_seed_refuses_a_rounding_context(self, prec):
        with localcontext(Context(prec=prec)):
            with pytest.raises(ValueError, match="traps Inexact"):
                next(iter_terms(2, 3000, to_decimal))

    def test_int_windows_stay_int(self):
        # far above the switch width: range_terms keeps int jumps,
        # where seq and gf jump with a Decimal cast
        assert {type(t) for t in range_terms(3, 5000, 5003)} == {int}
        assert {type(t) for t in range_terms(16, 5000, 5003)} == {int}
