"""Every request limit, stated once for the CLI, the library and bench.

It holds the order, index and digit bounds, the oracle methods' bounds,
the term and kernel cost models, seq's printed digits, the verify-decimal
sweep, the digits division, the series partial sum, verify-classic's
digits and bench's repetitions, each beside the measurement that sized it.
``check_term``, ``check_seq``, ``check_sweep``, ``check_digits``,
``check_jump`` and ``check_grid`` refuse a request with ValueError (exit 2
from the CLI) before any arithmetic; the series' search for its largest
N bisects on the same refusals.  Timings are process wall on a 2-core
host, CPython 3.11.
"""

import math
from functools import cache

from .sequence import _takes_binomial, validate_order, validate_range

__all__ = ["check_term", "check_grid", "check_jump", "check_seq", "check_sweep", "check_digits"]

# Every order is refused above this.  A run or residue holds k terms, and
# D_k has k digits, so the cheapest request of each subcommand grows with k:
# at k = 500000, seq --from 5 --to 5 takes 3.7 s and 80 MB, verify-decimal
# 1.4 s, and term -n 0 0.2 s; at 100000 each takes under 0.8 s.
_MAX_ORDER = 100_000
# F_n < 2^n, so F_n has at most n*log10(2) + 1 digits.  An index whose bound
# passes _MAX_DIGITS is refused: 3.1M digits take about a second, and time
# and memory grow with the size of the result.
_MAX_DIGITS = 10**7
_MAX_INDEX = int(_MAX_DIGITS / math.log10(2))
# term's oracle methods are far slower than the kernel: naive sweeps every
# term up to F_n (time about n^2), and matrix multiplies k x k matrices of
# F_n-sized entries (k^3 products a step; 95 s at k = 2, n = 33219280).  Each
# is refused above the index where it takes about as long as the kernel's
# largest request, term -k 2 -n 33219280 (1.5 s, all three in Decimal as
# term runs them, in process): naive 1.1 s at k = 2 and 1.5-1.6 s from
# k = 64 on, where terms grow a bit a step, and matrix 1.3 s at k = 2.
_ORACLE_MAX_INDEX = {"naive": 200_000, "matrix": 2_000_000}
# --method matrix is also refused when k^3 * n (n = 0 counted as 1: the
# matrices alone hold k^2 entries) passes this, 8 * 2000000 at k = 2.  At the
# bound k = 3 at n = 592592 takes 0.9 s and k = 251 at n = 1 0.8 s.
_MAX_MATRIX_WORK = 16 * 10**6
# seq prints N1 - N0 + 1 terms of at most N1*log10(2) + 1 digits each, and
# refuses a range whose bound on that total passes this: seq -k 3 --from 0
# --to 20000 prints 5.3e7 digits against a bound of 1.2e8.
_MAX_SEQ_DIGITS = 10**9
# verify-decimal prints D_k for each order in -k .. --max-k, and refuses a
# sweep whose bound on those digits, (orders) * max_k, passes this.  An order
# near 100000 takes about 0.2 s, so the top of the bound is about 2 s, and
# -k 2 --max-k 1000 (1e6) takes 0.2 s.
_MAX_SWEEP_DIGITS = 10**6
# digits divides 10^m by D_k once, exactly in Decimal, in a time that grows
# about as m * min(k, _DIVISION_ORDERS), as libmpdec's division costs little
# more for a longer D_k, and is refused above this.  At the bound k = 6000,
# m = 10^7 takes 1.8 s, k = 10000, m = 6 * 10^6 1.75 s and k = 20000 or
# 100000, m = 3 * 10^6 1.5 s; k = 100000, m = 6 * 10^6 takes 3.1 s.
_DIVISION_ORDERS = 20_000
_MAX_DIVISION_WORK = 6 * 10**10
# Largest partial sum a series report may need, in digits: P_N has a
# denominator of about (N + k) log10 p digits for eta = p/q.  The report's
# own numbers take subquadratic time, and the jump to N dominates as k
# grows: at the bound eta = 3 takes 0.035 s at k = 2, 0.24 s at k = 16 and
# 1.8 s at k = 64 (in process, CPython 3.11.7), and from k = 89 check_jump
# stops N first.  series refuses a report whose partial sum passes it.
_MAX_PARTIAL_DIGITS = 250_000
# verify_classic's digit range.  The run grows faster than linearly in d
# (alternating: 0.12 s at 100k digits and 0.2 s at 200k), so a request far
# above this would run for minutes; it is refused before any arithmetic.
_MIN_CLASSIC_DIGITS = 4
_MAX_CLASSIC_DIGITS = 200_000
# bench's min-of-reps needs a handful.  A repetition times the call term
# makes, and at the top of check_term's bounds takes about 1 s for polymod
# (k = 2, n = 33219280; 11.5 s as an int, 1.1-1.5 s in Decimal) and about as
# long for naive and matrix.  check_grid holds a whole grid to the work of
# one such cell at this many repetitions.
_MAX_REPETITIONS = 100


def _kernel_cost(k: int, n: int) -> float:
    """Cost model of the kernel at index n: the bits of k slots of F_n's size.

    F_n has about n log2(phi_k) bits, phi_k = 2 - phi_k^-k being the
    dominant root; each slot holds at least a few bytes.  One unit is about
    42 ns: term -k 2 -n 33219280 (4.6e7) takes 1.9 s, -k 16 -n 1250000
    (2.0e7) 0.7 s, and seq -k 100000 --from 400 --to 400 (4.6e7) 2.1 s.
    """
    return k * (n * _log2_phi(k) + 64)


@cache
def _log2_phi(k: int) -> float:
    """log2 of the dominant root phi_k = 2 - phi_k^-k of the order-k recurrence."""
    phi = 2.0
    for _ in range(64):  # a contraction for every k >= 2
        phi = 2 - phi**-k
    return math.log2(phi)


def _term_cost(k: int, n: int) -> float:
    """Cost model of ``term_fast(k, n, to_decimal)``, in ``_kernel_cost`` units.

    The binomial sum's Horner steps and exact divisions cost about
    n^2/(k+1) bit operations, about 150 of which take one unit: 0.42 s at
    k = 28, n = 200000 (1.0e7 with the conversion) and 70 ms at k = 16,
    n = 60000.  Converting its n-bit int result to Decimal adds about 6
    units a bit (2.4 s at n = 10^7).  Each model prices the path
    ``term_fast`` takes, which ``sequence._takes_binomial`` decides.
    """
    if _takes_binomial(k, n):
        return n * n / (150 * (k + 1)) + 6 * n
    return _kernel_cost(k, n)


# term and the jump-ahead are each refused above the modelled cost of
# their own largest request accepted at k = 2, the index bound.  The jump
# runs one more square than term, so at the same index it costs about twice
# as much, but the same model and bound serve both: the ratio holds at
# every k.  seq's jump to N0 and series' to F_{N-k+1} are the same Decimal
# jump, held to it by check_jump: at their tops both take about as long
# as term -k 2 -n _MAX_INDEX.
_MAX_COST = _kernel_cost(2, _MAX_INDEX)


def _check_order(k: int) -> None:
    if k > _MAX_ORDER:
        raise ValueError(f"order must be <= {_MAX_ORDER}, got {k}")


def _check_index_bound(n: int) -> None:
    if n > _MAX_INDEX:
        raise ValueError(
            f"index must be <= {_MAX_INDEX}, got {n}: F_n may have more than {_MAX_DIGITS} digits"
        )


def check_term(k: int, n: int, method: str = "polymod") -> None:
    """Raise ValueError unless F_n of order k by ``method`` is within the bounds.

    The order, the index, the oracle methods' index and matrix-work bounds,
    and for the kernel ``_term_cost`` against that of k = 2, n = _MAX_INDEX.
    """
    validate_range(k, n, n)
    _check_order(k)
    _check_index_bound(n)
    limit = _ORACLE_MAX_INDEX.get(method, _MAX_INDEX)
    if n > limit:
        raise ValueError(f"index must be <= {limit} with --method {method}, got {n}")
    if method == "matrix" and k**3 * max(n, 1) > _MAX_MATRIX_WORK:
        raise ValueError(
            f"k^3 * n must be <= {_MAX_MATRIX_WORK} with --method matrix, got {k}^3 * {n}"
        )
    if method == "polymod":
        _check_cost(_term_cost(k, n), f"F_n at k = {k}, n = {n}", "a term")


def _term_share(k: int, n: int, method: str) -> float:
    """The share of its own bounds that F_n of order k by ``method`` takes.

    The largest of the ratios ``check_term`` holds to at most 1: the cost
    of a polymod term over ``_MAX_COST``, an oracle's index over its index
    bound, and for matrix also k^3 * max(n, 1) over ``_MAX_MATRIX_WORK``.
    """
    if method == "polymod":
        return _term_cost(k, n) / _MAX_COST
    share = n / _ORACLE_MAX_INDEX[method]
    if method == "matrix":
        share = max(share, k**3 * max(n, 1) / _MAX_MATRIX_WORK)
    return share


def check_grid(cells, repetitions: int) -> None:
    """Raise ValueError unless bench's grid is within the work of its largest cell.

    ``cells`` are (k, n, method) triples, each within ``check_term``; the
    grid's work, repetitions times the sum of their ``_term_share``, may
    be at most that of one cell at its bounds at ``_MAX_REPETITIONS``.
    """
    work = repetitions * sum(_term_share(*cell) for cell in cells)
    if work > _MAX_REPETITIONS:
        ratio = math.ceil(work / _MAX_REPETITIONS * 100) / 100
        raise ValueError(
            f"a grid of {len(cells)} cells at {repetitions} repetitions has a modelled cost of"
            f" {ratio:.2f} times the most a grid may cost, that of k = 2, n = {_MAX_INDEX}"
            f" at {_MAX_REPETITIONS} repetitions"
        )


def check_jump(k: int, n: int) -> None:
    """Raise ValueError unless the jump-ahead of ``iter_terms(k, n)`` is within the bounds.

    The order, the index, and ``_kernel_cost`` against the cost of the
    largest term request, k = 2, n = _MAX_INDEX.  ``seq`` and ``series``
    both jump in ``Decimal``, ``seq`` to N0 and ``series`` to F_{N-k+1}.
    """
    validate_range(k, n, n)
    _check_order(k)
    _check_index_bound(n)
    _check_cost(_kernel_cost(k, n), f"the jump to n = {n} at k = {k}", "a jump")


def check_seq(k: int, n0: int, n1: int) -> None:
    """Raise ValueError unless ``seq`` of F_{n0} .. F_{n1}, jump included, is within the bounds."""
    _check_order(k)
    validate_range(k, n0, n1)
    _check_index_bound(n1)
    bound = (n1 - n0 + 1) * n1 * math.log10(2)
    if bound > _MAX_SEQ_DIGITS:
        raise ValueError(
            f"range {n0}..{n1} may print {bound:.3g} digits, more than {_MAX_SEQ_DIGITS}"
        )
    check_jump(k, n0)


def check_sweep(k: int, last: int) -> None:
    """Raise ValueError unless ``verify-decimal`` of the orders k .. last is within the bounds."""
    validate_order(k)
    if last < k:
        raise ValueError(f"--max-k {last} is below -k {k}")
    _check_order(last)
    bound = (last - k + 1) * last
    if bound > _MAX_SWEEP_DIGITS:
        raise ValueError(
            f"orders {k}..{last} may print {bound} digits of D_k, more than {_MAX_SWEEP_DIGITS}"
        )


def check_digits(k: int, m: int) -> None:
    """Raise ValueError unless ``digits`` of m digits of 1/D_k is within the bounds."""
    if m > _MAX_DIGITS:
        raise ValueError(f"digit count must be <= {_MAX_DIGITS}, got {m}")
    _check_order(k)
    if m * min(k, _DIVISION_ORDERS) > _MAX_DIVISION_WORK:
        raise ValueError(
            f"m * min(k, {_DIVISION_ORDERS}) must be <= {_MAX_DIVISION_WORK}, got m = {m}, k = {k}:"
            " the division of 10^m by D_k takes a time that grows as that"
        )
    # then the library's own refusals, repunit_denominator's and reciprocal_digits',
    # in the order a request met them before this check
    validate_order(k)
    if m < 1:
        raise ValueError(f"digit count must be >= 1, got {m}")


def _check_cost(cost: float, what: str, kind: str) -> None:
    if cost > _MAX_COST:
        ratio = math.ceil(cost / _MAX_COST * 100) / 100
        raise ValueError(
            f"{what} has a modelled cost of {ratio:.2f} times the most {kind} may cost,"
            f" that of k = 2, n = {_MAX_INDEX}"
        )
