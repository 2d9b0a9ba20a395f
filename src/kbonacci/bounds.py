"""Request bounds, stated once for the CLI and the bench harness.

``check_term`` refuses a term request and ``check_jump`` the jump-ahead of
a ``seq`` range, with ValueError (exit 2 from the CLI), before any
arithmetic.  Besides the order and index bounds and the oracle methods'
bounds, each has a cost model of the path ``sequence`` takes, and refuses
a request that the model puts above the same request at k = 2 and the
index bound.  Timings are process wall on a 2-core host, CPython 3.11.
"""

from __future__ import annotations

import math

from .sequence import validate_range

__all__ = ["check_term", "check_jump"]

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
# is refused above the index where, at k = 2, it takes about as long as the
# kernel's largest request (1.6 s): naive 1.5 s (2.0 s at k = 64) and matrix
# 1.8 s (6.5 s at k = 3).
_ORACLE_MAX_INDEX = {"naive": 250_000, "matrix": 2_500_000}
# --method matrix is also refused when k^3 * n (n = 0 counted as 1: the
# matrices alone hold k^2 entries) passes this, 8 * 2500000 at k = 2.  At the
# bound k = 2 takes 2.4 s, k = 3 at n = 740740 1.7 s, and k = 271 at n = 1
# 1.6 s.
_MAX_MATRIX_WORK = 2 * 10**7


def _kernel_cost(k: int, n: int) -> float:
    """Cost model of the kernel at index n: the bits of k slots of F_n's size.

    F_n has about n log2(phi_k) bits, phi_k = 2 - phi_k^-k being the
    dominant root; each slot holds at least a few bytes.  One unit is about
    42 ns: term -k 2 -n 33219280 (4.6e7) takes 1.9 s, -k 16 -n 1250000
    (2.0e7) 1.1 s, and seq -k 100000 --from 400 --to 400 (4.6e7) 2.1 s.
    """
    phi = 2.0
    for _ in range(64):  # a contraction for every k >= 2
        phi = 2 - phi**-k
    return k * (n * math.log2(phi) + 64)


def _term_cost(k: int, n: int) -> float:
    """Cost model of ``term_fast(k, n, to_decimal)``, in ``_kernel_cost`` units.

    The binomial sum's Horner steps and exact divisions cost about
    n^2/(k+1) bit operations, about 150 of which take one unit: 0.42 s at
    k = 28, n = 200000 (1.0e7 with the conversion) and 70 ms at k = 16,
    n = 60000.  Converting its n-bit int result to Decimal adds about 6
    units a bit (2.4 s at n = 10^7).  ``term_fast`` takes whichever path was
    measured faster, so the cheaper of the two models stands for its cost.
    """
    return min(_kernel_cost(k, n), n * n / (150 * (k + 1)) + 6 * n)


# term and the seq jump-ahead are each refused above the modelled cost of
# their own largest request accepted at k = 2, the index bound.  The jump
# runs one more square than term, so at the same index it costs about twice
# as much, but the same model and bound serve both: the ratio holds at
# every k.
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


def check_jump(k: int, n: int) -> None:
    """Raise ValueError unless the jump-ahead of ``iter_terms(k, n)`` is within the bounds.

    The order, the index, and ``_kernel_cost`` against that of k = 2,
    n = _MAX_INDEX.
    """
    validate_range(k, n, n)
    _check_order(k)
    _check_index_bound(n)
    _check_cost(_kernel_cost(k, n), f"the jump to n = {n} at k = {k}", "a jump")


def _check_cost(cost: float, what: str, kind: str) -> None:
    if cost > _MAX_COST:
        ratio = math.ceil(cost / _MAX_COST * 100) / 100
        raise ValueError(
            f"{what} has a modelled cost of {ratio:.2f} times the most {kind} may cost,"
            f" that of k = 2, n = {_MAX_INDEX}"
        )
