"""Order-k additive recurrences ("k-bonacci" sequences).

A k-bonacci sequence starts with k-1 zeros followed by a single one, and
every later term is the sum of the k terms before it.  k=2 gives the
Fibonacci numbers, k=3 the tribonacci numbers, and so on.

Three evaluation strategies are provided:

* ``term_fast`` -- x^m modulo the characteristic polynomial
  x^k - x^(k-1) - ... - x - 1 for m = n // 2, by left-to-right
  square-and-multiply.  Each square is one big multiplication by
  Kronecker substitution (coefficients packed into the slots of one
  number) followed by an O(k) reduction; each multiply by x is k
  additions.  A final dot product of k half-size products gives F_n.
  O(log n) squares of about k times the term size.  Asked for a
  ``Decimal`` (``cast=rational.to_decimal``, as the CLI does), it runs
  the squares from about 10k-digit coefficients on in ``Decimal``:
  libmpdec multiplies big operands with a number-theoretic transform,
  CPython's int with Karatsuba, and the Decimal result prints in linear
  time.
* ``term_naive`` -- item n of the sweep ``iter_terms`` from the initial
  terms; linear in n.
* ``term_matrix`` -- k x k companion-matrix power.  O(k^3 log n); kept,
  with ``term_naive``, as an independent implementation for
  cross-checking.

``METHODS`` is the one registry of these strategies by name: the CLI's
``term --method`` and the ``bench`` harness look them up there.

``iter_terms`` is the one forward sweep of the recurrence: a ring of the
k most recent terms, each new term their sum.  Started above 0 it jumps
ahead first, taking its k seed terms from the one residue x^n, so a range
far from 0 costs no sweep from F_0.  ``window`` and ``range_terms`` are
runs of that sweep, and ``term_naive`` is one item of it from 0.

All functions are pure and by default operate on plain Python integers,
so results are exact at any size.  The three term strategies and
``iter_terms`` also compute in any other exact type that ``cast``
converts ints to; the CLI prints ``term`` and streams ``seq`` in
``decimal.Decimal`` under ``rational.EXACT_CONTEXT``, since ``str()`` of
a Decimal is linear.  ``window`` and ``range_terms`` always return ints.
"""

from __future__ import annotations

from collections.abc import Iterator
from decimal import Context, Decimal, Inexact, getcontext
from itertools import cycle, islice

__all__ = [
    "validate_order",
    "validate_range",
    "initial_terms",
    "window",
    "term_naive",
    "term_fast",
    "term_matrix",
    "range_terms",
    "iter_terms",
    "METHODS",
]

# term_fast with a cast (the CLI's Decimal) converts the residue before the
# first square with a coefficient this wide, about 10k digits.  Below it,
# Decimal's cost per operation in the O(k) additions and conversions of each
# step outweighs its faster product: switching on the packed size (k times
# this) instead made the term requests with k >= 16 and under 20k digits
# slower.
_CAST_BITS = 33_000


def validate_order(k: int) -> int:
    """Return ``k`` unchanged if it is a valid recurrence order (k >= 2)."""
    if not isinstance(k, int) or isinstance(k, bool):
        raise ValueError(f"order must be an integer, got {k!r}")
    if k < 2:
        raise ValueError(f"order must be >= 2, got {k}")
    return k


def validate_range(k: int, n0: int, n1: int) -> None:
    """Raise ValueError unless F_{n0} .. F_{n1} of order k is defined."""
    _validate_index(n0)
    if n0 > n1:
        raise ValueError(f"invalid range: n0={n0} > n1={n1}")
    validate_order(k)


def initial_terms(k: int) -> list[int]:
    """First k terms of the order-k sequence: k-1 zeros, then a one."""
    validate_order(k)
    return [0] * (k - 1) + [1]


def iter_terms(k: int, start: int = 0, cast=int) -> Iterator[int]:
    """Yield F_start, F_{start+1}, ... indefinitely.

    The package's one forward sweep of the recurrence: a ring of the k
    most recent terms, each new term their running sum, so memory stays
    O(k * term size).  From 0 the seed is ``initial_terms(k)`` itself,
    which keeps ``term_naive``, an oracle for the kernel, off the kernel;
    from any other start it is the k terms of one jump-ahead.  ``cast``
    converts the k seed terms, and later terms are their sums, so they
    share its result type.  ``Decimal`` sums are exact only under a
    context that traps ``Inexact``, such as ``rational.EXACT_CONTEXT``, so
    with a ``Decimal`` cast the first ``next`` raises ValueError under any
    other (the default context rounds at 28 digits).
    """
    validate_order(k)
    _validate_index(start)
    seed = initial_terms(k) if start == 0 else _run_from_residue(_x_pow_mod(start, k))
    ring = [cast(t) for t in seed]
    if type(ring[0]) is Decimal:
        _require_exact_context()
    yield from ring
    total = sum(ring)
    for oldest in cycle(range(k)):
        new = total
        yield new
        total += new - ring[oldest]
        ring[oldest] = new


def term_naive(k: int, n: int, cast=int):
    """n-th term as item n of ``iter_terms(k, 0, cast)``; O(n) additions.

    ``cast`` converts the initial terms, and a ``Decimal`` one needs an
    exact context, as in ``iter_terms``.
    """
    _validate_index(n)
    return next(islice(iter_terms(k, 0, cast), n, None))


def range_terms(k: int, n0: int, n1: int) -> list[int]:
    """Terms F_{n0} .. F_{n1}: a jump to F_{n0}, then a sweep of additions."""
    validate_range(k, n0, n1)
    return list(islice(iter_terms(k, n0), n1 - n0 + 1))


def window(k: int, n: int, count: int) -> list[int]:
    """Terms F_n .. F_{n+count-1}: the first ``count`` items of ``iter_terms(k, n)``.

    Past the one exponentiation of x^n the run costs only additions:
    O(k + count).
    """
    if not isinstance(count, int) or isinstance(count, bool) or count < 1:
        raise ValueError(f"count must be a positive integer, got {count!r}")
    return list(islice(iter_terms(k, n), count))


def term_fast(k: int, n: int, cast=int):
    """n-th term via x^m modulo the characteristic polynomial, m = n // 2.

    Computes r = x^m mod (x^k - x^(k-1) - ... - x - 1) by left-to-right
    square-and-multiply, each square one big multiplication by Kronecker
    substitution plus an O(k) reduction.  With n = 2m + t,
    x^n = x^m * x^(m+t) gives F_n = sum_i r_i F_{m+t+i}.  F_m .. F_{m+k-1}
    follow from r in additions, and for odd n the one more term F_{m+k} is
    their sum; so the last step is k products of half-size operands, not a
    full-size square.  O(log n) squares of about k times the term size,
    which makes huge single indices (n in the millions) practical.

    The default returns an int and runs in ints throughout.  Any other
    ``cast`` (``rational.to_decimal``) converts the residue once its
    coefficients reach ``_CAST_BITS`` bits, so the top squares and the
    final products run in that type, and F_n comes back in it; a residue
    that stays smaller leaves one int result to convert.  For ``Decimal``
    that means libmpdec's number-theoretic-transform products and a
    result whose ``str()`` is linear; the Decimal squares need a context
    that traps ``Inexact``, such as ``rational.EXACT_CONTEXT``, and raise
    ValueError under any other (the default context rounds at 28 digits).
    """
    validate_order(k)
    _validate_index(n)
    m, t = divmod(n, 2)
    r = _x_pow_mod(m, k, cast)
    run = _run_from_residue(r)
    if t:
        run.append(sum(run))  # F_{m+k}
    value = sum(c * f for c, f in zip(r, run[t:]) if c)
    return cast(value) if type(value) is int else value


def _validate_index(n: int) -> None:
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"index must be an integer, got {n!r}")
    if n < 0:
        raise ValueError(f"negative indices are not defined, got {n}")


def _x_pow_mod(n: int, k: int, cast=int) -> list:
    """Coefficients (little-endian, length k) of x^n mod the char poly.

    Left-to-right square-and-multiply: a square per bit of n after the
    leading one, then a multiply by x where the bit is set.  A ``cast``
    other than int converts the residue, once, before the first square
    whose operand has a coefficient of ``_CAST_BITS`` bits or more.
    """
    if n == 0:
        return [1] + [0] * (k - 1)
    residue = [0, 1] + [0] * (k - 2)  # the polynomial x
    pending = cast is not int
    for bit in bin(n)[3:]:
        if pending and max(residue).bit_length() >= _CAST_BITS:
            residue, pending = [cast(c) for c in residue], False
        residue = _square_mod(residue, k)
        if bit == "1":
            residue = _times_x(residue)
    return residue


def _times_x(a: list[int]) -> list[int]:
    """x * a reduced mod the char poly: x^k folds to 1 + x + ... + x^(k-1)."""
    top = a[-1]
    return [top] + [c + top for c in a[:-1]]


def _square_mod(a: list, k: int) -> list:
    """a^2 reduced mod the char poly, for nonnegative coefficients.

    Kronecker substitution: the coefficients go into the slots of one
    number, wide enough that no coefficient of the square (a sum of at
    most k products) carries into the next slot, so one big
    multiplication gives all 2k-1 coefficients: byte slots of an int for
    int coefficients, decimal-digit slots of a ``Decimal`` for ``Decimal``
    ones.  Degrees d >= k are then folded down with
    x^d = x^(d-1) + ... + x^(d-k), in two running-sum passes: top-down,
    each high coefficient collects the folded ones above it; then the low
    coefficient i collects the high ones of degree k .. min(i+k, 2k-2).
    """
    prod = _int_square_slots(a, k) if type(a[0]) is int else _decimal_square_slots(a, k)
    above = 0  # sum of the folded coefficients of degree > d
    for d in range(2 * k - 2, k - 1, -1):
        prod[d] += above
        above += prod[d]
    below = 0  # sum of the folded coefficients of degree k .. i+k
    for i in range(k - 1):
        below += prod[k + i]
        prod[i] += below
    prod[k - 1] += below
    del prod[k:]
    return prod


def _int_square_slots(a: list[int], k: int) -> list[int]:
    """The 2k-1 coefficients of a^2, through one int square."""
    width = (2 * max(a).bit_length() + k.bit_length() + 8) // 8  # bytes
    packed = bytearray(k * width)
    for i, c in enumerate(a):
        packed[i * width : (i + 1) * width] = c.to_bytes(width, "little")
    value = int.from_bytes(packed, "little")
    del packed  # free each temporary early: they hold k times a term
    value *= value
    size = (2 * k - 1) * width
    square = memoryview(value.to_bytes(size, "little"))
    del value
    return [
        int.from_bytes(square[i : i + width], "little")
        for i in range(0, size, width)
    ]


def _decimal_square_slots(a: list[Decimal], k: int) -> list[Decimal]:
    """The 2k-1 coefficients of a^2, through one ``Decimal`` square.

    Each coefficient of the square is below k * 10^(2D) for D-digit
    coefficients, so slots of 2D + len(str(k)) digits hold it.
    """
    _require_exact_context()
    width = 2 * (max(a).adjusted() + 1) + len(str(k))  # digits
    packed = _join_slots(a, width)
    square = packed * packed
    del packed  # free each temporary early, as in the int path
    return _split_slots(square, width, 2 * k - 1)


def _require_exact_context() -> None:
    if not getcontext().traps[Inexact]:
        # under a rounding context the digits would come out wrong silently
        raise ValueError(
            "Decimal terms need a context that traps Inexact, such as rational.EXACT_CONTEXT"
        )


def _join_slots(a: list[Decimal], width: int) -> Decimal:
    """sum_i a_i 10^(i*width), joined by halves: each digit moves O(log k) times."""
    if len(a) == 1:
        return a[0]
    half = len(a) // 2
    return _join_slots(a[:half], width) + _join_slots(a[half:], width).shift(half * width)


def _split_slots(x: Decimal, width: int, count: int) -> list[Decimal]:
    """The ``count`` slots of ``width`` digits of x, lowest first, split by halves.

    ``shift`` moves coefficient digits without rounding and cuts its
    result to the context's precision from the top, so under a precision
    of p digits ``x.shift(0)`` is x mod 10^p, and ``x.shift(-p)`` is
    x // 10^p.
    """
    if count == 1:
        return [x]
    half = count // 2
    low = x.shift(0, Context(prec=half * width))
    high = x.shift(-half * width)
    return _split_slots(low, width, half) + _split_slots(high, width, count - half)


def _run_from_residue(r: list[int]) -> list[int]:
    """F_m .. F_{m+k-1} from r = x^m mod the char poly.

    F_{m+s} is the top coefficient of x^s * r.  Unrolling the multiply by
    x gives F_{m+s} = r_{k-1-s} + F_m + ... + F_{m+s-1} for s < k.
    """
    run, total = [], 0
    for c in reversed(r):
        run.append(c + total)
        total += run[-1]
    return run


def term_matrix(k: int, n: int, cast=int):
    """n-th term via the k x k companion-matrix power; O(k^3 log n).

    The advance matrix has a first row of ones (summing the window) above
    a shifted identity; its n-th power applied to the initial window
    (1, 0, ..., 0) leaves F_n in the last slot, i.e. entry [k-1][0].
    The result passes through ``cast``.
    """
    validate_order(k)
    _validate_index(n)
    step = [[1] * k] + [
        [1 if j == i else 0 for j in range(k)] for i in range(k - 1)
    ]
    power = _identity(k)
    e = n
    while e:
        if e & 1:
            power = _matmul(power, step, k)
        e >>= 1
        if e:
            step = _matmul(step, step, k)
    return cast(power[k - 1][0])


def _identity(k: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(k)] for i in range(k)]


def _matmul(a: list[list[int]], b: list[list[int]], k: int) -> list[list[int]]:
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


# callers look a strategy up here at call time, so one patched entry
# reaches the CLI and bench alike; each takes (k, n, cast=int)
METHODS = {
    "naive": term_naive,
    "matrix": term_matrix,
    "polymod": term_fast,
}
