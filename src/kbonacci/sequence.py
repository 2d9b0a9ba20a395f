"""Order-k additive recurrences ("k-bonacci" sequences).

A k-bonacci sequence starts with k-1 zeros followed by a single one, and
every later term is the sum of the k terms before it.  k=2 gives the
Fibonacci numbers, k=3 the tribonacci numbers, and so on.

Three evaluation strategies are provided:

* ``term_naive`` / ``range_terms`` -- iterate a sliding window of the last
  k terms; linear in n, and the only sensible way to get a whole range.
* ``term_fast`` -- binary exponentiation of x^n modulo the characteristic
  polynomial x^k - x^(k-1) - ... - x - 1, then a linear combination with
  the initial terms.  O(k^2 log n) big-integer multiplications.
* ``term_matrix`` -- k x k companion-matrix power.  O(k^3 log n); kept as
  an independent implementation for cross-checking the other two.

All functions are pure and operate on plain Python integers, so results
are exact at any size.  ``Window`` and ``iter_terms`` also sweep in any
other exact additive type given as ``one`` (the CLI streams ``seq`` in
``decimal.Decimal`` under ``rational.EXACT_CONTEXT``, since ``str()`` of a
Decimal is linear in its length).
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator, List

__all__ = [
    "validate_order",
    "validate_range",
    "initial_terms",
    "Window",
    "term_naive",
    "term_fast",
    "term_matrix",
    "range_terms",
    "iter_terms",
]


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


def initial_terms(k: int) -> List[int]:
    """First k terms of the order-k sequence: k-1 zeros, then a one."""
    validate_order(k)
    return [0] * (k - 1) + [1]


class Window:
    """Sliding window of the k most recent terms.

    Holds terms F_{n-k+1} .. F_n where n is ``head_index``.  ``advance``
    produces the next term and slides the window one step, reusing a ring
    buffer of k slots so memory stays O(k * term size).  Terms are
    multiples of ``one``, so they share its type.
    """

    __slots__ = ("order", "head_index", "_buf", "_oldest", "_sum")

    def __init__(self, k: int, one=1):
        self.order = k
        self.head_index = k - 1
        self._buf = [one * t for t in initial_terms(k)]
        self._oldest = 0  # index into _buf of the oldest term
        self._sum = one  # sum of the k buffered terms

    @property
    def terms(self) -> List[int]:
        """Buffered terms in chronological order, oldest first."""
        i = self._oldest
        return self._buf[i:] + self._buf[:i]

    def advance(self) -> int:
        """Slide one step; return the newly produced term."""
        new = self._sum
        self._sum += new - self._buf[self._oldest]
        self._buf[self._oldest] = new
        self._oldest = (self._oldest + 1) % self.order
        self.head_index += 1
        return new


def iter_terms(k: int, one=1) -> Iterator[int]:
    """Yield F_0, F_1, F_2, ... indefinitely, as multiples of ``one``.

    A ``Decimal`` sweep is exact only under an exact context such as
    ``rational.EXACT_CONTEXT``; the default context rounds at 28 digits.
    """
    window = Window(k, one)
    yield from window.terms
    while True:
        yield window.advance()


def term_naive(k: int, n: int) -> int:
    """n-th term by window iteration from the initial terms; O(n)."""
    _validate_index(n)
    first = initial_terms(k)
    if n < k:
        return first[n]
    window = Window(k)
    while window.head_index < n:
        value = window.advance()
    return value


def range_terms(k: int, n0: int, n1: int) -> List[int]:
    """Terms F_{n0} .. F_{n1} from a single iterative sweep."""
    validate_range(k, n0, n1)
    return list(islice(iter_terms(k), n0, n1 + 1))


def term_fast(k: int, n: int) -> int:
    """n-th term via x^n modulo the characteristic polynomial.

    Computes x^n mod (x^k - x^(k-1) - ... - x - 1) by square-and-multiply,
    then combines the residue's coefficients linearly with the initial
    terms.  O(k^2 log n) big-integer multiplications, which makes huge
    single indices (n in the millions) practical.
    """
    validate_order(k)
    _validate_index(n)
    residue = _x_pow_mod(n, k)
    first = initial_terms(k)
    return sum(c * f for c, f in zip(residue, first) if c)


def _validate_index(n: int) -> None:
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"index must be an integer, got {n!r}")
    if n < 0:
        raise ValueError(f"negative indices are not defined, got {n}")


def _x_pow_mod(n: int, k: int) -> List[int]:
    """Coefficients (little-endian, length k) of x^n mod the char poly."""
    result = [1] + [0] * (k - 1)  # the polynomial 1
    base = [0, 1] + [0] * (k - 2)  # the polynomial x
    e = n
    while e:
        if e & 1:
            result = _polymul_mod(result, base, k)
        e >>= 1
        if e:
            base = _polymul_mod(base, base, k)
    return result


def _polymul_mod(a: List[int], b: List[int], k: int) -> List[int]:
    """Product of two degree-<k polynomials, reduced mod the char poly.

    Reduction uses x^d = x^(d-1) + x^(d-2) + ... + x^(d-k) for d >= k,
    folding high coefficients downward.
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


def term_matrix(k: int, n: int) -> int:
    """n-th term via the k x k companion-matrix power; O(k^3 log n).

    The advance matrix has a first row of ones (summing the window) above
    a shifted identity; its n-th power applied to the initial window
    (1, 0, ..., 0) leaves F_n in the last slot, i.e. entry [k-1][0].
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
    return power[k - 1][0]


def _identity(k: int) -> List[List[int]]:
    return [[1 if i == j else 0 for j in range(k)] for i in range(k)]


def _matmul(a: List[List[int]], b: List[List[int]], k: int) -> List[List[int]]:
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]
