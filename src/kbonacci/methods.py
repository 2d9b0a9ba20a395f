"""The term strategies by name, and the two oracles of the production kernel.

``term_naive`` -- item n of the sweep ``sequence.iter_terms`` from the
initial terms; linear in n.  ``term_matrix`` -- k x k companion-matrix
power; O(k^3 log n).  Neither goes through ``sequence.term_fast``'s
exponentiation, so each is an independent implementation for
cross-checking it.

``METHODS`` is the one registry of the three strategies by name: the
CLI's ``term --method`` and the ``bench`` harness look them up there.
Only they and the tests load this module; ``sequence`` hands out its
names too, for callers that import them from there.
"""

from itertools import islice

from .sequence import _validate_index, iter_terms, term_fast, validate_order

__all__ = ["term_naive", "term_matrix", "METHODS"]


def term_naive(k: int, n: int, cast=int):
    """n-th term as item n of ``iter_terms(k, 0, cast)``; O(n) additions.

    ``cast`` converts the initial terms, and a ``Decimal`` one needs an
    exact context, as in ``iter_terms``.
    """
    _validate_index(n)
    return next(islice(iter_terms(k, 0, cast), n, None))


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
