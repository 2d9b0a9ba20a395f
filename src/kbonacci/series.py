"""Exact evaluation of the k-bonacci generating series.

For an order-k sequence and a rational base eta > 2 the series
sum_{n>=0} F_n / eta^n converges (term ratios are bounded by 2/eta < 1,
because F_{n+1} <= 2 F_n once n >= k-1) and has the closed form

    eta * (eta - 1) / ((eta - 2) * eta^k + 1).

This module computes that closed form, and ``evaluate`` is the one way
to read a truncation at N >= k-1: its report holds the closed form, the
exact partial sum and a rigorous geometric bound on the truncated tail,
all in exact rational arithmetic, and a ``passed`` flag stating that the
closed form and the partial sum differ by no more than the tail bound --
an identity that must hold, and that the test suite checks across wide
(k, eta, N) grids.  ``converge_until`` searches for N by that bound.

The partial sums come from the identity behind the closed form.  With
x = 1/eta the series is G(x) = x^(k-1) / C(x), C(x) = 1 - x - ... - x^k,
and multiplying the truncation P_N(x) by C(x) cancels every coefficient
up to x^N except x^(k-1) (present once N >= k-1):

    P_N(x) C(x) = x^(k-1) - sum_{m=N+1}^{N+k} x^m sum_{i=max(0,m-k)}^{N} F_i.

So P_N needs only the last k terms F_{N-k+1} .. F_N, and the tail bound
F_{N+1}; every entry point reads them from one window (``_checked_run``):
the k + 1 first items of ``sequence.iter_terms`` in ``Decimal``, the jump
``seq`` makes, priced by the same cost model.  ``_check_window`` states
its refusals once, for the run and for the search's largest N.  The
suffix sums and their weighted sum run in ``Decimal`` too, whose products
libmpdec takes by a number-theoretic transform.  A report costs O(log N)
squares for the jump, O(k) products for the weighted sum of the run, and
a few products of O(N log eta)-digit integers, against N + 1 rational
multiply-adds, each with its own gcd, for a sweep of the terms.

A report is the point, N, and acc (``_acc``) and F_{N+1} as integer
``Decimal``s.  Its four numbers, each a term-sized cofactor times p^e or
q^(N+1) or a sum of two such, and its verdict derive from them, in
lowest terms by gcds of cofactors alone (``strip_p_power``, the gcds
with den).  ``_numbers`` states them once under ``EXACT_CONTEXT``, where
libmpdec's powers and products are subquadratic and ``str`` is linear
(``str`` of a p^N-sized int is quadratic on CPython 3.11).  Only small
ints (p, q, den, c, the gcds) become ``Decimal``s and only remainders
come back; the ``Fraction`` fields alone convert pairs to int.

The eta > 2 restriction is the domain on which the geometric tail argument
works; no claim is made below it.
"""

from bisect import bisect_left
from collections import namedtuple
from collections.abc import Iterator
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, islice
from math import ceil, gcd, log10
from operator import sub

from .bounds import _MAX_PARTIAL_DIGITS, check_jump
from .rational import (
    EXACT_CONTEXT, Rational, format_ratio, fraction_to_str, require_rational, str_to_int, to_decimal
)
from .sequence import _validate_index, iter_terms, validate_order

__all__ = [
    "SeriesPoint",
    "EvalReport",
    "closed_form",
    "evaluate",
    "evaluate_range",
    "converge_until",
]

# Fraction(num, den) for num and den > 0 already coprime, without the gcd
coprime = getattr(Fraction, "_from_coprime_ints", None) or (
    lambda num, den: Fraction(num, den, _normalize=False)
)


class SeriesPoint(namedtuple("SeriesPoint", "k eta")):
    """Evaluation point of the series: order k >= 2 and rational eta > 2.

    An immutable named tuple, built by position or keyword; construction
    checks the order and converts eta to ``Fraction``, and refuses with
    ValueError an eta that is not an int or a ``Fraction``
    (``rational.require_rational``) or is <= 2.
    """

    __slots__ = ()

    def __new__(cls, k: int, eta: Rational | int):
        validate_order(k)
        eta = require_rational(eta, "eta")
        if eta <= 2:
            raise ValueError(f"series requires eta > 2, got {fraction_to_str(eta)}")
        return super().__new__(cls, k, eta)


class EvalReport(namedtuple("EvalReport", "point n_trunc acc f_next")):
    """A truncation of the series at N, an immutable named tuple of the numbers that fix it.

    ``acc`` is the weighted suffix sum of F_{N-k+1} .. F_N (``_acc``) and
    ``f_next`` is F_{N+1}, both integer ``Decimal``s.  ``partial``,
    ``closed``, ``tail_bound`` and ``residual`` (closed - partial, the
    omitted part the partial sum is built from) are ``Fraction``s derived
    from them, and ``passed`` records whether the residual is within the
    rigorous tail bound for N.
    """

    __slots__ = ()

    partial = property(lambda self: _fraction(self, "partial"))
    closed = property(lambda self: _fraction(self, "closed"))
    tail_bound = property(lambda self: _fraction(self, "tail_bound"))
    residual = property(lambda self: _fraction(self, "residual"))

    @property
    def passed(self) -> bool:
        # times p^N / q^(N+1) the omitted part is acc / den and the tail bound
        # F_{N+1} / (p - 2q), so the verdict takes no product of their size;
        # exact, whatever the caller's context
        p, q = self.point.eta.as_integer_ratio()
        with localcontext(EXACT_CONTEXT):
            return self.acc * (p - 2 * q) <= self.f_next * to_decimal(_denominator(self.point))

    def to_json_dict(self) -> dict:
        """k, eta, N, each number of ``_numbers`` as "num/den" text, and pass."""
        numbers = _numbers(self)
        doc = {"k": self.point.k, "eta": format_ratio(self.point.eta), "N": self.n_trunc}
        doc.update((name, "%s/%s" % pair) for name, pair in zip(numbers._fields, numbers))
        doc["pass"] = self.passed
        return doc


def _fraction(report: EvalReport, name: str) -> Rational:
    # the one way back to int: a library caller's read of a Fraction field
    return coprime(*(str_to_int(str(x)) for x in getattr(_numbers(report), name)))


def closed_form(point: SeriesPoint) -> Rational:
    """Exact value of the full series: eta(eta-1) / ((eta-2) eta^k + 1).

    For eta = p/q that is p q^(k-1) / den, den from ``_denominator``, in
    lowest terms as den is prime to p and to q.
    """
    p, q = point.eta.numerator, point.eta.denominator
    return coprime(p * q ** (point.k - 1), _denominator(point))


def evaluate(point: SeriesPoint, n_trunc: int) -> EvalReport:
    """The report at N: acc from the first k terms of ``_checked_run``'s window, F_{N+1} its last.

    ValueError within the checks of ``_check_window``, of which N >= 0 is the first.
    """
    run = _checked_run(point, n_trunc)
    return EvalReport(point, n_trunc, _acc(point, run), run[-1])


def evaluate_range(point: SeriesPoint, n_max: int) -> Iterator[EvalReport]:
    """``evaluate(point, N)`` for every truncation index N = k-1 .. n_max.

    Each report comes from its own ``evaluate`` call, one jump and one
    closed-form sum, so the range has no summation path of its own.
    ValueError unless n_max is an int >= k-1.
    """
    _validate_index(n_max)
    k = point.k
    if n_max < k - 1:
        raise ValueError(f"n_max must be >= k-1 = {k - 1}, got {n_max}")
    for n in range(k - 1, n_max + 1):
        yield evaluate(point, n)


def _partial_digits(point: SeriesPoint, n_trunc: int) -> int:
    return ceil((n_trunc + point.k) * log10(point.eta.numerator))


def _check_window(point: SeriesPoint, n_trunc: int) -> None:
    """Raise ValueError unless the window of the report at N is within the bounds.

    The checks, in this order: N is an int >= k-1; the partial sum, about
    (N + k) log10 p digits for eta = p/q, has at most
    ``_MAX_PARTIAL_DIGITS`` digits; the jump to F_{N-k+1} is within
    ``bounds.check_jump``.  Past k-1 each refusal holds for every larger N.
    """
    _validate_index(n_trunc)
    k = point.k
    if n_trunc < k - 1:
        raise ValueError(f"tail bound needs n_trunc >= k-1 = {k - 1}, got {n_trunc}")
    digits = _partial_digits(point, n_trunc)
    if digits > _MAX_PARTIAL_DIGITS:
        raise ValueError(
            f"a partial sum to N = {n_trunc} has about {digits} digits,"
            f" more than {_MAX_PARTIAL_DIGITS}"
        )
    check_jump(k, n_trunc - k + 1)


def _largest_index(point: SeriesPoint) -> int:
    """The largest N >= k-1 that ``_check_window`` accepts, or k-2 if none.

    Its refusals grow with N, and no N of 3 ``_MAX_PARTIAL_DIGITS`` passes
    the digits (p >= 3): one bisection.
    """

    def refused(n):
        try:
            _check_window(point, n)
        except ValueError:
            return True
        return False

    k = point.k
    return k - 2 + bisect_left(range(k - 1, 3 * _MAX_PARTIAL_DIGITS), True, key=refused)


def _checked_run(point: SeriesPoint, n_trunc: int) -> list[Decimal]:
    """The window F_{N-k+1} .. F_{N+1} in ``Decimal``, within ``_check_window``.

    The one source of every report's terms: ``iter_terms(k, N-k+1,
    to_decimal)`` under ``EXACT_CONTEXT``, as ``seq`` jumps.  ``_acc``
    sums the run for the report.
    """
    _check_window(point, n_trunc)
    k = point.k
    with localcontext(EXACT_CONTEXT):
        return list(islice(iter_terms(k, n_trunc - k + 1, to_decimal), k + 1))


def _denominator(point: SeriesPoint) -> int:
    """den = p^k - sum_{i=1}^{k} q^i p^(k-i) for eta = p/q, positive for eta > phi_k.

    Times (q/p)^k it is the closed form's denominator (eta - 2) eta^k + 1,
    which is positive exactly above the dominant root phi_k < 2 of the
    recurrence.  The sum is geometric, q (p^k - q^k) / (p - q), so
    den = ((p - 2q) p^k + q^(k+1)) / (p - q), an exact division.  den is
    prime to p and to q, as den = -q^k (mod p) and den = p^k (mod q).
    """
    k, p, q = point.k, point.eta.numerator, point.eta.denominator
    den, rem = divmod((p - 2 * q) * p**k + q ** (k + 1), p - q)
    assert rem == 0, f"(p - 2q) p^k + q^(k+1) not divisible by p - q for eta = {p}/{q}"
    return den


_Numbers = namedtuple("_Numbers", "partial closed tail_bound residual")


@lru_cache(maxsize=2)
def _numbers(report: EvalReport) -> _Numbers:
    """The report's four numbers, each as (num, den) in lowest terms, in integer ``Decimal``s.

    With eta = p/q, times p^(N+k) the identity in the module docstring
    reads P_N = num / (p^N den), with den from ``_denominator`` and

        num = q^(k-1) p^(N+1) - q^(N+1) acc,  acc = sum_{j=1}^{k} q^(j-1) p^(k-j) T_j,

    T_j = F_{N+j-k} + ... + F_N being the suffix sums of the run (``_acc``).
    The first part is the closed form p q^(k-1) / den, so the omitted part
    is q^(N+1) acc / (p^N den).  As den is prime to p and to q, each
    reduces by a gcd with p^N, which for num is the one of acc (a prime l
    of p divides p^(N+1) q^(k-1) more often than p^N), and a gcd with den,
    of num mod den for P_N: gcds of remainders mod p and mod den.  The tail
    bound is F_{N+1} / eta^(N+1) * eta / (eta - 2) = F_{N+1} q^(N+1) /
    (p^N (p - 2q)); q is prime to p and to p - 2q, so it reduces by gcds of
    F_{N+1} alone: first with p - 2q, then with p^N, which the rest of
    p - 2q is then prime to.  It runs under ``EXACT_CONTEXT``, with
    p^min(e, tail_e) taken once for both denominators; each division is
    exact and positive, so ``//`` agrees with int's.  The last two results
    are kept: reading the four fields of a report runs this once.
    """
    point, n_trunc, acc, f_next = report
    k, (p, q) = point.k, point.eta.as_integer_ratio()
    den, head = _denominator(point), p * q ** (k - 1)  # closed = head / den
    n1, d = n_trunc + 1, to_decimal
    with localcontext(EXACT_CONTEXT):
        d_head, d_den = d(head), d(den)
        reduced, e, c = strip_p_power(acc, p, n_trunc)  # p^N / gcd(acc, p^N) = c p^e
        g_omitted = d(gcd(int(reduced % d_den), den))
        g_partial = d(gcd(pow(p, n_trunc, den) * head - pow(q, n1, den) * int(acc % d_den), den))
        g = gcd(int(f_next % (p - 2 * q)), p - 2 * q)
        tail, tail_e, tail_c = strip_p_power(f_next // g, p, n_trunc)
        low = min(e, tail_e)
        p_low, q_power = d(p) ** low, d(q) ** n1
        scale, omitted = p_low * d(c * p ** (e - low)), q_power * reduced
        scaled_den = scale * d_den
        tail_den = p_low * d(tail_c * p ** (tail_e - low) * ((p - 2 * q) // g))
        return _Numbers(
            ((d_head * scale - omitted) // g_partial, scaled_den // g_partial),
            (d_head, d_den),
            (tail * q_power, tail_den),
            (omitted // g_omitted, scaled_den // g_omitted),
        )


def _acc(point: SeriesPoint, run: list[Decimal]) -> Decimal:
    """acc of ``_numbers`` from the ``Decimal`` run F_{N-k+1} .. F_{N+1}, an integer ``Decimal``.

    The suffix sums and their weighted sum run under ``EXACT_CONTEXT``,
    with p and q converted.
    """
    with localcontext(EXACT_CONTEXT):
        # T_1 = F_{N+1} .. T_k; T_{j+1} = T_j - run[j-1]
        suffixes = list(accumulate(run[:-2], sub, initial=run[-1]))
        return _weighted_sum(suffixes, *map(to_decimal, point.eta.as_integer_ratio()))


def _weighted_sum(values: list, p, q):
    """sum_j p^(len-1-j) q^j values_j, joined by halves, in the type of its arguments.

    For blocks [lo, mid) and [mid, hi), S(lo, hi) = S(lo, mid) p^(hi-mid) +
    q^(mid-lo) S(mid, hi).  Pairing neighbours level by level keeps the
    operands of each product about the same size, where Horner's rule
    multiplies an accumulator of up to k log p bits by p, k times: quadratic
    in k.  Every block has the current size but the last, of ``last`` values.
    """
    blocks, size, last = values, 1, 1
    p_size, q_size = p, q  # p^size, q^size
    while len(blocks) > 1:
        joined = [
            blocks[i] * p_size + q_size * blocks[i + 1] for i in range(0, len(blocks) - 2, 2)
        ]
        if len(blocks) % 2:
            joined.append(blocks[-1])
        else:
            joined.append(blocks[-2] * p**last + q_size * blocks[-1])
            last += size
        blocks, size = joined, 2 * size
        p_size, q_size = p_size * p_size, q_size * q_size
    return blocks[0]


def _tail_within(point: SeriesPoint, n_trunc: int, f_next: Decimal, num, den) -> bool:
    """Whether the tail bound F_{N+1} q^(N+1) / (p^N (p - 2q)) is <= num / den, exactly."""
    p, q = map(to_decimal, point.eta.as_integer_ratio())
    with localcontext(EXACT_CONTEXT):
        return f_next * q ** (n_trunc + 1) * den <= num * (p - 2 * q) * p**n_trunc


def strip_p_power(x: int | Decimal, p: int, n: int) -> tuple:
    """x / g, e and c, for g = gcd(x, p^n) and p^n / g = c p^e.

    g is the product of h_i = gcd(x_i, p) over at most n steps,
    x_{i+1} = x_i / h_i: each step takes min(v_l(x_i), v_l(p)) factors of
    every prime l of p, so n steps take min(v_l(x), n v_l(p)) of them,
    which is v_l(g), and a step with h = 1 would take no more.  c, the
    product of the p / h_i, is as small as the steps are few.  x / g is of
    x's type, int or integer ``Decimal`` (under ``EXACT_CONTEXT``).
    """
    steps, c = 0, 1
    while steps < n:
        h = gcd(int(x % p), p)
        if h == 1:
            break
        x //= h
        c *= p // h
        steps += 1
    return x, n - steps, c


def converge_until(point: SeriesPoint, epsilon: Rational | int) -> EvalReport:
    """First report, doubling N between checks, whose tail bound is <= epsilon.

    Returns the first *checked* truncation index that qualifies, not the
    minimal one.  Terminates for every epsilon > 0 because the bound
    shrinks geometrically.  The checks are N = k-1 (at least 1) and its
    doublings, each one ``_checked_run`` whose F_{N+1} gives the tail bound;
    only for the N that qualifies does its window give acc and the report.
    The first doubling that ``_check_window`` refuses is refused after
    ``_largest_index``, unless that is below the first N: the bound
    decreases in N for eta > 2, so no smaller N would qualify.  ValueError
    for an epsilon that is not an int or a ``Fraction``
    (``rational.require_rational``) or is <= 0, and within the checks of
    ``_check_window``.
    """
    epsilon = require_rational(epsilon, "epsilon")
    if epsilon <= 0:
        raise ValueError(f"epsilon must be > 0, got {fraction_to_str(epsilon)}")
    bound = [to_decimal(x) for x in epsilon.as_integer_ratio()]  # once per search
    n = max(point.k - 1, 1)
    top = _largest_index(point)
    at = min(n - 1, top)  # no N below the first is checked
    while True:
        # the doublings within the bounds, then the largest N within them,
        # then the first doubling past them, which _check_window refuses
        at = min(n, top) if at < top else n
        run = _checked_run(point, at)
        if _tail_within(point, at, run[-1], *bound):
            return EvalReport(point, at, _acc(point, run), run[-1])
        if at == n:
            n *= 2
