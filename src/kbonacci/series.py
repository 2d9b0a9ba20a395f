"""Exact evaluation of the k-bonacci generating series.

For an order-k sequence and a rational base eta > 2 the series
sum_{n>=0} F_n / eta^n converges (term ratios are bounded by 2/eta < 1,
because F_{n+1} <= 2 F_n once n >= k-1) and has the closed form

    eta * (eta - 1) / ((eta - 2) * eta^k + 1).

This module computes that closed form, exact partial sums, and a rigorous
geometric bound on the truncated tail, all in exact rational arithmetic.
``evaluate`` bundles the three into a report whose ``passed`` flag states
that the closed form and the partial sum differ by no more than the tail
bound -- an identity that must hold, and that the test suite checks across
wide (k, eta, N) grids.

The partial sums come from the identity behind the closed form.  With
x = 1/eta the series is G(x) = x^(k-1) / C(x), C(x) = 1 - x - ... - x^k,
and multiplying the truncation P_N(x) by C(x) cancels every coefficient
up to x^N except x^(k-1) (present once N >= k-1):

    P_N(x) C(x) = x^(k-1) - sum_{m=N+1}^{N+k} x^m sum_{i=max(0,m-k)}^{N} F_i.

So P_N needs only the last k terms F_{N-k+1} .. F_N, and the tail bound
F_{N+1}; every entry point reads them from one checked window
(``_checked_run``): the k + 1 first items of ``sequence.iter_terms`` in
``Decimal``, the jump ``seq`` makes, priced by the same cost model.  The
suffix sums and their weighted sum run in ``Decimal`` too, whose products
libmpdec takes by a number-theoretic transform, and only that sum and
F_{N+1} come back as ints, once each, for the gcds and the verdict.  A
report costs O(log N) squares for the jump, O(k) products for the
weighted sum of the run, and a few products of O(N log eta)-bit
integers, against N + 1 rational multiply-adds, each with its own gcd,
for a sweep of the terms.

Every number of a report is a cofactor no bigger than a term's size
times p^e or q^(N+1), or a sum of two such.  Times p^N q^(N+1) each
comes in lowest terms from gcds of those cofactors alone
(``strip_p_power`` and the gcds with den in ``_report``), so no gcd of
two p^N-sized numbers is taken, and the ``Fraction`` is built without a
gcd (``coprime``).  ``_report`` states the four numbers once, as a
recipe of ``cast`` and ``power(b, a)`` = cast(b)^a that returns each as
(num, den) in lowest terms, and runs it with ``int`` for the report.
``EvalReport.to_json_dict`` runs it again with ``rational.to_decimal``
under ``EXACT_CONTEXT`` for the "num/den" text of each field that equals
the value the last report built: libmpdec raises to a power and
multiplies in subquadratic time and ``str(Decimal)`` is linear, where
``str`` of a p^N-sized int is quadratic on CPython 3.11.  So no p^N-sized
int is converted to text.

The eta > 2 restriction is the domain on which the geometric tail argument
works; no claim is made below it.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from collections.abc import Iterator
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import cache
from itertools import accumulate, islice
from math import ceil, gcd, log10
from operator import sub

from .bounds import _MAX_PARTIAL_DIGITS, check_jump, jump_fits
from .rational import EXACT_CONTEXT, Rational, format_ratio, str_to_int, to_decimal
from .sequence import iter_terms, validate_order

__all__ = [
    "SeriesPoint",
    "EvalReport",
    "closed_form",
    "partial_sum",
    "tail_bound",
    "evaluate",
    "evaluate_range",
    "converge_until",
]

# Fraction(num, den) for num and den > 0 already coprime, without the gcd
coprime = getattr(Fraction, "_from_coprime_ints", None) or (
    lambda num, den: Fraction(num, den, _normalize=False)
)

# the last report built, {(point, N): ({field: value}, numbers)}: a request
# builds one report and then prints it
_LAST: dict = {}


class SeriesPoint(namedtuple("SeriesPoint", "k eta")):
    """Evaluation point of the series: order k >= 2 and rational eta > 2.

    An immutable named tuple, built by position or keyword; construction
    checks the order and converts eta to ``Fraction``, and refuses eta <= 2
    with ValueError.
    """

    __slots__ = ()

    def __new__(cls, k: int, eta: Rational | int):
        validate_order(k)
        if not isinstance(eta, Fraction):
            eta = Fraction(eta)
        if eta <= 2:
            raise ValueError(f"series requires eta > 2, got {eta}")
        return super().__new__(cls, k, eta)


class EvalReport(
    namedtuple("EvalReport", "point n_trunc partial closed tail_bound residual passed")
):
    """Comparison of a partial sum against the closed form, an immutable named tuple.

    ``residual`` is closed - partial, the omitted part the partial sum is
    built from; ``passed`` records whether it is within the rigorous tail
    bound for the truncation index.
    """

    __slots__ = ()

    def to_json_dict(self) -> dict:
        # a field equal to the value the last report built prints from that
        # report's recipe in Decimal, any other through format_ratio
        values, numbers = _LAST.get((self.point, self.n_trunc), ({}, None))
        pairs = {}
        if values:
            with localcontext(EXACT_CONTEXT):
                pairs = numbers(to_decimal, _power(to_decimal))
        doc = {"k": self.point.k, "eta": format_ratio(self.point.eta), "N": self.n_trunc}
        for name in ("partial", "closed", "tail_bound", "residual"):
            value = getattr(self, name)
            doc[name] = "%s/%s" % pairs[name] if values.get(name) == value else format_ratio(value)
        doc["pass"] = self.passed
        return doc


def closed_form(point: SeriesPoint) -> Rational:
    """Exact value of the full series: eta(eta-1) / ((eta-2) eta^k + 1).

    For eta = p/q that is p q^(k-1) / den, den from ``_denominator``, in
    lowest terms as den is prime to p and to q.
    """
    p, q = point.eta.numerator, point.eta.denominator
    return coprime(p * q ** (point.k - 1), _denominator(point))


def partial_sum(point: SeriesPoint, n_trunc: int) -> Rational:
    """Exact sum of F_n / eta^n for n = 0 .. n_trunc.

    Zero below N = k-1, where every term is, and ValueError below 0; from
    k-1 on, the partial sum of ``evaluate``'s report.
    """
    if 0 <= n_trunc < point.k - 1:
        return Fraction(0)
    return evaluate(point, n_trunc).partial


def tail_bound(point: SeriesPoint, n_trunc: int) -> Rational:
    """Upper bound on the omitted tail sum_{n > n_trunc} F_n / eta^n.

    Valid for n_trunc >= k-1: from there on F_{n+1} <= 2 F_n, so the tail
    is dominated by the geometric series with ratio 2/eta starting at the
    first omitted term, giving

        (F_{N+1} / eta^(N+1)) * 1 / (1 - 2/eta).

    F_{N+1} comes from ``_checked_run``, within its checks: eta^(N+1) has
    about as many digits as the partial sum.
    """
    return _tail_from_term(point, n_trunc, _checked_run(point, n_trunc)[1], _power(int))


def evaluate(point: SeriesPoint, n_trunc: int) -> EvalReport:
    """Partial sum, closed form, and tail bound bundled into one report.

    ValueError for N < 0 and within the checks of ``_checked_run``, whose
    window gives the omitted part from its first k terms and the tail
    bound from its last one.
    """
    if n_trunc < 0:
        raise ValueError(f"truncation index must be >= 0, got {n_trunc}")
    return _report(point, n_trunc, *_checked_run(point, n_trunc))


def evaluate_range(point: SeriesPoint, n_max: int) -> Iterator[EvalReport]:
    """``evaluate(point, N)`` for every truncation index N = k-1 .. n_max.

    Each report comes from its own ``evaluate`` call, one jump and one
    closed-form sum, so the range has no summation path of its own.
    """
    k = point.k
    if n_max < k - 1:
        raise ValueError(f"n_max must be >= k-1 = {k - 1}, got {n_max}")
    for n in range(k - 1, n_max + 1):
        yield evaluate(point, n)


def _partial_digits(point: SeriesPoint, n_trunc: int) -> int:
    return ceil((n_trunc + point.k) * log10(point.eta.numerator))


def _largest_index(point: SeriesPoint) -> int:
    """The largest N >= k-1 that ``_checked_run`` accepts, or k-2 if none.

    Both of its checks, the digits and the jump's cost, grow with N, and no
    N of 3 ``_MAX_PARTIAL_DIGITS`` passes the first (p >= 3): one bisection.
    """
    k = point.k

    def refused(n):
        return _partial_digits(point, n) > _MAX_PARTIAL_DIGITS or not jump_fits(k, n - k + 1)

    return k - 2 + bisect_left(range(k - 1, 3 * _MAX_PARTIAL_DIGITS), True, key=refused)


def _checked_run(point: SeriesPoint, n_trunc: int) -> tuple[list[Decimal], int]:
    """The window F_{N-k+1} .. F_{N+1} in ``Decimal``, and F_{N+1} as an int.

    The one source of every report's terms: ``iter_terms(k, N-k+1,
    to_decimal)`` under ``EXACT_CONTEXT``, as ``seq`` jumps.  Refused with
    ValueError, in this order, unless N >= k-1, the partial sum, about
    (N + k) log10 p digits for eta = p/q, has at most
    ``_MAX_PARTIAL_DIGITS`` digits, and the jump to F_{N-k+1} is within
    ``bounds.check_jump``.  F_{N+1} is converted once, for the tail bound
    and the verdict; the run's sum for the report is ``_acc``'s.
    """
    k = point.k
    if n_trunc < k - 1:
        raise ValueError(f"tail bound needs n_trunc >= k-1 = {k - 1}, got {n_trunc}")
    digits = _partial_digits(point, n_trunc)
    if digits > _MAX_PARTIAL_DIGITS:
        raise ValueError(
            f"a partial sum to N = {n_trunc} has about {digits} digits,"
            f" more than {_MAX_PARTIAL_DIGITS}"
        )
    start = n_trunc - k + 1
    check_jump(k, start)
    with localcontext(EXACT_CONTEXT):
        run = list(islice(iter_terms(k, start, to_decimal), k + 1))
    return run, str_to_int(str(run[-1]))


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


def _report(point: SeriesPoint, n_trunc: int, run: list[Decimal], f_next: int, power=None):
    """The report at N from ``_checked_run``'s window and F_{N+1}.

    With eta = p/q, times p^(N+k) the identity in the module docstring
    reads P_N = num / (p^N den), with den from ``_denominator`` and

        num = q^(k-1) p^(N+1) - q^(N+1) acc,  acc = sum_{j=1}^{k} q^(j-1) p^(k-j) T_j,

    T_j = F_{N+j-k} + ... + F_N being the suffix sums of the run (``_acc``).
    The first part is the closed form p q^(k-1) / den, so the omitted part
    is q^(N+1) acc / (p^N den).  As den is prime to p and to q, each
    reduces by a gcd with p^N, which for num is the one of acc (a prime l
    of p divides p^(N+1) q^(k-1) more often than p^N), and a gcd with den,
    of num mod den for P_N: gcds of cofactors of a term's size.  The tail
    bound is ``_tail_factors``', and the verdict says the omitted part is
    at most it.  The recipe of the four numbers, ``numbers``, runs with
    ints and ``power`` (a new ``_power(int)`` by default) and is kept in
    ``_LAST`` for ``EvalReport.to_json_dict``.
    """
    k, p, q = point.k, point.eta.numerator, point.eta.denominator
    acc = _acc(point, run)
    den, head = _denominator(point), p * q ** (k - 1)  # closed = head / den
    reduced, e, c = strip_p_power(acc, p, n_trunc)  # p^N / gcd(acc, p^N) = c p^e
    n1 = n_trunc + 1
    g_omitted = gcd(reduced, den)
    g_partial = gcd(pow(p, n_trunc, den) * head - pow(q, n1, den) * acc, den)
    tail, tail_e, tail_c = _tail_factors(point, n_trunc, f_next)

    def numbers(cast, power):
        q_power = power(q, n1)
        scale, omitted = power(p, e) * cast(c), q_power * cast(reduced)
        scaled_den, g, h = scale * cast(den), cast(g_partial), cast(g_omitted)
        return {
            "partial": ((cast(head) * scale - omitted) // g, scaled_den // g),
            "closed": (cast(head), cast(den)),
            "tail_bound": (cast(tail) * q_power, power(p, tail_e) * cast(tail_c)),
            "residual": (omitted // h, scaled_den // h),
        }

    values = {name: coprime(*pair) for name, pair in numbers(int, power or _power(int)).items()}
    _LAST.clear()
    _LAST[point, n_trunc] = (values, numbers)
    # times p^N / q^(N+1) the omitted part is acc / den and the tail bound
    # F_{N+1} / (p - 2q), so the verdict takes no product of their size
    passed = acc * (p - 2 * q) <= f_next * den
    return EvalReport(point=point, n_trunc=n_trunc, passed=passed, **values)


def _power(cast):
    # power(base, exp) = cast(base)^exp, each computed once
    return cache(lambda base, exp: cast(base) ** exp)


def _acc(point: SeriesPoint, run: list[Decimal]) -> int:
    """acc of ``_report`` from the ``Decimal`` run F_{N-k+1} .. F_{N+1}, as an int.

    The suffix sums and their weighted sum run in ``Decimal`` under
    ``EXACT_CONTEXT``, with p and q converted, and only the sum is
    converted back.
    """
    with localcontext(EXACT_CONTEXT):
        # T_1 = F_{N+1} .. T_k; T_{j+1} = T_j - run[j-1]
        suffixes = list(accumulate(run[:-2], sub, initial=run[-1]))
        acc = _weighted_sum(suffixes, *map(to_decimal, point.eta.as_integer_ratio()))
    return str_to_int(str(acc))


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


def _tail_factors(point: SeriesPoint, n_trunc: int, f_next: int) -> tuple[int, int, int]:
    """t, e and c with tail bound = t q^(N+1) / (c p^e) in lowest terms, from F_{N+1}.

    The bound is F_{N+1} / eta^(N+1) * eta / (eta - 2) = F_{N+1} q^(N+1) /
    (p^N (p - 2q)).  q is prime to p and to p - 2q, so it reduces by gcds
    of F_{N+1} alone: first with p - 2q, then with p^N (``strip_p_power``),
    which the rest of p - 2q is then prime to.
    """
    p, q = point.eta.numerator, point.eta.denominator
    g = gcd(f_next, p - 2 * q)
    reduced, e, c = strip_p_power(f_next // g, p, n_trunc)
    return reduced, e, c * ((p - 2 * q) // g)


def _tail_from_term(point: SeriesPoint, n_trunc: int, f_next: int, power) -> Rational:
    """The tail bound of F_{N+1} (``_tail_factors``) as a ``Fraction``, from int ``power``."""
    p, q = point.eta.numerator, point.eta.denominator
    reduced, e, c = _tail_factors(point, n_trunc, f_next)
    return coprime(reduced * power(q, n_trunc + 1), power(p, e) * c)


def strip_p_power(x: int, p: int, n: int) -> tuple[int, int, int]:
    """x / g, e and c, for g = gcd(x, p^n) and p^n / g = c p^e.

    g is the product of h_i = gcd(x_i, p) over at most n steps,
    x_{i+1} = x_i / h_i: each step takes min(v_l(x_i), v_l(p)) factors of
    every prime l of p, so n steps take min(v_l(x), n v_l(p)) of them,
    which is v_l(g), and a step with h = 1 would take no more.  c, the
    product of the p / h_i, is as small as the steps are few.
    """
    steps, c = 0, 1
    while steps < n:
        h = gcd(x, p)
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
    The first doubling that ``_checked_run`` refuses is refused after
    ``_largest_index``, unless that is below the first N: the bound
    decreases in N for eta > 2, so no smaller N would qualify.  ValueError
    for epsilon <= 0 and within the checks of ``_checked_run``.
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    n = max(point.k - 1, 1)
    top = _largest_index(point)
    at = min(n - 1, top)  # no N below the first is checked
    while True:
        # the doublings within the bounds, then the largest N within them,
        # then the first doubling past them, which _checked_run refuses
        at = min(n, top) if at < top else n
        run, f_next = _checked_run(point, at)
        power = _power(int)  # the report shares the check's q^(N+1) and p^e
        if _tail_from_term(point, at, f_next, power) <= epsilon:
            return _report(point, at, run, f_next, power)
        if at == n:
            n *= 2
