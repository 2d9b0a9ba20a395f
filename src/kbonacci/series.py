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

So P_N needs only the last k terms F_{N-k+1} .. F_N, which one jump-ahead
(``sequence.window``) returns together with F_{N+1} for the tail bound.
A report costs O(log N) big-integer squares for the jump and O(k)
products and a few gcds of O(N log eta)-bit integers, against N + 1
rational multiply-adds, each with its own gcd, for a sweep of the terms.

The eta > 2 restriction is the domain on which the geometric tail argument
works; no claim is made below it.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from fractions import Fraction
from math import ceil, log10

from .bounds import _MAX_PARTIAL_DIGITS, check_jump
from .rational import Rational, format_ratio
from .sequence import term_fast, validate_order, window

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
        return {
            "k": self.point.k,
            "eta": format_ratio(self.point.eta),
            "N": self.n_trunc,
            "partial": format_ratio(self.partial),
            "closed": format_ratio(self.closed),
            "tail_bound": format_ratio(self.tail_bound),
            "residual": format_ratio(self.residual),
            "pass": self.passed,
        }


def closed_form(point: SeriesPoint) -> Rational:
    """Exact value of the full series: eta(eta-1) / ((eta-2) eta^k + 1)."""
    eta = point.eta
    return eta * (eta - 1) / ((eta - 2) * eta ** point.k + 1)


def partial_sum(point: SeriesPoint, n_trunc: int) -> Rational:
    """Exact sum of F_n / eta^n for n = 0 .. n_trunc.

    The closed form minus the omitted part (module docstring), from the
    last k terms F_{N-k+1} .. F_N, taken from one ``window`` call; zero
    below N = k-1, where every term is.
    """
    _check_partial_index(n_trunc)
    if n_trunc < point.k - 1:
        return Fraction(0)
    return closed_form(point) - _omitted(point, n_trunc, _run(point, n_trunc, point.k))


def tail_bound(point: SeriesPoint, n_trunc: int) -> Rational:
    """Upper bound on the omitted tail sum_{n > n_trunc} F_n / eta^n.

    Valid for n_trunc >= k-1: from there on F_{n+1} <= 2 F_n, so the tail
    is dominated by the geometric series with ratio 2/eta starting at the
    first omitted term, giving

        (F_{N+1} / eta^(N+1)) * 1 / (1 - 2/eta).
    """
    _check_tail_index(point, n_trunc)
    check_jump(point.k, n_trunc - point.k + 1)
    return _tail_from_term(point, n_trunc, term_fast(point.k, n_trunc + 1))


def evaluate(point: SeriesPoint, n_trunc: int) -> EvalReport:
    """Partial sum, closed form, and tail bound bundled into one report.

    One ``window`` call returns F_{N-k+1} .. F_{N+1}: the first k terms
    give the omitted part of the closed form, the last one the tail bound.
    N must be at least k-1, the partial sum, about (N + k) log10 p digits
    for eta = p/q, at most ``_MAX_PARTIAL_DIGITS`` digits, and the jump to
    F_{N-k+1} within ``bounds.check_jump``; otherwise ValueError.
    """
    _check_partial_index(n_trunc)
    _check_tail_index(point, n_trunc)
    _check_partial_digits(point, n_trunc)
    run = _run(point, n_trunc, point.k + 1)
    return _report(point, n_trunc, run, _tail_from_term(point, n_trunc, run[-1]))


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


def _check_partial_index(n_trunc: int) -> None:
    if n_trunc < 0:
        raise ValueError(f"truncation index must be >= 0, got {n_trunc}")


def _check_tail_index(point: SeriesPoint, n_trunc: int) -> None:
    k = point.k
    if n_trunc < k - 1:
        raise ValueError(
            f"tail bound needs n_trunc >= k-1 = {k - 1}, got {n_trunc}"
        )


def _partial_digits(point: SeriesPoint, n_trunc: int) -> int:
    return ceil((n_trunc + point.k) * log10(point.eta.numerator))


def _check_partial_digits(point: SeriesPoint, n_trunc: int) -> None:
    if _partial_digits(point, n_trunc) > _MAX_PARTIAL_DIGITS:
        raise _too_many_digits(point, n_trunc)


def _too_many_digits(point: SeriesPoint, n_trunc: int) -> ValueError:
    return ValueError(
        f"a partial sum to N = {n_trunc} has about {_partial_digits(point, n_trunc)} digits,"
        f" more than {_MAX_PARTIAL_DIGITS}"
    )


def _largest_partial_index(point: SeriesPoint) -> int:
    """The largest N whose partial sum is within ``_MAX_PARTIAL_DIGITS`` digits."""
    n = int(_MAX_PARTIAL_DIGITS / log10(point.eta.numerator)) - point.k
    while _partial_digits(point, n) > _MAX_PARTIAL_DIGITS:
        n -= 1
    while _partial_digits(point, n + 1) <= _MAX_PARTIAL_DIGITS:
        n += 1
    return n


def _run(point: SeriesPoint, n_trunc: int, count: int) -> list[int]:
    """F_{N-k+1} and the count - 1 terms after it, from one jump within ``check_jump``."""
    start = n_trunc - point.k + 1
    check_jump(point.k, start)
    return window(point.k, start, count)


def _report(point: SeriesPoint, n_trunc: int, run: list[int], bound: Rational) -> EvalReport:
    """The report at N from run = F_{N-k+1} .. F_{N+1} and its tail bound."""
    residual = _omitted(point, n_trunc, run[:-1])
    closed = closed_form(point)
    return EvalReport(
        point=point,
        n_trunc=n_trunc,
        partial=closed - residual,
        closed=closed,
        tail_bound=bound,
        residual=residual,
        passed=abs(residual) <= bound,
    )


def _omitted(point: SeriesPoint, n_trunc: int, run) -> Rational:
    """Closed form - P_N for N >= k-1 from run = F_{N-k+1} .. F_N, with eta = p/q.

    Times p^(N+k), the identity in the module docstring reads
    P_N = num / (p^N den), where den = p^k - sum_{i=1}^{k} q^i p^(k-i)
    (positive because eta > 2) and

        num = q^(k-1) p^(N+1) - q^(N+1) sum_{j=1}^{k} q^(j-1) p^(k-j) T_j,

    T_j = F_{N+j-k} + ... + F_N being the suffix sums of the run.  The
    first part is the closed form p q^(k-1) / den, so the omitted part is
    (q/p)^N * q * (the sum over j) / den.  Fraction then
    reduces by gcds with den, with the term-sized sum and with the closed
    form's small denominator; reducing num over p^N den would take one gcd
    of two O(N log p)-bit integers, several times slower for a large p.
    """
    k, p, q = point.k, point.eta.numerator, point.eta.denominator
    # Horner in p over j = 1 .. k for both sums; T_{j+1} = T_j - run[j-1]
    suffix = sum(run)
    acc, den, q_pow = 0, 1, 1
    for oldest in run:
        acc = acc * p + q_pow * suffix
        suffix -= oldest
        q_pow *= q
        den = den * p - q_pow
    return Fraction(q, p) ** n_trunc * Fraction(q * acc, den)


def _tail_from_term(point: SeriesPoint, n_trunc: int, f_next: int) -> Rational:
    eta = point.eta
    return Fraction(f_next) / eta ** (n_trunc + 1) * eta / (eta - 2)


def converge_until(point: SeriesPoint, epsilon: Rational | int) -> EvalReport:
    """First report, doubling N between checks, whose tail bound is <= epsilon.

    Returns the first *checked* truncation index that qualifies, not the
    minimal one.  Terminates for every epsilon > 0 because the bound
    shrinks geometrically.  Each check is one ``window`` call for
    F_{N-k+1} .. F_{N+1}, within ``bounds.check_jump``, and the report
    comes from the last one.  When the next doubling would pass
    ``_MAX_PARTIAL_DIGITS`` digits, the largest N within them is checked
    last; the bound decreases in N for eta > 2, so if that N does not
    qualify, none within the digit bound does, and the search raises
    ValueError.
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    n = first = max(point.k - 1, 1)
    while _partial_digits(point, n) <= _MAX_PARTIAL_DIGITS:
        report = _report_within(point, n, epsilon)
        if report is not None:
            return report
        n *= 2
    top = _largest_partial_index(point)
    # unless the first N already passed the bound, n // 2 was checked last
    if n > first and top > n // 2:
        report = _report_within(point, top, epsilon)
        if report is not None:
            return report
    raise _too_many_digits(point, n)


def _report_within(point: SeriesPoint, n_trunc: int, epsilon: Rational) -> EvalReport | None:
    """The report at N if its tail bound is at most epsilon, else None."""
    run = _run(point, n_trunc, point.k + 1)
    bound = _tail_from_term(point, n_trunc, run[-1])
    return _report(point, n_trunc, run, bound) if bound <= epsilon else None
