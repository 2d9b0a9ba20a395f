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

The eta > 2 restriction is the domain on which the geometric tail argument
works; no claim is made below it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Union

from .rational import Rational, format_ratio
from .sequence import range_terms, term_fast, validate_order

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


@dataclass(frozen=True)
class SeriesPoint:
    """Evaluation point of the series: order k >= 2 and rational eta > 2."""

    k: int
    eta: Rational

    def __post_init__(self):
        validate_order(self.k)
        eta = self.eta
        if not isinstance(eta, Fraction):
            eta = Fraction(eta)
            object.__setattr__(self, "eta", eta)
        if eta <= 2:
            raise ValueError(f"series requires eta > 2, got {eta}")


@dataclass(frozen=True)
class EvalReport:
    """Comparison of a partial sum against the closed form.

    ``residual`` is closed - partial; ``passed`` records whether the
    residual is within the rigorous tail bound for the truncation index.
    """

    point: SeriesPoint
    n_trunc: int
    partial: Rational
    closed: Rational
    tail_bound: Rational
    residual: Rational
    passed: bool

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
    """Exact sum of F_n / eta^n for n = 0 .. n_trunc."""
    if n_trunc < 0:
        raise ValueError(f"truncation index must be >= 0, got {n_trunc}")
    inv = 1 / point.eta
    # Horner from the top keeps every step a single multiply-add.
    acc = Fraction(0)
    for f in reversed(range_terms(point.k, 0, n_trunc)):
        acc = acc * inv + f
    return acc


def tail_bound(point: SeriesPoint, n_trunc: int) -> Rational:
    """Upper bound on the omitted tail sum_{n > n_trunc} F_n / eta^n.

    Valid for n_trunc >= k-1: from there on F_{n+1} <= 2 F_n, so the tail
    is dominated by the geometric series with ratio 2/eta starting at the
    first omitted term, giving

        (F_{N+1} / eta^(N+1)) * 1 / (1 - 2/eta).
    """
    k, eta = point.k, point.eta
    if n_trunc < k - 1:
        raise ValueError(
            f"tail bound needs n_trunc >= k-1 = {k - 1}, got {n_trunc}"
        )
    f_next = term_fast(k, n_trunc + 1)
    return Fraction(f_next) / eta ** (n_trunc + 1) * eta / (eta - 2)


def evaluate(point: SeriesPoint, n_trunc: int) -> EvalReport:
    """Partial sum, closed form, and tail bound bundled into one report."""
    partial = partial_sum(point, n_trunc)
    closed = closed_form(point)
    bound = tail_bound(point, n_trunc)
    residual = closed - partial
    return EvalReport(
        point=point,
        n_trunc=n_trunc,
        partial=partial,
        closed=closed,
        tail_bound=bound,
        residual=residual,
        passed=abs(residual) <= bound,
    )


def evaluate_range(point: SeriesPoint, n_max: int) -> Iterator[EvalReport]:
    """Reports for every truncation index N = k-1 .. n_max, incrementally.

    One sweep of the term list and running powers of 1/eta make this
    O(n_max) rational operations total, against O(n_max^2) for repeated
    calls to ``evaluate``.  Yields exactly what ``evaluate`` would.
    """
    k, eta = point.k, point.eta
    if n_max < k - 1:
        raise ValueError(f"n_max must be >= k-1 = {k - 1}, got {n_max}")
    terms = range_terms(k, 0, n_max + 1)
    closed = closed_form(point)
    geo = eta / (eta - 2)
    inv = 1 / eta
    acc = Fraction(0)
    inv_pow = Fraction(1)  # inv^n for the current n
    for n in range(n_max + 1):
        acc += terms[n] * inv_pow
        inv_pow *= inv
        if n >= k - 1:
            bound = terms[n + 1] * inv_pow * geo
            residual = closed - acc
            yield EvalReport(
                point=point,
                n_trunc=n,
                partial=acc,
                closed=closed,
                tail_bound=bound,
                residual=residual,
                passed=abs(residual) <= bound,
            )


def converge_until(point: SeriesPoint, epsilon: Union[Rational, int]) -> EvalReport:
    """First report, doubling N between checks, whose tail bound is <= epsilon.

    Returns the first *checked* truncation index that qualifies, not the
    minimal one.  Terminates for every epsilon > 0 because the bound
    shrinks geometrically.
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    n = max(point.k - 1, 1)
    while tail_bound(point, n) > epsilon:
        n *= 2
    return evaluate(point, n)
