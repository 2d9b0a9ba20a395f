"""Exact verification of two classical Fibonacci reciprocal sums.

Targets: the alternating sum of 1/(F_n * F_{n+2}) over n >= 1 equals
2 - sqrt(5), and the sum of 1/F_{2^n} over n >= 0 equals (7 - sqrt(5)) / 2.
Both truncated sums telescope to closed forms in a couple of terms:

    sum_{n=1}^{N} (-1)^n / (F_n F_{n+2}) = 2 - F_{2N+3} / (F_{N+1} F_{N+2})
                                         = -F_N^2 / (F_{N+1} F_{N+2}),
    sum_{n=0}^{M} 1 / F_{2^n}            = 3 - F_{2^M - 1} / F_{2^M}   (M >= 1),

the second from I. J. Good, Fibonacci Quart. 12 (1974) 346.  So each
partial sum is an exact rational p/q of two Fibonacci numbers.

Both truncation searches double one Fibonacci pair (``_doublings``) and
stop on the pair the sum is built from.  The distance to the irrational
target (a - sqrt 5)/c is decided with exact integer arithmetic, from one
square root and one division (``verify_classic``): no tolerance, no
error budget.

All of that runs in exact ``Decimal`` (libmpdec multiplies and divides
big operands in subquadratic time, and ``str(Decimal)`` is linear): the
searches double Decimal pairs, p and q are built from the pair a search
stops on, s comes from Newton's iteration for 1/sqrt 5 on rounded
products and an exact fix-up (``_sqrt5_scaled``), and the three lines
are rendered from the resulting integer Decimals.  So ``verify_classic``
converts no int to Decimal or text, and no Decimal back to int;
``millin_type_sum`` and ``alternating_reciprocal_sum`` take the same
steps on ints.

The alternating sum starts at n = 1.  Writing it from n = 0 would
divide by F_0 = 0; the n = 1 start is what actually produces the
quoted value.
"""

import decimal
from collections import namedtuple
from collections.abc import Iterator
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import islice

from .bounds import _MAX_CLASSIC_DIGITS, _MIN_CLASSIC_DIGITS
from .rational import EXACT_CONTEXT, Rational, fixed_point, str_to_int
from .sequence import _require_int, window

__all__ = [
    "ClassicReport",
    "alternating_reciprocal_sum",
    "millin_type_sum",
    "verify_classic",
]

IDENTITIES = ("alternating", "millin")

# Known defect (ROADMAP item 1): the Millin search stops at 1/F_{2^16}, and
# F_{2^17} has 27,393 digits, so from about 27.4k digits on the true identity
# is reported as FAIL.  The benchmark pins that FAIL, so lifting the cap waits
# on a benchmark change.
_MAX_MILLIN_TERMS = 16

# Digits carried past the d + 6 that abs_diff prints.  verify_classic
# retries with more only when a truncation boundary of the distance lies
# within c + 1 units of 10^-W of it, about once in 10^_GUARD_DIGITS.
_GUARD_DIGITS = 8

# a Fibonacci pair's type: both ints, or both integer Decimals in an exact
# context (a union, not a TypeVar: typing costs the CLI's start-up)
_Int = int | Decimal


def alternating_reciprocal_sum(n_terms: int) -> Rational:
    """Exact sum of (-1)^n / (F_n * F_{n+2}) for n = 1 .. n_terms."""
    _require_int(n_terms, "n_terms")
    if n_terms < 1:
        raise ValueError(f"need at least one term, got {n_terms}")
    return Fraction(*_alternating_parts(*window(2, n_terms + 1, 2)))


def _alternating_parts(a: _Int, b: _Int) -> tuple[_Int, _Int]:
    """Numerator and denominator of the sum to N from a = F_{N+1}, b = F_{N+2}."""
    # 2 - (a^2 + b^2)/(ab) = -(b - a)^2/(ab), and b - a = F_N
    return -((b - a) ** 2), a * b


def millin_type_sum(m_terms: int) -> Rational:
    """Exact sum of 1 / F_{2^n} for n = 0 .. m_terms."""
    _require_int(m_terms, "m_terms")
    if m_terms < 0:
        raise ValueError(f"term count must be >= 0, got {m_terms}")
    if m_terms == 0:
        return Fraction(1)
    return Fraction(*_millin_parts(*next(islice(_doublings(1, 1), m_terms - 1, None))))


def _millin_parts(a: _Int, b: _Int) -> tuple[_Int, _Int]:
    """Numerator and denominator of the sum to M >= 1 from a = F_{2^M - 1}, b = F_{2^M}."""
    return 3 * b - a, b


class ClassicReport(
    namedtuple(
        "ClassicReport",
        "identity terms digits numerator denominator scaled_value scaled_target"
        " scaled_diff passed",
    )
):
    """Outcome of one exact verification, an immutable named tuple.

    The partial sum is ``numerator / denominator``.  ``scaled_value`` and
    ``scaled_target`` are it and the irrational limit times 10^digits,
    truncated toward zero; ``scaled_diff`` is the distance from the partial
    sum to the limit itself times 10^(digits + 6), truncated.  The five
    are integer ``Decimal``s, equal to the ints of the same value.
    ``passed`` says that distance is below 10^(-digits+2), which the
    truncated distance decides exactly: the distance is irrational, so it
    never equals the threshold.  ``value``, ``target`` and ``abs_diff`` are
    the same three numbers as exact fractions, converted on demand; the
    CLI never asks.
    """

    __slots__ = ()

    # through str: int(Decimal) is quadratic on CPython 3.11, str linear
    @property
    def value(self) -> Rational:
        return Fraction(str_to_int(str(self.numerator)), str_to_int(str(self.denominator)))

    @property
    def target(self) -> Rational:
        return Fraction(str_to_int(str(self.scaled_target)), 10**self.digits)

    @property
    def abs_diff(self) -> Rational:
        return Fraction(str_to_int(str(self.scaled_diff)), 10 ** (self.digits + 6))

    def to_json_dict(self) -> dict:
        # each of the three fractions truncated toward zero to its digits;
        # neither partial sum ever truncates to zero, so the sign of
        # scaled_value is the sign of the value
        return {
            "identity": self.identity,
            "terms": self.terms,
            "digits": self.digits,
            "value": fixed_point(self.scaled_value, self.digits),
            "target": fixed_point(self.scaled_target, self.digits),
            "abs_diff": fixed_point(self.scaled_diff, self.digits + 6),
            "pass": self.passed,
        }


def _doublings(a: _Int, b: _Int) -> Iterator[tuple[_Int, _Int]]:
    """F_{n-1}, F_n from a = F_{n-1}, b = F_n, then the same at 2n, 4n, ...

    F_{2n-1} = F_n^2 + F_{n-1}^2 and F_{2n} = F_n (F_n + 2 F_{n-1}): three
    products of the pair's size a step, where a ``window`` jump from F_0
    squares log2 n times.  A step runs only once the caller asks for it.
    """
    while True:
        yield a, b
        a, b = a * a + b * b, b * (b + 2 * a)


def _alternating_terms_needed(threshold_den: Decimal) -> tuple[int, list[Decimal]]:
    """Smallest N of 4, 8, 16, ... whose first omitted term is below 1/threshold_den.

    The alternating series' truncation error is bounded by the next
    term, 1/(F_{N+1} * F_{N+3}).  Returns N with [F_{N+1}, F_{N+2}],
    which the sum needs, as integer Decimals, whatever the context.
    """
    with localcontext(EXACT_CONTEXT):
        # F_{N-1}, F_N at N = 4 * 2^j
        for j, (a, b) in enumerate(_doublings(Decimal(2), Decimal(3))):
            f1, f2 = a + b, a + 2 * b  # F_{N+1}, F_{N+2}
            if f1 * (f1 + f2) > threshold_den:
                return 4 << j, [f1, f2]


def _millin_terms_needed(threshold_den: Decimal) -> tuple[int, list[Decimal]]:
    """Smallest M whose first omitted term 1/F_{2^(M+1)} is below 1/threshold_den.

    Later omitted terms shrink so fast their total stays under twice
    the first one.  Step M holds a = F_{2^M - 1}, b = F_{2^M} and tests
    F_{2^(M+1)} = b (b + 2a).  Returns M with [a, b], which the sum needs,
    as integer Decimals, whatever the context.  Stops at the cap.
    """
    with localcontext(EXACT_CONTEXT):
        for m, (a, b) in enumerate(_doublings(Decimal(1), Decimal(1)), 1):
            if m == _MAX_MILLIN_TERMS or b * (b + 2 * a) > threshold_den:
                return m, [a, b]


def _sqrt5_scaled(w: int) -> Decimal:
    """floor(sqrt(5) 10^w) as an integer ``Decimal``, in exact arithmetic.

    Newton's iteration y <- y + y (1 - 5 y^2) / 2 for 1/sqrt 5 roughly
    doubles the correct digits a step, so each step runs at about twice
    the precision of the last, up to w + 10 digits, on rounded products:
    a few multiplications of the final size, where libmpdec's own sqrt
    divides at every step.  5 y 10^w, rounded to an integer, is then
    within a unit or two of the root, and an exact fix-up on s^2 against
    5 10^(2w) makes s^2 <= 5 10^(2w) < (s + 1)^2 hold.
    """
    top = w + 10
    precisions = []
    while top > 30:
        precisions.append(top)
        top = top // 2 + 2
    rounded = decimal.Context(prec=34, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
    y = rounded.create_decimal("0.4472135954999579392818347337462552")  # 1/sqrt 5
    for prec in reversed(precisions):
        rounded.prec = prec + 4
        error = rounded.subtract(1, rounded.multiply(5, rounded.multiply(y, y)))
        y = rounded.fma(rounded.multiply(y, error), Decimal("0.5"), y)
    s = rounded.to_integral_value(rounded.scaleb(rounded.multiply(5, y), w))
    with localcontext(EXACT_CONTEXT):
        square, five = s * s, Decimal(5).scaleb(2 * w)
        while square > five:
            square, s = square - 2 * s + 1, s - 1
        while square + 2 * s + 1 <= five:
            square, s = square + 2 * s + 1, s + 1
    return s


def verify_classic(identity: str, d: int) -> ClassicReport:
    """Check one identity to precision d; pass when within 10^(-d+2).

    The sum p/q is taken far enough that its omitted tail is under an
    eighth of that threshold (up to the Millin cap).  With W = d + 6 + g
    (g = ``_GUARD_DIGITS`` at first), s = floor(sqrt(5) 10^W) and
    v = |p| 10^W // q, sqrt(5) 10^W lies strictly inside (s, s + 1) and
    |p/q| 10^W in [v, v + 1), so:

    * the value truncated to d digits is v // 10^(W-d), with the sign of p;
    * the target (a - sqrt 5)/c times 10^W lies inside an open interval
      between consecutive multiples of 1/c, so its truncation is exact too;
    * (p/q - target) c 10^W lies strictly inside an interval of width
      c + 1, and when no multiple of c 10^g falls in it, the truncated
      distance at d + 6 digits, and so the verdict, follows from either
      end; otherwise s, v and the interval are computed again at
      g = 2g + 1.

    The retries end: the distance is irrational, so it is never a
    truncation boundary, and the interval around it, (c + 1)/(c 10^g)
    units of 10^-(d+6) wide, shrinks to zero width as g grows, so after
    finitely many retries no boundary lies inside it.  The value and the
    target come from the last pass; each is an exact truncation, so any
    g gives the same numbers.  Every one of them is an exact integer
    ``Decimal`` (module docstring).  d must lie in
    ``bounds._MIN_CLASSIC_DIGITS`` .. ``bounds._MAX_CLASSIC_DIGITS``.
    """
    if identity not in IDENTITIES:
        raise ValueError(f"unknown identity {identity!r}; expected one of {IDENTITIES}")
    _require_int(d, "d")
    if d < _MIN_CLASSIC_DIGITS:
        raise ValueError(f"digit count must be >= {_MIN_CLASSIC_DIGITS}, got {d}")
    if d > _MAX_CLASSIC_DIGITS:
        raise ValueError(f"digit count must be <= {_MAX_CLASSIC_DIGITS}, got {d}")
    # the target is (a - sqrt 5) / c
    if identity == "alternating":
        search, parts, a, c = _alternating_terms_needed, _alternating_parts, 2, 1
    else:
        search, parts, a, c = _millin_terms_needed, _millin_parts, 7, 2
    guard = _GUARD_DIGITS
    with localcontext(EXACT_CONTEXT):
        terms, run = search(Decimal(8).scaleb(d - 2))
        p, q = parts(*run)
        while True:
            w = d + 6 + guard
            s = _sqrt5_scaled(w)
            v = abs(p).scaleb(w) // q
            a_scaled = Decimal(a).scaleb(w)
            # c p/q 10^W lies in [x, x + c], so (c p/q - a + sqrt 5) 10^W
            # lies strictly inside (lo, hi)
            x = c * v if p > 0 else -c * (v + 1)
            lo = x + s - a_scaled
            hi = lo + c + 1
            step = c * 10**guard  # from W digits down to d + 6
            diff = max(lo, -hi, Decimal(0)) // step
            if diff == max(-lo, hi) // step:
                break
            guard = 2 * guard + 1
        cut = 10 ** (6 + guard)  # from W digits down to d
        if a_scaled > s:  # a > sqrt 5: the target is positive
            target = (a_scaled - s - 1) // (c * cut)
        else:
            target = -((s - a_scaled) // (c * cut))
        value = v // cut if p > 0 else -(v // cut)
    return ClassicReport(
        identity=identity,
        terms=terms,
        digits=d,
        numerator=p,
        denominator=q,
        scaled_value=value,
        scaled_target=target,
        scaled_diff=diff,
        passed=diff < 10**8,
    )
