"""Exact verification of two classical Fibonacci reciprocal sums.

Targets: the alternating sum of 1/(F_n * F_{n+2}) over n >= 1 equals
2 - sqrt(5), and the sum of 1/F_{2^n} over n >= 0 equals (7 - sqrt(5)) / 2.
Both truncated sums telescope to closed forms in a couple of terms:

    sum_{n=1}^{N} (-1)^n / (F_n F_{n+2}) = 2 - F_{2N+3} / (F_{N+1} F_{N+2}),
    sum_{n=0}^{M} 1 / F_{2^n}            = 3 - F_{2^M - 1} / F_{2^M}   (M >= 1),

the second from I. J. Good, Fibonacci Quart. 12 (1974) 346.  So each
partial sum is an exact rational, and its distance to the irrational
target is compared with integer square roots: no tolerance, no error
budget.

The alternating sum starts at n = 1.  Writing it from n = 0 would
divide by F_0 = 0; the n = 1 start is what actually produces the
quoted value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .rational import Rational, to_decimal_string
from .sequence import term_fast, window

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

# Largest accepted digit count.  The run grows about quadratically in d
# (1.7 s at 100k digits and 6.2 s at 200k on CPython 3.11, 2 cores), so a
# request far above this would run for hours; it is refused before any
# arithmetic instead.
_MAX_DIGITS = 200_000


def alternating_reciprocal_sum(n_terms: int) -> Rational:
    """Exact sum of (-1)^n / (F_n * F_{n+2}) for n = 1 .. n_terms."""
    if n_terms < 1:
        raise ValueError(f"need at least one term, got {n_terms}")
    a, b = window(2, n_terms + 1, 2)
    # F_{2N+3} = F_{N+1}^2 + F_{N+2}^2
    return 2 - Fraction(a * a + b * b, a * b)


def millin_type_sum(m_terms: int) -> Rational:
    """Exact sum of 1 / F_{2^n} for n = 0 .. m_terms."""
    if m_terms < 0:
        raise ValueError(f"term count must be >= 0, got {m_terms}")
    if m_terms == 0:
        return Fraction(1)
    a, b = window(2, 2**m_terms - 1, 2)
    return 3 - Fraction(a, b)


def _scaled_difference(x: Rational, a: int, c: int, w: int) -> int:
    """(x - (a - sqrt 5)/c) * 10^w truncated toward zero, exactly.

    With x = p/q the scaled difference is (A + sqrt B)/(qc), where
    A = (pc - aq) 10^w and B = 5 (q 10^w)^2.  B is five times a nonzero
    square, so sqrt B lies strictly between s = isqrt(B) and s + 1: the
    difference is positive with floor (A + s) // (qc) when A + s >= 0, and
    negative with |difference| flooring to (-A - s - 1) // (qc) otherwise.
    """
    p, q = x.numerator, x.denominator
    scale = 10**w
    bound = (p * c - a * q) * scale + isqrt(5 * (q * scale) ** 2)
    if bound >= 0:
        return bound // (q * c)
    return -((-bound - 1) // (q * c))


@dataclass(frozen=True)
class ClassicReport:
    """Outcome of one exact verification.

    ``value`` is the exact partial sum; ``target`` is the irrational
    limit truncated toward zero to ``digits`` digits; ``abs_diff`` is the
    distance from ``value`` to the limit itself, truncated to
    ``digits + 6`` digits.  ``passed`` says that distance is below
    10^(-digits+2), which the truncated distance decides exactly: the
    distance is irrational, so it never equals the threshold.
    """

    identity: str
    terms: int
    digits: int
    value: Rational
    target: Rational
    abs_diff: Rational
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "identity": self.identity,
            "terms": self.terms,
            "digits": self.digits,
            "value": to_decimal_string(self.value, self.digits),
            "target": to_decimal_string(self.target, self.digits),
            "abs_diff": to_decimal_string(self.abs_diff, self.digits + 6),
            "pass": self.passed,
        }


def _alternating_terms_needed(threshold_den: int) -> int:
    """Smallest checked N whose first omitted term is below 1/threshold_den.

    The alternating series' truncation error is bounded by the next
    term, 1/(F_{N+1} * F_{N+3}).
    """
    n = 4
    while True:
        fib = window(2, n + 1, 3)
        if fib[0] * fib[2] > threshold_den:
            return n
        n *= 2


def _millin_terms_needed(threshold_den: int) -> int:
    """Smallest M whose first omitted term 1/F_{2^(M+1)} is below 1/threshold_den.

    Later omitted terms shrink so fast their total stays under twice
    the first one.
    """
    m = 1
    while m < _MAX_MILLIN_TERMS and term_fast(2, 2 ** (m + 1)) <= threshold_den:
        m += 1
    return m


def verify_classic(identity: str, d: int) -> ClassicReport:
    """Check one identity to precision d; pass when within 10^(-d+2).

    The sum is taken far enough that its omitted tail is under an eighth
    of that threshold (up to the Millin cap), then its exact distance to
    the target is truncated at d+6 digits; the verdict is exact.  d must
    lie in 4 .. 200000 (``_MAX_DIGITS``).
    """
    if identity not in IDENTITIES:
        raise ValueError(f"unknown identity {identity!r}; expected one of {IDENTITIES}")
    if d < 4:
        raise ValueError(f"digit count must be >= 4, got {d}")
    if d > _MAX_DIGITS:
        raise ValueError(f"digit count must be <= {_MAX_DIGITS}, got {d}")
    tail_den = 8 * 10 ** (d - 2)
    # the target is (a - sqrt 5) / c
    if identity == "alternating":
        terms = _alternating_terms_needed(tail_den)
        value = alternating_reciprocal_sum(terms)
        a, c = 2, 1
    else:
        terms = _millin_terms_needed(tail_den)
        value = millin_type_sum(terms)
        a, c = 7, 2
    work = d + 6
    diff = abs(_scaled_difference(value, a, c, work))
    return ClassicReport(
        identity=identity,
        terms=terms,
        digits=d,
        value=value,
        target=Fraction(-_scaled_difference(Fraction(0), a, c, d), 10**d),
        abs_diff=Fraction(diff, 10**work),
        passed=diff < 10**8,
    )
