"""Numerical verification of two classical Fibonacci reciprocal sums.

Targets: the alternating sum of 1/(F_n * F_{n+2}) equals 2 - sqrt(5),
and the sum of 1/F_{2^n} over n >= 0 equals (7 - sqrt(5)) / 2.  Both
targets are irrational, so unlike the rest of this package the checks
here are tolerance-based: fixed-point decimal arithmetic with an
explicit worst-case error budget, one ulp per inexact operation.

The alternating sum starts at n = 1.  Writing it from n = 0 would
divide by F_0 = 0; the n = 1 start is what actually produces the
quoted value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .rational import Rational, to_decimal_string
from .sequence import range_terms, term_fast

__all__ = [
    "FixedReal",
    "ClassicReport",
    "sqrt5",
    "alternating_reciprocal_sum",
    "millin_type_sum",
    "verify_classic",
]

IDENTITIES = ("alternating", "millin")

# Growth caps for the term-selection loops in verify_classic; generous
# for any digit count this package is asked for.
_MAX_ALTERNATING_TERMS = 1 << 20
_MAX_MILLIN_TERMS = 16


@dataclass(frozen=True)
class FixedReal:
    """value = mantissa / 10^scale, with a worst-case error budget.

    err_ulps bounds the absolute distance to the intended real value in
    units of 10^(-scale).  Exact operations (add, negate) only carry
    existing budgets forward; truncating ones add one ulp.
    """

    mantissa: int
    scale: int
    err_ulps: int = 0

    def __post_init__(self):
        if self.scale < 1:
            raise ValueError(f"scale must be >= 1, got {self.scale}")
        if self.err_ulps < 0:
            raise ValueError(f"negative error budget {self.err_ulps}")

    @classmethod
    def from_int(cls, value: int, scale: int) -> "FixedReal":
        return cls(value * 10**scale, scale, 0)

    @classmethod
    def reciprocal_of_int(cls, den: int, scale: int) -> "FixedReal":
        """1/den truncated to scale digits; exact when den divides 10^scale."""
        if den < 1:
            raise ValueError(f"denominator must be >= 1, got {den}")
        mant, rem = divmod(10**scale, den)
        return cls(mant, scale, 0 if rem == 0 else 1)

    def _require_same_scale(self, other: "FixedReal"):
        if self.scale != other.scale:
            raise ValueError(
                f"scale mismatch: {self.scale} vs {other.scale}"
            )

    def __add__(self, other: "FixedReal") -> "FixedReal":
        self._require_same_scale(other)
        return FixedReal(
            self.mantissa + other.mantissa,
            self.scale,
            self.err_ulps + other.err_ulps,
        )

    def __neg__(self) -> "FixedReal":
        return FixedReal(-self.mantissa, self.scale, self.err_ulps)

    def __sub__(self, other: "FixedReal") -> "FixedReal":
        return self + (-other)

    def div_int(self, den: int) -> "FixedReal":
        """Divide by a positive integer, truncating toward zero."""
        if den < 1:
            raise ValueError(f"denominator must be >= 1, got {den}")
        sign = -1 if self.mantissa < 0 else 1
        mant, rem = divmod(abs(self.mantissa), den)
        # old error shrinks by den but never rounds away; truncation
        # itself costs at most one more ulp
        err = -(-self.err_ulps // den) + (0 if rem == 0 else 1)
        return FixedReal(sign * mant, self.scale, err)

    def to_fraction(self) -> Rational:
        return Fraction(self.mantissa, 10**self.scale)

    def error_bound(self) -> Rational:
        return Fraction(self.err_ulps, 10**self.scale)

    def to_decimal_string(self) -> str:
        return to_decimal_string(self.to_fraction(), self.scale)


def sqrt5(d: int) -> FixedReal:
    """sqrt(5) truncated to d digits; off by less than one ulp."""
    if d < 1:
        raise ValueError(f"digit count must be >= 1, got {d}")
    return FixedReal(isqrt(5 * 10 ** (2 * d)), d, 1)


def alternating_reciprocal_sum(n_terms: int, d: int) -> FixedReal:
    """Sum of (-1)^n / (F_n * F_{n+2}) for n = 1 .. n_terms, d digits.

    Each term is 10^d // (F_n F_{n+2}) ulps with one ulp of error when the
    division is inexact, as ``FixedReal.reciprocal_of_int`` would give.
    The products grow with n, so once one exceeds 10^d it and every later
    term truncate to 0 with one ulp each.
    """
    if n_terms < 1:
        raise ValueError(f"need at least one term, got {n_terms}")
    fib = range_terms(2, 0, n_terms + 2)
    one = 10**d
    mantissa = err_ulps = 0
    for n in range(1, n_terms + 1):
        den = fib[n] * fib[n + 2]
        if den > one:
            err_ulps += n_terms - n + 1
            break
        quotient, rem = divmod(one, den)
        err_ulps += rem != 0
        mantissa += -quotient if n % 2 else quotient
    return FixedReal(mantissa, d, err_ulps)


def millin_type_sum(m_terms: int, d: int) -> FixedReal:
    """Sum of 1 / F_{2^n} for n = 0 .. m_terms, d digits."""
    if m_terms < 0:
        raise ValueError(f"term count must be >= 0, got {m_terms}")
    acc = FixedReal(0, d, 0)
    for n in range(m_terms + 1):
        acc = acc + FixedReal.reciprocal_of_int(term_fast(2, 2**n), d)
    return acc


@dataclass(frozen=True)
class ClassicReport:
    """Outcome of one tolerance-based verification."""

    identity: str
    terms: int
    digits: int
    value: FixedReal
    target: FixedReal
    abs_diff: Rational
    error_budget: Rational
    passed: bool

    def to_json_dict(self) -> dict:
        # value and target rendered at the requested precision; the
        # difference at working precision, where it is visible
        return {
            "identity": self.identity,
            "terms": self.terms,
            "digits": self.digits,
            "value": to_decimal_string(self.value.to_fraction(), self.digits),
            "target": to_decimal_string(self.target.to_fraction(), self.digits),
            "abs_diff": to_decimal_string(self.abs_diff, self.value.scale),
            "pass": self.passed,
        }


def _alternating_terms_needed(threshold_den: int) -> int:
    """Smallest checked N whose first omitted term is below 1/threshold_den.

    The alternating series' truncation error is bounded by the next
    term, 1/(F_{N+1} * F_{N+3}).
    """
    n = 4
    while n < _MAX_ALTERNATING_TERMS:
        fib = range_terms(2, n + 1, n + 3)
        if fib[0] * fib[2] > threshold_den:
            return n
        n *= 2
    return n


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

    Works internally at d+6 digits so truncation noise stays far below
    the pass threshold; the threshold is widened by the tracked error
    budget of both sides.
    """
    if identity not in IDENTITIES:
        raise ValueError(f"unknown identity {identity!r}; expected one of {IDENTITIES}")
    if d < 4:
        raise ValueError(f"digit count must be >= 4, got {d}")
    work = d + 6
    threshold = Fraction(1, 10 ** (d - 2))
    # term enough that the omitted tail is under an eighth of the threshold
    tail_den = 8 * 10 ** (d - 2)
    root = sqrt5(work)
    if identity == "alternating":
        terms = _alternating_terms_needed(tail_den)
        value = alternating_reciprocal_sum(terms, work)
        target = FixedReal.from_int(2, work) - root
    else:
        terms = _millin_terms_needed(tail_den)
        value = millin_type_sum(terms, work)
        target = (FixedReal.from_int(7, work) - root).div_int(2)
    abs_diff = abs(value.to_fraction() - target.to_fraction())
    budget = value.error_bound() + target.error_bound()
    return ClassicReport(
        identity=identity,
        terms=terms,
        digits=d,
        value=value,
        target=target,
        abs_diff=abs_diff,
        error_budget=budget,
        passed=abs_diff <= threshold + budget,
    )
