"""Order-k additive recurrences ("k-bonacci" sequences).

A k-bonacci sequence starts with k-1 zeros followed by a single one, and
every later term is the sum of the k terms before it.  k=2 gives the
Fibonacci numbers, k=3 the tribonacci numbers, and so on.

``term_fast`` is the one production term kernel: x^m modulo the
characteristic polynomial x^k - x^(k-1) - ... - x - 1 for m = n // 2, by
left-to-right square-and-multiply.  Each square is one big multiplication
by Kronecker substitution (coefficients packed into the slots of one
number) followed by an O(k) reduction; each multiply by x is k additions.
A last step of ceil((k+t)/2) half-size products, for n = 2m + t, gives
F_n.  O(log n) squares of about k times the term size.  Asked for a
``Decimal`` (``cast=rational.to_decimal``, as the CLI does), it runs the
squares from coefficients of ``_CAST_BITS`` (1000) bits on in
``Decimal``: libmpdec multiplies big operands with a number-theoretic
transform, CPython's int with Karatsuba, and the Decimal result prints
in linear time.  For k >= 20 with n/(k+1) at most 100 k it takes the
generating function's binomial sum instead: about n/(k+1) steps on
numbers of the term's size, which beats squares of k times that size
where k is large.  Its two oracles, ``term_naive`` and ``term_matrix``,
and the registry ``METHODS`` live in ``methods``, which only ``term``,
``bench`` and the tests load; this module hands them out on first access
(PEP 562).

``iter_terms`` is the one forward sweep of the recurrence: a ring of the
k most recent terms, each new term their sum.  Started above 0 it jumps
ahead first, taking its k seed terms from the one residue x^n, so a range
far from 0 costs no sweep from F_0; with a ``Decimal`` cast that jump
switches to ``Decimal`` at the same width as ``term_fast``, in the one
exponentiation both share.  ``window`` and ``range_terms`` are runs of
that sweep, and ``methods.term_naive`` is one item of it from 0.

All functions are pure and by default operate on plain Python integers,
so results are exact at any size.  ``term_fast`` and ``iter_terms``, like
the oracles, also compute in any other exact type that ``cast``
converts ints to; the CLI prints ``term`` and streams ``seq`` in
``decimal.Decimal`` under ``rational.EXACT_CONTEXT``, since ``str()`` of
a Decimal is linear.  ``window`` and ``range_terms`` always return ints.
"""

import math
from collections.abc import Iterator
from decimal import Context, Decimal, Inexact, getcontext
from itertools import cycle, islice

__all__ = [
    "validate_order",
    "validate_range",
    "initial_terms",
    "window",
    "term_fast",
    "range_terms",
    "iter_terms",
]


def __getattr__(name):
    # PEP 562: the oracles and their registry load from methods when read
    if name not in ("term_naive", "term_matrix", "METHODS"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import methods

    return getattr(methods, name)

# With a cast (the CLI's Decimal), _x_pow_mod converts the residue before the
# first square with a coefficient of _CAST_BITS bits, for term_fast and the
# jump-ahead of iter_terms alike, and a residue that never gets that wide at
# the end.  Below that, Decimal's cost per operation in the O(k) additions
# of each step outweighs its faster product.  README's Jump-ahead paragraph
# has the timings of this width against others.
_CAST_BITS = 1_000
# term_fast takes the binomial sum for k >= _BINOMIAL_ORDER while
# n/(k+1) <= _BINOMIAL_STEPS * k.  The sum grows as n^2/(k+1), the kernel
# about as k n, in steps of libmpdec's transform lengths, so no one n/(k+1)
# is the crossover; README's Terms paragraph has the measured ratios and
# why the bound stays.
_BINOMIAL_ORDER = 20
_BINOMIAL_STEPS = 100


def validate_order(k: int) -> int:
    """Return ``k`` unchanged if it is a valid recurrence order (k >= 2)."""
    _require_int(k, "order")
    if k < 2:
        raise ValueError(f"order must be >= 2, got {k}")
    return k


def validate_range(k: int, n0: int, n1: int) -> None:
    """Raise ValueError unless F_{n0} .. F_{n1} of order k is defined."""
    _validate_index(n0)
    _require_int(n1, "index")  # its sign follows from n0 <= n1
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
    from any other start it is the k terms of one jump-ahead, whose
    residue ``_x_pow_mod`` hands back in ``cast``'s type, switching its
    squares at ``_CAST_BITS``-bit coefficients as ``term_fast``'s do.
    ``cast`` converts only the seed from 0, and later terms are sums of
    the seed, so they share its type.  ``Decimal`` sums are exact only
    under a context that traps ``Inexact``, such as
    ``rational.EXACT_CONTEXT``, so with a ``Decimal`` cast the first
    ``next`` raises ValueError under any other (the default context
    rounds at 28 digits).
    """
    validate_order(k)
    _validate_index(start)
    if start == 0:
        ring = _converted(initial_terms(k), cast)
    else:
        ring = _run_from_residue(_x_pow_mod(start, k, cast))
    yield from ring
    total = sum(ring)
    for oldest in cycle(range(k)):
        new = total
        yield new
        total += new - ring[oldest]
        ring[oldest] = new



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
    substitution plus an O(k) reduction.  With n = 2m + t, F_n is the top
    coefficient of x^t r^2 mod the char poly, and ``_top_of_square`` reads
    it off in ceil((k+t)/2) products of half-size operands (F_m L_m at
    k = 2), not a full-size square.  O(log n) squares of about k times the
    term size, which makes huge single indices (n in the millions)
    practical.

    For k >= ``_BINOMIAL_ORDER`` with n/(k+1) <= ``_BINOMIAL_STEPS`` * k it
    takes ``_binomial_term`` instead, about n/(k+1) steps on numbers of the
    term's size, and converts its int result once with ``cast``.  This
    rule never takes the sum for k <= 3.

    The default returns an int and runs in ints throughout.  Any other
    ``cast`` (``rational.to_decimal``) converts the residue once its
    coefficients reach ``_CAST_BITS`` bits, or at the end of a smaller
    exponentiation, so the top squares and the final products run in that
    type, and F_n comes back in it.  For ``Decimal`` that means libmpdec's
    number-theoretic-transform products and a result whose ``str()`` is
    linear; the Decimal arithmetic needs a context that traps ``Inexact``,
    such as ``rational.EXACT_CONTEXT``, and raises ValueError under any
    other (the default context rounds at 28 digits).
    """
    validate_order(k)
    _validate_index(n)
    if _takes_binomial(k, n):
        return cast(_binomial_term(k, n))
    m, t = divmod(n, 2)
    return _top_of_square(_x_pow_mod(m, k, cast), t)


def _require_int(value, name: str) -> None:
    """Refuse anything but an int as the argument ``name``; a bool is not a count."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _validate_index(n: int) -> None:
    _require_int(n, "index")
    if n < 0:
        raise ValueError(f"negative indices are not defined, got {n}")


def _takes_binomial(k: int, n: int) -> bool:
    return k >= _BINOMIAL_ORDER and n // (k + 1) <= _BINOMIAL_STEPS * k


def _binomial_term(k: int, n: int) -> int:
    """F_n from the generating function's binomial sum; n/(k+1) steps.

    Multiplied by 1 - x, the generating function x^(k-1)/(1 - x - ... - x^k)
    becomes x^(k-1)(1 - x)/(1 - 2x + x^(k+1)), and expanding
    1/(1 - 2x + x^(k+1)) = sum_m (2x - x^(k+1))^m gives F_n = c_{N+1} - c_N
    for N = n - k, where c_M = sum_j (-1)^j C(M - kj, j) 2^(M-(k+1)j).
    With a_j = N + 1 - kj, 2 C(a_j, j) - C(a_j - 1, j) = d_j =
    C(a_j, j)(a_j + j)/a_j, so 2F_n = sum_j (-1)^j d_j 2^(N+1-(k+1)j): one
    Horner sum in powers of 2^(k+1).  Each d_{j+1} comes from d_j: the two
    binomials share all but min(j, k) + 1 factors of their numerator and
    denominator products, and those cancel, so a step is one product and
    one exact division by products of min(j, k) + 3 small factors.
    """
    top = n - k + 1  # N + 1
    if top <= 0:
        return int(top == 0)  # F_{k-1} = 1 and zeros before it
    steps = top // (k + 1)
    d = acc = 1
    a = top
    for j in range(steps):
        b = a - k  # a_{j+1}
        num = math.prod(range(b - j, min(b, a - j) + 1)) * (b + j + 1) * a
        den = (j + 1) * math.prod(range(max(b, a - j) + 1, a + 1)) * b * (a + j)
        d = d * num // den
        acc = (acc << (k + 1)) + (d if j % 2 else -d)
        a = b
    return (acc << (top - (k + 1) * steps)) >> 1


def _x_pow_mod(n: int, k: int, cast) -> list:
    """Coefficients (little-endian, length k) of x^n mod the char poly, in ``cast``'s type.

    Left-to-right square-and-multiply: a square per bit of n after the
    leading one, then a multiply by x where the bit is set.  ``cast``
    converts the residue once: before the first square whose operand has
    a coefficient of ``_CAST_BITS`` bits or more, or at the end if none
    has.
    """
    residue = [0, 1] + [0] * (k - 2) if n else [1] + [0] * (k - 1)
    pending = True
    for bit in bin(n)[3:]:
        if pending and max(residue).bit_length() >= _CAST_BITS:
            residue, pending = _converted(residue, cast), False
        residue = _square_mod(residue, k)
        if bit == "1":
            residue = _times_x(residue)
    return _converted(residue, cast) if pending else residue


def _converted(values: list[int], cast) -> list:
    """``values`` through ``cast``; ``Decimal`` ones need an exact context from here on."""
    values = [cast(c) for c in values]
    if type(values[0]) is Decimal:
        _require_exact_context()
    return values


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
    coefficients, so slots of 2D + len(str(k)) digits hold it.  The exact
    context was checked where the residue became ``Decimal`` (``_converted``).
    """
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


def _top_of_square(r: list, t: int):
    """F_{2m+t} = L(x^t r^2) from r = x^m mod the char poly, t in {0, 1}.

    L reads the top coefficient mod the char poly, so L(x^d) = F_d, and
    F_d = 0 for d < k - 1.  Split r = r_low + r' at h = (k - t) // 2:
    r_low^2 x^t has degree at most k - 2, so L(x^t r^2) =
    L(x^t r'^2) + 2 L(x^t r_low r').  With R_s = L(x^s r') from
    ``_run_from_residue`` of r' (and R_k their sum), the first part is
    sum_i r'_i R_{t+i}, and r'_{k-1-s} = R_s - (R_0 + ... + R_{s-1}); so
    it regroups as sum_s R_s (R_{t+k-1-s} - sum_{s<s'<=k-1-h} R_{t+k-1-s'})
    over s = 0 .. k-1-h, and the second part adds 2 r_{s-t} R_s for
    t <= s < t+h.  That is k - h products of half-size operands, summed as
    they come, where sum_i r_i F_{m+t+i} takes k.  At k = 2 it reads
    F_{2m} = F_m L_m.
    """
    k = len(r)
    h = (k - t) // 2
    run = _run_from_residue([0] * h + r[h:])
    if t:
        run.append(sum(run))  # R_k
    value = suffix = 0
    for s in range(k - 1 - h, -1, -1):
        partner = run[t + k - 1 - s]
        factor = partner - suffix
        if t <= s < t + h:
            factor += 2 * r[s - t]
        value += run[s] * factor
        suffix += partner
    return value


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
