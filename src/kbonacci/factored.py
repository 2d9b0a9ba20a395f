"""Exact fractions kept with their factors: built in ints, printed in Decimal.

The numbers of a ``series`` report are sums of a cofactor about the size
of a term times a power of p or q, for eta = p/q, over a few more such
products.  A recipe states them once, as a function of ``cast`` and
``power(b, a)`` = cast(b)^a that returns each number as (num, den) in
lowest terms.  ``build`` runs it with ``cast=int`` for the report's
``Fraction``s, which need no gcd (``coprime``), and ``text`` with
``rational.to_decimal`` under ``EXACT_CONTEXT`` for their "num/den" text:
libmpdec raises to a power and multiplies in subquadratic time and
``str(Decimal)`` is linear, where ``str`` of a p^N-sized int is quadratic
on CPython 3.11.  ``strip_p_power`` gives gcd(x, p^n) from gcds with p.

``build`` keeps the recipes of one key, a report's (point, N), and a new
key replaces them: a request builds one report and then prints it.
``text`` prints a number only if it equals the value ``build`` gave.
"""

from __future__ import annotations

from decimal import localcontext
from fractions import Fraction
from math import gcd

from .rational import EXACT_CONTEXT, to_decimal

# Fraction(num, den) for num and den > 0 already coprime, without the gcd
coprime = getattr(Fraction, "_from_coprime_ints", None) or (
    lambda num, den: Fraction(num, den, _normalize=False)
)

# key -> ({name: (value, recipe, texts)}, powers) for the last key built
_LAST: dict = {}


def build(key, recipe) -> dict:
    """{name: Fraction} from recipe(int, power), kept under key for ``text``."""
    if key not in _LAST:
        _LAST.clear()
        _LAST[key] = ({}, {})
    numbers, powers = _LAST[key]
    values = {name: coprime(*pair) for name, pair in recipe(int, _power(int, powers)).items()}
    texts = {}  # filled by text() for every number of the recipe at once
    for name, value in values.items():
        numbers[name] = (value, recipe, texts)
    return values


def text(key, name: str, value) -> str | None:
    """"num/den" of the number built under key and name, or None unless it equals value."""
    numbers, powers = _LAST.get(key, ({}, {}))
    built = numbers.get(name)
    if built is None or built[0] != value:
        return None
    _, recipe, texts = built
    if not texts:
        with localcontext(EXACT_CONTEXT):
            for other, (num, den) in recipe(to_decimal, _power(to_decimal, powers)).items():
                texts[other] = f"{num}/{den}"
    return texts[name]


def _power(cast, powers: dict):
    # cast(base)^exp, computed once per key and type
    def power(base: int, exp: int):
        if (cast, base, exp) not in powers:
            powers[cast, base, exp] = cast(base) ** exp
        return powers[cast, base, exp]

    return power


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
