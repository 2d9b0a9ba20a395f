"""Output oracles of the benchmark's own, independent of the library.

``check(request, path, exit_code)`` reads a request's captured standard
output from ``path`` line by line and returns None when it is right and
the exit code is 0, or else a one-line reason. Terms are checked modulo a large prime with
code of the benchmark's own, ``seq`` output against the recurrence exactly,
``gf`` against a recomputed closed form, ``digits`` against a long division
and the classic sums against an integer square root.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

from workloads import Request

P = (1 << 61) - 1

FALSE_FAIL = "false FAIL verdict"

_RATIO = re.compile(r"^(-?\d+)/(\d+)$")
_DECIMAL = re.compile(r"^(-?)(\d+)\.(\d+)$")


def kbonacci_mod(k: int, n: int, p: int = P) -> int:
    """F_n mod p, from x^n mod (x^(k+1) - 2x^k + 1).

    For m >= k+1 the sequence also satisfies F_m = 2F_(m-1) - F_(m-k-1),
    an order-(k+1) recurrence whose initial terms F_0..F_k are k-1 zeros
    and two ones; so F_n = c_(k-1) + c_k for the residue's coefficients.
    """

    def mulmod(a, b):
        prod = [0] * (2 * k + 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] += ai * bj
        for d in range(2 * k, k, -1):
            c = prod[d] % p
            prod[d - 1] += 2 * c
            prod[d - k - 1] -= c
        return [c % p for c in prod[: k + 1]]

    result = [1] + [0] * k
    base = [0, 1] + [0] * (k - 1)
    for bit in bin(n)[2:]:
        result = mulmod(result, result)
        if bit == "1":
            result = mulmod(result, base)
    return (result[k - 1] + result[k]) % p


def _canonical(text: str) -> bool:
    """True for a non-negative decimal integer without sign or leading zeros."""
    return text.isascii() and text.isdigit() and (len(text) == 1 or text[0] != "0")


def decimal_mod(text: str, p: int = P):
    """Value of a canonical non-negative decimal string mod p, or None."""
    if not _canonical(text):
        return None
    value = 0
    for i in range(0, len(text), 18):
        chunk = text[i : i + 18]
        value = (value * 10 ** len(chunk) + int(chunk)) % p
    return value


def reciprocal_digits(den: int, m: int) -> str:
    """The m digits of 10**m // den, zero-padded, by long division in 10^18 steps."""
    out, rem = [], 1
    while m > 0:
        step = min(18, m)
        quot, rem = divmod(rem * 10**step, den)
        out.append(f"{quot:0{step}d}")
        m -= step
    return "".join(out)


def _lines(path):
    with open(path, encoding="utf-8", newline="") as f:
        for line in f:
            if not line.endswith("\n"):
                raise ValueError("last line not terminated")
            yield line[:-1]


def _opts(argv):
    """Options of an argv after its command; a flag without a value maps to True."""
    opts, items = {}, list(argv[1:])
    while items:
        key = items.pop(0)
        opts[key] = items.pop(0) if items and not items[0].startswith("-") else True
    return opts


def _parse_ratio(text):
    match = _RATIO.match(text)
    if not match or int(match[2]) == 0:
        raise ValueError(f"not p/q: {text[:40]!r}")
    return int(match[1]), int(match[2])


def _check_term(opts, lines):
    k, n = int(opts["-k"]), int(opts["-n"])
    if len(lines) != 1:
        return f"{len(lines)} lines, want 1"
    if decimal_mod(lines[0]) != kbonacci_mod(k, n):
        return "F_n mod p mismatch"
    return None


def _check_seq(opts, lines):
    k, n0, n1 = int(opts["-k"]), int(opts["--from"]), int(opts["--to"])
    window, total, count = [], 0, 0
    for i, text in enumerate(lines):
        if n0 + i > n1:
            return "too many lines"
        if i < k:
            if decimal_mod(text) != kbonacci_mod(k, n0 + i):
                return f"F_{n0 + i} mod p mismatch"
        elif not _canonical(text):
            return f"line {i} is not a decimal integer"
        value = int(text)
        if i >= k and value != total:
            return f"line {i} breaks the recurrence"
        window.append(value)
        total += value
        if len(window) > k:
            total -= window.pop(0)
        count += 1
    if count != n1 - n0 + 1:
        return f"{count} lines, want {n1 - n0 + 1}"
    return None


def _check_gf(opts, lines):
    k = int(opts["-k"])
    eta = Fraction(opts["--eta"])
    if "--json" in opts:
        doc = json.loads("\n".join(lines))
        fields = {key: str(doc[key]) for key in ("k", "eta", "N", "closed", "tail_bound", "residual")}
        verdict = "PASS" if doc["pass"] is True else "FAIL"
    else:
        fields = dict(line.split(" = ", 1) for line in lines[:-1])
        verdict = lines[-1]
    closed = eta * (eta - 1) / ((eta - 2) * eta**k + 1)
    if fields["k"] != str(k) or fields["eta"] != f"{eta.numerator}/{eta.denominator}":
        return "k or eta not echoed"
    if fields["closed"] != f"{closed.numerator}/{closed.denominator}":
        return "closed form mismatch"
    r_num, r_den = _parse_ratio(fields["residual"])
    t_num, t_den = _parse_ratio(fields["tail_bound"])
    if abs(r_num) * t_den > t_num * r_den:
        return "|residual| > tail_bound"
    if "-N" in opts and fields["N"] != opts["-N"]:
        return "N not echoed"
    if "--epsilon" in opts:
        e_num, e_den = _parse_ratio(opts["--epsilon"])
        if t_num * e_den > e_num * t_den:
            return "tail_bound > epsilon"
    if verdict != "PASS":
        return FALSE_FAIL
    return None


def _check_verify_decimal(opts, lines):
    first, last = int(opts["-k"]), int(opts["--max-k"])
    want = [
        f"1/{(8 * 10**k + 1) // 9} == sum F_n^(k)/10^(n+1): PASS"
        for k in range(first, last + 1)
    ] + ["PASS"]
    if lines != want:
        return "verify-decimal lines differ"
    return None


def _check_digits(opts, lines):
    k, m = int(opts["-k"]), int(opts["-m"])
    if lines != [reciprocal_digits((8 * 10**k + 1) // 9, m)]:
        return "digits differ from 10**m // D_k"
    return None


def _mantissa(text, d):
    """Signed integer text * 10**d of a decimal with exactly d fraction digits."""
    match = _DECIMAL.match(text)
    if not match or len(match[3]) != d:
        raise ValueError(f"not a {d}-digit decimal")
    return int(match[1] + match[2] + match[3])


def _check_verify_classic(opts, lines):
    identity, d = opts["--identity"], int(opts["--digits"])
    fields = dict(line.split(" = ", 1) for line in lines[:-1])
    if fields.get("identity") != identity or fields.get("digits") != str(d):
        return "identity or digits not echoed"
    target = _mantissa(fields["target"], d)
    value = _mantissa(fields["value"], d)
    root = math.isqrt(5 * 10 ** (2 * d))  # sqrt(5) * 10^d lies in [root, root + 1)
    if identity == "alternating":  # 2 - sqrt(5)
        off = abs(2 * target - 2 * (2 * 10**d - root))
    else:  # (7 - sqrt(5)) / 2
        off = abs(2 * target - (7 * 10**d - root))
    if off > 4:
        return "target is not the constant"
    if lines[-1] != "PASS":
        return FALSE_FAIL
    if abs(value - target) > 200:  # PASS claims agreement to 10^-(d-2)
        return "PASS but value far from target"
    return None


_CHECKS = {
    "term": _check_term,
    "seq": _check_seq,
    "gf": _check_gf,
    "verify-decimal": _check_verify_decimal,
    "verify-classic": _check_verify_classic,
    "digits": _check_digits,
}


def check(request: Request, path, exit_code: int):
    """None if the captured output of ``request`` is right, else the reason."""
    command, opts = request.argv[0], _opts(request.argv)
    try:
        # seq output runs to tens of MB: its checker streams the lines
        lines = _lines(path) if command == "seq" else list(_lines(path))
        reason = _CHECKS[command](opts, lines)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unparsable output ({type(exc).__name__}: {exc})"
    if reason is None and exit_code != 0:
        return f"exit {exit_code}"
    return reason
