"""Command-line interface.

Exit codes: 0 for success (and verification PASS), 1 for a verification
FAIL, 2 for usage errors.  Verification subcommands end their standard
output with a PASS or FAIL line so shell scripts can `tail -1`.  With
--json (or bench's machine formats) the selected stream carries only
the document.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import islice

from .bench import METHODS, emit_report, load_config, run_bench
from .classic_sums import IDENTITIES, verify_classic
from .decimal_identity import (
    identity_line,
    reciprocal_digits,
    repunit_denominator,
    verify_decimal_identity,
)
from .rational import EXACT_CONTEXT, format_ratio, int_to_str, parse_rational
from .sequence import iter_terms, validate_range
from .series import SeriesPoint, converge_until, evaluate

__all__ = ["build_parser", "parse_and_dispatch", "main"]

# tail-bound target when gf is given neither -N nor --epsilon
_DEFAULT_EPSILON = Fraction(1, 10**30)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kbonacci",
        description="Exact k-bonacci terms, series evaluation, and identity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    term = sub.add_parser("term", help="print one term F_n")
    term.add_argument("-k", type=int, required=True, help="recurrence order, >= 2")
    term.add_argument("-n", type=int, required=True, help="term index, >= 0")
    term.add_argument(
        "--method",
        choices=sorted(METHODS),
        default="polymod",
        help="computation strategy (default polymod)",
    )

    seq = sub.add_parser("seq", help="print a range of terms, one per line")
    seq.add_argument("-k", type=int, required=True)
    seq.add_argument("--from", dest="start", type=int, required=True, metavar="N0")
    seq.add_argument("--to", dest="stop", type=int, required=True, metavar="N1")

    gf = sub.add_parser("gf", help="evaluate the generating series at eta")
    gf.add_argument("-k", type=int, required=True)
    gf.add_argument(
        "--eta",
        type=parse_rational,
        required=True,
        help="evaluation point as 'p/q' or an integer, must be > 2",
    )
    cutoff = gf.add_mutually_exclusive_group()
    cutoff.add_argument("-N", dest="n_trunc", type=int, help="fixed truncation index")
    cutoff.add_argument(
        "--epsilon",
        type=parse_rational,
        help="grow N until the tail bound is at most this ('p/q')",
    )
    gf.add_argument("--json", action="store_true", help="emit the report as JSON")

    vdec = sub.add_parser("verify-decimal", help="check the 1/D_k digit identity")
    vdec.add_argument("-k", type=int, required=True)
    vdec.add_argument(
        "--max-k",
        dest="max_k",
        type=int,
        default=None,
        help="check every order from -k to this, with a summary verdict",
    )

    vcls = sub.add_parser("verify-classic", help="check a classic Fibonacci sum")
    vcls.add_argument("--identity", choices=IDENTITIES, required=True)
    vcls.add_argument("--digits", type=int, required=True, help="precision, >= 4")

    digits = sub.add_parser("digits", help="decimal digits of 1/D_k")
    digits.add_argument("-k", type=int, required=True)
    digits.add_argument("-m", type=int, required=True, help="how many digits")

    bench = sub.add_parser("bench", help="run a timing grid from a JSON config")
    bench.add_argument("--config", required=True, help="path to a JSON config file")
    bench.add_argument("--format", choices=("csv", "json"), default="csv")

    return parser


def _cmd_term(args) -> int:
    print(int_to_str(METHODS[args.method](args.k, args.n)))
    return 0


def _cmd_seq(args) -> int:
    # sweep in exact Decimal: seq terms are too short for int_to_str to
    # help, but str(Decimal) is linear
    validate_range(args.k, args.start, args.stop)
    with localcontext(EXACT_CONTEXT):
        for value in islice(iter_terms(args.k, Decimal(1)), args.start, args.stop + 1):
            print(value)
    return 0


def _cmd_gf(args) -> int:
    point = SeriesPoint(k=args.k, eta=args.eta)
    if args.n_trunc is not None:
        report = evaluate(point, args.n_trunc)
    else:
        epsilon = args.epsilon if args.epsilon is not None else _DEFAULT_EPSILON
        report = converge_until(point, epsilon)
    if args.json:
        print(json.dumps(report.to_json_dict(), indent=2))
    else:
        print(f"k = {report.point.k}")
        print(f"eta = {format_ratio(report.point.eta)}")
        print(f"N = {report.n_trunc}")
        print(f"partial = {format_ratio(report.partial)}")
        print(f"closed = {format_ratio(report.closed)}")
        print(f"tail_bound = {format_ratio(report.tail_bound)}")
        print(f"residual = {format_ratio(report.residual)}")
        print("PASS" if report.passed else "FAIL")
    return 0 if report.passed else 1


def _cmd_verify_decimal(args) -> int:
    last = args.k if args.max_k is None else args.max_k
    if last < args.k:
        raise ValueError(f"--max-k {last} is below -k {args.k}")
    results = []
    for k in range(args.k, last + 1):
        ok = verify_decimal_identity(k)
        results.append(ok)
        print(identity_line(k, ok))
    all_ok = all(results)
    if args.max_k is not None:
        print("PASS" if all_ok else "FAIL")
    return 0 if all_ok else 1


def _cmd_verify_classic(args) -> int:
    report = verify_classic(args.identity, args.digits)
    doc = report.to_json_dict()
    for key in ("identity", "terms", "digits", "value", "target", "abs_diff"):
        print(f"{key} = {doc[key]}")
    print("PASS" if report.passed else "FAIL")
    return 0 if report.passed else 1


def _cmd_digits(args) -> int:
    print(reciprocal_digits(repunit_denominator(args.k).value, args.m))
    return 0


def _cmd_bench(args) -> int:
    config = load_config(args.config)
    document = emit_report(run_bench(config), args.format)
    sys.stdout.write(document if document.endswith("\n") else document + "\n")
    return 0


_HANDLERS = {
    "term": _cmd_term,
    "seq": _cmd_seq,
    "gf": _cmd_gf,
    "verify-decimal": _cmd_verify_decimal,
    "verify-classic": _cmd_verify_classic,
    "digits": _cmd_digits,
    "bench": _cmd_bench,
}


def parse_and_dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    # int_to_str keeps its str() calls short, but D_k is built from and
    # printed as a k-digit string; lift CPython's int/str digit limit
    # before any handler runs
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        return _HANDLERS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.stderr.write(parser.format_usage())
        return 2
    except BrokenPipeError:
        _hush_closed_pipe()
        return 141
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _hush_closed_pipe() -> None:
    # downstream closed the pipe (head, etc.); swap stdout for /dev/null
    # so the interpreter's exit flush stays quiet
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def main() -> None:
    code = parse_and_dispatch(sys.argv[1:])
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # buffered output can hit the closed pipe only at this flush
        _hush_closed_pipe()
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    main()
