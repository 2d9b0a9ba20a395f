"""Command-line interface.

Exit codes: 0 for success (and verification PASS), 1 for a verification
FAIL, 2 for usage errors.  Verification subcommands end their standard
output with a PASS or FAIL line so shell scripts can `tail -1`.  With
--json (or bench's machine formats) the selected stream carries only
the document.

Start-up is part of every request's time, so the module level imports only
what building the parser and the term/seq handlers need (``bounds``,
``rational`` and ``sequence``); every other handler imports its library
module (and json) in its own body.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from decimal import localcontext

from .bounds import (
    _MAX_DIGITS,
    _MAX_INDEX,
    _MAX_MATRIX_WORK,
    _MAX_ORDER,
    _ORACLE_MAX_INDEX,
    _check_index_bound,
    _check_order,
    check_jump,
    check_term,
)
from .rational import EXACT_CONTEXT, Rational, parse_rational, to_decimal
from .sequence import METHODS, iter_terms, validate_range

__all__ = ["build_parser", "parse_and_dispatch", "main"]

# tail-bound target when gf is given neither -N nor --epsilon
_DEFAULT_EPSILON = Rational(1, 10**30)

# The order, digit and index bounds, and term's and the jump-ahead's, are
# stated in bounds, where bench reads them too.
# seq prints N1 - N0 + 1 terms of at most N1*log10(2) + 1 digits each, and
# refuses a range whose bound on that total passes this: seq -k 3 --from 0
# --to 20000 prints 5.3e7 digits against a bound of 1.2e8.
_MAX_SEQ_DIGITS = 10**9
# verify-decimal prints D_k for each order in -k .. --max-k, and refuses a
# sweep whose bound on those digits, (orders) * max_k, passes this.  An order
# near 100000 takes about 0.2 s, so the top of the bound is about 2 s, and
# -k 2 --max-k 1000 (1e6) takes 0.2 s.
_MAX_SWEEP_DIGITS = 10**6
# digits divides a remainder of up to k + 1 digits by D_k once per digit,
# about (170 + k) ns a digit, and refuses m * k above this: at the bound
# k = 1000 takes 1.1 s and k = 10000 0.7 s, and m = 10^7 fits at k = 2.
_MAX_DIVISION_WORK = 10**9


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kbonacci",
        description="Exact k-bonacci terms, series evaluation, and identity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    order_help = f"recurrence order, 2 to {_MAX_ORDER}"

    term = sub.add_parser("term", help="print one term F_n")
    term.add_argument("-k", type=int, required=True, help=order_help)
    term.add_argument(
        "-n",
        type=int,
        required=True,
        help=f"term index, 0 to {_MAX_INDEX}; with --method naive to"
        f" {_ORACLE_MAX_INDEX['naive']}, with matrix to {_ORACLE_MAX_INDEX['matrix']}"
        f" and k^3 * n at most {_MAX_MATRIX_WORK}; with polymod at a modelled cost"
        f" at most that of -k 2 -n {_MAX_INDEX}",
    )
    term.add_argument(
        "--method",
        choices=sorted(METHODS),
        default="polymod",
        help="computation strategy (default polymod)",
    )

    seq = sub.add_parser("seq", help="print a range of terms, one per line")
    seq.add_argument("-k", type=int, required=True, help=order_help)
    seq.add_argument("--from", dest="start", type=int, required=True, metavar="N0")
    seq.add_argument(
        "--to",
        dest="stop",
        type=int,
        required=True,
        metavar="N1",
        help=f"last index, at most {_MAX_INDEX}, with (N1 - N0 + 1) * N1 * log10(2)"
        f" at most {_MAX_SEQ_DIGITS} digits, and the jump to N0 at a modelled cost"
        f" at most that of -k 2 --from {_MAX_INDEX}",
    )

    gf = sub.add_parser("gf", help="evaluate the generating series at eta")
    gf.add_argument("-k", type=int, required=True, help=order_help)
    gf.add_argument(
        "--eta",
        type=parse_rational,
        required=True,
        help="evaluation point as 'p/q' or an integer, must be > 2",
    )
    cutoff = gf.add_mutually_exclusive_group()
    # the bound is series._MAX_PARTIAL_DIGITS, spelled out so the parser
    # loads no series
    cutoff.add_argument(
        "-N",
        dest="n_trunc",
        type=int,
        help="fixed truncation index, with (N + k) * log10 p at most 200000 digits"
        " for eta = p/q",
    )
    cutoff.add_argument(
        "--epsilon",
        type=parse_rational,
        help="grow N until the tail bound is at most this ('p/q'), within the same bound",
    )
    gf.add_argument("--json", action="store_true", help="emit the report as JSON")

    vdec = sub.add_parser("verify-decimal", help="check the 1/D_k digit identity")
    vdec.add_argument("-k", type=int, required=True, help=order_help)
    vdec.add_argument(
        "--max-k",
        dest="max_k",
        type=int,
        default=None,
        help="check every order from -k to this, with a summary verdict;"
        f" (orders) * max-k at most {_MAX_SWEEP_DIGITS}",
    )

    vcls = sub.add_parser("verify-classic", help="check a classic Fibonacci sum")
    # classic_sums.IDENTITIES, spelled out so the parser loads no classic_sums
    vcls.add_argument("--identity", choices=("alternating", "millin"), required=True)
    vcls.add_argument("--digits", type=int, required=True, help="precision, 4 to 200000")

    digits = sub.add_parser("digits", help="decimal digits of 1/D_k")
    digits.add_argument("-k", type=int, required=True, help=order_help)
    digits.add_argument(
        "-m",
        type=int,
        required=True,
        help=f"how many digits, 1 to {_MAX_DIGITS}, with m * k at most {_MAX_DIVISION_WORK}",
    )

    bench = sub.add_parser("bench", help="run a timing grid from a JSON config")
    bench.add_argument("--config", required=True, help="path to a JSON config file")
    bench.add_argument("--format", choices=("csv", "json"), default="csv")

    return parser


def _cmd_term(args) -> int:
    # every method returns a Decimal here, whose str() is linear; the kernel
    # runs its top squares in it
    check_term(args.k, args.n, args.method)
    with localcontext(EXACT_CONTEXT):
        print(METHODS[args.method](args.k, args.n, to_decimal))
    return 0


def _cmd_seq(args) -> int:
    from itertools import islice

    # jump to F_start, whose top squares run in Decimal, then sweep in exact
    # Decimal: str(Decimal) is linear
    _check_order(args.k)
    validate_range(args.k, args.start, args.stop)
    _check_index_bound(args.stop)
    bound = (args.stop - args.start + 1) * args.stop * math.log10(2)
    if bound > _MAX_SEQ_DIGITS:
        raise ValueError(
            f"range {args.start}..{args.stop} may print {bound:.3g} digits,"
            f" more than {_MAX_SEQ_DIGITS}"
        )
    check_jump(args.k, args.start)
    with localcontext(EXACT_CONTEXT):
        terms = iter_terms(args.k, args.start, to_decimal)
        for value in islice(terms, args.stop - args.start + 1):
            print(value)
    return 0


def _cmd_gf(args) -> int:
    from .series import SeriesPoint, converge_until, evaluate

    _check_order(args.k)
    point = SeriesPoint(k=args.k, eta=args.eta)
    if args.n_trunc is not None:
        report = evaluate(point, args.n_trunc)
    else:
        epsilon = args.epsilon if args.epsilon is not None else _DEFAULT_EPSILON
        report = converge_until(point, epsilon)
    if args.json:
        import json

        print(json.dumps(report.to_json_dict(), indent=2))
    else:
        doc = report.to_json_dict()
        for key in ("k", "eta", "N", "partial", "closed", "tail_bound", "residual"):
            print(f"{key} = {doc[key]}")
        print("PASS" if report.passed else "FAIL")
    return 0 if report.passed else 1


def _cmd_verify_decimal(args) -> int:
    from .decimal_identity import identity_line, verify_decimal_identity

    last = args.k if args.max_k is None else args.max_k
    if last < args.k:
        raise ValueError(f"--max-k {last} is below -k {args.k}")
    _check_order(last)
    bound = (last - args.k + 1) * last
    if bound > _MAX_SWEEP_DIGITS:
        raise ValueError(
            f"orders {args.k}..{last} may print {bound} digits of D_k,"
            f" more than {_MAX_SWEEP_DIGITS}"
        )
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
    from .classic_sums import verify_classic

    report = verify_classic(args.identity, args.digits)
    doc = report.to_json_dict()
    for key in ("identity", "terms", "digits", "value", "target", "abs_diff"):
        print(f"{key} = {doc[key]}")
    print("PASS" if report.passed else "FAIL")
    return 0 if report.passed else 1


def _cmd_digits(args) -> int:
    from .decimal_identity import reciprocal_digits, repunit_denominator

    if args.m > _MAX_DIGITS:
        raise ValueError(f"digit count must be <= {_MAX_DIGITS}, got {args.m}")
    _check_order(args.k)
    if args.m * args.k > _MAX_DIVISION_WORK:
        raise ValueError(
            f"m * k must be <= {_MAX_DIVISION_WORK}, got {args.m} * {args.k}:"
            " the long division takes a step of k digits per digit"
        )
    print(reciprocal_digits(repunit_denominator(args.k).value, args.m))
    return 0


def _cmd_bench(args) -> int:
    from .bench import emit_report, load_config, run_bench

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
