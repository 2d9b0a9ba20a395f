"""Command-line interface.

Exit codes: 0 for success (and PASS), 1 for a verification FAIL, 2 for
usage errors and output that could not be written, 141 when the reader
closed the pipe.  Verification subcommands end their standard output with a
PASS or FAIL line, for `tail -1`.  With --json (or bench's machine
formats) the stream carries only the document.

Start-up is part of every request's time, so the module level imports only
what building the parser and the term/seq handlers need (``bounds``,
``rational`` and ``sequence``); every other handler imports its library
module (and json, with --json) in its own body.  Reports and bench
records are named tuples, so no handler loads ``dataclasses``, ``inspect``
or ``typing``, and ``digits`` loads no ``series``.  Every limit the help
states, and every check before arithmetic, comes from ``bounds``.
"""

from __future__ import annotations

import argparse
import atexit
import os
import re
import sys
from decimal import localcontext

from . import bounds
from .rational import EXACT_CONTEXT, Rational, parse_rational, to_decimal
from .sequence import METHODS, iter_terms

__all__ = ["build_parser", "parse_and_dispatch", "main"]

# tail-bound target when gf is given neither -N nor --epsilon
_DEFAULT_EPSILON = Rational(1, 10**30)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse's print_usage(sys.stderr) writes to stdout if that is None
        _error(self.format_usage())
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kbonacci",
        description="Exact k-bonacci terms, series evaluation, and identity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    order_help = f"recurrence order, 2 to {bounds._MAX_ORDER}"
    jump_help = f"at a modelled cost at most that of the jump to n = {bounds._MAX_INDEX} at k = 2"

    term = sub.add_parser("term", help="print one term F_n")
    term.add_argument("-k", type=int, required=True, help=order_help)
    term.add_argument(
        "-n",
        type=int,
        required=True,
        help=f"term index, 0 to {bounds._MAX_INDEX}; with --method naive to"
        f" {bounds._ORACLE_MAX_INDEX['naive']}, with matrix to"
        f" {bounds._ORACLE_MAX_INDEX['matrix']} and k^3 * n at most {bounds._MAX_MATRIX_WORK};"
        f" with polymod at a modelled cost at most that of -k 2 -n {bounds._MAX_INDEX}",
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
        help=f"last index, at most {bounds._MAX_INDEX}, with (N1 - N0 + 1) * N1 * log10(2)"
        f" at most {bounds._MAX_SEQ_DIGITS} digits, and the jump to N0 {jump_help}",
    )

    gf = sub.add_parser("gf", help="evaluate the generating series at eta")
    # argparse reads "-5/2" as an option, where "-3" passes as a value; a
    # negative p/q must reach its check as "--eta=-5/2" does
    gf._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")
    gf.add_argument("-k", type=int, required=True, help=order_help)
    gf.add_argument(
        "--eta",
        type=_rational_arg,
        required=True,
        help="evaluation point as 'p/q' or an integer, must be > 2",
    )
    cutoff = gf.add_mutually_exclusive_group()
    cutoff.add_argument(
        "-N",
        dest="n_trunc",
        type=int,
        help="fixed truncation index, at least k - 1, with (N + k) * log10 p at most"
        f" {bounds._MAX_PARTIAL_DIGITS} digits for eta = p/q, and the jump to N - k + 1 {jump_help}",
    )
    cutoff.add_argument(
        "--epsilon",
        type=_rational_arg,
        help="grow N until the tail bound is at most this ('p/q'), within the same bounds",
    )
    gf.add_argument("--json", action="store_true", help="emit the report as JSON")

    vdec = sub.add_parser(
        "verify-decimal",
        help="check the 1/D_k digit identity",
        description="Check sum F_n / 10^(n+1) = 1/D_k, D_k being k-1 eights and a nine, by"
        " the closed form's algebra at eta = 10: D_k from the geometric sum, from its written"
        " digits and from (8*10^k + 1)/9 must agree.  No term of the series is summed.",
    )
    vdec.add_argument("-k", type=int, required=True, help=order_help)
    vdec.add_argument(
        "--max-k",
        dest="max_k",
        type=int,
        default=None,
        help="check every order from -k to this, with a summary verdict;"
        f" (orders) * max-k at most {bounds._MAX_SWEEP_DIGITS}",
    )

    vcls = sub.add_parser("verify-classic", help="check a classic Fibonacci sum")
    # classic_sums.IDENTITIES, spelled out so the parser loads no classic_sums
    vcls.add_argument("--identity", choices=("alternating", "millin"), required=True)
    vcls.add_argument(
        "--digits",
        type=int,
        required=True,
        help=f"precision, {bounds._MIN_CLASSIC_DIGITS} to {bounds._MAX_CLASSIC_DIGITS}",
    )

    digits = sub.add_parser("digits", help="decimal digits of 1/D_k")
    digits.add_argument("-k", type=int, required=True, help=order_help)
    digits.add_argument(
        "-m",
        type=int,
        required=True,
        help=f"how many digits, 1 to {bounds._MAX_DIGITS},"
        f" with m * min(k, {bounds._DIVISION_ORDERS}) at most {bounds._MAX_DIVISION_WORK}",
    )

    bench = sub.add_parser("bench", help="run a timing grid from a JSON config")
    bench.add_argument("--config", required=True, help="path to a JSON config file")
    bench.add_argument("--format", choices=("csv", "json"), default="csv")

    for subparser in sub.choices.values():
        # a handler's refusal prints the usage of the subcommand it refused
        subparser.set_defaults(usage=subparser.format_usage)
    return parser


def _rational_arg(text: str) -> Rational:
    # argparse reports a ValueError from a type as "invalid <name> value",
    # hiding parse_rational's reason; ArgumentTypeError prints it instead
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _cmd_term(args) -> int:
    # every method returns a Decimal here, whose str() is linear; the kernel
    # runs its top squares in it
    bounds.check_term(args.k, args.n, args.method)
    with localcontext(EXACT_CONTEXT):
        print(METHODS[args.method](args.k, args.n, to_decimal))
    return 0


def _cmd_seq(args) -> int:
    from itertools import islice

    # jump to F_start, whose top squares run in Decimal, then sweep in exact
    # Decimal: str(Decimal) is linear.  One write a term: print makes two,
    # each a system call when stdout is unbuffered.
    bounds.check_seq(args.k, args.start, args.stop)
    write = sys.stdout.write
    with localcontext(EXACT_CONTEXT):
        terms = iter_terms(args.k, args.start, to_decimal)
        for value in islice(terms, args.stop - args.start + 1):
            write(f"{value}\n")
    return 0


def _cmd_gf(args) -> int:
    from .series import SeriesPoint, converge_until, evaluate

    bounds._check_order(args.k)
    point = SeriesPoint(k=args.k, eta=args.eta)
    if args.n_trunc is not None:
        report = evaluate(point, args.n_trunc)
    else:
        epsilon = args.epsilon if args.epsilon is not None else _DEFAULT_EPSILON
        report = converge_until(point, epsilon)
    if not args.json:
        return _print_verdict(report)
    import json

    print(json.dumps(report.to_json_dict(), indent=2))
    return 0 if report.passed else 1


def _cmd_verify_decimal(args) -> int:
    from .decimal_identity import identity_line, verify_decimal_identity

    last = args.k if args.max_k is None else args.max_k
    bounds.check_sweep(args.k, last)
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

    return _print_verdict(verify_classic(args.identity, args.digits))


def _print_verdict(report) -> int:
    """Print ``key = value`` for each item of ``to_json_dict()`` but ``pass``, then the verdict."""
    doc = report.to_json_dict()
    passed = doc.pop("pass")
    for key, value in doc.items():
        print(f"{key} = {value}")
    print("PASS" if passed else "FAIL")
    return 0 if passed else 1


def _cmd_digits(args) -> int:
    from .decimal_identity import reciprocal_digits, repunit_denominator

    bounds.check_digits(args.k, args.m)
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
        _error(f"error: {exc}\n{args.usage()}")
        return 2
    except BrokenPipeError:
        _discard(sys.stdout)
        return 141
    except OSError as exc:
        _error(f"error: {exc}\n")
        return 2


def _error(text: str) -> None:
    # write and flush text on stderr if it can take it: sys.stderr is None
    # when fd 2 was closed at start-up, and a read-only fd 2 fails the write
    try:
        sys.stderr.write(text)
        sys.stderr.flush()
    except AttributeError:
        pass
    except OSError:
        _discard(sys.stderr)


def _discard(stream) -> None:
    # a write to the stream failed (a closed pipe, a full device); point its
    # fd at /dev/null, so that no later flush of what is still buffered
    # retries it
    os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


def _flushed(code: int) -> int:
    """``code``, or that of a failure to write out what the run printed.

    Buffered output meets a closed pipe (141) or a failing device such as
    a full disk (2, with one error line) only at this flush.  A code of 2
    from ``parse_and_dispatch`` has printed its error line already.
    """
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        _discard(sys.stdout)
        return 141
    except OSError as exc:
        _discard(sys.stdout)
        if code != 2:
            _error(f"error: {exc}\n")
        return 2
    _error("")  # flushes what stderr holds
    return code


def main() -> None:
    """Process entry of the ``kbonacci`` console script and ``python -m kbonacci.cli``.

    Runs ``parse_and_dispatch`` on ``sys.argv``, then the registered atexit
    hooks, flushes stdout and stderr and ends the process with
    ``os._exit``: once flushed the output is complete, and a reader waiting
    for its end would otherwise wait for the interpreter to tear down its
    modules and objects too.  Under a profiler or tracer (cProfile, pdb,
    trace, coverage) it flushes and ends with ``sys.exit`` instead, so they
    report as usual; an uncaught exception propagates as usual.  In-process
    callers use ``parse_and_dispatch``, which returns the exit code.
    """
    if sys.stdout is None:
        # fd 1 was closed at start-up: nothing the run printed would arrive
        _error("error: standard output is closed\n")
        sys.exit(2)
    code = parse_and_dispatch(sys.argv[1:])
    if sys.getprofile() is None and sys.gettrace() is None:
        atexit._run_exitfuncs()  # before the flush, as at a normal exit
        os._exit(_flushed(code))
    sys.exit(_flushed(code))


if __name__ == "__main__":
    main()
