"""Command-line interface.

Exit codes: 0 for success (and PASS), 1 for a verification FAIL, 2 for
usage errors and output that could not be written, 141 when the reader
closed the pipe.  Verification subcommands end their standard output with a
PASS or FAIL line, for `tail -1`.  With --json (or bench's machine
formats) the stream carries only the document.

Start-up is part of every request's time, so the module level imports only
``bounds`` and ``rational``, for the checks and the option table, and each
handler imports its library module (and json, with --json) in its own
body: ``term`` the registry ``methods.METHODS``, and ``seq``
``sequence.iter_terms``, so ``verify-classic`` and ``digits`` load no
``sequence``.  ``_OPTIONS`` declares each subcommand's options once.
``_parse`` reads a well-formed argv from it alone, and argparse, whose
parser ``cli_parser`` builds from the same table, runs only for --help,
for every argv ``_parse`` declines and for the usage line a refusal
prints: a well-formed request loads neither argparse nor fractions, and
every help, usage and error text is argparse's.  Reports and bench
records are named tuples, so no handler loads ``dataclasses``,
``inspect`` or ``typing``, and ``digits`` loads no ``series``.  Every
limit the help states, and every check before arithmetic, comes from
``bounds``.
"""

import atexit
import os
import sys
from decimal import localcontext
from types import SimpleNamespace

from . import bounds
from .rational import EXACT_CONTEXT, parse_rational, to_decimal

__all__ = ["build_parser", "parse_and_dispatch", "main"]

_K = ("-k", "k", int, ...)
# subcommand -> its options in help order, as (flag, dest, convert,
# default): convert is a type, a tuple of choices, or bool for a switch,
# and a default of ... marks a required option
_OPTIONS = {
    # sorted(methods.METHODS), spelled out so that only term's handler loads methods
    "term": (
        _K,
        ("-n", "n", int, ...),
        ("--method", "method", ("matrix", "naive", "polymod"), "polymod"),
    ),
    "seq": (_K, ("--from", "start", int, ...), ("--to", "stop", int, ...)),
    "gf": (
        _K,
        ("--eta", "eta", parse_rational, ...),
        ("-N", "n_trunc", int, None),
        ("--epsilon", "epsilon", parse_rational, None),
        ("--json", "json", bool, False),
    ),
    "verify-decimal": (_K, ("--max-k", "max_k", int, None)),
    # classic_sums.IDENTITIES, spelled out so the parser loads no classic_sums
    "verify-classic": (
        ("--identity", "identity", ("alternating", "millin"), ...),
        ("--digits", "digits", int, ...),
    ),
    "digits": (_K, ("-m", "m", int, ...)),
    "bench": (("--config", "config", str, ...), ("--format", "format", ("csv", "json"), "csv")),
}


def _parse(argv) -> SimpleNamespace | None:
    """The namespace argparse makes of ``argv``, but for ``usage``, or None.

    Reads only a subcommand followed by its options, each once: a switch,
    or a flag and then a value that does not start with '-' and converts,
    with every required option given.  Anything else (--help, an
    abbreviation, --opt=value, a negative number, any error) is None, for
    argparse to parse or report.
    """
    options = _OPTIONS.get(argv[0]) if argv else None
    if options is None:
        return None
    unseen = {option[0]: option for option in options}
    values = {dest: default for _, dest, _, default in options}
    tokens = iter(argv[1:])
    for flag in tokens:
        option = unseen.pop(flag, None)  # None for an unknown or a repeated flag
        if option is None:
            return None
        _, dest, convert, _ = option
        if convert is bool:
            values[dest] = True
            continue
        text = next(tokens, "-")
        if text.startswith("-") or (isinstance(convert, tuple) and text not in convert):
            return None
        try:
            values[dest] = text if isinstance(convert, tuple) else convert(text)
        except ValueError:
            return None
    # a required option missing, or gf's -N and --epsilon both given
    if ... in values.values() or None not in (values.get("n_trunc"), values.get("epsilon")):
        return None
    return SimpleNamespace(command=argv[0], **values)


def build_parser():
    """The argparse parser of ``_OPTIONS``, with the help texts."""
    from .cli_parser import build

    return build(_OPTIONS)


def __getattr__(name):
    # PEP 562: fractions loads when this is read, by gf or a library caller
    if name != "_DEFAULT_EPSILON":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from fractions import Fraction

    return Fraction(1, 10**30)  # gf's tail-bound target without -N or --epsilon


def _cmd_term(args) -> int:
    from .methods import METHODS

    # every method returns a Decimal here, whose str() is linear; the kernel
    # runs its top squares in it
    bounds.check_term(args.k, args.n, args.method)
    with localcontext(EXACT_CONTEXT):
        print(METHODS[args.method](args.k, args.n, to_decimal))
    return 0


def _cmd_seq(args) -> int:
    from itertools import islice

    from .sequence import iter_terms

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
        epsilon = args.epsilon if args.epsilon is not None else __getattr__("_DEFAULT_EPSILON")
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
    all_ok = True
    for k in range(args.k, last + 1):
        ok = verify_decimal_identity(k)
        all_ok = all_ok and ok
        print(identity_line(k, ok))
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
    args = _parse(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
    try:
        return _HANDLERS[args.command](args)
    except ValueError as exc:
        # argparse reads argv as _parse did, for the refused subcommand's usage
        _error(f"error: {exc}\n{build_parser().parse_args(argv).usage()}")
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
