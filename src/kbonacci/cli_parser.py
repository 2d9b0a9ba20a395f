"""The argparse parser of the command-line interface, with its help texts.

``cli._OPTIONS`` declares each subcommand's options once, and ``build``
makes the parser from it.  A well-formed request never loads this module:
``cli._parse`` reads it from the table alone.  argparse parses --help,
every argv ``cli._parse`` declines, and the argv of a refused request, for
the usage line the refusal prints, so every help, usage and error text is
argparse's.  Every limit the help states comes from ``bounds``.
"""

from __future__ import annotations

import argparse
import re
import sys

from . import bounds
from .rational import parse_rational

__all__ = ["build"]

_VERIFY_DECIMAL = (
    "Check sum F_n / 10^(n+1) = 1/D_k, D_k being k-1 eights and a nine, by"
    " the closed form's algebra at eta = 10: D_k from the geometric sum, from its written"
    " digits and from (8*10^k + 1)/9 must agree.  No term of the series is summed."
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse's print_usage(sys.stderr) writes to stdout if that is
        # None, and before 3.11 its exit message raises if stderr is None
        # or fails; the text is dropped then, and the exit code stays 2
        try:
            sys.stderr.write(f"{self.format_usage()}{self.prog}: error: {message}\n")
        except (AttributeError, OSError):
            pass
        self.exit(2)


def _texts() -> dict:
    """Subcommand -> (its help, {dest: the option's help})."""
    order = f"recurrence order, 2 to {bounds._MAX_ORDER}"
    jump = f"at a modelled cost at most that of the jump to n = {bounds._MAX_INDEX} at k = 2"
    return {
        "term": ("print one term F_n", {
            "k": order,
            "n": f"term index, 0 to {bounds._MAX_INDEX}; with --method naive to"
            f" {bounds._ORACLE_MAX_INDEX['naive']}, with matrix to"
            f" {bounds._ORACLE_MAX_INDEX['matrix']} and k^3 * n at most {bounds._MAX_MATRIX_WORK};"
            f" with polymod at a modelled cost at most that of -k 2 -n {bounds._MAX_INDEX}",
            "method": "computation strategy (default polymod)",
        }),
        "seq": ("print a range of terms, one per line", {
            "k": order,
            "stop": f"last index, at most {bounds._MAX_INDEX}, with (N1 - N0 + 1) * N1 * log10(2)"
            f" at most {bounds._MAX_SEQ_DIGITS} digits, and the jump to N0 {jump}",
        }),
        "gf": ("evaluate the generating series at eta", {
            "k": order,
            "eta": "evaluation point as 'p/q' or an integer, must be > 2",
            "n_trunc": "fixed truncation index, at least k - 1, with (N + k) * log10 p at most"
            f" {bounds._MAX_PARTIAL_DIGITS} digits for eta = p/q, and the jump to N - k + 1 {jump}",
            "epsilon": "grow N until the tail bound is at most this ('p/q'), within the same bounds",
            "json": "emit the report as JSON",
        }),
        "verify-decimal": ("check the 1/D_k digit identity", {
            "k": order,
            "max_k": "check every order from -k to this, with a summary verdict;"
            f" (orders) * max-k at most {bounds._MAX_SWEEP_DIGITS}",
        }),
        "verify-classic": ("check a classic Fibonacci sum", {
            "digits": f"precision, {bounds._MIN_CLASSIC_DIGITS} to {bounds._MAX_CLASSIC_DIGITS}",
        }),
        "digits": ("decimal digits of 1/D_k", {
            "k": order,
            "m": f"how many digits, 1 to {bounds._MAX_DIGITS},"
            f" with m * min(k, {bounds._DIVISION_ORDERS}) at most {bounds._MAX_DIVISION_WORK}",
        }),
        "bench": ("run a timing grid from a JSON config", {"config": "path to a JSON config file"}),
    }


def build(options: dict) -> argparse.ArgumentParser:
    """The parser of ``options``, laid out as ``cli._OPTIONS``.

    Each parsed namespace also holds ``usage``, the subcommand's
    ``format_usage``, whose line a handler's refusal prints.
    """
    parser = _Parser(
        prog="kbonacci",
        description="Exact k-bonacci terms, series evaluation, and identity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    texts = _texts()
    for command, specs in options.items():
        summary, helps = texts[command]
        subparser = sub.add_parser(
            command,
            help=summary,
            description=_VERIFY_DECIMAL if command == "verify-decimal" else None,
        )
        if command == "gf":
            # argparse reads "-5/2" as an option, where "-3" passes as a
            # value; a negative p/q must reach its check as "--eta=-5/2" does
            subparser._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")
            cutoff = subparser.add_mutually_exclusive_group()
        for flag, dest, convert, default in specs:
            if convert is bool:
                kwargs = {"action": "store_true"}
            elif isinstance(convert, tuple):
                kwargs = {"choices": convert}
            else:
                kind = _rational_arg if convert is parse_rational else convert
                kwargs = {"type": kind, "metavar": {"start": "N0", "stop": "N1"}.get(dest)}
            # gf's -N and --epsilon exclude each other
            group = cutoff if dest in ("n_trunc", "epsilon") else subparser
            group.add_argument(
                flag,
                dest=dest,
                required=default is ...,
                default=None if default is ... else default,
                help=helps.get(dest),
                **kwargs,
            )
        subparser.set_defaults(usage=subparser.format_usage)
    return parser


def _rational_arg(text: str):
    # argparse reports a ValueError from a type as "invalid <name> value",
    # hiding parse_rational's reason; ArgumentTypeError prints it instead
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
