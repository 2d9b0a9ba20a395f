"""The command-line parser and dispatch as they were before ``cli._OPTIONS``.

``reference_parser`` and ``reference_dispatch`` are the argparse parser and
``parse_and_dispatch`` that ``kbonacci.cli`` had when every request went
through argparse, kept verbatim as the reference that ``cli._parse`` and
``cli_parser`` are held to: ``check(argv)`` asserts that ``cli._parse``
makes the reference's namespace of an argv it reads, that the parser
``cli.build_parser`` returns reads and reports every argv as the
reference does, and that ``cli.parse_and_dispatch`` gives the reference's
exit code, stdout and stderr.  ``test_cli_parse.py`` runs it under pytest
and hypothesis.  On an interpreter without them, run it as a script:

    PYTHONPATH=src python tests/cli_reference.py [COUNT]

checks the explicit cases, COUNT (default 2000) seeded random argv and
every request of ``golden_requests.json`` against its recorded exit code
and stdout.
"""

import argparse
import hashlib
import io
import json
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from kbonacci import bounds, cli
from kbonacci.methods import METHODS
from kbonacci.rational import Rational, parse_rational


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse's print_usage(sys.stderr) writes to stdout if that is None
        cli._error(self.format_usage())
        self.exit(2, f"{self.prog}: error: {message}\n")


def reference_parser() -> argparse.ArgumentParser:
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


def reference_dispatch(argv) -> int:
    parser = reference_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return cli._HANDLERS[args.command](args)
    except ValueError as exc:
        cli._error(f"error: {exc}\n{args.usage()}")
        return 2
    except OSError as exc:
        cli._error(f"error: {exc}\n")
        return 2


# argv _parse must leave to argparse, each for its own reason
FALLBACK = {
    "help": ["-h"],
    **{f"help-{command}": [command, "-h"] for command in cli._OPTIONS},
    "long-help": ["gf", "-k", "2", "--help"],
    "abbreviation": ["term", "-k", "2", "-n", "0", "--meth", "naive"],
    "equals": ["term", "-k", "2", "-n", "0", "--method=naive"],
    "attached": ["term", "-k2", "-n", "0"],
    "repeated": ["term", "-k", "2", "-k", "3", "-n", "0"],
    "repeated-switch": ["gf", "-k", "2", "--eta", "3", "--json", "--json"],
    "double-dash": ["term", "--", "-k", "2", "-n", "0"],
    "negative-int": ["term", "-k", "2", "-n", "-1"],
    "negative-rational": ["gf", "-k", "2", "--eta", "-5/2"],
    "dash-value": ["bench", "--config", "-"],
    "bad-int": ["term", "-k", "two", "-n", "0"],
    "bad-rational": ["gf", "-k", "2", "--eta", "3/0"],
    "decimal-rational": ["gf", "-k", "2", "--eta", "2.5"],
    "bad-choice": ["term", "-k", "2", "-n", "0", "--method", "magic"],
    "missing-required": ["term", "-k", "2"],
    "missing-value": ["term", "-k", "2", "-n"],
    "N-and-epsilon": ["gf", "-k", "2", "--eta", "3", "-N", "5", "--epsilon", "1/100"],
    "other-subcommands-flag": ["digits", "-k", "2", "-n", "3"],
    "extra-argument": ["term", "-k", "2", "-n", "0", "extra"],
    "unknown-command": ["frobnicate"],
    "no-command": [],
}

# argv _parse reads, one or more of each subcommand
WELL_FORMED = [
    ["term", "-k", "2", "-n", "10"],
    ["term", "--method", "naive", "-n", "7", "-k", "3"],
    ["term", "-k", "1", "-n", "5"],  # refused by the handler, with the usage line
    ["seq", "-k", "3", "--from", "5", "--to", "9"],
    ["gf", "-k", "2", "--eta", "3", "-N", "10"],
    ["gf", "-k", "3", "--eta", " 7/2", "--epsilon", "1/100", "--json"],
    ["gf", "--eta", "3", "-k", "2"],
    ["verify-decimal", "-k", "3", "--max-k", "5"],
    ["verify-classic", "--identity", "millin", "--digits", "12"],
    ["digits", "-k", "2", "-m", "10"],
    ["bench", "--config", "no-such-config.json", "--format", "json"],  # exit 2: no such file
]

INTS = ("0", "2", "3", "12", " 7", "x", "-1")
RATIONALS = ("3", "7/2", "1/100", "3/0", "2.5", "-5/2")
# tokens an edit may put anywhere in an argv
TOKENS = INTS + RATIONALS + (
    "-h", "--help", "--", "-", "--meth", "--method=naive", "-k2", "-N5", "--eta=-5/2",
    "--json", "-k", "-n", "-N", "--epsilon", "--from", "--to", "-m", "--digits", "frobnicate", "",
)


def _options():
    """Subcommand -> [(flag, the values it may take, or () for a switch, required)]."""
    (commands,) = [a for a in reference_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    options = {}
    for command, subparser in commands.choices.items():
        options[command] = [
            (
                action.option_strings[0],
                () if action.nargs == 0
                else tuple(action.choices) if action.choices
                else INTS if action.type is int
                else ("no-such-config.json",) if action.type is None
                else RATIONALS,
                action.required,
            )
            for action in subparser._actions
            if action.dest not in ("help", "usage")
        ]
    return options


OPTIONS = _options()


def random_argv(rng) -> list:
    """A request of random options and values, then perhaps a few edits."""
    command = rng.choice(sorted(OPTIONS))
    chosen = [option for option in OPTIONS[command] if option[2] or rng.random() < 0.5]
    rng.shuffle(chosen)
    argv = [command]
    for flag, values, _ in chosen:
        argv += [flag, rng.choice(values)] if values else [flag]
    for _ in range(rng.choice((0, 0, 1, 2))):
        position = rng.randrange(len(argv) + 1)
        edit = rng.choice(("insert", "delete", "replace"))
        if edit != "insert" and position < len(argv):
            del argv[position]
        if edit != "delete":
            argv.insert(position, rng.choice(TOKENS))
    return argv


def _parsed(parser, argv):
    """(namespace without usage, None), or (None, (exit code, stdout, stderr))."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            namespace = vars(parser.parse_args(argv))
        except SystemExit as exc:
            return None, (exc.code, out.getvalue(), err.getvalue())
    del namespace["usage"]
    return namespace, None


def _ran(dispatch, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = dispatch(argv)
    return code, out.getvalue(), err.getvalue()


def check(argv) -> bool:
    """Assert that the CLI reads and answers ``argv`` as the reference does; whether ``cli._parse`` read it."""
    expected = _parsed(reference_parser(), argv)
    assert _parsed(cli.build_parser(), argv) == expected, argv
    namespace = cli._parse(argv)
    if namespace is not None:
        assert vars(namespace) == expected[0], argv
    assert _ran(cli.parse_and_dispatch, argv) == _ran(reference_dispatch, argv), argv
    return namespace is not None


class _HashSink(io.RawIOBase):
    def __init__(self):
        self.hash = hashlib.sha256()

    def writable(self):
        return True

    def write(self, data):
        self.hash.update(data)
        return len(data)


def golden_mismatches() -> list:
    """The argv of ``golden_requests.json`` whose exit code or stdout sha256 differ from its record."""
    golden = json.loads((Path(__file__).with_name("golden_requests.json")).read_text())
    mismatches = []
    for argv, code, digest in (request for recorded in golden.values() for request in recorded):
        sink = _HashSink()
        out = io.TextIOWrapper(io.BufferedWriter(sink), encoding="utf-8")
        with redirect_stdout(out):
            got = cli.parse_and_dispatch(argv)
        out.flush()
        if (got, sink.hash.hexdigest()) != (code, digest):
            mismatches.append(argv)
    return mismatches


if __name__ == "__main__":
    import random

    rng = random.Random(0)
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 2000
    cases = [*FALLBACK.values(), *WELL_FORMED, *(random_argv(rng) for _ in range(count))]
    read = sum(map(check, cases))
    mismatches = golden_mismatches()
    print(f"Python {sys.version.split()[0]}: {len(cases)} argv agree with the reference,"
          f" {read} of them read without argparse; {len(mismatches)} golden requests differ")
    sys.exit(1 if mismatches else 0)
