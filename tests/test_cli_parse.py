"""``cli._parse`` and ``cli_parser`` against the parser and dispatch they replace.

Each case runs ``cli_reference.check``: the reference's namespace, help,
usage and error bytes and exit code, for an argv ``_parse`` reads and for
one it leaves to argparse.
"""

import hashlib
import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import cli_reference
from kbonacci import cli


@pytest.mark.parametrize("argv", cli_reference.FALLBACK.values(), ids=cli_reference.FALLBACK)
def test_argparse_reads_what_parse_declines(argv):
    assert cli._parse(argv) is None
    assert not cli_reference.check(argv)


@pytest.mark.parametrize(
    "argv", cli_reference.WELL_FORMED, ids=[argv[0] for argv in cli_reference.WELL_FORMED]
)
def test_parse_reads_a_well_formed_request(argv):
    assert cli_reference.check(argv)


@settings(max_examples=400, deadline=None)
@given(st.randoms(use_true_random=False))
def test_any_argv_reads_and_answers_as_the_reference(rng):
    cli_reference.check(cli_reference.random_argv(rng))


@pytest.mark.parametrize(
    "argv",
    [["term", "-k", "3", "-n", "30"], ["gf", "-k", "2", "--eta", "3"]],
    ids=["term", "gf-default-epsilon"],
)
def test_the_replay_answers_as_the_cli(capsys, argv):
    # perfbench/replay.py reads argv with cli.build_parser and takes gf's
    # default target from cli._DEFAULT_EPSILON
    from kbonacci.cli import _DEFAULT_EPSILON

    assert _DEFAULT_EPSILON == Fraction(1, 10**30)
    path = Path(__file__).resolve().parents[1] / "perfbench" / "replay.py"
    spec = importlib.util.spec_from_file_location("perfbench_replay", path)
    replay = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(replay)
    code = cli.parse_and_dispatch(argv)
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert replay.replay(argv, replay.NullTracer(), 0) == (code, digest)
