import argparse
import ast
import hashlib
import importlib
import importlib.util
import json
import math
import os
import pkgutil
import re
import shlex
import subprocess
import sys
import tokenize
from fractions import Fraction
from itertools import islice, repeat
from pathlib import Path

import pytest

import kbonacci
import kbonacci.cli as cli
import kbonacci.cli_parser as cli_parser
from kbonacci import bounds, sequence
from kbonacci.bench import METHODS
from kbonacci.classic_sums import IDENTITIES, ClassicReport
from kbonacci.rational import format_ratio, int_to_str, parse_rational
from kbonacci.sequence import iter_terms, range_terms, term_fast
from kbonacci.series import EvalReport, SeriesPoint, evaluate


def run(capsys, argv):
    code = cli.parse_and_dispatch(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTerm:
    def test_prints_value(self, capsys):
        code, out, err = run(capsys, ["term", "-k", "2", "-n", "7"])
        assert (code, out, err) == (0, "13\n", "")

    @pytest.mark.parametrize("method", ["naive", "matrix", "polymod"])
    def test_methods_agree(self, capsys, method):
        code, out, _ = run(capsys, ["term", "-k", "3", "-n", "30", "--method", method])
        assert code == 0
        assert out == "15902591\n"

    def test_invalid_order_is_usage_error(self, capsys):
        code, out, err = run(capsys, ["term", "-k", "1", "-n", "5"])
        assert code == 2
        assert out == ""
        assert "order must be >= 2" in err
        assert "usage:" in err

    def test_negative_index_is_usage_error(self, capsys):
        code, _, err = run(capsys, ["term", "-k", "2", "-n", "-4"])
        assert code == 2

    def test_unknown_method_rejected(self, capsys):
        code, _, err = run(capsys, ["term", "-k", "2", "-n", "5", "--method", "magic"])
        assert code == 2
        assert "usage:" in err

    def test_methods_come_from_the_bench_registry(self):
        parser = cli.build_parser()
        assert parser.parse_args(["term", "-k", "2", "-n", "1"]).method == "polymod"
        for name in METHODS:
            argv = ["term", "-k", "2", "-n", "1", "--method", name]
            assert parser.parse_args(argv).method == name

    def test_method_choices_are_the_registry(self):
        # spelled out in the option table, so that seq and the verdicts load
        # no methods; held here to the registry
        (method,) = [option for option in cli._OPTIONS["term"] if option[0] == "--method"]
        assert method[2] == tuple(sorted(METHODS))

    def test_big_term_matches_str(self, capsys, lifted_str_limit):
        code, out, err = run(capsys, ["term", "-k", "2", "-n", "300000"])
        assert (code, err) == (0, "")
        assert out == str(term_fast(2, 300_000)) + "\n"

    @pytest.mark.parametrize("k", [2, 3])
    def test_top_of_the_render_range_matches_the_int_kernel(self, capsys, k):
        code, out, err = run(capsys, ["term", "-k", str(k), "-n", "1500000"])
        assert (code, err) == (0, "")
        assert out == int_to_str(term_fast(k, 1_500_000)) + "\n"

    @pytest.mark.parametrize(
        "k,n,in_decimal",
        # the first Decimal square needs a coefficient of 1000 bits at every
        # order; the benchmark's one kernel-path term, k = 17, reaches it too
        [(2, 5763, False), (2, 5764, True), (2, 57_620, True), (3, 4559, False),
         (3, 4560, True), (3, 45_508, True), (16, 100_000, True), (17, 31_506, True)],
    )
    def test_either_side_of_the_decimal_switch(self, capsys, monkeypatch, k, n, in_decimal):
        squares = []
        square = sequence._decimal_square_slots
        monkeypatch.setattr(
            sequence, "_decimal_square_slots", lambda a, k: squares.append(k) or square(a, k)
        )
        code, out, err = run(capsys, ["term", "-k", str(k), "-n", str(n)])
        assert (code, err) == (0, "")
        assert bool(squares) is in_decimal
        assert out == int_to_str(term_fast(k, n)) + "\n"

    @pytest.mark.parametrize(
        "method,k,n",
        [("naive", 2, 0), ("naive", 2, 30_000), ("naive", 7, 5_000),
         ("matrix", 4, 3), ("matrix", 2, 30_000), ("matrix", 5, 3_000)],
    )
    def test_oracle_methods_print_their_int_result(self, capsys, method, k, n):
        code, out, err = run(capsys, ["term", "-k", str(k), "-n", str(n), "--method", method])
        assert (code, err) == (0, "")
        assert out == int_to_str(METHODS[method](k, n)) + "\n"


def sparse_term_mod(k, n, p=2**61 - 1):
    """F_n mod p from F_n = 2F_{n-1} - F_{n-k-1}, independent of the kernel."""
    f = [0] * (k - 1) + [1, 1]  # F_0 .. F_k
    for i in range(k + 1, n + 1):
        f.append((2 * f[i - 1] - f[i - k - 1]) % p)
    return f[n]


def decimal_mod(text, p=2**61 - 1):
    """int(text) mod p, a chunk at a time under the int/str limit."""
    value = 0
    for i in range(0, len(text), 1000):
        chunk = text[i : i + 1000]
        value = (value * 10 ** len(chunk) + int(chunk)) % p
    return value


class TestLargeOrders:
    @pytest.mark.parametrize("k,n", [(1000, 100_000), (100_000, 300_000), (20, 105_000)])
    def test_term_mod_a_prime(self, capsys, k, n):
        # the generating function's binomial sum: milliseconds where the
        # kernel takes minutes at the first two
        code, out, err = run(capsys, ["term", "-k", str(k), "-n", str(n)])
        assert (code, err) == (0, "")
        assert decimal_mod(out.strip()) == sparse_term_mod(k, n)

    def test_seq_mod_a_prime_past_the_seed_width(self, capsys):
        code, out, err = run(capsys, ["seq", "-k", "1000", "--from", "5000", "--to", "5002"])
        assert (code, err) == (0, "")
        assert [decimal_mod(line) for line in out.split()] == [
            sparse_term_mod(1000, n) for n in range(5000, 5003)
        ]


BOUND = 33_219_280  # the largest index whose bound n*log10(2) is at most 10^7 digits


class TestIndexBound:
    def test_bound_is_ten_million_digits(self):
        assert bounds._MAX_INDEX == BOUND
        assert BOUND * math.log10(2) <= 10**7 < (BOUND + 1) * math.log10(2)

    @pytest.mark.parametrize(
        "argv",
        [
            ["term", "-k", "2", "-n", str(BOUND + 1)],
            ["term", "-k", "3", "-n", str(BOUND + 1), "--method", "naive"],
            ["term", "-k", "2", "-n", "9" * 400],
            ["seq", "-k", "2", "--from", "0", "--to", str(BOUND + 1)],
            ["seq", "-k", "5", "--from", str(BOUND + 1), "--to", str(BOUND + 1)],
        ],
    )
    def test_refused_before_any_arithmetic(self, capsys, monkeypatch, argv):
        def arithmetic(*args):
            raise AssertionError("the refused request ran")

        for name in METHODS:
            monkeypatch.setitem(METHODS, name, arithmetic)
        monkeypatch.setattr(cli, "iter_terms", arithmetic)
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        index = argv[argv.index("-n" if argv[0] == "term" else "--to") + 1]
        message = f"index must be <= {BOUND}, got {index}: F_n may have more than 10000000 digits"
        assert err.startswith(f"error: {message}\n")
        assert "usage:" in err

    def test_largest_index_is_accepted(self, capsys, monkeypatch):
        monkeypatch.setitem(METHODS, "polymod", lambda k, n, cast: cast(n))
        monkeypatch.setattr(cli, "iter_terms", lambda k, start, cast: iter([cast(start)]))
        assert run(capsys, ["term", "-k", "2", "-n", str(BOUND)]) == (0, f"{BOUND}\n", "")
        argv = ["seq", "-k", "2", "--from", str(BOUND), "--to", str(BOUND)]
        assert run(capsys, argv) == (0, f"{BOUND}\n", "")


class TestSeq:
    def test_one_term_per_line(self, capsys):
        code, out, _ = run(capsys, ["seq", "-k", "3", "--from", "0", "--to", "8"])
        assert code == 0
        assert out == "0\n0\n1\n1\n2\n4\n7\n13\n24\n"

    def test_inverted_range(self, capsys):
        code, _, err = run(capsys, ["seq", "-k", "2", "--from", "5", "--to", "3"])
        assert code == 2
        assert "usage:" in err

    @pytest.mark.parametrize(
        "k,n0,n1", [(2, 3000, 3040), (3, 2500, 2520), (16, 5, 40), (16, 4000, 4003)]
    )
    def test_windows_match_str(self, capsys, k, n0, n1):
        argv = ["seq", "-k", str(k), "--from", str(n0), "--to", str(n1)]
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, "")
        assert out == "".join(f"{value}\n" for value in range_terms(k, n0, n1))

    @pytest.mark.parametrize(
        "k,n0,n1", [(2, 3000, 3040), (5, 1234, 1300), (16, 4000, 4040), (40, 777, 900)]
    )
    def test_windows_longer_than_k_match_the_sweep_from_zero(self, capsys, k, n0, n1):
        argv = ["seq", "-k", str(k), "--from", str(n0), "--to", str(n1)]
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, "")
        terms = islice(iter_terms(k), n0, n1 + 1)
        assert out == "".join(f"{value}\n" for value in terms)

    def test_far_window_matches_term_fast(self, capsys, lifted_str_limit):
        argv = ["seq", "-k", "3", "--from", "300000", "--to", "300003"]
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, "")
        assert out == "".join(f"{term_fast(3, n)}\n" for n in range(300_000, 300_004))

    @pytest.mark.parametrize(
        "k,n0,n1,message",
        [
            (1, 0, 3, "order must be >= 2, got 1"),
            (2, -1, 3, "negative indices are not defined, got -1"),
            (2, 5, 3, "invalid range: n0=5 > n1=3"),
            # the checks run in range_terms' order: n0, then the range, then k
            (1, -1, 3, "negative indices are not defined, got -1"),
            (0, 5, 3, "invalid range: n0=5 > n1=3"),
        ],
    )
    def test_errors_are_usage_errors(self, capsys, k, n0, n1, message):
        argv = ["seq", "-k", str(k), "--from", str(n0), "--to", str(n1)]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}\nusage:")


class TestGf:
    def test_fixed_truncation_human_output(self, capsys):
        code, out, _ = run(capsys, ["gf", "-k", "2", "--eta", "10", "-N", "10"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "k = 2"
        assert lines[1] == "eta = 10/1"
        assert lines[2] == "N = 10"
        assert "closed = 10/89" in lines
        assert lines[-1] == "PASS"

    def test_json_is_pure(self, capsys):
        code, out, err = run(capsys, ["gf", "-k", "2", "--eta", "10", "-N", "10", "--json"])
        assert code == 0
        assert err == ""
        doc = json.loads(out)
        assert doc["k"] == 2
        assert doc["N"] == 10
        assert doc["closed"] == "10/89"
        assert doc["pass"] is True
        assert "PASS" not in out.replace('"pass"', "")

    def test_big_json_matches_str(self, capsys, lifted_str_limit):
        eta = Fraction(3_000_003, 1_000_000)
        argv = ["gf", "-k", "4", "--eta", "3000003/1000000", "-N", "1500", "--json"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        report = evaluate(SeriesPoint(k=4, eta=eta), 1500)
        assert report.partial.numerator.bit_length() > 30_000
        doc = report.to_json_dict()
        for key in ("partial", "closed", "tail_bound", "residual"):
            value = getattr(report, key)
            doc[key] = f"{value.numerator}/{value.denominator}"
        assert out == json.dumps(doc, indent=2) + "\n"

    def test_epsilon_cutoff(self, capsys):
        code, out, _ = run(
            capsys, ["gf", "-k", "2", "--eta", "10", "--epsilon", "1/1000000"]
        )
        assert code == 0
        assert out.splitlines()[-1] == "PASS"

    def test_default_cutoff_when_no_option(self, capsys):
        code, out, _ = run(capsys, ["gf", "-k", "3", "--eta", "4"])
        assert code == 0
        assert out.splitlines()[-1] == "PASS"

    def test_rational_eta(self, capsys):
        code, out, _ = run(capsys, ["gf", "-k", "2", "--eta", "5/2", "-N", "60"])
        assert code == 0

    def test_eta_outside_domain(self, capsys):
        code, _, err = run(capsys, ["gf", "-k", "2", "--eta", "2"])
        assert code == 2
        assert "usage:" in err

    def test_float_eta_rejected(self, capsys):
        code, _, err = run(capsys, ["gf", "-k", "2", "--eta", "2.5"])
        assert code == 2

    def test_cutoff_options_are_exclusive(self, capsys):
        code, _, err = run(
            capsys,
            ["gf", "-k", "2", "--eta", "10", "-N", "5", "--epsilon", "1/10"],
        )
        assert code == 2

    def test_epsilon_past_the_str_limit(self, capsys):
        # 5000 digits: int() and Fraction(str) would refuse it under the
        # default int/str limit
        eps = "1/1" + "0" * 5000
        code, out, _ = run(capsys, ["gf", "-k", "2", "--eta", "3", "--epsilon", eps])
        assert (code, out.splitlines()[-1]) == (0, "PASS")
        doc = dict(line.split(" = ") for line in out.splitlines()[:-1])
        assert parse_rational(doc["tail_bound"]) <= Fraction(1, 10**5000)

    def test_failed_report_exits_one(self, capsys, monkeypatch):
        # at N = 5 the residual acc / (10^5 89) is within the tail bound
        # F_6 / (8 10^5) = 1/10^5 for acc <= 89 (the true acc is 85)
        broken = EvalReport(point=SeriesPoint(k=2, eta=Fraction(10)), n_trunc=5, acc=90, f_next=8)
        assert not broken.passed and broken._replace(acc=89).passed
        monkeypatch.setattr("kbonacci.series.evaluate", lambda point, n: broken)
        code, out, _ = run(capsys, ["gf", "-k", "2", "--eta", "10", "-N", "5"])
        assert code == 1
        assert out.splitlines()[-1] == "FAIL"


class TestVerifyDecimal:
    def test_single_order(self, capsys):
        code, out, _ = run(capsys, ["verify-decimal", "-k", "3"])
        assert code == 0
        assert out == "1/889 == sum F_n^(k)/10^(n+1): PASS\n"

    def test_sweep_has_summary_line(self, capsys):
        code, out, _ = run(capsys, ["verify-decimal", "-k", "2", "--max-k", "6"])
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 6
        assert lines[0].startswith("1/89 ")
        assert lines[4].startswith("1/888889 ")
        assert lines[-1] == "PASS"

    def test_order_beyond_the_str_limit(self, capsys):
        code, out, err = run(capsys, ["verify-decimal", "-k", "4400"])
        assert (code, err) == (0, "")
        assert out == f"1/{'8' * 4399}9 == sum F_n^(k)/10^(n+1): PASS\n"

    def test_backwards_sweep_rejected(self, capsys):
        code, _, err = run(capsys, ["verify-decimal", "-k", "5", "--max-k", "3"])
        assert code == 2

    def test_failure_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "kbonacci.decimal_identity.verify_decimal_identity", lambda k: False
        )
        code, out, _ = run(capsys, ["verify-decimal", "-k", "2"])
        assert code == 1
        assert out.splitlines()[-1].endswith("FAIL")

    def test_help_says_what_is_checked(self, capsys, monkeypatch):
        # the verdict is the closed form's algebra at eta = 10, not a sum of
        # terms: series takes no window
        code, out, _ = run(capsys, ["verify-decimal", "--help"])
        assert code == 0
        text = " ".join(out.split())
        assert "closed form's algebra at eta = 10" in text
        assert "from the geometric sum, from its written digits and from (8*10^k + 1)/9" in text
        assert "No term of the series is summed." in text
        monkeypatch.setattr("kbonacci.series.iter_terms", None)
        assert run(capsys, ["verify-decimal", "-k", "2", "--max-k", "40"])[0] == 0


class TestResourceGuards:
    """A-priori bounds that refuse a request with exit 2 before any arithmetic."""

    @staticmethod
    def forbid_arithmetic(monkeypatch):
        def arithmetic(*args):
            raise AssertionError("the refused request ran")

        for name in METHODS:
            monkeypatch.setitem(METHODS, name, arithmetic)
        monkeypatch.setattr(cli, "iter_terms", arithmetic)
        monkeypatch.setattr("kbonacci.decimal_identity.reciprocal_digits", arithmetic)
        monkeypatch.setattr("kbonacci.decimal_identity.repunit_denominator", arithmetic)
        monkeypatch.setattr("kbonacci.decimal_identity.verify_decimal_identity", arithmetic)
        monkeypatch.setattr("kbonacci.series.iter_terms", arithmetic)

    def refused(self, capsys, monkeypatch, argv, message):
        self.forbid_arithmetic(monkeypatch)
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}\nusage:")

    @pytest.mark.parametrize(
        "method,k,n",
        [("naive", 2, 200_001), ("naive", 64, 200_001), ("naive", 2, 250_001),
         ("naive", 64, 250_001), ("naive", 3, BOUND), ("matrix", 2, 2_000_001),
         ("matrix", 16, 2_000_001), ("matrix", 2, 2_500_001), ("matrix", 16, 2_500_001),
         ("matrix", 2, BOUND)],
    )
    def test_oracle_method_index_bounds(self, capsys, monkeypatch, method, k, n):
        assert bounds._ORACLE_MAX_INDEX == {"naive": 200_000, "matrix": 2_000_000}
        argv = ["term", "-k", str(k), "-n", str(n), "--method", method]
        limit = bounds._ORACLE_MAX_INDEX[method]
        message = f"index must be <= {limit} with --method {method}, got {n}"
        self.refused(capsys, monkeypatch, argv, message)

    def test_oracle_bounds_leave_the_kernel(self, capsys, monkeypatch):
        for name in METHODS:
            monkeypatch.setitem(METHODS, name, lambda k, n, cast, name=name: f"{name} {n}")
        for method, n in (("naive", 200_000), ("matrix", 2_000_000), ("polymod", 2_000_001)):
            argv = ["term", "-k", "2", "-n", str(n), "--method", method]
            assert run(capsys, argv) == (0, f"{method} {n}\n", "")

    def test_digits_bound(self, capsys, monkeypatch):
        for m in ("10000001", "9" * 40):
            argv = ["digits", "-k", "2", "-m", m]
            self.refused(capsys, monkeypatch, argv, f"digit count must be <= 10000000, got {m}")

    @pytest.mark.parametrize(
        "k,m,message",
        [
            (100_000, "0", "digit count must be >= 1, got 0"),
            (2, "-3", "digit count must be >= 1, got -3"),
            (1, "0", "order must be >= 2, got 1"),  # D_k's check still comes first
        ],
    )
    def test_digit_count_below_one_refused_before_d_k(self, capsys, monkeypatch, k, m, message):
        self.refused(capsys, monkeypatch, ["digits", "-k", str(k), "-m", m], message)

    def test_digits_at_the_bound_is_accepted(self, capsys, monkeypatch):
        monkeypatch.setattr("kbonacci.decimal_identity.reciprocal_digits", lambda den, m: str(m))
        assert run(capsys, ["digits", "-k", "2", "-m", "10000000"]) == (0, "10000000\n", "")

    def test_seq_output_bound_covers_the_largest_render_request(self):
        largest = 20_001 * 20_000 * math.log10(2)  # seq 0..20000: 5.3e7 digits at k = 3
        assert largest < bounds._MAX_SEQ_DIGITS / 8

    @pytest.mark.parametrize(
        "start,stop,shown",
        [(0, 60_000, "1.08e+09"), (20_000_000, 20_000_200, "1.21e+09"), (0, BOUND, "3.32e+14")],
    )
    def test_seq_output_bound(self, capsys, monkeypatch, start, stop, shown):
        argv = ["seq", "-k", "2", "--from", str(start), "--to", str(stop)]
        message = f"range {start}..{stop} may print {shown} digits, more than 1000000000"
        self.refused(capsys, monkeypatch, argv, message)

    def test_at_the_index_bound_a_hundred_terms_fit(self, capsys, monkeypatch):
        # each term there may have 10^7 digits, so 100 of them reach 10^9
        monkeypatch.setattr(cli, "iter_terms", lambda k, n0, cast: iter(range(n0, n0 + 200)))
        argv = ["seq", "-k", "2", "--from", str(BOUND - 99), "--to", str(BOUND)]
        code, out, _ = run(capsys, argv)
        assert (code, out.split()) == (0, [str(n) for n in range(BOUND - 99, BOUND + 1)])
        argv = ["seq", "-k", "2", "--from", str(BOUND - 100), "--to", str(BOUND)]
        message = f"range {BOUND - 100}..{BOUND} may print 1.01e+09 digits, more than 1000000000"
        self.refused(capsys, monkeypatch, argv, message)

    def test_seq_from_zero_just_inside_and_outside_the_output_bound(self, capsys, monkeypatch):
        # 57636 * 57635 * log10(2) = 999976750; 57637 * 57636 * log10(2) = 1000011450
        monkeypatch.setattr(cli, "iter_terms", lambda k, n0, cast: iter(()))
        assert run(capsys, ["seq", "-k", "2", "--from", "0", "--to", "57635"]) == (0, "", "")
        argv = ["seq", "-k", "2", "--from", "0", "--to", "57636"]
        message = "range 0..57636 may print 1e+09 digits, more than 1000000000"
        self.refused(capsys, monkeypatch, argv, message)

    @pytest.mark.parametrize(
        "argv",
        [
            ["term", "-k", "100001", "-n", "0"],
            ["term", "-k", "3000000", "-n", "0", "--method", "naive"],
            ["seq", "-k", "100001", "--from", "0", "--to", "0"],
            ["gf", "-k", "100001", "--eta", "3"],
            ["verify-decimal", "-k", "100001"],
            ["verify-decimal", "-k", "99999", "--max-k", "100001"],
            ["digits", "-k", "100001", "-m", "1"],
        ],
    )
    def test_order_bound(self, capsys, monkeypatch, argv):
        assert bounds._MAX_ORDER == 100_000
        k = argv[argv.index("--max-k" if "--max-k" in argv else "-k") + 1]
        self.refused(capsys, monkeypatch, argv, f"order must be <= 100000, got {k}")

    def test_largest_order_is_accepted(self, capsys, monkeypatch):
        monkeypatch.setitem(METHODS, "polymod", lambda k, n, cast: cast(k))
        assert run(capsys, ["term", "-k", "100000", "-n", "0"]) == (0, "100000\n", "")
        monkeypatch.setattr("kbonacci.decimal_identity.reciprocal_digits", lambda den, m: str(m))
        assert run(capsys, ["digits", "-k", "100000", "-m", "10000"]) == (0, "10000\n", "")

    @pytest.mark.parametrize(
        "k,m",
        [(6001, 10**7), (10_001, 6_000_001), (20_000, 3_000_001), (10**5, 3_000_001), (10**5, 10**7)],
    )
    def test_digits_division_bound(self, capsys, monkeypatch, k, m):
        assert (bounds._DIVISION_ORDERS, bounds._MAX_DIVISION_WORK) == (20_000, 6 * 10**10)
        argv = ["digits", "-k", str(k), "-m", str(m)]
        message = (
            f"m * min(k, 20000) must be <= 60000000000, got m = {m}, k = {k}:"
            " the division of 10^m by D_k takes a time that grows as that"
        )
        self.refused(capsys, monkeypatch, argv, message)

    def test_digits_division_bound_is_inclusive(self, capsys, monkeypatch):
        # digits -k 10000 -m 1000000, refused by a bound on m * k of 10^9,
        # divides in 0.3 s
        monkeypatch.setattr("kbonacci.decimal_identity.reciprocal_digits", lambda den, m: str(m))
        for k, m in (
            (10_000, 1_000_000), (6000, 10**7), (10_000, 6 * 10**6), (20_000, 3 * 10**6),
            (10**5, 3 * 10**6), (3, 10**7),
        ):
            argv = ["digits", "-k", str(k), "-m", str(m)]
            assert run(capsys, argv) == (0, f"{m}\n", "")

    @pytest.mark.parametrize(
        "k,n",
        [(3, 592_593), (16, 3907), (252, 0), (252, 1), (3, 740_741), (16, 4883), (272, 0),
         (272, 1), (1000, 5)],
    )
    def test_matrix_work_bound(self, capsys, monkeypatch, k, n):
        assert bounds._MAX_MATRIX_WORK == 16 * 10**6
        argv = ["term", "-k", str(k), "-n", str(n), "--method", "matrix"]
        message = f"k^3 * n must be <= 16000000 with --method matrix, got {k}^3 * {n}"
        self.refused(capsys, monkeypatch, argv, message)

    def test_matrix_work_bound_is_inclusive(self, capsys, monkeypatch):
        monkeypatch.setitem(METHODS, "matrix", lambda k, n, cast: f"{k} {n}")
        for k, n in ((2, 2_000_000), (3, 592_592), (16, 3906), (251, 1), (251, 0)):
            argv = ["term", "-k", str(k), "-n", str(n), "--method", "matrix"]
            assert run(capsys, argv) == (0, f"{k} {n}\n", "")

    @pytest.mark.parametrize("k,last,shown", [(2, 1001, 1001000), (99_990, 100_000, 1100000)])
    def test_verify_decimal_sweep_bound(self, capsys, monkeypatch, k, last, shown):
        assert bounds._MAX_SWEEP_DIGITS == 10**6
        argv = ["verify-decimal", "-k", str(k), "--max-k", str(last)]
        message = f"orders {k}..{last} may print {shown} digits of D_k, more than 1000000"
        self.refused(capsys, monkeypatch, argv, message)

    @pytest.mark.parametrize("k", [0, -100_000_000])
    def test_verify_decimal_checks_the_order_first(self, capsys, monkeypatch, k):
        argv = ["verify-decimal", "-k", str(k), "--max-k", "2"]
        self.refused(capsys, monkeypatch, argv, f"order must be >= 2, got {k}")

    def test_verify_decimal_sweep_at_the_bound(self, capsys, monkeypatch):
        monkeypatch.setattr("kbonacci.decimal_identity.verify_decimal_identity", lambda k: True)
        monkeypatch.setattr("kbonacci.decimal_identity.identity_line", lambda k, ok: str(k))
        code, out, _ = run(capsys, ["verify-decimal", "-k", "2", "--max-k", "1000"])
        assert (code, out.split()) == (0, [*map(str, range(2, 1001)), "PASS"])

    @pytest.mark.parametrize(
        "eta,n,digits", [("3", 523_974, 250_001), ("2000001/1000000", 39_675, 250_006)]
    )
    def test_gf_partial_sum_bound(self, capsys, monkeypatch, eta, n, digits):
        argv = ["gf", "-k", "2", "--eta", eta, "-N", str(n)]
        message = f"a partial sum to N = {n} has about {digits} digits, more than 250000"
        self.refused(capsys, monkeypatch, argv, message)

    def test_gf_partial_sum_bound_is_inclusive(self, capsys, monkeypatch):
        reached = []
        monkeypatch.setattr("kbonacci.series.iter_terms", lambda k, n, cast: reached.append(n) or 1 / 0)
        for eta, n in (("3", 523_973), ("2000001/1000000", 39_674)):
            with pytest.raises(ZeroDivisionError):
                cli.parse_and_dispatch(["gf", "-k", "2", "--eta", eta, "-N", str(n)])
        assert reached == [523_972, 39_673]

    def test_epsilon_search_stops_before_the_bound(self, capsys):
        # eta = 2000001/1000000: each doubling checks the bound before its
        # jump, and N = 65536 would need 412957 digits
        eps = "1/1" + "0" * 5000
        argv = ["gf", "-k", "2", "--eta", "2000001/1000000", "--epsilon", eps]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        message = "a partial sum to N = 65536 has about 412957 digits, more than 250000"
        assert err.startswith(f"error: {message}\nusage:")

    def test_epsilon_of_two_hundred_thousand_digits_is_refused(self, capsys, monkeypatch):
        # a tail bound that never shrinks: the search doubles N = 1, 2, 4, ...
        # up to 2^18, checks the largest N within the bound, 523973, and
        # refuses 2^19 without a jump to it
        calls = []

        def jump(k, n, cast):
            calls.append(n)
            assert len(calls) <= 20, "the search ran past the bound"
            return repeat(cast(0))

        self.forbid_arithmetic(monkeypatch)
        monkeypatch.setattr("kbonacci.series.iter_terms", jump)
        monkeypatch.setattr("kbonacci.series._tail_within", lambda *args: False)
        argv = ["gf", "-k", "2", "--eta", "3", "--epsilon", "1/1" + "0" * 200_000]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        message = "a partial sum to N = 524288 has about 250150 digits, more than 250000"
        assert err.startswith(f"error: {message}\nusage:")
        assert calls == [2**i - 1 for i in range(19)] + [523_972]

    @pytest.mark.parametrize(
        "argv,accepted",
        [
            (["term", "-k", "3", "-n", "17488315"], True),
            (["term", "-k", "3", "-n", "17488316"], False),
            (["term", "-k", "100000", "-n", "7123592"], True),
            (["term", "-k", "100000", "-n", "7123593"], False),
            (["seq", "-k", "100000", "--from", "397", "--to", "397"], True),
            (["seq", "-k", "100000", "--from", "398", "--to", "398"], False),
            (["seq", "-k", "3", "--from", "17488316", "--to", "17488316"], False),
        ],
    )
    def test_cost_bound(self, capsys, monkeypatch, argv, accepted):
        k, n = argv[2], argv[4]
        if accepted:
            monkeypatch.setitem(METHODS, "polymod", lambda k, n, cast: cast(n))
            monkeypatch.setattr(cli, "iter_terms", lambda k, start, cast: iter([cast(start)]))
            assert run(capsys, argv) == (0, f"{n}\n", "")
        else:
            what, kind = (
                (f"F_n at k = {k}, n = {n}", "term")
                if argv[0] == "term"
                else (f"the jump to n = {n} at k = {k}", "jump")
            )
            message = (
                f"{what} has a modelled cost of 1.01 times the most a {kind} may cost,"
                f" that of k = 2, n = {BOUND}"
            )
            self.refused(capsys, monkeypatch, argv, message)

    @pytest.mark.parametrize(
        "argv,n",
        [
            (["gf", "-k", "100000", "--eta", "3", "-N", "300000"], 200_001),
            (["gf", "-k", "100000", "--eta", "3", "-N", "100397"], 398),
        ],
    )
    def test_gf_jump_bound(self, capsys, monkeypatch, argv, n):
        # the jump to F_{N-k+1} is bounded before any arithmetic, by the
        # kernel's model and message, as seq's jump to N0 is
        ratio = "433.75" if n == 200_001 else "1.01"
        message = (
            f"the jump to n = {n} at k = 100000 has a modelled cost of {ratio} times"
            f" the most a jump may cost, that of k = 2, n = {BOUND}"
        )
        self.refused(capsys, monkeypatch, argv, message)

    def test_gf_jump_bound_is_inclusive(self, capsys, monkeypatch):
        reached = []
        monkeypatch.setattr("kbonacci.series.iter_terms", lambda k, n, cast: reached.append(n) or 1 / 0)
        with pytest.raises(ZeroDivisionError):
            cli.parse_and_dispatch(["gf", "-k", "100000", "--eta", "3", "-N", "100396"])
        assert reached == [397]

    def test_gf_epsilon_search_jump_bound(self, capsys, monkeypatch):
        # a tail bound that never shrinks: the check at N = k - 1 jumps to
        # n = 0, the largest accepted N = 100396 to 397, and the doubling to
        # N = 199998 is refused before its jump
        calls = []

        def jump(k, n, cast):
            calls.append(n)
            return repeat(cast(0))

        self.forbid_arithmetic(monkeypatch)
        monkeypatch.setattr("kbonacci.series.iter_terms", jump)
        monkeypatch.setattr("kbonacci.series._tail_within", lambda *args: False)
        argv = ["gf", "-k", "100000", "--eta", "3", "--epsilon", "1/2"]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        message = (
            "the jump to n = 99999 at k = 100000 has a modelled cost of 216.95 times"
            f" the most a jump may cost, that of k = 2, n = {BOUND}"
        )
        assert err.startswith(f"error: {message}\nusage:")
        assert calls == [0, 397]

    @pytest.mark.parametrize(
        "argv,n",
        [
            (["gf", "-k", "64", "--eta", "5/2", "-N", "286070"], 286_007),
            (["gf", "-k", "24", "--eta", "3", "-N", "419155"], 419_132),
        ],
    )
    def test_gf_jumps_within_the_kernel_bound_are_accepted(self, monkeypatch, argv, n):
        # the jump's modelled cost is that of its k terms, as seq's is
        reached = []
        monkeypatch.setattr("kbonacci.series.iter_terms", lambda k, n, cast: reached.append(n) or 1 / 0)
        with pytest.raises(ZeroDivisionError):
            cli.parse_and_dispatch(argv)
        assert reached == [n]

    def test_gf_epsilon_tries_the_largest_accepted_n(self, capsys):
        # the doubling would refuse N = 65536 (412957 digits), but N = 39674,
        # the largest within the digit bound, meets epsilon
        eps = "1/1" + "0" * 3600
        argv = ["gf", "-k", "2", "--eta", "2000001/1000000", "--epsilon", eps]
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[2] == "N = 39674"
        assert lines[-1] == "PASS"

    def test_help_states_the_bounds(self, capsys):
        # every number in the help is a bounds constant; the tests above pin
        # their values
        oracle = bounds._ORACLE_MAX_INDEX
        # one phrase for the one jump bound of seq and gf, as in its refusal
        jump = f"at a modelled cost at most that of the jump to n = {bounds._MAX_INDEX} at k = 2"
        for command, text in (
            ("term", f"with --method naive to {oracle['naive']}, with matrix to {oracle['matrix']}"),
            ("term", f"k^3 * n at most {bounds._MAX_MATRIX_WORK}"),
            ("term", f"with polymod at a modelled cost at most that of -k 2 -n {bounds._MAX_INDEX}"),
            ("seq", f"the jump to N0 {jump}"),
            ("term", f"recurrence order, 2 to {bounds._MAX_ORDER}"),
            ("seq", f"at most {bounds._MAX_SEQ_DIGITS} digits"),
            ("seq", f"recurrence order, 2 to {bounds._MAX_ORDER}"),
            ("gf", f"(N + k) * log10 p at most {bounds._MAX_PARTIAL_DIGITS} digits"),
            ("gf", "fixed truncation index, at least k - 1,"),
            ("gf", f"the jump to N - k + 1 {jump}"),
            ("verify-decimal", f"(orders) * max-k at most {bounds._MAX_SWEEP_DIGITS}"),
            ("verify-classic", f"precision, {bounds._MIN_CLASSIC_DIGITS} to {bounds._MAX_CLASSIC_DIGITS}"),
            ("digits", f"how many digits, 1 to {bounds._MAX_DIGITS}"),
            ("digits", f"m * min(k, {bounds._DIVISION_ORDERS}) at most {bounds._MAX_DIVISION_WORK}"),
        ):
            code, out, _ = run(capsys, [command, "--help"])
            assert code == 0
            help_text = " ".join(out.split())
            assert text in help_text, command
        assert (bounds._MIN_CLASSIC_DIGITS, bounds._MAX_CLASSIC_DIGITS) == (4, 200_000)

    def test_help_types_no_limit(self):
        # a number of three or more digits in a help string's literal text
        # would be a limit spelled out beside its bounds constant
        tree = ast.parse(Path(cli_parser.__file__).read_text(encoding="utf-8"))
        (texts,) = [
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "_texts"
        ]
        strings = [
            node.value
            for node in ast.walk(texts)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
        ]
        assert len(strings) > 10
        for value in strings:
            assert not re.search(r"\d{3}", value), value

    @pytest.mark.parametrize(
        "argv,check",
        [
            (["seq", "-k", "3", "--from", "5", "--to", "9"], "check_seq"),
            (["verify-decimal", "-k", "3", "--max-k", "4"], "check_sweep"),
            (["digits", "-k", "3", "-m", "10"], "check_digits"),
        ],
    )
    def test_one_bounds_check_before_any_arithmetic(self, capsys, monkeypatch, argv, check):
        calls = []

        def refuse(*args):
            calls.append(args)
            raise ValueError("refused")

        self.forbid_arithmetic(monkeypatch)
        monkeypatch.setattr(bounds, check, refuse)
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: refused\nusage:")
        assert calls == [tuple(int(a) for a in argv[2::2])]


class TestVerifyClassic:
    def test_alternating_passes(self, capsys):
        code, out, _ = run(
            capsys, ["verify-classic", "--identity", "alternating", "--digits", "12"]
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "identity = alternating"
        assert lines[-1] == "PASS"

    def test_millin_passes(self, capsys):
        code, out, _ = run(
            capsys, ["verify-classic", "--identity", "millin", "--digits", "8"]
        )
        assert code == 0
        assert out.splitlines()[-1] == "PASS"

    def test_alternating_at_thirty_thousand_digits(self, capsys):
        # 131072 terms: a term-by-term sum would hold that many Fibonacci numbers
        code, out, _ = run(
            capsys, ["verify-classic", "--identity", "alternating", "--digits", "30000"]
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "terms = 131072"
        assert lines[-1] == "PASS"

    @pytest.mark.parametrize(
        "identity,code,digest",
        [
            ("alternating", 0, "08ddb4ead5ab53ae43e2b6949fdbf4f70b5d908b0c0ad8ade670152f776895f9"),
            ("millin", 1, "2baa3d712f17d7b23466ce01d9f37f2baa19620520e760a830492e2afc4978e6"),
        ],
        ids=IDENTITIES,
    )
    def test_top_of_the_digit_range(self, capsys, identity, code, digest):
        # the largest doublings, root and quotient a request may take, held
        # to their exit code and stdout sha256 (Millin FAILs: ROADMAP 1)
        argv = ["verify-classic", "--identity", identity, "--digits", str(bounds._MAX_CLASSIC_DIGITS)]
        got, out, _ = run(capsys, argv)
        assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)

    def test_too_few_digits(self, capsys):
        code, _, err = run(
            capsys, ["verify-classic", "--identity", "millin", "--digits", "3"]
        )
        assert code == 2
        assert "usage:" in err

    def test_too_many_digits(self, capsys):
        code, out, err = run(
            capsys, ["verify-classic", "--identity", "alternating", "--digits", "200001"]
        )
        assert (code, out) == (2, "")
        assert err.startswith(
            "error: digit count must be <= 200000, got 200001\nusage:"
        )

    def test_unknown_identity(self, capsys):
        code, _, _ = run(
            capsys, ["verify-classic", "--identity", "golden", "--digits", "8"]
        )
        assert code == 2

    def test_identity_choices_are_the_library_identities(self):
        parser = cli.build_parser()
        (commands,) = [
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        ]
        (identity,) = [
            a
            for a in commands.choices["verify-classic"]._actions
            if a.dest == "identity"
        ]
        assert tuple(identity.choices) == IDENTITIES

    def test_failure_exits_one(self, capsys, monkeypatch):
        broken = ClassicReport(
            identity="alternating",
            terms=4,
            digits=6,
            numerator=0,
            denominator=1,
            scaled_value=0,
            scaled_target=10**6,
            scaled_diff=10**12,
            passed=False,
        )
        monkeypatch.setattr(
            "kbonacci.classic_sums.verify_classic", lambda identity, d: broken
        )
        code, out, _ = run(
            capsys, ["verify-classic", "--identity", "alternating", "--digits", "6"]
        )
        assert code == 1
        assert out.splitlines()[-1] == "FAIL"


class TestNoBigIntRendered:
    """gf converts no int wider than the terms its numbers come from, verify-classic none.

    Their big numbers are powers of p and q (gf) or W-digit roots and
    quotients (verify-classic), which they build in Decimal.  What gf
    converts from int is the jump's seed, p, q, den, the gcds and
    epsilon, narrower than the last term once N passes 100; verify-classic
    doubles Decimal pairs from the start.  No number of either comes back
    to int by ``str_to_int``.
    """

    @pytest.fixture
    def widths(self, monkeypatch):
        widths = []

        def spy(original):
            def convert(n):
                widths.append(n.bit_length())
                return original(n)

            return convert

        import kbonacci.rational
        import kbonacci.series

        for module in (kbonacci.rational, kbonacci.series):
            names = [name for name in ("to_decimal", "int_to_str") if hasattr(module, name)]
            assert names, f"{module.__name__} converts nothing: the spy would see none of it"
            for name in names:
                monkeypatch.setattr(module, name, spy(getattr(module, name)))
        return widths

    @pytest.fixture
    def back_to_int(self, monkeypatch):
        calls = []

        def spy(original):
            def convert(digits):
                calls.append(len(digits))
                return original(digits)

            return convert

        import kbonacci.classic_sums
        import kbonacci.series

        for module in (kbonacci.series, kbonacci.classic_sums):
            monkeypatch.setattr(module, "str_to_int", spy(module.str_to_int))
        return calls

    @pytest.mark.parametrize(
        "k,eta,cutoff",
        [
            (2, "3", ["-N", "20000"]),
            (6, "586606005/146651501", ["-N", "2642"]),
            (8, "12/5", ["-N", "5000"]),
            (3, "64/3", ["-N", "2"]),
            (8, "12/5", ["--epsilon", "1/1" + "0" * 1500]),  # the search's report
        ],
        ids=["2-3-20000", "6-586606005/146651501-2642", "8-12/5-5000", "3-64/3-2", "8-12/5-epsilon"],
    )
    @pytest.mark.parametrize("as_json", [False, True])
    def test_gf(self, capsys, widths, back_to_int, k, eta, cutoff, as_json):
        argv = ["gf", "-k", str(k), "--eta", eta, *cutoff] + ["--json"] * as_json
        code, out, _ = run(capsys, argv)
        assert code == 0
        n = json.loads(out)["N"] if as_json else int(out.splitlines()[2].removeprefix("N = "))
        point = SeriesPoint(k, parse_rational(eta))
        p = point.eta.numerator
        last = range_terms(k, n - k + 1, n + 1)[-1]
        allowed = last.bit_length() + k * p.bit_length() + k.bit_length()
        # the spy sees the jump's seed conversions, and nothing wider than
        # the terms; nothing comes back by str_to_int
        assert widths and max(widths) <= allowed
        assert back_to_int == []
        if n > 100:
            assert max(widths) < last.bit_length()
            # the partial sum's denominator, p^N den, is far wider; the
            # library's Fraction fields are what str_to_int is for
            assert evaluate(point, n).partial.denominator.bit_length() > 2 * allowed
            assert back_to_int

    @pytest.mark.parametrize(
        "identity,d", [("alternating", 50), ("alternating", 3000), ("millin", 500), ("millin", 20_000), ("millin", 40_000)]
    )
    def test_verify_classic(self, capsys, widths, back_to_int, identity, d):
        import kbonacci.classic_sums

        # classic_sums imports no converter, so the spies on rational's see
        # every conversion it could make
        assert not {"to_decimal", "int_to_str"} & set(vars(kbonacci.classic_sums))
        code, out, _ = run(capsys, ["verify-classic", "--identity", identity, "--digits", str(d)])
        assert out.splitlines()[2] == f"digits = {d}"
        assert widths == []
        assert back_to_int == []


class TestEarlierReportRendered:
    """A report prints from its own numbers, whatever report was built after it."""

    widths = TestNoBigIntRendered.widths

    def test_printed_after_another_report(self, widths):
        point = SeriesPoint(2, Fraction(3))
        report = evaluate(point, 20_000)
        evaluate(SeriesPoint(3, Fraction(7, 3)), 300)
        widths.clear()
        doc = report.to_json_dict()
        last = range_terms(2, 20_000, 20_001)[-1]
        # no int wider than the last term, acc = 3 F_{N+1} + F_N, is converted
        assert 0 < max(widths) <= last.bit_length() + 2
        names = ("partial", "closed", "tail_bound", "residual")
        assert [doc[name] for name in names] == [
            format_ratio(getattr(report, name)) for name in names
        ]


class TestDigits:
    def test_prints_digit_string(self, capsys):
        code, out, _ = run(capsys, ["digits", "-k", "2", "-m", "10"])
        assert (code, out) == (0, "0112359550\n")

    def test_order_beyond_the_str_limit(self, capsys):
        # D_k has 4400 digits, past CPython's default int/str limit, which
        # the CLI leaves in force
        code, out, err = run(capsys, ["digits", "-k", "4400", "-m", "20"])
        assert (code, out, err) == (0, "0" * 20 + "\n", "")

    def test_bad_digit_count(self, capsys):
        code, _, _ = run(capsys, ["digits", "-k", "2", "-m", "0"])
        assert code == 2


class TestBench:
    def write_config(self, tmp_path, **overrides):
        cfg = dict(
            k_values=[2], n_values=[50], repetitions=1, methods=["naive", "polymod"]
        )
        cfg.update(overrides)
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_csv_output(self, capsys, tmp_path):
        code, out, err = run(
            capsys, ["bench", "--config", self.write_config(tmp_path)]
        )
        assert code == 0
        assert err == ""
        lines = out.splitlines()
        assert lines[0] == "method,k,n,rep,wall_time,result_digits,checksum"
        assert len(lines) == 3

    def test_json_output_is_pure(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            ["bench", "--config", self.write_config(tmp_path), "--format", "json"],
        )
        assert code == 0
        parsed = json.loads(out)
        assert len(parsed) == 2

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run(capsys, ["bench", "--config", str(tmp_path / "nope.json")])
        assert code == 2
        assert "error:" in err

    def test_invalid_config_content(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"k_values": [], "n_values": [1]}))
        code, _, err = run(capsys, ["bench", "--config", str(path)])
        assert code == 2

    @pytest.mark.parametrize(
        "content,message",
        [
            (
                {"k_values": [2], "n_values": ["5"]},
                "n_values must be a list of int",
            ),
            (
                {"k_values": [2], "n_values": [5], "repetitions": "2"},
                "repetitions must be an int",
            ),
            ([1, 2], "bench config must be a JSON object"),
            (
                {"k_values": [2], "n_values": [5], "repetition": 3, "method": ["naive"]},
                "unknown bench config keys ['method', 'repetition']",
            ),
            # used to run until it was killed
            (
                {"k_values": [2], "n_values": [10**9], "methods": ["naive"]},
                "index must be <= 33219280, got 1000000000",
            ),
            (
                {"k_values": [2], "n_values": [200_001], "methods": ["naive"]},
                "index must be <= 200000 with --method naive, got 200001",
            ),
            (
                {"k_values": [16], "n_values": [3907], "methods": ["matrix"]},
                "k^3 * n must be <= 16000000 with --method matrix, got 16^3 * 3907",
            ),
            (
                {"k_values": [28], "n_values": [33_219_280], "methods": ["polymod"]},
                "F_n at k = 28, n = 33219280 has a modelled cost of 20.17 times",
            ),
            ({"k_values": [100_001], "n_values": [0]}, "order must be <= 100000, got 100001"),
            (
                {"k_values": [2], "n_values": [5], "repetitions": 101},
                "repetitions must be 1 to 100, got 101",
            ),
            (
                {
                    "k_values": [2],
                    "n_values": list(range(BOUND - 999, BOUND + 1)),
                    "repetitions": 100,
                    "methods": ["polymod"],
                },
                "a grid of 1000 cells at 100 repetitions has a modelled cost of 999.99 times",
            ),
        ],
    )
    def test_malformed_config_is_usage_error(self, capsys, tmp_path, content, message):
        # exit 1 means a verification FAIL, so a bad config must not reach it
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(content))
        code, out, err = run(capsys, ["bench", "--config", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}")

    @pytest.mark.parametrize(
        "data,reason",
        [
            (b"[build-system]\n", "Expecting value: line 1 column 2 (char 1)"),
            (b"\xff{}", "'utf-8' codec can't decode byte 0xff in position 0"),
        ],
        ids=["not-json", "not-utf8"],
    )
    def test_unreadable_config_names_its_path(self, capsys, tmp_path, data, reason):
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        code, out, err = run(capsys, ["bench", "--config", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: bench config {str(path)!r} is not UTF-8 JSON: {reason}")


# 10^4999 + 1 and 10^4999: coprime, of 5000 digits each
BIG = "1" + "0" * 4998 + "1"
TEN = "1" + "0" * 4999


class TestDispatch:
    def test_broken_pipe_is_quiet(self):
        import subprocess
        import sys

        proc = subprocess.run(
            f"{sys.executable} -m kbonacci.cli term -k 2 -n 200000 | head -c 10",
            shell=True,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert len(proc.stdout) == 10
        assert "Broken pipe" not in proc.stderr
        assert "error" not in proc.stderr

    def test_no_arguments(self, capsys):
        assert run(capsys, [])[0] == 2

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, ["frobnicate"])[0] == 2

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, ["--help"])
        assert code == 0
        assert "term" in out and "bench" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["term", "-k", "2", "-n", "-1"],
            ["seq", "-k", "2", "--from", "5", "--to", "3"],
            ["gf", "-k", "2", "--eta", "2"],
            ["verify-decimal", "-k", "1"],
            ["verify-classic", "--identity", "millin", "--digits", "1"],
            ["digits", "-k", "2", "-m", "0"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_refusal_prints_the_subcommands_usage(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        message, usage = err.split("\n", 1)
        assert message.startswith("error: ")
        assert usage.startswith(f"usage: kbonacci {argv[0]} [-h]")
        assert "{term,seq,gf" not in usage

    @pytest.mark.parametrize(
        "option,text,reason",
        [
            ("--eta", "3/0", "zero denominator in '3/0'"),
            ("--eta", "2.5", "expected an integer or p/q fraction, got '2.5'"),
            ("--epsilon", "1/0", "zero denominator in '1/0'"),
            ("--epsilon", "1e-9", "expected an integer or p/q fraction, got '1e-9'"),
        ],
    )
    def test_bad_rational_prints_its_reason(self, capsys, option, text, reason):
        argv = ["gf", "-k", "2", "--eta", "3", option, text]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err.endswith(f"kbonacci gf: error: argument {option}: {reason}\n")
        assert "invalid" not in err

    @pytest.mark.parametrize(
        "option,text,reason",
        [
            ("--eta", "-5/2", "series requires eta > 2, got -5/2"),
            ("--epsilon", "-1/2", "epsilon must be > 0, got -1/2"),
            # parts past CPython's 4300-digit int/str limit, which the CLI leaves in force
            pytest.param(
                "--eta", f"-{BIG}/{TEN}", f"series requires eta > 2, got -{BIG}/{TEN}", id="huge-eta"
            ),
            pytest.param(
                "--epsilon", f"-1/{BIG}", f"epsilon must be > 0, got -1/{BIG}", id="huge-epsilon"
            ),
            pytest.param("--epsilon", f"-{BIG}", f"epsilon must be > 0, got -{BIG}", id="huge-int"),
        ],
    )
    @pytest.mark.parametrize("spaced", [True, False], ids=["spaced", "equals"])
    def test_negative_rational_reaches_its_check(self, capsys, option, text, reason, spaced):
        # argparse matches "-3" as a negative number but took "-5/2" for an option
        given = [option, text] if spaced else [f"{option}={text}"]
        code, out, err = run(capsys, ["gf", "-k", "2", "--eta", "3", *given])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {reason}\nusage: kbonacci gf [-h]")

    def test_main_uses_argv(self):
        # main ends its process, so it runs in one of its own
        proc = entry("-m", "kbonacci.cli", "term", "-k", "2", "-n", "7")
        assert (proc.returncode, proc.stdout) == (0, "13\n")

    @pytest.mark.parametrize(
        "argv",
        [["term", "-k", "2", "-n", "-1"], ["gf", "-k", "2", "--eta", "3/0"], ["frobnicate"]],
        ids=["refusal", "bad-rational", "usage"],
    )
    def test_no_stderr_keeps_stdout_empty(self, capsys, monkeypatch, argv):
        # fd 2 closed at start-up leaves sys.stderr None, and print(file=None)
        # and argparse's print_usage(None) would write to stdout
        monkeypatch.setattr(sys, "stderr", None)
        assert cli.parse_and_dispatch(argv) == 2
        assert capsys.readouterr().out == ""


def entry_env(unbuffered=True):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def entry(*args, unbuffered=True):
    """``python *args`` in a new process, with kbonacci importable."""
    return subprocess.run(
        [sys.executable, *args],
        env=entry_env(unbuffered),
        capture_output=True,
        text=True,
        timeout=60,
    )


def calls_main(argv, setup=""):
    """Arguments for ``entry``: a script that runs ``setup``, then ``cli.main()`` on argv."""
    return (
        "-c",
        "import atexit, sys\n"
        "from kbonacci import cli\n"
        f"{setup}\n"
        f"sys.argv = ['kbonacci', *{argv!r}]\n"
        "cli.main()\n",
    )


def fail_term(args):
    print("FAIL")
    return 1


class TestProcessEntry:
    """``cli.main`` ends the process once its output is flushed, without teardown."""

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize(
        "argv,patched,code",
        [
            (["term", "-k", "2", "-n", "7"], False, 0),
            (["term", "-k", "2", "-n", "7"], True, 1),
            (["term", "-k", "2", "-n", "-1"], False, 2),
            (["frobnicate"], False, 2),
            (["-h"], False, 0),
        ],
        ids=["pass", "fail", "refusal", "usage", "help"],
    )
    def test_exit_code_and_output_match_in_process(
        self, capsys, monkeypatch, argv, patched, code, unbuffered
    ):
        setup = ""
        if patched:
            monkeypatch.setitem(cli._HANDLERS, "term", fail_term)
            setup = "cli._HANDLERS['term'] = lambda args: print('FAIL') or 1"
        proc = entry(*calls_main(argv, setup), unbuffered=unbuffered)
        assert (proc.returncode, proc.stdout, proc.stderr) == run(capsys, argv)
        assert proc.returncode == code

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    def test_closed_pipe_exits_141_quietly(self, unbuffered):
        # as under `| head -c 10`: the reader goes after 10 bytes of a
        # 418k-digit term, more than a pipe holds
        with subprocess.Popen(
            [sys.executable, "-m", "kbonacci.cli", "term", "-k", "2", "-n", "2000000"],
            env=entry_env(unbuffered),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        ) as proc:
            head = proc.stdout.read(10)
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 141
        assert (head, err) == (b"8531294917", b"")

    @pytest.mark.parametrize(
        "setup,code",
        [
            ("", 0),
            ("sys.setprofile(lambda *args: None)", 0),
            ("cli._HANDLERS['term'] = lambda args: 1 / 0", 1),
        ],
        ids=["fast", "profiled", "uncaught"],
    )
    def test_atexit_hooks_run_on_every_path(self, setup, code):
        hook = "atexit.register(lambda: sys.stderr.write('hook ran\\n'))"
        proc = entry(*calls_main(["term", "-k", "2", "-n", "7"], f"{hook}\n{setup}"))
        assert proc.returncode == code
        assert proc.stderr.endswith("hook ran\n")

    @pytest.mark.parametrize(
        "setup,torn_down",
        [("", False), ("sys.setprofile(lambda *args: None)", True)],
        ids=["fast", "profiled"],
    )
    def test_teardown_runs_only_under_a_profiler(self, setup, torn_down):
        sentinel = (
            "class Sentinel:\n"
            "    def __del__(self, write=sys.stderr.write):\n"
            "        write('torn down\\n')\n"
            "sentinel = Sentinel()\n"
        )
        proc = entry(*calls_main(["term", "-k", "2", "-n", "7"], sentinel + setup))
        assert (proc.returncode, proc.stdout) == (0, "13\n")
        assert proc.stderr == ("torn down\n" if torn_down else "")

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["term", "-k", "2", "-n", "5"],  # fails at main's flush, when buffered
            ["seq", "-k", "2", "--from", "0", "--to", "3000"],  # fails in the handler
        ],
        ids=["term", "seq"],
    )
    @pytest.mark.parametrize("target", [">&-", "> /dev/full"], ids=["closed", "full"])
    def test_failed_write_exits_2_with_one_error_line(self, argv, target, unbuffered):
        if target == "> /dev/full" and not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full on this system")
        command = " ".join([shlex.quote(sys.executable), "-m", "kbonacci.cli", *argv, target])
        proc = subprocess.run(
            command,
            shell=True,
            env=entry_env(unbuffered),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize(
        "setup", ["", "sys.setprofile(lambda *args: None)"], ids=["fast", "profiled"]
    )
    @pytest.mark.parametrize(
        "argv", [["term", "-k", "2", "-n", "-1"], ["frobnicate"]], ids=["refusal", "usage"]
    )
    @pytest.mark.parametrize("target", ["2>&-", "2< /dev/null"], ids=["closed", "read-only"])
    def test_unwritable_stderr_exits_2_with_stdout_empty(self, argv, setup, target, unbuffered):
        # exit 1 would read as a verification FAIL; a read-only fd 2 fails
        # each write, and under a profiler the interpreter's own last flush
        script = " ".join(shlex.quote(arg) for arg in calls_main(argv, setup))
        proc = subprocess.run(
            f"{shlex.quote(sys.executable)} {script} {target}",
            shell=True,
            env=entry_env(unbuffered),
            stdout=subprocess.PIPE,
            text=True,
            timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (2, "")

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize(
        "workload,argv",
        [
            ("term-render:1", ["seq", "-k", "2", "--from", "0", "--to", "20000"]),
            ("term-render:1", ["term", "-k", "3", "-n", "1345630"]),  # the pass's top k = 3
            ("verdicts:1", ["gf", "-k", "8", "--eta", "3", "--epsilon", "1/1" + "0" * 1500]),
        ],
        ids=["seq", "term", "gf"],
    )
    def test_no_byte_is_lost(self, workload, argv, unbuffered):
        # against the exit code and stdout sha256 that tests/test_golden.py
        # holds the in-process run to
        golden = json.loads((Path(__file__).with_name("golden_requests.json")).read_text())
        expected = [[code, digest] for recorded, code, digest in golden[workload] if recorded == argv]
        proc = subprocess.Popen(
            [sys.executable, "-m", "kbonacci.cli", *argv],
            env=entry_env(unbuffered),
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
        )
        digest = hashlib.sha256()
        for chunk in iter(lambda: proc.stdout.read(1 << 16), b""):
            digest.update(chunk)
        proc.stdout.close()
        assert expected == [[proc.wait(timeout=60), digest.hexdigest()]]


SRC = Path(__file__).resolve().parents[1] / "src"


def fresh_python(code):
    """Run code in a new interpreter without site, which preloads modules."""
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


class TestStartup:
    # what term and seq do not use; each would only add start-up time
    UNUSED = (
        "kbonacci.bench",
        "kbonacci.classic_sums",
        "kbonacci.series",
        "kbonacci.decimal_identity",
        "dataclasses",
        "inspect",
        "json",
        "csv",
        "typing",
        "argparse",
        "gettext",
        "locale",
        "fractions",
        "__future__",
    )

    @pytest.mark.parametrize(
        "argv,out,methods",
        [
            (["term", "-k", "2", "-n", "10"], "55\n", True),
            (["seq", "-k", "3", "--from", "5", "--to", "9"], "4\n7\n13\n24\n44\n", False),
        ],
        ids=["term", "seq"],
    )
    def test_term_and_seq_load_only_what_they_use(self, argv, out, methods):
        # only term looks its strategy up in the registry of the oracles
        proc = fresh_python(
            "import sys\n"
            "from kbonacci.cli import parse_and_dispatch\n"
            f"code = parse_and_dispatch({argv!r})\n"
            f"loaded = sorted(set({self.UNUSED!r}) & set(sys.modules))\n"
            "sys.stderr.write(repr((code, loaded, 'kbonacci.methods' in sys.modules)))\n"
        )
        assert proc.stdout == out
        assert ast.literal_eval(proc.stderr) == (0, [], methods)

    @pytest.mark.parametrize(
        "argv,absent,present",
        [
            (["gf", "-k", "2", "--eta", "3", "-N", "10"], ("json",), ()),
            (["gf", "-k", "2", "--eta", "3", "-N", "10", "--json"], (), ("json",)),
            (["verify-classic", "--identity", "alternating", "--digits", "8"], ("json",), ()),
            (["verify-classic", "--identity", "millin", "--digits", "8"], ("json",), ()),
            (["verify-decimal", "-k", "3"], ("json",), ("kbonacci.series",)),
            (["digits", "-k", "2", "-m", "10"], ("json", "kbonacci.series"), ()),
        ],
        ids=["gf", "gf-json", "alternating", "millin", "verify-decimal", "digits"],
    )
    def test_verdicts_load_no_dataclasses(self, argv, absent, present):
        # the report types are named tuples; json only for --json; a
        # well-formed request is read without argparse; no oracle is compiled
        absent += ("dataclasses", "inspect", "typing", "argparse", "kbonacci.methods", "__future__")
        proc = fresh_python(
            "import sys\n"
            "from kbonacci.cli import parse_and_dispatch\n"
            f"code = parse_and_dispatch({argv!r})\n"
            f"names = {absent + present!r}\n"
            "sys.stderr.write(repr((code, sorted(set(names) & set(sys.modules)))))\n"
        )
        assert ast.literal_eval(proc.stderr) == (0, sorted(present))

    def test_bench_loads_no_dataclasses(self, tmp_path):
        # BenchConfig and BenchRecord are named tuples too
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({"k_values": [2], "n_values": [10], "methods": ["polymod"]}))
        proc = fresh_python(
            "import sys\n"
            "from kbonacci.cli import parse_and_dispatch\n"
            f"code = parse_and_dispatch(['bench', '--config', {str(path)!r}])\n"
            "names = ('dataclasses', 'inspect', 'typing', 'argparse')\n"
            "sys.stderr.write(repr((code, sorted(set(names) & set(sys.modules)))))\n"
        )
        assert proc.stdout.splitlines()[0] == "method,k,n,rep,wall_time,result_digits,checksum"
        assert ast.literal_eval(proc.stderr) == (0, [])

    @pytest.mark.parametrize(
        "argv,code",
        [
            (["term", "-h"], 0),
            (["term", "-k", "2", "-n", "-1"], 2),  # argparse reads the negative value
            (["term", "-k", "1", "-n", "5"], 2),  # a refusal prints argparse's usage line
            (["term", "-k", "x", "-n", "5"], 2),
        ],
        ids=["help", "negative", "refusal", "malformed"],
    )
    def test_help_and_errors_load_argparse(self, argv, code):
        proc = fresh_python(
            "import sys\n"
            "from kbonacci.cli import parse_and_dispatch\n"
            f"code = parse_and_dispatch({argv!r})\n"
            "sys.stdout.write(repr((code, 'argparse' in sys.modules)))\n"
        )
        assert proc.stdout.endswith(repr((code, True)))

    def test_refusal_prints_the_usage_line(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        code, out, err = run(capsys, ["term", "-k", "1", "-n", "5"])
        assert (code, out) == (2, "")
        assert err == (
            "error: order must be >= 2, got 1\n"
            "usage: kbonacci term [-h] -k K -n N [--method {matrix,naive,polymod}]\n"
        )

    def test_package_import_loads_no_submodule(self):
        proc = fresh_python(
            "import sys\n"
            "import kbonacci\n"
            "loaded = lambda: sorted(m for m in sys.modules if m.startswith('kbonacci.'))\n"
            "before = loaded()\n"
            "kbonacci.term_fast\n"
            "sys.stderr.write(repr((before, loaded())))\n"
        )
        assert ast.literal_eval(proc.stderr) == ([], ["kbonacci.sequence"])

    def test_modules_within_the_token_budget(self):
        # a module past 2048 parser tokens compiles with a higher peak, which
        # every request that imports it pays
        counts = {}
        for path in Path(kbonacci.__file__).parent.glob("*.py"):
            with tokenize.open(path) as source:
                tokens = tokenize.generate_tokens(source.readline)
                counts[path.name] = sum(
                    token.type not in (tokenize.COMMENT, tokenize.NL) for token in tokens
                )
        assert len(counts) > 5
        assert {name: count for name, count in counts.items() if count > 2048} == {}

    def test_public_names_are_their_defining_modules_objects(self):
        defined = set()
        for info in pkgutil.iter_modules(kbonacci.__path__):
            module = importlib.import_module(f"kbonacci.{info.name}")
            for name in set(getattr(module, "__all__", ())) & set(kbonacci.__all__):
                assert getattr(kbonacci, name) is getattr(module, name)
                defined.add(name)
        assert sorted(defined) == kbonacci.__all__
        namespace = {}
        exec("from kbonacci import *", namespace)
        for name in kbonacci.__all__:
            assert namespace[name] is getattr(kbonacci, name)
        with pytest.raises(AttributeError):
            kbonacci.no_such_name


def test_no_assert_statement_in_the_package():
    # python -O and PYTHONOPTIMIZE strip asserts, and a verdict must not rest
    # on a check that can be switched off
    for path in sorted(Path(kbonacci.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert not any(isinstance(node, ast.Assert) for node in ast.walk(tree)), path.name


WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads(monkeypatch):
    """perfbench/workloads.py, loaded from its path and only read."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    # dataclasses looks the module up by name while it builds Request
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


class ReachedArithmetic(Exception):
    pass


class TestBenchmarkRequests:
    """Every request the benchmark sends passes every guard of the CLI."""

    @pytest.fixture
    def kernels_fail(self, monkeypatch):
        def arithmetic(*args):
            raise ReachedArithmetic

        for name in METHODS:
            monkeypatch.setitem(METHODS, name, arithmetic)
        monkeypatch.setattr(cli, "iter_terms", arithmetic)
        # gf runs its search, cheap at these sizes, so that the guard sees
        # every N it checks; only the report's acc is forbidden
        monkeypatch.setattr("kbonacci.series._acc", arithmetic)
        monkeypatch.setattr("kbonacci.decimal_identity.verify_decimal_identity", arithmetic)
        monkeypatch.setattr("kbonacci.decimal_identity.reciprocal_digits", arithmetic)
        monkeypatch.setattr("kbonacci.classic_sums._alternating_terms_needed", arithmetic)
        monkeypatch.setattr("kbonacci.classic_sums._millin_terms_needed", arithmetic)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("workload", ["term-kernel", "term-render", "verdicts"])
    def test_every_request_reaches_the_arithmetic(
        self, kernels_fail, capsys, monkeypatch, workload, seed
    ):
        workloads = load_workloads(monkeypatch)
        assert workload in workloads.WORKLOADS
        requests = workloads.build_pass(workload, seed, 0)
        assert len(requests) > 10
        for request in requests:
            with pytest.raises(ReachedArithmetic):
                cli.parse_and_dispatch(list(request.argv))
        assert capsys.readouterr().err == ""
