import json
from fractions import Fraction
from itertools import islice

import pytest

import kbonacci.cli as cli
from kbonacci.bench import METHODS
from kbonacci.classic_sums import ClassicReport
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

    def test_big_term_matches_str(self, capsys):
        code, out, err = run(capsys, ["term", "-k", "2", "-n", "300000"])
        assert (code, err) == (0, "")
        assert out == str(term_fast(2, 300_000)) + "\n"


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

    def test_far_window_matches_term_fast(self, capsys):
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

    def test_big_json_matches_str(self, capsys):
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

    def test_failed_report_exits_one(self, capsys, monkeypatch):
        broken = EvalReport(
            point=SeriesPoint(k=2, eta=Fraction(10)),
            n_trunc=5,
            partial=Fraction(1),
            closed=Fraction(2),
            tail_bound=Fraction(0),
            residual=Fraction(1),
            passed=False,
        )
        monkeypatch.setattr(cli, "evaluate", lambda point, n: broken)
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

    def test_backwards_sweep_rejected(self, capsys):
        code, _, err = run(capsys, ["verify-decimal", "-k", "5", "--max-k", "3"])
        assert code == 2

    def test_failure_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "verify_decimal_identity", lambda k: False)
        code, out, _ = run(capsys, ["verify-decimal", "-k", "2"])
        assert code == 1
        assert out.splitlines()[-1].endswith("FAIL")


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

    def test_too_few_digits(self, capsys):
        code, _, err = run(
            capsys, ["verify-classic", "--identity", "millin", "--digits", "3"]
        )
        assert code == 2
        assert "usage:" in err

    def test_unknown_identity(self, capsys):
        code, _, _ = run(
            capsys, ["verify-classic", "--identity", "golden", "--digits", "8"]
        )
        assert code == 2

    def test_failure_exits_one(self, capsys, monkeypatch):
        broken = ClassicReport(
            identity="alternating",
            terms=4,
            digits=6,
            value=Fraction(0),
            target=Fraction(1),
            abs_diff=Fraction(1),
            passed=False,
        )
        monkeypatch.setattr(cli, "verify_classic", lambda identity, d: broken)
        code, out, _ = run(
            capsys, ["verify-classic", "--identity", "alternating", "--digits", "6"]
        )
        assert code == 1
        assert out.splitlines()[-1] == "FAIL"


class TestDigits:
    def test_prints_digit_string(self, capsys):
        code, out, _ = run(capsys, ["digits", "-k", "2", "-m", "10"])
        assert (code, out) == (0, "0112359550\n")

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
        ],
    )
    def test_malformed_config_is_usage_error(self, capsys, tmp_path, content, message):
        # exit 1 means a verification FAIL, so a bad config must not reach it
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(content))
        code, out, err = run(capsys, ["bench", "--config", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}")


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

    def test_main_uses_argv(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.argv", ["kbonacci", "term", "-k", "2", "-n", "7"])
        with pytest.raises(SystemExit) as exc:
            cli.main()
        assert exc.value.code == 0
        assert capsys.readouterr().out == "13\n"
