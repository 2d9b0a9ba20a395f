import json

import pytest

import kbonacci.bench as bench
from kbonacci.bench import (
    BenchConfig,
    BenchRecord,
    MethodMismatchError,
    digit_count,
    emit_report,
    load_config,
    min_wall_times,
    parse_report,
    run_bench,
)
from kbonacci import sequence
from kbonacci.sequence import term_fast, term_matrix, term_naive

COLUMNS = ["method", "k", "n", "rep", "wall_time", "result_digits", "checksum"]


def small_config_dict(**overrides):
    base = dict(
        k_values=[2], n_values=[0, 40], repetitions=2, methods=["naive", "polymod"]
    )
    base.update(overrides)
    return base


def small_config(**overrides):
    return BenchConfig(**small_config_dict(**overrides))


class TestConfigValidation:
    def test_accepts_reasonable_config(self):
        cfg = small_config()
        assert cfg.methods == ("naive", "polymod")

    @pytest.mark.parametrize(
        "bad",
        [
            dict(k_values=[]),
            dict(n_values=[]),
            dict(methods=[]),
            dict(repetitions=0),
            dict(k_values=[1]),
            dict(n_values=[-1]),
            dict(methods=["fastest"]),
            dict(n_values=["5"]),
            dict(k_values=[True]),
            dict(repetitions="2"),
            dict(repetitions=True),
            dict(methods=[["naive"]]),
            dict(k_values=5),
            # misspelled keys must not fall back to their defaults
            {"k_values": [2], "n_values": [5], "repetition": 3, "method": ["naive"]},
        ],
    )
    def test_rejects_bad_fields(self, bad, tmp_path):
        # through the JSON file, which is where a user's fields come from
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(small_config_dict(**bad)))
        with pytest.raises(ValueError):
            load_config(str(path))


class TestRunBench:
    def test_one_record_per_cell_and_rep(self):
        cfg = small_config()
        records = run_bench(cfg)
        assert len(records) == 1 * 2 * 2 * 2
        key = lambda r: (r.method, r.k, r.n, r.rep)
        assert len({key(r) for r in records}) == len(records)
        assert {r.rep for r in records} == {0, 1}
        assert all(r.wall_time >= 0 for r in records)

    def test_term_zero_record(self):
        records = run_bench(small_config(n_values=[0], repetitions=1))
        assert all(r.result_digits == 1 and r.checksum == 0 for r in records)

    def test_checksums_agree_across_methods(self):
        cfg = BenchConfig(
            k_values=[2, 4],
            n_values=[0, 17, 1200],
            repetitions=1,
            methods=["naive", "matrix", "polymod"],
        )
        records = run_bench(cfg)
        by_cell = {}
        for r in records:
            by_cell.setdefault((r.k, r.n), set()).add(r.checksum)
        assert all(len(sums) == 1 for sums in by_cell.values())

    def test_full_value_equality_small_indices(self):
        # checksums compress the comparison; on small indices the full
        # integers must agree as well
        for k in (2, 3, 4):
            for n in (0, 1, 999, 2000):
                assert term_naive(k, n) == term_matrix(k, n) == term_fast(k, n)

    def test_uses_the_sequence_registry(self):
        # one registry: patching bench.METHODS patches what the CLI sees
        assert bench.METHODS is sequence.METHODS
        assert sequence.METHODS == {
            "naive": term_naive,
            "matrix": term_matrix,
            "polymod": term_fast,
        }

    def test_mismatch_aborts(self, monkeypatch):
        monkeypatch.setitem(bench.METHODS, "matrix", lambda k, n: 12345)
        cfg = BenchConfig([2], [10], 1, ["naive", "matrix"])
        with pytest.raises(MethodMismatchError):
            run_bench(cfg)


class TestReports:
    def test_csv_header_only_when_empty(self):
        assert emit_report([], "csv") == ",".join(COLUMNS) + "\n"

    def test_csv_single_record(self):
        rec = BenchRecord("naive", 2, 10, 0, 0.25, 2, 55)
        doc = emit_report([rec], "csv")
        lines = doc.splitlines()
        assert len(lines) == 2
        assert lines[0].split(",") == COLUMNS
        assert lines[1] == "naive,2,10,0,0.25,2,55"

    def test_csv_round_trip(self):
        records = run_bench(small_config())
        assert parse_report(emit_report(records, "csv"), "csv") == records

    def test_json_round_trip(self):
        records = run_bench(small_config())
        assert parse_report(emit_report(records, "json"), "json") == records

    def test_json_key_order(self):
        records = run_bench(small_config(n_values=[5], repetitions=1))
        parsed = json.loads(emit_report(records, "json"))
        assert all(list(entry) == COLUMNS for entry in parsed)

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            emit_report([], "xml")
        with pytest.raises(ValueError):
            parse_report("", "xml")

    def test_malformed_csv_rejected(self):
        with pytest.raises(ValueError):
            parse_report("not,a,bench,header\n", "csv")

    def test_min_wall_times(self):
        records = [
            BenchRecord("naive", 2, 10, 0, 0.5, 2, 55),
            BenchRecord("naive", 2, 10, 1, 0.2, 2, 55),
            BenchRecord("naive", 2, 10, 2, 0.9, 2, 55),
        ]
        assert min_wall_times(records) == {("naive", 2, 10): 0.2}


class TestDigitCount:
    @pytest.mark.parametrize(
        "value,expected",
        [(0, 1), (9, 1), (10, 2), (99, 2), (100, 3), (10**100 - 1, 100), (10**100, 101)],
    )
    def test_boundaries(self, value, expected):
        assert digit_count(value) == expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            digit_count(-1)

    def test_against_str_on_moderate_values(self):
        import random

        rng = random.Random(20260816)
        for _ in range(300):
            v = rng.randrange(10 ** rng.randrange(1, 60))
            assert digit_count(v) == len(str(v))


class TestLoadConfig:
    def test_round_trip_through_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps(
                {
                    "k_values": [2, 3],
                    "n_values": [100],
                    "repetitions": 2,
                    "methods": ["polymod"],
                }
            )
        )
        cfg = load_config(str(path))
        assert cfg == BenchConfig([2, 3], [100], 2, ["polymod"])

    def test_defaults_applied(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"k_values": [2], "n_values": [10]}))
        cfg = load_config(str(path))
        assert cfg.repetitions == 1
        assert cfg.methods == ("naive", "matrix", "polymod")

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n_values": [10]}))
        with pytest.raises(ValueError):
            load_config(str(path))
