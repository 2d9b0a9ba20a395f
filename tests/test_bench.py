import json

import pytest

import kbonacci.bench as bench
from kbonacci.bench import (
    BenchConfig,
    BenchRecord,
    MethodMismatchError,
    emit_report,
    load_config,
    min_wall_times,
    parse_report,
    run_bench,
)
from kbonacci import bounds, sequence
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
            # the CLI's order, index, oracle, matrix and cost bounds
            dict(k_values=[100_001], n_values=[0]),
            dict(n_values=[10**9], methods=["naive"]),
            dict(n_values=[33_219_281], methods=["polymod"]),
            dict(n_values=[250_001], methods=["naive"]),
            dict(k_values=[3], n_values=[740_741], methods=["matrix"]),
            dict(k_values=[3], n_values=[17_488_316], methods=["polymod"]),
            dict(repetitions=101),
            # the grid's bound: two cells at the top of their bounds, at 100
            dict(n_values=[33_219_280, 33_219_279], repetitions=100, methods=["polymod"]),
            dict(n_values=[250_000], repetitions=100, methods=["naive", "matrix"]),
        ],
    )
    def test_rejects_bad_fields(self, bad, tmp_path):
        # through the JSON file, which is where a user's fields come from
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(small_config_dict(**bad)))
        with pytest.raises(ValueError):
            load_config(str(path))


def test_accepts_the_edges_of_every_bound():
    # built, not run
    small_config(k_values=[100_000], n_values=[0], methods=["polymod"], repetitions=100)
    small_config(k_values=[2], n_values=[250_000], methods=["naive"])
    small_config(k_values=[3], n_values=[740_740], methods=["matrix"])
    small_config(k_values=[2, 3], n_values=[17_488_315], methods=["polymod"])


class TestGridBound:
    """A grid is refused when its work passes that of its largest cell at 100 repetitions."""

    TOP = bounds._MAX_INDEX

    @pytest.mark.parametrize(
        "k_values,n_values,repetitions,methods",
        [
            ([2], [TOP, TOP - 1], 50, ["polymod"]),
            ([2], [250_000], 100, ["naive"]),
            ([2], [250_000, 100], 99, ["naive"]),
            ([3], [740_740], 100, ["matrix"]),
            ([2], [2_500_000], 100, ["matrix"]),
            ([271], [0, 1], 50, ["matrix"]),
            ([100_000], [0], 100, ["polymod"]),
        ],
    )
    def test_accepts_up_to_the_work_of_one_top_cell(self, k_values, n_values, repetitions, methods):
        BenchConfig(k_values, n_values, repetitions, methods)

    @pytest.mark.parametrize(
        "k_values,n_values,repetitions,methods,ratio",
        [
            ([2], [TOP, TOP - 1], 51, ["polymod"], "1.02"),
            ([2], [250_000, 2500], 100, ["naive"], "1.01"),
            ([3], [250_000], 100, ["matrix", "naive"], "1.34"),
            ([2, 3], [17_488_315], 66, ["polymod"], "1.01"),
            ([2], list(range(TOP - 999, TOP + 1)), 100, ["polymod"], "999.99"),
        ],
    )
    def test_refuses_more_before_any_timing(
        self, monkeypatch, k_values, n_values, repetitions, methods, ratio
    ):
        def timed(*args):
            raise AssertionError("a refused grid was timed")

        for name in sequence.METHODS:
            monkeypatch.setitem(bench.METHODS, name, timed)
        cells = len(k_values) * len(n_values) * len(methods)
        message = (
            f"a grid of {cells} cells at {repetitions} repetitions has a modelled cost of"
            f" {ratio} times the most a grid may cost, that of k = 2, n = {self.TOP} at 100"
        )
        with pytest.raises(ValueError, match=message):
            BenchConfig(k_values, n_values, repetitions, methods)


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
        monkeypatch.setitem(bench.METHODS, "matrix", lambda k, n, cast: cast(12345))
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
    """A record's result_digits, from the Decimal term the method returns."""

    @staticmethod
    def result_digits(monkeypatch, value):
        monkeypatch.setitem(bench.METHODS, "polymod", lambda k, n, cast: cast(value))
        [record] = run_bench(BenchConfig([2], [0], 1, ["polymod"]))
        assert record.checksum == value % 2**64
        return record.result_digits

    @pytest.mark.parametrize(
        "value,expected",
        [(0, 1), (9, 1), (10, 2), (99, 2), (100, 3), (10**100 - 1, 100), (10**100, 101)],
    )
    def test_boundaries(self, monkeypatch, value, expected):
        assert self.result_digits(monkeypatch, value) == expected

    def test_against_str_on_moderate_values(self, monkeypatch):
        import random

        rng = random.Random(20260816)
        for _ in range(300):
            v = rng.randrange(10 ** rng.randrange(1, 60))
            assert self.result_digits(monkeypatch, v) == len(str(v))


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
