"""Tests of the benchmark itself: seeding, output checks and the drift guard.

    python3 -m pytest -q perfbench
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import workloads
from workloads import Request

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.set_int_max_str_digits(0)

from kbonacci.sequence import term_fast  # noqa: E402

# request, and the text after which a digit of its output is corrupted
# (None: the middle of the output)
SMALL = [
    (("term", "-k", "3", "-n", "500"), None),
    (("seq", "-k", "3", "--from", "0", "--to", "40"), None),
    (("seq", "-k", "5", "--from", "300", "--to", "303"), None),
    (("gf", "-k", "2", "--eta", "10", "-N", "30"), "closed = "),
    (("gf", "-k", "4", "--eta", "5/2", "--epsilon", "1/1000000", "--json"), '"closed": "'),
    (("verify-decimal", "-k", "2", "--max-k", "6"), "1/8"),
    (("digits", "-k", "3", "-m", "60"), None),
    (("verify-classic", "--identity", "alternating", "--digits", "30"), "target = -0."),
    (("verify-classic", "--identity", "millin", "--digits", "30"), "target = 2."),
]


def _corrupt(text, marker):
    at = len(text) // 2 if marker is None else text.index(marker) + len(marker) + 2
    while not text[at].isdigit():
        at += 1
    return text[:at] + str((int(text[at]) + 1) % 10) + text[at + 1 :]


def _cli(argv, path):
    with open(path, "wb") as out:
        done = subprocess.run(
            [sys.executable, "-m", "kbonacci.cli", *argv], cwd=ROOT, stdout=out,
            env=dict(os.environ, PYTHONPATH="src"), timeout=120,
        )
    return done.returncode


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_requests(workload):
    for index in range(3):
        assert workloads.build_pass(workload, 7, index) == workloads.build_pass(workload, 7, index)
    assert workloads.build_pass(workload, 7) != workloads.build_pass(workload, 8)
    assert workloads.build_pass(workload, 7, 0) != workloads.build_pass(workload, 7, 1)


def test_millin_above_cap_is_the_only_known_defect():
    requests = workloads.build_pass("verdicts", 3)
    for request in requests:
        above_cap = request.argv[:3] == ("verify-classic", "--identity", "millin") and int(
            request.argv[-1]
        ) > workloads.MILLIN_CAP_DIGITS
        assert request.known_defect == above_cap
    assert sum(r.known_defect for r in requests) == 2


def test_kbonacci_mod_matches_the_library():
    for k in (2, 3, 7, 40):
        for n in (0, 1, k - 1, k, k + 1, 99, 1234):
            assert checks.kbonacci_mod(k, n) == term_fast(k, n) % checks.P


@pytest.mark.parametrize("argv, marker", SMALL, ids=[" ".join(a[:3]) for a, _ in SMALL])
def test_right_output_passes_and_corrupted_fails(argv, marker, tmp_path):
    path = tmp_path / "out"
    code = _cli(argv, path)
    request = Request(argv)
    assert checks.check(request, path, code) is None
    text = path.read_text()
    path.write_text(_corrupt(text, marker))
    assert checks.check(request, path, code) is not None
    path.write_text(text[: len(text) // 2])
    assert checks.check(request, path, code) is not None


def test_false_fail_counts_but_only_known_defects_keep_correct(tmp_path):
    argv = ("verify-classic", "--identity", "millin", "--digits", "28000")
    path = tmp_path / "out"
    code = _cli(argv, path)
    assert code == 1
    assert checks.check(Request(argv), path, code) == checks.FALSE_FAIL
    outcome = run.Outcome(1.0, code, 20_000, 1.0, "digest", checks.FALSE_FAIL)
    tally = run.Tally()
    tally.add(Request(argv, known_defect=True), outcome)
    assert (tally.failed, tally.correct) == (1, True)
    tally.add(Request(argv), outcome)
    assert (tally.failed, tally.correct) == (2, False)


def test_runner_times_checks_calibrates_and_isolates_rss():
    run.OUT.mkdir(exist_ok=True)
    with run.Runner() as runner:
        good = runner.run(Request(("term", "-k", "2", "-n", "90")))
        bad = runner.run(Request(("term", "-k", "2", "-n", "-1")))
        start_up, arithmetic = runner.calibrate()
    assert start_up > 0 and arithmetic > 0
    assert good.reason is None and good.exit_code == 0 and good.latency_s > 0
    assert bad.reason is not None and bad.exit_code == 2
    assert runner.launcher_hwm_kb < good.maxrss_kb


def test_drift_guard_trips_on_a_mismatch():
    import replay

    run.OUT.mkdir(exist_ok=True)
    requests = [Request(argv) for argv, _ in SMALL]
    with run.Runner() as runner:
        outcomes = [runner.run(r) for r in requests]
    tracer = replay.Tracer()
    results = [replay.replay(r.argv, tracer, i) for i, r in enumerate(requests)]
    assert run.drifted(results, outcomes) == []
    results[4] = (results[4][0], "0" * 64)
    results[6] = (1 - results[6][0], results[6][1])
    assert run.drifted(results, outcomes) == [4, 6]
    metrics = replay.layer_metrics(tracer, 0.0)
    assert sum(metrics[f"{m}.share"] for m in replay.MODULES) == pytest.approx(1)
    assert metrics["classic_sums.terms"] > 0 and metrics["series.n_trunc"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verdicts", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
