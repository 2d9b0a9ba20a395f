"""Acceptance suite.

Eight criteria, each printed as a one-line PASS/FAIL verdict with its
measured wall time (the printing bypasses capture so the lines are
visible in a normal pytest run).  Every criterion also asserts, so a
FAIL fails the build.  Stated time budgets are part of the criteria and
are asserted alongside correctness.
"""

import time
from fractions import Fraction

from kbonacci.bench import BenchConfig, emit_report, min_wall_times, parse_report, run_bench
from kbonacci.classic_sums import alternating_reciprocal_sum, millin_type_sum
from kbonacci.decimal_identity import repunit_denominator
from kbonacci.sequence import range_terms, term_fast, term_matrix
from kbonacci.series import SeriesPoint, closed_form, evaluate_range


def _verdict(capsys, index, name, ok, elapsed):
    with capsys.disabled():
        print(f"[criterion {index}] {name}: {'PASS' if ok else 'FAIL'} ({elapsed:.3f}s)")


def newton_isqrt(n: int) -> int:
    """Independent integer-sqrt oracle (Newton iteration from above)."""
    if n == 0:
        return 0
    x = 1 << ((n.bit_length() + 1) // 2)
    while True:
        y = (x + n // x) // 2
        if y >= x:
            return x
        x = y


def test_criterion_1_sequence_goldens(capsys):
    start = time.perf_counter()
    ok = (
        range_terms(2, 0, 8) == [0, 1, 1, 2, 3, 5, 8, 13, 21]
        and range_terms(3, 0, 8) == [0, 0, 1, 1, 2, 4, 7, 13, 24]
    )
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 0.001
    _verdict(capsys, 1, "sequence goldens", ok, elapsed)
    assert ok


def test_criterion_2_closed_form_goldens(capsys):
    start = time.perf_counter()
    ok = all(
        closed_form(SeriesPoint(k=k, eta=Fraction(10))) / 10 == Fraction(1, den)
        for k, den in [(2, 89), (3, 889), (4, 8889), (5, 88889)]
    )
    ok = ok and all(
        closed_form(SeriesPoint(k=k, eta=Fraction(10))) / 10
        == Fraction(1, repunit_denominator(k).value)
        for k in range(2, 17)
    )
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 0.010
    _verdict(capsys, 2, "closed-form goldens", ok, elapsed)
    assert ok


def test_criterion_3_series_soundness(capsys):
    start = time.perf_counter()
    etas = [Fraction(5, 2), Fraction(3), Fraction(4), Fraction(10), Fraction(100)]
    ok = True
    for k in range(2, 9):
        for eta in etas:
            final = None
            for report in evaluate_range(SeriesPoint(k=k, eta=eta), 200):
                ok = ok and report.passed
                final = report
            if eta >= 3:
                ok = ok and abs(final.residual) < Fraction(1, 10**30)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    _verdict(capsys, 3, "series soundness and tail bounds", ok, elapsed)
    assert ok


def test_criterion_4_method_equivalence(capsys):
    start = time.perf_counter()
    ok = True
    for k in range(2, 9):
        reference = range_terms(k, 0, 1000)
        for n in range(1001):
            value = reference[n]
            ok = ok and term_fast(k, n) == value and term_matrix(k, n) == value
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    _verdict(capsys, 4, "three-method equivalence", ok, elapsed)
    assert ok


def test_criterion_5_ratio_lemma(capsys):
    start = time.perf_counter()
    ok = True
    for k in range(2, 9):
        values = range_terms(k, 0, 2001)
        for n in range(k - 1, 2000):
            ok = ok and values[n + 1] <= 2 * values[n]
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    _verdict(capsys, 5, "at-most-doubling ratio lemma", ok, elapsed)
    assert ok


def test_criterion_6_denominator_algebra(capsys):
    start = time.perf_counter()
    ok = True
    for k in range(2, 65):
        value = repunit_denominator(k).value
        rendered = str(value)
        ok = ok and 9 * value == 8 * 10**k + 1
        ok = ok and rendered == "8" * (k - 1) + "9"
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _verdict(capsys, 6, "denominator algebra and digit shape", ok, elapsed)
    assert ok


def test_criterion_7_classic_identities(capsys):
    start = time.perf_counter()
    root5 = Fraction(newton_isqrt(5 * 10**80), 10**40)
    alternating = alternating_reciprocal_sum(60)
    millin = millin_type_sum(7)
    ok = abs(alternating - (2 - root5)) < Fraction(1, 10**10)
    ok = ok and abs(millin - (7 - root5) / 2) < Fraction(1, 10**12)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _verdict(capsys, 7, "classic sums vs sqrt5 oracle", ok, elapsed)
    assert ok


def test_criterion_8_performance_crossover(capsys):
    start = time.perf_counter()
    timer = time.perf_counter()
    term_fast(2, 10**6)
    fast_direct = time.perf_counter() - timer
    ok = fast_direct < 5.0

    # checksum agreement at a grid point where both methods run
    records = run_bench(BenchConfig([2], [10**4], 1, ["naive", "polymod"]))
    sums = {r.method: r.checksum for r in records}
    ok = ok and sums["naive"] == sums["polymod"]

    # crossover, demonstrated from the CSV report: the fast method's
    # full 10^6 run beats the iterative method's measured 10^5 time
    # scaled by 10, a per-step linear extrapolation that understates
    # the iterative cost at 10^6 (its steps get more expensive as the
    # terms grow)
    records = run_bench(BenchConfig([2], [10**5], 3, ["naive"]))
    records += run_bench(BenchConfig([2], [10**6], 3, ["polymod"]))
    parsed = parse_report(emit_report(records, "csv"), "csv")
    best = min_wall_times(parsed)
    naive_small = best[("naive", 2, 10**5)]
    fast_large = best[("polymod", 2, 10**6)]
    ok = ok and fast_large < 10 * naive_small
    elapsed = time.perf_counter() - start
    _verdict(capsys, 8, "fast-method budget and crossover", ok, elapsed)
    assert ok
