"""Seeded request lists for the benchmark's workloads.

A workload is a fixed mix of CLI requests whose parameters are drawn from
the seed, one fresh list per pass. Each range is covered by a jittered
grid (see ``_draws``), so every seed covers the whole range and a pass
costs about the same whatever the seed. The program only ever sees
the generated argv.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Request:
    """One CLI invocation, as the argv after ``kbonacci``."""

    argv: tuple
    # a true identity the program is known to report as FAIL
    known_defect: bool = False
    # the set-up probe, timed into setup_s rather than the latencies
    probe: bool = False


PROBE = Request(("term", "-k", "2", "-n", "0"), probe=True)

# verify_classic caps the Millin sum at 1/F_{2^16} (_MAX_MILLIN_TERMS) and
# F_{2^17} has 27,393 digits, so from about this precision on the true
# identity is reported as FAIL (ROADMAP item 4). Requests above it stay in
# the verdicts workload and count as failed.
MILLIN_CAP_DIGITS = 27_400

# a set-up probe after every this many workload requests
PROBE_EVERY = {"term-kernel": 3, "term-render": 1, "verdicts": 3}

# Highest percentile with at least ten samples beyond it, at the request
# count one 30 s run makes on a slow stretch of the 2-core host the
# benchmark was built on (see README.md).
TAIL_PERCENTILE = {"term-kernel": 85, "term-render": 60, "verdicts": 85}

WORKLOADS = tuple(TAIL_PERCENTILE)


def _draws(rng, lo, hi, count, power=1.0):
    """``count`` values over [lo, hi), two per log-spaced block, ascending.

    In each block the two values sit near 1/4 and 3/4 of it in value**power
    space (log space for power 0), each moved by a seeded 5% of the block
    either way. Where a request costs about value**power, every pass then
    costs nearly the same and the values form nearly the same grid, so the
    pass time and the latency percentiles barely move with the seed. Log-
    spaced blocks put as many values below the range's geometric middle as
    above it. Zipping two such lists pairs them in a fixed order, so the
    pairs cost the same in every pass; build_pass shuffles the requests.
    """
    if power:
        fwd, back = (lambda v: v**power), (lambda y: y ** (1 / power))
    else:
        fwd, back = math.log, math.exp
    blocks, values = count // 2, []
    for j in range(blocks):
        a = fwd(lo * (hi / lo) ** (j / blocks))
        b = fwd(lo * (hi / lo) ** ((j + 1) / blocks))
        for at in (0.25, 0.75):
            values.append(back(a + (at + 0.1 * (rng.random() - 0.5)) * (b - a)))
    return [int(v) for v in values]


def _args(*items):
    return tuple(str(item) for item in items)


def _term_kernel(rng):
    reqs = []
    for k, share in zip(_draws(rng, 16, 128, 12), _draws(rng, 50, 100, 12, power=1.6)):
        # at most ~20k digits, fewer for large k so that requests cost about
        # the same; rho_k < 2, so F_n has fewer than n*log10(2) digits
        digits = 20_000 * (16 / k) ** 1.2 * share / 100
        reqs.append(_args("term", "-k", k, "-n", int(digits / math.log10(2))))
    for k, n0 in zip(_draws(rng, 3, 16, 8), _draws(rng, 20_000, 100_000, 8, power=2)):
        reqs.append(_args("seq", "-k", k, "--from", n0, "--to", n0 + 7))
    return reqs


def _term_render(rng):
    # the top of the seq range in every pass: its ~40 MB output sets the
    # peak RSS, which would otherwise follow the seed
    reqs = [_args("seq", "-k", 2, "--from", 0, "--to", 20_000)]
    for k in (2, 3):
        for n in _draws(rng, 300_000, 1_500_000, 4, power=2):
            reqs.append(_args("term", "-k", k, "-n", n))
    for n1 in _draws(rng, 5_000, 20_000, 2, power=2):
        reqs.append(_args("seq", "-k", 2, "--from", 0, "--to", n1))
    return reqs


def _gf(k, eta, cutoff, as_json):
    argv = ["gf", "-k", k, "--eta", eta, *cutoff]  # str(Fraction) is "p/q" or "p"
    if as_json:
        argv.append("--json")
    return _args(*argv)


def _verdicts(rng):
    # the slowest-converging gf at the top of the epsilon range in every
    # pass: its N = 16384 term list sets the peak RSS, which would
    # otherwise follow the seed
    reqs = [_gf(8, Fraction(3), ("--epsilon", "1/1" + "0" * 1_500), False)]
    # gf: four families of two, k = 2 in one of each and up to 8 in the
    # other, the second with --json. The cost grows about as N^2 (or e^2)
    # and with the size of eta's numerator and denominator.
    etas = [Fraction(p, q) for p, q in zip(_draws(rng, 5, 25, 2, power=0), (2, 3))]
    for i, (k, n, eta) in enumerate(zip((2, 7), _draws(rng, 1_000, 10_000, 2, power=2), etas)):
        reqs.append(_gf(k, eta, ("-N", n), i == 1))
    for i, (k, n, q) in enumerate(
        zip((2, 5), _draws(rng, 1_000, 5_000, 2, power=2), _draws(rng, 10, 1_000, 2, power=0))
    ):
        reqs.append(_gf(k, 2 + Fraction(1, q), ("-N", n), i == 1))
    for i, (k, n, q) in enumerate(
        zip((2, 6), _draws(rng, 1_000, 3_000, 2, power=2), _draws(rng, 10**6, 10**9, 2, power=0))
    ):
        p = 3 * q + i * q  # eta just above 3 or 4, in lowest terms
        while math.gcd(p, q) != 1:
            p += 1
        reqs.append(_gf(k, Fraction(p, q), ("-N", n), i == 1))
    for i, (k, e, eta) in enumerate(
        zip((2, 8), _draws(rng, 30, 1_500, 2, power=2), _draws(rng, 3, 11, 2, power=0))
    ):
        reqs.append(_gf(k, Fraction(eta), ("--epsilon", "1/1" + "0" * e), i == 1))
    for top in _draws(rng, 50, 300, 2, power=2):
        reqs.append(_args("verify-decimal", "-k", rng.randint(2, 10), "--max-k", top))
    for m in _draws(rng, 20_000, 200_000, 2):
        reqs.append(_args("digits", "-k", rng.randint(2, 40), "-m", m))
    for d in _draws(rng, 50, 3_000, 4, power=2):
        reqs.append(_args("verify-classic", "--identity", "alternating", "--digits", d))
    for d in _draws(rng, 100, MILLIN_CAP_DIGITS - 400, 4, power=1.6):
        reqs.append(_args("verify-classic", "--identity", "millin", "--digits", d))
    requests = [Request(argv) for argv in reqs]
    for d in _draws(rng, MILLIN_CAP_DIGITS + 600, 40_000, 2, power=1.6):
        argv = _args("verify-classic", "--identity", "millin", "--digits", d)
        requests.append(Request(argv, known_defect=True))
    return requests


_BUILDERS = {"term-kernel": _term_kernel, "term-render": _term_render, "verdicts": _verdicts}


def build_pass(workload: str, seed: int, index: int = 0) -> list:
    """Request list of pass ``index`` of a seeded run, with set-up probes interleaved.

    Every pass draws fresh requests from the same mix.
    """
    rng = random.Random(f"{workload}:{seed}:{index}")
    drawn = [r if isinstance(r, Request) else Request(r) for r in _BUILDERS[workload](rng)]
    rng.shuffle(drawn)
    requests = [PROBE]
    for i, request in enumerate(drawn, 1):
        requests.append(request)
        if i % PROBE_EVERY[workload] == 0:
            requests.append(PROBE)
    return requests
