"""Closed-loop CLI benchmark for kbonacci: one client, one request at a time.

    python3 perfbench/run.py --workload term-kernel --seed 1 --seconds 30 --trace 0

Run from the repository root. Each request of the workload's seeded list
runs as ``python -m kbonacci.cli ...`` with ``PYTHONPATH=src`` and is timed
from spawn to the last byte of its standard output. The output is spooled to
a file and checked after the timing by the oracles in ``checks.py``.

With ``--trace 0`` the list is run pass after pass until the requests have
taken ``--seconds`` of wall time, and the end-to-end metrics are printed.
With ``--trace 1`` the list runs once as subprocesses, then twice in-process
(``replay.py``): untraced, and with a span around each call into a library
module; the per-layer metrics come from the traced replay. Either way the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
metrics by name and unit, and the environment the run saw.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import workloads
from checks import FALSE_FAIL, check

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
TIMEOUT_S = 60

# A fixed child that loads only the standard library, so no change to the
# program can move its time. It prints how long its arithmetic took; the
# rest of its wall time is start-up. See measure().
CALIBRATION_ARGV = (
    sys.executable, "-I", "-c",
    "import fractions, json, sys, time; sys.set_int_max_str_digits(0); "
    "t = time.perf_counter(); x = 3 ** 40_000; y = len(str(x * (x + 1))); "
    "s = sum(i * i for i in range(100_000)); print(time.perf_counter() - t)",
)
# its start-up and arithmetic seconds on the 2-core host the baseline was
# measured on
CALIBRATION_REF_S = (0.043, 0.028)
# one calibration per this much request time, so the calibrations sample
# the host over the run as evenly as the requests do
CALIBRATE_EVERY_S = 0.5

END_TO_END_UNITS = {
    "wall_s": "s",
    "latency_s.p50": "s",
    "latency_s.tail": "s",
    "success_rate": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class HarnessError(RuntimeError):
    """The run cannot measure what it reports."""


@dataclass
class Outcome:
    latency_s: float
    exit_code: int
    maxrss_kb: int
    cpu_s: float
    digest: str
    # None when the output checked out, else why it did not
    reason: str | None


class Runner:
    """Runs one request at a time through launcher.py, then checks its output."""

    def __init__(self):
        self.stdout_path = OUT / "stdout"
        self.launcher = subprocess.Popen(
            [sys.executable, "-I", "-S", str(ROOT / "perfbench" / "launcher.py"),
             str(self.stdout_path), str(OUT / "stderr"), str(TIMEOUT_S)],
            cwd=ROOT,
            env=dict(os.environ, PYTHONPATH="src"),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.launcher_hwm_kb = 0
        # (argv, digest, exit code) -> reason: an output once checked need
        # not be parsed again when a request repeats it byte for byte
        self.checked = {}

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *_):
        if exc_type is not None:
            self.launcher.terminate()  # the launcher kills its child, if any
        self.launcher.stdin.close()  # at end of input the launcher exits
        try:
            self.launcher.wait(timeout=TIMEOUT_S)
        finally:
            self.launcher.kill()
            self.launcher.wait()
            self.launcher.stdout.close()

    def _launch(self, argv):
        self.launcher.stdin.write("\0".join(argv) + "\n")
        self.launcher.stdin.flush()
        reply = self.launcher.stdout.readline().split()
        if len(reply) != 6:
            raise HarnessError("launcher stopped")
        latency, cpu = float(reply[0]), float(reply[3])
        code, maxrss_kb, finished, hwm_kb = (int(field) for field in reply[1:3] + reply[4:])
        self.launcher_hwm_kb = max(self.launcher_hwm_kb, hwm_kb)
        return latency, code, maxrss_kb, cpu, finished

    def calibrate(self):
        """Start-up and arithmetic seconds of the calibration child: the host's speed."""
        latency, code, *_ = self._launch(CALIBRATION_ARGV)
        if code != 0:
            raise HarnessError(f"calibration child exited {code}")
        arithmetic = float(self.stdout_path.read_text())
        return latency - arithmetic, arithmetic

    def run(self, request) -> Outcome:
        argv = [sys.executable, "-m", "kbonacci.cli", *request.argv]
        latency, code, maxrss_kb, cpu, finished = self._launch(argv)
        digest = _sha256(self.stdout_path)
        key = (request.argv, digest, code)
        if not finished:
            reason = f"timeout after {TIMEOUT_S} s"
        elif key in self.checked:
            reason = self.checked[key]
        else:
            reason = self.checked[key] = check(request, self.stdout_path, code)
        return Outcome(latency, code, maxrss_kb, cpu, digest, reason)


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class Tally:
    """Outcomes of a run: attempted, failed, and whether every failure is known."""

    def __init__(self):
        self.outcomes = []
        self.failed = 0
        self.unexpected = []

    def add(self, request, outcome):
        self.outcomes.append((request, outcome))
        if outcome.reason is None:
            return
        self.failed += 1
        if not (request.known_defect and outcome.reason == FALSE_FAIL):
            self.unexpected.append((request.argv, outcome.reason))

    @property
    def correct(self):
        return not self.unexpected


def _guard_rss(runner, tally):
    """Fail the run if the launcher's own peak RSS could show in a child's.

    A child's ru_maxrss starts from the launcher's resident size at the
    fork, so it is the child's own only while the launcher stays smaller.
    """
    smallest_kb = min(outcome.maxrss_kb for _, outcome in tally.outcomes)
    if runner.launcher_hwm_kb >= smallest_kb:
        raise HarnessError(
            f"launcher peak RSS {runner.launcher_hwm_kb} kB reaches a child's {smallest_kb} kB"
        )


def measure(build_pass, seconds, tail_percentile, runner, tally):
    """Run whole passes until the requests have taken ``seconds``.

    ``build_pass(i)`` gives the request list of pass i. Each pass is a
    balanced sample of the mix, so no pass is cut short: ``wall_s`` is the
    median of the pass wall times, and the latencies and set-up times are
    pooled over the passes.

    The shared host this was built on changes speed by up to a half over
    minutes, sometimes for process start-up (fork, exec, imports) alone and
    sometimes for arithmetic too. So between requests, untimed, the
    launcher runs the calibration child once per CALIBRATE_EVERY_S of
    request time, and every timing is scaled to the reference host speed
    in two parts: its start-up, taken as the run's median set-up probe
    time, by the reference over the median start-up of the calibration
    child, and the rest by the reference over the child's median
    arithmetic time. The unscaled values are printed too.
    """
    passes, busy, loops, owed = [], 0.0, [], 0.0
    while busy < seconds or not passes:
        timed = []
        for request in build_pass(len(passes)):
            outcome = runner.run(request)
            tally.add(request, outcome)
            owed += outcome.latency_s
            while owed >= CALIBRATE_EVERY_S or not loops:
                loops.append(runner.calibrate())
                owed -= CALIBRATE_EVERY_S
            busy += outcome.latency_s
            timed.append((request.probe, outcome.latency_s))
        passes.append(timed)
    _guard_rss(runner, tally)
    probes = [t for timed in passes for probe, t in timed if probe]
    work = [t for timed in passes for probe, t in timed if not probe]
    start_up = statistics.median(probes)
    probe_rss = [o.maxrss_kb for r, o in tally.outcomes if r.probe]
    speed = [ref / statistics.median(part) for ref, part in zip(CALIBRATION_REF_S, zip(*loops))]

    def summary(adjust):
        latencies = [adjust(t) for t in work]
        cuts = statistics.quantiles(latencies, n=100, method="inclusive")
        return {
            "wall_s": statistics.median(sum(adjust(t) for _, t in timed) for timed in passes),
            "latency_s.p50": statistics.median(latencies),
            "latency_s.tail": cuts[tail_percentile - 1],
            "setup_s": statistics.median(map(adjust, probes)),
        }

    metrics = {
        **summary(lambda t: min(t, start_up) * speed[0] + max(t - start_up, 0) * speed[1]),
        "success_rate": 1 - tally.failed / len(tally.outcomes),
        "peak_rss_mb": max(o.maxrss_kb for _, o in tally.outcomes) / 1024,
    }
    record = {
        "unscaled": summary(lambda t: t),
        "calibration_s_start_up_arithmetic": [statistics.median(part) for part in zip(*loops)],
        "speed_start_up_arithmetic": speed,
        "passes": len(passes),
        "requests_timed": len(work),
        "tail_percentile": tail_percentile,
        "probe_rss_kb_first_last": [probe_rss[0], probe_rss[-1]],
        "launcher_peak_rss_kb": runner.launcher_hwm_kb,
    }
    return {name: (metrics[name], unit) for name, unit in END_TO_END_UNITS.items()}, record


def trace(requests, spans_path, runner, tally):
    """One subprocess pass, then untraced and traced in-process replays."""
    for request in requests:
        tally.add(request, runner.run(request))
    _guard_rss(runner, tally)
    sys.path.insert(0, str(ROOT / "src"))
    import replay

    # each request replays untraced and then traced, so that host drift
    # falls on both alike
    tracer, walls, results = replay.Tracer(), [0.0, 0.0], ([], [])
    for i, request in enumerate(requests):
        for j, each in enumerate((replay.NullTracer(), tracer)):
            start = time.perf_counter()
            results[j].append(replay.replay(request.argv, each, i))
            walls[j] += time.perf_counter() - start
    outcomes = [o for _, o in tally.outcomes]
    drift = sorted(set(drifted(results[0], outcomes) + drifted(results[1], outcomes)))
    tally.unexpected.extend((requests[i].argv, "replay output differs") for i in drift)
    metrics = replay.layer_metrics(tracer, walls[1] - walls[0])
    metrics["trace.drift"] = len(drift)
    spans_path.write_text(json.dumps({"requests": [r.argv for r in requests], "spans": tracer.spans}))
    record = {"replay_wall_s_untraced_traced": walls, "spans": str(spans_path.relative_to(ROOT))}
    return {name: (value, _layer_unit(name)) for name, value in metrics.items()}, record


def drifted(results, outcomes):
    """Indices where a replay's (exit code, stdout hash) differs from the subprocess's."""
    return [
        i
        for i, ((code, digest), outcome) in enumerate(zip(results, outcomes, strict=True))
        if (code, digest) != (outcome.exit_code, outcome.digest)
    ]


def _layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(".share"):
        return "ratio"
    return {"sequence.result_bits": "bits", "cli.bytes_out": "bytes"}.get(name, "count")


def _commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a SIGTERM unwinds through Runner.__exit__, which stops the launcher
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "kbonacci" / "cli.py").is_file():
        print(f"error: no kbonacci sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    sys.set_int_max_str_digits(0)  # the checks parse terms of many thousand digits

    tally = Tally()
    try:
        with Runner() as runner:
            for _ in range(2):  # compile bytecode and warm the file cache, untimed
                warm = runner.run(workloads.PROBE)
                if warm.reason is not None:
                    raise HarnessError(f"warm-up request failed: {warm.reason}")
            if args.trace:
                spans_path = OUT / f"spans-{args.workload}-{args.seed}.json"
                requests = workloads.build_pass(args.workload, args.seed)
                metrics, record = trace(requests, spans_path, runner, tally)
            else:
                build_pass = lambda i: workloads.build_pass(args.workload, args.seed, i)  # noqa: E731
                tail = workloads.TAIL_PERCENTILE[args.workload]
                metrics, record = measure(build_pass, args.seconds, tail, runner, tally)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    attempted = len(tally.outcomes)
    environment = {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": _commit(),
        "child_cpu_s": sum(o.cpu_s for _, o in tally.outcomes),
        "fail_rate": tally.failed / attempted,
        "known_defect_failures": sum(
            o.reason == FALSE_FAIL for r, o in tally.outcomes if r.known_defect
        ),
        **record,
    }
    for key, value in environment.items():
        print(f"# {key}: {value}")
    for argv_, reason in tally.unexpected:
        print(f"# FAILED {' '.join(argv_)[:120]}: {reason}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    report = {
        "correct": tally.correct,
        "attempted": attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    report_path = OUT / f"report-{args.workload}-{args.seed}-trace{args.trace}.json"
    requests = [
        [" ".join(r.argv), o.latency_s, o.maxrss_kb, o.cpu_s, o.reason] for r, o in tally.outcomes
    ]
    report_path.write_text(json.dumps({"environment": environment, **report, "requests": requests}))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
