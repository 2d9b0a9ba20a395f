"""In-process replay of CLI requests, with a span around each layer call.

For each request the replay makes the same public calls the CLI handler in
``kbonacci.cli`` makes, in the same order, and writes the same bytes to a
hashing sink, so its output can be compared with the subprocess run's. Each
library call runs inside a span named ``<module>.<call>``; all spans of one
request hang off its ``cli.request`` span. Spans stay in memory until the
run ends.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager

from kbonacci.classic_sums import verify_classic
from kbonacci.cli import _DEFAULT_EPSILON, build_parser
from kbonacci.decimal_identity import (
    identity_line,
    reciprocal_digits,
    repunit_denominator,
    verify_decimal_identity,
)
from kbonacci.rational import format_ratio
from kbonacci.sequence import range_terms, term_fast
from kbonacci.series import SeriesPoint, converge_until, evaluate

MODULES = ("cli", "sequence", "series", "rational", "decimal_identity", "classic_sums")


class Tracer:
    """Spans ``(request_id, name, start, end)`` and counters, in memory."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.request_id = None

    @contextmanager
    def span(self, name):
        start = time.perf_counter()
        try:
            yield
        except Exception:
            self.counts[name.split(".")[0] + ".errors"] += 1
            raise
        finally:
            self.spans.append((self.request_id, name, start, time.perf_counter()))

    def count(self, name, value):
        self.counts[name] += value


class NullTracer(Tracer):
    """Same calls as Tracer, recording nothing: the untraced replay."""

    @contextmanager
    def span(self, name):
        yield

    def count(self, name, value):
        pass


class _HashSink(io.RawIOBase):
    def __init__(self):
        self.digest = hashlib.sha256()
        self.size = 0

    def writable(self):
        return True

    def write(self, data):
        self.digest.update(data)
        self.size += len(data)
        return len(data)


def _print(tracer, out, text):
    with tracer.span("cli.write"):
        out.write(text)
        out.write("\n")


def _term(args, tracer, out):
    if args.method != "polymod":
        raise ValueError(f"replay covers only the default method, not {args.method}")
    with tracer.span("sequence.term_fast"):
        value = term_fast(args.k, args.n)
    tracer.count("sequence.term_fast_calls", 1)
    tracer.count("sequence.result_bits", value.bit_length())
    _print(tracer, out, str(value))
    return 0


def _seq(args, tracer, out):
    with tracer.span("sequence.range_terms"):
        values = range_terms(args.k, args.start, args.stop)
    tracer.count("sequence.terms_swept", len(values))
    for value in values:
        _print(tracer, out, str(value))
    return 0


def _ratio(tracer, value):
    with tracer.span("rational.format_ratio"):
        text = format_ratio(value)
    tracer.count("rational.digits_out", len(text))
    return text


def _gf(args, tracer, out):
    point = SeriesPoint(k=args.k, eta=args.eta)
    if args.n_trunc is not None:
        with tracer.span("series.evaluate"):
            report = evaluate(point, args.n_trunc)
    else:
        epsilon = args.epsilon if args.epsilon is not None else _DEFAULT_EPSILON
        with tracer.span("series.converge_until"):
            report = converge_until(point, epsilon)
    tracer.count("series.n_trunc", report.n_trunc)
    tracer.count("series.errors", not report.passed)
    if args.json:
        with tracer.span("rational.format_ratio"):
            doc = report.to_json_dict()
        tracer.count("rational.digits_out", sum(len(v) for v in doc.values() if isinstance(v, str)))
        _print(tracer, out, json.dumps(doc, indent=2))
    else:
        _print(tracer, out, f"k = {report.point.k}")
        _print(tracer, out, f"eta = {_ratio(tracer, report.point.eta)}")
        _print(tracer, out, f"N = {report.n_trunc}")
        for key in ("partial", "closed", "tail_bound", "residual"):
            _print(tracer, out, f"{key} = {_ratio(tracer, getattr(report, key))}")
        _print(tracer, out, "PASS" if report.passed else "FAIL")
    return 0 if report.passed else 1


def _verify_decimal(args, tracer, out):
    last = args.k if args.max_k is None else args.max_k
    if last < args.k:
        raise ValueError(f"--max-k {last} is below -k {args.k}")
    results = []
    for k in range(args.k, last + 1):
        with tracer.span("decimal_identity.verify"):
            ok = verify_decimal_identity(k)
            line = identity_line(k, ok)
        tracer.count("decimal_identity.errors", not ok)
        results.append(ok)
        _print(tracer, out, line)
    if args.max_k is not None:
        _print(tracer, out, "PASS" if all(results) else "FAIL")
    return 0 if all(results) else 1


def _verify_classic(args, tracer, out):
    with tracer.span("classic_sums.verify_classic"):
        report = verify_classic(args.identity, args.digits)
    tracer.count("classic_sums.terms", report.terms)
    tracer.count("classic_sums.errors", not report.passed)
    with tracer.span("classic_sums.report"):
        doc = report.to_json_dict()
    for key in ("identity", "terms", "digits", "value", "target", "abs_diff"):
        _print(tracer, out, f"{key} = {doc[key]}")
    _print(tracer, out, "PASS" if report.passed else "FAIL")
    return 0 if report.passed else 1


def _digits(args, tracer, out):
    with tracer.span("decimal_identity.reciprocal_digits"):
        text = reciprocal_digits(repunit_denominator(args.k).value, args.m)
    tracer.count("decimal_identity.digits", args.m)
    _print(tracer, out, text)
    return 0


_HANDLERS = {
    "term": _term,
    "seq": _seq,
    "gf": _gf,
    "verify-decimal": _verify_decimal,
    "verify-classic": _verify_classic,
    "digits": _digits,
}


def replay(argv, tracer, request_id):
    """Run one request in-process; return (exit code, sha256 of stdout)."""
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    sink = _HashSink()
    out = io.TextIOWrapper(io.BufferedWriter(sink), encoding="utf-8", write_through=False)
    tracer.request_id = request_id
    with tracer.span("cli.request"):
        try:
            args = build_parser().parse_args(list(argv))
            code = _HANDLERS[args.command](args, tracer, out)
        except (SystemExit, ValueError):  # the CLI's usage errors: exit 2
            code = 2
            tracer.count("cli.errors", 1)
        except Exception:  # uncaught in the CLI: traceback, exit 1
            code = 1
            tracer.count("cli.errors", 1)
        out.flush()
    tracer.count("cli.bytes_out", sink.size)
    return code, sink.digest.hexdigest()


def layer_metrics(tracer, overhead_s):
    """Per-layer totals and shares of request time from the recorded spans."""
    busy = Counter()
    for _, name, start, end in tracer.spans:
        busy[name] += end - start
    request_s = busy.pop("cli.request")
    write_s = busy["cli.write"]
    child_s = sum(busy.values())
    metrics = {
        "sequence.term_fast_s": busy["sequence.term_fast"],
        "sequence.range_terms_s": busy["sequence.range_terms"],
        "cli.self_s": request_s - child_s,
        "cli.write_s": write_s,
        "series.evaluate_s": busy["series.evaluate"],
        "series.converge_until_s": busy["series.converge_until"],
        "rational.format_ratio_s": busy["rational.format_ratio"],
        "decimal_identity.verify_s": busy["decimal_identity.verify"],
        "decimal_identity.reciprocal_digits_s": busy["decimal_identity.reciprocal_digits"],
        "classic_sums.verify_classic_s": busy["classic_sums.verify_classic"],
        "classic_sums.report_s": busy["classic_sums.report"],
        "trace.overhead_s": overhead_s,
    }
    for name in (
        "sequence.term_fast_calls",
        "sequence.result_bits",
        "sequence.terms_swept",
        "cli.bytes_out",
        "series.n_trunc",
        "rational.digits_out",
        "decimal_identity.digits",
        "classic_sums.terms",
    ):
        metrics[name] = tracer.counts[name]
    for module in MODULES:
        metrics[f"{module}.errors"] = tracer.counts[f"{module}.errors"]
        own = sum(s for name, s in busy.items() if name.startswith(module + "."))
        if module == "cli":
            own = request_s - child_s + write_s
        metrics[f"{module}.share"] = own / request_s
    return metrics
