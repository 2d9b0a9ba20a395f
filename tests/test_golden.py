"""Pass 0 of every benchmark workload, at two seeds, against its recorded output.

``golden_requests.json`` holds, for each request of those passes, the exit
code and the sha256 of the standard output the CLI gave when the file was
recorded.  Each request runs in process through ``cli.parse_and_dispatch``
with standard output going to a hash, so a change to how any command
computes or renders its numbers must leave every byte the same.  To record
the file again from the tree at hand (only when the output is meant to
change), run

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from kbonacci import cli

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("golden_requests.json")
SEEDS = (1, 2)
WORKLOADS = ("term-kernel", "term-render", "verdicts")


class _HashSink(io.RawIOBase):
    def __init__(self):
        self.hash = hashlib.sha256()

    def writable(self):
        return True

    def write(self, data):
        self.hash.update(data)
        return len(data)


def _workloads(register):
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    # dataclasses looks the module up by name while it builds Request
    register(spec.name, module)
    spec.loader.exec_module(module)
    return module


def _outcomes(workloads, workload, seed):
    """[argv, exit code, stdout sha256] of each request of pass 0."""
    outcomes = []
    saved = sys.stdout
    for request in workloads.build_pass(workload, seed, 0):
        sink = _HashSink()
        sys.stdout = io.TextIOWrapper(io.BufferedWriter(sink), encoding="utf-8")
        try:
            code = cli.parse_and_dispatch(list(request.argv))
            sys.stdout.flush()
        finally:
            sys.stdout = saved
        outcomes.append([list(request.argv), code, sink.hash.hexdigest()])
    return outcomes


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_pass_zero_matches_the_recorded_output(monkeypatch, workload, seed):
    expected = json.loads(GOLDEN.read_text())[f"{workload}:{seed}"]
    workloads = _workloads(lambda name, module: monkeypatch.setitem(sys.modules, name, module))
    assert _outcomes(workloads, workload, seed) == expected


if __name__ == "__main__":
    workloads = _workloads(sys.modules.__setitem__)
    record = {
        f"{workload}:{seed}": _outcomes(workloads, workload, seed)
        for workload in WORKLOADS
        for seed in SEEDS
    }
    GOLDEN.write_text(json.dumps(record, indent=1) + "\n")
