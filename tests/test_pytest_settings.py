import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_property_is_one_failure_and_the_run_goes_on(tmp_path):
    # under warnings as errors, a warning raised while hypothesis reports the
    # failing example must not abort the run with INTERNALERROR
    (tmp_path / "test_pair.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    argv = ["-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT), "--rootdir", str(tmp_path)]
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", *argv, "test_pair.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert proc.returncode == 1
    assert "1 failed, 1 passed" in proc.stdout.splitlines()[-1]
