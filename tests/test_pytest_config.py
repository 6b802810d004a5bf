"""The suite's own pytest configuration, run on a throwaway test file."""
import subprocess
import sys
from pathlib import Path

from conftest import subprocess_env

_PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

_TWO_TESTS = '''\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_plain():
    pass
'''


def test_failing_hypothesis_test_does_not_stop_the_run(tmp_path):
    # Reporting a failing example makes hypothesis import libcst, which
    # warns on import. The warning filters turn deprecations into errors,
    # but that warning must not become one: raised there, it aborts the
    # run with INTERNALERROR and no later test runs.
    (tmp_path / "test_two.py").write_text(_TWO_TESTS, encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(_PYPROJECT), "--rootdir",
         str(tmp_path), "-q", "-p", "no:cacheprovider", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env=subprocess_env())
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout, done.stdout
