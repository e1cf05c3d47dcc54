"""The test session's own settings: the pytest section of pyproject.toml."""

import subprocess
import sys
from pathlib import Path

PROPERTY_TESTS = '''\
from hypothesis import given, strategies as st


@given(st.integers())
def test_always_fails(n):
    assert False


def test_runs_after_it():
    pass
'''


def test_a_failing_property_test_fails_alone_and_the_run_goes_on(tmp_path):
    """Hypothesis's pytest plugin reports a failing example through a module
    whose import raises a DeprecationWarning; as an error under the suite's
    filterwarnings it was an INTERNALERROR that ended the whole run."""
    root = Path(__file__).resolve().parent.parent
    (tmp_path / "test_property.py").write_text(PROPERTY_TESTS)
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider",
         "-c", str(root / "pyproject.toml"), "--rootdir", str(tmp_path), "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in child.stdout + child.stderr, child.stdout[-4000:]
    assert "1 failed, 1 passed" in child.stdout, child.stdout[-4000:]
