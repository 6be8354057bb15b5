"""The suite's own pytest settings (pyproject.toml): every warning is an
error, yet a failing property test is reported as one failure and the
tests after it still run."""

import os
import subprocess
import sys

PYPROJECT = os.path.join(os.path.dirname(__file__), "..", "pyproject.toml")

PAIR = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_given_test_lets_the_next_test_run(tmp_path):
    """A failing @given test, then a plain one, run under the repo's
    settings from an empty directory. Reporting the failure imports
    libcst.metadata.type_inference_provider, which warns that
    mypy_extensions.TypedDict is deprecated; without the filter scoped to
    that module the warning is an INTERNALERROR that ends the session."""
    (tmp_path / "test_pair.py").write_text(PAIR)
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", os.path.abspath(PYPROJECT), "--rootdir",
         str(tmp_path), "-p", "no:cacheprovider", "-q", "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120).stdout
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
