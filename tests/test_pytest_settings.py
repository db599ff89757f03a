"""The project's pytest settings keep a failing property test reportable."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

SAMPLE = textwrap.dedent(
    """
    from hypothesis import given
    from hypothesis import strategies as st


    @given(st.integers())
    def test_fails(x):
        assert x < 10


    def test_passes():
        pass
    """
)


def test_a_failing_hypothesis_test_is_reported_and_the_session_goes_on(tmp_path):
    # hypothesis's failure path imports libcst, which warns; with warnings as
    # errors that used to end the session in an INTERNALERROR
    (tmp_path / "test_sample.py").write_text(SAMPLE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-q", "-p", "no:cacheprovider",
         str(tmp_path / "test_sample.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
