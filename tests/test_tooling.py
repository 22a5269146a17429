"""The test configuration itself: pytest run with this repository's ini file."""

import os
import subprocess
import sys

_PROPERTY_TESTS = """
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, max_examples=5, deadline=None)
@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
"""


def test_a_failing_property_test_fails_alone_and_the_session_goes_on(tmp_path):
    # hypothesis reports a failing example through libcst, which raises a
    # DeprecationWarning on import; under filterwarnings = error that used
    # to end the session with INTERNALERROR before the passing test ran
    ini = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "pyproject.toml")
    (tmp_path / "test_property.py").write_text(_PROPERTY_TESTS)
    run = subprocess.run([sys.executable, "-m", "pytest", "-c", ini, "-p", "no:cacheprovider",
                          "-q", "test_property.py"], cwd=tmp_path, capture_output=True,
                         text=True, timeout=120)
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
