"""The repository's pytest settings keep a failing property test readable.

``pyproject.toml`` turns every ``DeprecationWarning`` into an error.  When a
hypothesis test fails, the plugin's report imports ``libcst``, which warns
about ``mypy_extensions.TypedDict``; unless that warning is ignored, the
report itself raises and pytest ends in INTERNALERROR without the falsifying
example.  This suite runs a deliberately failing property test under the
repository's settings in a child pytest, outside the repository.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

_FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers(min_value=0, max_value=10))
def test_always_fails(n):
    assert n < 5
'''


def test_a_failing_property_test_shows_its_falsifying_example(tmp_path):
    (tmp_path / "test_always_fails.py").write_text(_FAILING_PROPERTY, encoding="utf-8")
    completed = subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            "-c",
            str(PYPROJECT),
            "--rootdir",
            str(tmp_path),
            "-p",
            "no:cacheprovider",
            "-q",
            "test_always_fails.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = completed.stdout + completed.stderr
    # 1: tests failed; 3 would be an internal error in the report.
    assert completed.returncode == 1, output
    assert "Falsifying example" in output, output
