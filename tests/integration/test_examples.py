"""Smoke tests: every example script runs to completion.

The examples double as executable documentation, so the suite runs each one in
a subprocess and checks both the exit status and a key phrase of its output.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"

#: (script name, phrase its stdout must contain).
EXPECTED = [
    ("quickstart.py", "Ranked retrieval over a small database"),
    ("office_scene_retrieval.py", "Partial query"),
    ("rotation_invariant_search.py", "Transformation-invariant query"),
    ("partial_query_search.py", "average precision"),
    ("baseline_comparison.py", "modified LCS vs type-1 clique"),
    ("pixels_to_strings.py", "segmentation recovered"),
]


@pytest.mark.parametrize("script, phrase", EXPECTED)
def test_example_runs_and_prints_expected_output(script, phrase):
    if script == "pixels_to_strings.py":
        pytest.importorskip("numpy")  # the one example that needs the raster extra
    path = EXAMPLES_DIR / script
    assert path.exists(), f"example {script} is missing"
    completed = subprocess.run(
        [sys.executable, str(path)],
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert completed.returncode == 0, completed.stderr
    assert phrase in completed.stdout


def test_all_examples_are_covered_by_this_suite():
    on_disk = {path.name for path in EXAMPLES_DIR.glob("*.py")}
    covered = {script for script, _ in EXPECTED}
    assert covered == on_disk
