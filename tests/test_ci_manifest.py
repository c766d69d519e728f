"""Guards that keep the CI workflow in lockstep with the repository.

The bench-smoke job enumerates benchmark modules as a matrix (so one broken
module cannot mask the others), which means a newly added
``benchmarks/bench_*.py`` would silently get zero CI coverage unless the
matrix grows with it.  This suite parses the workflow with the standard
library (no YAML dependency) and fails the moment the two drift apart.
"""

import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = REPO_ROOT / ".github" / "workflows" / "ci.yml"


def bench_matrix_entries():
    """The ``bench:`` matrix list items declared in the workflow."""
    text = WORKFLOW.read_text(encoding="utf-8")
    match = re.search(r"^ +bench:\n((?: +- [\w-]+\n)+)", text, flags=re.MULTILINE)
    assert match, "ci.yml no longer declares the bench-smoke matrix"
    return [line.strip()[2:] for line in match.group(1).splitlines()]


class TestBenchSmokeMatrix:
    def test_matrix_covers_every_benchmark_module(self):
        modules = sorted(
            path.stem[len("bench_"):]
            for path in (REPO_ROOT / "benchmarks").glob("bench_*.py")
        )
        entries = bench_matrix_entries()
        missing = set(modules) - set(entries)
        stale = set(entries) - set(modules)
        assert not missing, (
            f"benchmarks without CI smoke coverage: {sorted(missing)} -- "
            "add them to the bench-smoke matrix in .github/workflows/ci.yml"
        )
        assert not stale, (
            f"bench-smoke matrix names missing modules: {sorted(stale)} -- "
            "remove them from .github/workflows/ci.yml"
        )

    def test_matrix_is_sorted_and_unique(self):
        entries = bench_matrix_entries()
        assert entries == sorted(set(entries))


def shard_workers_pytest_command():
    """The pytest command of the ``shard-workers`` job, as one line."""
    text = WORKFLOW.read_text(encoding="utf-8")
    job = re.search(r"^  shard-workers:\n(.*?)(?=^  \w[\w-]*:\n)", text, re.MULTILINE | re.DOTALL)
    assert job, "ci.yml no longer declares the shard-workers job"
    command = re.search(r"run: >\n((?: {10}.*\n)+)", job.group(1))
    assert command and "pytest" in command.group(1)
    return " ".join(command.group(1).split())


class TestShardWorkersJob:
    def test_every_module_that_pins_the_pool_size_runs_in_the_job(self):
        # A module reading REPRO_SHARD_WORKERS has tests meant to run at the
        # job's 2 and 4 workers; left out of the job, they only ever run at
        # their default.
        named = {
            argument.split("::")[0]
            for argument in shard_workers_pytest_command().split()
            if argument.startswith("tests/")
        }
        pinned = sorted(
            path.relative_to(REPO_ROOT).as_posix()
            for path in (REPO_ROOT / "tests").rglob("*.py")
            if "REPRO_SHARD_WORKERS" in path.read_text(encoding="utf-8")
            and path.name != Path(__file__).name
        )
        assert pinned, "no test module reads REPRO_SHARD_WORKERS any more"
        missing = [path for path in pinned if path not in named]
        assert not missing, (
            f"test modules that read REPRO_SHARD_WORKERS but do not run in the "
            f"shard-workers job: {missing} -- add them to its pytest command in "
            ".github/workflows/ci.yml"
        )


class TestWorkflowInvariants:
    def test_concurrency_cancellation_is_active(self):
        text = WORKFLOW.read_text(encoding="utf-8")
        assert "cancel-in-progress: true" in text

    def test_every_pip_install_job_caches_pip(self):
        text = WORKFLOW.read_text(encoding="utf-8")
        jobs = re.split(r"\n  (?=\w[\w-]*:\n)", text)
        for job in jobs:
            if "pip install" in job and "setup-python" in job:
                assert "cache: pip" in job, (
                    "a job pip-installs without actions/setup-python pip caching:\n"
                    + job[:200]
                )
