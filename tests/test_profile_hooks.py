"""The profile benchmark's hooks resolve against the package.

``benchmarks/profile/trace.py`` measures layers by wrapping the names in its
``WRAPPED`` table, and ``install()`` raises on a name the package no longer
has; ``counter_snapshot`` reads the engine's statistics by attribute.  A
change that deletes or renames one of them would otherwise pass every
library test and fail only when the benchmark runs.  The module is loaded by
path and nothing is wrapped: only the lookups ``install()`` makes are
repeated.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from repro.datasets.scenes import office_scene, traffic_scene
from repro.retrieval.system import RetrievalSystem

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def trace():
    spec = importlib.util.spec_from_file_location(
        "profile_trace", REPO_ROOT / "benchmarks" / "profile" / "trace.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves(trace):
    missing = []
    for name, module_name, attribute in trace.WRAPPED:
        owner = importlib.import_module(module_name)
        for part in attribute.split("."):
            owner = getattr(owner, part, None)
            if owner is None:
                missing.append(f"{name}: {module_name}.{attribute}")
                break
        else:
            assert callable(owner), f"{module_name}.{attribute}"
    assert missing == []


def test_every_counter_exists_on_a_loaded_system(trace, tmp_path):
    scenes = [office_scene(index) for index in range(3)] + [traffic_scene(0)]
    path = RetrievalSystem.from_pictures(scenes).save(tmp_path / "db.json")
    system = RetrievalSystem.from_file(path)
    system.query(office_scene(0)).limit(2).min_score(0.5).execute()
    # Each key reads one statistic by attribute and raises if it is gone.
    counters = trace.counter_snapshot(system)
    assert all(isinstance(value, int) for value in counters.values())
    assert counters["execution.examined"] > 0
