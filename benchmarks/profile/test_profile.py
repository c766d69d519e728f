"""Self-test of the profile benchmark, on ``--smoke`` sizes (well under 30 s).

    PYTHONPATH=src python -m pytest -q benchmarks/profile/test_profile.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading

from benchmarks.profile import report, workloads
from benchmarks.profile.trace import Tracer, covered
from repro.index.query import QueryEngine


def _smoke(*arguments: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "benchmarks.profile", "--smoke", "--seed", "0", *arguments],
        cwd=report.ROOT,
        capture_output=True,
        text=True,
        check=False,
        timeout=120,
    )


def _printed_units(stdout: str, name: str) -> list:
    """The unit printed after each report line of metric ``name``."""
    return [line.split()[2] for line in stdout.splitlines() if line.split()[:1] == [name]]


def test_every_end_to_end_metric_is_printed_with_its_unit():
    completed = _smoke()
    assert completed.returncode == 0, completed.stdout + completed.stderr
    definition = report.benchmark()
    for workload in definition["workloads"]:
        assert f"== {workload['name']} (" in completed.stdout
    for metric in definition["end_to_end"]:
        assert _printed_units(completed.stdout, metric["name"]) == [metric["unit"]] * 4
    ungated = {"read_p50_ms": "ms", "read_p90_ms": "ms", "read_ops_per_s": "1/s",
               "failed_frac": "ratio"}
    for name, unit in ungated.items():
        assert _printed_units(completed.stdout, name) == [unit] * 4
    for name in ("write_p50_ms", "write_p90_ms"):
        assert _printed_units(completed.stdout, name) == ["ms"]
    summary = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] and summary["failed"] == 0


def test_every_per_layer_metric_is_printed_with_its_unit():
    completed = _smoke("--workload", "service-rw", "--trace")
    assert completed.returncode == 0, completed.stdout + completed.stderr
    for metric in report.benchmark()["per_layer"]:
        assert _printed_units(completed.stdout, metric["name"]) == [metric["unit"]]
    summary = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(summary["metrics"]) == {metric["name"] for metric in report.benchmark()["per_layer"]}


def test_the_percentile_rule_withholds_p90_below_100_samples():
    assert report.percentile(range(99), 0.9) is None
    assert report.percentile(range(100), 0.9) == 89


class _Clock:
    """A clock the test sets by hand."""

    now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_subtracts_the_union_of_child_spans():
    clock = _Clock()
    tracer = Tracer(clock=clock)
    tracer.active = True

    def pool_thread(start: float, end: float) -> None:
        clock.now = start
        span = tracer.begin("similarity")
        clock.now = end
        tracer.end(span)

    clock.now = 0.0
    with tracer.op(7):
        clock.now = 1.0
        query = tracer.begin("query")
        clock.now = 2.0
        similarity = tracer.begin("similarity")
        clock.now = 3.0
        tracer.end(similarity)
        clock.now = 4.0
        tracer.end(query)
        clock.now = 5.0
        query = tracer.begin("query")
        # Two overlapping spans on other threads hang off the open query.
        for start, end in ((6.0, 8.0), (7.0, 9.0)):
            thread = threading.Thread(target=pool_thread, args=(start, end))
            thread.start()
            thread.join(timeout=10)
            assert not thread.is_alive()
        clock.now = 10.0
        tracer.end(query)
        clock.now = 12.0
    assert tracer.self_seconds == {"similarity": 5.0, "query": 4.0, "op": 4.0}
    assert tracer.calls == {"similarity": 3, "query": 2, "op": 1}
    assert (tracer.ops, tracer.op_seconds) == (1, 12.0)
    assert covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0), (-1.0, 0.5)], 0.0, 5.5) == 3.5


def test_the_oracle_gate_trips_on_a_wrong_ranking(tmp_path, monkeypatch):
    inputs = workloads.make_inputs("topk-unique", 0, True, tmp_path)
    inputs.update(seed=0, seconds=0.3, trace=False, smoke=True)
    original = QueryEngine.execute_spec

    def reversed_by_default(self, spec):
        outcome = original(self, spec)
        if spec.execution is None:  # the oracle always sets its execution options
            outcome.results.reverse()
        return outcome

    monkeypatch.setattr(QueryEngine, "execute_spec", reversed_by_default)
    result = workloads.RUNNERS["topk-unique"](inputs, None)
    assert result["gates"]["oracle_mismatches"]
    assert not result["correct"]
