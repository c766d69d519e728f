"""E10: batch query throughput -- serial loop vs the batch subsystem.

A production deployment of the paper's retrieval model serves query *streams*,
and real streams repeat themselves: popular scenes are queried again and
again.  This experiment builds a 1000-image synthetic database (the E9 wide
vocabulary, so the candidate filters have real pruning power) and replays a
stream of 100 queries drawn from 25 distinct pictures, comparing

* ``serial``    -- one ``system.query(...).execution(cache=False).execute()`` call per
  query (the score cache bypassed, i.e. the pre-batch serial cost model),
* ``batch cold`` -- :meth:`RetrievalSystem.query_batch` on an empty score
  cache, serially, where deduplication alone collapses the stream to 25
  evaluations through the same candidate loop as a single query, and
* ``batch warm`` -- the same batch again, now answered from the LRU score
  cache.

Ranked results are asserted byte-identical (same ``describe()`` lines) across
all three paths, and the cold batch must be at least 2x the serial throughput
at full scale.  ``test_executors_agree`` also runs the batch through the
shard workers (``executor="shard_process"``).
"""

import time

import pytest

from benchmarks.conftest import SMOKE, format_table, smoke_scaled
from repro.datasets.synthetic import SceneParameters, random_pictures
from repro.retrieval.system import RetrievalSystem

DATABASE_SIZE = smoke_scaled(1000, 30)
QUERY_COUNT = smoke_scaled(100, 8)
UNIQUE_QUERIES = smoke_scaled(25, 4)

#: Minimum cold-batch speedup over the serial loop (acceptance criterion).
REQUIRED_SPEEDUP = 2.0

_PARAMETERS = SceneParameters(
    object_count=10,
    alignment_probability=0.3,
    labels=tuple(f"class{index:02d}" for index in range(60)),
    label_choice="random",
)

_SIGNATURE_THRESHOLD = 0.34


@pytest.fixture(scope="module")
def workload():
    pictures = random_pictures(
        DATABASE_SIZE, seed=0, parameters=_PARAMETERS, name_prefix="img"
    )
    system = RetrievalSystem.from_pictures(
        pictures, minimum_signature_overlap=_SIGNATURE_THRESHOLD
    )
    stride = max(1, DATABASE_SIZE // UNIQUE_QUERIES)
    unique = [pictures[index * stride] for index in range(UNIQUE_QUERIES)]
    queries = [unique[index % UNIQUE_QUERIES] for index in range(QUERY_COUNT)]
    return system, queries


def _result_lines(batches):
    return [[result.describe() for result in results] for results in batches]


def _batch(system, queries, executor="serial"):
    specs = [system.query(query).limit(10) for query in queries]
    return system.query_batch(specs, executor=executor, workers=2)


@pytest.mark.benchmark(group="E10-batch-query")
def test_batch_throughput_report(benchmark, write_report, write_json_report, workload):
    system, queries = workload
    system._engine.score_cache.clear()

    started = time.perf_counter()
    serial = [
        system.query(query).limit(10).execution(cache=False).execute() for query in queries
    ]
    serial_seconds = time.perf_counter() - started

    started = time.perf_counter()
    cold = _batch(system, queries)
    cold_seconds = time.perf_counter() - started
    cold_report = system.last_batch_report

    started = time.perf_counter()
    warm = _batch(system, queries)
    warm_seconds = time.perf_counter() - started
    warm_report = system.last_batch_report

    # Byte-identical ranked results on every path, tie-breaks included.
    assert _result_lines(cold) == _result_lines(serial)
    assert _result_lines(warm) == _result_lines(serial)

    cold_speedup = serial_seconds / cold_seconds if cold_seconds else float("inf")
    warm_speedup = serial_seconds / warm_seconds if warm_seconds else float("inf")
    rows = [
        ["serial loop", f"{serial_seconds:.2f}", f"{len(queries) / serial_seconds:.1f}", "1.00x", "-"],
        [
            "batch cold",
            f"{cold_seconds:.2f}",
            f"{len(queries) / cold_seconds:.1f}",
            f"{cold_speedup:.2f}x",
            f"{cold_report.cache_hit_rate:.0%}",
        ],
        [
            "batch warm",
            f"{warm_seconds:.2f}",
            f"{len(queries) / warm_seconds:.1f}",
            f"{warm_speedup:.2f}x",
            f"{warm_report.cache_hit_rate:.0%}",
        ],
    ]
    write_report(
        "E10_batch_query",
        [
            f"E10 -- batch retrieval over {DATABASE_SIZE} synthetic images, "
            f"{len(queries)} queries ({UNIQUE_QUERIES} distinct)",
            "",
            *format_table(["path", "seconds", "queries/s", "speedup", "cache hits"], rows),
            "",
            f"cold batch: {cold_report.describe()}",
            f"warm batch: {warm_report.describe()}",
            "",
            "the batch engine deduplicates repeated queries into one evaluation each,",
            "runs each through the cache-first candidate loop of a single query, and",
            "serves repeat batches from the LRU score cache -- with ranked results",
            "byte-identical to the serial loop.",
        ],
    )
    write_json_report(
        "E10_batch_query",
        {
            "database_size": DATABASE_SIZE,
            "queries": len(queries),
            "unique_queries": UNIQUE_QUERIES,
            "serial_seconds": round(serial_seconds, 6),
            "cold_seconds": round(cold_seconds, 6),
            "warm_seconds": round(warm_seconds, 6),
            "cold_speedup": round(cold_speedup, 3),
            "warm_speedup": round(warm_speedup, 3),
            "warm_cache_hit_rate": warm_report.cache_hit_rate,
        },
    )

    assert cold_report.unique_evaluations == UNIQUE_QUERIES
    assert warm_report.scored == 0 and warm_report.cache_hit_rate == 1.0
    if not SMOKE:  # tiny smoke sizes are all overhead, no signal
        assert cold_speedup >= REQUIRED_SPEEDUP, (
            f"cold batch speedup {cold_speedup:.2f}x below the {REQUIRED_SPEEDUP}x floor"
        )

    # pytest-benchmark timing: the steady-state (warm cache) batch path.
    benchmark(_batch, system, queries)


@pytest.mark.benchmark(group="E10-batch-query")
def test_cold_batch_latency(benchmark, workload):
    system, queries = workload

    def _cold_batch():
        system._engine.score_cache.clear()
        return _batch(system, queries)

    results = benchmark(_cold_batch)
    assert len(results) == len(queries)


@pytest.mark.benchmark(group="E10-batch-query")
def test_executors_agree(benchmark, workload):
    system, queries = workload
    sample = queries[: min(len(queries), 10)]
    expected = _result_lines(
        system.query(query).limit(10).execution(cache=False).execute() for query in sample
    )
    try:
        for executor in ("serial", "shard_process"):
            system._engine.score_cache.clear()
            batches = _batch(system, sample, executor=executor)
            assert _result_lines(batches) == expected, f"{executor} results diverged"
    finally:
        system._engine.close_shard_pool()
    system._engine.score_cache.clear()
    benchmark(_batch, system, sample)
