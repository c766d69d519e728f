"""E18: process-parallel shard workers — scatter-gather speedup and equivalence.

PR 9 added ``executor="shard_process"`` (``docs/parallelism.md``): a pool of
forked worker processes, each owning a disjoint slice of the CRC-32 shard
space with its own engine, shortlist and score cache.  A query is serialised
to every worker, scored locally over the worker's shard slice, and the
partial rankings are merged under the engine's exact ``(-score, image_id)``
tie-break — so the scatter-gather ranking must be **byte-identical** to the
serial one, worker count notwithstanding.

This experiment measures, at 2k and 10k synthetic 16-object images
(smoke: 60/120):

* per-query scatter-gather latency against the serial path at 1, 2 and 4
  workers (caches disabled on both sides, pools warmed before timing, so
  the comparison is pure scoring work + IPC),
* the batch path (``query_batch(..., executor="shard_process")``) against
  the serial batch scheduler,
* ranking byte-equivalence at every worker count and size — exact,
  invariant and batch modes, tie-breaks included (asserted always, smoke
  runs too).

The speedup floor — **2.5x at 4 workers** over serial at the largest size —
only applies on machines with at least 4 CPUs and outside smoke mode;
single-core CI boxes still assert equivalence, which is the correctness
claim.  Results are persisted as
``benchmarks/results/BENCH_E18_shard_workers_<size>.json`` (the CI
``shard-workers`` job uploads them as artifacts).
"""

import os
import time
from dataclasses import replace

import pytest

from benchmarks.conftest import SMOKE, format_table, smoke_scaled
from repro.datasets.synthetic import SceneParameters, random_pictures
from repro.index.execution import ExecutionOptions
from repro.index.spec import QuerySpec
from repro.retrieval.system import RetrievalSystem

DATABASE_SIZES = smoke_scaled((2000, 10000), (60, 120))
#: Queries per timing pass.
QUERY_COUNT = smoke_scaled(6, 3)
WORKER_COUNTS = (1, 2, 4)
#: Minimum scatter-gather speedup at 4 workers over serial at the largest
#: size (only asserted with >= 4 CPUs, outside smoke mode).
REQUIRED_SPEEDUP = 2.5

#: 16-object scenes: heavy enough per-candidate scoring that the scatter's
#: serialisation cost does not dominate.
_PARAMETERS = SceneParameters(
    object_count=16,
    alignment_probability=0.3,
    labels=tuple(f"class{index:02d}" for index in range(48)),
    label_choice="random",
)

#: Cold scoring on both sides: the serial/sharded comparison must not hinge
#: on who warmed the score cache first.
_COLD = ExecutionOptions(cache=False)


def _ranking(results):
    return [(r.rank, r.image_id, r.score) for r in results]


def _specs(system, invariant=False):
    queries = [
        system._engine.database.get(f"img-{index:04d}").picture
        for index in range(QUERY_COUNT)
    ]
    builder = lambda picture: (
        system.query(picture).invariant() if invariant else system.query(picture)
    )
    return [builder(picture).limit(10).execution(_COLD).spec() for picture in queries]


def _sharded(spec: QuerySpec, workers: int) -> QuerySpec:
    merged = spec.execution.overlaid(
        ExecutionOptions(executor="shard_process", workers=workers)
    )
    return replace(spec, execution=merged)


def _time_specs(engine, specs):
    started = time.perf_counter()
    outcomes = [engine.execute_spec(spec) for spec in specs]
    return time.perf_counter() - started, [_ranking(o.results) for o in outcomes]


@pytest.fixture(scope="module", params=DATABASE_SIZES)
def sized_system(request):
    size = request.param
    pictures = random_pictures(size, seed=37, parameters=_PARAMETERS, name_prefix="img")
    system = RetrievalSystem.from_pictures(pictures)
    yield size, system
    system._engine.close_shard_pool()


@pytest.mark.benchmark(group="E18-shard-workers")
def test_scatter_gather_speedup_and_equivalence(
    sized_system, write_report, write_json_report, benchmark
):
    size, system = sized_system
    engine = system._engine
    specs = _specs(system)

    serial_seconds, serial_rankings = _time_specs(engine, specs)

    shard_seconds = {}
    pool_stats = {}
    for workers in WORKER_COUNTS:
        sharded = [_sharded(spec, workers) for spec in specs]
        engine.execute_spec(sharded[0])  # warm the pool (fork + first scatter)
        seconds, rankings = _time_specs(engine, sharded)
        assert rankings == serial_rankings, (
            f"scatter-gather ranking diverged from serial at {workers} workers"
        )
        shard_seconds[workers] = seconds
        pool_stats[workers] = engine.shard_pool_stats()
    engine.close_shard_pool()

    # Invariant queries: six transformations per candidate, the regime the
    # paper's rotation/reflection matching pays the most in.
    invariant_specs = _specs(system, invariant=True)
    _, invariant_serial = _time_specs(engine, invariant_specs)
    _, invariant_sharded = _time_specs(
        engine, [_sharded(spec, 2) for spec in invariant_specs]
    )
    assert invariant_sharded == invariant_serial
    engine.close_shard_pool()

    speedups = {
        workers: serial_seconds / seconds if seconds else float("inf")
        for workers, seconds in shard_seconds.items()
    }
    rows = [["serial", f"{serial_seconds * 1000:.1f}", "1.0x"]] + [
        [
            f"shard_process x{workers}",
            f"{shard_seconds[workers] * 1000:.1f}",
            f"{speedups[workers]:.2f}x",
        ]
        for workers in WORKER_COUNTS
    ]
    write_report(
        f"E18_shard_workers_{size}",
        [
            f"E18 -- shard-worker scatter-gather at {size} images "
            f"({QUERY_COUNT} cold top-10 queries, {os.cpu_count()} CPUs)",
            "",
            *format_table(["path", "total ms", "speedup"], rows),
            "",
            f"speedup floor: {REQUIRED_SPEEDUP}x at 4 workers at the largest "
            "size (>= 4 CPUs, full mode only)",
            "rankings byte-identical to serial at every worker count "
            "(exact + invariant modes, tie-breaks included)",
        ],
    )
    write_json_report(
        f"E18_shard_workers_{size}",
        {
            "database_size": size,
            "queries": QUERY_COUNT,
            "cpu_count": os.cpu_count(),
            "serial_seconds": round(serial_seconds, 6),
            "shard_seconds": {
                str(workers): round(seconds, 6)
                for workers, seconds in shard_seconds.items()
            },
            "speedups": {
                str(workers): round(speedup, 3)
                for workers, speedup in speedups.items()
            },
            "required_speedup": REQUIRED_SPEEDUP,
            "byte_identical": True,
            "pool": {
                str(workers): {
                    "shard_count": stats["shard_count"],
                    "scatters": stats["scatters"],
                    "scatter_latency_ms": stats["scatter_latency_ms"],
                }
                for workers, stats in pool_stats.items()
            },
        },
    )

    if not SMOKE and size == max(DATABASE_SIZES) and (os.cpu_count() or 1) >= 4:
        assert speedups[4] >= REQUIRED_SPEEDUP, (
            f"shard_process x4 only {speedups[4]:.2f}x over serial "
            f"(floor: {REQUIRED_SPEEDUP}x at {size} images)"
        )

    benchmark.pedantic(
        lambda: engine.execute_spec(_sharded(specs[0], 2)), rounds=3
    )
    engine.close_shard_pool()


@pytest.mark.benchmark(group="E18-shard-workers")
def test_batch_path_byte_identical(sized_system, write_report, benchmark):
    """``query_batch`` under ``shard_process`` matches the serial batch."""
    size, system = sized_system
    queries = [
        system._engine.database.get(f"img-{index:04d}").picture
        for index in range(QUERY_COUNT)
    ]
    # One duplicate exercises batch deduplication through the scatter.
    batch = [system.query(picture) for picture in queries + [queries[0]]]
    serial = system.query_batch(batch, executor="serial")
    sharded = system.query_batch(batch, executor="shard_process", workers=2)
    assert [_ranking(results) for results in sharded] == [
        _ranking(results) for results in serial
    ]
    report = system.last_batch_report
    assert report.executor == "shard_process"
    system._engine.close_shard_pool()
    write_report(
        f"E18_batch_{size}",
        [
            f"E18 -- batch scatter-gather at {size} images",
            "",
            f"{len(batch)} queries ({report.unique_evaluations} unique) "
            "byte-identical to the serial batch scheduler at 2 workers",
        ],
    )
    benchmark.pedantic(
        lambda: system.query_batch(batch, executor="shard_process", workers=2),
        rounds=3,
    )
    system._engine.close_shard_pool()
