"""E12: the unified query pipeline -- overhead and warm-cache serial speedup.

The query-API redesign routes *every* serial query through one pipeline that
consults the shared LRU score cache (PR-1 only batches did).  Two properties
must hold for the redesign to be a free win:

* **Overhead** -- a cold serial query through the unified pipeline (cache
  lookups, trace recording, spec compilation) must cost at most 5% more than
  the PR-1 execution loop (encode -> shortlist -> score -> rank, no cache),
  replicated verbatim in :func:`_pr1_execute`.
* **Warm-cache speedup** -- an identical repeated serial query must be
  answered from memoised similarity results: zero LCS evaluations on the
  second call, verified by the cache-hit counters, with rankings
  byte-identical to the cold run and to the PR-1 loop.
"""

import time

import pytest

from benchmarks.conftest import SMOKE, format_table, smoke_scaled
from repro.core.construct import encode_picture
from repro.core.similarity import invariant_similarity, similarity
from repro.datasets.synthetic import SceneParameters, random_pictures
from repro.index.ranking import rank_results
from repro.retrieval.system import RetrievalSystem

DATABASE_SIZE = smoke_scaled(600, 30)
QUERY_COUNT = smoke_scaled(20, 4)
#: Timing repetitions; the minimum over repeats is compared (noise floor).
REPEATS = smoke_scaled(3, 1)

#: Maximum tolerated cold-pipeline overhead vs the PR-1 loop (fraction).
OVERHEAD_CEILING = 0.05
#: Minimum warm-cache speedup for a repeated identical serial query.
REQUIRED_WARM_SPEEDUP = 2.0

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
        DATABASE_SIZE, seed=3, parameters=_PARAMETERS, name_prefix="img"
    )
    system = RetrievalSystem.from_pictures(
        pictures, minimum_signature_overlap=_SIGNATURE_THRESHOLD
    )
    stride = max(1, DATABASE_SIZE // QUERY_COUNT)
    queries = [pictures[index * stride] for index in range(QUERY_COUNT)]
    return system, queries


def _pr1_execute(engine, query):
    """The PR-1 serial execution loop, replicated verbatim (no score cache)."""
    policy = query.effective_policy()
    query_bestring = encode_picture(query.effective_picture())
    scored = []
    for image_id in engine.shortlist(query).candidates:
        record = engine.database.get(image_id)
        if len(query.transformations) == 1:
            result = similarity(
                query_bestring, record.bestring, policy, query.transformations[0]
            )
        else:
            result = invariant_similarity(
                query_bestring, record.bestring, policy, query.transformations
            )
        scored.append((image_id, result))
    return rank_results(scored, limit=query.limit, minimum_score=query.minimum_score)


def _lines(result_lists):
    return [[result.describe() for result in results] for results in result_lists]


def _best_of(repeats, run):
    """Minimum wall time over ``repeats`` executions of ``run()`` (and its output)."""
    best_seconds, output = float("inf"), None
    for _ in range(repeats):
        started = time.perf_counter()
        output = run()
        best_seconds = min(best_seconds, time.perf_counter() - started)
    return best_seconds, output


@pytest.mark.benchmark(group="E12-query-api")
def test_unified_pipeline_overhead_and_warm_speedup(
    benchmark, write_report, write_json_report, workload
):
    system, queries = workload
    engine = system._engine
    compiled = [system.query(query).limit(10).spec() for query in queries]

    baseline_seconds, baseline = _best_of(
        REPEATS, lambda: [_pr1_execute(engine, query) for query in compiled]
    )

    def _cold_unified():
        engine.score_cache.clear()
        return [system.query(query).limit(10).execute() for query in queries]

    cold_seconds, cold = _best_of(REPEATS, _cold_unified)

    # Warm pass: identical serial queries, straight after a cold pass.
    engine.score_cache.clear()
    [system.query(query).limit(10).execute() for query in queries]
    before = system.cache_statistics()
    started = time.perf_counter()
    warm = [system.query(query).limit(10).execute() for query in queries]
    warm_seconds = time.perf_counter() - started
    after = system.cache_statistics()

    # The second identical serial query is answered from the cache: every
    # candidate lookup hits, nothing is re-scored.
    candidate_lookups = sum(len(engine.shortlist(query).candidates) for query in compiled)
    assert after.hits - before.hits == candidate_lookups
    assert after.misses == before.misses, "warm serial queries re-scored candidates"

    # Byte-identical rankings across the PR-1 loop and both unified passes.
    assert _lines(cold) == _lines(baseline)
    assert _lines(warm) == _lines(baseline)

    overhead = (cold_seconds - baseline_seconds) / baseline_seconds
    warm_speedup = cold_seconds / warm_seconds if warm_seconds else float("inf")
    rows = [
        ["PR-1 serial loop (no cache)", f"{baseline_seconds * 1000:.1f}", "1.00x"],
        [
            "unified pipeline, cold cache",
            f"{cold_seconds * 1000:.1f}",
            f"{cold_seconds / baseline_seconds:.3f}x",
        ],
        [
            "unified pipeline, warm cache",
            f"{warm_seconds * 1000:.1f}",
            f"{warm_seconds / baseline_seconds:.3f}x",
        ],
    ]
    write_report(
        "E12_query_api",
        [
            f"E12 -- unified query pipeline over {DATABASE_SIZE} synthetic images, "
            f"{len(queries)} serial queries (best of {REPEATS})",
            "",
            *format_table(["path", "ms", "vs PR-1"], rows),
            "",
            f"cold overhead vs the PR-1 loop: {overhead:+.1%} "
            f"(ceiling {OVERHEAD_CEILING:.0%})",
            f"warm-cache speedup for repeated serial queries: {warm_speedup:.1f}x",
            "",
            "the redesigned serial path adds cache consultation and trace recording",
            "around the exact same scoring calls; repeated identical queries are",
            "answered from the shared LRU score cache with zero LCS evaluations and",
            "byte-identical rankings.",
        ],
    )
    write_json_report(
        "E12_query_api",
        {
            "database_size": DATABASE_SIZE,
            "queries": len(queries),
            "repeats": REPEATS,
            "baseline_seconds": round(baseline_seconds, 6),
            "cold_seconds": round(cold_seconds, 6),
            "warm_seconds": round(warm_seconds, 6),
            "cold_overhead_fraction": round(overhead, 4),
            "warm_speedup": round(warm_speedup, 3),
            "overhead_ceiling": OVERHEAD_CEILING,
        },
    )

    if not SMOKE:  # tiny smoke sizes are all fixed overhead, no signal
        assert overhead < OVERHEAD_CEILING, (
            f"unified pipeline cold overhead {overhead:.1%} exceeds "
            f"{OVERHEAD_CEILING:.0%} vs the PR-1 serial loop"
        )
        assert warm_speedup >= REQUIRED_WARM_SPEEDUP, (
            f"warm-cache speedup {warm_speedup:.2f}x below the "
            f"{REQUIRED_WARM_SPEEDUP}x floor"
        )

    # pytest-benchmark timing: the steady-state warm serial path.
    benchmark(lambda: [system.query(query).limit(10).execute() for query in queries])


@pytest.mark.benchmark(group="E12-query-api")
def test_builder_compilation_cost(benchmark, workload):
    """Spec compilation alone is negligible next to one LCS evaluation."""
    system, queries = workload
    query = queries[0]
    spec = benchmark(lambda: system.query(query).invariant().limit(10).spec())
    assert spec.has_similarity_clause
