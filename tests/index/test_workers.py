"""Tests for the process-parallel shard workers (scatter-gather execution).

The headline property is byte-identical equivalence: for every query shape
and every worker count, ``executor="shard_process"`` must reproduce the
serial engine's rankings exactly — scores, ranks, winning transformations,
and tie-break order included.  The CI ``shard-workers`` matrix leg re-runs
this module with ``REPRO_SHARD_WORKERS`` pinned to 2 and 4.
"""

import gc
import multiprocessing
import os
from dataclasses import replace

import pytest

import repro.core.lcs
import repro.index.query
from repro.core.transforms import Transformation
from repro.datasets.scenes import office_scene, traffic_scene
from repro.datasets.synthetic import random_picture
from repro.index.backends import ShardedBackend, shard_index_for
from repro.index.database import ImageDatabase
from repro.index.execution import ExecutionOptions
from repro.index.inverted import InvertedSymbolIndex
from repro.index.query import QueryEngine
from repro.index.spec import QuerySpec
from repro.index.workers import ShardWorkerError, ShardWorkerPool, _worker_main
from repro.retrieval.predicates import parse_predicate, parse_tree
from repro.retrieval.system import RetrievalSystem
from repro.service.server import RetrievalService

_FORCED = os.environ.get("REPRO_SHARD_WORKERS")
#: The CI matrix leg pins one count; the default run sweeps the matrix.
WORKER_COUNTS = [int(_FORCED)] if _FORCED else [1, 2, 4]

DATABASE_SIZE = 36


def result_key(results):
    """Everything a ranked result list is judged on, including tie-breaks."""
    return [
        (r.rank, r.image_id, r.score, r.similarity.transformation, r.similarity.common_objects)
        for r in results
    ]


def ranking_keys(results):
    """The ``(-score, image_id)`` keys a pool gathers for a ranking."""
    return [(-result.score, result.image_id) for result in results]


def predicate_key(results):
    """Identity of a predicate-only ranking (matches carry no rank)."""
    return [(match.image_id, match.score, match.satisfied) for match in results]


def graded_key(results):
    """Identity of a graded predicate ranking, per-leaf degrees included."""
    return [
        (match.image_id, match.score, tuple(sorted(match.leaf_degrees)))
        for match in results
    ]


@pytest.fixture(scope="module")
def pictures():
    """A mixed collection: random scenes plus near-duplicates that force ties."""
    collection = [random_picture(seed=index) for index in range(DATABASE_SIZE - 4)]
    collection += [office_scene(0), office_scene(0), traffic_scene(1), traffic_scene(1)]
    return collection


@pytest.fixture
def engine(pictures):
    database = ImageDatabase()
    for index, picture in enumerate(pictures):
        database.add_picture(picture, f"img-{index:03d}")
    built = QueryEngine.build(database)
    yield built
    built.close_shard_pool()


def sharded(workers):
    return ExecutionOptions(executor="shard_process", workers=workers)


@pytest.mark.parametrize("workers", WORKER_COUNTS)
class TestEquivalenceMatrix:
    """Serial vs scatter-gather, byte for byte, across the query shapes."""

    def test_exact(self, engine, pictures, workers):
        spec = QuerySpec(picture=pictures[3], limit=8)
        serial = engine.execute_spec(spec)
        gathered = engine.execute_spec(spec.with_overrides(execution=sharded(workers)))
        assert result_key(serial.results) == result_key(gathered.results)

    def test_tie_break_order(self, engine, pictures, workers):
        # The duplicated scenes tie exactly; order must match the serial
        # (-score, image_id) sort, not arrival order from the workers.
        spec = QuerySpec(picture=office_scene(0), limit=None)
        serial = engine.execute_spec(spec)
        gathered = engine.execute_spec(spec.with_overrides(execution=sharded(workers)))
        assert result_key(serial.results) == result_key(gathered.results)

    def test_invariant(self, engine, pictures, workers):
        spec = QuerySpec(
            picture=pictures[7], transformations=tuple(Transformation), limit=6
        )
        serial = engine.execute_spec(spec)
        gathered = engine.execute_spec(spec.with_overrides(execution=sharded(workers)))
        assert result_key(serial.results) == result_key(gathered.results)

    def test_partial(self, engine, pictures, workers):
        picture = office_scene(0)
        identifiers = tuple(picture.identifiers[:2])
        spec = QuerySpec(picture=picture, identifiers=identifiers, limit=6)
        serial = engine.execute_spec(spec)
        gathered = engine.execute_spec(spec.with_overrides(execution=sharded(workers)))
        assert result_key(serial.results) == result_key(gathered.results)

    def test_predicate_only(self, engine, pictures, workers):
        labels = sorted(set(pictures[0].labels))
        predicate = parse_predicate(f"{labels[0]} left_of {labels[1]}")
        spec = QuerySpec(predicates=(predicate,), limit=None)
        serial = engine.execute_spec(spec)
        gathered = engine.execute_spec(spec.with_overrides(execution=sharded(workers)))
        assert predicate_key(serial.results) == predicate_key(gathered.results)
        assert serial.predicate_matches.keys() == gathered.predicate_matches.keys()

    def test_combined(self, engine, pictures, workers):
        labels = sorted(set(pictures[0].labels))
        predicate = parse_predicate(f"{labels[0]} left_of {labels[1]}")
        spec = QuerySpec(picture=pictures[2], predicates=(predicate,), limit=8)
        serial = engine.execute_spec(spec)
        gathered = engine.execute_spec(spec.with_overrides(execution=sharded(workers)))
        assert result_key(serial.results) == result_key(gathered.results)

    def test_anytime_bitparallel(self, engine, pictures, workers):
        options = ExecutionOptions(kernel="bitparallel", strategy="anytime")
        spec = QuerySpec(picture=pictures[5], limit=5, execution=options)
        serial = engine.execute_spec(spec)
        gathered = engine.execute_spec(
            spec.with_overrides(
                execution=ExecutionOptions(
                    kernel="bitparallel",
                    strategy="anytime",
                    executor="shard_process",
                    workers=workers,
                )
            )
        )
        assert result_key(serial.results) == result_key(gathered.results)

    def test_graded_predicate_only(self, engine, pictures, workers):
        labels = sorted(set(pictures[0].labels))
        tree = parse_tree(
            f"{labels[0]} left_of {labels[1]} [fuzzy] and "
            f"{labels[0]} above {labels[1]} [fuzzy w=2]"
        )
        spec = QuerySpec(predicate_tree=tree, limit=None)
        serial = engine.execute_spec(spec)
        gathered = engine.execute_spec(spec.with_overrides(execution=sharded(workers)))
        assert graded_key(serial.results) == graded_key(gathered.results)
        assert serial.predicate_matches.keys() == gathered.predicate_matches.keys()

    def test_not_or_tree(self, engine, pictures, workers):
        labels = sorted(set(pictures[0].labels))
        tree = parse_tree(
            f"not ({labels[0]} left_of {labels[1]}) or "
            f"{labels[1]} above {labels[0]} [fuzzy]"
        )
        spec = QuerySpec(predicate_tree=tree, limit=None)
        serial = engine.execute_spec(spec)
        gathered = engine.execute_spec(spec.with_overrides(execution=sharded(workers)))
        assert graded_key(serial.results) == graded_key(gathered.results)

    def test_graded_combined_product(self, engine, pictures, workers):
        labels = sorted(set(pictures[2].labels))
        tree = parse_tree(f"{labels[0]} left_of {labels[1]} [fuzzy]")
        spec = QuerySpec(picture=pictures[2], predicate_tree=tree, limit=8)
        serial = engine.execute_spec(spec)
        gathered = engine.execute_spec(spec.with_overrides(execution=sharded(workers)))
        assert result_key(serial.results) == result_key(gathered.results)

    def test_graded_combined_sum(self, engine, pictures, workers):
        labels = sorted(set(pictures[2].labels))
        tree = parse_tree(
            f"not {labels[0]} left_of {labels[1]} or "
            f"{labels[0]} same-row {labels[1]} [fuzzy w=3]"
        )
        spec = QuerySpec(
            picture=pictures[2],
            predicate_tree=tree,
            predicate_composition="sum",
            predicate_blend=0.3,
            limit=8,
        )
        serial = engine.execute_spec(spec)
        gathered = engine.execute_spec(spec.with_overrides(execution=sharded(workers)))
        assert result_key(serial.results) == result_key(gathered.results)

    def test_graded_anytime_bitparallel(self, engine, pictures, workers):
        labels = sorted(set(pictures[5].labels))
        tree = parse_tree(f"{labels[0]} same-column {labels[1]} [fuzzy]")
        spec = QuerySpec(
            picture=pictures[5],
            predicate_tree=tree,
            limit=5,
            execution=ExecutionOptions(kernel="bitparallel", strategy="anytime"),
        )
        serial = engine.execute_spec(spec)
        gathered = engine.execute_spec(
            spec.with_overrides(
                execution=ExecutionOptions(
                    kernel="bitparallel",
                    strategy="anytime",
                    executor="shard_process",
                    workers=workers,
                )
            )
        )
        assert result_key(serial.results) == result_key(gathered.results)

    def test_batch(self, engine, pictures, workers):
        queries = [
            QuerySpec(picture=pictures[1], limit=5),
            QuerySpec(picture=pictures[4], limit=5),
            QuerySpec(picture=pictures[1], limit=5),  # duplicate: must deduplicate
        ]
        serial = engine.run_batch(queries, executor="serial")
        gathered = engine.run_batch(queries, executor="shard_process", workers=workers)
        assert [result_key(r) for r in serial] == [result_key(r) for r in gathered]
        report = engine.last_batch_report
        assert report.executor == "shard_process"
        assert report.total_queries == 3
        assert report.unique_evaluations == 2


@pytest.mark.parametrize("workers", WORKER_COUNTS)
class TestAbsentVocabulary:
    """Symbols outside the indexed vocabulary behave identically everywhere.

    Pinned behaviour (the regression contract): a crisp predicate naming an
    absent label fails on every image — with the default ``minimum_score`` of
    0.0 every image is still *returned*, at score 0.0.  A graded leaf over
    absent labels has degree 0.0, so ``not`` over it fails open to 1.0.  The
    serial engine and the shard_process scatter must agree byte for byte.
    """

    def test_crisp_absent_symbol(self, engine, pictures, workers):
        predicate = parse_predicate("ghost left-of phantom")
        spec = QuerySpec(predicates=(predicate,), limit=None)
        serial = engine.execute_spec(spec)
        gathered = engine.execute_spec(spec.with_overrides(execution=sharded(workers)))
        assert predicate_key(serial.results) == predicate_key(gathered.results)
        assert len(serial.results) == DATABASE_SIZE
        assert all(match.score == 0.0 for match in serial.results)

    def test_crisp_minimum_score_drops_absent(self, engine, pictures, workers):
        predicate = parse_predicate("ghost left-of phantom")
        spec = QuerySpec(predicates=(predicate,), limit=None, minimum_score=0.5)
        serial = engine.execute_spec(spec)
        gathered = engine.execute_spec(spec.with_overrides(execution=sharded(workers)))
        assert predicate_key(serial.results) == predicate_key(gathered.results)
        assert serial.results == []

    def test_graded_absent_symbol(self, engine, pictures, workers):
        tree = parse_tree("ghost left-of phantom [fuzzy]")
        spec = QuerySpec(predicate_tree=tree, limit=None)
        serial = engine.execute_spec(spec)
        gathered = engine.execute_spec(spec.with_overrides(execution=sharded(workers)))
        assert graded_key(serial.results) == graded_key(gathered.results)
        assert len(serial.results) == DATABASE_SIZE
        assert all(match.degree == 0.0 for match in serial.results)

    def test_negated_absent_symbol_fails_open(self, engine, pictures, workers):
        tree = parse_tree("not ghost left-of phantom")
        spec = QuerySpec(predicate_tree=tree, limit=None)
        serial = engine.execute_spec(spec)
        gathered = engine.execute_spec(spec.with_overrides(execution=sharded(workers)))
        assert graded_key(serial.results) == graded_key(gathered.results)
        assert all(match.degree == 1.0 for match in serial.results)

    def test_combined_with_absent_symbol(self, engine, pictures, workers):
        labels = sorted(set(pictures[3].labels))
        tree = parse_tree(f"ghost left-of phantom [fuzzy] or {labels[0]} same-row {labels[1]}")
        spec = QuerySpec(picture=pictures[3], predicate_tree=tree, limit=None)
        serial = engine.execute_spec(spec)
        gathered = engine.execute_spec(spec.with_overrides(execution=sharded(workers)))
        assert result_key(serial.results) == result_key(gathered.results)


def parent_only(monkeypatch, owner, name, calls=None):
    """Patch ``owner.name`` to fail in any other process.

    Returns ``calls`` (a new list by default), to which each call the
    parent makes appends the name.  Patch before the pool forks, so its
    workers inherit the guard: a worker that calls the name answers with an
    error, which the scatter raises as a :class:`ShardWorkerError`.
    """
    parent = os.getpid()
    original = getattr(owner, name)
    calls = [] if calls is None else calls

    def guarded(*args, **kwargs):
        if os.getpid() != parent:
            raise AssertionError(f"a shard worker called {name}")
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, guarded)
    return calls


@pytest.mark.parametrize("workers", WORKER_COUNTS)
class TestScatterDoesSerialWork:
    """A scattered read does a serial read's work, split, and nothing more."""

    def test_a_worker_answers_without_indexing_any_record(
        self, engine, pictures, monkeypatch, workers
    ):
        for owner, name in [
            (QueryEngine, "_index"),
            (ImageDatabase, "add_record"),
            (InvertedSymbolIndex, "add_picture"),
        ]:
            parent_only(monkeypatch, owner, name)
        spec = QuerySpec(picture=pictures[3], limit=8)
        serial = engine.execute_spec(spec)
        gathered = engine.execute_spec(spec.with_overrides(execution=sharded(workers)))
        assert result_key(gathered.results) == result_key(serial.results)

    @pytest.mark.parametrize("transformations", [(Transformation.IDENTITY,), tuple(Transformation)])
    def test_only_the_parent_materialises_and_only_the_top_k(
        self, engine, pictures, monkeypatch, workers, transformations
    ):
        materialised = parent_only(monkeypatch, repro.index.query, "similarity")
        parent_only(monkeypatch, repro.index.query, "invariant_similarity", materialised)
        tables = parent_only(monkeypatch, repro.core.lcs, "be_lcs_table")
        spec = QuerySpec(
            picture=pictures[3],
            transformations=transformations,
            limit=8,
            execution=sharded(workers),
        )
        fresh = engine.execute_spec(spec)
        assert len(fresh.results) == min(8, fresh.trace.shortlisted)
        assert len(materialised) == len(fresh.results)
        assert len(tables) == 2 * len(transformations) * len(fresh.results)
        del materialised[:], tables[:]
        repeated = engine.execute_spec(spec)
        assert result_key(repeated.results) == result_key(fresh.results)
        assert materialised == [] and tables == []

    def test_cache_off_materialises_every_time(self, engine, pictures, monkeypatch, workers):
        materialised = parent_only(monkeypatch, repro.index.query, "similarity")
        options = ExecutionOptions(executor="shard_process", workers=workers, cache=False)
        spec = QuerySpec(picture=pictures[5], limit=4, execution=options)
        first = engine.execute_spec(spec)
        second = engine.execute_spec(spec)
        assert result_key(first.results) == result_key(second.results)
        assert len(materialised) == 2 * len(first.results)
        assert len(engine.score_cache) == 0

    def test_the_merged_trace_covers_the_whole_database(self, engine, pictures, workers):
        labels = sorted(set(pictures[2].labels))
        predicate = parse_predicate(f"{labels[0]} left_of {labels[1]}")
        for spec in [
            QuerySpec(picture=pictures[2], limit=5),
            QuerySpec(predicates=(predicate,), limit=None),
            QuerySpec(picture=pictures[2], predicates=(predicate,), limit=5),
            QuerySpec(picture=pictures[2], limit=5, execution=ExecutionOptions(shortlist=False)),
        ]:
            serial = engine.execute_spec(spec)
            options = replace(spec.execution or ExecutionOptions(), executor="shard_process")
            gathered = engine.execute_spec(
                spec.with_overrides(execution=replace(options, workers=workers))
            )
            assert gathered.trace.database_size == len(engine.database)
            assert gathered.trace.shortlisted == serial.trace.shortlisted
            assert gathered.trace.inverted_candidates == serial.trace.inverted_candidates
            assert gathered.trace.predicate_evaluated == serial.trace.predicate_evaluated


class TestGradedShortlistSoundness:
    """The graded label bound never costs a result the full scan returns."""

    def _trees(self, pictures):
        labels = sorted({label for picture in pictures[:6] for label in picture.labels})
        a, b, c = labels[0], labels[1], labels[-1]
        return [
            parse_tree(f"{a} left_of {b} [fuzzy]"),
            parse_tree(f"not {a} left_of {b} or {b} above {c} [fuzzy w=2]"),
            parse_tree(f"{a} same-column {b} [fuzzy] and {c} overlaps {b} [fuzzy]"),
            parse_tree(f"ghost inside {a} [fuzzy] or {b} below {c}"),
        ]

    @pytest.mark.parametrize("minimum_score", [0.0, 0.3, 0.7])
    def test_predicate_only_matches_unfiltered_scan(self, engine, pictures, minimum_score):
        for tree in self._trees(pictures):
            spec = QuerySpec(predicate_tree=tree, limit=None, minimum_score=minimum_score)
            filtered = engine.execute_spec(spec)
            full = engine.execute_spec(
                spec.with_overrides(execution=ExecutionOptions(shortlist=False))
            )
            assert full.trace.predicate_pruned == 0
            assert graded_key(filtered.results) == graded_key(full.results)
            assert {m.image_id for m in full.results} <= {
                m.image_id for m in filtered.results
            }

    @pytest.mark.parametrize("strategy", ["exhaustive", "anytime"])
    def test_combined_matches_unfiltered_scan(self, engine, pictures, strategy):
        options = ExecutionOptions(strategy=strategy)
        for index, tree in enumerate(self._trees(pictures)):
            spec = QuerySpec(
                picture=pictures[index],
                predicate_tree=tree,
                limit=None,
                minimum_score=0.2,
                execution=options,
            )
            filtered = engine.execute_spec(spec)
            full = engine.execute_spec(
                spec.with_overrides(execution=replace(options, shortlist=False))
            )
            assert full.trace.predicate_pruned == 0
            assert result_key(filtered.results) == result_key(full.results)


class TestCountersAndStats:
    def test_execution_counters_flow_back(self, engine, pictures):
        before = engine.counters.execution
        engine.execute_spec(
            QuerySpec(picture=pictures[0], limit=5, execution=sharded(2))
        )
        after = engine.counters.execution
        assert after.queries == before.queries + 1
        assert after.admitted > before.admitted
        assert after.examined > before.examined

    def test_shortlist_counters_flow_back(self, engine, pictures):
        before = engine.counters.shortlist
        engine.execute_spec(
            QuerySpec(picture=pictures[0], limit=5, execution=sharded(2))
        )
        after = engine.counters.shortlist
        assert after.queries == before.queries + 1
        assert after.admitted > before.admitted

    def test_trace_is_merged(self, engine, pictures):
        outcome = engine.execute_spec(
            QuerySpec(picture=pictures[0], limit=5, execution=sharded(2))
        )
        assert outcome.trace.database_size == DATABASE_SIZE
        assert outcome.trace.shortlisted > 0
        assert outcome.trace.candidates

    def test_pool_stats_block(self, engine, pictures):
        assert engine.shard_pool_stats() is None
        engine.execute_spec(
            QuerySpec(picture=pictures[0], limit=5, execution=sharded(2))
        )
        stats = engine.shard_pool_stats()
        assert stats["count"] == 2
        assert stats["scatters"] == 1
        assert stats["restarts"] == 0
        assert stats["scatter_latency_ms"]["mean"] > 0
        assert len(stats["workers"]) == 2
        assert sum(entry["images"] for entry in stats["workers"]) == DATABASE_SIZE
        assert all(entry["alive"] for entry in stats["workers"])


class TestLifecycle:
    def test_mutation_invalidates_pool(self, engine, pictures):
        spec = QuerySpec(picture=pictures[0], limit=5, execution=sharded(2))
        engine.execute_spec(spec)
        assert engine.shard_pool_stats() is not None
        engine.remove_picture("img-001")
        assert engine.shard_pool_stats() is None
        serial = engine.execute_spec(QuerySpec(picture=pictures[0], limit=5))
        gathered = engine.execute_spec(spec)
        assert result_key(serial.results) == result_key(gathered.results)
        assert all(r.image_id != "img-001" for r in gathered.results)

    def test_worker_count_change_rebuilds_pool(self, engine, pictures):
        engine.execute_spec(QuerySpec(picture=pictures[0], limit=5, execution=sharded(2)))
        assert engine.shard_pool_stats()["count"] == 2
        engine.execute_spec(QuerySpec(picture=pictures[0], limit=5, execution=sharded(3)))
        assert engine.shard_pool_stats()["count"] == 3

    def test_close_is_idempotent(self, engine, pictures):
        engine.execute_spec(QuerySpec(picture=pictures[0], limit=5, execution=sharded(2)))
        engine.close_shard_pool()
        engine.close_shard_pool()
        assert engine.shard_pool_stats() is None

    def test_worker_runs_with_the_collector_on(self):
        # A fork made during another thread's load inherits the paused
        # collector; the worker loop switches it back on before serving.
        parent, child = multiprocessing.Pipe()
        parent.send(("stop",))
        gc.disable()
        try:
            _worker_main(None, child)
            assert gc.isenabled()
        finally:
            gc.enable()
            parent.close()
            child.close()

    def test_closed_pool_refuses_queries(self, pictures):
        database = ImageDatabase()
        for index, picture in enumerate(pictures[:8]):
            database.add_picture(picture, f"img-{index:03d}")
        pool = ShardWorkerPool(2, QueryEngine.build(database))
        pool.close()
        with pytest.raises(ShardWorkerError):
            pool.execute_spec(QuerySpec(picture=pictures[0], limit=3))


class TestCrashRecovery:
    def test_worker_crash_between_queries_restarts(self, engine, pictures):
        spec = QuerySpec(picture=pictures[0], limit=5, execution=sharded(2))
        serial_key = result_key(engine.execute_spec(QuerySpec(picture=pictures[0], limit=5)).results)
        engine.execute_spec(spec)
        pool = engine._shard_pool
        victim = pool._workers[0]
        victim.process.kill()
        victim.process.join(timeout=5)
        recovered = engine.execute_spec(spec)
        assert result_key(recovered.results) == serial_key
        stats = engine.shard_pool_stats()
        assert stats["restarts"] >= 1
        assert all(entry["alive"] for entry in stats["workers"])

    def test_worker_crash_mid_query_recovers(self, pictures):
        import threading
        import time

        database = ImageDatabase()
        for index, picture in enumerate(pictures):
            database.add_picture(picture, f"img-{index:03d}")
        engine = QueryEngine.build(database)
        specs = [
            QuerySpec(
                picture=pictures[index], transformations=tuple(Transformation), limit=5
            )
            for index in range(10)
        ]
        serial = [ranking_keys(engine.execute_spec(spec).results) for spec in specs]
        pool = ShardWorkerPool(2, engine)
        try:
            # The scatter below takes a while (10 invariant queries); kill a
            # worker shortly after it starts so the death lands mid-query.
            # Whichever way the pool notices (EOF on gather, broken pipe on
            # a resend), it must restart the worker and finish correctly.
            for _ in range(3):
                victim = pool._workers[1]
                killer = threading.Timer(0.05, victim.process.kill)
                killer.start()
                gathered = pool.execute_many(specs)
                killer.cancel()
                assert [gather.keys for gather in gathered] == serial
                if sum(worker.restarts for worker in pool._workers) >= 1:
                    break
                time.sleep(0.01)
            assert sum(worker.restarts for worker in pool._workers) >= 1
            assert all(worker.process.is_alive() for worker in pool._workers)
        finally:
            pool.close()
            engine.close_shard_pool()

    def test_restart_budget_exhaustion_raises(self, pictures):
        database = ImageDatabase()
        for index, picture in enumerate(pictures[:8]):
            database.add_picture(picture, f"img-{index:03d}")
        pool = ShardWorkerPool(1, QueryEngine.build(database), max_restarts=0)
        pool._workers[0].process.kill()
        pool._workers[0].process.join(timeout=5)
        with pytest.raises(ShardWorkerError):
            pool.execute_spec(QuerySpec(picture=pictures[0], limit=3))
        pool.close()

    def test_failed_scatter_does_not_poison_the_next_query(self, pictures):
        # An aborted gather (here: worker 0 dead with the budget exhausted)
        # leaves the *surviving* worker with queued requests and buffered
        # 'ok' responses for the old batch.  The pool must discard all of
        # that before serving another query — otherwise the next gather
        # attributes the stale responses to its own request ids and returns
        # the wrong query's results.
        database = ImageDatabase()
        for index, picture in enumerate(pictures[:12]):
            database.add_picture(picture, f"img-{index:03d}")
        engine = QueryEngine.build(database)
        pool = ShardWorkerPool(2, engine, max_restarts=0)
        try:
            pool._workers[0].process.kill()
            pool._workers[0].process.join(timeout=5)
            specs = [QuerySpec(picture=pictures[index], limit=3) for index in range(4)]
            with pytest.raises(ShardWorkerError):
                pool.execute_many(specs)
            probe = QuerySpec(picture=pictures[5], limit=3)
            gather = pool.execute_spec(probe)
            expected = engine.execute_spec(probe)
            assert gather.keys == ranking_keys(expected.results)
            assert all(worker.process.is_alive() for worker in pool._workers)
        finally:
            pool.close()
            engine.close_shard_pool()

    def test_worker_error_response_does_not_poison_the_pool(self, pictures):
        # An empty spec passes the parent (the pool never validates) but is
        # rejected by every worker's engine — an 'error' response.  The
        # surviving workers' buffered answers for the same batch must not
        # leak into the next scatter, and the pool must stay usable.
        database = ImageDatabase()
        for index, picture in enumerate(pictures[:12]):
            database.add_picture(picture, f"img-{index:03d}")
        engine = QueryEngine.build(database)
        pool = ShardWorkerPool(2, engine)
        try:
            good = [QuerySpec(picture=pictures[index], limit=3) for index in range(3)]
            with pytest.raises(ShardWorkerError):
                pool.execute_many(good + [QuerySpec()])
            probe = QuerySpec(picture=pictures[4], limit=3)
            gather = pool.execute_spec(probe)
            expected = engine.execute_spec(probe)
            assert gather.keys == ranking_keys(expected.results)
        finally:
            pool.close()
            engine.close_shard_pool()


class TestPipePressure:
    def test_large_batch_with_unbounded_limits_completes(self, engine, pictures):
        # Both pipe directions well past the ~64KiB OS buffer: dozens of
        # specs outbound, and unbounded rankings plus full per-candidate
        # traces inbound.  A scatter that wrote every request before reading
        # any response would deadlock here (worker blocked writing, parent
        # blocked sending); the streaming sender/gather must complete and
        # stay byte-identical to the serial engine.
        specs = [
            QuerySpec(picture=pictures[index % len(pictures)], limit=None)
            for index in range(48)
        ]
        serial = [ranking_keys(engine.execute_spec(spec).results) for spec in specs]
        pool = ShardWorkerPool(2, engine)
        try:
            gathered = pool.execute_many(specs)
            assert [gather.keys for gather in gathered] == serial
        finally:
            pool.close()


class TestStatsUnderLoad:
    def test_stats_does_not_queue_behind_an_inflight_scatter(self, pictures):
        import threading

        database = ImageDatabase()
        for index, picture in enumerate(pictures[:8]):
            database.add_picture(picture, f"img-{index:03d}")
        pool = ShardWorkerPool(2, QueryEngine.build(database))
        try:
            collected = {}

            def snapshot():
                collected["stats"] = pool.stats()

            # Holding the scatter mutex models a long in-flight batch; the
            # /stats path must answer anyway.
            with pool._lock:
                thread = threading.Thread(target=snapshot, daemon=True)
                thread.start()
                thread.join(timeout=5)
            assert "stats" in collected, "stats() blocked on the scatter mutex"
            assert collected["stats"]["count"] == 2
        finally:
            pool.close()


class TestWarmStart:
    def test_pool_over_sharded_load_never_reads_a_shard_file(
        self, pictures, tmp_path, monkeypatch
    ):
        database = ImageDatabase()
        for index, picture in enumerate(pictures):
            database.add_picture(picture, f"img-{index:03d}")
        source = tmp_path / "shards"
        ShardedBackend(shard_count=8).save(database, source)
        # The ``repro serve DIR --shard-workers 2`` wiring.
        service = RetrievalService(
            RetrievalSystem.from_file(source), database_path=source, shard_workers=2
        )
        engine = service.system._engine

        def no_disk_reads(shard_path):
            raise AssertionError(f"worker opened {shard_path}")

        # Workers fork after this patch, so it covers them too.
        monkeypatch.setattr(ShardedBackend, "_read_shard", staticmethod(no_disk_reads))
        try:
            serial = engine.execute_spec(
                QuerySpec(
                    picture=pictures[0], limit=6, execution=ExecutionOptions(executor="serial")
                )
            )
            gathered = engine.execute_spec(QuerySpec(picture=pictures[0], limit=6))
            assert result_key(serial.results) == result_key(gathered.results)
            stats = engine.shard_pool_stats()
            assert "warm_start" not in stats
            assert sum(entry["images"] for entry in stats["workers"]) == DATABASE_SIZE
        finally:
            engine.close_shard_pool()


class TestShardOwnership:
    def test_every_shard_has_exactly_one_owner(self, pictures):
        database = ImageDatabase()
        for index, picture in enumerate(pictures[:8]):
            database.add_picture(picture, f"img-{index:03d}")
        engine = QueryEngine.build(database)
        for workers in (1, 2, 3, 4, 7):
            pool = ShardWorkerPool(workers, engine)
            owners = [pool._owner_of(shard) for shard in range(pool.shard_count)]
            assert set(owners) <= set(range(workers))
            seen = {}
            for worker in pool._workers:
                for shard in worker.owned:
                    assert shard not in seen
                    seen[shard] = worker.worker_id
            assert len(seen) == pool.shard_count
            pool.close()

    def test_owned_slices_respect_crc32_mapping(self, pictures):
        database = ImageDatabase()
        for index, picture in enumerate(pictures[:12]):
            database.add_picture(picture, f"img-{index:03d}")
        pool = ShardWorkerPool(3, QueryEngine.build(database))
        for worker in pool._workers:
            owned = set(worker.owned)
            expected = {
                image_id
                for image_id in database.image_ids
                if shard_index_for(image_id, pool.shard_count) in owned
            }
            assert worker.image_ids == expected
            assert worker.images == len(expected)
        assert sum(worker.images for worker in pool._workers) == len(database)
        pool.close()


class TestSanitisation:
    def test_invalid_worker_count_rejected(self, pictures):
        database = ImageDatabase()
        database.add_picture(pictures[0], "img-000")
        with pytest.raises(ValueError):
            ShardWorkerPool(0, QueryEngine.build(database))
