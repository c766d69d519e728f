"""Tests for the batch query subsystem (dedup, candidate loop, score cache).

The CI ``shard-workers`` leg re-runs this module with ``REPRO_SHARD_WORKERS``
pinned to 2 and 4.
"""

import os

import pytest

from repro.core.transforms import Transformation
from repro.geometry.rectangle import Rectangle
from repro.iconic.picture import SymbolicPicture
from repro.index.batch import BatchQueryEngine, BatchReport
from repro.index.cache import ScoreCache, query_score_key
from repro.index.database import ImageDatabase
from repro.index.execution import ExecutionOptions
from repro.index.query import QueryEngine
from repro.index.spec import QuerySpec
from repro.retrieval.system import RetrievalSystem

SHARD_WORKERS = int(os.environ.get("REPRO_SHARD_WORKERS") or 2)


def result_key(results):
    """Everything a ranked result list is judged on, including tie-breaks."""
    return [
        (r.rank, r.image_id, r.score, r.similarity.transformation, r.similarity.common_objects)
        for r in results
    ]


@pytest.fixture
def engine(scene_collection):
    database = ImageDatabase()
    database.add_pictures(scene_collection)
    engine = QueryEngine.build(database)
    yield engine
    engine.close_shard_pool()


@pytest.fixture
def system(scene_collection):
    system = RetrievalSystem.from_pictures(scene_collection)
    yield system
    system._engine.close_shard_pool()


@pytest.fixture
def query_pictures(scene_collection):
    # Duplicates on purpose: the batch engine must deduplicate them.
    return [
        scene_collection[0],
        scene_collection[3],
        scene_collection[0],
        scene_collection[5],
        scene_collection[3],
    ]


class TestEquivalenceWithSerial:
    @pytest.mark.parametrize("executor", ["serial", "shard_process"])
    def test_run_batch_matches_execute(self, engine, query_pictures, executor):
        queries = [QuerySpec(picture=picture, limit=5) for picture in query_pictures]
        serial = [engine.execute_spec(query).results for query in queries]
        batch = engine.run_batch(queries, workers=SHARD_WORKERS, executor=executor)
        assert [result_key(r) for r in batch] == [result_key(r) for r in serial]

    def test_query_batch_matches_n_serial_queries(self, system, query_pictures):
        serial = [
            list(system.query(picture).limit(4).execute()) for picture in query_pictures
        ]
        batch = system.query_batch(
            [system.query(picture).limit(4) for picture in query_pictures]
        )
        assert [result_key(r) for r in batch] == [result_key(r) for r in serial]

    def test_parallel_query_batch_matches_serial(self, system, query_pictures):
        serial = [
            list(system.query(picture).limit(4).execute()) for picture in query_pictures
        ]
        batch = system.query_batch(
            [system.query(picture).limit(4) for picture in query_pictures], workers=3
        )
        assert [result_key(r) for r in batch] == [result_key(r) for r in serial]

    def test_invariant_batch_matches_serial(self, system, query_pictures):
        serial = [
            list(system.query(picture).invariant().limit(4).execute())
            for picture in query_pictures
        ]
        batch = system.query_batch(
            [system.query(picture).invariant().limit(4) for picture in query_pictures],
            workers=2,
        )
        assert [result_key(r) for r in batch] == [result_key(r) for r in serial]

    def test_tie_break_ordering_is_preserved(self, office):
        # Identical copies of one picture under different ids score equally;
        # ranking must fall back to the image id on both paths.
        system = RetrievalSystem.from_pictures(
            [office.renamed(f"copy-{index}") for index in range(6)]
        )
        serial = list(system.query(office).limit(None).execute())
        batch = system.query_batch([system.query(office).limit(None)])[0]
        assert [r.image_id for r in serial] == [f"copy-{index}" for index in range(6)]
        assert result_key(batch) == result_key(serial)

    def test_heterogeneous_limits_and_thresholds(self, system, query_pictures):
        queries = [
            QuerySpec(picture=query_pictures[0], limit=2),
            QuerySpec(picture=query_pictures[0], limit=None, minimum_score=0.5),
            QuerySpec(picture=query_pictures[1], transformations=tuple(Transformation), limit=3),
            QuerySpec(
                picture=query_pictures[2],
                limit=None,
                execution=ExecutionOptions(shortlist=False),
            ),
        ]
        serial = [system._engine.execute_spec(query).results for query in queries]
        batch = system.query_batch(queries, workers=SHARD_WORKERS, executor="shard_process")
        assert [result_key(r) for r in batch] == [result_key(r) for r in serial]

    def test_empty_batch(self, system):
        assert system.query_batch([]) == []


class TestDeduplicationAndCache:
    def test_duplicate_queries_evaluated_once(self, engine, query_pictures):
        queries = [QuerySpec(picture=picture, limit=5) for picture in query_pictures]
        engine.run_batch(queries)
        report = engine.last_batch_report
        assert report.total_queries == 5
        assert report.unique_evaluations == 3
        assert report.deduplicated_queries == 2

    def test_second_batch_is_served_from_cache(self, engine, query_pictures):
        queries = [QuerySpec(picture=picture, limit=5) for picture in query_pictures]
        first = engine.run_batch(queries)
        assert engine.last_batch_report.scored > 0
        second = engine.run_batch(queries)
        report = engine.last_batch_report
        assert report.scored == 0
        assert report.cache_hits == report.candidates_considered > 0
        assert report.cache_hit_rate == 1.0
        assert [result_key(r) for r in second] == [result_key(r) for r in first]

    def test_cache_false_bypasses_cache(self, engine, query_pictures):
        queries = [QuerySpec(picture=picture, limit=None) for picture in query_pictures]
        engine.run_batch(queries)
        engine.run_batch(queries, cache=False)
        report = engine.last_batch_report
        assert report.cache_hits == 0
        assert report.scored == report.candidates_considered

    def test_cache_invalidated_on_remove(self, scene_collection, office):
        system = RetrievalSystem.from_pictures(scene_collection)
        before = system.query_batch([system.query(office).limit(None)])[0]
        assert any(r.image_id == "office-001" for r in before)
        system.remove_picture("office-001")
        after = system.query_batch([system.query(office).limit(None)])[0]
        assert not any(r.image_id == "office-001" for r in after)
        fresh = list(system.query(office).limit(None).execute())
        assert result_key(after) == result_key(fresh)

    def test_cache_invalidated_on_object_update(self, scene_collection, office):
        system = RetrievalSystem.from_pictures(scene_collection)
        stale = system.query_batch([system.query(office).limit(None)])[0]
        # Editing a stored image changes its BE-string; the cached score for
        # that image must be dropped, not replayed.
        system.add_object("office-001", "aquarium", Rectangle(1.0, 1.0, 3.0, 3.0))
        system.remove_object("office-000", "phone")
        updated = system.query_batch([system.query(office).limit(None)])[0]
        fresh = list(system.query(office).limit(None).execute())
        assert result_key(updated) == result_key(fresh)
        assert result_key(updated) != result_key(stale)

    def test_cache_invalidated_on_add_picture(self, scene_collection, office):
        system = RetrievalSystem.from_pictures(scene_collection)
        system.query_batch([system.query(office)])
        system.add_picture(office.renamed("office-twin"))
        results = system.query_batch([system.query(office).limit(None)])[0]
        assert any(r.image_id == "office-twin" for r in results)
        fresh = list(system.query(office).limit(None).execute())
        assert result_key(results) == result_key(fresh)


class TestBatchOptions:
    @pytest.mark.parametrize("executor", ["thread", "process", "auto"])
    def test_removed_pool_executors_are_rejected(self, system, office, executor):
        # The thread and process pools are gone: naming one must fail
        # loudly rather than quietly run the serial loop.
        with pytest.raises(ValueError, match="executor"):
            system.query_batch([system.query(office)], executor=executor)

    def test_non_positive_workers_rejected(self, system, office):
        with pytest.raises(ValueError, match="workers"):
            system.query_batch([system.query(office)], executor="shard_process", workers=0)

    @pytest.mark.parametrize("option", ["chunk_size", "use_cache", "options"])
    def test_removed_batch_options_are_rejected(self, system, office, option):
        with pytest.raises(TypeError, match=option):
            system.query_batch([system.query(office)], **{option: None})

    def test_serial_batch_reports_one_worker(self, system, query_pictures):
        system.query_batch([system.query(picture) for picture in query_pictures], workers=4)
        report = system.last_batch_report
        assert (report.executor, report.workers) == ("serial", 1)
        assert report.describe().endswith("via serial x1")

    def test_one_shard_worker_matches_serial(self, system, query_pictures):
        builders = [system.query(picture).limit(4) for picture in query_pictures]
        serial = system.query_batch(builders)
        sharded = system.query_batch(builders, executor="shard_process", workers=1)
        assert [result_key(r) for r in sharded] == [result_key(r) for r in serial]
        report = system.last_batch_report
        assert (report.executor, report.workers) == ("shard_process", 1)

    def test_execution_value_matches_keyword_overrides(self, system, query_pictures):
        builders = [system.query(picture).limit(4) for picture in query_pictures]
        by_value = system.query_batch(
            builders, ExecutionOptions(executor="shard_process", workers=SHARD_WORKERS)
        )
        value_report = system.last_batch_report
        by_keyword = system.query_batch(
            builders, executor="shard_process", workers=SHARD_WORKERS
        )
        keyword_report = system.last_batch_report
        assert [result_key(r) for r in by_value] == [result_key(r) for r in by_keyword]
        assert (value_report.executor, value_report.workers) == (
            keyword_report.executor,
            keyword_report.workers,
        ) == ("shard_process", SHARD_WORKERS)


class TestBatchReport:
    def test_describe_format(self):
        report = BatchReport(
            total_queries=5,
            unique_evaluations=3,
            candidates_considered=12,
            scored=7,
            cache_hits=5,
            executor="shard_process",
            workers=2,
        )
        assert report.describe() == (
            "5 queries -> 3 unique evaluations, 12 candidate scores "
            "(5 cached, 7 computed) via shard_process x2"
        )

    def test_describe_names_pruned_counts(self):
        report = BatchReport(
            total_queries=1,
            unique_evaluations=1,
            candidates_considered=4,
            scored=4,
            shortlist_bitmap_pruned=3,
            shortlist_relation_pruned=1,
        )
        assert report.describe() == (
            "1 queries -> 1 unique evaluations, 4 candidate scores "
            "(0 cached, 4 computed, 3 bitmap-pruned + 1 relation-pruned) via serial x1"
        )

    @pytest.mark.parametrize("executor", ["serial", "shard_process"])
    def test_considered_is_cached_plus_computed(self, system, query_pictures, executor):
        builders = [system.query(picture).limit(None) for picture in query_pictures]
        system.query_batch(builders, executor=executor, workers=SHARD_WORKERS)
        cold = system.last_batch_report
        assert cold.cache_hits == 0
        assert cold.scored == cold.candidates_considered > 0
        system.query_batch(builders, executor=executor, workers=SHARD_WORKERS)
        warm = system.last_batch_report
        assert warm.scored == 0
        assert warm.cache_hits == warm.candidates_considered == cold.candidates_considered

    @pytest.mark.parametrize("executor", ["serial", "shard_process"])
    def test_limit_variants_share_scores_through_the_cache(self, system, office, executor):
        # Same content, different limits: two evaluations, but the second
        # reads the first one's scores instead of computing them again.
        builders = [system.query(office).limit(1), system.query(office).limit(None)]
        batch = system.query_batch(builders, executor=executor, workers=SHARD_WORKERS)
        report = system.last_batch_report
        assert report.unique_evaluations == 2
        assert report.cache_hits > 0
        offices = [image_id for image_id in system.image_ids if image_id.startswith("office")]
        assert report.scored == len(offices)
        assert [result_key(r) for r in batch] == [
            result_key(builder.execute()) for builder in builders
        ]

    def test_batch_cache_off_overrides_per_query_cache_on(self, system, office, traffic):
        builders = [system.query(picture).execution(cache=True) for picture in (office, traffic)]
        for _ in range(2):
            system.query_batch(builders, cache=False)
            report = system.last_batch_report
            assert report.cache_hits == 0
            assert report.scored == report.candidates_considered > 0
        assert len(system._engine.score_cache) == 0

    @pytest.mark.parametrize("executor", ["serial", "shard_process"])
    def test_batch_honours_per_query_strategy(self, system, office, executor):
        anytime = system.query(office).limit(3)
        exhaustive = (
            system.query(office)
            .limit(3)
            .execution(kernel="reference", strategy="exhaustive")
        )
        before = system.execution_statistics()
        batch = system.query_batch(
            [anytime, exhaustive], executor=executor, workers=SHARD_WORKERS
        )
        after = system.execution_statistics()
        assert after.queries - before.queries == 2
        assert after.anytime_queries - before.anytime_queries == 1
        assert result_key(batch[0]) == result_key(batch[1])


class TestScoreCache:
    def test_lru_eviction(self, office, traffic, landscape):
        system = RetrievalSystem.from_pictures([office, traffic, landscape])
        engine = system._engine
        engine.score_cache = ScoreCache(capacity=2)
        system.query_batch([system.query(office).execution(shortlist=False)])  # 3 candidates > capacity 2
        stats = engine.score_cache.statistics
        assert stats.size == 2
        assert stats.evictions >= 1

    def test_invalidate_unknown_image_is_noop(self):
        cache = ScoreCache()
        assert cache.invalidate_image("missing") == 0

    def test_statistics_and_clear(self, office, traffic):
        system = RetrievalSystem.from_pictures([office, traffic])
        system.query_batch([system.query(office)])
        cache = system._engine.score_cache
        assert len(cache) > 0
        assert cache.statistics.hit_rate == 0.0
        system.query_batch([system.query(office)])
        assert cache.statistics.hits > 0
        cache.clear()
        assert len(cache) == 0

    def test_query_key_ignores_picture_name(self, office):
        from repro.core.construct import encode_picture
        from repro.core.similarity import DEFAULT_POLICY
        from repro.core.transforms import Transformation

        key_a = query_score_key(
            encode_picture(office), DEFAULT_POLICY, (Transformation.IDENTITY,)
        )
        key_b = query_score_key(
            encode_picture(office.renamed("other-name")),
            DEFAULT_POLICY,
            (Transformation.IDENTITY,),
        )
        assert key_a == key_b

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            ScoreCache(capacity=0)


class TestStalePostings:
    def test_removed_label_cannot_inflate_batch_shortlists(self):
        # Regression companion to tests/index/test_inverted.py: once the only
        # image holding a label is gone, a batch query for that label must not
        # shortlist (and pay LCS scoring for) anything.
        lamp = SymbolicPicture.build(
            width=10, height=10, objects=[("lamp", Rectangle(1, 1, 3, 3))], name="lamp-only"
        )
        desk = SymbolicPicture.build(
            width=10, height=10, objects=[("desk", Rectangle(2, 2, 6, 4))], name="desk-only"
        )
        system = RetrievalSystem.from_pictures([lamp, desk])
        system.remove_picture("lamp-only")
        results = system.query_batch([system.query(lamp).limit(None)])[0]
        assert results == []
        assert system.last_batch_report.candidates_considered == 0


class TestBatchShortlistPruning:
    def test_report_counts_pruned_candidates_and_results_match_serial(self, engine):
        queries = [
            QuerySpec(
                picture=record.picture,
                limit=None,
                minimum_score=0.95,
                execution=ExecutionOptions(cache=False),
            )
            for record in list(engine.database)[:4]
        ]
        batch = BatchQueryEngine(engine=engine)
        batched, report = batch.run_detailed(queries)
        assert report.shortlist_pruned > 0
        assert "pruned" in report.describe()
        for query, results in zip(queries, batched):
            serial = engine.execute_spec(query).results
            assert [(r.rank, r.image_id, r.score) for r in results] == [
                (r.rank, r.image_id, r.score) for r in serial
            ]

    def test_same_content_different_min_score_are_separate_groups(self, engine):
        picture = next(iter(engine.database)).picture
        relaxed = QuerySpec(picture=picture, minimum_score=0.0, limit=None)
        strict = QuerySpec(picture=picture, minimum_score=0.9, limit=None)
        batch = BatchQueryEngine(engine=engine)
        batched, report = batch.run_detailed([relaxed, strict])
        # One shortlist per distinct min_score: the strict query must not
        # inherit the relaxed query's (unpruned) candidate list or vice versa.
        assert report.unique_evaluations == 2
        assert [(r.rank, r.image_id, r.score) for r in batched[0]] == [
            (r.rank, r.image_id, r.score) for r in engine.execute_spec(relaxed).results
        ]
        assert [(r.rank, r.image_id, r.score) for r in batched[1]] == [
            (r.rank, r.image_id, r.score) for r in engine.execute_spec(strict).results
        ]
