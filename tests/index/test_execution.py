"""ExecutionOptions semantics and kernel/strategy ranking equivalence.

Three parts.  The unit part pins the options value object: vocabulary
validation, ``None``-means-inherit overlay order, dict round-trips, and the
cumulative counters the service ``/stats`` endpoint surfaces, folded from
query traces.  The
equivalence part is the load-bearing one: every combination of kernel
(``bitparallel``/``reference``) and strategy (``anytime``/``exhaustive``)
must produce rankings byte-identical — tie-breaks, transformations and all —
to the historical reference/exhaustive path, across exact, invariant,
partial, predicate-combined and min-score query modes.  A single divergence
means either the kernel mis-scored or the branch-and-bound cut off a
candidate it had no right to drop (see ``docs/kernels.md``).  The last
part checks that the engine-level ``cache`` and ``shortlist`` defaults
reach every path: serial, batch and the shard workers.
"""

import pytest

from repro.datasets.scenes import office_scene, traffic_scene
from repro.datasets.synthetic import SceneParameters, random_pictures
from repro.index.execution import (
    DEFAULT_EXECUTION,
    ExecutionOptions,
    KERNEL_BITPARALLEL,
    KERNEL_REFERENCE,
    STRATEGY_ANYTIME,
    STRATEGY_EXHAUSTIVE,
)
from repro.index.query import EngineCounters
from repro.index.spec import QueryTrace
from repro.retrieval.system import RetrievalSystem

_PARAMETERS = SceneParameters(
    object_count=6,
    labels=tuple(f"label{index:02d}" for index in range(10)),
    label_choice="random",
)

#: Every non-default scoring configuration under test.
_CONFIGS = [
    pytest.param(ExecutionOptions(kernel=KERNEL_BITPARALLEL), id="kernel"),
    pytest.param(ExecutionOptions(strategy=STRATEGY_ANYTIME), id="anytime"),
    pytest.param(
        ExecutionOptions(kernel=KERNEL_BITPARALLEL, strategy=STRATEGY_ANYTIME),
        id="kernel+anytime",
    ),
]


def result_key(results):
    """Everything a ranking is judged on, including tie-break order."""
    return [
        (r.rank, r.image_id, r.score, r.similarity.transformation)
        for r in results
    ]


class TestOptionsValidation:
    def test_rejects_unknown_kernel(self):
        with pytest.raises(ValueError, match="kernel"):
            ExecutionOptions(kernel="simd")

    def test_rejects_unknown_strategy(self):
        with pytest.raises(ValueError, match="strategy"):
            ExecutionOptions(strategy="eventually")

    @pytest.mark.parametrize("executor", ["fork", "thread", "process", "auto"])
    def test_rejects_unknown_executor(self, executor):
        with pytest.raises(ValueError, match="executor"):
            ExecutionOptions(executor=executor)

    def test_rejects_non_positive_workers(self):
        with pytest.raises(ValueError, match="workers"):
            ExecutionOptions(workers=0)

    def test_worker_count_is_bounded_by_the_shard_space(self):
        from repro.index.backends import DEFAULT_SHARD_COUNT
        from repro.index.execution import MAX_WORKERS

        assert MAX_WORKERS == DEFAULT_SHARD_COUNT == 16
        assert ExecutionOptions(workers=MAX_WORKERS).workers == 16
        with pytest.raises(ValueError, match="from 1 to 16"):
            ExecutionOptions(workers=MAX_WORKERS + 1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("shortlist", "no"),
            ("shortlist", 0),
            ("cache", "off"),
            ("cache", 1),
            ("workers", 2.5),
            ("workers", True),
            ("workers", "2"),
        ],
    )
    def test_rejects_values_of_the_wrong_type(self, field, value):
        with pytest.raises(ValueError, match=field):
            ExecutionOptions(**{field: value})

    def test_default_is_all_inherit(self):
        options = ExecutionOptions()
        assert options.describe() == "inherit-all"
        assert options.to_dict() == {}


class TestOverlayAndResolve:
    def test_non_none_fields_win(self):
        base = ExecutionOptions(kernel=KERNEL_REFERENCE, workers=2)
        override = ExecutionOptions(kernel=KERNEL_BITPARALLEL, cache=False)
        merged = base.overlaid(override)
        assert merged.kernel == KERNEL_BITPARALLEL  # overridden
        assert merged.workers == 2  # inherited
        assert merged.cache is False  # newly set

    def test_overlaid_none_is_identity(self):
        options = ExecutionOptions(strategy=STRATEGY_ANYTIME)
        assert options.overlaid(None) is options

    def test_resolved_fills_documented_defaults(self):
        resolved = ExecutionOptions(strategy=STRATEGY_ANYTIME).resolved()
        assert resolved.strategy == STRATEGY_ANYTIME
        assert resolved.kernel == DEFAULT_EXECUTION.kernel
        assert resolved.shortlist is True
        assert resolved.cache is True


class TestDictRoundTrip:
    def test_round_trip_preserves_set_fields(self):
        options = ExecutionOptions(
            kernel=KERNEL_BITPARALLEL, strategy=STRATEGY_ANYTIME, workers=3
        )
        assert ExecutionOptions.from_dict(options.to_dict()) == options

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="turbo"):
            ExecutionOptions.from_dict({"turbo": True})

    def test_from_dict_validates_values(self):
        with pytest.raises(ValueError, match="kernel"):
            ExecutionOptions.from_dict({"kernel": "simd"})


class TestCounters:
    def test_record_and_snapshot(self):
        counters = EngineCounters()
        counters.record(
            QueryTrace(
                shortlisted=10,
                candidates_examined=4,
                bound_skipped=6,
                strategy=STRATEGY_ANYTIME,
            ),
            graded=False,
        )
        counters.record(QueryTrace(shortlisted=5, candidates_examined=5), graded=False)
        statistics = counters.execution
        assert statistics.queries == 2
        assert statistics.anytime_queries == 1
        assert statistics.admitted == 15
        assert statistics.examined == 9
        assert statistics.skipped == 6
        assert statistics.examined_fraction == pytest.approx(9 / 15)

    def test_reset_zeroes_everything(self):
        counters = EngineCounters()
        counters.record(QueryTrace(shortlisted=3, candidates_examined=3), graded=False)
        counters.reset()
        statistics = counters.execution
        assert statistics.queries == 0
        assert statistics.examined_fraction == 0.0

    def test_each_total_counts_only_the_traces_that_ran_its_stage(self):
        counters = EngineCounters()
        # A full scan: no shortlist pass, no predicate clause.
        counters.record(QueryTrace(shortlisted=4, candidates_examined=4), graded=False)
        counters.record(
            QueryTrace(
                mode="combined",
                inverted_candidates=9,
                bitmap_pruned=3,
                relation_pruned=2,
                shortlisted=3,
                candidates_examined=3,
                predicate_evaluated=3,
                predicate_pruned=1,
            ),
            graded=True,
        )
        counters.record(
            QueryTrace(mode="predicate", predicate_evaluated=2, predicate_pruned=7),
            graded=False,
        )
        assert (counters.execution.queries, counters.execution.admitted) == (2, 7)
        shortlist = counters.shortlist
        assert (shortlist.queries, shortlist.candidates, shortlist.admitted) == (1, 9, 4)
        assert (shortlist.bitmap_rejected, shortlist.relation_rejected) == (3, 2)
        predicates = counters.predicates
        assert (predicates.queries, predicates.graded_queries) == (2, 1)
        assert (predicates.evaluated, predicates.pruned) == (5, 8)


class TestRankingEquivalence:
    """Every kernel × strategy combination ranks like the reference path."""

    @pytest.fixture(scope="class")
    def system(self):
        pictures = random_pictures(60, seed=91, parameters=_PARAMETERS)
        return RetrievalSystem.from_pictures(pictures)

    @pytest.fixture(scope="class")
    def queries(self):
        return random_pictures(5, seed=17, parameters=_PARAMETERS)

    def _compare(self, system, configure):
        """Assert a builder recipe ranks identically under every config."""
        reference = result_key(
            configure(system)
            .execution(kernel=KERNEL_REFERENCE, strategy=STRATEGY_EXHAUSTIVE, cache=False)
            .execute()
        )
        for config in (
            ExecutionOptions(kernel=KERNEL_BITPARALLEL, strategy=STRATEGY_EXHAUSTIVE),
            ExecutionOptions(kernel=KERNEL_REFERENCE, strategy=STRATEGY_ANYTIME),
            ExecutionOptions(kernel=KERNEL_BITPARALLEL, strategy=STRATEGY_ANYTIME),
        ):
            variant = result_key(
                configure(system).execution(config).execution(cache=False).execute()
            )
            assert variant == reference, f"diverged under {config.describe()}"

    def test_exact_mode(self, system, queries):
        for picture in queries:
            self._compare(system, lambda s: s.query(picture).limit(10))

    def test_invariant_mode(self, system, queries):
        for picture in queries[:3]:
            self._compare(system, lambda s: s.query(picture).invariant().limit(10))

    def test_partial_mode(self, system, queries):
        for picture in queries[:3]:
            identifiers = [icon.identifier for icon in list(picture)[:3]]
            self._compare(
                system, lambda s: s.query(picture).partial(identifiers).limit(10)
            )

    def test_predicate_combined_mode(self, system, queries):
        labels = sorted(queries[0].labels)
        predicate = f"{labels[0]} left-of {labels[1]}"
        for picture in queries[:3]:
            self._compare(
                system, lambda s: s.query(picture).where(predicate).limit(10)
            )

    def test_min_score_and_unlimited(self, system, queries):
        for picture in queries[:3]:
            self._compare(
                system, lambda s: s.query(picture).limit(None).min_score(0.3)
            )


class TestAnytimeObservability:
    @pytest.fixture(scope="class")
    def system(self):
        pictures = random_pictures(80, seed=23, parameters=_PARAMETERS)
        return RetrievalSystem.from_pictures(pictures)

    def test_anytime_skips_candidates_and_traces_cutoff(self, system):
        query = random_pictures(1, seed=5, parameters=_PARAMETERS)[0]
        results = (
            system.query(query)
            .limit(5)
            .execution(strategy=STRATEGY_ANYTIME, cache=False)
            .execute()
        )
        trace = results.trace
        assert trace.strategy == STRATEGY_ANYTIME
        assert trace.candidates_examined >= len(results)
        assert trace.bound_skipped > 0
        assert trace.bound_cutoff is not None
        assert trace.candidates_examined + trace.bound_skipped == trace.shortlisted

    def test_exhaustive_trace_examines_everything(self, system):
        query = random_pictures(1, seed=5, parameters=_PARAMETERS)[0]
        results = (
            system.query(query)
            .limit(5)
            .execution(
                kernel=KERNEL_REFERENCE, strategy=STRATEGY_EXHAUSTIVE, cache=False
            )
            .execute()
        )
        trace = results.trace
        assert trace.strategy == STRATEGY_EXHAUSTIVE
        assert trace.kernel == KERNEL_REFERENCE
        assert trace.bound_skipped == 0
        assert trace.bound_cutoff is None

    def test_explain_report_names_the_execution(self, system):
        query = random_pictures(1, seed=6, parameters=_PARAMETERS)[0]
        report = (
            system.query(query)
            .limit(5)
            .execution(kernel=KERNEL_BITPARALLEL, strategy=STRATEGY_ANYTIME)
            .execution(cache=False)
            .explain()
        )
        assert "kernel=bitparallel" in report
        assert "strategy=anytime" in report
        assert "candidates_examined=" in report

    def test_engine_counters_accumulate(self, system):
        system._engine.counters.reset()
        query = random_pictures(1, seed=7, parameters=_PARAMETERS)[0]
        system.query(query).limit(5).execution(
            strategy=STRATEGY_ANYTIME, cache=False
        ).execute()
        statistics = system.execution_statistics()
        assert statistics.queries == 1
        assert statistics.anytime_queries == 1
        assert statistics.examined <= statistics.admitted

    def test_full_scan_degrades_to_exhaustive(self, system):
        # Without the shortlist there are no bounds to order by, so the
        # anytime request must fall back (and say so in the trace).
        query = random_pictures(1, seed=8, parameters=_PARAMETERS)[0]
        results = (
            system.query(query)
            .limit(5)
            .execution(strategy=STRATEGY_ANYTIME, shortlist=False, cache=False)
            .execute()
        )
        assert result_key(results) == result_key(
            system.query(query).limit(5).execution(cache=False).execute()
        )
        assert results.trace.strategy == STRATEGY_EXHAUSTIVE


class TestEngineDefaults:
    """The engine-level ``cache`` and ``shortlist`` defaults reach every path."""

    @pytest.fixture
    def system(self):
        scenes = [office_scene(index) for index in range(5)]
        scenes += [traffic_scene(index) for index in range(5)]
        system = RetrievalSystem.from_pictures(
            scenes, execution=ExecutionOptions(cache=False, shortlist=False)
        )
        yield system
        system._engine.close_shard_pool()

    @staticmethod
    def _run(system, path, **options):
        """(candidates scored or read, cache hits) of one office query."""
        builder = system.query(office_scene(0)).limit(None)
        if options:
            builder = builder.execution(**options)
        if path == "serial":
            trace = builder.execute().trace
            return trace.shortlisted, trace.cache_hits
        if path == "shard_process":
            trace = builder.execution(executor="shard_process", workers=2).execute().trace
            return trace.shortlisted, trace.cache_hits
        executor = "shard_process" if path == "batch-shard_process" else "serial"
        system.query_batch([builder], executor=executor, workers=2)
        report = system.last_batch_report
        return report.candidates_considered, report.cache_hits

    @pytest.mark.parametrize("path", ["serial", "batch", "shard_process", "batch-shard_process"])
    def test_engine_defaults_turn_cache_and_shortlist_off(self, system, path):
        # With the shortlist off every image is a candidate, traffic scenes
        # included; with the cache off a repeat reads nothing.
        assert self._run(system, path) == (len(system), 0)
        assert self._run(system, path) == (len(system), 0)
        assert len(system._engine.score_cache) == 0

    @pytest.mark.parametrize("path", ["serial", "batch"])
    def test_per_query_options_win(self, system, path):
        considered, _ = self._run(system, path, cache=True, shortlist=True)
        assert considered == 5  # only the office scenes share a label
        assert self._run(system, path, cache=True, shortlist=True) == (5, 5)
