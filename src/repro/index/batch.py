"""Batch query execution: many similarity queries evaluated as one workload.

The paper's evaluation process is quadratic per (query, image) pair, so a
production deployment of the model cannot afford to treat a stream of queries
as independent one-at-a-time scans.  :class:`BatchQueryEngine` accepts many
:class:`~repro.index.query.Query` objects at once and exploits the structure
of the workload:

* **Deduplication** -- queries whose pictures encode to the same 2D BE-string
  under the same policy/transformations/filter knobs form one *evaluation
  group*; the query is encoded once, the inverted-index + signature shortlist
  is computed once, and every candidate is scored once for the whole group.
* **Memoisation** -- per-(query-content, image) similarity results are kept in
  an LRU :class:`~repro.index.cache.ScoreCache`, so scores survive across
  batches and across queries that merely overlap (the cache is invalidated by
  the engine whenever the database changes).
* **Parallel evaluation** -- the remaining cache misses are chunked and
  scheduled on a ``concurrent.futures`` thread or process pool with a
  configurable worker count.

Ranking still happens per original query (each query keeps its own ``limit``
and ``minimum_score``), and results are guaranteed identical -- including
tie-break ordering -- to running :meth:`QueryEngine.execute` serially per
query; ``tests/index/test_batch.py`` locks this equivalence down.
"""

from __future__ import annotations

from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.core.bestring import BEString2D
from repro.core.construct import encode_picture
from repro.core.similarity import (
    SimilarityPolicy,
    SimilarityResult,
    invariant_similarity,
    similarity,
)
from repro.core.transforms import Transformation
from repro.index.cache import CacheKey, QueryKey, ScoreCache, query_score_key
from repro.index.ranking import RankedResult, rank_results

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.index.query import Query, QueryEngine

#: Hard floor/ceiling for automatically chosen chunk sizes.
_MIN_CHUNK = 1
_MAX_CHUNK = 64


@dataclass(frozen=True)
class BatchOptions:
    """Knobs of the batch scheduler.

    ``executor`` selects how cache-miss scoring work runs: ``"thread"`` (a
    ``ThreadPoolExecutor``; the default), ``"process"`` (a
    ``ProcessPoolExecutor``; higher fixed cost, true CPU parallelism),
    ``"serial"`` (inline, no pool -- still deduplicates and caches),
    ``"auto"`` (serial for small workloads, threads otherwise), or
    ``"shard_process"`` (the whole batch is pipelined through the
    process-parallel shard workers of :mod:`repro.index.workers`; the batch
    engine itself never sees those queries).  ``workers``
    bounds the pool size; ``chunk_size`` overrides the automatic chunking of
    (query, image) scoring tasks; ``use_cache=False`` bypasses the score cache
    entirely (every candidate is re-scored).
    """

    workers: int = 4
    executor: str = "thread"
    chunk_size: Optional[int] = None
    use_cache: bool = True

    #: Below this many scoring tasks, "auto" stays serial: pool start-up would
    #: dominate the dynamic programs being scheduled.
    auto_serial_threshold: int = 32

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.executor not in ("thread", "process", "serial", "auto", "shard_process"):
            raise ValueError(
                f"unknown executor {self.executor!r} "
                "(expected 'thread', 'process', 'serial', 'auto' or 'shard_process')"
            )
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError("chunk_size must be at least 1")


@dataclass
class BatchReport:
    """What one :meth:`BatchQueryEngine.run` call actually did."""

    total_queries: int = 0
    unique_evaluations: int = 0
    candidates_considered: int = 0
    scored: int = 0
    cache_hits: int = 0
    chunks: int = 0
    executor: str = "serial"
    workers: int = 1
    #: Candidates rejected by the stage-1 bitmap bound across all groups.
    shortlist_bitmap_pruned: int = 0
    #: Candidates rejected by the stage-2 relation-pair bound across all groups.
    shortlist_relation_pruned: int = 0

    @property
    def deduplicated_queries(self) -> int:
        """Queries answered entirely by another query's evaluation group."""
        return self.total_queries - self.unique_evaluations

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of candidate scores served from the cache."""
        total = self.candidates_considered
        return self.cache_hits / total if total else 0.0

    @property
    def shortlist_pruned(self) -> int:
        """Total candidates the two-stage signature shortlist rejected."""
        return self.shortlist_bitmap_pruned + self.shortlist_relation_pruned

    def describe(self) -> str:
        """One-line summary used by the CLI and the benchmark report."""
        pruned = ""
        if self.shortlist_pruned:
            pruned = (
                f", {self.shortlist_bitmap_pruned} bitmap-pruned + "
                f"{self.shortlist_relation_pruned} relation-pruned"
            )
        return (
            f"{self.total_queries} queries -> {self.unique_evaluations} unique evaluations, "
            f"{self.candidates_considered} candidate scores "
            f"({self.cache_hits} cached, {self.scored} computed{pruned}) "
            f"via {self.executor} x{self.workers}"
        )


@dataclass
class _EvaluationGroup:
    """One deduplicated unit of work: a query content + filter configuration."""

    query_key: QueryKey
    query_bestring: BEString2D
    policy: SimilarityPolicy
    transformations: Tuple[Transformation, ...]
    #: The queries' own cache toggle (:attr:`Query.use_cache`); combined with
    #: the batch-level ``BatchOptions.use_cache`` knob, both must be on.
    use_cache: bool = True
    candidate_ids: List[str] = field(default_factory=list)
    #: Positions in the original query sequence answered by this group.
    query_positions: List[int] = field(default_factory=list)


def _score_chunk(
    query_bestring: BEString2D,
    policy: SimilarityPolicy,
    transformations: Tuple[Transformation, ...],
    candidates: Sequence[Tuple[str, BEString2D]],
) -> List[Tuple[str, SimilarityResult]]:
    """Score one query against a chunk of candidate BE-strings.

    Module-level so it pickles for the process-pool executor.  The scoring
    calls are exactly the ones :meth:`QueryEngine.execute` makes, which is
    what keeps batch results bit-identical to serial results.
    """
    scored: List[Tuple[str, SimilarityResult]] = []
    for image_id, candidate in candidates:
        if len(transformations) == 1:
            result = similarity(query_bestring, candidate, policy, transformations[0])
        else:
            result = invariant_similarity(query_bestring, candidate, policy, transformations)
        scored.append((image_id, result))
    return scored


@dataclass
class BatchQueryEngine:
    """Evaluates many queries against one :class:`QueryEngine` efficiently.

    The batch engine is a scheduler only: all scoring goes through the same
    similarity functions the serial path uses, and all ranking goes through
    :func:`~repro.index.ranking.rank_results`, so for any input batch
    ``run(queries)[i] == engine.execute(queries[i])`` element for element.
    """

    engine: "QueryEngine"
    options: BatchOptions = field(default_factory=BatchOptions)
    #: Report of the most recent :meth:`run` call.
    last_report: Optional[BatchReport] = field(default=None, init=False)

    @property
    def cache(self) -> ScoreCache:
        """The score cache (shared with, and invalidated by, the engine)."""
        return self.engine.score_cache

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self, queries: Sequence["Query"], options: Optional[BatchOptions] = None
    ) -> List[List[RankedResult]]:
        """Execute a batch; returns one ranked result list per input query."""
        results, report = self.run_detailed(queries, options)
        self.last_report = report
        return results

    def run_detailed(
        self, queries: Sequence["Query"], options: Optional[BatchOptions] = None
    ) -> Tuple[List[List[RankedResult]], BatchReport]:
        """Like :meth:`run` but also returns the :class:`BatchReport`."""
        opts = options or self.options
        queries = list(queries)
        report = BatchReport(total_queries=len(queries), workers=opts.workers)
        if not queries:
            report.executor = "serial"
            return [], report

        groups = self._group_queries(queries, report)
        report.unique_evaluations = len(groups)

        # Shortlist candidates once per group and split them into cache hits
        # (available immediately) and misses (to be scored).
        run_results: Dict[CacheKey, SimilarityResult] = {}
        tasks: List[Tuple[_EvaluationGroup, List[str]]] = []
        for group in groups:
            report.candidates_considered += len(group.candidate_ids)
            group_cached = opts.use_cache and group.use_cache
            misses: List[str] = []
            for image_id in group.candidate_ids:
                cached = (
                    self.cache.get(group.query_key, image_id) if group_cached else None
                )
                # A score or bound the candidate loop cached is not enough
                # here: the batch ranks full results.
                if isinstance(cached, SimilarityResult):
                    run_results[(group.query_key, image_id)] = cached
                    report.cache_hits += 1
                else:
                    misses.append(image_id)
            if misses:
                tasks.append((group, misses))

        report.scored = sum(len(misses) for _, misses in tasks)
        report.executor = self._resolve_executor(opts, report.scored)
        self._execute_tasks(tasks, opts, report, run_results)

        # Rank per original query with its own limit / minimum_score.
        results: List[List[RankedResult]] = [[] for _ in queries]
        for group in groups:
            scored = [
                (image_id, run_results[(group.query_key, image_id)])
                for image_id in group.candidate_ids
            ]
            for position in group.query_positions:
                query = queries[position]
                results[position] = rank_results(
                    scored, limit=query.limit, minimum_score=query.minimum_score
                )
        return results, report

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _group_queries(
        self, queries: Sequence["Query"], report: BatchReport
    ) -> List[_EvaluationGroup]:
        """Deduplicate queries into evaluation groups with shared shortlists.

        Each unique group runs the engine's two-stage signature shortlist
        once; per-stage pruning counts are accumulated into ``report``.
        Queries sharing content but differing in ``minimum_score`` fall into
        distinct groups, since the shortlist's score bound depends on it.
        """
        groups: Dict[Tuple[QueryKey, bool, int, bool, float], _EvaluationGroup] = {}
        for position, query in enumerate(queries):
            bestring = encode_picture(query.picture)
            query_key = query_score_key(bestring, query.policy, query.transformations)
            group_key = (
                query_key,
                query.use_filters,
                query.minimum_shared_labels,
                query.use_cache,
                query.minimum_score,
            )
            group = groups.get(group_key)
            if group is None:
                outcome = self.engine.shortlist(query, bestring)
                report.shortlist_bitmap_pruned += outcome.bitmap_rejected
                report.shortlist_relation_pruned += outcome.relation_rejected
                group = _EvaluationGroup(
                    query_key=query_key,
                    query_bestring=bestring,
                    policy=query.policy,
                    transformations=tuple(query.transformations),
                    use_cache=query.use_cache,
                    candidate_ids=outcome.candidates,
                )
                groups[group_key] = group
            group.query_positions.append(position)
        return list(groups.values())

    def _resolve_executor(self, opts: BatchOptions, pending: int) -> str:
        if opts.executor == "auto":
            if opts.workers <= 1 or pending < opts.auto_serial_threshold:
                return "serial"
            return "thread"
        if opts.workers <= 1:
            return "serial"
        return opts.executor

    def _chunk_size(self, opts: BatchOptions, pending: int) -> int:
        if opts.chunk_size is not None:
            return opts.chunk_size
        # Aim for a few chunks per worker so stragglers even out.
        target = max(_MIN_CHUNK, pending // (opts.workers * 4))
        return min(target, _MAX_CHUNK)

    def _execute_tasks(
        self,
        tasks: List[Tuple[_EvaluationGroup, List[str]]],
        opts: BatchOptions,
        report: BatchReport,
        run_results: Dict[CacheKey, SimilarityResult],
    ) -> None:
        if not tasks:
            return
        database = self.engine.database
        pending = report.scored
        chunk_size = self._chunk_size(opts, pending)

        chunks: List[Tuple[_EvaluationGroup, List[Tuple[str, BEString2D]]]] = []
        for group, misses in tasks:
            for start in range(0, len(misses), chunk_size):
                window = misses[start : start + chunk_size]
                chunks.append(
                    (group, [(image_id, database.get(image_id).bestring) for image_id in window])
                )
        report.chunks = len(chunks)

        def _store(group: _EvaluationGroup, scored: List[Tuple[str, SimilarityResult]]) -> None:
            for image_id, result in scored:
                run_results[(group.query_key, image_id)] = result
                if opts.use_cache and group.use_cache:
                    self.cache.put(group.query_key, image_id, result)

        if report.executor == "serial":
            for group, candidates in chunks:
                _store(
                    group,
                    _score_chunk(
                        group.query_bestring, group.policy, group.transformations, candidates
                    ),
                )
            return

        pool: Executor
        workers = min(opts.workers, len(chunks))
        if report.executor == "process":
            pool = ProcessPoolExecutor(max_workers=workers)
        else:
            pool = ThreadPoolExecutor(max_workers=workers, thread_name_prefix="repro-batch")
        try:
            futures = [
                (
                    group,
                    pool.submit(
                        _score_chunk,
                        group.query_bestring,
                        group.policy,
                        group.transformations,
                        candidates,
                    ),
                )
                for group, candidates in chunks
            ]
            for group, future in futures:
                _store(group, future.result())
        finally:
            pool.shutdown(wait=True)
