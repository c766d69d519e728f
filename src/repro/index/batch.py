"""Batch query execution: many similarity queries evaluated as one workload.

Real query streams repeat themselves.  :class:`BatchQueryEngine` accepts many
similarity-only :class:`~repro.index.spec.QuerySpec` values at once and
exploits that:

* **Deduplication** -- identical specs (frozen and hashable) are evaluated
  once, and every copy receives that ranking.
* **One candidate loop** -- each unique spec runs through
  :meth:`QueryEngine._rank <repro.index.query.QueryEngine._rank>`, the
  cache-first loop a single query runs, under its own limit, threshold,
  transformations and execution options.  Specs that share content but
  differ in limit or threshold share work through the engine's LRU
  :class:`~repro.index.cache.ScoreCache`, which also keeps scores across
  batches (the engine invalidates it whenever the database changes).
* **Scatter-gather** -- under ``executor="shard_process"`` the unique
  specs are pipelined through the process-parallel shard workers of
  :mod:`repro.index.workers` instead.

Results are identical -- including tie-break ordering -- to running
:meth:`QueryEngine.execute_spec` serially per spec; ``tests/index/test_batch.py``
and ``tests/index/test_differential.py`` lock this equivalence down.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

# benchmarks/profile/trace.py wraps the names marked F401 here and fails without them.
from repro.core.construct import encode_picture  # noqa: F401
from repro.core.similarity import invariant_similarity, similarity  # noqa: F401
from repro.index.execution import EXECUTOR_SHARD_PROCESS, ExecutionOptions
from repro.index.ranking import RankedResult, rank_results  # noqa: F401
from repro.index.spec import QuerySpec, QueryTrace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.index.query import QueryEngine


@dataclass
class BatchReport:
    """What one :meth:`BatchQueryEngine.run` call actually did."""

    total_queries: int = 0
    unique_evaluations: int = 0
    #: Candidate scores the loops needed: cached plus computed.
    candidates_considered: int = 0
    #: Candidate scores computed (score-cache misses).
    scored: int = 0
    cache_hits: int = 0
    executor: str = "serial"
    workers: int = 1
    #: Candidates rejected by the stage-1 bitmap bound across all queries.
    shortlist_bitmap_pruned: int = 0
    #: Candidates rejected by the stage-2 boundary-LCS bound across all queries.
    shortlist_relation_pruned: int = 0

    @property
    def deduplicated_queries(self) -> int:
        """Queries answered by another query's evaluation."""
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


def _uncached(spec: QuerySpec) -> QuerySpec:
    """``spec`` with the score cache off, whatever its own options say."""
    return replace(spec, execution=replace(spec.execution or ExecutionOptions(), cache=False))


@dataclass
class BatchQueryEngine:
    """Evaluates many similarity-only specs against one :class:`QueryEngine`.

    ``execution`` applies to the batch as a whole and is overlaid on the
    engine's defaults: ``executor`` and ``workers`` choose between the
    serial loop and the shard-worker scatter, and ``cache=False`` turns the
    score cache off for every spec.  Every other option is each spec's
    own.  For any batch, ``run(specs)[i] == engine.execute_spec(specs[i]).results``
    element for element.
    """

    engine: "QueryEngine"
    execution: ExecutionOptions = field(default_factory=ExecutionOptions)
    #: Report of the most recent :meth:`run` call.
    last_report: Optional[BatchReport] = field(default=None, init=False)

    def run(self, specs: Sequence[QuerySpec]) -> List[List[RankedResult]]:
        """Execute a batch; returns one ranked result list per input spec."""
        results, self.last_report = self.run_detailed(specs)
        return results

    def run_detailed(
        self, specs: Sequence[QuerySpec]
    ) -> Tuple[List[List[RankedResult]], BatchReport]:
        """Like :meth:`run` but also returns the :class:`BatchReport`.

        One shared grant spans the whole batch, so every query ranks the
        same snapshot and a shard pool obtained under it mirrors that
        snapshot.
        """
        engine = self.engine
        execution = engine.execution.overlaid(self.execution).resolved()
        sharded = execution.executor == EXECUTOR_SHARD_PROCESS
        positions: Dict[QuerySpec, int] = {}
        order = [positions.setdefault(spec, len(positions)) for spec in specs]
        unique = list(positions)
        if self.execution.cache is False:
            unique = [_uncached(spec) for spec in unique]
        with engine.lock.read_locked():
            if sharded and unique:
                gathered = engine._shard_pool_for(execution).execute_many(unique)
                outcomes = [engine._fold_gather(outcome) for outcome in gathered]
                rankings = [outcome.results for outcome in outcomes]
                traces = [outcome.trace for outcome in outcomes]
            else:
                traces = [QueryTrace(mode="similarity") for _ in unique]
                rankings = [engine._rank(spec, trace)[0] for spec, trace in zip(unique, traces)]
        report = BatchReport(
            total_queries=len(order),
            unique_evaluations=len(unique),
            executor=execution.executor,
            workers=execution.workers if sharded else 1,
        )
        for trace in traces:
            report.candidates_considered += trace.cache_hits + trace.cache_misses
            report.scored += trace.cache_misses
            report.cache_hits += trace.cache_hits
            report.shortlist_bitmap_pruned += trace.bitmap_pruned
            report.shortlist_relation_pruned += trace.relation_pruned
        return [rankings[index] for index in order], report
