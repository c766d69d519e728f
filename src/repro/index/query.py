"""The query engine: the unified retrieval pipeline over an image database.

The engine ties the pieces together the way the paper's demonstration system
does: the query picture is encoded once, candidate images are shortlisted by
the inverted index and the two-stage shortlist
(:mod:`repro.index.shortlist` — the postings tally, then boundary-LCS
score bounds read from each stored BE-string against the query's
``minimum_score``), the survivors are
scored with the modified-LCS similarity (optionally over all
rotations/reflections of the query), and the results are returned ranked.

The engine takes one query type, the declarative
:class:`~repro.index.spec.QuerySpec`.  Every similarity clause, alone or
combined with relation predicates, runs through one candidate loop
(:meth:`QueryEngine._rank`): under the default anytime strategy it visits
candidates best bound first, refining a candidate's bound only when it
reaches the head of the queue, reads the shared
:class:`~repro.index.cache.ScoreCache` before scoring one, stops at the
threshold, and materialises full results only for the ranking's
survivors.  A batch (:mod:`repro.index.batch`) runs each of its unique
specs through the same loop and the same cache, so an identical repeated
query -- serial or batched -- never pays the LCS evaluation twice.

Each query records one :class:`~repro.index.spec.QueryTrace` of shortlist
admissions, cache hits and predicate pruning for ``explain`` output, and
:class:`EngineCounters` folds every finished trace -- a scattered query's
merged gather trace included -- into the cumulative ``/stats`` totals.  A
scattered query does a serial read's work split across the shard workers
(:mod:`repro.index.workers`): each runs the candidate loop over its own
images and returns ranking keys, and this process materialises only the
merged top k, through the same tail and score cache a serial read uses.
"""

from __future__ import annotations

import threading
from bisect import insort
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from heapq import heapify, heappop, heappush, nsmallest
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.core.bestring import BEString2D
from repro.core.construct import encode_picture
from repro.core.lcskernel import be_lcs_length_bitparallel
from repro.core.similarity import (
    SimilarityPolicy,
    SimilarityResult,
    invariant_similarity,
    invariant_similarity_score,
    similarity,
    similarity_score,
)
from repro.core.transforms import Transformation
from repro.geometry.rectangle import Rectangle
from repro.iconic.picture import SymbolicPicture
from repro.index.cache import CacheEntry, ScoreCache, query_score_key
from repro.index.database import ImageDatabase, ImageRecord, _collector_paused
from repro.index.execution import (
    EXECUTOR_SHARD_PROCESS,
    KERNEL_BITPARALLEL,
    KERNEL_REFERENCE,
    STRATEGY_ANYTIME,
    STRATEGY_EXHAUSTIVE,
    ExecutionOptions,
    ExecutionStatistics,
    PredicateStatistics,
)
from repro.index.inverted import InvertedSymbolIndex
from repro.index.ranking import RankedResult, rank_results
from repro.index.shortlist import (
    REJECTION_SAMPLE_LIMIT,
    QuerySignature,
    ShortlistOutcome,
    ShortlistStatistics,
)

# benchmarks/profile/trace.py wraps the name marked F401 here and fails without it.
from repro.index.shortlist import signature_for  # noqa: F401
from repro.index.spec import (
    STAGE_BITMAP_PRUNED,
    STAGE_BOUND_SKIPPED,
    STAGE_FULL_SCAN,
    STAGE_PREDICATE_EVALUATED,
    STAGE_PREDICATE_PRUNED,
    STAGE_RELATION_PRUNED,
    STAGE_SHORTLIST,
    CandidateTrace,
    QuerySpec,
    QueryTrace,
    SpecOutcome,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.index.batch import BatchReport
    from repro.index.workers import Gather, ShardWorkerPool
    from repro.retrieval.predicates import GradedMatch, PredicateMatch

    #: One image's evaluation of a predicate clause: crisp or graded.
    Match = Union[PredicateMatch, GradedMatch]


def _entry_value(entry: CacheEntry) -> float:
    """The score a score-cache entry confirms."""
    return entry.score if isinstance(entry, SimilarityResult) else entry


class NullRWLock:
    """The no-op stand-in for a readers-writer lock (single-threaded use).

    :class:`QueryEngine` brackets every read path in ``read_locked()`` and
    every mutation in ``write_locked()``.  By default those grants cost one
    no-op context manager each, keeping the library path lock-free; the
    retrieval service installs a real
    :class:`repro.service.rwlock.ReadWriteLock` (via
    :meth:`repro.retrieval.system.RetrievalSystem.enable_concurrent_access`)
    to make the same code paths safe under concurrent readers and writers.
    """

    @contextmanager
    def read_locked(self) -> Iterator[None]:
        """Shared grant: a no-op."""
        yield

    @contextmanager
    def write_locked(self) -> Iterator[None]:
        """Exclusive grant: a no-op."""
        yield


def _plus(snapshot, **deltas):
    """``snapshot`` with each named field increased by its delta."""
    return replace(
        snapshot, **{name: getattr(snapshot, name) + delta for name, delta in deltas.items()}
    )


class EngineCounters:
    """The service ``/stats`` totals, folded from each finished query's trace.

    Each total is a frozen snapshot replaced whole under one lock, so a
    reader always sees a consistent snapshot without taking the lock.
    """

    def __init__(self) -> None:
        """Start every total at zero."""
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        """Zero every total (tests and benchmarks)."""
        with self._lock:
            self.execution = ExecutionStatistics(0, 0, 0, 0, 0)
            self.shortlist = ShortlistStatistics(0, 0, 0, 0, 0)
            self.predicates = PredicateStatistics(0, 0, 0, 0)

    def record(self, trace: QueryTrace, graded: bool) -> None:
        """Add one finished query to the totals.

        A trace with a similarity clause counts towards ``execution``; one
        whose shortlist ran (``inverted_candidates`` is set) towards
        ``shortlist``; one with a predicate clause (``graded`` for a tree)
        towards ``predicates``.
        """
        with self._lock:
            if trace.mode != "predicate":
                self.execution = _plus(
                    self.execution,
                    queries=1,
                    anytime_queries=int(trace.strategy == STRATEGY_ANYTIME),
                    admitted=trace.shortlisted,
                    examined=trace.candidates_examined,
                    skipped=trace.bound_skipped,
                )
            if trace.inverted_candidates is not None:
                self.shortlist = _plus(
                    self.shortlist,
                    queries=1,
                    candidates=trace.inverted_candidates,
                    bitmap_rejected=trace.bitmap_pruned,
                    relation_rejected=trace.relation_pruned,
                    admitted=trace.inverted_candidates
                    - trace.bitmap_pruned
                    - trace.relation_pruned,
                )
            if trace.mode != "similarity":
                self.predicates = _plus(
                    self.predicates,
                    queries=1,
                    graded_queries=int(graded),
                    evaluated=trace.predicate_evaluated,
                    pruned=trace.predicate_pruned,
                )


@dataclass
class QueryEngine:
    """Executes :class:`~repro.index.spec.QuerySpec` values against an :class:`ImageDatabase`."""

    database: ImageDatabase
    #: The shortlist admits an image only when the query's label multiset
    #: overlaps the image's by at least this fraction of the query's labels.
    minimum_overlap_ratio: float = 0.0
    inverted_index: InvertedSymbolIndex = field(default_factory=InvertedSymbolIndex)
    #: Memoised per-(query, image) scores and survivors' full results,
    #: shared by every query and batch and invalidated on every mutation.
    score_cache: ScoreCache = field(default_factory=ScoreCache)
    #: Engine-wide execution defaults; per-query
    #: :attr:`QuerySpec.execution <repro.index.spec.QuerySpec.execution>`
    #: overrides overlay these, and unset fields fall back to
    #: :data:`repro.index.execution.DEFAULT_EXECUTION`.
    execution: ExecutionOptions = field(default_factory=ExecutionOptions)
    #: Cumulative execution, shortlist and predicate totals (the service
    #: ``/stats`` blocks), folded from each finished query's trace.
    counters: EngineCounters = field(default_factory=EngineCounters)
    #: Readers-writer lock bracketing every query (shared grant) and mutation
    #: (exclusive grant).  A no-op by default; the retrieval service swaps in
    #: a real :class:`repro.service.rwlock.ReadWriteLock` so concurrent
    #: queries see a consistent snapshot and mutations (database + auxiliary
    #: indexes + cache invalidation) are atomic.
    lock: NullRWLock = field(default_factory=NullRWLock)
    #: Scheduler report of the most recent :meth:`run_batch` call.
    last_batch_report: Optional["BatchReport"] = field(default=None, init=False)
    #: The live :class:`~repro.index.workers.ShardWorkerPool` (created
    #: lazily by the first ``executor="shard_process"`` query, torn down on
    #: every mutation so workers never serve a stale slice).
    _shard_pool: Optional["ShardWorkerPool"] = field(default=None, init=False, repr=False)
    _shard_pool_guard: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False
    )
    #: The ids a shard worker's engine answers for (:meth:`_slice`); ``None``
    #: answers for every stored image.
    _owned: Optional[FrozenSet[str]] = field(default=None, init=False, repr=False)

    # ------------------------------------------------------------------
    # Index maintenance
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        database: ImageDatabase,
        minimum_overlap_ratio: float = 0.0,
        execution: Optional[ExecutionOptions] = None,
    ) -> "QueryEngine":
        """Build the auxiliary indexes for every image already in the database.

        Every record's labels are counted into the postings here, so the
        first query pays no index-construction latency; the shortlist reads
        nothing else per record but its stored BE-string.  ``execution``
        sets the engine-wide execution defaults (kernel, strategy, ...)
        every query inherits.  The build runs with the cyclic garbage
        collector paused, like a load.
        """
        engine = cls(
            database=database,
            minimum_overlap_ratio=minimum_overlap_ratio,
            execution=execution if execution is not None else ExecutionOptions(),
        )
        with _collector_paused():
            for record in database:
                engine._index(record)
        return engine

    def _index(self, record: ImageRecord) -> None:
        """(Re-)index ``record``'s labels in the postings."""
        self.inverted_index.update_picture(record.image_id, record.picture)

    def _slice(self, image_ids: FrozenSet[str]) -> "QueryEngine":
        """An engine that answers for ``image_ids`` only: one shard worker's.

        It shares this engine's database and postings, which a forked
        worker inherits, so it indexes nothing.  It has its own empty score
        cache, counters and no-op lock: this engine's cache can hold results
        over the whole corpus.
        """
        engine = QueryEngine(
            database=self.database,
            minimum_overlap_ratio=self.minimum_overlap_ratio,
            inverted_index=self.inverted_index,
            execution=self.execution,
        )
        engine._owned = image_ids
        return engine

    def _image_ids(self) -> List[str]:
        """Sorted ids of the images this engine answers for."""
        if self._owned is None:
            return self.database.image_ids
        return sorted(self._owned)

    def _database_size(self) -> int:
        """How many images this engine answers for."""
        return len(self.database) if self._owned is None else len(self._owned)

    def add_picture(self, picture: SymbolicPicture, image_id: Optional[str] = None) -> str:
        """Add a picture to the database and all auxiliary indexes.

        Returns:
            The stored image id.

        Raises:
            repro.index.database.DatabaseError: if the id is missing or
                already stored.
        """
        with self.lock.write_locked():
            record = self.database.add_picture(picture, image_id)
            self._index(record)
            self.score_cache.invalidate_image(record.image_id)
            self._invalidate_shard_pool()
            return record.image_id

    def remove_picture(self, image_id: str) -> None:
        """Remove a picture from the database and all auxiliary indexes.

        Raises:
            repro.index.database.DatabaseError: if no image with
                ``image_id`` is stored.
        """
        with self.lock.write_locked():
            self.database.remove_picture(image_id)
            self.inverted_index.remove_picture(image_id)
            self.score_cache.invalidate_image(image_id)
            self._invalidate_shard_pool()

    def add_object(self, image_id: str, label: str, mbr: Rectangle) -> ImageRecord:
        """Dynamically add one icon to a stored image, refreshing all indexes.

        The record rewrite, both auxiliary-index refreshes and the score-cache
        invalidation happen under one exclusive grant, so a concurrent query
        can never rank against the new record through stale cached scores or
        stale postings.
        """
        with self.lock.write_locked():
            record = self.database.add_object(image_id, label, mbr)
            self._index(record)
            self.score_cache.invalidate_image(image_id)
            self._invalidate_shard_pool()
            return record

    def remove_object(self, image_id: str, identifier: str) -> ImageRecord:
        """Dynamically remove one icon from a stored image, refreshing all indexes.

        Atomic under the write lock exactly like :meth:`add_object`.
        """
        with self.lock.write_locked():
            record = self.database.remove_object(image_id, identifier)
            self._index(record)
            self.score_cache.invalidate_image(image_id)
            self._invalidate_shard_pool()
            return record

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------
    def shortlist(self, spec: QuerySpec) -> ShortlistOutcome:
        """Run the two-stage shortlist for ``spec`` under a shared grant.

        The inverted index admits images sharing at least
        ``spec.minimum_shared_labels`` icon labels with the query picture;
        the two-stage shortlist (:mod:`repro.index.shortlist`) then
        rejects candidates whose score upper bound cannot clear
        ``spec.minimum_score`` — stage 1 from the postings tally, stage 2
        from each axis's boundary LCS, walked on the stored BE-string.  With
        the resolved ``shortlist`` option off or a label-less query, every
        stored image is a candidate.  No query runs, so nothing is added to
        :attr:`counters`.

        Returns:
            The full :class:`~repro.index.shortlist.ShortlistOutcome`,
            including per-stage rejection counts and a sampled rejection map
            for ``explain`` output.
        """
        with self.lock.read_locked():
            return self._shortlist(spec, self.resolve_execution(spec))

    def _shortlist(
        self,
        spec: QuerySpec,
        execution: ExecutionOptions,
        query_bestring: Optional[BEString2D] = None,
    ) -> ShortlistOutcome:
        """Shortlist implementation (callers hold the shared grant).

        ``execution`` is the spec's resolved options.  Stage 1 reads each
        candidate's postings tally, and the exact label overlap is counted,
        from the label counts the postings keep, only where the tally passes
        an overlap threshold it may overstate.  A candidate's record is read
        only by a bound that needs it.  A minimum-score cut computes the
        stage-2 bound of every candidate it admits; those land in
        :attr:`ShortlistOutcome.bounds`, so the candidate loop never bounds
        one twice.
        """
        if not execution.shortlist:
            return ShortlistOutcome(self._image_ids(), STAGE_FULL_SCAN)
        picture = spec.effective_picture()
        if not picture.labels:
            return ShortlistOutcome(self._image_ids(), STAGE_FULL_SCAN)
        tallies = self.inverted_index.candidates(
            picture.labels, minimum_shared=spec.minimum_shared_labels
        )
        if self._owned is not None:
            owned = self._owned
            tallies = {
                image_id: tally for image_id, tally in tallies.items() if image_id in owned
            }
        ordered = sorted(tallies)
        threshold = self.minimum_overlap_ratio
        minimum_score = spec.minimum_score
        if threshold <= 0.0 and minimum_score <= 0.0:
            # Nothing to bound against: every label-sharer is worth scoring.
            return ShortlistOutcome(ordered, STAGE_SHORTLIST, len(ordered), tallies=tallies)
        if query_bestring is None:
            query_bestring = encode_picture(picture)
        policy = spec.effective_policy()
        query_signature = QuerySignature(
            query_bestring,
            picture.labels,
            # The per-transformation variants feed only the score bounds; on
            # a threshold-only pass (minimum_score == 0) skip building them.
            spec.transformations if minimum_score > 0.0 else (Transformation.IDENTITY,),
        )
        total = query_signature.total_labels
        # Without a repeated query label the tally is the exact overlap.
        tally_is_exact = total == len(query_signature.label_counts)
        outcome = ShortlistOutcome([], STAGE_SHORTLIST, len(ordered), tallies=tallies)

        def reject(image_id: str, stage: str, bound: float) -> None:
            if stage == STAGE_BITMAP_PRUNED:
                outcome.bitmap_rejected += 1
            else:
                outcome.relation_rejected += 1
            if len(outcome.rejections) < REJECTION_SAMPLE_LIMIT:
                outcome.rejections[image_id] = stage
                outcome.rejection_bounds[image_id] = bound

        get = self.database.get
        for image_id in ordered:
            # Stage 1 is the label-overlap stage: the tally settles most
            # candidates, the exact multiset overlap the threshold's rest.
            # Both threshold rejections are attributed here (the recorded
            # bound is the failing overlap ratio); only the boundary-LCS
            # score bound below counts as a stage-2 rejection.
            tally = tallies[image_id]
            if threshold > 0.0 and tally / total < threshold:
                reject(image_id, STAGE_BITMAP_PRUNED, tally / total)
                continue
            if minimum_score > 0.0:
                coarse = query_signature.overlap_upper_bound(get(image_id), tally, policy)
                if coarse < minimum_score:
                    reject(image_id, STAGE_BITMAP_PRUNED, coarse)
                    continue
            if threshold > 0.0 and not tally_is_exact:
                overlap = query_signature.exact_overlap(
                    self.inverted_index.label_counts(image_id)
                )
                if overlap / total < threshold:
                    reject(image_id, STAGE_BITMAP_PRUNED, overlap / total)
                    continue
            # Stage 2: the boundary-LCS bound, walked on the stored BE-string.
            if minimum_score > 0.0:
                bound = query_signature.score_upper_bound(
                    get(image_id), tally, policy, with_boundary_lcs=True
                )
                if bound < minimum_score:
                    reject(image_id, STAGE_RELATION_PRUNED, bound)
                    continue
                outcome.bounds[image_id] = bound
            outcome.candidates.append(image_id)
        return outcome

    def _score(
        self, query_bestring: BEString2D, candidate: BEString2D, spec: QuerySpec
    ) -> SimilarityResult:
        if len(spec.transformations) == 1:
            return similarity(
                query_bestring, candidate, spec.effective_policy(), spec.transformations[0]
            )
        return invariant_similarity(
            query_bestring, candidate, spec.effective_policy(), spec.transformations
        )

    def resolve_execution(self, spec: QuerySpec) -> ExecutionOptions:
        """The fully-resolved execution options governing ``spec``.

        The engine's defaults, overlaid with the spec's per-query overrides,
        with any remaining unset field filled from
        :data:`repro.index.execution.DEFAULT_EXECUTION`.
        """
        return self.execution.overlaid(spec.execution).resolved()

    @staticmethod
    def _kernel_for(execution: ExecutionOptions, policy: SimilarityPolicy) -> str:
        """The kernel that will actually run.

        Boundary-counting policies need the LCS string itself, which the
        length-only bit-parallel kernel cannot produce — they silently fall
        back to the reference evaluation (and the trace reports that).
        """
        if execution.kernel == KERNEL_BITPARALLEL and not policy.count_boundaries_only:
            return KERNEL_BITPARALLEL
        return KERNEL_REFERENCE

    def _kernel_score(
        self, query_bestring: BEString2D, candidate: BEString2D, spec: QuerySpec
    ) -> float:
        """Length-only score via the bit-parallel kernel.

        Bit-identical to ``self._score(...).score`` — both run the same
        normalise/combine arithmetic on the same LCS lengths.
        """
        if len(spec.transformations) == 1:
            return similarity_score(
                query_bestring,
                candidate,
                spec.effective_policy(),
                spec.transformations[0],
                be_lcs_length_bitparallel,
            )
        score, _ = invariant_similarity_score(
            query_bestring,
            candidate,
            spec.effective_policy(),
            spec.transformations,
            be_lcs_length_bitparallel,
        )
        return score

    def _rank(
        self, spec: QuerySpec, trace: QueryTrace
    ) -> Tuple[List[RankedResult], Optional[Dict[str, Match]]]:
        """Rank a similarity spec in this process (callers hold the shared grant).

        The candidate loop (:meth:`_rank_keys`) finds the ranking's
        survivors, the finished trace is added to :attr:`counters`, and the
        survivors are materialised (:meth:`_materialise`).

        Returns:
            The ranking, and the per-image predicate matches of ``spec``
            (``None`` without a predicate clause).
        """
        query_bestring = encode_picture(spec.effective_picture())
        survivors, confirmed, matches = self._rank_keys(spec, trace, query_bestring)
        self.counters.record(trace, spec.has_graded_predicates)
        return self._materialise(spec, query_bestring, survivors, confirmed), matches

    def _rank_keys(
        self, spec: QuerySpec, trace: QueryTrace, query_bestring: BEString2D
    ) -> Tuple[List[Tuple[float, str]], Dict[str, CacheEntry], Optional[Dict[str, Match]]]:
        """The candidate loop every similarity clause runs through.

        Callers hold the shared grant.  ``query_bestring`` encodes the
        spec's effective picture.  The predicate clause of ``spec``, if
        any, combines with its similarity:

        * without one, every shortlisted candidate has degree 1;
        * a crisp clause drops the candidates that are not a full match;
        * a graded tree is evaluated first, and its degree composes with the
          similarity (:meth:`~repro.index.spec.QuerySpec.compose`), so the
          composed score decides the minimum-score and limit cuts.

        Under the anytime strategy and a limit, candidates wait in a queue
        keyed ``(-compose(bound, degree), image_id)`` and are refined
        lazily.  A candidate enters with its stage-1 bound, read from its
        postings tally (:meth:`~repro.index.shortlist.QuerySignature.overlap_upper_bound`:
        one table per query under the default query normalisation), or
        with the stage-2 bound a minimum-score cut already computed.  When
        it first reaches the head its boundary-LCS bound is computed and it
        is queued again; when it reaches the head again the score cache is
        read, and on a miss the candidate is scored.  The loop stops once
        the k-th confirmed key sorts at or before the head's key.  Since
        ``score <= stage-2 bound <= stage-1 bound``, no queued candidate
        can then enter the top k or change its order, and every key carries
        the distinct image id, so ties are safe.  This is the threshold test
        of Fagin, Lotem & Naor, "Optimal aggregation algorithms for
        middleware" (PODS 2001), run as the multi-step k-nearest-neighbour
        search of Seidl & Kriegel ("Optimal Multi-Step k-Nearest Neighbor
        Search", SIGMOD 1998): the candidates scored are exactly those an
        eager loop over every stage-2 bound would score.  Scores below the
        minimum never take one of the k slots.  The exhaustive strategy, a
        query without a limit and a full-scan pass, which has no tallies to
        bound with, confirm every candidate in id order and bound none.

        Misses are scored by the resolved kernel and cached; a skipped
        candidate leaves no cache entry.  Nothing is materialised here: the
        reference kernel's full results are kept with the confirmed
        entries, and :meth:`_materialise` makes the survivors' results.

        Returns:
            The ``(-score, image_id)`` keys of the survivors in ranking
            order, cut to the limit; the entry of every candidate the loop
            confirmed; and the per-image predicate matches of ``spec``
            (``None`` without a predicate clause).
        """
        limit, minimum_score = spec.limit, spec.minimum_score
        graded = spec.has_graded_predicates
        policy = spec.effective_policy()
        execution = self.resolve_execution(spec)
        kernel = self._kernel_for(execution, policy)
        outcome = self._shortlist(
            # The shortlist must not reject on the raw similarity bound: the
            # sum composition can rank a low-similarity image above a
            # high-similarity one.
            replace(spec, minimum_score=0.0) if graded else spec,
            execution,
            query_bestring,
        )
        candidates = outcome.candidates
        matches: Optional[Dict[str, Match]] = None
        if spec.has_predicate_clause:
            matches = self._evaluate_clause(spec, trace, execution, restrict_to=candidates)
            if not graded:
                candidates = [
                    image_id for image_id in candidates if matches[image_id].is_full_match
                ]

        def composed(image_id: str, score: float) -> float:
            if not graded:
                return score
            return spec.compose(score, matches[image_id].degree)

        trace.database_size = self._database_size()
        trace.inverted_candidates = outcome.inverted_candidates
        trace.shortlisted = len(candidates)
        trace.bitmap_pruned = outcome.bitmap_rejected
        trace.relation_pruned = outcome.relation_rejected
        trace.kernel = kernel
        for image_id, rejecting_stage in outcome.rejections.items():
            trace.candidates[image_id] = CandidateTrace(
                image_id=image_id,
                stage=rejecting_stage,
                score_bound=outcome.rejection_bounds.get(image_id),
            )
        anytime = execution.strategy == STRATEGY_ANYTIME and outcome.stage != STAGE_FULL_SCAN
        trace.strategy = STRATEGY_ANYTIME if anytime else STRATEGY_EXHAUSTIVE

        cache_key = query_score_key(query_bestring, policy, spec.transformations)
        use_cache = execution.cache
        # The queue of (-composed bound, image id, refined) entries, a
        # refined entry's bound being its stage-2 bound.  Without a stop
        # there is nothing to bound: every entry is refined at key 0, so the
        # candidates are confirmed in id order (a sorted list is a heap).
        stoppable = anytime and limit is not None
        queue: List[Tuple[float, str, bool]]
        if not stoppable:
            queue = [(0.0, image_id, True) for image_id in candidates]
        else:
            signature = QuerySignature(
                query_bestring, spec.effective_picture().labels, spec.transformations
            )
            queue = []
            get = self.database.get
            for image_id in candidates:
                bound = outcome.bounds.get(image_id)
                refined = bound is not None
                if not refined:
                    bound = signature.overlap_upper_bound(
                        get(image_id), outcome.tallies[image_id], policy
                    )
                queue.append((-composed(image_id, bound), image_id, refined))
            heapify(queue)

        # (-composed score, image id) of every confirmed candidate at or
        # above the minimum, kept sorted: the ranking order.
        ranked: List[Tuple[float, str]] = []
        confirmed: Dict[str, CacheEntry] = {}
        while queue:
            key, image_id, refined = queue[0]
            if stoppable and len(ranked) >= limit:
                if limit == 0 or (key, image_id) >= ranked[limit - 1]:
                    break
            heappop(queue)
            if not refined:
                bound = signature.score_upper_bound(
                    self.database.get(image_id),
                    outcome.tallies[image_id],
                    policy,
                    with_boundary_lcs=True,
                )
                heappush(queue, (-composed(image_id, bound), image_id, True))
                continue
            entry = self.score_cache.get(cache_key, image_id) if use_cache else None
            hit = entry is not None
            if hit:
                trace.cache_hits += 1
            else:
                bestring = self.database.get(image_id).bestring
                if kernel == KERNEL_BITPARALLEL:
                    entry = self._kernel_score(query_bestring, bestring, spec)
                else:
                    entry = self._score(query_bestring, bestring, spec)
                trace.cache_misses += 1
                if use_cache:
                    self.score_cache.put(cache_key, image_id, entry)
            trace.candidates[image_id] = CandidateTrace(
                image_id=image_id,
                stage=outcome.stage,
                cache_hit=hit if use_cache else None,
            )
            confirmed[image_id] = entry
            score = composed(image_id, _entry_value(entry))
            if score >= minimum_score:
                insort(ranked, (-score, image_id))

        if queue:
            # The skipped: their best known bound, stage 1 or stage 2.
            trace.bound_cutoff = -queue[0][0]
            for key, image_id, _ in nsmallest(REJECTION_SAMPLE_LIMIT, queue):
                trace.candidates[image_id] = CandidateTrace(
                    image_id=image_id,
                    stage=STAGE_BOUND_SKIPPED,
                    score_bound=-key,
                )
        trace.candidates_examined = len(confirmed)
        trace.bound_skipped = len(queue)
        return (ranked if limit is None else ranked[:limit]), confirmed, matches

    def _materialise(
        self,
        spec: QuerySpec,
        query_bestring: BEString2D,
        survivors: Sequence[Tuple[float, str]],
        confirmed: Mapping[str, CacheEntry],
    ) -> List[RankedResult]:
        """The ranked results of ``survivors``, each with its full result.

        ``survivors`` are ``(-score, image_id)`` keys in ranking order, cut
        to the spec's limit and minimum score.  Only they are materialised
        as full :class:`SimilarityResult` objects (``RankedResult.similarity``
        and ``explain`` need them): a survivor's result comes from
        ``confirmed``, else from the score cache, else from the reference
        evaluation, whose result then replaces the survivor's cache entry.
        Under ``cache=False`` the cache is neither read nor written.  A
        serial read passes the entries its loop confirmed; a scattered read
        passes none, so its merged top k are read from this engine's cache.
        """
        use_cache = self.resolve_execution(spec).cache
        cache_key = query_score_key(
            query_bestring, spec.effective_policy(), spec.transformations
        )
        scored: List[Tuple[str, SimilarityResult]] = []
        for _, image_id in survivors:
            result = confirmed.get(image_id)
            if result is None and use_cache:
                result = self.score_cache.get(cache_key, image_id)
            if not isinstance(result, SimilarityResult):
                bestring = self.database.get(image_id).bestring
                result = self._score(query_bestring, bestring, spec)
                if use_cache:
                    self.score_cache.put(cache_key, image_id, result)
            scored.append((image_id, result))
        scores = None
        if spec.has_graded_predicates:
            scores = {image_id: -key for key, image_id in survivors}
        return rank_results(scored, spec.limit, spec.minimum_score, scores=scores)

    def execute_traced(self, spec: QuerySpec) -> Tuple[List[RankedResult], QueryTrace]:
        """Run a similarity-only spec in this process under a shared grant.

        Returns:
            :class:`~repro.index.ranking.RankedResult` entries sorted by
            descending score (ties broken by image id), already cut to the
            spec's limit and minimum score, and the execution trace.
        """
        trace = QueryTrace(mode="similarity")
        with self.lock.read_locked():
            ranked, _ = self._rank(spec, trace)
        return ranked, trace

    # ------------------------------------------------------------------
    # Declarative spec execution (the unified pipeline)
    # ------------------------------------------------------------------
    def execute_spec(self, spec: QuerySpec) -> SpecOutcome:
        """Run a declarative :class:`~repro.index.spec.QuerySpec`.

        Predicate-only specs are pruned through the inverted index (images
        that cannot satisfy any predicate are synthesised as zero matches
        without evaluation).  Every spec with a similarity clause runs the
        one cache-first candidate loop (:meth:`_rank`), its predicate clause,
        if any, filtering (crisp) or composing with (graded) the similarity.
        Under ``executor="shard_process"`` the spec is scattered to the shard
        workers, each of which answers for its own images through
        :meth:`_execute_keys`, and :meth:`_finish_gather` materialises the
        merged top k here.

        Returns:
            A :class:`~repro.index.spec.SpecOutcome` holding the final
            ranking, the execution trace, and (in combined mode) the
            per-image predicate evaluations.

        Raises:
            repro.index.spec.QuerySpecError: on a malformed spec.
        """
        spec.validate()
        execution = self.resolve_execution(spec)
        # One shared grant spans the whole spec (similarity scoring plus any
        # predicate evaluation): concurrent mutations cannot interleave
        # between the clauses, so the outcome always reflects one snapshot.
        with self.lock.read_locked():
            if execution.executor == EXECUTOR_SHARD_PROCESS:
                # Scatter-gather: the read grant freezes the snapshot the
                # workers forked from (mutations invalidate the pool under
                # the write lock, so a pool obtained here is guaranteed to
                # mirror the current in-memory database).
                gather = self._shard_pool_for(execution).execute_spec(spec)
                return self._finish_gather(spec, gather)
            return self._execute_local(spec)

    def _execute_local(self, spec: QuerySpec) -> SpecOutcome:
        """Run a validated spec in this process (callers hold the shared grant)."""
        if not spec.has_similarity_clause:
            return self._execute_predicate_spec(spec)
        if not spec.has_predicate_clause:
            ranked, trace = self.execute_traced(spec)
            return SpecOutcome(spec=spec, results=ranked, trace=trace)
        trace = QueryTrace(mode="combined")
        ranked, matches = self._rank(spec, trace)
        return SpecOutcome(spec=spec, results=ranked, trace=trace, predicate_matches=matches)

    def _execute_keys(
        self, spec: QuerySpec
    ) -> Tuple[List[Tuple[float, str]], QueryTrace, Optional[Dict[str, Match]]]:
        """Rank a validated spec in this process and materialise nothing.

        This is what a shard worker answers: the ``(-score, image_id)`` keys
        of its ranking, cut to the limit (composed scores under a graded
        clause; satisfaction scores for a predicate-only spec), its trace,
        and its predicate matches.
        """
        if not spec.has_similarity_clause:
            outcome = self._execute_predicate_spec(spec)
            keys = [(-match.score, match.image_id) for match in outcome.results]
            return keys, outcome.trace, outcome.predicate_matches
        trace = QueryTrace(mode="combined" if spec.has_predicate_clause else "similarity")
        query_bestring = encode_picture(spec.effective_picture())
        keys, _, matches = self._rank_keys(spec, trace, query_bestring)
        return keys, trace, matches

    def _evaluate_clause(
        self,
        spec: QuerySpec,
        trace: QueryTrace,
        execution: ExecutionOptions,
        restrict_to: Optional[List[str]] = None,
    ) -> Dict[str, Match]:
        """Evaluate the predicate clause over the database, with label pruning.

        While the resolved ``shortlist`` option of ``execution`` is on, an
        image that lacks the labels the clause needs is settled at
        postings-lookup cost, as a synthesised zero match identical to what
        full evaluation would return:

        * a crisp predicate holds only where both its subject and target
          labels occur, so an image holding neither pair of any predicate
          satisfies nothing;
        * a graded tree is checked against the sound degree upper bound
          :func:`repro.index.shortlist.tree_degree_bound`.  A bound of 0
          proves every leaf degree is exactly 0 (crisp leaves over absent
          labels, no fail-open ``not``/``fuzzy`` on the path).

        ``restrict_to`` (combined mode) limits evaluation to the similarity
        candidates instead of the whole database.
        """
        from repro.index.shortlist import tree_degree_bound
        from repro.retrieval.predicates import (
            PredicateMatch,
            evaluate_predicates,
            evaluate_tree,
            zero_graded_match,
        )

        tree = spec.predicate_tree
        if tree is None:
            predicates = tuple(spec.predicates)
        else:
            predicates = tuple(leaf.predicate for leaf in tree.leaves())
        postings: Dict[str, Set[str]] = {}
        for predicate in predicates:
            for label in (predicate.subject, predicate.target):
                if label not in postings:
                    postings[label] = self.inverted_index.images_with_label(label)
        if tree is None:
            evaluable: Set[str] = set()
            for predicate in predicates:
                evaluable |= postings[predicate.subject] & postings[predicate.target]

            def pruned(image_id: str) -> bool:
                return image_id not in evaluable

            def evaluate(bestring: BEString2D, image_id: str) -> Match:
                return evaluate_predicates(bestring, predicates, image_id=image_id)

            def zero(image_id: str) -> Match:
                return PredicateMatch(
                    image_id=image_id, satisfied=(), unsatisfied=predicates
                )
        else:

            def pruned(image_id: str) -> bool:
                return tree_degree_bound(tree, lambda label: image_id in postings[label]) <= 0.0

            def evaluate(bestring: BEString2D, image_id: str) -> Match:
                return evaluate_tree(bestring, tree, image_id=image_id)

            def zero(image_id: str) -> Match:
                return zero_graded_match(tree, image_id)

        trace.database_size = self._database_size()
        universe = self._image_ids() if restrict_to is None else restrict_to
        matches: Dict[str, Match] = {}
        evaluated = 0
        for image_id in universe:
            if execution.shortlist and pruned(image_id):
                matches[image_id] = zero(image_id)
                stage = STAGE_PREDICATE_PRUNED
            else:
                matches[image_id] = evaluate(self.database.get(image_id).bestring, image_id)
                evaluated += 1
                stage = STAGE_PREDICATE_EVALUATED
            if image_id not in trace.candidates:
                trace.candidates[image_id] = CandidateTrace(image_id=image_id, stage=stage)
        trace.predicate_evaluated += evaluated
        trace.predicate_pruned += len(matches) - evaluated
        return matches

    def _execute_predicate_spec(self, spec: QuerySpec) -> SpecOutcome:
        """Predicate-only execution: rank by satisfaction (fraction or degree).

        Crisp specs rank by the historical fraction-of-predicates-satisfied
        score; graded trees rank by the tree's satisfaction degree.  Both use
        the same ``(-score, image_id)`` order and minimum-score/limit cut.
        """
        trace = QueryTrace(mode="predicate")
        matches = self._evaluate_clause(spec, trace, self.resolve_execution(spec))
        ranked = [
            match for match in matches.values() if match.score >= spec.minimum_score
        ]
        ranked.sort(key=lambda match: (-match.score, match.image_id))
        if spec.limit is not None:
            ranked = ranked[: spec.limit]
        self.counters.record(trace, spec.has_graded_predicates)
        return SpecOutcome(spec=spec, results=ranked, trace=trace, predicate_matches=matches)

    # ------------------------------------------------------------------
    # Scatter-gather execution over the shard-worker pool
    # ------------------------------------------------------------------
    def _finish_gather(self, spec: QuerySpec, gather: "Gather") -> SpecOutcome:
        """The outcome of one scattered spec, made from its merged gather.

        The merged trace is added to :attr:`counters` as one query, so
        ``/stats`` stays truthful under ``executor="shard_process"``.  A
        similarity spec's merged top k are materialised by the tail a serial
        read ends with (:meth:`_materialise`), through this engine's score
        cache; a predicate-only spec's results are its matches.
        """
        self.counters.record(gather.trace, spec.has_graded_predicates)
        matches = gather.predicate_matches
        if spec.has_similarity_clause:
            query_bestring = encode_picture(spec.effective_picture())
            results = self._materialise(spec, query_bestring, gather.keys, {})
        else:
            results = [matches[image_id] for _, image_id in gather.keys]
        return SpecOutcome(
            spec=spec, results=results, trace=gather.trace, predicate_matches=matches
        )

    def _shard_pool_for(self, execution: ExecutionOptions) -> "ShardWorkerPool":
        """The live shard-worker pool, (re)built lazily for ``execution``.

        The pool is reused across queries while the requested worker count
        is stable; asking for a different count tears the old pool down and
        forks a fresh one.  Workers answer from the database and postings
        they inherit through the fork.
        """
        from repro.index.workers import ShardWorkerPool

        workers = execution.workers or 1
        stale: Optional["ShardWorkerPool"] = None
        with self._shard_pool_guard:
            pool = self._shard_pool
            if pool is not None and pool.worker_count != workers:
                stale, pool = pool, None
                self._shard_pool = None
            if pool is None:
                pool = ShardWorkerPool(workers, self)
                self._shard_pool = pool
        if stale is not None:
            self._close_pool_async(stale)
        return pool

    @staticmethod
    def _close_pool_async(pool: "ShardWorkerPool") -> None:
        """Close a stale, already-unregistered pool on a background thread.

        A close joins every worker (seconds in the worst case); callers hold
        the engine write lock or sit on a query path, and neither should
        stall on worker teardown.  The pool is unregistered before this runs,
        so no query can reach it while it winds down.
        """
        threading.Thread(
            target=pool.close, name="repro-shard-pool-close", daemon=True
        ).start()

    def _invalidate_shard_pool(self) -> None:
        """Tear down the pool after a mutation (workers hold a stale slice).

        The teardown itself runs asynchronously: this is called under the
        engine write lock, and joining worker processes there would stall
        every mutation (and every reader queued behind it) on process exit.
        """
        with self._shard_pool_guard:
            stale, self._shard_pool = self._shard_pool, None
        if stale is not None:
            self._close_pool_async(stale)

    def close_shard_pool(self) -> None:
        """Terminate the shard workers (idempotent; service shutdown path)."""
        with self._shard_pool_guard:
            pool, self._shard_pool = self._shard_pool, None
        if pool is not None:
            pool.close()

    def shard_pool_stats(self) -> Optional[Dict[str, object]]:
        """The live pool's stats block, or ``None`` when no pool is up."""
        with self._shard_pool_guard:
            pool = self._shard_pool
        return pool.stats() if pool is not None else None

    def run_batch(
        self,
        specs: Sequence[QuerySpec],
        execution: Optional[ExecutionOptions] = None,
        **overrides,
    ) -> List[List[RankedResult]]:
        """Run many similarity-only specs as one batch (see :mod:`repro.index.batch`).

        Identical specs are evaluated once, and every unique spec runs
        the one candidate loop, so results are identical -- including
        tie-break ordering -- to calling :meth:`execute_spec` per spec.
        ``execution`` and the keyword overrides (``executor="shard_process"``,
        ``workers=2``, ``cache=False``) apply to the batch as a whole; see
        :class:`~repro.index.batch.BatchQueryEngine`.
        """
        from repro.index.batch import BatchQueryEngine

        batch = BatchQueryEngine(
            self, (execution or ExecutionOptions()).overlaid(ExecutionOptions(**overrides))
        )
        results = batch.run(specs)
        self.last_batch_report = batch.last_report
        return results
