"""The query engine: the unified retrieval pipeline over an image database.

The engine ties the pieces together the way the paper's demonstration system
does: the query picture is encoded once, candidate images are shortlisted by
the inverted index and the two-stage signature shortlist
(:mod:`repro.index.shortlist` — hashed label bitmaps, then relation-pair
score bounds against the query's ``minimum_score``), each surviving candidate
is scored with the modified-LCS similarity evaluation (optionally over all
rotations/reflections of the query), and the results are returned ranked.

Since the query-API redesign every entry point converges here:

* :meth:`QueryEngine.execute` (the serial path) and the batch scheduler
  (:mod:`repro.index.batch`) both consult the shared
  :class:`~repro.index.cache.ScoreCache`, so an identical repeated query --
  serial or batched -- never pays the LCS dynamic program twice.
* :meth:`QueryEngine.execute_spec` runs a full declarative
  :class:`~repro.index.spec.QuerySpec` -- similarity, relation predicates, or
  both -- recording a :class:`~repro.index.spec.QueryTrace` of shortlist
  admissions and cache hits for ``explain`` output.  Predicate clauses are
  pruned through the inverted index instead of scanning every stored record.
"""

from __future__ import annotations

import threading
from bisect import insort
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.bestring import BEString2D
from repro.core.construct import encode_picture
from repro.core.lcskernel import be_lcs_length_bitparallel
from repro.core.similarity import (
    DEFAULT_POLICY,
    SimilarityPolicy,
    SimilarityResult,
    invariant_similarity,
    invariant_similarity_score,
    similarity,
    similarity_score,
)
from repro.core.transforms import Transformation, canonical_transformations
from repro.geometry.rectangle import Rectangle
from repro.iconic.picture import SymbolicPicture
from repro.index.cache import QueryKey, ScoreCache, query_score_key
from repro.index.database import ImageDatabase, ImageRecord
from repro.index.execution import (
    EXECUTOR_SHARD_PROCESS,
    KERNEL_BITPARALLEL,
    KERNEL_REFERENCE,
    STRATEGY_ANYTIME,
    STRATEGY_EXHAUSTIVE,
    ExecutionCounters,
    ExecutionOptions,
    PredicateCounters,
)
from repro.index.inverted import InvertedSymbolIndex
from repro.index.ranking import RankedResult, rank_results
from repro.index.shortlist import (
    REJECTION_SAMPLE_LIMIT,
    QuerySignature,
    ShortlistCounters,
    ShortlistOutcome,
    signature_for,
)
from repro.index.signature import SignatureFilter
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
    from repro.index.batch import BatchOptions, BatchReport
    from repro.index.workers import GatherOutcome, ShardWorkerPool
    from repro.retrieval.predicates import GradedMatch, PredicateMatch


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


@dataclass(frozen=True)
class Query:
    """A similarity query.

    ``transformations`` selects the transformation-invariant mode: with more
    than one entry the best-scoring variant of the query is used per image.
    ``use_filters`` disables the candidate pruning (used by the ablation
    benchmark); ``minimum_shared_labels`` and ``minimum_score`` tune the
    shortlist and the final cut-off.  ``use_cache=False`` bypasses the score
    cache for this query only (every candidate is re-scored and nothing is
    memoised).

    ``transformations`` is canonicalised on construction (deduplicated,
    ordered by enum definition with ``IDENTITY`` first): the evaluated *set*
    is what matters, tie-breaks always resolve to the earliest canonical
    transformation, and the score cache sees one key per set regardless of
    how the caller ordered it.
    """

    picture: SymbolicPicture
    policy: SimilarityPolicy = DEFAULT_POLICY
    transformations: Tuple[Transformation, ...] = (Transformation.IDENTITY,)
    limit: Optional[int] = None
    minimum_score: float = 0.0
    minimum_shared_labels: int = 1
    use_filters: bool = True
    use_cache: bool = True
    #: Execution overrides (kernel, strategy, ...); ``None`` fields inherit
    #: the engine's defaults.  ``execution.shortlist`` / ``execution.cache``
    #: take precedence over the legacy ``use_filters`` / ``use_cache`` fields
    #: (which they overwrite on construction, keeping every legacy reader —
    #: including the batch scheduler's dedup key — consistent).
    execution: Optional[ExecutionOptions] = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "transformations", canonical_transformations(self.transformations)
        )
        if self.execution is not None:
            if self.execution.shortlist is not None:
                object.__setattr__(self, "use_filters", self.execution.shortlist)
            if self.execution.cache is not None:
                object.__setattr__(self, "use_cache", self.execution.cache)

    @classmethod
    def exact(cls, picture: SymbolicPicture, **kwargs) -> "Query":
        """Query for the picture as-is (no transformation invariance)."""
        return cls(picture=picture, **kwargs)

    @classmethod
    def invariant(cls, picture: SymbolicPicture, **kwargs) -> "Query":
        """Query over all rotations and reflections of the picture."""
        return cls(picture=picture, transformations=tuple(Transformation), **kwargs)


@dataclass
class QueryEngine:
    """Executes :class:`Query` objects against an :class:`ImageDatabase`."""

    database: ImageDatabase
    #: Legacy label-multiset filter.  The hot query path reads only its
    #: ``minimum_overlap_ratio`` (the threshold itself is enforced through
    #: the two-stage shortlist's bitmap/exact overlap); the per-image
    #: registry is still maintained for the standalone/ablation API
    #: (``filter()``/``scored()``) and existing callers.
    signature_filter: SignatureFilter = field(default_factory=SignatureFilter)
    inverted_index: InvertedSymbolIndex = field(default_factory=InvertedSymbolIndex)
    #: Memoised per-(query, image) similarity results, shared with the batch
    #: subsystem (:mod:`repro.index.batch`) and invalidated on every mutation.
    score_cache: ScoreCache = field(default_factory=ScoreCache)
    #: Cumulative two-stage shortlist counters (surfaced by the service
    #: ``/stats`` endpoint).
    shortlist_counters: ShortlistCounters = field(default_factory=ShortlistCounters)
    #: Engine-wide execution defaults; per-query
    #: :attr:`Query.execution` overrides overlay these, and unset fields fall
    #: back to :data:`repro.index.execution.DEFAULT_EXECUTION`.
    execution: ExecutionOptions = field(default_factory=ExecutionOptions)
    #: Cumulative branch-and-bound counters (surfaced by the service
    #: ``/stats`` endpoint alongside :attr:`shortlist_counters`).
    execution_counters: ExecutionCounters = field(default_factory=ExecutionCounters)
    #: Cumulative predicate-stage counters (evaluated vs label-pruned images;
    #: surfaced by the service ``/stats`` ``predicates`` block).
    predicate_counters: PredicateCounters = field(default_factory=PredicateCounters)
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

        Every record's shortlist signature is derived here, from its
        validated BE-string, so the first query pays no index-construction
        latency.  ``execution`` sets the engine-wide execution defaults
        (kernel, strategy, ...) every query inherits.
        """
        engine = cls(
            database=database,
            signature_filter=SignatureFilter(minimum_overlap_ratio=minimum_overlap_ratio),
            execution=execution if execution is not None else ExecutionOptions(),
        )
        for record in database:
            engine.signature_filter.add_picture(record.image_id, record.picture)
            engine.inverted_index.add_picture(record.image_id, record.picture)
            signature_for(record)
        return engine

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
            self.signature_filter.add_picture(record.image_id, record.picture)
            self.inverted_index.add_picture(record.image_id, record.picture)
            signature_for(record)
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
            self.signature_filter.remove_picture(image_id)
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
            self.signature_filter.update_picture(image_id, record.picture)
            self.inverted_index.update_picture(image_id, record.picture)
            signature_for(record)
            self.score_cache.invalidate_image(image_id)
            self._invalidate_shard_pool()
            return record

    def remove_object(self, image_id: str, identifier: str) -> ImageRecord:
        """Dynamically remove one icon from a stored image, refreshing all indexes.

        Atomic under the write lock exactly like :meth:`add_object`.
        """
        with self.lock.write_locked():
            record = self.database.remove_object(image_id, identifier)
            self.signature_filter.update_picture(image_id, record.picture)
            self.inverted_index.update_picture(image_id, record.picture)
            signature_for(record)
            self.score_cache.invalidate_image(image_id)
            self._invalidate_shard_pool()
            return record

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------
    def candidate_ids(self, query: Query) -> List[str]:
        """Shortlist the images worth scoring for ``query``.

        Convenience wrapper over :meth:`shortlist` returning only the ids.

        Returns:
            Candidate image ids, in the deterministic order they will be
            scored.
        """
        return self.shortlist(query).candidates

    def shortlist(
        self, query: Query, query_bestring: Optional[BEString2D] = None
    ) -> ShortlistOutcome:
        """Run the two-stage shortlist for ``query`` under a shared grant.

        ``query_bestring`` lets callers that already encoded the query (the
        batch scheduler builds it for the cache key) avoid a second
        ``encode_picture`` pass.

        The inverted index admits images sharing at least
        ``query.minimum_shared_labels`` icon labels with the query; the
        two-stage signature shortlist (:mod:`repro.index.shortlist`) then
        rejects candidates whose score upper bound cannot clear
        ``query.minimum_score`` — stage 1 from the hashed label bitmaps,
        stage 2 from the relation-pair signatures.  With ``query.use_filters``
        off (or a label-less query) every stored image is a candidate.

        Returns:
            The full :class:`~repro.index.shortlist.ShortlistOutcome`,
            including per-stage rejection counts and a sampled rejection map
            for ``explain`` output.
        """
        with self.lock.read_locked():
            return self._shortlist(query, query_bestring)

    def _shortlist(
        self,
        query: Query,
        query_bestring: Optional[BEString2D] = None,
        collect_bounds: bool = False,
    ) -> ShortlistOutcome:
        """Shortlist implementation (callers hold the shared grant).

        ``collect_bounds`` additionally records the stage-2 score upper bound
        of every *admitted* candidate in :attr:`ShortlistOutcome.bounds` (the
        anytime strategy orders candidates and terminates on them).  The
        admitted set is identical either way; full-scan passes (filters off or
        a label-less query) have no signatures to bound with and leave
        ``bounds`` as ``None``.
        """
        if not query.use_filters:
            return ShortlistOutcome(self.database.image_ids, STAGE_FULL_SCAN)
        labels = set(query.picture.labels)
        if not labels:
            return ShortlistOutcome(self.database.image_ids, STAGE_FULL_SCAN)
        candidates = self.inverted_index.candidates(
            labels, minimum_shared=query.minimum_shared_labels
        )
        ordered = sorted(candidates)
        threshold = self.signature_filter.minimum_overlap_ratio
        minimum_score = query.minimum_score
        if threshold <= 0.0 and minimum_score <= 0.0 and not collect_bounds:
            # Nothing to bound against: every label-sharer is worth scoring.
            outcome = ShortlistOutcome(ordered, STAGE_SHORTLIST, len(candidates))
            self.shortlist_counters.record(outcome)
            return outcome
        if query_bestring is None:
            query_bestring = encode_picture(query.picture)
        query_signature = QuerySignature(
            query_bestring,
            query.picture.labels,
            # The per-transformation variants feed only the score bounds; on
            # a threshold-only pass (minimum_score == 0) skip building them —
            # unless the caller wants per-candidate bounds, which must
            # dominate the best score over *every* transformation.
            query.transformations
            if minimum_score > 0.0 or collect_bounds
            else (Transformation.IDENTITY,),
        )
        total = query_signature.total_labels
        outcome = ShortlistOutcome([], STAGE_SHORTLIST, len(candidates))
        if collect_bounds:
            outcome.bounds = {}

        def reject(image_id: str, stage: str, bound: float) -> None:
            if stage == STAGE_BITMAP_PRUNED:
                outcome.bitmap_rejected += 1
            else:
                outcome.relation_rejected += 1
            if len(outcome.rejections) < REJECTION_SAMPLE_LIMIT:
                outcome.rejections[image_id] = stage
                outcome.rejection_bounds[image_id] = bound

        for image_id in ordered:
            candidate = signature_for(self.database.get(image_id))
            # Stage 1 is the label-overlap stage: the bitmap bound settles
            # most candidates, the exact multiset overlap settles the rest.
            # Both threshold rejections are attributed here (the recorded
            # bound is the failing overlap ratio); only the relation-pair
            # score bound below counts as a stage-2 rejection.
            overlap_bound = query_signature.overlap_upper_bound(candidate)
            if threshold > 0.0 and total and overlap_bound / total < threshold:
                reject(image_id, STAGE_BITMAP_PRUNED, overlap_bound / total)
                continue
            if minimum_score > 0.0:
                coarse = query_signature.score_upper_bound(
                    candidate, overlap_bound, query.policy
                )
                if coarse < minimum_score:
                    reject(image_id, STAGE_BITMAP_PRUNED, coarse)
                    continue
            overlap = query_signature.exact_overlap(candidate)
            if threshold > 0.0 and total and overlap / total < threshold:
                reject(image_id, STAGE_BITMAP_PRUNED, overlap / total)
                continue
            # Stage 2: the relation-pair conflict bound on the exact overlap.
            if minimum_score > 0.0 or collect_bounds:
                bound = query_signature.score_upper_bound(
                    candidate, overlap, query.policy, with_conflicts=True
                )
                if minimum_score > 0.0 and bound < minimum_score:
                    reject(image_id, STAGE_RELATION_PRUNED, bound)
                    continue
                if outcome.bounds is not None:
                    outcome.bounds[image_id] = bound
            outcome.candidates.append(image_id)
        self.shortlist_counters.record(outcome)
        return outcome

    def _score(self, query_bestring: BEString2D, candidate: BEString2D, query: Query) -> SimilarityResult:
        if len(query.transformations) == 1:
            return similarity(
                query_bestring, candidate, query.policy, query.transformations[0]
            )
        return invariant_similarity(
            query_bestring, candidate, query.policy, query.transformations
        )

    def resolve_execution(self, query: Query) -> ExecutionOptions:
        """The fully-resolved execution options governing ``query``.

        The engine's defaults, overlaid with the query's per-query overrides,
        with any remaining unset field filled from
        :data:`repro.index.execution.DEFAULT_EXECUTION`.
        """
        return self.execution.overlaid(query.execution).resolved()

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
        self, query_bestring: BEString2D, candidate: BEString2D, query: Query
    ) -> float:
        """Length-only score via the bit-parallel kernel.

        Bit-identical to ``self._score(...).score`` — both run the same
        normalise/combine arithmetic on the same LCS lengths.
        """
        if len(query.transformations) == 1:
            return similarity_score(
                query_bestring,
                candidate,
                query.policy,
                query.transformations[0],
                be_lcs_length_bitparallel,
            )
        score, _ = invariant_similarity_score(
            query_bestring,
            candidate,
            query.policy,
            query.transformations,
            be_lcs_length_bitparallel,
        )
        return score

    def _score_candidates(
        self,
        query: Query,
        trace: QueryTrace,
        allowed: Optional[Set[str]] = None,
        prepared: Optional[Tuple[BEString2D, ShortlistOutcome]] = None,
    ) -> List[Tuple[str, SimilarityResult]]:
        """Score the shortlisted candidates, consulting the score cache.

        This is the single scoring entry point both :meth:`execute` and
        :meth:`execute_spec` share.  The query's resolved
        :class:`~repro.index.execution.ExecutionOptions` pick the scan
        (exhaustive or anytime branch-and-bound) and the LCS kernel; every
        combination returns pairs that rank byte-identically to the
        historical exhaustive/reference loop.  Hits and misses are recorded
        in ``trace``; computed full results are written back to the cache
        (unless ``query.use_cache`` is off).

        ``allowed`` (combined mode) restricts scoring to a pre-filtered id
        set; ``prepared`` passes an already-computed ``(query BE-string,
        shortlist outcome)`` pair so combined mode does not shortlist twice.
        """
        execution = self.resolve_execution(query)
        kernel = self._kernel_for(execution, query.policy)
        if prepared is None:
            query_bestring = encode_picture(query.picture)
            outcome = self._shortlist(
                query,
                query_bestring,
                collect_bounds=execution.strategy == STRATEGY_ANYTIME,
            )
        else:
            query_bestring, outcome = prepared
        cache_key = query_score_key(query_bestring, query.policy, query.transformations)
        candidates, stage = outcome.candidates, outcome.stage
        if allowed is not None:
            candidates = [image_id for image_id in candidates if image_id in allowed]
        trace.database_size = len(self.database)
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
        # A full-scan pass has no signatures, hence no bounds to order by:
        # the anytime strategy degrades to the exhaustive scan (and the trace
        # reports what actually ran).
        anytime = execution.strategy == STRATEGY_ANYTIME and outcome.bounds is not None
        trace.strategy = STRATEGY_ANYTIME if anytime else STRATEGY_EXHAUSTIVE
        if anytime:
            scored = self._score_anytime(
                query, trace, query_bestring, cache_key, candidates, stage,
                outcome.bounds, kernel,
            )
        elif kernel == KERNEL_BITPARALLEL:
            scored = self._score_exhaustive_kernel(
                query, trace, query_bestring, cache_key, candidates, stage
            )
        else:
            scored = self._score_exhaustive(
                query, trace, query_bestring, cache_key, candidates, stage
            )
        self.execution_counters.record(
            admitted=len(candidates),
            examined=trace.candidates_examined,
            anytime=anytime,
        )
        return scored

    def _score_exhaustive(
        self,
        query: Query,
        trace: QueryTrace,
        query_bestring: BEString2D,
        cache_key: QueryKey,
        candidates: List[str],
        stage: str,
    ) -> List[Tuple[str, SimilarityResult]]:
        """The historical scoring loop: full evaluation of every candidate."""
        scored: List[Tuple[str, SimilarityResult]] = []
        for image_id in candidates:
            cached = self.score_cache.get(cache_key, image_id) if query.use_cache else None
            if cached is not None:
                result = cached
                trace.cache_hits += 1
            else:
                record = self.database.get(image_id)
                result = self._score(query_bestring, record.bestring, query)
                trace.cache_misses += 1
                if query.use_cache:
                    self.score_cache.put(cache_key, image_id, result)
            trace.candidates[image_id] = CandidateTrace(
                image_id=image_id,
                stage=stage,
                cache_hit=(cached is not None) if query.use_cache else None,
            )
            scored.append((image_id, result))
        trace.candidates_examined = len(scored)
        return scored

    def _score_exhaustive_kernel(
        self,
        query: Query,
        trace: QueryTrace,
        query_bestring: BEString2D,
        cache_key: QueryKey,
        candidates: List[str],
        stage: str,
    ) -> List[Tuple[str, SimilarityResult]]:
        """Exhaustive scan scored with the length-only bit-parallel kernel.

        Every candidate's score is confirmed, but only the final survivors of
        the limit/minimum-score cut pay the reference DP that materialises a
        full :class:`SimilarityResult` (see :meth:`_materialize`).
        """
        confirmed: List[Tuple[str, float]] = []
        materialized: Dict[str, SimilarityResult] = {}
        for image_id in candidates:
            cached = self.score_cache.get(cache_key, image_id) if query.use_cache else None
            if cached is not None:
                materialized[image_id] = cached
                score = cached.score
                trace.cache_hits += 1
            else:
                record = self.database.get(image_id)
                score = self._kernel_score(query_bestring, record.bestring, query)
                trace.cache_misses += 1
            trace.candidates[image_id] = CandidateTrace(
                image_id=image_id,
                stage=stage,
                cache_hit=(cached is not None) if query.use_cache else None,
            )
            confirmed.append((image_id, score))
        trace.candidates_examined = len(confirmed)
        return self._materialize(query, query_bestring, cache_key, confirmed, materialized)

    def _score_anytime(
        self,
        query: Query,
        trace: QueryTrace,
        query_bestring: BEString2D,
        cache_key: QueryKey,
        candidates: List[str],
        stage: str,
        bounds: Dict[str, float],
        kernel: str,
    ) -> List[Tuple[str, SimilarityResult]]:
        """Branch-and-bound top-k: descending-bound order, early termination.

        Candidates are visited in ``(-bound, image_id)`` order and the final
        ranking sorts by ``(-score, image_id)``.  Since ``score <= bound``, a
        candidate's ranking key can never sort before its bound key — so the
        moment the k-th best *confirmed* ranking key sorts at-or-before the
        next candidate's bound key, no unvisited candidate can enter the
        top-k or change its internal order, and the scan stops.  Ties are
        safe because both keys carry the (distinct) image id.  Confirmed
        scores below ``minimum_score`` never occupy one of the k slots.
        """
        minimum_score = query.minimum_score
        limit = query.limit
        order = sorted(candidates, key=lambda image_id: (-bounds[image_id], image_id))
        confirmed_keys: List[Tuple[float, str]] = []
        confirmed: List[Tuple[str, float]] = []
        materialized: Dict[str, SimilarityResult] = {}
        examined = 0
        for position, image_id in enumerate(order):
            bound = bounds[image_id]
            if limit is not None and len(confirmed_keys) >= limit:
                if limit == 0 or (-bound, image_id) >= confirmed_keys[limit - 1]:
                    trace.bound_cutoff = bound
                    self._record_bound_skips(trace, order[position:], bounds)
                    break
            cached = self.score_cache.get(cache_key, image_id) if query.use_cache else None
            if cached is not None:
                materialized[image_id] = cached
                score = cached.score
                trace.cache_hits += 1
            else:
                record = self.database.get(image_id)
                if kernel == KERNEL_BITPARALLEL:
                    score = self._kernel_score(query_bestring, record.bestring, query)
                else:
                    result = self._score(query_bestring, record.bestring, query)
                    materialized[image_id] = result
                    if query.use_cache:
                        self.score_cache.put(cache_key, image_id, result)
                    score = result.score
                trace.cache_misses += 1
            trace.candidates[image_id] = CandidateTrace(
                image_id=image_id,
                stage=stage,
                cache_hit=(cached is not None) if query.use_cache else None,
            )
            examined += 1
            confirmed.append((image_id, score))
            if score >= minimum_score:
                insort(confirmed_keys, (-score, image_id))
        trace.candidates_examined = examined
        trace.bound_skipped = len(order) - examined
        return self._materialize(query, query_bestring, cache_key, confirmed, materialized)

    def _record_bound_skips(
        self, trace: QueryTrace, skipped: List[str], bounds: Dict[str, float]
    ) -> None:
        """Sample bound-skipped candidates into the trace for ``explain``."""
        for image_id in skipped[:REJECTION_SAMPLE_LIMIT]:
            trace.candidates[image_id] = CandidateTrace(
                image_id=image_id,
                stage=STAGE_BOUND_SKIPPED,
                score_bound=bounds[image_id],
            )

    def _materialize(
        self,
        query: Query,
        query_bestring: BEString2D,
        cache_key: QueryKey,
        confirmed: List[Tuple[str, float]],
        materialized: Dict[str, SimilarityResult],
    ) -> List[Tuple[str, SimilarityResult]]:
        """Full :class:`SimilarityResult` pairs for the ranking's survivors.

        ``confirmed`` holds length-only ``(image_id, score)`` pairs.  Only
        the survivors of the query's minimum-score/limit cut are materialised
        with the reference evaluation — the kernel's floats are bit-identical
        to ``SimilarityResult.score``, so selecting survivors here yields the
        same set and order :func:`~repro.index.ranking.rank_results` would
        pick from full results.  Freshly materialised results are written to
        the score cache exactly like exhaustively-computed ones.
        """
        survivors = [
            (image_id, score)
            for image_id, score in confirmed
            if score >= query.minimum_score
        ]
        survivors.sort(key=lambda pair: (-pair[1], pair[0]))
        if query.limit is not None:
            survivors = survivors[: query.limit]
        scored: List[Tuple[str, SimilarityResult]] = []
        for image_id, _ in survivors:
            result = materialized.get(image_id)
            if result is None:
                record = self.database.get(image_id)
                result = self._score(query_bestring, record.bestring, query)
                if query.use_cache:
                    self.score_cache.put(cache_key, image_id, result)
            scored.append((image_id, result))
        return scored

    def execute(self, query: Query) -> List[RankedResult]:
        """Run a query and return ranked results.

        The serial path shares the batch subsystem's score cache: repeated
        identical queries (same picture content, policy and transformation
        set) are answered from memoised similarity results instead of
        re-running the LCS evaluation, with rankings guaranteed identical.

        Returns:
            :class:`~repro.index.ranking.RankedResult` entries sorted by
            descending score (ties broken by image id), already cut to the
            query's limit and minimum score.
        """
        return self.execute_traced(query)[0]

    def execute_traced(self, query: Query) -> Tuple[List[RankedResult], QueryTrace]:
        """Like :meth:`execute` but also returns the execution trace."""
        trace = QueryTrace(mode="similarity")
        with self.lock.read_locked():
            scored = self._score_candidates(query, trace)
        ranked = rank_results(scored, limit=query.limit, minimum_score=query.minimum_score)
        return ranked, trace

    # ------------------------------------------------------------------
    # Declarative spec execution (the unified pipeline)
    # ------------------------------------------------------------------
    def execute_spec(self, spec: QuerySpec) -> SpecOutcome:
        """Run a declarative :class:`~repro.index.spec.QuerySpec`.

        Dispatches on the clauses present: similarity-only specs run the
        cache-aware scoring loop, predicate-only specs are pruned through the
        inverted index (images that cannot satisfy any predicate are
        synthesised as zero matches without evaluation), and combined specs
        keep only similarity results whose image satisfies **every**
        predicate.

        Returns:
            A :class:`~repro.index.spec.SpecOutcome` holding the final
            ranking, the execution trace, and (in combined mode) the
            per-image predicate evaluations.

        Raises:
            repro.index.spec.QuerySpecError: on a malformed spec.
        """
        spec.validate()
        execution = self.execution.overlaid(spec.execution).resolved()
        if execution.executor == EXECUTOR_SHARD_PROCESS:
            # Scatter-gather: the read grant freezes the snapshot the
            # workers' slices were built from (mutations invalidate the
            # pool under the write lock, so a pool obtained here is
            # guaranteed to mirror the current in-memory database).
            with self.lock.read_locked():
                return self._execute_sharded(spec, execution)
        # One shared grant spans the whole spec (similarity scoring plus any
        # predicate evaluation): concurrent mutations cannot interleave
        # between the clauses, so the outcome always reflects one snapshot.
        with self.lock.read_locked():
            if not spec.has_similarity_clause:
                return self._execute_predicate_spec(spec)
            if not spec.has_predicate_clause:
                ranked, trace = self.execute_traced(spec.to_query())
                return SpecOutcome(spec=spec, results=ranked, trace=trace)
            if spec.has_graded_predicates:
                return self._execute_graded_combined_spec(spec)
            return self._execute_combined_spec(spec)

    def _evaluate_predicates(
        self,
        spec: QuerySpec,
        trace: QueryTrace,
        restrict_to: Optional[List[str]] = None,
    ) -> Dict[str, "PredicateMatch"]:
        """Evaluate the predicate clause over the database, with label pruning.

        An image can only satisfy a predicate when it contains both the
        subject and the target label, so the inverted index narrows the
        expensive boundary-rank evaluation to images where at least one
        predicate has both labels present.  Every other stored image is known
        to satisfy nothing and gets a synthesised zero match -- identical to
        what full evaluation would return, at postings-lookup cost.

        ``restrict_to`` (combined mode) limits evaluation to the similarity
        candidates instead of the whole database.
        """
        from repro.retrieval.predicates import PredicateMatch, evaluate_predicates

        predicates = list(spec.predicates)
        evaluable: set = set()
        for predicate in predicates:
            subjects = self.inverted_index.images_with_label(predicate.subject)
            if not subjects:
                continue
            targets = self.inverted_index.images_with_label(predicate.target)
            evaluable.update(subjects & targets)
        trace.database_size = len(self.database)
        universe = self.database.image_ids if restrict_to is None else restrict_to
        matches: Dict[str, PredicateMatch] = {}
        for image_id in universe:
            if image_id in evaluable:
                record = self.database.get(image_id)
                matches[image_id] = evaluate_predicates(
                    record.bestring, predicates, image_id=image_id
                )
                trace.predicate_evaluated += 1
                stage = STAGE_PREDICATE_EVALUATED
            else:
                matches[image_id] = PredicateMatch(
                    image_id=image_id, satisfied=(), unsatisfied=tuple(predicates)
                )
                trace.predicate_pruned += 1
                stage = STAGE_PREDICATE_PRUNED
            existing = trace.candidates.get(image_id)
            if existing is None:
                trace.candidates[image_id] = CandidateTrace(image_id=image_id, stage=stage)
        self.predicate_counters.record(
            evaluated=trace.predicate_evaluated,
            pruned=trace.predicate_pruned,
            graded=False,
        )
        return matches

    def _evaluate_tree(
        self,
        spec: QuerySpec,
        trace: QueryTrace,
        restrict_to: Optional[List[str]] = None,
    ) -> Dict[str, "GradedMatch"]:
        """Evaluate the graded predicate tree, pruning by the label bound.

        The tree counterpart of :meth:`_evaluate_predicates`: for each image
        the sound degree upper bound derived from the inverted index's label
        postings (:func:`repro.index.shortlist.tree_degree_bound`) is checked
        first.  A bound of 0 proves every leaf degree is exactly 0 (crisp
        leaves over absent labels, no fail-open ``not``/``fuzzy`` on the
        path), so the image is settled with a synthesised zero match at
        postings-lookup cost — byte-identical to full evaluation.
        """
        from repro.index.shortlist import tree_degree_bound
        from repro.retrieval.predicates import evaluate_tree, zero_graded_match

        tree = spec.predicate_tree
        postings: Dict[str, Set[str]] = {}
        for leaf in tree.leaves():
            for label in (leaf.predicate.subject, leaf.predicate.target):
                if label not in postings:
                    postings[label] = self.inverted_index.images_with_label(label)
        trace.database_size = len(self.database)
        universe = self.database.image_ids if restrict_to is None else restrict_to
        matches: Dict[str, GradedMatch] = {}
        evaluated = pruned = 0
        for image_id in universe:
            bound = tree_degree_bound(
                tree, lambda label, _id=image_id: _id in postings[label]
            )
            if bound <= 0.0:
                matches[image_id] = zero_graded_match(tree, image_id)
                pruned += 1
                stage = STAGE_PREDICATE_PRUNED
            else:
                record = self.database.get(image_id)
                matches[image_id] = evaluate_tree(
                    record.bestring, tree, image_id=image_id
                )
                evaluated += 1
                stage = STAGE_PREDICATE_EVALUATED
            if image_id not in trace.candidates:
                trace.candidates[image_id] = CandidateTrace(image_id=image_id, stage=stage)
        trace.predicate_evaluated += evaluated
        trace.predicate_pruned += pruned
        self.predicate_counters.record(evaluated=evaluated, pruned=pruned, graded=True)
        return matches

    def _execute_predicate_spec(self, spec: QuerySpec) -> SpecOutcome:
        """Predicate-only execution: rank by satisfaction (fraction or degree).

        Crisp specs rank by the historical fraction-of-predicates-satisfied
        score; graded trees rank by the tree's satisfaction degree.  Both use
        the same ``(-score, image_id)`` order and minimum-score/limit cut.
        """
        trace = QueryTrace(mode="predicate")
        if spec.has_graded_predicates:
            matches = self._evaluate_tree(spec, trace)
        else:
            matches = self._evaluate_predicates(spec, trace)
        ranked = [
            match for match in matches.values() if match.score >= spec.minimum_score
        ]
        ranked.sort(key=lambda match: (-match.score, match.image_id))
        if spec.limit is not None:
            ranked = ranked[: spec.limit]
        return SpecOutcome(spec=spec, results=ranked, trace=trace, predicate_matches=matches)

    def _execute_combined_spec(self, spec: QuerySpec) -> SpecOutcome:
        """Similarity ranking post-filtered to full predicate matches."""
        trace = QueryTrace(mode="combined")
        query = spec.to_query()
        execution = self.resolve_execution(query)
        if execution.is_default_scoring:
            # The historical order — score everything, then filter — kept
            # verbatim for the default execution.
            scored = self._score_candidates(query, trace)
            matches = self._evaluate_predicates(
                spec, trace, restrict_to=[image_id for image_id, _ in scored]
            )
            surviving = [
                (image_id, result)
                for image_id, result in scored
                if matches[image_id].is_full_match
            ]
            ranked = rank_results(
                surviving, limit=spec.limit, minimum_score=spec.minimum_score
            )
            return SpecOutcome(
                spec=spec, results=ranked, trace=trace, predicate_matches=matches
            )
        # Non-default execution: evaluate the predicates over the shortlist
        # *first*, so the anytime bound cut-off (and the kernel's deferred
        # materialisation) see only images that can appear in the ranking.
        # Same candidate universe, same full-match filter, same final cut —
        # the ranking is identical to the historical order.
        query_bestring = encode_picture(query.picture)
        outcome = self._shortlist(
            query,
            query_bestring,
            collect_bounds=execution.strategy == STRATEGY_ANYTIME,
        )
        matches = self._evaluate_predicates(spec, trace, restrict_to=outcome.candidates)
        allowed = {
            image_id for image_id, match in matches.items() if match.is_full_match
        }
        scored = self._score_candidates(
            query, trace, allowed=allowed, prepared=(query_bestring, outcome)
        )
        ranked = rank_results(scored, limit=spec.limit, minimum_score=spec.minimum_score)
        return SpecOutcome(spec=spec, results=ranked, trace=trace, predicate_matches=matches)

    # ------------------------------------------------------------------
    # Graded predicate composition with the similarity score
    # ------------------------------------------------------------------
    @staticmethod
    def _compose(spec: QuerySpec, similarity_score: float, degree: float) -> float:
        """The spec's composition of a similarity score and a tree degree."""
        if spec.predicate_composition == "sum":
            blend = spec.predicate_blend
            return blend * similarity_score + (1.0 - blend) * degree
        return similarity_score * degree

    def _execute_graded_combined_spec(self, spec: QuerySpec) -> SpecOutcome:
        """Similarity composed with the graded predicate degree.

        The composed score — ``similarity * degree`` (product) or
        ``blend * similarity + (1 - blend) * degree`` (sum) — decides the
        minimum-score and limit cuts, so the similarity side runs uncut: the
        shortlist must not reject on the raw similarity bound (the ``sum``
        composition can rank a low-similarity image above a high-similarity
        one) and the ranking cut is applied to composed scores at the end.
        Every shortlist survivor's tree degree is evaluated *before* scoring
        (tree degrees cost boundary-rank lookups, the LCS evaluation costs a
        dynamic program), which also lets the anytime strategy order and
        terminate on composed bounds: ``compose`` is monotone in the
        similarity for a fixed degree, so ``compose(sim_bound, degree)``
        soundly bounds the composed score.
        """
        trace = QueryTrace(mode="combined")
        query = replace(spec.to_query(), minimum_score=0.0, limit=None)
        execution = self.resolve_execution(query)
        kernel = self._kernel_for(execution, query.policy)
        query_bestring = encode_picture(query.picture)
        outcome = self._shortlist(
            query,
            query_bestring,
            collect_bounds=execution.strategy == STRATEGY_ANYTIME,
        )
        matches = self._evaluate_tree(spec, trace, restrict_to=outcome.candidates)
        cache_key = query_score_key(query_bestring, query.policy, query.transformations)
        candidates, stage = outcome.candidates, outcome.stage
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
        anytime = execution.strategy == STRATEGY_ANYTIME and outcome.bounds is not None
        trace.strategy = STRATEGY_ANYTIME if anytime else STRATEGY_EXHAUSTIVE
        if anytime:
            entries, materialized = self._score_graded_anytime(
                spec, query, trace, query_bestring, cache_key, candidates, stage,
                outcome.bounds, matches, kernel,
            )
        else:
            entries, materialized = self._score_graded_exhaustive(
                spec, query, trace, query_bestring, cache_key, candidates, stage,
                matches, kernel,
            )
        self.execution_counters.record(
            admitted=len(candidates),
            examined=trace.candidates_examined,
            anytime=anytime,
        )
        results = self._rank_graded(
            spec, query, query_bestring, cache_key, entries, materialized
        )
        return SpecOutcome(spec=spec, results=results, trace=trace, predicate_matches=matches)

    def _score_graded_exhaustive(
        self,
        spec: QuerySpec,
        query: Query,
        trace: QueryTrace,
        query_bestring: BEString2D,
        cache_key: QueryKey,
        candidates: List[str],
        stage: str,
        matches: Dict[str, "GradedMatch"],
        kernel: str,
    ) -> Tuple[List[Tuple[str, float]], Dict[str, SimilarityResult]]:
        """Confirm every candidate's composed score (both kernels).

        Returns ``(image_id, composed_score)`` pairs plus the full
        :class:`SimilarityResult` objects materialised along the way (all of
        them for the reference kernel; with the bit-parallel kernel only the
        final survivors are materialised later by :meth:`_rank_graded`).
        """
        entries: List[Tuple[str, float]] = []
        materialized: Dict[str, SimilarityResult] = {}
        for image_id in candidates:
            cached = self.score_cache.get(cache_key, image_id) if query.use_cache else None
            if cached is not None:
                materialized[image_id] = cached
                score = cached.score
                trace.cache_hits += 1
            else:
                record = self.database.get(image_id)
                if kernel == KERNEL_BITPARALLEL:
                    score = self._kernel_score(query_bestring, record.bestring, query)
                else:
                    result = self._score(query_bestring, record.bestring, query)
                    materialized[image_id] = result
                    if query.use_cache:
                        self.score_cache.put(cache_key, image_id, result)
                    score = result.score
                trace.cache_misses += 1
            trace.candidates[image_id] = CandidateTrace(
                image_id=image_id,
                stage=stage,
                cache_hit=(cached is not None) if query.use_cache else None,
            )
            entries.append((image_id, self._compose(spec, score, matches[image_id].degree)))
        trace.candidates_examined = len(entries)
        return entries, materialized

    def _score_graded_anytime(
        self,
        spec: QuerySpec,
        query: Query,
        trace: QueryTrace,
        query_bestring: BEString2D,
        cache_key: QueryKey,
        candidates: List[str],
        stage: str,
        bounds: Dict[str, float],
        matches: Dict[str, "GradedMatch"],
        kernel: str,
    ) -> Tuple[List[Tuple[str, float]], Dict[str, SimilarityResult]]:
        """Branch-and-bound over *composed* bounds (the graded analogue of
        :meth:`_score_anytime`).

        Each candidate's exact tree degree is already known, so
        ``compose(similarity_bound, degree)`` dominates its composed score
        (``compose`` is monotone in the similarity argument for both
        compositions).  The visit order, termination test and tie-break
        safety argument are exactly those of :meth:`_score_anytime`, with
        composed scores and composed bounds in place of raw similarity.
        """
        minimum_score = spec.minimum_score
        limit = spec.limit
        composed_bounds = {
            image_id: self._compose(spec, bounds[image_id], matches[image_id].degree)
            for image_id in candidates
        }
        order = sorted(candidates, key=lambda image_id: (-composed_bounds[image_id], image_id))
        confirmed_keys: List[Tuple[float, str]] = []
        entries: List[Tuple[str, float]] = []
        materialized: Dict[str, SimilarityResult] = {}
        examined = 0
        for position, image_id in enumerate(order):
            bound = composed_bounds[image_id]
            if limit is not None and len(confirmed_keys) >= limit:
                if limit == 0 or (-bound, image_id) >= confirmed_keys[limit - 1]:
                    trace.bound_cutoff = bound
                    self._record_bound_skips(trace, order[position:], composed_bounds)
                    break
            cached = self.score_cache.get(cache_key, image_id) if query.use_cache else None
            if cached is not None:
                materialized[image_id] = cached
                score = cached.score
                trace.cache_hits += 1
            else:
                record = self.database.get(image_id)
                if kernel == KERNEL_BITPARALLEL:
                    score = self._kernel_score(query_bestring, record.bestring, query)
                else:
                    result = self._score(query_bestring, record.bestring, query)
                    materialized[image_id] = result
                    if query.use_cache:
                        self.score_cache.put(cache_key, image_id, result)
                    score = result.score
                trace.cache_misses += 1
            trace.candidates[image_id] = CandidateTrace(
                image_id=image_id,
                stage=stage,
                cache_hit=(cached is not None) if query.use_cache else None,
            )
            examined += 1
            composed = self._compose(spec, score, matches[image_id].degree)
            entries.append((image_id, composed))
            if composed >= minimum_score:
                insort(confirmed_keys, (-composed, image_id))
        trace.candidates_examined = examined
        trace.bound_skipped = len(order) - examined
        return entries, materialized

    def _rank_graded(
        self,
        spec: QuerySpec,
        query: Query,
        query_bestring: BEString2D,
        cache_key: QueryKey,
        entries: List[Tuple[str, float]],
        materialized: Dict[str, SimilarityResult],
    ) -> List[RankedResult]:
        """Final composed ranking; materialise survivors lacking a full result.

        ``RankedResult.score`` carries the *composed* score (the ranking and
        merge key everywhere downstream, including the shard-worker gather);
        ``RankedResult.similarity`` keeps the full LCS evaluation for
        ``explain`` output.
        """
        survivors = [
            (image_id, composed)
            for image_id, composed in entries
            if composed >= spec.minimum_score
        ]
        survivors.sort(key=lambda pair: (-pair[1], pair[0]))
        if spec.limit is not None:
            survivors = survivors[: spec.limit]
        results: List[RankedResult] = []
        for rank, (image_id, composed) in enumerate(survivors, start=1):
            result = materialized.get(image_id)
            if result is None:
                record = self.database.get(image_id)
                result = self._score(query_bestring, record.bestring, query)
                if query.use_cache:
                    self.score_cache.put(cache_key, image_id, result)
            results.append(
                RankedResult(
                    rank=rank, image_id=image_id, score=composed, similarity=result
                )
            )
        return results

    # ------------------------------------------------------------------
    # Scatter-gather execution over the shard-worker pool
    # ------------------------------------------------------------------
    def _execute_sharded(self, spec: QuerySpec, execution: ExecutionOptions) -> SpecOutcome:
        """Scatter ``spec`` across the shard workers and fold the gather.

        Callers hold a read grant: the pool (invalidated under the write
        lock on every mutation) is therefore guaranteed to mirror the
        snapshot this grant observes.
        """
        pool = self._shard_pool_for(execution)
        return self._fold_gather(spec, pool.execute_spec(spec))

    def _fold_gather(self, spec: QuerySpec, gathered: "GatherOutcome") -> SpecOutcome:
        """Turn one merged gather into a :class:`SpecOutcome`, folding the
        workers' execution/shortlist deltas into this engine's counters so
        ``explain()`` and the service ``/stats`` stay truthful under
        ``executor="shard_process"``."""
        if gathered.execution["queries"]:
            self.execution_counters.record(
                admitted=gathered.execution["admitted"],
                examined=gathered.execution["examined"],
                anytime=bool(gathered.execution["anytime_queries"]),
            )
        if gathered.shortlist["queries"]:
            self.shortlist_counters.absorb(
                admitted=gathered.shortlist["admitted"],
                bitmap_rejected=gathered.shortlist["bitmap_rejected"],
                relation_rejected=gathered.shortlist["relation_rejected"],
            )
        if gathered.predicates["queries"]:
            # One user-visible query regardless of fan-out: worker-side
            # per-image work is summed, the query count is not.
            self.predicate_counters.absorb(
                queries=1,
                graded_queries=1 if gathered.predicates["graded_queries"] else 0,
                evaluated=gathered.predicates["evaluated"],
                pruned=gathered.predicates["pruned"],
            )
        return SpecOutcome(
            spec=spec,
            results=gathered.results,
            trace=gathered.trace,
            predicate_matches=gathered.predicate_matches,
        )

    def _shard_pool_for(self, execution: ExecutionOptions) -> "ShardWorkerPool":
        """The live shard-worker pool, (re)built lazily for ``execution``.

        The pool is reused across queries while the requested worker count
        is stable; asking for a different count tears the old pool down and
        forks a fresh one.  Workers warm-start from the records they
        inherit through the fork.
        """
        from repro.index.workers import ShardWorkerPool, sanitized_execution

        workers = execution.workers or 1
        stale: Optional["ShardWorkerPool"] = None
        with self._shard_pool_guard:
            pool = self._shard_pool
            if pool is not None and pool.worker_count != workers:
                stale, pool = pool, None
                self._shard_pool = None
            if pool is None:
                pool = ShardWorkerPool(
                    workers,
                    self.database,
                    execution=sanitized_execution(self.execution),
                    minimum_overlap_ratio=self.signature_filter.minimum_overlap_ratio,
                )
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
        queries: Sequence[Query],
        options: Optional["BatchOptions"] = None,
        **overrides,
    ) -> List[List[RankedResult]]:
        """Run many queries as one batch (see :mod:`repro.index.batch`).

        Shared encoding/shortlist work is deduplicated, per-(query, image)
        scores are memoised in :attr:`score_cache`, and cache misses are
        evaluated on a worker pool.  Results are identical -- including
        tie-break ordering -- to calling :meth:`execute` per query.  Keyword
        overrides (``workers=8``, ``executor="process"``, ...) are applied on
        top of ``options``.
        """
        from repro.index.batch import BatchOptions, BatchQueryEngine

        base = options or BatchOptions()
        if overrides:
            base = replace(base, **overrides)
        if base.executor == EXECUTOR_SHARD_PROCESS:
            return self._run_batch_sharded(queries, base)
        batch = BatchQueryEngine(engine=self, options=base)
        # The scheduling thread holds one shared grant for the whole batch;
        # worker threads only touch BE-strings prefetched under it (plus the
        # internally-locked score cache), so the batch ranks one snapshot.
        with self.lock.read_locked():
            results = batch.run(queries)
        self.last_batch_report = batch.last_report
        return results

    def _run_batch_sharded(
        self, queries: Sequence[Query], options: "BatchOptions"
    ) -> List[List[RankedResult]]:
        """Pipeline a whole batch through the shard-worker pool.

        Identical queries are deduplicated before the scatter (mirroring the
        thread-pool batch engine), every unique spec rides one pipelined
        scatter-gather, and a :class:`~repro.index.batch.BatchReport` is
        synthesised from the merged traces so ``last_batch_report`` keeps
        its contract.
        """
        from repro.index.batch import BatchReport

        specs = [
            QuerySpec(
                picture=query.picture,
                transformations=query.transformations,
                limit=query.limit,
                minimum_score=query.minimum_score,
                minimum_shared_labels=query.minimum_shared_labels,
                use_filters=query.use_filters,
                use_cache=query.use_cache,
                policy=query.policy,
                execution=query.execution,
            )
            for query in queries
        ]
        # Dedup identical queries so each unique spec is scattered once.
        # Falls back to no dedup if a picture ever turns unhashable.
        positions: List[int] = []
        unique_specs: List[QuerySpec] = []
        try:
            seen: Dict[Query, int] = {}
            for query, spec in zip(queries, specs):
                index = seen.get(query)
                if index is None:
                    index = seen[query] = len(unique_specs)
                    unique_specs.append(spec)
                positions.append(index)
        except TypeError:
            positions = list(range(len(specs)))
            unique_specs = specs
        execution = self.execution.overlaid(
            ExecutionOptions(executor=options.executor, workers=options.workers)
        ).resolved()
        with self.lock.read_locked():
            pool = self._shard_pool_for(execution)
            gathered = pool.execute_many(unique_specs) if unique_specs else []
        for spec, outcome in zip(unique_specs, gathered):
            self._fold_gather(spec, outcome)
        traces = [outcome.trace for outcome in gathered]
        self.last_batch_report = BatchReport(
            total_queries=len(queries),
            unique_evaluations=len(unique_specs),
            candidates_considered=sum(trace.shortlisted for trace in traces),
            scored=sum(trace.candidates_examined for trace in traces),
            cache_hits=sum(trace.cache_hits for trace in traces),
            chunks=1 if unique_specs else 0,
            executor=EXECUTOR_SHARD_PROCESS,
            workers=pool.worker_count if unique_specs else (execution.workers or 1),
            shortlist_bitmap_pruned=sum(trace.bitmap_pruned for trace in traces),
            shortlist_relation_pruned=sum(trace.relation_pruned for trace in traces),
        )
        return [gathered[index].results for index in positions]

    def search(
        self,
        picture: SymbolicPicture,
        limit: Optional[int] = 10,
        policy: SimilarityPolicy = DEFAULT_POLICY,
        invariant: bool = False,
    ) -> List[RankedResult]:
        """Convenience wrapper around :meth:`execute` for the common case."""
        transformations = tuple(Transformation) if invariant else (Transformation.IDENTITY,)
        query = Query(
            picture=picture,
            policy=policy,
            transformations=transformations,
            limit=limit,
        )
        return self.execute(query)
