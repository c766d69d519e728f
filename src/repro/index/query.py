"""The query engine: the unified retrieval pipeline over an image database.

The engine ties the pieces together the way the paper's demonstration system
does: the query picture is encoded once, candidate images are shortlisted by
the inverted index and the two-stage signature shortlist
(:mod:`repro.index.shortlist` — hashed label bitmaps, then relation-pair
score bounds against the query's ``minimum_score``), the survivors are
scored with the modified-LCS similarity (optionally over all
rotations/reflections of the query), and the results are returned ranked.

Every similarity clause, alone or combined with relation predicates, runs
through one candidate loop (:meth:`QueryEngine._rank`): it reads the shared
:class:`~repro.index.cache.ScoreCache` before doing any other work, visits
candidates best bound first and, under the default anytime strategy, stops
at the threshold, and materialises full results only for the ranking's
survivors.  A batch (:mod:`repro.index.batch`) runs each of its unique
queries through the same loop and the same cache, so an identical repeated
query -- serial or batched -- never pays the LCS evaluation twice.
:meth:`QueryEngine.execute_spec` runs a full declarative
:class:`~repro.index.spec.QuerySpec`, recording a
:class:`~repro.index.spec.QueryTrace` of shortlist admissions and cache hits
for ``explain`` output.
"""

from __future__ import annotations

import threading
from bisect import insort
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

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
from repro.index.cache import CacheEntry, ScoreBound, ScoreCache, query_score_key
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
    from repro.index.workers import GatherOutcome, ShardWorkerPool
    from repro.retrieval.predicates import GradedMatch, PredicateMatch

    #: One image's evaluation of a predicate clause: crisp or graded.
    Match = Union[PredicateMatch, GradedMatch]


def _entry_value(entry: CacheEntry) -> float:
    """The score a score-cache entry confirms, or the bound it records."""
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
    #: (which they overwrite on construction, keeping every legacy reader
    #: consistent).
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
    #: The shortlist admits an image only when the query's label multiset
    #: overlaps the image's by at least this fraction of the query's labels.
    minimum_overlap_ratio: float = 0.0
    inverted_index: InvertedSymbolIndex = field(default_factory=InvertedSymbolIndex)
    #: Memoised per-(query, image) scores, bounds and survivors' full
    #: results, shared by every query and batch and invalidated on every
    #: mutation.
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
            minimum_overlap_ratio=minimum_overlap_ratio,
            execution=execution if execution is not None else ExecutionOptions(),
        )
        for record in database:
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

    def shortlist(self, query: Query) -> ShortlistOutcome:
        """Run the two-stage shortlist for ``query`` under a shared grant.

        The inverted index admits images sharing at least
        ``query.minimum_shared_labels`` icon labels with the query; the
        two-stage signature shortlist (:mod:`repro.index.shortlist`) then
        rejects candidates whose score upper bound cannot clear
        ``query.minimum_score`` — stage 1 from the hashed label bitmaps,
        stage 2 from the relation-pair signatures.  With the shortlist off
        (``query.use_filters`` or the resolved ``shortlist`` option) or a
        label-less query, every stored image is a candidate.

        Returns:
            The full :class:`~repro.index.shortlist.ShortlistOutcome`,
            including per-stage rejection counts and a sampled rejection map
            for ``explain`` output.
        """
        with self.lock.read_locked():
            return self._shortlist(query, self.resolve_execution(query))

    def _shortlist(
        self,
        query: Query,
        execution: ExecutionOptions,
        query_bestring: Optional[BEString2D] = None,
    ) -> ShortlistOutcome:
        """Shortlist implementation (callers hold the shared grant).

        ``execution`` is the query's resolved options.  A minimum-score cut
        computes the stage-2 bound of every candidate it admits; those land
        in :attr:`ShortlistOutcome.bounds`, so the candidate loop never
        bounds one twice.
        """
        if not (query.use_filters and execution.shortlist):
            return ShortlistOutcome(self.database.image_ids, STAGE_FULL_SCAN)
        labels = set(query.picture.labels)
        if not labels:
            return ShortlistOutcome(self.database.image_ids, STAGE_FULL_SCAN)
        candidates = self.inverted_index.candidates(
            labels, minimum_shared=query.minimum_shared_labels
        )
        ordered = sorted(candidates)
        threshold = self.minimum_overlap_ratio
        minimum_score = query.minimum_score
        if threshold <= 0.0 and minimum_score <= 0.0:
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
            # a threshold-only pass (minimum_score == 0) skip building them.
            query.transformations if minimum_score > 0.0 else (Transformation.IDENTITY,),
        )
        total = query_signature.total_labels
        outcome = ShortlistOutcome([], STAGE_SHORTLIST, len(candidates))

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
            if minimum_score > 0.0:
                bound = query_signature.score_upper_bound(
                    candidate, overlap, query.policy, with_conflicts=True
                )
                if bound < minimum_score:
                    reject(image_id, STAGE_RELATION_PRUNED, bound)
                    continue
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

    def _bounds(
        self,
        query: Query,
        query_bestring: BEString2D,
        outcome: ShortlistOutcome,
        image_ids: Sequence[str],
    ) -> Dict[str, float]:
        """The stage-2 score bound of each of ``image_ids``.

        A bound the shortlist already computed for its minimum-score cut is
        reused; the others are computed against a query signature built only
        if one is needed.
        """
        bounds: Dict[str, float] = {}
        signature: Optional[QuerySignature] = None
        for image_id in image_ids:
            bound = outcome.bounds.get(image_id)
            if bound is None:
                if signature is None:
                    signature = QuerySignature(
                        query_bestring, query.picture.labels, query.transformations
                    )
                candidate = signature_for(self.database.get(image_id))
                bound = signature.score_upper_bound(
                    candidate,
                    signature.exact_overlap(candidate),
                    query.policy,
                    with_conflicts=True,
                )
            bounds[image_id] = bound
        return bounds

    def _rank(
        self, query: Query, trace: QueryTrace, spec: Optional[QuerySpec] = None
    ) -> Tuple[List[RankedResult], Optional[Dict[str, Match]]]:
        """The candidate loop every similarity clause runs through.

        Callers hold the shared grant.  ``spec`` carries the predicate clause
        that combines with the similarity of ``query``, if any:

        * without one, every shortlisted candidate has degree 1;
        * a crisp clause drops the candidates that are not a full match;
        * a graded tree is evaluated first, and its degree composes with the
          similarity (:meth:`~repro.index.spec.QuerySpec.compose`), so the
          composed score decides the minimum-score and limit cuts.

        The score cache is read before any other work.  An entry holds a full
        result, a confirmed score, or the stage-2 bound of a candidate an
        earlier run skipped; bounds are computed only for candidates with no
        entry.  The anytime strategy visits candidates in
        ``(-compose(bound, degree), image_id)`` order, a confirmed score
        being its own bound, and stops once the k-th confirmed key sorts at
        or before the next bound key.  Since ``score <= bound``, no unvisited
        candidate can then enter the top k or change its order, and both keys
        carry the distinct image id, so ties are safe.  This is the threshold
        test of Fagin, Lotem & Naor, "Optimal aggregation algorithms for
        middleware" (PODS 2001).  Scores below the minimum never take one of
        the k slots.  The exhaustive strategy is the same loop without the
        stop, and so is a full-scan pass, which has no signatures to bound
        with.

        Misses are scored by the resolved kernel.  Only the final survivors
        are materialised as full :class:`SimilarityResult` objects
        (``RankedResult.similarity`` and ``explain`` need them), and that
        result replaces the survivor's score entry.

        Returns:
            The ranking, and the per-image predicate matches of ``spec``
            (``None`` without a predicate clause).
        """
        limit, minimum_score = query.limit, query.minimum_score
        graded = spec is not None and spec.has_graded_predicates
        if graded:
            # The shortlist must not reject on the raw similarity bound: the
            # sum composition can rank a low-similarity image above a
            # high-similarity one.
            query = replace(query, minimum_score=0.0, limit=None)
        execution = self.resolve_execution(query)
        kernel = self._kernel_for(execution, query.policy)
        query_bestring = encode_picture(query.picture)
        outcome = self._shortlist(query, execution, query_bestring)
        candidates = outcome.candidates
        matches: Optional[Dict[str, Match]] = None
        if spec is not None:
            matches = self._evaluate_clause(spec, trace, restrict_to=candidates)
            if not graded:
                candidates = [
                    image_id for image_id in candidates if matches[image_id].is_full_match
                ]

        def composed(image_id: str, score: float) -> float:
            if not graded:
                return score
            return spec.compose(score, matches[image_id].degree)

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
        anytime = execution.strategy == STRATEGY_ANYTIME and outcome.stage != STAGE_FULL_SCAN
        trace.strategy = STRATEGY_ANYTIME if anytime else STRATEGY_EXHAUSTIVE

        cache_key = query_score_key(query_bestring, query.policy, query.transformations)
        use_cache = query.use_cache and execution.cache
        entries: Dict[str, CacheEntry] = {}
        if use_cache:
            for image_id in candidates:
                entry = self.score_cache.get(cache_key, image_id)
                if entry is not None:
                    entries[image_id] = entry
        bounds: Dict[str, float] = {}
        keys: Dict[str, float] = {}
        visit = candidates
        if anytime:
            bounds = self._bounds(
                query,
                query_bestring,
                outcome,
                [image_id for image_id in candidates if image_id not in entries],
            )
            for image_id in candidates:
                entry = entries.get(image_id)
                value = bounds[image_id] if entry is None else _entry_value(entry)
                keys[image_id] = -composed(image_id, value)
            visit = sorted(candidates, key=lambda image_id: (keys[image_id], image_id))

        # (-composed score, image id) of every confirmed candidate at or
        # above the minimum, kept sorted: the ranking order.
        ranked: List[Tuple[float, str]] = []
        confirmed: Dict[str, CacheEntry] = {}
        for image_id in visit:
            if anytime and limit is not None and len(ranked) >= limit:
                if limit == 0 or (keys[image_id], image_id) >= ranked[limit - 1]:
                    break
            entry = entries.get(image_id)
            hit = entry is not None and not isinstance(entry, ScoreBound)
            if hit:
                trace.cache_hits += 1
            else:
                bestring = self.database.get(image_id).bestring
                if kernel == KERNEL_BITPARALLEL:
                    entry = self._kernel_score(query_bestring, bestring, query)
                else:
                    entry = self._score(query_bestring, bestring, query)
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

        skipped = visit[len(confirmed):]
        if skipped:
            trace.bound_cutoff = -keys[skipped[0]]
            for image_id in skipped[:REJECTION_SAMPLE_LIMIT]:
                trace.candidates[image_id] = CandidateTrace(
                    image_id=image_id,
                    stage=STAGE_BOUND_SKIPPED,
                    score_bound=-keys[image_id],
                )
            if use_cache:
                for image_id in skipped:
                    if image_id not in entries:
                        self.score_cache.put(
                            cache_key, image_id, ScoreBound(bounds[image_id])
                        )
        trace.candidates_examined = len(confirmed)
        trace.bound_skipped = len(skipped)
        self.execution_counters.record(
            admitted=len(candidates), examined=len(confirmed), anytime=anytime
        )

        survivors = ranked if limit is None else ranked[:limit]
        scored: List[Tuple[str, SimilarityResult]] = []
        for _, image_id in survivors:
            result = confirmed[image_id]
            if not isinstance(result, SimilarityResult):
                bestring = self.database.get(image_id).bestring
                result = self._score(query_bestring, bestring, query)
                if use_cache:
                    self.score_cache.put(cache_key, image_id, result)
            scored.append((image_id, result))
        scores = {image_id: -key for key, image_id in survivors} if graded else None
        return rank_results(scored, limit, minimum_score, scores=scores), matches

    def execute(self, query: Query) -> List[RankedResult]:
        """Run a query and return ranked results.

        Every query and batch shares the engine's score cache: repeated
        identical queries (same picture content, policy and transformation
        set) are answered from memoised scores instead of re-running the LCS
        evaluation, with rankings guaranteed identical.

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
            ranked, _ = self._rank(query, trace)
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
            trace = QueryTrace(mode="combined")
            ranked, matches = self._rank(spec.to_query(), trace, spec)
            return SpecOutcome(
                spec=spec, results=ranked, trace=trace, predicate_matches=matches
            )

    def _evaluate_clause(
        self,
        spec: QuerySpec,
        trace: QueryTrace,
        restrict_to: Optional[List[str]] = None,
    ) -> Dict[str, Match]:
        """Evaluate the predicate clause over the database, with label pruning.

        An image that lacks the labels the clause needs is settled at
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

        trace.database_size = len(self.database)
        universe = self.database.image_ids if restrict_to is None else restrict_to
        matches: Dict[str, Match] = {}
        evaluated = 0
        for image_id in universe:
            if pruned(image_id):
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
        self.predicate_counters.record(
            evaluated=evaluated, pruned=len(matches) - evaluated, graded=tree is not None
        )
        return matches

    def _execute_predicate_spec(self, spec: QuerySpec) -> SpecOutcome:
        """Predicate-only execution: rank by satisfaction (fraction or degree).

        Crisp specs rank by the historical fraction-of-predicates-satisfied
        score; graded trees rank by the tree's satisfaction degree.  Both use
        the same ``(-score, image_id)`` order and minimum-score/limit cut.
        """
        trace = QueryTrace(mode="predicate")
        matches = self._evaluate_clause(spec, trace)
        ranked = [
            match for match in matches.values() if match.score >= spec.minimum_score
        ]
        ranked.sort(key=lambda match: (-match.score, match.image_id))
        if spec.limit is not None:
            ranked = ranked[: spec.limit]
        return SpecOutcome(spec=spec, results=ranked, trace=trace, predicate_matches=matches)

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
                    minimum_overlap_ratio=self.minimum_overlap_ratio,
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
        execution: Optional[ExecutionOptions] = None,
        **overrides,
    ) -> List[List[RankedResult]]:
        """Run many queries as one batch (see :mod:`repro.index.batch`).

        Identical queries are evaluated once, and every unique query runs
        the one candidate loop, so results are identical -- including
        tie-break ordering -- to calling :meth:`execute` per query.
        ``execution`` and the keyword overrides (``executor="shard_process"``,
        ``workers=2``, ``cache=False``) apply to the batch as a whole; see
        :class:`~repro.index.batch.BatchQueryEngine`.
        """
        from repro.index.batch import BatchQueryEngine

        batch = BatchQueryEngine(
            self, (execution or ExecutionOptions()).overlaid(ExecutionOptions(**overrides))
        )
        results = batch.run(queries)
        self.last_batch_report = batch.last_report
        return results

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
