"""The retrieval system facade (the paper's Section-5 demonstration, headless).

:class:`RetrievalSystem` wraps an :class:`~repro.index.database.ImageDatabase`
plus a :class:`~repro.index.query.QueryEngine` behind the handful of calls an
application actually needs: load pictures, compose queries, inspect a stored
image, and maintain it dynamically.  The examples and quality benchmarks are
written against this facade only, which is the "public API" promised in the
repository's README.

The query surface
-----------------

All retrieval goes through one fluent builder
(:class:`~repro.retrieval.querybuilder.QueryBuilder`)::

    results = (
        system.query()
        .similar_to(picture)         # similarity clause (optional .partial(...))
        .invariant()                 # rotations/reflections via string reversal
        .where("phone right-of monitor")  # relation-predicate clause
        .min_score(0.3)
        .limit(10)
        .execute()                   # -> ResultSet (page / explain / to_jsonl)
    )

Query *streams* go through :meth:`RetrievalSystem.query_batch`, which
evaluates identical queries once and runs each unique query through the same
candidate loop as a single query (or through the shard workers).  Serial and
batch execution share one LRU score cache (on the underlying
:class:`~repro.index.query.QueryEngine`; 65536 entries by default, invalidated
automatically whenever the database changes), so a repeated identical query is
answered from memoised similarity results on *every* path, with rankings
guaranteed identical -- including tie-break ordering.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Union

from repro.core.similarity import DEFAULT_POLICY, SimilarityPolicy
from repro.geometry.rectangle import Rectangle
from repro.iconic.ascii_art import render_ascii
from repro.iconic.picture import SymbolicPicture
from repro.index.backends import StorageBackend, load_database_from, save_database_to
from repro.index.batch import BatchReport
from repro.index.cache import CacheStatistics
from repro.index.database import ImageDatabase, ImageRecord, _collector_paused
from repro.index.execution import (
    ExecutionOptions,
    ExecutionStatistics,
    PredicateStatistics,
)
from repro.index.query import QueryEngine
from repro.index.shortlist import ShortlistStatistics
from repro.index.spec import QuerySpec, QuerySpecError
from repro.retrieval.querybuilder import QueryBuilder, ResultSet


@dataclass
class RetrievalSystem:
    """An image database with similarity retrieval over 2D BE-strings."""

    policy: SimilarityPolicy = DEFAULT_POLICY
    minimum_signature_overlap: float = 0.0
    #: Engine-wide execution defaults (kernel, strategy, executor, ...); every
    #: query inherits them unless overridden per query via
    #: ``query().execution(...)``.  See :mod:`repro.index.execution`.
    execution: Optional[ExecutionOptions] = None
    #: The records to index (:meth:`from_file` passes a loaded database);
    #: a new system starts empty.
    database: InitVar[Optional[ImageDatabase]] = None
    _engine: QueryEngine = field(init=False)

    def __post_init__(self, database: Optional[ImageDatabase]) -> None:
        self._engine = QueryEngine.build(
            database if database is not None else ImageDatabase(),
            minimum_overlap_ratio=self.minimum_signature_overlap,
            execution=self.execution,
        )

    def enable_concurrent_access(self) -> "RetrievalSystem":
        """Make this system safe for concurrent readers and writers.

        Installs a write-preferring readers-writer lock
        (:class:`repro.service.rwlock.ReadWriteLock`) on the underlying
        :class:`~repro.index.query.QueryEngine`: queries and batches take a
        shared grant and run fully in parallel against a consistent snapshot,
        while mutations (:meth:`add_picture`, :meth:`remove_picture`,
        :meth:`add_object`, :meth:`remove_object`) take the exclusive grant
        and refresh the database, both auxiliary indexes and the score cache
        atomically.  Single-threaded use keeps the default no-op lock and
        pays nothing.  Idempotent; the retrieval service calls this on every
        system it serves.

        Returns:
            This system (chainable).
        """
        from repro.service.rwlock import ReadWriteLock

        if not isinstance(self._engine.lock, ReadWriteLock):
            self._engine.lock = ReadWriteLock()
        return self

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_pictures(
        cls,
        pictures: Iterable[SymbolicPicture],
        policy: SimilarityPolicy = DEFAULT_POLICY,
        minimum_signature_overlap: float = 0.0,
        execution: Optional[ExecutionOptions] = None,
    ) -> "RetrievalSystem":
        """Build a system pre-loaded with a collection of pictures."""
        system = cls(
            policy=policy,
            minimum_signature_overlap=minimum_signature_overlap,
            execution=execution,
        )
        for picture in pictures:
            system.add_picture(picture)
        return system

    @classmethod
    def from_file(
        cls,
        path: Union[str, Path],
        policy: SimilarityPolicy = DEFAULT_POLICY,
        execution: Optional[ExecutionOptions] = None,
        durable: bool = False,
        minimum_signature_overlap: float = 0.0,
    ) -> "RetrievalSystem":
        """Load a system from a database written by :meth:`save`.

        The path fixes the format: a directory is a sharded database and a
        file a JSON one (see :mod:`repro.index.backends`).  ``execution``
        sets the engine-wide execution defaults (kernel, strategy, ...) every
        query inherits.
        ``durable=True`` requires a sharded directory (the only format with
        a write-ahead log); any acknowledged-but-uncompacted log records are
        replayed on top of the shard snapshot either way, so a durable
        directory always loads to its full acknowledged state.
        ``policy`` and ``minimum_signature_overlap`` configure the loaded
        system as they do a new one.

        Loading validates every image: its picture is encoded again and the
        stored BE-string must match.  The loaded records are then indexed in
        place by :meth:`QueryEngine.build`, which derives each shortlist
        signature from the validated BE-string; a signature stored by an
        older release is never trusted.  The load and the build run under
        one pause of the cyclic garbage collector.

        Returns:
            A system with every stored picture indexed and a clean dirty set
            (so a later ``save(..., incremental=True)`` rewrites nothing).

        Raises:
            repro.index.storage.StorageError: if the database is corrupt,
                truncated or a SQLite file; the message names the offending
                path.
            ValueError: if ``durable=True`` and the target is not sharded.
            FileNotFoundError: if ``path`` does not exist.
        """
        with _collector_paused():
            system = cls(
                policy=policy,
                minimum_signature_overlap=minimum_signature_overlap,
                execution=execution,
                database=load_database_from(path, durable=durable),
            )
        # Loading is not a mutation: the engine's database matches the file.
        system._engine.database.clear_dirty()
        return system

    def hot_swap(self, replacement: "RetrievalSystem") -> None:
        """Atomically replace this system's engine with ``replacement``'s.

        The zero-downtime reload primitive of the retrieval service: build a
        fresh system off to the side (e.g. re-loading the on-disk database),
        then swap its fully-indexed engine under *this* system's lock.  The
        existing lock object stays installed — in-flight readers holding a
        shared grant finish against the old engine, the swap itself takes
        the exclusive grant, and every later reader sees only the new
        engine.  No reader ever observes a mix of the two states.
        """
        lock = self._engine.lock
        replacement._engine.lock = lock
        with lock.write_locked():
            self._engine = replacement._engine

    # ------------------------------------------------------------------
    # Database maintenance
    # ------------------------------------------------------------------
    def add_picture(self, picture: SymbolicPicture, image_id: Optional[str] = None) -> str:
        """Store a picture (encoding its BE-string); returns its image id."""
        return self._engine.add_picture(picture, image_id)

    def remove_picture(self, image_id: str) -> None:
        """Remove a stored picture."""
        self._engine.remove_picture(image_id)

    def add_object(self, image_id: str, label: str, mbr: Rectangle) -> None:
        """Dynamically add one icon to a stored image (Section 3.2)."""
        self._engine.add_object(image_id, label, mbr)

    def remove_object(self, image_id: str, identifier: str) -> None:
        """Dynamically remove one icon from a stored image (Section 3.2)."""
        self._engine.remove_object(image_id, identifier)

    def save(
        self,
        path: Union[str, Path],
        backend: Union[None, str, StorageBackend] = None,
        *,
        incremental: bool = False,
        shard_count: Optional[int] = None,
        durable: bool = False,
    ) -> Path:
        """Persist the database.

        ``backend`` selects the storage format (``"json"``, ``"sharded"`` or
        a :class:`~repro.index.backends.StorageBackend` instance); by default
        it is inferred from the path.
        ``incremental=True`` lets the sharded backend rewrite only the
        shards touched since the last save or load;
        ``shard_count`` sizes a newly created sharded directory.
        ``durable=True`` writes a sharded directory with a write-ahead-log
        anchor (see ``docs/durability.md``), ready for ``repro serve --wal``.

        Returns:
            The path written.

        Raises:
            ValueError: on an unknown backend name, or ``durable=True`` with
                a non-sharded backend.
            repro.index.storage.StorageError: if the target exists in an
                incompatible format (a SQLite file is left untouched).
        """
        return save_database_to(
            self._engine.database,
            path,
            backend=backend,
            incremental=incremental,
            shard_count=shard_count,
            durable=durable,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._engine.database)

    @property
    def image_ids(self) -> List[str]:
        """Ids of all stored images, sorted."""
        return self._engine.database.image_ids

    def record(self, image_id: str) -> ImageRecord:
        """The stored record (picture + BE-string) of one image.

        Raises:
            repro.index.database.DatabaseError: if no image with
                ``image_id`` is stored.
        """
        return self._engine.database.get(image_id)

    def show(self, image_id: str, columns: int = 60, rows: int = 20) -> str:
        """ASCII rendering of a stored image (the headless 'visualisation')."""
        return render_ascii(self.record(image_id).picture, columns=columns, rows=rows)

    def statistics(self) -> dict:
        """Database-level statistics (image/object/symbol counts)."""
        return self._engine.database.statistics()

    # ------------------------------------------------------------------
    # The query surface
    # ------------------------------------------------------------------
    def query(self, picture: Optional[SymbolicPicture] = None) -> QueryBuilder:
        """Start composing a query with the fluent builder.

        ``picture`` optionally seeds the similarity clause (equivalent to
        calling ``.similar_to(picture)`` on the returned builder).

        Returns:
            A :class:`~repro.retrieval.querybuilder.QueryBuilder` bound to
            this system; call ``.execute()`` on it to get a
            :class:`~repro.retrieval.querybuilder.ResultSet`.
        """
        return QueryBuilder(self, picture=picture)

    def _bind(self, spec: QuerySpec) -> QuerySpec:
        """``spec``, validated, with this system's policy when it names none.

        Every entry point (builder, batch, a spec decoded from the wire)
        applies this one rule, so rankings do not depend on the entry point.
        """
        if spec.policy is None:
            spec = spec.with_overrides(policy=self.policy)
        spec.validate()
        return spec

    def execute(self, spec: QuerySpec) -> ResultSet:
        """Run one :class:`~repro.index.spec.QuerySpec` into a ``ResultSet``.

        :meth:`QueryBuilder.execute` and the service's ``/search`` call this;
        a spec without a policy inherits this system's.

        Raises:
            repro.index.spec.QuerySpecError: if the spec is malformed.
            KeyError: if ``identifiers`` name icons the picture lacks.
        """
        spec = self._bind(spec)
        outcome = self._engine.execute_spec(spec)
        return ResultSet(outcome.results, spec=spec, outcome=outcome)

    def query_batch(
        self,
        queries: Sequence[Union[QuerySpec, QueryBuilder]],
        execution: Optional[ExecutionOptions] = None,
        **overrides,
    ) -> List[ResultSet]:
        """Run many queries as one batch.

        Accepts :class:`~repro.index.spec.QuerySpec` values or prepared
        :class:`~repro.retrieval.querybuilder.QueryBuilder` instances; each
        keeps its own limit, score threshold, transformation set and
        execution options.  Identical queries are evaluated once, and every
        unique query runs the same cache-first candidate loop as a single query,
        so queries that share content share work through the score cache.
        ``execution`` (or the equivalent keyword overrides, such as
        ``executor="shard_process", workers=2`` or ``cache=False``) applies
        to the batch as a whole, overlaid on the engine's defaults:
        ``executor`` and ``workers`` choose between the serial loop and the
        shard-worker scatter, and ``cache=False`` turns the score cache off
        for every query.  Rankings are identical -- including tie-break
        ordering -- to executing each query serially.

        Returns:
            One :class:`~repro.retrieval.querybuilder.ResultSet` per input
            query, in input order.

        Raises:
            repro.index.spec.QuerySpecError: if a spec has a predicate
                clause (predicates are not batchable yet) or is malformed.
            ValueError: on an unknown executor or a non-positive worker
                count.
        """
        specs: List[QuerySpec] = []
        for item in queries:
            if isinstance(item, QueryBuilder):
                item = item.spec()
            if not isinstance(item, QuerySpec):
                raise TypeError(
                    "query_batch() accepts QuerySpec or QueryBuilder items, "
                    f"got {type(item).__name__}"
                )
            item = self._bind(item)
            if item.has_predicate_clause:
                raise QuerySpecError(
                    "predicate clauses are not supported in batches yet; "
                    "run where() queries serially via execute()"
                )
            specs.append(item)
        batches = self._engine.run_batch(specs, execution, **overrides)
        return [
            ResultSet(results, spec=spec) for results, spec in zip(batches, specs)
        ]

    @property
    def last_batch_report(self) -> Optional[BatchReport]:
        """Scheduler report of the most recent batch search (or ``None``)."""
        return self._engine.last_batch_report

    def cache_statistics(self) -> CacheStatistics:
        """Hit/miss/eviction counters of the shared score cache."""
        return self._engine.score_cache.statistics

    def shortlist_statistics(self) -> "ShortlistStatistics":
        """Cumulative two-stage shortlist counters (see :mod:`repro.index.shortlist`)."""
        return self._engine.counters.shortlist

    def execution_statistics(self) -> "ExecutionStatistics":
        """Cumulative branch-and-bound counters (see :mod:`repro.index.execution`)."""
        return self._engine.counters.execution

    def predicate_statistics(self) -> "PredicateStatistics":
        """Cumulative predicate-stage counters (see :mod:`repro.index.execution`)."""
        return self._engine.counters.predicates
