"""The ``repro serve`` daemon: JSON-over-HTTP retrieval on a thread-safe core.

The server is pure standard library (:class:`http.server.ThreadingHTTPServer`)
and exposes the whole unified query pipeline over nine endpoints:

==========  =================  ===================================================
method      path               what it does
==========  =================  ===================================================
``POST``    ``/search``        one :class:`~repro.index.spec.QuerySpec` payload
                               (exact / invariant / partial / predicate clauses,
                               ``min_score``, ``limit``, pagination)
``POST``    ``/batch``         many similarity queries as one scheduled batch
``POST``    ``/images``        insert a scene (incremental persistence; in
                               durable mode acked only after the WAL fsync)
``DELETE``  ``/images/{id}``   remove a stored image (same durability contract)
``POST``    ``/reload``        zero-downtime reload: rebuild the engine from
                               disk, swap it in under the readers-writer lock
``POST``    ``/compact``       fold the WAL delta into the shards now
                               (409 unless serving with ``--wal``)
``POST``    ``/promote``       replica only: detach into a writable primary
                               (409 here; see :mod:`repro.service.replica`)
``GET``     ``/healthz``       liveness: status, image count, uptime
``GET``     ``/stats``         request counts, p50/p95 latency, cache hit rate
==========  =================  ===================================================

Durable mode (``repro serve --wal``, a sharded directory only) adds the
crash-safety contract of ``docs/durability.md``: a mutation response is the
durability acknowledgement (the WAL record is fsync'd before the status line
is written), a background thread compacts the log into the shards past a
pending-record threshold, and ``repro recover`` / plain loading replays the
log so no acknowledged write is ever lost — kill -9 included, as the
fault-injection harness (``tools/faultinject.py``) asserts.

Every request thread runs against one shared
:class:`~repro.retrieval.system.RetrievalSystem` whose engine carries a
readers-writer lock (:mod:`repro.service.rwlock`): searches take the shared
grant and run in parallel against a consistent snapshot; mutations take the
exclusive grant, refresh the indexes and score cache atomically, then persist
through the storage backends (``incremental=True``, so a sharded database
rewrites only what changed, and a JSON file is swapped in whole).

Work admission is bounded: at most ``workers`` requests execute while up to
``backlog`` more wait; anything beyond is rejected immediately with ``503``
and a ``Retry-After`` header instead of queueing unboundedly (closed-loop
clients back off, the server never builds an invisible latency bomb).  Health
and stats probes bypass the gate so the daemon stays observable under
overload.

Rankings are byte-identical to in-process :meth:`QueryEngine.execute_spec`
output -- the handler serialises the same ``ResultSet.to_dicts()`` the library
returns, which the CI ``service-smoke`` job and the E13 benchmark assert.

See ``docs/service.md`` for payload schemas and deployment notes.
"""

from __future__ import annotations

import json
import logging
import math
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from collections import deque
from pathlib import Path
from typing import Any, Deque, Dict, Iterator, List, Optional, Tuple, Union
from urllib.parse import unquote

from repro.iconic.picture import SymbolicPicture
from repro.index.backends import DurableShardedStore
from repro.index.database import DatabaseError
from repro.index.execution import ExecutionOptions
from repro.index.spec import QuerySpec, QuerySpecError
from repro.index.storage import StorageError
from repro.retrieval.querybuilder import ResultSet
from repro.retrieval.system import RetrievalSystem

#: Largest request body the daemon reads; a longer ``Content-Length`` is
#: refused with 413 before any of the body is read.
MAX_BODY_BYTES = 8 * 1024 * 1024
#: Most recent request latencies kept for the ``/stats`` percentiles.
LATENCY_WINDOW = 2048

_log = logging.getLogger(__name__)


class ApiError(Exception):
    """A request failure mapped to an HTTP status (4xx/5xx) with a message."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


class ServiceOverloadedError(ApiError):
    """Raised when the admission gate is full (HTTP 503 + ``Retry-After``)."""

    def __init__(self, retry_after: float = 1.0) -> None:
        super().__init__(503, "service overloaded; retry later")
        self.retry_after = retry_after


def _percentile(sorted_values: List[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending-sorted non-empty list.

    The nearest-rank definition: the value at 1-based rank
    ``ceil(fraction * n)``.  The previous ``round(fraction * (n - 1))``
    implementation drifted off the nearest rank at even window sizes
    (banker's rounding pulled e.g. the p50 of four samples up to the third
    value instead of the second).
    """
    rank = math.ceil(fraction * len(sorted_values))
    index = min(max(rank - 1, 0), len(sorted_values) - 1)
    return sorted_values[index]


# ----------------------------------------------------------------------
# Payload validation helpers (every failure is a 400 with a clear message)
# ----------------------------------------------------------------------
def _as_object(payload: Any) -> Dict[str, Any]:
    if not isinstance(payload, dict):
        raise ApiError(400, "request body must be a JSON object")
    return payload


def _get_positive_int(payload: Dict[str, Any], key: str) -> Optional[int]:
    value = payload.get(key)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ApiError(400, f"{key!r} must be a positive JSON integer")
    return value


def _parse_scene(scene: Any) -> SymbolicPicture:
    if not isinstance(scene, dict):
        raise ApiError(400, "'scene' must be a JSON object describing a scene")
    try:
        return SymbolicPicture.from_dict(scene)
    except (StorageError, ValueError, KeyError, TypeError) as error:
        raise ApiError(400, f"malformed scene: {error}") from error


def _decode_query(payload: Any) -> QuerySpec:
    """One ``/search`` query object as a spec (:meth:`QuerySpec.from_wire`).

    Raises:
        ApiError: 400 naming the malformed key.
    """
    try:
        return QuerySpec.from_wire(_as_object(payload))
    except QuerySpecError as error:
        raise ApiError(400, str(error)) from error


class RetrievalService:
    """The HTTP-agnostic service core: dispatch, admission control, stats.

    Separating the core from the HTTP handler keeps every endpoint unit
    testable in-process (``service.dispatch("POST", "/search", payload)``)
    and lets the stress suite hammer it without sockets.
    """

    def __init__(
        self,
        system: RetrievalSystem,
        *,
        workers: int = 4,
        backlog: int = 16,
        database_path: Union[None, str, Path] = None,
        retry_after: float = 1.0,
        durable: bool = False,
        compact_threshold: int = 256,
        shard_workers: Optional[int] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if backlog < 0:
            raise ValueError("backlog must be non-negative")
        if durable and database_path is None:
            raise ValueError("durable mode requires a database_path")
        if shard_workers is not None and shard_workers < 1:
            raise ValueError("shard_workers must be at least 1")
        self.system = system.enable_concurrent_access()
        self.workers = workers
        self.backlog = backlog
        self.database_path = Path(database_path) if database_path is not None else None
        #: ``repro serve --shard-workers N``: every search scatter-gathers
        #: across N forked shard workers (:mod:`repro.index.workers`) instead
        #: of scoring on the request thread.  Rankings stay byte-identical.
        self.shard_workers = shard_workers
        self._configure_shard_workers()
        self.retry_after = retry_after
        #: Admission gate: ``workers`` running + ``backlog`` waiting, rest 503.
        self._admission = threading.BoundedSemaphore(workers + backlog)
        self._slots = threading.BoundedSemaphore(workers)
        #: Serialises mutation + persistence so incremental saves see exactly
        #: one mutation's dirty set (queries keep flowing via the rwlock).
        self._mutation_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._started_monotonic = time.monotonic()
        self._request_counts: Dict[str, int] = {}
        self._rejected = 0
        self._error_count = 0
        self._latencies: Deque[float] = deque(maxlen=LATENCY_WINDOW)
        self._reloads = 0
        #: Durable mode: a live WAL handle; every acked mutation is fsync'd
        #: to the log first, a background thread folds the delta into the
        #: shards when it crosses ``compact_threshold`` (see docs/durability.md).
        self.store: Optional[DurableShardedStore] = None
        self.compact_threshold = compact_threshold
        self._compact_wanted = threading.Event()
        self._closed = threading.Event()
        self._compactor: Optional[threading.Thread] = None
        if durable:
            self._attach_store()

    # ------------------------------------------------------------------
    # Shard workers (scatter-gather execution)
    # ------------------------------------------------------------------
    def _configure_shard_workers(self) -> None:
        """Point the engine at the shard-worker pool (idempotent, reload-safe).

        Overlays the engine's execution defaults with
        ``executor="shard_process", workers=N`` so every search and batch
        scatter-gathers; workers answer from the engine they inherit through
        the fork.
        """
        if self.shard_workers is None:
            return
        engine = self.system._engine
        engine.execution = engine.execution.overlaid(
            ExecutionOptions(executor="shard_process", workers=self.shard_workers)
        )

    # ------------------------------------------------------------------
    # Admission control
    # ------------------------------------------------------------------
    @contextmanager
    def _admitted(self) -> Iterator[None]:
        """Bounded-queue admission: reject with 503 instead of piling up."""
        if not self._admission.acquire(blocking=False):
            with self._stats_lock:
                self._rejected += 1
            raise ServiceOverloadedError(retry_after=self.retry_after)
        try:
            self._slots.acquire()
            try:
                yield
            finally:
                self._slots.release()
        finally:
            self._admission.release()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def dispatch(
        self, method: str, path: str, payload: Any = None
    ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        """Route one request.

        An exception no endpoint maps to a status answers 500, and is
        counted in ``/stats`` like every other answer.

        Returns:
            ``(status, body, extra_headers)`` -- the body is a
            JSON-serialisable dict; a ``Retry-After`` header accompanies 503.
        """
        started = time.perf_counter()
        endpoint = f"{method} {self._endpoint_label(method, path)}"
        try:
            status, body, headers = self._route(method, path, payload)
        except ServiceOverloadedError as error:
            self._observe(endpoint, started, error.status)
            return error.status, {"error": error.message}, {
                "Retry-After": f"{error.retry_after:g}"
            }
        except ApiError as error:
            self._observe(endpoint, started, error.status)
            return error.status, {"error": error.message}, {}
        except Exception as error:  # noqa: BLE001 - last-resort 500, keep serving
            _log.exception("internal error answering %s %s", method, path)
            self._observe(endpoint, started, 500)
            return 500, {"error": f"internal error: {error}"}, {}
        self._observe(endpoint, started, status)
        return status, body, headers

    @staticmethod
    def _endpoint_label(method: str, path: str) -> str:
        """Bounded-cardinality stats key for one request path."""
        path = path.split("?", 1)[0].rstrip("/") or "/"
        if path.startswith("/images/"):
            return "/images/{id}"
        if path in (
            "/healthz",
            "/stats",
            "/search",
            "/batch",
            "/images",
            "/reload",
            "/compact",
            "/promote",
        ):
            return path
        return "<unknown>"

    def _route(
        self, method: str, path: str, payload: Any
    ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        path = path.split("?", 1)[0].rstrip("/") or "/"
        if method == "GET" and path == "/healthz":
            return 200, self.healthz(), {}
        if method == "GET" and path == "/stats":
            return 200, self.stats(), {}
        if method == "POST" and path == "/search":
            return 200, self.search(_as_object(payload)), {}
        if method == "POST" and path == "/batch":
            return 200, self.batch(_as_object(payload)), {}
        if method == "POST" and path == "/images":
            return 201, self.add_image(_as_object(payload)), {}
        if method == "POST" and path == "/reload":
            return 200, self.reload(), {}
        if method == "POST" and path == "/compact":
            return 200, self.compact(), {}
        if method == "POST" and path == "/promote":
            return 200, self.promote(), {}
        if method == "DELETE" and path.startswith("/images/"):
            return 200, self.delete_image(unquote(path[len("/images/"):])), {}
        if method == "DELETE" and path == "/images":
            # "DELETE /images" and "DELETE /images/" (trailing slash is
            # normalised away above) both lack the id segment.
            raise ApiError(400, "an image id is required: DELETE /images/{id}")
        raise ApiError(404, f"no such endpoint: {method} {path}")

    # ------------------------------------------------------------------
    # Query endpoints
    # ------------------------------------------------------------------
    def _execute_query(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        spec = _decode_query(payload)
        page = _get_positive_int(payload, "page")
        page_size = _get_positive_int(payload, "page_size")
        if (page is None) != (page_size is None):
            raise ApiError(400, "'page' and 'page_size' must be given together")
        try:
            results = self.system.execute(spec)
        except QuerySpecError as error:
            raise ApiError(400, str(error)) from error
        except KeyError as error:  # partial() naming icons the scene lacks
            raise ApiError(400, f"unknown identifier in 'identifiers': {error}") from error
        body: Dict[str, Any] = {
            "total": len(results),
            "spec": results.spec.describe() if results.spec is not None else None,
        }
        if results.trace is not None:
            body["plan"] = results.trace.describe()
        window: ResultSet = results
        if page is not None and page_size is not None:
            window = results.page(page, page_size)
            body["page"] = page
            body["page_size"] = page_size
            body["pages"] = results.page_count(page_size)
        body["results"] = window.to_dicts()
        body["count"] = len(window)
        return body

    def search(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """``POST /search``: run one query object (:meth:`QuerySpec.from_wire`).

        The decoded spec runs through :meth:`RetrievalSystem.execute`, the
        call the fluent builder uses, so it inherits the served policy and
        execution defaults exactly as an in-process query does.

        Returns:
            The ranking (``results`` as the library's ``to_dicts()`` rows,
            byte-identical to in-process execution), the pre-pagination
            ``total``, the compiled ``spec`` and the execution ``plan``.
        """
        with self._admitted():
            return self._execute_query(payload)

    def batch(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """``POST /batch``: many similarity queries as one scheduled batch.

        Each entry of the payload's ``queries`` array is a ``/search`` query
        object (predicate clauses are rejected: the batch scheduler is
        similarity-only, exactly like :meth:`RetrievalSystem.query_batch`).
        Optional ``executor`` (``serial`` or ``shard_process``) and
        ``workers`` (the shard-pool size, at most 16) keys override the
        served engine's defaults for this batch.
        """
        with self._admitted():
            queries = payload.get("queries")
            if not isinstance(queries, list) or not queries:
                raise ApiError(400, "'queries' must be a non-empty JSON array")
            specs = [_decode_query(entry) for entry in queries]
            try:
                execution = ExecutionOptions(
                    executor=payload.get("executor"), workers=payload.get("workers")
                )
            except ValueError as error:
                raise ApiError(400, str(error)) from error
            try:
                batches = self.system.query_batch(specs, execution)
            except QuerySpecError as error:
                raise ApiError(400, str(error)) from error
            except KeyError as error:  # partial() naming icons a scene lacks
                raise ApiError(400, f"unknown identifier in 'identifiers': {error}") from error
            report = self.system.last_batch_report
            return {
                "results": [results.to_dicts() for results in batches],
                "count": len(batches),
                "report": report.describe() if report is not None else None,
            }

    # ------------------------------------------------------------------
    # Mutation endpoints
    # ------------------------------------------------------------------
    def _persist(self) -> None:
        """Write the database back to disk incrementally (if configured).

        In durable mode this is a no-op: the mutation endpoints append to
        the write-ahead log instead (ack-after-fsync) and the background
        compactor folds the delta into the shards.
        """
        if self.database_path is None or self.store is not None:
            return
        try:
            self.system.save(self.database_path, incremental=True)
        except (StorageError, ValueError) as error:
            raise ApiError(500, f"persistence failed: {error}") from error

    def add_image(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """``POST /images``: store one scene and persist incrementally.

        In durable mode the 201 response is the durability acknowledgement:
        it is sent only after the upsert record is fsync'd to the
        write-ahead log; a logging failure rolls the in-memory insert back
        and answers 500, so the client's view and the log never diverge.

        Returns:
            The stored ``image_id`` and the new database size (HTTP 201);
            in durable mode also the record's ``lsn``.
        """
        with self._admitted():
            picture = _parse_scene(payload.get("scene"))
            image_id = payload.get("image_id")
            if image_id is not None and not (isinstance(image_id, str) and image_id):
                raise ApiError(400, "'image_id' must be a non-empty JSON string")
            with self._mutation_lock:
                try:
                    stored = self.system.add_picture(picture, image_id)
                except DatabaseError as error:
                    raise ApiError(409, str(error)) from error
                body: Dict[str, Any] = {"image_id": stored}
                if self.store is not None:
                    try:
                        body["lsn"] = self.store.log_upsert(self.system.record(stored))
                    except StorageError as error:
                        self.system.remove_picture(stored)
                        raise ApiError(500, f"durable log failed: {error}") from error
                else:
                    self._persist()
                body["images"] = len(self.system)
            self._maybe_compact()
            return body

    def delete_image(self, image_id: str) -> Dict[str, Any]:
        """``DELETE /images/{id}``: remove one image and persist incrementally.

        In durable mode the 200 response is sent only after the delete
        record is fsync'd to the write-ahead log; a logging failure restores
        the removed image and answers 500.

        Returns:
            The removed id and the new database size; 404 on an unknown id.
        """
        with self._admitted():
            if not image_id:
                raise ApiError(400, "an image id is required: DELETE /images/{id}")
            with self._mutation_lock:
                try:
                    record = self.system.record(image_id)
                    self.system.remove_picture(image_id)
                except DatabaseError as error:
                    raise ApiError(404, str(error)) from error
                body = {"removed": image_id}
                if self.store is not None:
                    try:
                        body["lsn"] = self.store.log_delete(image_id)
                    except StorageError as error:
                        self.system.add_picture(record.picture, image_id)
                        raise ApiError(500, f"durable log failed: {error}") from error
                else:
                    self._persist()
                body["images"] = len(self.system)
            self._maybe_compact()
            return body

    # ------------------------------------------------------------------
    # Durability: background compaction and zero-downtime reload
    # ------------------------------------------------------------------
    def _attach_store(self) -> None:
        """Open the durable store on ``database_path``, then start the compactor."""
        self.store = DurableShardedStore(
            self.system._engine.database,
            self.database_path,
            compact_threshold=self.compact_threshold,
        )
        self._compactor = threading.Thread(
            target=self._compaction_loop, name="repro-compactor", daemon=True
        )
        self._compactor.start()

    def _maybe_compact(self) -> None:
        """Nudge the background compactor once the pending delta is large."""
        if self.store is not None and self.store.should_compact():
            self._compact_wanted.set()

    def _compaction_loop(self) -> None:
        """Background thread: fold the WAL delta into the shards on demand."""
        while not self._closed.is_set():
            self._compact_wanted.wait(timeout=0.5)
            if self._closed.is_set():
                return
            if not self._compact_wanted.is_set():
                continue
            self._compact_wanted.clear()
            try:
                with self._mutation_lock:
                    if self.store is not None and self.store.should_compact():
                        self.store.compact()
            except StorageError:
                # The on-disk state stays recoverable (old manifest + full
                # log); the next nudge retries.  Never kill the thread.
                continue

    def compact(self) -> Dict[str, Any]:
        """``POST /compact``: synchronously fold the WAL delta into the shards.

        Returns:
            The new snapshot LSN and remaining pending-record count;
            409 when the service is not running in durable mode.
        """
        with self._admitted():
            if self.store is None:
                raise ApiError(409, "service is not running in durable (--wal) mode")
            with self._mutation_lock:
                try:
                    snapshot_lsn = self.store.compact()
                except StorageError as error:
                    raise ApiError(500, f"compaction failed: {error}") from error
            return {
                "snapshot_lsn": snapshot_lsn,
                "pending_records": self.store.pending_records,
                "compactions": self.store.compactions,
            }

    def promote(self) -> Dict[str, Any]:
        """``POST /promote``: detach a replica into a writable primary.

        Only meaningful on a replica daemon
        (:class:`repro.service.replica.ReplicaService` overrides this); a
        plain service has nothing to promote.

        Returns:
            Never -- always 409 here; see the replica subclass.
        """
        with self._admitted():
            raise ApiError(409, "service is not a replica (nothing to promote)")

    def reload(self) -> Dict[str, Any]:
        """``POST /reload``: zero-downtime reload of the on-disk database.

        Builds a fresh engine from ``database_path`` (replaying any pending
        WAL records) off to the side, then swaps it in under the engine's
        readers-writer lock via :meth:`RetrievalSystem.hot_swap`: in-flight
        queries finish against the old engine, later ones see only the new
        one, and no reader ever observes a mix.

        Returns:
            The reloaded image count; 409 without a ``database_path``.
        """
        with self._admitted():
            if self.database_path is None:
                raise ApiError(409, "service has no database_path to reload from")
            with self._mutation_lock:
                try:
                    replacement = RetrievalSystem.from_file(
                        self.database_path,
                        policy=self.system.policy,
                        execution=self.system.execution,
                        durable=self.store is not None,
                        minimum_signature_overlap=self.system.minimum_signature_overlap,
                    )
                except (StorageError, ValueError, FileNotFoundError) as error:
                    raise ApiError(500, f"reload failed: {error}") from error
                retired = self.system._engine
                self.system.hot_swap(replacement)
                retired.close_shard_pool()
                self._configure_shard_workers()
                if self.store is not None:
                    self.store.rebind(self.system._engine.database)
                with self._stats_lock:
                    self._reloads += 1
            return {"images": len(self.system), "reloads": self._reloads}

    def close(self) -> None:
        """Stop the compactor, shard workers, and WAL handle (idempotent)."""
        self._closed.set()
        self._compact_wanted.set()
        if self._compactor is not None:
            self._compactor.join(timeout=5)
            self._compactor = None
        self.system._engine.close_shard_pool()
        if self.store is not None:
            self.store.close()

    # ------------------------------------------------------------------
    # Observability endpoints
    # ------------------------------------------------------------------
    def healthz(self) -> Dict[str, Any]:
        """``GET /healthz``: liveness probe (never gated by admission)."""
        return {
            "status": "ok",
            "images": len(self.system),
            "uptime_seconds": round(time.monotonic() - self._started_monotonic, 3),
        }

    def stats(self) -> Dict[str, Any]:
        """``GET /stats``: uptime, request counts, latency percentiles, cache.

        Returns:
            Counters since start-up; ``latency_ms`` summarises the most
            recent requests (bounded window), ``cache`` reports the shared
            score cache, ``shortlist`` the two-stage signature shortlist
            (per-stage rejection counts and pruned fraction), ``execution``
            the branch-and-bound counters (anytime queries, candidates
            examined vs admitted), ``predicates`` the predicate-stage
            counters (graded queries, images evaluated vs settled by the
            label bound), ``lock`` the readers-writer grant
            counters.  When serving with ``--shard-workers`` the ``workers``
            key becomes a block describing the scatter-gather pool:
            per-worker shard/image counts, restarts, queue depth, and
            scatter latency (``admission`` inside it carries the plain
            request-concurrency integer the key otherwise holds).
        """
        with self._stats_lock:
            counts = dict(sorted(self._request_counts.items()))
            rejected = self._rejected
            errors = self._error_count
            latencies = sorted(self._latencies)
        latency_ms: Dict[str, Any] = {"count": len(latencies)}
        if latencies:
            latency_ms.update(
                p50=round(_percentile(latencies, 0.50) * 1000, 3),
                p95=round(_percentile(latencies, 0.95) * 1000, 3),
                max=round(latencies[-1] * 1000, 3),
            )
        cache = self.system.cache_statistics()
        shortlist = self.system.shortlist_statistics()
        execution = self.system.execution_statistics()
        predicates = self.system.predicate_statistics()
        body: Dict[str, Any] = {
            "uptime_seconds": round(time.monotonic() - self._started_monotonic, 3),
            "images": len(self.system),
            "workers": self.workers,
            "backlog": self.backlog,
            "requests": counts,
            "requests_total": sum(counts.values()),
            "rejected_overload": rejected,
            "errors": errors,
            "latency_ms": latency_ms,
            "cache": {
                "hits": cache.hits,
                "misses": cache.misses,
                "hit_rate": round(cache.hit_rate, 4),
                "size": cache.size,
                "capacity": cache.capacity,
            },
            "shortlist": dict(
                asdict(shortlist), pruned_fraction=round(shortlist.pruned_fraction, 4)
            ),
            "execution": dict(
                asdict(execution), examined_fraction=round(execution.examined_fraction, 4)
            ),
            "predicates": dict(
                asdict(predicates), pruned_fraction=round(predicates.pruned_fraction, 4)
            ),
        }
        lock = self.system._engine.lock
        if hasattr(lock, "statistics"):
            body["lock"] = lock.statistics()
        if self.shard_workers is not None:
            pool = self.system._engine.shard_pool_stats()
            body["workers"] = {
                "mode": "shard_process",
                "configured": self.shard_workers,
                "admission": self.workers,
                "pool": pool,  # None until the first scatter forks the pool
            }
        body["reloads"] = self._reloads
        if self.store is not None:
            body["durability"] = {
                "enabled": True,
                "last_lsn": self.store.last_lsn,
                "snapshot_lsn": self.store.snapshot_lsn,
                "pending_records": self.store.pending_records,
                "wal_size_bytes": self.store.wal_size_bytes,
                "compact_threshold": self.store.compact_threshold,
                "compactions": self.store.compactions,
            }
        else:
            body["durability"] = {"enabled": False}
        return body

    def _observe(self, endpoint: str, started: float, status: int) -> None:
        elapsed = time.perf_counter() - started
        with self._stats_lock:
            self._request_counts[endpoint] = self._request_counts.get(endpoint, 0) + 1
            if status >= 400 and status != 503:
                self._error_count += 1
            self._latencies.append(elapsed)  # deque(maxlen=...) evicts in O(1)


# ----------------------------------------------------------------------
# HTTP plumbing
# ----------------------------------------------------------------------
class _ServiceHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server carrying the service for its handlers."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], service: RetrievalService) -> None:
        super().__init__(address, _RequestHandler)
        self.service = service


class _RequestHandler(BaseHTTPRequestHandler):
    """Per-connection handler: JSON in, JSON out, errors as ``{"error": ...}``."""

    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        """Silence the default per-request stderr log line."""

    def _read_payload(self) -> Any:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError as error:
            raise ApiError(400, "Content-Length must be an integer") from error
        if length < 0:
            raise ApiError(400, "Content-Length must not be negative")
        if length > MAX_BODY_BYTES:
            raise ApiError(
                413, f"request body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
            )
        if length == 0:
            return None
        raw = self.rfile.read(length)
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ApiError(400, f"request body is not valid JSON: {error}") from error

    def _respond(self, status: int, body: Dict[str, Any], headers: Dict[str, str]) -> None:
        encoded = json.dumps(body, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(encoded)))
        for name, value in headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(encoded)

    def _handle(self, method: str) -> None:
        try:
            payload = self._read_payload()
        except ApiError as error:
            # A body left unread would be parsed as the next request.
            self._respond(error.status, {"error": error.message}, {"Connection": "close"})
            return
        self._respond(*self.server.service.dispatch(method, self.path, payload))

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        """Serve one GET request."""
        self._handle("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        """Serve one POST request."""
        self._handle("POST")

    def do_DELETE(self) -> None:  # noqa: N802 - http.server API
        """Serve one DELETE request."""
        self._handle("DELETE")


class RetrievalServer:
    """A bound-and-listening retrieval daemon (socket open, not yet serving).

    Wraps the threading HTTP server with lifecycle helpers: ``serve_forever``
    for the CLI foreground path, ``start_background`` for tests and
    benchmarks, and context-manager cleanup.
    """

    def __init__(self, service: RetrievalService, host: str = "127.0.0.1", port: int = 0) -> None:
        self.service = service
        self._http = _ServiceHTTPServer((host, port), service)
        self._thread: Optional[threading.Thread] = None
        #: Whether the serve loop was ever entered.  ``BaseServer.shutdown``
        #: blocks until the loop acknowledges, which deadlocks when the loop
        #: never ran (e.g. ``repro serve --check``) -- so only ask a loop that
        #: exists to stop.
        self._loop_entered = threading.Event()

    @property
    def host(self) -> str:
        """The bound interface."""
        return self._http.server_address[0]

    @property
    def port(self) -> int:
        """The bound port (the real one when created with port 0)."""
        return self._http.server_address[1]

    @property
    def url(self) -> str:
        """Base URL clients should target."""
        return f"http://{self.host}:{self.port}"

    def serve_forever(self) -> None:
        """Serve until :meth:`shutdown` (blocking; the CLI foreground path)."""
        self._loop_entered.set()
        self._http.serve_forever(poll_interval=0.1)

    def start_background(self) -> "RetrievalServer":
        """Serve on a daemon thread (tests, benchmarks); chainable."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self.serve_forever, name="repro-serve", daemon=True
            )
            self._thread.start()
        return self

    def shutdown(self) -> None:
        """Stop the serve loop (idempotent; socket stays open until close)."""
        if self._loop_entered.is_set():
            self._http.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def close(self) -> None:
        """Stop serving, release the socket, and close the service's WAL."""
        self.shutdown()
        self._http.server_close()
        self.service.close()

    def __enter__(self) -> "RetrievalServer":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def create_server(
    system: RetrievalSystem,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    workers: int = 4,
    backlog: int = 16,
    database_path: Union[None, str, Path] = None,
    durable: bool = False,
    compact_threshold: int = 256,
    shard_workers: Optional[int] = None,
) -> RetrievalServer:
    """Build a bound :class:`RetrievalServer` over ``system``.

    ``port=0`` binds an ephemeral port (read it back from ``server.port``).
    ``database_path`` enables write-through persistence: every mutation
    endpoint saves incrementally to that path, in the format the path holds
    (as :meth:`RetrievalSystem.save` infers it).
    ``durable=True`` (the ``repro serve --wal`` path) switches persistence to
    the write-ahead log instead: mutations are acknowledged only after their
    log record is fsync'd, and a background thread compacts the log into the
    shards every ``compact_threshold`` pending records (``docs/durability.md``).
    ``shard_workers=N`` (the ``repro serve --shard-workers N`` path) forks N
    shard-worker processes and scatter-gathers every search across them
    behind the readers-writer lock (``docs/parallelism.md``); rankings stay
    byte-identical to serial execution.

    Returns:
        A server with the socket bound; call ``serve_forever()`` or
        ``start_background()`` to begin answering requests.

    Raises:
        ValueError: on a non-positive ``workers``, negative ``backlog``, or
            ``durable=True`` without a ``database_path``.
        OSError: if the address cannot be bound.
    """
    service = RetrievalService(
        system,
        workers=workers,
        backlog=backlog,
        database_path=database_path,
        durable=durable,
        compact_threshold=compact_threshold,
        shard_workers=shard_workers,
    )
    return RetrievalServer(service, host=host, port=port)
