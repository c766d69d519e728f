"""Process-parallel shard workers: scatter-gather query execution.

Everything upstream of this module is GIL-bound: the serial candidate loop
and the service daemon's request threads both serialize on the Python
bytecode of the scoring loop, so the shortlist/kernel speedups stop at one
core.  This module partitions the database along the existing CRC-32 shard scheme
(:func:`repro.index.backends.shard_index_for`) into worker *processes*, and a
scattered read does a serial read's work split across them:

* :class:`ShardWorkerPool` forks N workers, each owning a disjoint,
  contiguous slice of the shard space.  The pool's one walk over the
  records gives each worker the set of image ids its shards hold.  A worker
  answers from the engine it inherits through the fork -- database and
  postings as they are -- admitting only its own
  images (:meth:`QueryEngine._slice <repro.index.query.QueryEngine._slice>`),
  with its own empty score cache.  It indexes, decodes and reads nothing,
  so a worker (re)start costs the fork alone.
* A query is *scattered*: the :class:`~repro.index.spec.QuerySpec` is
  serialized to every worker, each runs the candidate loop over its images
  under the resolved execution options (kernel, strategy, shortlist, cache)
  and answers with the ``(-score, image_id)`` keys of its top k
  (:meth:`QueryEngine._execute_keys <repro.index.query.QueryEngine._execute_keys>`),
  never materialising a result.  The gather merges the keys in that exact
  serial tie-break order and cuts them to the limit.  Because admission,
  scoring and predicate evaluation are all per-image decisions, the global
  top k is a subset of the union of per-worker top-k lists, so the merged
  keys are the serial ranking's.  The parent then materialises only those
  k, through the tail and score cache a serial read uses, and the ranking
  is byte-identical to the single-process engine (asserted by the E18
  benchmark and the cross-process equivalence suite).
* Each worker returns its :class:`~repro.index.spec.QueryTrace`, per-candidate
  entries included; the gather sums them into one trace, which
  ``explain()`` renders and the parent engine adds to its ``/stats``
  counters once.  Workers also return their score-cache statistics for the
  pool's own ``/stats`` block.

A crashed worker is detected by the broken pipe, re-forked over the same
slice, and the in-flight requests are replayed against the fresh process;
the pool counts restarts per worker.  A scatter that fails *permanently*
(a worker's error response, or a restart budget exhausted) restarts
**every** worker before the error propagates, so queued requests and
buffered responses from the aborted batch can never be attributed to a
later query's request ids.  See ``docs/parallelism.md`` for the
protocol and failure semantics.
"""

from __future__ import annotations

import gc
import multiprocessing
import threading
import time
from multiprocessing.connection import wait as connection_wait
from dataclasses import dataclass, field as dataclass_field
from typing import TYPE_CHECKING, Any, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.index.backends import DEFAULT_SHARD_COUNT, shard_index_for
from repro.index.cache import CacheStatistics
from repro.index.spec import QuerySpec, QueryTrace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.index.query import QueryEngine

#: Restarts the pool will attempt per worker within one scatter before
#: giving up on the gather.
DEFAULT_MAX_RESTARTS = 3


class ShardWorkerError(RuntimeError):
    """A shard worker failed permanently (crash-restart budget exhausted)."""


# ----------------------------------------------------------------------
# Worker-process side
# ----------------------------------------------------------------------
def _worker_main(engine: "QueryEngine", connection) -> None:
    """The worker-process request loop over ``engine``, the worker's slice.

    Every response carries the worker's ranking keys, its execution trace,
    its predicate matches and its score-cache statistics.  The loop exits
    on a ``stop`` message or a closed pipe.  The worker runs with the cyclic
    garbage collector on: a fork made while another thread's load had it
    paused inherits the pause but not its end.
    """
    gc.enable()
    while True:
        try:
            message = connection.recv()
        except (EOFError, OSError):
            break
        kind = message[0]
        if kind == "stop":
            break
        if kind != "spec":  # pragma: no cover - protocol guard
            continue
        _, request_id, spec = message
        try:
            spec.validate()
            keys, trace, matches = engine._execute_keys(spec)
            payload = {
                "keys": keys,
                "predicate_matches": matches,
                "trace": trace,
                "cache": engine.score_cache.statistics,
            }
            connection.send(("ok", request_id, payload))
        except Exception as error:  # noqa: BLE001 - forwarded to the parent
            try:
                connection.send(
                    ("error", request_id, f"{type(error).__name__}: {error}")
                )
            except (OSError, ValueError):  # pragma: no cover - parent gone
                break


# ----------------------------------------------------------------------
# Merge (the deterministic gather)
# ----------------------------------------------------------------------
@dataclass
class Gather:
    """Every worker's answer to one spec, merged; nothing is materialised."""

    #: ``(-score, image_id)`` of the merged ranking, cut to the spec's limit.
    keys: List[Tuple[float, str]]
    #: The workers' traces, summed.
    trace: QueryTrace
    #: The workers' predicate matches (``None`` without a predicate clause).
    predicate_matches: Optional[Dict[str, Any]] = None


def _merge_traces(payloads: List[Dict[str, Any]]) -> QueryTrace:
    """One truthful trace for the whole scatter: summed funnel counters."""
    traces = [payload["trace"] for payload in payloads]
    merged = QueryTrace(mode=traces[0].mode if traces else "similarity")
    inverted = [t.inverted_candidates for t in traces if t.inverted_candidates is not None]
    merged.inverted_candidates = sum(inverted) if inverted else None
    bound_cutoffs = [t.bound_cutoff for t in traces if t.bound_cutoff is not None]
    merged.bound_cutoff = max(bound_cutoffs) if bound_cutoffs else None
    for trace in traces:
        merged.database_size += trace.database_size
        merged.shortlisted += trace.shortlisted
        merged.bitmap_pruned += trace.bitmap_pruned
        merged.relation_pruned += trace.relation_pruned
        merged.cache_hits += trace.cache_hits
        merged.cache_misses += trace.cache_misses
        merged.predicate_evaluated += trace.predicate_evaluated
        merged.predicate_pruned += trace.predicate_pruned
        merged.candidates_examined += trace.candidates_examined
        merged.bound_skipped += trace.bound_skipped
        merged.candidates.update(trace.candidates)
    if traces:
        merged.kernel = traces[0].kernel
        merged.strategy = (
            "anytime"
            if any(trace.strategy == "anytime" for trace in traces)
            else traces[0].strategy
        )
    return merged


def merge_gather(spec: QuerySpec, payloads: List[Dict[str, Any]]) -> Gather:
    """Merge every worker's response for one spec.

    Each worker already applied ``minimum_score`` and cut its keys to
    ``limit``; since the global top k is a subset of the union of the
    per-worker top-k lists, sorting the union by ``(-score, image_id)`` --
    the order :func:`repro.index.ranking.rank_results` ranks by -- and
    cutting it reproduces the serial ranking's keys.
    """
    matches: Optional[Dict[str, Any]] = None
    if any(payload["predicate_matches"] is not None for payload in payloads):
        matches = {}
        for payload in payloads:
            if payload["predicate_matches"]:
                matches.update(payload["predicate_matches"])
    keys = sorted(key for payload in payloads for key in payload["keys"])
    return Gather(
        keys=keys if spec.limit is None else keys[: spec.limit],
        trace=_merge_traces(payloads),
        predicate_matches=matches,
    )


# ----------------------------------------------------------------------
# Parent-process pool
# ----------------------------------------------------------------------
@dataclass
class _Worker:
    """Parent-side bookkeeping for one worker process."""

    worker_id: int
    owned: Tuple[int, ...]
    #: Ids of the images in the owned shards, when the pool was made.
    image_ids: FrozenSet[str]
    process: Any
    connection: Any
    restarts: int = 0
    requests: int = 0
    queue_depth: int = 0
    cache: Optional[CacheStatistics] = None
    #: Live sender threads bound to :attr:`connection`; joined before the
    #: connection may be closed (see :meth:`ShardWorkerPool._restart`).
    senders: List[Any] = dataclass_field(default_factory=list)

    @property
    def images(self) -> int:
        """How many images the worker answers for."""
        return len(self.image_ids)


class ShardWorkerPool:
    """N forked workers over disjoint CRC-32 shard slices, scatter-gathered.

    The pool is created eagerly (a fork and a pipe per worker), and a
    worker answers its first query without building anything.  All
    scatter/gather traffic is serialized by an internal mutex — concurrent
    service threads queue at the pool while each query runs parallel across
    every worker underneath.
    """

    def __init__(
        self,
        worker_count: int,
        engine: "QueryEngine",
        *,
        max_restarts: int = DEFAULT_MAX_RESTARTS,
    ) -> None:
        """Fork ``worker_count`` workers over the shard space of ``engine``'s database.

        The space has :data:`~repro.index.backends.DEFAULT_SHARD_COUNT`
        shards, whatever layout the database was loaded from.  Each worker
        inherits ``engine`` (database and postings) and answers
        for the images of its shards, with ``engine``'s execution defaults
        and overlap threshold.

        Raises:
            ValueError: if ``worker_count`` is not positive.
        """
        if worker_count < 1:
            raise ValueError(f"worker_count must be >= 1, got {worker_count}")
        self._engine = engine
        self._max_restarts = max_restarts
        self.shard_count = DEFAULT_SHARD_COUNT
        self.worker_count = worker_count
        methods = multiprocessing.get_all_start_methods()
        self._context = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )
        self._lock = threading.Lock()
        #: Guards the scalar scatter counters only, so :meth:`stats` never
        #: has to queue behind an in-flight scatter on :attr:`_lock`.
        self._stats_lock = threading.Lock()
        self._closed = False
        self._scatters = 0
        self._latency_total = 0.0
        self._latency_last = 0.0
        self._max_queue_depth = 0
        slices: List[Set[str]] = [set() for _ in range(worker_count)]
        for record in engine.database:
            shard = shard_index_for(record.image_id, self.shard_count)
            slices[self._owner_of(shard)].add(record.image_id)
        # Freeze the slices and free the sets before the first fork: freeing
        # them after it would write to the refcounts of id strings on pages
        # the workers share, and copy those pages.
        image_ids = [frozenset(ids) for ids in slices]
        del slices
        self._workers: List[_Worker] = []
        for worker_id in range(worker_count):
            owned = tuple(
                shard
                for shard in range(self.shard_count)
                if self._owner_of(shard) == worker_id
            )
            process, connection = self._spawn(worker_id, image_ids[worker_id])
            self._workers.append(
                _Worker(
                    worker_id=worker_id,
                    owned=owned,
                    image_ids=image_ids[worker_id],
                    process=process,
                    connection=connection,
                )
            )

    def _owner_of(self, shard: int) -> int:
        """The worker owning ``shard`` (contiguous, balanced slices)."""
        return shard * self.worker_count // self.shard_count

    def _spawn(self, worker_id: int, image_ids: FrozenSet[str]):
        """Fork one worker answering for ``image_ids``; returns ``(process, parent connection)``."""
        parent_connection, child_connection = self._context.Pipe()
        process = self._context.Process(
            target=_worker_main,
            args=(self._engine._slice(image_ids), child_connection),
            daemon=True,
            name=f"repro-shard-worker-{worker_id}",
        )
        process.start()
        # The parent must not hold the child's pipe end, or a worker crash
        # would never surface as EOF on the gather side.
        child_connection.close()
        return process, parent_connection

    def _restart(self, worker: _Worker) -> None:
        """Replace a dead worker with a fresh fork of the same slice.

        The ordering is load-bearing.  The process is terminated *first*,
        which breaks the pipe and releases any sender thread still inside a
        ``send`` with ``EPIPE``; only once those threads have exited is the
        parent connection closed.  Closing earlier would free the file
        descriptor while a sender may still be about to write through it —
        the freed number can be reused by the replacement pipe (or any other
        worker's), delivering a stale request of the aborted batch into a
        fresh worker's inbox.
        """
        if worker.process.is_alive():
            worker.process.terminate()
        worker.process.join(timeout=5)
        for thread in worker.senders:
            thread.join(timeout=5)
        worker.senders = [t for t in worker.senders if t.is_alive()]
        if not worker.senders:
            try:
                worker.connection.close()
            except OSError:  # pragma: no cover - already closed
                pass
        # else: abandon the connection unclosed — leaking one descriptor is
        # safer than letting a wedged sender write into a reused one.
        worker.process, worker.connection = self._spawn(worker.worker_id, worker.image_ids)
        worker.restarts += 1

    # ------------------------------------------------------------------
    # Scatter-gather
    # ------------------------------------------------------------------
    def execute_spec(self, spec: QuerySpec) -> Gather:
        """Scatter one spec to every worker and merge the gathered keys."""
        return self.execute_many([spec])[0]

    def execute_many(self, specs: Sequence[QuerySpec]) -> List[Gather]:
        """Pipeline many specs through every worker, preserving input order.

        Specs stream to the workers while responses are drained, so worker
        queues stay full (the per-worker queue depth the ``/stats`` block
        reports peaks at ``len(specs)``).  A scatter that fails permanently
        restarts every worker before the :class:`ShardWorkerError`
        propagates: the pool is always in a clean protocol state for the
        next query, never holding another batch's queued requests or
        buffered responses.
        """
        if self._closed:
            raise ShardWorkerError("the shard worker pool is closed")
        if not specs:
            return []
        with self._lock:
            started = time.perf_counter()
            try:
                responses = self._scatter_gather(specs)
            except BaseException:
                self._recover_after_failure()
                raise
            elapsed = time.perf_counter() - started
            with self._stats_lock:
                self._scatters += 1
                self._latency_total += elapsed
                self._latency_last = elapsed
                self._max_queue_depth = max(self._max_queue_depth, len(specs))
        return [
            merge_gather(
                spec,
                [responses[worker][index] for worker in range(len(self._workers))],
            )
            for index, spec in enumerate(specs)
        ]

    def _scatter_gather(
        self, specs: Sequence[QuerySpec]
    ) -> List[List[Dict[str, Any]]]:
        """Stream every spec to every worker while draining their responses.

        Sends run on one thread per worker (:meth:`_start_sender`) while
        this loop waits on *all* worker pipes at once
        (:func:`multiprocessing.connection.wait`).  The parent is therefore
        always ready to ``recv``, so a worker blocked writing a large
        response is drained even while its inbound pipe is still filling —
        the bounded OS pipe buffer (~64KiB each way) can never wedge both
        directions into a deadlock, no matter how large the batch or the
        ``QueryTrace`` payloads grow.

        A crashed worker (EOF/broken pipe) is restarted — budgeted by
        ``max_restarts`` — and its still-pending requests are replayed to
        the fresh process on a fresh pipe.
        """
        total = len(specs)
        items = list(enumerate(specs))
        responses: List[List[Optional[Dict[str, Any]]]] = [
            [None] * total for _ in self._workers
        ]
        pending = [set(range(total)) for _ in self._workers]
        restarts = [0] * len(self._workers)
        for worker in self._workers:
            worker.queue_depth = total
            worker.requests += total
            self._start_sender(worker, items)
        while True:
            waitable = {
                worker.connection: index
                for index, worker in enumerate(self._workers)
                if pending[index]
            }
            if not waitable:
                break
            for connection in connection_wait(list(waitable)):
                index = waitable[connection]
                worker = self._workers[index]
                try:
                    kind, request_id, payload = connection.recv()
                except (EOFError, OSError):
                    restarts[index] += 1
                    if restarts[index] > self._max_restarts:
                        raise ShardWorkerError(
                            f"shard worker {worker.worker_id} kept crashing "
                            f"({restarts[index] - 1} restarts); giving up"
                        )
                    self._restart(worker)
                    self._start_sender(
                        worker,
                        [(request_id, specs[request_id]) for request_id in sorted(pending[index])],
                    )
                    continue
                if kind == "error":
                    raise ShardWorkerError(
                        f"shard worker {worker.worker_id} failed: {payload}"
                    )
                if kind != "ok" or request_id not in pending[index]:
                    # Protocol guard: a malformed or duplicate response must
                    # never be attributed to another request id.
                    continue
                responses[index][request_id] = payload
                pending[index].discard(request_id)
                worker.queue_depth = len(pending[index])
                worker.cache = payload["cache"]
        return responses  # type: ignore[return-value]

    def _start_sender(self, worker: _Worker, items: List[Tuple[int, QuerySpec]]) -> None:
        """Stream ``items`` to ``worker`` from a dedicated daemon thread.

        A broken pipe simply ends the thread: the gather loop observes the
        same break as EOF on its side and drives the restart (the fresh
        connection gets a fresh sender).  The thread is registered on the
        worker so :meth:`_restart` can join it before closing — never
        while it might still write through — the connection it holds.
        """
        connection = worker.connection

        def _run() -> None:
            try:
                for request_id, spec in items:
                    connection.send(("spec", request_id, spec))
            except (OSError, ValueError):
                pass

        thread = threading.Thread(
            target=_run, name="repro-shard-sender", daemon=True
        )
        worker.senders = [t for t in worker.senders if t.is_alive()]
        worker.senders.append(thread)
        thread.start()

    def _recover_after_failure(self) -> None:
        """Reset every worker to a clean protocol state after an aborted scatter.

        When a gather raises, requests are still queued in worker inboxes and
        completed responses sit buffered in the parent-side pipes; left
        alone, the next scatter would consume responses whose request ids
        index a *different* spec list — silently wrong results.  Restarting
        every worker discards both pipe directions wholesale; the fresh
        processes answer from the engine they inherit, as the first ones did.
        """
        for worker in self._workers:
            try:
                self._restart(worker)
            except Exception:  # noqa: BLE001 - recovery must not mask the cause
                pass
            worker.queue_depth = 0

    # ------------------------------------------------------------------
    # Observability and lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """The ``/stats`` ``workers`` block: per-worker and scatter counters.

        Deliberately does **not** take the scatter mutex: a long in-flight
        batch must not stall the service ``/stats`` endpoint.  The scalar
        counters are read under their own lock; the per-worker fields are a
        best-effort point-in-time snapshot (each read is atomic under the
        GIL, so values are individually consistent, merely racy against an
        in-flight scatter).
        """
        with self._stats_lock:
            scatters = self._scatters
            latency_total = self._latency_total
            latency_last = self._latency_last
            max_queue_depth = self._max_queue_depth
        workers = [
            {
                "worker": worker.worker_id,
                "shards": len(worker.owned),
                "images": worker.images,
                "alive": worker.process.is_alive(),
                "restarts": worker.restarts,
                "requests": worker.requests,
                "queue_depth": worker.queue_depth,
            }
            for worker in self._workers
        ]
        caches = [worker.cache for worker in self._workers if worker.cache]
        mean_ms = latency_total / scatters * 1000.0 if scatters else 0.0
        return {
            "count": self.worker_count,
            "shard_count": self.shard_count,
            "scatters": scatters,
            "max_queue_depth": max_queue_depth,
            "scatter_latency_ms": {
                "last": round(latency_last * 1000.0, 3),
                "mean": round(mean_ms, 3),
            },
            "restarts": sum(worker.restarts for worker in self._workers),
            "workers": workers,
            "cache": {
                "hits": sum(cache.hits for cache in caches),
                "misses": sum(cache.misses for cache in caches),
                "size": sum(cache.size for cache in caches),
            },
        }

    def close(self) -> None:
        """Stop every worker: polite ``stop`` message, then terminate.

        Connections are closed only after the processes are down and the
        sender threads joined — the same fd-reuse discipline as
        :meth:`_restart`.
        """
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            try:
                worker.connection.send(("stop",))
            except (OSError, ValueError):
                pass
        for worker in self._workers:
            worker.process.join(timeout=2)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=2)
        # Dead workers have broken every pipe, so any sender still blocked
        # in a send has been released with EPIPE by now.
        for worker in self._workers:
            for thread in worker.senders:
                thread.join(timeout=2)
            worker.senders = [t for t in worker.senders if t.is_alive()]
            if not worker.senders:
                try:
                    worker.connection.close()
                except OSError:  # pragma: no cover - already closed
                    pass

    def __del__(self) -> None:  # pragma: no cover - interpreter-shutdown path
        try:
            self.close()
        except Exception:  # noqa: BLE001 - never raise from a finalizer
            pass
