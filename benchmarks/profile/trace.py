"""In-memory span tracer and the layer wrappers of the profile benchmark.

The benchmark measures each layer from outside the program: :func:`install`
replaces public functions and methods with wrappers that open a span around
the original call.  A name is patched where its callers look it up, so
``encode_picture`` is wrapped as bound in ``repro.index.query``,
``repro.index.batch`` and ``repro.index.database`` rather than only in
``repro.core.construct``.  Nothing under ``src/`` changes.

Every span has a name, a start, an end, a parent and the id of the operation
that caused it.  A span's *self time* is its duration minus the part of that
interval its child spans cover (children running in parallel threads are
merged, never double-subtracted).  Self times and call counts are summed per
span name as spans close, so memory stays bounded however long the run is;
only the first :data:`SPAN_SAMPLE_LIMIT` spans are kept verbatim for the
trace file.

Parenting across threads: a span opened on a thread with no open span of its
own is attached to the operation's innermost *hand-off* span (the engine
query, the batch scheduler, the HTTP client request, ...), because that is
the call that handed the work to the other thread -- the batch thread pool,
or the server's request thread.  Threads that work beside requests rather
than for them (the durable service's compactor, the asynchronous shard-pool
closer) open root spans.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Finished spans kept verbatim for the trace file (the rest are only summed).
SPAN_SAMPLE_LIMIT = 10000

#: Name of the root span the harness opens around every measured operation.
OP_SPAN = "op"

#: Spans that hand work to other threads; a span opened on a thread with no
#: span of its own becomes a child of the innermost of these.
HANDOFF_SPANS = frozenset({OP_SPAN, "server.http", "querybuilder", "query", "batch"})

#: Thread-name prefixes of threads that work beside operations, not for them.
BACKGROUND_THREADS = ("repro-compactor", "repro-shard-pool-close")


def covered(intervals: List[Tuple[float, float]], start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for low, high in sorted(intervals):
        low = max(low, reach)
        high = min(high, end)
        if high > low:
            total += high - low
            reach = high
    return total


class Span:
    """One open span; closed spans are folded into the tracer's totals."""

    __slots__ = ("id", "name", "start", "parent", "op", "children")

    def __init__(
        self, span_id: int, name: str, start: float, parent: Optional["Span"], op: Optional[int]
    ) -> None:
        self.id = span_id
        self.name = name
        self.start = start
        self.parent = parent
        self.op = op
        #: ``(start, end)`` of every closed child span.
        self.children: List[Tuple[float, float]] = []


class _ThreadState(threading.local):
    """Per-thread tracer state."""

    def __init__(self) -> None:
        #: Open recorded spans, innermost last.
        self.stack: List[Span] = []
        #: Depth of wrapped calls on this thread that run unrecorded.
        self.skipped = 0


class Tracer:
    """Collects spans while :attr:`active` (the traced part of a run)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: Whether wrapped calls open spans right now.
        self.active = False
        self._thread = _ThreadState()
        self._lock = threading.Lock()
        #: Span stack of the thread running the current operation.
        self._op_stack: Optional[List[Span]] = None
        self._op: Optional[int] = None
        self._ids = itertools.count()
        self.reset()
        # Forked shard workers inherit the wrappers (and the forking thread's
        # open spans); their spans could never reach this process, so every
        # child starts with tracing off and no open span.
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.active = False
        self._thread = _ThreadState()

    def reset(self) -> None:
        """Forget every recorded span (set-up spans are dropped this way)."""
        with self._lock:
            #: Summed self time (seconds) per span name.
            self.self_seconds: Dict[str, float] = {}
            #: Summed duration (seconds) per span name, children included.
            self.total_seconds: Dict[str, float] = {}
            #: Closed spans per span name.
            self.calls: Dict[str, int] = {}
            #: Summed probe amounts (bytes written, ...) per probe name.
            self.amounts: Dict[str, float] = {}
            #: The first closed spans: ``[id, name, start, end, parent id, op]``.
            self.spans: List[list] = []
            #: Traced operations and their summed duration (seconds).
            self.ops = 0
            self.op_seconds = 0.0

    def records(self) -> bool:
        """Whether a wrapped call on the calling thread opens a span now.

        Calls inside a recorded span are always recorded and calls inside an
        unrecorded one never are, so a call is traced whole or not at all,
        even when it straddles the moment tracing starts.
        """
        state = self._thread
        return bool(state.stack) or (self.active and not state.skipped)

    @contextmanager
    def untraced(self) -> Iterator[None]:
        """Record nothing the calling thread does in the block (other threads go on)."""
        self._thread.skipped += 1
        try:
            yield
        finally:
            self._thread.skipped -= 1

    def _handoff_parent(self) -> Optional[Span]:
        op_stack = self._op_stack
        if op_stack is None or threading.current_thread().name.startswith(BACKGROUND_THREADS):
            return None
        for span in reversed(list(op_stack)):
            if span.name in HANDOFF_SPANS:
                return span
        return None

    def begin(self, name: str) -> Span:
        """Open a span on the calling thread."""
        stack = self._thread.stack
        parent = stack[-1] if stack else self._handoff_parent()
        span = Span(next(self._ids), name, self.clock(), parent, self._op)
        stack.append(span)
        return span

    def end(self, span: Span) -> Tuple[float, float]:
        """Close ``span``, the innermost open span of this thread.

        Returns:
            The span's duration and its self time, in seconds.
        """
        end = self.clock()
        stack = self._thread.stack
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        stack.pop()
        duration = end - span.start
        self_time = duration - covered(span.children, span.start, end)
        if span.parent is not None:
            span.parent.children.append((span.start, end))
        with self._lock:
            self.self_seconds[span.name] = self.self_seconds.get(span.name, 0.0) + self_time
            self.total_seconds[span.name] = self.total_seconds.get(span.name, 0.0) + duration
            self.calls[span.name] = self.calls.get(span.name, 0) + 1
            if len(self.spans) < SPAN_SAMPLE_LIMIT:
                parent = span.parent.id if span.parent is not None else None
                self.spans.append([span.id, span.name, span.start, end, parent, span.op])
        return duration, self_time

    def add(self, name: str, amount: float) -> None:
        """Add ``amount`` to a named probe total."""
        with self._lock:
            self.amounts[name] = self.amounts.get(name, 0.0) + amount

    @contextmanager
    def op(self, op_id: int) -> Iterator[None]:
        """Bracket one measured operation in a root span."""
        self._op = op_id
        self._op_stack = self._thread.stack
        span = self.begin(OP_SPAN)
        try:
            yield
        finally:
            duration, _ = self.end(span)
            self._op_stack = None
            self._op = None
            with self._lock:
                self.ops += 1
                self.op_seconds += duration


# ----------------------------------------------------------------------
# The wrapped public surface, layer by layer
# ----------------------------------------------------------------------
#: ``(span name, module, attribute)``: each public name the benchmark wraps,
#: at the module where its callers look it up.  ``Class.method`` attributes
#: are patched on the class.
WRAPPED: Tuple[Tuple[str, str, str], ...] = (
    ("construct", "repro.index.query", "encode_picture"),
    ("construct", "repro.index.batch", "encode_picture"),
    ("construct", "repro.index.database", "encode_picture"),
    ("similarity", "repro.index.query", "similarity"),
    ("similarity", "repro.index.query", "invariant_similarity"),
    ("similarity", "repro.index.batch", "similarity"),
    ("similarity", "repro.index.batch", "invariant_similarity"),
    ("lcskernel", "repro.index.query", "similarity_score"),
    ("lcskernel", "repro.index.query", "invariant_similarity_score"),
    ("inverted", "repro.index.inverted", "InvertedSymbolIndex.candidates"),
    ("inverted", "repro.index.inverted", "InvertedSymbolIndex.images_with_label"),
    ("shortlist", "repro.index.shortlist", "QuerySignature.__init__"),
    ("shortlist", "repro.index.shortlist", "QuerySignature.overlap_upper_bound"),
    ("shortlist", "repro.index.shortlist", "QuerySignature.exact_overlap"),
    ("shortlist", "repro.index.shortlist", "QuerySignature.score_upper_bound"),
    ("shortlist", "repro.index.query", "signature_for"),
    ("cache", "repro.index.cache", "ScoreCache.get"),
    ("cache", "repro.index.cache", "ScoreCache.put"),
    ("ranking", "repro.index.query", "rank_results"),
    ("ranking", "repro.index.batch", "rank_results"),
    ("query", "repro.index.query", "QueryEngine.execute_spec"),
    ("query", "repro.index.query", "QueryEngine.execute_traced"),
    ("query", "repro.index.query", "QueryEngine.run_batch"),
    ("querybuilder", "repro.retrieval.querybuilder", "QueryBuilder.execute"),
    ("predicates", "repro.retrieval.predicates", "evaluate_predicates"),
    ("predicates", "repro.retrieval.predicates", "evaluate_tree"),
    ("batch", "repro.index.batch", "BatchQueryEngine.run_detailed"),
    ("workers.start", "repro.index.workers", "ShardWorkerPool.__init__"),
    ("workers.scatter", "repro.index.workers", "ShardWorkerPool.execute_many"),
    ("workers.close", "repro.index.workers", "ShardWorkerPool.close"),
    # The pool's ``stats()`` forgets a closed pool's restarts, and the
    # service closes its pool after every write; counting the restart calls
    # themselves sees every pool.
    ("workers.restart", "repro.index.workers", "ShardWorkerPool._restart"),
    ("wal.append", "repro.index.wal", "WriteAheadLog.append"),
    ("wal.truncate", "repro.index.wal", "WriteAheadLog.truncate_through"),
    ("backends.load", "repro.retrieval.system", "load_database_from"),
    ("backends.compact", "repro.index.backends", "DurableShardedStore.compact"),
    ("backends.log", "repro.index.backends", "DurableShardedStore.log_upsert"),
    ("backends.log", "repro.index.backends", "DurableShardedStore.log_delete"),
    ("rwlock.read", "repro.service.rwlock", "ReadWriteLock.acquire_read"),
    ("rwlock.write", "repro.service.rwlock", "ReadWriteLock.acquire_write"),
    ("server.dispatch", "repro.service.server", "RetrievalService.dispatch"),
    ("server.http", "repro.service.client", "ServiceClient.request"),
)


def _directory_state(path) -> Dict[str, Tuple[int, int]]:
    state = {}
    for entry in os.scandir(path):
        if entry.is_file():
            info = entry.stat()
            state[entry.name] = (info.st_size, info.st_mtime_ns)
    return state


def _wal_bytes(log, call: Callable[[], Any]) -> Tuple[Any, float]:
    """Run one WAL append; returns its result and the bytes it added."""
    before = os.path.getsize(log.path)
    result = call()
    return result, os.path.getsize(log.path) - before


def _compaction_bytes(store, call: Callable[[], Any]) -> Tuple[Any, float]:
    """Run one compaction; returns its result and the bytes of every file it rewrote."""
    before = _directory_state(store.path)
    result = call()
    written = sum(
        size
        for name, (size, mtime) in _directory_state(store.path).items()
        if before.get(name) != (size, mtime)
    )
    return result, written


#: Span name -> ``(probe name, probe)``: a probe runs the wrapped call and
#: also returns an amount to add to the probe total.
PROBES: Dict[str, Tuple[str, Callable]] = {
    "wal.append": ("bytes_written", _wal_bytes),
    "backends.compact": ("bytes_written", _compaction_bytes),
}


def _wrap(tracer: Tracer, name: str, function: Callable) -> Callable:
    probe = PROBES.get(name)

    @functools.wraps(function)
    def traced(*args, **kwargs):
        if not tracer.records():
            state = tracer._thread
            state.skipped += 1
            try:
                return function(*args, **kwargs)
            finally:
                state.skipped -= 1
        span = tracer.begin(name)
        try:
            if probe is None:
                return function(*args, **kwargs)
            probe_name, measure = probe
            result, amount = measure(args[0], lambda: function(*args, **kwargs))
            tracer.add(probe_name, amount)
            return result
        finally:
            tracer.end(span)

    return traced


def install(tracer: Tracer) -> None:
    """Wrap every name in :data:`WRAPPED`, for the rest of the process's life."""
    for name, module_name, attribute in WRAPPED:
        owner: Any = importlib.import_module(module_name)
        if "." in attribute:
            class_name, attribute = attribute.split(".")
            owner = getattr(owner, class_name)
        setattr(owner, attribute, _wrap(tracer, name, getattr(owner, attribute)))


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
def counter_snapshot(system) -> Dict[str, int]:
    """The engine's cumulative counters, read through the public statistics API."""
    execution = system.execution_statistics()
    shortlist = system.shortlist_statistics()
    cache = system.cache_statistics()
    predicates = system.predicate_statistics()
    return {
        "execution.admitted": execution.admitted,
        "execution.examined": execution.examined,
        "shortlist.candidates": shortlist.candidates,
        "shortlist.admitted": shortlist.admitted,
        "shortlist.bitmap_rejected": shortlist.bitmap_rejected,
        "shortlist.relation_rejected": shortlist.relation_rejected,
        "cache.hits": cache.hits,
        "cache.misses": cache.misses,
        "cache.evictions": cache.evictions,
        "predicates.evaluated": predicates.evaluated,
        "predicates.pruned": predicates.pruned,
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    tracer: Tracer,
    counters: Dict[str, float],
    traced_writes: int,
    load_ms: float,
    trace_overhead: float,
) -> Dict[str, float]:
    """Every per-layer metric, normalised per traced operation.

    ``counters`` holds the summed per-operation deltas of
    :func:`counter_snapshot` (plus the ``batch.*`` report fields) over the
    traced operations; ``load_ms`` is the mean ``load_database_from`` time of
    the set-up phase, the one layer metric taken per load rather than per op.
    """
    ops = max(tracer.ops, 1)

    def self_ms(*names: str) -> float:
        return sum(tracer.self_seconds.get(name, 0.0) for name in names) * 1000.0 / ops

    def calls(name: str) -> float:
        return tracer.calls.get(name, 0) / ops

    def count(name: str) -> float:
        return counters.get(name, 0)

    return {
        "construct.calls": calls("construct"),
        "construct.self_ms": self_ms("construct"),
        "similarity.calls": calls("similarity"),
        "similarity.self_ms": self_ms("similarity"),
        "similarity.share": _ratio(tracer.self_seconds.get("similarity", 0.0), tracer.op_seconds),
        "lcskernel.calls": calls("lcskernel"),
        "lcskernel.self_ms": self_ms("lcskernel"),
        "inverted.self_ms": self_ms("inverted"),
        "shortlist.self_ms": self_ms("shortlist"),
        "shortlist.admit_ratio": _ratio(
            count("shortlist.admitted"), count("shortlist.candidates")
        ),
        "shortlist.bitmap_rejected": count("shortlist.bitmap_rejected") / ops,
        "shortlist.relation_rejected": count("shortlist.relation_rejected") / ops,
        "execution.examined_fraction": _ratio(
            count("execution.examined"), count("execution.admitted")
        ),
        "cache.hit_rate": _ratio(count("cache.hits"), count("cache.hits") + count("cache.misses")),
        "cache.evictions": count("cache.evictions") / ops,
        "cache.self_ms": self_ms("cache"),
        "ranking.self_ms": self_ms("ranking"),
        "query.self_ms": self_ms("query"),
        "querybuilder.self_ms": self_ms("querybuilder"),
        "predicates.self_ms": self_ms("predicates"),
        "predicates.pruned_fraction": _ratio(
            count("predicates.pruned"), count("predicates.evaluated") + count("predicates.pruned")
        ),
        "batch.self_ms": self_ms("batch"),
        "batch.unique_ratio": _ratio(count("batch.unique"), count("batch.queries")),
        "batch.cache_hit_rate": _ratio(count("batch.cache_hits"), count("batch.considered")),
        "workers.scatter_ms": self_ms("workers.scatter"),
        "workers.pool_starts": calls("workers.start"),
        "workers.pool_start_ms": self_ms("workers.start"),
        "workers.restarts": calls("workers.restart"),
        "wal.append_ms": self_ms("wal.append"),
        "wal.appends": calls("wal.append"),
        "backends.load_ms": load_ms,
        "backends.compactions": calls("backends.compact"),
        "backends.compact_ms": self_ms("backends.compact", "wal.truncate"),
        "backends.bytes_written_per_write": _ratio(
            tracer.amounts.get("bytes_written", 0.0), traced_writes
        ),
        "rwlock.read_wait_ms": self_ms("rwlock.read"),
        "rwlock.write_wait_ms": self_ms("rwlock.write"),
        "server.dispatch_self_ms": self_ms("server.dispatch"),
        "server.http_ms": self_ms("server.http"),
        "trace_overhead": trace_overhead,
        "unattributed_share": _ratio(tracer.self_seconds.get(OP_SPAN, 0.0), tracer.op_seconds),
    }
