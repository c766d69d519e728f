"""The four seeded workloads: inputs made in the parent, runners in the child.

Inputs (corpus, query stream, scenes to insert) come only from the seed and
are generated by the parent process (:func:`make_inputs`); the engine sees
them through its public API in a fresh child interpreter
(:mod:`benchmarks.profile.child`), which runs one of :data:`RUNNERS`.

Every run is one closed-loop client: the next request is sent only after the
previous reply, from one thread, over at most one connection at a time.
Every workload uses the engine's default execution options, which is what
library and ``repro serve`` users get.

A run measures for a set number of seconds, so its statistics rest on as
many operations as fit.  With 64 labels almost every stored scene shares a
label with a query, so a similarity miss scores nearly the whole corpus with
the reference dynamic program.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import random
import statistics
import threading
import time
import traceback
from collections import deque
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional

from benchmarks.profile.report import percentile
from benchmarks.profile.trace import Tracer, counter_snapshot, layer_metrics
from repro.datasets.synthetic import SceneParameters, random_pictures
from repro.iconic.picture import SymbolicPicture
from repro.index.execution import ExecutionOptions
from repro.retrieval.system import RetrievalSystem

#: Objects per scene, in the corpus and in every query scene.
OBJECTS = 8
#: Results per similarity read (``limit(10)``).
TOP_K = 10
#: ``(images, labels)`` of each workload's corpus.
SIZES = {
    "topk-unique": (1000, 64),
    "mixed-zipf": (1000, 64),
    "batch-dedup": (500, 64),
    "service-rw": (1000, 256),
}
#: ``(images, labels)`` of every corpus under ``--smoke``.
SMOKE_SIZE = (60, 48)
#: Timed set-ups per run; ``setup_s`` is their median.  One set-up takes
#: 0.5-0.8 s (1.1-1.6 s served); seven keep a whole run of all four
#: workloads near two minutes.
SETUPS = 7
#: Every this-many-th read is re-run through :data:`ORACLE`.
ORACLE_EVERY = 10
#: The reference execution every checked read must match byte for byte.
ORACLE = ExecutionOptions(
    kernel="reference", strategy="exhaustive", cache=False, executor="serial"
)
#: Reads folded into ``rankings_sha256``: a prefix every run completes, so
#: two runs of one seed can be diffed however far each got.
RANKING_READS = 10
#: Relations the generated ``where`` clauses use.
RELATIONS = ("left-of", "right-of", "above", "below", "overlaps")

#: Spec classes of the mixed-zipf pool and how many of each.
MIXED_POOL = (
    ("exact", 18),
    ("invariant", 4),
    ("partial", 6),
    ("where", 8),
    ("graded", 6),
    ("combined", 6),
)
#: Zipf exponent of the mixed-zipf request stream.
ZIPF_EXPONENT = 1.1
#: Op kinds of the service-rw stream and their shares.
SERVICE_MIX = (("search", 65), ("where", 5), ("insert", 15), ("delete", 15))
#: ``repro serve DIR --wal --wal-compact-every 32 --shard-workers 2``.
COMPACT_EVERY = 32
SHARD_WORKERS = 2


# ----------------------------------------------------------------------
# Input generation (parent process)
# ----------------------------------------------------------------------
def _near_duplicates(rng: random.Random, corpus: List[SymbolicPicture], count: int) -> List[dict]:
    """``count`` distinct specs, each a stored scene with one object dropped."""
    slots = rng.sample(range(len(corpus) * OBJECTS), min(count, len(corpus) * OBJECTS))
    specs = []
    for slot in slots:
        picture = corpus[slot // OBJECTS]
        specs.append({"like": picture.name, "drop": picture.identifiers[slot % OBJECTS]})
    return specs


def _predicate(rng: random.Random, picture: SymbolicPicture) -> str:
    first, second = rng.sample(picture.icons, 2)
    return f"{first.label} {rng.choice(RELATIONS)} {second.label}"


def _mixed_spec(rng: random.Random, corpus: List[SymbolicPicture], kind: str) -> dict:
    picture = rng.choice(corpus)
    if kind == "exact":
        return _near_duplicates(rng, [picture], 1)[0]
    if kind == "invariant":
        spec = _near_duplicates(rng, [picture], 1)[0]
        return dict(spec, rotate=True, invariant=True)
    if kind == "partial":
        return {"like": picture.name, "partial": rng.sample(picture.identifiers, 4)}
    if kind == "where":
        return {"where": f"{_predicate(rng, picture)} and {_predicate(rng, picture)}"}
    if kind == "graded":
        return {
            "where": f"{_predicate(rng, picture)} or not {_predicate(rng, rng.choice(corpus))}",
            "fuzzy": True,
        }
    spec = _near_duplicates(rng, [picture], 1)[0]
    kept = picture.remove_icon(spec["drop"])
    return dict(spec, where=_predicate(rng, kept))


def _mixed_stream(rng: random.Random, corpus: List[SymbolicPicture], count: int) -> dict:
    """The mixed-zipf pool in a seeded order, and ``count`` Zipf draws of pool indices.

    Pool index ``r`` has Zipf rank ``r + 1``.
    """
    pool = [_mixed_spec(rng, corpus, kind) for kind, size in MIXED_POOL for _ in range(size)]
    rng.shuffle(pool)
    weights = [(rank + 1) ** -ZIPF_EXPONENT for rank in range(len(pool))]
    return {"pool": pool, "schedule": rng.choices(range(len(pool)), weights=weights, k=count)}


def _service_ops(rng: random.Random, corpus: List[SymbolicPicture], count: int) -> List[dict]:
    """``count`` ops drawn from :data:`SERVICE_MIX`.

    Each delete removes the oldest insert still stored; a delete drawn while
    none is stored becomes an insert.
    """
    kinds, weights = zip(*SERVICE_MIX)
    ops: List[dict] = []
    stored: deque = deque()
    inserted = 0
    for kind in rng.choices(kinds, weights=weights, k=count):
        if kind == "delete" and not stored:
            kind = "insert"
        if kind == "search":
            ops.append({"op": "search", "spec": _near_duplicates(rng, corpus, 1)[0]})
        elif kind == "where":
            ops.append({"op": "search", "spec": {"where": _predicate(rng, rng.choice(corpus))}})
        elif kind == "insert":
            ops.append({"op": "insert", "scene": inserted, "id": f"new-{inserted:05d}"})
            stored.append(f"new-{inserted:05d}")
            inserted += 1
        else:
            ops.append({"op": "delete", "id": stored.popleft()})
    return ops


def make_inputs(workload: str, seed: int, smoke: bool, directory: Path) -> dict:
    """Generate one workload's corpus and op stream from ``seed`` into ``directory``.

    The corpus is saved through the public API: a JSON database for the
    in-process workloads, a durable sharded directory for ``service-rw``.

    Returns:
        The JSON-serialisable inputs the child runner reads.
    """
    rng = random.Random(f"{workload}:{seed}")
    images, labels = SMOKE_SIZE if smoke else SIZES[workload]
    parameters = SceneParameters(
        object_count=OBJECTS,
        labels=tuple(f"c{index:04d}" for index in range(labels)),
        label_choice="random",
    )
    corpus = random_pictures(images, seed=rng, parameters=parameters, name_prefix="img")
    inputs: dict = {"workload": workload, "images": images}
    # Each stream is longer than any run gets through.
    if workload == "topk-unique":
        inputs["queries"] = _near_duplicates(rng, corpus, 1000)
    elif workload == "mixed-zipf":
        inputs.update(_mixed_stream(rng, corpus, 30000))
    elif workload == "batch-dedup":
        calls = []
        unique = _near_duplicates(rng, corpus, 6 * 300)
        for start in range(0, len(unique) - 5, 6):
            distinct = unique[start : start + 6]
            call = distinct + rng.sample(distinct, 2)
            rng.shuffle(call)
            calls.append(call)
        inputs["calls"] = calls
    else:
        inputs["ops"] = _service_ops(rng, corpus, 200 if smoke else 3000)
        inserts = sum(op["op"] == "insert" for op in inputs["ops"])
        fresh = random_pictures(inserts, seed=rng, parameters=parameters, name_prefix="new")
        inputs["fresh"] = [picture.to_dict() for picture in fresh]
    system = RetrievalSystem.from_pictures(corpus)
    if workload == "service-rw":
        path = system.save(directory / "corpus.shards", backend="sharded", durable=True)
    else:
        path = system.save(directory / "corpus.json")
    inputs["corpus"] = str(path)
    return inputs


# ----------------------------------------------------------------------
# Query construction (child process)
# ----------------------------------------------------------------------
def resolve_picture(system: RetrievalSystem, spec: dict) -> Optional[SymbolicPicture]:
    """The query scene a spec names, derived from a stored scene (``None`` for ``where`` only)."""
    if "like" not in spec:
        return None
    picture = system.record(spec["like"]).picture
    if "drop" in spec:
        picture = picture.remove_icon(spec["drop"])
    if spec.get("rotate"):
        picture = picture.rotate90()
    return picture


def build_query(system: RetrievalSystem, spec: dict, picture: Optional[SymbolicPicture]):
    """The fluent builder a library user would write for ``spec``."""
    query = system.query(picture)
    if "partial" in spec:
        query.partial(spec["partial"])
    if spec.get("invariant"):
        query.invariant()
    if "where" in spec:
        query.where(spec["where"], fuzzy=spec.get("fuzzy", False))
    return query.limit(TOP_K)


def search_arguments(spec: dict, picture: Optional[SymbolicPicture]) -> dict:
    """The ``ServiceClient.search`` keywords of ``spec``."""
    return {
        "scene": picture.to_dict() if picture is not None else None,
        "identifiers": spec.get("partial"),
        "invariant": bool(spec.get("invariant")),
        "where": spec.get("where"),
        "fuzzy": bool(spec.get("fuzzy")),
        "limit": TOP_K,
    }


def oracle_rows(system: RetrievalSystem, spec: dict, picture: Optional[SymbolicPicture]) -> list:
    """The ranking of ``spec`` under the reference execution."""
    return build_query(system, spec, picture).execution(ORACLE).execute().to_dicts()


def canonical(rows: list) -> str:
    """The byte form two rankings are compared and hashed in."""
    return json.dumps(rows, sort_keys=True)


# ----------------------------------------------------------------------
# The measured phase
# ----------------------------------------------------------------------
class Measurement:
    """Closed-loop bookkeeping: latencies, failures, pauses, gates and tracing.

    Time spent in oracle re-runs, hashing and counter snapshots is paused:
    it counts towards neither latencies nor ``--seconds``, and is never
    traced.  With a tracer, the first half of the measured seconds runs
    untraced and the second half traced, so one run yields both latencies
    (their ratio is ``trace_overhead``).  Tracing stays on between the
    traced operations: background threads (the compactor, the shard-pool
    closer) start their work after the request that caused it has returned.
    """

    def __init__(self, seconds: float, tracer: Optional[Tracer]) -> None:
        self.seconds = seconds
        self.tracer = tracer
        #: ``(measured seconds at completion, latency)`` of every read.
        self.reads: List[tuple] = []
        self.writes: List[float] = []
        self.traced_reads: List[float] = []
        self.untraced_reads: List[float] = []
        self.traced_writes = 0
        #: Queries answered by reads (a batch read answers every spec in it).
        self.read_queries = 0
        self.read_seconds = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.counters: Dict[str, float] = {}
        self.checked = 0
        self.mismatches: List[str] = []
        self._digest = hashlib.sha256()
        self.hashed = 0
        self._paused = 0.0
        self._started = time.perf_counter()

    def start(self) -> None:
        """Start the measured clock."""
        self._paused = 0.0
        self._started = time.perf_counter()

    def elapsed(self) -> float:
        """Measured seconds so far (pauses excluded)."""
        return time.perf_counter() - self._started - self._paused

    def wants_more(self) -> bool:
        """Whether the loop should issue another op."""
        return self.elapsed() < self.seconds

    def finish_reads(self) -> None:
        """Close the measured phase (``read_ops_per_s`` is taken over it)."""
        self.read_seconds = self.elapsed()
        if self.tracer is not None:
            self.tracer.active = False

    @contextmanager
    def pause(self) -> Iterator[None]:
        """Stop the measured clock, and tracing on this thread, for the enclosed block."""
        started = time.perf_counter()
        try:
            with self.tracer.untraced() if self.tracer is not None else nullcontext():
                yield
        finally:
            self._paused += time.perf_counter() - started

    def _run(self, action: Callable, system, report: Optional[Callable[[], dict]]):
        """Time one op; returns ``(result, latency, traced)`` or ``None`` on failure."""
        index = self.attempted
        self.attempted += 1
        traced = self.tracer is not None and self.elapsed() >= self.seconds / 2
        if traced:
            self.tracer.active = True
            with self.pause():
                before = counter_snapshot(system)
        started = time.perf_counter()
        try:
            with self.tracer.op(index) if traced else nullcontext():
                result = action()
            latency = time.perf_counter() - started
        except Exception:  # noqa: BLE001 - an op failure is counted, the run goes on
            self.failed += 1
            if len(self.errors) < 3:
                self.errors.append(traceback.format_exc(limit=4))
            return None
        if traced:
            with self.pause():
                after = counter_snapshot(system)
                deltas = {name: after[name] - before[name] for name in after}
                deltas.update(report() if report is not None else {})
                for name, value in deltas.items():
                    self.counters[name] = self.counters.get(name, 0) + value
        return result, latency, traced

    def read(self, action: Callable, system, queries: int = 1, report=None):
        """Run one timed read; returns its result, or ``None`` if it failed."""
        outcome = self._run(action, system, report)
        if outcome is None:
            return None
        result, latency, traced = outcome
        self.reads.append((self.elapsed(), latency))
        self.read_queries += queries
        if self.tracer is not None:
            (self.traced_reads if traced else self.untraced_reads).append(latency)
        return result

    def write(self, action: Callable, system) -> bool:
        """Run one timed write; returns whether it was acknowledged."""
        outcome = self._run(action, system, None)
        if outcome is None:
            return False
        _, latency, traced = outcome
        self.writes.append(latency)
        self.traced_writes += traced
        return True

    def verify(self, produced: Callable[[], list], expected: Callable[[], list]) -> None:
        """Hash the latest read into ``rankings_sha256`` and, every
        :data:`ORACLE_EVERY` reads, compare it with the oracle byte for byte."""
        index = len(self.reads) - 1
        check = index % ORACLE_EVERY == 0
        if not check and self.hashed >= RANKING_READS:
            return
        with self.pause():
            text = canonical(produced())
            if self.hashed < RANKING_READS:
                self._digest.update(text.encode("utf-8") + b"\n")
                self.hashed += 1
            if check:
                self.checked += 1
                if canonical(expected()) != text:
                    self.mismatches.append(f"read {index}")

    def result(
        self, workload: str, setups: List[float], rss_mb: float, gates: Dict[str, str],
        load_ms: float = 0.0,
    ) -> dict:
        """The run's raw result: metrics, sample counts, gates and spans."""
        reads_ms = [latency * 1000.0 for _, latency in self.reads]
        writes_ms = [latency * 1000.0 for latency in self.writes]
        gates = dict(gates, oracle_checked=self.checked, oracle_mismatches=self.mismatches)
        correct = not self.mismatches and all(
            verdict == "ok" for name, verdict in gates.items()
            if name not in ("oracle_checked", "oracle_mismatches")
        ) and self.checked > 0
        result = {
            "workload": workload,
            "trace": self.tracer is not None,
            "correct": correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors,
            "gates": gates,
            "rankings_sha256": self._digest.hexdigest(),
            "rankings_reads": self.hashed,
            "measured_seconds": self.read_seconds,
        }
        # Printed and recorded, but not regression-gated: from run to run on
        # a shared host they spread wider than the 10% bound (see README.md).
        result["extra"] = {
            "read_p50_ms": _stat(statistics.median(reads_ms), "ms", len(reads_ms)),
            "read_p90_ms": _stat(percentile(reads_ms, 0.9), "ms", len(reads_ms)),
            "read_ops_per_s": _stat(
                self.read_queries / self.read_seconds, "1/s", self.read_queries
            ),
            "failed_frac": _stat(self.failed / max(self.attempted, 1), "ratio", self.attempted),
        }
        if writes_ms:
            result["extra"]["write_p50_ms"] = _stat(statistics.median(writes_ms), "ms", len(writes_ms))
            result["extra"]["write_p90_ms"] = _stat(percentile(writes_ms, 0.9), "ms", len(writes_ms))
        if self.tracer is None:
            result["metrics"] = {"setup_s": statistics.median(setups), "rss_mb": rss_mb}
            result["samples"] = {"setup_s": len(setups), "rss_mb": 1}
            result["read_samples"] = [
                [round(at, 6), round(latency, 7)] for at, latency in self.reads
            ]
            return result
        tracer = self.tracer
        overhead = 0.0
        if self.traced_reads and self.untraced_reads:
            traced, untraced = self.traced_reads, self.untraced_reads
            overhead = statistics.median(traced) / statistics.median(untraced) - 1
        result["metrics"] = layer_metrics(
            tracer, self.counters, self.traced_writes, load_ms, overhead
        )
        result["samples"] = {name: tracer.ops for name in result["metrics"]}
        result["samples"]["trace_overhead"] = len(self.traced_reads) + len(self.untraced_reads)
        result["traced_ops"] = tracer.ops
        result["spans"] = {
            name: {
                "calls": tracer.calls[name],
                "self_ms": tracer.self_seconds[name] * 1000.0,
                "total_ms": tracer.total_seconds[name] * 1000.0,
            }
            for name in tracer.calls
        }
        result["span_sample"] = tracer.spans
        return result


def _stat(value: Optional[float], unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def rss_mb() -> float:
    """Resident set size of this process (``VmRSS``), in MiB."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmRSS missing from /proc/self/status")


def _timed_setups(
    count: int,
    start: Callable[[], object],
    stop: Callable[[object], None],
    tracer: Optional[Tracer],
):
    """Run ``start`` ``count`` times, stopping each instance but the last.

    Returns:
        The set-up timings, the last instance, and the mean
        ``load_database_from`` time in ms when traced (the set-up spans are
        then cleared, so they never count towards per-op metrics).
    """
    timings = []
    instance = None
    for _ in range(count):
        if instance is not None:
            stop(instance)
        if tracer is not None:
            tracer.active = True
        started = time.perf_counter()
        instance = start()
        timings.append(time.perf_counter() - started)
        if tracer is not None:
            tracer.active = False
    load_ms = 0.0
    if tracer is not None:
        calls = tracer.calls.get("backends.load", 0)
        load_ms = tracer.total_seconds.get("backends.load", 0.0) * 1000.0 / max(calls, 1)
        tracer.reset()
    return timings, instance, load_ms


# ----------------------------------------------------------------------
# In-process (library) workloads
# ----------------------------------------------------------------------
def _read_topk_unique(system: RetrievalSystem, inputs: dict, run: Measurement) -> None:
    run.start()
    for spec in inputs["queries"]:
        if not run.wants_more():
            break
        with run.pause():
            picture = resolve_picture(system, spec)
        results = run.read(lambda: build_query(system, spec, picture).execute(), system)
        if results is not None:
            run.verify(results.to_dicts, lambda: oracle_rows(system, spec, picture))
    run.finish_reads()


def _read_mixed_zipf(system: RetrievalSystem, inputs: dict, run: Measurement) -> None:
    pool = inputs["pool"]
    pictures = [resolve_picture(system, spec) for spec in pool]
    # Warm the score cache: a long-running engine serves this mix from a
    # warm cache, and first sights of the 48 specs would otherwise dominate
    # a run of a few seconds (topk-unique measures the misses).
    for spec, picture in zip(pool, pictures):
        build_query(system, spec, picture).execute()
    # The database never changes during the reads, so one oracle ranking
    # per spec stands for a re-run on the same state.
    oracle: Dict[int, list] = {}

    def expected(index: int) -> list:
        if index not in oracle:
            oracle[index] = oracle_rows(system, pool[index], pictures[index])
        return oracle[index]

    run.start()
    for index in inputs["schedule"]:
        if not run.wants_more():
            break
        spec, picture = pool[index], pictures[index]
        results = run.read(lambda: build_query(system, spec, picture).execute(), system)
        if results is not None:
            run.verify(results.to_dicts, lambda: expected(index))
    run.finish_reads()


def _batch_report(system: RetrievalSystem) -> dict:
    report = system.last_batch_report
    return {
        "batch.queries": report.total_queries,
        "batch.unique": report.unique_evaluations,
        "batch.considered": report.candidates_considered,
        "batch.cache_hits": report.cache_hits,
    }


def _read_batch_dedup(system: RetrievalSystem, inputs: dict, run: Measurement) -> None:
    run.start()
    for call in inputs["calls"]:
        if not run.wants_more():
            break
        with run.pause():
            pictures = [resolve_picture(system, spec) for spec in call]
        results = run.read(
            lambda: system.query_batch(
                [build_query(system, spec, picture).spec() for spec, picture in zip(call, pictures)]
            ),
            system,
            queries=len(call),
            report=lambda: _batch_report(system),
        )
        if results is not None:
            run.verify(
                lambda: [ranking.to_dicts() for ranking in results],
                lambda: [oracle_rows(system, *pair) for pair in zip(call, pictures)],
            )
    run.finish_reads()


def _library_runner(read_phase: Callable[[RetrievalSystem, dict, Measurement], None]):
    def run_library(inputs: dict, tracer: Optional[Tracer]) -> dict:
        setups, system, load_ms = _timed_setups(
            1 if inputs["smoke"] else SETUPS,
            lambda: RetrievalSystem.from_file(inputs["corpus"]),
            lambda previous: None,
            tracer,
        )
        memory = rss_mb()
        run = Measurement(inputs["seconds"], tracer)
        read_phase(system, inputs, run)
        return run.result(inputs["workload"], setups, memory, {}, load_ms)

    return run_library


# ----------------------------------------------------------------------
# The served workload
# ----------------------------------------------------------------------
def _start_service(path: str):
    """``repro serve DIR --wal --wal-compact-every 32 --shard-workers 2``, in process."""
    from repro.service.client import ServiceClient
    from repro.service.server import create_server

    system = RetrievalSystem.from_file(path, durable=True)
    server = create_server(
        system,
        port=0,
        database_path=path,
        durable=True,
        compact_threshold=COMPACT_EVERY,
        shard_workers=SHARD_WORKERS,
    ).start_background()
    client = ServiceClient(port=server.port, timeout=60.0)
    client.wait_until_healthy(timeout=30.0)
    # The first search forks the shard pool and loads each worker's slice.
    first = system.record(system.image_ids[0]).picture
    client.search(scene=first.to_dict(), limit=TOP_K)
    return server, client


def _stop_service(started) -> None:
    server, _ = started
    server.close()
    # Pools retired by writes close on background threads; wait for them.
    for thread in threading.enumerate():
        if thread.name == "repro-shard-pool-close":
            thread.join(timeout=30.0)
    for child in multiprocessing.active_children():
        child.join(timeout=10.0)


def run_service_rw(inputs: dict, tracer: Optional[Tracer]) -> dict:
    setups, started, load_ms = _timed_setups(
        1 if inputs["smoke"] else SETUPS,
        lambda: _start_service(inputs["corpus"]),
        _stop_service,
        tracer,
    )
    memory = rss_mb()
    server, client = started
    system = server.service.system
    run = Measurement(inputs["seconds"], tracer)
    inserted: List[str] = []
    deleted: List[str] = []
    run.start()
    try:
        for op in inputs["ops"]:
            if not run.wants_more():
                break
            if op["op"] == "insert":
                scene = inputs["fresh"][op["scene"]]
                if run.write(lambda: client.images.add(scene, op["id"]), system):
                    inserted.append(op["id"])
            elif op["op"] == "delete":
                if run.write(lambda: client.images.delete(op["id"]), system):
                    deleted.append(op["id"])
            else:
                spec = op["spec"]
                with run.pause():
                    picture = resolve_picture(system, spec)
                    arguments = search_arguments(spec, picture)
                body = run.read(lambda: client.search(**arguments), system)
                if body is not None:
                    run.verify(lambda: body["results"], lambda: oracle_rows(system, spec, picture))
        run.finish_reads()
    finally:
        _stop_service(started)
    reloaded = set(RetrievalSystem.from_file(inputs["corpus"], durable=True).image_ids)
    kept = set(inserted) - set(deleted)
    durable = "ok"
    if not kept <= reloaded:
        durable = f"{len(kept - reloaded)} acknowledged inserts lost on reload"
    elif reloaded & set(deleted):
        durable = f"{len(reloaded & set(deleted))} acknowledged deletes undone on reload"
    elif len(reloaded) != inputs["images"] + len(kept):
        durable = f"reload holds {len(reloaded)} images"
    return run.result(inputs["workload"], setups, memory, {"durability": durable}, load_ms)


#: Workload name -> child-side runner.
RUNNERS = {
    "topk-unique": _library_runner(_read_topk_unique),
    "mixed-zipf": _library_runner(_read_mixed_zipf),
    "batch-dedup": _library_runner(_read_batch_dedup),
    "service-rw": run_service_rw,
}
