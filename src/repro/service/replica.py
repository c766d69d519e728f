"""The replica daemon: a hot standby that tails the primary's write-ahead log.

``repro replica <dir>`` opens the same durable shard directory a
``repro serve --wal`` primary writes, *read-only*, and keeps a live engine
current by following the log (``docs/replication.md``):

* **warm start** -- the engine loads from the shard snapshot plus the
  replayed log tail (:meth:`RetrievalSystem.from_file`), exactly like the
  primary's own recovery path, so a replica boot costs O(snapshot + WAL
  delta) and starts at the acknowledged state.
* **tailing** -- a :class:`~repro.index.wal.WalTailer` polls ``wal.log``
  every follow interval and yields the intact records past the applied LSN;
  each upsert/delete is applied through the engine's mutation path, which
  takes the exclusive readers-writer grant and refreshes the shortlist
  signatures, inverted index, and score cache per record.  In-flight
  searches keep streaming off the shared grant throughout.
* **snapshot reload** -- when the primary compacts past the replica (the
  manifest's ``snapshot_lsn`` advances beyond the applied LSN, or the
  truncated log no longer reaches back to it), the replica rebuilds from
  the snapshot off to the side and :meth:`~RetrievalSystem.hot_swap`\\ s it
  in under the rwlock -- readers never observe a mix.
* **read surface, write fence** -- ``/search``, ``/batch``, ``/healthz``
  and ``/stats`` behave exactly like the primary's; mutations (and the
  admin writes ``/reload`` / ``/compact``) answer **403** naming the
  primary's address.  ``/stats`` gains a ``replication`` block: applied vs
  primary LSN, lag in records and seconds, snapshot reloads.
* **promotion** -- ``POST /promote`` drains the remaining log tail,
  detaches the follower, and attaches a live
  :class:`~repro.index.backends.DurableShardedStore`: the daemon becomes a
  writable durable primary (mutations ack after their log record's fsync,
  background compaction resumes).  Fence the old primary first -- two
  writers on one directory is an operator error the protocol cannot
  detect.

Convergence is proven the same way the durability tier was: the
fault-injection harness (``tools/faultinject.py --replica``) SIGKILLs the
primary and the replica at random points and asserts the recovered replica's
rankings are byte-identical to the primary's with zero acknowledged writes
lost, and benchmark E17 (``benchmarks/bench_replica.py``) asserts catch-up
cost scales with the WAL lag delta, not the database size.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.iconic.picture import SymbolicPicture
from repro.index.backends import durable_wal_state
from repro.index.database import DatabaseError
from repro.index.execution import ExecutionOptions
from repro.index.storage import StorageError
from repro.index.wal import WAL_NAME, WalRecord, WalTailer, WalTruncatedError
from repro.retrieval.system import RetrievalSystem
from repro.service.server import ApiError, RetrievalServer, RetrievalService

PathLike = Union[str, Path]


class ReplicaEngine:
    """A live engine kept current by tailing a durable directory's log.

    Owns the read-only relationship with the primary's directory: the warm
    start, the tail cursor (``applied_lsn``), record application, snapshot
    reloads, and the lag bookkeeping ``/stats`` reports.  All writes to the
    directory remain the primary's; this class only ever reads.

    Not internally locked: callers serialise :meth:`sync` / :meth:`drain` /
    :meth:`detach` (the service brackets them in its mutation lock).  The
    *engine* mutations each take the exclusive rwlock grant, so concurrent
    readers are always safe.
    """

    def __init__(
        self,
        path: PathLike,
        *,
        execution: Optional[ExecutionOptions] = None,
    ) -> None:
        """Warm-start a replica of the durable directory at ``path``.

        Raises:
            ValueError: if the target is not a durable sharded directory
                (no manifest ``wal`` block -- serve it once with ``--wal``
                or save it with ``durable=True`` first).
            StorageError: if the snapshot or log is unreadable.
            FileNotFoundError: if ``path`` does not exist.
        """
        self.path = Path(path)
        state = durable_wal_state(self.path)
        if state is None:
            raise ValueError(
                f"{self.path} is not a durable database (no write-ahead log); "
                "serve it with --wal once, or save it with durable=True"
            )
        # Read the position *before* loading: the load replays at least this
        # much, and replaying a record twice is idempotent, so undercounting
        # the cursor is always safe while overcounting never happens.
        self.applied_lsn = state["last_lsn"]
        self.system = RetrievalSystem.from_file(
            self.path, execution=execution, durable=True
        ).enable_concurrent_access()
        self._tailer = WalTailer(self.path / WAL_NAME, from_lsn=self.applied_lsn)
        self.primary_lsn = self.applied_lsn
        self.records_applied = 0
        self.snapshot_reloads = 0
        self.syncs = 0
        self._behind_since: Optional[float] = None
        self._detached = False

    # ------------------------------------------------------------------
    # Following
    # ------------------------------------------------------------------
    def sync(self) -> int:
        """Catch up with the primary's log once; returns LSNs advanced.

        One poll of the manifest and the log: applies every intact record
        past the cursor, or -- when the primary compacted past us -- reloads
        from the snapshot and hot-swaps the rebuilt engine in.  Cheap when
        caught up (a manifest read plus a zero-byte log read).

        Raises:
            StorageError: if the directory stops being a readable durable
                database mid-follow (the follower loop retries).
        """
        if self._detached:
            return 0
        state = durable_wal_state(self.path)
        if state is None:
            raise StorageError(f"{self.path} is no longer a durable database")
        self.syncs += 1
        if state["snapshot_lsn"] > self.applied_lsn:
            return self._observe(state, self._reload_snapshot())
        try:
            records = self._tailer.poll()
        except WalTruncatedError:
            return self._observe(state, self._reload_snapshot())
        for record in records:
            self._apply(record)
            self.applied_lsn = record.lsn
            self.records_applied += 1
        return self._observe(state, len(records))

    def drain(self) -> int:
        """Apply everything the log currently holds; returns LSNs advanced.

        The promotion path: loops :meth:`sync` until a pass makes no
        progress, so the detached engine starts from the primary's last
        acknowledged state (as of the moment the primary stopped writing).
        """
        advanced = 0
        while True:
            step = self.sync()
            if step == 0:
                return advanced
            advanced += step

    def detach(self) -> None:
        """Stop following: further :meth:`sync` calls become no-ops."""
        self._detached = True

    @property
    def detached(self) -> bool:
        """Whether the engine has been detached (promoted) from the log."""
        return self._detached

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    @property
    def lag_records(self) -> int:
        """Records the primary has acknowledged that we have not applied."""
        return max(0, self.primary_lsn - self.applied_lsn)

    @property
    def lag_seconds(self) -> float:
        """Seconds since the replica was last fully caught up (0 when it is)."""
        if self._behind_since is None:
            return 0.0
        return time.monotonic() - self._behind_since

    def replication_stats(self) -> Dict[str, Any]:
        """The ``replication`` block of the replica's ``/stats`` body."""
        return {
            "applied_lsn": self.applied_lsn,
            "primary_lsn": self.primary_lsn,
            "lag_records": self.lag_records,
            "lag_seconds": round(self.lag_seconds, 3),
            "records_applied": self.records_applied,
            "snapshot_reloads": self.snapshot_reloads,
            "syncs": self.syncs,
            "detached": self._detached,
        }

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _apply(self, record: WalRecord) -> None:
        """Apply one tailed record through the engine's mutation path.

        Upserts replace (remove-if-present, then add): byte-identical to the
        loader's replay semantics.  Deletes of unknown ids are ignored --
        replay overlap after a snapshot reload is expected and must be
        idempotent.

        Raises:
            StorageError: on an upsert entry that does not describe a scene
                (the log is intact -- CRC-checked -- so this means a
                writer/reader schema mismatch worth surfacing loudly).
        """
        try:
            self.system.remove_picture(record.image_id)
        except DatabaseError:
            pass
        if record.op != "upsert":
            return
        entry = record.entry or {}
        try:
            picture = SymbolicPicture.from_dict(entry["picture"])
        except (KeyError, TypeError, ValueError) as error:
            raise StorageError(
                f"{self.path}: write-ahead log record {record.lsn} "
                f"({record.image_id!r}) has a malformed entry: {error}"
            ) from error
        self.system.add_picture(picture, record.image_id)

    def _reload_snapshot(self) -> int:
        """Rebuild from the shard snapshot and hot-swap it in; LSNs advanced.

        The compaction-outran-us path: the log alone cannot close the gap,
        but the snapshot's manifest LSN covers it.  The rebuilt engine is
        swapped in under the shared rwlock, then a fresh tailer resumes at
        the snapshot floor (re-applying any log tail the load already
        replayed is idempotent).
        """
        before = self.applied_lsn
        state = durable_wal_state(self.path)
        if state is None:
            raise StorageError(f"{self.path} is no longer a durable database")
        replacement = RetrievalSystem.from_file(
            self.path,
            policy=self.system.policy,
            execution=self.system.execution,
            durable=True,
            minimum_signature_overlap=self.system.minimum_signature_overlap,
        )
        self.system.hot_swap(replacement)
        self.applied_lsn = max(self.applied_lsn, state["snapshot_lsn"])
        self._tailer = WalTailer(self.path / WAL_NAME, from_lsn=self.applied_lsn)
        self.snapshot_reloads += 1
        return self.applied_lsn - before

    def _observe(self, state: Dict[str, int], advanced: int) -> int:
        """Update lag bookkeeping after a sync pass; passes ``advanced`` through."""
        self.primary_lsn = max(state["last_lsn"], self.applied_lsn)
        if self.applied_lsn >= self.primary_lsn:
            self._behind_since = None
        elif self._behind_since is None:
            self._behind_since = time.monotonic()
        return advanced


class ReplicaService(RetrievalService):
    """The replica's HTTP core: full read surface, write fence, promotion.

    Subclasses :class:`RetrievalService` so ``/search``, ``/batch``,
    ``/healthz`` and ``/stats`` are byte-identical to the primary's, and
    overrides every write path to answer 403 with the primary's address
    until :meth:`promote` attaches a durable store and lifts the fence.
    A background follower thread calls :meth:`ReplicaEngine.sync` every
    ``follow_interval`` seconds (under the mutation lock, so promotion and
    catch-up never interleave).
    """

    def __init__(
        self,
        replica: ReplicaEngine,
        *,
        workers: int = 4,
        backlog: int = 16,
        follow_interval: float = 0.25,
        primary_url: Optional[str] = None,
        retry_after: float = 1.0,
        compact_threshold: int = 256,
    ) -> None:
        if follow_interval <= 0:
            raise ValueError("follow_interval must be positive")
        super().__init__(
            replica.system,
            workers=workers,
            backlog=backlog,
            database_path=replica.path,
            retry_after=retry_after,
            durable=False,
            compact_threshold=compact_threshold,
        )
        self.replica = replica
        self.follow_interval = follow_interval
        self.primary_url = primary_url
        self._sync_errors = 0
        self._follower: Optional[threading.Thread] = threading.Thread(
            target=self._follow_loop, name="repro-replica-follower", daemon=True
        )
        self._follower.start()

    # ------------------------------------------------------------------
    # Role
    # ------------------------------------------------------------------
    @property
    def role(self) -> str:
        """``"replica"`` until promotion, ``"primary"`` afterwards."""
        return "primary" if self.store is not None else "replica"

    def _reject_writes(self) -> None:
        """403 every write while still a replica, naming the primary."""
        if self.store is not None:
            return
        where = (
            f"the primary at {self.primary_url}"
            if self.primary_url
            else f"the primary serving {self.database_path}"
        )
        raise ApiError(403, f"read-only replica; write to {where}")

    # ------------------------------------------------------------------
    # Write fence (lifted by promotion)
    # ------------------------------------------------------------------
    def add_image(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """``POST /images``: 403 on a replica; durable insert after promotion."""
        self._reject_writes()
        return super().add_image(payload)

    def delete_image(self, image_id: str) -> Dict[str, Any]:
        """``DELETE /images/{id}``: 403 on a replica; durable after promotion."""
        self._reject_writes()
        return super().delete_image(image_id)

    def reload(self) -> Dict[str, Any]:
        """``POST /reload``: 403 on a replica (the follower already reloads)."""
        self._reject_writes()
        return super().reload()

    def compact(self) -> Dict[str, Any]:
        """``POST /compact``: 403 on a replica (compaction is the primary's)."""
        self._reject_writes()
        return super().compact()

    # ------------------------------------------------------------------
    # Promotion
    # ------------------------------------------------------------------
    def promote(self) -> Dict[str, Any]:
        """``POST /promote``: detach from the log and become a writable primary.

        Drains the remaining log tail (so no acknowledged write is left
        behind), detaches the follower, and attaches the store and compactor
        as a ``--wal`` primary does -- from here the daemon honours the full
        durable-primary contract.  The caller must have fenced the old
        primary; the directory now has exactly one writer again.

        Returns:
            The new role, the drained record count, and the log position;
            409 when already promoted.
        """
        with self._admitted():
            with self._mutation_lock:
                if self.store is not None:
                    raise ApiError(409, "already promoted to primary")
                try:
                    drained = self.replica.drain()
                    self.replica.detach()
                    self._attach_store()
                except StorageError as error:
                    raise ApiError(500, f"promotion failed: {error}") from error
            return {
                "role": self.role,
                "drained_records": drained,
                "applied_lsn": self.replica.applied_lsn,
                "last_lsn": self.store.last_lsn,
                "images": len(self.system),
            }

    # ------------------------------------------------------------------
    # Observability (role + replication block on top of the base body)
    # ------------------------------------------------------------------
    def healthz(self) -> Dict[str, Any]:
        """``GET /healthz``: the base liveness body plus the current role."""
        body = super().healthz()
        body["role"] = self.role
        return body

    def stats(self) -> Dict[str, Any]:
        """``GET /stats``: the base body plus the ``replication`` block."""
        body = super().stats()
        body["role"] = self.role
        body["replication"] = {
            **self.replica.replication_stats(),
            "follow_interval": self.follow_interval,
            "sync_errors": self._sync_errors,
            "primary_url": self.primary_url,
        }
        return body

    # ------------------------------------------------------------------
    # Follower lifecycle
    # ------------------------------------------------------------------
    def _follow_loop(self) -> None:
        """Background thread: tail the log every ``follow_interval`` seconds."""
        while not self._closed.wait(timeout=self.follow_interval):
            if self.store is not None or self.replica.detached:
                return
            try:
                with self._mutation_lock:
                    if self.store is None and not self.replica.detached:
                        self.replica.sync()
            except (StorageError, WalTruncatedError):
                # Transient (primary mid-swap, directory briefly unreadable):
                # count it and retry next interval.  Never kill the thread.
                self._sync_errors += 1

    def close(self) -> None:
        """Stop the follower (and, after promotion, the compactor/WAL)."""
        self._closed.set()
        if self._follower is not None:
            self._follower.join(timeout=5)
            self._follower = None
        super().close()


def create_replica_server(
    database_path: PathLike,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    workers: int = 4,
    backlog: int = 16,
    follow_interval: float = 0.25,
    primary_url: Optional[str] = None,
    compact_threshold: int = 256,
    execution: Optional[ExecutionOptions] = None,
) -> RetrievalServer:
    """Build a bound replica daemon over the durable directory.

    The ``repro replica`` entry point: warm-starts a
    :class:`ReplicaEngine`, wraps it in a :class:`ReplicaService` (follower
    thread included) and binds the standard HTTP server.  ``port=0`` binds
    an ephemeral port; ``primary_url`` is advertised in 403 rejections so
    misdirected writers know where to go.

    Returns:
        A bound :class:`RetrievalServer`; call ``serve_forever()`` or
        ``start_background()``.

    Raises:
        ValueError: if the target is not durable or a knob is out of range.
        StorageError: if the snapshot or log is unreadable.
        FileNotFoundError: if the directory does not exist.
        OSError: if the address cannot be bound.
    """
    replica = ReplicaEngine(database_path, execution=execution)
    service = ReplicaService(
        replica,
        workers=workers,
        backlog=backlog,
        follow_interval=follow_interval,
        primary_url=primary_url,
        compact_threshold=compact_threshold,
    )
    return RetrievalServer(service, host=host, port=port)
