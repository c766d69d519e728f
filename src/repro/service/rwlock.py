"""A write-preferring, reentrant readers-writer lock.

The retrieval service serves many concurrent ``/search`` requests against one
shared :class:`~repro.index.query.QueryEngine`.  Queries only read, so they
may run fully in parallel -- but a mutation (add/remove picture, object-level
edit) must see no reader mid-flight: it rewrites the database record, the
inverted index, the shortlist signature *and* invalidates the score cache, and a
query overlapping that window could rank against a torn view (new record, stale
postings).  :class:`ReadWriteLock` provides exactly the two grants the engine
needs:

* :meth:`read_locked` -- shared; any number of threads hold it together.
* :meth:`write_locked` -- exclusive; waits for active readers to drain and
  blocks new ones from entering (write preference), so a steady query stream
  cannot starve mutations.

Both grants are *reentrant per thread*: the engine's public entry points nest
(``execute_spec`` -> ``execute_traced``),
and write preference would otherwise deadlock a thread re-acquiring its own
read grant while a writer queues behind it.  Lock *upgrades* (write while
holding only a read grant) deadlock by construction and raise ``RuntimeError``
instead; a writer may take nested read grants (downgrade-style reads are safe).

The lock is deliberately dependency-free so lower layers can hold one without
importing the service package; :class:`~repro.index.query.QueryEngine` defaults
to a no-op stand-in and :meth:`repro.retrieval.system.RetrievalSystem.enable_concurrent_access`
installs the real lock.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Iterator, Optional


class ReadWriteLock:
    """Write-preferring readers-writer lock with per-thread reentrancy."""

    def __init__(self) -> None:
        self._condition = threading.Condition()
        #: Thread ident -> number of read grants it currently holds.
        self._readers: Dict[int, int] = {}
        self._writer: Optional[int] = None
        self._writer_holds = 0
        self._writers_waiting = 0
        # Counters for /stats and the stress suite (guarded by _condition).
        self._read_acquisitions = 0
        self._write_acquisitions = 0

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------
    def acquire_read(self, timeout: Optional[float] = None) -> bool:
        """Take a shared grant; returns ``False`` only on timeout.

        Reentrant: a thread already holding a read or write grant is admitted
        immediately, even while a writer is queued (write preference applies
        only to threads arriving with no grant).
        """
        me = threading.get_ident()
        with self._condition:
            if self._writer == me or me in self._readers:
                self._readers[me] = self._readers.get(me, 0) + 1
                self._read_acquisitions += 1
                return True
            admitted = self._condition.wait_for(
                lambda: self._writer is None and self._writers_waiting == 0,
                timeout=timeout,
            )
            if not admitted:
                return False
            self._readers[me] = 1
            self._read_acquisitions += 1
            return True

    def release_read(self) -> None:
        """Drop one shared grant held by the calling thread.

        Raises:
            RuntimeError: if the calling thread holds no read grant.
        """
        me = threading.get_ident()
        with self._condition:
            holds = self._readers.get(me)
            if not holds:
                raise RuntimeError("release_read() without a matching acquire_read()")
            if holds == 1:
                del self._readers[me]
                self._condition.notify_all()
            else:
                self._readers[me] = holds - 1

    # ------------------------------------------------------------------
    # Write side
    # ------------------------------------------------------------------
    def acquire_write(self, timeout: Optional[float] = None) -> bool:
        """Take the exclusive grant; returns ``False`` only on timeout.

        Reentrant for a thread already writing.  Queued writers block new
        readers, so the grant arrives as soon as active readers drain.

        Raises:
            RuntimeError: on an upgrade attempt (the calling thread holds a
                read grant); upgrading deadlocks by construction, so it is
                rejected instead.
        """
        me = threading.get_ident()
        with self._condition:
            if self._writer == me:
                self._writer_holds += 1
                self._write_acquisitions += 1
                return True
            if me in self._readers:
                raise RuntimeError(
                    "cannot upgrade a read grant to a write grant "
                    "(release the read lock first)"
                )
            self._writers_waiting += 1
            try:
                acquired = self._condition.wait_for(
                    lambda: self._writer is None and not self._readers,
                    timeout=timeout,
                )
            finally:
                self._writers_waiting -= 1
            if not acquired:
                self._condition.notify_all()
                return False
            self._writer = me
            self._writer_holds = 1
            self._write_acquisitions += 1
            return True

    def release_write(self) -> None:
        """Drop one exclusive grant held by the calling thread.

        Raises:
            RuntimeError: if the calling thread is not the writer.
        """
        me = threading.get_ident()
        with self._condition:
            if self._writer != me:
                raise RuntimeError("release_write() by a thread that is not the writer")
            self._writer_holds -= 1
            if self._writer_holds == 0:
                self._writer = None
                self._condition.notify_all()

    # ------------------------------------------------------------------
    # Context managers (what the engine actually uses)
    # ------------------------------------------------------------------
    @contextmanager
    def read_locked(self) -> Iterator[None]:
        """``with lock.read_locked():`` -- shared critical section."""
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    @contextmanager
    def write_locked(self) -> Iterator[None]:
        """``with lock.write_locked():`` -- exclusive critical section."""
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def active_readers(self) -> int:
        """Number of threads currently holding a read grant."""
        with self._condition:
            return len(self._readers)

    @property
    def writer_active(self) -> bool:
        """Whether a thread currently holds the exclusive grant."""
        with self._condition:
            return self._writer is not None

    def statistics(self) -> Dict[str, int]:
        """Acquisition counters (reported by the service's ``/stats``)."""
        with self._condition:
            return {
                "read_acquisitions": self._read_acquisitions,
                "write_acquisitions": self._write_acquisitions,
                "active_readers": len(self._readers),
                "writers_waiting": self._writers_waiting,
            }
