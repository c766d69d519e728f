"""An LRU cache of per-(query, image) similarity scores.

Retrieval repeatedly evaluates the same modified-LCS similarity: popular
queries recur within and across batches, and every recurrence would
otherwise pay an O(mn) evaluation per candidate image.  :class:`ScoreCache`
memoises what the query engine learned about each candidate under a key
derived from the *content* of the query (its axis strings, the similarity
policy and the transformation set) plus the candidate image id.  One entry
(:data:`CacheEntry`) holds one of two kinds:

* a full :class:`~repro.core.similarity.SimilarityResult` — for the final
  survivors of a ranking, and for every candidate the reference evaluation
  scored;
* a confirmed score (a ``float``) — a candidate the bit-parallel kernel
  scored that did not survive the cut.

A candidate the anytime stop rule skipped leaves no entry, so a repeated
query bounds it again; most skipped candidates are never bounded past the
postings tally (see :meth:`~repro.index.query.QueryEngine._rank_keys`).

Correctness over staleness: the cache never outlives a database mutation.
:class:`~repro.index.query.QueryEngine` calls :meth:`ScoreCache.invalidate_image`
whenever an image is added, removed, or edited object-by-object, which drops
every cached score involving that image id.  Keys are pure values
(strings, enums, frozen dataclasses), so they are hashable and safe to share
across worker threads; all cache operations take an internal lock.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, Optional, Set, Tuple, Union

from repro.core.bestring import BEString2D
from repro.core.similarity import SimilarityPolicy, SimilarityResult
from repro.core.transforms import Transformation, canonical_transformations

#: Content key identifying one query evaluation configuration.
QueryKey = Tuple[str, str, SimilarityPolicy, Tuple[Transformation, ...]]

#: Full cache key: query content plus the candidate image id.
CacheKey = Tuple[QueryKey, str]


#: What one cache entry holds: a full result or a confirmed score.
CacheEntry = Union[SimilarityResult, float]


def query_score_key(
    bestring: BEString2D,
    policy: SimilarityPolicy,
    transformations: Iterable[Transformation],
) -> QueryKey:
    """Content key of a query evaluation.

    Two queries whose pictures encode to the same axis strings share scores
    regardless of picture name, so the key uses the token text of both axes
    rather than the (name-carrying) :class:`BEString2D` itself.  The
    transformation set is canonicalised (deduplicated, enum order): the same
    set supplied in a different order used to miss the cache and re-run the
    full dynamic program, even though the evaluation is order-independent
    once tie-breaks are canonical (see
    :func:`~repro.core.transforms.canonical_transformations`).
    """
    return (
        bestring.x.to_text(),
        bestring.y.to_text(),
        policy,
        canonical_transformations(transformations),
    )


@dataclass(frozen=True)
class CacheStatistics:
    """Counters describing cache effectiveness since the last reset."""

    hits: int
    misses: int
    evictions: int
    invalidations: int
    size: int
    capacity: int

    @property
    def lookups(self) -> int:
        """Total number of ``get`` calls."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 with no lookups)."""
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0


class ScoreCache:
    """Thread-safe LRU cache of :data:`CacheEntry` values keyed by (query, image)."""

    def __init__(self, capacity: int = 65536) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be at least 1")
        self.capacity = capacity
        self._entries: "OrderedDict[CacheKey, CacheEntry]" = OrderedDict()
        self._image_keys: Dict[str, Set[CacheKey]] = {}
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------
    def get(self, query_key: Hashable, image_id: str) -> Optional[CacheEntry]:
        """The cached entry for ``(query_key, image_id)``, or ``None``.

        Either kind of entry counts as a hit.
        """
        key = (query_key, image_id)
        with self._lock:
            result = self._entries.get(key)
            if result is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return result

    def put(self, query_key: Hashable, image_id: str, result: CacheEntry) -> None:
        """Store one entry (replacing any), evicting the least recently used if full."""
        key = (query_key, image_id)
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._entries[key] = result
                return
            while len(self._entries) >= self.capacity:
                evicted_key, _ = self._entries.popitem(last=False)
                self._discard_image_key(evicted_key)
                self._evictions += 1
            self._entries[key] = result
            self._image_keys.setdefault(image_id, set()).add(key)

    def invalidate_image(self, image_id: str) -> int:
        """Drop every cached entry involving ``image_id``; returns the count.

        Called by the query engine whenever an image is added, removed, or
        edited, so cached scores can never disagree with the database.
        """
        with self._lock:
            keys = self._image_keys.pop(image_id, None)
            if not keys:
                return 0
            for key in keys:
                self._entries.pop(key, None)
            self._invalidations += len(keys)
            return len(keys)

    def clear(self) -> None:
        """Drop all entries (statistics counters are kept)."""
        with self._lock:
            self._invalidations += len(self._entries)
            self._entries.clear()
            self._image_keys.clear()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        with self._lock:
            return key in self._entries

    @property
    def statistics(self) -> CacheStatistics:
        """A snapshot of the cache counters."""
        with self._lock:
            return CacheStatistics(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                invalidations=self._invalidations,
                size=len(self._entries),
                capacity=self.capacity,
            )

    def reset_statistics(self) -> None:
        """Zero the hit/miss/eviction/invalidation counters."""
        with self._lock:
            self._hits = self._misses = self._evictions = self._invalidations = 0

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _discard_image_key(self, key: CacheKey) -> None:
        image_id = key[1]
        keys = self._image_keys.get(image_id)
        if keys is not None:
            keys.discard(key)
            if not keys:
                del self._image_keys[image_id]
