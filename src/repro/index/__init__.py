"""Image database and index layer.

The title of the paper promises *image indexing*; this subpackage is the
database a downstream user would actually store BE-strings in:

* :class:`~repro.index.database.ImageDatabase` -- holds symbolic pictures and
  their pre-computed 2D BE-strings, supports add/remove of whole images and
  dynamic add/remove of single objects inside a stored image.
* :class:`~repro.index.inverted.InvertedSymbolIndex` -- symbol -> image ids,
  used to shortlist candidates that share at least one query icon, with a
  tally of the query labels each holds.
* :mod:`~repro.index.shortlist` -- the two-stage shortlist: the postings
  tally (stage 1) and the boundary LCS of each stored axis (stage 2)
  upper-bound the achievable LCS score so only candidates that can clear
  the query's ``min_score`` are ever scored (see ``docs/shortlist.md``).
* :class:`~repro.index.query.QueryEngine` -- the unified query pipeline:
  executes declarative :class:`~repro.index.spec.QuerySpec` plans
  (similarity, optionally transformation-invariant, and relation
  predicates) over the database, always consulting the score cache, and
  returns ranked results with execution traces, which it folds into its
  ``/stats`` counters.
* :mod:`~repro.index.spec` -- the declarative :class:`~repro.index.spec.QuerySpec`,
  the engine's only query type, plus the trace types behind ``explain()``.
* :class:`~repro.index.batch.BatchQueryEngine` -- evaluates many specs at
  once: deduplicates identical specs and runs each unique one through the
  engine's candidate loop (or the shard workers), sharing per-(query, image)
  scores through a :class:`~repro.index.cache.ScoreCache`.
* :mod:`~repro.index.storage` -- the v1 JSON persistence of pictures,
  BE-strings and whole databases.
* :mod:`~repro.index.backends` -- pluggable storage backends on top of it:
  JSON v1 and sharded binary files (incremental dirty-shard rewrites), with
  the format fixed by the path.
"""

from repro.index.backends import (
    BACKENDS,
    DurableShardedStore,
    JsonBackend,
    ShardedBackend,
    StorageBackend,
    describe_database,
    get_backend,
    infer_backend,
    load_database_from,
    save_database_to,
)
from repro.index.batch import BatchQueryEngine, BatchReport
from repro.index.cache import CacheStatistics, ScoreCache, query_score_key
from repro.index.database import ImageDatabase, ImageRecord
from repro.index.inverted import InvertedSymbolIndex
from repro.index.query import QueryEngine
from repro.index.ranking import RankedResult, rank_results
from repro.index.shortlist import (
    QuerySignature,
    ShortlistOutcome,
    ShortlistStatistics,
    signature_for,
)
from repro.index.spec import (
    CandidateTrace,
    QuerySpec,
    QuerySpecError,
    QueryTrace,
    SpecOutcome,
)
from repro.index.storage import (
    StorageError,
    database_from_json,
    database_to_json,
    load_database,
    save_database,
)

from repro.index.wal import WalRecord, WriteAheadLog, read_wal

__all__ = [
    "BACKENDS",
    "DurableShardedStore",
    "WalRecord",
    "WriteAheadLog",
    "read_wal",
    "JsonBackend",
    "ShardedBackend",
    "StorageBackend",
    "StorageError",
    "describe_database",
    "get_backend",
    "infer_backend",
    "load_database_from",
    "save_database_to",
    "BatchQueryEngine",
    "BatchReport",
    "CacheStatistics",
    "ScoreCache",
    "query_score_key",
    "ImageDatabase",
    "ImageRecord",
    "InvertedSymbolIndex",
    "QueryEngine",
    "CandidateTrace",
    "QuerySpec",
    "QuerySpecError",
    "QueryTrace",
    "SpecOutcome",
    "RankedResult",
    "rank_results",
    "QuerySignature",
    "ShortlistOutcome",
    "ShortlistStatistics",
    "signature_for",
    "database_from_json",
    "database_to_json",
    "load_database",
    "save_database",
]
