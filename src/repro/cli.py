"""Command-line interface of the reproduction.

A thin front-end over the library for the workflows a user of the paper's
system would script:

``python -m repro.cli encode <scene.json>``
    Encode a scene file (the JSON form of a symbolic picture) and print its
    2D BE-string.

``python -m repro.cli build <database.json> <scene.json> [...]``
    Encode one or more scene files into a database file.

``python -m repro.cli search <database.json> <query-scene.json> [--invariant] [--top K]``
    Run a similarity query against a stored database.  ``--where`` adds a
    relation-predicate clause (full grammar: ``not``/``or``/parentheses and
    per-leaf ``[w=2 fuzzy]`` annotations, see ``docs/predicates.md``),
    ``--fuzzy`` grades every relation by boundary distance,
    ``--min-score`` a score cut-off and ``--jsonl``
    machine-readable output (one JSON object per result).  ``--kernel`` picks
    the LCS implementation (``bitparallel`` by default, or the ``reference``
    DP) and ``--strategy`` the candidate visit (``anytime`` branch-and-bound
    early termination by default, or ``exhaustive``); see
    ``docs/kernels.md``.  Every combination ranks identically.

``python -m repro.cli explain <database.json> <query-scene.json> [--where ...]``
    Run a query like ``search`` but print the execution trace: the shortlist
    funnel, per-result admission stage, score-cache hit/miss, winning
    transformation and LCS lengths.  With ``--where`` and no scene it
    explains a predicate-only query; graded clauses additionally print
    per-leaf satisfaction degrees and the predicate-stage counters.

``python -m repro.cli batch-search <database.json> <queries.jsonl> [--shard-workers N]``
    Run many similarity queries as one batch.  Each line of the JSONL file is
    a ``/search`` query object (``{"scene": {...}, "invariant": true,
    "limit": 5}``, see ``docs/service.md``) or a bare scene object; ``top``
    still spells ``limit``, and ``--invariant``, ``--top`` and
    ``--no-filters`` fill the keys a line leaves out.  Identical queries are
    evaluated once and scores are cached (see ``repro.index.batch``).
    ``--shard-workers N`` (at most 16) scatter-gathers the batch across N
    forked shard-worker processes; without it the batch runs serially.

``python -m repro.cli relations <database.json> "<predicate query>"``
    Run a relation-predicate query ("monitor above desk and ...").

All retrieval commands are fronts over the fluent query builder
(``system.query()...execute()``, see ``docs/query-api.md``); they share one
unified pipeline and score cache.

``python -m repro.cli show <database.json> <image-id>``
    ASCII-render one stored image.

``python -m repro.cli convert <src> <dst> [--to FORMAT] [--shards N]``
    Convert a database between storage formats (JSON / sharded binary); the
    target format defaults to what the destination path implies.

``python -m repro.cli info <database>``
    Print the storage format, schema version and size statistics of a stored
    database without fully validating it.

``python -m repro.cli demo``
    Build a small synthetic database in a temporary directory and run an
    example query end to end (no input files needed).

``python -m repro.cli serve <database> [--port N] [--workers N] [--backlog N] [--shard-workers N]``
    Run the JSON-over-HTTP retrieval daemon over a stored database: concurrent
    ``/search`` + ``/batch`` queries, mutation endpoints with incremental
    write-back persistence, ``/healthz`` and ``/stats`` (see
    ``docs/service.md``).  ``--port 0`` binds an ephemeral port (printed on
    start-up); ``--no-persist`` serves the database read-write in memory only.
    ``--wal`` turns on the crash-safe durable mode for sharded databases:
    every mutation is fsync'd to a write-ahead log before it is acknowledged
    and a background thread compacts the log into the shards (``docs/durability.md``).

``python -m repro.cli recover <database> [--check]``
    Inspect a durable database's write-ahead log (pending records, torn
    tail) and fold any acknowledged-but-uncompacted records back into the
    shards.  ``--check`` reports without modifying anything.

``python -m repro.cli replica <database> [--follow-interval S] [--primary URL]``
    Run a read-only replica daemon over a durable database directory: it
    warm-starts from the shard snapshot, tails the primary's write-ahead
    log to stay current, serves the full read surface (``/search``,
    ``/batch``, ``/healthz``, ``/stats`` with a ``replication`` lag block)
    and rejects writes with 403 naming the primary.  ``POST /promote``
    detaches it into a writable primary (see ``docs/replication.md``).

``python -m repro.cli ping <url>``
    Health-check a running daemon and print its image count, uptime and the
    measured round-trip time.

Every command that reads a database takes its storage format from the path:
a directory is a sharded database and a file a JSON one.  A SQLite file,
which earlier releases wrote, is refused with a message that says how to
convert it.  Only the writers choose a format: ``--format json|sharded`` on
``build`` and ``demo``, ``--to`` on ``convert`` (see
``docs/storage-formats.md``).
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path
from typing import List, Optional, Sequence

from repro.core.construct import encode_picture
from repro.index.backends import (
    describe_database,
    load_database_from,
    save_database_to,
)
from repro.index.database import ImageDatabase
from repro.index.execution import ExecutionOptions, KERNELS, STRATEGIES
from repro.index.spec import QuerySpec, QuerySpecError
from repro.index.storage import StorageError, picture_from_json_text
from repro.retrieval.predicates import PredicateError
from repro.retrieval.system import RetrievalSystem

#: Writer ``--format``/``--to`` choices, the backend names
#: :func:`~repro.index.backends.get_backend` takes; ``auto`` (the default)
#: infers the format from the path.
FORMAT_CHOICES = ("auto", "json", "sharded")


class CliError(RuntimeError):
    """Raised for user-facing CLI failures (bad paths, malformed files)."""


def _load_picture(path: str):
    try:
        return picture_from_json_text(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise CliError(f"scene file not found: {path}") from None
    except (StorageError, ValueError, KeyError) as error:
        raise CliError(f"malformed scene file {path}: {error}") from error


def _load_database(path: str) -> ImageDatabase:
    try:
        return load_database_from(path)
    except FileNotFoundError:
        raise CliError(f"database not found: {path}") from None
    except StorageError as error:
        raise CliError(f"malformed database {path}: {error}") from error


def _load_system(path: str, execution=None, durable: bool = False) -> RetrievalSystem:
    # from_file is the warm-start path: it indexes the loaded, validated
    # records in place; re-adding picture by picture would encode every
    # picture again and leave every image dirty for the first incremental
    # save.
    try:
        return RetrievalSystem.from_file(path, execution=execution, durable=durable)
    except FileNotFoundError:
        raise CliError(f"database not found: {path}") from None
    except StorageError as error:  # a ValueError, so it must come first
        raise CliError(f"malformed database {path}: {error}") from error
    except ValueError as error:
        raise CliError(str(error)) from error


# ----------------------------------------------------------------------
# Sub-command implementations (each returns a process exit code)
# ----------------------------------------------------------------------
def _command_encode(arguments: argparse.Namespace) -> int:
    picture = _load_picture(arguments.scene)
    bestring = encode_picture(picture)
    print(f"picture: {picture.name or arguments.scene} "
          f"({len(picture)} objects, {picture.width:g}x{picture.height:g})")
    print("x:", bestring.x.to_text())
    print("y:", bestring.y.to_text())
    print(f"storage: {bestring.total_symbols} symbols")
    return 0


def _command_build(arguments: argparse.Namespace) -> int:
    database = ImageDatabase(name=Path(arguments.database).stem)
    for index, scene_path in enumerate(arguments.scenes):
        picture = _load_picture(scene_path)
        image_id = picture.name or f"image-{index:04d}"
        database.add_picture(picture, image_id)
    try:
        save_database_to(
            database,
            arguments.database,
            backend=arguments.format,
            shard_count=arguments.shards,
        )
    except (StorageError, ValueError) as error:
        raise CliError(str(error)) from error
    print(f"wrote {len(database)} images "
          f"({database.total_objects()} objects, {database.total_storage_symbols()} symbols) "
          f"to {arguments.database}")
    return 0


def _command_convert(arguments: argparse.Namespace) -> int:
    database = _load_database(arguments.source)
    try:
        save_database_to(
            database,
            arguments.destination,
            backend=arguments.to,
            shard_count=arguments.shards,
        )
    except (StorageError, ValueError) as error:
        raise CliError(str(error)) from error
    summary = describe_database(arguments.destination)
    print(
        f"converted {summary['images']} images to {summary['format']} "
        f"at {arguments.destination} ({summary['size_bytes']} bytes)"
    )
    return 0


def _command_info(arguments: argparse.Namespace) -> int:
    try:
        summary = describe_database(arguments.database)
    except FileNotFoundError:
        raise CliError(f"database not found: {arguments.database}") from None
    except StorageError as error:
        raise CliError(f"malformed database {arguments.database}: {error}") from error
    for key in (
        "path",
        "format",
        "schema_version",
        "name",
        "images",
        "shard_count",
        "size_bytes",
    ):
        if key in summary:
            print(f"{key}: {summary[key]}")
    wal = summary.get("wal")
    if wal is not None:
        print(
            f"wal: {wal['file']} (snapshot_lsn {wal['snapshot_lsn']}, "
            f"last_lsn {wal['last_lsn']}, {wal['pending_records']} pending, "
            f"{wal['size_bytes']} bytes, "
            f"{'clean' if wal['clean'] else 'torn tail'})"
        )
    return 0


def _build_query(system: RetrievalSystem, arguments: argparse.Namespace):
    """Compose the builder shared by the ``search`` and ``explain`` commands.

    Raises:
        CliError: if neither a query scene nor a ``--where`` predicate was
            given, or the predicate text is malformed.
    """
    builder = system.query()
    if getattr(arguments, "query", None):
        builder.similar_to(_load_picture(arguments.query))
    builder.invariant(arguments.invariant).limit(arguments.top)
    builder.execution(
        shortlist=not arguments.no_filters,
        kernel=getattr(arguments, "kernel", None),
        strategy=getattr(arguments, "strategy", None),
    )
    builder.min_score(getattr(arguments, "min_score", 0.0))
    where = getattr(arguments, "where", None)
    if where:
        try:
            builder.where(where, fuzzy=getattr(arguments, "fuzzy", False))
        except PredicateError as error:
            raise CliError(str(error)) from error
    elif getattr(arguments, "fuzzy", False):
        raise CliError("--fuzzy requires a --where clause")
    try:
        builder.spec()
    except QuerySpecError as error:
        raise CliError(str(error)) from error
    return builder


def _command_search(arguments: argparse.Namespace) -> int:
    system = _load_system(arguments.database)
    results = _build_query(system, arguments).execute()
    if arguments.jsonl:
        # Keep stdout machine-readable: an empty result set emits nothing.
        text = results.to_jsonl()
        if text:
            print(text)
        else:
            print("no matching images", file=sys.stderr)
        return 0 if results else 1
    if not results:
        print("no matching images")
        return 1
    for result in results:
        print(result.describe())
    return 0


def _command_explain(arguments: argparse.Namespace) -> int:
    system = _load_system(arguments.database)
    results = _build_query(system, arguments).execute()
    print(results.explain_report())
    return 0 if results else 1


def _load_batch_queries(path: str, arguments: argparse.Namespace) -> List[QuerySpec]:
    """Decode a JSONL query file with :meth:`QuerySpec.from_wire`.

    Each non-empty line is a ``/search`` query object, or a bare scene
    object (a line without a ``scene`` key).  ``top`` still spells
    ``limit``; ``--top``, ``--invariant`` and ``--no-filters`` fill the keys
    a line leaves out (``"limit": null`` means unlimited results).
    """
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except FileNotFoundError:
        raise CliError(f"query file not found: {path}") from None
    queries: List[QuerySpec] = []
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as error:
            raise CliError(f"{path}:{number}: invalid JSON: {error}") from error
        if not isinstance(payload, dict):
            raise CliError(f"{path}:{number}: expected a JSON object")
        if "scene" not in payload:
            payload = {"scene": payload}
        if "top" in payload:
            payload.setdefault("limit", payload.pop("top"))
        payload.setdefault("limit", arguments.top)
        if arguments.invariant and "transformations" not in payload:
            payload.setdefault("invariant", True)
        if arguments.no_filters:
            payload.setdefault("no_filters", True)
        try:
            queries.append(QuerySpec.from_wire(payload))
        except QuerySpecError as error:
            raise CliError(f"{path}:{number}: {error}") from error
    if not queries:
        raise CliError(f"query file {path} contains no queries")
    return queries


def _command_batch_search(arguments: argparse.Namespace) -> int:
    system = _load_system(arguments.database)
    queries = _load_batch_queries(arguments.queries, arguments)
    overrides = {}
    if arguments.shard_workers is not None:
        if arguments.shard_workers < 1:
            raise CliError("--shard-workers must be at least 1")
        overrides = {"executor": "shard_process", "workers": arguments.shard_workers}
    started = time.perf_counter()
    try:
        batches = system.query_batch(queries, **overrides)
    except ValueError as error:  # a predicate clause, or too many --shard-workers
        raise CliError(str(error)) from error
    finally:
        system._engine.close_shard_pool()
    elapsed = time.perf_counter() - started
    matched = 0
    for index, (query, results) in enumerate(zip(queries, batches)):
        name = query.picture.name or f"query-{index}"
        print(f"[{index}] {name}: {len(results)} results")
        for result in results:
            print("   ", result.describe())
        if results:
            matched += 1
    report = system.last_batch_report
    throughput = len(queries) / elapsed if elapsed > 0 else float("inf")
    print(
        f"batch: {report.describe()}; "
        f"{elapsed:.3f}s total ({throughput:.1f} queries/s)"
    )
    return 0 if matched else 1


def _command_relations(arguments: argparse.Namespace) -> int:
    system = _load_system(arguments.database)
    try:
        matches = system.query().where(arguments.query).limit(arguments.top).execute()
    except PredicateError as error:
        raise CliError(str(error)) from error
    if not matches:
        print("no matching images")
        return 1
    for match in matches:
        print(match.describe())
    return 0


def _command_show(arguments: argparse.Namespace) -> int:
    system = _load_system(arguments.database)
    try:
        print(system.show(arguments.image_id, columns=arguments.columns, rows=arguments.rows))
    except KeyError:
        raise CliError(f"no image {arguments.image_id!r} in {arguments.database}") from None
    return 0


def _command_serve(arguments: argparse.Namespace) -> int:
    from repro.service.server import create_server

    execution = None
    if arguments.kernel is not None or arguments.strategy is not None:
        execution = ExecutionOptions(
            kernel=arguments.kernel, strategy=arguments.strategy
        )
    if arguments.wal and arguments.no_persist:
        raise CliError("--wal writes a write-ahead log; it cannot combine with --no-persist")
    if arguments.wal_compact_every < 1:
        raise CliError("--wal-compact-every must be at least 1")
    system = _load_system(arguments.database, execution=execution, durable=arguments.wal)
    persist_path = None if arguments.no_persist else arguments.database
    try:
        server = create_server(
            system,
            host=arguments.host,
            port=arguments.port,
            workers=arguments.workers,
            backlog=arguments.backlog,
            database_path=persist_path,
            durable=arguments.wal,
            compact_threshold=arguments.wal_compact_every,
            shard_workers=arguments.shard_workers,
        )
    except (OSError, ValueError, StorageError) as error:
        raise CliError(f"cannot start the service: {error}") from error
    if arguments.wal:
        persistence = (
            "write-ahead logging (ack-after-fsync, "
            f"compacting every {arguments.wal_compact_every} records)"
        )
    elif persist_path:
        persistence = "persisting incrementally"
    else:
        persistence = "in-memory only"
    sharding = (
        f", shard-workers={arguments.shard_workers}" if arguments.shard_workers else ""
    )
    print(
        f"serving {arguments.database} ({len(system)} images) on {server.url} "
        f"(workers={arguments.workers}, backlog={arguments.backlog}{sharding}, "
        f"{persistence})",
        flush=True,
    )
    if arguments.check:
        server.close()
        return 0
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
    return 0


def _command_replica(arguments: argparse.Namespace) -> int:
    from repro.service.replica import create_replica_server

    execution = None
    if arguments.kernel is not None or arguments.strategy is not None:
        execution = ExecutionOptions(
            kernel=arguments.kernel, strategy=arguments.strategy
        )
    if arguments.follow_interval <= 0:
        raise CliError("--follow-interval must be positive")
    try:
        server = create_replica_server(
            arguments.database,
            host=arguments.host,
            port=arguments.port,
            workers=arguments.workers,
            backlog=arguments.backlog,
            follow_interval=arguments.follow_interval,
            primary_url=arguments.primary,
            execution=execution,
        )
    except FileNotFoundError:
        raise CliError(f"database not found: {arguments.database}") from None
    except (OSError, ValueError, StorageError) as error:
        raise CliError(f"cannot start the replica: {error}") from error
    service = server.service
    print(
        f"replica of {arguments.database} ({len(service.system)} images) on "
        f"{server.url} (workers={arguments.workers}, "
        f"follow-interval={arguments.follow_interval:g}s, "
        f"applied_lsn={service.replica.applied_lsn})",
        flush=True,
    )
    if arguments.check:
        server.close()
        return 0
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
    return 0


def _command_recover(arguments: argparse.Namespace) -> int:
    from repro.index.backends import DurableShardedStore

    try:
        summary = describe_database(arguments.database)
    except FileNotFoundError:
        raise CliError(f"database not found: {arguments.database}") from None
    except StorageError as error:
        raise CliError(f"malformed database {arguments.database}: {error}") from error
    wal = summary.get("wal")
    if wal is None:
        raise CliError(
            f"{arguments.database} has no write-ahead log "
            "(serve it with --wal to make it durable)"
        )
    print(f"database: {arguments.database} ({summary['images']} images in shards)")
    print(f"log: {wal['file']} ({'clean' if wal['clean'] else 'torn tail dropped'})")
    print(f"snapshot_lsn: {wal['snapshot_lsn']}  last_lsn: {wal['last_lsn']}")
    print(f"pending records to replay: {wal['pending_records']}")
    if arguments.check:
        return 0
    database = _load_database(arguments.database)
    try:
        store = DurableShardedStore(database, arguments.database)
        store.compact()
        store.close()
    except (StorageError, ValueError) as error:
        raise CliError(f"recovery failed: {error}") from error
    print(
        f"recovered: {len(database)} images, log compacted through "
        f"LSN {store.snapshot_lsn}"
    )
    return 0


def _command_ping(arguments: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient, ServiceError

    try:
        client = ServiceClient.from_url(arguments.url, timeout=arguments.timeout)
        info = client.ping()
    except (ServiceError, ValueError) as error:
        raise CliError(str(error)) from error
    print(
        f"{info.get('status', 'ok')}: {info.get('images', '?')} images, "
        f"uptime {info.get('uptime_seconds', 0):g}s, "
        f"round-trip {info['round_trip_ms']:g}ms"
    )
    return 0


def _command_demo(arguments: argparse.Namespace) -> int:
    from repro.datasets.scenes import landscape_scene, office_scene, traffic_scene

    pictures = (
        [office_scene(variant) for variant in range(3)]
        + [traffic_scene(variant) for variant in range(3)]
        + [landscape_scene(variant) for variant in range(3)]
    )
    system = RetrievalSystem.from_pictures(pictures)
    default_name = "demo-db.shards" if arguments.format == "sharded" else "demo-db.json"
    target = arguments.output or str(
        Path(tempfile.mkdtemp(prefix="repro-demo-")) / default_name
    )
    try:
        system.save(target, backend=arguments.format)
    except (StorageError, ValueError) as error:
        raise CliError(str(error)) from error
    print(f"built a demo database of {len(system)} themed scenes at {target}")
    print()
    query = office_scene(0)
    print("query: the canonical office scene; top 3 similarity matches:")
    for result in system.query(query).limit(3).execute():
        print(" ", result.describe())
    print()
    print('relation query: "monitor above desk and phone right-of monitor"')
    for match in (
        system.query()
        .where("monitor above desk and phone right-of monitor")
        .limit(3)
        .execute()
    ):
        print(" ", match.describe())
    return 0


# ----------------------------------------------------------------------
# Argument parsing
# ----------------------------------------------------------------------
def _add_format_flag(subparser: argparse.ArgumentParser, written: str) -> None:
    """Attach the ``--format`` flag of a command that writes a database."""
    subparser.add_argument(
        "--format",
        choices=FORMAT_CHOICES,
        default="auto",
        help=f"storage format of the {written} (default: auto — infer from the path)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser (exposed for testing and docs).

    Returns:
        The fully configured :class:`argparse.ArgumentParser`.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description="2D BE-string image indexing and similarity retrieval (Wang, ICDCS 2001)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    encode = subparsers.add_parser("encode", help="encode a scene file as a 2D BE-string")
    encode.add_argument("scene", help="path to a scene JSON file")
    encode.set_defaults(handler=_command_encode)

    build = subparsers.add_parser("build", help="build a database from scene files")
    build.add_argument("database", help="output database path (.json/.shards)")
    build.add_argument("scenes", nargs="+", help="scene JSON files to index")
    _add_format_flag(build, "output database")
    build.add_argument(
        "--shards", type=int, default=None,
        help="shard count when writing a sharded database (default 16)",
    )
    build.set_defaults(handler=_command_build)

    convert = subparsers.add_parser(
        "convert", help="convert a database between storage formats"
    )
    convert.add_argument("source", help="existing database path")
    convert.add_argument("destination", help="output database path")
    convert.add_argument(
        "--to",
        choices=FORMAT_CHOICES,
        default="auto",
        help="target format (default: auto — infer from the destination path)",
    )
    convert.add_argument(
        "--shards", type=int, default=None,
        help="shard count when writing a sharded database (default 16)",
    )
    convert.set_defaults(handler=_command_convert)

    info = subparsers.add_parser(
        "info", help="print storage format and statistics of a database"
    )
    info.add_argument("database", help="database path")
    info.set_defaults(handler=_command_info)

    def _add_query_flags(subparser: argparse.ArgumentParser) -> None:
        """The flags shared by the builder-backed ``search``/``explain`` commands."""
        subparser.add_argument("database", help="database path (any storage format)")
        subparser.add_argument(
            "query", nargs="?", default=None, help="query scene JSON path"
        )
        subparser.add_argument(
            "--top", type=int, default=10, help="number of results (default 10)"
        )
        subparser.add_argument(
            "--invariant", action="store_true", help="also match rotations and reflections"
        )
        subparser.add_argument(
            "--no-filters", action="store_true",
            help="score every image (skip candidate pruning)",
        )
        subparser.add_argument(
            "--where", default=None,
            help='relation-predicate clause, e.g. '
                 '"not (phone right-of monitor) or phone above desk [w=2]"',
        )
        subparser.add_argument(
            "--fuzzy", action="store_true",
            help="grade every --where relation by boundary distance instead "
                 "of matching it crisply",
        )
        subparser.add_argument(
            "--min-score", type=float, default=0.0, help="drop results below this score"
        )
        subparser.add_argument(
            "--kernel", choices=KERNELS, default=None,
            help="LCS implementation for scoring (default: bitparallel)",
        )
        subparser.add_argument(
            "--strategy", choices=STRATEGIES, default=None,
            help="candidate processing: anytime branch-and-bound or exhaustive "
                 "(default: anytime)",
        )

    search = subparsers.add_parser("search", help="similarity query against a database")
    _add_query_flags(search)
    search.add_argument(
        "--jsonl", action="store_true", help="print results as JSON Lines instead of text"
    )
    search.set_defaults(handler=_command_search)

    explain = subparsers.add_parser(
        "explain", help="run a query and print its execution trace"
    )
    _add_query_flags(explain)
    explain.set_defaults(handler=_command_explain)

    batch = subparsers.add_parser(
        "batch-search", help="run many similarity queries from a JSONL file as one batch"
    )
    batch.add_argument("database", help="database path (any storage format)")
    batch.add_argument("queries", help="JSONL file with one query scene per line")
    batch.add_argument("--top", type=int, default=10, help="results per query (default 10)")
    batch.add_argument(
        "--invariant", action="store_true", help="also match rotations and reflections"
    )
    batch.add_argument(
        "--no-filters", action="store_true", help="score every image (skip candidate pruning)"
    )
    batch.add_argument(
        "--shard-workers", type=int, default=None, metavar="N",
        help="scatter-gather the batch across N (at most 16) forked shard-worker "
             "processes (byte-identical rankings; see docs/parallelism.md)",
    )
    batch.set_defaults(handler=_command_batch_search)

    relations = subparsers.add_parser("relations", help="relation-predicate query")
    relations.add_argument("database", help="database path (any storage format)")
    relations.add_argument("query", help='predicate query, e.g. "car left-of tree"')
    relations.add_argument("--top", type=int, default=10, help="number of results (default 10)")
    relations.set_defaults(handler=_command_relations)

    show = subparsers.add_parser("show", help="ASCII-render a stored image")
    show.add_argument("database", help="database path (any storage format)")
    show.add_argument("image_id", help="id of the stored image")
    show.add_argument("--columns", type=int, default=60)
    show.add_argument("--rows", type=int, default=20)
    show.set_defaults(handler=_command_show)

    serve = subparsers.add_parser(
        "serve", help="run the JSON-over-HTTP retrieval daemon over a database"
    )
    serve.add_argument("database", help="database path (any storage format)")
    serve.add_argument("--host", default="127.0.0.1", help="interface to bind (default 127.0.0.1)")
    serve.add_argument(
        "--port", type=int, default=8765,
        help="port to bind; 0 picks an ephemeral port (default 8765)",
    )
    serve.add_argument(
        "--workers", type=int, default=4,
        help="max requests executing concurrently (default 4)",
    )
    serve.add_argument(
        "--backlog", type=int, default=16,
        help="max requests waiting beyond the workers before 503s (default 16)",
    )
    serve.add_argument(
        "--shard-workers", type=int, default=None, metavar="N",
        help="scatter-gather every search across N (at most 16) forked "
             "shard-worker processes (byte-identical rankings; see docs/parallelism.md)",
    )
    serve.add_argument(
        "--kernel", choices=KERNELS, default=None,
        help="engine-default LCS implementation for every served query",
    )
    serve.add_argument(
        "--strategy", choices=STRATEGIES, default=None,
        help="engine-default candidate-processing strategy for every served query",
    )
    serve.add_argument(
        "--no-persist", action="store_true",
        help="keep mutations in memory instead of writing back to the database",
    )
    serve.add_argument(
        "--wal", action="store_true",
        help="durable mode (sharded databases): fsync every mutation to a "
             "write-ahead log before acknowledging, compact in the background "
             "(see docs/durability.md)",
    )
    serve.add_argument(
        "--wal-compact-every", type=int, default=256, metavar="N",
        help="pending log records that trigger a background compaction "
             "(default 256)",
    )
    serve.add_argument(
        "--check", action="store_true",
        help="bind, print the address and exit without serving (smoke tests)",
    )
    serve.set_defaults(handler=_command_serve)

    replica = subparsers.add_parser(
        "replica",
        help="run a read-only replica daemon that tails a durable database's WAL",
    )
    replica.add_argument("database", help="durable sharded database directory (the primary's)")
    replica.add_argument(
        "--host", default="127.0.0.1", help="interface to bind (default 127.0.0.1)"
    )
    replica.add_argument(
        "--port", type=int, default=8766,
        help="port to bind; 0 picks an ephemeral port (default 8766)",
    )
    replica.add_argument(
        "--workers", type=int, default=4,
        help="max requests executing concurrently (default 4)",
    )
    replica.add_argument(
        "--backlog", type=int, default=16,
        help="max requests waiting beyond the workers before 503s (default 16)",
    )
    replica.add_argument(
        "--follow-interval", type=float, default=0.25, metavar="S",
        help="seconds between write-ahead-log polls (default 0.25)",
    )
    replica.add_argument(
        "--primary", default=None, metavar="URL",
        help="the primary's base URL, advertised in 403 write rejections",
    )
    replica.add_argument(
        "--kernel", choices=KERNELS, default=None,
        help="engine-default LCS implementation for every served query",
    )
    replica.add_argument(
        "--strategy", choices=STRATEGIES, default=None,
        help="engine-default candidate-processing strategy for every served query",
    )
    replica.add_argument(
        "--check", action="store_true",
        help="bind, print the address and exit without serving (smoke tests)",
    )
    replica.set_defaults(handler=_command_replica)

    recover = subparsers.add_parser(
        "recover",
        help="inspect and recover a durable (write-ahead-logged) database",
    )
    recover.add_argument("database", help="durable sharded database directory")
    recover.add_argument(
        "--check", action="store_true",
        help="report the log state (pending records, torn tail) without recovering",
    )
    recover.set_defaults(handler=_command_recover)

    ping = subparsers.add_parser("ping", help="health-check a running retrieval daemon")
    ping.add_argument("url", help="service base URL, e.g. http://127.0.0.1:8765")
    ping.add_argument(
        "--timeout", type=float, default=5.0, help="request timeout in seconds (default 5)"
    )
    ping.set_defaults(handler=_command_ping)

    demo = subparsers.add_parser("demo", help="build and query a synthetic demo database")
    demo.add_argument("--output", help="where to write the demo database")
    _add_format_flag(demo, "demo database")
    demo.set_defaults(handler=_command_demo)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    arguments = parser.parse_args(argv)
    try:
        return arguments.handler(arguments)
    except CliError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via tests of main()
    sys.exit(main())
