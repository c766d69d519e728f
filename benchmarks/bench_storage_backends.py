"""E11: storage backend latency -- full save vs incremental save vs load.

The ROADMAP's serving ambitions need a database that survives restarts and
grows past a single JSON blob; :mod:`repro.index.backends` ships two
formats (whole-file JSON v1 and sharded binary files) with incremental
persistence on the sharded one.  This experiment measures, at 1k and 10k
synthetic images:

* ``full save``        -- serialise the whole database from scratch,
* ``incremental save`` -- rewrite after dirtying 1% of the images (the
  steady-state update pattern of a long-lived deployment), and
* ``load``             -- full reload including BE-string validation.

Reloaded content is asserted identical across both backends (same ids, same
BE-strings), and at full scale the incremental sharded save must beat the
full JSON rewrite by at least 5x -- the acceptance criterion of the PR that
introduced the backend layer.
"""

import shutil
import time

import pytest

from benchmarks.conftest import SMOKE, format_table, smoke_scaled
from repro.datasets.synthetic import SceneParameters, random_pictures
from repro.geometry.rectangle import Rectangle
from repro.index.backends import get_backend, load_database_from
from repro.index.database import ImageDatabase

DATABASE_SIZES = smoke_scaled((1000, 10000), (40, 80))
#: Fraction of images dirtied before the incremental save.
DIRTY_FRACTION = 0.01
#: Shard count of the sharded backend.  Sized to the database: with hashing,
#: k dirty images touch up to k shards, so the shard count must comfortably
#: exceed the dirty count per save for incremental rewrites to pay off (at 16
#: shards and 100 dirty images every shard is hit and "incremental" becomes a
#: full rewrite; see docs/storage-formats.md for sizing guidance).
SHARD_COUNT = 512
#: Minimum speedup of the incremental sharded save over the full JSON rewrite
#: at the largest database size (acceptance criterion).
REQUIRED_SPEEDUP = 5.0

BACKEND_NAMES = ("json", "sharded")

_PARAMETERS = SceneParameters(
    object_count=8,
    alignment_probability=0.3,
    labels=tuple(f"class{index:02d}" for index in range(40)),
    label_choice="random",
)


def _build_database(size: int) -> ImageDatabase:
    database = ImageDatabase(name=f"bench-{size}")
    database.add_pictures(
        random_pictures(size, seed=11, parameters=_PARAMETERS, name_prefix="img")
    )
    database.clear_dirty()
    return database


def _target_path(root, backend_name: str, size: int):
    suffix = {"json": ".json", "sharded": ".shards"}[backend_name]
    return root / f"db-{size}{suffix}"


def _dirty_some(database: ImageDatabase, fraction: float):
    """Touch ``fraction`` of the images through the dynamic-update path.

    Returns the (image_id, icon identifier) pairs added so :func:`_revert`
    can restore the database — every backend must measure the *same* input.
    """
    count = max(1, int(len(database) * fraction))
    added = []
    for image_id in database.image_ids[:count]:
        before = {icon.identifier for icon in database.get(image_id).picture.icons}
        record = database.add_object(image_id, "bench-box", Rectangle(0.5, 0.5, 2.5, 2.5))
        # Icons are kept in canonical order, so the new icon is not
        # necessarily last: diff the identifier sets to find it.
        (identifier,) = {icon.identifier for icon in record.picture.icons} - before
        added.append((image_id, identifier))
    return added


def _revert(database: ImageDatabase, added) -> None:
    """Undo :func:`_dirty_some` and reset the dirty set."""
    for image_id, identifier in added:
        database.remove_object(image_id, identifier)
    database.clear_dirty()


@pytest.fixture(scope="module", params=DATABASE_SIZES)
def sized_database(request):
    return request.param, _build_database(request.param)


@pytest.mark.benchmark(group="E11-storage-backends")
def test_backend_latency_report(
    sized_database, tmp_path_factory, write_report, write_json_report, benchmark
):
    size, database = sized_database
    root = tmp_path_factory.mktemp(f"bench-storage-{size}")
    rows = []
    timings = {}

    for backend_name in BACKEND_NAMES:
        backend = get_backend(backend_name, shard_count=SHARD_COUNT)
        target = _target_path(root, backend_name, size)

        started = time.perf_counter()
        backend.save(database, target)
        full_save = time.perf_counter() - started

        added = _dirty_some(database, DIRTY_FRACTION)
        started = time.perf_counter()
        backend.save(database, target, incremental=True)
        incremental_save = time.perf_counter() - started

        started = time.perf_counter()
        restored = load_database_from(target)
        load_seconds = time.perf_counter() - started

        # Reloaded content must be exact, dirty edits included.
        assert restored.image_ids == database.image_ids
        sample = database.image_ids[:: max(1, len(database) // 50)]
        for image_id in sample:
            assert restored.get(image_id).bestring == database.get(image_id).bestring

        # Undo the edits so every backend measures the identical database.
        dirtied = len(added)
        _revert(database, added)

        timings[backend_name] = (full_save, incremental_save, load_seconds)
        size_bytes = (
            sum(f.stat().st_size for f in target.rglob("*") if f.is_file())
            if target.is_dir()
            else target.stat().st_size
        )
        rows.append(
            [
                backend_name,
                f"{full_save * 1000:.1f}",
                f"{incremental_save * 1000:.1f}",
                f"{load_seconds * 1000:.1f}",
                f"{size_bytes // 1024}",
            ]
        )

    json_full = timings["json"][0]
    sharded_incremental = timings["sharded"][1]
    speedup = json_full / sharded_incremental if sharded_incremental else float("inf")

    write_report(
        f"E11_storage_backends_{size}",
        [
            f"E11 -- storage backends at {size} images "
            f"({dirtied} dirtied = {DIRTY_FRACTION:.0%} before the incremental save)",
            "",
            *format_table(
                ["backend", "full save ms", "incr save ms", "load ms", "KiB"], rows
            ),
            "",
            f"incremental sharded save vs full JSON rewrite: {speedup:.1f}x",
            "",
            "the sharded backend hashes ids across "
            f"{SHARD_COUNT} binary shard files and rewrites only the shards",
            "holding dirty images; JSON must always rewrite the whole blob.",
        ],
    )
    write_json_report(
        f"E11_storage_backends_{size}",
        {
            "database_size": size,
            "dirty_fraction": DIRTY_FRACTION,
            "shard_count": SHARD_COUNT,
            "incremental_vs_full_json_speedup": round(speedup, 3),
            "backends": {
                name: {
                    "full_save_seconds": round(timing[0], 6),
                    "incremental_save_seconds": round(timing[1], 6),
                    "load_seconds": round(timing[2], 6),
                }
                for name, timing in timings.items()
            },
        },
    )

    if not SMOKE and size == max(DATABASE_SIZES):
        assert speedup >= REQUIRED_SPEEDUP, (
            f"incremental sharded save only {speedup:.1f}x faster than a full "
            f"JSON rewrite (floor: {REQUIRED_SPEEDUP}x)"
        )

    # pytest-benchmark timing: the steady-state incremental sharded save.
    # Dirtying happens in per-round setup and is reverted afterwards, so only
    # the save is timed and the shared database does not drift between rounds.
    sharded = get_backend("sharded", shard_count=SHARD_COUNT)
    target = _target_path(root, "sharded", size)
    sharded.save(database, target)
    pending = []

    def _setup():
        pending.append(_dirty_some(database, DIRTY_FRACTION))
        return (), {}

    def _timed_save():
        sharded.save(database, target, incremental=True)

    benchmark.pedantic(_timed_save, setup=_setup, rounds=3)
    for added in pending:
        _revert(database, added)


@pytest.mark.benchmark(group="E11-storage-backends")
def test_conversion_round_trip(sized_database, tmp_path_factory, benchmark):
    """json -> sharded -> json preserves every BE-string."""
    size, database = sized_database
    if size > min(DATABASE_SIZES):
        pytest.skip("conversion chain measured at the smallest size only")
    root = tmp_path_factory.mktemp("bench-convert")

    def _chain():
        get_backend("json").save(database, root / "a.json")
        get_backend("sharded").save(load_database_from(root / "a.json"), root / "b.shards")
        get_backend("json").save(load_database_from(root / "b.shards"), root / "c.json")
        shutil.rmtree(root / "b.shards")
        return load_database_from(root / "c.json")

    final = benchmark(_chain)
    assert final.image_ids == database.image_ids
    for image_id in database.image_ids[:: max(1, len(database) // 20)]:
        assert final.get(image_id).bestring == database.get(image_id).bestring
