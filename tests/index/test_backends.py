"""Round-trip, corruption and incremental-save tests for the storage backends.

The matrix at the heart of this module is the PR's acceptance contract: the
same database saved through every backend must reload to identical BE-strings
and identical search rankings, v1 JSON files written before the backend layer
existed must still load, and every corruption mode must surface as a
:class:`~repro.index.storage.StorageError` naming the offending path.
"""

import copy
import errno
import json
import os
import re
import struct
import zlib
from pathlib import Path

import pytest

from repro.index.backends import (
    MANIFEST_NAME,
    DurableShardedStore,
    JsonBackend,
    describe_database,
    get_backend,
    infer_backend,
    load_database_from,
    save_database_to,
    shard_index_for,
)
from repro.index.database import ImageDatabase
from repro.index import backends, storage
from repro.index.execution import ExecutionOptions
from repro.index.shortlist import ImageSignature
from repro.index.storage import StorageError, save_database
from repro.retrieval.system import RetrievalSystem

BACKEND_TARGETS = [
    ("json", "db.json"),
    ("sharded", "db.shards"),
]


@pytest.fixture
def populated_database(scene_collection):
    database = ImageDatabase(name="backend-db")
    database.add_pictures(scene_collection)
    return database


def _rankings(system, queries):
    return [
        [result.describe() for result in system.query(query).limit(None).execute()]
        for query in queries
    ]


# ----------------------------------------------------------------------
# Round-trip equivalence matrix
# ----------------------------------------------------------------------
class TestRoundTripMatrix:
    @pytest.mark.parametrize("backend_name,file_name", BACKEND_TARGETS)
    def test_identical_bestrings(
        self, populated_database, tmp_path, backend_name, file_name
    ):
        path = save_database_to(populated_database, tmp_path / file_name, backend_name)
        restored = load_database_from(path)
        assert restored.name == populated_database.name
        assert restored.image_ids == populated_database.image_ids
        for image_id in populated_database.image_ids:
            assert restored.get(image_id).bestring == populated_database.get(image_id).bestring
            assert restored.get(image_id).picture == populated_database.get(image_id).picture

    @pytest.mark.parametrize("backend_name,file_name", BACKEND_TARGETS)
    def test_identical_search_rankings(
        self, scene_collection, tmp_path, backend_name, file_name
    ):
        system = RetrievalSystem.from_pictures(scene_collection)
        expected = _rankings(system, scene_collection)
        path = system.save(tmp_path / file_name, backend=backend_name)
        reloaded = RetrievalSystem.from_file(path)
        assert _rankings(reloaded, scene_collection) == expected

    def test_v1_json_files_still_load(self, populated_database, tmp_path):
        # Written through the pre-backend v1 API, loaded through every new door.
        path = save_database(populated_database, tmp_path / "legacy.json")
        assert load_database_from(path).image_ids == populated_database.image_ids
        assert JsonBackend().load(path).image_ids == populated_database.image_ids
        assert RetrievalSystem.from_file(path).image_ids == populated_database.image_ids

    def test_json_backend_is_byte_compatible_with_v1(self, populated_database, tmp_path):
        legacy = save_database(populated_database, tmp_path / "legacy.json")
        modern = save_database_to(populated_database, tmp_path / "modern.json", "json")
        assert legacy.read_bytes() == modern.read_bytes()

    def test_cross_backend_conversion_chain(self, populated_database, tmp_path):
        json_path = save_database_to(populated_database, tmp_path / "a.json", "json")
        sharded_path = save_database_to(
            load_database_from(json_path), tmp_path / "b.shards", "sharded"
        )
        final_path = save_database_to(
            load_database_from(sharded_path), tmp_path / "c.json", "json"
        )
        final = load_database_from(final_path)
        assert final.image_ids == populated_database.image_ids
        for image_id in final.image_ids:
            assert final.get(image_id).bestring == populated_database.get(image_id).bestring


# ----------------------------------------------------------------------
# Backend inference
# ----------------------------------------------------------------------
class TestInference:
    def test_fresh_paths_go_by_suffix(self, tmp_path):
        assert infer_backend(tmp_path / "x.json").name == "json"
        assert infer_backend(tmp_path / "x.shards").name == "sharded"
        assert infer_backend(tmp_path / "bare-directory").name == "sharded"
        assert infer_backend(tmp_path / "x.whatever").name == "json"
        # The suffixes that once meant SQLite are now like any other.
        assert infer_backend(tmp_path / "x.sqlite").name == "json"
        assert infer_backend(tmp_path / "x.db").name == "json"

    def test_existing_files_go_by_content(self, populated_database, tmp_path):
        # Deliberately misleading suffixes: a file is JSON, a directory sharded.
        json_path = save_database_to(populated_database, tmp_path / "lies.shards", "json")
        assert infer_backend(json_path).name == "json"
        sharded_path = save_database_to(populated_database, tmp_path / "lies.json", "sharded")
        assert infer_backend(sharded_path).name == "sharded"
        assert load_database_from(sharded_path).image_ids == populated_database.image_ids

    def test_unknown_backend_name(self, tmp_path):
        with pytest.raises(ValueError, match="unknown storage backend"):
            get_backend("parquet", tmp_path / "x")

    def test_sqlite_is_no_longer_a_backend_name(self, populated_database, tmp_path):
        with pytest.raises(ValueError, match="'sqlite'.*'json', 'sharded'"):
            get_backend("sqlite", tmp_path / "x")
        with pytest.raises(ValueError, match="'sqlite'.*'json', 'sharded'"):
            save_database_to(populated_database, tmp_path / "db.sqlite", "sqlite")
        assert not (tmp_path / "db.sqlite").exists()

    def test_shard_count_threads_through(self, populated_database, tmp_path):
        path = save_database_to(
            populated_database, tmp_path / "db.shards", "sharded", shard_count=3
        )
        assert describe_database(path)["shard_count"] == 3
        assert len(list(path.glob("shard-*.bin"))) == 3


# ----------------------------------------------------------------------
# Corruption handling
# ----------------------------------------------------------------------
class TestCorruption:
    def test_missing_shard_file(self, populated_database, tmp_path):
        path = save_database_to(populated_database, tmp_path / "db.shards", "sharded")
        victim = sorted(path.glob("shard-*.bin"))[0]
        victim.unlink()
        with pytest.raises(StorageError, match="missing shard file"):
            load_database_from(path)

    def test_truncated_shard_file(self, populated_database, tmp_path):
        path = save_database_to(populated_database, tmp_path / "db.shards", "sharded")
        victim = max(path.glob("shard-*.bin"), key=lambda f: f.stat().st_size)
        victim.write_bytes(victim.read_bytes()[:-10])
        with pytest.raises(StorageError, match="truncated|corrupt"):
            load_database_from(path)

    def test_bad_manifest_schema_version(self, populated_database, tmp_path):
        path = save_database_to(populated_database, tmp_path / "db.shards", "sharded")
        manifest = json.loads((path / MANIFEST_NAME).read_text())
        manifest["schema_version"] = 99
        (path / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(StorageError, match="schema version"):
            load_database_from(path)

    def test_directory_without_manifest(self, tmp_path):
        target = tmp_path / "not-a-db"
        target.mkdir()
        with pytest.raises(StorageError, match="manifest"):
            load_database_from(target)

    def test_tampered_bestring_detected_in_shard(self, populated_database, tmp_path):
        # Rewrite one shard with a mismatched BE-string: validation must fire.
        path = save_database_to(populated_database, tmp_path / "db.shards", "sharded")
        database = load_database_from(path)
        image_id = database.image_ids[0]
        record = database.get(image_id)
        other = next(
            database.get(i) for i in database.image_ids if i != image_id
        )
        record.bestring = other.bestring
        database.mark_dirty(image_id)
        save_database_to(database, path, "sharded", incremental=True)
        with pytest.raises(StorageError, match="does not match"):
            load_database_from(path)

    def test_truncated_json_wrapped_with_path(self, populated_database, tmp_path):
        path = save_database_to(populated_database, tmp_path / "db.json", "json")
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(StorageError, match=str(path)):
            RetrievalSystem.from_file(path)

    def test_binary_garbage_json_wrapped_with_path(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_bytes(b"\xff\xfe\x00garbage\x00")
        with pytest.raises(StorageError, match=str(path)):
            RetrievalSystem.from_file(path)


#: Every layout a stored entry can be read from: the two backends and the
#: durable directory's write-ahead log.
LOAD_LAYOUTS = ["json", "sharded", "wal"]


def _rewrite_stored_entry(monkeypatch, image_id, rewrite):
    """Make every writer store ``rewrite(entry)`` as ``image_id``'s entry."""
    original = storage.image_record_to_json

    def patched(record):
        entry = original(record)
        return rewrite(entry) if record.image_id == image_id else entry

    monkeypatch.setattr(storage, "image_record_to_json", patched)
    monkeypatch.setattr(backends, "image_record_to_json", patched)


def _save_rewritten_entry(database, tmp_path, layout, monkeypatch, rewrite):
    """Save ``database`` with one image's stored entry rewritten; returns the path."""
    if layout == "wal":
        path = save_database_to(database, tmp_path / "db.shards", "sharded", durable=True)
        _rewrite_stored_entry(monkeypatch, "logged", rewrite)
        picture = database.get(database.image_ids[0]).picture
        with DurableShardedStore(database, path) as store:
            store.log_upsert(database.add_picture(picture, "logged"))
        return path
    file_name = dict(BACKEND_TARGETS)[layout]
    _rewrite_stored_entry(monkeypatch, database.image_ids[0], rewrite)
    return save_database_to(database, tmp_path / file_name, layout)


def _save_rewritten(database, tmp_path, layout, monkeypatch, rewrite):
    """Save ``database`` with one image's stored text rewritten; returns the path."""

    def rewrite_entry(entry):
        bestring = entry["bestring"]
        return dict(
            entry, bestring=dict(bestring, x=rewrite(bestring["x"]), y=rewrite(bestring["y"]))
        )

    return _save_rewritten_entry(database, tmp_path, layout, monkeypatch, rewrite_entry)


def _save_rewritten_picture(database, tmp_path, layout, monkeypatch, rewrite):
    """Save ``database`` with one image's stored picture edited in place by ``rewrite``."""

    def rewrite_entry(entry):
        picture = copy.deepcopy(entry["picture"])
        rewrite(picture)
        return dict(entry, picture=picture)

    return _save_rewritten_entry(database, tmp_path, layout, monkeypatch, rewrite_entry)


def _set_icon(index, **fields):
    """A picture rewrite that sets ``fields`` on the stored icon at ``index``."""
    return lambda picture: picture["icons"][index].update(fields)


class TestStoredBEStringText:
    """Stored BE-strings are compared as text first, parsed only on a difference."""

    @pytest.mark.parametrize("layout", LOAD_LAYOUTS)
    def test_whitespace_only_difference_still_loads(
        self, populated_database, tmp_path, monkeypatch, layout
    ):
        path = _save_rewritten(
            populated_database, tmp_path, layout, monkeypatch,
            lambda text: "  " + text.replace(" ", " \t ") + "\n",
        )
        restored = load_database_from(path)
        assert restored.image_ids == populated_database.image_ids
        for record in restored:
            assert record.bestring == populated_database.get(record.image_id).bestring

    @pytest.mark.parametrize("layout", LOAD_LAYOUTS)
    def test_reordered_symbols_are_rejected_naming_the_path(
        self, populated_database, tmp_path, monkeypatch, layout
    ):
        path = _save_rewritten(
            populated_database, tmp_path, layout, monkeypatch,
            lambda text: " ".join(reversed(text.split())),
        )
        with pytest.raises(StorageError, match=re.escape(str(path)) + ".*does not match"):
            load_database_from(path)

    def test_label_with_whitespace_is_still_parsed(
        self, scene_collection, office, tmp_path, monkeypatch
    ):
        # No writer can store such a label: the icon itself rejects it.
        with pytest.raises(ValueError, match="whitespace"):
            office.add_icon("coffee mug", office.icons[0].mbr)
        # A file that holds one anyway fails its picture decode on every
        # layout, before any text comparison could accept it.
        for layout in LOAD_LAYOUTS:
            database = ImageDatabase()
            database.add_pictures(scene_collection)
            with monkeypatch.context() as patch:
                path = _save_rewritten_picture(
                    database, tmp_path / layout, layout, patch,
                    _set_icon(0, label="coffee mug"),
                )
            with pytest.raises(
                StorageError,
                match=re.escape(str(path)) + ".*malformed image entry: .*whitespace",
            ):
                load_database_from(path)


#: Stored pictures every layout must reject at load, each with the phrase
#: its picture decode raises.  A label holding whitespace is
#: ``test_label_with_whitespace_is_still_parsed``.
PICTURE_CORRUPTIONS = {
    "icon-outside-frame": (
        lambda picture: picture["icons"][0].update(mbr=[0, 0, picture["width"] + 1, 1]),
        "exceeds the",
    ),
    "inverted-mbr": (_set_icon(0, mbr=[5.0, 1.0, 2.0, 3.0]), "must not exceed"),
    "non-positive-frame": (lambda picture: picture.update(width=0.0), "positive width"),
    "duplicate-identifier": (
        lambda picture: picture["icons"][1].update(
            label=picture["icons"][0]["label"], instance=picture["icons"][0]["instance"]
        ),
        "duplicate icon identifier",
    ),
    "negative-instance": (_set_icon(0, instance=-1), "non-negative"),
    "non-string-label": (_set_icon(0, label=5), "non-empty string"),
    "nan-frame": (lambda picture: picture.update(width=float("nan")), "positive width"),
    "nan-coordinate": (_set_icon(0, mbr=[float("nan"), 1.0, 2.0, 3.0]), "must not exceed"),
    "fractional-instance": (_set_icon(0, instance=1.5), "must be an integer"),
    "boolean-instance": (_set_icon(0, instance=True), "must be an integer"),
    # These two used to load: icon 0's instance is 0, so its identifier is the
    # bare label either way, and ``int()`` read the value back as 0.
    "integral-float-instance": (_set_icon(0, instance=0.0), "must be an integer"),
    "false-instance": (_set_icon(0, instance=False), "must be an integer"),
    # This one used to load, and the record then carried an integer name.
    "non-string-name": (lambda picture: picture.update(name=5), "must be a string"),
}


class TestStoredPictureChecks:
    """Every load-time picture check holds on every layout."""

    @pytest.mark.parametrize("corruption", sorted(PICTURE_CORRUPTIONS))
    @pytest.mark.parametrize("layout", LOAD_LAYOUTS)
    def test_corrupt_picture_is_rejected_naming_the_path(
        self, populated_database, tmp_path, monkeypatch, layout, corruption
    ):
        rewrite, phrase = PICTURE_CORRUPTIONS[corruption]
        path = _save_rewritten_picture(
            populated_database, tmp_path, layout, monkeypatch, rewrite
        )
        with pytest.raises(
            StorageError, match=re.escape(str(path)) + ".*malformed image entry: .*" + phrase
        ):
            load_database_from(path)

    # A logged upsert's id comes from its log record, so only these layouts
    # can hold such an id.
    @pytest.mark.parametrize("image_id", [5, ""])
    @pytest.mark.parametrize("layout", ["json", "sharded"])
    def test_image_id_that_is_not_a_non_empty_string_is_rejected_naming_the_path(
        self, populated_database, tmp_path, monkeypatch, layout, image_id
    ):
        path = _save_rewritten_entry(
            populated_database, tmp_path, layout, monkeypatch,
            lambda entry: dict(entry, image_id=image_id),
        )
        with pytest.raises(
            StorageError,
            match=re.escape(str(path))
            + ".*malformed image entry: image id .* must be a non-empty string",
        ):
            load_database_from(path)

    @pytest.mark.parametrize("backend, file_name", BACKEND_TARGETS)
    def test_instances_round_trip_as_integers(self, tmp_path, backend, file_name):
        from repro.geometry.rectangle import Rectangle
        from repro.iconic.icon import IconObject
        from repro.iconic.picture import SymbolicPicture

        # A fractional instance used to be stored as ``a#1.5`` and then fail
        # every load; now no icon holds one, so no file can.
        with pytest.raises(ValueError, match="must be an integer"):
            IconObject("a", Rectangle(3, 3, 4, 4), 1.5)
        icons = (IconObject("a", Rectangle(3, 3, 4, 4), 7), IconObject("a", Rectangle(1, 1, 2, 2)))
        picture = SymbolicPicture(10.0, 10.0, icons, "p")
        database = ImageDatabase()
        database.add_picture(picture)
        path = save_database_to(database, tmp_path / file_name, backend)
        restored = load_database_from(path).get("p").picture
        assert restored == picture
        assert restored.identifiers == ["a", "a#7"]
        assert [type(icon.instance) for icon in restored.icons] == [int, int]

    @pytest.mark.parametrize("layout", LOAD_LAYOUTS)
    def test_icons_stored_out_of_canonical_order_load_canonical(
        self, populated_database, tmp_path, monkeypatch, layout
    ):
        path = _save_rewritten_picture(
            populated_database, tmp_path, layout, monkeypatch,
            lambda picture: picture["icons"].reverse(),
        )
        restored = load_database_from(path)
        assert restored.image_ids == populated_database.image_ids
        for record in restored:
            expected = populated_database.get(record.image_id)
            assert record.picture == expected.picture
            assert record.picture.icons == tuple(
                sorted(record.picture.icons, key=lambda icon: (icon.label, icon.instance))
            )
            assert record.bestring == expected.bestring


def _with_images(rewrite):
    """A JSON document rewrite that stores ``rewrite(images)`` as its ``images``."""
    return lambda document: dict(document, images=rewrite(document["images"]))


#: Stored documents every loader must refuse, each with the phrase of its
#: error.  A ``json`` rewrite maps the decoded document to the one stored; a
#: ``sharded`` rewrite maps the entries of the only shard file to the records
#: stored in it.
DOCUMENT_CORRUPTIONS = {
    "list-document": {
        "json": (lambda document: [1, 2], "bad structure"),
        "sharded": (lambda entries: entries + [[1, 2]], "corrupt record: not an object"),
    },
    "string-document": {
        "json": (lambda document: "text", "bad structure"),
        "sharded": (lambda entries: entries + ["text"], "corrupt record: not an object"),
    },
    "null-images": {"json": (_with_images(lambda images: None), "bad structure")},
    "number-images": {"json": (_with_images(lambda images: 5), "bad structure")},
    "duplicate-id": {
        "json": (_with_images(lambda images: images + images[:1]), "stored twice"),
        "sharded": (lambda entries: entries + entries[:1], "stored twice"),
    },
}


def _save_rewritten_document(database, tmp_path, layout, rewrite):
    """Save ``database`` in ``layout`` with its stored document rewritten."""
    if layout == "json":
        path = save_database_to(database, tmp_path / "db.json", "json")
        path.write_text(json.dumps(rewrite(json.loads(path.read_text()))))
        return path
    path = save_database_to(database, tmp_path / "db.shards", "sharded", shard_count=1)
    entries = [storage.image_record_to_json(record) for record in database]
    _write_shard_entries(path / "shard-0000.bin", rewrite(entries))
    return path


class TestStoredDocumentChecks:
    """A document of the wrong shape fails the load as a StorageError naming the path."""

    @pytest.mark.parametrize(
        "layout, corruption",
        [
            (layout, corruption)
            for corruption, rewrites in sorted(DOCUMENT_CORRUPTIONS.items())
            for layout in rewrites
        ],
    )
    def test_malformed_document_is_refused_naming_the_path(
        self, populated_database, tmp_path, layout, corruption
    ):
        rewrite, phrase = DOCUMENT_CORRUPTIONS[corruption][layout]
        path = _save_rewritten_document(populated_database, tmp_path, layout, rewrite)
        with pytest.raises(StorageError, match=re.escape(str(path)) + ".*" + phrase):
            load_database_from(path)


# ----------------------------------------------------------------------
# Dirty tracking and incremental saves
# ----------------------------------------------------------------------
class TestDirtyTracking:
    def test_mutations_mark_dirty(self, office, traffic):
        from repro.geometry.rectangle import Rectangle

        database = ImageDatabase()
        database.add_picture(office)
        database.add_picture(traffic)
        assert database.dirty_ids == {office.name, traffic.name}
        database.clear_dirty()
        database.add_object(office.name, "mug", Rectangle(1, 1, 3, 3))
        assert database.dirty_ids == {office.name}
        database.remove_picture(traffic.name)
        assert database.dirty_ids == {office.name, traffic.name}

    def test_save_and_load_clear_dirty(self, populated_database, tmp_path):
        assert populated_database.dirty_ids
        path = save_database_to(populated_database, tmp_path / "db.shards", "sharded")
        assert populated_database.dirty_ids == frozenset()
        assert load_database_from(path).dirty_ids == frozenset()

    def test_from_file_leaves_system_clean(self, scene_collection, tmp_path):
        system = RetrievalSystem.from_pictures(scene_collection)
        path = system.save(tmp_path / "db.json")
        reloaded = RetrievalSystem.from_file(path)
        assert reloaded._engine.database.dirty_ids == frozenset()


class TestIncrementalSharded:
    def test_only_dirty_shards_rewritten(self, populated_database, tmp_path, office):
        path = save_database_to(
            populated_database, tmp_path / "db.shards", "sharded", shard_count=8
        )
        before = {f.name: f.read_bytes() for f in path.glob("shard-*.bin")}
        renamed = office.renamed("fresh-office")
        populated_database.add_picture(renamed)
        save_database_to(populated_database, path, "sharded", incremental=True)
        after = {f.name: f.read_bytes() for f in path.glob("shard-*.bin")}
        expected_shard = f"shard-{shard_index_for('fresh-office', 8):04d}.bin"
        changed = {name for name in before if before[name] != after[name]}
        assert changed == {expected_shard}
        restored = load_database_from(path)
        assert restored.image_ids == populated_database.image_ids

    def test_incremental_removal(self, populated_database, tmp_path):
        path = save_database_to(populated_database, tmp_path / "db.shards", "sharded")
        victim = populated_database.image_ids[0]
        populated_database.remove_picture(victim)
        save_database_to(populated_database, path, "sharded", incremental=True)
        restored = load_database_from(path)
        assert victim not in restored
        assert restored.image_ids == populated_database.image_ids

    def test_incremental_object_edit(self, populated_database, tmp_path):
        from repro.geometry.rectangle import Rectangle

        path = save_database_to(populated_database, tmp_path / "db.shards", "sharded")
        target = populated_database.image_ids[0]
        populated_database.add_object(target, "added-box", Rectangle(0, 0, 2, 2))
        save_database_to(populated_database, path, "sharded", incremental=True)
        restored = load_database_from(path)
        assert restored.get(target).bestring == populated_database.get(target).bestring

    def test_incremental_against_fresh_path_falls_back_to_full(
        self, populated_database, tmp_path
    ):
        path = save_database_to(
            populated_database, tmp_path / "db.shards", "sharded", incremental=True
        )
        assert load_database_from(path).image_ids == populated_database.image_ids

    def test_incremental_against_diverged_target_falls_back_to_full(
        self, populated_database, tmp_path, office
    ):
        # The target holds a different id set than the database minus its
        # dirty ids, so an incremental save would diverge: must full-save.
        path = save_database_to(populated_database, tmp_path / "db.shards", "sharded")
        other = ImageDatabase(name="other")
        other.add_picture(office.renamed("lone-office"))
        other.clear_dirty()
        save_database_to(other, path, "sharded", incremental=True)
        restored = load_database_from(path)
        assert restored.image_ids == ["lone-office"]

    def test_matches_full_save_content(self, populated_database, tmp_path, office):
        incremental_path = save_database_to(
            populated_database, tmp_path / "incremental.shards", "sharded"
        )
        populated_database.add_picture(office.renamed("late-arrival"))
        save_database_to(populated_database, incremental_path, "sharded", incremental=True)
        full_path = save_database_to(populated_database, tmp_path / "full.shards", "sharded")
        incremental_files = {
            f.name: f.read_bytes() for f in incremental_path.iterdir()
        }
        full_files = {f.name: f.read_bytes() for f in full_path.iterdir()}
        assert incremental_files == full_files


# ----------------------------------------------------------------------
# RetrievalSystem integration
# ----------------------------------------------------------------------
class TestRetrievalSystemBackends:
    @pytest.mark.parametrize("backend_name,file_name", BACKEND_TARGETS)
    def test_save_load_search(self, scene_collection, tmp_path, backend_name, file_name):
        system = RetrievalSystem.from_pictures(scene_collection)
        path = system.save(tmp_path / file_name, backend=backend_name)
        reloaded = RetrievalSystem.from_file(path)
        results = reloaded.query(scene_collection[0]).limit(1).execute()
        assert results and results[0].score == pytest.approx(1.0)

    def test_incremental_save_after_mutation(self, scene_collection, tmp_path, office):
        system = RetrievalSystem.from_pictures(scene_collection)
        path = system.save(tmp_path / "db.shards", backend="sharded")
        system.add_picture(office.renamed("new-arrival"))
        system.save(path, backend="sharded", incremental=True)
        reloaded = RetrievalSystem.from_file(path)
        assert "new-arrival" in reloaded.image_ids


class TestIncompatibleTargets:
    """Wrong-format and wrong-kind targets must raise StorageError, never OSError."""

    def test_sharded_save_onto_existing_file(self, populated_database, tmp_path):
        target = tmp_path / "plain.json"
        target.write_text("{}")
        with pytest.raises(StorageError, match="not a shard directory"):
            save_database_to(populated_database, target, "sharded")

    def test_json_save_onto_directory(self, populated_database, tmp_path):
        target = tmp_path / "a-directory"
        target.mkdir()
        with pytest.raises(StorageError, match="is a directory"):
            save_database_to(populated_database, target, "json")

    def test_json_describe_with_non_list_images(self, tmp_path):
        path = tmp_path / "weird.json"
        path.write_text(json.dumps({"schema_version": 1, "images": 5}))
        with pytest.raises(StorageError, match="bad structure"):
            describe_database(path)


class TestAtomicJsonSave:
    def test_a_failed_write_leaves_the_previous_database(
        self, populated_database, tmp_path, monkeypatch, office
    ):
        # Regression: the file was rewritten in place, so a write that
        # failed part-way left a document no load could read.
        path = save_database_to(populated_database, tmp_path / "db.json")
        stored = len(populated_database)
        populated_database.add_picture(office.renamed("never-stored"))

        def full_disk_dump(payload, handle, **options):
            handle.write(json.dumps(payload, **options)[:200])
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(json, "dump", full_disk_dump)
        with pytest.raises(StorageError, match=re.escape(str(path)) + " cannot be written"):
            save_database_to(populated_database, path)
        monkeypatch.undo()
        assert len(load_database_from(path)) == stored
        assert sorted(tmp_path.iterdir()) == [path]


class TestSqliteFilesAreRefused:
    """A SQLite file from an earlier release is refused on every door, untouched."""

    @staticmethod
    def _refusal(path):
        return re.escape(str(path)) + " is a SQLite database.*repro convert db.sqlite db.json"

    def test_loads_and_describes_are_refused(self, sqlite_file):
        with pytest.raises(StorageError, match=self._refusal(sqlite_file)):
            RetrievalSystem.from_file(sqlite_file)
        with pytest.raises(StorageError, match=self._refusal(sqlite_file)):
            describe_database(sqlite_file)

    def test_a_misleading_suffix_does_not_hide_one(self, sqlite_file):
        path = sqlite_file.rename(sqlite_file.with_name("looks-like.json"))
        with pytest.raises(StorageError, match=self._refusal(path)):
            load_database_from(path)

    def test_a_damaged_one_is_refused_by_its_header(self, sqlite_file):
        # Only the header is read, so a truncated file gets the same advice
        # rather than a JSON decoding error.
        sqlite_file.write_bytes(sqlite_file.read_bytes()[:100])
        with pytest.raises(StorageError, match=self._refusal(sqlite_file)):
            load_database_from(sqlite_file)
        with pytest.raises(StorageError, match=self._refusal(sqlite_file)):
            describe_database(sqlite_file)

    def test_a_file_shorter_than_the_header_is_read_as_json(self, tmp_path):
        path = tmp_path / "short.json"
        path.write_bytes(b"SQLite format")
        with pytest.raises(StorageError, match=re.escape(str(path))) as excinfo:
            load_database_from(path)
        assert "SQLite database" not in str(excinfo.value)

    def test_a_durable_load_is_refused_as_sqlite(self, sqlite_file):
        # The refusal comes before the durable check's "requires a sharded
        # database" error, so the message still says how to convert.
        with pytest.raises(StorageError, match=self._refusal(sqlite_file)):
            load_database_from(sqlite_file, durable=True)

    @pytest.mark.parametrize("backend", [None, "json"])
    def test_a_save_onto_one_is_refused_and_leaves_it_untouched(
        self, scene_collection, sqlite_file, backend
    ):
        before = sqlite_file.read_bytes()
        system = RetrievalSystem.from_pictures(scene_collection)
        with pytest.raises(StorageError, match=self._refusal(sqlite_file)):
            system.save(sqlite_file, backend=backend)
        assert sqlite_file.read_bytes() == before
        assert sorted(sqlite_file.parent.iterdir()) == [sqlite_file]

    def test_a_sharded_save_onto_one_is_refused_and_leaves_it_untouched(
        self, populated_database, sqlite_file
    ):
        before = sqlite_file.read_bytes()
        with pytest.raises(StorageError, match="is a file, not a shard directory"):
            save_database_to(populated_database, sqlite_file, "sharded")
        assert sqlite_file.read_bytes() == before
        assert sorted(sqlite_file.parent.iterdir()) == [sqlite_file]

    def test_a_fresh_sqlite_named_target_is_written_as_json(
        self, populated_database, tmp_path
    ):
        path = save_database_to(populated_database, tmp_path / "fresh.sqlite")
        assert describe_database(path)["format"] == "json"
        assert load_database_from(path).image_ids == populated_database.image_ids


# ----------------------------------------------------------------------
# Stored shortlist signatures (written by older releases) are never trusted
# ----------------------------------------------------------------------
class TestSignaturePersistence:
    @pytest.mark.parametrize("backend_name,file_name", BACKEND_TARGETS)
    def test_signatures_round_trip_through_every_backend(
        self, populated_database, tmp_path, backend_name, file_name
    ):
        from repro.index.shortlist import signature_for

        expected = {
            record.image_id: signature_for(record) for record in populated_database
        }
        path = save_database_to(populated_database, tmp_path / file_name, backend_name)
        # Loading keeps no signature; the engine derives each one at build.
        assert all(record.signature is None for record in load_database_from(path))
        system = RetrievalSystem.from_file(path)
        restored = system._engine.database
        assert restored.image_ids == populated_database.image_ids
        for record in restored:
            assert record.signature is not None, record.image_id
            assert record.signature == expected[record.image_id]

    def test_incremental_saves_refresh_dirty_signatures(
        self, populated_database, tmp_path
    ):
        from repro.geometry.rectangle import Rectangle
        from repro.index.shortlist import signature_for

        path = save_database_to(populated_database, tmp_path / "incr.shards", "sharded")
        image_id = populated_database.image_ids[0]
        populated_database.add_object(image_id, "fresh-box", Rectangle(1, 1, 3, 3))
        save_database_to(populated_database, path, "sharded", incremental=True)
        system = RetrievalSystem.from_file(path)
        signature = system._engine.database.get(image_id).signature
        assert signature is not None
        assert signature.label_counts.get("fresh-box") == 1
        assert signature == signature_for(populated_database.get(image_id))

    def test_corrupt_signature_payload_is_dropped_not_fatal(
        self, populated_database, tmp_path
    ):
        path = save_database_to(populated_database, tmp_path / "db.json", "json")
        payload = json.loads(path.read_text())
        payload["images"][0]["signature"] = {"version": 1, "garbage": True}
        payload["images"][1]["signature"] = "not-even-a-dict"
        path.write_text(json.dumps(payload))
        restored = load_database_from(path)
        first_two = [entry["image_id"] for entry in payload["images"][:2]]
        for image_id in first_two:
            assert restored.get(image_id).signature is None
        # Everything still queries correctly: the engine derives signatures.
        system = RetrievalSystem.from_file(path)
        office = populated_database.get("office-000").picture
        assert system.query(office).min_score(0.5).execute()

    @pytest.mark.parametrize("layout", ["json", "shard", "wal"])
    def test_stored_signature_never_prunes_a_ranked_image(
        self, populated_database, tmp_path, layout
    ):
        # Regression: a stored signature passed load as long as its lengths
        # and boundary counts matched, so shifted relation-pair codes made
        # the shortlist drop an exact match that an unfiltered scan ranks 1.0.
        target = "office-000"
        path = _save_with_stored_signatures(populated_database, tmp_path, layout, target)
        system = RetrievalSystem.from_file(path)
        pictures = [record.picture for record in populated_database]
        assert _filtered_rankings(system, pictures) == _reference_rankings(system, pictures)
        matched = system.query(populated_database.get(target).picture).min_score(0.9)
        assert target in [result.image_id for result in matched.limit(5).execute()]


#: The unfiltered reference scan every shortlisted ranking must equal.
_REFERENCE_SCAN = ExecutionOptions(
    kernel="reference",
    strategy="exhaustive",
    cache=False,
    executor="serial",
    shortlist=False,
)


def _filtered_rankings(system, pictures):
    return [
        [result.describe() for result in system.query(picture).min_score(0.9).execute()]
        for picture in pictures
    ]


def _reference_rankings(system, pictures):
    return [
        [
            result.describe()
            for result in system.query(picture)
            .min_score(0.9)
            .execution(_REFERENCE_SCAN)
            .execute()
        ]
        for picture in pictures
    ]


def _relation_pairs(facts):
    """The ``[a, b, code]`` relation-pair list older releases stored per axis.

    A pair's code packs the four comparisons between the two objects'
    boundary positions, for each identifier pair ``a < b``.
    """
    slots, begins, ends = facts.slots, facts.begins, facts.ends
    identifiers = sorted(slots)
    pairs = []
    for index, a in enumerate(identifiers):
        a_begin, a_end = begins[slots[a]], ends[slots[a]]
        for b in identifiers[index + 1 :]:
            b_begin, b_end = begins[slots[b]], ends[slots[b]]
            code = (
                (a_begin < b_begin)
                | (a_begin < b_end) << 1
                | (a_end < b_begin) << 2
                | (a_end < b_end) << 3
            )
            pairs.append([a, b, code])
    return pairs


def _stored_signature(record, corrupt):
    """The ``signature`` payload older releases stored beside each entry.

    ``corrupt`` shifts every relation-pair code by 5 (mod 16), which keeps the
    lengths and boundary counts those releases checked on load.
    """
    signature = ImageSignature.from_bestring(record.bestring, record.picture.labels)
    shift = 5 if corrupt else 0

    def axis(facts):
        return {
            "length": facts.length,
            "boundaries": facts.boundaries,
            "dummies": facts.dummies,
            "pairs": [[a, b, (code + shift) % 16] for a, b, code in _relation_pairs(facts)],
        }

    return {
        "version": 1,
        "width": signature.width,
        "bitmap": format(signature.bitmap, "x"),
        "labels": dict(sorted(signature.label_counts.items())),
        "x": axis(signature.x),
        "y": axis(signature.y),
    }


def _signed_entry(record, target):
    entry = storage.image_record_to_json(record)
    entry["signature"] = _stored_signature(record, corrupt=record.image_id == target)
    return entry


def _write_shard_entries(path, entries):
    """Rewrite one shard file in the binary layout of ``docs/storage-formats.md``."""
    chunks = [
        backends.SHARD_MAGIC,
        struct.pack("<BI", backends.SHARD_FORMAT_VERSION, len(entries)),
    ]
    for entry in entries:
        blob = zlib.compress(json.dumps(entry, sort_keys=True).encode("utf-8"))
        chunks += [struct.pack("<I", len(blob)), blob]
    path.write_bytes(b"".join(chunks))


def _save_with_stored_signatures(database, tmp_path, layout, target):
    """Save ``database`` with old-style signatures, ``target``'s corrupted."""
    if layout == "json":
        path = save_database_to(database, tmp_path / "db.json", "json")
        payload = json.loads(path.read_text())
        payload["images"] = [
            _signed_entry(database.get(entry["image_id"]), target)
            for entry in payload["images"]
        ]
        path.write_text(json.dumps(payload))
        return path
    if layout == "shard":
        path = save_database_to(database, tmp_path / "db.shards", "sharded")
        manifest = json.loads((path / MANIFEST_NAME).read_text())
        for shard in manifest["shards"].values():
            _write_shard_entries(
                path / shard["file"],
                [_signed_entry(database.get(image_id), target) for image_id in shard["images"]],
            )
        return path
    path = save_database_to(database, tmp_path / "db.shards", "sharded", durable=True)
    with DurableShardedStore(database, path) as store:
        store.wal.append("upsert", target, _signed_entry(database.get(target), target))
    return path

# ----------------------------------------------------------------------
# Durable backend: WAL-backed sharded directories
# ----------------------------------------------------------------------
class TestDurableBackend:
    def test_durable_round_trip(self, populated_database, tmp_path):
        path = save_database_to(
            populated_database, tmp_path / "db.shards", "sharded", durable=True
        )
        restored = load_database_from(path, durable=True)
        assert restored.image_ids == populated_database.image_ids
        for image_id in restored.image_ids:
            assert restored.get(image_id).bestring == populated_database.get(image_id).bestring

    def test_describe_reports_wal_block(self, populated_database, tmp_path):
        path = save_database_to(
            populated_database, tmp_path / "db.shards", "sharded", durable=True
        )
        wal = describe_database(path)["wal"]
        assert wal["file"] == "wal.log"
        assert wal["snapshot_lsn"] == 0
        assert wal["last_lsn"] == 0
        assert wal["pending_records"] == 0
        assert wal["clean"] is True
        # Plain sharded directories have no wal block at all.
        plain = save_database_to(populated_database, tmp_path / "plain.shards", "sharded")
        assert "wal" not in describe_database(plain)

    def test_pending_log_records_replay_on_load(self, populated_database, tmp_path, office):
        path = save_database_to(
            populated_database, tmp_path / "db.shards", "sharded", durable=True
        )
        victim = populated_database.image_ids[0]
        with DurableShardedStore(populated_database, path) as store:
            populated_database.add_picture(office.renamed("walled-in"))
            store.log_upsert(populated_database.get("walled-in"))
            populated_database.remove_picture(victim)
            store.log_delete(victim)
            assert store.pending_records == 2
        # No compaction happened: the snapshot on disk predates both
        # mutations, so the load must replay them from the log.
        restored = load_database_from(path)
        assert "walled-in" in restored
        assert victim not in restored
        assert restored.image_ids == populated_database.image_ids

    def test_compaction_folds_log_into_snapshot(
        self, populated_database, tmp_path, office
    ):
        path = save_database_to(
            populated_database, tmp_path / "db.shards", "sharded", durable=True
        )
        with DurableShardedStore(populated_database, path) as store:
            populated_database.add_picture(office.renamed("compact-me"))
            store.log_upsert(populated_database.get("compact-me"))
            assert store.pending_records == 1
            store.compact()
            assert store.pending_records == 0
            assert store.compactions == 1
        wal = describe_database(path)["wal"]
        assert wal["pending_records"] == 0
        assert wal["snapshot_lsn"] == wal["last_lsn"] == 1
        assert "compact-me" in load_database_from(path)

    def test_crash_window_untrimmed_log_replays_idempotently(
        self, populated_database, tmp_path, office
    ):
        # Simulate a crash after the manifest swap but before the log
        # truncation: the manifest's snapshot_lsn already covers the
        # records still sitting in the log, so replay must skip them.
        path = save_database_to(
            populated_database, tmp_path / "db.shards", "sharded", durable=True
        )
        with DurableShardedStore(populated_database, path) as store:
            populated_database.add_picture(office.renamed("twice-applied"))
            store.log_upsert(populated_database.get("twice-applied"))
            store.compact()
        log_bytes = (path / "wal.log").read_bytes()
        clean = load_database_from(path)

        # Rebuild the pre-truncation log next to the post-compaction manifest.
        fresh = save_database_to(
            populated_database, tmp_path / "crashed.shards", "sharded", durable=True
        )
        with DurableShardedStore(populated_database, fresh) as store:
            store.log_upsert(populated_database.get("twice-applied"))
            store.compact()
        (fresh / "wal.log").write_bytes(log_bytes)
        recovered = load_database_from(fresh)
        assert recovered.image_ids == clean.image_ids
        for image_id in recovered.image_ids:
            assert recovered.get(image_id).bestring == clean.get(image_id).bestring

    def test_crash_window_shards_written_manifest_not_swapped(
        self, populated_database, tmp_path, office
    ):
        # A crash between the shard rewrite and the manifest swap leaves the
        # old manifest pointing at a log that still holds the delta: the
        # next load must replay it and see the mutation exactly once.
        path = save_database_to(
            populated_database, tmp_path / "db.shards", "sharded", durable=True
        )
        manifest_bytes = (path / MANIFEST_NAME).read_bytes()
        with DurableShardedStore(populated_database, path) as store:
            populated_database.add_picture(office.renamed("mid-compaction"))
            store.log_upsert(populated_database.get("mid-compaction"))
            log_bytes = (path / "wal.log").read_bytes()
            store.compact()
        # Roll the manifest and log back to their pre-compaction state; the
        # rewritten shards stay (they are a superset keyed by the manifest).
        (path / MANIFEST_NAME).write_bytes(manifest_bytes)
        (path / "wal.log").write_bytes(log_bytes)
        recovered = load_database_from(path)
        assert "mid-compaction" in recovered
        assert recovered.image_ids == populated_database.image_ids

    def test_durable_save_requires_sharded_backend(self, populated_database, tmp_path):
        with pytest.raises(ValueError, match="sharded"):
            save_database_to(
                populated_database, tmp_path / "db.json", "json", durable=True
            )

    def test_durable_load_requires_sharded_database(self, populated_database, tmp_path):
        path = save_database_to(populated_database, tmp_path / "db.json", "json")
        with pytest.raises(ValueError, match="sharded"):
            load_database_from(path, durable=True)

    def test_torn_log_tail_recovers_to_acked_prefix(
        self, populated_database, tmp_path, office
    ):
        path = save_database_to(
            populated_database, tmp_path / "db.shards", "sharded", durable=True
        )
        with DurableShardedStore(populated_database, path) as store:
            populated_database.add_picture(office.renamed("survives"))
            store.log_upsert(populated_database.get("survives"))
            populated_database.add_picture(office.renamed("torn-away"))
            store.log_upsert(populated_database.get("torn-away"))
        log_path = path / "wal.log"
        log_path.write_bytes(log_path.read_bytes()[:-7])  # tear the last record
        recovered = load_database_from(path)
        assert "survives" in recovered
        assert "torn-away" not in recovered

    def test_store_lsns_resume_across_reopen(self, populated_database, tmp_path, office):
        path = save_database_to(
            populated_database, tmp_path / "db.shards", "sharded", durable=True
        )
        with DurableShardedStore(populated_database, path) as store:
            populated_database.add_picture(office.renamed("first"))
            assert store.log_upsert(populated_database.get("first")) == 1
            store.compact()
        reloaded = load_database_from(path, durable=True)
        with DurableShardedStore(reloaded, path) as store:
            assert store.last_lsn == 1
            reloaded.add_picture(office.renamed("second"))
            assert store.log_upsert(reloaded.get("second")) == 2

    def _save_reloaded_durably(self, path):
        # Loading replays the pending records and leaves a clean dirty set;
        # the id set still matches the manifest's, so the save stays
        # incremental and must rewrite the logged images' shards itself.
        reloaded = load_database_from(path, durable=True)
        save_database_to(reloaded, path, "sharded", durable=True, incremental=True)
        assert describe_database(path)["wal"]["pending_records"] == 0
        return load_database_from(path)

    def test_durable_save_keeps_a_logged_delete_and_re_add(
        self, populated_database, tmp_path, office
    ):
        # Regression: the save rewrote only the manifest and truncated the
        # log, so the re-added id reloaded as its old scene.
        path = save_database_to(
            populated_database, tmp_path / "db.shards", "sharded", durable=True
        )
        old = populated_database.get("traffic-000").bestring
        with DurableShardedStore(populated_database, path) as store:
            populated_database.remove_picture("traffic-000")
            store.log_delete("traffic-000")
            store.log_upsert(populated_database.add_picture(office, "traffic-000"))
        logged = populated_database.get("traffic-000").bestring
        assert logged != old
        assert self._save_reloaded_durably(path).get("traffic-000").bestring == logged

    def test_durable_save_keeps_a_logged_object_edit(
        self, populated_database, tmp_path
    ):
        from repro.geometry.rectangle import Rectangle

        path = save_database_to(
            populated_database, tmp_path / "db.shards", "sharded", durable=True
        )
        with DurableShardedStore(populated_database, path) as store:
            store.log_upsert(
                populated_database.add_object("traffic-000", "added-box", Rectangle(0, 0, 2, 2))
            )
        logged = populated_database.get("traffic-000").bestring
        assert self._save_reloaded_durably(path).get("traffic-000").bestring == logged


# ----------------------------------------------------------------------
# Power-loss ordering of snapshot swaps
# ----------------------------------------------------------------------
class TestPowerLossOrdering:
    @pytest.mark.parametrize("caller", ["store.compact", "save_database_to"])
    def test_each_rename_is_synced_before_and_its_directory_after(
        self, caller, populated_database, tmp_path, office, monkeypatch
    ):
        # Regression: shard files were renamed into place unsynced and no
        # rename was followed by a directory fsync, so after a power cut the
        # synced manifest could name shard bytes that never reached the disk
        # while the log records that could rebuild them were truncated.
        # A durable save of the same dirty directory runs the same sequence.
        path = save_database_to(
            populated_database, tmp_path / "db.shards", "sharded", durable=True
        )
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def recording_fsync(descriptor):
            events.append(("fsync", os.fstat(descriptor).st_ino))
            real_fsync(descriptor)

        def recording_replace(source, target):
            events.append(
                ("replace", os.stat(source).st_ino, os.stat(Path(target).parent).st_ino,
                 Path(target).name)
            )
            real_replace(source, target)

        with DurableShardedStore(populated_database, path) as store:
            store.log_upsert(populated_database.add_picture(office, "logged"))
            populated_database.remove_picture("traffic-000")
            store.log_delete("traffic-000")
            monkeypatch.setattr(os, "fsync", recording_fsync)
            monkeypatch.setattr(os, "replace", recording_replace)
            if caller == "store.compact":
                store.compact()
        if caller == "save_database_to":
            save_database_to(
                populated_database, path, "sharded", durable=True, incremental=True
            )
        monkeypatch.undo()

        def step(name):
            # Shards swap in together; the manifest depends on all of them,
            # and the log truncation on the manifest.
            return "shards" if name.startswith("shard-") else name

        renames = [index for index, event in enumerate(events) if event[0] == "replace"]
        steps = [step(events[index][3]) for index in renames]
        assert steps[-2:] == [MANIFEST_NAME, "wal.log"]
        assert steps[:-2] and set(steps[:-2]) == {"shards"}
        for position, index in enumerate(renames):
            _, file_inode, directory_inode, name = events[index]
            assert ("fsync", file_inode) in events[:index], f"{name} renamed unsynced"
            dependent = [
                later for later in renames[position + 1 :]
                if step(events[later][3]) != step(name)
            ]
            until = dependent[0] if dependent else len(events)
            assert ("fsync", directory_inode) in events[index + 1 : until], (
                f"directory not synced after the rename of {name} and before the next step"
            )
        assert load_database_from(path).image_ids == populated_database.image_ids
