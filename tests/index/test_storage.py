"""Unit tests for JSON persistence."""

import copy
import json

import pytest

from repro.index.database import ImageDatabase
from repro.index.storage import (
    StorageError,
    bestring_for_file,
    database_from_entries,
    database_from_json,
    database_to_json,
    load_database,
    picture_from_json_text,
    picture_to_json_text,
    save_database,
)


@pytest.fixture
def populated_database(scene_collection):
    database = ImageDatabase(name="test-db")
    database.add_pictures(scene_collection)
    return database


class TestRoundTrip:
    def test_in_memory_roundtrip(self, populated_database):
        payload = database_to_json(populated_database)
        restored = database_from_json(payload)
        assert restored.image_ids == populated_database.image_ids
        assert restored.name == "test-db"
        for image_id in populated_database.image_ids:
            assert restored.get(image_id).picture == populated_database.get(image_id).picture
            assert restored.get(image_id).bestring == populated_database.get(image_id).bestring

    def test_database_from_json_leaves_its_payload_as_it_was(self, populated_database):
        payload = json.loads(json.dumps(database_to_json(populated_database)))
        before = copy.deepcopy(payload)
        entries = payload["images"]
        database_from_json(payload)
        assert payload == before
        assert payload["images"] is entries

    def test_database_from_entries_drops_each_entry_it_stored(self, populated_database):
        entries = database_to_json(populated_database)["images"]
        restored = database_from_entries("test-db", entries)
        assert entries == [None] * len(populated_database)
        assert restored.image_ids == populated_database.image_ids
        assert restored.dirty_ids == frozenset()

    def test_a_failed_entry_and_those_after_it_are_kept(self, populated_database):
        entries = database_to_json(populated_database)["images"]
        del entries[2]["picture"]
        kept = entries[2:]
        with pytest.raises(StorageError, match="malformed image entry"):
            database_from_entries("test-db", entries)
        assert entries == [None, None] + kept

    def test_file_roundtrip(self, populated_database, tmp_path):
        path = save_database(populated_database, tmp_path / "db" / "images.json")
        assert path.exists()
        restored = load_database(path)
        assert restored.image_ids == populated_database.image_ids

    def test_picture_text_roundtrip(self, office):
        assert picture_from_json_text(picture_to_json_text(office)) == office

    def test_bestring_for_file_matches_encoding(self, office):
        from repro.core.construct import encode_picture

        assert bestring_for_file(office) == encode_picture(office).to_dict()


class TestErrorHandling:
    def test_unsupported_schema_version(self, populated_database):
        payload = database_to_json(populated_database)
        payload["schema_version"] = 999
        with pytest.raises(StorageError):
            database_from_json(payload)

    def test_malformed_entry(self, populated_database):
        payload = database_to_json(populated_database)
        del payload["images"][0]["picture"]
        with pytest.raises(StorageError):
            database_from_json(payload)

    def test_corrupted_bestring_detected(self, populated_database):
        payload = database_to_json(populated_database)
        payload["images"][0]["bestring"]["x"] = "Z.b Z.e"
        with pytest.raises(StorageError):
            database_from_json(payload)

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(StorageError):
            load_database(path)

    def test_invalid_picture_text(self):
        with pytest.raises(StorageError):
            picture_from_json_text("][")

    def test_saved_file_is_stable_json(self, populated_database, tmp_path):
        path = save_database(populated_database, tmp_path / "images.json")
        parsed = json.loads(path.read_text())
        assert parsed["schema_version"] == 1
        assert len(parsed["images"]) == len(populated_database)
