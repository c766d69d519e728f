"""Unit tests for the image database."""

import pytest

from repro.core.construct import encode_picture
from repro.geometry.rectangle import Rectangle
from repro.index.database import DatabaseError, ImageDatabase
from repro.index.storage import database_from_json, database_to_json


class TestWholeImageOperations:
    def test_add_and_get(self, office):
        database = ImageDatabase()
        record = database.add_picture(office)
        assert record.image_id == office.name
        assert database.get(office.name).picture == office
        assert office.name in database
        assert len(database) == 1

    def test_add_requires_an_id(self, office):
        database = ImageDatabase()
        anonymous = office.renamed("")
        with pytest.raises(DatabaseError):
            database.add_picture(anonymous)
        record = database.add_picture(anonymous, image_id="named")
        assert record.image_id == "named"
        assert record.picture.name == "named"

    @pytest.mark.parametrize("image_id", [5, 0, False, b"office"])
    def test_id_that_is_not_a_string_is_refused(self, office, image_id):
        database = ImageDatabase()
        with pytest.raises(DatabaseError, match="must be a non-empty string"):
            database.add_picture(office, image_id)
        assert len(database) == 0

    def test_record_keeps_the_name_string_as_its_id(self, office):
        # An equal id built separately, as a decoded entry's is.
        image_id = "".join(list(office.name))
        assert image_id is not office.name
        record = ImageDatabase.encode_record(office, image_id)
        assert record.image_id is record.picture.name
        assert record.picture is office

    def test_duplicate_id_rejected(self, office):
        database = ImageDatabase()
        database.add_picture(office)
        with pytest.raises(DatabaseError):
            database.add_picture(office)

    def test_add_pictures_bulk(self, scene_collection):
        database = ImageDatabase()
        records = database.add_pictures(scene_collection)
        assert len(records) == len(scene_collection)
        assert database.image_ids == sorted(p.name for p in scene_collection)

    def test_remove_picture(self, office):
        database = ImageDatabase()
        database.add_picture(office)
        removed = database.remove_picture(office.name)
        assert removed.picture == office
        assert len(database) == 0
        with pytest.raises(DatabaseError):
            database.remove_picture(office.name)

    def test_get_unknown_raises(self):
        with pytest.raises(DatabaseError):
            ImageDatabase().get("nope")

    def test_stored_bestring_matches_picture(self, office):
        database = ImageDatabase()
        record = database.add_picture(office)
        assert record.bestring.x.symbols == encode_picture(office).x.symbols
        assert record.storage_symbols == record.bestring.total_symbols
        assert record.object_count == len(office)


class TestObjectLevelOperations:
    def test_add_object_updates_everything(self, office):
        database = ImageDatabase()
        database.add_picture(office)
        record = database.add_object(office.name, "mug", Rectangle(60, 46, 64, 50))
        assert record.picture.has_icon("mug")
        expected = encode_picture(record.picture)
        assert record.bestring.x.symbols == expected.x.symbols
        assert record.indexed.to_bestring().y.symbols == expected.y.symbols

    def test_add_object_existing_label_gets_new_instance(self, landscape):
        database = ImageDatabase()
        database.add_picture(landscape)
        record = database.add_object(landscape.name, "tree", Rectangle(100, 30, 110, 50))
        assert record.picture.has_icon("tree#2")

    def test_remove_object_updates_everything(self, office):
        database = ImageDatabase()
        database.add_picture(office)
        record = database.remove_object(office.name, "phone")
        assert not record.picture.has_icon("phone")
        expected = encode_picture(record.picture)
        assert record.bestring.x.symbols == expected.x.symbols

    @pytest.mark.parametrize(
        "label, mbr",
        [
            ("", Rectangle(1, 1, 3, 3)),
            ("coffee mug", Rectangle(1, 1, 3, 3)),
            ("mug", Rectangle(1, 1, 3, 10_000)),
        ],
        ids=["empty-label", "whitespace-label", "outside-frame"],
    )
    def test_rejected_add_object_changes_nothing(self, office, label, mbr):
        database = ImageDatabase()
        database.add_picture(office)
        database.clear_dirty()
        record = database.get(office.name)

        def state():
            return (
                record.picture,
                record.bestring,
                record.indexed.identifiers,
                record.indexed.to_bestring(),
                database.dirty_ids,
            )

        before = state()
        with pytest.raises(ValueError):
            database.add_object(office.name, label, mbr)
        assert state() == before
        edited = database.add_object(office.name, "tree", Rectangle(2, 2, 5, 5))
        assert edited.bestring == encode_picture(edited.picture)
        assert edited.indexed.to_bestring() == edited.bestring
        reloaded = database_from_json(database_to_json(database))
        assert reloaded.get(office.name).bestring == edited.bestring

    def test_add_then_remove_restores_bestring(self, office):
        database = ImageDatabase()
        original = database.add_picture(office).bestring
        database.add_object(office.name, "mug", Rectangle(60, 46, 64, 50))
        record = database.remove_object(office.name, "mug")
        assert record.bestring.x.symbols == original.x.symbols
        assert record.bestring.y.symbols == original.y.symbols


class TestLazyDynamicIndex:
    def test_not_built_by_add_picture_or_load(self, scene_collection):
        database = ImageDatabase()
        records = database.add_pictures(scene_collection)
        assert all(record._indexed is None for record in records)
        loaded = database_from_json(database_to_json(database))
        assert all(record._indexed is None for record in loaded)

    def test_edits_on_a_loaded_record_match_a_re_encoding(self, scene_collection):
        source = ImageDatabase()
        source.add_pictures(scene_collection)
        loaded = database_from_json(database_to_json(source))
        for picture in scene_collection:
            identifier = picture.identifiers[0]
            loaded.add_object(picture.name, "mug", Rectangle(1, 1, 3, 3))
            record = loaded.remove_object(picture.name, identifier)
            assert record.bestring == encode_picture(record.picture)
            assert record.indexed.to_bestring() == record.bestring


class TestStatistics:
    def test_statistics(self, scene_collection):
        database = ImageDatabase()
        database.add_pictures(scene_collection)
        stats = database.statistics()
        assert stats["images"] == len(scene_collection)
        assert stats["objects"] == sum(len(p) for p in scene_collection)
        assert stats["objects_per_image"] == pytest.approx(
            stats["objects"] / stats["images"]
        )
        assert stats["symbols"] > stats["objects"] * 2

    def test_empty_statistics(self):
        stats = ImageDatabase().statistics()
        assert stats["images"] == 0
        assert stats["objects_per_image"] == 0.0
