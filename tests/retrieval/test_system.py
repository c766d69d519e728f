"""Unit tests for the retrieval system facade."""

import gc
import json

import pytest

from repro.datasets.synthetic import SceneParameters, random_pictures
from repro.geometry.rectangle import Rectangle
from repro.index.backends import load_database_from
from repro.index.database import ImageDatabase, _collector_paused
from repro.index.query import QueryEngine
from repro.index.storage import StorageError
from repro.retrieval.system import RetrievalSystem


@pytest.fixture
def system(scene_collection):
    return RetrievalSystem.from_pictures(scene_collection)


class TestMaintenance:
    def test_from_pictures_and_len(self, system, scene_collection):
        assert len(system) == len(scene_collection)
        assert system.image_ids == sorted(p.name for p in scene_collection)

    def test_add_and_remove_picture(self, system, office):
        system.add_picture(office.renamed("extra"))
        assert "extra" in system.image_ids
        system.remove_picture("extra")
        assert "extra" not in system.image_ids

    def test_record_access_and_show(self, system, office):
        record = system.record(office.name)
        assert record.picture == office
        art = system.show(office.name)
        assert art.startswith("+")
        assert "legend" in art

    def test_statistics(self, system, scene_collection):
        stats = system.statistics()
        assert stats["images"] == len(scene_collection)

    def test_save_and_reload(self, system, tmp_path, office):
        path = system.save(tmp_path / "db.json")
        reloaded = RetrievalSystem.from_file(path)
        assert reloaded.image_ids == system.image_ids
        assert reloaded.query(office).limit(1).execute()[0].image_id == office.name


class TestDynamicObjectUpdates:
    def test_add_object_is_searchable(self, system, office):
        system.add_object(office.name, "mug", Rectangle(60, 46, 64, 50))
        record = system.record(office.name)
        assert record.picture.has_icon("mug")
        # The stored BE-string was refreshed and stays consistent.
        assert record.bestring.object_identifiers == set(record.picture.identifiers)

    def test_remove_object_updates_index(self, system, office):
        system.remove_object(office.name, "phone")
        record = system.record(office.name)
        assert not record.picture.has_icon("phone")
        query = office.subset(["phone"])
        results = system.query(query).limit(None).execute()
        result_ids = {result.image_id for result in results}
        # The edited image no longer shares the "phone" label, so the label
        # filter excludes it.
        assert office.name not in result_ids


class TestQuerySurface:
    def test_identical_image_ranks_first(self, system, office):
        results = system.query(office).execute()
        assert results[0].image_id == office.name
        assert results[0].score == pytest.approx(1.0)

    def test_limit(self, system, office):
        assert len(system.query(office).limit(2).execute()) <= 2

    def test_minimum_score(self, system, office):
        results = system.query(office).min_score(0.95).limit(None).execute()
        assert all(result.score >= 0.95 for result in results)

    def test_partial_search(self, system, office):
        results = (
            system.query(office).partial(["desk", "monitor", "phone"]).limit(3).execute()
        )
        assert results[0].image_id == office.name
        assert results[0].similarity.common_objects == {"desk", "monitor", "phone"}

    def test_invariant_search_finds_reflected_image(self, system, office):
        reflected = office.reflect_y().renamed("office-mirrored")
        system.add_picture(reflected)
        plain = system.query(office).limit(None).execution(shortlist=False).execute()
        invariant = (
            system.query(office).invariant().limit(None).execution(shortlist=False).execute()
        )
        plain_score = {r.image_id: r.score for r in plain}["office-mirrored"]
        invariant_score = {r.image_id: r.score for r in invariant}["office-mirrored"]
        assert invariant_score == pytest.approx(1.0)
        assert invariant_score > plain_score

    def test_repeated_serial_query_is_served_from_cache(self, system, office):
        system.query(office).limit(None).execute()
        before = system.cache_statistics()
        results = system.query(office).limit(None).execute()
        after = system.cache_statistics()
        # Every candidate score of the repeated query came from the cache:
        # no additional misses, one hit per candidate considered.
        assert after.misses == before.misses
        assert after.hits - before.hits == len(results)


@pytest.fixture
def saved(system, tmp_path):
    """The ``system`` fixture saved as a JSON database; returns the path."""
    return system.save(tmp_path / "db.json")


@pytest.fixture
def corrupt(saved):
    """A copy of ``saved`` with its last entry's x-axis string reversed."""
    payload = json.loads(saved.read_text(encoding="utf-8"))
    bestring = payload["images"][-1]["bestring"]
    bestring["x"] = " ".join(reversed(bestring["x"].split()))
    path = saved.with_name("corrupt.json")
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


@pytest.fixture
def collections():
    """Every collection the cyclic collector starts, recorded by generation."""
    started = []

    def record(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.callbacks.append(record)
    try:
        yield started
    finally:
        gc.callbacks.remove(record)


class TestLoadPausesTheCollector:
    """A load builds acyclic records, so it runs with the collector paused."""

    def test_collector_is_enabled_after_from_file(self, saved):
        assert gc.isenabled()
        system = RetrievalSystem.from_file(saved)
        assert gc.isenabled()
        assert len(system) > 0

    def test_no_collection_runs_during_a_load(self, saved, collections):
        gc.collect()
        del collections[:]
        RetrievalSystem.from_file(saved)
        assert collections == []

    def test_collector_is_enabled_after_a_corrupt_load(self, corrupt):
        with pytest.raises(StorageError, match="does not match"):
            RetrievalSystem.from_file(corrupt)
        assert gc.isenabled()

    def test_nested_load_and_build_restore_the_collector(self, saved):
        engine = QueryEngine.build(load_database_from(saved))
        assert gc.isenabled()
        with _collector_paused():
            engine = QueryEngine.build(load_database_from(saved))
            # The inner pauses end without switching on what the outer holds off.
            assert not gc.isenabled()
        assert gc.isenabled()
        assert len(engine.database) > 0

    def test_pause_restores_the_collector_after_an_exception(self):
        with pytest.raises(RuntimeError):
            with _collector_paused():
                with _collector_paused():
                    raise RuntimeError("mid-build")
        assert gc.isenabled()

    def test_collector_disabled_by_the_caller_stays_disabled(self, saved, corrupt):
        gc.disable()
        try:
            with pytest.raises(StorageError):
                RetrievalSystem.from_file(corrupt)
            assert not gc.isenabled()
            RetrievalSystem.from_file(saved)
            assert not gc.isenabled()
        finally:
            gc.enable()


@pytest.fixture(scope="module")
def large(tmp_path_factory):
    """A 240-scene JSON database, whose load leaves thousands of young objects."""
    pictures = random_pictures(240, seed=3, parameters=SceneParameters(object_count=6))
    path = tmp_path_factory.mktemp("large") / "db.json"
    return RetrievalSystem.from_pictures(pictures).save(path)


def _in_generation(value, generation):
    return any(item is value for item in gc.get_objects(generation=generation))


class TestLoadPromotesWhatItBuilt:
    """The end of a large load's pause promotes its objects instead of collecting them."""

    def test_a_large_load_starts_no_collection(self, large, collections):
        gc.collect()
        del collections[:]
        system = RetrievalSystem.from_file(large)
        assert collections == []
        assert len(system) == 240
        assert gc.get_count()[0] <= gc.get_threshold()[0]

    def test_a_small_build_leaves_the_young_generation_as_it_was(self, office):
        gc.collect()
        marker = []
        with _collector_paused():
            records = [ImageDatabase.encode_record(office, f"copy-{index}") for index in range(3)]
            assert gc.get_count()[0] <= gc.get_threshold()[0]
        assert _in_generation(marker, 0)
        assert _in_generation(records, 0)

    def test_objects_the_caller_froze_stay_frozen(self, large):
        gc.collect()
        marker = []
        gc.freeze()
        try:
            RetrievalSystem.from_file(large)
            assert gc.get_freeze_count() > 0
            assert not _in_generation(marker, 2)
        finally:
            gc.unfreeze()
        assert _in_generation(marker, 2)

    def test_a_collector_the_caller_disabled_stays_disabled(self, large):
        gc.collect()
        marker = []
        gc.disable()
        try:
            RetrievalSystem.from_file(large)
            assert not gc.isenabled()
            assert _in_generation(marker, 0)
        finally:
            gc.enable()
