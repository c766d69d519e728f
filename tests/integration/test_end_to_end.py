"""Integration tests: the full pipeline from pixels to ranked retrieval."""

import pytest

from repro.datasets.corpus import planted_retrieval_corpus, transformation_corpus
from repro.geometry.rectangle import Rectangle
from repro.index.storage import load_database, save_database
from repro.retrieval.evaluation import (
    be_string_method,
    evaluate_corpus,
    type_similarity_method,
)
from repro.retrieval.system import RetrievalSystem


class TestPixelsToRetrieval:
    """Raster -> segmentation -> BE-strings -> database -> ranked search."""

    def test_segmented_scene_retrieves_its_source(self, scene_collection, office):
        pytest.importorskip("numpy")
        from repro.iconic.raster import LabeledRaster

        raster, value_map = LabeledRaster.render(office)
        labels = {value: identifier.split("#")[0] for value, identifier in value_map.items()}
        segmented = raster.to_picture(value_labels=labels, name="segmented-office")
        system = RetrievalSystem.from_pictures(scene_collection)
        results = system.query(segmented).limit(3).execute()
        assert results[0].image_id == office.name
        assert results[0].score > 0.9


class TestDatabaseLifecycle:
    def test_build_query_edit_persist_reload(self, scene_collection, office, tmp_path):
        system = RetrievalSystem.from_pictures(scene_collection)

        # 1. Query.
        first = system.query(office).limit(1).execute()[0]
        assert first.image_id == office.name

        # 2. Dynamic edit: add an object to a stored image, then query again.
        system.add_object(office.name, "mug", Rectangle(60, 46, 64, 50))
        edited = system.record(office.name)
        assert edited.bestring.object_identifiers == set(edited.picture.identifiers)

        # 3. Persist and reload.
        path = system.save(tmp_path / "db.json")
        reloaded = RetrievalSystem.from_file(path)
        assert reloaded.image_ids == system.image_ids
        assert reloaded.record(office.name).picture.has_icon("mug")

        # 4. The reloaded database still answers queries identically.
        original = system.query(office).limit(None).execute()
        reloaded_results = reloaded.query(office).limit(None).execute()
        original_ranks = [result.image_id for result in original]
        reloaded_ranks = [result.image_id for result in reloaded_results]
        assert original_ranks == reloaded_ranks

    def test_low_level_storage_roundtrip_matches_engine_state(self, scene_collection, tmp_path):
        system = RetrievalSystem.from_pictures(scene_collection)
        path = system.save(tmp_path / "db.json")
        database = load_database(path)
        assert database.image_ids == system.image_ids
        save_database(database, tmp_path / "copy.json")
        assert load_database(tmp_path / "copy.json").image_ids == database.image_ids


class TestRetrievalQuality:
    """Experiment E5/E6 in miniature: the paper's method finds what it should."""

    def test_partial_queries_rank_planted_copies_first(self):
        corpus = planted_retrieval_corpus(seed=5, base_scene_count=2, distractors_per_scene=4)
        report = evaluate_corpus(corpus, {"be": be_string_method()}, cutoffs=(1, 3))
        aggregated = report.methods["be"].aggregate()
        # The base scene is always the top result and the three planted
        # relevant images dominate the ranking.
        assert aggregated["precision@1"] == pytest.approx(1.0)
        assert aggregated["average_precision"] >= 0.7
        assert aggregated["recall@3"] >= 0.5

    def test_be_string_matches_clique_baseline_quality_on_partial_queries(self):
        corpus = planted_retrieval_corpus(seed=9, base_scene_count=2, distractors_per_scene=3)
        report = evaluate_corpus(
            corpus,
            {"be": be_string_method(), "clique": type_similarity_method()},
            cutoffs=(3,),
        )
        be_quality = report.methods["be"].aggregate()["average_precision"]
        clique_quality = report.methods["clique"].aggregate()["average_precision"]
        assert be_quality >= clique_quality - 0.15

    def test_only_invariant_retrieval_finds_transformed_copies(self):
        corpus = transformation_corpus(seed=3, base_scene_count=4, distractors_per_scene=2)
        report = evaluate_corpus(
            corpus,
            {
                "plain": be_string_method(invariant=False),
                "invariant": be_string_method(invariant=True),
            },
            cutoffs=(1,),
        )
        plain = report.methods["plain"].aggregate()
        invariant = report.methods["invariant"].aggregate()
        # The invariant mode retrieves every planted rotated/reflected copy at
        # rank 1 with a full-score match; the plain mode can do no better.
        assert invariant["precision@1"] == pytest.approx(1.0)
        assert invariant["average_precision"] >= plain["average_precision"]

    def test_report_table_renders(self):
        corpus = planted_retrieval_corpus(seed=1, base_scene_count=1, distractors_per_scene=2)
        report = evaluate_corpus(corpus, {"be": be_string_method()}, cutoffs=(1, 3))
        table = report.table(metrics=("precision@1", "precision@3"))
        assert "method" in table and "be" in table


class TestScaleSmoke:
    def test_hundred_image_database_is_responsive(self):
        from repro.datasets.synthetic import SceneParameters, random_pictures

        pictures = random_pictures(
            100, seed=11, parameters=SceneParameters(object_count=8, alignment_probability=0.3)
        )
        system = RetrievalSystem.from_pictures(pictures)
        query = pictures[37]
        results = system.query(query).limit(5).execute()
        assert results[0].image_id == query.name
        assert len(results) == 5
