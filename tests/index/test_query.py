"""Unit tests for the query engine."""

import pytest

from repro.core.similarity import SimilarityPolicy, Normalization
from repro.core.transforms import Transformation
from repro.index.database import ImageDatabase
from repro.index.execution import ExecutionOptions
from repro.index.query import QueryEngine
from repro.index.spec import QuerySpec
from repro.retrieval.predicates import parse_predicate, parse_tree

NO_SHORTLIST = ExecutionOptions(shortlist=False)


def ranked(engine, picture, **fields):
    """The unlimited ranking of a similarity spec over ``picture``."""
    return engine.execute_spec(QuerySpec(picture=picture, limit=None, **fields)).results


@pytest.fixture
def engine(scene_collection):
    database = ImageDatabase()
    database.add_pictures(scene_collection)
    return QueryEngine.build(database)


class TestBuildAndMaintain:
    def test_build_indexes_existing_images(self, engine, scene_collection):
        assert len(engine.database) == len(scene_collection)
        assert len(engine.inverted_index) == len(scene_collection)

    def test_add_and_remove_picture(self, engine, office):
        new_id = engine.add_picture(office.renamed("office-extra"))
        assert new_id == "office-extra"
        assert "office-extra" in engine.database
        engine.remove_picture("office-extra")
        assert "office-extra" not in engine.database
        assert "office-extra" not in engine.inverted_index.indexed_images


class TestExecution:
    def test_exact_query_ranks_identical_image_first(self, engine, office):
        results = ranked(engine, office)
        assert results[0].image_id == office.name
        assert results[0].score == pytest.approx(1.0)

    def test_limit_and_minimum_score(self, engine, office):
        query = QuerySpec(picture=office, limit=2, minimum_score=0.1)
        results = engine.execute_spec(query).results
        assert len(results) <= 2
        assert all(result.score >= 0.1 for result in results)

    def test_filters_restrict_candidates_to_shared_labels(self, engine, office):
        filtered = ranked(engine, office)
        unfiltered = ranked(engine, office, execution=NO_SHORTLIST)
        filtered_ids = {result.image_id for result in filtered}
        unfiltered_ids = {result.image_id for result in unfiltered}
        # Office queries can never shortlist landscape/traffic images (no
        # shared labels), but the unfiltered run scores them anyway.
        assert filtered_ids <= unfiltered_ids
        assert any(image_id.startswith("landscape") for image_id in unfiltered_ids)
        assert not any(image_id.startswith("landscape") for image_id in filtered_ids)

    def test_invariant_query_finds_rotated_image(self, engine, office):
        rotated = office.rotate90().renamed("office-rotated")
        engine.add_picture(rotated)
        exact = ranked(engine, office, execution=NO_SHORTLIST)
        invariant = ranked(
            engine, office, transformations=tuple(Transformation), execution=NO_SHORTLIST
        )
        exact_score = {r.image_id: r.score for r in exact}["office-rotated"]
        invariant_entry = next(r for r in invariant if r.image_id == "office-rotated")
        assert invariant_entry.score == pytest.approx(1.0)
        assert invariant_entry.score > exact_score
        assert invariant_entry.similarity.transformation is Transformation.ROTATE_90

    def test_policy_is_respected(self, engine, office):
        policy = SimilarityPolicy(normalization=Normalization.NONE)
        results = ranked(engine, office, policy=policy)
        assert results[0].score > 1.0  # raw symbol counts, not normalised

    def test_query_with_unknown_labels_returns_empty_with_filters(self, engine):
        from repro.geometry.rectangle import Rectangle
        from repro.iconic.picture import SymbolicPicture

        alien = SymbolicPicture.build(
            width=10, height=10, objects=[("alien", Rectangle(1, 1, 3, 3))], name="alien"
        )
        assert ranked(engine, alien) == []
        assert len(ranked(engine, alien, execution=NO_SHORTLIST)) > 0


class TestPredicateStage:
    @pytest.mark.parametrize(
        "clause",
        [
            {"predicates": (parse_predicate("phone right-of monitor"),)},
            {"predicate_tree": parse_tree("phone right-of monitor [w=2]")},
        ],
        ids=["crisp", "graded"],
    )
    def test_shortlist_off_evaluates_every_image(self, engine, clause):
        spec = QuerySpec(limit=None, **clause)
        pruned = engine.execute_spec(spec)
        full = engine.execute_spec(spec.with_overrides(execution=NO_SHORTLIST))
        assert pruned.trace.predicate_pruned > 0
        assert full.trace.predicate_pruned == 0
        assert full.trace.predicate_evaluated == len(engine.database)
        assert full.results == pruned.results


class TestObjectEditInvalidation:
    """Object-level edits must atomically refresh every index and the cache.

    Regression suite for the concurrent-service work: ``add_object`` /
    ``remove_object`` rewrite the stored record under the engine's write
    lock, and a previously cached query must re-score (not replay stale
    memoised results) the moment the record changes.
    """

    def _traced(self, engine, query):
        ranked, trace = engine.execute_traced(query)
        return {r.image_id: r.score for r in ranked}, trace

    def test_cached_query_rescores_after_remove_object(self, engine, office):
        query = QuerySpec(picture=office, limit=None)
        before, _ = self._traced(engine, query)
        _, warm = self._traced(engine, query)
        assert warm.cache_misses == 0  # fully served from the score cache

        icon = office.icons_with_label("phone")[0]
        engine.remove_object(office.name, icon.identifier)

        after, trace = self._traced(engine, query)
        # Exactly the edited image fell out of the cache and was re-scored
        # against the new record: the query's phone no longer matches.
        assert trace.candidates[office.name].cache_hit is False
        assert trace.cache_misses == 1
        assert after[office.name] < before[office.name]

    def test_cached_query_rescores_after_add_object(self, engine, office):
        """Adding the icon back re-scores again and restores the ranking."""
        query = QuerySpec(picture=office, limit=None)
        before, _ = self._traced(engine, query)

        icon = office.icons_with_label("phone")[0]
        engine.remove_object(office.name, icon.identifier)
        removed, _ = self._traced(engine, query)
        assert removed[office.name] < before[office.name]

        engine.add_object(office.name, "phone", icon.mbr)
        after, trace = self._traced(engine, query)
        assert trace.candidates[office.name].cache_hit is False
        assert trace.cache_misses == 1
        assert after[office.name] == pytest.approx(before[office.name])

    def test_add_object_updates_inverted_index_postings(self, engine, office):
        from repro.geometry.rectangle import Rectangle
        from repro.iconic.picture import SymbolicPicture

        probe = SymbolicPicture.build(
            width=10, height=10,
            objects=[("sundial", Rectangle(1, 1, 3, 3))],
            name="sundial-probe",
        )
        assert ranked(engine, probe) == []

        engine.add_object(office.name, "sundial", Rectangle(6.0, 1.0, 7.0, 2.0))
        hits = ranked(engine, probe)
        assert [r.image_id for r in hits] == [office.name]
        assert engine.inverted_index.images_with_label("sundial") == {office.name}

        engine.remove_object(office.name, "sundial")
        assert ranked(engine, probe) == []
        assert engine.inverted_index.images_with_label("sundial") == set()

    def test_edits_are_atomic_under_the_installed_write_lock(self, engine, office):
        """With a real rwlock installed, the mutation happens under the
        exclusive grant (no reader can observe a half-refreshed engine)."""
        from repro.geometry.rectangle import Rectangle
        from repro.service.rwlock import ReadWriteLock

        engine.lock = ReadWriteLock()
        engine.add_object(office.name, "phone", Rectangle(0.5, 0.5, 1.5, 1.5))
        stats = engine.lock.statistics()
        assert stats["write_acquisitions"] == 1
        results = ranked(engine, office)
        assert results[0].image_id == office.name
        assert engine.lock.statistics()["read_acquisitions"] >= 1


class TestTransformationCanonicalization:
    """The same transformation *set* behaves identically in any order."""

    SHUFFLED = (
        Transformation.REFLECT_Y,
        Transformation.ROTATE_270,
        Transformation.IDENTITY,
        Transformation.ROTATE_90,
        Transformation.REFLECT_X,
        Transformation.ROTATE_180,
    )

    def test_query_canonicalizes_transformations(self, office):
        query = QuerySpec(picture=office, transformations=self.SHUFFLED)
        assert query.transformations == tuple(Transformation)
        deduplicated = QuerySpec(
            picture=office,
            transformations=(Transformation.IDENTITY, Transformation.IDENTITY),
        )
        assert deduplicated.transformations == (Transformation.IDENTITY,)

    def test_query_score_key_is_order_insensitive(self, office):
        from repro.core.construct import encode_picture
        from repro.core.similarity import DEFAULT_POLICY
        from repro.index.cache import query_score_key

        bestring = encode_picture(office)
        assert query_score_key(
            bestring, DEFAULT_POLICY, tuple(Transformation)
        ) == query_score_key(bestring, DEFAULT_POLICY, self.SHUFFLED)

    def test_reordered_set_hits_the_cache(self, engine, office):
        # Regression: the same transformation set in a different order used
        # to miss the cache and re-run the full dynamic program per image.
        engine.score_cache.reset_statistics()
        first = ranked(engine, office, transformations=tuple(Transformation))
        warm = engine.score_cache.statistics
        assert warm.misses > 0
        second = ranked(engine, office, transformations=self.SHUFFLED)
        after = engine.score_cache.statistics
        assert after.misses == warm.misses  # hit-rate parity: no re-scoring
        assert after.hits == warm.hits + warm.misses
        assert [(r.rank, r.image_id, r.score) for r in first] == [
            (r.rank, r.image_id, r.score) for r in second
        ]
        assert [r.similarity.transformation for r in first] == [
            r.similarity.transformation for r in second
        ]
