"""The two-stage shortlist: bounds, equivalence, edits.

The load-bearing guarantee is *soundness*: the shortlist's score upper bound
must never fall below the true modified-LCS score, because candidates are
rejected whenever the bound is below the query's ``min_score``.  A single
unsound bound would silently drop a correct result, so the suite checks the
bound against exhaustive real evaluations over randomized corpora, every
policy axis, and every transformation set — then locks down end-to-end
ranking equivalence with the filter-disabled scan.
"""

import os
from collections import Counter

import pytest

from repro.core.bestring import AxisBEString, BEString2D
from repro.core.construct import encode_picture
from repro.core.similarity import (
    Combination,
    Normalization,
    SimilarityPolicy,
    invariant_similarity,
    similarity,
)
from repro.core.transforms import Transformation
from repro.datasets.synthetic import SceneParameters, random_pictures
from repro.geometry.rectangle import Rectangle
from repro.iconic.picture import SymbolicPicture
from repro.index.database import ImageDatabase
from repro.index.execution import ExecutionOptions
from repro.index.inverted import InvertedSymbolIndex
from repro.index.query import QueryEngine
from repro.index.shortlist import QuerySignature, boundary_lcs, signature_for
from repro.index.spec import STAGE_BITMAP_PRUNED, STAGE_RELATION_PRUNED, QuerySpec
from repro.retrieval.system import RetrievalSystem

SHARD_WORKERS = int(os.environ.get("REPRO_SHARD_WORKERS") or 2)

_PARAMETERS = SceneParameters(
    object_count=6,
    alignment_probability=0.4,
    labels=tuple(f"label{index:02d}" for index in range(12)),
    label_choice="random",
)

_POLICIES = [
    SimilarityPolicy(),
    SimilarityPolicy(normalization=Normalization.DATABASE),
    SimilarityPolicy(normalization=Normalization.DICE, combination=Combination.MIN),
    SimilarityPolicy(combination=Combination.PRODUCT),
    SimilarityPolicy(count_boundaries_only=True),
    SimilarityPolicy(normalization=Normalization.NONE, combination=Combination.MIN),
]


def _uncached(picture, minimum_score):
    """An unlimited similarity spec with a score floor, bypassing the cache."""
    return QuerySpec(
        picture=picture,
        limit=None,
        minimum_score=minimum_score,
        execution=ExecutionOptions(cache=False),
    )


def _record(picture):
    """The stored record of ``picture``, as a bound reads a candidate."""
    return ImageDatabase.encode_record(picture, "candidate")


class TestTallyBound:
    """Stage 1: the tally's score bound dominates the stage-2 bound.

    The tally itself is checked in ``tests/property/test_property_tally.py``.
    """

    @pytest.fixture(scope="class")
    def corpus(self):
        # Twelve labels over six objects: most scenes repeat a label.
        pictures = random_pictures(30, seed=5, parameters=_PARAMETERS)
        index = InvertedSymbolIndex()
        for number, picture in enumerate(pictures):
            index.add_picture(str(number), picture)
        return pictures, index

    @pytest.mark.parametrize("policy", _POLICIES, ids=lambda p: p.describe())
    @pytest.mark.parametrize("invariant", [False, True])
    def test_tally_bound_dominates_the_stage_two_bound(self, corpus, policy, invariant):
        pictures, index = corpus
        transformations = tuple(Transformation) if invariant else (Transformation.IDENTITY,)
        for query in pictures[:6]:
            query_bestring = encode_picture(query)
            query_signature = QuerySignature(query_bestring, query.labels, transformations)
            for image_id, tally in index.candidates(query.labels).items():
                picture = pictures[int(image_id)]
                candidate = _record(picture)
                stage_one = query_signature.overlap_upper_bound(candidate, tally, policy)
                stage_two = query_signature.score_upper_bound(
                    candidate, tally, policy, with_boundary_lcs=True
                )
                score = invariant_similarity(
                    query_bestring, encode_picture(picture), policy, transformations
                ).score
                assert stage_one >= stage_two >= score - 1e-9

    def test_query_side_normalisation_reads_no_candidate_field(self, corpus):
        pictures, _ = corpus
        query = pictures[0]
        query_signature = QuerySignature(encode_picture(query), query.labels)
        policy = SimilarityPolicy()
        bounds = {
            query_signature.overlap_upper_bound(_record(picture), 2, policy)
            for picture in pictures
        }
        assert bounds == {query_signature.overlap_upper_bound(None, 2, policy)}


class TestScoreBoundSoundness:
    """bound >= true score, for every policy and transformation set."""

    @pytest.mark.parametrize("policy", _POLICIES, ids=lambda p: p.describe())
    def test_identity_bound_dominates_true_score(self, policy):
        pictures = random_pictures(24, seed=9, parameters=_PARAMETERS)
        for query_picture in pictures[:8]:
            query_bestring = encode_picture(query_picture)
            query_signature = QuerySignature(query_bestring, query_picture.labels)
            for candidate_picture in pictures:
                candidate_bestring = encode_picture(candidate_picture)
                candidate = _record(candidate_picture)
                true_score = similarity(
                    query_bestring, candidate_bestring, policy
                ).score
                overlap = query_signature.exact_overlap(Counter(candidate_picture.labels))
                bound = query_signature.score_upper_bound(
                    candidate, overlap, policy, with_boundary_lcs=True
                )
                assert bound + 1e-9 >= true_score

    @pytest.mark.parametrize("policy", _POLICIES[:3], ids=lambda p: p.describe())
    def test_invariant_bound_dominates_best_transformed_score(self, policy):
        pictures = random_pictures(16, seed=13, parameters=_PARAMETERS)
        transformations = tuple(Transformation)
        for query_picture in pictures[:6]:
            query_bestring = encode_picture(query_picture)
            query_signature = QuerySignature(
                query_bestring, query_picture.labels, transformations
            )
            for candidate_picture in pictures:
                candidate_bestring = encode_picture(candidate_picture)
                candidate = _record(candidate_picture)
                true_score = invariant_similarity(
                    query_bestring, candidate_bestring, policy, transformations
                ).score
                overlap = query_signature.exact_overlap(Counter(candidate_picture.labels))
                bound = query_signature.score_upper_bound(
                    candidate, overlap, policy, with_boundary_lcs=True
                )
                assert bound + 1e-9 >= true_score

    @pytest.mark.parametrize(
        "policy, score",
        [(SimilarityPolicy(), 9 / 13), (SimilarityPolicy(count_boundaries_only=True), 2 / 3)],
        ids=["all-symbols", "boundaries-only"],
    )
    def test_stage_two_bound_of_a_mirrored_layout_is_its_score(self, policy, score):
        # The layout of test_relation_stage_rejects_rearranged_layout: the
        # boundary LCS of each axis is exact, so the bound is the score.
        base = SymbolicPicture.build(
            12,
            12,
            [
                ("a", Rectangle(1, 5, 3, 7)),
                ("b", Rectangle(5, 5, 7, 7)),
                ("c", Rectangle(9, 5, 11, 7)),
            ],
        )
        mirrored = base.reflect_y()
        query_bestring = encode_picture(base)
        query_signature = QuerySignature(query_bestring, base.labels)
        bound = query_signature.score_upper_bound(
            _record(mirrored), len(base.labels), policy, with_boundary_lcs=True
        )
        assert similarity(query_bestring, encode_picture(mirrored), policy).score == bound
        assert bound == pytest.approx(score)

    def test_the_walk_is_exact_on_a_candidate_axis_missing_a_boundary(self):
        # ``a`` has no end on the candidate axis: the walk still finds the
        # boundary LCS with the query's axis, a.b b.b b.e.
        query = AxisBEString.from_text("a.b a.e b.b b.e")
        signature = QuerySignature(BEString2D(query, query), ["a", "b"])
        positions = signature.variants[0].x.positions
        assert positions == {"a.b": 0, "a.e": 1, "b.b": 2, "b.e": 3}
        assert boundary_lcs(positions, AxisBEString.from_text("E a.b b.b b.e E").symbols) == 3
        assert boundary_lcs(positions, AxisBEString.from_text("b.e a.e a.b a.b").symbols) == 1

    @pytest.mark.parametrize(
        "candidate, expected",
        [
            ("a.b a.e b.b b.e", 4),
            ("E a.b E a.b a.e E", 2),
            ("a.e b.b b.e", 3),
            ("b.e b.b a.e a.b", 1),
            ("c.b a.b c.e b.b b.e", 3),
            ("E E", 0),
            ("", 0),
        ],
        ids=["equal", "repeated", "no-begin", "reversed", "foreign", "dummies", "empty"],
    )
    def test_the_walk_on_any_candidate_axis_is_the_boundary_lcs(self, candidate, expected):
        query = AxisBEString.from_text("a.b a.e b.b b.e")
        positions = QuerySignature(BEString2D(query, query), ["a", "b"]).variants[0].x.positions
        assert boundary_lcs(positions, AxisBEString.from_text(candidate).symbols) == expected

    def test_signature_for_reads_the_record_as_stored(self):
        database = ImageDatabase()
        picture = random_pictures(1, seed=6, parameters=_PARAMETERS)[0]
        record = database.add_picture(picture, "edited")
        x, y, boundaries = signature_for(record)
        assert (x, y) == (record.bestring.x.symbols, record.bestring.y.symbols)
        assert boundaries == record.bestring.x.boundary_count == 2 * len(picture)
        # Nothing is cached: an edit shows in the next read.
        database.add_object("edited", "added-box", Rectangle(0.5, 0.5, 2.0, 2.0))
        x, y, boundaries = signature_for(record)
        assert (x, y) == (record.bestring.x.symbols, record.bestring.y.symbols)
        assert boundaries == 2 * (len(picture) + 1)

    def test_self_match_bound_is_tight(self):
        picture = random_pictures(1, seed=3, parameters=_PARAMETERS)[0]
        bestring = encode_picture(picture)
        query_signature = QuerySignature(bestring, picture.labels)
        overlap = query_signature.exact_overlap(Counter(picture.labels))
        bound = query_signature.score_upper_bound(
            _record(picture), overlap, SimilarityPolicy(), with_boundary_lcs=True
        )
        assert bound == pytest.approx(1.0)


class TestEngineEquivalence:
    """Pruned execution ranks byte-identically to the filter-disabled scan."""

    @pytest.fixture(scope="class")
    def engine(self):
        database = ImageDatabase(name="shortlist-equivalence")
        database.add_pictures(random_pictures(80, seed=21, parameters=_PARAMETERS))
        return QueryEngine.build(database)

    @pytest.mark.parametrize("minimum_score", [0.25, 0.5, 0.8])
    @pytest.mark.parametrize("invariant", [False, True])
    def test_rankings_match_full_scan(self, engine, minimum_score, invariant):
        transformations = (
            tuple(Transformation) if invariant else (Transformation.IDENTITY,)
        )
        pictures = random_pictures(8, seed=34, parameters=_PARAMETERS)
        for picture in pictures:
            filtered = engine.execute_spec(
                QuerySpec(
                    picture=picture,
                    transformations=transformations,
                    limit=None,
                    minimum_score=minimum_score,
                    execution=ExecutionOptions(cache=False),
                )
            ).results
            full = engine.execute_spec(
                QuerySpec(
                    picture=picture,
                    transformations=transformations,
                    limit=None,
                    minimum_score=minimum_score,
                    execution=ExecutionOptions(shortlist=False, cache=False),
                )
            ).results
            assert [(r.rank, r.image_id, r.score) for r in filtered] == [
                (r.rank, r.image_id, r.score) for r in full
            ]
            assert [r.similarity.transformation for r in filtered] == [
                r.similarity.transformation for r in full
            ]

    def test_stored_images_always_survive_their_own_query(self, engine):
        # The no-false-negative guarantee in its sharpest form: a stored
        # image queried against itself scores 1.0 and must never be pruned.
        for image_id in engine.database.image_ids[:10]:
            record = engine.database.get(image_id)
            results = engine.execute_spec(_uncached(record.picture, 0.99)).results
            assert results and results[0].image_id == image_id

    def test_trace_records_pruning_stages(self, engine):
        picture = random_pictures(1, seed=55, parameters=_PARAMETERS)[0]
        _, trace = engine.execute_traced(_uncached(picture, 0.6))
        assert trace.bitmap_pruned + trace.relation_pruned > 0
        rejected_stages = {
            candidate.stage
            for candidate in trace.candidates.values()
            if candidate.stage in (STAGE_BITMAP_PRUNED, STAGE_RELATION_PRUNED)
        }
        assert rejected_stages  # the sample names the rejecting stage

    def test_relation_stage_rejects_rearranged_layout(self):
        # Same labels, mirrored arrangement: stage 1 (labels only) cannot
        # prune it, the relation-pair bound can.
        base = SymbolicPicture.build(
            12,
            12,
            [
                ("a", Rectangle(1, 5, 3, 7)),
                ("b", Rectangle(5, 5, 7, 7)),
                ("c", Rectangle(9, 5, 11, 7)),
            ],
            name="base",
        )
        mirrored = base.reflect_y().renamed("mirrored")
        database = ImageDatabase()
        database.add_picture(base, "base")
        database.add_picture(mirrored, "mirrored")
        engine = QueryEngine.build(database)
        outcome = engine.shortlist(QuerySpec(picture=base, minimum_score=0.95))
        assert outcome.candidates == ["base"]
        assert outcome.relation_rejected == 1
        assert outcome.rejections.get("mirrored") == STAGE_RELATION_PRUNED

    def test_counters_accumulate(self, engine):
        engine.counters.reset()
        picture = random_pictures(1, seed=77, parameters=_PARAMETERS)[0]
        engine.execute_spec(_uncached(picture, 0.5))
        statistics = engine.counters.shortlist
        assert statistics.queries == 1
        assert statistics.candidates == (
            statistics.admitted
            + statistics.bitmap_rejected
            + statistics.relation_rejected
        )

    def test_min_score_zero_admits_every_label_sharer(self, engine):
        picture = random_pictures(1, seed=88, parameters=_PARAMETERS)[0]
        outcome = engine.shortlist(QuerySpec(picture=picture))
        assert outcome.bitmap_rejected == 0
        assert outcome.relation_rejected == 0
        assert len(outcome.candidates) == outcome.inverted_candidates

    def test_engine_edits_keep_shortlist_consistent(self):
        database = ImageDatabase()
        pictures = random_pictures(10, seed=41, parameters=_PARAMETERS)
        database.add_pictures(pictures)
        engine = QueryEngine.build(database)
        image_id = database.image_ids[0]
        engine.add_object(image_id, "fresh-label", Rectangle(1, 1, 4, 4))
        query_picture = database.get(image_id).picture
        results = engine.execute_spec(_uncached(query_picture, 0.99)).results
        assert results and results[0].image_id == image_id


class TestThresholdAndWidthConsistency:
    def test_overlap_threshold_rejections_belong_to_the_bitmap_stage(self):
        # Threshold rejections — tally-bounded *or* exact — are label-overlap
        # (stage-1) rejections; only the boundary-LCS score bound is stage 2.
        database = ImageDatabase()
        database.add_pictures(random_pictures(30, seed=61, parameters=_PARAMETERS))
        engine = QueryEngine.build(database, minimum_overlap_ratio=0.75)
        picture = random_pictures(1, seed=62, parameters=_PARAMETERS)[0]
        outcome = engine.shortlist(QuerySpec(picture=picture))
        assert outcome.bitmap_rejected > 0
        assert outcome.relation_rejected == 0
        assert all(
            stage == STAGE_BITMAP_PRUNED for stage in outcome.rejections.values()
        )
        # The sampled bound of a threshold rejection is the failing ratio.
        assert all(
            0.0 <= outcome.rejection_bounds[image_id] < 0.75
            for image_id in outcome.rejections
        )
        # Exactly the images whose label-multiset overlap reaches the threshold.
        wanted = Counter(picture.labels)
        assert outcome.candidates == [
            image_id
            for image_id in database.image_ids
            if sum((wanted & Counter(database.get(image_id).picture.labels)).values())
            / len(picture.labels)
            >= 0.75
        ]


def _labelled(name, labels):
    """A picture holding one icon per label, laid out left to right."""
    objects = [
        (label, Rectangle(4 * index + 1, 1, 4 * index + 3, 4))
        for index, label in enumerate(labels)
    ]
    return SymbolicPicture.build(width=40, height=10, objects=objects, name=name)


class TestOverlapThreshold:
    """``minimum_overlap_ratio``: the share of the query's label multiset an
    image must hold, counted with multiplicity, before it is scored."""

    QUERY = ("tree", "tree", "sun", "house")

    @pytest.fixture
    def pictures(self):
        # Overlap with QUERY: 4/4, 3/4 (one tree short), 1/4, and no label.
        return [
            _labelled("both-trees", self.QUERY),
            _labelled("one-tree", ("tree", "sun", "house")),
            _labelled("sun-cloud", ("sun", "cloud")),
            _labelled("street", ("car", "road")),
        ]

    @pytest.fixture
    def query(self):
        return QuerySpec(picture=_labelled("query", self.QUERY))

    @staticmethod
    def _engine(pictures, threshold):
        database = ImageDatabase()
        database.add_pictures(pictures)
        return QueryEngine.build(database, minimum_overlap_ratio=threshold)

    @pytest.mark.parametrize(
        "threshold, admitted",
        [
            (0.0, ["both-trees", "one-tree", "sun-cloud"]),
            (0.25, ["both-trees", "one-tree", "sun-cloud"]),
            (0.5, ["both-trees", "one-tree"]),
            (0.75, ["both-trees", "one-tree"]),
            (1.0, ["both-trees"]),
        ],
    )
    def test_admits_by_label_multiset_overlap(self, pictures, query, threshold, admitted):
        assert self._engine(pictures, threshold).shortlist(query).candidates == admitted

    def test_threshold_follows_object_edits(self, pictures, query):
        engine = self._engine(pictures, 1.0)
        engine.add_object("one-tree", "tree", Rectangle(30, 5, 33, 8))
        assert engine.shortlist(query).candidates == ["both-trees", "one-tree"]
        engine.remove_object("both-trees", "tree#1")
        assert engine.shortlist(query).candidates == ["one-tree"]

    def test_threshold_follows_inserts_and_deletes(self, pictures, query):
        engine = self._engine(pictures, 1.0)
        engine.add_picture(_labelled("copy", self.QUERY))
        assert engine.shortlist(query).candidates == ["both-trees", "copy"]
        engine.remove_picture("both-trees")
        assert engine.shortlist(query).candidates == ["copy"]

    def test_shortlist_off_ignores_the_threshold(self, pictures, query):
        system = RetrievalSystem.from_pictures(pictures, minimum_signature_overlap=1.0)
        results = (
            system.query(query.picture).limit(None).execution(shortlist=False).execute()
        )
        assert sorted(r.image_id for r in results) == sorted(system.image_ids)

    @pytest.mark.parametrize(
        "path", ["serial", "shard_process", "batch", "batch-shard_process"]
    )
    def test_threshold_reaches_every_path(self, pictures, query, path):
        system = RetrievalSystem.from_pictures(pictures, minimum_signature_overlap=0.75)
        try:
            builder = system.query(query.picture).limit(None)
            if path == "serial":
                results = builder.execute()
            elif path == "shard_process":
                results = builder.execution(
                    executor="shard_process", workers=SHARD_WORKERS
                ).execute()
            else:
                executor = "shard_process" if path == "batch-shard_process" else "serial"
                results = system.query_batch(
                    [builder], executor=executor, workers=SHARD_WORKERS
                )[0]
            assert sorted(r.image_id for r in results) == ["both-trees", "one-tree"]
        finally:
            system._engine.close_shard_pool()
