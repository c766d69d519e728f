"""The two-stage signature shortlist: bounds, equivalence, signature lifecycle.

The load-bearing guarantee is *soundness*: the shortlist's score upper bound
must never fall below the true modified-LCS score, because candidates are
rejected whenever the bound is below the query's ``min_score``.  A single
unsound bound would silently drop a correct result, so the suite checks the
bound against exhaustive real evaluations over randomized corpora, every
policy axis, and every transformation set — then locks down end-to-end
ranking equivalence with the filter-disabled scan.
"""

import os
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bestring import AxisBEString, BEString2D
from repro.core.construct import encode_picture
from repro.core.similarity import (
    Combination,
    Normalization,
    SimilarityPolicy,
    invariant_similarity,
    similarity,
)
from repro.core.symbols import BoundaryKind, Symbol
from repro.core.transforms import Transformation, transform
from repro.datasets.synthetic import SceneParameters, random_pictures
from repro.geometry.rectangle import Rectangle
from repro.iconic.picture import SymbolicPicture
from repro.index import shortlist
from repro.index.database import ImageDatabase
from repro.index.execution import ExecutionOptions
from repro.index.query import QueryEngine
from repro.index.shortlist import (
    DEFAULT_BITMAP_WIDTH,
    AxisSignature,
    ImageSignature,
    QuerySignature,
    boundary_lcs,
    boundary_sequence,
    label_bit,
    label_bitmap,
    signature_for,
)
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


def _reference_positions(axis):
    """``identifier -> (begin, end)`` of each complete object, the last position of a repeat."""
    begins, ends = {}, {}
    for position, symbol in enumerate(axis.symbols):
        if symbol.is_begin:
            begins[symbol.identifier] = position
        elif symbol.is_end:
            ends[symbol.identifier] = position
    return {
        identifier: (begins[identifier], ends[identifier])
        for identifier in begins
        if identifier in ends
    }


def _slot_positions(facts):
    """``identifier -> (begin, end)`` read from packed positions through the slots."""
    return {
        identifier: (facts.begins[slot], facts.ends[slot])
        for identifier, slot in facts.slots.items()
    }


def _signature(picture):
    return ImageSignature.from_bestring(encode_picture(picture), picture.labels)


class TestBitmapPrimitives:
    def test_label_bit_is_stable_and_in_range(self):
        assert 0 <= label_bit("car") < DEFAULT_BITMAP_WIDTH
        assert label_bit("car") == label_bit("car")
        assert label_bit("car", width=8) < 8

    def test_label_mask_table_never_exceeds_its_cap(self, monkeypatch):
        monkeypatch.setattr(shortlist, "_LABEL_MASKS", {})
        monkeypatch.setattr(shortlist, "BOUNDARY_INTERN_LIMIT", 8)
        for index in range(20):
            label = f"label-{index}"
            assert label_bitmap([label]) == label_bitmap([label]) == 1 << label_bit(label)
            assert len(shortlist._LABEL_MASKS) <= 8
        assert len(shortlist._LABEL_MASKS) == 4

    def test_overlong_labels_are_not_remembered(self, monkeypatch):
        monkeypatch.setattr(shortlist, "_LABEL_MASKS", {})
        label = "x" * (shortlist.BOUNDARY_INTERN_MAX_LENGTH + 1)
        assert label_bitmap([label]) == 1 << label_bit(label)
        assert not shortlist._LABEL_MASKS
        label_bitmap([label[:-1]])
        assert list(shortlist._LABEL_MASKS) == [label[:-1]]

    def test_other_widths_leave_the_mask_table_alone(self, monkeypatch):
        monkeypatch.setattr(shortlist, "_LABEL_MASKS", {})
        assert label_bitmap(["car", "tree"], width=8) == (
            1 << label_bit("car", 8) | 1 << label_bit("tree", 8)
        )
        assert not shortlist._LABEL_MASKS

    def test_bitmap_sets_one_bit_per_distinct_label(self):
        bitmap = label_bitmap(["car", "car", "tree"])
        assert bin(bitmap).count("1") <= 2
        assert bitmap & (1 << label_bit("car"))
        assert bitmap & (1 << label_bit("tree"))

    def test_overlap_upper_bound_never_undercounts(self):
        pictures = random_pictures(30, seed=5, parameters=_PARAMETERS)
        query_signatures = [
            QuerySignature(encode_picture(p), p.labels, width=16) for p in pictures[:10]
        ]
        candidates = [
            ImageSignature.from_bestring(encode_picture(p), p.labels, width=16)
            for p in pictures
        ]
        for query_signature in query_signatures:
            for candidate in candidates:
                assert query_signature.overlap_upper_bound(
                    candidate
                ) >= query_signature.exact_overlap(candidate)

    def test_width_mismatch_falls_back_to_total(self):
        picture = random_pictures(1, seed=1, parameters=_PARAMETERS)[0]
        query_signature = QuerySignature(encode_picture(picture), picture.labels, width=16)
        other = ImageSignature.from_bestring(
            encode_picture(picture), picture.labels, width=32
        )
        assert (
            query_signature.overlap_upper_bound(other) == query_signature.total_labels
        )


def _random_axis(rng, identifiers, dummy_rate):
    """An axis string over ``identifiers``: each begin before its end, dummies between."""
    occurrences = [identifier for identifier in identifiers for _ in range(2)]
    rng.shuffle(occurrences)
    seen = set()
    symbols = []
    for identifier in occurrences:
        if rng.random() < dummy_rate:
            symbols.append(Symbol.dummy())
        kind = BoundaryKind.END if identifier in seen else BoundaryKind.BEGIN
        seen.add(identifier)
        symbols.append(Symbol.boundary(identifier, kind))
    return AxisBEString(symbols)


class TestPackedSignature:
    """Slots and packed positions equal the dictionary references."""

    @pytest.mark.parametrize("seed", [3, 17])
    def test_single_pass_matches_the_per_property_counts(self, seed):
        # AxisSignature.from_axis walks the symbols once; it must agree with
        # the string's own counts and with a dictionary of positions.
        for picture in random_pictures(12, seed=seed, parameters=_PARAMETERS):
            bestring = encode_picture(picture)
            for transformation in Transformation:
                variant = transform(bestring, transformation)
                for axis in (variant.x, variant.y):
                    facts = AxisSignature.from_axis(axis)
                    assert facts.length == len(axis)
                    assert facts.boundaries == axis.boundary_count
                    assert facts.dummies == axis.dummy_count
                    assert _slot_positions(facts) == _reference_positions(axis)

    @settings(max_examples=40, deadline=None)
    @given(
        # Up to 24 symbols per axis, or 240 to 340: positions then no
        # longer fit in a byte on most axes.
        objects=st.one_of(st.integers(0, 12), st.integers(120, 140)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_slots_and_positions_equal_the_references(self, objects, seed):
        rng = random.Random(seed)
        labels = [rng.choice("abcdefgh") for _ in range(objects)]
        identifiers = [
            label if labels[:index].count(label) == 0 else f"{label}#{labels[:index].count(label)}"
            for index, label in enumerate(labels)
        ]
        x = _random_axis(rng, identifiers, 0.3)
        y = _random_axis(rng, identifiers, 0.3)
        signature = ImageSignature.from_bestring(BEString2D(x, y), labels)
        assert signature.x.slots is signature.y.slots
        assert list(signature.x.slots) == list(
            dict.fromkeys(symbol.identifier for symbol in x.symbols if symbol.is_boundary)
        )
        for axis, facts in ((x, signature.x), (y, signature.y)):
            packed = len(axis) <= 256
            assert type(facts.begins) is type(facts.ends) is (bytes if packed else tuple)
            assert _slot_positions(facts) == _reference_positions(axis)

    def test_an_object_incomplete_on_either_axis_has_no_slot(self):
        # ``a`` has no end on y, ``d`` appears on y only: neither has a slot
        # on either axis, and the others keep their x order.
        x = AxisBEString.from_text("E c.b a.b c.e a.e b.b b.e E")
        y = AxisBEString.from_text("a.b b.b b.e c.b d.b c.e d.e")
        signature = ImageSignature.from_bestring(BEString2D(x, y), ["a", "b", "c", "d"])
        assert signature.x.slots is signature.y.slots
        assert signature.x.slots == {"c": 0, "b": 1}
        assert (signature.x.begins, signature.x.ends) == (bytes([1, 5]), bytes([3, 6]))
        assert (signature.y.begins, signature.y.ends) == (bytes([3, 1]), bytes([5, 2]))
        assert (signature.x.length, signature.x.boundaries, signature.x.dummies) == (8, 6, 2)
        assert (signature.y.length, signature.y.boundaries, signature.y.dummies) == (7, 7, 0)

    def test_an_object_missing_a_boundary_on_the_y_axis_only_has_no_slot(self):
        x = AxisBEString.from_text("a.b a.e b.b b.e")
        y = AxisBEString.from_text("a.b b.b b.e")
        signature = ImageSignature.from_bestring(BEString2D(x, y), ["a", "b"])
        assert signature.x.slots == {"b": 0}
        assert (signature.x.begins, signature.x.ends) == (bytes([2]), bytes([3]))
        assert (signature.y.begins, signature.y.ends) == (bytes([1]), bytes([2]))

    def test_an_object_on_the_y_axis_only_has_no_slot(self):
        x = AxisBEString.from_text("a.b a.e")
        y = AxisBEString.from_text("a.b d.b d.e a.e")
        signature = ImageSignature.from_bestring(BEString2D(x, y), ["a", "d"])
        assert signature.x.slots == {"a": 0}
        assert (signature.x.begins, signature.x.ends) == (bytes([0]), bytes([1]))
        assert (signature.y.begins, signature.y.ends) == (bytes([0]), bytes([3]))

    @pytest.mark.parametrize("dummies, packed", [(0, bytes), (1, tuple)])
    def test_positions_are_bytes_up_to_256_symbols(self, dummies, packed):
        # 128 objects in a row fill 256 symbols; one dummy more needs a tuple.
        text = " ".join(f"o{index}.b o{index}.e" for index in range(128))
        facts = AxisSignature.from_axis(AxisBEString.from_text(text + " E" * dummies))
        assert facts.length == 256 + dummies
        assert type(facts.begins) is type(facts.ends) is packed
        assert (facts.begins[-1], facts.ends[-1]) == (254, 255)

    def test_equal_bestrings_give_equal_signatures(self):
        picture = random_pictures(1, seed=4, parameters=_PARAMETERS)[0]
        bestring = encode_picture(picture)
        reparsed = BEString2D.from_text(bestring.x.to_text(), bestring.y.to_text())
        assert ImageSignature.from_bestring(bestring, picture.labels) == (
            ImageSignature.from_bestring(reparsed, reversed(picture.labels))
        )


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
                candidate = _signature(candidate_picture)
                true_score = similarity(
                    query_bestring, candidate_bestring, policy
                ).score
                overlap = query_signature.exact_overlap(candidate)
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
                candidate = _signature(candidate_picture)
                true_score = invariant_similarity(
                    query_bestring, candidate_bestring, policy, transformations
                ).score
                overlap = query_signature.exact_overlap(candidate)
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
        candidate = _signature(mirrored)
        bound = query_signature.score_upper_bound(
            candidate, query_signature.exact_overlap(candidate), policy, with_boundary_lcs=True
        )
        assert similarity(query_bestring, encode_picture(mirrored), policy).score == bound
        assert bound == pytest.approx(score)

    def test_an_axis_without_one_position_per_boundary_keeps_the_overlap_cap(self):
        # ``a`` has no end on the candidate's y axis, so it has no slot: an
        # LIS on x finds only b's two boundaries, where the boundary LCS
        # with the query's x is 4.  Both axes keep the cap of 2 * overlap.
        x = AxisBEString.from_text("a.b a.e b.b b.e")
        query = BEString2D(x, x)
        candidate = ImageSignature.from_bestring(
            BEString2D(x, AxisBEString.from_text("a.b b.b b.e")), ["a", "b"]
        )
        assert boundary_lcs(boundary_sequence(x), candidate.x) == 2
        signature = QuerySignature(query, ["a", "b"])
        raw = SimilarityPolicy(count_boundaries_only=True, normalization=Normalization.NONE)
        bound = signature.score_upper_bound(candidate, 2, raw, with_boundary_lcs=True)
        assert bound == (4 + 3) / 2

    def test_self_match_bound_is_tight(self):
        picture = random_pictures(1, seed=3, parameters=_PARAMETERS)[0]
        bestring = encode_picture(picture)
        query_signature = QuerySignature(bestring, picture.labels)
        candidate = _signature(picture)
        overlap = query_signature.exact_overlap(candidate)
        bound = query_signature.score_upper_bound(
            candidate, overlap, SimilarityPolicy(), with_boundary_lcs=True
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


class TestSignatureLifecycle:
    def test_object_edits_invalidate_the_cached_signature(self):
        database = ImageDatabase()
        picture = random_pictures(1, seed=6, parameters=_PARAMETERS)[0]
        record = database.add_picture(picture, "edited")
        before = signature_for(record)
        database.add_object("edited", "added-box", Rectangle(0.5, 0.5, 2.0, 2.0))
        assert record.signature is None
        after = signature_for(record)
        assert after.label_counts.get("added-box") == 1
        assert after != before

    def test_engine_mutations_materialise_signatures_at_the_default_width(self):
        database = ImageDatabase()
        database.add_pictures(random_pictures(3, seed=63, parameters=_PARAMETERS))
        engine = QueryEngine.build(database)
        assert all(record.signature.width == DEFAULT_BITMAP_WIDTH for record in database)
        picture = random_pictures(1, seed=64, parameters=_PARAMETERS)[0]
        image_id = engine.add_picture(picture, "added-after-build")
        record = engine.database.get(image_id)
        assert record.signature is not None and record.signature.width == DEFAULT_BITMAP_WIDTH
        engine.add_object(image_id, "late-box", Rectangle(0.5, 0.5, 2.0, 2.0))
        record = engine.database.get(image_id)
        assert record.signature is not None
        assert record.signature.label_counts.get("late-box") == 1

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
        # Threshold rejections — bitmap-bounded *or* exact — are label-overlap
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
