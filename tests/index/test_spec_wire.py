"""Unit tests of the query wire codec, ``QuerySpec.to_wire``/``from_wire``.

``to_wire`` leaves defaults out and writes both predicate fields as the
nested tree form; ``from_wire`` reads that, the older ``/search`` spellings
(``invariant``, grammar-text ``where``, ``fuzzy``, ``no_filters``), and
compiles an unmarked ``where`` exactly as the builder's ``where()`` does.
Every malformed key raises one :class:`QuerySpecError` naming it.
"""

import json

import pytest

from repro.core.similarity import Combination, Normalization, SimilarityPolicy
from repro.core.transforms import Transformation
from repro.datasets.scenes import office_scene
from repro.index.execution import ExecutionOptions
from repro.index.spec import QuerySpec, QuerySpecError
from repro.retrieval.predicates import RelationKeyword, RelationPredicate, parse_tree
from repro.retrieval.system import RetrievalSystem


def round_trip(spec: QuerySpec) -> QuerySpec:
    return QuerySpec.from_wire(json.loads(json.dumps(spec.to_wire())))


class TestToWire:
    def test_defaults_are_left_out(self):
        picture = office_scene(0)
        assert QuerySpec(picture=picture).to_wire() == {"scene": picture.to_dict()}

    def test_every_other_field_gets_a_key(self):
        spec = QuerySpec(
            picture=office_scene(0),
            identifiers=("desk", "monitor"),
            transformations=(Transformation.ROTATE_90,),
            predicate_tree=parse_tree("monitor above desk [fuzzy]"),
            predicate_composition="sum",
            predicate_blend=0.3,
            limit=None,
            minimum_score=0.2,
            minimum_shared_labels=2,
            policy=SimilarityPolicy(normalization=Normalization.DICE),
            execution=ExecutionOptions(cache=False),
        )
        wire = spec.to_wire()
        assert sorted(wire) == sorted(
            [
                "scene", "identifiers", "transformations", "where", "graded",
                "compose", "blend", "limit", "min_score", "min_shared_labels",
                "policy", "execution",
            ]
        )
        assert wire["transformations"] == ["rotate90"]
        assert wire["policy"] == {
            "normalization": "dice",
            "combination": "mean",
            "count_boundaries_only": False,
        }
        assert round_trip(spec) == spec

    def test_crisp_predicates_travel_as_a_tree_in_query_order(self):
        first = RelationPredicate("a(b", RelationKeyword.LEFT_OF, "c")
        second = RelationPredicate("and", RelationKeyword.ABOVE, "x=1")
        spec = QuerySpec(predicates=(second, first, second))
        wire = spec.to_wire()
        assert "graded" not in wire
        assert [leaf["subject"] for leaf in wire["where"]["children"]] == ["and", "a(b", "and"]
        assert round_trip(spec) == spec

    def test_a_crisp_shaped_tree_is_marked_and_stays_a_tree(self):
        spec = QuerySpec(picture=office_scene(0), predicate_tree=parse_tree("monitor above desk"))
        assert spec.to_wire()["graded"] is True
        decoded = round_trip(spec)
        assert decoded.predicate_tree == spec.predicate_tree
        assert decoded.predicates == ()

    def test_a_tree_is_decoded_exactly_as_written(self):
        # Normalising would flatten the nested "and" and reweight its mean.
        tree = parse_tree("c above d and (a left-of b and b left-of a)")
        spec = QuerySpec(predicate_tree=tree)
        assert tree.normalized() != tree
        assert round_trip(spec).predicate_tree == tree


class TestOlderSpellings:
    def test_invariant_means_every_transformation(self):
        spec = QuerySpec.from_wire({"scene": office_scene(0).to_dict(), "invariant": True})
        assert spec.transformations == tuple(Transformation)

    def test_invariant_beside_transformations_is_refused(self):
        with pytest.raises(QuerySpecError, match="'invariant' and 'transformations'"):
            QuerySpec.from_wire(
                {
                    "scene": office_scene(0).to_dict(),
                    "invariant": False,
                    "transformations": ["identity"],
                }
            )

    @pytest.mark.parametrize(
        "text, fuzzy",
        [
            ("phone right-of monitor and monitor above desk", False),
            ("monitor above desk", True),
            ("not (phone right-of monitor) or monitor above desk [w=2]", False),
        ],
    )
    def test_an_unmarked_where_compiles_as_the_builder_does(self, text, fuzzy):
        system = RetrievalSystem()
        expected = system.query().where(text, fuzzy=fuzzy).spec().with_overrides(policy=None)
        payload = {"where": text, "fuzzy": fuzzy}
        assert QuerySpec.from_wire(payload) == expected
        tree_payload = {"where": parse_tree(text).to_dict(), "fuzzy": fuzzy}
        assert QuerySpec.from_wire(tree_payload) == expected

    def test_no_filters_turns_the_shortlist_off_unless_execution_sets_it(self):
        scene = office_scene(0).to_dict()
        spec = QuerySpec.from_wire({"scene": scene, "no_filters": True})
        assert spec.execution == ExecutionOptions(shortlist=False)
        spec = QuerySpec.from_wire(
            {"scene": scene, "no_filters": True, "execution": {"shortlist": True, "cache": False}}
        )
        assert spec.execution == ExecutionOptions(shortlist=True, cache=False)
        assert QuerySpec.from_wire({"scene": scene, "no_filters": False}).execution is None

    def test_unknown_keys_and_a_marker_without_where_are_ignored(self):
        spec = QuerySpec.from_wire(
            {"scene": office_scene(0).to_dict(), "page": 2, "top": 3, "graded": "yes"}
        )
        assert spec == QuerySpec(picture=office_scene(0))

    def test_null_reads_as_absent_for_optional_keys(self):
        spec = QuerySpec.from_wire(
            {
                "scene": office_scene(0).to_dict(),
                "identifiers": None,
                "transformations": None,
                "where": None,
                "compose": None,
                "policy": None,
                "execution": None,
                "limit": None,
            }
        )
        assert spec == QuerySpec(picture=office_scene(0), limit=None)


class TestMalformedKeys:
    @pytest.mark.parametrize(
        "changes, key",
        [
            ({"scene": "office"}, "scene"),
            ({"scene": {"icons": []}}, "scene"),
            ({"identifiers": "desk"}, "identifiers"),
            ({"transformations": ["spin"]}, "transformations"),
            ({"transformations": "identity"}, "transformations"),
            ({"invariant": "yes"}, "invariant"),
            ({"where": 7}, "where"),
            # A malformed clause is named by its token, as the grammar names it.
            ({"where": "desk wibble monitor"}, "wibble"),
            ({"where": {"op": "nand", "children": []}}, "nand"),
            ({"where": "monitor above desk", "fuzzy": "yes"}, "fuzzy"),
            ({"where": "monitor above desk", "graded": 1}, "graded"),
            ({"fuzzy": True}, "fuzzy"),
            ({"compose": 1}, "compose"),
            ({"compose": "sum", "blend": "half"}, "blend"),
            ({"blend": 0.5}, "blend"),
            ({"limit": -1}, "limit"),
            ({"limit": 2.0}, "limit"),
            ({"min_score": "high"}, "min_score"),
            ({"min_shared_labels": 0}, "min_shared_labels"),
            ({"min_shared_labels": True}, "min_shared_labels"),
            ({"policy": "dice"}, "policy"),
            ({"policy": {"normalization": "cubic"}}, "policy"),
            ({"policy": {"combination": "max"}}, "policy"),
            ({"policy": {"count_boundaries_only": "yes"}}, "policy"),
            ({"policy": {"weights": [1, 2]}}, "policy"),
            ({"execution": "anytime"}, "execution"),
            ({"execution": {"kernel": "simd"}}, "execution"),
            ({"execution": {"turbo": True}}, "execution"),
            ({"execution": {"workers": 17}}, "execution"),
            ({"no_filters": "yes"}, "no_filters"),
        ],
    )
    def test_the_error_names_the_key(self, changes, key):
        payload = dict({"scene": office_scene(0).to_dict()}, **changes)
        with pytest.raises(QuerySpecError, match=key):
            QuerySpec.from_wire(payload)

    def test_a_query_must_be_an_object(self):
        with pytest.raises(QuerySpecError, match="JSON object"):
            QuerySpec.from_wire([1, 2, 3])

    def test_the_decoded_spec_is_validated(self):
        with pytest.raises(QuerySpecError, match="clause"):
            QuerySpec.from_wire({"limit": 3})
        with pytest.raises(QuerySpecError, match="predicate_composition"):
            QuerySpec.from_wire({"where": "monitor above desk", "compose": "max"})


def test_every_policy_survives_the_wire():
    for normalization in Normalization:
        for combination in Combination:
            policy = SimilarityPolicy(normalization, combination, count_boundaries_only=True)
            spec = QuerySpec(picture=office_scene(1), policy=policy)
            assert round_trip(spec) == spec
