"""The redesigned :class:`ServiceClient` surface, end to end.

Covers the two pieces of the client redesign:

* ``client.search(spec)`` / ``client.batch(specs)`` accept ``QuerySpec``
  values directly and send their ``to_wire()`` form — byte-identical to
  the equivalent keyword calls and to in-process execution;
* mutations and operations live on typed resources (``client.images``,
  ``client.admin``) and observability on ``client.stats()`` /
  ``client.health()``.
"""

import pytest

from repro.core.similarity import Normalization, SimilarityPolicy
from repro.core.transforms import Transformation
from repro.datasets.scenes import landscape_scene, office_scene, traffic_scene
from repro.index.execution import ExecutionOptions
from repro.index.spec import QuerySpec
from repro.retrieval.predicates import parse_query
from repro.retrieval.system import RetrievalSystem
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import create_server


def collection():
    return (
        [office_scene(variant) for variant in range(3)]
        + [traffic_scene(variant) for variant in range(3)]
        + [landscape_scene(variant) for variant in range(2)]
    )


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    database_path = tmp_path_factory.mktemp("surface") / "served.json"
    system = RetrievalSystem.from_pictures(collection())
    system.save(database_path)
    server = create_server(
        system, port=0, workers=4, backlog=8, database_path=database_path
    )
    with server:
        yield server.start_background()


@pytest.fixture(scope="module")
def client(server):
    client = ServiceClient(port=server.port)
    client.wait_until_healthy(timeout=10)
    return client


class TestSpecSearch:
    """``client.search(QuerySpec)`` equals the explicit keyword call."""

    def test_similarity_spec_matches_keyword_call(self, client):
        spec = QuerySpec(picture=office_scene(0), limit=5, minimum_score=0.1)
        via_spec = client.search(spec)
        via_kwargs = client.search(office_scene(0), limit=5, min_score=0.1)
        assert via_spec["results"] == via_kwargs["results"]
        assert via_spec["total"] == via_kwargs["total"]

    def test_invariant_spec_sets_the_flag(self, client):
        spec = QuerySpec(
            picture=traffic_scene(1), transformations=tuple(Transformation), limit=4
        )
        via_spec = client.search(spec)
        via_kwargs = client.search(traffic_scene(1), invariant=True, limit=4)
        assert via_spec["results"] == via_kwargs["results"]
        assert "invariant" in via_spec["spec"]

    def test_predicate_spec_compiles_to_where_text(self, client):
        picture = office_scene(0)
        first, second = sorted(set(picture.labels))[:2]
        predicates = tuple(parse_query(f"{first} left-of {second}"))
        spec = QuerySpec(predicates=predicates, limit=None)
        via_spec = client.search(spec)
        via_kwargs = client.search(where=f"{first} left-of {second}", limit=None)
        assert via_spec["results"] == via_kwargs["results"]

    def test_graded_spec_compiles_to_nested_wire_form(self, client):
        from repro.retrieval.predicates import parse_tree

        tree = parse_tree("monitor above desk [fuzzy] or not phone inside desk")
        spec = QuerySpec(
            picture=office_scene(0),
            predicate_tree=tree,
            predicate_composition="sum",
            predicate_blend=0.4,
            limit=None,
        )
        payload = spec.to_wire()
        assert payload["where"] == tree.to_dict()
        assert payload["compose"] == "sum"
        assert payload["blend"] == 0.4
        via_spec = client.search(spec)
        via_kwargs = client.search(
            office_scene(0), where=tree.to_dict(), compose="sum", blend=0.4, limit=None
        )
        assert via_spec["results"] == via_kwargs["results"]
        assert via_spec["results"]  # the graded ranking is non-empty

    def test_product_composition_omits_blend(self):
        from repro.retrieval.predicates import parse_tree

        spec = QuerySpec(
            predicate_tree=parse_tree("monitor above desk [fuzzy]"), limit=None
        )
        payload = spec.to_wire()
        # The default composition is left out, like every default.
        assert "compose" not in payload
        assert "blend" not in payload

    def test_execution_options_travel_the_wire(self, client):
        spec = QuerySpec(
            picture=office_scene(2),
            execution=ExecutionOptions(kernel="bitparallel", strategy="anytime"),
            limit=3,
        )
        via_spec = client.search(spec)
        plain = client.search(office_scene(2), limit=3)
        assert via_spec["results"] == plain["results"]

    def test_keywords_travel_as_given(self, client):
        # The keywords are the wire keys: a knob without the clause it
        # modifies is refused, exactly as in a hand-written payload.
        for keywords, key in (({"fuzzy": True}, "fuzzy"), ({"blend": 0.3}, "blend")):
            with pytest.raises(ServiceError, match=key) as excinfo:
                client.search(office_scene(0), **keywords)
            assert excinfo.value.status == 400

    def test_spec_search_paginates(self, client):
        spec = QuerySpec(picture=office_scene(0), limit=None)
        page = client.search(spec, page=1, page_size=2)
        assert page["page"] == 1
        assert page["page_size"] == 2
        assert len(page["results"]) == 2

    def test_batch_accepts_specs_scenes_and_dicts(self, client):
        specs = [
            QuerySpec(picture=office_scene(0), limit=3),
            QuerySpec(picture=traffic_scene(0), limit=3),
        ]
        batched = client.batch(specs)
        singles = [client.search(spec) for spec in specs]
        assert batched["results"] == [single["results"] for single in singles]
        mixed = client.batch(
            [specs[0], office_scene(1), {"scene": office_scene(2).to_dict()}]
        )
        assert len(mixed["results"]) == 3


class TestSpecWireForm:
    """Specs travel as ``to_wire()``; the client refuses none of them."""

    def test_disabled_cache_rides_in_the_execution_block(self):
        spec = QuerySpec(picture=office_scene(0), execution=ExecutionOptions(cache=False))
        payload = spec.to_wire()
        assert payload["execution"] == {"cache": False}
        assert "no_filters" not in payload

    def test_identity_only_writes_no_transformations(self):
        payload = QuerySpec(picture=office_scene(0)).to_wire()
        assert "transformations" not in payload
        assert "invariant" not in payload

    def test_full_set_writes_every_transformation(self):
        payload = QuerySpec(
            picture=office_scene(0), transformations=tuple(Transformation)
        ).to_wire()
        assert payload["transformations"] == [item.value for item in Transformation]
        assert "invariant" not in payload

    @pytest.mark.parametrize(
        "changes",
        [
            {"transformations": (Transformation.IDENTITY, Transformation.ROTATE_90)},
            {"minimum_shared_labels": 2},
            {"policy": SimilarityPolicy(count_boundaries_only=True)},
            {"policy": SimilarityPolicy(normalization=Normalization.DICE)},
        ],
    )
    def test_knobs_the_old_schema_refused_rank_as_in_process(self, client, changes):
        spec = QuerySpec(picture=office_scene(1), limit=None, **changes)
        expected = RetrievalSystem.from_pictures(collection()).execute(spec)
        served = client.search(spec)
        assert served["results"] == expected.to_dicts()
        assert served["spec"] == expected.spec.describe()

    def test_builder_made_specs_travel(self, client):
        # The builder fills in the system's policy; the client once refused
        # any spec with a policy, so it refused every spec the builder made.
        system = RetrievalSystem.from_pictures(collection())
        for picture in (office_scene(0), traffic_scene(1), landscape_scene(0)):
            spec = system.query(picture).limit(3).spec()
            assert spec.policy is not None
            served = client.search(spec)
            assert served["results"] == system.execute(spec).to_dicts()
        specs = [system.query(office_scene(2)).invariant().spec(), spec]
        batched = client.batch(specs)
        assert batched["results"] == [
            system.execute(item).to_dicts() for item in specs
        ]


class TestResources:
    def test_images_add_and_delete_roundtrip(self, client):
        added = client.images.add(landscape_scene(1), "surface-resource")
        assert added["image_id"] == "surface-resource"
        ranking = client.search(landscape_scene(1), limit=2)
        assert "surface-resource" in [row["image_id"] for row in ranking["results"]]
        removed = client.images.delete("surface-resource")
        assert removed["removed"] == "surface-resource"

    def test_admin_reload_succeeds_with_database_path(self, client):
        body = client.admin.reload()
        assert body["images"] == len(collection())

    def test_admin_compact_requires_wal_mode(self, client):
        from repro.service.client import ServiceError

        with pytest.raises(ServiceError) as excinfo:
            client.admin.compact()
        assert excinfo.value.status == 409

    def test_admin_promote_requires_a_replica(self, client):
        from repro.service.client import ServiceError

        with pytest.raises(ServiceError) as excinfo:
            client.admin.promote()
        assert excinfo.value.status == 409

    def test_health_and_stats(self, client):
        health = client.health()
        assert health["status"] == "ok"
        stats = client.stats()
        assert stats["images"] == len(collection())
