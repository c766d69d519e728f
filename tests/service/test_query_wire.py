"""The service decodes every query with ``QuerySpec.from_wire``.

Each test here pins a fault of the hand-written translations that the codec
replaced, or a check that now runs before a request can fork or crash:

* crisp predicates over labels the grammar cannot spell reach the engine;
* a crisp-shaped predicate tree composes with the similarity over HTTP, as
  it does in process;
* a served engine's shortlist default is not overridden per request;
* a shard-pool size above the shard count, or an execution field of the
  wrong type, is a 400 on ``/search`` and ``/batch`` before any fork;
* an exception no endpoint maps to a status is a 500 counted in ``/stats``.
"""

from contextlib import contextmanager

import pytest

from repro.datasets.scenes import landscape_scene, office_scene, traffic_scene
from repro.geometry.rectangle import Rectangle
from repro.iconic.picture import SymbolicPicture
from repro.index.execution import ExecutionOptions
from repro.index.spec import QuerySpec
from repro.retrieval.predicates import RelationKeyword, RelationPredicate, parse_tree
from repro.retrieval.system import RetrievalSystem
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import RetrievalService, create_server


def collection():
    return (
        [office_scene(variant) for variant in range(3)]
        + [traffic_scene(variant) for variant in range(3)]
        + [landscape_scene(variant) for variant in range(2)]
    )


@contextmanager
def served(system):
    """A client of ``system`` served over a real socket."""
    with create_server(system, port=0) as server:
        server.start_background()
        client = ServiceClient(port=server.port)
        client.wait_until_healthy(timeout=10)
        yield client


class TestFaultsOfTheOldTranslations:
    def test_crisp_predicates_over_unspellable_labels_reach_the_engine(self):
        labels = ("a(b", "x=1", "car[1]", "and", "not", "c")
        pictures = [
            SymbolicPicture.build(
                width=100.0,
                height=100.0,
                objects=[
                    (label, Rectangle(10.0 * slot + shift, 5.0, 10.0 * slot + shift + 8, 20.0))
                    for slot, label in enumerate(labels)
                ],
                name=f"tricky-{shift}",
            )
            for shift in (0, 1, 2)
        ]
        reference = RetrievalSystem.from_pictures(pictures)
        with served(RetrievalSystem.from_pictures(pictures)) as client:
            for subject in labels[:-1]:
                spec = QuerySpec(
                    predicates=(RelationPredicate(subject, RelationKeyword.LEFT_OF, "c"),),
                    limit=None,
                )
                rows = client.search(spec)["results"]
                assert [row["score"] for row in rows] == [1.0, 1.0, 1.0]
                assert rows == reference.execute(spec).to_dicts()

    def test_a_crisp_shaped_tree_composes_over_the_wire(self):
        spec = QuerySpec(
            picture=office_scene(0), predicate_tree=parse_tree("monitor above desk"), limit=None
        )
        with served(RetrievalSystem.from_pictures(collection())) as client:
            rows = client.search(spec)["results"]
        assert rows and all("degree" in row for row in rows)
        assert rows == RetrievalSystem.from_pictures(collection()).execute(spec).to_dicts()

    def test_the_served_shortlist_default_is_not_overridden(self):
        options = ExecutionOptions(shortlist=False)
        service = RetrievalService(RetrievalSystem.from_pictures(collection(), execution=options))
        reference = RetrievalSystem.from_pictures(collection(), execution=options)
        status, body, _ = service.dispatch(
            "POST", "/search", {"scene": office_scene(0).to_dict()}
        )
        assert status == 200
        expected = reference.query(office_scene(0)).execute()
        assert body["plan"] == expected.trace.describe()
        assert "shared a label" not in body["plan"]
        assert body["spec"] == expected.spec.describe()
        assert "execution(" not in body["spec"]


class TestExecutionChecksBeforeAnyFork:
    @pytest.mark.parametrize(
        "path, payload",
        [
            (
                "/search",
                {
                    "scene": office_scene(0).to_dict(),
                    "execution": {"executor": "shard_process", "workers": 17},
                },
            ),
            (
                "/batch",
                {
                    "queries": [{"scene": office_scene(0).to_dict()}],
                    "executor": "shard_process",
                    "workers": 17,
                },
            ),
        ],
    )
    def test_more_workers_than_shards_is_a_400(self, path, payload):
        service = RetrievalService(RetrievalSystem.from_pictures(collection()))
        try:
            status, body, _ = service.dispatch("POST", path, payload)
            assert status == 400
            assert "workers" in body["error"]
            assert service.system._engine.shard_pool_stats() is None
        finally:
            service.close()

    @pytest.mark.parametrize(
        "execution",
        [
            {"shortlist": "no"},
            {"cache": "off"},
            {"executor": "shard_process", "workers": 2.5},
        ],
    )
    def test_execution_fields_of_the_wrong_type_are_400s(self, execution):
        service = RetrievalService(RetrievalSystem.from_pictures(collection()))
        try:
            status, body, _ = service.dispatch(
                "POST", "/search", {"scene": office_scene(0).to_dict(), "execution": execution}
            )
            assert status == 400
            assert "execution" in body["error"]
            assert service.system._engine.shard_pool_stats() is None
        finally:
            service.close()


def test_an_internal_error_is_a_500_counted_in_stats(monkeypatch):
    system = RetrievalSystem.from_pictures(collection())
    with create_server(system, port=0) as server:
        server.start_background()
        client = ServiceClient(port=server.port)
        client.wait_until_healthy(timeout=10)
        before = client.stats()

        def explode(payload):
            raise RuntimeError("boom")

        monkeypatch.setattr(server.service, "search", explode)
        with pytest.raises(ServiceError) as excinfo:
            client.search(office_scene(0))
        assert excinfo.value.status == 500
        assert "internal error: boom" in str(excinfo.value)
        after = client.stats()
    assert after["errors"] == before["errors"] + 1
    assert after["requests"]["POST /search"] == 1
    assert after["latency_ms"]["count"] > before["latency_ms"]["count"]
