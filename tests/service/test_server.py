"""End-to-end tests of the HTTP daemon: every endpoint over a real socket.

One module-scoped server is booted on an ephemeral port and driven with the
stdlib :class:`~repro.service.client.ServiceClient`; rankings are asserted
byte-identical (same ``to_dicts()`` rows, same JSONL text) to an in-process
reference system executing the same specs.
"""

import json
import os

import pytest

from repro.datasets.scenes import landscape_scene, office_scene, traffic_scene
from repro.datasets.synthetic import SceneParameters, random_pictures
from repro.retrieval.system import RetrievalSystem
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import MAX_BODY_BYTES, RetrievalService, create_server


def collection():
    return (
        [office_scene(variant) for variant in range(3)]
        + [traffic_scene(variant) for variant in range(3)]
        + [landscape_scene(variant) for variant in range(2)]
    )


@pytest.fixture()
def reference():
    """An in-process system holding the same images as the served one."""
    return RetrievalSystem.from_pictures(collection())


@pytest.fixture()
def server(tmp_path):
    database_path = tmp_path / "served.json"
    system = RetrievalSystem.from_pictures(collection())
    system.save(database_path)
    server = create_server(
        system, port=0, workers=4, backlog=8, database_path=database_path
    )
    with server:
        yield server.start_background()


@pytest.fixture()
def client(server):
    client = ServiceClient(port=server.port)
    client.wait_until_healthy(timeout=10)
    return client


class TestSearch:
    def test_rankings_byte_identical_to_in_process_engine(self, client, reference):
        for scene, kwargs in [
            (office_scene(0), {}),
            (office_scene(1), {"invariant": True}),
            (traffic_scene(2), {"min_score": 0.2, "limit": 3}),
            (landscape_scene(0), {"no_filters": True, "limit": None}),
        ]:
            served = client.search(scene, **kwargs)
            builder = reference.query(scene)
            builder.invariant(kwargs.get("invariant", False))
            builder.min_score(kwargs.get("min_score", 0.0))
            builder.limit(kwargs.get("limit", 10))
            builder.execution(shortlist=not kwargs.get("no_filters", False))
            expected = builder.execute()
            assert served["results"] == expected.to_dicts()
            assert (
                "\n".join(json.dumps(row, sort_keys=True) for row in served["results"])
                == expected.to_jsonl()
            )

    def test_partial_query(self, client, reference):
        scene = office_scene(0)
        identifiers = [icon.identifier for icon in list(scene)[:2]]
        served = client.search(scene, identifiers=identifiers)
        expected = reference.query(scene).partial(identifiers).execute()
        assert served["results"] == expected.to_dicts()

    def test_predicate_and_combined_queries(self, client, reference):
        predicate = "monitor above desk"
        served = client.search(where=predicate)
        expected = reference.query().where(predicate).execute()
        assert served["results"] == expected.to_dicts()
        combined = client.search(office_scene(0), where=predicate)
        expected_combined = (
            reference.query(office_scene(0)).where(predicate).execute()
        )
        assert combined["results"] == expected_combined.to_dicts()

    def test_pagination_windows_the_full_ranking(self, client, reference):
        scene = office_scene(0)
        full = reference.query(scene).limit(None).execution(shortlist=False).execute()
        pages = []
        page_number = 1
        while True:
            served = client.search(
                scene, limit=None, no_filters=True, page=page_number, page_size=3
            )
            assert served["total"] == len(full)
            pages.extend(served["results"])
            if page_number >= served["pages"]:
                break
            page_number += 1
        assert pages == full.to_dicts()

    def test_search_reports_plan_and_spec(self, client):
        served = client.search(office_scene(0))
        assert "scored" in served["plan"]
        assert "similar_to" in served["spec"]

    def test_execution_payload_rankings_match_reference(self, client, reference):
        scene = office_scene(0)
        expected = reference.query(scene).limit(5).execute()
        for execution in [
            {"kernel": "bitparallel"},
            {"strategy": "anytime"},
            {"kernel": "bitparallel", "strategy": "anytime"},
        ]:
            served = client.search(scene, limit=5, execution=execution)
            assert served["results"] == expected.to_dicts(), execution

    def test_explicit_execution_wins_over_no_filters(self, client, reference):
        scene = office_scene(0)
        served = client.search(
            scene, limit=None, no_filters=True, execution={"shortlist": True}
        )
        expected = reference.query(scene).limit(None).execute()
        assert served["results"] == expected.to_dicts()

    def test_malformed_execution_is_a_400(self, client):
        for execution in [{"kernel": "simd"}, {"turbo": True}, "anytime"]:
            with pytest.raises(ServiceError) as excinfo:
                client.request(
                    "POST",
                    "/search",
                    {"scene": office_scene(0).to_dict(), "execution": execution},
                )
            assert excinfo.value.status == 400
            assert "execution" in str(excinfo.value)

    def test_empty_spec_is_a_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.request("POST", "/search", {"limit": 3})
        assert excinfo.value.status == 400
        assert "clause" in str(excinfo.value)

    def test_malformed_knobs_are_400s(self, client):
        for payload in [
            {"scene": office_scene(0).to_dict(), "limit": -1},
            {"scene": office_scene(0).to_dict(), "invariant": "yes"},
            {"scene": office_scene(0).to_dict(), "min_score": "high"},
            {"scene": office_scene(0).to_dict(), "page": 1},  # page without size
            {"scene": {"nonsense": True}},
            {"scene": office_scene(0).to_dict(), "where": "desk wibble monitor"},
            [1, 2, 3],
        ]:
            with pytest.raises(ServiceError) as excinfo:
                client.request("POST", "/search", payload)
            assert excinfo.value.status == 400


class TestGradedWire:
    """The graded predicate surface over the wire: strings, trees, knobs."""

    def test_fuzzy_string_where_matches_reference(self, client, reference):
        served = client.search(where="monitor above desk", fuzzy=True, limit=None)
        expected = (
            reference.query().where("monitor above desk", fuzzy=True).limit(None).execute()
        )
        assert served["results"] == expected.to_dicts()
        assert served["results"][0]["degree"] == 1.0
        assert "leaf_degrees" in served["results"][0]

    def test_boolean_grammar_over_the_wire(self, client, reference):
        text = "not (phone right-of monitor) or monitor above desk [fuzzy w=2]"
        served = client.search(where=text, limit=None)
        expected = reference.query().where(text).limit(None).execute()
        assert served["results"] == expected.to_dicts()

    def test_nested_tree_payload_matches_string_form(self, client, reference):
        text = "monitor above desk [fuzzy] or not phone inside desk"
        from repro.retrieval.predicates import parse_tree

        tree = parse_tree(text)
        served = client.search(where=tree.to_dict(), limit=None)
        expected = reference.query().where(text).limit(None).execute()
        assert served["results"] == expected.to_dicts()

    def test_combined_compose_knobs(self, client, reference):
        scene = office_scene(0)
        served = client.search(
            scene, where="monitor above desk", fuzzy=True,
            compose="sum", blend=0.3, limit=None,
        )
        expected = (
            reference.query(scene)
            .where("monitor above desk", fuzzy=True)
            .compose("sum", 0.3)
            .limit(None)
            .execute()
        )
        assert served["results"] == expected.to_dicts()

    def test_malformed_graded_payloads_are_400s(self, client):
        cases = [
            ({"where": "car banana tree"}, "banana"),
            ({"where": "(car left-of tree"}, "position"),
            ({"where": {"op": "nand", "children": []}}, "nand"),
            ({"where": 7}, "where"),
            ({"fuzzy": True}, "fuzzy"),
            ({"where": "monitor above desk", "fuzzy": "yes"}, "fuzzy"),
            ({"where": "monitor above desk", "compose": "max"}, "'max'"),
            ({"where": "monitor above desk", "compose": 1}, "compose"),
            ({"where": "monitor above desk", "blend": 0.5}, "blend"),
            (
                {"where": "monitor above desk", "compose": "sum", "blend": 2.0},
                "blend",
            ),
        ]
        for payload, token in cases:
            with pytest.raises(ServiceError) as excinfo:
                client.request("POST", "/search", payload)
            assert excinfo.value.status == 400, payload
            assert token in str(excinfo.value), payload

    def test_stats_reports_predicate_counters(self, reference):
        service = RetrievalService(reference)
        for payload in [
            {"where": "monitor above desk"},
            {"where": "monitor above desk", "fuzzy": True},
        ]:
            status, _, _ = service.dispatch("POST", "/search", payload)
            assert status == 200
        predicates = service.stats()["predicates"]
        assert predicates["queries"] == 2
        assert predicates["graded_queries"] == 1
        assert predicates["evaluated"] > 0
        assert 0.0 <= predicates["pruned_fraction"] <= 1.0

    def test_batch_rejects_graded_queries(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.request(
                "POST",
                "/batch",
                {"queries": [{"where": "monitor above desk", "fuzzy": True}]},
            )
        assert excinfo.value.status == 400


class TestScatteredStats:
    """A scattered query adds its merged trace to ``/stats`` exactly once.

    The CI ``shard-workers`` leg re-runs this class with
    ``REPRO_SHARD_WORKERS`` pinned to 2 and 4.
    """

    def test_serial_and_scattered_services_report_the_same_stats(self):
        workers = int(os.environ.get("REPRO_SHARD_WORKERS") or 2)
        payloads = [
            {"scene": office_scene(0).to_dict(), "min_score": 0.2, "limit": 3},
            {"scene": office_scene(1).to_dict(), "invariant": True},
            {"scene": landscape_scene(0).to_dict(), "no_filters": True, "limit": None},
            {"where": "monitor above desk"},
            {"where": "monitor above desk", "fuzzy": True},
            {"scene": office_scene(0).to_dict(), "where": "monitor above desk"},
            {
                "scene": office_scene(2).to_dict(),
                "where": "monitor above desk",
                "fuzzy": True,
                "compose": "sum",
            },
        ]
        serial = RetrievalService(RetrievalSystem.from_pictures(collection()))
        scattered = RetrievalService(
            RetrievalSystem.from_pictures(collection()), shard_workers=workers
        )
        try:
            for service in (serial, scattered):
                for payload in payloads:
                    # Under anytime each worker stops on its own top k, so
                    # only exhaustive runs examine the same candidates.
                    payload = dict(payload, execution={"strategy": "exhaustive"})
                    status, _, _ = service.dispatch("POST", "/search", payload)
                    assert status == 200, payload
            expected, actual = serial.stats(), scattered.stats()
        finally:
            serial.close()
            scattered.close()
        assert actual["workers"]["mode"] == "shard_process"
        for block in ("execution", "shortlist", "predicates"):
            assert actual[block] == expected[block], block
        assert expected["execution"]["queries"] == 5
        assert expected["predicates"]["queries"] == 4


class TestBatch:
    def test_batch_matches_serial_searches(self, client, reference):
        scenes = [office_scene(0), traffic_scene(1), office_scene(0)]
        served = client.batch(scenes, workers=2)
        assert served["count"] == 3
        for row, scene in zip(served["results"], scenes):
            assert row == reference.query(scene).execute().to_dicts()
        assert "unique evaluations" in served["report"]

    def test_batch_rejects_predicates_and_empty(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.request(
                "POST", "/batch", {"queries": [{"where": "monitor above desk"}]}
            )
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError) as excinfo:
            client.request("POST", "/batch", {"queries": []})
        assert excinfo.value.status == 400

    def test_batch_rejects_bad_executor(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.batch([office_scene(0)], executor="quantum")
        assert excinfo.value.status == 400


class TestMutations:
    def test_insert_search_delete_roundtrip_with_persistence(
        self, client, server, tmp_path
    ):
        fresh = office_scene(7).renamed("fresh-image")
        created = client.images.add(fresh)
        assert created["image_id"] == "fresh-image"

        served = client.search(fresh, limit=1)
        assert served["results"][0]["image_id"] == "fresh-image"
        assert served["results"][0]["score"] == pytest.approx(1.0)

        # The mutation was persisted incrementally: a reload sees the image.
        reloaded = RetrievalSystem.from_file(server.service.database_path)
        assert "fresh-image" in reloaded.image_ids

        removed = client.images.delete("fresh-image")
        assert removed["removed"] == "fresh-image"
        reloaded = RetrievalSystem.from_file(server.service.database_path)
        assert "fresh-image" not in reloaded.image_ids

    def test_duplicate_insert_is_409(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.images.add(office_scene(0))  # office-000 already stored
        assert excinfo.value.status == 409

    def test_unknown_delete_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.images.delete("never-stored")
        assert excinfo.value.status == 404

    def test_whitespace_label_is_a_400_and_nothing_is_logged(self, tmp_path):
        path = RetrievalSystem.from_pictures(collection()).save(
            tmp_path / "served.shards", durable=True
        )
        spaced = office_scene(7).renamed("spaced").to_dict()
        spaced["icons"][0]["label"] = "coffee mug"
        system = RetrievalSystem.from_file(path, durable=True)
        with create_server(system, port=0, database_path=path, durable=True) as server:
            server.start_background()
            client = ServiceClient(port=server.port)
            client.wait_until_healthy(timeout=10)
            for send in (lambda: client.images.add(spaced), lambda: client.search(spaced)):
                with pytest.raises(ServiceError, match="whitespace") as excinfo:
                    send()
                assert excinfo.value.status == 400
            created = client.images.add(office_scene(7).renamed("plain"))
        assert created["lsn"] == 1
        reloaded = RetrievalSystem.from_file(path, durable=True)
        assert sorted(reloaded.image_ids) == sorted(
            [picture.name for picture in collection()] + ["plain"]
        )

    @pytest.mark.parametrize(
        "corruption, phrase",
        [
            ({"instance": 1.7}, "must be an integer"),
            ({"instance": True}, "must be an integer"),
            ({"instance": 2.0}, "must be an integer"),
            ({"width": float("nan")}, "positive width"),
            ({"mbr": [float("nan"), 1.0, 2.0, 3.0]}, "must not exceed"),
        ],
    )
    def test_non_integer_instance_or_nan_is_a_400_and_nothing_is_logged(
        self, tmp_path, corruption, phrase
    ):
        # Python's json reads and writes NaN, so a client can send one.
        path = RetrievalSystem.from_pictures(collection()).save(
            tmp_path / "served.shards", durable=True
        )
        scene = office_scene(7).renamed("bad").to_dict()
        if "width" in corruption:
            scene.update(corruption)
        else:
            scene["icons"][1].update(corruption)
        system = RetrievalSystem.from_file(path, durable=True)
        with create_server(system, port=0, database_path=path, durable=True) as server:
            server.start_background()
            client = ServiceClient(port=server.port)
            client.wait_until_healthy(timeout=10)
            for send in (lambda: client.images.add(scene), lambda: client.search(scene)):
                with pytest.raises(ServiceError, match=phrase) as excinfo:
                    send()
                assert excinfo.value.status == 400
            created = client.images.add(office_scene(7).renamed("plain"))
        assert created["lsn"] == 1
        reloaded = RetrievalSystem.from_file(path, durable=True)
        assert "bad" not in reloaded.image_ids
        assert "plain" in reloaded.image_ids

    def test_non_string_scene_name_is_a_400_and_nothing_is_logged(self, tmp_path):
        # Such a scene was stored under the integer id 5, after which sorting
        # the image ids failed in predicate searches, compaction and reloads.
        path = RetrievalSystem.from_pictures(collection()).save(
            tmp_path / "served.shards", durable=True
        )
        scene = dict(office_scene(7).to_dict(), name=5)
        system = RetrievalSystem.from_file(path, durable=True)
        with create_server(system, port=0, database_path=path, durable=True) as server:
            server.start_background()
            client = ServiceClient(port=server.port)
            client.wait_until_healthy(timeout=10)
            with pytest.raises(ServiceError, match="must be a string") as excinfo:
                client.images.add(scene)
            assert excinfo.value.status == 400
            created = client.images.add(office_scene(7).renamed("plain"))
            compacted = client.admin.compact()
        assert created["lsn"] == 1
        assert compacted["snapshot_lsn"] == 1
        reloaded = RetrievalSystem.from_file(path, durable=True)
        assert sorted(reloaded.image_ids) == sorted(
            [picture.name for picture in collection()] + ["plain"]
        )

    def test_empty_image_id_is_a_400_and_nothing_is_logged(self, tmp_path):
        # Such a request was stored under the scene's own name, while an
        # empty id on DELETE /images/ is a 400.
        path = RetrievalSystem.from_pictures(collection()).save(
            tmp_path / "served.shards", durable=True
        )
        scene = office_scene(7).renamed("named-scene")
        system = RetrievalSystem.from_file(path, durable=True)
        with create_server(system, port=0, database_path=path, durable=True) as server:
            server.start_background()
            client = ServiceClient(port=server.port)
            client.wait_until_healthy(timeout=10)
            images = client.health()["images"]
            with pytest.raises(ServiceError, match="must be a non-empty JSON string") as excinfo:
                client.images.add(scene, image_id="")
            assert excinfo.value.status == 400
            assert client.health()["images"] == images
            created = client.images.add(office_scene(7).renamed("plain"))
        assert created["lsn"] == 1
        assert created["images"] == images + 1
        reloaded = RetrievalSystem.from_file(path, durable=True)
        assert "named-scene" not in reloaded.image_ids
        assert "plain" in reloaded.image_ids

    def test_mutation_invalidates_served_rankings(self, client):
        """A cached query must re-rank after an insert changes the answer."""
        probe = office_scene(2)
        before = client.search(probe, limit=1)
        clone = probe.renamed("office-clone")
        client.images.add(clone)
        after = client.search(probe, limit=2)
        ids = [row["image_id"] for row in after["results"]]
        assert "office-clone" in ids
        client.images.delete("office-clone")
        again = client.search(probe, limit=1)
        assert again["results"] == before["results"]


class TestObservability:
    def test_healthz_reports_image_count_and_uptime(self, client, server):
        body = client.health()
        assert body["status"] == "ok"
        assert body["images"] == len(server.service.system)
        assert body["uptime_seconds"] >= 0

    def test_stats_counts_requests_and_latency(self, client):
        client.search(office_scene(0))
        client.search(office_scene(0))
        stats = client.stats()
        assert stats["requests"]["POST /search"] >= 2
        assert stats["requests_total"] >= stats["requests"]["POST /search"]
        assert stats["latency_ms"]["p50"] <= stats["latency_ms"]["p95"]
        assert 0.0 <= stats["cache"]["hit_rate"] <= 1.0
        assert stats["lock"]["read_acquisitions"] > 0

    def test_repeated_search_hits_the_score_cache(self, client):
        scene = traffic_scene(0)
        client.search(scene)
        before = client.stats()["cache"]["hits"]
        client.search(scene)
        assert client.stats()["cache"]["hits"] > before

    def test_ping_measures_round_trip(self, client):
        body = client.ping()
        assert body["status"] == "ok"
        assert body["round_trip_ms"] >= 0

    def test_unknown_route_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.request("GET", "/never/existed")
        assert excinfo.value.status == 404

    def test_unreachable_service_raises(self):
        client = ServiceClient(port=1, timeout=0.2)  # nothing listens there
        with pytest.raises(ServiceError, match="unreachable"):
            client.health()


class TestBackpressure:
    def test_admission_gate_rejects_with_503_and_retry_after(self, reference):
        service = RetrievalService(reference, workers=1, backlog=0, retry_after=2.0)
        # Fill the only admission slot, then ask for work: bounded queue full.
        assert service._admission.acquire(blocking=False)
        try:
            status, body, headers = service.dispatch(
                "POST", "/search", {"scene": office_scene(0).to_dict()}
            )
        finally:
            service._admission.release()
        assert status == 503
        assert headers["Retry-After"] == "2"
        assert "overloaded" in body["error"]
        assert service.stats()["rejected_overload"] == 1

    def test_probes_bypass_the_admission_gate(self, reference):
        service = RetrievalService(reference, workers=1, backlog=0)
        assert service._admission.acquire(blocking=False)
        try:
            status, body, _ = service.dispatch("GET", "/healthz", None)
            assert status == 200 and body["status"] == "ok"
            status, _, _ = service.dispatch("GET", "/stats", None)
            assert status == 200
        finally:
            service._admission.release()

    def test_admission_gate_validates_knobs(self, reference):
        with pytest.raises(ValueError):
            RetrievalService(reference, workers=0)
        with pytest.raises(ValueError):
            RetrievalService(reference, backlog=-1)


class TestWireEdgeCases:
    """Regressions for wire-level edge cases found in review."""

    def test_image_ids_with_unsafe_characters_roundtrip(self, client):
        for image_id in ("has space", "slash/inside", "café", "q?a#b"):
            created = client.images.add(office_scene(7), image_id=image_id)
            assert created["image_id"] == image_id
            removed = client.images.delete(image_id)
            assert removed["removed"] == image_id

    def test_batch_with_unknown_identifier_is_400_not_500(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.request(
                "POST",
                "/batch",
                {"queries": [{"scene": office_scene(0).to_dict(), "identifiers": ["nope"]}]},
            )
        assert excinfo.value.status == 400
        assert "identifier" in str(excinfo.value)

    def test_malformed_content_length_is_400(self, server):
        import http.client

        connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=5)
        try:
            connection.putrequest("POST", "/search")
            connection.putheader("Content-Length", "abc")
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 400
            assert b"Content-Length" in response.read()
        finally:
            connection.close()

    @pytest.mark.parametrize(
        "length,status", [(MAX_BODY_BYTES + 1, 413), (-1, 400)]
    )
    def test_unreadable_body_is_refused_before_reading(self, server, client, length, status):
        import http.client

        connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=5)
        try:
            # Headers only: the refusal must not wait for a body never sent.
            connection.putrequest("POST", "/images")
            connection.putheader("Content-Length", str(length))
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == status
            assert response.getheader("Connection") == "close"
            assert b"error" in response.read()
        finally:
            connection.close()
        assert client.health()["status"] == "ok"

    def test_delete_without_id_is_400(self, reference):
        service = RetrievalService(reference)
        for path in ("/images", "/images/"):
            status, body, _ = service.dispatch("DELETE", path, None)
            assert status == 400
            assert "image id is required" in body["error"]


class TestReload:
    def test_reload_keeps_the_minimum_signature_overlap(self, tmp_path):
        # Scenes drawn from a shared label pool: a near-duplicate shares a
        # label with most of them, but 80% of its labels with only a few.
        parameters = SceneParameters(
            object_count=6,
            labels=tuple(f"c{index}" for index in range(12)),
            label_choice="random",
        )
        pictures = random_pictures(80, seed=1, parameters=parameters, name_prefix="img")
        near_duplicate = pictures[0].remove_icon(pictures[0].identifiers[0])
        probe = near_duplicate.to_dict()
        unfiltered = RetrievalSystem.from_pictures(pictures)
        everyone = unfiltered.query(near_duplicate).limit(50).execute()
        system = RetrievalSystem.from_pictures(pictures, minimum_signature_overlap=0.8)
        path = system.save(tmp_path / "served.json")
        with create_server(system, port=0, database_path=path) as server:
            server.start_background()
            client = ServiceClient(port=server.port)
            client.wait_until_healthy(timeout=10)
            before = client.search(scene=probe, limit=50)["results"]
            assert client.admin.reload()["reloads"] == 1
            after = client.search(scene=probe, limit=50)["results"]
            engine = server.service.system._engine
        assert len(before) < len(everyone)
        assert after == before
        assert engine.minimum_overlap_ratio == 0.8


class TestPercentile:
    """Exact nearest-rank values at small window sizes (regression for the
    banker's-rounding off-by-one at even window sizes)."""

    @pytest.mark.parametrize(
        ("values", "fraction", "expected"),
        [
            ([10.0], 0.5, 10.0),
            ([10.0], 0.95, 10.0),
            ([10.0, 20.0], 0.5, 10.0),
            ([10.0, 20.0], 0.95, 20.0),
            ([10.0, 20.0, 30.0], 0.5, 20.0),
            ([10.0, 20.0, 30.0], 0.95, 30.0),
            # Four samples: round(0.5 * 3) == 2 under banker's rounding used
            # to report the *third* value as the median.
            ([10.0, 20.0, 30.0, 40.0], 0.5, 20.0),
            ([10.0, 20.0, 30.0, 40.0], 0.95, 40.0),
            ([10.0, 20.0], 0.0, 10.0),
            ([10.0, 20.0], 1.0, 20.0),
        ],
    )
    def test_nearest_rank(self, values, fraction, expected):
        from repro.service.server import _percentile

        assert _percentile(values, fraction) == expected

    def test_stats_latency_summary_uses_nearest_rank(self, tmp_path):
        system = RetrievalSystem.from_pictures(collection())
        service = RetrievalService(system)
        # Inject a deterministic latency window (seconds) behind the lock.
        with service._stats_lock:
            service._latencies.extend([0.010, 0.020, 0.030, 0.040])
        latency = service.stats()["latency_ms"]
        assert latency["count"] == 4
        assert latency["p50"] == pytest.approx(20.0)
        assert latency["p95"] == pytest.approx(40.0)
        assert latency["max"] == pytest.approx(40.0)

    def test_stats_reports_shortlist_counters(self, tmp_path):
        system = RetrievalSystem.from_pictures(collection())
        service = RetrievalService(system)
        status, _, _ = service.dispatch(
            "POST",
            "/search",
            {"scene": office_scene(0).to_dict(), "min_score": 0.6},
        )
        assert status == 200
        shortlist = service.stats()["shortlist"]
        assert shortlist["queries"] >= 1
        assert shortlist["candidates"] == (
            shortlist["admitted"]
            + shortlist["bitmap_rejected"]
            + shortlist["relation_rejected"]
        )
        assert 0.0 <= shortlist["pruned_fraction"] <= 1.0

    def test_stats_reports_execution_counters(self, tmp_path):
        system = RetrievalSystem.from_pictures(collection())
        service = RetrievalService(system)
        status, _, _ = service.dispatch(
            "POST",
            "/search",
            {
                "scene": office_scene(0).to_dict(),
                "limit": 3,
                "execution": {"strategy": "anytime"},
            },
        )
        assert status == 200
        execution = service.stats()["execution"]
        assert execution["queries"] >= 1
        assert execution["anytime_queries"] >= 1
        assert execution["admitted"] == execution["examined"] + execution["skipped"]
        assert 0.0 <= execution["examined_fraction"] <= 1.0
