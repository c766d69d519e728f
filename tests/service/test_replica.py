"""Replica subsystem tests: the tailing engine, the write fence, promotion.

The primary side is driven in-process -- a :class:`RetrievalSystem` over a
durable shard directory plus the same :class:`DurableShardedStore` the
daemon uses -- so every test asserts the replica against the exact state the
primary acknowledged, ranking-for-ranking.
"""

import time

import pytest

from repro.datasets.scenes import landscape_scene, office_scene, traffic_scene
from repro.geometry.rectangle import Rectangle
from repro.index.backends import DurableShardedStore
from repro.retrieval.system import RetrievalSystem
from repro.service.client import ServiceClient, ServiceError
from repro.service.replica import ReplicaEngine, ReplicaService, create_replica_server
from repro.service.server import ApiError, RetrievalService


def collection():
    return (
        [office_scene(variant) for variant in range(3)]
        + [traffic_scene(variant) for variant in range(3)]
        + [landscape_scene(variant) for variant in range(2)]
    )


PROBES = [office_scene(0), traffic_scene(1), landscape_scene(0)]


def rankings(system):
    """Full-ranking JSONL per probe scene -- byte-comparable across systems."""
    return [
        system.query(scene).limit(None).execute().to_jsonl() for scene in PROBES
    ]


def upsert(system, store, picture, image_id):
    """One acknowledged primary write: engine mutation plus its log record.

    Replace-on-conflict, like the daemon's ``POST /images``.
    """
    if image_id in system._engine.database:
        system.remove_picture(image_id)
    system.add_picture(picture, image_id)
    return store.log_upsert(system._engine.database.get(image_id))


def delete(system, store, image_id):
    """One acknowledged primary delete."""
    system.remove_picture(image_id)
    return store.log_delete(image_id)


@pytest.fixture()
def primary(tmp_path):
    """A durable directory with its in-process primary (system + store)."""
    path = tmp_path / "primary.shards"
    system = RetrievalSystem.from_pictures(collection())
    system.save(path, durable=True)
    store = DurableShardedStore(system._engine.database, path)
    try:
        yield path, system, store
    finally:
        store.close()


class TestReplicaEngine:
    def test_warm_start_matches_primary(self, primary):
        path, system, _ = primary
        replica = ReplicaEngine(path)
        assert replica.applied_lsn == 0
        assert len(replica.system) == len(system)
        assert rankings(replica.system) == rankings(system)

    def test_warm_start_covers_unapplied_log_tail(self, primary):
        path, system, store = primary
        upsert(system, store, office_scene(5).renamed("tail-office"), "tail-office")
        replica = ReplicaEngine(path)
        # The load replayed the pending record; the cursor starts past it.
        assert replica.applied_lsn == store.last_lsn == 1
        assert rankings(replica.system) == rankings(system)
        assert replica.sync() == 0

    def test_sync_applies_upserts_and_deletes_byte_identically(self, primary):
        path, system, store = primary
        replica = ReplicaEngine(path)
        upsert(system, store, office_scene(6).renamed("new-office"), "new-office")
        upsert(system, store, traffic_scene(5).renamed("new-traffic"), "new-traffic")
        delete(system, store, "office-001")
        upsert(system, store, office_scene(6).renamed("new-office"), "new-office")
        assert replica.sync() == 4
        assert replica.applied_lsn == store.last_lsn == 4
        assert replica.records_applied == 4
        assert len(replica.system) == len(system)
        assert rankings(replica.system) == rankings(system)

    def test_sync_when_caught_up_is_a_cheap_noop(self, primary):
        path, _, _ = primary
        replica = ReplicaEngine(path)
        assert replica.sync() == 0
        assert replica.sync() == 0
        assert replica.syncs == 2
        assert replica.records_applied == 0
        assert replica.lag_records == 0
        assert replica.lag_seconds == 0.0

    def test_compaction_past_the_replica_reloads_the_snapshot(self, primary):
        path, system, store = primary
        replica = ReplicaEngine(path)
        upsert(system, store, office_scene(7).renamed("pre-compact"), "pre-compact")
        delete(system, store, "traffic-000")
        store.compact()
        upsert(system, store, landscape_scene(5).renamed("post-compact"), "post-compact")
        advanced = replica.sync()
        assert replica.snapshot_reloads == 1
        # The reload covers at least the compacted prefix; one more sync
        # picks up whatever the reload's own replay did not already cover.
        replica.sync()
        assert advanced >= 2
        assert replica.applied_lsn == store.last_lsn
        assert rankings(replica.system) == rankings(system)

    def test_snapshot_reload_keeps_the_minimum_signature_overlap(self, primary):
        path, system, store = primary
        replica = ReplicaEngine(path)
        # A replica serving with a signature-overlap threshold.
        replica.system = RetrievalSystem.from_file(
            path, durable=True, minimum_signature_overlap=0.6
        ).enable_concurrent_access()
        # Six of the probe's eight labels are office labels, two traffic ones.
        probe = (
            office_scene(0)
            .remove_icon("phone")
            .remove_icon("plant")
            .add_icon("car", Rectangle(10, 10, 20, 15))
            .add_icon("bus", Rectangle(30, 10, 50, 20))
        )
        before = replica.system.query(probe).limit(None).execute().to_jsonl()
        delete(system, store, "traffic-000")
        store.compact()
        replica.sync()
        assert replica.snapshot_reloads == 1
        assert replica.system._engine.minimum_overlap_ratio == 0.6
        after = replica.system.query(probe).limit(None).execute().to_jsonl()
        assert after == before
        unfiltered = RetrievalSystem.from_file(path, durable=True)
        assert after != unfiltered.query(probe).limit(None).execute().to_jsonl()

    def test_detach_freezes_the_engine(self, primary):
        path, system, store = primary
        replica = ReplicaEngine(path)
        replica.detach()
        assert replica.detached
        upsert(system, store, office_scene(8).renamed("after-detach"), "after-detach")
        assert replica.sync() == 0
        assert replica.applied_lsn == 0

    def test_drain_applies_the_whole_backlog(self, primary):
        path, system, store = primary
        replica = ReplicaEngine(path)
        for variant in range(4):
            image_id = f"drain-{variant}"
            upsert(system, store, office_scene(variant).renamed(image_id), image_id)
        assert replica.drain() == 4
        assert replica.lag_records == 0
        assert rankings(replica.system) == rankings(system)

    def test_replication_stats_shape(self, primary):
        path, system, store = primary
        replica = ReplicaEngine(path)
        upsert(system, store, office_scene(9).renamed("stats-probe"), "stats-probe")
        replica.sync()
        stats = replica.replication_stats()
        assert stats["applied_lsn"] == stats["primary_lsn"] == 1
        assert stats["lag_records"] == 0
        assert stats["lag_seconds"] == 0.0
        assert stats["records_applied"] == 1
        assert stats["snapshot_reloads"] == 0
        assert stats["syncs"] == 1
        assert stats["detached"] is False

    def test_non_durable_directory_is_rejected(self, tmp_path):
        path = tmp_path / "plain.shards"
        RetrievalSystem.from_pictures(collection()).save(path)
        with pytest.raises(ValueError, match="not a durable database"):
            ReplicaEngine(path)


@pytest.fixture()
def replica_service(primary):
    """A ReplicaService following the primary fixture (fast follow interval)."""
    path, _, _ = primary
    service = ReplicaService(
        ReplicaEngine(path),
        workers=2,
        follow_interval=0.05,
        primary_url="http://127.0.0.1:9999",
    )
    try:
        yield service
    finally:
        service.close()


def wait_for(condition, timeout=10.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if condition():
            return True
        time.sleep(interval)
    return False


class TestReplicaService:
    def test_write_fence_names_the_primary(self, replica_service):
        scene = office_scene(0)
        for call in [
            lambda: replica_service.add_image({"scene": scene.to_dict()}),
            lambda: replica_service.delete_image("office-0"),
            lambda: replica_service.reload(),
            lambda: replica_service.compact(),
        ]:
            with pytest.raises(ApiError) as excinfo:
                call()
            assert excinfo.value.status == 403
            assert "http://127.0.0.1:9999" in excinfo.value.message

    def test_healthz_and_stats_report_role_and_replication(self, replica_service):
        assert replica_service.healthz()["role"] == "replica"
        stats = replica_service.stats()
        assert stats["role"] == "replica"
        replication = stats["replication"]
        assert replication["primary_url"] == "http://127.0.0.1:9999"
        assert replication["follow_interval"] == 0.05
        assert replication["detached"] is False
        assert replication["sync_errors"] == 0
        assert stats["images"] == len(collection())

    def test_follower_thread_catches_up_in_background(self, primary, replica_service):
        _, system, store = primary
        before = len(replica_service.system)
        upsert(system, store, office_scene(4).renamed("followed"), "followed")
        assert wait_for(lambda: len(replica_service.system) == before + 1)
        assert rankings(replica_service.system) == rankings(system)

    def test_promote_drains_detaches_and_lifts_the_fence(self, primary, replica_service):
        _, system, store = primary
        upsert(system, store, traffic_scene(6).renamed("pre-promote"), "pre-promote")
        store.close()  # fence the old primary before promoting
        summary = replica_service.promote()
        assert summary["role"] == "primary"
        assert summary["applied_lsn"] == 1
        assert replica_service.role == "primary"
        assert replica_service.replica.detached
        assert "pre-promote" in replica_service.system._engine.database
        # The fence is lifted and writes are durable (acked with an LSN).
        body = replica_service.add_image(
            {"scene": office_scene(5).to_dict(), "image_id": "post-promote"}
        )
        assert body["lsn"] == 2
        assert replica_service.healthz()["role"] == "primary"

    def test_second_promote_conflicts(self, primary, replica_service):
        _, _, store = primary
        store.close()
        replica_service.promote()
        with pytest.raises(ApiError) as excinfo:
            replica_service.promote()
        assert excinfo.value.status == 409

    def test_base_service_has_nothing_to_promote(self):
        service = RetrievalService(
            RetrievalSystem.from_pictures(collection()), workers=1
        )
        try:
            with pytest.raises(ApiError) as excinfo:
                service.promote()
            assert excinfo.value.status == 409
        finally:
            service.close()


class TestReplicaOverHttp:
    @pytest.fixture()
    def server(self, primary):
        path, _, _ = primary
        server = create_replica_server(path, port=0, workers=2, follow_interval=0.05)
        with server:
            yield server.start_background()

    @pytest.fixture()
    def client(self, server):
        client = ServiceClient(port=server.port)
        client.wait_until_healthy(timeout=10)
        return client

    def test_read_surface_matches_an_in_process_reference(self, client):
        reference = RetrievalSystem.from_pictures(collection())
        scene = office_scene(0)
        served = client.search(scene, limit=None)
        expected = reference.query(scene).limit(None).execute()
        assert served["results"] == expected.to_dicts()
        batch = client.batch([traffic_scene(0), landscape_scene(1)])
        for row, probe in zip(batch["results"], [traffic_scene(0), landscape_scene(1)]):
            assert row == reference.query(probe).execute().to_dicts()

    def test_mutations_rejected_with_403_and_primary_address(self, client, primary):
        path, _, _ = primary
        with pytest.raises(ServiceError) as excinfo:
            client.images.add(office_scene(0), image_id="nope")
        assert excinfo.value.status == 403
        assert str(path) in str(excinfo.value)
        with pytest.raises(ServiceError) as excinfo:
            client.images.delete("office-0")
        assert excinfo.value.status == 403

    def test_stats_carry_the_replication_block(self, client):
        stats = client.stats()
        assert stats["role"] == "replica"
        assert stats["replication"]["applied_lsn"] == 0
        assert stats["durability"]["enabled"] is False

    def test_promote_over_http_enables_writes(self, client, primary):
        _, system, store = primary
        upsert(system, store, office_scene(6).renamed("handover"), "handover")
        store.close()
        summary = client.admin.promote()
        assert summary["role"] == "primary"
        assert summary["applied_lsn"] == 1
        body = client.images.add(traffic_scene(4), image_id="after-promote")
        assert body["lsn"] == 2
        assert client.health()["role"] == "primary"
        with pytest.raises(ServiceError) as excinfo:
            client.admin.promote()
        assert excinfo.value.status == 409
