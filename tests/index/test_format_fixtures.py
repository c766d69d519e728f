"""Databases written by a release that persisted shortlist signatures still work.

The fixtures under ``tests/fixtures/persisted-signatures/`` (built by its
``generate.py``) carry a ``signature`` payload in every JSON entry, shard
blob and logged upsert, plus the manifest's ``signatures`` flag.
Current code ignores all of them and derives signatures from the validated
BE-strings, so each fixture must rank exactly like a system built from the
same scenes in memory, and must accept the writes a live system makes.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.datasets.scenes import landscape_scene, office_scene, traffic_scene
from repro.index.backends import MANIFEST_NAME, DurableShardedStore, load_database_from
from repro.retrieval.system import RetrievalSystem

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures" / "persisted-signatures"

#: The nine ``repro demo`` scenes every fixture starts from.
DEMO_SCENES = [
    scene(variant)
    for scene in (office_scene, traffic_scene, landscape_scene)
    for variant in range(3)
]
#: The durable directory's two pending log records applied on top.
DURABLE_SCENES = [
    scene for scene in DEMO_SCENES if scene.name != "landscape-002"
] + [traffic_scene(3)]

#: Stored and unseen scenes alike serve as queries.
QUERIES = [
    scene(variant)
    for scene in (office_scene, traffic_scene, landscape_scene)
    for variant in range(5)
]

FIXTURE_SCENES = [
    ("demo.json", DEMO_SCENES),
    ("demo.shards", DURABLE_SCENES),
]


def _rankings(system):
    rankings = []
    for picture in QUERIES:
        for builder in (
            system.query(picture),
            system.query(picture).min_score(0.5),
            system.query(picture).invariant().min_score(0.3),
        ):
            rankings.append(
                [
                    (result.image_id, repr(result.score), result.describe())
                    for result in builder.limit(None).execute()
                ]
            )
    return rankings


def _copy(name, tmp_path):
    source = FIXTURES / name
    target = tmp_path / name
    if source.is_dir():
        shutil.copytree(source, target)
    else:
        shutil.copyfile(source, target)
    return target


@pytest.mark.parametrize("name,scenes", FIXTURE_SCENES)
def test_fixture_ranks_like_the_same_scenes_in_memory(name, scenes):
    system = RetrievalSystem.from_file(FIXTURES / name)
    assert sorted(system._engine.database.image_ids) == sorted(
        scene.name for scene in scenes
    )
    assert _rankings(system) == _rankings(RetrievalSystem.from_pictures(scenes))


def test_save_into_the_json_fixture(tmp_path):
    path = _copy("demo.json", tmp_path)
    system = RetrievalSystem.from_file(path)
    system.add_picture(office_scene(3))
    system.remove_picture("traffic-001")
    system.save(path, incremental=True)
    assert not any("signature" in entry for entry in json.loads(path.read_text())["images"])
    assert sorted(tmp_path.iterdir()) == [path]
    scenes = [scene for scene in DEMO_SCENES if scene.name != "traffic-001"]
    scenes.append(office_scene(3))
    expected = _rankings(RetrievalSystem.from_pictures(scenes))
    assert _rankings(RetrievalSystem.from_file(path)) == expected


def test_compaction_of_the_durable_fixture(tmp_path):
    path = _copy("demo.shards", tmp_path)
    database = load_database_from(path, durable=True)
    with DurableShardedStore(database, path) as store:
        assert store.pending_records == 2
        store.compact()
        assert store.pending_records == 0
    manifest = json.loads((path / MANIFEST_NAME).read_text())
    assert "signatures" not in manifest
    expected = _rankings(RetrievalSystem.from_pictures(DURABLE_SCENES))
    assert _rankings(RetrievalSystem.from_file(path)) == expected
