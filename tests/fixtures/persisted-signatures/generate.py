"""Write the databases in this directory with a signature-persisting release.

These fixtures pin the on-disk formats written while every image entry still
carried a persisted shortlist ``signature`` payload (and a shard manifest its
``signatures`` flag).  Newer code ignores those payloads and derives
signatures from the validated BE-string instead, so the fixtures must be
regenerated only with the source tree of such a release, never with the
current one (commit ``22c8e22`` is the last that persisted them)::

    mkdir old && git archive 22c8e22 | tar -x -C old
    PYTHONPATH=old/src python tests/fixtures/persisted-signatures/generate.py

Contents, all built from the nine ``repro demo`` scenes:

* ``demo.json`` -- the v1 JSON file ``repro demo`` writes;
* ``demo.shards/`` -- a durable sharded directory (4 shards) with two
  pending write-ahead log records past its snapshot: an upsert of
  ``traffic-003`` and a delete of ``landscape-002``.
"""

import shutil
from pathlib import Path

from repro.cli import main
from repro.datasets.scenes import traffic_scene
from repro.index.backends import DurableShardedStore, load_database_from

HERE = Path(__file__).resolve().parent


def generate() -> None:
    """Rewrite ``demo.json`` and ``demo.shards/`` here."""
    json_path = HERE / "demo.json"
    shards_path = HERE / "demo.shards"
    json_path.unlink(missing_ok=True)
    shutil.rmtree(shards_path, ignore_errors=True)
    assert main(["demo", "--output", str(json_path)]) == 0
    assert main(["convert", str(json_path), str(shards_path), "--shards", "4"]) == 0
    database = load_database_from(shards_path)
    with DurableShardedStore(database, shards_path) as store:
        store.log_upsert(database.add_picture(traffic_scene(3)))
        database.remove_picture("landscape-002")
        store.log_delete("landscape-002")


if __name__ == "__main__":
    generate()
