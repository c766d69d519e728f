#!/usr/bin/env python3
"""End-to-end smoke test of the ``repro serve`` daemon (the CI service job).

Boots a real ``repro serve`` subprocess against a freshly built demo
database, drives every endpoint with the stdlib client -- search, batch,
insert, delete, ``/reload``, ``/healthz``, ``/stats`` -- and fails (non-zero
exit) on any non-2xx response or any ranking that is not byte-identical to
the in-process engine executing the same query, or, after ``/reload``, to
the live engine's ranking before it.  Searches go out both as keywords and
as builder-made ``QuerySpec`` values of every kind, which the client sends
in their ``to_wire()`` form.  A scene whose label holds whitespace
must be refused with a 400, and the ``/reload`` after it must still load
every image.  Standard library only; runs against the
installed package or a ``PYTHONPATH=src`` checkout.

Usage::

    python tools/service_smoke.py [--keep-temp]
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
if (REPO_ROOT / "src" / "repro").is_dir():  # checkout fallback; no-op when installed
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.similarity import Normalization, SimilarityPolicy  # noqa: E402
from repro.datasets.scenes import landscape_scene, office_scene, traffic_scene  # noqa: E402
from repro.retrieval.system import RetrievalSystem  # noqa: E402
from repro.service.client import ServiceClient, ServiceError  # noqa: E402

_CHECKS: list = []


def check(name: str, condition: bool, detail: str = "") -> None:
    """Record one smoke assertion and echo its outcome."""
    _CHECKS.append((name, condition))
    status = "ok" if condition else "FAIL"
    suffix = f" -- {detail}" if detail and not condition else ""
    print(f"[{status}] {name}{suffix}", flush=True)


def pictures():
    return (
        [office_scene(variant) for variant in range(3)]
        + [traffic_scene(variant) for variant in range(3)]
        + [landscape_scene(variant) for variant in range(3)]
    )


def expected_dicts(reference: RetrievalSystem, scene=None, **kwargs):
    """The in-process ranking the daemon must reproduce byte for byte."""
    builder = reference.query(scene) if scene is not None else reference.query()
    if kwargs.get("identifiers"):
        builder.partial(kwargs["identifiers"])
    builder.invariant(kwargs.get("invariant", False))
    if kwargs.get("where"):
        builder.where(kwargs["where"])
    builder.limit(kwargs.get("limit", 10))
    builder.min_score(kwargs.get("min_score", 0.0))
    return builder.execute().to_dicts()


def subprocess_environment() -> dict:
    """The child environment: prepend the checkout's src/ when present."""
    environment = dict(os.environ)
    source = REPO_ROOT / "src"
    if (source / "repro").is_dir():
        existing = environment.get("PYTHONPATH")
        environment["PYTHONPATH"] = (
            f"{source}{os.pathsep}{existing}" if existing else str(source)
        )
    return environment


def start_server(database: Path) -> "tuple[subprocess.Popen, ServiceClient]":
    """Launch ``repro serve`` on an ephemeral port and wait for health."""
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", str(database), "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=subprocess_environment(),
    )
    assert process.stdout is not None
    line = process.stdout.readline()
    match = re.search(r"http://127\.0\.0\.1:(\d+)", line)
    if not match:
        process.kill()
        stderr = process.stderr.read() if process.stderr is not None else ""
        raise RuntimeError(f"serve did not report its address: {line!r} {stderr.strip()}")
    client = ServiceClient(port=int(match.group(1)))
    client.wait_until_healthy(timeout=15)
    return process, client


def drive(client: ServiceClient, reference: RetrievalSystem, database: Path) -> None:
    """Exercise every endpoint, comparing against the in-process engine."""
    scenes = pictures()

    body = client.health()
    check("healthz answers ok", body.get("status") == "ok" and body.get("images") == len(scenes))

    # --- /search across the whole QuerySpec surface -------------------
    probes = [
        ("exact search", dict(scene=scenes[0])),
        ("invariant search", dict(scene=scenes[3], invariant=True)),
        ("partial search", dict(scene=scenes[0], identifiers=scenes[0].identifiers[:2])),
        ("predicate search", dict(where="monitor above desk")),
        ("combined search", dict(scene=scenes[0], where="monitor above desk")),
        ("min-score cut", dict(scene=scenes[1], min_score=0.3, limit=None)),
    ]
    for name, kwargs in probes:
        served = client.search(**kwargs)
        expected = expected_dicts(reference, **kwargs)
        check(f"{name} matches the in-process engine", served["results"] == expected)

    # --- builder-made specs, sent as QuerySpec.to_wire() ---------------
    specs = [
        ("exact", reference.query(scenes[0]).spec()),
        ("invariant", reference.query(scenes[3]).invariant().spec()),
        ("partial", reference.query(scenes[0]).partial(scenes[0].identifiers[:2]).spec()),
        ("crisp where", reference.query().where("monitor above desk").limit(None).spec()),
        (
            "graded where",
            reference.query(scenes[0])
            .where("monitor above desk", fuzzy=True)
            .compose("sum", 0.4)
            .limit(None)
            .spec(),
        ),
        ("min_shared_labels(2)", reference.query(scenes[1]).min_shared_labels(2).spec()),
        (
            "custom policy",
            reference.query(scenes[1])
            .policy(SimilarityPolicy(Normalization.DICE, count_boundaries_only=True))
            .spec(),
        ),
    ]
    for name, spec in specs:
        served = client.search(spec)["results"]
        expected = reference.execute(spec).to_dicts()
        check(f"{name} spec matches the in-process engine", served == expected)
    served = client.batch([spec for _, spec in specs[:2]])["results"]
    expected = [reference.execute(spec).to_dicts() for _, spec in specs[:2]]
    check("two specs in one batch match the in-process engine", served == expected)

    paged = client.search(scene=scenes[0], limit=None, page=1, page_size=2)
    full = expected_dicts(reference, scene=scenes[0], limit=None)
    check(
        "pagination windows the full ranking",
        paged["results"] == full[:2] and paged["total"] == len(full),
    )

    # --- /batch -------------------------------------------------------
    batch_scenes = [scenes[0], scenes[4], scenes[0]]
    served = client.batch(batch_scenes, workers=2)
    expected = [expected_dicts(reference, scene=scene) for scene in batch_scenes]
    check("batch matches per-query serial rankings", served["results"] == expected)

    # --- mutations with write-back persistence ------------------------
    fresh = office_scene(9).renamed("smoke-fresh")
    created = client.images.add(fresh)
    reference.add_picture(fresh)
    check("insert returns the stored id", created.get("image_id") == "smoke-fresh")
    served = client.search(scene=fresh, limit=3)
    check(
        "post-insert rankings match (cache invalidated)",
        served["results"] == expected_dicts(reference, scene=fresh, limit=3),
    )
    reloaded = RetrievalSystem.from_file(database)
    check("insert persisted to disk", "smoke-fresh" in reloaded.image_ids)

    removed = client.images.delete("smoke-fresh")
    reference.remove_picture("smoke-fresh")
    check("delete returns the removed id", removed.get("removed") == "smoke-fresh")
    reloaded = RetrievalSystem.from_file(database)
    check("delete persisted to disk", "smoke-fresh" not in reloaded.image_ids)

    try:
        client.images.delete("smoke-fresh")
        check("deleting a missing image is a 404", False)
    except ServiceError as error:
        check("deleting a missing image is a 404", error.status == 404)

    served = client.search(scene=scenes[0])
    check(
        "post-delete rankings match the quiesced engine",
        served["results"] == expected_dicts(reference, scene=scenes[0]),
    )

    # --- a label with whitespace is refused before anything persists --
    spaced = office_scene(8).renamed("smoke-spaced").to_dict()
    spaced["icons"][0]["label"] = "coffee mug"
    try:
        client.images.add(spaced)
        check("inserting a whitespace label is a 400", False)
    except ServiceError as error:
        check("inserting a whitespace label is a 400", error.status == 400)

    # --- /reload: a fresh engine loaded beside the live one -----------
    before = [client.search(**kwargs)["results"] for _, kwargs in probes]
    body = client.admin.reload()
    check("reload loads every stored image", body.get("images") == len(scenes))
    after = [client.search(**kwargs)["results"] for _, kwargs in probes]
    check("every probe ranks byte-identically after the reload", after == before)
    check("stats counts one reload", client.stats().get("reloads") == 1)

    # --- /stats -------------------------------------------------------
    stats = client.stats()
    check(
        "stats reports request counts and latency percentiles",
        stats["requests"].get("POST /search", 0) >= len(probes)
        and stats["latency_ms"]["count"] > 0
        and stats["latency_ms"]["p50"] <= stats["latency_ms"]["p95"]
        and 0.0 <= stats["cache"]["hit_rate"] <= 1.0,
    )

    # --- repro ping (the CLI client path) -----------------------------
    completed = subprocess.run(
        [sys.executable, "-m", "repro.cli", "ping", client.url],
        capture_output=True,
        text=True,
        check=False,
        env=subprocess_environment(),
    )
    check(
        "repro ping exits 0 against the live daemon",
        completed.returncode == 0 and "round-trip" in completed.stdout,
        detail=completed.stderr.strip(),
    )


def main() -> int:
    """Run the smoke sequence; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--keep-temp", action="store_true", help="keep the temp database")
    arguments = parser.parse_args()

    scratch = Path(tempfile.mkdtemp(prefix="repro-service-smoke-"))
    database = scratch / "smoke-db.json"
    system = RetrievalSystem.from_pictures(pictures())
    system.save(database)
    reference = RetrievalSystem.from_file(database)
    print(f"database: {database} ({len(system)} images)", flush=True)

    process = None
    try:
        process, client = start_server(database)
        print(f"daemon: pid {process.pid} at {client.url}", flush=True)
        drive(client, reference, database)
    except (ServiceError, RuntimeError, OSError) as error:
        check("smoke sequence completed", False, detail=str(error))
    finally:
        if process is not None:
            process.terminate()
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()
            if process.stderr is not None:
                stderr = process.stderr.read().strip()
                if stderr:
                    print(f"--- daemon stderr ---\n{stderr}", flush=True)
        if not arguments.keep_temp:
            for path in sorted(scratch.rglob("*"), reverse=True):
                path.unlink() if path.is_file() else path.rmdir()
            scratch.rmdir()

    failed = [name for name, passed in _CHECKS if not passed]
    print(
        f"\nservice smoke: {len(_CHECKS) - len(failed)}/{len(_CHECKS)} checks passed",
        flush=True,
    )
    if failed:
        print("failed: " + "; ".join(failed), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
