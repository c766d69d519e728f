#!/usr/bin/env python3
"""Where a database load spends its time and its memory.

Builds the profile benchmark's ``topk-unique`` corpus of a seed with
:mod:`repro.datasets` -- 1,000 scenes of 8 objects drawn from 64 labels,
saved as a v1 JSON database, the benchmark's file byte for byte (the tool
does not import the benchmark; ``tests/test_load_profile.py`` checks that
the two recipes agree) -- and reports, for ``RetrievalSystem.from_file`` on
that file:

* **Stages** -- ms per load of each load stage, run one after another with
  the cyclic collector off: JSON decode (the streamed walk of
  ``load_database``, each entry kept rather than stored), picture decode,
  re-encode, compare, postings; then ``from_file`` end to end.  Medians
  over three rounds of seven loads.
* **Collector** -- the collector's time (``gc.callbacks``) inside seven
  back-to-back ``from_file`` calls, each made while the previous system is
  still alive, as the benchmark's seven set-ups are; and how many
  collector-tracked objects one load leaves, by the generation they sit in.
* **Memory** -- tracemalloc's retained KiB per 1,000 records by allocation
  site (what one loaded system keeps), and the peak a load reaches above
  its starting point.
* **VmRSS** -- the resident set of a fresh interpreter after seven
  back-to-back ``from_file`` calls, with its anonymous (``RssAnon``: the
  heap) and file-backed (``RssFile``: mapped code and libraries) parts
  (Linux only; the benchmark's ``rss_mb`` is VmRSS read the same way after
  its seven set-ups).

Every run also writes these figures to
``benchmarks/results/load_profile-seed<N>.json`` (keys in :func:`main`);
``benchmarks/baselines/BENCH_load_seed0.json`` is a committed full run.

Standard library only; runs against the installed package or a
``PYTHONPATH=src`` checkout.  ``--smoke`` shrinks everything so the tool
runs in seconds; it checks that the tool runs, not how fast.

Usage::

    python tools/load_profile.py [--seed S] [--smoke]
"""

from __future__ import annotations

import argparse
import gc
import json
import linecache
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parents[1]
if (REPO_ROOT / "src" / "repro").is_dir():  # checkout fallback; no-op when installed
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.construct import encode_picture  # noqa: E402
from repro.datasets.synthetic import SceneParameters, random_pictures  # noqa: E402
from repro.iconic.picture import SymbolicPicture  # noqa: E402
from repro.index import storage  # noqa: E402
from repro.index.inverted import InvertedSymbolIndex  # noqa: E402
from repro.retrieval.system import RetrievalSystem  # noqa: E402

#: Objects per scene, label-pool size and scenes of the ``topk-unique``
#: corpus (``tests/test_load_profile.py`` pins them to the benchmark's).
OBJECTS = 8
LABELS = 64
IMAGES = 1000
#: Rounds of stage timings, loads per round (and back-to-back loads behind
#: the collector and VmRSS figures: the benchmark's seven set-ups), and
#: allocation sites listed.
ROUNDS = 3
LOADS = 7
SITES = 12
#: ``(images, rounds, loads, sites)`` under ``--smoke``.
SMOKE = (60, 1, 2, 5)
#: Where each run writes its JSON document.
RESULTS = REPO_ROOT / "benchmarks" / "results"

#: The resident-set lines of ``/proc/self/status`` the VmRSS figure prints.
RSS_FIELDS = ("VmRSS", "RssAnon", "RssFile")

#: Run in a fresh interpreter: ``argv[1]`` is the corpus, ``argv[2]`` the
#: number of back-to-back loads, ``argv[3:]`` the status fields; prints
#: ``field KiB`` per field, or nothing off Linux.
_RSS_CHILD = """
import sys
from repro.retrieval.system import RetrievalSystem
system = None
for _ in range(int(sys.argv[2])):
    system = RetrievalSystem.from_file(sys.argv[1])
try:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            field, _, value = line.partition(":")
            if field in sys.argv[3:]:
                print(field, value.split()[0])
except OSError:
    pass
"""


def build_corpus(images: int, seed: int, directory: Path) -> Path:
    """Generate and save the seeded corpus; returns the JSON database path."""
    rng = random.Random(f"topk-unique:{seed}")
    parameters = SceneParameters(
        object_count=OBJECTS,
        labels=tuple(f"c{index:04d}" for index in range(LABELS)),
        label_choice="random",
    )
    corpus = random_pictures(images, seed=rng, parameters=parameters, name_prefix="img")
    return RetrievalSystem.from_pictures(corpus).save(directory / "corpus.json")


def stage_times(path: Path) -> Dict[str, float]:
    """One load split into its stages, collector off; seconds per stage."""
    times: Dict[str, float] = {}
    clock = time.perf_counter

    def timed(stage: str, work: Callable[[], object]) -> object:
        start = clock()
        result = work()
        times[stage] = clock() - start
        return result

    was_enabled = gc.isenabled()
    gc.disable()
    try:

        def decode() -> List[dict]:
            # load_database's own read and walk, each entry kept, not stored.
            entries: List[dict] = []
            store = storage.image_entry_to_record
            storage.image_entry_to_record = lambda database, entry: entries.append(entry)
            try:
                storage.load_database(path)
            finally:
                storage.image_entry_to_record = store
            return entries

        entries = timed("JSON decode", decode)
        pictures = timed(
            "picture decode",
            lambda: [SymbolicPicture.from_dict(entry["picture"]) for entry in entries],
        )
        bestrings = timed("re-encode", lambda: [encode_picture(picture) for picture in pictures])
        timed(
            "compare",
            lambda: [
                bestring.to_dict() != entry["bestring"]
                for bestring, entry in zip(bestrings, entries)
            ],
        )

        def postings() -> InvertedSymbolIndex:
            index = InvertedSymbolIndex()
            for entry, picture in zip(entries, pictures):
                index.update_picture(entry["image_id"], picture)
            return index

        timed("postings", postings)
        del entries, pictures, bestrings
        timed("from_file", lambda: RetrievalSystem.from_file(path))
    finally:
        if was_enabled:
            gc.enable()
    return times


def collector_time(path: Path, loads: int) -> Dict[str, Any]:
    """The collector's work inside ``loads`` back-to-back ``from_file`` calls."""
    pauses: List[float] = []
    generations: Dict[int, int] = {}
    started: List[float] = []

    def callback(phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            started.append(time.perf_counter())
        elif started:
            pauses.append(time.perf_counter() - started.pop())
            generation = info["generation"]
            generations[generation] = generations.get(generation, 0) + 1

    gc.collect()
    gc.callbacks.append(callback)
    try:
        system = None
        for _ in range(loads):
            system = RetrievalSystem.from_file(path)
        del system
    finally:
        gc.callbacks.remove(callback)
    return {
        "ms_per_load": sum(pauses) * 1000.0 / loads,
        "collections": len(pauses),
        "full": generations.get(2, 0),
    }


def tracked_objects(path: Path) -> List[int]:
    """Collector-tracked objects one ``from_file`` leaves, per generation.

    The collector runs a full collection first, so what the count finds in
    a generation is what the load left there (and is still alive).
    """
    gc.collect()
    before = [len(gc.get_objects(generation)) for generation in range(3)]
    system = RetrievalSystem.from_file(path)
    after = [len(gc.get_objects(generation)) for generation in range(3)]
    del system
    return [late - early for early, late in zip(before, after)]


def retained_memory(path: Path, images: int, sites: int) -> Dict[str, Any]:
    """Print what one loaded system keeps, by allocation site, and the load's peak.

    Returns:
        The same figures per 1,000 records: ``kib`` and ``allocations``
        kept in total, the ``sites`` that keep the most, and ``peak_kib``.
    """
    per_thousand = 1000.0 / images
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        start, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        system = RetrievalSystem.from_file(path)
        _, peak = tracemalloc.get_traced_memory()
        gc.collect()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    ignored = (tracemalloc.Filter(False, tracemalloc.__file__),)
    differences = after.filter_traces(ignored).compare_to(before.filter_traces(ignored), "lineno")
    kept = [difference for difference in differences if difference.size_diff > 0]
    total = sum(difference.size_diff for difference in differences)
    count = sum(difference.count_diff for difference in differences)
    print(f"\nretained per 1,000 records ({len(system)} loaded):")
    print(f"  {'KiB':>8}  {'allocs':>8}  site")
    listed = []
    for difference in kept[:sites]:
        frame = difference.traceback[0]
        listed.append(
            {
                "site": f"{_short_path(frame.filename)}:{frame.lineno}",
                "source": linecache.getline(frame.filename, frame.lineno).strip(),
                "kib": round(difference.size_diff * per_thousand / 1024, 1),
                "allocations": round(difference.count_diff * per_thousand),
            }
        )
    for site in listed:
        print(
            f"  {site['kib']:8.0f}  {site['allocations']:8.0f}  "
            f"{site['site']}  {site['source'][:60]}"
        )
    memory = {
        "kib": round(total * per_thousand / 1024, 1),
        "allocations": round(count * per_thousand),
        "sites": listed,
        "peak_kib": round((peak - start) * per_thousand / 1024, 1),
    }
    print(f"  {memory['kib']:8.0f}  {memory['allocations']:8.0f}  total")
    print(f"peak above the start of the load: {memory['peak_kib']:.0f} KiB")
    return memory


def _short_path(filename: str) -> str:
    """``repro/...`` for the package's files, the last two parts otherwise."""
    marker = os.sep + "repro" + os.sep
    if marker in filename:
        return "repro" + os.sep + filename.split(marker, 1)[1]
    return os.path.join(*Path(filename).parts[-2:])


def fresh_rss(path: Path, loads: int) -> Dict[str, float]:
    """VmRSS of a fresh interpreter after ``loads`` loads, with its parts, in MiB.

    Empty off Linux.
    """
    environment = dict(os.environ)
    source = REPO_ROOT / "src"
    if (source / "repro").is_dir():
        existing = environment.get("PYTHONPATH")
        environment["PYTHONPATH"] = f"{source}{os.pathsep}{existing}" if existing else str(source)
    completed = subprocess.run(
        [sys.executable, "-c", _RSS_CHILD, str(path), str(loads), *RSS_FIELDS],
        env=environment,
        capture_output=True,
        text=True,
        check=True,
    )
    kib = dict(line.split() for line in completed.stdout.splitlines())
    return {field: round(int(value) / 1024, 2) for field, value in kib.items()}


def _describe_rss(rss: Dict[str, float]) -> str:
    if "VmRSS" not in rss:
        return "unavailable"
    parts = ", ".join(f"{field} {rss[field]:.2f}" for field in RSS_FIELDS[1:] if field in rss)
    return f"{rss['VmRSS']:.2f} MiB ({parts})"


def main(argv: Optional[List[str]] = None) -> int:
    """Profile one load; print the figures and write them as JSON.

    The document's keys: ``seed``, ``smoke``, ``corpus`` (``images``,
    ``objects``, ``labels``, ``bytes``), ``stages_ms`` (median ms per stage),
    ``collector`` (``ms_per_load``, ``collections``, ``full``),
    ``tracked_objects`` (per generation), ``retained`` (KiB and
    allocations per 1,000 records, in total and by ``sites``, and the
    ``peak_kib`` above the load's start), and ``vmrss_mib`` (empty off
    Linux).
    """
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0, help="corpus seed")
    parser.add_argument("--smoke", action="store_true", help="a tiny, quick run")
    args = parser.parse_args(argv)
    images, rounds, loads, sites = SMOKE if args.smoke else (IMAGES, ROUNDS, LOADS, SITES)
    with tempfile.TemporaryDirectory(prefix="repro-load-profile-") as scratch:
        path = build_corpus(images, args.seed, Path(scratch))
        size = path.stat().st_size
        print(
            f"corpus: {images} scenes x {OBJECTS} objects, {LABELS} labels, "
            f"seed {args.seed}, {size / 1e6:.2f} MB JSON"
        )
        samples: Dict[str, List[float]] = {}
        for _ in range(rounds):
            for _ in range(loads):
                for stage, seconds in stage_times(path).items():
                    samples.setdefault(stage, []).append(seconds)
        stages = {
            stage: round(statistics.median(values) * 1000.0, 2) for stage, values in samples.items()
        }
        print(f"\nms per load, collector off (median of {rounds}x{loads}):")
        for stage, milliseconds in stages.items():
            print(f"  {stage:<16}{milliseconds:8.1f}")
        collector = collector_time(path, loads)
        print(
            f"collector inside {loads} back-to-back from_file calls: "
            f"{collector['ms_per_load']:.1f} ms per load, "
            f"{collector['collections']} collections ({collector['full']} full)"
        )
        tracked = tracked_objects(path)
        young, middle, old = tracked
        print(
            f"collector-tracked objects one load leaves: {young + middle + old} "
            f"(generation 0: {young}, 1: {middle}, 2: {old})"
        )
        memory = retained_memory(path, images, sites)
        rss = fresh_rss(path, loads)
        print(f"VmRSS of a fresh interpreter after {loads} loads: {_describe_rss(rss)}")
    document = {
        "seed": args.seed,
        "smoke": args.smoke,
        "corpus": {"images": images, "objects": OBJECTS, "labels": LABELS, "bytes": size},
        "stages_ms": stages,
        "collector": collector,
        "tracked_objects": tracked,
        "retained": memory,
        "vmrss_mib": rss,
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    target = RESULTS / f"load_profile-seed{args.seed}.json"
    target.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
