"""E14: the two-stage signature shortlist at retrieval scale.

The paper's retrieval loop pays an O(mn) LCS dynamic program per candidate;
the two-stage shortlist (:mod:`repro.index.shortlist`) rejects candidates
whose score upper bound cannot clear the query's ``min_score`` — stage 1 from
the inverted index's postings tally, stage 2 from each axis's boundary LCS —
so the dynamic program only runs on images that can actually appear in the
results.  Stage-1 rejections keep the name ``bitmap_rejected``.

This experiment measures, at 2k and 10k synthetic images (smoke: 60/120):

* ``unfiltered`` — ``shortlist=False``: every stored image is scored,
* ``filtered``   — the two-stage shortlist in front of the same scoring loop,

with the score cache off so both sides pay their true compute.  Acceptance
criteria (asserted at the largest size outside smoke mode):

* serial end-to-end speedup of the filtered pass is at least **5x**, and
* rankings are **byte-identical** to the unfiltered scan for every query —
  the shortlist's no-false-negative guarantee (rejection only below a sound
  score upper bound).

A strict-threshold pass over mirrored decoy images (same labels, reversed
layout) additionally proves the *relation* stage prunes what label overlap
alone cannot.
"""

import time

import pytest

from benchmarks.conftest import SMOKE, format_table, smoke_scaled
from repro.datasets.synthetic import SceneParameters, random_pictures
from repro.index.database import ImageDatabase
from repro.index.execution import ExecutionOptions
from repro.index.query import QueryEngine
from repro.index.spec import QuerySpec

DATABASE_SIZES = smoke_scaled((2000, 10000), (60, 120))
#: Queries per timing pass (each runs filtered and unfiltered).
QUERY_COUNT = smoke_scaled(6, 4)
#: Score threshold of the main timing pass.
MODERATE_MIN_SCORE = 0.35
#: Score threshold of the decoy pass exercising the relation stage.
STRICT_MIN_SCORE = 0.95
#: How many stored images get a mirrored decoy twin.
DECOY_COUNT = smoke_scaled(40, 10)
#: Minimum serial speedup of the filtered pass at the largest size.
REQUIRED_SPEEDUP = 5.0

_PARAMETERS = SceneParameters(
    object_count=8,
    alignment_probability=0.3,
    labels=tuple(f"class{index:02d}" for index in range(48)),
    label_choice="random",
)


def _build_engine(size: int) -> QueryEngine:
    database = ImageDatabase(name=f"bench-signature-{size}")
    pictures = random_pictures(size, seed=17, parameters=_PARAMETERS, name_prefix="img")
    database.add_pictures(pictures)
    # Mirrored decoys: identical label multisets, reversed x-arrangement.
    # Stage 1 (labels only) cannot tell them apart from their originals; the
    # boundary-LCS stage can.
    for index, picture in enumerate(pictures[:DECOY_COUNT]):
        database.add_picture(picture.reflect_y().renamed(f"decoy-{index:04d}"))
    return QueryEngine.build(database)


def _queries(engine: QueryEngine, minimum_score: float, shortlist: bool):
    pictures = [
        engine.database.get(f"img-{index:04d}").picture for index in range(QUERY_COUNT)
    ]
    return [
        QuerySpec(
            picture=picture,
            minimum_score=minimum_score,
            execution=ExecutionOptions(shortlist=shortlist, cache=False),
            limit=10,
        )
        for picture in pictures
    ]


def _run_serial(engine: QueryEngine, queries):
    started = time.perf_counter()
    rankings = [
        [
            (result.rank, result.image_id, result.score,
             result.similarity.transformation.value)
            for result in engine.execute_spec(query).results
        ]
        for query in queries
    ]
    return time.perf_counter() - started, rankings


@pytest.fixture(scope="module", params=DATABASE_SIZES)
def sized_engine(request):
    return request.param, _build_engine(request.param)


@pytest.mark.benchmark(group="E14-signature-shortlist")
def test_shortlist_speedup_report(sized_engine, write_report, write_json_report, benchmark):
    size, engine = sized_engine

    filtered_seconds, filtered_rankings = _run_serial(
        engine, _queries(engine, MODERATE_MIN_SCORE, shortlist=True)
    )
    unfiltered_seconds, unfiltered_rankings = _run_serial(
        engine, _queries(engine, MODERATE_MIN_SCORE, shortlist=False)
    )

    # The acceptance contract: pruning may never change a ranking.
    assert filtered_rankings == unfiltered_rankings

    engine.counters.reset()
    _, strict_rankings = _run_serial(
        engine, _queries(engine, STRICT_MIN_SCORE, shortlist=True)
    )
    statistics = engine.counters.shortlist
    # Stage 1 prunes the label-overlap tail; stage 2 prunes the mirrored
    # decoys, which share every label with their originals.
    assert statistics.bitmap_rejected > 0
    assert statistics.relation_rejected > 0
    # Every query still finds its own stored image at the strict threshold.
    for index, ranking in enumerate(strict_rankings):
        assert ranking and ranking[0][1] == f"img-{index:04d}"
        assert not any(image_id.startswith("decoy-") for _, image_id, _, _ in ranking)

    speedup = (
        unfiltered_seconds / filtered_seconds if filtered_seconds else float("inf")
    )
    database_size = len(engine.database)
    rows = [
        ["unfiltered", f"{unfiltered_seconds * 1000:.1f}", f"{database_size * len(filtered_rankings)}"],
        [
            "filtered",
            f"{filtered_seconds * 1000:.1f}",
            f"{statistics.admitted}",
        ],
    ]
    write_report(
        f"E14_signature_shortlist_{size}",
        [
            f"E14 -- two-stage signature shortlist at {database_size} images "
            f"({len(filtered_rankings)} serial queries, min_score={MODERATE_MIN_SCORE}, "
            "cache off)",
            "",
            *format_table(["pass", "total ms", "candidates scored*"], rows),
            "",
            f"serial speedup (unfiltered / filtered): {speedup:.1f}x "
            f"(floor: {REQUIRED_SPEEDUP}x at the largest size)",
            "rankings byte-identical across both passes for every query",
            "",
            f"strict pass (min_score={STRICT_MIN_SCORE}) over {DECOY_COUNT} mirrored decoys:",
            f"  bitmap-stage rejections:   {statistics.bitmap_rejected}",
            f"  relation-stage rejections: {statistics.relation_rejected}",
            f"  admitted and scored:       {statistics.admitted}",
            "",
            "*admitted counts are from the strict pass; the unfiltered row",
            " scores every stored image for every query by construction.",
        ],
    )
    write_json_report(
        f"E14_signature_shortlist_{size}",
        {
            "database_size": database_size,
            "queries": len(filtered_rankings),
            "moderate_min_score": MODERATE_MIN_SCORE,
            "strict_min_score": STRICT_MIN_SCORE,
            "unfiltered_seconds": round(unfiltered_seconds, 6),
            "filtered_seconds": round(filtered_seconds, 6),
            "speedup": round(speedup, 3),
            "strict_bitmap_rejected": statistics.bitmap_rejected,
            "strict_relation_rejected": statistics.relation_rejected,
            "strict_admitted": statistics.admitted,
        },
    )

    if not SMOKE and size == max(DATABASE_SIZES):
        assert speedup >= REQUIRED_SPEEDUP, (
            f"two-stage shortlist only {speedup:.1f}x faster than the "
            f"unfiltered scan (floor: {REQUIRED_SPEEDUP}x)"
        )

    # pytest-benchmark timing: one filtered query, steady state.
    query = _queries(engine, MODERATE_MIN_SCORE, shortlist=True)[0]
    benchmark.pedantic(lambda: engine.execute_spec(query), rounds=3)


@pytest.mark.benchmark(group="E14-signature-shortlist")
def test_shortlist_overhead_is_bounded_without_min_score(sized_engine, benchmark):
    """At ``min_score=0`` the shortlist takes its fast path: no bound math."""
    size, engine = sized_engine
    if size > min(DATABASE_SIZES):
        pytest.skip("fast-path overhead measured at the smallest size only")
    query = _queries(engine, 0.0, shortlist=True)[0]
    outcome = engine.shortlist(query)
    assert outcome.bitmap_rejected == 0
    assert outcome.relation_rejected == 0
    assert len(outcome.candidates) == outcome.inverted_candidates
    benchmark(lambda: engine.shortlist(query).candidates)
