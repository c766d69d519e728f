"""E15: the bit-parallel LCS kernel and anytime branch-and-bound top-k.

PR 6 added two ways to spend less time inside the paper's O(mn) modified-LCS
dynamic program (see ``docs/kernels.md``):

* ``kernel="bitparallel"`` — :func:`repro.core.lcskernel.be_lcs_length_bitparallel`
  evaluates a whole DP row in O(1) bigint operations instead of O(n) Python
  cells,
* ``strategy="anytime"`` — the engine scores shortlist survivors in
  descending order of their signature score bound and stops as soon as the
  k-th confirmed score dominates every unvisited bound.

This experiment measures, at 2k and 10k synthetic 16-object images
(smoke: 60/120):

* the serial speedup of the bit-parallel kernel over the two-row reference
  DP on the same axis-string pairs — floor **5x** at the largest size,
* the fraction of admitted candidates an anytime ``limit(10)`` query
  actually scores — ceiling **10%** at 10k images.  Each query scene has
  twelve drop-one-object near-duplicates stored (the realistic top-k
  regime: the query has close matches in the corpus), so the k-th best
  score is high and the signature bounds can separate the near-duplicates
  from the random-scene tail,
* ranking byte-equivalence: every kernel × strategy combination must match
  the reference/exhaustive ranking across exact, invariant, partial and
  predicate-combined query modes (asserted at every size, smoke included).

Results are persisted as ``benchmarks/results/BENCH_E15_kernel_topk_<size>.json``
(the CI bench-smoke job uploads them as artifacts); full-run snapshots live
in ``benchmarks/baselines/``.
"""

import time

import pytest

from benchmarks.conftest import SMOKE, format_table, smoke_scaled
from repro.core.lcs import be_lcs_length
from repro.core.lcskernel import be_lcs_length_bitparallel
from repro.datasets.synthetic import SceneParameters, random_pictures
from repro.iconic.picture import SymbolicPicture
from repro.index.execution import ExecutionOptions
from repro.retrieval.system import RetrievalSystem

DATABASE_SIZES = smoke_scaled((2000, 10000), (60, 120))
#: Queries per timing/fraction pass.
QUERY_COUNT = smoke_scaled(5, 3)
#: Axis-string pairs per kernel timing pass.
PAIR_COUNT = smoke_scaled(300, 40)
#: Minimum serial speedup of the bit-parallel kernel at the largest size.
REQUIRED_KERNEL_SPEEDUP = 5.0
#: Maximum fraction of admitted candidates an anytime top-10 query may score
#: at the largest size.
MAX_EXAMINED_FRACTION = 0.10
#: Stored drop-one-object near-duplicates per query scene.
NEAR_DUPLICATES = 12
#: Images in the (separate, smaller) ranking-equivalence corpus — invariant
#: mode multiplies scoring cost by the six transformations, so the
#: byte-equivalence sweep runs on its own corpus at every mode.
EQUIVALENCE_SIZE = smoke_scaled(300, 50)

#: 16-object scenes: long enough axis strings that one bigint row operation
#: replaces a substantial number of Python DP cells.
_PARAMETERS = SceneParameters(
    object_count=16,
    alignment_probability=0.3,
    labels=tuple(f"class{index:02d}" for index in range(48)),
    label_choice="random",
)

_ANYTIME = ExecutionOptions(strategy="anytime", cache=False)
_CONFIGS = [
    (
        f"{kernel}/{strategy}",
        ExecutionOptions(kernel=kernel, strategy=strategy, cache=False),
    )
    for kernel, strategy in (
        ("reference", "exhaustive"),
        ("bitparallel", "exhaustive"),
        ("reference", "anytime"),
        ("bitparallel", "anytime"),
    )
]


def _drop_variant(picture: SymbolicPicture, drop: int, name: str) -> SymbolicPicture:
    """``picture`` with its ``drop``-th object removed (a near-duplicate)."""
    objects = [
        (icon.label, icon.mbr) for index, icon in enumerate(picture) if index != drop
    ]
    return SymbolicPicture.build(picture.width, picture.height, objects, name=name)


def _build_system(size: int) -> RetrievalSystem:
    pictures = random_pictures(size, seed=29, parameters=_PARAMETERS, name_prefix="img")
    near_duplicates = [
        _drop_variant(picture, drop, f"near-{index:02d}-{drop:02d}")
        for index, picture in enumerate(pictures[:QUERY_COUNT])
        for drop in range(NEAR_DUPLICATES)
    ]
    return RetrievalSystem.from_pictures(pictures + near_duplicates)


def _axis_pairs(system: RetrievalSystem, count: int):
    """Query/database axis-string pairs sampled from the stored corpus."""
    records = list(system._engine.database)[: count + 1]
    encoded = [record.bestring for record in records]
    pairs = []
    for index in range(count):
        query, database = encoded[index], encoded[(index + 1) % len(encoded)]
        pairs.append((query.x, database.x))
        pairs.append((query.y, database.y))
    return pairs


def _time_lengths(length_function, pairs):
    started = time.perf_counter()
    lengths = [length_function(query, database) for query, database in pairs]
    return time.perf_counter() - started, lengths


def _ranking(results):
    return [
        (r.rank, r.image_id, r.score, r.similarity.transformation.value)
        for r in results
    ]


@pytest.fixture(scope="module", params=DATABASE_SIZES)
def sized_system(request):
    return request.param, _build_system(request.param)


@pytest.mark.benchmark(group="E15-kernel-topk")
def test_kernel_speedup_and_anytime_fraction(
    sized_system, write_report, write_json_report, benchmark
):
    size, system = sized_system

    # --- kernel: serial length-only timing on identical inputs ------------
    pairs = _axis_pairs(system, PAIR_COUNT)
    reference_seconds, reference_lengths = _time_lengths(be_lcs_length, pairs)
    kernel_seconds, kernel_lengths = _time_lengths(be_lcs_length_bitparallel, pairs)
    assert kernel_lengths == reference_lengths  # exact agreement, every pair
    speedup = (
        reference_seconds / kernel_seconds if kernel_seconds else float("inf")
    )

    # --- anytime: examined fraction of a top-10 query ---------------------
    queries = [
        system._engine.database.get(f"img-{index:04d}").picture
        for index in range(QUERY_COUNT)
    ]
    examined_fractions = []
    for picture in queries:
        results = system.query(picture).limit(10).execution(_ANYTIME).execute()
        trace = results.trace
        assert trace.strategy == "anytime"
        assert trace.candidates_examined + trace.bound_skipped == trace.shortlisted
        examined_fractions.append(
            trace.candidates_examined / trace.shortlisted if trace.shortlisted else 0.0
        )
    mean_fraction = sum(examined_fractions) / len(examined_fractions)
    worst_fraction = max(examined_fractions)

    rows = [
        ["reference DP", f"{reference_seconds * 1000:.1f}", "1.0x"],
        ["bit-parallel", f"{kernel_seconds * 1000:.1f}", f"{speedup:.1f}x"],
    ]
    write_report(
        f"E15_kernel_topk_{size}",
        [
            f"E15 -- bit-parallel kernel and anytime top-k at {size} images "
            f"({len(pairs)} axis pairs, {QUERY_COUNT} top-10 queries, "
            f"{NEAR_DUPLICATES} stored near-duplicates per query)",
            "",
            *format_table(["kernel", "total ms", "speedup"], rows),
            "",
            f"kernel speedup floor: {REQUIRED_KERNEL_SPEEDUP}x at the largest size",
            f"anytime examined fraction: mean {mean_fraction:.3f}, "
            f"worst {worst_fraction:.3f} "
            f"(ceiling {MAX_EXAMINED_FRACTION} at the largest size)",
        ],
    )
    write_json_report(
        f"E15_kernel_topk_{size}",
        {
            "database_size": size,
            "axis_pairs": len(pairs),
            "kernel": {
                "reference_seconds": round(reference_seconds, 6),
                "bitparallel_seconds": round(kernel_seconds, 6),
                "speedup": round(speedup, 2),
                "required_speedup": REQUIRED_KERNEL_SPEEDUP,
            },
            "anytime": {
                "queries": QUERY_COUNT,
                "limit": 10,
                "near_duplicates_per_query": NEAR_DUPLICATES,
                "examined_fraction_mean": round(mean_fraction, 4),
                "examined_fraction_worst": round(worst_fraction, 4),
                "max_examined_fraction": MAX_EXAMINED_FRACTION,
            },
        },
    )

    if not SMOKE and size == max(DATABASE_SIZES):
        assert speedup >= REQUIRED_KERNEL_SPEEDUP, (
            f"bit-parallel kernel only {speedup:.1f}x faster than the "
            f"reference DP (floor: {REQUIRED_KERNEL_SPEEDUP}x)"
        )
        assert worst_fraction <= MAX_EXAMINED_FRACTION, (
            f"anytime top-10 examined {worst_fraction:.1%} of admitted "
            f"candidates (ceiling: {MAX_EXAMINED_FRACTION:.0%})"
        )

    # pytest-benchmark timing: one bit-parallel pass over the pairs.
    benchmark.pedantic(
        lambda: [be_lcs_length_bitparallel(q, d) for q, d in pairs[:20]], rounds=3
    )


@pytest.mark.benchmark(group="E15-kernel-topk")
def test_rankings_byte_identical_across_modes(write_report, benchmark):
    """Every kernel × strategy config matches reference/exhaustive exactly."""
    system = _build_system(EQUIVALENCE_SIZE)
    queries = [
        system._engine.database.get(f"img-{index:04d}").picture for index in range(2)
    ]
    labels = sorted(queries[0].labels)
    predicate = f"{labels[0]} left-of {labels[1]}"
    modes = {
        "exact": lambda picture: system.query(picture).limit(10),
        "invariant": lambda picture: system.query(picture).invariant().limit(10),
        "partial": lambda picture: system.query(picture)
        .partial([icon.identifier for icon in list(picture)[:4]])
        .limit(10),
        "predicate": lambda picture: system.query(picture).where(predicate).limit(10),
    }
    checked = 0
    for mode, build in modes.items():
        for picture in queries:
            expected = None
            for label, config in _CONFIGS:
                ranking = _ranking(build(picture).execution(config).execute())
                if expected is None:
                    expected = ranking
                else:
                    assert ranking == expected, f"{mode} diverged under {label}"
                    checked += 1
    write_report(
        f"E15_equivalence_{EQUIVALENCE_SIZE}",
        [
            f"E15 -- ranking byte-equivalence at {EQUIVALENCE_SIZE} images",
            "",
            f"modes: {', '.join(modes)} x configs: "
            f"{', '.join(label for label, _ in _CONFIGS)}",
            f"{checked} config rankings compared against reference/exhaustive: "
            "all byte-identical",
        ],
    )
    picture = queries[0]
    benchmark.pedantic(
        lambda: system.query(picture).limit(10).execution(_CONFIGS[3][1]).execute(),
        rounds=3,
    )
