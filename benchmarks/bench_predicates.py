"""E19: graded predicate scoring vs the crisp conjunction fast path.

PR 10 unified the boolean predicate bolt-on and the similarity path into one
graded scoring pipeline (see ``docs/predicates.md``): a ``where()`` clause now
parses a full boolean grammar (``not``/``or``/parens, ``[fuzzy]``/``[w=N]``
annotations) and evaluates to a satisfaction degree per image, while plain
crisp conjunctions keep the historical fraction-satisfied fast path
byte-identical.

This experiment measures, at 2k and 10k synthetic 8-object images
(smoke: 60/120):

* the overhead of the graded pipeline: the same conjunction strings run once
  through the crisp fast path and once with a ``[w=2]`` annotation (graded
  tree machinery, crisp leaves — so :func:`~repro.index.shortlist.
  tree_degree_bound` prunes through the identical label postings and both
  passes evaluate the identical image set) — ceiling **2x** at the largest
  size,
* the shortlist admit-rate of predicate queries: the fraction of stored
  images the label postings actually evaluate (the rest are settled as
  synthesised zero matches without touching their boundary ranks).  Pruning
  must stay engaged on the graded path — every weighted query must prune at
  least one image, to exactly the crisp query's evaluated set,
* the cost of the queries only the graded path can express — fuzzified
  conjunctions and ``not``/``or`` trees.  Their fail-open bounds admit every
  image by design (``docs/predicates.md``), which the traces assert,
* soundness at scale: the filtered graded ranking must equal a
  ``shortlist=False`` full scan, which prunes nothing — image ids, degrees
  and per-leaf degrees (asserted at every size, smoke included).

Results are persisted as ``benchmarks/results/BENCH_E19_predicates_<size>.json``
(the CI bench-smoke job uploads them as artifacts); full-run snapshots live
in ``benchmarks/baselines/``.
"""

import time

import pytest

from benchmarks.conftest import SMOKE, format_table, smoke_scaled
from repro.datasets.synthetic import SceneParameters, random_pictures
from repro.index.execution import ExecutionOptions
from repro.retrieval.system import RetrievalSystem

DATABASE_SIZES = smoke_scaled((2000, 10000), (60, 120))
#: Timing passes over each query set (summed; keeps the ratio stable).
REPEATS = smoke_scaled(3, 1)
#: Maximum graded/crisp wall-clock ratio at the largest size.
MAX_GRADED_OVERHEAD = 2.0

#: 8 objects drawn randomly from 48 labels: most images contain neither
#: label of a given predicate pair, so the label postings have plenty to
#: prune — the regime the admit-rate metric is about.
_PARAMETERS = SceneParameters(
    object_count=8,
    labels=tuple(f"class{index:02d}" for index in range(48)),
    label_choice="random",
)

#: Crisp conjunction strings (the historical fast path).
CONJUNCTIONS = (
    "class00 left-of class01",
    "class02 above class03",
    "class04 left-of class05 and class06 above class07",
    "class08 above class09 and class10 left-of class11",
)
#: The graded counterparts: one non-unit weight defeats the crisp fast path
#: and routes the identical leaves through the graded tree machinery — label
#: pruning and the evaluated image set stay byte-identical to the crisp pass.
WEIGHTED = tuple(f"{text} [w=2]" for text in CONJUNCTIONS)
#: Queries only the graded path can express.  Fuzzy leaves and ``not`` fail
#: open in the degree bound, so these admit every stored image by design.
BOOLEAN_QUERIES = (
    "not class00 left-of class01 or class02 above class03 [fuzzy]",
    "not (class04 above class05 [fuzzy w=2] and class06 left-of class07)",
)


def _build_system(size: int) -> RetrievalSystem:
    pictures = random_pictures(size, seed=31, parameters=_PARAMETERS, name_prefix="img")
    return RetrievalSystem.from_pictures(pictures)


def _time_queries(system: RetrievalSystem, texts, fuzzy: bool = False):
    """Total wall-clock of ``REPEATS`` passes over ``texts``, plus the traces."""
    traces = []
    started = time.perf_counter()
    for _ in range(REPEATS):
        for text in texts:
            results = system.query().where(text, fuzzy=fuzzy).limit(None).execute()
            traces.append(results.trace)
    return time.perf_counter() - started, traces


def _graded_key(results):
    return [(m.image_id, m.score, tuple(sorted(m.leaf_degrees))) for m in results]


@pytest.fixture(scope="module", params=DATABASE_SIZES)
def sized_system(request):
    return request.param, _build_system(request.param)


@pytest.mark.benchmark(group="E19-predicates")
def test_graded_overhead_and_admit_rate(
    sized_system, write_report, write_json_report, benchmark
):
    size, system = sized_system

    # --- graded vs crisp on identical leaves, identical pruning -----------
    crisp_seconds, crisp_traces = _time_queries(system, CONJUNCTIONS)
    graded_seconds, graded_traces = _time_queries(system, WEIGHTED)
    fuzzy_seconds, fuzzy_traces = _time_queries(system, CONJUNCTIONS, fuzzy=True)
    boolean_seconds, boolean_traces = _time_queries(system, BOOLEAN_QUERIES)
    overhead = graded_seconds / crisp_seconds if crisp_seconds else float("inf")

    # --- admit-rate: label pruning must stay engaged on the graded path ---
    admit_rates = []
    for crisp, graded in zip(crisp_traces, graded_traces):
        assert graded.predicate_pruned > 0, "label pruning disengaged"
        assert graded.predicate_evaluated + graded.predicate_pruned == size
        # Crisp leaves prune through the identical postings either way.
        assert graded.predicate_evaluated == crisp.predicate_evaluated
        admit_rates.append(graded.predicate_evaluated / size)
    mean_rate = sum(admit_rates) / len(admit_rates)
    worst_rate = max(admit_rates)
    # Fuzzy leaves and ``not`` fail open in the degree bound: every image is
    # evaluated, none is settled from the postings alone.
    for trace in fuzzy_traces + boolean_traces:
        assert trace.predicate_evaluated == size
        assert trace.predicate_pruned == 0

    # --- soundness at scale: filtered == unfiltered full scan -------------
    engine = system._engine
    for text in (WEIGHTED[2], BOOLEAN_QUERIES[0], BOOLEAN_QUERIES[1]):
        spec = system.query().where(text).limit(None).spec()
        filtered = engine.execute_spec(spec)
        full = engine.execute_spec(
            spec.with_overrides(execution=ExecutionOptions(shortlist=False))
        )
        assert full.trace.predicate_pruned == 0
        assert _graded_key(filtered.results) == _graded_key(full.results)

    rows = [
        ["crisp conjunctions", f"{crisp_seconds * 1000:.1f}", "1.00x"],
        ["graded (weighted)", f"{graded_seconds * 1000:.1f}", f"{overhead:.2f}x"],
        ["graded (fuzzified)", f"{fuzzy_seconds * 1000:.1f}", "--"],
        ["boolean not/or trees", f"{boolean_seconds * 1000:.1f}", "--"],
    ]
    write_report(
        f"E19_predicates_{size}",
        [
            f"E19 -- graded predicate scoring vs the crisp fast path at {size} "
            f"images ({len(CONJUNCTIONS)} conjunctions, {REPEATS} pass(es))",
            "",
            *format_table(["query set", "total ms", "vs crisp"], rows),
            "",
            f"graded overhead ceiling: {MAX_GRADED_OVERHEAD}x at the largest "
            f"size (identical leaves, identical label pruning)",
            f"label-postings admit rate: mean {mean_rate:.3f}, "
            f"worst {worst_rate:.3f} (graded == crisp evaluated set)",
            "fuzzy/not queries admit every image (fail-open bounds, asserted)",
            "filtered graded rankings == shortlist=False full scans "
            "(degrees included)",
        ],
    )
    write_json_report(
        f"E19_predicates_{size}",
        {
            "database_size": size,
            "conjunctions": len(CONJUNCTIONS),
            "boolean_queries": len(BOOLEAN_QUERIES),
            "repeats": REPEATS,
            "timing": {
                "crisp_seconds": round(crisp_seconds, 6),
                "graded_seconds": round(graded_seconds, 6),
                "fuzzy_seconds": round(fuzzy_seconds, 6),
                "boolean_seconds": round(boolean_seconds, 6),
                "overhead_ratio": round(overhead, 3),
                "max_overhead_ratio": MAX_GRADED_OVERHEAD,
            },
            "shortlist": {
                "admit_rate_mean": round(mean_rate, 4),
                "admit_rate_worst": round(worst_rate, 4),
            },
        },
    )

    if not SMOKE and size == max(DATABASE_SIZES):
        assert overhead <= MAX_GRADED_OVERHEAD, (
            f"graded evaluation cost {overhead:.2f}x the crisp fast path "
            f"(ceiling: {MAX_GRADED_OVERHEAD}x)"
        )

    # pytest-benchmark timing: one graded boolean query over the corpus.
    benchmark.pedantic(
        lambda: system.query().where(BOOLEAN_QUERIES[0]).limit(None).execute(),
        rounds=3,
    )
