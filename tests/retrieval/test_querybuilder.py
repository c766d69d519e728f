"""Tests for the fluent query builder, QuerySpec compilation and ResultSet."""

import json

import pytest

from repro.core.similarity import Normalization, SimilarityPolicy
from repro.core.transforms import Transformation
from repro.index.execution import ExecutionOptions
from repro.index.spec import QuerySpec, QuerySpecError
from repro.retrieval.predicates import (
    PredicateError,
    evaluate_tree,
    parse_tree,
    search_by_predicates,
)
from repro.retrieval.querybuilder import ResultSet
from repro.retrieval.system import RetrievalSystem


@pytest.fixture
def system(scene_collection):
    return RetrievalSystem.from_pictures(scene_collection)


class TestSpecCompilation:
    def test_builder_accumulates_all_clauses(self, system, office):
        spec = (
            system.query(office)
            .partial(["desk", "monitor"])
            .invariant()
            .where("phone right-of monitor")
            .min_score(0.3)
            .limit(7)
            .execution(shortlist=False)
            .execution(cache=False)
            .spec()
        )
        assert spec.picture is office
        assert spec.identifiers == ("desk", "monitor")
        assert spec.transformations == tuple(Transformation)
        assert [predicate.to_text() for predicate in spec.predicates] == [
            "phone right-of monitor"
        ]
        assert spec.limit == 7
        assert spec.minimum_score == 0.3
        assert spec.execution == ExecutionOptions(shortlist=False, cache=False)

    def test_builder_defaults(self, system, office):
        spec = system.query(office).spec()
        assert spec.transformations == (Transformation.IDENTITY,)
        assert spec.limit == 10
        assert spec.execution is None
        assert spec.policy == system.policy

    def test_policy_override(self, system, office):
        policy = SimilarityPolicy(normalization=Normalization.NONE)
        results = system.query(office).policy(policy).execute()
        assert results[0].score > 1.0  # raw counts, not normalised

    def test_effective_picture_applies_subset(self, system, office):
        spec = system.query(office).partial(["desk"]).spec()
        assert set(spec.effective_picture().identifiers) == {"desk"}

    def test_empty_query_rejected(self, system):
        with pytest.raises(QuerySpecError):
            system.query().spec()

    def test_partial_without_picture_rejected(self):
        with pytest.raises(QuerySpecError):
            QuerySpec(identifiers=("desk",), predicates=()).validate()

    def test_negative_limit_rejected(self, system, office):
        with pytest.raises(QuerySpecError):
            system.query(office).limit(-1).spec()

    def test_malformed_predicate_text_raises(self, system):
        with pytest.raises(PredicateError):
            system.query().where("monitor hovering-near desk")

    def test_describe_names_clauses(self, system, office):
        spec = system.query(office).invariant().where("monitor above desk").spec()
        text = spec.describe()
        assert "similar_to" in text and "invariant" in text
        assert "where(monitor above desk)" in text


class TestExecutionEquivalence:
    def test_matches_engine_execute(self, system, office):
        builder_results = list(system.query(office).limit(None).execute())
        engine_results = system._engine.execute_spec(
            system.query(office).limit(None).spec()
        ).results
        assert [r.describe() for r in builder_results] == [
            r.describe() for r in engine_results
        ]

    def test_predicate_only_matches_brute_force(self, system):
        query_text = "monitor above desk and phone right-of monitor"
        pruned = system.query().where(query_text).limit(None).execute()
        brute = search_by_predicates(
            (
                (record.image_id, record.bestring)
                for record in system._engine.database
            ),
            query_text,
        )
        assert [(m.image_id, m.score) for m in pruned] == [
            (m.image_id, m.score) for m in brute
        ]
        assert [m.satisfied for m in pruned] == [m.satisfied for m in brute]
        assert [m.unsatisfied for m in pruned] == [m.unsatisfied for m in brute]

    def test_predicate_pruning_skips_label_less_images(self, system):
        results = system.query().where("monitor above desk").limit(None).execute()
        trace = results.trace
        # Traffic and landscape scenes carry neither label: they must be
        # admitted as synthesised zero matches, not evaluated.
        assert trace.predicate_pruned > 0
        assert trace.predicate_evaluated + trace.predicate_pruned == len(system)
        pruned_ids = {
            candidate.image_id
            for candidate in trace.candidates.values()
            if candidate.stage == "label-pruned"
        }
        assert all(not image_id.startswith("office") for image_id in pruned_ids)

    def test_combined_mode_filters_similarity_ranking(self, system, office):
        plain = system.query(office).limit(None).execute()
        combined = (
            system.query(office).where("monitor above desk").limit(None).execute()
        )
        assert {r.image_id for r in combined} <= {r.image_id for r in plain}
        # Only office scenes have monitors and desks at all.
        assert all(r.image_id.startswith("office") for r in combined)
        # Ranks are renumbered contiguously after filtering.
        assert [r.rank for r in combined] == list(range(1, len(combined) + 1))

    def test_combined_mode_requires_every_predicate(self, system, office):
        combined = (
            system.query(office)
            .where("monitor above desk")
            .where("desk above monitor")  # contradiction: can never both hold
            .limit(None)
            .execute()
        )
        assert len(combined) == 0

    def test_warm_cache_serves_repeated_query(self, system, office):
        first = system.query(office).limit(None).execute()
        assert first.trace.cache_misses == len(first)
        second = system.query(office).limit(None).execute()
        assert second.trace.cache_hits == len(second)
        assert second.trace.cache_misses == 0
        assert [r.describe() for r in second] == [r.describe() for r in first]

    def test_cached_false_bypasses_the_cache(self, system, office):
        system.query(office).limit(None).execute()
        results = system.query(office).limit(None).execution(cache=False).execute()
        assert results.trace.cache_hits == 0
        assert results.trace.cache_misses == len(results)


class TestThresholdsAndShortlist:
    def test_partial_min_score_keeps_scores_at_or_above_it(self, system, office):
        identifiers = ["desk", "monitor", "phone"]
        every = system.query(office).partial(identifiers).limit(None).execute()
        kept = (
            system.query(office).partial(identifiers).min_score(0.9).limit(None).execute()
        )
        assert [(r.image_id, r.score) for r in kept] == [
            (r.image_id, r.score) for r in every if r.score >= 0.9
        ]
        assert 0 < len(kept) < len(every)

    def test_partial_without_shortlist_scores_every_image(self, system, office):
        results = (
            system.query(office)
            .partial(["desk", "monitor"])
            .execution(shortlist=False)
            .limit(None)
            .execute()
        )
        assert sorted(r.image_id for r in results) == sorted(system.image_ids)

    def test_shortlist_drops_only_images_without_a_shared_label(self, system, office):
        shortlisted = list(system.query(office).limit(None).execute())
        everything = list(
            system.query(office).limit(None).execution(shortlist=False).execute()
        )
        assert len(everything) == len(system)
        head, tail = everything[: len(shortlisted)], everything[len(shortlisted):]
        assert [r.describe() for r in head] == [r.describe() for r in shortlisted]
        assert tail and not any(r.image_id.startswith("office") for r in tail)

    @pytest.mark.parametrize(
        "limit, threshold, expected",
        [
            (None, 0.5, ["office-000", "office-001", "office-005"]),
            (2, 0.5, ["office-000", "office-001"]),
            (None, 0.75, ["office-000", "office-001"]),
        ],
    )
    def test_where_limit_and_threshold(self, system, limit, threshold, expected):
        # office-005 satisfies one of the two predicates: score 0.5.
        text = "monitor above desk and phone right-of monitor"
        every = system.query().where(text).limit(None).execute()
        kept = system.query().where(text).limit(limit).min_score(threshold).execute()
        assert [m.image_id for m in kept] == expected
        assert [(m.image_id, m.score) for m in kept] == [
            (m.image_id, m.score) for m in every if m.score >= threshold
        ][:limit]


class TestGradedQueries:
    def test_crisp_where_compiles_to_the_legacy_fast_path(self, system):
        # Order preserved, no tree: byte-identical to the historical plan.
        spec = (
            system.query()
            .where("phone right-of monitor and monitor above desk")
            .spec()
        )
        assert spec.predicate_tree is None
        assert [predicate.to_text() for predicate in spec.predicates] == [
            "phone right-of monitor",
            "monitor above desk",
        ]

    def test_graded_where_compiles_to_a_tree(self, system):
        spec = system.query().where("monitor above desk", fuzzy=True).spec()
        assert spec.predicates == ()
        assert spec.predicate_tree is not None
        assert spec.predicate_tree.to_text() == "monitor above desk [fuzzy]"
        spec = system.query().where("not monitor above desk or phone inside desk").spec()
        assert spec.predicate_tree is not None

    def test_compose_knobs_reach_the_spec(self, system, office):
        spec = (
            system.query(office)
            .where("monitor above desk", fuzzy=True)
            .compose("sum", 0.3)
            .spec()
        )
        assert spec.predicate_composition == "sum"
        assert spec.predicate_blend == 0.3
        with pytest.raises(QuerySpecError):
            system.query(office).where("monitor above desk", fuzzy=True).compose(
                "max"
            ).spec().validate()

    def test_fuzzy_results_superset_crisp_with_crisp_on_top(self, system, office):
        # The graded acceptance contract: fuzzifying a where-clause never
        # loses a crisp result, crisp matches keep degree exactly 1.0, and
        # every near-miss grades strictly below them.
        text = "monitor above desk and phone right-of monitor"
        crisp = system.query().where(text).limit(None).execute()
        graded = system.query().where(text, fuzzy=True).limit(None).execute()
        crisp_scores = {m.image_id: m.score for m in crisp}
        graded_scores = {m.image_id: m.score for m in graded}
        assert set(crisp_scores) <= set(graded_scores)
        full = {image_id for image_id, score in crisp_scores.items() if score == 1.0}
        assert full
        assert all(graded_scores[image_id] == 1.0 for image_id in full)
        assert all(
            graded_scores[image_id] < 1.0
            for image_id in graded_scores
            if image_id not in full
        )
        # Grading can only raise a score: the crisp indicator lower-bounds it.
        assert all(
            graded_scores[image_id] >= score
            for image_id, score in crisp_scores.items()
        )

    def test_combined_fuzzy_superset_of_crisp_filter(self, system, office):
        crisp = system.query(office).where("monitor above desk").limit(None).execute()
        graded = (
            system.query(office)
            .where("monitor above desk", fuzzy=True)
            .limit(None)
            .execute()
        )
        assert {r.image_id for r in crisp} <= {r.image_id for r in graded}
        assert [r.rank for r in graded] == list(range(1, len(graded) + 1))

    def test_product_composition_multiplies_similarity_by_degree(self, system, office):
        tree = parse_tree("monitor above desk [fuzzy]")
        similarities = {
            r.image_id: r.score for r in system.query(office).limit(None).execute()
        }
        graded = (
            system.query(office)
            .where("monitor above desk", fuzzy=True)
            .limit(None)
            .execute()
        )
        assert graded
        for result in graded:
            record = system._engine.database.get(result.image_id)
            degree = evaluate_tree(record.bestring, tree).degree
            assert result.score == pytest.approx(similarities[result.image_id] * degree)

    def test_sum_composition_blends(self, system, office):
        tree = parse_tree("monitor above desk [fuzzy]")
        similarities = {
            r.image_id: r.score for r in system.query(office).limit(None).execute()
        }
        graded = (
            system.query(office)
            .where("monitor above desk", fuzzy=True)
            .compose("sum", 0.3)
            .limit(None)
            .execute()
        )
        for result in graded:
            record = system._engine.database.get(result.image_id)
            degree = evaluate_tree(record.bestring, tree).degree
            expected = 0.3 * similarities[result.image_id] + 0.7 * degree
            assert result.score == pytest.approx(expected)

    def test_explain_surfaces_leaf_degrees(self, system):
        results = (
            system.query()
            .where("monitor above desk", fuzzy=True)
            .limit(None)
            .execute()
        )
        top = results.explain()[0]
        assert top.degree == 1.0
        assert dict(top.leaf_degrees)["monitor above desk [fuzzy]"] == 1.0
        assert "degree=" in top.describe() and "degrees=[" in top.describe()
        payload = results.to_dicts()[0]
        assert payload["degree"] == 1.0
        assert payload["leaf_degrees"] == {"monitor above desk [fuzzy]": 1.0}

    def test_graded_trace_counts_stages(self, system):
        results = (
            system.query()
            .where("monitor above desk", fuzzy=True)
            .limit(None)
            .execute()
        )
        trace = results.trace
        assert trace.predicate_evaluated + trace.predicate_pruned == len(system)
        assert "predicate-evaluated" in results.explain_report()

    def test_predicate_statistics_accumulate(self, system):
        before = system.predicate_statistics()
        system.query().where("monitor above desk").limit(None).execute()
        system.query().where("monitor above desk", fuzzy=True).limit(None).execute()
        after = system.predicate_statistics()
        assert after.queries == before.queries + 2
        assert after.graded_queries == before.graded_queries + 1
        assert after.evaluated > before.evaluated

    def test_query_batch_rejects_graded_specs(self, system):
        with pytest.raises(QuerySpecError):
            system.query_batch(
                [system.query().where("monitor above desk", fuzzy=True)]
            )


class TestResultSet:
    def test_sequence_protocol(self, system, office):
        results = system.query(office).limit(None).execute()
        assert len(results) > 0
        assert results[0].rank == 1
        assert list(results) == list(iter(results))
        assert bool(results)

    def test_pagination(self, system, office):
        results = system.query(office).limit(None).execute()
        size = 2
        pages = [
            results.page(number, size)
            for number in range(1, results.page_count(size) + 1)
        ]
        flattened = [entry for page in pages for entry in page]
        assert flattened == list(results)
        assert all(len(page) <= size for page in pages)
        assert len(results.page(results.page_count(size) + 1, size)) == 0

    def test_pagination_validation(self, system, office):
        results = system.query(office).execute()
        with pytest.raises(ValueError):
            results.page(0, 5)
        with pytest.raises(ValueError):
            results.page(1, 0)
        with pytest.raises(ValueError):
            results.page_count(0)

    def test_explain_reports_stages_and_cache(self, system, office):
        first = system.query(office).limit(3).execute()
        explanations = first.explain()
        assert all(e.stage == "inverted-index+signature" for e in explanations)
        assert all(e.cache_hit is False for e in explanations)
        assert all(e.transformation == "identity" for e in explanations)
        assert all(e.lcs_x > 0 and e.lcs_y > 0 for e in explanations)
        second = system.query(office).limit(3).execute()
        assert all(e.cache_hit is True for e in second.explain())

    def test_explain_full_scan_stage(self, system, office):
        results = system.query(office).execution(shortlist=False).limit(3).execute()
        assert all(e.stage == "full-scan" for e in results.explain())

    def test_explain_reports_winning_transformation(self, system, office):
        rotated = office.rotate90().renamed("office-rotated")
        system.add_picture(rotated)
        results = system.query(office).invariant().limit(None).execution(shortlist=False).execute()
        by_id = {e.image_id: e for e in results.explain()}
        assert by_id["office-rotated"].transformation == "rotate90"

    def test_explain_predicate_results(self, system):
        results = system.query().where("monitor above desk").limit(None).execute()
        explanations = results.explain()
        top = explanations[0]
        assert top.satisfied == ["monitor above desk"]
        tail = explanations[-1]
        assert tail.unsatisfied == ["monitor above desk"]
        report = results.explain_report()
        assert "plan:" in report and "label-pruned" in report

    def test_to_dicts_and_jsonl(self, system, office):
        results = system.query(office).limit(2).execute()
        dicts = results.to_dicts()
        assert [d["image_id"] for d in dicts] == [r.image_id for r in results]
        assert all({"rank", "score", "transformation"} <= set(d) for d in dicts)
        lines = results.to_jsonl().splitlines()
        assert [json.loads(line)["rank"] for line in lines] == [1, 2]

    def test_predicate_jsonl(self, system):
        results = system.query().where("monitor above desk").limit(2).execute()
        payloads = [json.loads(line) for line in results.to_jsonl().splitlines()]
        assert all("satisfied" in payload for payload in payloads)

    def test_predicate_ranks_are_global_across_pages(self, system):
        results = system.query().where("monitor above desk").limit(None).execute()
        assert len(results) == len(system)
        page = results.page(2, 2)
        assert [d["rank"] for d in page.to_dicts()] == [3, 4]
        assert [e.rank for e in page.explain()] == [3, 4]


class TestQueryBatchSurface:
    def test_accepts_builders_and_specs(self, system, office, traffic):
        batch = system.query_batch(
            [system.query(office).limit(3), system.query(traffic).limit(3).spec()]
        )
        assert all(isinstance(results, ResultSet) for results in batch)
        assert batch[0][0].image_id == office.name
        assert batch[1][0].image_id == traffic.name
        assert batch[0].spec is not None

    def test_rejects_predicate_specs(self, system, office):
        with pytest.raises(QuerySpecError):
            system.query_batch([system.query().where("monitor above desk")])

    def test_rejects_foreign_items(self, system, office):
        with pytest.raises(TypeError):
            system.query_batch([office])

    def test_bare_spec_inherits_system_policy(self, scene_collection, office):
        policy = SimilarityPolicy(normalization=Normalization.NONE)
        system = RetrievalSystem.from_pictures(scene_collection, policy=policy)
        serial = system.query(office).limit(None).execute()
        batch = system.query_batch([QuerySpec(picture=office, limit=None)])[0]
        assert serial[0].score > 1.0  # the custom raw-count policy applied
        assert [r.describe() for r in batch] == [r.describe() for r in serial]

    def test_batch_honours_per_query_cache_toggle(self, system, office):
        system.query(office).limit(None).execute()  # warm the cache
        before = len(system._engine.score_cache)
        system.query_batch([system.query(office).limit(None).execution(cache=False)])
        report = system.last_batch_report
        # The bypassing query neither read nor wrote the warm cache.
        assert report.cache_hits == 0
        assert report.scored == report.candidates_considered > 0
        assert len(system._engine.score_cache) == before

    def test_batch_matches_serial_builder(self, system, scene_collection):
        pictures = [scene_collection[0], scene_collection[3], scene_collection[0]]
        serial = [
            [r.describe() for r in system.query(p).limit(4).execution(cache=False).execute()]
            for p in pictures
        ]
        system._engine.score_cache.clear()
        batch = system.query_batch(
            [system.query(p).limit(4) for p in pictures], workers=2
        )
        assert [[r.describe() for r in results] for results in batch] == serial
        assert system.last_batch_report.total_queries == 3
        assert system.last_batch_report.unique_evaluations == 2
