"""The cache-first candidate loop: what a repeated or edited query recomputes.

Every similarity clause runs through one loop that reads the score cache
before any other work.  A cache entry holds a full result, a confirmed
score, or the stage-2 bound of a candidate the anytime stop rule skipped, so:

* a repeated spec computes no bound and runs no kernel;
* after an edit, only the edited image is bounded or scored again;
* the batch scheduler, which ranks full results, treats score-only entries
  as misses.

Calls are counted by wrapping the names the engine looks up at call time.
"""

import pytest

from repro.core.construct import encode_picture
from repro.core.transforms import Transformation
from repro.geometry.rectangle import Rectangle
from repro.iconic.picture import SymbolicPicture
from repro.index import query as query_module
from repro.index.cache import ScoreBound, query_score_key
from repro.index.shortlist import QuerySignature
from repro.index.spec import STAGE_BOUND_SKIPPED
from repro.retrieval.system import RetrievalSystem

#: The reference scan every ranking here must equal.
REFERENCE = dict(kernel="reference", strategy="exhaustive", cache=False)


@pytest.fixture
def system(scene_collection):
    return RetrievalSystem.from_pictures(scene_collection)


@pytest.fixture
def calls(monkeypatch):
    """Count bound, kernel and reference evaluations the engine makes."""
    counts = {"bounds": 0, "kernel": 0, "reference": 0}

    def counting(name, function):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        QuerySignature,
        "score_upper_bound",
        counting("bounds", QuerySignature.score_upper_bound),
    )
    for attribute, name in (
        ("similarity_score", "kernel"),
        ("invariant_similarity_score", "kernel"),
        ("similarity", "reference"),
        ("invariant_similarity", "reference"),
    ):
        monkeypatch.setattr(
            query_module, attribute, counting(name, getattr(query_module, attribute))
        )

    def reset():
        for name in counts:
            counts[name] = 0

    return counts, reset


RECIPES = {
    "exact": lambda system, picture: system.query(picture).limit(3),
    "invariant": lambda system, picture: system.query(picture).invariant().limit(3),
    "graded-sum": lambda system, picture: system.query(picture)
    .where("monitor above desk [fuzzy] or not phone left-of lamp")
    .compose("sum", 0.4)
    .limit(3),
    "crisp-where": lambda system, picture: system.query(picture)
    .where("monitor above desk")
    .limit(3),
}


@pytest.mark.parametrize("recipe", sorted(RECIPES))
def test_repeated_spec_computes_nothing(system, office, calls, recipe):
    counts, reset = calls
    build = RECIPES[recipe]
    first = build(system, office).execute()
    assert counts["bounds"] > 0 and counts["kernel"] > 0
    reset()
    second = build(system, office).execute()
    assert counts == {"bounds": 0, "kernel": 0, "reference": 0}
    assert second.to_dicts() == first.to_dicts()
    reference = build(system, office).execution(**REFERENCE).execute()
    assert first.to_dicts() == reference.to_dicts()


def test_skipped_candidates_leave_their_bounds(system, office):
    trace = system.query(office).limit(1).execute().trace
    skipped = [
        candidate
        for candidate in trace.candidates.values()
        if candidate.stage == STAGE_BOUND_SKIPPED
    ]
    assert skipped
    key = query_score_key(encode_picture(office), system.policy, (Transformation.IDENTITY,))
    for candidate in skipped:
        entry = system._engine.score_cache.get(key, candidate.image_id)
        assert isinstance(entry, ScoreBound)
        assert entry == candidate.score_bound


def test_edit_rebounds_and_rescores_only_the_edited_image(system, office, calls):
    counts, reset = calls

    def query():
        return system.query(office).limit(None)  # every candidate is visited

    before = query().execute()
    edited = "office-001"
    assert edited in [row["image_id"] for row in before.to_dicts()]
    system.remove_object(edited, "phone")
    reset()
    after = query().execute()
    assert counts == {"bounds": 1, "kernel": 1, "reference": 1}
    assert after.trace.cache_misses == 1
    assert after.trace.candidates[edited].cache_hit is False
    assert after.to_dicts() == query().execution(**REFERENCE).execute().to_dicts()


def test_edit_under_a_limit_bounds_only_the_edited_image(system, office, calls):
    counts, reset = calls
    system.query(office).limit(2).execute()
    system.remove_object("office-005", "phone")
    reset()
    after = system.query(office).limit(2).execute()
    assert counts["bounds"] == 1
    assert counts["kernel"] <= 1
    reference = system.query(office).limit(2).execution(**REFERENCE).execute()
    assert after.to_dicts() == reference.to_dicts()


def test_batch_after_score_only_entries_equals_serial(system, office, traffic):
    # Single queries under a limit leave confirmed scores (examined
    # non-survivors) and bounds (skipped candidates) in the cache.
    for picture in (office, traffic):
        system.query(picture).limit(2).execute()
    batch = system.query_batch(
        [system.query(picture).limit(None) for picture in (office, traffic, office)]
    )
    report = system.last_batch_report
    assert report.cache_hits < report.candidates_considered
    serial = [
        system.query(picture).limit(None).execution(**REFERENCE).execute().to_dicts()
        for picture in (office, traffic, office)
    ]
    assert [results.to_dicts() for results in batch] == serial


def test_sum_composition_orders_by_composed_bounds():
    """A low-similarity, fully satisfying image outranks a near-duplicate.

    ``b`` shares one label with the query, so its similarity bound sits
    below the near-duplicate ``a``'s composed score; only the composed bound
    (``blend * bound + (1 - blend) * degree``) keeps the stop rule from
    skipping it.
    """
    frame = dict(width=10.0, height=10.0)
    query = SymbolicPicture.build(
        objects=[
            ("car", Rectangle(0, 0, 2, 2)),
            ("tree", Rectangle(5, 5, 7, 7)),
            ("house", Rectangle(8, 0, 10, 2)),
        ],
        name="query",
        **frame,
    )
    near = query.renamed("a")
    far = SymbolicPicture.build(
        objects=[("dog", Rectangle(0, 6, 2, 8)), ("house", Rectangle(6, 6, 9, 9))],
        name="b",
        **frame,
    )
    system = RetrievalSystem.from_pictures([near, far])

    def build():
        return (
            system.query(query)
            .where("dog left-of house or dog below house")
            .compose("sum", 0.5)
            .limit(1)
        )

    expected = build().execution(**REFERENCE).execute().to_dicts()
    assert [row["image_id"] for row in expected] == ["b"]
    assert build().execute().to_dicts() == expected
