"""Differential suite: every execution configuration equals a brute-force oracle.

The oracle states the ranking contract directly, in a few lines: score every
stored image that shares enough labels with the query with the reference
dynamic program, evaluate predicates and trees with the library evaluators,
compose, sort by ``(-score, image_id)`` and cut.  It uses no shortlist
bounds, no score cache, no kernel and no executor.  Hypothesis draws small
corpora with repeated labels and specs of every kind (exact, invariant,
partial, crisp ``where``, graded trees with ``not``/``or``/``fuzzy``, and
combined specs under both compositions), and each spec must produce the
oracle's ``to_dicts()`` byte for byte under every configuration: the
default, each non-default kernel/strategy pair, a warm repeat, a repeat after
each kind of mutation, and the shard workers.  The similarity-only recipes,
plus one duplicate, also run as one ``query_batch``, serially and through
the shard workers, before and after each mutation.  The CI ``shard-workers``
leg re-runs this module with ``REPRO_SHARD_WORKERS`` pinned to 2 and 4.
"""

import json
import os
from typing import Dict, List

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.construct import encode_picture
from repro.core.similarity import invariant_similarity, similarity
from repro.core.transforms import Transformation
from repro.geometry.rectangle import Rectangle
from repro.iconic.picture import SymbolicPicture
from repro.index.execution import ExecutionOptions
from repro.index.spec import QuerySpec
from repro.retrieval.predicates import evaluate_predicates, evaluate_tree
from repro.retrieval.system import RetrievalSystem

LABELS = ("car", "tree", "house", "dog")
RELATIONS = ("left-of", "right-of", "above", "below", "overlaps")
FRAME = 10.0
SHARD_WORKERS = int(os.environ.get("REPRO_SHARD_WORKERS") or 2)

#: Every kernel/strategy pair besides the default, plus the shard workers.
CONFIGURATIONS = {
    "reference/exhaustive": ExecutionOptions(kernel="reference", strategy="exhaustive"),
    "bitparallel/exhaustive": ExecutionOptions(kernel="bitparallel", strategy="exhaustive"),
    "reference/anytime": ExecutionOptions(kernel="reference", strategy="anytime"),
    "shard_process": ExecutionOptions(executor="shard_process", workers=SHARD_WORKERS),
}


def oracle(pictures: Dict[str, SymbolicPicture], spec: QuerySpec) -> List[dict]:
    """The ranking ``spec`` must produce over ``pictures``, computed directly."""
    tree, rows = spec.predicate_tree, []
    for image_id, picture in pictures.items():
        stored = encode_picture(picture)
        match = None
        if tree is not None:
            match = evaluate_tree(stored, tree, image_id=image_id)
        elif spec.predicates:
            match = evaluate_predicates(stored, spec.predicates, image_id=image_id)
        if spec.picture is None:
            row = {"image_id": image_id, "score": match.score}
            if tree is not None:
                row.update(degree=match.degree, leaf_degrees=dict(match.leaf_degrees))
            else:
                row["satisfied"] = [predicate.to_text() for predicate in match.satisfied]
                row["unsatisfied"] = [predicate.to_text() for predicate in match.unsatisfied]
            rows.append(row)
            continue
        query = spec.effective_picture()
        shared = set(query.labels) & set(picture.labels)
        shortlist = spec.execution is None or spec.execution.shortlist is not False
        if shortlist and query.labels and len(shared) < spec.minimum_shared_labels:
            continue
        if match is not None and tree is None and not match.is_full_match:
            continue
        if len(spec.transformations) == 1:
            result = similarity(
                encode_picture(query), stored, spec.effective_policy(), spec.transformations[0]
            )
        else:
            result = invariant_similarity(
                encode_picture(query), stored, spec.effective_policy(), spec.transformations
            )
        score = result.score
        if tree is not None and spec.predicate_composition == "sum":
            blend = spec.predicate_blend
            score = blend * score + (1.0 - blend) * match.degree
        elif tree is not None:
            score = score * match.degree
        row = {
            "image_id": image_id,
            "score": score,
            "transformation": result.transformation.value,
            "lcs_x": result.x.lcs_length,
            "lcs_y": result.y.lcs_length,
            "common_objects": sorted(result.common_objects),
        }
        if tree is not None:
            row.update(degree=match.degree, leaf_degrees=dict(match.leaf_degrees))
        rows.append(row)
    rows = [row for row in rows if row["score"] >= spec.minimum_score]
    rows.sort(key=lambda row: (-row["score"], row["image_id"]))
    if spec.limit is not None:
        rows = rows[: spec.limit]
    return [dict(row, rank=rank) for rank, row in enumerate(rows, start=1)]


@st.composite
def scenes(draw, name: str) -> SymbolicPicture:
    """A scene on a coarse grid: coincident boundaries and repeated labels."""
    objects = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        x0, y0 = draw(st.integers(0, 8)), draw(st.integers(0, 8))
        x1, y1 = draw(st.integers(x0, 10)), draw(st.integers(y0, 10))
        mbr = Rectangle(float(x0), float(y0), float(x1), float(y1))
        objects.append((draw(st.sampled_from(LABELS)), mbr))
    return SymbolicPicture.build(width=FRAME, height=FRAME, objects=objects, name=name)


def leaf(draw) -> str:
    subject, target = draw(st.lists(st.sampled_from(LABELS), min_size=2, max_size=2))
    return f"{subject} {draw(st.sampled_from(RELATIONS))} {target}"


@st.composite
def recipes(draw, corpus: List[SymbolicPicture]) -> dict:
    """Everything one query is built from, as plain data."""
    # Composed kinds are drawn twice as often: their bounds are the subtlest.
    kind = draw(
        st.sampled_from(
            ["exact", "invariant", "partial", "where", "graded", "combined"]
            + ["product", "sum"] * 2
        )
    )
    recipe = {
        "kind": kind,
        "limit": draw(st.sampled_from([None, 0, 1, 3])),
        "min_score": draw(st.sampled_from([0.0, 0.0, 0.25, 0.6])),
    }
    if kind not in ("where", "graded"):
        if draw(st.booleans()):
            recipe["picture"] = draw(st.sampled_from(corpus))
        else:
            recipe["picture"] = draw(scenes("query"))
    if kind == "partial":
        identifiers = recipe["picture"].identifiers
        recipe["identifiers"] = draw(
            st.lists(st.sampled_from(identifiers), min_size=1, unique=True)
        )
    if kind in ("where", "combined"):
        recipe["where"] = " and ".join(leaf(draw) for _ in range(draw(st.integers(1, 2))))
    if kind in ("graded", "product", "sum"):
        template = draw(st.sampled_from(["{} or not {}", "not {} and {}", "{} or {}"]))
        recipe["where"] = template.format(leaf(draw), leaf(draw))
        recipe["fuzzy"] = draw(st.booleans())
        recipe["blend"] = draw(st.sampled_from([0.0, 0.3, 1.0]))
    return recipe


def build(system: RetrievalSystem, recipe: dict, execution=None):
    """The builder ``recipe`` describes, on ``system``."""
    builder = system.query(recipe.get("picture"))
    if recipe["kind"] == "invariant":
        builder = builder.invariant()
    if recipe["kind"] == "partial":
        builder = builder.partial(recipe["identifiers"])
    if "where" in recipe:
        builder = builder.where(recipe["where"], fuzzy=recipe.get("fuzzy", False))
    if recipe["kind"] == "sum":
        builder = builder.compose("sum", recipe["blend"])
    builder = builder.limit(recipe["limit"]).min_score(recipe["min_score"])
    if execution is not None:
        builder = builder.execution(execution)
    return builder


def check(system, pictures, recipe, label, execution=None):
    """Assert one run of ``recipe`` equals the oracle, byte for byte."""
    expected = json.dumps(oracle(pictures, build(system, recipe).spec()), sort_keys=True)
    produced = build(system, recipe, execution).execute().to_dicts()
    assert json.dumps(produced, sort_keys=True) == expected, label


def check_batch(system, pictures, recipes_drawn, label):
    """Assert a batch of the similarity-only recipes equals the oracle."""
    similar = [recipe for recipe in recipes_drawn if "where" not in recipe]
    if not similar:
        return
    builders = [build(system, recipe) for recipe in similar + similar[:1]]
    expected = [
        json.dumps(oracle(pictures, builder.spec()), sort_keys=True) for builder in builders
    ]
    for executor in ("serial", "shard_process"):
        batch = system.query_batch(builders, executor=executor, workers=SHARD_WORKERS)
        produced = [json.dumps(results.to_dicts(), sort_keys=True) for results in batch]
        assert produced == expected, f"{label}: batch ({executor})"


@st.composite
def cases(draw):
    names = [f"img-{index:02d}" for index in range(draw(st.integers(3, 8)))]
    corpus = [draw(scenes(name)) for name in names]
    return corpus, draw(st.lists(recipes(corpus), min_size=1, max_size=3)), draw(scenes("new"))


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(cases())
def test_every_configuration_equals_the_oracle(case):
    corpus, recipes_drawn, fresh = case
    system = RetrievalSystem.from_pictures(corpus)
    pictures = {picture.name: picture for picture in corpus}
    try:
        for recipe in recipes_drawn:
            check(system, pictures, recipe, "default")
            check(system, pictures, recipe, "warm repeat")
            for label, options in CONFIGURATIONS.items():
                check(system, pictures, recipe, label, options)
        check_batch(system, pictures, recipes_drawn, "before mutations")

        first, last = corpus[0].name, corpus[-1].name
        target = pictures[first].icons[-1]
        system.add_object(first, target.label, target.mbr)
        pictures[first] = pictures[first].add_icon(target.label, target.mbr)
        for recipe in recipes_drawn:
            check(system, pictures, recipe, "after add_object")
        check_batch(system, pictures, recipes_drawn, "after add_object")

        identifier = pictures[last].identifiers[0]
        system.remove_object(last, identifier)
        pictures[last] = pictures[last].remove_icon(identifier)
        for recipe in recipes_drawn:
            check(system, pictures, recipe, "after remove_object")
        check_batch(system, pictures, recipes_drawn, "after remove_object")

        system.add_picture(fresh, "img-new")
        pictures["img-new"] = fresh.renamed("img-new")
        for recipe in recipes_drawn:
            check(system, pictures, recipe, "after insert")
        check_batch(system, pictures, recipes_drawn, "after insert")

        system.remove_picture(first)
        del pictures[first]
        for recipe in recipes_drawn:
            check(system, pictures, recipe, "after delete")
        check_batch(system, pictures, recipes_drawn, "after delete")
    finally:
        system._engine.close_shard_pool()


def test_oracle_sees_transformations():
    """A sanity anchor: the oracle ranks a rotated copy first under invariance."""
    base = SymbolicPicture.build(
        width=FRAME,
        height=FRAME,
        objects=[("car", Rectangle(0, 0, 2, 3)), ("tree", Rectangle(5, 4, 9, 9))],
        name="base",
    )
    rotated = base.rotate90().renamed("rotated")
    spec = QuerySpec(picture=base, transformations=tuple(Transformation), limit=None)
    ranking = oracle({"rotated": rotated}, spec)
    assert ranking[0]["transformation"] == "rotate90"
