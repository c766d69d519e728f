"""Stage 1's postings tally and the lazy candidate loop against brute force.

* The tally of :meth:`InvertedSymbolIndex.candidates` never undercounts the
  label-multiset overlap, with labels repeated on both sides, and equals it
  when no query label repeats.
* The label counts the engine's index keeps per image, after a load and any
  run of inserts, object edits and deletes, equal those of an index rebuilt
  from the records, so a count cannot go stale after an edit.
* The lazy loop returns the oracle's top k, ties included, for exact and
  invariant specs with the cache off, cold and warm, and it scores exactly
  the candidates an eager loop over every candidate's stage-2 bound scores.
"""

import importlib.util
import json
import tempfile
from bisect import insort
from collections import Counter
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.construct import encode_picture
from repro.datasets.synthetic import SceneParameters, random_pictures
from repro.geometry.rectangle import Rectangle
from repro.index.inverted import InvertedSymbolIndex
from repro.index.shortlist import QuerySignature
from repro.index.spec import STAGE_SHORTLIST, QuerySpec
from repro.retrieval.system import RetrievalSystem


def _load_differential():
    path = Path(__file__).resolve().parents[1] / "index" / "test_differential.py"
    spec = importlib.util.spec_from_file_location("differential_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_DIFFERENTIAL = _load_differential()
oracle = _DIFFERENTIAL.oracle
scenes = _DIFFERENTIAL.scenes

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def corpora(draw):
    """Up to eight scenes over four labels, one stored twice to force ties."""
    pictures = [draw(scenes(f"img-{index:02d}")) for index in range(draw(st.integers(2, 8)))]
    twin = draw(st.sampled_from(pictures))
    pictures.append(twin.renamed("img-twin"))
    return {picture.name: picture for picture in pictures}


@st.composite
def queries(draw, pictures):
    """A stored scene or a fresh one."""
    if draw(st.booleans()):
        return draw(st.sampled_from(sorted(pictures.values(), key=lambda p: p.name)))
    return draw(scenes("query"))


def overlap(query, picture):
    """The label-multiset overlap, by brute force."""
    return sum((Counter(query.labels) & Counter(picture.labels)).values())


@SETTINGS
@given(data=st.data())
def test_tally_bounds_the_overlap(data):
    pictures = data.draw(corpora())
    query = data.draw(queries(pictures))
    index = InvertedSymbolIndex()
    for image_id, picture in pictures.items():
        index.add_picture(image_id, picture)
    tallies = index.candidates(query.labels)
    signature = QuerySignature(encode_picture(query), query.labels)
    repeats = len(set(query.labels)) < len(query.labels)
    for image_id, picture in pictures.items():
        exact = overlap(query, picture)
        assert signature.exact_overlap(index.label_counts(image_id)) == exact
        tally = tallies.get(image_id, 0)
        assert exact <= tally <= len(query.labels)
        assert (image_id in tallies) == (exact > 0)
        if not repeats:
            assert tally == exact


def eager_examined(system, spec, scores):
    """The candidates an eager anytime loop scores: every stage-2 bound first."""
    engine = system._engine
    outcome = engine.shortlist(spec)
    picture = spec.effective_picture()
    signature = QuerySignature(encode_picture(picture), picture.labels, spec.transformations)
    keys = []
    for image_id in outcome.candidates:
        bound = signature.score_upper_bound(
            engine.database.get(image_id),
            outcome.tallies[image_id],
            spec.effective_policy(),
            with_boundary_lcs=True,
        )
        keys.append((-bound, image_id))
    ranked, examined = [], set()
    for key in sorted(keys):
        if len(ranked) >= spec.limit and (spec.limit == 0 or key >= ranked[spec.limit - 1]):
            break
        examined.add(key[1])
        score = scores[key[1]]
        if score >= spec.minimum_score:
            insort(ranked, (-score, key[1]))
    return examined


@SETTINGS
@given(
    data=st.data(),
    limit=st.sampled_from([0, 1, 2, 3]),
    minimum_score=st.sampled_from([0.0, 0.0, 0.25]),
    invariant=st.booleans(),
)
def test_the_lazy_loop_returns_the_oracles_top_k(data, limit, minimum_score, invariant):
    pictures = data.draw(corpora())
    query = data.draw(queries(pictures))
    system = RetrievalSystem.from_pictures(list(pictures.values()))

    def build(**execution):
        builder = system.query(query).limit(limit).min_score(minimum_score)
        if invariant:
            builder = builder.invariant()
        return builder.execution(**execution) if execution else builder

    spec = build().spec()
    expected = json.dumps(oracle(pictures, spec), sort_keys=True)
    unlimited = QuerySpec(picture=query, transformations=spec.transformations, limit=None)
    scores = {row["image_id"]: row["score"] for row in oracle(pictures, unlimited)}
    for label, execution in (("off", {"cache": False}), ("cold", {}), ("warm", {})):
        results = build(**execution).execute()
        assert json.dumps(results.to_dicts(), sort_keys=True) == expected, label
        examined = {
            image_id
            for image_id, candidate in results.trace.candidates.items()
            if candidate.stage == STAGE_SHORTLIST
        }
        assert examined == eager_examined(system, spec, scores), label


_LABELS = tuple(f"c{index}" for index in range(6))
_PARAMETERS = SceneParameters(object_count=4, labels=_LABELS, label_choice="random")

#: One edit: insert a fresh scene, add an icon to a stored image, remove an
#: icon from one, or delete one.  Each draws its target by index.
_EDITS = st.lists(
    st.tuples(
        st.sampled_from(["insert", "add_object", "remove_object", "delete"]),
        st.integers(min_value=0, max_value=1000),
        st.sampled_from(_LABELS + ("fresh",)),
    ),
    max_size=12,
)


def rebuilt_index(database):
    """An index built from scratch over the records, counting on its own."""
    index = InvertedSymbolIndex()
    for record in database:
        index.add_picture(record.image_id, record.picture)
    return index


def apply_edit(system, step, edit):
    kind, pick, label = edit
    ids = system.image_ids
    if kind == "insert" or not ids:
        fresh = random_pictures(1, seed=pick, parameters=_PARAMETERS)[0]
        system.add_picture(fresh, f"fresh-{step}")
        return
    image_id = ids[pick % len(ids)]
    if kind == "delete":
        system.remove_picture(image_id)
    elif kind == "add_object":
        system.add_object(image_id, label, Rectangle(1.0, 1.0, 2.0 + pick % 7, 3.0))
    else:
        identifiers = system.record(image_id).picture.identifiers
        if identifiers:
            system.remove_object(image_id, identifiers[pick % len(identifiers)])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000), edits=_EDITS)
def test_shared_label_counts_match_a_rebuilt_index(seed, edits):
    pictures = random_pictures(6, seed=seed, parameters=_PARAMETERS, name_prefix="img")
    with tempfile.TemporaryDirectory() as directory:
        path = RetrievalSystem.from_pictures(pictures).save(Path(directory) / "db.json")
        system = RetrievalSystem.from_file(path)
    engine = system._engine
    for step, edit in enumerate(edits):
        apply_edit(system, step, edit)
    expected = rebuilt_index(engine.database)
    index = engine.inverted_index
    assert index.indexed_images == expected.indexed_images
    assert index.vocabulary == expected.vocabulary
    for label in expected.vocabulary + ["fresh", "absent"]:
        assert index.images_with_label(label) == expected.images_with_label(label)
    for record in engine.database:
        assert index.labels_of(record.image_id) == Counter(record.picture.labels)
        assert index.label_counts(record.image_id) == Counter(record.picture.labels)
    for size in range(1, 4):
        labels = _LABELS[:size] + ("fresh",)
        for shared in range(1, size + 2):
            assert index.candidates(labels, shared) == expected.candidates(labels, shared)
