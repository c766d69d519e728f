"""Stage 1's postings tally and the lazy candidate loop against brute force.

* The tally of :meth:`InvertedSymbolIndex.candidates` never undercounts the
  label-multiset overlap, with labels repeated on both sides, and equals it
  when no query label repeats.
* A shortlist cut by a ``min_score``, an overlap threshold or both admits
  every image the brute-force ``oracle`` of ``tests/index/test_differential.py``
  ranks and the threshold keeps, and nothing the threshold drops.
* The lazy loop returns the oracle's top k, ties included, for exact and
  invariant specs with the cache off, cold and warm, and it scores exactly
  the candidates an eager loop over every candidate's stage-2 bound scores.
"""

import importlib.util
import json
from bisect import insort
from collections import Counter
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.construct import encode_picture
from repro.index.inverted import InvertedSymbolIndex
from repro.index.shortlist import ImageSignature, QuerySignature, signature_for
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
        candidate = ImageSignature.from_bestring(encode_picture(picture), picture.labels)
        assert signature.exact_overlap(candidate) == exact
        tally = tallies.get(image_id, 0)
        assert exact <= tally <= len(query.labels)
        assert (image_id in tallies) == (exact > 0)
        if not repeats:
            assert tally == exact


@SETTINGS
@given(
    data=st.data(),
    minimum_score=st.sampled_from([0.0, 0.25, 0.6]),
    threshold=st.sampled_from([0.0, 0.5, 1.0]),
    invariant=st.booleans(),
)
def test_a_cut_shortlist_admits_what_the_oracle_ranks(data, minimum_score, threshold, invariant):
    pictures = data.draw(corpora())
    query = data.draw(queries(pictures))
    system = RetrievalSystem.from_pictures(
        list(pictures.values()), minimum_signature_overlap=threshold
    )
    builder = system.query(query).limit(None).min_score(minimum_score)
    if invariant:
        builder = builder.invariant()
    spec = builder.spec()
    ranked = {row["image_id"] for row in oracle(pictures, spec)}
    kept = {
        image_id
        for image_id, picture in pictures.items()
        if overlap(query, picture) >= threshold * len(query.labels)
    }
    admitted = set(system._engine.shortlist(spec).candidates)
    assert ranked & kept <= admitted <= kept


def eager_examined(system, spec, scores):
    """The candidates an eager anytime loop scores: every stage-2 bound first."""
    engine = system._engine
    outcome = engine.shortlist(spec)
    picture = spec.effective_picture()
    signature = QuerySignature(encode_picture(picture), picture.labels, spec.transformations)
    keys = []
    for image_id in outcome.candidates:
        bound = signature.score_upper_bound(
            signature_for(engine.database.get(image_id)),
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
