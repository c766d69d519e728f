"""Stage 2 of the shortlist, the boundary-LCS walk, against brute force.

:func:`boundary_lcs` walks a candidate's stored axis once and takes the
longest increasing subsequence of the query positions its symbols map to.
Three properties:

* the walk equals a textbook LCS of the two boundary sequences, for every
  transformed query variant, on valid candidate axes and on candidates made
  malformed (a begin or end missing, a boundary repeated, a boundary of an
  object the candidate lacks): only the query's symbols need be unique;
* the stage-2 score bound of a stored record is never below the score
  :func:`invariant_similarity` computes, under six policies and every
  transformation set;
* a shortlist cut by a ``min_score``, an overlap threshold or both admits
  every image the brute-force ``oracle`` of ``tests/index/test_differential.py``
  ranks and the threshold keeps, and nothing the threshold drops.
"""

import importlib.util
from collections import Counter
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.construct import encode_picture
from repro.core.similarity import (
    Combination,
    Normalization,
    SimilarityPolicy,
    invariant_similarity,
)
from repro.core.symbols import Symbol
from repro.core.transforms import Transformation, transform
from repro.datasets.synthetic import SceneParameters, random_pictures
from repro.index.database import ImageDatabase
from repro.index.shortlist import QuerySignature, boundary_lcs
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

#: Every normalisation and combination, counting all symbols or boundaries only.
_POLICIES = [
    SimilarityPolicy(),
    SimilarityPolicy(normalization=Normalization.DATABASE),
    SimilarityPolicy(normalization=Normalization.DICE, combination=Combination.MIN),
    SimilarityPolicy(combination=Combination.PRODUCT),
    SimilarityPolicy(count_boundaries_only=True),
    SimilarityPolicy(normalization=Normalization.NONE, combination=Combination.MIN),
]

#: One to four labels over up to six objects, so labels repeat; boundaries
#: snap to the grid with probability up to 0.9, so projections coincide.
_SCENES = st.builds(
    lambda seed, labels, objects, alignment: random_pictures(
        2,
        seed=seed,
        parameters=SceneParameters(
            object_count=objects,
            alignment_probability=alignment,
            labels=tuple("abcd"[:labels]),
            label_choice="random",
        ),
    ),
    st.integers(0, 2**32 - 1),
    st.integers(1, 4),
    st.integers(1, 6),
    st.floats(0.0, 0.9),
)

#: One corruption of a candidate axis: drop a begin or an end boundary,
#: repeat a boundary, or insert a boundary of one of the query's objects.
_CORRUPTIONS = st.lists(
    st.tuples(
        st.sampled_from(["drop-begin", "drop-end", "repeat", "stray"]),
        st.integers(0, 10**6),
        st.integers(0, 10**6),
    ),
    max_size=3,
)


def _boundaries(symbols):
    return [symbol for symbol in symbols if symbol.is_boundary]


def brute_force_lcs(left, right):
    """The textbook LCS length of two symbol lists."""
    previous = [0] * (len(right) + 1)
    for left_symbol in left:
        current = [0]
        for index, right_symbol in enumerate(right):
            if left_symbol == right_symbol:
                current.append(previous[index] + 1)
            else:
                current.append(max(previous[index + 1], current[index]))
        previous = current
    return previous[-1]


def overlap(query, picture):
    """The label-multiset overlap, by brute force."""
    return sum((Counter(query.labels) & Counter(picture.labels)).values())


def corrupted(symbols, corruptions, strays):
    """``symbols`` with each corruption applied; ``strays`` are symbols to insert."""
    symbols = list(symbols)
    for kind, pick, at in corruptions:
        if kind in ("repeat", "stray"):
            chosen = _boundaries(symbols) if kind == "repeat" else strays
            if chosen:
                symbols.insert(at % (len(symbols) + 1), chosen[pick % len(chosen)])
            continue
        wanted = "is_begin" if kind == "drop-begin" else "is_end"
        positions = [index for index, symbol in enumerate(symbols) if getattr(symbol, wanted)]
        if positions:
            del symbols[positions[pick % len(positions)]]
    return symbols


@settings(max_examples=150, deadline=None)
@given(scenes=_SCENES, derived=st.booleans(), corruptions=_CORRUPTIONS)
def test_the_walk_equals_a_brute_force_boundary_lcs(scenes, derived, corruptions):
    query_picture, candidate_picture = scenes
    if derived and len(query_picture.identifiers) > 1:
        # A near duplicate: the query with its last icon removed.
        candidate_picture = query_picture.remove_icon(query_picture.identifiers[-1])
    query_bestring = encode_picture(query_picture)
    candidate_bestring = encode_picture(candidate_picture)
    strays = [
        symbol
        for identifier in query_picture.identifiers
        for symbol in Symbol.boundaries(identifier)
    ]
    signature = QuerySignature(query_bestring, query_picture.labels, tuple(Transformation))
    assert [variant.transformation for variant in signature.variants] == list(Transformation)
    for variant in signature.variants:
        transformed = transform(query_bestring, variant.transformation)
        for query_axis, candidate_axis, facts in (
            (transformed.x, candidate_bestring.x, variant.x),
            (transformed.y, candidate_bestring.y, variant.y),
        ):
            candidate = corrupted(candidate_axis.symbols, corruptions, strays)
            assert boundary_lcs(facts.positions, candidate) == brute_force_lcs(
                _boundaries(query_axis.symbols), _boundaries(candidate)
            )
            assert (facts.length, facts.boundaries, facts.dummies) == (
                len(query_axis),
                query_axis.boundary_count,
                query_axis.dummy_count,
            )


@settings(max_examples=40, deadline=None)
@given(scenes=_SCENES, derived=st.booleans())
def test_the_stage_two_bound_dominates_the_score(scenes, derived):
    query_picture, candidate_picture = scenes
    if derived and len(query_picture.identifiers) > 1:
        candidate_picture = query_picture.remove_icon(query_picture.identifiers[-1])
    query_bestring = encode_picture(query_picture)
    record = ImageDatabase.encode_record(candidate_picture, "candidate")
    shared = overlap(query_picture, candidate_picture)
    for transformations in [(t,) for t in Transformation] + [tuple(Transformation)]:
        signature = QuerySignature(query_bestring, query_picture.labels, transformations)
        for policy in _POLICIES:
            score = invariant_similarity(
                query_bestring, record.bestring, policy, transformations
            ).score
            bound = signature.score_upper_bound(record, shared, policy, with_boundary_lcs=True)
            assert signature.score_upper_bound(record, shared, policy) >= bound
            assert bound + 1e-9 >= score


@st.composite
def corpora(draw):
    """Up to eight scenes over four labels, one stored twice to force ties."""
    pictures = [draw(scenes(f"img-{index:02d}")) for index in range(draw(st.integers(2, 8)))]
    twin = draw(st.sampled_from(pictures))
    pictures.append(twin.renamed("img-twin"))
    return {picture.name: picture for picture in pictures}


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    data=st.data(),
    minimum_score=st.sampled_from([0.0, 0.25, 0.6]),
    threshold=st.sampled_from([0.0, 0.5, 1.0]),
    invariant=st.booleans(),
)
def test_a_cut_shortlist_admits_what_the_oracle_ranks(data, minimum_score, threshold, invariant):
    pictures = data.draw(corpora())
    if data.draw(st.booleans()):
        query = data.draw(st.sampled_from(sorted(pictures.values(), key=lambda p: p.name)))
    else:
        query = data.draw(scenes("query"))
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
