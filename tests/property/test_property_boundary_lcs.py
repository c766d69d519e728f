"""The stage-2 shortlist bound against a brute-force boundary LCS.

On one axis of a valid BE-string every boundary symbol occurs once, so
:func:`boundary_lcs` -- the longest increasing subsequence of a candidate's
positions of the query's boundary symbols -- must equal the longest common
subsequence of the two boundary-only symbol lists.  Two properties:

* over generated valid scenes with repeated labels and snapped boundaries,
  every transformation and six similarity policies, the LIS equals a
  brute-force LCS on each axis, and the stage-2 score bound is at least
  the score :func:`invariant_similarity` computes;
* over candidates made malformed (a begin or end missing on either axis, or
  a repeated boundary), where an LIS can undercount, the stage-2 bound is
  still at least the score a brute-force boundary LCS would earn.
"""

from hypothesis import given, settings, strategies as st

from repro.core.bestring import AxisBEString, BEString2D
from repro.core.construct import encode_picture
from repro.core.similarity import (
    Combination,
    Normalization,
    SimilarityPolicy,
    combined_value,
    invariant_similarity,
    normalized_value,
)
from repro.core.transforms import Transformation, transform
from repro.datasets.synthetic import SceneParameters, random_pictures
from repro.index.shortlist import (
    ImageSignature,
    QuerySignature,
    boundary_lcs,
    boundary_sequence,
)

#: The six policies of ``tests/index/test_shortlist.py``: every
#: normalisation and combination, counting all symbols or boundaries only.
_POLICIES = [
    SimilarityPolicy(),
    SimilarityPolicy(normalization=Normalization.DATABASE),
    SimilarityPolicy(normalization=Normalization.DICE, combination=Combination.MIN),
    SimilarityPolicy(combination=Combination.PRODUCT),
    SimilarityPolicy(count_boundaries_only=True),
    SimilarityPolicy(normalization=Normalization.NONE, combination=Combination.MIN),
]

#: Every boundary-counting policy: the score is a function of the boundary
#: LCS of each axis alone.
_BOUNDARY_POLICIES = [
    SimilarityPolicy(
        count_boundaries_only=True, normalization=normalization, combination=combination
    )
    for normalization in Normalization
    for combination in Combination
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


def _boundaries(axis):
    return [symbol for symbol in axis.symbols if symbol.is_boundary]


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


def stage_two_bound(query_bestring, query_labels, candidate, transformations, policy):
    signature = QuerySignature(query_bestring, query_labels, transformations)
    overlap = signature.exact_overlap(candidate)
    return signature.score_upper_bound(candidate, overlap, policy, with_boundary_lcs=True)


@settings(max_examples=40, deadline=None)
@given(scenes=_SCENES, derived=st.booleans())
def test_boundary_lcs_is_exact_and_the_bound_dominates_the_score(scenes, derived):
    query_picture, candidate_picture = scenes
    if derived and len(query_picture.identifiers) > 1:
        # A near duplicate: the query with its last icon removed.
        candidate_picture = query_picture.remove_icon(query_picture.identifiers[-1])
    query_bestring = encode_picture(query_picture)
    candidate_bestring = encode_picture(candidate_picture)
    candidate = ImageSignature.from_bestring(candidate_bestring, candidate_picture.labels)
    for transformation in Transformation:
        transformed = transform(query_bestring, transformation)
        for query_axis, candidate_axis, facts in (
            (transformed.x, candidate_bestring.x, candidate.x),
            (transformed.y, candidate_bestring.y, candidate.y),
        ):
            assert boundary_lcs(boundary_sequence(query_axis), facts) == brute_force_lcs(
                _boundaries(query_axis), _boundaries(candidate_axis)
            )
    for policy in _POLICIES:
        for transformations in [(t,) for t in Transformation] + [tuple(Transformation)]:
            score = invariant_similarity(
                query_bestring, candidate_bestring, policy, transformations
            ).score
            bound = stage_two_bound(
                query_bestring, query_picture.labels, candidate, transformations, policy
            )
            assert bound + 1e-9 >= score


#: One corruption of a candidate axis: drop a begin or an end boundary, or
#: repeat a boundary symbol at another position.
_CORRUPTIONS = st.lists(
    st.tuples(
        st.sampled_from(["drop-begin", "drop-end", "repeat"]),
        st.sampled_from(["x", "y"]),
        st.integers(0, 10**6),
        st.integers(0, 10**6),
    ),
    min_size=1,
    max_size=2,
)


def corrupted(bestring, corruptions):
    """``bestring`` with each corruption applied to its named axis."""
    axes = {"x": list(bestring.x.symbols), "y": list(bestring.y.symbols)}
    for kind, name, pick, at in corruptions:
        symbols = axes[name]
        if kind == "repeat":
            chosen = [symbol for symbol in symbols if symbol.is_boundary]
            if chosen:
                symbols.insert(at % (len(symbols) + 1), chosen[pick % len(chosen)])
            continue
        wanted = "is_begin" if kind == "drop-begin" else "is_end"
        positions = [index for index, symbol in enumerate(symbols) if getattr(symbol, wanted)]
        if positions:
            del symbols[positions[pick % len(positions)]]
    return BEString2D(AxisBEString(axes["x"]), AxisBEString(axes["y"]))


def boundary_reference(query_bestring, candidate_bestring, policy):
    """The score a brute-force boundary LCS of each axis earns under ``policy``."""
    values = [
        normalized_value(
            brute_force_lcs(_boundaries(query_axis), _boundaries(candidate_axis)),
            query_axis.boundary_count,
            candidate_axis.boundary_count,
            policy.normalization,
        )
        for query_axis, candidate_axis in (
            (query_bestring.x, candidate_bestring.x),
            (query_bestring.y, candidate_bestring.y),
        )
    ]
    return combined_value(values[0], values[1], policy.combination)


@settings(max_examples=150, deadline=None)
@given(scenes=_SCENES, same=st.booleans(), corruptions=_CORRUPTIONS)
def test_the_bound_of_a_malformed_candidate_dominates_its_boundary_lcs(
    scenes, same, corruptions
):
    query_picture, candidate_picture = scenes
    if same:
        candidate_picture = query_picture
    query_bestring = encode_picture(query_picture)
    candidate_bestring = corrupted(encode_picture(candidate_picture), corruptions)
    candidate = ImageSignature.from_bestring(candidate_bestring, candidate_picture.labels)
    for transformation in Transformation:
        transformed = transform(query_bestring, transformation)
        for policy in _BOUNDARY_POLICIES:
            bound = stage_two_bound(
                query_bestring, query_picture.labels, candidate, (transformation,), policy
            )
            assert bound + 1e-9 >= boundary_reference(transformed, candidate_bestring, policy)
