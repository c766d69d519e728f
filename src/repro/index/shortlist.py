"""The two-stage shortlist: label-tally and boundary-LCS score bounds.

At 50k images the inverted symbol index still admits thousands of candidates
on realistic label distributions, and every admitted candidate used to pay a
``Counter`` intersection followed by the O(mn) LCS dynamic program.  This
module makes the shortlist *precise* by rejecting candidates whose best
achievable score provably cannot clear the query's ``min_score``, and keeps
no per-record index to do so: both stages read what the engine stores
anyway, the postings and each record's validated BE-string.

* **Stage 1 — the postings tally.**  Merging the query's postings counts,
  per candidate, the query's labels it holds
  (:meth:`~repro.index.inverted.InvertedSymbolIndex.candidates`).  The
  tally bounds the label-multiset overlap from above, so it upper-bounds
  both the legacy overlap-ratio threshold and (coarsely) the LCS score,
  with no per-candidate work beyond the merge.
* **Stage 2 — the boundary LCS.**  On one axis of a query's BE-string every
  boundary symbol occurs exactly once, so a common subsequence of the
  query's and a candidate's boundary symbols is an increasing run of query
  positions read in the candidate's order, and the longest common
  subsequence is the longest increasing subsequence of those positions
  (Hunt & Szymanski, "A fast algorithm for computing longest common
  subsequences", CACM 1977).  :func:`boundary_lcs` walks the candidate's
  stored axis once, mapping each symbol's text to its query position, and
  finds the LIS in O(n log s).  Only the query's symbols need be unique, so
  the walk is exact on any candidate string.  It bounds the boundary
  symbols of the axis LCS exactly, and with the dummy counts its length.
  The resulting score bound is evaluated per query transformation and the
  best variant is compared against ``min_score``.

Both stages are *conservative*: a candidate is rejected only when its score
upper bound is strictly below the query's ``minimum_score`` (or its exact
label-multiset overlap ratio is below the engine's
``minimum_overlap_ratio``).  Rankings are
therefore byte-identical to a filter-disabled scan cut at the same
``minimum_score``; ``benchmarks/bench_signature.py`` (E14) asserts this at
10k+ images together with the ≥5x serial speedup.  See ``docs/shortlist.md``
for the guarantees.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core.bestring import AxisBEString, BEString2D
from repro.core.similarity import (
    Normalization,
    SimilarityPolicy,
    combined_value,
    normalized_value,
)
from repro.core.symbols import Symbol
from repro.core.transforms import Transformation, transform
from repro.index.inverted import count_labels

#: How many pruned candidates a single query records into its trace (the
#: full rejection counts are always tracked; only the per-candidate sample
#: shown by ``explain`` is capped, so a 50k-image prune cannot bloat traces).
REJECTION_SAMPLE_LIMIT = 32


#: What a score bound reads of a candidate: its x and y symbols and the
#: boundary count of each axis.
CandidateAxes = Tuple[Tuple[Symbol, ...], Tuple[Symbol, ...], int]


def signature_for(record: Any) -> CandidateAxes:
    """What the score bounds read of a stored record, derived on each call.

    A stored record is always a validated encoding of its picture, so each
    axis holds one begin and one end per icon and its dummies are the rest
    of its symbols.  Nothing is cached on the record, so a load builds
    nothing for the shortlist and an edit leaves nothing stale.
    """
    bestring = record.bestring
    return bestring.x.symbols, bestring.y.symbols, 2 * len(record.picture.icons)


# ----------------------------------------------------------------------
# Score upper bounds
# ----------------------------------------------------------------------
def boundary_lcs(positions: Mapping[str, int], symbols: Sequence[Symbol]) -> int:
    """The LCS of a query axis's boundary symbols and those of ``symbols``.

    ``positions`` maps the text of each boundary symbol of the query axis to
    its place in the query's boundary sequence; each symbol occurs there
    once, as on every valid axis.  The candidate's ``symbols`` are walked
    once in their stored order, and the longest strictly increasing
    subsequence of the positions they map to is found by patience sorting.
    An increasing run of query positions in candidate order is a common
    subsequence and the converse holds, so the length is the boundary LCS
    on any candidate string, with repeated, missing or unpaired boundaries
    included.  A dummy's text is never a boundary symbol's, so dummies map
    to nothing.
    """
    get = positions.get
    tails: List[int] = []
    for symbol in symbols:
        position = get(symbol.text)
        if position is None:
            continue
        if tails and position <= tails[-1]:
            tails[bisect_left(tails, position)] = position
        else:
            tails.append(position)
    return len(tails)


@dataclass(frozen=True)
class _QueryAxis:
    """One axis of a transformed query, as the score bounds read it."""

    #: Text of each boundary symbol -> its place in the boundary sequence.
    positions: Dict[str, int]
    #: Total symbol count of the axis string.
    length: int
    #: Number of boundary symbols (``2 * objects``).
    boundaries: int
    #: Number of dummy objects ``E``.
    dummies: int

    @classmethod
    def from_axis(cls, axis: AxisBEString) -> "_QueryAxis":
        """The query-side facts of ``axis``, a valid axis string."""
        sequence = [symbol for symbol in axis.symbols if symbol.identifier is not None]
        positions = {symbol.text: place for place, symbol in enumerate(sequence)}
        return cls(positions, len(axis), len(sequence), len(axis) - len(sequence))


def axis_score_bound(
    query: _QueryAxis,
    length: int,
    boundaries: int,
    boundary: int,
    policy: SimilarityPolicy,
) -> float:
    """Policy-normalised upper bound on one axis similarity value.

    ``length`` and ``boundaries`` are the candidate axis's symbol and
    boundary counts, and ``boundary`` bounds the boundary symbols of the
    axis LCS; both strings' boundary counts cap it too.  Dummies in the LCS
    are capped by both strings' dummy counts and — because the modified LCS
    suppresses consecutive dummies — by the boundary bound plus one.
    """
    boundary = min(boundary, query.boundaries, boundaries)
    if policy.count_boundaries_only:
        raw = float(boundary)
        query_side, candidate_side = float(query.boundaries), float(boundaries)
    else:
        dummies = min(query.dummies, length - boundaries, boundary + 1)
        raw = float(min(query.length, length, boundary + dummies))
        query_side, candidate_side = float(query.length), float(length)
    # The exact arithmetic the scoring side uses (shared helper), so the
    # bound can never drift from what it must dominate.
    return normalized_value(raw, query_side, candidate_side, policy.normalization)


@dataclass(frozen=True)
class _QueryVariant:
    """One transformation of the query, as the score bounds read it."""

    transformation: Transformation
    x: _QueryAxis
    y: _QueryAxis


#: The normalisations that divide by no candidate side.  Under them a
#: tally's score bound needs no candidate field.
_QUERY_SIDE = (Normalization.QUERY, Normalization.NONE)


class QuerySignature:
    """Per-query precomputation consumed by both shortlist stages.

    Built once per query execution: the label multiset (stage 1 reads the
    postings tally against it) and, for every transformation in the query's
    set, the boundary positions and symbol counts of each axis of the
    *transformed* query string (stage 2) — so the bound is evaluated exactly
    against what :func:`~repro.core.similarity.invariant_similarity` would
    score, and the maximum over variants is a sound bound for
    transformation-invariant retrieval.  A candidate is read as the stored
    :class:`~repro.index.database.ImageRecord` itself, through
    :func:`signature_for`.
    """

    def __init__(
        self,
        bestring: BEString2D,
        labels: Iterable[str],
        transformations: Iterable[Transformation] = (Transformation.IDENTITY,),
    ) -> None:
        """Precompute the query-side signature state."""
        self.label_counts = count_labels(labels)
        self.total_labels = sum(self.label_counts.values())
        #: The policy :attr:`_tally_bounds` was built for.
        self._tally_policy: Optional[SimilarityPolicy] = None
        #: The stage-1 score bound of each tally ``0..total_labels`` under
        #: :attr:`_tally_policy`, built on first use.
        self._tally_bounds: List[float] = []
        self.variants: List[_QueryVariant] = []
        for transformation in dict.fromkeys(transformations):
            transformed = transform(bestring, transformation)
            self.variants.append(
                _QueryVariant(
                    transformation,
                    _QueryAxis.from_axis(transformed.x),
                    _QueryAxis.from_axis(transformed.y),
                )
            )

    def overlap_upper_bound(self, candidate: Any, tally: int, policy: SimilarityPolicy) -> float:
        """Stage-1 score bound of a candidate record whose postings tally is ``tally``.

        The tally bounds the label-multiset overlap, so each axis LCS holds
        at most ``2 * tally`` boundary symbols.  Under the query or no
        normalisation the bound also drops the candidate's own caps: it
        reads no candidate field, and one table indexed by tally serves
        the query.  Under the database or Dice normalisation it is
        :meth:`score_upper_bound` of the candidate.  Either way it is at
        least the candidate's stage-2 bound.

        The name is that of the bitmap overlap bound this replaced: the
        profile benchmark's tracer (``benchmarks/profile/trace.py``) wraps
        it and fails without it, until the harness reads the engine's own
        counters instead of patching names (ROADMAP item 1).
        """
        if policy.normalization not in _QUERY_SIDE:
            return self.score_upper_bound(candidate, tally, policy)
        if policy is not self._tally_policy:
            self._tally_policy = policy
            self._tally_bounds = [
                self._candidate_free_bound(overlap, policy)
                for overlap in range(self.total_labels + 1)
            ]
        # The overlap never exceeds the query's own label count.
        return self._tally_bounds[min(tally, self.total_labels)]

    def _candidate_free_bound(self, overlap: int, policy: SimilarityPolicy) -> float:
        """The coarse score bound at ``overlap`` without the candidate's caps.

        Each query variant's axes stand in for the candidate's: a query-side
        normalisation reads no candidate side, and the query's caps are
        looser than the minimum over both strings.
        """
        best = 0.0
        for variant in self.variants:
            x, y = variant.x, variant.y
            score = combined_value(
                axis_score_bound(x, x.length, x.boundaries, 2 * overlap, policy),
                axis_score_bound(y, y.length, y.boundaries, 2 * overlap, policy),
                policy.combination,
            )
            if score > best:
                best = score
        return best

    def exact_overlap(self, label_counts: Mapping[str, int]) -> int:
        """The exact label-multiset overlap with a candidate's ``label -> count`` map.

        The engine passes the map its inverted index keeps per image
        (:meth:`~repro.index.inverted.InvertedSymbolIndex.label_counts`).
        """
        get = label_counts.get
        return sum(min(count, get(label, 0)) for label, count in self.label_counts.items())

    def score_upper_bound(
        self,
        candidate: Any,
        overlap: int,
        policy: SimilarityPolicy,
        with_boundary_lcs: bool = False,
    ) -> float:
        """Upper bound on a candidate record's similarity score over all query transformations.

        Each common object contributes at most its begin and end to an axis
        LCS, so ``2 * overlap`` bounds its boundary symbols, ``overlap``
        being a bound on the label-multiset overlap: the postings tally or
        the exact overlap.  ``with_boundary_lcs=True`` bounds them by
        :func:`boundary_lcs` of each axis instead (stage 2), which is exact,
        so there the overlap is not read.
        """
        x, y, boundaries = signature_for(candidate)
        x_length, y_length = len(x), len(y)
        cap = 2 * overlap
        best = 0.0
        for variant in self.variants:
            query_x, query_y = variant.x, variant.y
            if with_boundary_lcs:
                x_boundary = boundary_lcs(query_x.positions, x)
                y_boundary = boundary_lcs(query_y.positions, y)
            else:
                x_boundary = y_boundary = cap
            score = combined_value(
                axis_score_bound(query_x, x_length, boundaries, x_boundary, policy),
                axis_score_bound(query_y, y_length, boundaries, y_boundary, policy),
                policy.combination,
            )
            if score > best:
                best = score
        return best


# ----------------------------------------------------------------------
# Shortlist outcome and its /stats snapshot
# ----------------------------------------------------------------------
@dataclass
class ShortlistOutcome:
    """What one shortlist pass decided (consumed by traces and reports)."""

    candidates: List[str]
    stage: str
    inverted_candidates: Optional[int] = None
    #: Stage-1 (postings-tally) rejections: the overlap threshold and the
    #: tally's score bound.  The name is the label bitmap's, which stage 1
    #: read before; ``/stats`` and the profile benchmark read it by name.
    bitmap_rejected: int = 0
    relation_rejected: int = 0
    #: The postings tally of every candidate that shares a label with the
    #: query (image id -> tally), admitted or not; empty on a full scan.
    tallies: Dict[str, int] = field(default_factory=dict)
    #: Sampled rejections (image id -> rejecting stage constant), capped at
    #: :data:`REJECTION_SAMPLE_LIMIT` entries for ``explain`` output.
    rejections: Dict[str, str] = field(default_factory=dict)
    #: Score bound of each sampled rejection (image id -> bound).
    rejection_bounds: Dict[str, float] = field(default_factory=dict)
    #: Stage-2 score bound of every *admitted* candidate (image id ->
    #: bound) when the pass made a minimum-score cut, which computes them
    #: anyway; the candidate loop queues them instead of bounding twice.
    #: Empty when the pass made no such cut.
    bounds: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class ShortlistStatistics:
    """Cumulative shortlist counters (surfaced by the service ``/stats``)."""

    queries: int
    candidates: int
    #: Stage-1 (postings-tally) rejections, under the bitmap's old name.
    bitmap_rejected: int
    relation_rejected: int
    admitted: int

    @property
    def pruned_fraction(self) -> float:
        """Fraction of shortlist candidates rejected before scoring."""
        if not self.candidates:
            return 0.0
        return (self.bitmap_rejected + self.relation_rejected) / self.candidates



# ----------------------------------------------------------------------
# Graded predicate-tree degree bound
# ----------------------------------------------------------------------
def tree_degree_bound(tree: Any, has_label) -> float:
    """A sound upper bound on a predicate tree's degree for one image.

    ``has_label(label) -> bool`` is any label-presence oracle that never
    returns ``False`` for a label the image actually contains; the engine
    asks the inverted index's postings, which are exact.

    Proof sketch (structural induction over the AST):

    * **Crisp leaf** — its degree is 1 only if some subject/target instance
      pair satisfies the relation, which requires both labels to be present;
      if either is reported absent the true degree is exactly 0, so 0 is a
      (tight) upper bound.  Labels reported present bound at 1, the
      trivial top.
    * **Fuzzy leaf** — the boundary-distance degree can be arbitrarily close
      to 1 for *any* present pair, and the oracle cannot see geometry, so
      fuzzy leaves fail open at 1 (per the spec in ``docs/predicates.md``).
    * **``not``** — the child bound upper-bounds the child's degree, but
      ``1 - child`` needs a *lower* bound on the child to stay sound; the
      oracle only proves absences, so negation admits all (bound 1).
    * **``or``** — degree is ``max`` over children; ``max`` of sound child
      bounds upper-bounds the ``max`` of true degrees (monotone).
    * **``and``** — degree is the weighted mean of the children; the
      weighted mean is monotone in every argument, so the mean of sound
      child bounds upper-bounds the mean of true degrees.

    Corollary used by the engine: a total bound of 0 is only reachable when
    every leaf in the tree is crisp with an absent label (``not`` bounds at
    1 and fuzzy leaves at 1, so neither can appear on a 0-bound path), hence
    the true degree — and every true leaf degree — is exactly 0 and a
    synthesized zero match is byte-exact, never lossy.
    """
    from repro.retrieval.predicates import And, Leaf, Not, Or

    if isinstance(tree, Leaf):
        if tree.fuzzy:
            return 1.0
        predicate = tree.predicate
        if has_label(predicate.subject) and has_label(predicate.target):
            return 1.0
        return 0.0
    if isinstance(tree, Not):
        return 1.0
    if isinstance(tree, Or):
        return max(tree_degree_bound(child, has_label) for child in tree.children)
    if isinstance(tree, And):
        total = 0.0
        bounded = 0.0
        for child in tree.children:
            weight = child.weight if isinstance(child, Leaf) else 1.0
            total += weight
            bounded += weight * tree_degree_bound(child, has_label)
        return bounded / total if total else 1.0
    raise TypeError(f"not a predicate tree node: {type(tree).__name__}")
