"""The two-stage signature shortlist: bitmap and boundary-order score bounds.

At 50k images the inverted symbol index still admits thousands of candidates
on realistic label distributions, and every admitted candidate used to pay a
``Counter`` intersection followed by the O(mn) LCS dynamic program.  This
module makes the shortlist *precise* by deriving a compact
:class:`ImageSignature` for every stored record from its validated BE-string
(when the engine is built and on every insert or edit; signatures are never
persisted) and rejecting candidates whose best achievable score provably
cannot clear the query's ``min_score``:

* **Stage 1 — label bitmaps.**  Every label hashes (stable CRC-32) to one bit
  of a fixed-width bitmap.  A single integer AND plus a popcount-style walk of
  the query's set bits yields an upper bound on the label-multiset overlap —
  no per-candidate ``Counter`` intersection — which upper-bounds both the
  legacy overlap-ratio threshold and (coarsely) the LCS score.
* **Stage 2 — the boundary LCS.**  On one axis of a valid BE-string every
  boundary symbol occurs exactly once, so the longest common subsequence of
  the query's and a candidate's boundary symbols is the longest increasing
  subsequence of the candidate's positions of the shared symbols, taken in
  query order (Hunt & Szymanski, "A fast algorithm for computing longest
  common subsequences", CACM 1977).  The signature keeps each object's
  begin and end position, so :func:`boundary_lcs` costs O(s log s) for s
  shared symbols.  It bounds the boundary symbols of the axis LCS exactly,
  and with the dummy counts its length.  The resulting score bound is
  evaluated per query transformation and the best variant is compared
  against ``min_score``.

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

import zlib
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.bestring import AxisBEString, BEString2D
from repro.core.similarity import SimilarityPolicy, combined_value, normalized_value
from repro.core.symbols import BoundaryKind, Symbol
from repro.core.transforms import Transformation, transform
from repro.iconic.icon import BOUNDARY_INTERN_LIMIT, BOUNDARY_INTERN_MAX_LENGTH

#: Default width (in bits) of the hashed label bitmap.
DEFAULT_BITMAP_WIDTH = 128

#: How many pruned candidates a single query records into its trace (the
#: full rejection counts are always tracked; only the per-candidate sample
#: shown by ``explain`` is capped, so a 50k-image prune cannot bloat traces).
REJECTION_SAMPLE_LIMIT = 32


#: The bitmap mask (``1 << bit``) at :data:`DEFAULT_BITMAP_WIDTH` of each
#: label :func:`label_bitmap` has seen, bounded like the boundary-symbol
#: table of :meth:`~repro.core.symbols.Symbol.boundaries`: at most
#: ``BOUNDARY_INTERN_LIMIT`` labels of at most ``BOUNDARY_INTERN_MAX_LENGTH``
#: characters, emptied when full.
_LABEL_MASKS: Dict[str, int] = {}


def label_bit(label: str, width: int = DEFAULT_BITMAP_WIDTH) -> int:
    """The bitmap bit a label hashes to (stable CRC-32, like the shard hash).

    The bit is the CRC-32 of the label's UTF-8 bytes modulo ``width``.
    """
    return zlib.crc32(label.encode("utf-8")) % width


def label_bitmap(labels: Iterable[str], width: int = DEFAULT_BITMAP_WIDTH) -> int:
    """The bit-packed bitmap of a label collection.

    At the default width, the one every stored record's signature uses,
    each label's mask is remembered in a bounded table, so a load hashes
    each distinct label and builds its mask once.
    """
    bitmap = 0
    if width != DEFAULT_BITMAP_WIDTH:
        for label in labels:
            bitmap |= 1 << label_bit(label, width)
        return bitmap
    masks = _LABEL_MASKS
    for label in labels:
        mask = masks.get(label)
        if mask is None:
            mask = 1 << label_bit(label)
            if len(label) <= BOUNDARY_INTERN_MAX_LENGTH:
                if len(masks) >= BOUNDARY_INTERN_LIMIT:
                    masks.clear()
                masks[label] = mask
        bitmap |= mask
    return bitmap


def count_labels(labels: Iterable[str]) -> Dict[str, int]:
    """The label multiset as a plain ``label -> count`` dict."""
    counts: Dict[str, int] = {}
    for label in labels:
        if label in counts:
            counts[label] += 1
        else:
            counts[label] = 1
    return counts


#: The begin kind, bound once for the axis walk rather than looked up on
#: the enum per symbol.
_BEGIN = BoundaryKind.BEGIN

#: Symbol positions indexed by slot: ``bytes`` for an axis of at most 256
#: symbols (every position fits in a byte), a tuple of ints otherwise.
Positions = Union[bytes, Tuple[int, ...]]


@dataclass(frozen=True, init=False)
class AxisSignature:
    """Shortlist-relevant facts about one axis BE-string.

    The signature keeps each object's begin and end position, from which
    :func:`boundary_lcs` reads a candidate's position of every boundary
    symbol a query holds.  Each object has a *slot*, its index into
    :attr:`begins` and :attr:`ends`; an image's x and y signatures share
    one slot table.  A value record (see ``docs/architecture.md``, "Value
    records").
    """

    __slots__ = ("length", "boundaries", "dummies", "slots", "begins", "ends")

    #: Total symbol count of the axis string.
    length: int
    #: Number of boundary symbols (``2 * objects`` for a valid string).
    boundaries: int
    #: Number of dummy objects ``E``.
    dummies: int
    #: Slot of each object, numbered in order of first appearance (on the
    #: x axis, for an image's signature).  An object missing a begin or an
    #: end on any axis the table was built from has no slot, so none of its
    #: boundary symbols has a position.
    slots: Dict[str, int]
    #: Symbol index of each slot's begin boundary.
    begins: Positions
    #: Symbol index of each slot's end boundary.
    ends: Positions

    def __init__(
        self,
        length: int,
        boundaries: int,
        dummies: int,
        slots: Dict[str, int],
        begins: Positions,
        ends: Positions,
    ) -> None:
        _set_length(self, length)
        _set_boundaries(self, boundaries)
        _set_dummies(self, dummies)
        _set_slots(self, slots)
        _set_begins(self, begins)
        _set_ends(self, ends)

    def __reduce__(
        self,
    ) -> Tuple[type, Tuple[int, int, int, Dict[str, int], Positions, Positions]]:
        return (
            type(self),
            (self.length, self.boundaries, self.dummies, self.slots, self.begins, self.ends),
        )

    @classmethod
    def from_axis(cls, axis: AxisBEString) -> "AxisSignature":
        """Extract the signature of one axis string in one walk over its symbols.

        A repeated boundary keeps its last position; an object without both
        a begin and an end gets no slot.
        """
        return _axis_signatures(axis)[0]


# The frozen ``__setattr__`` refuses every assignment, so ``__init__`` sets
# each slot through its member descriptor.
_set_length = AxisSignature.length.__set__
_set_boundaries = AxisSignature.boundaries.__set__
_set_dummies = AxisSignature.dummies.__set__
_set_slots = AxisSignature.slots.__set__
_set_begins = AxisSignature.begins.__set__
_set_ends = AxisSignature.ends.__set__


#: One axis walked by :func:`_walk`: ``(length, dummies, begins, ends)``,
#: the positions indexed by slot and -1 where the axis lacks a boundary.
_Walk = Tuple[int, int, List[int], List[int]]


def _axis_signatures(*axes: AxisBEString) -> List[AxisSignature]:
    """The signatures of ``axes``, sharing one slot table.

    Each axis is walked once; slots number the objects in order of first
    appearance, the first axis first.  An object missing a begin or an end
    on any axis gets no slot, so it takes part in no pair on any of them.
    """
    slots: Dict[str, int] = {}
    # A loop, not a comprehension: on Python 3.11 the comprehension's own
    # frame cost about 3% of a load's signature stage.
    walks = []
    for axis in axes:
        walks.append(_walk(axis.symbols, slots))
    for _, _, begins, ends in walks:
        # A walk made before a later axis added slots is short.
        if len(begins) < len(slots) or -1 in begins or -1 in ends:
            slots, walks = _complete(slots, walks)
            break
    signatures = []
    for length, dummies, begins, ends in walks:
        pack = bytes if length <= 256 else tuple
        signatures.append(
            AxisSignature(length, length - dummies, dummies, slots, pack(begins), pack(ends))
        )
    return signatures


def _walk(symbols: Sequence[Symbol], slots: Dict[str, int]) -> _Walk:
    """One walk over an axis, giving each identifier not yet in ``slots`` the next slot.

    A repeated boundary keeps its last position.
    """
    begins = [-1] * len(slots)
    ends = [-1] * len(slots)
    dummies = 0
    for position, symbol in enumerate(symbols):
        identifier = symbol.identifier
        if identifier is None:
            dummies += 1
        elif identifier in slots:
            if symbol.kind is _BEGIN:
                begins[slots[identifier]] = position
            else:
                ends[slots[identifier]] = position
        else:
            slots[identifier] = len(begins)
            if symbol.kind is _BEGIN:
                begins.append(position)
                ends.append(-1)
            else:
                begins.append(-1)
                ends.append(position)
    return len(symbols), dummies, begins, ends


def _complete(slots: Dict[str, int], walks: List[_Walk]) -> Tuple[Dict[str, int], List[_Walk]]:
    """Drop every slot some walk lacks a boundary of, renumbering the rest."""
    kept = [
        slot
        for slot in range(len(slots))
        if all(
            slot < len(begins) and begins[slot] >= 0 and ends[slot] >= 0
            for _, _, begins, ends in walks
        )
    ]
    identifiers = list(slots)
    return (
        {identifiers[slot]: index for index, slot in enumerate(kept)},
        [
            (length, dummies, [begins[slot] for slot in kept], [ends[slot] for slot in kept])
            for length, dummies, begins, ends in walks
        ],
    )


@dataclass(frozen=True, init=False)
class ImageSignature:
    """The shortlist signature of one stored image.

    Carries the hashed label bitmap (stage 1) and the per-axis boundary
    positions (stage 2).  Signatures are derived data, built from the record's
    validated BE-string and never persisted: a stored copy could disagree
    with the string it claims to describe and silently prune a true match.
    A value record (see ``docs/architecture.md``, "Value records").
    """

    __slots__ = ("width", "bitmap", "label_counts", "x", "y")

    width: int
    bitmap: int
    #: The image's label multiset.  The engine's inverted index holds this
    #: same dict for the image, so a record's labels are counted once.
    label_counts: Dict[str, int]
    x: AxisSignature
    y: AxisSignature

    def __init__(
        self,
        width: int,
        bitmap: int,
        label_counts: Dict[str, int],
        x: AxisSignature,
        y: AxisSignature,
    ) -> None:
        _set_width(self, width)
        _set_bitmap(self, bitmap)
        _set_label_counts(self, label_counts)
        _set_x(self, x)
        _set_y(self, y)

    def __reduce__(
        self,
    ) -> Tuple[type, Tuple[int, int, Dict[str, int], AxisSignature, AxisSignature]]:
        return (type(self), (self.width, self.bitmap, self.label_counts, self.x, self.y))

    @classmethod
    def from_bestring(
        cls,
        bestring: BEString2D,
        labels: Iterable[str],
        width: int = DEFAULT_BITMAP_WIDTH,
    ) -> "ImageSignature":
        """Build the signature of an image from its BE-string and labels.

        Every stored record's signature -- at load, on insert and after an
        edit -- is derived here, through :func:`signature_for`.  The x and
        y signatures share one slot table, numbered in order of first
        appearance on the x axis, so equal BE-strings give equal signatures.
        """
        counts = count_labels(labels)
        x, y = _axis_signatures(bestring.x, bestring.y)
        return cls(width, label_bitmap(counts, width), counts, x, y)


_set_width = ImageSignature.width.__set__
_set_bitmap = ImageSignature.bitmap.__set__
_set_label_counts = ImageSignature.label_counts.__set__
_set_x = ImageSignature.x.__set__
_set_y = ImageSignature.y.__set__


def signature_for(record: Any) -> ImageSignature:
    """The cached signature of an :class:`~repro.index.database.ImageRecord`.

    Computes and caches the signature on the record when missing.  The
    assignment is idempotent, so the benign race of two concurrent readers
    computing the same signature is harmless.

    Returns:
        The record's :class:`ImageSignature` at :data:`DEFAULT_BITMAP_WIDTH`.
    """
    signature = record.signature
    if signature is None:
        signature = ImageSignature.from_bestring(record.bestring, record.picture.labels)
        record.signature = signature
    return signature


# ----------------------------------------------------------------------
# Score upper bounds
# ----------------------------------------------------------------------
#: One query axis's boundary symbols in order, as ``(identifier, is_begin)``
#: pairs; dummies are left out.
BoundarySequence = Tuple[Tuple[str, bool], ...]


def boundary_sequence(axis: AxisBEString) -> BoundarySequence:
    """The boundary symbols of ``axis`` in order, as ``(identifier, is_begin)`` pairs."""
    return tuple(
        (symbol.identifier, symbol.kind is _BEGIN)
        for symbol in axis.symbols
        if symbol.identifier is not None
    )


def boundary_lcs(sequence: BoundarySequence, candidate: AxisSignature) -> int:
    """The longest increasing subsequence of the candidate's positions of ``sequence``.

    Each symbol of ``sequence`` the candidate holds is mapped to its
    position, read through the object's slot, and the LIS of those
    positions is found by patience sorting in O(s log s) for s shared
    symbols.  When each of the candidate's boundary symbols has exactly one
    slotted position (``candidate.boundaries == 2 * len(candidate.slots)``,
    as on every valid BE-string), this is the length of the longest common
    subsequence of ``sequence`` and the candidate's boundary symbols.
    Otherwise it can undercount, so it is no bound there.
    """
    slots = candidate.slots
    begins = candidate.begins
    ends = candidate.ends
    tails: List[int] = []
    for identifier, is_begin in sequence:
        slot = slots.get(identifier)
        if slot is not None:
            position = begins[slot] if is_begin else ends[slot]
            if not tails or position > tails[-1]:
                tails.append(position)
            else:
                tails[bisect_left(tails, position)] = position
    return len(tails)


def _axis_bounds(query: AxisSignature, candidate: AxisSignature, boundary: int) -> Tuple[int, int]:
    """``(lcs_length_bound, boundary_bound)`` for one axis.

    ``boundary`` bounds the boundary symbols of the axis LCS; both strings'
    boundary counts cap it too.  Dummies in the LCS are capped by both
    strings' dummy counts and — because the modified LCS suppresses
    consecutive dummies — by ``boundary_bound + 1``.
    """
    boundary = min(boundary, query.boundaries, candidate.boundaries)
    dummies = min(query.dummies, candidate.dummies, boundary + 1)
    return min(query.length, candidate.length, boundary + dummies), boundary


def axis_score_bound(
    query: AxisSignature,
    candidate: AxisSignature,
    boundary: int,
    policy: SimilarityPolicy,
) -> float:
    """Policy-normalised upper bound on one axis similarity value.

    ``boundary`` bounds the boundary symbols of the axis LCS.
    """
    length_bound, boundary_bound = _axis_bounds(query, candidate, boundary)
    if policy.count_boundaries_only:
        raw = float(boundary_bound)
        query_side, candidate_side = float(query.boundaries), float(candidate.boundaries)
    else:
        raw = float(length_bound)
        query_side, candidate_side = float(query.length), float(candidate.length)
    # The exact arithmetic the scoring side uses (shared helper), so the
    # bound can never drift from what it must dominate.
    return normalized_value(raw, query_side, candidate_side, policy.normalization)


@dataclass(frozen=True)
class _QueryVariant:
    """Per-transformation view of the query's axis signatures."""

    transformation: Transformation
    x: AxisSignature
    y: AxisSignature
    #: The transformed query's boundary symbols per axis, computed once per
    #: query and mapped by :func:`boundary_lcs` per candidate.
    x_sequence: BoundarySequence
    y_sequence: BoundarySequence


class QuerySignature:
    """Per-query precomputation consumed by both shortlist stages.

    Built once per query execution: the hashed bitmap with per-bit label
    counts (stage 1) and, for every transformation in the query's set, the
    axis signatures and boundary sequences of the *transformed* query string
    (stage 2) — so the bound is evaluated exactly against what
    :func:`~repro.core.similarity.invariant_similarity` would score, and the
    maximum over variants is a sound bound for transformation-invariant
    retrieval.
    """

    def __init__(
        self,
        bestring: BEString2D,
        labels: Iterable[str],
        transformations: Iterable[Transformation] = (Transformation.IDENTITY,),
        width: int = DEFAULT_BITMAP_WIDTH,
    ) -> None:
        """Precompute the query-side signature state."""
        self.width = width
        self.label_counts = count_labels(labels)
        self.total_labels = sum(self.label_counts.values())
        self.bit_counts: Dict[int, int] = {}
        for label, count in self.label_counts.items():
            bit = label_bit(label, width)
            self.bit_counts[bit] = self.bit_counts.get(bit, 0) + count
        self.bitmap = 0
        for bit in self.bit_counts:
            self.bitmap |= 1 << bit
        self.variants: List[_QueryVariant] = []
        for transformation in dict.fromkeys(transformations):
            transformed = transform(bestring, transformation)
            self.variants.append(
                _QueryVariant(
                    transformation=transformation,
                    x=AxisSignature.from_axis(transformed.x),
                    y=AxisSignature.from_axis(transformed.y),
                    x_sequence=boundary_sequence(transformed.x),
                    y_sequence=boundary_sequence(transformed.y),
                )
            )

    def overlap_upper_bound(self, candidate: ImageSignature) -> int:
        """Stage-1 bound on the label-multiset overlap from the bitmaps alone.

        Walks the query's set bits and sums the query-side label counts of
        bits also present in the candidate bitmap; a shared label always sets
        a shared bit, so this never undercounts the true multiset overlap.
        """
        if candidate.width != self.width:
            return self.total_labels
        bitmap = candidate.bitmap
        if not (self.bitmap & bitmap):
            # One integer AND settles the common case of zero shared labels.
            return 0
        return sum(
            count for bit, count in self.bit_counts.items() if (bitmap >> bit) & 1
        )

    def exact_overlap(self, candidate: ImageSignature) -> int:
        """The exact label-multiset overlap (stage 2)."""
        counts = candidate.label_counts
        return sum(
            min(count, counts.get(label, 0))
            for label, count in self.label_counts.items()
        )

    def score_upper_bound(
        self,
        candidate: ImageSignature,
        overlap: int,
        policy: SimilarityPolicy,
        with_boundary_lcs: bool = False,
    ) -> float:
        """Upper bound on the similarity score over all query transformations.

        Each common object contributes at most its begin and end to an axis
        LCS, so ``2 * overlap`` bounds its boundary symbols, ``overlap``
        being the (bound on the) label-multiset overlap to charge.
        ``with_boundary_lcs=True`` bounds them by :func:`boundary_lcs`
        instead (stage 2), on each candidate axis where that is exact.
        """
        x, y = candidate.x, candidate.y
        cap = 2 * overlap
        x_exact = with_boundary_lcs and x.boundaries == 2 * len(x.slots)
        y_exact = with_boundary_lcs and y.boundaries == 2 * len(y.slots)
        best = 0.0
        for variant in self.variants:
            x_boundary = boundary_lcs(variant.x_sequence, x) if x_exact else cap
            y_boundary = boundary_lcs(variant.y_sequence, y) if y_exact else cap
            score = combined_value(
                axis_score_bound(variant.x, x, x_boundary, policy),
                axis_score_bound(variant.y, y, y_boundary, policy),
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
    bitmap_rejected: int = 0
    relation_rejected: int = 0
    #: Sampled rejections (image id -> rejecting stage constant), capped at
    #: :data:`REJECTION_SAMPLE_LIMIT` entries for ``explain`` output.
    rejections: Dict[str, str] = field(default_factory=dict)
    #: Score bound of each sampled rejection (image id -> bound).
    rejection_bounds: Dict[str, float] = field(default_factory=dict)
    #: Stage-2 score bound of every *admitted* candidate (image id ->
    #: bound) when the pass made a minimum-score cut, which computes them
    #: anyway; the candidate loop reuses them instead of bounding twice.
    #: Empty when the pass made no such cut.
    bounds: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class ShortlistStatistics:
    """Cumulative shortlist counters (surfaced by the service ``/stats``)."""

    queries: int
    candidates: int
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
    returns ``False`` for a label the image actually contains — both the
    exact inverted-index postings and the stage-1 hashed CRC-32 label
    bitmaps satisfy this (a clear bitmap bit proves absence; a set bit may
    be a hash collision, which only *weakens* the bound, never unsounds it).

    Proof sketch (structural induction over the AST):

    * **Crisp leaf** — its degree is 1 only if some subject/target instance
      pair satisfies the relation, which requires both labels to be present;
      if either is reported absent the true degree is exactly 0, so 0 is a
      (tight) upper bound.  Present (or colliding) labels bound at 1, the
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
