"""The two-stage signature shortlist: bitmap and relation-pair score bounds.

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
* **Stage 2 — relation pairs.**  The relative order of the four boundary
  symbols of two objects on an axis (an axis-relation code) follows from
  their boundary positions, which the signature keeps per object; the code
  of a pair is computed when a query asks for it.  A pair whose code differs
  between query and candidate cannot contribute all four symbols to a common
  subsequence, so a greedy matching over conflicting pairs tightens the
  boundary-symbol bound.  The resulting score bound is evaluated per query
  transformation and the best variant is compared against ``min_score``.

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


def axis_pair_codes(axis: AxisBEString) -> Dict[Tuple[str, str], int]:
    """Relation codes for every object pair on one axis.

    The code of a pair ``(a, b)`` (``a < b`` lexicographically) packs the four
    cross comparisons between the boundary positions of ``a`` and ``b`` into
    one integer; together with the fixed within-object order (begin before
    end) it determines the relative order of all four boundary symbols.  Two
    equal codes mean the four symbols interleave identically; two different
    codes mean they cannot all appear in a common subsequence.

    Returns:
        Mapping from the identifier pair to its axis-relation code, in sorted
        identifier order.
    """
    facts = AxisSignature.from_axis(axis)
    slots, begins, ends = facts.slots, facts.begins, facts.ends
    identifiers = sorted(slots)
    codes: Dict[Tuple[str, str], int] = {}
    for index, a in enumerate(identifiers):
        a_slot = slots[a]
        for b in identifiers[index + 1 :]:
            b_slot = slots[b]
            codes[(a, b)] = _relation_code(
                begins[a_slot], ends[a_slot], begins[b_slot], ends[b_slot]
            )
    return codes


def _relation_code(a_begin: int, a_end: int, b_begin: int, b_end: int) -> int:
    """The axis-relation code of two objects from their boundary positions."""
    return (
        (a_begin < b_begin)
        | (a_begin < b_end) << 1
        | (a_end < b_begin) << 2
        | (a_end < b_end) << 3
    )


#: The begin kind, bound once for the axis walk rather than looked up on
#: the enum per symbol.
_BEGIN = BoundaryKind.BEGIN

#: Symbol positions indexed by slot: ``bytes`` for an axis of at most 256
#: symbols (every position fits in a byte), a tuple of ints otherwise.
Positions = Union[bytes, Tuple[int, ...]]


@dataclass(frozen=True, init=False)
class AxisSignature:
    """Shortlist-relevant facts about one axis BE-string.

    The relation code of any object pair is a pure function of the two
    objects' boundary positions, so the signature keeps the positions (two
    per object) rather than the codes (one per pair);
    :func:`pair_conflicts` computes a candidate's code only for the pairs a
    query asks about.  Each object has a *slot*, its index into
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
    #: end on any axis the table was built from has no slot, so it takes
    #: part in no pair.
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
def _axis_bounds(
    query: AxisSignature, candidate: AxisSignature, overlap: int, conflicts: int
) -> Tuple[int, int]:
    """``(lcs_length_bound, boundary_bound)`` for one axis.

    Every common object contributes at most its begin and end boundary to the
    axis LCS (``2 * overlap``); each conflicting pair of the greedy matching
    excludes at least one further symbol; dummies in the LCS are capped by
    both strings' dummy counts and — because the modified LCS suppresses
    consecutive dummies — by ``boundary_bound + 1``.
    """
    boundary = min(2 * overlap, query.boundaries, candidate.boundaries) - conflicts
    if boundary < 0:
        boundary = 0
    dummies = min(query.dummies, candidate.dummies, boundary + 1)
    return min(query.length, candidate.length, boundary + dummies), boundary


def axis_score_bound(
    query: AxisSignature,
    candidate: AxisSignature,
    overlap: int,
    conflicts: int,
    policy: SimilarityPolicy,
) -> float:
    """Policy-normalised upper bound on one axis similarity value."""
    length_bound, boundary_bound = _axis_bounds(query, candidate, overlap, conflicts)
    if policy.count_boundaries_only:
        raw = float(boundary_bound)
        query_side, candidate_side = float(query.boundaries), float(candidate.boundaries)
    else:
        raw = float(length_bound)
        query_side, candidate_side = float(query.length), float(candidate.length)
    # The exact arithmetic the scoring side uses (shared helper), so the
    # bound can never drift from what it must dominate.
    return normalized_value(raw, query_side, candidate_side, policy.normalization)


def pair_conflicts(
    query_pairs: Sequence[Tuple[Tuple[str, str], int]],
    candidate: AxisSignature,
) -> int:
    """Size of a greedy matching over pairs whose axis-relation codes differ.

    ``query_pairs`` are the query axis's ``((a, b), code)`` items from
    :func:`axis_pair_codes`, walked in that order; the candidate's code for
    a pair is computed from its boundary positions, read through the two
    objects' slots, only when it holds both objects.

    Every edge of the matching names two objects that cannot both contribute
    all their boundary symbols to the axis LCS; because matched edges share
    no object, each excludes at least one distinct symbol, so the matching
    size is a sound deduction from the boundary-symbol bound (a matching
    lower-bounds the conflict graph's vertex cover).
    """
    slots = candidate.slots
    if not query_pairs or not slots:
        return 0
    begins = candidate.begins
    ends = candidate.ends
    used: set = set()
    conflicts = 0
    for (a, b), code in query_pairs:
        if a in used or b in used:
            continue
        a_slot = slots.get(a)
        if a_slot is None:
            continue
        b_slot = slots.get(b)
        if b_slot is None:
            continue
        if _relation_code(begins[a_slot], ends[a_slot], begins[b_slot], ends[b_slot]) != code:
            conflicts += 1
            used.add(a)
            used.add(b)
    return conflicts


@dataclass(frozen=True)
class _QueryVariant:
    """Per-transformation view of the query's axis signatures."""

    transformation: Transformation
    x: AxisSignature
    y: AxisSignature
    #: The transformed query's ``((a, b), code)`` items per axis, computed
    #: once per query and walked by :func:`pair_conflicts` per candidate.
    x_pairs: Tuple[Tuple[Tuple[str, str], int], ...]
    y_pairs: Tuple[Tuple[Tuple[str, str], int], ...]


class QuerySignature:
    """Per-query precomputation consumed by both shortlist stages.

    Built once per query execution: the hashed bitmap with per-bit label
    counts (stage 1) and, for every transformation in the query's set, the
    axis signatures of the *transformed* query string (stage 2) — so the
    bound is evaluated exactly against what :func:`~repro.core.similarity.
    invariant_similarity` would score, and the maximum over variants is a
    sound bound for transformation-invariant retrieval.
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
                    x_pairs=tuple(axis_pair_codes(transformed.x).items()),
                    y_pairs=tuple(axis_pair_codes(transformed.y).items()),
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
        with_conflicts: bool = False,
    ) -> float:
        """Upper bound on the similarity score over all query transformations.

        ``overlap`` is the (bound on the) label-multiset overlap to charge;
        ``with_conflicts=True`` additionally deducts the relation-pair
        conflict matching per axis (stage 2).
        """
        best = 0.0
        for variant in self.variants:
            x_conflicts = (
                pair_conflicts(variant.x_pairs, candidate.x)
                if with_conflicts
                else 0
            )
            y_conflicts = (
                pair_conflicts(variant.y_pairs, candidate.y)
                if with_conflicts
                else 0
            )
            score = combined_value(
                axis_score_bound(variant.x, candidate.x, overlap, x_conflicts, policy),
                axis_score_bound(variant.y, candidate.y, overlap, y_conflicts, policy),
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
