"""The declarative query specification behind the unified retrieval pipeline.

Every retrieval the system can run -- exact similarity, partial-icon queries,
transformation-invariant matching, relation-predicate filtering, and any
conjunction of them -- compiles down to one :class:`QuerySpec` value, the
only query type the engine accepts.  The spec is what the fluent builder
(:mod:`repro.retrieval.querybuilder`) produces, what
:meth:`repro.index.query.QueryEngine.execute_spec` and the batch consume,
and what the shard workers run, so every entry point shares a
single evaluation plan in the spirit of composing small operators into one
pipeline.

The spec is also the query's wire form: :meth:`QuerySpec.to_wire` and
:meth:`QuerySpec.from_wire` are the one translation between a query and the
JSON object that ``POST /search``, each ``/batch`` entry and each line of a
CLI batch file carry (``docs/service.md``, "The query payload").

The module also defines the execution *trace* the pipeline records while it
runs -- which shortlist stage admitted each candidate, whether its score came
from the :class:`~repro.index.cache.ScoreCache`, how the predicate pruning
behaved.  ``ResultSet.explain()`` renders it for users, and the engine folds
each finished query's trace into its cumulative ``/stats`` counters.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.core.similarity import DEFAULT_POLICY, Combination, Normalization, SimilarityPolicy
from repro.core.transforms import Transformation, canonical_transformations
from repro.iconic.picture import SymbolicPicture
from repro.index.execution import ExecutionOptions

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a layering cycle
    from repro.index.ranking import RankedResult
    from repro.retrieval.predicates import (
        GradedMatch,
        PredicateMatch,
        PredicateNode,
        RelationPredicate,
    )


class QuerySpecError(ValueError):
    """Raised when a :class:`QuerySpec` is malformed or unsupported."""


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


#: The JSON types :meth:`QuerySpec.from_wire` checks, by the phrase its
#: error message uses for each.
_WIRE_TYPES: Dict[str, Callable[[Any], bool]] = {
    "a JSON boolean": lambda value: isinstance(value, bool),
    "a JSON number": lambda value: _is_int(value) or isinstance(value, float),
    "a JSON string": lambda value: isinstance(value, str),
    "a JSON object": lambda value: isinstance(value, dict),
    "a JSON object describing a scene": lambda value: isinstance(value, dict),
    "a JSON array of strings": lambda value: isinstance(value, list)
    and all(isinstance(item, str) for item in value),
    "a non-negative JSON integer or null": lambda value: value is None
    or (_is_int(value) and value >= 0),
    "a positive JSON integer": lambda value: _is_int(value) and value >= 1,
}


def _wire_value(payload: Mapping[str, Any], key: str, expected: str, default: Any = None) -> Any:
    """``payload[key]``, or ``default`` when absent, checked to be ``expected``.

    A key whose default is ``None`` reads ``null`` as absent.

    Raises:
        QuerySpecError: naming ``key`` when its value has the wrong type.
    """
    value = payload.get(key, default)
    if (value is None and default is None) or _WIRE_TYPES[expected](value):
        return value
    raise QuerySpecError(f"{key!r} must be {expected}")


def _policy_from_wire(payload: Dict[str, Any]) -> SimilarityPolicy:
    """The ``policy`` wire object, enums by value, or a :class:`QuerySpecError`."""
    try:
        policy = SimilarityPolicy(**payload)
        if not isinstance(policy.count_boundaries_only, bool):
            raise ValueError("count_boundaries_only must be a JSON boolean")
        return replace(
            policy,
            normalization=Normalization(policy.normalization),
            combination=Combination(policy.combination),
        )
    except (TypeError, ValueError) as error:
        raise QuerySpecError(f"malformed 'policy': {error}") from error


#: Shortlist stages a candidate can be admitted by (recorded in traces).
STAGE_FULL_SCAN = "full-scan"
STAGE_SHORTLIST = "inverted-index+signature"
STAGE_PREDICATE_PRUNED = "label-pruned"
STAGE_PREDICATE_EVALUATED = "predicate-evaluated"
#: Shortlist stages a candidate can be *rejected* by (see
#: :mod:`repro.index.shortlist`): the hashed label-bitmap bound (stage 1)
#: and the boundary-LCS score bound, which bounds each axis by the order
#: of its boundary symbols (stage 2).
STAGE_BITMAP_PRUNED = "bitmap-bound-pruned"
STAGE_RELATION_PRUNED = "relation-bound-pruned"
#: Anytime strategy: admitted by the shortlist but never scored because the
#: k-th confirmed score already met or beat this candidate's upper bound.
STAGE_BOUND_SKIPPED = "anytime-bound-skipped"


@dataclass(frozen=True)
class QuerySpec:
    """One declarative retrieval request.

    A spec combines up to two clauses:

    * a *similarity* clause -- ``picture`` (optionally restricted to
      ``identifiers`` for partial queries and expanded over
      ``transformations`` for invariant ones), scored with the modified-LCS
      evaluation under ``policy``;
    * a *predicate* clause -- either ``predicates`` (a crisp conjunction of
      relation predicates, the historical fast path) or ``predicate_tree``
      (a graded boolean AST with ``not``/``or`` and per-leaf weight/fuzzy
      annotations) evaluated against stored BE-strings.

    With a crisp conjunction and a picture the predicates act as a
    post-filter: only images satisfying **every** predicate survive, ranked
    by similarity.  With a graded ``predicate_tree`` the tree's satisfaction
    degree *composes* with the similarity score instead —
    ``predicate_composition`` picks the operator (``"product"``:
    ``similarity * degree``; ``"sum"``: ``blend * similarity + (1 - blend) *
    degree`` with ``blend = predicate_blend``).  ``limit`` /
    ``minimum_score`` cut the final ranking; ``execution`` overrides how
    the engine runs this query only (``shortlist=False`` scores every stored
    image, ``cache=False`` bypasses the score cache).

    ``transformations`` is canonicalised on construction (deduplicated,
    ordered by enum definition with ``IDENTITY`` first): the evaluated *set*
    is what matters, tie-breaks always resolve to the earliest canonical
    transformation, and equal sets make equal specs and one score-cache key
    however the caller ordered them.
    """

    picture: Optional[SymbolicPicture] = None
    identifiers: Optional[Tuple[str, ...]] = None
    transformations: Tuple[Transformation, ...] = (Transformation.IDENTITY,)
    predicates: Tuple["RelationPredicate", ...] = ()
    #: Graded predicate AST (``None`` for crisp conjunctions, which stay on
    #: the historical ``predicates`` tuple and its byte-identical fast path).
    predicate_tree: Optional["PredicateNode"] = None
    #: How a graded predicate degree composes with the similarity score.
    predicate_composition: str = "product"
    #: Similarity share of the ``"sum"`` composition (ignored for product).
    predicate_blend: float = 0.5
    limit: Optional[int] = 10
    minimum_score: float = 0.0
    minimum_shared_labels: int = 1
    policy: Optional[SimilarityPolicy] = None
    #: Per-query execution overrides (kernel, strategy, ...); ``None`` fields
    #: inherit the engine's defaults.  See :mod:`repro.index.execution`.
    execution: Optional[ExecutionOptions] = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "transformations", canonical_transformations(self.transformations)
        )

    # ------------------------------------------------------------------
    # Validation and derived views
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check the spec describes a runnable query.

        Raises:
            QuerySpecError: if neither clause is present, if ``identifiers``
                are given without a picture, or if numeric knobs are out of
                range.
        """
        if self.picture is None and not self.has_predicate_clause:
            raise QuerySpecError(
                "a query needs at least one clause: similar_to(picture) or where(predicate)"
            )
        if self.predicates and self.predicate_tree is not None:
            raise QuerySpecError(
                "a spec carries either flat crisp predicates or a predicate tree, not both"
            )
        if self.predicate_composition not in ("product", "sum"):
            raise QuerySpecError(
                f"predicate_composition must be 'product' or 'sum', "
                f"got {self.predicate_composition!r}"
            )
        if not (0.0 <= self.predicate_blend <= 1.0):
            raise QuerySpecError(
                f"predicate_blend must lie in [0, 1], got {self.predicate_blend!r}"
            )
        if self.identifiers is not None and self.picture is None:
            raise QuerySpecError("partial(identifiers) requires similar_to(picture)")
        if not self.transformations:
            raise QuerySpecError("at least one transformation is required")
        if self.limit is not None and self.limit < 0:
            raise QuerySpecError("limit must be non-negative (or None for unlimited)")
        if self.minimum_shared_labels < 1:
            raise QuerySpecError("minimum_shared_labels must be at least 1")

    @property
    def has_similarity_clause(self) -> bool:
        """True when the spec scores images against a query picture."""
        return self.picture is not None

    @property
    def has_predicate_clause(self) -> bool:
        """True when the spec constrains images by relation predicates."""
        return bool(self.predicates) or self.predicate_tree is not None

    @property
    def has_graded_predicates(self) -> bool:
        """True when the predicate clause is a graded tree (not a crisp list)."""
        return self.predicate_tree is not None

    def effective_picture(self) -> SymbolicPicture:
        """The query picture with the partial-icon subset applied.

        Raises:
            QuerySpecError: if the spec has no similarity clause.
            KeyError: if ``identifiers`` name icons the picture lacks.
        """
        if self.picture is None:
            raise QuerySpecError("this spec has no similarity clause")
        if self.identifiers is None:
            return self.picture
        return self.picture.subset(self.identifiers)

    def effective_policy(self) -> SimilarityPolicy:
        """The similarity policy, falling back to the library default."""
        return self.policy if self.policy is not None else DEFAULT_POLICY

    def compose(self, similarity_score: float, degree: float) -> float:
        """The composition of a similarity score with a graded tree degree.

        Monotone in the similarity for a fixed degree, so
        ``compose(bound, degree)`` soundly bounds the composed score.
        """
        if self.predicate_composition == "sum":
            blend = self.predicate_blend
            return blend * similarity_score + (1.0 - blend) * degree
        return similarity_score * degree

    def to_wire(self) -> Dict[str, Any]:
        """The spec as a ``/search`` query object of JSON types.

        Defaults are left out.  Both predicate fields travel as the nested
        tree of ``PredicateNode.to_dict()``, which spells every legal label;
        ``"graded": true`` marks a ``predicate_tree``, so even a crisp-shaped
        one is decoded as exactly that tree.  ``from_wire`` of the JSON
        round trip equals this spec.
        """
        from repro.retrieval.predicates import And, Leaf

        wire: Dict[str, Any] = {}
        if self.picture is not None:
            wire["scene"] = self.picture.to_dict()
        if self.identifiers is not None:
            wire["identifiers"] = list(self.identifiers)
        if self.transformations != _DEFAULTS.transformations:
            wire["transformations"] = [item.value for item in self.transformations]
        if self.predicates:
            wire["where"] = And(tuple(Leaf(predicate) for predicate in self.predicates)).to_dict()
        if self.predicate_tree is not None:
            wire["where"] = self.predicate_tree.to_dict()
            wire["graded"] = True
        if (self.predicate_composition, self.predicate_blend) != (
            _DEFAULTS.predicate_composition,
            _DEFAULTS.predicate_blend,
        ):
            wire["compose"] = self.predicate_composition
            wire["blend"] = self.predicate_blend
        if self.limit != _DEFAULTS.limit:
            wire["limit"] = self.limit
        if self.minimum_score:
            wire["min_score"] = self.minimum_score
        if self.minimum_shared_labels != _DEFAULTS.minimum_shared_labels:
            wire["min_shared_labels"] = self.minimum_shared_labels
        if self.policy is not None:
            wire["policy"] = {
                key: getattr(value, "value", value) for key, value in asdict(self.policy).items()
            }
        if self.execution is not None:
            wire["execution"] = self.execution.to_dict()
        return wire

    @classmethod
    def from_wire(cls, payload: Mapping[str, Any]) -> "QuerySpec":
        """Decode and validate a ``/search`` query object (see :meth:`to_wire`).

        Also reads the older spellings: ``invariant`` (every transformation),
        ``where`` as grammar text, ``fuzzy`` (grade every leaf of ``where``)
        and ``no_filters`` (``shortlist=False`` unless ``execution`` sets
        it).  A ``where`` without ``"graded": true`` compiles as the
        builder's ``where()`` does.  Unknown keys are ignored.

        Raises:
            QuerySpecError: naming the malformed key (or, inside ``where``,
                the token), or from :meth:`validate`.
        """
        from repro.retrieval.predicates import (
            PredicateError,
            annotate,
            compile_where,
            parse_tree,
            tree_from_dict,
        )

        if not isinstance(payload, dict):
            raise QuerySpecError("a query must be a JSON object")
        fields: Dict[str, Any] = {}
        scene = _wire_value(payload, "scene", "a JSON object describing a scene")
        if scene is not None:
            try:
                fields["picture"] = SymbolicPicture.from_dict(scene)
            except (ValueError, KeyError, TypeError) as error:
                raise QuerySpecError(f"malformed scene: {error}") from error
        identifiers = _wire_value(payload, "identifiers", "a JSON array of strings")
        if identifiers is not None:
            fields["identifiers"] = tuple(identifiers)
        names = _wire_value(payload, "transformations", "a JSON array of strings")
        if names is not None:
            if "invariant" in payload:
                raise QuerySpecError("'invariant' and 'transformations' cannot be combined")
            try:
                fields["transformations"] = tuple(Transformation(name) for name in names)
            except ValueError as error:
                raise QuerySpecError(f"malformed 'transformations': {error}") from error
        elif _wire_value(payload, "invariant", "a JSON boolean", False):
            fields["transformations"] = tuple(Transformation)
        where = payload.get("where")
        if where is not None:
            fuzzy = _wire_value(payload, "fuzzy", "a JSON boolean", False)
            graded = _wire_value(payload, "graded", "a JSON boolean", False)
            if not isinstance(where, (str, dict)):
                raise QuerySpecError(
                    "'where' must be a predicate string or a predicate-tree JSON object"
                )
            try:
                tree = annotate(
                    parse_tree(where) if isinstance(where, str) else tree_from_dict(where),
                    fuzzy,
                )
            except PredicateError as error:  # names the offending token and position
                raise QuerySpecError(str(error)) from error
            if graded:
                fields["predicate_tree"] = tree
            else:
                fields["predicates"], fields["predicate_tree"] = compile_where([tree])
        elif "fuzzy" in payload:
            raise QuerySpecError("'fuzzy' requires a 'where' clause")
        compose = _wire_value(payload, "compose", "a JSON string")
        if compose is not None:
            fields["predicate_composition"] = compose
            fields["predicate_blend"] = float(
                _wire_value(payload, "blend", "a JSON number", _DEFAULTS.predicate_blend)
            )
        elif "blend" in payload:
            raise QuerySpecError("'blend' requires a 'compose' mode")
        fields["limit"] = _wire_value(
            payload, "limit", "a non-negative JSON integer or null", _DEFAULTS.limit
        )
        fields["minimum_score"] = float(
            _wire_value(payload, "min_score", "a JSON number", _DEFAULTS.minimum_score)
        )
        fields["minimum_shared_labels"] = _wire_value(
            payload, "min_shared_labels", "a positive JSON integer", _DEFAULTS.minimum_shared_labels
        )
        policy = _wire_value(payload, "policy", "a JSON object")
        if policy is not None:
            fields["policy"] = _policy_from_wire(policy)
        execution = _wire_value(payload, "execution", "a JSON object")
        if execution is not None:
            try:
                execution = ExecutionOptions.from_dict(execution)
            except (TypeError, ValueError) as error:
                raise QuerySpecError(f"malformed 'execution': {error}") from error
        if _wire_value(payload, "no_filters", "a JSON boolean", False):
            execution = ExecutionOptions(shortlist=False).overlaid(execution)
        spec = cls(execution=execution, **fields)
        spec.validate()
        return spec

    def with_overrides(self, **changes) -> "QuerySpec":
        """A copy of the spec with the given fields replaced."""
        return replace(self, **changes)

    def describe(self) -> str:
        """One-line human-readable summary of the compiled plan."""
        clauses: List[str] = []
        if self.picture is not None:
            name = self.picture.name or "<picture>"
            if self.identifiers is not None:
                name += f"[{', '.join(self.identifiers)}]"
            clauses.append(f"similar_to({name})")
            if len(self.transformations) > 1:
                clauses.append("invariant")
        for predicate in self.predicates:
            clauses.append(f"where({predicate.to_text()})")
        if self.predicate_tree is not None:
            clauses.append(f"where({self.predicate_tree.to_text()})")
        knobs = [f"limit={self.limit}"]
        if self.predicate_tree is not None and self.picture is not None:
            composition = self.predicate_composition
            if composition == "sum":
                composition += f" blend={self.predicate_blend:g}"
            knobs.append(f"compose={composition}")
        if self.minimum_score:
            knobs.append(f"min_score={self.minimum_score:g}")
        if self.execution is not None:
            knobs.append(f"execution({self.execution.describe()})")
        return " . ".join(clauses) + " [" + ", ".join(knobs) + "]"


#: The field defaults: :meth:`QuerySpec.to_wire` leaves them out and
#: :meth:`QuerySpec.from_wire` fills them in.
_DEFAULTS = QuerySpec()


# ----------------------------------------------------------------------
# Execution traces
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CandidateTrace:
    """What the pipeline did with one candidate image."""

    image_id: str
    #: Which shortlist stage admitted — or rejected — the candidate
    #: (``STAGE_*`` constant).
    stage: str
    #: Whether the similarity score came from the cache (``None`` for
    #: predicate-only evaluation or when the cache was bypassed).
    cache_hit: Optional[bool] = None
    #: For candidates rejected by a signature bound: the value that failed —
    #: the score upper bound against the query's ``minimum_score``, or (for
    #: overlap-threshold rejections) the failing overlap ratio.
    score_bound: Optional[float] = None


@dataclass
class QueryTrace:
    """Everything one :meth:`QueryEngine.execute_spec` run recorded.

    ``candidates`` maps image id to its :class:`CandidateTrace`; the counters
    summarise the shortlist funnel (database -> inverted index -> signature
    filter) and cache effectiveness for the whole query.
    """

    mode: str = "similarity"
    database_size: int = 0
    #: How many images the inverted index admitted (``None`` when the
    #: shortlist was skipped entirely, e.g. under ``shortlist=False``).
    inverted_candidates: Optional[int] = None
    #: How many candidates survived the signature filter and were scored.
    shortlisted: int = 0
    #: Candidates rejected by the stage-1 hashed-bitmap score/overlap bound.
    bitmap_pruned: int = 0
    #: Candidates rejected by the stage-2 boundary-LCS score bound.
    relation_pruned: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    #: Predicate clause: how many images were actually evaluated vs pruned
    #: to a known-zero match by the label postings.
    predicate_evaluated: int = 0
    predicate_pruned: int = 0
    #: Which LCS kernel scored the candidates (``bitparallel``/``reference``).
    kernel: str = "reference"
    #: Which candidate-processing strategy ran (``anytime``/``exhaustive``).
    strategy: str = "exhaustive"
    #: Admitted candidates whose score was actually confirmed (anytime mode
    #: stops early; exhaustive mode examines every admitted candidate).
    candidates_examined: int = 0
    #: Admitted candidates skipped by the anytime bound cut-off.
    bound_skipped: int = 0
    #: The upper bound of the first skipped candidate (``None`` when the
    #: strategy ran to exhaustion).
    bound_cutoff: Optional[float] = None
    candidates: Dict[str, CandidateTrace] = field(default_factory=dict)

    def describe(self) -> str:
        """One-line funnel summary used by ``explain`` output."""
        parts = [f"{self.database_size} stored"]
        if self.inverted_candidates is not None:
            parts.append(f"{self.inverted_candidates} shared a label")
        if self.bitmap_pruned or self.relation_pruned:
            parts.append(
                f"{self.bitmap_pruned} bitmap-pruned, "
                f"{self.relation_pruned} relation-pruned"
            )
        if self.mode in ("similarity", "combined"):
            parts.append(
                f"{self.shortlisted} scored "
                f"({self.cache_hits} cached, {self.cache_misses} computed)"
            )
            if self.bound_skipped:
                cutoff = (
                    f" at bound {self.bound_cutoff:.3f}"
                    if self.bound_cutoff is not None
                    else ""
                )
                parts.append(
                    f"{self.candidates_examined} examined, "
                    f"{self.bound_skipped} bound-skipped{cutoff}"
                )
        if self.mode in ("predicate", "combined"):
            parts.append(
                f"{self.predicate_evaluated} predicate-evaluated, "
                f"{self.predicate_pruned} label-pruned"
            )
        return " -> ".join(parts)


@dataclass
class SpecOutcome:
    """The full result of running one :class:`QuerySpec`.

    ``results`` is the final ranking: :class:`~repro.index.ranking.RankedResult`
    entries when the spec has a similarity clause, otherwise
    :class:`~repro.retrieval.predicates.PredicateMatch` (crisp) or
    :class:`~repro.retrieval.predicates.GradedMatch` (graded tree) entries.
    In combined mode ``predicate_matches`` additionally carries the
    per-image predicate evaluation used for filtering or composition (keyed
    by image id).
    """

    spec: QuerySpec
    results: List[Union["RankedResult", "PredicateMatch", "GradedMatch"]]
    trace: QueryTrace
    predicate_matches: Optional[Dict[str, Union["PredicateMatch", "GradedMatch"]]] = None
