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

The module also defines the execution *trace* the pipeline records while it
runs -- which shortlist stage admitted each candidate, whether its score came
from the :class:`~repro.index.cache.ScoreCache`, how the predicate pruning
behaved.  ``ResultSet.explain()`` renders it for users, and the engine folds
each finished query's trace into its cumulative ``/stats`` counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

from repro.core.similarity import DEFAULT_POLICY, SimilarityPolicy
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


#: Shortlist stages a candidate can be admitted by (recorded in traces).
STAGE_FULL_SCAN = "full-scan"
STAGE_SHORTLIST = "inverted-index+signature"
STAGE_PREDICATE_PRUNED = "label-pruned"
STAGE_PREDICATE_EVALUATED = "predicate-evaluated"
#: Shortlist stages a candidate can be *rejected* by (see
#: :mod:`repro.index.shortlist`): the hashed label-bitmap bound (stage 1)
#: and the relation-pair score bound (stage 2).
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
    #: Candidates rejected by the stage-2 relation-pair score bound.
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
