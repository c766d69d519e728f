"""The fluent query builder and its :class:`ResultSet`.

This module is the public face of the unified query pipeline.  A retrieval
is *composed*::

    results = (
        system.query()
        .similar_to(picture)
        .invariant()
        .partial(["phone", "desk"])
        .where("phone right-of monitor")
        .min_score(0.3)
        .limit(10)
        .execute()
    )

Each builder call refines one clause of a declarative
:class:`~repro.index.spec.QuerySpec`; ``execute()`` compiles the spec and
runs it through :meth:`repro.index.query.QueryEngine.execute_spec`, returning
a :class:`ResultSet` that supports iteration, pagination (``.page(n, size)``),
per-result execution traces (``.explain()``) and dict/JSONL export
(``.to_dicts()`` / ``.to_jsonl()``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, List, Optional, Sequence, Union

from repro.core.similarity import SimilarityPolicy
from repro.core.transforms import Transformation
from repro.iconic.picture import SymbolicPicture
from repro.index.execution import ExecutionOptions
from repro.index.ranking import RankedResult
from repro.index.spec import QuerySpec, QuerySpecError, QueryTrace, SpecOutcome
from repro.retrieval.predicates import (
    GradedMatch,
    Leaf,
    PredicateMatch,
    PredicateNode,
    RelationPredicate,
    annotate,
    compile_where,
    parse_tree,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.retrieval.system import RetrievalSystem

__all__ = [
    "QueryBuilder",
    "QuerySpec",
    "QuerySpecError",
    "ResultExplanation",
    "ResultSet",
]

#: One entry of a result set: similarity, predicate, or graded ranking.
ResultEntry = Union[RankedResult, PredicateMatch, GradedMatch]


@dataclass(frozen=True)
class ResultExplanation:
    """The per-result trace rendered by :meth:`ResultSet.explain`."""

    rank: int
    image_id: str
    score: float
    #: Which pipeline stage admitted the image (``full-scan``,
    #: ``inverted-index+signature``, ``predicate-evaluated``, ...) or ``None``
    #: when no trace was recorded (e.g. batch execution).
    stage: Optional[str]
    #: Whether the similarity score was served from the score cache
    #: (``None`` when unknown or not applicable).
    cache_hit: Optional[bool]
    #: Winning transformation of an invariant evaluation (similarity only).
    transformation: Optional[str] = None
    lcs_x: Optional[int] = None
    lcs_y: Optional[int] = None
    common_objects: Optional[List[str]] = None
    satisfied: Optional[List[str]] = None
    unsatisfied: Optional[List[str]] = None
    #: Graded queries: the tree's overall satisfaction degree.
    degree: Optional[float] = None
    #: Graded queries: each leaf's annotated text and satisfaction degree.
    leaf_degrees: Optional[List[tuple]] = None

    def describe(self) -> str:
        """One-line rendering used by the CLI ``explain`` command."""
        parts = [f"#{self.rank:<3d} {self.image_id:<24s} score={self.score:.3f}"]
        if self.stage is not None:
            parts.append(f"stage={self.stage}")
        if self.cache_hit is not None:
            parts.append("cache=hit" if self.cache_hit else "cache=miss")
        if self.transformation is not None:
            parts.append(f"via={self.transformation}")
        if self.lcs_x is not None and self.lcs_y is not None:
            parts.append(f"lcs={self.lcs_x}/{self.lcs_y}")
        if self.common_objects:
            parts.append(f"objects=[{', '.join(self.common_objects)}]")
        if self.degree is not None:
            parts.append(f"degree={self.degree:.3f}")
        if self.leaf_degrees:
            rendered = "; ".join(f"{text}={value:.3f}" for text, value in self.leaf_degrees)
            parts.append(f"degrees=[{rendered}]")
        if self.satisfied is not None:
            parts.append(f"holds=[{'; '.join(self.satisfied) or '-'}]")
        if self.unsatisfied:
            parts.append(f"fails=[{'; '.join(self.unsatisfied)}]")
        return " ".join(parts)


class ResultSet(Sequence):
    """An immutable, ordered collection of retrieval results.

    Behaves as a sequence of :class:`~repro.index.ranking.RankedResult` (or
    :class:`~repro.retrieval.predicates.PredicateMatch` for predicate-only
    queries), best first, and adds pagination, explain traces and export.
    """

    def __init__(
        self,
        results: Sequence[ResultEntry],
        spec: Optional[QuerySpec] = None,
        outcome: Optional[SpecOutcome] = None,
        ranks: Optional[List[int]] = None,
    ) -> None:
        self._results: List[ResultEntry] = list(results)
        self.spec = spec
        self.outcome = outcome
        #: Global 1-based rank of each entry, preserved across page()/slicing
        #: (PredicateMatch carries no rank of its own, unlike RankedResult).
        self._ranks: List[int] = (
            list(ranks) if ranks is not None else list(range(1, len(self._results) + 1))
        )

    # ------------------------------------------------------------------
    # Sequence protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._results)

    def __iter__(self) -> Iterator[ResultEntry]:
        return iter(self._results)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return ResultSet(
                self._results[index],
                spec=self.spec,
                outcome=self.outcome,
                ranks=self._ranks[index],
            )
        return self._results[index]

    def __bool__(self) -> bool:
        return bool(self._results)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ResultSet):
            return self._results == other._results
        if isinstance(other, list):
            return self._results == other
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        preview = ", ".join(entry.image_id for entry in self._results[:3])
        suffix = ", ..." if len(self._results) > 3 else ""
        return f"ResultSet({len(self._results)} results: [{preview}{suffix}])"

    # ------------------------------------------------------------------
    # Pagination
    # ------------------------------------------------------------------
    def page(self, number: int, size: int) -> "ResultSet":
        """One page of the ranking (pages are 1-based).

        Returns:
            A new :class:`ResultSet` holding results
            ``[(number-1)*size, number*size)``; empty past the last page.

        Raises:
            ValueError: if ``number`` or ``size`` is not positive.
        """
        if number < 1:
            raise ValueError("page numbers are 1-based")
        if size < 1:
            raise ValueError("page size must be at least 1")
        start = (number - 1) * size
        return self[start : start + size]

    def page_count(self, size: int) -> int:
        """How many pages of ``size`` the result set spans."""
        if size < 1:
            raise ValueError("page size must be at least 1")
        return (len(self._results) + size - 1) // size

    # ------------------------------------------------------------------
    # Explain
    # ------------------------------------------------------------------
    @property
    def trace(self) -> Optional[QueryTrace]:
        """The pipeline trace of the execution (``None`` for batch results)."""
        return self.outcome.trace if self.outcome is not None else None

    def explain(self) -> List[ResultExplanation]:
        """Per-result execution traces, in ranking order.

        Each entry reports which shortlist stage admitted the image, whether
        its similarity score was a cache hit, the winning transformation and
        per-axis LCS lengths (similarity results), and the satisfied /
        unsatisfied predicates (predicate results).
        """
        trace = self.trace
        matches = self.outcome.predicate_matches if self.outcome is not None else None
        explanations: List[ResultExplanation] = []
        for position, entry in enumerate(self._results):
            candidate = trace.candidates.get(entry.image_id) if trace is not None else None
            stage = candidate.stage if candidate is not None else None
            cache_hit = candidate.cache_hit if candidate is not None else None
            if isinstance(entry, RankedResult):
                match = matches.get(entry.image_id) if matches else None
                graded = isinstance(match, GradedMatch)
                explanations.append(
                    ResultExplanation(
                        rank=entry.rank,
                        image_id=entry.image_id,
                        score=entry.score,
                        stage=stage,
                        cache_hit=cache_hit,
                        transformation=entry.similarity.transformation.value,
                        lcs_x=entry.similarity.x.lcs_length,
                        lcs_y=entry.similarity.y.lcs_length,
                        common_objects=sorted(entry.similarity.common_objects),
                        satisfied=(
                            [predicate.to_text() for predicate in match.satisfied]
                            if match is not None and not graded
                            else None
                        ),
                        degree=match.degree if graded else None,
                        leaf_degrees=list(match.leaf_degrees) if graded else None,
                    )
                )
            elif isinstance(entry, GradedMatch):
                explanations.append(
                    ResultExplanation(
                        rank=self._ranks[position],
                        image_id=entry.image_id,
                        score=entry.score,
                        stage=stage,
                        cache_hit=None,
                        degree=entry.degree,
                        leaf_degrees=list(entry.leaf_degrees),
                    )
                )
            else:
                explanations.append(
                    ResultExplanation(
                        rank=self._ranks[position],
                        image_id=entry.image_id,
                        score=entry.score,
                        stage=stage,
                        cache_hit=None,
                        satisfied=[predicate.to_text() for predicate in entry.satisfied],
                        unsatisfied=[predicate.to_text() for predicate in entry.unsatisfied],
                    )
                )
        return explanations

    def explain_report(self) -> str:
        """Multi-line explain report: query funnel summary + per-result lines.

        When the two-stage signature shortlist pruned candidates, a sampled
        ``pruned`` section names each rejected image's rejecting stage and
        the score bound that failed to clear the query's minimum score.
        Every execution but the reference exhaustive scan adds an ``exec``
        line (kernel, strategy, ``candidates_examined``, ``bound_skipped``,
        ``bound_cutoff``) and a sampled ``skipped`` section for anytime
        bound cut-offs.
        """
        from repro.index.spec import (
            STAGE_BITMAP_PRUNED,
            STAGE_BOUND_SKIPPED,
            STAGE_RELATION_PRUNED,
        )

        lines: List[str] = []
        if self.spec is not None:
            lines.append(f"query: {self.spec.describe()}")
        trace = self.trace
        if trace is not None:
            lines.append(f"plan:  {trace.describe()}")
            if trace.kernel != "reference" or trace.strategy != "exhaustive":
                exec_parts = [
                    f"kernel={trace.kernel}",
                    f"strategy={trace.strategy}",
                    f"candidates_examined={trace.candidates_examined}",
                    f"bound_skipped={trace.bound_skipped}",
                ]
                if trace.bound_cutoff is not None:
                    exec_parts.append(f"bound_cutoff={trace.bound_cutoff:.3f}")
                lines.append("exec:  " + " ".join(exec_parts))
        if not self._results:
            lines.append("no matching images")
        for explanation in self.explain():
            lines.append(explanation.describe())
        if trace is not None:
            for candidate in trace.candidates.values():
                if candidate.stage in (STAGE_BITMAP_PRUNED, STAGE_RELATION_PRUNED):
                    bound = (
                        f" bound={candidate.score_bound:.3f}"
                        if candidate.score_bound is not None
                        else ""
                    )
                    lines.append(
                        f"pruned {candidate.image_id}: {candidate.stage}{bound}"
                    )
                elif candidate.stage == STAGE_BOUND_SKIPPED:
                    bound = (
                        f" bound={candidate.score_bound:.3f}"
                        if candidate.score_bound is not None
                        else ""
                    )
                    lines.append(
                        f"skipped {candidate.image_id}: {candidate.stage}{bound}"
                    )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_dicts(self) -> List[dict]:
        """The ranking as JSON-serialisable dicts (one per result)."""
        matches = self.outcome.predicate_matches if self.outcome is not None else None
        dicts: List[dict] = []
        for position, entry in enumerate(self._results):
            if isinstance(entry, RankedResult):
                payload = {
                    "rank": entry.rank,
                    "image_id": entry.image_id,
                    "score": entry.score,
                    "transformation": entry.similarity.transformation.value,
                    "lcs_x": entry.similarity.x.lcs_length,
                    "lcs_y": entry.similarity.y.lcs_length,
                    "common_objects": sorted(entry.similarity.common_objects),
                }
                match = matches.get(entry.image_id) if matches else None
                if isinstance(match, GradedMatch):
                    payload["degree"] = match.degree
                    payload["leaf_degrees"] = dict(match.leaf_degrees)
                dicts.append(payload)
            elif isinstance(entry, GradedMatch):
                dicts.append(
                    {
                        "rank": self._ranks[position],
                        "image_id": entry.image_id,
                        "score": entry.score,
                        "degree": entry.degree,
                        "leaf_degrees": dict(entry.leaf_degrees),
                    }
                )
            else:
                dicts.append(
                    {
                        "rank": self._ranks[position],
                        "image_id": entry.image_id,
                        "score": entry.score,
                        "satisfied": [predicate.to_text() for predicate in entry.satisfied],
                        "unsatisfied": [
                            predicate.to_text() for predicate in entry.unsatisfied
                        ],
                    }
                )
        return dicts

    def to_jsonl(self) -> str:
        """The ranking as JSON Lines text (one result object per line)."""
        return "\n".join(json.dumps(entry, sort_keys=True) for entry in self.to_dicts())


class QueryBuilder:
    """Fluent, composable construction of one :class:`QuerySpec`.

    Builders are cheap mutable accumulators obtained from
    :meth:`RetrievalSystem.query`; every clause method returns ``self`` so
    calls chain.  ``spec()`` freezes the accumulated state, ``execute()``
    runs it.  A builder can be executed repeatedly (e.g. to re-run a query
    after database updates).
    """

    def __init__(
        self, system: "RetrievalSystem", picture: Optional[SymbolicPicture] = None
    ) -> None:
        self._system = system
        self._picture = picture
        self._identifiers: Optional[tuple] = None
        self._transformations: tuple = (Transformation.IDENTITY,)
        self._where_clauses: List[PredicateNode] = []
        self._composition: str = "product"
        self._blend: float = 0.5
        self._limit: Optional[int] = 10
        self._minimum_score: float = 0.0
        self._minimum_shared_labels: int = 1
        self._policy: Optional[SimilarityPolicy] = None
        self._execution: Optional[ExecutionOptions] = None

    # ------------------------------------------------------------------
    # Clauses
    # ------------------------------------------------------------------
    def similar_to(self, picture: SymbolicPicture) -> "QueryBuilder":
        """Rank stored images by modified-LCS similarity to ``picture``."""
        self._picture = picture
        return self

    def partial(self, identifiers: Sequence[str]) -> "QueryBuilder":
        """Restrict the similarity clause to a subset of the query's icons.

        This is the paper's uncertain-target scenario: only the named icons
        (and their arrangement) take part in the evaluation.
        """
        self._identifiers = tuple(identifiers)
        return self

    def invariant(self, enabled: bool = True) -> "QueryBuilder":
        """Search over all rotations/reflections of the query (string reversal)."""
        self._transformations = tuple(Transformation) if enabled else (
            Transformation.IDENTITY,
        )
        return self

    def transformations(self, *transformations: Transformation) -> "QueryBuilder":
        """Search over an explicit set of query transformations."""
        self._transformations = tuple(transformations)
        return self

    def where(
        self,
        predicates: Union[str, RelationPredicate, PredicateNode],
        *,
        fuzzy: bool = False,
        weight: float = 1.0,
    ) -> "QueryBuilder":
        """Constrain images by relation predicates.

        Accepts predicate text in the full boolean grammar — flat
        conjunctions (``"phone right-of monitor and lamp above desk"``) parse
        exactly as before, and the grammar adds ``not`` / ``or`` /
        parentheses and per-leaf ``[fuzzy]`` / ``[w=N]`` annotations (see
        ``docs/predicates.md``).  A pre-parsed
        :class:`~repro.retrieval.predicates.RelationPredicate` or a
        :data:`~repro.retrieval.predicates.PredicateNode` is accepted too.
        Repeated calls combine with ``and``.

        ``fuzzy=True`` / ``weight=N`` apply to every leaf of *this* clause
        (explicit ``[...]`` annotations in the text win).  A plain
        conjunction with default annotations compiles to the historical
        crisp fast path: alone it ranks by the fraction of predicates
        satisfied, with :meth:`similar_to` it filters to full matches.
        Anything graded — ``not``, ``or``, ``fuzzy``, non-unit weights —
        ranks by the tree's satisfaction *degree*; combined with a picture
        the degree composes with the similarity score (see :meth:`compose`).

        Raises:
            repro.retrieval.predicates.PredicateError: on malformed text.
        """
        if isinstance(predicates, RelationPredicate):
            clause: PredicateNode = Leaf(predicate=predicates)
        elif isinstance(predicates, str):
            clause = parse_tree(predicates)
        else:
            clause = predicates
        self._where_clauses.append(annotate(clause, fuzzy, weight))
        return self

    def compose(self, mode: str = "product", blend: Optional[float] = None) -> "QueryBuilder":
        """Pick how a graded predicate degree composes with similarity.

        ``"product"`` (the default) multiplies: ``similarity * degree``.
        ``"sum"`` blends: ``blend * similarity + (1 - blend) * degree``
        (``blend`` defaults to 0.5).  Ignored for crisp conjunctions and
        predicate-only queries.

        Raises:
            repro.index.spec.QuerySpecError: on an unknown mode or a blend
                outside [0, 1] (raised when the spec is compiled).
        """
        self._composition = mode
        if blend is not None:
            self._blend = blend
        return self

    # ------------------------------------------------------------------
    # Knobs
    # ------------------------------------------------------------------
    def limit(self, count: Optional[int]) -> "QueryBuilder":
        """Keep only the top ``count`` results (``None`` for unlimited)."""
        self._limit = count
        return self

    def min_score(self, score: float) -> "QueryBuilder":
        """Drop results scoring below ``score``."""
        self._minimum_score = score
        return self

    def min_shared_labels(self, count: int) -> "QueryBuilder":
        """Require candidates to share at least ``count`` labels with the query."""
        self._minimum_shared_labels = count
        return self

    def execution(
        self, options: Optional[ExecutionOptions] = None, **overrides
    ) -> "QueryBuilder":
        """Set per-query execution options (kernel, strategy, shortlist, ...).

        Accepts a full :class:`~repro.index.execution.ExecutionOptions` or
        individual fields as keywords (``kernel="bitparallel"``,
        ``strategy="anytime"``, ``shortlist=False``, ``cache=False``, ...).
        Repeated calls accumulate: later non-``None`` fields win.  Fields
        left unset inherit the engine's defaults.

        Raises:
            ValueError: on an unknown field or an out-of-vocabulary value.
        """
        addition = options if options is not None else ExecutionOptions()
        if overrides:
            addition = addition.overlaid(ExecutionOptions(**overrides))
        base = self._execution if self._execution is not None else ExecutionOptions()
        self._execution = base.overlaid(addition)
        return self

    def policy(self, policy: SimilarityPolicy) -> "QueryBuilder":
        """Override the similarity policy for this query."""
        self._policy = policy
        return self

    # ------------------------------------------------------------------
    # Compilation and execution
    # ------------------------------------------------------------------
    def spec(self) -> QuerySpec:
        """Freeze the builder into a validated :class:`QuerySpec`.

        Returns:
            The declarative spec the unified pipeline executes.

        Raises:
            repro.index.spec.QuerySpecError: if the accumulated clauses do
                not form a runnable query.
        """
        predicates, predicate_tree = compile_where(self._where_clauses)
        return self._system._bind(
            QuerySpec(
                picture=self._picture,
                identifiers=self._identifiers,
                transformations=self._transformations,
                predicates=predicates,
                predicate_tree=predicate_tree,
                predicate_composition=self._composition,
                predicate_blend=self._blend,
                limit=self._limit,
                minimum_score=self._minimum_score,
                minimum_shared_labels=self._minimum_shared_labels,
                policy=self._policy,
                execution=self._execution,
            )
        )

    def execute(self) -> ResultSet:
        """Compile and run the query through the unified pipeline.

        Returns:
            A :class:`ResultSet` with the ranking, trace and export helpers.
        """
        return self._system.execute(self.spec())

    def explain(self) -> str:
        """Execute the query and return its explain report (convenience)."""
        return self.execute().explain_report()

