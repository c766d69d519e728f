"""One coherent execution-configuration surface for the query engine.

Every execution knob -- the LCS kernel, the search strategy, the shortlist
and score-cache toggles, and the executor with its shard-pool size -- lives
in one :class:`ExecutionOptions` value that travels from engine construction
(``QueryEngine.build(execution=...)``) through :class:`~repro.index.spec.QuerySpec`,
the fluent builder, :meth:`~repro.retrieval.system.RetrievalSystem.query_batch`,
the CLI flags, and the service ``/search`` and ``/batch`` payloads.

Every field is optional: ``None`` means "inherit" — from the per-query
options to the engine default to the documented defaults
(:data:`DEFAULT_EXECUTION`).  Resolution is a simple two-step overlay::

    effective = engine.execution.overlaid(spec.execution).resolved()

``docs/query-api.md`` documents every field; ``docs/kernels.md`` documents
what the ``kernel`` and ``strategy`` values actually run.

The module also defines the frozen :class:`ExecutionStatistics` and
:class:`PredicateStatistics` snapshots of the service ``/stats`` totals,
which :class:`repro.index.query.EngineCounters` folds from each finished
query's trace.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, Dict, Mapping, Optional

from repro.index.backends import DEFAULT_SHARD_COUNT

#: Length-only bit-parallel LCS kernel (``repro.core.lcskernel``).
KERNEL_BITPARALLEL = "bitparallel"
#: The reference dynamic program (``repro.core.lcs``).
KERNEL_REFERENCE = "reference"
KERNELS = (KERNEL_BITPARALLEL, KERNEL_REFERENCE)

#: Branch-and-bound top-k: score in descending-bound order, stop early.
STRATEGY_ANYTIME = "anytime"
#: Score every shortlist survivor.
STRATEGY_EXHAUSTIVE = "exhaustive"
STRATEGIES = (STRATEGY_ANYTIME, STRATEGY_EXHAUSTIVE)

#: Run in the calling process, through the one candidate loop.
EXECUTOR_SERIAL = "serial"
#: Scatter-gather over the process-parallel shard workers
#: (:mod:`repro.index.workers`): each worker owns a disjoint slice of the
#: CRC-32 shard space and scores locally; merged rankings are byte-identical
#: to the serial engine.
EXECUTOR_SHARD_PROCESS = "shard_process"
EXECUTORS = (EXECUTOR_SERIAL, EXECUTOR_SHARD_PROCESS)
#: The most shard workers a pool may have: the shard space has
#: :data:`~repro.index.backends.DEFAULT_SHARD_COUNT` shards, and a worker
#: past that count would own none.
MAX_WORKERS = DEFAULT_SHARD_COUNT


@dataclass(frozen=True)
class ExecutionOptions:
    """How a query (or every query of an engine) should be executed.

    ``None`` fields inherit from the next layer down; see the module
    docstring for the overlay order.  Instances are immutable — derive
    variants with :meth:`overlaid` or :func:`dataclasses.replace`.
    """

    #: LCS implementation for scoring: ``bitparallel`` or ``reference``.
    kernel: Optional[str] = None
    #: Candidate-processing strategy: ``anytime`` or ``exhaustive``.
    strategy: Optional[str] = None
    #: Run the inverted-index + signature shortlist before scoring, and
    #: label-prune the predicate stage; ``False`` evaluates every stored image.
    shortlist: Optional[bool] = None
    #: Consult and populate the engine's score cache.
    cache: Optional[bool] = None
    #: ``serial`` runs in the calling process; ``shard_process``
    #: scatter-gathers every query, and every batch, across the
    #: process-parallel shard workers (:mod:`repro.index.workers`).
    executor: Optional[str] = None
    #: Shard-pool size under ``executor="shard_process"``, from 1 to
    #: :data:`MAX_WORKERS`.
    workers: Optional[int] = None

    def __post_init__(self) -> None:
        """Reject values outside the documented vocabulary and types.

        This is the one check every worker count passes before a shard pool
        forks, whether it comes from the library, ``--shard-workers`` or a
        ``/search`` or ``/batch`` payload.
        """
        for name, allowed in (
            ("kernel", KERNELS),
            ("strategy", STRATEGIES),
            ("executor", EXECUTORS),
        ):
            value = getattr(self, name)
            if value is not None and value not in allowed:
                raise ValueError(f"{name} must be one of {allowed}, got {value!r}")
        for name in ("shortlist", "cache"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, bool):
                raise ValueError(f"{name} must be a boolean, got {value!r}")
        workers = self.workers
        if workers is not None and (
            isinstance(workers, bool)
            or not isinstance(workers, int)
            or not 1 <= workers <= MAX_WORKERS
        ):
            raise ValueError(
                f"workers must be an integer from 1 to {MAX_WORKERS}, got {workers!r}"
            )

    def overlaid(self, overrides: Optional["ExecutionOptions"]) -> "ExecutionOptions":
        """These options with every non-``None`` field of ``overrides`` applied."""
        if overrides is None:
            return self
        changed = {
            field.name: value
            for field in fields(overrides)
            if (value := getattr(overrides, field.name)) is not None
        }
        return replace(self, **changed) if changed else self

    def resolved(self) -> "ExecutionOptions":
        """Fill the remaining ``None`` fields with the documented defaults."""
        return DEFAULT_EXECUTION.overlaid(self)

    def describe(self) -> str:
        """Compact ``key=value`` summary of the explicitly set fields."""
        parts = [
            f"{field.name}={value}"
            for field in fields(self)
            if (value := getattr(self, field.name)) is not None
        ]
        return " ".join(parts) if parts else "inherit-all"

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly mapping of the explicitly set fields."""
        return {
            field.name: value
            for field in fields(self)
            if (value := getattr(self, field.name)) is not None
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ExecutionOptions":
        """Inverse of :meth:`to_dict`; rejects unknown keys."""
        known = {field.name for field in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown execution option(s): {sorted(unknown)}")
        return cls(**dict(payload))


#: The documented defaults.  Every kernel and strategy ranks byte-identically,
#: so the default is the fastest pair: the bit-parallel kernel under the
#: anytime stop rule.
DEFAULT_EXECUTION = ExecutionOptions(
    kernel=KERNEL_BITPARALLEL,
    strategy=STRATEGY_ANYTIME,
    shortlist=True,
    cache=True,
    executor=EXECUTOR_SERIAL,
    workers=4,
)


@dataclass(frozen=True)
class ExecutionStatistics:
    """Cumulative branch-and-bound counters (surfaced by the service ``/stats``)."""

    queries: int
    anytime_queries: int
    admitted: int
    examined: int
    skipped: int

    @property
    def examined_fraction(self) -> float:
        """Fraction of admitted candidates that actually reached a scoring DP."""
        if not self.admitted:
            return 0.0
        return self.examined / self.admitted


@dataclass(frozen=True)
class PredicateStatistics:
    """Cumulative predicate-stage counters (surfaced by the service ``/stats``).

    ``evaluated`` counts images whose predicate clause was actually walked;
    ``pruned`` counts images admitted to the universe but settled at degree
    0 (or an all-unsatisfied crisp match) by the label-absence bound without
    any evaluation.
    """

    queries: int
    graded_queries: int
    evaluated: int
    pruned: int

    @property
    def pruned_fraction(self) -> float:
        """Fraction of considered images the label bound settled for free."""
        considered = self.evaluated + self.pruned
        if not considered:
            return 0.0
        return self.pruned / considered
