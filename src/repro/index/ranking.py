"""Ranked retrieval results."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Mapping, Optional

from repro.core.similarity import SimilarityResult


@dataclass(frozen=True)
class RankedResult:
    """One entry of a ranked result list."""

    rank: int
    image_id: str
    score: float
    similarity: SimilarityResult

    def describe(self) -> str:
        """One-line human-readable summary (used by examples)."""
        objects = ", ".join(sorted(self.similarity.common_objects)) or "-"
        return (
            f"#{self.rank:<3d} {self.image_id:<24s} score={self.score:.3f} "
            f"objects=[{objects}] via {self.similarity.transformation.value}"
        )


def rank_results(
    scored: Iterable[tuple[str, SimilarityResult]],
    limit: Optional[int] = None,
    minimum_score: float = 0.0,
    scores: Optional[Mapping[str, float]] = None,
) -> List[RankedResult]:
    """Sort scored images by descending score (ties broken by image id).

    ``limit`` keeps only the top-k entries; ``minimum_score`` drops entries
    below the threshold before ranking.  ``scores`` maps each image id to
    its ranking score where that is not the similarity score (a similarity
    composed with a graded predicate degree).
    """
    ranked = [
        (image_id, result, result.score if scores is None else scores[image_id])
        for image_id, result in scored
    ]
    ranked = [entry for entry in ranked if entry[2] >= minimum_score]
    ranked.sort(key=lambda entry: (-entry[2], entry[0]))
    if limit is not None:
        ranked = ranked[:limit]
    return [
        RankedResult(rank=index + 1, image_id=image_id, score=score, similarity=result)
        for index, (image_id, result, score) in enumerate(ranked)
    ]
