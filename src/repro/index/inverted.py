"""Inverted index from icon labels to image ids.

Before running the O(mn) LCS evaluation against every stored image, the query
engine shortlists candidates that share at least a configurable number of icon
labels with the query.  This is a straightforward inverted index -- the kind
of auxiliary structure an image database built on the paper's model would keep
alongside the BE-strings.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Set

from repro.iconic.picture import SymbolicPicture


@dataclass
class InvertedSymbolIndex:
    """Maps icon labels to the set of image ids containing them.

    Each label's postings are an insertion-ordered dict used as a set (its
    values are ``None``): at a hundred ids it takes about two fifths of a
    ``set``'s memory, and membership, insertion and removal stay O(1).

    Invariant: ``_postings`` never holds an empty posting.  A label whose
    last image is removed disappears from the index entirely, so removed
    labels cannot linger in :attr:`vocabulary` or inflate candidate
    shortlists.  ``_postings`` is deliberately a plain dict -- a
    ``defaultdict`` would silently materialise empty postings on any stray
    subscript lookup and break that invariant.
    """

    _postings: Dict[str, Dict[str, None]] = field(default_factory=dict)
    #: Each indexed image's label multiset.  Never mutated: an update
    #: replaces the image's entry whole.
    _image_labels: Dict[str, Mapping[str, int]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def add_picture(
        self,
        image_id: str,
        picture: SymbolicPicture,
        label_counts: Optional[Mapping[str, int]] = None,
    ) -> None:
        """Index all labels of a picture under ``image_id``.

        ``label_counts`` is the picture's label multiset when the caller has
        counted it already; the index keeps that mapping rather than
        counting again.  The query engine passes its record signature's
        :attr:`~repro.index.shortlist.ImageSignature.label_counts`, so the
        two share one dict per image.
        """
        if image_id in self._image_labels:
            raise KeyError(f"image id {image_id!r} already indexed")
        labels = Counter(picture.labels) if label_counts is None else label_counts
        self._image_labels[image_id] = labels
        postings = self._postings
        for label in labels:
            images = postings.get(label)
            if images is None:
                postings[label] = {image_id: None}
            else:
                images[image_id] = None

    def remove_picture(self, image_id: str) -> None:
        """Remove all postings of an image, dropping emptied labels entirely."""
        try:
            labels = self._image_labels.pop(image_id)
        except KeyError:
            raise KeyError(f"image id {image_id!r} is not indexed") from None
        for label in labels:
            postings = self._postings.get(label)
            if postings is not None:
                postings.pop(image_id, None)
                if not postings:
                    del self._postings[label]

    def update_picture(
        self,
        image_id: str,
        picture: SymbolicPicture,
        label_counts: Optional[Mapping[str, int]] = None,
    ) -> None:
        """(Re-)index an image after its contents changed (see :meth:`add_picture`)."""
        if image_id in self._image_labels:
            self.remove_picture(image_id)
        self.add_picture(image_id, picture, label_counts)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def images_with_label(self, label: str) -> Set[str]:
        """Ids of images containing at least one icon with ``label``."""
        return set(self._postings.get(label, ()))

    def candidates(self, labels: Iterable[str], minimum_shared: int = 1) -> Set[str]:
        """Image ids sharing at least ``minimum_shared`` distinct query labels."""
        if minimum_shared < 1:
            raise ValueError("minimum_shared must be at least 1")
        tally: Counter = Counter()
        for label in set(labels):
            for image_id in self._postings.get(label, ()):
                tally[image_id] += 1
        return {image_id for image_id, shared in tally.items() if shared >= minimum_shared}

    def labels_of(self, image_id: str) -> Counter:
        """Label multiset of one indexed image."""
        try:
            return Counter(self._image_labels[image_id])
        except KeyError:
            raise KeyError(f"image id {image_id!r} is not indexed") from None

    @property
    def indexed_images(self) -> List[str]:
        """All indexed image ids, sorted."""
        return sorted(self._image_labels)

    @property
    def vocabulary(self) -> List[str]:
        """All labels with at least one posting, sorted."""
        return sorted(self._postings)

    def __len__(self) -> int:
        return len(self._image_labels)
