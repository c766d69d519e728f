"""Inverted index from icon labels to image ids.

Before running the O(mn) LCS evaluation against every stored image, the query
engine shortlists candidates that share at least a configurable number of icon
labels with the query.  This is a straightforward inverted index -- the kind
of auxiliary structure an image database built on the paper's model would keep
alongside the BE-strings.  Merging a query's postings also tallies how many
of the query's labels each candidate holds, which is stage 1 of the
shortlist (:mod:`repro.index.shortlist`), and the label multiset kept per
image gives the exact overlap where a threshold needs it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Set

from repro.iconic.picture import SymbolicPicture


def count_labels(labels: Iterable[str]) -> Dict[str, int]:
    """The label multiset as a plain ``label -> count`` dict."""
    counts: Dict[str, int] = {}
    for label in labels:
        if label in counts:
            counts[label] += 1
        else:
            counts[label] = 1
    return counts


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
    def add_picture(self, image_id: str, picture: SymbolicPicture) -> None:
        """Index all labels of a picture under ``image_id``."""
        if image_id in self._image_labels:
            raise KeyError(f"image id {image_id!r} already indexed")
        labels = count_labels(picture.labels)
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

    def update_picture(self, image_id: str, picture: SymbolicPicture) -> None:
        """(Re-)index an image after its contents changed."""
        if image_id in self._image_labels:
            self.remove_picture(image_id)
        self.add_picture(image_id, picture)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def images_with_label(self, label: str) -> Set[str]:
        """Ids of images containing at least one icon with ``label``."""
        return set(self._postings.get(label, ()))

    def candidates(self, labels: Iterable[str], minimum_shared: int = 1) -> Dict[str, int]:
        """The tally of each image sharing at least ``minimum_shared`` distinct query labels.

        ``labels`` is the query's label multiset.  An image's tally sums,
        over the distinct labels it shares with the query, the query's
        count of that label: one pass over the query's postings
        (ScanCount, in Li, Lu & Lu, "Efficient Merging and Filtering
        Algorithms for Approximate String Searches", ICDE 2008).  A shared
        label contributes ``min(query count, image count)`` to the
        label-multiset overlap and its query count to the tally, so the
        tally bounds the overlap from above, and equals it when no query
        label repeats.
        """
        if minimum_shared < 1:
            raise ValueError("minimum_shared must be at least 1")
        tally: Dict[str, int] = {}
        shared: Dict[str, int] = {}
        for label, count in Counter(labels).items():
            for image_id in self._postings.get(label, ()):
                tally[image_id] = tally.get(image_id, 0) + count
                if minimum_shared > 1:
                    shared[image_id] = shared.get(image_id, 0) + 1
        if minimum_shared > 1:
            return {
                image_id: count
                for image_id, count in tally.items()
                if shared[image_id] >= minimum_shared
            }
        return tally

    def labels_of(self, image_id: str) -> Counter:
        """Label multiset of one indexed image, as a fresh ``Counter``."""
        return Counter(self.label_counts(image_id))

    def label_counts(self, image_id: str) -> Mapping[str, int]:
        """The ``label -> count`` map the index keeps for one image; do not mutate it."""
        try:
            return self._image_labels[image_id]
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
