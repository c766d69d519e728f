"""Unit tests for the inverted label index."""

import pytest

from repro.index.inverted import InvertedSymbolIndex


class TestMaintenance:
    def test_add_and_lookup(self, office, traffic):
        index = InvertedSymbolIndex()
        index.add_picture("office", office)
        index.add_picture("traffic", traffic)
        assert index.images_with_label("desk") == {"office"}
        assert index.images_with_label("car") == {"traffic"}
        assert index.images_with_label("unknown") == set()
        assert len(index) == 2

    def test_duplicate_id_rejected(self, office):
        index = InvertedSymbolIndex()
        index.add_picture("office", office)
        with pytest.raises(KeyError):
            index.add_picture("office", office)

    def test_remove_picture_clears_postings(self, office):
        index = InvertedSymbolIndex()
        index.add_picture("office", office)
        index.remove_picture("office")
        assert index.images_with_label("desk") == set()
        assert len(index) == 0
        with pytest.raises(KeyError):
            index.remove_picture("office")

    def test_update_picture(self, office):
        index = InvertedSymbolIndex()
        index.add_picture("scene", office)
        index.update_picture("scene", office.remove_icon("phone"))
        assert index.images_with_label("phone") == set()
        assert index.images_with_label("desk") == {"scene"}

    def test_remove_picture_drops_empty_postings_sets(self, office, traffic):
        # Regression: a label whose last image is removed must disappear from
        # the index entirely -- stale labels would keep matching and inflate
        # candidate shortlists.
        index = InvertedSymbolIndex()
        index.add_picture("office", office)
        index.add_picture("traffic", traffic)
        index.remove_picture("office")
        office_only = set(office.labels) - set(traffic.labels)
        assert office_only  # the fixture scenes differ
        for label in office_only:
            assert label not in index.vocabulary
            assert index.candidates([label]) == {}
        assert not any(not postings for postings in index._postings.values())

    def test_update_picture_drops_postings_of_removed_labels(self, office):
        index = InvertedSymbolIndex()
        index.add_picture("scene", office)
        index.update_picture("scene", office.remove_icon("phone"))
        assert "phone" not in index.vocabulary
        assert index.candidates(["phone"]) == {}
        assert not any(not postings for postings in index._postings.values())

    def test_vocabulary_shrinks_back_to_empty(self, office, traffic):
        index = InvertedSymbolIndex()
        index.add_picture("office", office)
        index.add_picture("traffic", traffic)
        index.remove_picture("office")
        index.remove_picture("traffic")
        assert index.vocabulary == []
        assert index._postings == {}

    def test_labels_of(self, landscape):
        index = InvertedSymbolIndex()
        index.add_picture("landscape", landscape)
        labels = index.labels_of("landscape")
        assert labels["tree"] == 2
        with pytest.raises(KeyError):
            index.labels_of("missing")

    def test_label_counts_is_the_map_the_index_keeps(self, landscape):
        index = InvertedSymbolIndex()
        index.add_picture("landscape", landscape)
        counts = index.label_counts("landscape")
        assert type(counts) is dict
        assert counts == index.labels_of("landscape")
        assert index.label_counts("landscape") is counts
        # An update replaces the entry whole.
        index.update_picture("landscape", landscape.remove_icon(landscape.identifiers[0]))
        assert index.label_counts("landscape") is not counts
        with pytest.raises(KeyError):
            index.label_counts("missing")


class TestCandidates:
    def test_candidates_require_shared_labels(self, office, traffic, landscape):
        index = InvertedSymbolIndex()
        index.add_picture("office", office)
        index.add_picture("traffic", traffic)
        index.add_picture("landscape", landscape)
        assert index.candidates(["desk", "monitor"]) == {"office": 2}
        assert index.candidates(["tree"]) == {"landscape": 1}
        assert index.candidates(["nonexistent"]) == {}

    def test_minimum_shared_threshold(self, office, traffic):
        index = InvertedSymbolIndex()
        index.add_picture("office", office)
        index.add_picture("traffic", traffic)
        labels = ["desk", "monitor", "car"]
        assert index.candidates(labels, minimum_shared=1) == {"office": 2, "traffic": 1}
        assert index.candidates(labels, minimum_shared=2) == {"office": 2}
        with pytest.raises(ValueError):
            index.candidates(labels, minimum_shared=0)

    def test_tally_weights_each_shared_label_by_its_query_count(self, landscape, traffic):
        # The tally charges a shared label the query's count of it, whatever
        # the image's: it bounds the multiset overlap min(query, image).
        index = InvertedSymbolIndex()
        index.add_picture("landscape", landscape)  # two trees, one sun
        index.add_picture("traffic", traffic)  # two buildings
        query = ["tree", "tree", "tree", "sun", "building"]
        assert index.candidates(query) == {"landscape": 4, "traffic": 1}
        # ``minimum_shared`` counts distinct labels, not the tally.
        assert index.candidates(query, minimum_shared=2) == {"landscape": 4}

    def test_vocabulary_and_indexed_images(self, office):
        index = InvertedSymbolIndex()
        index.add_picture("office", office)
        assert "desk" in index.vocabulary
        assert index.indexed_images == ["office"]
