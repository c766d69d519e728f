"""Unit tests for BE-string symbols."""

import copy
import pickle

import pytest

from repro.core import symbols
from repro.core.construct import encode_picture
from repro.core.errors import EncodingError
from repro.core.symbols import BoundaryKind, Symbol
from repro.geometry.rectangle import Rectangle
from repro.iconic.picture import SymbolicPicture


class TestConstruction:
    def test_dummy_singleton_properties(self):
        dummy = Symbol.dummy()
        assert dummy.is_dummy
        assert not dummy.is_boundary
        assert not dummy.is_begin
        assert not dummy.is_end

    def test_begin_and_end_constructors(self):
        begin = Symbol.begin("car")
        end = Symbol.end("car")
        assert begin.is_begin and begin.is_boundary
        assert end.is_end and end.is_boundary
        assert begin != end

    def test_partial_symbol_rejected(self):
        with pytest.raises(EncodingError):
            Symbol(identifier="car", kind=None)
        with pytest.raises(EncodingError):
            Symbol(identifier=None, kind=BoundaryKind.BEGIN)

    def test_empty_identifier_rejected(self):
        with pytest.raises(EncodingError):
            Symbol.begin("")

    def test_symbols_are_hashable_and_comparable(self):
        assert Symbol.begin("A") == Symbol.begin("A")
        assert len({Symbol.begin("A"), Symbol.begin("A"), Symbol.end("A")}) == 2


class TestBoundaryKind:
    def test_opposite(self):
        assert BoundaryKind.BEGIN.opposite is BoundaryKind.END
        assert BoundaryKind.END.opposite is BoundaryKind.BEGIN


class TestSwapped:
    def test_swapping_boundary(self):
        assert Symbol.begin("A").swapped() == Symbol.end("A")
        assert Symbol.end("A").swapped() == Symbol.begin("A")

    def test_swapping_dummy_is_noop(self):
        assert Symbol.dummy().swapped() is Symbol.dummy()

    def test_swap_is_involution(self):
        symbol = Symbol.begin("car#2")
        assert symbol.swapped().swapped() == symbol


class TestTextForm:
    def test_to_text(self):
        assert Symbol.dummy().to_text() == "E"
        assert Symbol.begin("A").to_text() == "A.b"
        assert Symbol.end("car#1").to_text() == "car#1.e"

    def test_from_text_roundtrip(self):
        for symbol in (Symbol.dummy(), Symbol.begin("A"), Symbol.end("car#1")):
            assert Symbol.from_text(symbol.to_text()) == symbol

    def test_from_text_identifier_containing_dot(self):
        symbol = Symbol.from_text("image.v2.b")
        assert symbol.identifier == "image.v2"
        assert symbol.is_begin

    def test_from_text_rejects_malformed(self):
        with pytest.raises(EncodingError):
            Symbol.from_text("A")
        with pytest.raises(EncodingError):
            Symbol.from_text("A.x")


class TestInterning:
    def test_equal_keys_share_one_object_across_constructors(self):
        picture = SymbolicPicture.build(
            10, 10, [("car", Rectangle(1, 1, 3, 3)), ("tree", Rectangle(2, 4, 6, 8))]
        )
        bestring = encode_picture(picture)
        again = encode_picture(picture)
        encoded = {}
        for axis, other in ((bestring.x, again.x), (bestring.y, again.y)):
            for symbol, twin in zip(axis, other):
                assert symbol is twin
                if symbol.is_boundary:
                    assert encoded.setdefault(symbol.to_text(), symbol) is symbol
        assert sorted(encoded) == ["car.b", "car.e", "tree.b", "tree.e"]
        for text, symbol in encoded.items():
            assert Symbol.from_text(text) is symbol
            assert symbol.swapped().swapped() is symbol
        assert Symbol.begin("car") is encoded["car.b"]
        assert Symbol.end("car") is encoded["car.e"]
        assert Symbol.begin("tree").swapped() is encoded["tree.e"]
        assert Symbol.boundary("tree", BoundaryKind.BEGIN) is encoded["tree.b"]

    def test_table_never_exceeds_its_cap(self, monkeypatch):
        monkeypatch.setattr(symbols, "_BOUNDARIES", {})
        cap = symbols.BOUNDARY_INTERN_LIMIT
        for index in range(cap + 100):
            Symbol.begin(f"label-{index}")
            assert len(symbols._BOUNDARIES) <= cap
        assert len(symbols._BOUNDARIES) == 100

    def test_overlong_identifiers_are_not_retained(self, monkeypatch):
        monkeypatch.setattr(symbols, "_BOUNDARIES", {})
        identifier = "x" * (symbols.BOUNDARY_INTERN_MAX_LENGTH + 1)
        first = Symbol.begin(identifier)
        assert not symbols._BOUNDARIES
        assert Symbol.begin(identifier) == first
        assert Symbol.end(identifier[:-1]) is Symbol.end(identifier[:-1])

    def test_symbols_stay_equal_across_a_clear_and_a_pickle(self, monkeypatch):
        monkeypatch.setattr(symbols, "_BOUNDARIES", {})
        monkeypatch.setattr(symbols, "BOUNDARY_INTERN_LIMIT", 4)
        before = Symbol.begin("car")
        for index in range(10):
            Symbol.end(f"filler-{index}")
        after = Symbol.begin("car")
        assert after is not before
        others = [
            after,
            pickle.loads(pickle.dumps(before)),
            copy.copy(before),
            copy.deepcopy(before),
            Symbol(identifier="car", kind=BoundaryKind.BEGIN),
        ]
        for other in others:
            assert other == before
            assert hash(other) == hash(before)
            assert not other < before and not before < other
            assert {before: "found"}[other] == "found"

    def test_empty_identifier_is_rejected_on_every_call(self):
        for _ in range(3):
            with pytest.raises(EncodingError):
                Symbol.begin("")
            with pytest.raises(EncodingError):
                Symbol.boundary("", BoundaryKind.END)
            with pytest.raises(EncodingError):
                Symbol.from_text(".e")
        assert ("", BoundaryKind.BEGIN) not in symbols._BOUNDARIES
        assert ("", BoundaryKind.END) not in symbols._BOUNDARIES

    def test_retained_symbols_never_exceed_the_limit(self, monkeypatch):
        # Each identifier keeps a (begin, end) pair, two symbols against the limit.
        monkeypatch.setattr(symbols, "_BOUNDARIES", {})
        monkeypatch.setattr(symbols, "BOUNDARY_INTERN_LIMIT", 8)
        for index in range(20):
            Symbol.end(f"label-{index}")
            retained = sum(len(pair) for pair in symbols._BOUNDARIES.values())
            assert 0 < retained <= 8

    def test_rejected_empty_identifier_stays_out_of_the_pair_table(self, monkeypatch):
        # The table is keyed by identifier, one (begin, end) pair each, so the
        # (identifier, kind) keys the test above looks for can never be in it.
        monkeypatch.setattr(symbols, "_BOUNDARIES", {})
        for _ in range(3):
            for reject in (
                lambda: Symbol.boundaries(""),
                lambda: Symbol.begin(""),
                lambda: Symbol.end(""),
                lambda: Symbol.boundary("", BoundaryKind.END),
                lambda: Symbol.from_text(".e"),
            ):
                with pytest.raises(EncodingError):
                    reject()
                assert "" not in symbols._BOUNDARIES
        assert not symbols._BOUNDARIES
