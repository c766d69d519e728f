"""Record index state equals a brute-force derivation.

Three angles on what a load derives per record:

* :meth:`AxisSignature.from_axis` walks an axis string once; it must equal
  a scan that looks at every identifier separately, on any symbol sequence,
  malformed ones included (a missing begin or end, a repeated boundary, a
  dummy or boundary symbol that is not the shared instance);
* :func:`label_bit` remembers each label's CRC-32; the bit must equal the
  CRC-32 bit at every width, on the first call and on a remembered one;
* the engine's :class:`InvertedSymbolIndex` keeps the label counts of each
  record's signature rather than its own copy; after a load and any run of
  inserts, object edits and deletes, its postings and candidates must equal
  those of an index rebuilt from the records, so a shared count cannot go
  stale after an edit.
"""

import tempfile
import zlib
from collections import Counter
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.core.bestring import AxisBEString
from repro.core.symbols import BoundaryKind, Symbol
from repro.datasets.synthetic import SceneParameters, random_pictures
from repro.geometry.rectangle import Rectangle
from repro.index.inverted import InvertedSymbolIndex
from repro.index.shortlist import AxisSignature, label_bit, label_bitmap
from repro.retrieval.system import RetrievalSystem

_IDENTIFIERS = ("a", "b", "c", "d#1")

#: One symbol: the shared dummy, a dummy built directly, or a begin or end
#: boundary of a few identifiers, shared or built directly.
_SYMBOLS = st.one_of(
    st.just(Symbol.dummy()),
    st.builds(Symbol),
    st.builds(
        Symbol.boundary,
        st.sampled_from(_IDENTIFIERS),
        st.sampled_from(list(BoundaryKind)),
    ),
    st.builds(
        Symbol,
        identifier=st.sampled_from(_IDENTIFIERS),
        kind=st.sampled_from(list(BoundaryKind)),
    ),
)


def scan(symbols):
    """The signature facts by brute force: one scan per identifier and kind."""
    boundary_symbols = [symbol for symbol in symbols if symbol.is_boundary]
    begins, ends = {}, {}
    for identifier in {symbol.identifier for symbol in boundary_symbols}:
        begin_at = [
            position
            for position, symbol in enumerate(symbols)
            if symbol.identifier == identifier and symbol.is_begin
        ]
        end_at = [
            position
            for position, symbol in enumerate(symbols)
            if symbol.identifier == identifier and symbol.is_end
        ]
        # The complete-pair rule: an object lacking either boundary takes
        # part in no pair; a repeated boundary keeps its last position.
        if begin_at and end_at:
            begins[identifier] = max(begin_at)
            ends[identifier] = max(end_at)
    return {
        "length": len(symbols),
        "boundaries": len(boundary_symbols),
        "dummies": sum(1 for symbol in symbols if symbol.is_dummy),
        "begins": begins,
        "ends": ends,
    }


@settings(max_examples=300, deadline=None)
@given(symbols=st.lists(_SYMBOLS, max_size=24))
def test_from_axis_equals_a_brute_force_scan(symbols):
    signature = AxisSignature.from_axis(AxisBEString(tuple(symbols)))
    assert {
        "length": signature.length,
        "boundaries": signature.boundaries,
        "dummies": signature.dummies,
        "begins": signature.begins,
        "ends": signature.ends,
    } == scan(symbols)


@settings(max_examples=300, deadline=None)
@given(
    label=st.text(min_size=1, max_size=160),
    width=st.integers(min_value=1, max_value=1 << 20),
)
def test_remembered_label_bit_equals_the_crc32_bit(label, width):
    expected = zlib.crc32(label.encode("utf-8")) % width
    assert label_bit(label, width) == expected
    # The second call reads the remembered CRC-32 (labels up to the length
    # cap); the bit must not depend on which width filled the table.
    assert label_bit(label, width) == expected
    assert label_bit(label, width + 1) == zlib.crc32(label.encode("utf-8")) % (width + 1)
    assert label_bitmap([label, label], width) == 1 << expected


_LABELS = tuple(f"c{index}" for index in range(6))
_PARAMETERS = SceneParameters(object_count=4, labels=_LABELS, label_choice="random")

#: One edit: insert a fresh scene, add an icon to a stored image, remove an
#: icon from one, or delete one.  Each draws its target by index.
_EDITS = st.lists(
    st.tuples(
        st.sampled_from(["insert", "add_object", "remove_object", "delete"]),
        st.integers(min_value=0, max_value=1000),
        st.sampled_from(_LABELS + ("fresh",)),
    ),
    max_size=12,
)


def rebuilt_index(database):
    """An index built from scratch over the records, counting on its own."""
    index = InvertedSymbolIndex()
    for record in database:
        index.add_picture(record.image_id, record.picture)
    return index


def apply_edit(system, step, edit):
    kind, pick, label = edit
    ids = system.image_ids
    if kind == "insert" or not ids:
        fresh = random_pictures(1, seed=pick, parameters=_PARAMETERS)[0]
        system.add_picture(fresh, f"fresh-{step}")
        return
    image_id = ids[pick % len(ids)]
    if kind == "delete":
        system.remove_picture(image_id)
    elif kind == "add_object":
        system.add_object(image_id, label, Rectangle(1.0, 1.0, 2.0 + pick % 7, 3.0))
    else:
        identifiers = system.record(image_id).picture.identifiers
        if identifiers:
            system.remove_object(image_id, identifiers[pick % len(identifiers)])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000), edits=_EDITS)
def test_shared_label_counts_match_a_rebuilt_index(seed, edits):
    pictures = random_pictures(6, seed=seed, parameters=_PARAMETERS, name_prefix="img")
    with tempfile.TemporaryDirectory() as directory:
        path = RetrievalSystem.from_pictures(pictures).save(Path(directory) / "db.json")
        system = RetrievalSystem.from_file(path)
    engine = system._engine
    for step, edit in enumerate(edits):
        apply_edit(system, step, edit)
    expected = rebuilt_index(engine.database)
    index = engine.inverted_index
    assert index.indexed_images == expected.indexed_images
    assert index.vocabulary == expected.vocabulary
    for label in expected.vocabulary + ["fresh", "absent"]:
        assert index.images_with_label(label) == expected.images_with_label(label)
    for record in engine.database:
        assert index.labels_of(record.image_id) == Counter(record.picture.labels)
        assert record.signature.label_counts == Counter(record.picture.labels)
    for size in range(1, 4):
        labels = _LABELS[:size] + ("fresh",)
        for shared in range(1, size + 2):
            assert index.candidates(labels, shared) == expected.candidates(labels, shared)
