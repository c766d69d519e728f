"""Record index state equals a brute-force derivation.

Three angles on what a load derives per record:

* :meth:`AxisSignature.from_axis` walks an axis string once; its slots
  and packed positions must equal a scan that looks at every identifier
  separately, on any symbol sequence, malformed ones included (a missing
  begin or end, a repeated boundary, a dummy or boundary symbol that is not
  the shared instance);
* :meth:`ImageSignature.from_bestring` shares one slot table between the
  two axes; an object takes part in pairs only when the scan of each axis
  finds it complete, in order of first appearance on the x axis;
* the engine's :class:`InvertedSymbolIndex` keeps the label counts of each
  record's signature rather than its own copy; after a load and any run of
  inserts, object edits and deletes, its postings and candidates must equal
  those of an index rebuilt from the records, so a shared count cannot go
  stale after an edit.
"""

import tempfile
from collections import Counter
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.core.bestring import AxisBEString, BEString2D
from repro.core.symbols import BoundaryKind, Symbol
from repro.datasets.synthetic import SceneParameters, random_pictures
from repro.geometry.rectangle import Rectangle
from repro.index.inverted import InvertedSymbolIndex
from repro.index.shortlist import AxisSignature, ImageSignature
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
    """The signature facts by brute force: one scan per identifier and kind.

    Positions are listed by slot: complete objects in order of first
    appearance.
    """
    boundary_symbols = [symbol for symbol in symbols if symbol.is_boundary]
    begins, ends = {}, {}
    for identifier in dict.fromkeys(symbol.identifier for symbol in boundary_symbols):
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
        "slots": [(identifier, slot) for slot, identifier in enumerate(begins)],
        "begins": list(begins.values()),
        "ends": list(ends.values()),
    }


@settings(max_examples=300, deadline=None)
@given(symbols=st.lists(_SYMBOLS, max_size=24))
def test_from_axis_equals_a_brute_force_scan(symbols):
    signature = AxisSignature.from_axis(AxisBEString(tuple(symbols)))
    assert type(signature.begins) is type(signature.ends) is bytes
    assert {
        "length": signature.length,
        "boundaries": signature.boundaries,
        "dummies": signature.dummies,
        "slots": list(signature.slots.items()),
        "begins": list(signature.begins),
        "ends": list(signature.ends),
    } == scan(symbols)


@settings(max_examples=300, deadline=None)
@given(x=st.lists(_SYMBOLS, max_size=24), y=st.lists(_SYMBOLS, max_size=24))
def test_image_signature_equals_a_brute_force_scan_of_both_axes(x, y):
    signature = ImageSignature.from_bestring(
        BEString2D(AxisBEString(tuple(x)), AxisBEString(tuple(y))), []
    )
    x_facts, y_facts = scan(x), scan(y)
    x_positions = dict(zip(dict(x_facts["slots"]), zip(x_facts["begins"], x_facts["ends"])))
    y_positions = dict(zip(dict(y_facts["slots"]), zip(y_facts["begins"], y_facts["ends"])))
    complete = [identifier for identifier in x_positions if identifier in y_positions]
    assert signature.x.slots is signature.y.slots
    assert list(signature.x.slots.items()) == [
        (identifier, slot) for slot, identifier in enumerate(complete)
    ]
    for axis, facts, positions in (
        (signature.x, x_facts, x_positions),
        (signature.y, y_facts, y_positions),
    ):
        assert (axis.length, axis.boundaries, axis.dummies) == (
            facts["length"],
            facts["boundaries"],
            facts["dummies"],
        )
        assert list(zip(axis.begins, axis.ends)) == [
            positions[identifier] for identifier in complete
        ]


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
