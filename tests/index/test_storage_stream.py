"""The JSON loader decodes a v1 document one image entry at a time.

``load_database`` walks the document's top level itself, so these tests pin
it to what decoding the whole document gives:

* any document ``json.dumps`` writes for a database loads to the records,
  order and name of ``database_from_json(json.loads(text))``, whatever the
  key order, indent, extra top-level keys, or an empty or absent ``images``;
* every malformed document is refused with a ``StorageError`` naming the
  path, the file cut at any byte included, in the order ``json.load``
  followed by ``database_from_json`` gives;
* a load peaks below what it keeps plus the file's text: the whole decoded
  document never exists beside the records.
"""

import gc
import json
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.datasets.synthetic import SceneParameters, random_pictures
from repro.geometry.rectangle import Rectangle
from repro.iconic.picture import SymbolicPicture
from repro.index.database import ImageDatabase
from repro.index.storage import (
    StorageError,
    database_from_json,
    database_to_json,
    load_database,
)
from repro.retrieval.system import RetrievalSystem


def _database(count, name="stream-db"):
    """``count`` small scenes with repeated labels, stored under ``name``."""
    database = ImageDatabase(name=name)
    parameters = SceneParameters(object_count=2, labels=("a", "b"), label_choice="random")
    database.add_pictures(random_pictures(count, seed=count, parameters=parameters))
    return database


def _state(database):
    return database.name, [
        (record.image_id, record.picture, record.bestring) for record in database
    ]


#: A JSON value to put under an extra top-level key.
_EXTRA_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=5),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=6,
)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    count=st.integers(0, 3),
    images=st.sampled_from(["kept", "empty", "absent"]),
    name=st.sampled_from(["kept", "absent"]),
    extras=st.dictionaries(
        st.sampled_from(["comment", "signature", "images_count", "x"]), _EXTRA_VALUES, max_size=2
    ),
    indent=st.sampled_from([None, 2]),
    order=st.randoms(use_true_random=False),
)
def test_a_load_equals_decoding_the_whole_document(
    tmp_path_factory, count, images, name, extras, indent, order
):
    payload = database_to_json(_database(count))
    if images == "empty":
        payload["images"] = []
    elif images == "absent":
        del payload["images"]
    if name == "absent":
        del payload["name"]
    payload.update(extras)
    keys = list(payload)
    order.shuffle(keys)
    text = json.dumps({key: payload[key] for key in keys}, indent=indent)
    path = tmp_path_factory.mktemp("stream") / "db.json"
    path.write_text(text, encoding="utf-8")
    loaded = load_database(path)
    assert _state(loaded) == _state(database_from_json(json.loads(text)))
    assert loaded.dirty_ids == frozenset()


#: Hand-written layouts ``json.dumps`` never writes: whitespace anywhere,
#: keys in any order or repeated, an empty or absent ``images``.
_LAYOUTS = {
    "reversed keys": '{"schema_version": 1, "name": "n", "images": %(images)s}',
    "images absent": '{"name": "n", "schema_version": 1}',
    "name absent": '{"images": %(images)s, "schema_version": 1}',
    "empty images": '{"images": [], "name": "n", "schema_version": 1}',
    "whitespace": '\t{ "images"\n:\r\n%(images)s ,\n"name" :"n",  "schema_version":1 }\n ',
    "extra keys": '{"a": [1, {"b": [[], {}]}], "images": %(images)s, "z": {"images": 3},'
    ' "schema_version": 1}',
    "repeated name": '{"name": "first", "images": %(images)s, "name": "last", "schema_version": 1}',
    "repeated version": '{"schema_version": 2, "images": %(images)s, "schema_version": 1}',
}


@pytest.mark.parametrize("layout", sorted(_LAYOUTS))
def test_a_hand_written_layout_loads_as_a_whole_decode_does(tmp_path, layout):
    images = json.dumps(database_to_json(_database(3))["images"])
    text = _LAYOUTS[layout] % {"images": images}
    path = tmp_path / "db.json"
    path.write_text(text, encoding="utf-8")
    assert _state(load_database(path)) == _state(database_from_json(json.loads(text)))


#: Syntax errors reported at the same place and in the same words as
#: ``json.loads`` reports them.
_SYNTAX_ERRORS = [
    "",
    "{",
    '{"images": [',
    '{"images": [{"a": 1}',
    '{"images" [',
    '{"images": [] "name": 1}',
    '{"images": [1 2]}',
    '{"name": }',
    ' {"images": []} x',
    '{\n  "images": [\n    {"image_id": "x"}\n  ]\n',
]


@pytest.mark.parametrize("text", _SYNTAX_ERRORS)
def test_a_syntax_error_is_reported_as_json_loads_reports_it(tmp_path, text):
    with pytest.raises(json.JSONDecodeError) as expected:
        json.loads(text)
    assert f"is not valid JSON: {expected.value}" in _refused(tmp_path / "db.json", text)


@pytest.fixture
def three(tmp_path):
    """A compact three-image database file and its text."""
    text = json.dumps(database_to_json(_database(3)))
    path = tmp_path / "three.json"
    path.write_text(text, encoding="utf-8")
    return path, text


def _refused(path, text):
    """The refusal of a load of ``text``, after the path it must start with."""
    path.write_text(text, encoding="utf-8")
    with pytest.raises(StorageError) as refusal:
        load_database(path)
    message = str(refusal.value)
    assert message.startswith(str(path))
    return message[len(str(path)) :]


def test_a_file_cut_at_any_byte_is_refused(three):
    path, text = three
    assert len(load_database(path)) == 3
    for offset in range(len(text)):
        assert "is not valid JSON" in _refused(path, text[:offset]), offset


@pytest.mark.parametrize("trailer", [" {}", "x", "]", ' "more"', "\n{"])
def test_trailing_data_is_refused(three, trailer):
    path, text = three
    assert "Extra data" in _refused(path, text + trailer)


@pytest.mark.parametrize("document", ["[]", "1", '"images"', "null", " [{}]"])
def test_a_top_level_that_is_not_an_object_is_refused(tmp_path, document):
    assert "bad structure" in _refused(tmp_path / "db.json", document)


@pytest.mark.parametrize("images", ["{}", "null", '"x"', "3"])
def test_an_images_value_that_is_not_a_list_is_refused(tmp_path, images):
    document = '{"schema_version": 1, "images": %s}' % images
    assert "bad structure" in _refused(tmp_path / "db.json", document)


def test_a_repeated_images_key_is_refused(three):
    path, text = three
    entries = json.dumps(database_to_json(_database(2))["images"])
    repeated = text[:-1] + ', "images": %s}' % entries
    assert "repeated" in _refused(path, repeated)
    assert "repeated" in _refused(path, '{"images": [], "images": []}')


@pytest.mark.parametrize("where", ["before", "after"])
def test_a_wrong_schema_version_is_refused_before_or_after_the_images(tmp_path, where):
    payload = database_to_json(_database(2))
    version = {"schema_version": 99}
    rest = {key: value for key, value in payload.items() if key != "schema_version"}
    document = {**version, **rest} if where == "before" else {**rest, **version}
    assert "unsupported schema version" in _refused(tmp_path / "db.json", json.dumps(document))


def test_refusals_come_in_the_order_a_whole_decode_gives(tmp_path):
    path = tmp_path / "db.json"
    payload = database_to_json(_database(2))
    payload["images"][0]["bestring"]["x"] = "E"
    bad_entry = json.dumps(payload)
    assert "does not match its picture" in _refused(path, bad_entry)
    # The schema version outranks a bad entry, wherever it stands.
    payload["schema_version"] = 2
    assert "unsupported schema version" in _refused(path, json.dumps(payload))
    # A bad structure outranks the schema version, and a syntax error all.
    assert "bad structure" in _refused(path, bad_entry[:-1] + ', "images": {}}')
    assert "is not valid JSON" in _refused(path, bad_entry[:-1])


def test_a_bom_is_refused_as_json_load_refuses_it(three):
    path, text = three
    assert "BOM" in _refused(path, "﻿" + text)


def test_a_load_peaks_below_what_it_keeps_plus_the_text(tmp_path):
    objects = [(f"c{index:02d}", Rectangle(index, 0, index + 4, 3)) for index in range(8)]
    scene = SymbolicPicture.build(width=20, height=10, objects=objects, name="warm-up")
    parameters = SceneParameters(
        object_count=8, labels=tuple(f"c{index:02d}" for index in range(64)), label_choice="random"
    )
    pictures = random_pictures(200, seed=0, parameters=parameters, name_prefix="img")
    path = RetrievalSystem.from_pictures(pictures).save(tmp_path / "db.json")
    text_bytes = path.stat().st_size
    # One load first, so what later loads share (interned labels) is in place.
    warm = RetrievalSystem.from_pictures([scene]).save(tmp_path / "warm.json")
    RetrievalSystem.from_file(warm)
    gc.collect()
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        system = RetrievalSystem.from_file(path)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(system) == 200
    assert peak - start < (kept - start) + text_bytes
