"""Shared fixtures for the test suite."""

from __future__ import annotations

import sqlite3

import pytest

from repro.core.construct import encode_picture
from repro.datasets.scenes import landscape_scene, office_scene, traffic_scene
from repro.datasets.synthetic import (
    SceneParameters,
    aligned_picture,
    distinct_boundaries_picture,
    random_picture,
    staircase_picture,
)
from repro.geometry.rectangle import Rectangle
from repro.iconic.picture import SymbolicPicture, fig1_picture


@pytest.fixture
def fig1():
    """The paper's Figure 1 three-object picture."""
    return fig1_picture()


@pytest.fixture
def fig1_bestring(fig1):
    """The 2D BE-string of the Figure 1 picture."""
    return encode_picture(fig1)


@pytest.fixture
def office():
    """The canonical office scene."""
    return office_scene(0)


@pytest.fixture
def traffic():
    """The canonical traffic scene."""
    return traffic_scene(0)


@pytest.fixture
def landscape():
    """The canonical landscape scene."""
    return landscape_scene(0)


@pytest.fixture
def scene_collection():
    """A small mixed collection used by retrieval tests."""
    return [
        office_scene(0),
        office_scene(1),
        office_scene(5),
        traffic_scene(0),
        traffic_scene(4),
        landscape_scene(0),
        landscape_scene(3),
    ]


@pytest.fixture
def random_scene():
    """A deterministic random scene with some aligned boundaries."""
    return random_picture(seed=7, parameters=SceneParameters(object_count=10, alignment_probability=0.4))


@pytest.fixture
def aligned_scene():
    """Best-case scene: all boundaries coincide with neighbours or the frame."""
    return aligned_picture(6)


@pytest.fixture
def staircase_scene():
    """Worst case for C-string cutting: a chain of partial overlaps."""
    return staircase_picture(6)


@pytest.fixture
def sparse_scene():
    """Worst case for BE-string storage: all projections distinct."""
    return distinct_boundaries_picture(6)


@pytest.fixture
def two_object_picture():
    """A minimal two-object picture used by focused unit tests."""
    return SymbolicPicture.build(
        width=20.0,
        height=10.0,
        objects=[
            ("A", Rectangle(2.0, 2.0, 8.0, 6.0)),
            ("B", Rectangle(10.0, 4.0, 16.0, 9.0)),
        ],
        name="two-objects",
    )


@pytest.fixture
def sqlite_file(tmp_path):
    """A SQLite database file, as earlier releases stored one, built with the stdlib."""
    path = tmp_path / "old.sqlite"
    connection = sqlite3.connect(str(path))
    with connection:
        connection.execute("CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT)")
        connection.execute("INSERT INTO meta (key, value) VALUES ('schema_version', '1')")
    connection.close()
    return path
