"""Property-based tests of the query wire codec (``QuerySpec.to_wire``/``from_wire``).

Two properties carry the service's ranking contract:

* every valid spec survives ``json`` and back unchanged, whatever its
  labels (any non-empty string without whitespace, so ``a(b``, ``x=1``,
  ``car[1]``, ``and`` and ``not`` too) and whichever of its 12 fields are
  set, crisp-shaped predicate trees included;
* the same spec ranks byte-identically in process and through
  ``RetrievalService.dispatch("POST", "/search", spec.to_wire())``, and the
  response's ``spec`` line is the in-process ``describe()``.
"""

import json
import string

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.core.similarity import Combination, Normalization, SimilarityPolicy
from repro.core.transforms import Transformation
from repro.geometry.rectangle import Rectangle
from repro.iconic.picture import PictureError, SymbolicPicture
from repro.index.execution import ExecutionOptions
from repro.index.spec import QuerySpec
from repro.retrieval.predicates import (
    And,
    Leaf,
    Not,
    Or,
    RelationKeyword,
    RelationPredicate,
)
from repro.retrieval.system import RetrievalSystem
from repro.service.server import RetrievalService

FRAME = 60.0
#: Labels the predicate grammar cannot spell, beside plain ones.
TRICKY_LABELS = ("a(b", "x=1", "car[1]", "and", "not", "or", "fuzzy", "w=2", "b,c", "é;")
#: Every printable non-whitespace ASCII character.
LABEL_ALPHABET = string.ascii_letters + string.digits + string.punctuation

labels = st.one_of(
    st.sampled_from(TRICKY_LABELS), st.text(LABEL_ALPHABET, min_size=1, max_size=6)
)


@st.composite
def pictures(draw, label_pool=None):
    """A small picture over ``label_pool`` (or freely drawn labels)."""
    objects = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        label = draw(st.sampled_from(label_pool) if label_pool else labels)
        x0 = draw(st.integers(min_value=0, max_value=50))
        y0 = draw(st.integers(min_value=0, max_value=50))
        x1 = draw(st.integers(min_value=x0, max_value=int(FRAME)))
        y1 = draw(st.integers(min_value=y0, max_value=int(FRAME)))
        objects.append((label, Rectangle(float(x0), float(y0), float(x1), float(y1))))
    try:
        return SymbolicPicture.build(
            width=FRAME, height=FRAME, objects=objects, name=draw(st.text(max_size=5))
        )
    except PictureError:  # "a#1" beside a second "a": one identifier twice
        assume(False)


def relation_predicates(label_pool):
    return st.builds(
        RelationPredicate,
        subject=st.sampled_from(label_pool) if label_pool else labels,
        relation=st.sampled_from(list(RelationKeyword)),
        target=st.sampled_from(label_pool) if label_pool else labels,
    )


def leaves(label_pool, crisp=False):
    if crisp:
        return st.builds(Leaf, predicate=relation_predicates(label_pool))
    return st.builds(
        Leaf,
        predicate=relation_predicates(label_pool),
        weight=st.sampled_from([1.0, 0.5, 2.0, 3.0]),
        fuzzy=st.booleans(),
    )


def trees(label_pool):
    """Any tree, or a crisp-shaped one (a leaf or an ``and`` of plain leaves)."""
    crisp = st.one_of(
        leaves(label_pool, crisp=True),
        st.lists(leaves(label_pool, crisp=True), min_size=1, max_size=3).map(
            lambda children: And(tuple(children))
        ),
    )
    graded = st.recursive(
        leaves(label_pool),
        lambda children: st.one_of(
            children.map(Not),
            st.lists(children, min_size=1, max_size=3).map(lambda nodes: And(tuple(nodes))),
            st.lists(children, min_size=1, max_size=3).map(lambda nodes: Or(tuple(nodes))),
        ),
        max_leaves=5,
    )
    return st.one_of(crisp, graded)


policies = st.builds(
    SimilarityPolicy,
    normalization=st.sampled_from(list(Normalization)),
    combination=st.sampled_from(list(Combination)),
    count_boundaries_only=st.booleans(),
)


def executions(executors):
    return st.builds(
        ExecutionOptions,
        kernel=st.none() | st.sampled_from(["bitparallel", "reference"]),
        strategy=st.none() | st.sampled_from(["anytime", "exhaustive"]),
        shortlist=st.none() | st.booleans(),
        cache=st.none() | st.booleans(),
        executor=st.none() | st.sampled_from(executors),
        workers=st.none() | st.integers(min_value=1, max_value=16),
    )


@st.composite
def specs(draw, label_pool=None, executors=("serial", "shard_process")):
    """A valid spec; every one of its 12 fields may be set."""
    picture = draw(st.none() | pictures(label_pool))
    identifiers = None
    if picture is not None and draw(st.booleans()):
        identifiers = tuple(
            draw(st.lists(st.sampled_from(picture.identifiers), min_size=1, unique=True))
        )
    clause = draw(st.sampled_from(["none", "crisp", "tree"]))
    if picture is None and clause == "none":
        clause = "crisp"
    predicates = ()
    tree = None
    if clause == "crisp":
        predicates = tuple(
            draw(st.lists(relation_predicates(label_pool), min_size=1, max_size=3))
        )
    elif clause == "tree":
        tree = draw(trees(label_pool))
    return QuerySpec(
        picture=picture,
        identifiers=identifiers,
        transformations=tuple(
            draw(st.lists(st.sampled_from(list(Transformation)), min_size=1, max_size=6))
        ),
        predicates=predicates,
        predicate_tree=tree,
        predicate_composition=draw(st.sampled_from(["product", "sum"])),
        predicate_blend=draw(st.sampled_from([0.5, 0.0, 0.3, 1.0])),
        limit=draw(st.none() | st.integers(min_value=0, max_value=12)),
        minimum_score=draw(st.sampled_from([0.0, 0.2, 0.55])),
        minimum_shared_labels=draw(st.integers(min_value=1, max_value=3)),
        policy=draw(st.none() | policies),
        execution=draw(st.none() | executions(list(executors))),
    )


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(specs())
def test_every_spec_survives_json_and_back(spec):
    spec.validate()
    assert QuerySpec.from_wire(json.loads(json.dumps(spec.to_wire()))) == spec


#: A fixed corpus over the tricky labels, served and queried in process.
CORPUS_LABELS = ("a(b", "x=1", "car[1]", "and", "not", "c")


def _fixed_corpus():
    """Eight deterministic pictures over :data:`CORPUS_LABELS`."""
    corpus = []
    for index in range(8):
        objects = []
        for slot in range(4):
            label = CORPUS_LABELS[(index + 2 * slot) % len(CORPUS_LABELS)]
            x0 = (7 * index + 13 * slot) % 40
            y0 = (11 * index + 5 * slot) % 40
            objects.append(
                (label, Rectangle(float(x0), float(y0), float(x0 + 10 + slot), float(y0 + 8)))
            )
        corpus.append(
            SymbolicPicture.build(width=FRAME, height=FRAME, objects=objects, name=f"p{index}")
        )
    return corpus


@pytest.fixture(scope="module")
def served():
    service = RetrievalService(RetrievalSystem.from_pictures(_fixed_corpus()))
    yield service
    service.close()


@pytest.fixture(scope="module")
def reference():
    return RetrievalSystem.from_pictures(_fixed_corpus())


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spec=specs(label_pool=CORPUS_LABELS, executors=("serial",)))
def test_the_wire_ranks_as_in_process(served, reference, spec):
    expected = reference.execute(spec)
    status, body, _ = served.dispatch("POST", "/search", json.loads(json.dumps(spec.to_wire())))
    assert status == 200, body
    assert json.dumps(body["results"], sort_keys=True) == json.dumps(
        expected.to_dicts(), sort_keys=True
    )
    assert body["spec"] == expected.spec.describe()
    assert body["total"] == len(expected)
