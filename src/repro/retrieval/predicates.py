"""Relation-predicate queries: "find images where A is left of B".

The introduction of the paper motivates relative-position retrieval with
queries such as "find all images which icon A locates at the left side and
icon B locates at the right".  This module provides that query form on top of
the BE-string machinery: a small predicate language (``"car left-of tree"``)
whose predicates are evaluated against the pairwise relations recovered from a
stored image's BE-string (:mod:`repro.core.reasoning`), with ranking by the
fraction of predicates an image satisfies.

The predicate vocabulary is deliberately coarse -- it names directional and
topological relations, not the full 169 Allen-pair categories -- because that
is the granularity a user query works at.

Beyond the original flat conjunctions, the language has a full boolean
grammar (``not`` / ``or`` / parentheses) with per-leaf ``[fuzzy]`` and
``[w=N]`` annotations, parsed by :func:`parse_tree` into a small AST
(:class:`Leaf` / :class:`Not` / :class:`And` / :class:`Or`) whose
satisfaction is a *degree* in [0, 1] rather than a boolean — see
``docs/predicates.md`` for the grammar and the degree semantics.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.core.bestring import BEString2D
from repro.core.reasoning import boundary_ranks
from repro.geometry.allen import AllenRelation, allen_relation
from repro.geometry.interval import Interval
from repro.geometry.relations import (
    degree_before,
    degree_covers,
    degree_meets,
    degree_shares,
    degree_within,
)


class PredicateError(ValueError):
    """Raised on an unknown relation keyword or malformed predicate text."""


class RelationKeyword(Enum):
    """The relation vocabulary of the predicate language."""

    LEFT_OF = "left-of"
    RIGHT_OF = "right-of"
    ABOVE = "above"
    BELOW = "below"
    OVERLAPS = "overlaps"
    CONTAINS = "contains"
    INSIDE = "inside"
    TOUCHES = "touches"
    SAME_COLUMN = "same-column"
    SAME_ROW = "same-row"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Accepted spellings for each keyword (underscores and a few synonyms).
_ALIASES: Dict[str, RelationKeyword] = {}
for _keyword in RelationKeyword:
    _ALIASES[_keyword.value] = _keyword
    _ALIASES[_keyword.value.replace("-", "_")] = _keyword
_ALIASES.update(
    {
        "leftof": RelationKeyword.LEFT_OF,
        "rightof": RelationKeyword.RIGHT_OF,
        "over": RelationKeyword.ABOVE,
        "under": RelationKeyword.BELOW,
        "within": RelationKeyword.INSIDE,
        "covers": RelationKeyword.CONTAINS,
        "intersects": RelationKeyword.OVERLAPS,
        "beside": RelationKeyword.SAME_ROW,
    }
)

#: Relations in which the two projections share at least one point.
_SHARING = {
    AllenRelation.MEETS,
    AllenRelation.MET_BY,
    AllenRelation.OVERLAPS,
    AllenRelation.OVERLAPPED_BY,
    AllenRelation.STARTS,
    AllenRelation.STARTED_BY,
    AllenRelation.DURING,
    AllenRelation.CONTAINS,
    AllenRelation.FINISHES,
    AllenRelation.FINISHED_BY,
    AllenRelation.EQUALS,
}

#: Relations meaning "the first interval covers the second".
_COVERING = {
    AllenRelation.CONTAINS,
    AllenRelation.STARTED_BY,
    AllenRelation.FINISHED_BY,
    AllenRelation.EQUALS,
}

#: Relations meaning "the first interval lies within the second".
_WITHIN = {
    AllenRelation.DURING,
    AllenRelation.STARTS,
    AllenRelation.FINISHES,
    AllenRelation.EQUALS,
}


@dataclass(frozen=True)
class RelationPredicate:
    """One atomic predicate: ``subject RELATION object`` over icon labels."""

    subject: str
    relation: RelationKeyword
    target: str

    def __post_init__(self) -> None:
        if not self.subject or not self.target:
            raise PredicateError("predicates need a non-empty subject and target label")

    def to_text(self) -> str:
        """Canonical text form, e.g. ``"car left-of tree"``."""
        return f"{self.subject} {self.relation.value} {self.target}"

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def holds_between(self, subject_x: Interval, subject_y: Interval,
                      target_x: Interval, target_y: Interval) -> bool:
        """Evaluate the predicate on two objects' (ordinal or metric) intervals."""
        x = allen_relation(subject_x, target_x)
        y = allen_relation(subject_y, target_y)
        keyword = self.relation
        if keyword is RelationKeyword.LEFT_OF:
            return x in (AllenRelation.BEFORE, AllenRelation.MEETS)
        if keyword is RelationKeyword.RIGHT_OF:
            return x in (AllenRelation.AFTER, AllenRelation.MET_BY)
        if keyword is RelationKeyword.ABOVE:
            return y in (AllenRelation.AFTER, AllenRelation.MET_BY)
        if keyword is RelationKeyword.BELOW:
            return y in (AllenRelation.BEFORE, AllenRelation.MEETS)
        if keyword is RelationKeyword.OVERLAPS:
            return x in _SHARING and y in _SHARING
        if keyword is RelationKeyword.CONTAINS:
            return x in _COVERING and y in _COVERING
        if keyword is RelationKeyword.INSIDE:
            return x in _WITHIN and y in _WITHIN
        if keyword is RelationKeyword.TOUCHES:
            shares = x in _SHARING and y in _SHARING
            meets = AllenRelation.MEETS in (x, y) or AllenRelation.MET_BY in (x, y)
            return shares and meets
        if keyword is RelationKeyword.SAME_COLUMN:
            return x in _SHARING
        if keyword is RelationKeyword.SAME_ROW:
            return y in _SHARING
        raise PredicateError(f"unhandled relation keyword {keyword!r}")

    def degree_between(self, subject_x: Interval, subject_y: Interval,
                       target_x: Interval, target_y: Interval) -> float:
        """Graded satisfaction degree of the predicate on two objects' intervals.

        Returns exactly ``1.0`` when :meth:`holds_between` is true, and
        otherwise a degree in ``[0, 1)`` that decays with the boundary
        distance by which the relation is violated (axis degrees composed
        with ``min``; see :mod:`repro.geometry.relations`).
        """
        if self.holds_between(subject_x, subject_y, target_x, target_y):
            return 1.0
        keyword = self.relation
        if keyword is RelationKeyword.LEFT_OF:
            degree = degree_before(subject_x, target_x)
        elif keyword is RelationKeyword.RIGHT_OF:
            degree = degree_before(target_x, subject_x)
        elif keyword is RelationKeyword.ABOVE:
            degree = degree_before(target_y, subject_y)
        elif keyword is RelationKeyword.BELOW:
            degree = degree_before(subject_y, target_y)
        elif keyword is RelationKeyword.OVERLAPS:
            degree = min(
                degree_shares(subject_x, target_x), degree_shares(subject_y, target_y)
            )
        elif keyword is RelationKeyword.CONTAINS:
            degree = min(
                degree_covers(subject_x, target_x), degree_covers(subject_y, target_y)
            )
        elif keyword is RelationKeyword.INSIDE:
            degree = min(
                degree_within(subject_x, target_x), degree_within(subject_y, target_y)
            )
        elif keyword is RelationKeyword.TOUCHES:
            degree = min(
                degree_shares(subject_x, target_x),
                degree_shares(subject_y, target_y),
                max(
                    degree_meets(subject_x, target_x),
                    degree_meets(subject_y, target_y),
                ),
            )
        elif keyword is RelationKeyword.SAME_COLUMN:
            degree = degree_shares(subject_x, target_x)
        elif keyword is RelationKeyword.SAME_ROW:
            degree = degree_shares(subject_y, target_y)
        else:  # pragma: no cover - the keyword enum is closed
            raise PredicateError(f"unhandled relation keyword {keyword!r}")
        # The crisp check above already returned 1.0; a near-miss must rank
        # strictly below every crisp match even in degenerate corners.
        return min(degree, 1.0 - 1e-9)


def parse_predicate(text: str) -> RelationPredicate:
    """Parse one predicate of the form ``"<label> <relation> <label>"``.

    Returns:
        The parsed :class:`RelationPredicate`.

    Raises:
        PredicateError: on a malformed predicate or an unknown relation
            keyword.
    """
    tokens = text.strip().split()
    if len(tokens) != 3:
        raise PredicateError(
            f"a predicate needs exactly three tokens (subject relation target), got {text!r}"
        )
    subject, relation_text, target = tokens
    keyword = _ALIASES.get(relation_text.lower())
    if keyword is None:
        raise PredicateError(
            f"unknown relation {relation_text!r}; valid relations: "
            f"{sorted(alias for alias in _ALIASES)}"
        )
    return RelationPredicate(subject=subject, relation=keyword, target=target)


def parse_query(text: str) -> List[RelationPredicate]:
    """Parse a conjunction of predicates separated by ``and`` / ``,`` / ``;``.

    Returns:
        One :class:`RelationPredicate` per conjunct, in query order.

    Raises:
        PredicateError: if the query is empty or any conjunct is malformed.
    """
    parts = [part for part in re.split(r"\s+and\s+|[,;]", text.strip()) if part.strip()]
    if not parts:
        raise PredicateError("the predicate query is empty")
    return [parse_predicate(part) for part in parts]


# ----------------------------------------------------------------------
# Predicate AST: graded boolean combinations of relation predicates
# ----------------------------------------------------------------------
#: Words the grammar reserves; they can never be subject/target labels.
RESERVED_WORDS = frozenset({"and", "or", "not", "fuzzy"})

#: Composition modes for blending a predicate degree with LCS similarity.
COMPOSITIONS = ("product", "sum")


def _format_weight(weight: float) -> str:
    return f"{weight:g}"


@dataclass(frozen=True)
class Leaf:
    """One annotated atomic predicate of the AST.

    ``weight`` biases the leaf inside an ``and`` (weighted mean); ``fuzzy``
    switches the leaf from a 0/1 indicator to the graded boundary-distance
    degree of :meth:`RelationPredicate.degree_between`.
    """

    predicate: RelationPredicate
    weight: float = 1.0
    fuzzy: bool = False

    def __post_init__(self) -> None:
        if not (self.weight > 0.0):
            raise PredicateError(
                f"predicate weight must be positive, got {self.weight!r}"
            )

    def to_text(self) -> str:
        """Canonical text form, annotations included (round-trips via parsing)."""
        annotations = []
        if self.fuzzy:
            annotations.append("fuzzy")
        if self.weight != 1.0:
            annotations.append(f"w={_format_weight(self.weight)}")
        suffix = f" [{' '.join(annotations)}]" if annotations else ""
        return f"{self.predicate.to_text()}{suffix}"

    def normalized(self) -> "Leaf":
        """Leaves are already canonical."""
        return self

    def leaves(self) -> Iterator["Leaf"]:
        """Yield this leaf."""
        yield self

    def degree(self, leaf_degree: Callable[["Leaf"], float]) -> float:
        """Satisfaction degree of the leaf under ``leaf_degree``."""
        return leaf_degree(self)

    def to_dict(self) -> dict:
        """JSON-compatible wire form (see ``docs/predicates.md``)."""
        payload = {
            "subject": self.predicate.subject,
            "relation": self.predicate.relation.value,
            "target": self.predicate.target,
        }
        if self.weight != 1.0:
            payload["weight"] = self.weight
        if self.fuzzy:
            payload["fuzzy"] = True
        return payload


@dataclass(frozen=True)
class Not:
    """Negation: degree ``1 - child``."""

    child: "PredicateNode"

    def to_text(self) -> str:
        """Canonical text form (parenthesises ``and``/``or`` children)."""
        inner = self.child.to_text()
        if isinstance(self.child, (And, Or)):
            inner = f"({inner})"
        return f"not {inner}"

    def normalized(self) -> "PredicateNode":
        """Eliminate double negation; normalise the child."""
        child = self.child.normalized()
        if isinstance(child, Not):
            return child.child
        return Not(child)

    def leaves(self) -> Iterator[Leaf]:
        """Yield the leaves of the subtree."""
        yield from self.child.leaves()

    def degree(self, leaf_degree: Callable[[Leaf], float]) -> float:
        """Satisfaction degree: the complement of the child's degree."""
        return 1.0 - self.child.degree(leaf_degree)

    def to_dict(self) -> dict:
        """JSON-compatible wire form."""
        return {"op": "not", "child": self.child.to_dict()}


def _child_weight(node: "PredicateNode") -> float:
    """Weight a child contributes to a weighted mean (1.0 for non-leaves)."""
    return node.weight if isinstance(node, Leaf) else 1.0


@dataclass(frozen=True)
class And:
    """Conjunction: the weighted mean of the children's degrees.

    With unit weights and crisp leaves this is exactly the historical
    "fraction of predicates satisfied" ranking of
    :class:`PredicateMatch`.
    """

    children: Tuple["PredicateNode", ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.children:
            raise PredicateError("'and' needs at least one operand")

    def to_text(self) -> str:
        """Canonical text form (parenthesises nested ``and``/``or``)."""
        parts = []
        for child in self.children:
            text = child.to_text()
            if isinstance(child, (And, Or)):
                text = f"({text})"
            parts.append(text)
        return " and ".join(parts)

    def normalized(self) -> "PredicateNode":
        """Flatten nested conjunctions and sort children canonically.

        Duplicate children are *kept*: the weighted mean counts a repeated
        conjunct twice, exactly like the historical flat list did.
        """
        flattened: List[PredicateNode] = []
        for child in self.children:
            child = child.normalized()
            if isinstance(child, And):
                flattened.extend(child.children)
            else:
                flattened.append(child)
        if len(flattened) == 1:
            return flattened[0]
        flattened.sort(key=lambda node: node.to_text())
        return And(tuple(flattened))

    def leaves(self) -> Iterator[Leaf]:
        """Yield the leaves of the subtree, left to right."""
        for child in self.children:
            yield from child.leaves()

    def degree(self, leaf_degree: Callable[[Leaf], float]) -> float:
        """Weighted mean of the children's degrees."""
        total = sum(_child_weight(child) for child in self.children)
        return (
            sum(
                _child_weight(child) * child.degree(leaf_degree)
                for child in self.children
            )
            / total
        )

    def to_dict(self) -> dict:
        """JSON-compatible wire form."""
        return {"op": "and", "children": [child.to_dict() for child in self.children]}


@dataclass(frozen=True)
class Or:
    """Disjunction: the maximum of the children's degrees."""

    children: Tuple["PredicateNode", ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.children:
            raise PredicateError("'or' needs at least one operand")

    def to_text(self) -> str:
        """Canonical text form (``or`` binds loosest, so children rarely need parens)."""
        parts = []
        for child in self.children:
            text = child.to_text()
            if isinstance(child, Or):
                text = f"({text})"
            parts.append(text)
        return " or ".join(parts)

    def normalized(self) -> "PredicateNode":
        """Flatten nested disjunctions and sort children canonically."""
        flattened: List[PredicateNode] = []
        for child in self.children:
            child = child.normalized()
            if isinstance(child, Or):
                flattened.extend(child.children)
            else:
                flattened.append(child)
        if len(flattened) == 1:
            return flattened[0]
        flattened.sort(key=lambda node: node.to_text())
        return Or(tuple(flattened))

    def leaves(self) -> Iterator[Leaf]:
        """Yield the leaves of the subtree, left to right."""
        for child in self.children:
            yield from child.leaves()

    def degree(self, leaf_degree: Callable[[Leaf], float]) -> float:
        """Maximum of the children's degrees."""
        return max(child.degree(leaf_degree) for child in self.children)

    def to_dict(self) -> dict:
        """JSON-compatible wire form."""
        return {"op": "or", "children": [child.to_dict() for child in self.children]}


#: Any node of the predicate AST.
PredicateNode = Union[Leaf, Not, And, Or]


def tree_from_dict(payload: object) -> PredicateNode:
    """Build a predicate AST from its nested JSON wire form.

    Raises:
        PredicateError: on an unknown ``op``, missing keys, or bad types —
            the message names the offending token.
    """
    if not isinstance(payload, dict):
        raise PredicateError(
            f"a predicate node must be a JSON object, got {type(payload).__name__!r}"
        )
    operator = payload.get("op")
    if operator is None:
        subject = payload.get("subject")
        relation = payload.get("relation")
        target = payload.get("target")
        if not isinstance(subject, str) or not isinstance(target, str):
            raise PredicateError(
                "a predicate leaf needs string 'subject' and 'target' labels"
            )
        if not isinstance(relation, str):
            raise PredicateError("a predicate leaf needs a string 'relation'")
        keyword = _ALIASES.get(relation.lower())
        if keyword is None:
            raise PredicateError(
                f"unknown relation {relation!r}; valid relations: "
                f"{sorted(alias for alias in _ALIASES)}"
            )
        weight = payload.get("weight", 1.0)
        if isinstance(weight, bool) or not isinstance(weight, (int, float)):
            raise PredicateError(f"predicate 'weight' must be a number, got {weight!r}")
        fuzzy = payload.get("fuzzy", False)
        if not isinstance(fuzzy, bool):
            raise PredicateError(f"predicate 'fuzzy' must be a boolean, got {fuzzy!r}")
        return Leaf(
            predicate=RelationPredicate(subject=subject, relation=keyword, target=target),
            weight=float(weight),
            fuzzy=fuzzy,
        )
    if operator == "not":
        if "child" not in payload:
            raise PredicateError("'not' needs a 'child' node")
        return Not(tree_from_dict(payload["child"]))
    if operator in ("and", "or"):
        children = payload.get("children")
        if not isinstance(children, list) or not children:
            raise PredicateError(f"{operator!r} needs a non-empty 'children' list")
        nodes = tuple(tree_from_dict(child) for child in children)
        return And(nodes) if operator == "and" else Or(nodes)
    raise PredicateError(
        f"unknown predicate operator {operator!r}; expected 'and', 'or' or 'not'"
    )


# ----------------------------------------------------------------------
# Tokenizer + recursive-descent parser for the boolean grammar
# ----------------------------------------------------------------------
#
# expr  := or
# or    := and ("or" and)*
# and   := not (("and" | "," | ";") not)*
# not   := "not" not | atom
# atom  := "(" expr ")" | leaf
# leaf  := LABEL RELATION LABEL ["[" ("fuzzy" | "w" "=" NUMBER)* "]"]

_TOKEN_PATTERN = re.compile(r"[()\[\],;=]|[^\s()\[\],;=]+")

#: Single-character punctuation tokens (never labels or relations).
_PUNCTUATION = frozenset("()[],;=")


@dataclass(frozen=True)
class _Token:
    text: str
    position: int


def _tokenize(text: str) -> List[_Token]:
    return [
        _Token(match.group(), match.start())
        for match in _TOKEN_PATTERN.finditer(text)
    ]


class _Parser:
    """Recursive-descent parser over the token stream.

    Every failure raises :class:`PredicateError` naming the offending token
    and its character position in the original query text.
    """

    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0

    # -- token helpers -------------------------------------------------
    def _peek(self) -> Optional[_Token]:
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def _next(self) -> Optional[_Token]:
        token = self._peek()
        if token is not None:
            self.index += 1
        return token

    def _fail(self, message: str, token: Optional[_Token]) -> "PredicateError":
        if token is None:
            position = len(self.text)
            found = "end of query"
        else:
            position = token.position
            found = repr(token.text)
        return PredicateError(f"{message} at position {position}: {found}")

    def _expect(self, text: str, context: str) -> _Token:
        token = self._next()
        if token is None or token.text != text:
            raise self._fail(f"expected {text!r} {context}", token)
        return token

    # -- grammar -------------------------------------------------------
    def parse(self) -> PredicateNode:
        if not self.tokens:
            raise PredicateError("the predicate query is empty")
        node = self._parse_or()
        trailing = self._peek()
        if trailing is not None:
            raise self._fail("unexpected trailing token", trailing)
        return node

    def _parse_or(self) -> PredicateNode:
        children = [self._parse_and()]
        while True:
            token = self._peek()
            if token is not None and token.text.lower() == "or":
                self._next()
                children.append(self._parse_and())
            else:
                break
        if len(children) == 1:
            return children[0]
        return Or(tuple(children))

    def _parse_and(self) -> PredicateNode:
        children = [self._parse_not()]
        while True:
            token = self._peek()
            if token is None:
                break
            word = token.text.lower()
            if word == "and" or token.text in (",", ";"):
                self._next()
                children.append(self._parse_not())
            else:
                break
        if len(children) == 1:
            return children[0]
        return And(tuple(children))

    def _parse_not(self) -> PredicateNode:
        token = self._peek()
        if token is not None and token.text.lower() == "not":
            self._next()
            return Not(self._parse_not())
        return self._parse_atom()

    def _parse_atom(self) -> PredicateNode:
        token = self._peek()
        if token is None:
            raise self._fail("expected a predicate or '('", token)
        if token.text == "(":
            self._next()
            node = self._parse_or()
            self._expect(")", "to close the parenthesised group")
            return node
        return self._parse_leaf()

    def _parse_label(self, role: str) -> str:
        token = self._next()
        if token is None or token.text in _PUNCTUATION:
            raise self._fail(f"expected a {role} label", token)
        if token.text.lower() in RESERVED_WORDS:
            raise self._fail(
                f"the reserved word cannot be a {role} label", token
            )
        return token.text

    def _parse_leaf(self) -> Leaf:
        subject = self._parse_label("subject")
        relation_token = self._next()
        if relation_token is None or relation_token.text in _PUNCTUATION:
            raise self._fail("expected a relation keyword", relation_token)
        keyword = _ALIASES.get(relation_token.text.lower())
        if keyword is None:
            raise self._fail("unknown relation", relation_token)
        target = self._parse_label("target")
        weight, fuzzy = self._parse_annotations()
        predicate = RelationPredicate(subject=subject, relation=keyword, target=target)
        return Leaf(predicate=predicate, weight=weight, fuzzy=fuzzy)

    def _parse_annotations(self) -> Tuple[float, bool]:
        weight, fuzzy = 1.0, False
        token = self._peek()
        if token is None or token.text != "[":
            return weight, fuzzy
        self._next()
        while True:
            token = self._next()
            if token is None:
                raise self._fail("expected ']' to close the annotation", token)
            if token.text == "]":
                break
            word = token.text.lower()
            if word == "fuzzy":
                fuzzy = True
            elif word == "w" or word == "weight":
                self._expect("=", "after the weight annotation")
                value = self._next()
                if value is None:
                    raise self._fail("expected a weight value", value)
                try:
                    weight = float(value.text)
                except ValueError:
                    raise self._fail("weight must be a number", value) from None
                if not (weight > 0.0):
                    raise self._fail("weight must be positive", value)
            else:
                raise self._fail(
                    "unknown annotation (expected 'fuzzy' or 'w=N')", token
                )
        return weight, fuzzy


def parse_tree(text: str) -> PredicateNode:
    """Parse the full boolean predicate grammar into an AST.

    The historical flat conjunctions (``"a left-of b and c above d"``) parse
    unchanged; the grammar adds ``not``, ``or``, parentheses and per-leaf
    ``[fuzzy]`` / ``[w=N]`` annotations.

    Returns:
        The root :data:`PredicateNode` of the parse (not normalised).

    Raises:
        PredicateError: on malformed text; the message names the offending
            token and its character position.
    """
    return _Parser(text).parse()


def is_crisp_conjunction(tree: PredicateNode) -> bool:
    """True when the tree is a plain conjunction of unannotated leaves.

    Such trees carry no graded semantics and compile to the historical flat
    predicate tuple (the byte-identical fast path).
    """
    if isinstance(tree, Leaf):
        return not tree.fuzzy and tree.weight == 1.0
    if isinstance(tree, And):
        return all(
            isinstance(child, Leaf) and not child.fuzzy and child.weight == 1.0
            for child in tree.children
        )
    return False


def flat_predicates(tree: PredicateNode) -> Tuple[RelationPredicate, ...]:
    """The predicates of a crisp conjunction, in query order."""
    return tuple(leaf.predicate for leaf in tree.leaves())


def annotate(node: PredicateNode, fuzzy: bool = False, weight: float = 1.0) -> PredicateNode:
    """Apply a ``where`` clause's ``fuzzy``/``weight`` defaults to its leaves.

    Explicit per-leaf ``[...]`` annotations in the query text win: ``fuzzy``
    only switches leaves on (never off), and ``weight`` only replaces the
    default weight of 1.0.
    """
    if not fuzzy and weight == 1.0:
        return node
    if isinstance(node, Leaf):
        return Leaf(
            predicate=node.predicate,
            weight=node.weight if node.weight != 1.0 else weight,
            fuzzy=node.fuzzy or fuzzy,
        )
    if isinstance(node, Not):
        return Not(annotate(node.child, fuzzy, weight))
    children = tuple(annotate(child, fuzzy, weight) for child in node.children)
    return And(children) if isinstance(node, And) else Or(children)


def compile_where(
    clauses: Sequence[PredicateNode],
) -> Tuple[Tuple[RelationPredicate, ...], Optional[PredicateNode]]:
    """Compile annotated ``where`` clauses to ``(predicates, predicate_tree)``.

    The builder and :meth:`repro.index.spec.QuerySpec.from_wire` share this
    rule.  Plain conjunctions of unannotated leaves compile to the flat
    crisp predicate tuple in query order (the byte-identical crisp fast
    path); anything graded compiles to the normalised ``and`` of the
    clauses, whose canonical child order makes logically-equal queries
    cache-key equal.
    """
    if all(is_crisp_conjunction(clause) for clause in clauses):
        return tuple(
            predicate for clause in clauses for predicate in flat_predicates(clause)
        ), None
    combined = clauses[0] if len(clauses) == 1 else And(tuple(clauses))
    return (), combined.normalized()


@dataclass(frozen=True)
class PredicateMatch:
    """Evaluation outcome for one image."""

    image_id: str
    satisfied: Tuple[RelationPredicate, ...]
    unsatisfied: Tuple[RelationPredicate, ...]

    @property
    def score(self) -> float:
        """Fraction of predicates satisfied."""
        total = len(self.satisfied) + len(self.unsatisfied)
        return len(self.satisfied) / total if total else 0.0

    @property
    def is_full_match(self) -> bool:
        """True when every predicate holds."""
        return not self.unsatisfied and bool(self.satisfied)

    def describe(self) -> str:
        """One-line summary used by the examples and the CLI."""
        failed = "; ".join(predicate.to_text() for predicate in self.unsatisfied) or "-"
        return (
            f"{self.image_id}: {len(self.satisfied)}/{len(self.satisfied) + len(self.unsatisfied)} "
            f"predicates hold (missing: {failed})"
        )


def _instances_by_label(bestring: BEString2D) -> Dict[str, List[str]]:
    instances: Dict[str, List[str]] = {}
    for identifier in sorted(bestring.object_identifiers):
        label = identifier.split("#")[0]
        instances.setdefault(label, []).append(identifier)
    return instances


def evaluate_predicates(
    bestring: BEString2D, predicates: Sequence[RelationPredicate], image_id: str = ""
) -> PredicateMatch:
    """Evaluate a conjunction of predicates against one image's BE-string.

    A predicate holds when *some* pair of instances of the subject and target
    labels satisfies the relation (the natural reading of "a car is left of a
    tree" when several cars or trees are present).  All relations are derived
    from the BE-string alone, via ordinal boundary ranks -- no access to the
    original MBR coordinates is needed, which is exactly the point of the
    representation.
    """
    x_ranks = boundary_ranks(bestring.x)
    y_ranks = boundary_ranks(bestring.y)
    instances = _instances_by_label(bestring)
    satisfied: List[RelationPredicate] = []
    unsatisfied: List[RelationPredicate] = []
    for predicate in predicates:
        subjects = instances.get(predicate.subject, [])
        targets = instances.get(predicate.target, [])
        holds = False
        for subject in subjects:
            for target in targets:
                if subject == target:
                    continue
                if predicate.holds_between(
                    x_ranks[subject], y_ranks[subject], x_ranks[target], y_ranks[target]
                ):
                    holds = True
                    break
            if holds:
                break
        (satisfied if holds else unsatisfied).append(predicate)
    return PredicateMatch(
        image_id=image_id or bestring.name,
        satisfied=tuple(satisfied),
        unsatisfied=tuple(unsatisfied),
    )


def search_by_predicates(
    records: Iterable[Tuple[str, BEString2D]],
    query: str | Sequence[RelationPredicate],
    minimum_score: float = 0.0,
) -> List[PredicateMatch]:
    """Rank images by the fraction of query predicates they satisfy.

    ``records`` is an iterable of ``(image_id, bestring)`` pairs -- typically
    ``(record.image_id, record.bestring)`` for every record of an
    :class:`~repro.index.database.ImageDatabase`.
    """
    predicates = parse_query(query) if isinstance(query, str) else list(query)
    if not predicates:
        raise PredicateError("at least one predicate is required")
    matches = [
        evaluate_predicates(bestring, predicates, image_id=image_id)
        for image_id, bestring in records
    ]
    matches = [match for match in matches if match.score >= minimum_score]
    matches.sort(key=lambda match: (-match.score, match.image_id))
    return matches


# ----------------------------------------------------------------------
# Graded evaluation of a predicate tree against one image
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GradedMatch:
    """Graded evaluation outcome of a predicate tree for one image.

    ``degree`` is the tree's satisfaction in [0, 1]; ``leaf_degrees`` maps
    each distinct leaf (by its annotated text) to its own degree, surfaced
    by ``explain()`` and the service wire format.
    """

    image_id: str
    degree: float
    leaf_degrees: Tuple[Tuple[str, float], ...]

    @property
    def score(self) -> float:
        """The tree degree (the ranking key, mirroring ``PredicateMatch.score``)."""
        return self.degree

    @property
    def is_full_match(self) -> bool:
        """True when the tree is fully satisfied."""
        return self.degree >= 1.0

    def describe(self) -> str:
        """One-line summary used by the examples and the CLI."""
        parts = ", ".join(f"{text}={value:.3f}" for text, value in self.leaf_degrees)
        return f"{self.image_id}: degree {self.degree:.3f} ({parts})"


def leaf_degree_on(
    leaf: Leaf,
    x_ranks: Dict[str, Interval],
    y_ranks: Dict[str, Interval],
    instances: Dict[str, List[str]],
) -> float:
    """Degree of one leaf over an image's instance pairs (max over pairs).

    A crisp leaf is a 0/1 indicator of :meth:`RelationPredicate.holds_between`
    on *some* subject/target instance pair; a fuzzy leaf takes the best
    graded degree over the same pairs.  Absent labels yield 0.0 either way.
    """
    predicate = leaf.predicate
    subjects = instances.get(predicate.subject, [])
    targets = instances.get(predicate.target, [])
    best = 0.0
    for subject in subjects:
        for target in targets:
            if subject == target:
                continue
            if leaf.fuzzy:
                degree = predicate.degree_between(
                    x_ranks[subject], y_ranks[subject], x_ranks[target], y_ranks[target]
                )
            else:
                degree = (
                    1.0
                    if predicate.holds_between(
                        x_ranks[subject], y_ranks[subject],
                        x_ranks[target], y_ranks[target],
                    )
                    else 0.0
                )
            if degree > best:
                best = degree
                if best >= 1.0:
                    return best
    return best


def evaluate_tree(
    bestring: BEString2D, tree: PredicateNode, image_id: str = ""
) -> GradedMatch:
    """Evaluate a predicate tree against one image's BE-string.

    Like :func:`evaluate_predicates`, all relations are derived from the
    BE-string alone via ordinal boundary ranks; each leaf is graded by its
    best instance pair, and the tree folds the leaf degrees (``and`` =
    weighted mean, ``or`` = max, ``not`` = complement).
    """
    x_ranks = boundary_ranks(bestring.x)
    y_ranks = boundary_ranks(bestring.y)
    instances = _instances_by_label(bestring)
    degrees: Dict[Leaf, float] = {}
    for leaf in tree.leaves():
        if leaf not in degrees:
            degrees[leaf] = leaf_degree_on(leaf, x_ranks, y_ranks, instances)
    return GradedMatch(
        image_id=image_id or bestring.name,
        degree=tree.degree(lambda leaf: degrees[leaf]),
        leaf_degrees=tuple((leaf.to_text(), degrees[leaf]) for leaf in degrees),
    )


def zero_graded_match(tree: PredicateNode, image_id: str) -> GradedMatch:
    """A synthesized degree-0 match for an image pruned without evaluation.

    Only valid when the tree's degree upper bound for the image is 0 — which
    (see ``tree_degree_bound`` in :mod:`repro.index.shortlist`) implies every
    leaf degree is 0, so the synthesized per-leaf degrees are exact.
    """
    seen: Dict[str, float] = {}
    for leaf in tree.leaves():
        seen.setdefault(leaf.to_text(), 0.0)
    return GradedMatch(
        image_id=image_id, degree=0.0, leaf_degrees=tuple(seen.items())
    )
