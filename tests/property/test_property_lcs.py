"""Property-based tests for the modified LCS (Algorithm 2/3) invariants."""

from hypothesis import given, settings, strategies as st

from repro.baselines.lcs_plain import classic_lcs_length, dummy_aware_lcs_length
from repro.core.bestring import AxisBEString
from repro.core.lcs import (
    be_lcs_length,
    be_lcs_length_and_string,
    be_lcs_string,
    be_lcs_table,
)
from repro.core.lcskernel import be_lcs_length_bitparallel
from repro.core.symbols import Symbol

#: A small symbol alphabet so that generated strings share many symbols.
_IDENTIFIERS = ["A", "B", "C", "D"]

#: Identifiers whose boundary texts look like other symbols' texts: the
#: dummy's ``E``, a kind suffix inside the identifier, an instance number,
#: and one-character labels equal to a kind.
_LOOKALIKE_IDENTIFIERS = ["E", "a", "a.b", "a.e", "x#1", "b", "e"]


@st.composite
def axis_strings(draw, max_objects=4, identifiers=tuple(_IDENTIFIERS)):
    """Well-formed axis BE-strings over a small alphabet.

    Objects are a random subset of the alphabet; boundary orderings and dummy
    placements are random but structurally valid (begin before end, no two
    adjacent dummies).
    """
    identifiers = draw(
        st.lists(st.sampled_from(identifiers), unique=True, min_size=1, max_size=max_objects)
    )
    # Random interleaving: assign each boundary a random rank, then emit with
    # random dummy insertion between distinct ranks.
    boundaries = []
    for identifier in identifiers:
        begin_rank = draw(st.integers(min_value=0, max_value=6))
        end_rank = draw(st.integers(min_value=begin_rank, max_value=7))
        boundaries.append((begin_rank, identifier, Symbol.begin(identifier)))
        boundaries.append((end_rank, identifier, Symbol.end(identifier)))
    boundaries.sort(key=lambda item: (item[0], item[1], item[2].is_end))
    symbols = []
    if draw(st.booleans()):
        symbols.append(Symbol.dummy())
    for index, (rank, _, symbol) in enumerate(boundaries):
        symbols.append(symbol)
        is_last = index + 1 == len(boundaries)
        next_rank = None if is_last else boundaries[index + 1][0]
        if not is_last and next_rank != rank:
            symbols.append(Symbol.dummy())
        elif is_last and draw(st.booleans()):
            symbols.append(Symbol.dummy())
    return AxisBEString(tuple(symbols))


@settings(max_examples=80, deadline=None)
@given(axis_strings(), axis_strings())
def test_lcs_length_matches_reconstructed_string(query, database):
    length, lcs = be_lcs_length_and_string(query, database)
    assert len(lcs) == length


@settings(max_examples=80, deadline=None)
@given(axis_strings(), axis_strings())
def test_lcs_is_a_common_subsequence(query, database):
    lcs = be_lcs_string(query, database)

    def is_subsequence(candidate, reference):
        iterator = iter(reference)
        return all(symbol in iterator for symbol in candidate)

    assert is_subsequence(lcs.symbols, query.symbols)
    assert is_subsequence(lcs.symbols, database.symbols)


@settings(max_examples=80, deadline=None)
@given(axis_strings(), axis_strings())
def test_lcs_never_contains_adjacent_dummies(query, database):
    lcs = be_lcs_string(query, database)
    for left, right in zip(lcs.symbols, lcs.symbols[1:]):
        assert not (left.is_dummy and right.is_dummy)


@settings(max_examples=80, deadline=None)
@given(axis_strings(), axis_strings())
def test_modified_lcs_bounded_by_classic_lcs(query, database):
    modified = be_lcs_length(query, database)
    classic = classic_lcs_length(query, database)
    assert 0 <= modified <= classic <= min(len(query), len(database))


@settings(max_examples=80, deadline=None)
@given(axis_strings(), axis_strings())
def test_sign_encoding_agrees_with_boolean_table_ablation(query, database):
    assert be_lcs_length(query, database) == dummy_aware_lcs_length(query, database)


@settings(max_examples=60, deadline=None)
@given(axis_strings())
def test_self_lcs_recovers_the_whole_string(string):
    assert be_lcs_length(string, string) == len(string)
    assert be_lcs_string(string, string).symbols == string.symbols


@settings(max_examples=60, deadline=None)
@given(axis_strings(), axis_strings())
def test_matched_symbols_come_from_the_shared_alphabet(query, database):
    """Every LCS symbol exists in both input strings, whichever is the query."""
    shared = set(query.symbols) & set(database.symbols)
    forward = be_lcs_string(query, database)
    backward = be_lcs_string(database, query)
    assert set(forward.symbols) <= shared
    assert set(backward.symbols) <= shared


@settings(max_examples=60, deadline=None)
@given(axis_strings(), axis_strings())
def test_lcs_length_monotone_under_database_extension(query, database):
    """Appending symbols to the database string can never reduce the LCS."""
    extended = AxisBEString(database.symbols + (Symbol.begin("Z"), Symbol.end("Z")))
    assert be_lcs_length(query, extended) >= be_lcs_length(query, database)


def _symbol_compared_table(query, database):
    """Algorithm 2 comparing ``Symbol`` values, as the DP did before it compared text."""
    q = query.symbols
    d = database.symbols
    table = [[0] * (len(d) + 1) for _ in range(len(q) + 1)]
    for i in range(1, len(q) + 1):
        row = table[i]
        above = table[i - 1]
        q_symbol = q[i - 1]
        q_is_dummy = q_symbol.is_dummy
        for j in range(1, len(d) + 1):
            up = above[j]
            left = row[j - 1]
            cell = up if abs(up) >= abs(left) else left
            if q_symbol == d[j - 1] and (not q_is_dummy or above[j - 1] >= 0):
                diagonal = abs(above[j - 1]) + 1
                if diagonal > abs(cell):
                    cell = -diagonal if q_is_dummy else diagonal
            row[j] = cell
    return table


_LOOKALIKE_STRINGS = axis_strings(max_objects=5, identifiers=tuple(_LOOKALIKE_IDENTIFIERS))


@settings(max_examples=150, deadline=None)
@given(_LOOKALIKE_STRINGS, _LOOKALIKE_STRINGS)
def test_text_keys_agree_with_symbol_equality(query, database):
    """Both DPs and the kernel's masks compare text; equal text is equal symbols."""
    oracle = _symbol_compared_table(query, database)
    length = abs(oracle[len(query)][len(database)])
    assert be_lcs_table(query, database) == oracle
    assert be_lcs_length(query, database) == length
    assert be_lcs_length_bitparallel(query, database) == length
