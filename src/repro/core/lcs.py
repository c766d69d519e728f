"""Algorithms 2 and 3: the modified longest common subsequence.

The paper modifies the textbook LCS dynamic program (CLRS) in two ways:

1. **Dummy suppression** -- the LCS is never allowed to contain two dummy
   objects in a row, because "only one dummy object sufficiently represents
   the relative spatial relationship between two boundary symbols".  The DP
   table encodes, in the *sign* of each cell, whether the LCS ending at that
   cell finishes with a dummy: a dummy may only extend an LCS whose last
   symbol is not a dummy (cell value ``>= 0``).
2. **No path matrix** -- left/up moves are evaluated before the diagonal
   move, so the path can be re-derived from the length table alone
   (Algorithm 3), halving the book-keeping storage.

Both the faithful recursive printer (:func:`print_2d_be_lcs`) and an
iterative reconstruction (:func:`be_lcs_string`) are provided; the latter is
what the retrieval layer uses since database strings can be long.
"""

from __future__ import annotations

from typing import List

from repro.core.bestring import AxisBEString
from repro.core.symbols import DUMMY_TEXT, Symbol

#: The DP table type: ``(m + 1) x (n + 1)`` signed LCS lengths.
LCSTable = List[List[int]]


def _texts(axis: AxisBEString) -> List[str]:
    """The text of each symbol of ``axis``, the keys both DPs compare.

    Two symbols have equal text exactly when they are equal: a boundary's
    text is its non-empty identifier followed by ``.b`` or ``.e``, so the
    last two characters give the kind and the rest the identifier, and no
    such text is the dummy's ``E``.  Comparing two strings (usually the
    same interned object) is much cheaper than the dataclass ``__eq__``.
    """
    return [symbol.text for symbol in axis.symbols]


def be_lcs_table(query: AxisBEString, database: AxisBEString) -> LCSTable:
    """Algorithm 2 (``2D-Be-LCS-Length``): build the signed LCS length table.

    ``abs(table[i][j])`` is the length of the longest dummy-suppressed common
    subsequence of ``query[:i]`` and ``database[:j]``; the value is negative
    exactly when that subsequence ends with the dummy object.  Symbols are
    compared by their text (:func:`_texts`).
    """
    q = _texts(query)
    d = _texts(database)
    m = len(q)
    n = len(d)
    table: LCSTable = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(1, m + 1):
        row = table[i]
        above = table[i - 1]
        q_text = q[i - 1]
        q_is_dummy = q_text == DUMMY_TEXT
        for j in range(1, n + 1):
            up = above[j]
            left = row[j - 1]
            # Prefer the left/up predecessor with the larger absolute length;
            # ties go to "up" exactly as in the paper (line 16-19).
            cell = up if abs(up) >= abs(left) else left
            if q_text == d[j - 1] and (not q_is_dummy or above[j - 1] >= 0):
                diagonal = abs(above[j - 1]) + 1
                if diagonal > abs(cell):
                    cell = -diagonal if q_is_dummy else diagonal
            row[j] = cell
    return table


def be_lcs_length(query: AxisBEString, database: AxisBEString) -> int:
    """Length of the modified LCS of two axis BE-strings.

    Runs the Algorithm 2 recurrence with two rolling rows instead of the full
    ``(m + 1) x (n + 1)`` table -- the length only ever looks one row back, so
    length-only scoring needs ``O(n)`` memory, not ``O(m * n)``.  Use
    :func:`be_lcs_table` when the traceback is required.
    """
    q = _texts(query)
    d = _texts(database)
    m = len(q)
    n = len(d)
    if m == 0 or n == 0:
        return 0
    above = [0] * (n + 1)
    row = [0] * (n + 1)
    for i in range(1, m + 1):
        q_text = q[i - 1]
        q_is_dummy = q_text == DUMMY_TEXT
        row[0] = 0
        for j in range(1, n + 1):
            up = above[j]
            left = row[j - 1]
            cell = up if abs(up) >= abs(left) else left
            if q_text == d[j - 1] and (not q_is_dummy or above[j - 1] >= 0):
                diagonal = abs(above[j - 1]) + 1
                if diagonal > abs(cell):
                    cell = -diagonal if q_is_dummy else diagonal
            row[j] = cell
        above, row = row, above
    return abs(above[n])


def print_2d_be_lcs(
    query: AxisBEString,
    table: LCSTable,
    i: int,
    j: int,
    output: List[Symbol],
) -> None:
    """Algorithm 3 (``Print-2D-Be-LCS``): recursive LCS reconstruction.

    Appends the LCS symbols to ``output`` in forward order.  This is the
    faithful recursive formulation; prefer :func:`be_lcs_string` for long
    strings (it is iterative and therefore immune to recursion limits).
    """
    if i == 0 or j == 0:
        return
    current = abs(table[i][j])
    if current == abs(table[i - 1][j]):
        print_2d_be_lcs(query, table, i - 1, j, output)
    elif current == abs(table[i][j - 1]):
        print_2d_be_lcs(query, table, i, j - 1, output)
    else:
        print_2d_be_lcs(query, table, i - 1, j - 1, output)
        output.append(query.symbols[i - 1])


def _traceback(query: AxisBEString, table: LCSTable, i: int, j: int) -> List[Symbol]:
    """Iterative equivalent of :func:`print_2d_be_lcs`."""
    collected: List[Symbol] = []
    while i > 0 and j > 0:
        current = abs(table[i][j])
        if current == abs(table[i - 1][j]):
            i -= 1
        elif current == abs(table[i][j - 1]):
            j -= 1
        else:
            collected.append(query.symbols[i - 1])
            i -= 1
            j -= 1
    collected.reverse()
    return collected


def be_lcs_string(query: AxisBEString, database: AxisBEString) -> AxisBEString:
    """The modified LCS of two axis BE-strings, as an axis string."""
    table = be_lcs_table(query, database)
    symbols = _traceback(query, table, len(query), len(database))
    return AxisBEString(tuple(symbols))


def be_lcs_length_and_string(
    query: AxisBEString, database: AxisBEString
) -> tuple[int, AxisBEString]:
    """Compute the LCS length and string with a single table construction."""
    table = be_lcs_table(query, database)
    length = abs(table[len(query)][len(database)])
    symbols = _traceback(query, table, len(query), len(database))
    return length, AxisBEString(tuple(symbols))
