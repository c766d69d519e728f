"""Bit-parallel kernel for the modified (dummy-suppressed) LCS length.

The reference dynamic program in :mod:`repro.core.lcs` walks an ``m x n``
table one Python-level cell at a time.  This module computes the *length* of
the same modified LCS with the classic bit-vector LCS recurrence (Crochemore
et al. 2001 / Hyyrö 2004) over Python's arbitrary-width integers: one row of
the DP table becomes one machine-word-packed integer, and the whole inner
loop collapses into a constant number of integer operations per query symbol.

Plain bit-parallel LCS
----------------------

Encode row ``i`` of the length table as a bit vector ``V`` where bit ``j`` is
``1`` exactly when the row does **not** increment at column ``j + 1``
(``L[i][j+1] == L[i][j]``).  Row 0 is all ones.  With ``M`` the match mask of
the current query symbol against the database string, the next row is::

    U = V & M
    V' = (V + U) | (V - U)

and the LCS length is the number of zero bits in the final ``V``.  The
addition's carry chain is what propagates an increment through a run of
non-incrementing columns — the bit-level equivalent of the DP's
``max(left, up, diagonal + 1)``.

Encoding the dummy-suppression rule
-----------------------------------

The paper's modification (Algorithm 2) stores the sign of each cell: a cell
is negative exactly when every optimal common subsequence ending there
finishes with the dummy object, and a dummy match may only extend a cell
whose upper-left neighbour is non-negative.  The kernel carries that sign
plane as a second bit vector ``S`` (bit ``j`` set when ``table[i][j+1] < 0``)
and updates it per row from three column classes derivable from ``V`` and
``V'`` alone:

* ``up`` wins (``L[i][j] == L[i-1][j]``, ties included) — inherit the sign
  from the previous row;
* ``left`` wins strictly — copy the sign of the cell to the left (a
  carry-fill propagates signs through whole runs at once);
* the diagonal wins strictly — the sign is simply "was this query symbol a
  dummy".

Which class a column falls into is decided by the vertical balance
``L[i][j] - L[i-1][j]`` (0 or 1), itself recovered bit-parallel from the two
rows' increment vectors with one more carry-fill.  A dummy row then masks its
match vector with ``~(S << 1)`` — forbidding exactly the diagonal moves the
reference DP forbids — so the kernel reproduces Algorithm 2's lengths
bit-for-bit, tie-breaking rules included (``tests/core/test_lcskernel.py``
fuzzes this equivalence on random scenes and adversarial dummy runs).

The kernel is length-only: traceback (``be_lcs_string`` and the explain
paths) stays on the reference implementation.  See ``docs/kernels.md``.
"""

from __future__ import annotations

from typing import Dict

from repro.core.bestring import AxisBEString
from repro.core.symbols import DUMMY_TEXT

__all__ = ["be_lcs_length_bitparallel"]


def _match_masks(database: AxisBEString) -> Dict[str, int]:
    """Bit mask of each symbol's positions in the database string, by text.

    Bit ``j`` of ``masks[symbol.text]`` is set when ``database.symbols[j] ==
    symbol``: two symbols have equal text exactly when they are equal (see
    :func:`repro.core.lcs.be_lcs_table`), and a string hashes far cheaper
    than the dataclass.  Boundary symbols occur at most once per valid axis
    string, so almost every mask is a single bit; the dummy's mask carries
    roughly half the positions.
    """
    masks: Dict[str, int] = {}
    for position, symbol in enumerate(database.symbols):
        text = symbol.text
        masks[text] = masks.get(text, 0) | (1 << position)
    return masks


def be_lcs_length_bitparallel(query: AxisBEString, database: AxisBEString) -> int:
    """Length of the modified LCS, identical to :func:`repro.core.lcs.be_lcs_length`.

    Runs the bit-parallel recurrence described in the module docstring:
    ``O(len(query))`` big-integer operations on ``len(database)``-bit values
    instead of the reference DP's ``O(m * n)`` Python-level loop.
    """
    d_symbols = database.symbols
    q_symbols = query.symbols
    n = len(d_symbols)
    if n == 0 or not q_symbols:
        return 0
    mask = (1 << n) - 1
    masks = _match_masks(database)
    # When either side has no dummy the sign plane can never block a match,
    # and the kernel degenerates to the plain bit-parallel LCS.
    dummy_mask = masks.get(DUMMY_TEXT, 0)
    track_signs = dummy_mask != 0 and any(symbol.is_dummy for symbol in q_symbols)
    V = mask  # bit j: no increment at column j+1 (row 0 is all zeros)
    S = 0  # bit j: table[i][j+1] < 0 (the optimal LCS there ends with a dummy)
    for symbol in q_symbols:
        M = masks.get(symbol.text, 0)
        is_dummy = symbol.is_dummy
        if is_dummy and S:
            # Dummy suppression: a dummy diagonal at column j+1 needs a
            # non-negative upper-left cell, i.e. sign bit j-1+1 clear.
            M &= ~(S << 1)
        if M == 0:
            # Absent symbol (or fully suppressed dummy row): the row — and
            # therefore every sign — is unchanged.
            continue
        U = V & M
        V_new = ((V + U) | (V - U)) & mask
        if track_signs:
            A = V_new ^ mask  # increment columns of the new row
            B = V ^ mask  # increment columns of the previous row
            # Vertical balance L[i][j] - L[i-1][j]: flips to 1 at A&~B
            # columns, to 0 at B&~A columns, and holds through neutral runs
            # (carry-fill from the nearest transition to the left).
            up_transition = A & ~B & mask
            neutral = ~(A ^ B) & mask
            balance = up_transition | (
                (neutral ^ (neutral + (up_transition << 1))) & neutral
            )
            diagonal_won = A & balance
            left_won = balance & ~A
            # "Up" columns (balance 0, ties to up exactly as in the paper)
            # inherit the previous row's sign; diagonal columns take the
            # current symbol's dummy-ness; "left" runs copy from their left
            # neighbour via one more carry-fill.
            signs = (~balance & mask) & S
            if is_dummy:
                signs |= diagonal_won
            S = signs | ((left_won ^ (left_won + (signs << 1))) & left_won)
        V = V_new
    return n - bin(V).count("1")
