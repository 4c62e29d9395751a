"""Echelon-form GF(2) linear algebra on bitmask row vectors, for the tests.

The search in ``qsslab.classical_bound`` decides qualification through
subset sums and has no pivot routine; the tests check it, and the
stabilizer counts, against this independent route.
"""

from typing import Iterable


def gf2_rank(rows: Iterable[int]) -> int:
    """Rank over GF(2) of bitmask row vectors."""
    return len(_gf2_pivots(rows))


def gf2_in_span(vec: int, rows: Iterable[int]) -> bool:
    """Whether ``vec`` lies in the GF(2) span of ``rows`` (bitmask ints)."""
    return _gf2_reduce(vec, _gf2_pivots(rows)) == 0


def _gf2_pivots(rows: Iterable[int]) -> dict[int, int]:
    # Echelon basis of the rows, keyed by each pivot row's leading bit.
    pivots: dict[int, int] = {}
    for row in rows:
        row = _gf2_reduce(row, pivots)
        if row:
            pivots[row.bit_length() - 1] = row
    return pivots


def _gf2_reduce(vec: int, pivots: dict[int, int]) -> int:
    while vec:
        pivot = pivots.get(vec.bit_length() - 1)
        if pivot is None:
            break
        vec ^= pivot
    return vec
