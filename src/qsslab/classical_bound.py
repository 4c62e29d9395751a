"""Classical contrast: share-size bound and exhaustive linear-scheme search.

A linear scheme over GF(2) hands participant i the bit
share_i = a_i * s + <b_i, r> for a secret bit s and uniform randomness
bits r. Such schemes are automatically perfect, so every share subset is
either Qualified (determines s) or Unqualified (statistically independent
of s). The search below enumerates all vector assignments up to a
randomness budget and certifies whether any of them realizes an exact
(k, n) threshold structure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence


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


@dataclass(frozen=True)
class ThresholdParams:
    """Parameters of a candidate (k, n) threshold scheme."""

    n: int
    k: int
    share_sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 1 <= self.k <= self.n:
            raise ValueError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")
        sizes = tuple(self.share_sizes)
        if len(sizes) != self.n:
            raise ValueError(f"need {self.n} share sizes, got {len(sizes)}")
        if any(size < 2 for size in sizes):
            raise ValueError("every share alphabet must have size >= 2")
        object.__setattr__(self, "share_sizes", sizes)


@dataclass(frozen=True)
class BoundReport:
    """Arithmetic check of average share size against n - k + 2."""

    params: ThresholdParams
    average_share_size: float
    required: int
    satisfied: bool


def check_bound(params: ThresholdParams) -> BoundReport:
    """Compare the mean share-alphabet size with the n - k + 2 lower bound.

    A violated bound means a perfect (k, n) threshold scheme with these
    classical share sizes cannot exist (meaningful for k >= 2).
    """
    average = sum(params.share_sizes) / params.n
    required = params.n - params.k + 2
    return BoundReport(
        params=params,
        average_share_size=average,
        required=required,
        satisfied=average >= required,
    )


class SubsetStatus(str, Enum):
    QUALIFIED = "Qualified"
    UNQUALIFIED = "Unqualified"


@dataclass(frozen=True)
class LinearScheme:
    """GF(2)-linear sharing map: one (a | b) vector per share."""

    n: int
    m: int
    vectors: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.vectors) != self.n:
            raise ValueError(f"need {self.n} vectors, got {len(self.vectors)}")
        for vec in self.vectors:
            if len(vec) != 1 + self.m or set(vec) - {0, 1}:
                raise ValueError(f"bad GF(2) vector {vec!r} for m={self.m}")


def scheme_subset_status(scheme: LinearScheme, members: Iterable[int]) -> SubsetStatus:
    """Qualified/Unqualified status of a share subset of a linear scheme.

    The subset is Qualified exactly when the secret functional (1 | 0)
    lies in the GF(2) row span of its share vectors (a_i | b_i): some sum
    of its shares then equals s. Otherwise the share distributions for
    s=0 and s=1 are identical cosets and the subset is Unqualified.
    """
    subset = tuple(sorted(members))
    if len(set(subset)) != len(subset):
        raise ValueError(f"duplicate members in {subset}")
    if subset and (subset[0] < 1 or subset[-1] > scheme.n):
        raise ValueError(f"members must lie in 1..{scheme.n}, got {subset}")
    rows = _rows(scheme)
    if gf2_in_span(1 << scheme.m, [rows[i - 1] for i in subset]):
        return SubsetStatus.QUALIFIED
    return SubsetStatus.UNQUALIFIED


def realizes_threshold(scheme: LinearScheme, k: int) -> bool:
    """True when qualified subsets are exactly those of size >= k."""
    return _threshold_rows(_rows(scheme), scheme.m, k)


def _threshold_rows(rows: Sequence[int], m: int, k: int) -> bool:
    # realizes_threshold on the (a | b) row ints of _rows, a the top bit.
    return all(
        gf2_in_span(1 << m, combo) == (size >= k)
        for size in range(1, len(rows) + 1)
        for combo in itertools.combinations(rows, size)
    )


def _rows(scheme: LinearScheme) -> list[int]:
    # Each share vector (a | b_1..b_m) as a bitmask int with a as the top bit.
    return [sum(bit << (scheme.m - c) for c, bit in enumerate(vec)) for vec in scheme.vectors]


@dataclass(frozen=True)
class SearchReport:
    """Outcome and enumeration counters of a linear-scheme search.

    ``assignments_tried`` counts every share-vector assignment explored;
    ``schemes_completed`` counts fully assigned schemes that reached final
    evaluation. The two pruned counters record branches cut because a
    small subset was already Qualified, respectively because a complete
    k-subset failed to qualify (both cuts are sound for the verdict). They
    are popcounts of bitmask candidate sets, equal to what a loop over the
    candidates in order counts up to the one where a witness ends it.
    """

    n: int
    k: int
    m_max: int
    pruned: bool
    found: bool
    witness: Optional[LinearScheme]
    assignments_tried: int
    schemes_completed: int
    pruned_small_qualified: int
    pruned_large_unqualified: int


class _Counters:
    __slots__ = ("assignments", "schemes", "small", "large")

    def __init__(self) -> None:
        self.assignments = 0
        self.schemes = 0
        self.small = 0
        self.large = 0


def _scheme_from_rows(rows: Sequence[int], m: int) -> LinearScheme:
    # Inverse of _rows: row x is the vector (a, b_1..b_m), lexicographic in x.
    vectors = tuple(tuple((x >> (m - c)) & 1 for c in range(m + 1)) for x in rows)
    return LinearScheme(n=len(rows), m=m, vectors=vectors)


def _search_fixed_m(
    n: int, k: int, m: int, prune: bool, counters: _Counters
) -> Optional[LinearScheme]:
    everything = (1 << (1 << (m + 1))) - 1  # candidate sets: bit x is vector x
    secret_vec = 1 << m  # (a=1, b=0): the functional picking out s itself
    bit = [1 << w for w in range(1 << (m + 1))]
    assigned: list[int] = []

    def coset(vectors: Sequence[int]) -> list[int]:
        # secret_vec ^ span(S): S + {x} is Qualified iff x lies in it, and
        # the coset of S + {x} is that of S together with its shift by x.
        members = [secret_vec]
        for v in vectors:
            members += [v ^ w for w in members]
        return members

    def count(forbidden: int, required: int, seen: int) -> None:
        counters.assignments += seen.bit_count()
        counters.small += (seen & forbidden).bit_count()
        counters.large += (seen & ~forbidden & ~required).bit_count()

    def dfs(depth: int, forbidden: int, required: int) -> Optional[LinearScheme]:
        # When pruning, forbidden is the union of the cosets of all assigned
        # S with |S| <= k - 2, required the intersection over |S| = k - 1 (all
        # candidates until such S exist). Spans grow with subsets, so a child
        # adds only the cosets of the largest S + {x} that contain its new
        # share x; the cosets of those S are built once per node.
        allowed = required & ~forbidden
        inner = prune and allowed and depth < n - 1
        combos = itertools.combinations
        grow = [coset(c) for c in combos(assigned, min(depth, k - 3))] if inner and k >= 3 else []
        shrink = [coset(c) for c in combos(assigned, k - 2)] if inner and k >= 2 else []
        while allowed:
            low = allowed & -allowed
            allowed ^= low
            x = low.bit_length() - 1
            if depth == n - 1:
                counters.schemes += 1
                rows = assigned + [x]
                witness: Optional[LinearScheme] = None
                if _threshold_rows(rows, m, k):
                    witness = _scheme_from_rows(rows, m)
                elif prune:
                    # Incremental constraints guarantee threshold structure
                    # at a pruned-mode leaf; disagreement is a bug.
                    raise RuntimeError(
                        f"pruned search reached inconsistent leaf {_scheme_from_rows(rows, m)}"
                    )
            else:
                child_forbidden, child_required = forbidden, required
                for members in grow:
                    for w in members:
                        child_forbidden |= bit[w] | bit[w ^ x]
                for members in shrink:
                    mask = 0
                    for w in members:
                        mask |= bit[w] | bit[w ^ x]
                    child_required &= mask
                assigned.append(x)
                witness = dfs(depth + 1, child_forbidden, child_required)
                assigned.pop()
            if witness is not None:
                # The loop stops at x: count only the candidates up to x.
                count(forbidden, required, (low << 1) - 1)
                return witness
        count(forbidden, required, everything)
        return None

    # Depth 0 starts from the empty subset's coset {secret_vec}: forbidden
    # for k >= 2, required for k = 1.
    if prune and k == 1:
        return dfs(0, 0, bit[secret_vec])
    return dfs(0, bit[secret_vec] if prune else 0, everything)


def search_linear_schemes(
    n: int, k: int, m_max: int = 5, prune: bool = True
) -> SearchReport:
    """Exhaustively search GF(2)-linear schemes for a (k, n) threshold.

    Enumerates every assignment of n share vectors over GF(2)^(1+m) for
    m = 0..m_max, share by share in lexicographic order, and reports the
    first scheme whose access structure is the exact (k, n) threshold,
    or that none exists. With ``prune`` enabled, branches are cut as soon
    as a subset smaller than k qualifies or a completed k-subset fails to
    qualify; both cuts only discard provably witness-free branches.
    """
    if not 1 <= n <= 5:
        raise ValueError(f"n must be in 1..5, got {n}")
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}")
    if not 0 <= m_max <= 5:
        raise ValueError(f"m_max must be in 0..5, got {m_max}")
    counters = _Counters()
    witness = None
    for m in range(m_max + 1):
        witness = _search_fixed_m(n, k, m, prune, counters)
        if witness is not None:
            break
    return SearchReport(
        n=n,
        k=k,
        m_max=m_max,
        pruned=prune,
        found=witness is not None,
        witness=witness,
        assignments_tried=counters.assignments,
        schemes_completed=counters.schemes,
        pruned_small_qualified=counters.small,
        pruned_large_unqualified=counters.large,
    )
