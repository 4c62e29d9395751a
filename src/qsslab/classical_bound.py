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

    def shares(self, s: int, randomness: Sequence[int]) -> tuple[int, ...]:
        """Evaluate all share bits for secret ``s`` and randomness ``r``."""
        if s not in (0, 1) or len(randomness) != self.m:
            raise ValueError("need a secret bit and m randomness bits")
        out = []
        for vec in self.vectors:
            bit = vec[0] * s
            for b, r in zip(vec[1:], randomness):
                bit ^= b & r
            out.append(bit)
        return tuple(out)


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
    vectors = [scheme.vectors[i - 1] for i in subset]
    rows = [sum(bit << (scheme.m - c) for c, bit in enumerate(vec)) for vec in vectors]
    if gf2_in_span(1 << scheme.m, rows):
        return SubsetStatus.QUALIFIED
    return SubsetStatus.UNQUALIFIED


def realizes_threshold(scheme: LinearScheme, k: int) -> bool:
    """True when qualified subsets are exactly those of size >= k."""
    for size in range(1, scheme.n + 1):
        for combo in itertools.combinations(range(1, scheme.n + 1), size):
            qualified = scheme_subset_status(scheme, combo) is SubsetStatus.QUALIFIED
            if qualified != (size >= k):
                return False
    return True


@dataclass(frozen=True)
class SearchReport:
    """Outcome and enumeration counters of a linear-scheme search.

    ``assignments_tried`` counts every share-vector assignment explored;
    ``schemes_completed`` counts fully assigned schemes that reached final
    evaluation. The two pruned counters record branches cut because a
    small subset was already Qualified, respectively because a complete
    k-subset failed to qualify (both cuts are sound for the verdict).
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


def _vector_from_int(x: int, m: int) -> tuple[int, ...]:
    # Tuple (a, b_1..b_m) in lexicographic order as x runs 0..2^(m+1)-1.
    return tuple((x >> (m - c)) & 1 for c in range(m + 1))


def _span_values(values: Sequence[int]) -> set[int]:
    span = {0}
    for v in values:
        span |= {v ^ w for w in span}
    return span


def _search_fixed_m(
    n: int, k: int, m: int, prune: bool, counters: _Counters
) -> Optional[LinearScheme]:
    num_candidates = 1 << (m + 1)
    secret_vec = 1 << m  # (a=1, b=0): the functional picking out s itself
    assigned: list[int] = []

    def cosets(size: int) -> list[set[int]]:
        # A subset S + {depth} is Qualified iff the candidate lands in
        # secret_vec ^ span(S): one coset per size-subset S of the shares.
        return [
            {secret_vec ^ v for v in _span_values(combo)}
            for combo in itertools.combinations(assigned, size)
        ]

    def dfs(depth: int) -> Optional[LinearScheme]:
        # No S of size <= k - 2 may qualify with the candidate, and every
        # S of size k - 1 must; spans grow with their subsets, so the
        # subsets of size min(depth, k - 2) cover every smaller one.
        forbidden: set[int] = set()
        required: Optional[set[int]] = None
        if prune and k >= 2:
            forbidden = set().union(*cosets(min(depth, k - 2)))
        if prune and depth >= k - 1:
            required = set.intersection(*cosets(k - 1))

        for x in range(num_candidates):
            counters.assignments += 1
            if x in forbidden:
                counters.small += 1
                continue
            if required is not None and x not in required:
                counters.large += 1
                continue
            assigned.append(x)
            witness: Optional[LinearScheme] = None
            if depth == n - 1:
                counters.schemes += 1
                scheme = LinearScheme(
                    n=n, m=m, vectors=tuple(_vector_from_int(v, m) for v in assigned)
                )
                if realizes_threshold(scheme, k):
                    witness = scheme
                elif prune:
                    # Incremental constraints guarantee threshold structure
                    # at a pruned-mode leaf; disagreement is a bug.
                    raise RuntimeError(f"pruned search reached inconsistent leaf {scheme}")
            else:
                witness = dfs(depth + 1)
            assigned.pop()
            if witness is not None:
                return witness
        return None

    return dfs(0)


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
