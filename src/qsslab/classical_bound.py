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

import functools
from dataclasses import dataclass
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


def share_size_bound(n: int, k: int) -> int:
    """The n - k + 2 lower bound on the mean share-alphabet size.

    A perfect (k, n) threshold scheme whose shares average fewer symbols
    than this cannot exist (meaningful for k >= 2): 1-bit shares, an
    alphabet of 2, fall short of 4 for (3, 5). For (3, 5) that case also
    has an exact dual certificate, checked in
    ``tests/test_classical_bound.py::TestDualCertificate``.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    return n - k + 2


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


def _threshold_rows(rows: Sequence[int], m: int, k: int) -> bool:
    # Whether exactly the subsets of size >= k are Qualified: the secret
    # functional (1 | 0) lies in the GF(2) span of their (a | b) row ints,
    # a the top bit, so some sum of their shares equals s. Spans grow with
    # subsets, so that holds exactly when the rows of every k-subset, and of
    # no smaller subset, sum to the functional; sums[T] sums the rows in T.
    sums = [0]
    for row in rows:
        sums += [row ^ s for s in sums]
    return all(
        (s == 1 << m) == (t.bit_count() == k) for t, s in enumerate(sums) if t.bit_count() <= k
    )


@dataclass(frozen=True)
class SearchReport:
    """Outcome and enumeration counters of a linear-scheme search.

    ``assignments_tried`` counts every share-vector assignment explored;
    ``schemes_completed`` counts fully assigned schemes that reached final
    evaluation. The two pruned counters record branches cut because a
    small subset was already Qualified, respectively because a complete
    k-subset failed to qualify (both cuts are sound for the verdict). They
    are popcounts of bitmask candidate sets, equal to what a loop over the
    candidates in order counts up to the one where a witness ends it. Each
    subtree returns its four counts, which its parent adds up, and a
    witness-free subtree is not searched again for a share tuple in the
    same orbit under the linear maps fixing the secret functional: the
    counts it returned are added instead, so the counters still mean what
    that loop counts. The counters are summed over m = 0..m_max, up to
    the m of the witness.
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


def _scheme_from_rows(rows: Sequence[int], m: int) -> LinearScheme:
    # Row x is the vector (a, b_1..b_m), a the top bit of x, lexicographic in x.
    vectors = tuple(tuple((x >> (m - c)) & 1 for c in range(m + 1)) for x in rows)
    return LinearScheme(n=len(rows), m=m, vectors=vectors)


def _extend_index(index: dict[int, int], x: int, depth: int) -> dict[int, int]:
    # index maps each subset sum s of the depth assigned shares to the
    # bitmask of the subsets T with s_T == s (bit T, T a bitmask of shares).
    # Appending share x adds T + {x} for every T: sum s_T ^ x, bit T + 2^depth.
    child = dict(index)
    for s, subsets in index.items():
        child[s ^ x] = child.get(s ^ x, 0) | subsets << (1 << depth)
    return child


def _key_pair(index: dict[int, int], x: int, secret_vec: int) -> tuple[int, int]:
    # What a new share x appends to its tuple's orbit key: the subsets T of
    # the earlier shares with s_T == x, and those with s_T == x ^ secret_vec.
    # The pairs list every linear relation among secret_vec and the shares
    # under its last share, so two tuples share a key exactly when an
    # invertible linear map fixing secret_vec sends one onto the other.
    return index.get(x, 0), index.get(x ^ secret_vec, 0)


@functools.cache
def _subset_ids(n: int, k: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    # Per depth d < n, over the subset ids T < 2^d of the d assigned shares:
    # the bitmask of the T with |T| <= k - 2, and for each S with
    # |S| = k - 1 the bitmask of the T contained in S.
    table = []
    for d in range(n):
        ids = range(1 << d)
        small = sum(1 << t for t in ids if t.bit_count() <= k - 2)
        downs = tuple(
            sum(1 << t for t in ids if t & ~s == 0) for s in ids if s.bit_count() == k - 1
        )
        table.append((small, downs))
    return tuple(table)


def _search_fixed_m(
    n: int, k: int, m: int, prune: bool
) -> tuple[Optional[LinearScheme], tuple[int, int, int, int]]:
    everything = (1 << (1 << (m + 1))) - 1  # candidate sets: bit x is vector x
    secret_vec = 1 << m  # (a=1, b=0): the functional picking out s itself
    ids = _subset_ids(n, k)
    assigned: list[int] = []
    # The counts of every witness-free subtree, by orbit key. A map fixing
    # secret_vec preserves qualification and permutes the candidates, so a
    # subtree's verdict and counts depend only on its tuple's orbit.
    memo: dict[tuple[int, ...], tuple[int, int, int, int]] = {}

    def dfs(
        depth: int, index: dict[int, int], key: tuple[int, ...]
    ) -> tuple[Optional[LinearScheme], tuple[int, int, int, int]]:
        # Returns the first witness below this node, if any, and the node's
        # subtree counts (assignments, schemes, small prunes, large prunes).
        # index holds the subset sums of the assigned shares, key their
        # orbit key. S + {x} is Qualified iff x lies in secret_vec ^ span(S),
        # and s lies in span(S) iff some T in S has s_T == s. So when
        # pruning, forbidden holds the secret_vec ^ s_T with |T| <= k - 2,
        # required the secret_vec ^ s with s in the span of every assigned
        # S with |S| = k - 1 (all candidates until such S exist).
        forbidden, required = 0, everything
        if prune:
            small_ids, downs = ids[depth]
            forbidden = sum(1 << (secret_vec ^ s) for s, t in index.items() if t & small_ids)
            if downs:
                required = sum(
                    1 << (secret_vec ^ s) for s, t in index.items() if all(t & d for d in downs)
                )
        allowed = required & ~forbidden
        assignments = schemes = small = large = 0
        witness: Optional[LinearScheme] = None
        seen = everything
        while allowed:
            low = allowed & -allowed
            allowed ^= low
            x = low.bit_length() - 1
            child_key = key + _key_pair(index, x, secret_vec)
            counts = memo.get(child_key)
            if counts is None:
                if depth == n - 1:
                    counts = (0, 1, 0, 0)
                    rows = assigned + [x]
                    if _threshold_rows(rows, m, k):
                        witness = _scheme_from_rows(rows, m)
                    elif prune:
                        # The masks guarantee threshold structure at a
                        # pruned-mode leaf; disagreement is a bug.
                        raise RuntimeError(
                            f"pruned search reached inconsistent leaf {_scheme_from_rows(rows, m)}"
                        )
                else:
                    assigned.append(x)
                    witness, counts = dfs(depth + 1, _extend_index(index, x, depth), child_key)
                    assigned.pop()
                if witness is None:
                    memo[child_key] = counts
            child_assignments, child_schemes, child_small, child_large = counts
            assignments += child_assignments
            schemes += child_schemes
            small += child_small
            large += child_large
            if witness is not None:
                # The loop stops at x: count only the candidates up to x.
                seen = (low << 1) - 1
                break
        return witness, (
            assignments + seen.bit_count(),
            schemes,
            small + (seen & forbidden).bit_count(),
            large + (seen & ~forbidden & ~required).bit_count(),
        )

    return dfs(0, {0: 1}, ())


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
    witness = None
    totals = [0, 0, 0, 0]
    for m in range(m_max + 1):
        witness, counts = _search_fixed_m(n, k, m, prune)
        totals = [t + c for t, c in zip(totals, counts)]
        if witness is not None:
            break
    return SearchReport(n, k, m_max, prune, witness is not None, witness, *totals)
