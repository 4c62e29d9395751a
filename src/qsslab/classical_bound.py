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


def _search_fixed_m(
    n: int, k: int, m: int, prune: bool
) -> tuple[Optional[LinearScheme], tuple[int, int, int, int]]:
    everything = (1 << (1 << (m + 1))) - 1  # candidate sets: bit x is vector x
    secret_vec = 1 << m  # (a=1, b=0): the functional picking out s itself
    bit = [1 << w for w in range(1 << (m + 1))]
    assigned: list[int] = []
    # The counts of every witness-free subtree, by orbit key. A map fixing
    # secret_vec preserves qualification and permutes the candidates, so a
    # subtree's verdict and counts depend only on its tuple's orbit.
    memo: dict[tuple[int, ...], tuple[int, int, int, int]] = {}

    def coset(vectors: Sequence[int]) -> list[int]:
        # secret_vec ^ span(S): S + {x} is Qualified iff x lies in it, and
        # the coset of S + {x} is that of S together with its shift by x.
        members = [secret_vec]
        for v in vectors:
            members += [v ^ w for w in members]
        return members

    def dfs(
        depth: int, forbidden: int, required: int, index: dict[int, int], key: tuple[int, ...]
    ) -> tuple[Optional[LinearScheme], tuple[int, int, int, int]]:
        # Returns the first witness below this node, if any, and the node's
        # subtree counts (assignments, schemes, small prunes, large prunes).
        # When pruning, forbidden is the union of the cosets of all assigned
        # S with |S| <= k - 2, required the intersection over |S| = k - 1 (all
        # candidates until such S exist). Spans grow with subsets, so a child
        # adds only the cosets of the largest S + {x} that contain its new
        # share x; the cosets of those S are built once per node. index holds
        # the subset sums of the assigned shares, key their orbit key.
        allowed = required & ~forbidden
        inner = prune and allowed and depth < n - 1
        combos = itertools.combinations
        grow = [coset(c) for c in combos(assigned, min(depth, k - 3))] if inner and k >= 3 else []
        shrink = [coset(c) for c in combos(assigned, k - 2)] if inner and k >= 2 else []
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
                    child_index = _extend_index(index, x, depth)
                    witness, counts = dfs(
                        depth + 1, child_forbidden, child_required, child_index, child_key
                    )
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

    # Depth 0 starts from the empty subset's coset {secret_vec}: forbidden
    # for k >= 2, required for k = 1.
    if prune and k == 1:
        return dfs(0, 0, bit[secret_vec], {0: 1}, ())
    return dfs(0, bit[secret_vec] if prune else 0, everything, {0: 1}, ())


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
