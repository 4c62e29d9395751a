"""Tests for the classical share-size bound and the linear-scheme search.

The subset-status check is validated against a semantic oracle: for small
schemes we enumerate every (secret, randomness) pair and compare the
actual share distributions, which must be identical (Unqualified) or
disjoint (Qualified).
"""

import itertools

import pytest

from qsslab import classical_bound, cli
from qsslab.classical_bound import (
    LinearScheme,
    SearchReport,
    SubsetStatus,
    ThresholdParams,
    check_bound,
    gf2_in_span,
    gf2_rank,
    realizes_threshold,
    scheme_subset_status,
    search_linear_schemes,
)

XOR_SCHEME = LinearScheme(n=2, m=1, vectors=((1, 1), (0, 1)))


def random_scheme(rng, n: int, m: int) -> LinearScheme:
    vectors = tuple(
        tuple(int(rng.integers(2)) for _ in range(1 + m)) for _ in range(n)
    )
    return LinearScheme(n=n, m=m, vectors=vectors)


def evaluate_shares(scheme: LinearScheme, s: int, randomness) -> tuple[int, ...]:
    """Every share bit a_i * s + <b_i, r> for secret ``s`` and randomness ``r``."""
    out = []
    for vec in scheme.vectors:
        bit = vec[0] & s
        for b, r in zip(vec[1:], randomness):
            bit ^= b & r
        out.append(bit)
    return tuple(out)


def share_distributions(scheme: LinearScheme, members: tuple[int, ...]):
    """Multisets of subset share-vectors for s=0 and s=1, over all r."""
    out = []
    for s in (0, 1):
        rows = []
        for bits in itertools.product((0, 1), repeat=scheme.m):
            shares = evaluate_shares(scheme, s, bits)
            rows.append(tuple(shares[i - 1] for i in members))
        out.append(tuple(sorted(rows)))
    return out[0], out[1]


def reference_search(n: int, k: int, m_max: int, prune: bool) -> SearchReport:
    """Per-candidate depth-first search: the oracle for the bitmask search.

    Every node rebuilds its constraints as sets from all subsets of the
    assigned shares and tests each candidate for membership, in order.
    """
    counts = dict.fromkeys(("assignments", "schemes", "small", "large"), 0)

    def search(m: int):
        secret_vec = 1 << m
        assigned: list[int] = []

        def cosets(size: int) -> list[set[int]]:
            out = []
            for combo in itertools.combinations(assigned, size):
                span = {0}
                for v in combo:
                    span |= {v ^ w for w in span}
                out.append({secret_vec ^ w for w in span})
            return out

        def dfs(depth: int):
            forbidden: set[int] = set()
            required = None
            if prune and k >= 2:
                forbidden = set().union(*cosets(min(depth, k - 2)))
            if prune and depth >= k - 1:
                required = set.intersection(*cosets(k - 1))
            for x in range(1 << (m + 1)):
                counts["assignments"] += 1
                if x in forbidden:
                    counts["small"] += 1
                    continue
                if required is not None and x not in required:
                    counts["large"] += 1
                    continue
                assigned.append(x)
                witness = None
                if depth == n - 1:
                    counts["schemes"] += 1
                    vectors = tuple(
                        tuple((v >> (m - c)) & 1 for c in range(m + 1)) for v in assigned
                    )
                    scheme = LinearScheme(n=n, m=m, vectors=vectors)
                    if realizes_threshold(scheme, k):
                        witness = scheme
                else:
                    witness = dfs(depth + 1)
                assigned.pop()
                if witness is not None:
                    return witness
            return None

        return dfs(0)

    witness = None
    for m in range(m_max + 1):
        witness = search(m)
        if witness is not None:
            break
    return SearchReport(
        n=n,
        k=k,
        m_max=m_max,
        pruned=prune,
        found=witness is not None,
        witness=witness,
        assignments_tried=counts["assignments"],
        schemes_completed=counts["schemes"],
        pruned_small_qualified=counts["small"],
        pruned_large_unqualified=counts["large"],
    )


ORACLE_CASES = [
    (n, k, m, prune)
    for n in (1, 2, 3, 4)
    for k in range(1, n + 1)
    for m in range(4)
    for prune in (True, False)
    if (2 ** (m + 1)) ** n <= 5000
] + [(5, k, m, True) for k in (2, 3) for m in range(4)]


class TestGF2:
    def test_rank(self):
        assert gf2_rank([0b101, 0b011, 0b110]) == 2
        assert gf2_rank([0b101, 0b011, 0b111]) == 3
        assert gf2_rank([0, 0]) == 0

    def test_in_span(self):
        assert gf2_in_span(0b110, [0b101, 0b011])
        assert not gf2_in_span(0b111, [0b101, 0b011])
        assert gf2_in_span(0, [])


class TestCheckBound:
    def test_three_of_five_with_bits_is_violated(self):
        report = check_bound(ThresholdParams(5, 3, (2, 2, 2, 2, 2)))
        assert report.average_share_size == 2
        assert report.required == 4
        assert not report.satisfied

    def test_large_alphabets_satisfy(self):
        report = check_bound(ThresholdParams(5, 3, (8, 8, 8, 8, 8)))
        assert report.satisfied

    def test_two_of_two_with_bits_is_satisfied(self):
        report = check_bound(ThresholdParams(2, 2, (2, 2)))
        assert report.average_share_size == 2
        assert report.required == 2
        assert report.satisfied

    def test_param_validation(self):
        with pytest.raises(ValueError, match="k <= n"):
            ThresholdParams(3, 4, (2, 2, 2))
        with pytest.raises(ValueError, match="share sizes"):
            ThresholdParams(3, 2, (2, 2))
        with pytest.raises(ValueError, match=">= 2"):
            ThresholdParams(2, 2, (2, 1))


class TestLinearScheme:
    def test_vector_validation(self):
        with pytest.raises(ValueError, match="vectors"):
            LinearScheme(n=2, m=1, vectors=((1, 1),))
        with pytest.raises(ValueError, match="GF\\(2\\)"):
            LinearScheme(n=1, m=1, vectors=((1, 2),))

    def test_xor_scheme_reconstructs_analytically(self):
        for s in (0, 1):
            for r in ((0,), (1,)):
                share1, share2 = evaluate_shares(XOR_SCHEME, s, r)
                assert share1 ^ share2 == s


class TestSubsetStatus:
    def test_xor_pair_is_qualified(self):
        assert scheme_subset_status(XOR_SCHEME, (1, 2)) is SubsetStatus.QUALIFIED

    def test_xor_singleton_is_unqualified(self):
        assert scheme_subset_status(XOR_SCHEME, (1,)) is SubsetStatus.UNQUALIFIED
        assert scheme_subset_status(XOR_SCHEME, (2,)) is SubsetStatus.UNQUALIFIED

    def test_zero_vectors_are_unqualified(self):
        scheme = LinearScheme(n=3, m=2, vectors=((0, 0, 0), (0, 0, 0), (1, 1, 0)))
        assert scheme_subset_status(scheme, (1, 2)) is SubsetStatus.UNQUALIFIED

    def test_out_of_range_member(self):
        with pytest.raises(ValueError, match="1..2"):
            scheme_subset_status(XOR_SCHEME, (1, 3))

    @pytest.mark.parametrize("n, m", [(2, 0), (3, 2), (4, 3)])
    def test_status_matches_distribution_oracle(self, n, m):
        import numpy as np

        rng = np.random.default_rng(73)
        for _ in range(25):
            scheme = random_scheme(rng, n=n, m=m)
            for size in range(n + 1):
                for members in itertools.combinations(range(1, n + 1), size):
                    dist0, dist1 = share_distributions(scheme, members)
                    status = scheme_subset_status(scheme, members)
                    if status is SubsetStatus.UNQUALIFIED:
                        assert dist0 == dist1
                    else:
                        assert not set(dist0) & set(dist1)

    def test_monotone_under_supersets(self):
        import numpy as np

        rng = np.random.default_rng(79)
        for _ in range(25):
            scheme = random_scheme(rng, n=4, m=3)
            qualified = {
                members
                for size in (1, 2, 3, 4)
                for members in itertools.combinations((1, 2, 3, 4), size)
                if scheme_subset_status(scheme, members) is SubsetStatus.QUALIFIED
            }
            for members in qualified:
                for extra in set((1, 2, 3, 4)) - set(members):
                    superset = tuple(sorted(members + (extra,)))
                    assert superset in qualified

    @pytest.mark.parametrize("n, m", [(2, 1), (3, 2)])
    def test_realizes_threshold_matches_distribution_oracle(self, n, m):
        # Every scheme of this shape, so thresholds that hold occur too.
        realized = 0
        for flat in itertools.product((0, 1), repeat=n * (1 + m)):
            vectors = tuple(tuple(flat[i * (1 + m) : (i + 1) * (1 + m)]) for i in range(n))
            scheme = LinearScheme(n=n, m=m, vectors=vectors)
            qualified = {
                members: len(set(share_distributions(scheme, members))) == 2
                for size in range(1, n + 1)
                for members in itertools.combinations(range(1, n + 1), size)
            }
            for k in range(1, n + 1):
                expected = all(q == (len(members) >= k) for members, q in qualified.items())
                assert realizes_threshold(scheme, k) == expected
                realized += expected
        assert realized > 0


class TestSearch:
    def test_positive_control_finds_xor_witness(self):
        report = search_linear_schemes(2, 2, 2)
        assert report.found
        assert report.witness is not None
        assert report.witness.vectors == ((0, 1), (1, 1))
        assert realizes_threshold(report.witness, 2)
        assert report.assignments_tried > 0

    def test_three_of_three_exists(self):
        report = search_linear_schemes(3, 3, 3)
        assert report.found
        assert realizes_threshold(report.witness, 3)

    def test_no_randomness_enumerates_eight_schemes(self):
        report = search_linear_schemes(3, 2, 0, prune=False)
        assert not report.found
        assert report.schemes_completed == 8
        assert report.witness is None

    def test_pruned_and_unpruned_agree(self):
        for n, k, m_max in ((3, 2, 2), (2, 2, 2)):
            pruned = search_linear_schemes(n, k, m_max, prune=True)
            unpruned = search_linear_schemes(n, k, m_max, prune=False)
            assert pruned.found == unpruned.found
            assert pruned.witness == unpruned.witness

    def test_unpruned_has_no_pruning_counters(self):
        report = search_linear_schemes(2, 2, 1, prune=False)
        assert report.pruned_small_qualified == 0
        assert report.pruned_large_unqualified == 0

    def test_found_witness_implies_bound_satisfied(self):
        for n in (2, 3):
            for k in range(2, n + 1):
                report = search_linear_schemes(n, k, 2)
                if report.found:
                    bound = check_bound(ThresholdParams(n, k, tuple([2] * n)))
                    assert bound.satisfied, (n, k)

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="n must be"):
            search_linear_schemes(6, 3, 5)
        with pytest.raises(ValueError, match="m_max"):
            search_linear_schemes(5, 3, 6)
        with pytest.raises(ValueError, match="k="):
            search_linear_schemes(3, 4, 2)

    @pytest.mark.parametrize(
        "n, k, m_max, prune, expected",
        [
            (3, 1, 2, True, (True, ((1,), (1,), (1,)), 6, 1, 0, 3)),
            (3, 1, 2, False, (True, ((1,), (1,), (1,)), 14, 8, 0, 0)),
            (4, 2, 3, True, (False, None, 620, 0, 52, 520)),
            (3, 2, 2, False, (False, None, 682, 584, 0, 0)),
            (4, 4, 2, True, (False, None, 2208, 0, 956, 963)),
            # A witness ends the loop early: only candidates up to it count.
            (
                4, 4, 4, True,
                (True, ((0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 1, 1, 1)), 6410, 1, 1874, 3982),
            ),
            (3, 3, 2, False, (True, ((0, 0, 1), (0, 1, 0), (1, 1, 1)), 199, 160, 0, 0)),
            (2, 2, 2, True, (True, ((0, 1), (1, 1)), 14, 1, 4, 6)),
            # The paper's case: no linear (3,5) scheme with 1-bit shares.
            (5, 3, 5, True, (False, None, 556890, 0, 34194, 512724)),
        ],
    )
    def test_report_fields_are_pinned(self, n, k, m_max, prune, expected):
        report = search_linear_schemes(n, k, m_max, prune=prune)
        witness = report.witness.vectors if report.witness is not None else None
        assert (
            report.found,
            witness,
            report.assignments_tried,
            report.schemes_completed,
            report.pruned_small_qualified,
            report.pruned_large_unqualified,
        ) == expected

    def test_report_is_deterministic(self):
        first = search_linear_schemes(3, 2, 1)
        second = search_linear_schemes(3, 2, 1)
        assert first == second

    @pytest.mark.parametrize("n, k, m_max, prune", ORACLE_CASES)
    def test_matches_per_candidate_oracle(self, n, k, m_max, prune):
        assert search_linear_schemes(n, k, m_max, prune=prune) == reference_search(
            n, k, m_max, prune
        )

    def test_inconsistent_pruned_leaf_raises(self, monkeypatch, capsys):
        monkeypatch.setattr(classical_bound, "_threshold_rows", lambda rows, m, k: False)
        with pytest.raises(RuntimeError, match="inconsistent leaf"):
            search_linear_schemes(2, 2, 2)
        assert cli.main(["search-classical", "--n", "2", "--k", "2", "--max-rand", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("verification failure:")
        assert captured.err.count("\n") == 1
