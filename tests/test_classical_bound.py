"""Tests for the classical share-size bound and the linear-scheme search.

The subset status the search decides, the secret functional in the GF(2)
span of the subset's rows, is validated against a semantic oracle: for
small schemes we enumerate every (secret, randomness) pair and compare
the actual share distributions, which must be identical (Unqualified) or
disjoint (Qualified). ``TestDualCertificate`` checks, with exact
arithmetic and no numpy, the dual certificate that no classical (3,5)
scheme with 1-bit shares exists, linear or not.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qsslab import classical_bound, cli
from qsslab.classical_bound import (
    LinearScheme,
    SearchReport,
    _extend_index,
    _key_pair,
    _threshold_rows,
    search_linear_schemes,
    share_size_bound,
)

from cli_contract import check_exit
from gf2_oracle import gf2_in_span, gf2_rank

XOR_SCHEME = LinearScheme(n=2, m=1, vectors=((1, 1), (0, 1)))


def random_scheme(rng, n: int, m: int) -> LinearScheme:
    vectors = tuple(
        tuple(int(rng.integers(2)) for _ in range(1 + m)) for _ in range(n)
    )
    return LinearScheme(n=n, m=m, vectors=vectors)


def rows(scheme: LinearScheme) -> list[int]:
    """Each share vector (a | b_1..b_m) as a bitmask int with a as the top bit."""
    return [sum(bit << (scheme.m - c) for c, bit in enumerate(vec)) for vec in scheme.vectors]


def is_qualified(scheme: LinearScheme, members) -> bool:
    """Whether the secret functional (1 | 0) lies in the span of the members' rows."""
    share_rows = rows(scheme)
    return gf2_in_span(1 << scheme.m, [share_rows[i - 1] for i in members])


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
                    if _threshold_rows(assigned, m, k):
                        vectors = tuple(
                            tuple((v >> (m - c)) & 1 for c in range(m + 1)) for v in assigned
                        )
                        witness = LinearScheme(n=n, m=m, vectors=vectors)
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
] + [(5, k, m, True) for k in (2, 3) for m in range(4)] + [
    (5, k, m, True) for k in (1, 4, 5) for m in range(3)
] + [(5, 4, 3, True)]


class TestGF2:
    def test_rank(self):
        assert gf2_rank([0b101, 0b011, 0b110]) == 2
        assert gf2_rank([0b101, 0b011, 0b111]) == 3
        assert gf2_rank([0, 0]) == 0

    def test_in_span(self):
        assert gf2_in_span(0b110, [0b101, 0b011])
        assert not gf2_in_span(0b111, [0b101, 0b011])
        assert gf2_in_span(0, [])


class TestShareSizeBound:
    def test_three_of_five_needs_more_than_bits(self):
        assert share_size_bound(5, 3) == 4

    def test_two_of_two_needs_bits(self):
        assert share_size_bound(2, 2) == 2

    def test_rejects_k_above_n(self):
        with pytest.raises(ValueError, match="k <= n"):
            share_size_bound(3, 4)


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
        assert is_qualified(XOR_SCHEME, (1, 2))

    def test_xor_singleton_is_unqualified(self):
        assert not is_qualified(XOR_SCHEME, (1,))
        assert not is_qualified(XOR_SCHEME, (2,))

    def test_zero_vectors_are_unqualified(self):
        scheme = LinearScheme(n=3, m=2, vectors=((0, 0, 0), (0, 0, 0), (1, 1, 0)))
        assert not is_qualified(scheme, (1, 2))

    @pytest.mark.parametrize("n, m", [(2, 0), (3, 2), (4, 3)])
    def test_status_matches_distribution_oracle(self, n, m):
        import numpy as np

        rng = np.random.default_rng(73)
        for _ in range(25):
            scheme = random_scheme(rng, n=n, m=m)
            for size in range(n + 1):
                for members in itertools.combinations(range(1, n + 1), size):
                    dist0, dist1 = share_distributions(scheme, members)
                    if not is_qualified(scheme, members):
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
                if is_qualified(scheme, members)
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
                assert _threshold_rows(rows(scheme), m, k) == expected
                realized += expected
        assert realized > 0


class TestSearch:
    def test_orbit_memo_is_read(self, monkeypatch):
        # The index grows once per memo miss above the leaves. With the memo
        # never read, this unpruned search grows it 5,050 times, and the
        # unpruned n = 5 searches of TestMatroidVerdict take minutes.
        calls = []
        extend = classical_bound._extend_index
        monkeypatch.setattr(classical_bound, "_extend_index", lambda *args: calls.append(args) or extend(*args))
        assert not search_linear_schemes(4, 3, 3, prune=False).found
        assert len(calls) == 192

    def test_positive_control_finds_xor_witness(self):
        report = search_linear_schemes(2, 2, 2)
        assert report.found
        assert report.witness is not None
        assert report.witness.vectors == ((0, 1), (1, 1))
        assert _threshold_rows(rows(report.witness), report.witness.m, 2)
        assert report.assignments_tried > 0

    def test_three_of_three_exists(self):
        report = search_linear_schemes(3, 3, 3)
        assert report.found
        assert _threshold_rows(rows(report.witness), report.witness.m, 3)

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
                    assert 2 >= share_size_bound(n, k), (n, k)

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
            (
                5, 5, 5, True,
                (
                    True,
                    ((0, 0, 0, 0, 1), (0, 0, 0, 1, 0), (0, 0, 1, 0, 0), (0, 1, 0, 0, 0), (1, 1, 1, 1, 1)),
                    1406201, 1, 408319, 938441,
                ),
            ),
            (5, 4, 5, True, (False, None, 30198720, 0, 4291428, 25408356)),
            (5, 3, 3, False, (False, None, 1157354, 1082400, 0, 0)),
            (4, 2, 5, False, (False, None, 18200874, 17895696, 0, 0)),
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
        code = cli.main(["search-classical", "--n", "2", "--k", "2", "--max-rand", "2"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert check_exit(code, captured.out, captured.err).startswith("verification failure: ")


class TestMatroidVerdict:
    """The search verdict on every input it accepts, from matroid theory.

    An ideal GF(2)-linear (k, n) threshold scheme is a binary representation
    of the uniform matroid U_{k,n+1} (Brickell & Davenport, J. Cryptology
    1991), which is binary only for k = 1 or k = n, since U_{2,4} is the
    excluded minor (Tutte 1958). A (k, k) scheme needs k - 1 random bits.
    """

    @pytest.mark.parametrize("n, k", [(n, k) for n in range(1, 6) for k in range(1, n + 1)])
    def test_found_iff_uniform_matroid_is_binary(self, n, k):
        for m_max, prune in itertools.product(range(6), (True, False)):
            report = search_linear_schemes(n, k, m_max, prune=prune)
            assert report.found == (k == 1 or (k == n and m_max >= n - 1)), (m_max, prune)
            if report.found:
                assert report.witness.m == k - 1, (m_max, prune)


def orbit_key(vectors, secret_vec: int) -> tuple[int, ...]:
    """The search's memo key of a share tuple, built share by share as its DFS does."""
    index, key = {0: 1}, ()
    for depth, x in enumerate(vectors):
        key += _key_pair(index, x, secret_vec)
        index = _extend_index(index, x, depth)
    return key


def maps_fixing_secret(m: int) -> list[list[int]]:
    """Every invertible linear map of GF(2)^(m+1) fixing 1 << m, as a table of images."""
    dim = m + 1
    maps = []
    for images in itertools.product(range(1 << dim), repeat=dim):
        if images[m] != 1 << m or gf2_rank(images) < dim:
            continue
        table = [0] * (1 << dim)
        for v in range(1 << dim):
            for j in range(dim):
                if v >> j & 1:
                    table[v] ^= images[j]
        maps.append(table)
    return maps


class TestOrbitKey:
    @pytest.mark.parametrize("m, size", [(0, 1), (1, 2), (2, 24)])
    def test_maps_fixing_secret_are_the_stabilizer(self, m, size):
        # |GL(m+1, 2)| divided by the 2^(m+1) - 1 nonzero vectors it permutes.
        assert len(maps_fixing_secret(m)) == size

    @pytest.mark.parametrize("m", [0, 1, 2])
    @pytest.mark.parametrize("length", [1, 2, 3])
    def test_equal_keys_are_exactly_one_orbit(self, m, length):
        maps = maps_fixing_secret(m)
        pairs = {
            (orbit_key(t, 1 << m), min(tuple(g[v] for v in t) for g in maps))
            for t in itertools.product(range(1 << (m + 1)), repeat=length)
        }
        keys = {key for key, _ in pairs}
        orbits = {orbit for _, orbit in pairs}
        # A bijection between keys and orbits: equal keys <=> same orbit.
        assert len(keys) == len(orbits) == len(pairs)


#: Roots of the dual witness q(t) = (t - r1)(t - r2) for the (3,5) threshold.
WITNESS_ROOTS = (3, 4)


def witness(t: int) -> int:
    return (t - WITNESS_ROOTS[0]) * (t - WITNESS_ROOTS[1])


def walsh(f, u: int):
    """Walsh coefficient of a function on 5-bit share vectors at u."""
    return sum((-1) ** (u & x).bit_count() * f(x) for x in range(32))


def low_degree_walsh_vanishes(f) -> bool:
    """Whether f has no Walsh weight on degree <= 2: every 2-share marginal agrees."""
    return all(walsh(f, u) == 0 for u in range(32) if u.bit_count() <= 2)


def cross_distance_at_least_3(p0: dict, p1: dict) -> bool:
    """Whether every 3 shares tell the supports apart: no two points agree on 3 bits."""
    return all((a ^ b).bit_count() >= 3 for a in p0 for b in p1)


def distribution(weights: dict) -> dict:
    total = sum(weights.values())
    return {x: Fraction(w, total) for x, w in weights.items()}


class TestDualCertificate:
    """No classical (3,5) scheme with 1-bit shares exists, for any randomness.

    Let p0, p1 be the share distributions for s = 0, 1. Secrecy of every
    pair makes the Walsh coefficients of p0 - p1 of degree <= 2 vanish;
    recovery from every triple puts the supports at cross-distance >= 3.
    For c in supp p0, f(x) = q(d(x, c)) with q(t) = (t - 3)(t - 4) has
    degree 2, so <p0 - p1, f> = 0; q >= 0 on 0..5 and q(3) = q(4) = 0 give
    12 p0(c) <= 2 p1(c^31), and from c^31: 12 p1(c^31) <= 2 p0(c), so
    p0(c) = 0, a contradiction (Delsarte-style LP duality).
    """

    def test_witness_has_degree_two_at_every_centre(self):
        for c in range(32):
            f = lambda x, c=c: witness((x ^ c).bit_count())  # noqa: E731
            degrees = {u.bit_count() for u in range(32) if walsh(f, u) != 0}
            assert max(degrees) == 2, c

    def test_witness_sign_pattern(self):
        values = [witness(t) for t in range(6)]
        assert values == [12, 6, 2, 0, 0, 2]
        # What the argument uses: q >= 0 on 0..5, q vanishes at the
        # cross-distances 3 and 4, and q(0) > q(5).
        assert min(values) >= 0 and values[3] == values[4] == 0 and values[0] > values[5]

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_separated_supports_break_pair_secrecy(self, data):
        support0 = data.draw(st.sets(st.integers(0, 31), min_size=1, max_size=6))
        far = [b for b in range(32) if all((a ^ b).bit_count() >= 3 for a in support0)]
        assume(far)
        support1 = data.draw(st.sets(st.sampled_from(far), min_size=1))
        weight = st.integers(1, 20)
        p0 = distribution({x: data.draw(weight) for x in sorted(support0)})
        p1 = distribution({x: data.draw(weight) for x in sorted(support1)})
        assert cross_distance_at_least_3(p0, p1)
        diff = lambda x: p0.get(x, 0) - p1.get(x, 0)  # noqa: E731
        assert not low_degree_walsh_vanishes(diff)
        # The witness itself sees it, centred at c or at its complement.
        for c in support0:
            assert any(
                sum(diff(x) * witness((x ^ centre).bit_count()) for x in range(32)) != 0
                for centre in (c, c ^ 31)
            )

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 3).flatmap(
        lambda m: st.tuples(st.just(m), st.lists(st.integers(0, (2 << m) - 1), min_size=5, max_size=5))
    ))
    def test_linear_schemes_meet_the_certificate(self, case):
        # For a linear scheme the certificate's two hypotheses are exactly
        # the search's leaf test, which the certificate makes always false,
        # as the search's "none" for (5, 3) reports up to m = 5.
        m, share_rows = case
        weights: list[dict] = [{}, {}]
        for s in (0, 1):
            for r in range(1 << m):
                x = sum(((row >> m & s) ^ (row & r).bit_count()) % 2 << i for i, row in enumerate(share_rows))
                weights[s][x] = weights[s].get(x, 0) + 1
        p0, p1 = distribution(weights[0]), distribution(weights[1])
        secret_pairs = low_degree_walsh_vanishes(lambda x: p0.get(x, 0) - p1.get(x, 0))
        assert (secret_pairs and cross_distance_at_least_3(p0, p1)) == _threshold_rows(share_rows, m, 3)
        assert not _threshold_rows(share_rows, m, 3)

    def test_search_reports_none_for_three_of_five(self):
        assert not search_linear_schemes(5, 3, 5).found
