"""Symplectic certificates of the five-qubit code against the dense computation.

Up to phase, a Pauli string is a 10-bit int (x | z): x marks its X and Y
positions, z its Z and Y positions, big-endian like the basis (qubit 1 is
the top bit of each half). Two strings commute exactly when the symplectic
product popcount(x1 & z2 ^ z1 & x2) is even, and a product of strings is
the XOR of their ints, so membership of a group generated by strings is
GF(2) span membership (Gottesman, arXiv quant-ph/9705052). The closed-form
counts below are checked against the distance certificate, the access report
(Cleve, Gottesman & Lo, arXiv quant-ph/9901025) and the reduced entropies.
"""

import itertools

import pytest

from qsslab import (
    access_structure_report,
    all_nonempty_subsets,
    encode_classical,
    reduced_state,
    verify_distance,
    von_neumann_entropy,
)
from qsslab.access_analysis import Classification
from qsslab.code5 import holds_logical_z

from gf2_oracle import gf2_in_span, gf2_rank


def symplectic(letters: str) -> int:
    x = z = 0
    for c in letters:
        x = x << 1 | (c in "XY")
        z = z << 1 | (c in "ZY")
    return x << 5 | z


def commute(p: int, q: int) -> bool:
    return ((p >> 5 & q) ^ (p & q >> 5)).bit_count() % 2 == 0


def support(p: int) -> int:
    """Bitmask of the qubits where ``p`` is not the identity."""
    return (p >> 5 | p) & 0b11111


def qubits(members) -> int:
    return sum(1 << (5 - i) for i in members)


def group(generators) -> list[int]:
    """Every element of the group generated by independent ``generators``."""
    elements = [0]
    for g in generators:
        elements += [g ^ e for e in elements]
    return elements


STABILIZERS = [symplectic(g) for g in ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ")]
LOGICAL_Z = symplectic("ZZZZZ")
LOGICAL_X = symplectic("XXXXX")


def test_generators_and_logicals_are_consistent():
    assert gf2_rank(STABILIZERS + [LOGICAL_Z]) == 5
    assert all(commute(g, h) for g, h in itertools.combinations(STABILIZERS, 2))
    for logical in (LOGICAL_Z, LOGICAL_X):
        assert all(commute(logical, g) for g in STABILIZERS)
    assert not commute(LOGICAL_Z, LOGICAL_X)


def test_logical_operators_are_the_distance_scan_violations():
    # N(S) \ S: strings that commute with every generator, outside the group.
    logical = [
        p
        for p in range(1, 1 << 10)
        if all(commute(p, g) for g in STABILIZERS) and not gf2_in_span(p, STABILIZERS)
    ]
    assert len(logical) == 64 - 16
    by_weight = [sum(support(p).bit_count() == w for p in logical) for w in range(1, 6)]
    assert by_weight == [0, 0, 30, 0, 18]
    assert by_weight == [c.violations for c in verify_distance(5).checks]


def logical_z_readers() -> set[tuple[int, ...]]:
    """The subsets on which some element of Z̄·S acts."""
    return {
        members
        for members in all_nonempty_subsets(5)
        if any(support(LOGICAL_Z ^ s) & ~qubits(members) == 0 for s in group(STABILIZERS))
    }


def test_qualified_sets_hold_a_logical_z():
    readers = logical_z_readers()
    qualified = {
        v.subset
        for v in access_structure_report().verdicts
        if v.classification is Classification.QUALIFIED
    }
    assert qualified == readers
    assert readers == {members for members in all_nonempty_subsets(5) if len(members) >= 3}


def test_logical_z_predicate_matches_the_readers():
    subsets = all_nonempty_subsets(5)
    holders = {members for members in subsets if holds_logical_z(members)}
    assert holders == logical_z_readers()
    assert holders == {members for members in subsets if len(members) >= 3}


def local_rank(members) -> int:
    """GF(2) rank of the elements of <S, Z> supported on ``members``."""
    outside = ~qubits(members)
    return gf2_rank(
        p for p in group(STABILIZERS + [LOGICAL_Z]) if support(p) & outside == 0
    )


def test_local_ranks_depend_only_on_size():
    ranks = {(len(members), local_rank(members)) for members in all_nonempty_subsets(5)}
    assert ranks == {(1, 0), (2, 0), (3, 1), (4, 3), (5, 5)}


@pytest.mark.parametrize("s", [0, 1])
def test_reduced_entropies_match_local_ranks(s):
    # Both words are stabilizer states, of <S, Z> and of <S, -Z>, so every
    # reduced state is flat with entropy |J| - r_J bits.
    word = encode_classical(s)
    for members in all_nonempty_subsets(5):
        entropy = von_neumann_entropy(reduced_state(word, members))
        assert abs(entropy - (len(members) - local_rank(members))) <= 1e-12
