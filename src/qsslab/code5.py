"""The five-qubit [[5,1,3]] code: generators, distance certificate, code words.

The code is the stabilizer code of the cyclic shifts of XZZXI (Laflamme
et al. 1996; Gottesman, arXiv quant-ph/9705052). Up to phase, a
five-qubit Pauli string is a 10-bit int (x | z): x marks its X and Y
positions and z its Z and Y positions, big-endian like the basis, with x
in the top five bits. A product of strings is the XOR of their ints, so
the normalizer N(S) of the stabilizer group S is the GF(2) span of the
four generators and the logical Z and X: 64 elements (Calderbank, Rains,
Shor & Sloane, arXiv quant-ph/9608006).

The distance certificate compares the code words w0 and w1 through
off = |<w0|E|w1>| and diagdiff = |<w0|E|w0> - <w1|E|w1>|. Both depend only
on the class of E:

  * E outside N(S) anticommutes with a generator g, which fixes both
    words, so <w|E|w'> = <w|E g|w'> = -<w|E|w'>: off 0, diagdiff 0;
  * E in S fixes both words with one phase: off 0, diagdiff 0;
  * E in Z̄·S fixes w0 and negates w1 up to one phase: off 0, diagdiff 2;
  * E in X̄·S or Ȳ·S maps w0 onto w1 up to phase: off 1, diagdiff 0.

The certificate therefore reads the generators, not the words: each
weight's tally visits only the elements of N(S) of that weight. The
class values are exact, so the certificate compares them with the fixed
VERDICT_ATOL and offers no tolerance to tune. The tests keep the dense
scan, every operator applied to both words, as the oracle.

The code words are derived from the generators by projection and from
the logical XXXXX, in pure Python on their (x | z) ints; each is 16 terms
of +-1/4 in the computational basis. numpy and ``quantum_core`` are
imported by the functions that compute with them, so importing this
module (and with it ``qsslab.verify_distance``) does not import numpy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .tolerances import NORM_ATOL, VERDICT_ATOL, checked_int

if TYPE_CHECKING:
    import numpy as np

    from .quantum_core import PureState

#: Generators of the stabilizer group: the cyclic shifts of XZZXI.
STABILIZERS = ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ")
#: Logical Z (fixes w0, negates w1) and logical X (maps w0 to w1).
LOGICAL_Z = "ZZZZZ"
LOGICAL_X = "XXXXX"

#: (letters, off, diagdiff) of one element of N(S).
_Element = tuple[str, float, float]


def symplectic(letters: str) -> int:
    """The (x | z) int of a five-letter Pauli string such as "XZZXI"."""
    x = z = 0
    for c in letters:
        x = x << 1 | (c in "XY")
        z = z << 1 | (c in "ZY")
    return x << 5 | z


def pauli_letters(p: int) -> str:
    """The five letters of the (x | z) int ``p``: the inverse of ``symplectic``."""
    return "".join("IXZY"[(p >> 5 + q & 1) + 2 * (p >> q & 1)] for q in range(4, -1, -1))


@functools.cache
def normalizer() -> tuple[tuple[_Element, ...], ...]:
    """The 64 elements of N(S) by weight 0..5, each weight in scan order."""
    group = [0]
    for g in map(symplectic, STABILIZERS):
        group += [g ^ s for s in group]
    z, x = symplectic(LOGICAL_Z), symplectic(LOGICAL_X)
    # The cosets S, Z̄·S, X̄·S and Ȳ·S with their (off, diagdiff).
    classes = ((0, 0.0, 0.0), (z, 0.0, 2.0), (x, 1.0, 0.0), (z ^ x, 1.0, 0.0))
    by_weight: list[list[_Element]] = [[] for _ in range(6)]
    for logical, off, diag_diff in classes:
        for s in group:
            letters = pauli_letters(logical ^ s)
            by_weight[5 - letters.count("I")].append((letters, off, diag_diff))
    return tuple(tuple(sorted(elements, key=_scan_order)) for elements in by_weight)


@functools.cache
def holds_logical_z(members: tuple[int, ...]) -> bool:
    """Whether some element of Z̄·S acts only on the shares ``members`` (1-based).

    Those are the elements of N(S) with diagdiff 2. Measuring one on J
    reads the secret bit of a code word, so J can reconstruct it; without
    one, rho0^J = rho1^J and J learns nothing.
    """
    return any(
        diag_diff == 2.0 and all(c == "I" or q in members for q, c in enumerate(letters, 1))
        for elements in normalizer()
        for letters, _, diag_diff in elements
    )


def _scan_order(element: _Element) -> tuple[list[bool], str]:
    # combinations(range(5), w) order of the supports: the support whose
    # first difference comes earlier sorts first, as False before True.
    # Then product("XYZ") order of the letters, which is alphabetical.
    letters = element[0]
    return [c == "I" for c in letters], letters


@dataclass(frozen=True)
class WeightCheck:
    """Worst-case error-operator matrix elements at one Pauli weight."""

    weight: int
    operators_checked: int
    max_off_diagonal: float
    max_diagonal_difference: float
    violations: int
    first_violation: Optional[str]


@dataclass(frozen=True)
class DistanceReport:
    """Outcome of the distance certificate over the weights 1..max_weight.

    An operator E violates the correctability conditions when
    |<w0|E|w1>| or |<w0|E|w0> - <w1|E|w1>| exceeds VERDICT_ATOL; the
    certified distance is the smallest weight where that happens.
    """

    max_weight: int
    checks: tuple[WeightCheck, ...]

    @property
    def certified_distance(self) -> Optional[int]:
        """Smallest weight with a violation, or None if none seen yet."""
        for check in self.checks:
            if check.violations:
                return check.weight
        return None


def verify_distance(max_weight: int) -> DistanceReport:
    """Certify every Pauli operator of weight 1..max_weight against the code.

    Weight w has C(5, w) 3^w operators, ordered as
    combinations(range(5), w) x product("XYZ"). The ones outside N(S)
    give off = diagdiff = 0, so the maxima, the violations and the first
    violation in that order come from the elements of N(S) of weight w,
    each with the values of its class.
    """
    max_weight = checked_int(max_weight, "max_weight")
    if not 1 <= max_weight <= 5:
        raise ValueError(f"max_weight must be in 1..5, got {max_weight}")
    table = normalizer()
    checks = []
    for weight in range(1, max_weight + 1):
        elements = table[weight]
        violating = [letters for letters, off, diag in elements if max(off, diag) > VERDICT_ATOL]
        checks.append(
            WeightCheck(
                weight=weight,
                operators_checked=math.comb(5, weight) * 3**weight,
                max_off_diagonal=max((off for _, off, _ in elements), default=0.0),
                max_diagonal_difference=max((diag for _, _, diag in elements), default=0.0),
                violations=len(violating),
                first_violation=violating[0] if violating else None,
            )
        )
    return DistanceReport(max_weight=max_weight, checks=tuple(checks))


def _apply(p: int, word: list[complex]) -> list[complex]:
    # E|b> = (-1)^{popcount(b & z)} |b ^ x> for E = (x | z) without a Y
    # (x & z == 0), as for the generators and XXXXX; a Y would add a phase
    # i^{popcount(x & z)}. Entry c of the result is read from b = c ^ x.
    x, z = p >> 5, p & 31
    return [word[c ^ x] * (1 - 2 * (((c ^ x) & z).bit_count() & 1)) for c in range(32)]


@functools.lru_cache(maxsize=2, typed=True)
def encode_classical(s: int) -> PureState:
    """Five-qubit code word carrying the classical bit ``s``.

    w0 is |00000> projected by (1 + g)/2 for every stabilizer generator g,
    then normalized; w1 = XXXXX w0. |00000> is a +1 eigenvector of the
    logical Z = ZZZZZ, which commutes with every g, so w0 needs no
    projection by it. Every step is exact in binary, so the amplitudes are
    exactly +-1/4 or 0. The cache is typed, so True or 1.0 never reads the
    entry of an equal integer and is refused as a non-integer.
    """
    from .quantum_core import PureState

    if checked_int(s, "secret bit") not in (0, 1):
        raise ValueError(f"secret bit must be 0 or 1, got {s!r}")
    word = [complex(b == 0) for b in range(32)]
    for g in STABILIZERS:
        word = [(a + b) / 2 for a, b in zip(word, _apply(symplectic(g), word))]
    norm = math.sqrt(sum(abs(a) ** 2 for a in word))
    word = [a / norm for a in word]
    return PureState(5, _apply(symplectic(LOGICAL_X), word) if s else word)


@dataclass(frozen=True)
class QubitSecret:
    """One-qubit secret alpha0|0> + alpha1|1>."""

    alpha0: complex
    alpha1: complex

    def __post_init__(self) -> None:
        import numpy as np

        if not np.isfinite([self.alpha0, self.alpha1]).all():
            raise ValueError(f"secret amplitudes must be finite: {self}")
        # Products, not float ** 2, which raises OverflowError past 1e154.
        norm_sq = abs(self.alpha0) * abs(self.alpha0) + abs(self.alpha1) * abs(self.alpha1)
        if not abs(norm_sq - 1.0) <= NORM_ATOL:
            raise ValueError(f"secret is not normalized: |alpha|^2 = {norm_sq!r}")

    def amplitudes(self) -> np.ndarray:
        import numpy as np

        return np.array([self.alpha0, self.alpha1], dtype=complex)


def encode_quantum(secret: QubitSecret) -> PureState:
    """Encode alpha0|0> + alpha1|1> into the five-qubit code space.

    Linearity plus the orthogonality of the code words guarantees the
    result is unit norm.
    """
    from .quantum_core import PureState

    amps = (
        secret.alpha0 * encode_classical(0).amplitudes
        + secret.alpha1 * encode_classical(1).amplitudes
    )
    return PureState(5, amps)
