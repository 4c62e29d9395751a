"""The five-qubit [[5,1,3]] code: code words, Pauli action, distance check.

The two code words are stored as explicit 16-term amplitude tables in the
computational basis (textbook sign convention, normalization 1/4). The
tables are the single source of truth for encoding; nothing here derives
them from stabilizer generators.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .quantum_core import NORM_ATOL, VERDICT_ATOL, PureState

#: (bit string, sign) terms of the code word for classical bit 0.
WORD_TERMS_0: tuple[tuple[str, int], ...] = (
    ("00000", +1), ("10010", +1), ("01001", +1), ("10100", +1),
    ("01010", +1), ("11011", -1), ("00110", -1), ("11000", -1),
    ("11101", -1), ("00011", -1), ("11110", -1), ("01111", -1),
    ("10001", -1), ("01100", -1), ("10111", -1), ("00101", +1),
)

#: (bit string, sign) terms of the code word for classical bit 1.
WORD_TERMS_1: tuple[tuple[str, int], ...] = (
    ("11111", +1), ("01101", +1), ("10110", +1), ("01011", +1),
    ("10101", +1), ("00100", -1), ("11001", -1), ("00111", -1),
    ("00010", -1), ("11100", -1), ("00001", -1), ("10000", -1),
    ("01110", -1), ("10011", -1), ("01000", -1), ("11010", +1),
)


@dataclass(frozen=True)
class CodeTable:
    """Amplitude tables of the two code words.

    Each table holds exactly 16 distinct 5-bit strings with signs, and the
    two supports are disjoint, which makes the code words orthogonal.
    """

    terms_0: tuple[tuple[str, int], ...] = WORD_TERMS_0
    terms_1: tuple[tuple[str, int], ...] = WORD_TERMS_1
    normalization: float = 0.25

    def __post_init__(self) -> None:
        for name, terms in (("terms_0", self.terms_0), ("terms_1", self.terms_1)):
            if len(terms) != 16:
                raise ValueError(f"{name} must have 16 terms, got {len(terms)}")
            for bits, sign in terms:
                if len(bits) != 5 or set(bits) - {"0", "1"}:
                    raise ValueError(f"bad bit string {bits!r} in {name}")
                if sign not in (-1, 1):
                    raise ValueError(f"bad sign {sign!r} in {name}")
            if len({bits for bits, _ in terms}) != 16:
                raise ValueError(f"duplicate bit strings in {name}")
        support_0 = {bits for bits, _ in self.terms_0}
        support_1 = {bits for bits, _ in self.terms_1}
        if support_0 & support_1:
            raise ValueError("code word supports must be disjoint")

    def amplitudes(self, s: int) -> np.ndarray:
        terms = self.terms_0 if s == 0 else self.terms_1
        amps = np.zeros(32, dtype=complex)
        for bits, sign in terms:
            amps[int(bits, 2)] = sign * self.normalization
        return amps


CODE_TABLE = CodeTable()


@functools.lru_cache(maxsize=2)
def encode_classical(s: int) -> PureState:
    """Five-qubit code word carrying the classical bit ``s``."""
    if s not in (0, 1):
        raise ValueError(f"secret bit must be 0 or 1, got {s!r}")
    return PureState(5, CODE_TABLE.amplitudes(s))


@dataclass(frozen=True)
class QubitSecret:
    """One-qubit secret alpha0|0> + alpha1|1>."""

    alpha0: complex
    alpha1: complex

    def __post_init__(self) -> None:
        if not np.isfinite([self.alpha0, self.alpha1]).all():
            raise ValueError(f"secret amplitudes must be finite: {self}")
        norm_sq = abs(self.alpha0) ** 2 + abs(self.alpha1) ** 2
        if abs(norm_sq - 1.0) > NORM_ATOL:
            raise ValueError(f"secret is not normalized: |alpha|^2 = {norm_sq!r}")

    def amplitudes(self) -> np.ndarray:
        return np.array([self.alpha0, self.alpha1], dtype=complex)


def encode_quantum(secret: QubitSecret) -> PureState:
    """Encode alpha0|0> + alpha1|1> into the five-qubit code space.

    Linearity plus the orthogonality of the code words guarantees the
    result is unit norm.
    """
    amps = (
        secret.alpha0 * encode_classical(0).amplitudes
        + secret.alpha1 * encode_classical(1).amplitudes
    )
    return PureState(5, amps)


@dataclass(frozen=True)
class PauliOperator:
    """Tensor product of single-qubit Paulis, e.g. "XIYZI"."""

    letters: str

    def __post_init__(self) -> None:
        if set(self.letters) - set("IXYZ"):
            raise ValueError(f"letters must be over IXYZ, got {self.letters!r}")

    @property
    def weight(self) -> int:
        return sum(1 for c in self.letters if c != "I")


#: i^k for k = 0..3, exact (1j ** 2 is not exactly -1 in floating point).
_I_POWERS = np.array([1, 1j, -1, -1j])
#: Parity of the set bits of every index of a state of at most five qubits.
_PARITY = np.array([bin(b).count("1") & 1 for b in range(32)], dtype=np.int8)


def _pauli_action(ops: Sequence[str], amplitudes: np.ndarray) -> np.ndarray:
    """E|psi> for every Pauli string E in ``ops``, one row per operator.

    A string is an x mask (its X and Y positions) and a z mask (its Z and
    Y positions), big-endian like the basis. With Y = iXZ, every operator
    acts on a basis ket as E|b> = i^{#Y} (-1)^{popcount(b & z)} |b ^ x>.
    """
    letters = np.array([list(op) for op in ops])
    place = 1 << np.arange(letters.shape[1])[::-1]
    is_y = letters == "Y"
    x = ((letters == "X") | is_y) @ place
    z = ((letters == "Z") | is_y) @ place
    # Row k, column c holds b = c ^ x_k, the basis ket E_k maps onto |c>.
    # Small integer types and in-place products keep the peak memory low.
    source = np.arange(amplitudes.size) ^ x[:, None]
    out = amplitudes[source]
    out *= 1 - 2 * _PARITY[source & z[:, None]]
    out *= _I_POWERS[is_y.sum(axis=1) % 4][:, None]
    return out


def apply_pauli(op: PauliOperator, psi: PureState) -> PureState:
    """Apply a Pauli string to a state (Y = iXZ convention).

    X flips the bit at its position, Z multiplies by (-1)^bit, and the
    norm is preserved exactly.
    """
    if len(op.letters) != psi.num_qubits:
        raise ValueError(
            f"operator acts on {len(op.letters)} qubits, state has {psi.num_qubits}"
        )
    return PureState(psi.num_qubits, _pauli_action([op.letters], psi.amplitudes)[0])


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
    """Outcome of the exhaustive error-operator scan up to max_weight.

    An operator E violates the correctability conditions when
    |<w0|E|w1>| or |<w0|E|w0> - <w1|E|w1>| exceeds the tolerance; the
    certified distance is the smallest weight where that happens.
    """

    max_weight: int
    tolerance: float
    checks: tuple[WeightCheck, ...]

    @property
    def certified_distance(self) -> Optional[int]:
        """Smallest weight with a violation, or None if none seen yet."""
        for check in self.checks:
            if check.violations:
                return check.weight
        return None

    def passes_through_weight(self, weight: int) -> bool:
        """True when every operator of weight <= ``weight`` is clean."""
        return all(c.violations == 0 for c in self.checks if c.weight <= weight)


def verify_distance(max_weight: int, tolerance: float = VERDICT_ATOL) -> DistanceReport:
    """Scan all Pauli operators of weight 1..max_weight against the code.

    For each operator E this compares the two code words through
    off = <w0|E|w1> and diagdiff = <w0|E|w0> - <w1|E|w1>; both must
    vanish for correctable errors.
    """
    if not 1 <= max_weight <= 5:
        raise ValueError(f"max_weight must be in 1..5, got {max_weight}")
    if not (np.isfinite(tolerance) and tolerance >= 0):
        raise ValueError(f"tolerance must be finite and nonnegative, got {tolerance!r}")
    w0 = encode_classical(0).amplitudes
    w1 = encode_classical(1).amplitudes
    checks = []
    for weight in range(1, max_weight + 1):
        ops = [
            "".join(dict(zip(positions, letters)).get(q, "I") for q in range(5))
            for positions in itertools.combinations(range(5), weight)
            for letters in itertools.product("XYZ", repeat=weight)
        ]
        e_w0 = _pauli_action(ops, w0)
        e_w1 = _pauli_action(ops, w1)
        off = np.abs(e_w1 @ w0.conj())
        diag_diff = np.abs(e_w0 @ w0.conj() - e_w1 @ w1.conj())
        violating = np.flatnonzero((off > tolerance) | (diag_diff > tolerance))
        checks.append(
            WeightCheck(
                weight=weight,
                operators_checked=len(ops),
                max_off_diagonal=float(off.max()),
                max_diagonal_difference=float(diag_diff.max()),
                violations=violating.size,
                first_violation=ops[violating[0]] if violating.size else None,
            )
        )
    return DistanceReport(max_weight=max_weight, tolerance=tolerance, checks=tuple(checks))
