"""The five-qubit [[5,1,3]] code: code words, Pauli action, distance check.

The code is the stabilizer code of the cyclic shifts of XZZXI (Laflamme
et al. 1996; Gottesman, arXiv quant-ph/9705052). Its two code words are
derived from those generators and the logical operators ZZZZZ and XXXXX
by projection; each is 16 terms of +-1/4 in the computational basis.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .quantum_core import NORM_ATOL, VERDICT_ATOL, PureState

#: Generators of the stabilizer group: the cyclic shifts of XZZXI.
STABILIZERS = ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ")
#: Logical Z (fixes w0, negates w1) and logical X (maps w0 to w1).
LOGICAL_Z = "ZZZZZ"
LOGICAL_X = "XXXXX"


@functools.lru_cache(maxsize=2)
def encode_classical(s: int) -> PureState:
    """Five-qubit code word carrying the classical bit ``s``.

    w0 is |00000> projected by (1 + g)/2 for every stabilizer generator g
    and for the logical Z, then normalized; w1 = XXXXX w0. Every step is
    exact in binary, so the amplitudes are exactly +-1/4 or 0.
    """
    if s not in (0, 1):
        raise ValueError(f"secret bit must be 0 or 1, got {s!r}")
    if s == 1:
        return PureState(5, _pauli_action([LOGICAL_X], encode_classical(0).amplitudes)[0])
    word = np.zeros(32, dtype=complex)
    word[0] = 1.0
    for g in STABILIZERS + (LOGICAL_Z,):
        word = (word + _pauli_action([g], word)[0]) / 2
    return PureState(5, word / np.linalg.norm(word))


@dataclass(frozen=True)
class QubitSecret:
    """One-qubit secret alpha0|0> + alpha1|1>."""

    alpha0: complex
    alpha1: complex

    def __post_init__(self) -> None:
        if not np.isfinite([self.alpha0, self.alpha1]).all():
            raise ValueError(f"secret amplitudes must be finite: {self}")
        # Products, not float ** 2, which raises OverflowError past 1e154.
        norm_sq = abs(self.alpha0) * abs(self.alpha0) + abs(self.alpha1) * abs(self.alpha1)
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
