"""The five-qubit [[5,1,3]] code: code words, encoding and Pauli action.

The code is the stabilizer code of the cyclic shifts of XZZXI (Laflamme
et al. 1996; Gottesman, arXiv quant-ph/9705052). Its two code words are
derived from those generators and the logical operators ZZZZZ and XXXXX
by projection; each is 16 terms of +-1/4 in the computational basis.

The generators and the distance certificate live in the numpy-free
``symplectic`` module, which reads the generators rather than the words;
``verify_distance``, ``WeightCheck`` and ``DistanceReport`` are imported
here as part of the code's interface. numpy and ``quantum_core`` are
imported by the functions that compute with them, so importing this module
(and with it ``qsslab.verify_distance``) does not import numpy.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .symplectic import (  # noqa: F401
    LOGICAL_X,
    LOGICAL_Z,
    STABILIZERS,
    DistanceReport,
    WeightCheck,
    symplectic,
    verify_distance,
)
from .tolerances import NORM_ATOL

if TYPE_CHECKING:
    import numpy as np

    from .quantum_core import PureState


@functools.lru_cache(maxsize=2)
def encode_classical(s: int) -> PureState:
    """Five-qubit code word carrying the classical bit ``s``.

    w0 is |00000> projected by (1 + g)/2 for every stabilizer generator g
    and for the logical Z, then normalized; w1 = XXXXX w0. Every step is
    exact in binary, so the amplitudes are exactly +-1/4 or 0.
    """
    import numpy as np

    from .quantum_core import PureState

    if s not in (0, 1):
        raise ValueError(f"secret bit must be 0 or 1, got {s!r}")
    if s == 1:
        return PureState(5, _pauli_action(np.array([symplectic(LOGICAL_X)]), encode_classical(0).amplitudes)[0])
    word = np.zeros(32, dtype=complex)
    word[0] = 1.0
    for g in STABILIZERS + (LOGICAL_Z,):
        word = (word + _pauli_action(np.array([symplectic(g)]), word)[0]) / 2
    return PureState(5, word / np.linalg.norm(word))


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


def _pauli_action(ops: np.ndarray, amplitudes: np.ndarray) -> np.ndarray:
    """E|psi> for every (x | z) int E in ``ops``, one row per operator.

    With Y = iXZ, every operator acts on a basis ket as
    E|b> = i^{#Y} (-1)^{popcount(b & z)} |b ^ x>, where #Y = popcount(x & z).
    """
    import numpy as np

    # i^k for k = 0..3, exact (1j ** 2 is not exactly -1 in floating point),
    # and the number of set bits of every index of a state of <= 5 qubits.
    i_powers = np.array([1, 1j, -1, -1j])
    popcount = np.array([b.bit_count() for b in range(32)], dtype=np.int8)
    x, z = ops >> 5, ops & 31
    # Row k, column c holds b = c ^ x_k, the basis ket E_k maps onto |c>.
    # Small integer types and in-place products keep the peak memory low.
    source = np.arange(amplitudes.size) ^ x[:, None]
    out = amplitudes[source]
    out *= 1 - 2 * (popcount[source & z[:, None]] & 1)
    out *= i_powers[popcount[x & z] % 4][:, None]
    return out
