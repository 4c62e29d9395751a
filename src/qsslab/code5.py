"""The five-qubit [[5,1,3]] code: code words and encoding.

The code is the stabilizer code of the cyclic shifts of XZZXI (Laflamme
et al. 1996; Gottesman, arXiv quant-ph/9705052). Its two code words are
derived from those generators by projection and from the logical XXXXX,
in pure Python on their (x | z) ints; each is 16 terms of +-1/4 in the
computational basis.

The generators and the distance certificate live in the numpy-free
``symplectic`` module, which reads the generators rather than the words;
``verify_distance``, ``WeightCheck`` and ``DistanceReport`` are imported
here as part of the code's interface. numpy and ``quantum_core`` are
imported by the functions that compute with them, so importing this module
(and with it ``qsslab.verify_distance``) does not import numpy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .symplectic import LOGICAL_X, STABILIZERS, symplectic
from .symplectic import DistanceReport, WeightCheck, verify_distance  # noqa: F401
from .tolerances import NORM_ATOL

if TYPE_CHECKING:
    import numpy as np

    from .quantum_core import PureState


#: i^k for k = 0..3, exact (1j ** 2 is not exactly -1 in floating point).
_I_POWERS = (1, 1j, -1, -1j)


def _apply(p: int, word: list[complex]) -> list[complex]:
    # E|b> = i^{#Y} (-1)^{popcount(b & z)} |b ^ x> for E = (x | z), Y = iXZ,
    # where #Y = popcount(x & z); entry c of the result is read from b = c ^ x.
    x, z = p >> 5, p & 31
    phase = _I_POWERS[(x & z).bit_count() % 4]
    return [word[c ^ x] * (1 - 2 * (((c ^ x) & z).bit_count() & 1)) * phase for c in range(32)]


@functools.lru_cache(maxsize=2)
def encode_classical(s: int) -> PureState:
    """Five-qubit code word carrying the classical bit ``s``.

    w0 is |00000> projected by (1 + g)/2 for every stabilizer generator g,
    then normalized; w1 = XXXXX w0. |00000> is a +1 eigenvector of the
    logical Z = ZZZZZ, which commutes with every g, so w0 needs no
    projection by it. Every step is exact in binary, so the amplitudes are
    exactly +-1/4 or 0.
    """
    from .quantum_core import PureState

    if s not in (0, 1):
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

