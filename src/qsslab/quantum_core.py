"""Exact dense linear algebra for few-qubit states.

Everything works on explicit complex vectors and matrices of dimension at
most 32, so the routines favor accuracy and transparency over speed.

Conventions:
  * Qubits are numbered 1..n, counting from the left of the ket
    |b1 b2 ... bn>; participant i holds qubit i.
  * Basis indices are big-endian: qubit 1 is the most significant bit.
  * Entropies are in bits (log base 2).

All values are immutable; the wrapped numpy arrays are marked read-only,
so states and matrices can be shared freely across threads.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

#: Unit-norm / unit-trace / Hermitian tolerance for exact inputs and priors.
NORM_ATOL = 1e-12
#: Allowed deviation of |psi|^2 from 1; the amplitudes are then rescaled.
STATE_NORM_ATOL = 1e-9
#: Eigenvalues above this count as support; below -PSD_ATOL is an error.
PSD_ATOL = 1e-10
#: Hermiticity tolerance accepted by the eigensolver.
HERMITIAN_ATOL = 1e-10
#: Eigenvalues (and prior probabilities) below this add nothing to entropy.
ENTROPY_EIGENVALUE_FLOOR = 1e-12
#: Deviation a verdict allows: subset classification and the distance scan.
VERDICT_ATOL = 1e-9


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class PureState:
    """Normalized pure state of ``num_qubits`` qubits (1 <= n <= 5)."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if not 1 <= self.num_qubits <= 5:
            raise ValueError(f"num_qubits must be in 1..5, got {self.num_qubits}")
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1).copy()
        if amps.size != 2**self.num_qubits:
            raise ValueError(
                f"expected {2**self.num_qubits} amplitudes, got {amps.size}"
            )
        if not np.isfinite(amps).all():
            raise ValueError("amplitudes must be finite")
        norm_sq = float(np.real(np.vdot(amps, amps)))
        if abs(norm_sq - 1.0) > STATE_NORM_ATOL:
            raise ValueError(f"state is not normalized: |psi|^2 = {norm_sq!r}")
        # Absorb rounding noise so downstream invariants hold to 1e-12.
        amps /= math.sqrt(norm_sq)
        object.__setattr__(self, "amplitudes", _readonly(amps))

    @property
    def dim(self) -> int:
        return 2**self.num_qubits

    def density(self) -> "DensityMatrix":
        """Rank-1 projector |psi><psi|."""
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()))

    def overlap(self, other: "PureState") -> complex:
        """Inner product <self|other>."""
        if self.num_qubits != other.num_qubits:
            raise ValueError("qubit count mismatch")
        return complex(np.vdot(self.amplitudes, other.amplitudes))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive semidefinite, unit-trace matrix on qubits.

    Validation runs the eigensolver once; the spectrum and eigenbasis are
    kept on the instance so entropy and support projections are free.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex).copy()
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"matrix must be square, got shape {m.shape}")
        dim = m.shape[0]
        if dim & (dim - 1) or dim == 0:
            raise ValueError(f"dimension must be a power of 2, got {dim}")
        if np.max(np.abs(m - m.conj().T)) > NORM_ATOL:
            raise ValueError("matrix is not Hermitian within 1e-12")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > NORM_ATOL:
            raise ValueError(f"trace must be 1, got {tr!r}")
        values, vectors = hermitian_eig(m)
        if values[-1] < -PSD_ATOL:
            raise ValueError(f"matrix is not PSD: min eigenvalue {values[-1]!r}")
        object.__setattr__(self, "matrix", _readonly(m))
        object.__setattr__(self, "_eigenvalues", _readonly(values))
        object.__setattr__(self, "_eigenvectors", _readonly(vectors))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def eigenvalues(self) -> np.ndarray:
        """Real spectrum in descending order."""
        return self._eigenvalues  # type: ignore[attr-defined]

    @property
    def eigenvectors(self) -> np.ndarray:
        """Orthonormal eigenvectors, column k matching eigenvalues[k]."""
        return self._eigenvectors  # type: ignore[attr-defined]

    def support_projector(self) -> np.ndarray:
        """Projector onto the span of eigenvectors with eigenvalue > PSD_ATOL."""
        keep = self.eigenvalues > PSD_ATOL
        v = self.eigenvectors[:, keep]
        return v @ v.conj().T


def share_subset(members: Iterable[int], num_qubits: int = 5) -> tuple[int, ...]:
    """Validate and canonicalize a subset of participant indices.

    Returns the members as a sorted tuple. Empty sets, duplicates and
    out-of-range indices are rejected.
    """
    subset = tuple(sorted(members))
    if not subset:
        raise ValueError("share subset must be nonempty")
    if len(set(subset)) != len(subset):
        raise ValueError(f"duplicate members in {subset}")
    if subset[0] < 1 or subset[-1] > num_qubits:
        raise ValueError(f"members must lie in 1..{num_qubits}, got {subset}")
    return subset


def all_nonempty_subsets(num_qubits: int = 5) -> list[tuple[int, ...]]:
    """All nonempty subsets of {1..num_qubits}, ordered by (size, members)."""
    participants = range(1, num_qubits + 1)
    return [
        combo
        for size in range(1, num_qubits + 1)
        for combo in itertools.combinations(participants, size)
    ]


def share_block(psi: PureState, keep: Iterable[int]) -> np.ndarray:
    """The amplitudes of |psi> as a (kept qubits) x (other qubits) matrix.

    Rows and columns are both indexed big-endian over their qubits in
    ascending order of the original labels.
    """
    members = share_subset(keep, psi.num_qubits)
    others = tuple(q for q in range(1, psi.num_qubits + 1) if q not in members)
    tensor = psi.amplitudes.reshape([2] * psi.num_qubits)
    return tensor.transpose([q - 1 for q in members + others]).reshape(2 ** len(members), -1)


def reduced_state(psi: PureState, keep: Iterable[int]) -> DensityMatrix:
    """Partial trace of |psi><psi| onto the qubits in ``keep``, as share_block orders them."""
    block = share_block(psi, keep)
    return DensityMatrix(block @ block.conj().T)


def _jacobi_eig(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic Jacobi eigendecomposition of a Hermitian matrix.

    Sweeps two-sided unitary rotations until the off-diagonal mass is at
    rounding level. Dimensions here never exceed 32, so quadratic
    convergence makes this both fast enough and accurate to ~1e-15.
    """
    a = matrix.astype(complex, copy=True)
    n = a.shape[0]
    v = np.eye(n, dtype=complex)
    if n == 1:
        return a.real.diagonal().copy(), v

    scale = max(float(np.linalg.norm(a)), 1.0)
    for _ in range(60):
        # Off-diagonal Frobenius mass, summed entry by entry: subtracting
        # the diagonal from the total norm would cancel catastrophically.
        hollow = a.copy()
        np.fill_diagonal(hollow, 0.0)
        off = float(np.linalg.norm(hollow))
        if off <= 1e-14 * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                b = a[p, q]
                ab = abs(b)
                if ab <= 1e-18 * scale:
                    continue
                phase = b / ab
                tau = (a[p, p].real - a[q, q].real) / (2.0 * ab)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                # Two-sided rotation mixing rows/columns p and q.
                row_p, row_q = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * row_p + s * phase * row_q
                a[q, :] = -s * np.conj(phase) * row_p + c * row_q
                col_p, col_q = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * col_p + s * np.conj(phase) * col_q
                a[:, q] = -s * phase * col_p + c * col_q
                a[p, q] = 0.0
                a[q, p] = 0.0
                vec_p, vec_q = v[:, p].copy(), v[:, q].copy()
                v[:, p] = c * vec_p + s * np.conj(phase) * vec_q
                v[:, q] = -s * phase * vec_p + c * vec_q
    else:
        raise RuntimeError("Jacobi iteration failed to converge")

    values = np.real(np.diagonal(a)).copy()
    order = np.argsort(values)[::-1]
    return values[order], v[:, order]


def hermitian_eig(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix; the only eigensolver entry.

    Returns (values, vectors) with real eigenvalues in descending order
    and orthonormal eigenvectors as matching columns. Raises ValueError
    on a non-finite entry or a deviation from Hermitian above 1e-10.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    if np.max(np.abs(m - m.conj().T)) > HERMITIAN_ATOL:
        raise ValueError("matrix is not Hermitian within 1e-10")
    # Symmetrize away rounding noise so the rotations see an exact input.
    return _jacobi_eig((m + m.conj().T) / 2.0)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Entropy -sum(lam * log2 lam) in bits, ignoring eigenvalues < 1e-12."""
    lam = rho.eigenvalues
    lam = lam[lam > ENTROPY_EIGENVALUE_FLOOR]
    return float(-(lam * np.log2(lam)).sum())


def trace_norm(matrix: np.ndarray) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix."""
    return float(np.abs(hermitian_eig(matrix)[0]).sum())


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """(1/2) * ||rho - sigma||_1; in [0, 1], and 1 iff orthogonal supports."""
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    return 0.5 * trace_norm(rho.matrix - sigma.matrix)
