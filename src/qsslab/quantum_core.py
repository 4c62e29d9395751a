"""Exact dense linear algebra for few-qubit states.

Everything works on explicit complex vectors and matrices of dimension at
most 32, so the routines favor accuracy and transparency over speed.

The one eigensolver, ``hermitian_eig``, computes eigenvalues only, by cyclic
Jacobi rotations with two kernels chosen by the input's imaginary part. A
real matrix (every matrix the access-structure report builds) rotates on
Python floats; any other runs the numpy loop on complex arrays. Both return
the same bits for a real matrix. The numpy loop stays for complex input
because Python cannot round a complex product the way numpy does.

Conventions:
  * Qubits are numbered 1..n, counting from the left of the ket
    |b1 b2 ... bn>; participant i holds qubit i.
  * Basis indices are big-endian: qubit 1 is the most significant bit.
  * Entropies are in bits (log base 2).

All values are immutable; the wrapped numpy arrays are marked read-only,
so states and matrices can be shared freely across threads.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .tolerances import (
    ENTROPY_EIGENVALUE_FLOOR,
    HERMITIAN_ATOL,
    NORM_ATOL,
    PSD_ATOL,
    STATE_NORM_ATOL,
)


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _hermitian_within(m: np.ndarray, atol: float) -> bool:
    # |m - m^H| <= atol, halved first: the difference of two finite entries
    # near the float limit overflows, the difference of their halves cannot.
    return bool(np.max(np.abs(m / 2 - m.conj().T / 2)) <= atol / 2)


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
        if not abs(norm_sq - 1.0) <= STATE_NORM_ATOL:
            raise ValueError(f"state is not normalized: |psi|^2 = {norm_sq!r}")
        # Absorb rounding noise so downstream invariants hold to 1e-12.
        amps /= math.sqrt(norm_sq)
        object.__setattr__(self, "amplitudes", _readonly(amps))

    def overlap(self, other: "PureState") -> complex:
        """Inner product <self|other>."""
        if self.num_qubits != other.num_qubits:
            raise ValueError("qubit count mismatch")
        return complex(np.vdot(self.amplitudes, other.amplitudes))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive semidefinite, unit-trace matrix on qubits.

    Validation checks positivity with LAPACK's ``eigvalsh``. The spectrum
    that entropy reads comes from ``hermitian_eig``, run once per instance
    on first use and kept; no caller reads an eigenbasis. Filling it is
    deterministic, so instances stay safe to share across threads: a race
    at worst computes the same read-only array twice.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex).copy()
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"matrix must be square, got shape {m.shape}")
        dim = m.shape[0]
        if dim & (dim - 1) or dim == 0:
            raise ValueError(f"dimension must be a power of 2, got {dim}")
        if not np.isfinite(m).all():
            raise ValueError("matrix entries must be finite")
        if not _hermitian_within(m, NORM_ATOL):
            raise ValueError(f"matrix is not Hermitian within {NORM_ATOL:g}")
        tr = complex(np.trace(m))
        if not abs(tr - 1.0) <= NORM_ATOL:
            raise ValueError(f"trace must be 1, got {tr!r}")
        lowest = np.linalg.eigvalsh(m)[0]
        if not lowest >= -PSD_ATOL:
            raise ValueError(f"matrix is not PSD: min eigenvalue {lowest!r}")
        object.__setattr__(self, "matrix", _readonly(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @functools.cached_property
    def eigenvalues(self) -> np.ndarray:
        """Real spectrum in descending order."""
        return _readonly(hermitian_eig(self.matrix)[0])


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


def _jacobi_eig(matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix by cyclic Jacobi, in descending order.

    Sweeps two-sided unitary rotations until the off-diagonal mass is at
    rounding level. Dimensions here never exceed 32, so quadratic
    convergence makes this both fast enough and accurate to ~1e-15.
    """
    n = matrix.shape[0]
    a = matrix.astype(complex)
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
                conj_phase = np.conj(phase)
                tau = (a[p, p].real - a[q, q].real) / (2.0 * ab)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                # Two-sided rotation mixing rows/columns p and q.
                row_p, row_q = a[p], a[q]
                a[p], a[q] = c * row_p + s * phase * row_q, -s * conj_phase * row_p + c * row_q
                col_p, col_q = a[:, p], a[:, q]
                a[:, p], a[:, q] = c * col_p + s * conj_phase * col_q, -s * phase * col_p + c * col_q
                a[p, q] = a[q, p] = 0.0
    else:
        raise RuntimeError("Jacobi iteration failed to converge")

    values = np.real(np.diagonal(a)).copy()
    return values[np.argsort(values)[::-1]]


def _real_jacobi_eig(matrix: np.ndarray) -> np.ndarray:
    """``_jacobi_eig`` of a matrix whose imaginary parts are all zero, on floats.

    With every imaginary part +0, each complex operation of the numpy loop
    has one real float operation as its real part: abs(b) is |b|, b / |b|
    is b * (1 / |b|) and the row and column updates are c*x + s*phase*y
    and -s*phase*x + c*y. This loop does those on lists of floats, with
    the same rotations, tests and order per entry, and takes its norms
    from the complex array of the same rows, so the bits do not change.

    Columns p and q are copied from the new rows, not recomputed: the input
    is exactly symmetric, signs of zero included, and each rotation keeps
    it so. Only the diagonal takes both steps, so it is redone.
    """
    n = matrix.shape[0]
    a = matrix.real.tolist()
    scale = max(float(np.linalg.norm(np.array(a, dtype=complex))), 1.0)
    for _ in range(60):
        hollow = np.array(a, dtype=complex)
        np.fill_diagonal(hollow, 0.0)
        if float(np.linalg.norm(hollow)) <= 1e-14 * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                b = a[p][q]
                ab = abs(b)
                if ab <= 1e-18 * scale:
                    continue
                phase = b * (1.0 / ab)
                tau = (a[p][p] - a[q][q]) / (2.0 * ab)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                sp = s * phase
                msp = -s * phase
                row_p, row_q = a[p], a[q]
                new_p = [c * x + sp * y for x, y in zip(row_p, row_q)]
                new_q = [msp * x + c * y for x, y in zip(row_p, row_q)]
                for row, x, y in zip(a, new_p, new_q):
                    row[p], row[q] = x, y
                new_p[p] = c * new_p[p] + sp * new_p[q]
                new_q[q] = msp * new_q[p] + c * new_q[q]
                new_p[q] = new_q[p] = 0.0
                a[p], a[q] = new_p, new_q
    else:
        raise RuntimeError("Jacobi iteration failed to converge")

    values = np.array([row[i] for i, row in enumerate(a)])
    return values[np.argsort(values)[::-1]]


def hermitian_eig(matrix: np.ndarray) -> tuple[np.ndarray]:
    """Eigenvalues of a Hermitian matrix; the only eigensolver entry.

    Returns ``(values,)``, the real eigenvalues in descending order and no
    eigenvectors, which no caller reads; a caller unpacking ``values,
    vectors`` fails loudly. Raises ValueError on a non-finite entry or a
    deviation from Hermitian above HERMITIAN_ATOL.

    After symmetrizing, a matrix with no nonzero imaginary part goes to
    ``_real_jacobi_eig`` and any other to ``_jacobi_eig``; both give the same
    bits on real input. Complex input keeps the numpy loop: a complex product
    rounds there in a way Python's float arithmetic cannot reproduce.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    if not _hermitian_within(m, HERMITIAN_ATOL):
        raise ValueError(f"matrix is not Hermitian within {HERMITIAN_ATOL:g}")
    # Symmetrize away rounding noise so the rotations see an exact input.
    # Halving before adding is exact for normal floats and cannot overflow.
    h = m / 2.0 + m.conj().T / 2.0
    eig = _jacobi_eig if h.imag.any() else _real_jacobi_eig
    top = float(np.abs(h.view(float)).max())
    if top < 2.0**500:
        return (eig(h),)
    # The Frobenius norm of larger entries overflows. Scaling by a power of
    # two is exact, so rotate 2^-shift h and scale the eigenvalues back.
    shift = math.frexp(top)[1] - 500
    return (eig(h * 2.0**-shift) * 2.0**shift,)


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
