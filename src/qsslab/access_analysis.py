"""Access-structure analysis of the five-qubit sharing scheme.

For a subset J of the five participants, the two classical secrets leave
J holding reduced states rho0^J and rho1^J. Classification is operational:
J is Qualified when the two are perfectly distinguishable (trace distance
1) and Forbidden when they are indistinguishable and carry zero Holevo
information. This scheme is perfect, so every subset must land in exactly
one class; anything else signals an implementation bug and raises.

Reconstruction comes in two flavors: a projective measurement recovering
the classical bit, and an exact erasure-recovery channel (the adjoint of
the code isometry seen from J, exact because the code corrects the lost
shares' erasure) recovering the full qubit secret from three or more shares.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional

import numpy as np

from .code5 import QubitSecret, encode_classical
from .quantum_core import (
    DensityMatrix,
    all_nonempty_subsets,
    reduced_state,
    share_block,
    share_subset,
    trace_distance,
    trace_norm,
    von_neumann_entropy,
)
from .symplectic import holds_logical_z
from .tolerances import NORM_ATOL, VERDICT_ATOL


class UnqualifiedSubsetError(ValueError):
    """Raised when quantum reconstruction is requested for a forbidden set."""


class IndeterminateClassificationError(RuntimeError):
    """A subset matched neither classification predicate (perfectness bug)."""


class Classification(str, Enum):
    QUALIFIED = "Qualified"
    FORBIDDEN = "Forbidden"


@dataclass(frozen=True)
class SecretPrior:
    """Probability distribution (q0, q1) of the classical secret bit."""

    q0: float
    q1: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.q0) and math.isfinite(self.q1)):
            raise ValueError(f"probabilities must be finite: {self}")
        if self.q0 < 0 or self.q1 < 0:
            raise ValueError(f"probabilities must be nonnegative: {self}")
        if not abs(self.q0 + self.q1 - 1.0) <= NORM_ATOL:
            raise ValueError(f"probabilities must sum to 1: {self}")
        # -0.0 + 0.0 == +0.0: a negative zero is stored, and printed, as 0.
        object.__setattr__(self, "q0", self.q0 + 0.0)
        object.__setattr__(self, "q1", self.q1 + 0.0)

    @classmethod
    def from_q0(cls, q0: float) -> "SecretPrior":
        return cls(q0, 1.0 - q0)


UNIFORM_PRIOR = SecretPrior(0.5, 0.5)


@functools.lru_cache(maxsize=None)
def _codeword_reduction(s: int, members: tuple[int, ...]) -> DensityMatrix:
    return reduced_state(encode_classical(s), members)


def codeword_reductions(j: Iterable[int]) -> tuple[DensityMatrix, DensityMatrix]:
    """Reduced states (rho0^J, rho1^J) of the two code words on J."""
    members = share_subset(j)
    return _codeword_reduction(0, members), _codeword_reduction(1, members)


def holevo_information(j: Iterable[int], prior: SecretPrior = UNIFORM_PRIOR) -> float:
    """Holevo information of the share set J about the secret bit, in bits.

    Computed as S(q0 rho0^J + q1 rho1^J) - (q0 S(rho0^J) + q1 S(rho1^J)).
    """
    rho0, rho1 = codeword_reductions(j)
    mixture = DensityMatrix(prior.q0 * rho0.matrix + prior.q1 * rho1.matrix)
    return von_neumann_entropy(mixture) - (
        prior.q0 * von_neumann_entropy(rho0) + prior.q1 * von_neumann_entropy(rho1)
    )


@dataclass(frozen=True)
class SubsetVerdict:
    subset: tuple[int, ...]
    holevo_bits: float
    trace_dist: float
    classification: Classification


def classify_subset(
    j: Iterable[int], prior: SecretPrior = UNIFORM_PRIOR
) -> SubsetVerdict:
    """Classify one share subset as Qualified or Forbidden.

    Qualified means trace distance 1 (the two encoded bits are perfectly
    distinguishable from J alone); Forbidden means zero trace distance and
    zero Holevo information. A subset matching neither raises
    IndeterminateClassificationError.
    """
    members = share_subset(j)
    rho0, rho1 = codeword_reductions(members)
    holevo = holevo_information(members, prior)
    dist = trace_distance(rho0, rho1)
    if dist >= 1.0 - VERDICT_ATOL:
        classification = Classification.QUALIFIED
    elif holevo <= VERDICT_ATOL and dist <= VERDICT_ATOL:
        classification = Classification.FORBIDDEN
    else:
        raise IndeterminateClassificationError(
            f"subset {members}: holevo={holevo!r}, trace_dist={dist!r} "
            "matches neither classification"
        )
    return SubsetVerdict(
        subset=members,
        holevo_bits=holevo,
        trace_dist=dist,
        classification=classification,
    )


@dataclass(frozen=True)
class AccessReport:
    """Verdicts for all 31 nonempty subsets, ordered by (size, members)."""

    prior: SecretPrior
    verdicts: tuple[SubsetVerdict, ...]

    def __post_init__(self) -> None:
        expected = all_nonempty_subsets(5)
        if [v.subset for v in self.verdicts] != expected:
            raise ValueError("verdicts must cover all 31 subsets in canonical order")

    @property
    def is_threshold(self) -> bool:
        """True when qualified subsets are exactly those of size >= 3."""
        return all(
            (v.classification is Classification.QUALIFIED) == (len(v.subset) >= 3)
            for v in self.verdicts
        )

    def to_records(self) -> list[dict]:
        return [
            {
                "members": list(v.subset),
                "holevo_bits": v.holevo_bits,
                "trace_dist": v.trace_dist,
                "classification": v.classification.value,
            }
            for v in self.verdicts
        ]


def access_structure_report(prior: SecretPrior = UNIFORM_PRIOR) -> AccessReport:
    """Classify every nonempty subset of the five shares."""
    verdicts = tuple(classify_subset(s, prior) for s in all_nonempty_subsets(5))
    return AccessReport(prior=prior, verdicts=verdicts)


@dataclass(frozen=True)
class ClassicalReconstruction:
    """Guess, exact optimal success and support overlap of the shares in J.

    ``support_overlap`` is tr(P rho), P the support of rho0^J. On a J
    without a logical Z that is also the support of rho1^J, so the field
    reads 1.0 for every code state and tells nothing about the secret.
    """

    guess: int
    success_probability: float
    support_overlap: float


def reconstruct_classical(
    j: Iterable[int],
    state: DensityMatrix,
    prior: SecretPrior = UNIFORM_PRIOR,
) -> ClassicalReconstruction:
    """Guess the classical secret from the shares in J.

    When J holds a logical Z (``symplectic.holds_logical_z``), measuring
    the projector P onto the support of rho0^J against its complement
    reads the bit: the guess is 0 when tr(P rho) >= 1/2, and the optimal
    success probability is exactly 1. A code word's reduction is flat,
    rho0^J = P / rank P (Gottesman, arXiv quant-ph/9705052), so
    P = rho0 / tr(rho0^2) needs no eigenbasis. Otherwise rho0^J = rho1^J,
    so the best guess is the prior's majority bit (0 on a tie), right
    with probability max(q0, q1), and the support overlap tr(P rho) is
    1.0 for every code state. Either success value is checked against the
    dense Helstrom value (1/2)(1 + ||q0 rho0 - q1 rho1||_1); a difference
    above VERDICT_ATOL raises RuntimeError.
    """
    members = share_subset(j)
    rho0, rho1 = codeword_reductions(members)
    if state.dim != rho0.dim:
        raise ValueError(f"state has dimension {state.dim}, expected {rho0.dim}")
    overlap = float(np.vdot(rho0.matrix, state.matrix).real / np.vdot(rho0.matrix, rho0.matrix).real)
    if holds_logical_z(members):
        guess, success = (0 if overlap >= 0.5 else 1), 1.0
    else:
        guess, success = (0 if prior.q0 >= prior.q1 else 1), max(prior.q0, prior.q1)
    helstrom = 0.5 * (1.0 + trace_norm(prior.q0 * rho0.matrix - prior.q1 * rho1.matrix))
    if not abs(success - helstrom) <= VERDICT_ATOL:
        raise RuntimeError(
            f"subset {members}: success probability {success!r} disagrees with "
            f"the Helstrom value {helstrom!r}"
        )
    return ClassicalReconstruction(
        guess=guess, success_probability=success, support_overlap=overlap
    )


@functools.lru_cache(maxsize=None)
def _recovery_kraus(members: tuple[int, ...]) -> np.ndarray:
    """Kraus operators of the exact erasure-recovery channel for J.

    With b_s = share_block(w_s, J), a dim(J) x E block over the lost
    shares, W|s>|e> = sqrt(E) b_s[:, e] is an isometry exactly when the
    code corrects their erasure (Knill-Laflamme), and its adjoint, the
    transpose (Petz) map, undoes it: L_e = sqrt(E) (b_0[:, e], b_1[:, e])+.
    Returns one read-only (E, 2, dim J) array; raises RuntimeError when
    W is not an isometry.
    """
    blocks = np.stack([share_block(encode_classical(s), members) for s in (0, 1)])
    lost = blocks.shape[2]
    kraus = math.sqrt(lost) * blocks.conj().transpose(2, 0, 1)
    adjoint = kraus.reshape(2 * lost, -1)
    if not np.max(np.abs(adjoint @ adjoint.conj().T - np.eye(2 * lost))) <= NORM_ATOL:
        raise RuntimeError(f"the code does not correct the loss of the shares outside {members}")
    kraus.setflags(write=False)
    return kraus


@dataclass(frozen=True)
class QuantumReconstruction:
    """Recovered one-qubit state, plus fidelity when the secret is known."""

    recovered: DensityMatrix
    fidelity: Optional[float]


def reconstruct_quantum(
    j: Iterable[int],
    state: DensityMatrix,
    secret: Optional[QubitSecret] = None,
) -> QuantumReconstruction:
    """Recover the qubit secret from the shares in J (|J| >= 3).

    ``state`` must be the reduced state on J of an encoded secret; the
    recovery channel then returns that secret exactly. When ``secret`` is
    supplied, the fidelity <secret|recovered|secret> is reported as well.
    Subsets of two or fewer shares hold no information and raise
    UnqualifiedSubsetError.
    """
    members = share_subset(j)
    if len(members) <= 2:
        raise UnqualifiedSubsetError(
            f"subset {members} is unqualified: reconstruction is impossible"
        )
    if state.dim != 2 ** len(members):
        raise ValueError(
            f"state has dimension {state.dim}, expected {2 ** len(members)}"
        )
    kraus = _recovery_kraus(members)
    recovered = DensityMatrix((kraus @ state.matrix @ kraus.conj().transpose(0, 2, 1)).sum(0))
    fidelity = None
    if secret is not None:
        target = secret.amplitudes()
        fidelity = float(np.real(target.conj() @ recovered.matrix @ target))
    return QuantumReconstruction(recovered=recovered, fidelity=fidelity)
