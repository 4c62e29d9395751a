"""How many Jacobi eigendecompositions each operation runs.

Validation checks positivity with LAPACK, so only the spectra an output
reads go through ``hermitian_eig``: one per matrix, on first use.
"""

import numpy as np
import pytest

from qsslab import quantum_core
from qsslab.access_analysis import (
    SecretPrior,
    access_structure_report,
    reconstruct_classical,
    reconstruct_quantum,
)
from qsslab.code5 import QubitSecret, encode_quantum
from qsslab.quantum_core import DensityMatrix, reduced_state


@pytest.fixture
def eig_calls(monkeypatch):
    calls = []
    original = quantum_core.hermitian_eig

    def counting(matrix):
        calls.append(matrix.shape)
        return original(matrix)

    monkeypatch.setattr(quantum_core, "hermitian_eig", counting)
    return calls


def roundtrip(members):
    secret = QubitSecret(0.6, 0.8j)
    state = reduced_state(encode_quantum(secret), members)
    reconstruct_quantum(members, state, secret)
    reconstruct_classical(members, state)


def test_spectrum_is_computed_once_on_first_read(eig_calls):
    rho = DensityMatrix(np.diag([0.75, 0.25]))
    assert len(eig_calls) == 0
    rho.eigenvalues
    assert len(eig_calls) == 1
    rho.eigenvectors
    rho.support_projector()
    assert len(eig_calls) == 1


def test_warm_report_runs_one_mixture_and_one_trace_norm_per_subset(eig_calls):
    access_structure_report()  # fills the code-word reduction cache
    eig_calls.clear()
    access_structure_report(SecretPrior.from_q0(0.25))
    assert len(eig_calls) == 62


def test_warm_roundtrip_runs_only_the_helstrom_trace_norm(eig_calls):
    members = (1, 2, 4, 5)
    roundtrip(members)  # fills the reduction and recovery caches
    eig_calls.clear()
    roundtrip(members)
    assert eig_calls == [(16, 16)]
