"""Numerical laboratory for (3,5) quantum secret sharing on the five-qubit code.

Public names are imported from their defining module on first access
(PEP 562), so ``import qsslab`` alone does not import numpy.
"""

import importlib

__version__ = "0.1.0"

#: Defining module of every public name, in the order of ``__all__``.
_MODULE_OF = {
    "AccessReport": "access_analysis",
    "Classification": "access_analysis",
    "ClassicalReconstruction": "access_analysis",
    "DensityMatrix": "quantum_core",
    "DistanceReport": "code5",
    "LinearScheme": "classical_bound",
    "PureState": "quantum_core",
    "QuantumReconstruction": "access_analysis",
    "QubitSecret": "code5",
    "SearchReport": "classical_bound",
    "SecretPrior": "access_analysis",
    "SubsetVerdict": "access_analysis",
    "UNIFORM_PRIOR": "access_analysis",
    "UnqualifiedSubsetError": "access_analysis",
    "access_structure_report": "access_analysis",
    "all_nonempty_subsets": "quantum_core",
    "classify_subset": "access_analysis",
    "codeword_reductions": "access_analysis",
    "encode_classical": "code5",
    "encode_quantum": "code5",
    "hermitian_eig": "quantum_core",
    "holevo_information": "access_analysis",
    "reconstruct_classical": "access_analysis",
    "reconstruct_quantum": "access_analysis",
    "reduced_state": "quantum_core",
    "search_linear_schemes": "classical_bound",
    "share_size_bound": "classical_bound",
    "share_subset": "quantum_core",
    "trace_distance": "quantum_core",
    "trace_norm": "quantum_core",
    "verify_distance": "code5",
    "von_neumann_entropy": "quantum_core",
}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    """Import ``name`` from its defining module and keep it as a package global."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
