"""Acceptance suite: one test per headline criterion of the laboratory.

Each test prints a single `[acceptance] ... PASS/FAIL` line (visible with
`pytest -s` or in captured output on failure) and asserts the criterion
at its fixed tolerance. Run the whole suite with:

    pytest tests/test_acceptance.py -v -s
"""

import itertools
import time

import numpy as np

from qsslab.access_analysis import (
    Classification,
    SecretPrior,
    UnqualifiedSubsetError,
    access_structure_report,
    holevo_information,
    reconstruct_classical,
    reconstruct_quantum,
)
from qsslab.classical_bound import search_linear_schemes, share_size_bound
from qsslab.code5 import QubitSecret, encode_classical, encode_quantum, verify_distance
from qsslab.quantum_core import (
    DensityMatrix,
    all_nonempty_subsets,
    hermitian_eig,
    reduced_state,
    trace_distance,
    von_neumann_entropy,
)

TOL = 1e-9
PRIORS = [SecretPrior(0.5, 0.5), SecretPrior(0.3, 0.7), SecretPrior(0.01, 0.99)]
SMALL_SUBSETS = [s for s in all_nonempty_subsets(5) if len(s) <= 2]
LARGE_SUBSETS = [s for s in all_nonempty_subsets(5) if len(s) >= 3]


def _criterion(name: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _random_secrets(count: int, seed: int) -> list[QubitSecret]:
    rng = np.random.default_rng(seed)
    secrets = []
    for _ in range(count):
        a = rng.normal(size=2) + 1j * rng.normal(size=2)
        a /= np.linalg.norm(a)
        secrets.append(QubitSecret(a[0], a[1]))
    return secrets


def test_criterion_1_unqualified_set_secrecy():
    start = time.perf_counter()
    worst_holevo = 0.0
    worst_distance = 0.0
    for subset in SMALL_SUBSETS:
        rho0 = reduced_state(encode_classical(0), subset)
        rho1 = reduced_state(encode_classical(1), subset)
        worst_distance = max(worst_distance, trace_distance(rho0, rho1))
        for prior in PRIORS:
            worst_holevo = max(worst_holevo, abs(holevo_information(subset, prior)))
    elapsed = time.perf_counter() - start
    ok = worst_holevo <= TOL and worst_distance <= TOL and elapsed < 1.0
    _criterion(
        "criterion 1: unqualified-set secrecy (15 subsets x 3 priors)",
        ok,
        f"max holevo {worst_holevo:.3e}, max trace dist {worst_distance:.3e}, {elapsed:.3f}s",
    )


def test_criterion_2_qualified_set_reconstruction():
    start = time.perf_counter()
    worst_distance = 1.0
    worst_success = 1.0
    guesses_ok = True
    for subset in LARGE_SUBSETS:
        rho0 = reduced_state(encode_classical(0), subset)
        rho1 = reduced_state(encode_classical(1), subset)
        worst_distance = min(worst_distance, trace_distance(rho0, rho1))
        for s, rho in ((0, rho0), (1, rho1)):
            result = reconstruct_classical(subset, rho)
            guesses_ok = guesses_ok and result.guess == s
            worst_success = min(worst_success, result.success_probability)
    elapsed = time.perf_counter() - start
    ok = (
        worst_distance >= 1.0 - TOL
        and worst_success >= 1.0 - TOL
        and guesses_ok
        and elapsed < 1.0
    )
    _criterion(
        "criterion 2: qualified-set reconstruction (16 subsets, both bits)",
        ok,
        f"min trace dist {worst_distance:.12f}, min success {worst_success:.12f}, {elapsed:.3f}s",
    )


def test_criterion_3_threshold_structure():
    report = access_structure_report()
    classes_ok = all(
        (v.classification is Classification.QUALIFIED) == (len(v.subset) >= 3)
        for v in report.verdicts
    )
    ok = report.is_threshold and classes_ok and len(report.verdicts) == 31
    _criterion(
        "criterion 3: exact (3,5) threshold structure over all 31 subsets",
        ok,
        f"threshold flag {report.is_threshold}",
    )


def test_criterion_4_distance_certificate():
    report = verify_distance(3)
    weight3 = report.checks[-1]
    ok = (
        verify_distance(2).certified_distance is None
        and weight3.violations >= 1
        and report.certified_distance == 3
    )
    _criterion(
        "criterion 4: distance certificate (clean weights 1-2, violation at 3)",
        ok,
        f"weight-3 violations {weight3.violations}, first {weight3.first_violation}",
    )


def test_criterion_5_quantum_reconstruction():
    qualified = [(1, 2, 3), (2, 4, 5), (1, 3, 5), (1, 2, 4, 5), (1, 2, 3, 4, 5)]
    worst_fidelity = 1.0
    for secret in _random_secrets(20, seed=101):
        psi = encode_quantum(secret)
        for subset in qualified:
            result = reconstruct_quantum(subset, reduced_state(psi, subset), secret)
            worst_fidelity = min(worst_fidelity, result.fidelity)
    errors_ok = True
    for subset in SMALL_SUBSETS:
        if len(subset) != 2:
            continue
        rho = reduced_state(encode_classical(0), subset)
        try:
            reconstruct_quantum(subset, rho)
            errors_ok = False
        except UnqualifiedSubsetError:
            pass
    ok = worst_fidelity >= 1.0 - TOL and errors_ok
    _criterion(
        "criterion 5: quantum-secret recovery (20 secrets x 5 subsets; 2-subsets refuse)",
        ok,
        f"min fidelity {worst_fidelity:.12f}",
    )


def test_criterion_6_superposition_secrecy():
    baselines = {
        subset: reduced_state(encode_quantum(QubitSecret(1.0, 0.0)), subset).matrix
        for subset in SMALL_SUBSETS
    }
    worst = 0.0
    for secret in _random_secrets(20, seed=211):
        psi = encode_quantum(secret)
        for subset in SMALL_SUBSETS:
            diff = np.max(
                np.abs(reduced_state(psi, subset).matrix - baselines[subset])
            )
            worst = max(worst, diff)
    ok = worst <= TOL
    _criterion(
        "criterion 6: superposition secrecy on all small subsets",
        ok,
        f"max elementwise deviation {worst:.3e}",
    )


def test_criterion_7_classical_contrast():
    start = time.perf_counter()
    negative = search_linear_schemes(5, 3, 5)
    negative_elapsed = time.perf_counter() - start

    start = time.perf_counter()
    positive = search_linear_schemes(2, 2, 2)
    positive_elapsed = time.perf_counter() - start

    required = share_size_bound(5, 3)
    ok = (
        not negative.found
        and negative.assignments_tried > 0
        and negative_elapsed <= 600.0
        and positive.found
        and positive.witness is not None
        and positive_elapsed < 1.0
        and required == 4 > 2
    )
    _criterion(
        "criterion 7: classical contrast (no linear (3,5) scheme; XOR witness; bound)",
        ok,
        f"negative {negative.assignments_tried} assignments in {negative_elapsed:.2f}s, "
        f"positive in {positive_elapsed:.3f}s",
    )


def test_criterion_8_property_suites():
    holevo = {s: holevo_information(s) for s in all_nonempty_subsets(5)}
    monotone = all(
        holevo[a] <= holevo[b] + TOL
        for a, b in itertools.product(holevo, holevo)
        if set(a) <= set(b)
    )

    dichotomy = True
    for subset in all_nonempty_subsets(5):
        rho0 = reduced_state(encode_classical(0), subset)
        rho1 = reduced_state(encode_classical(1), subset)
        dist = trace_distance(rho0, rho1)
        dichotomy = dichotomy and (dist <= TOL or dist >= 1.0 - TOL)

    rng = np.random.default_rng(307)
    additive = True
    for _ in range(10):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = a @ a.conj().T
        sigma = b @ b.conj().T
        rho = DensityMatrix(rho / np.trace(rho))
        sigma = DensityMatrix(sigma / np.trace(sigma))
        joint = DensityMatrix(np.kron(rho.matrix, sigma.matrix))
        gap = abs(
            von_neumann_entropy(joint)
            - von_neumann_entropy(rho)
            - von_neumann_entropy(sigma)
        )
        additive = additive and gap <= TOL

    solver_ok = True
    worst_deviation = 0.0
    for _ in range(100):
        # Real input goes to the Jacobi kernel; complex input would go to
        # eigvalsh itself and so compare it with itself.
        a = rng.normal(size=(4, 4))
        h = (a + a.T) / 2
        values = hermitian_eig(h)[0]
        deviation = float(np.max(np.abs(values - np.linalg.eigvalsh(h)[::-1])))
        worst_deviation = max(worst_deviation, deviation)
        solver_ok = solver_ok and deviation <= TOL and bool(np.all(np.diff(values) <= 0.0))

    ok = monotone and dichotomy and additive and solver_ok
    _criterion(
        "criterion 8: property suites (monotonicity, dichotomy, additivity, eigensolver)",
        ok,
        f"worst eigensolver deviation from eigvalsh {worst_deviation:.3e}",
    )
