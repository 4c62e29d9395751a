"""Tests for the dense few-qubit linear-algebra kernel.

The partial-trace oracle here walks basis strings bit by bit and the
eigensolver is cross-checked against numpy's LAPACK wrapper, so both
sides of every comparison go through independent code paths. The Jacobi
solver is also pinned bit for bit to a plain copy of its rotation loop.
"""

import math
import re

import numpy as np
import pytest

from qsslab import quantum_core
from qsslab.access_analysis import codeword_reductions
from qsslab.code5 import encode_classical
from qsslab.quantum_core import (
    PSD_ATOL,
    DensityMatrix,
    PureState,
    all_nonempty_subsets,
    hermitian_eig,
    reduced_state,
    share_subset,
    trace_distance,
    von_neumann_entropy,
)


def brute_force_reduced(psi: PureState, keep: list[int]) -> np.ndarray:
    """Partial trace by explicit summation over traced-out bit strings."""
    n = psi.num_qubits
    keep = sorted(keep)
    traced = [q for q in range(1, n + 1) if q not in keep]
    dim_keep, dim_traced = 2 ** len(keep), 2 ** len(traced)

    def index_of(kept_bits, traced_bits):
        bit = dict(zip(keep, kept_bits))
        bit.update(zip(traced, traced_bits))
        value = 0
        for q in range(1, n + 1):
            value = (value << 1) | bit[q]
        return value

    def bits(value, width):
        return [(value >> (width - 1 - i)) & 1 for i in range(width)]

    rho = np.zeros((dim_keep, dim_keep), dtype=complex)
    for i in range(dim_keep):
        for j in range(dim_keep):
            total = 0j
            for e in range(dim_traced):
                eb = bits(e, len(traced))
                total += psi.amplitudes[index_of(bits(i, len(keep)), eb)] * np.conj(
                    psi.amplitudes[index_of(bits(j, len(keep)), eb)]
                )
            rho[i, j] = total
    return rho


def random_state(rng: np.random.Generator, num_qubits: int) -> PureState:
    amps = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    return PureState(num_qubits, amps / np.linalg.norm(amps))


def reference_jacobi(matrix: np.ndarray) -> np.ndarray:
    """The cyclic Jacobi loop with copied rows and separately computed columns.

    The oracle for quantum_core's kernels, the float one mirroring its
    column step from its row step: hermitian_eig must return exactly these
    eigenvalue bits. Takes the symmetrized input, as hermitian_eig hands
    it to the solver.
    """
    a = matrix.astype(complex, copy=True)
    n = a.shape[0]
    if n == 1:
        return a.real.diagonal().copy()
    scale = max(float(np.linalg.norm(a)), 1.0)
    for _ in range(60):
        hollow = a.copy()
        np.fill_diagonal(hollow, 0.0)
        if float(np.linalg.norm(hollow)) <= 1e-14 * scale:
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
                row_p, row_q = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * row_p + s * phase * row_q
                a[q, :] = -s * np.conj(phase) * row_p + c * row_q
                col_p, col_q = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * col_p + s * np.conj(phase) * col_q
                a[:, q] = -s * phase * col_p + c * col_q
                a[p, q] = 0.0
                a[q, p] = 0.0
    else:
        raise RuntimeError("Jacobi iteration failed to converge")
    values = np.real(np.diagonal(a)).copy()
    return values[np.argsort(values)[::-1]]


def random_density(rng: np.random.Generator, dim: int) -> DensityMatrix:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = a @ a.conj().T
    return DensityMatrix(h / np.trace(h))


class TestPureState:
    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="amplitudes"):
            PureState(2, np.array([1.0, 0.0]))

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="not normalized"):
            PureState(1, np.array([1.0, 1.0]))

    def test_rejects_bad_qubit_count(self):
        with pytest.raises(ValueError, match="num_qubits"):
            PureState(6, np.zeros(64))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_amplitudes(self, bad):
        with pytest.raises(ValueError, match="finite"):
            PureState(1, np.array([bad, 0.0]))

    def test_rejects_overflowing_norm(self):
        # |psi|^2 overflows to NaN in vdot; a NaN norm is not within tolerance.
        amps = np.zeros(32, dtype=complex)
        amps[0] = complex(1e308, 1e308)
        with pytest.raises(ValueError, match="not normalized"):
            PureState(5, amps)

    def test_absorbs_rounding_noise(self):
        amps = np.array([1.0 + 3e-11, 0.0])
        psi = PureState(1, amps)
        assert np.vdot(psi.amplitudes, psi.amplitudes).real == pytest.approx(1.0, abs=1e-15)

    def test_amplitudes_are_immutable(self):
        psi = PureState(1, np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 0.5


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(np.array([[0.5, 0.1], [0.2, 0.5]]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2))

    def test_rejects_nan_trace(self):
        # The pairwise sum of this diagonal is inf + (-inf) = NaN.
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="trace must be 1"):
                DensityMatrix(np.diag([1e308, 1e308, -1e308, -1e308] + [0.0] * 12))

    def test_rejects_negative_eigenvalues(self):
        with pytest.raises(ValueError, match="PSD"):
            DensityMatrix(np.diag([1.5, -0.5]))

    @pytest.mark.parametrize(
        "matrix",
        [
            [[np.nan, 0.0], [0.0, 0.5]],
            [[np.inf, 0.0], [0.0, 0.5]],
            [[0.5, complex(np.nan, np.nan)], [complex(np.nan, np.nan), 0.5]],
        ],
        ids=["nan", "inf", "off-diagonal-complex-nan"],
    )
    def test_rejects_non_finite_entries(self, matrix):
        with pytest.raises(ValueError, match="finite"):
            DensityMatrix(np.array(matrix))

    def test_psd_boundary(self):
        # A rotated diagonal, so the spectrum is not read off the diagonal.
        h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
        with pytest.raises(ValueError, match="PSD") as excinfo:
            DensityMatrix(h @ np.diag([1 + 2 * PSD_ATOL, -2 * PSD_ATOL]) @ h)
        lowest = float(re.findall(r"-\d[\d.]*e-\d+", str(excinfo.value))[-1])
        assert lowest == pytest.approx(-2 * PSD_ATOL, rel=1e-4)
        rho = DensityMatrix(h @ np.diag([1 + PSD_ATOL / 2, -PSD_ATOL / 2]) @ h)
        assert rho.eigenvalues[-1] == pytest.approx(-PSD_ATOL / 2, rel=1e-4)

    def test_spectrum_is_read_only_and_from_the_eigensolver(self):
        rho = random_density(np.random.default_rng(5), 8)
        values = hermitian_eig(rho.matrix)[0]
        assert rho.eigenvalues.tobytes() == values.tobytes()
        with pytest.raises(ValueError):
            rho.eigenvalues[0] = 0.0

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of 2"):
            DensityMatrix(np.eye(3) / 3)


class TestShareSubsets:
    def test_all_nonempty_subsets_count_and_order(self):
        subsets = all_nonempty_subsets(5)
        assert len(subsets) == 31
        assert subsets[0] == (1,)
        assert subsets[5] == (1, 2)
        assert subsets[-1] == (1, 2, 3, 4, 5)
        assert subsets == sorted(subsets, key=lambda s: (len(s), s))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="nonempty"):
            share_subset([])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            share_subset([1, 1, 2])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="1..5"):
            share_subset([0, 3])
        with pytest.raises(ValueError, match="1..5"):
            share_subset([4, 6])


class TestReducedState:
    def test_full_set_is_projector(self):
        psi = encode_classical(0)
        rho = reduced_state(psi, [1, 2, 3, 4, 5])
        expected = np.outer(psi.amplitudes, psi.amplitudes.conj())
        np.testing.assert_allclose(rho.matrix, expected, atol=1e-12)
        assert rho.eigenvalues[0] == pytest.approx(1.0, abs=1e-12)

    def test_single_share_of_code_word_is_maximally_mixed(self):
        rho = reduced_state(encode_classical(0), [1])
        np.testing.assert_allclose(rho.matrix, np.eye(2) / 2, atol=1e-12)

    def test_product_state_marginal(self):
        rho = reduced_state(PureState(2, np.array([1.0, 0, 0, 0])), [2])
        np.testing.assert_allclose(rho.matrix, np.diag([1.0, 0.0]), atol=1e-12)

    def test_matches_brute_force_on_random_states(self):
        rng = np.random.default_rng(11)
        for _ in range(3):
            psi = random_state(rng, 5)
            for keep in [[2], [1, 4], [2, 3, 5], [1, 2, 4, 5]]:
                np.testing.assert_allclose(
                    reduced_state(psi, keep).matrix,
                    brute_force_reduced(psi, keep),
                    atol=1e-12,
                )

    def test_all_subsets_of_code_words_are_valid_unit_trace(self):
        for s in (0, 1):
            psi = encode_classical(s)
            for subset in all_nonempty_subsets(5):
                rho = reduced_state(psi, subset)
                assert abs(np.trace(rho.matrix) - 1.0) < 1e-10

    def test_rejects_empty_and_out_of_range(self):
        psi = encode_classical(0)
        with pytest.raises(ValueError):
            reduced_state(psi, [])
        with pytest.raises(ValueError):
            reduced_state(psi, [6])


class TestEigensolver:
    def test_diagonal_input(self):
        values = hermitian_eig(np.diag([0.5, 0.5]))[0]
        np.testing.assert_allclose(values, [0.5, 0.5], atol=1e-12)

    def test_rank_one_projector(self):
        values = hermitian_eig(np.full((2, 2), 0.5))[0]
        np.testing.assert_allclose(values, [1.0, 0.0], atol=1e-12)

    def test_two_share_reduction_is_maximally_mixed(self):
        rho = reduced_state(encode_classical(0), [1, 2])
        np.testing.assert_allclose(rho.eigenvalues, [0.25] * 4, atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_values_match_lapack_in_descending_order_on_random_4x4(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            h = (a + a.conj().T) / 2
            values = hermitian_eig(h)[0]
            assert np.max(np.abs(values - np.linalg.eigvalsh(h)[::-1])) <= 1e-9
            assert np.all(np.diff(values) <= 0.0)

    def test_entries_near_the_float_limit_do_not_overflow(self):
        # The suite turns RuntimeWarning into an error, so an overflow fails here.
        # Values only, as a one-element tuple: unpacking (values, vectors) fails.
        (values,) = hermitian_eig(np.diag([1e308, -1e308]))
        assert values.tolist() == [1e308, -1e308]

    def test_large_off_diagonal_entries_rotate_exactly_scaled(self):
        # A complex and a real matrix, one through each rotation kernel.
        for h in (np.array([[1e300, 3e299j], [-3e299j, -2e300]]), np.array([[1e300, 3e299], [3e299, -2e300]])):
            values = hermitian_eig(h)[0]
            small_values = hermitian_eig(h * 2.0**-600)[0]
            assert values.tobytes() == (small_values * 2.0**600).tobytes()

    def test_only_complex_input_takes_the_numpy_loop(self, monkeypatch):
        calls = []
        for name in ("_jacobi_eig", "_real_jacobi_eig"):
            kernel = getattr(quantum_core, name)
            monkeypatch.setattr(
                quantum_core, name, lambda h, name=name, kernel=kernel: calls.append(name) or kernel(h)
            )
        rho0, rho1 = (r.matrix for r in codeword_reductions((1, 2, 3)))
        hermitian_eig(np.array([[1.0, 0.5], [0.5, -1.0]]))
        hermitian_eig(0.3 * rho0 - 0.7 * rho1)
        hermitian_eig(np.array([[1e300, 3e299], [3e299, -2e300]], dtype=complex))
        assert calls == ["_real_jacobi_eig"] * 3
        hermitian_eig(np.array([[1.0, 0.5j], [-0.5j, -1.0]]))
        hermitian_eig(np.array([[1e300, 3e299j], [-3e299j, -2e300]]))
        assert calls == ["_real_jacobi_eig"] * 3 + ["_jacobi_eig"] * 2

    @pytest.mark.parametrize("dim", [2, 8, 16, 32])
    def test_matches_numpy_spectrum(self, dim):
        rng = np.random.default_rng(dim)
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = (a + a.conj().T) / 2
        ours = hermitian_eig(h)[0]
        reference = np.linalg.eigvalsh(h)[::-1]
        np.testing.assert_allclose(ours, reference, atol=1e-10)


#: Matrices whose m - m^H overflows although every entry is finite.
NEAR_LIMIT_NON_HERMITIAN = {
    "real": np.array([[0.0, 1e308], [-1e308, 0.0]]),
    "unit-trace": np.array([[0.5, 1e308], [-1e308, 0.5]]),
    "complex": np.array([[0.0, complex(1.7e308, 1.7e308)], [complex(-1.7e308, 1.7e308), 0.0]]),
}


class TestHermitianCheck:
    """Both Hermitian checks: one decision, one message built from the tolerance table."""

    @pytest.mark.parametrize("check, atol", [(hermitian_eig, "1e-10"), (DensityMatrix, "1e-12")])
    @pytest.mark.parametrize("name", NEAR_LIMIT_NON_HERMITIAN)
    def test_rejects_near_the_float_limit_without_overflow(self, check, atol, name):
        # The suite turns RuntimeWarning into an error, so an overflow fails here.
        with pytest.raises(ValueError, match=rf"^matrix is not Hermitian within {atol}$"):
            check(NEAR_LIMIT_NON_HERMITIAN[name])

    @pytest.mark.parametrize("deviation, accepted", [(1e-10, True), (2e-10, False)])
    def test_tolerance_is_inclusive(self, deviation, accepted):
        matrix = np.array([[0.0, deviation], [0.0, 0.0]])
        if accepted:
            hermitian_eig(matrix)
        else:
            with pytest.raises(ValueError, match="Hermitian"):
                hermitian_eig(matrix)


class TestEntropy:
    def test_maximally_mixed_qubit(self):
        assert von_neumann_entropy(DensityMatrix(np.eye(2) / 2)) == pytest.approx(1.0, abs=1e-12)

    def test_pure_state_has_zero_entropy(self):
        rho = DensityMatrix(np.outer([0.5, 0.5, 0.5, 0.5], [0.5, 0.5, 0.5, 0.5]))
        assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_two_qubits(self):
        assert von_neumann_entropy(DensityMatrix(np.eye(4) / 4)) == pytest.approx(2.0, abs=1e-12)

    def test_additivity_on_product_states(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            rho = random_density(rng, 2)
            sigma = random_density(rng, 4)
            product = DensityMatrix(np.kron(rho.matrix, sigma.matrix))
            assert von_neumann_entropy(product) == pytest.approx(
                von_neumann_entropy(rho) + von_neumann_entropy(sigma), abs=1e-9
            )

    def test_entropy_range_on_reduced_states(self):
        for s in (0, 1):
            psi = encode_classical(s)
            for subset in all_nonempty_subsets(5):
                value = von_neumann_entropy(reduced_state(psi, subset))
                assert -1e-9 <= value <= len(subset) + 1e-9


class TestTraceDistance:
    def test_identical_states(self):
        rho = reduced_state(encode_classical(0), [1, 2])
        assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_pure_vs_maximally_mixed(self):
        pure = DensityMatrix(np.outer([1.0, 0.0], [1.0, 0.0]))
        mixed = DensityMatrix(np.eye(2) / 2)
        assert trace_distance(pure, mixed) == pytest.approx(0.5, abs=1e-12)

    def test_orthogonal_code_word_reductions(self):
        rho0 = reduced_state(encode_classical(0), [1, 2, 3])
        rho1 = reduced_state(encode_classical(1), [1, 2, 3])
        assert trace_distance(rho0, rho1) == pytest.approx(1.0, abs=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            trace_distance(
                DensityMatrix(np.eye(2) / 2), DensityMatrix(np.eye(4) / 4)
            )

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(41)
        for _ in range(5):
            rho, sigma = random_density(rng, 4), random_density(rng, 4)
            d = trace_distance(rho, sigma)
            assert d == pytest.approx(trace_distance(sigma, rho), abs=1e-12)
            assert -1e-12 <= d <= 1.0 + 1e-12


def assert_matches_reference_jacobi(m: np.ndarray) -> None:
    # Symmetrized exactly as hermitian_eig does, so both see the same zeros.
    m = np.asarray(m, dtype=complex)
    expected = reference_jacobi(m / 2.0 + m.conj().T / 2.0)
    assert hermitian_eig(m)[0].tobytes() == expected.tobytes()


#: Priors q0 for the mixtures and differences; q0 = 0.5 gives the uniform
#: Helstrom matrix (rho0 - rho1) / 2.
ORACLE_PRIORS = (0.0, 0.3, 0.5, 1.0, *np.random.default_rng(97).uniform(size=2))


class TestJacobiOracle:
    """hermitian_eig's eigenvalues against the reference loop, byte for byte."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 8, 16, 32])
    def test_random_hermitian(self, dim):
        rng = np.random.default_rng(100 + dim)
        for _ in range(3):
            a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            assert_matches_reference_jacobi(a + a.conj().T)
        # Real symmetric input, dense and with zero pairs, takes the float loop.
        # A masked negative entry is -0.0; hermitian_eig's complex halving
        # makes it +0.0, and the oracle halves the same way.
        rng = np.random.default_rng(200 + dim)
        for density in (1.0, 1.0, 0.3):
            a = rng.normal(size=(dim, dim)) * (rng.uniform(size=(dim, dim)) < density)
            assert_matches_reference_jacobi(a + a.T)

    @pytest.mark.parametrize("members", all_nonempty_subsets())
    def test_code_word_reductions(self, members):
        rho0, rho1 = (r.matrix for r in codeword_reductions(members))
        for m in (rho0, rho1, rho0 - rho1):
            assert_matches_reference_jacobi(m)
        for q0 in ORACLE_PRIORS:
            assert_matches_reference_jacobi(q0 * rho0 + (1.0 - q0) * rho1)
            assert_matches_reference_jacobi(q0 * rho0 - (1.0 - q0) * rho1)
