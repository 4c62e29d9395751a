"""Tests for the dense few-qubit linear-algebra kernel.

The partial-trace oracle here walks basis strings bit by bit and the
eigensolver is cross-checked against numpy's LAPACK wrapper, so both
sides of every comparison go through independent code paths.
"""

import numpy as np
import pytest

from qsslab.code5 import encode_classical
from qsslab.quantum_core import (
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

    def test_rejects_negative_eigenvalues(self):
        with pytest.raises(ValueError, match="PSD"):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_rejects_non_finite_entries(self):
        with pytest.raises(ValueError, match="finite"):
            DensityMatrix(np.array([[np.nan, 0.0], [0.0, 0.5]]))

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of 2"):
            DensityMatrix(np.eye(3) / 3)

    def test_support_projector_of_pure_state(self):
        rho = PureState(1, np.array([1.0, 0.0])).density()
        np.testing.assert_allclose(rho.support_projector(), np.diag([1.0, 0.0]), atol=1e-12)


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

    def test_reconstruction_residual_on_random_4x4(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            h = (a + a.conj().T) / 2
            values, vectors = hermitian_eig(h)
            residual = vectors @ np.diag(values) @ vectors.conj().T - h
            assert np.max(np.abs(residual)) <= 1e-9
            assert np.all(np.diff(values) <= 1e-12)
            np.testing.assert_allclose(
                vectors.conj().T @ vectors, np.eye(4), atol=1e-12
            )

    @pytest.mark.parametrize("dim", [2, 8, 16, 32])
    def test_matches_numpy_spectrum(self, dim):
        rng = np.random.default_rng(dim)
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = (a + a.conj().T) / 2
        ours = hermitian_eig(h)[0]
        reference = np.linalg.eigvalsh(h)[::-1]
        np.testing.assert_allclose(ours, reference, atol=1e-10)


class TestEntropy:
    def test_maximally_mixed_qubit(self):
        assert von_neumann_entropy(DensityMatrix(np.eye(2) / 2)) == pytest.approx(1.0, abs=1e-12)

    def test_pure_state_has_zero_entropy(self):
        rho = PureState(2, np.array([0.5, 0.5, 0.5, 0.5])).density()
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
        pure = PureState(1, np.array([1.0, 0.0])).density()
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
