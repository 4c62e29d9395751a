"""Tests for the five-qubit code: tables, encoding, Pauli action, distance.

Pauli operators are cross-checked against explicit 32x32 matrices built
with np.kron, an entirely separate route from the bit-twiddling
implementation.
"""

import itertools

import numpy as np
import pytest

from qsslab.code5 import (
    CODE_TABLE,
    CodeTable,
    PauliOperator,
    QubitSecret,
    WORD_TERMS_0,
    WORD_TERMS_1,
    apply_pauli,
    encode_classical,
    encode_quantum,
    verify_distance,
)
from qsslab.quantum_core import PureState, all_nonempty_subsets, reduced_state

_SINGLE = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
_SINGLE["Y"] = 1j * _SINGLE["X"] @ _SINGLE["Z"]


def pauli_matrix(letters: str) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for c in letters:
        out = np.kron(out, _SINGLE[c])
    return out


def random_state(rng: np.random.Generator, num_qubits: int = 5) -> PureState:
    amps = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    return PureState(num_qubits, amps / np.linalg.norm(amps))


def random_secret(rng: np.random.Generator) -> QubitSecret:
    a = rng.normal(size=2) + 1j * rng.normal(size=2)
    a /= np.linalg.norm(a)
    return QubitSecret(a[0], a[1])


class TestCodeTable:
    def test_default_table_is_valid(self):
        assert len(CODE_TABLE.terms_0) == 16
        assert len(CODE_TABLE.terms_1) == 16

    def test_supports_are_disjoint(self):
        support_0 = {bits for bits, _ in WORD_TERMS_0}
        support_1 = {bits for bits, _ in WORD_TERMS_1}
        assert len(support_0) == 16
        assert len(support_1) == 16
        assert not support_0 & support_1

    def test_rejects_short_table(self):
        with pytest.raises(ValueError, match="16 terms"):
            CodeTable(terms_0=WORD_TERMS_0[:15], terms_1=WORD_TERMS_1)

    def test_rejects_overlapping_supports(self):
        tampered = (("00000", +1),) + WORD_TERMS_1[1:]
        with pytest.raises(ValueError, match="disjoint"):
            CodeTable(terms_0=WORD_TERMS_0, terms_1=tampered)

    def test_rejects_bad_sign(self):
        tampered = (("00000", 2),) + WORD_TERMS_0[1:]
        with pytest.raises(ValueError, match="sign"):
            CodeTable(terms_0=tampered, terms_1=WORD_TERMS_1)


class TestCodeWordsAgainstStabilizers:
    """The hard-coded tables against the code's defining operators.

    The stabilizer group of the five-qubit code is generated by the cyclic
    shifts of XZZXI (Laflamme et al. 1996); ZZZZZ and XXXXX act as the
    logical Z and X. The operators are built with np.kron, not apply_pauli.
    """

    @pytest.mark.parametrize("generator", ["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"])
    def test_generators_fix_both_code_words(self, generator):
        for s in (0, 1):
            word = encode_classical(s).amplitudes
            np.testing.assert_allclose(pauli_matrix(generator) @ word, word, atol=1e-15)

    def test_logical_z_has_eigenvalue_plus_one_on_w0_minus_one_on_w1(self):
        w0, w1 = encode_classical(0).amplitudes, encode_classical(1).amplitudes
        np.testing.assert_allclose(pauli_matrix("ZZZZZ") @ w0, w0, atol=1e-15)
        np.testing.assert_allclose(pauli_matrix("ZZZZZ") @ w1, -w1, atol=1e-15)

    def test_logical_x_maps_w0_to_w1(self):
        w0, w1 = encode_classical(0).amplitudes, encode_classical(1).amplitudes
        np.testing.assert_allclose(pauli_matrix("XXXXX") @ w0, w1, atol=1e-15)


class TestEncodeClassical:
    def test_word_0_signed_amplitudes(self):
        amps = encode_classical(0).amplitudes
        assert amps[int("00000", 2)] == pytest.approx(0.25, abs=1e-15)
        assert amps[int("11011", 2)] == pytest.approx(-0.25, abs=1e-15)

    def test_word_1_signed_amplitudes(self):
        amps = encode_classical(1).amplitudes
        assert amps[int("11111", 2)] == pytest.approx(0.25, abs=1e-15)
        assert amps[int("00100", 2)] == pytest.approx(-0.25, abs=1e-15)

    def test_absent_string_has_zero_amplitude(self):
        amps = encode_classical(0).amplitudes
        assert amps[int("11111", 2)] == 0.0

    def test_words_are_sixteen_terms_of_quarter_modulus(self):
        for s in (0, 1):
            amps = encode_classical(s).amplitudes
            nonzero = np.abs(amps) > 0
            assert nonzero.sum() == 16
            np.testing.assert_allclose(np.abs(amps[nonzero]), 0.25, atol=1e-15)

    def test_exact_norms_and_orthogonality(self):
        w0, w1 = encode_classical(0), encode_classical(1)
        assert abs(np.vdot(w0.amplitudes, w0.amplitudes) - 1.0) < 1e-15
        assert abs(np.vdot(w1.amplitudes, w1.amplitudes) - 1.0) < 1e-15
        assert abs(w0.overlap(w1)) < 1e-15

    def test_rejects_non_bit(self):
        with pytest.raises(ValueError, match="0 or 1"):
            encode_classical(2)


class TestEncodeQuantum:
    def test_identity_cases(self):
        np.testing.assert_allclose(
            encode_quantum(QubitSecret(1.0, 0.0)).amplitudes,
            encode_classical(0).amplitudes,
            atol=1e-15,
        )
        np.testing.assert_allclose(
            encode_quantum(QubitSecret(0.0, 1.0)).amplitudes,
            encode_classical(1).amplitudes,
            atol=1e-15,
        )

    def test_equal_superposition_amplitudes(self):
        amps = encode_quantum(QubitSecret(1 / np.sqrt(2), 1 / np.sqrt(2))).amplitudes
        assert amps[int("00000", 2)] == pytest.approx(0.17677669529663687, abs=1e-12)
        assert amps[int("11111", 2)] == pytest.approx(0.17677669529663687, abs=1e-12)
        assert abs(np.vdot(amps, amps) - 1.0) < 1e-12

    def test_linearity_for_random_secrets(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            secret = random_secret(rng)
            expected = (
                secret.alpha0 * encode_classical(0).amplitudes
                + secret.alpha1 * encode_classical(1).amplitudes
            )
            np.testing.assert_allclose(
                encode_quantum(secret).amplitudes, expected, atol=1e-12
            )

    def test_rejects_unnormalized_secret(self):
        with pytest.raises(ValueError, match="not normalized"):
            QubitSecret(1.0, 1.0)

    @pytest.mark.parametrize("alpha0", [float("nan"), float("inf"), complex(0.0, float("nan"))])
    def test_rejects_non_finite_secret(self, alpha0):
        with pytest.raises(ValueError, match="finite"):
            QubitSecret(alpha0, 0.0)

    def test_global_phase_leaves_reduced_states_unchanged(self):
        rng = np.random.default_rng(17)
        secret = random_secret(rng)
        for theta in (0.3, 1.1, 2.9):
            phase = np.exp(1j * theta)
            rotated = QubitSecret(phase * secret.alpha0, phase * secret.alpha1)
            for subset in all_nonempty_subsets(5):
                base = reduced_state(encode_quantum(secret), subset)
                turned = reduced_state(encode_quantum(rotated), subset)
                np.testing.assert_allclose(turned.matrix, base.matrix, atol=1e-12)


class TestApplyPauli:
    def test_identity(self):
        psi = encode_classical(0)
        np.testing.assert_allclose(
            apply_pauli(PauliOperator("IIIII"), psi).amplitudes,
            psi.amplitudes,
            atol=1e-15,
        )

    def test_single_bit_flip(self):
        zero = np.zeros(32)
        zero[0] = 1.0
        flipped = apply_pauli(PauliOperator("XIIII"), PureState(5, zero))
        assert flipped.amplitudes[int("10000", 2)] == pytest.approx(1.0)

    def test_phase_on_one(self):
        amps = np.zeros(32)
        amps[int("10000", 2)] = 1.0
        signed = apply_pauli(PauliOperator("ZIIII"), PureState(5, amps))
        assert signed.amplitudes[int("10000", 2)] == pytest.approx(-1.0)

    def test_y_convention_on_single_qubit(self):
        up = PureState(1, np.array([1.0, 0.0]))
        down = PureState(1, np.array([0.0, 1.0]))
        np.testing.assert_allclose(
            apply_pauli(PauliOperator("Y"), up).amplitudes, [0.0, 1j], atol=1e-15
        )
        np.testing.assert_allclose(
            apply_pauli(PauliOperator("Y"), down).amplitudes, [-1j, 0.0], atol=1e-15
        )

    def test_weight_counts(self):
        assert PauliOperator("IIIII").weight == 0
        assert PauliOperator("XIYZI").weight == 3

    def test_rejects_bad_letters_and_length(self):
        with pytest.raises(ValueError, match="IXYZ"):
            PauliOperator("ABCDE")
        with pytest.raises(ValueError, match="qubits"):
            apply_pauli(PauliOperator("XI"), encode_classical(0))

    def test_matches_kron_matrices_at_weight_one(self):
        rng = np.random.default_rng(29)
        psi = random_state(rng)
        for pos in range(5):
            for letter in "XYZ":
                letters = "".join(letter if i == pos else "I" for i in range(5))
                expected = pauli_matrix(letters) @ psi.amplitudes
                np.testing.assert_allclose(
                    apply_pauli(PauliOperator(letters), psi).amplitudes,
                    expected,
                    atol=1e-12,
                )

    def test_matches_kron_matrices_at_higher_weights(self):
        rng = np.random.default_rng(37)
        psi = random_state(rng)
        letters_pool = list(itertools.product("IXYZ", repeat=5))
        for _ in range(40):
            letters = "".join(letters_pool[rng.integers(len(letters_pool))])
            expected = pauli_matrix(letters) @ psi.amplitudes
            np.testing.assert_allclose(
                apply_pauli(PauliOperator(letters), psi).amplitudes,
                expected,
                atol=1e-12,
            )

    def test_xz_operators_are_involutions(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            letters = "".join(rng.choice(list("IXZ")) for _ in range(5))
            psi = random_state(rng)
            op = PauliOperator(letters)
            twice = apply_pauli(op, apply_pauli(op, psi))
            np.testing.assert_allclose(twice.amplitudes, psi.amplitudes, atol=1e-12)

    def test_norm_preserved(self):
        rng = np.random.default_rng(47)
        psi = random_state(rng)
        out = apply_pauli(PauliOperator("XYZXY"), psi)
        assert np.vdot(out.amplitudes, out.amplitudes).real == pytest.approx(1.0, abs=1e-12)


class TestVerifyDistance:
    def test_weights_one_and_two_are_clean(self):
        report = verify_distance(2)
        for check in report.checks:
            assert check.max_off_diagonal <= 1e-9
            assert check.max_diagonal_difference <= 1e-9
            assert check.violations == 0
        assert report.certified_distance is None
        assert report.passes_through_weight(2)

    def test_operator_counts(self):
        report = verify_distance(3)
        assert [c.operators_checked for c in report.checks] == [15, 90, 270]

    def test_weight_three_certifies_distance(self):
        report = verify_distance(3)
        assert report.certified_distance == 3
        last = report.checks[-1]
        assert last.violations == 30
        assert last.first_violation == "XYXII"
        assert max(last.max_off_diagonal, last.max_diagonal_difference) > 1e-9

    def test_full_scan_violation_profile(self):
        report = verify_distance(5)
        assert [c.violations for c in report.checks] == [0, 0, 30, 0, 18]
        assert report.certified_distance == 3

    @pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), -1e-9])
    def test_rejects_bad_tolerance(self, tolerance):
        with pytest.raises(ValueError, match="tolerance"):
            verify_distance(3, tolerance=tolerance)

    def test_rejects_out_of_range_weight(self):
        with pytest.raises(ValueError, match="1..5"):
            verify_distance(0)
        with pytest.raises(ValueError, match="1..5"):
            verify_distance(6)

    def test_violations_agree_with_kron_oracle_at_weight_three(self):
        w0, w1 = encode_classical(0), encode_classical(1)
        oracle_violations = 0
        for positions in itertools.combinations(range(5), 3):
            for letters in itertools.product("XYZ", repeat=3):
                full = ["I"] * 5
                for pos, letter in zip(positions, letters):
                    full[pos] = letter
                matrix = pauli_matrix("".join(full))
                off = abs(np.vdot(w0.amplitudes, matrix @ w1.amplitudes))
                diag = abs(
                    np.vdot(w0.amplitudes, matrix @ w0.amplitudes)
                    - np.vdot(w1.amplitudes, matrix @ w1.amplitudes)
                )
                if off > 1e-9 or diag > 1e-9:
                    oracle_violations += 1
        report = verify_distance(3)
        assert report.checks[-1].violations == oracle_violations
