"""Tests for the five-qubit code: code words, encoding, Pauli action, distance.

The code words derived from the stabilizer generators are checked against
the textbook amplitude tables below. Pauli operators are cross-checked
against explicit 32x32 matrices built with np.kron, an entirely separate
route from the bit-twiddling kernel.
"""

import itertools

import numpy as np
import pytest

from qsslab.code5 import (
    QubitSecret,
    _pauli_action,
    encode_classical,
    encode_quantum,
    verify_distance,
)
from qsslab.quantum_core import PureState, all_nonempty_subsets, reduced_state

#: Textbook (bit string, sign) terms of the code words for bits 0 and 1,
#: each with amplitude sign/4.
WORD_TERMS = (
    (
        ("00000", +1), ("10010", +1), ("01001", +1), ("10100", +1),
        ("01010", +1), ("11011", -1), ("00110", -1), ("11000", -1),
        ("11101", -1), ("00011", -1), ("11110", -1), ("01111", -1),
        ("10001", -1), ("01100", -1), ("10111", -1), ("00101", +1),
    ),
    (
        ("11111", +1), ("01101", +1), ("10110", +1), ("01011", +1),
        ("10101", +1), ("00100", -1), ("11001", -1), ("00111", -1),
        ("00010", -1), ("11100", -1), ("00001", -1), ("10000", -1),
        ("01110", -1), ("10011", -1), ("01000", -1), ("11010", +1),
    ),
)

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


def table_word(s: int) -> np.ndarray:
    amps = np.zeros(32, dtype=complex)
    for bits, sign in WORD_TERMS[s]:
        amps[int(bits, 2)] = sign * 0.25
    return amps


def act(letters: str, amplitudes: np.ndarray) -> np.ndarray:
    return _pauli_action([letters], amplitudes)[0]


def random_state(rng: np.random.Generator, num_qubits: int = 5) -> PureState:
    amps = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    return PureState(num_qubits, amps / np.linalg.norm(amps))


def random_secret(rng: np.random.Generator) -> QubitSecret:
    a = rng.normal(size=2) + 1j * rng.normal(size=2)
    a /= np.linalg.norm(a)
    return QubitSecret(a[0], a[1])


class TestDerivedWords:
    """The words derived from the generators against the textbook tables."""

    @pytest.mark.parametrize("s", [0, 1])
    def test_bit_identical_to_table(self, s):
        # tobytes() also tells -0.0 from 0.0, which array equality does not.
        assert encode_classical(s).amplitudes.tobytes() == table_word(s).tobytes()

    @pytest.mark.parametrize("s", [0, 1])
    def test_sixteen_terms_of_plus_minus_quarter(self, s):
        amps = encode_classical(s).amplitudes
        terms = amps[amps != 0]
        assert terms.size == 16
        assert set(terms.tolist()) <= {0.25, -0.25}

    def test_supports_are_disjoint(self):
        w0, w1 = encode_classical(0).amplitudes, encode_classical(1).amplitudes
        assert not np.any((w0 != 0) & (w1 != 0))


class TestCodeWordsAgainstStabilizers:
    """The code words against the code's defining operators.

    The stabilizer group of the five-qubit code is generated by the cyclic
    shifts of XZZXI (Laflamme et al. 1996); ZZZZZ and XXXXX act as the
    logical Z and X. The operators are built with np.kron, not with the
    kernel that derives the words.
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

    @pytest.mark.parametrize("alpha0", [1e200, complex(0.0, 1e200)])
    def test_rejects_overflowing_secret(self, alpha0):
        # |alpha0|^2 overflows to inf, which is not within NORM_ATOL of 1.
        with pytest.raises(ValueError, match=r"^secret is not normalized: \|alpha\|\^2 = inf$"):
            QubitSecret(alpha0, 0.0)

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


class TestPauliAction:
    def test_identity(self):
        psi = encode_classical(0)
        np.testing.assert_allclose(act("IIIII", psi.amplitudes), psi.amplitudes, atol=1e-15)

    def test_single_bit_flip(self):
        zero = np.zeros(32, dtype=complex)
        zero[0] = 1.0
        assert act("XIIII", zero)[int("10000", 2)] == pytest.approx(1.0)

    def test_phase_on_one(self):
        amps = np.zeros(32, dtype=complex)
        amps[int("10000", 2)] = 1.0
        assert act("ZIIII", amps)[int("10000", 2)] == pytest.approx(-1.0)

    def test_y_convention_on_single_qubit(self):
        up = np.array([1.0, 0.0], dtype=complex)
        down = np.array([0.0, 1.0], dtype=complex)
        np.testing.assert_allclose(act("Y", up), [0.0, 1j], atol=1e-15)
        np.testing.assert_allclose(act("Y", down), [-1j, 0.0], atol=1e-15)

    def test_matches_kron_matrices_at_weight_one(self):
        rng = np.random.default_rng(29)
        psi = random_state(rng)
        for pos in range(5):
            for letter in "XYZ":
                letters = "".join(letter if i == pos else "I" for i in range(5))
                expected = pauli_matrix(letters) @ psi.amplitudes
                np.testing.assert_allclose(act(letters, psi.amplitudes), expected, atol=1e-12)

    def test_matches_kron_matrices_at_higher_weights(self):
        # All 40 operators in one call, one output row each, as the scan uses it.
        rng = np.random.default_rng(37)
        psi = random_state(rng)
        letters_pool = list(itertools.product("IXYZ", repeat=5))
        ops = ["".join(letters_pool[rng.integers(len(letters_pool))]) for _ in range(40)]
        rows = _pauli_action(ops, psi.amplitudes)
        for letters, row in zip(ops, rows):
            np.testing.assert_allclose(row, pauli_matrix(letters) @ psi.amplitudes, atol=1e-12)

    def test_xz_operators_are_involutions(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            letters = "".join(rng.choice(list("IXZ")) for _ in range(5))
            psi = random_state(rng)
            twice = act(letters, act(letters, psi.amplitudes))
            np.testing.assert_allclose(twice, psi.amplitudes, atol=1e-12)

    def test_norm_preserved(self):
        rng = np.random.default_rng(47)
        psi = random_state(rng)
        out = act("XYZXY", psi.amplitudes)
        assert np.vdot(out, out).real == pytest.approx(1.0, abs=1e-12)


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
