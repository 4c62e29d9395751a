"""Tests for Holevo analysis, subset classification and reconstruction."""

import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qsslab import access_analysis
from qsslab.access_analysis import (
    Classification,
    SecretPrior,
    UnqualifiedSubsetError,
    _recovery_kraus,
    access_structure_report,
    classify_subset,
    codeword_reductions,
    holevo_information,
    reconstruct_classical,
    reconstruct_quantum,
)
from qsslab.code5 import QubitSecret, encode_classical, encode_quantum
from qsslab.quantum_core import (
    DensityMatrix,
    PureState,
    all_nonempty_subsets,
    hermitian_eig,
    reduced_state,
    share_block,
)
from qsslab.tolerances import PSD_ATOL, VERDICT_ATOL

PRIORS = [SecretPrior(0.5, 0.5), SecretPrior(0.3, 0.7), SecretPrior(0.01, 0.99)]
#: Every code word on every nonempty subset: 2 x 31 reductions.
CODEWORD_CASES = [(s, members) for members in all_nonempty_subsets(5) for s in (0, 1)]


def binary_entropy(q: float) -> float:
    """H(q) = -q log2 q - (1 - q) log2(1 - q) in bits, with 0 log 0 = 0."""
    return -sum(p * math.log2(p) for p in (q, 1.0 - q) if p > 0)


def random_secret(rng: np.random.Generator) -> QubitSecret:
    a = rng.normal(size=2) + 1j * rng.normal(size=2)
    a /= np.linalg.norm(a)
    return QubitSecret(a[0], a[1])


def eigenbasis_projector(rho: DensityMatrix) -> np.ndarray:
    """Projector onto the eigenvectors of rho with eigenvalue above PSD_ATOL."""
    values, vectors = hermitian_eig(rho.matrix)
    v = vectors[:, values > PSD_ATOL]
    return v @ v.conj().T


class TestSecretPrior:
    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            SecretPrior(-0.1, 1.1)

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum to 1"):
            SecretPrior(0.5, 0.6)

    @pytest.mark.parametrize("q0", [math.nan, math.inf])
    def test_rejects_non_finite(self, q0):
        with pytest.raises(ValueError, match="finite"):
            SecretPrior.from_q0(q0)

    def test_from_q0(self):
        prior = SecretPrior.from_q0(0.3)
        assert prior.q1 == pytest.approx(0.7)

    def test_negative_zero_is_stored_as_zero(self):
        for prior in (SecretPrior.from_q0(-0.0), SecretPrior(1.0, -0.0)):
            assert math.copysign(1.0, prior.q0) == math.copysign(1.0, prior.q1) == 1.0


class TestHolevoInformation:
    def test_two_shares_know_nothing(self):
        assert holevo_information([1, 2]) == pytest.approx(0.0, abs=1e-9)

    def test_single_share_knows_nothing_for_any_prior(self):
        assert holevo_information([4], SecretPrior(0.3, 0.7)) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_three_shares_learn_the_full_bit(self):
        assert holevo_information([1, 2, 3]) == pytest.approx(1.0, abs=1e-9)

    def test_three_shares_learn_prior_entropy(self):
        prior = SecretPrior(0.3, 0.7)
        expected = -(0.3 * math.log2(0.3) + 0.7 * math.log2(0.7))
        assert holevo_information([1, 2, 3], prior) == pytest.approx(expected, abs=1e-9)

    def test_rejects_empty_subset(self):
        with pytest.raises(ValueError, match="nonempty"):
            holevo_information([])


class TestClassification:
    def test_single_share_is_forbidden(self):
        verdict = classify_subset([5])
        assert verdict.classification is Classification.FORBIDDEN
        assert verdict.holevo_bits == pytest.approx(0.0, abs=1e-9)
        assert verdict.trace_dist == pytest.approx(0.0, abs=1e-9)

    def test_three_shares_are_qualified(self):
        verdict = classify_subset([1, 2, 3])
        assert verdict.classification is Classification.QUALIFIED
        assert verdict.trace_dist == pytest.approx(1.0, abs=1e-9)

    def test_full_set_is_qualified(self):
        assert classify_subset([1, 2, 3, 4, 5]).classification is Classification.QUALIFIED


class TestStabilizerVerdictIsTheAuthority:
    """A wrong logical-Z predicate is caught by the dense checks, never obeyed."""

    @pytest.fixture(autouse=True)
    def wrong_predicate(self, monkeypatch):
        # (1, 2, 3) loses its logical Z and (4, 5) gains one.
        monkeypatch.setattr(access_analysis, "holds_logical_z", lambda members: len(members) < 3)

    @pytest.mark.parametrize("members", [(1, 2, 3), (4, 5)])
    def test_classification_disagrees_with_the_dense_values(self, members):
        with pytest.raises(RuntimeError, match=re.escape(f"subset {members}: holevo=")):
            classify_subset(members)

    def test_quantum_reconstruction_refuses_a_set_without_logical_z(self):
        rho = reduced_state(encode_classical(0), [1, 2, 3])
        with pytest.raises(UnqualifiedSubsetError, match="unqualified"):
            reconstruct_quantum([1, 2, 3], rho)

    def test_quantum_reconstruction_checks_the_isometry(self):
        rho = reduced_state(encode_classical(0), [4, 5])
        with pytest.raises(RuntimeError, match="does not correct the loss"):
            reconstruct_quantum([4, 5], rho)


class TestAccessReport:
    def test_uniform_report_is_the_threshold_structure(self):
        report = access_structure_report()
        assert len(report.verdicts) == 31
        for verdict in report.verdicts:
            expected = (
                Classification.QUALIFIED
                if len(verdict.subset) >= 3
                else Classification.FORBIDDEN
            )
            assert verdict.classification is expected
        assert report.is_threshold

    def test_skewed_prior_same_classification_scaled_holevo(self):
        report = access_structure_report(SecretPrior(0.3, 0.7))
        expected_bits = binary_entropy(0.3)
        for verdict in report.verdicts:
            if verdict.classification is Classification.QUALIFIED:
                assert verdict.holevo_bits == pytest.approx(expected_bits, abs=1e-9)
            else:
                assert verdict.holevo_bits == pytest.approx(0.0, abs=1e-9)
        assert report.is_threshold

    def test_degenerate_prior_has_zero_holevo_everywhere(self):
        report = access_structure_report(SecretPrior(1.0, 0.0))
        for verdict in report.verdicts:
            assert verdict.holevo_bits == pytest.approx(0.0, abs=1e-9)
        assert report.is_threshold

    def test_records_are_serializable(self):
        records = access_structure_report().to_records()
        assert len(records) == 31
        assert records[0] == {
            "members": [1],
            "holevo_bits": records[0]["holevo_bits"],
            "trace_dist": records[0]["trace_dist"],
            "classification": "Forbidden",
        }


class TestSecurityProperties:
    def test_holevo_within_bounds_for_all_priors(self):
        for prior in PRIORS:
            bound = binary_entropy(prior.q0)
            for subset in all_nonempty_subsets(5):
                value = holevo_information(subset, prior)
                assert -1e-9 <= value <= bound + 1e-9

    def test_holevo_monotone_under_adding_shares(self):
        values = {s: holevo_information(s) for s in all_nonempty_subsets(5)}
        for small, small_value in values.items():
            for large, large_value in values.items():
                if set(small) <= set(large):
                    assert small_value <= large_value + 1e-9

    def test_complement_of_qualified_is_forbidden(self):
        full = set(range(1, 6))
        for subset in all_nonempty_subsets(5):
            verdict = classify_subset(subset)
            complement = tuple(sorted(full - set(subset)))
            if verdict.classification is Classification.QUALIFIED and complement:
                assert holevo_information(complement) <= 1e-9

    def test_perfectness_dichotomy(self):
        for subset in all_nonempty_subsets(5):
            verdict = classify_subset(subset)
            assert verdict.trace_dist <= 1e-9 or verdict.trace_dist >= 1 - 1e-9

    def test_classification_is_prior_independent(self):
        baseline = [classify_subset(s).classification for s in all_nonempty_subsets(5)]
        for prior in PRIORS[1:]:
            got = [
                classify_subset(s, prior).classification
                for s in all_nonempty_subsets(5)
            ]
            assert got == baseline

    def test_superposition_secrecy_on_small_subsets(self):
        rng = np.random.default_rng(59)
        small = [s for s in all_nonempty_subsets(5) if len(s) <= 2]
        baselines = {
            s: reduced_state(encode_quantum(QubitSecret(1.0, 0.0)), s).matrix
            for s in small
        }
        for _ in range(8):
            psi = encode_quantum(random_secret(rng))
            for subset in small:
                np.testing.assert_allclose(
                    reduced_state(psi, subset).matrix, baselines[subset], atol=1e-9
                )


class TestReconstructClassical:
    def test_qualified_subset_recovers_bit_zero(self):
        rho = reduced_state(encode_classical(0), [1, 2, 3])
        result = reconstruct_classical([1, 2, 3], rho)
        assert result.guess == 0
        assert result.success_probability == pytest.approx(1.0, abs=1e-9)
        assert result.support_overlap == pytest.approx(1.0, abs=1e-9)

    def test_qualified_subset_recovers_bit_one(self):
        rho = reduced_state(encode_classical(1), [1, 2, 3, 4, 5])
        result = reconstruct_classical([1, 2, 3, 4, 5], rho)
        assert result.guess == 1
        assert result.success_probability == pytest.approx(1.0, abs=1e-9)

    def test_forbidden_subset_is_chance_level(self):
        for s in (0, 1):
            rho = reduced_state(encode_classical(s), [4, 5])
            result = reconstruct_classical([4, 5], rho)
            assert result.success_probability == pytest.approx(0.5, abs=1e-9)

    def test_forbidden_subset_with_skewed_prior_guesses_majority(self):
        rho = reduced_state(encode_classical(1), [4, 5])
        result = reconstruct_classical([4, 5], rho, SecretPrior(0.3, 0.7))
        assert result.guess == 1
        assert result.success_probability == pytest.approx(0.7, abs=1e-9)

    @pytest.mark.parametrize("prior, success", [((0.7, 0.3), 0.7), ((0.5, 0.5), 0.5)], ids=["majority-0", "tie"])
    def test_forbidden_subset_guesses_0_on_majority_or_tie(self, prior, success):
        # rho0^J = rho1^J: the measurement reads nothing, so the prior decides.
        for s in (0, 1):
            rho = reduced_state(encode_classical(s), [4, 5])
            result = reconstruct_classical([4, 5], rho, SecretPrior(*prior))
            assert result.guess == 0
            assert result.success_probability == success

    def test_full_set_success_is_exactly_one(self):
        rho = reduced_state(encode_classical(0), [1, 2, 3, 4, 5])
        assert reconstruct_classical([1, 2, 3, 4, 5], rho).success_probability == 1.0

    def test_wrong_logical_z_class_fails_the_helstrom_check(self, monkeypatch):
        monkeypatch.setattr(access_analysis, "holds_logical_z", lambda members: len(members) < 3)
        for members in ([1, 2, 3], [4, 5]):
            rho = reduced_state(encode_classical(0), members)
            with pytest.raises(RuntimeError, match="disagrees with the Helstrom value"):
                reconstruct_classical(members, rho)

    def test_dimension_mismatch(self):
        rho = reduced_state(encode_classical(0), [1])
        with pytest.raises(ValueError, match="dimension"):
            reconstruct_classical([1, 2, 3], rho)


class TestFlatReductionOracle:
    """rho / tr(rho^2) is the support projector of a code word's reduction.

    The oracle is the projector built from the eigensolver's eigenvectors,
    which reconstruct_classical measured before it read the flat reduction.
    """

    @pytest.mark.parametrize("s, members", CODEWORD_CASES)
    def test_flat_reduction_is_the_eigenbasis_projector(self, s, members):
        rho = codeword_reductions(members)[s]
        projector = rho.matrix / np.vdot(rho.matrix, rho.matrix).real
        assert np.array_equal(projector @ projector, projector)
        assert np.trace(projector) == {1: 2, 2: 4, 3: 4, 4: 2, 5: 1}[len(members)]
        np.testing.assert_allclose(projector, eigenbasis_projector(rho), rtol=0, atol=1e-12)

    def test_guess_and_overlap_match_the_eigenbasis_formula(self):
        rng = np.random.default_rng(89)
        subsets = all_nonempty_subsets(5)
        projectors = {j: eigenbasis_projector(codeword_reductions(j)[0]) for j in subsets}
        for _ in range(6):
            psi = encode_quantum(random_secret(rng))
            prior = SecretPrior.from_q0(float(rng.random()))
            for j in subsets:
                rho = reduced_state(psi, j)
                overlap = float(np.real(np.trace(projectors[j] @ rho.matrix)))
                result = reconstruct_classical(j, rho, prior)
                if len(j) >= 3:  # J holds a logical Z: the measurement reads the bit
                    assert result.guess == (0 if overlap >= 0.5 else 1)
                else:  # rho0^J = rho1^J: the prior's majority bit, 0 on a tie
                    assert result.guess == (0 if prior.q0 >= prior.q1 else 1)
                assert abs(result.support_overlap - overlap) <= 1e-12


class TestReconstructQuantum:
    def test_three_share_recovery_of_plus_state(self):
        secret = QubitSecret(1 / np.sqrt(2), 1 / np.sqrt(2))
        rho = reduced_state(encode_quantum(secret), [2, 4, 5])
        result = reconstruct_quantum([2, 4, 5], rho, secret)
        assert result.fidelity == pytest.approx(1.0, abs=1e-9)

    def test_recovered_matrix_is_the_secret_projector(self):
        rng = np.random.default_rng(61)
        secret = random_secret(rng)
        rho = reduced_state(encode_quantum(secret), [1, 3, 5])
        result = reconstruct_quantum([1, 3, 5], rho, secret)
        target = secret.amplitudes()
        np.testing.assert_allclose(
            result.recovered.matrix, np.outer(target, target.conj()), atol=1e-9
        )

    def test_full_set_inverts_encoding(self):
        rng = np.random.default_rng(67)
        for _ in range(3):
            secret = random_secret(rng)
            rho = reduced_state(encode_quantum(secret), [1, 2, 3, 4, 5])
            result = reconstruct_quantum([1, 2, 3, 4, 5], rho, secret)
            assert result.fidelity == pytest.approx(1.0, abs=1e-9)

    def test_recovery_without_reference_secret(self):
        rho = reduced_state(encode_classical(0), [1, 2, 4])
        result = reconstruct_quantum([1, 2, 4], rho)
        assert result.fidelity is None
        np.testing.assert_allclose(result.recovered.matrix, np.diag([1.0, 0.0]), atol=1e-9)

    def test_two_shares_raise_unqualified(self):
        rho = reduced_state(encode_classical(0), [1, 2])
        with pytest.raises(UnqualifiedSubsetError, match="unqualified"):
            reconstruct_quantum([1, 2], rho)

    def test_dimension_mismatch(self):
        rho = reduced_state(encode_classical(0), [1, 2])
        with pytest.raises(ValueError, match="dimension"):
            reconstruct_quantum([1, 2, 3], rho)

    def test_recovery_preserves_trace_on_code_inputs(self):
        rng = np.random.default_rng(71)
        secret = random_secret(rng)
        rho = reduced_state(encode_quantum(secret), [3, 4, 5])
        result = reconstruct_quantum([3, 4, 5], rho)
        assert np.trace(result.recovered.matrix).real == pytest.approx(1.0, abs=1e-10)


QUALIFIED_SUBSETS = [j for j in all_nonempty_subsets(5) if len(j) >= 3]


class TestRecoveryAlgebra:
    def test_two_shares_are_not_correctable(self):
        with pytest.raises(RuntimeError, match="does not correct"):
            _recovery_kraus((1, 2))

    @pytest.mark.parametrize("members", QUALIFIED_SUBSETS, ids=str)
    def test_kraus_operators_are_the_isometry_adjoint(self, members):
        # Sum L+ L projects onto the range of W, which has dimension 2E.
        kraus = _recovery_kraus(members)
        lost = 2 ** (5 - len(members))
        assert kraus.shape == (lost, 2, 2 ** len(members))
        assert not kraus.flags.writeable
        projector = np.einsum("eki,ekj->ij", kraus.conj(), kraus)
        np.testing.assert_allclose(projector, projector.conj().T, atol=1e-12)
        np.testing.assert_allclose(projector @ projector, projector, atol=1e-12)
        assert np.trace(projector).real == pytest.approx(2 * lost, abs=1e-12)
        for s, rho in enumerate(codeword_reductions(members)):
            np.testing.assert_allclose(projector @ rho.matrix, rho.matrix, atol=1e-12)
            recovered = (kraus @ rho.matrix @ kraus.conj().transpose(0, 2, 1)).sum(0)
            np.testing.assert_allclose(recovered, np.diag([1.0 - s, s]), atol=1e-12)


class TestCodewordReductions:
    def test_cached_reductions_match_direct_computation(self):
        rho0, rho1 = codeword_reductions([2, 3])
        np.testing.assert_allclose(
            rho0.matrix, reduced_state(encode_classical(0), [2, 3]).matrix, atol=1e-15
        )
        np.testing.assert_allclose(
            rho1.matrix, reduced_state(encode_classical(1), [2, 3]).matrix, atol=1e-15
        )

    def test_mixture_is_a_valid_state(self):
        rho0, rho1 = codeword_reductions([1, 2, 3])
        DensityMatrix(0.5 * rho0.matrix + 0.5 * rho1.matrix)


unit_interval = st.floats(-1.0, 1.0, allow_nan=False)
#: Real and imaginary parts of a 4 x 4 complex matrix, the largest a local
#: unitary on two shares needs.
matrix_entries = st.lists(unit_interval, min_size=32, max_size=32)
SMALL_SUBSETS = [s for s in all_nonempty_subsets(5) if len(s) <= 2]
TRIPLES = [s for s in all_nonempty_subsets(5) if len(s) == 3]
QUALIFIED = [s for s in all_nonempty_subsets(5) if len(s) >= 3]


def unitary(entries: list[float], dim: int) -> np.ndarray:
    """The Q factor of a dim x dim complex matrix: unitary for any entries."""
    z = np.array(entries[: dim * dim]) + 1j * np.array(entries[16 : 16 + dim * dim])
    return np.linalg.qr(z.reshape(dim, dim))[0]


def apply_local(psi: PureState, members: tuple[int, ...], u: np.ndarray) -> PureState:
    """(u on the shares in ``members``) x (identity on the others) applied to psi."""
    others = tuple(q for q in range(1, 6) if q not in members)
    tensor = (u @ share_block(psi, members)).reshape([2] * 5)
    return PureState(5, tensor.transpose(np.argsort([q - 1 for q in members + others])).reshape(-1))


def secret_from(re0: float, im0: float, re1: float, im1: float) -> QubitSecret:
    amps = np.array([complex(re0, im0), complex(re1, im1)])
    norm = np.linalg.norm(amps)
    assume(norm > 1e-6)
    return QubitSecret(*(amps / norm))


class TestRandomSecretProperties:
    """Recovery and secrecy for arbitrary finite qubit secrets."""

    @settings(max_examples=50, deadline=None)
    @given(unit_interval, unit_interval, unit_interval, unit_interval)
    def test_recovery_and_secrecy(self, re0, im0, re1, im1):
        secret = secret_from(re0, im0, re1, im1)
        psi = encode_quantum(secret)
        for subset in all_nonempty_subsets(5):
            state = reduced_state(psi, subset)
            if len(subset) >= 3:
                fidelity = reconstruct_quantum(subset, state, secret).fidelity
                assert abs(fidelity - 1.0) <= 1e-9
            else:
                rho0 = codeword_reductions(subset)[0]
                assert np.max(np.abs(state.matrix - rho0.matrix)) <= 1e-12


class TestLocalUnitaryProperties:
    """A unitary on at most two shares neither reveals nor destroys the secret."""

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(SMALL_SUBSETS), matrix_entries)
    def test_small_subset_sees_the_same_state_for_both_words(self, members, entries):
        u = unitary(entries, 2 ** len(members))
        rho0, rho1 = (
            reduced_state(apply_local(encode_classical(s), members, u), members) for s in (0, 1)
        )
        assert np.max(np.abs(rho0.matrix - rho1.matrix)) <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from(TRIPLES),
        st.integers(1, 3),
        matrix_entries,
        unit_interval, unit_interval, unit_interval, unit_interval,
    )
    def test_other_three_shares_still_recover(self, triple, mask, entries, re0, im0, re1, im1):
        secret = secret_from(re0, im0, re1, im1)
        rest = [q for q in range(1, 6) if q not in triple]
        members = tuple(q for bit, q in enumerate(rest) if mask >> bit & 1)
        psi = apply_local(encode_quantum(secret), members, unitary(entries, 2 ** len(members)))
        fidelity = reconstruct_quantum(triple, reduced_state(psi, triple), secret).fidelity
        assert abs(fidelity - 1.0) <= 1e-9


class TestRandomPriorProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.0, 1.0))
    def test_qualified_holevo_equals_prior_entropy(self, q0):
        prior = SecretPrior.from_q0(q0)
        for members in QUALIFIED:
            assert abs(holevo_information(members, prior) - binary_entropy(q0)) <= VERDICT_ATOL
