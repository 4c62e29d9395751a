"""End-to-end tests of the command-line interface and the state file format."""

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsslab import access_analysis
from qsslab.cli import main, read_state, state_from_document, state_to_document
from qsslab.code5 import encode_classical
from qsslab.quantum_core import DensityMatrix


def run(*argv) -> int:
    return main(list(argv))


class TestStateFormat:
    def test_document_round_trip(self):
        psi = encode_classical(0)
        doc = state_to_document(psi)
        assert doc["format"] == 1
        assert doc["num_qubits"] == 5
        assert len(doc["amplitudes"]) == 32
        back = state_from_document(doc)
        np.testing.assert_allclose(back.amplitudes, psi.amplitudes, atol=0)

    def test_rejects_unknown_format(self):
        doc = state_to_document(encode_classical(0))
        doc["format"] = 99
        with pytest.raises(ValueError, match="format"):
            state_from_document(doc)

    def test_rejects_malformed_document(self):
        with pytest.raises(ValueError, match="malformed"):
            state_from_document({"format": 1, "num_qubits": 5})

    @pytest.mark.parametrize("value", [True, 1.0, "1"])
    def test_format_must_be_an_integer(self, value):
        doc = state_to_document(encode_classical(0))
        doc["format"] = value
        with pytest.raises(ValueError, match="unsupported state format"):
            state_from_document(doc)

    @pytest.mark.parametrize("value", [5.5, 5.0, "5", True, None])
    def test_num_qubits_must_be_an_integer(self, value):
        doc = state_to_document(encode_classical(0))
        doc["num_qubits"] = value
        with pytest.raises(ValueError, match="num_qubits must be an integer"):
            state_from_document(doc)

    @pytest.mark.parametrize("pair", [[True, False], [None, 0.0], ["0.5", 0.0], [1.0, [0.0]]])
    def test_amplitude_parts_must_be_numbers(self, pair):
        doc = {"format": 1, "num_qubits": 1, "amplitudes": [pair, [0.0, 0.0]]}
        with pytest.raises(ValueError, match="amplitude parts must be numbers"):
            state_from_document(doc)

    def test_rejects_integer_amplitude_past_float_range(self):
        doc = {"format": 1, "num_qubits": 1, "amplitudes": [[10**400, 0], [0, 0]]}
        with pytest.raises(ValueError, match="malformed state document"):
            state_from_document(doc)

    def test_boolean_amplitudes_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bool.json"
        path.write_text('{"format": 1, "num_qubits": 1, "amplitudes": [[true, false], [false, false]]}')
        assert run("reconstruct", "--state", str(path), "--members", "1,2,3") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: malformed state document")
        assert captured.err.count("\n") == 1


class TestEncodeCommand:
    def test_encode_writes_valid_state(self, tmp_path):
        out = tmp_path / "state.json"
        assert run("encode", "--secret", "0", "--out", str(out)) == 0
        psi = read_state(str(out))
        np.testing.assert_allclose(
            psi.amplitudes, encode_classical(0).amplitudes, atol=0
        )

    def test_round_trip_is_byte_identical(self, tmp_path):
        out = tmp_path / "state.json"
        run("encode", "--secret", "1", "--out", str(out))
        original = out.read_bytes()
        doc = json.loads(original)
        rewritten = (json.dumps(doc, indent=2) + "\n").encode()
        assert rewritten == original

    def test_encode_quantum_secret(self, tmp_path):
        out = tmp_path / "plus.json"
        value = repr(1 / 2**0.5)
        assert run(
            "encode", "--alpha0", value, "--alpha1", value, "--out", str(out)
        ) == 0
        psi = read_state(str(out))
        assert psi.amplitudes[0] == pytest.approx(0.17677669529663687, abs=1e-12)

    def test_conflicting_inputs_fail(self, tmp_path, capsys):
        assert run("encode", "--secret", "0", "--alpha0", "1", "--alpha1", "0") == 1
        assert "error:" in capsys.readouterr().err

    def test_directory_out_path_fails(self, tmp_path, capsys):
        assert run("encode", "--secret", "0", "--out", str(tmp_path)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {tmp_path}:")
        assert captured.err.count("\n") == 1

    def test_missing_inputs_fail(self):
        assert run("encode") == 1

    def test_overflowing_amplitude_fails(self, capsys):
        assert run("encode", "--alpha0", "1e200", "--alpha1", "0") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: secret is not normalized: |alpha|^2 = inf\n"

    def test_non_finite_amplitude_fails(self, tmp_path, capsys):
        out = tmp_path / "nan.json"
        assert run("encode", "--alpha0", "nan", "--alpha1", "0", "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "finite" in err and err.count("\n") == 1
        assert not out.exists()


class TestReportCommand:
    def test_json_report_structure(self, tmp_path):
        out = tmp_path / "report.json"
        assert run("report", "--prior", "0.5", "--format", "json", "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["is_threshold"] is True
        assert len(doc["subsets"]) == 31
        first = doc["subsets"][0]
        assert set(first) == {"members", "holevo_bits", "trace_dist", "classification"}
        sizes = [len(rec["members"]) for rec in doc["subsets"]]
        classes = [rec["classification"] for rec in doc["subsets"]]
        assert all(
            (c == "Qualified") == (size >= 3) for size, c in zip(sizes, classes)
        )

    def test_report_is_deterministic(self, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        run("report", "--prior", "0.3", "--format", "json", "--out", str(first))
        run("report", "--prior", "0.3", "--format", "json", "--out", str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_csv_report(self, tmp_path):
        out = tmp_path / "report.csv"
        assert run("report", "--format", "csv", "--out", str(out)) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "members,holevo_bits,trace_dist,classification"
        assert len(lines) == 32
        assert lines[1].startswith("1,")
        assert lines[-1].startswith("1;2;3;4;5,")

    def test_table_report(self, capsys):
        assert run("report", "--format", "table") == 0
        text = capsys.readouterr().out
        assert "threshold(3,5) structure: true" in text
        assert "{1,2,3,4,5}" in text

    def test_invalid_prior_fails(self, capsys):
        assert run("report", "--prior", "1.5") == 1
        assert "error:" in capsys.readouterr().err

    def test_nan_prior_fails(self, capsys):
        assert run("report", "--prior", "nan") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "finite" in err and err.count("\n") == 1

    def test_negative_zero_prior_prints_zero(self, capsys):
        assert run("report", "--prior", "-0.0") == 0
        assert "prior: q0=0 q1=1\n" in capsys.readouterr().out

    def test_imperfect_encoding_fails_with_2(self, monkeypatch, capsys):
        # Leak a fraction eps of word 0 into word 1: every qualified subset
        # then sits at trace distance 1 - eps, short of Qualified, while its
        # Holevo information is far from 0. No tolerance is touched.
        eps = 1e-6
        exact = access_analysis.codeword_reductions

        def leaky(j):
            rho0, rho1 = exact(j)
            return rho0, DensityMatrix((1 - eps) * rho1.matrix + eps * rho0.matrix)

        monkeypatch.setattr(access_analysis, "codeword_reductions", leaky)
        assert run("report") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("verification failure: subset (1, 2, 3):")
        assert captured.err.count("\n") == 1

    def test_wrong_logical_z_class_fails_with_2(self, monkeypatch, capsys):
        # Every single share gains a logical Z, which its zero trace distance refutes.
        monkeypatch.setattr(access_analysis, "holds_logical_z", lambda members: len(members) < 3)
        assert run("report") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("verification failure: subset (1,): holevo=")
        assert captured.err.count("\n") == 1

    def test_negative_tolerance_fails_with_2(self, monkeypatch, capsys):
        # A negative tolerance lets no subset agree with its verdict.
        monkeypatch.setattr(access_analysis, "VERDICT_ATOL", -1.0)
        assert run("report", "--prior", "0.5") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("verification failure:")


class TestDistanceCommand:
    def test_expected_distance_passes(self, tmp_path):
        out = tmp_path / "distance.json"
        assert run(
            "distance", "--max-weight", "3", "--expect", "3",
            "--format", "json", "--out", str(out),
        ) == 0
        doc = json.loads(out.read_text())
        assert doc["certified_distance"] == 3
        assert [w["violations"] for w in doc["weights"]] == [0, 0, 30]

    def test_unexpected_distance_fails_with_2(self, capsys):
        assert run("distance", "--max-weight", "2", "--expect", "3") == 2
        assert "verification failed" in capsys.readouterr().err

    def test_table_output(self, capsys):
        assert run("distance", "--max-weight", "2") == 0
        text = capsys.readouterr().out
        assert "no violation up to weight 2" in text

    def test_tolerance_flag_is_refused(self, capsys):
        # The class values are exact: no flag may loosen the certificate.
        with pytest.raises(SystemExit) as exc:
            run("distance", "--tolerance", "2")
        assert exc.value.code == 2
        assert "unrecognized arguments: --tolerance 2" in capsys.readouterr().err


    def test_unparsable_amplitude_fails(self, capsys):
        assert run("encode", "--alpha0=1,2,3", "--alpha1=0") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot parse complex number")
        assert captured.err.count("\n") == 1


class TestReconstructCommand:
    @pytest.fixture()
    def state_file(self, tmp_path):
        path = tmp_path / "s1.json"
        run("encode", "--secret", "1", "--out", str(path))
        return str(path)

    def test_qualified_reconstruction(self, state_file, capsys):
        assert run(
            "reconstruct", "--state", state_file, "--members", "1,2,3",
            "--expect-secret", "1",
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["classical"]["guess"] == 1
        assert doc["classical"]["success_probability"] == pytest.approx(1.0, abs=1e-9)
        assert doc["quantum"]["fidelity"] == pytest.approx(1.0, abs=1e-9)

    def test_classical_only_on_forbidden_subset(self, state_file, capsys):
        assert run(
            "reconstruct", "--state", state_file, "--members", "4,5",
            "--mode", "classical",
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["classical"]["success_probability"] == pytest.approx(0.5, abs=1e-9)
        assert "quantum" not in doc

    def test_full_set_classical_success_is_exactly_one(self, tmp_path, capsys):
        path = tmp_path / "s0.json"
        assert run("encode", "--secret", "0", "--out", str(path)) == 0
        assert run("reconstruct", "--state", str(path), "--members", "1,2,3,4,5", "--mode", "classical") == 0
        classical = json.loads(capsys.readouterr().out)["classical"]
        assert classical["guess"] == 0
        assert classical["success_probability"] == 1.0

    def test_forbidden_subset_guesses_the_prior_majority(self, state_file, capsys):
        assert run(
            "reconstruct", "--state", state_file, "--members", "4,5",
            "--prior", "0.3", "--mode", "classical",
        ) == 0
        classical = json.loads(capsys.readouterr().out)["classical"]
        assert classical["guess"] == 1
        assert classical["success_probability"] == 0.7

    def test_wrong_logical_z_class_fails_with_2(self, state_file, monkeypatch, capsys):
        monkeypatch.setattr(access_analysis, "holds_logical_z", lambda members: len(members) < 3)
        assert run("reconstruct", "--state", state_file, "--members", "1,2,3", "--mode", "classical") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("verification failure: subset (1, 2, 3): success probability ")
        assert captured.err.count("\n") == 1

    def test_quantum_on_forbidden_subset_fails(self, state_file, capsys):
        assert run(
            "reconstruct", "--state", state_file, "--members", "4,5",
            "--mode", "quantum",
        ) == 1
        assert "unqualified" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--expect-alpha0", "1"], "error: --expect-alpha0 and --expect-alpha1 must be given together\n"),
            (
                ["--expect-secret", "1", "--expect-alpha0", "1", "--expect-alpha1", "0"],
                "error: give either --expect-secret or --expect-alpha0/1, not both\n",
            ),
        ],
        ids=["incomplete-pair", "conflicting"],
    )
    def test_classical_mode_checks_expect_flags(self, state_file, capsys, flags, message):
        assert run(
            "reconstruct", "--state", state_file, "--members", "1,2,3",
            "--mode", "classical", *flags,
        ) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message

    @pytest.mark.parametrize("mode", ["quantum", "both"])
    @pytest.mark.parametrize(
        "flags",
        [["--expect-secret", "0"], ["--expect-alpha0", "0.6", "--expect-alpha1", "0,0.8"]],
        ids=["bit", "amplitudes"],
    )
    def test_expected_secret_mismatch_fails_with_2(self, state_file, capsys, mode, flags):
        assert run(
            "reconstruct", "--state", state_file, "--members", "1,2,3", "--mode", mode, *flags,
        ) == 2
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert doc["quantum"]["fidelity"] < 1.0 - 1e-9
        assert captured.err.startswith("verification failed: fidelity ")
        assert captured.err.count("\n") == 1

    def test_expected_amplitudes_match(self, tmp_path, capsys):
        path = tmp_path / "q.json"
        assert run("encode", "--alpha0", "0.6", "--alpha1", "0,0.8", "--out", str(path)) == 0
        assert run(
            "reconstruct", "--state", str(path), "--members", "2,4,5", "--mode", "quantum",
            "--expect-alpha0", "0.6", "--expect-alpha1", "0,0.8",
        ) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["quantum"]["fidelity"] == pytest.approx(1.0, abs=1e-9)
        assert captured.err == ""

    @pytest.mark.parametrize(
        "flags",
        [["--expect-secret", "1"], ["--expect-alpha0", "0", "--expect-alpha1", "1"]],
        ids=["bit", "amplitudes"],
    )
    def test_classical_mode_refuses_an_expected_secret(self, state_file, capsys, flags):
        # Classical mode recovers no state, so nothing could be checked.
        assert run(
            "reconstruct", "--state", state_file, "--members", "1,2,3", "--mode", "classical", *flags,
        ) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --expect-* needs --mode quantum or both")
        assert captured.err.count("\n") == 1

    def test_malformed_state_file_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run("reconstruct", "--state", str(bad), "--members", "1,2,3") == 1
        assert "error:" in capsys.readouterr().err

    def test_deeply_nested_state_file_fails(self, tmp_path, capsys):
        # The JSON decoder raises RecursionError, a RuntimeError, on this file.
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000)
        assert run("reconstruct", "--state", str(path), "--members", "1,2,3") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: state file {path} is nested too deeply")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "field, value",
        [("format", True), ("format", 1.0), ("num_qubits", 5.5), ("num_qubits", "5")],
    )
    def test_non_integer_field_fails(self, tmp_path, capsys, field, value):
        doc = state_to_document(encode_classical(0))
        doc[field] = value
        path = tmp_path / "state.json"
        path.write_text(json.dumps(doc))
        assert run("reconstruct", "--state", str(path), "--members", "1,2,3") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("error:") == 1
        assert captured.err.startswith("error: ")

    def test_overflowing_norm_state_file_fails(self, tmp_path, capsys):
        # |psi|^2 of this file overflows to NaN; it must read as unnormalized.
        path = tmp_path / "huge.json"
        amps = [[1e308, 1e308]] + [[0.0, 0.0]] * 31
        path.write_text(json.dumps({"format": 1, "num_qubits": 5, "amplitudes": amps}))
        assert run("reconstruct", "--state", str(path), "--members", "1,2,3") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: state is not normalized: |psi|^2 = nan"]

    @pytest.mark.parametrize(
        "state, members, message",
        [
            ("missing.json", "1,2,3", "error: cannot read state file "),
            (".", "1,2,3", "error: cannot read state file "),
            (None, "1,a", "error: cannot parse members"),
            (None, "1,1,2", "error: duplicate members"),
        ],
        ids=["missing-file", "directory", "unparsable-members", "duplicate-members"],
    )
    def test_bad_state_path_or_members_fail(self, state_file, tmp_path, capsys, state, members, message):
        path = state_file if state is None else str(tmp_path / state)
        assert run("reconstruct", "--state", path, "--members", members) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(message)
        assert captured.err.count("\n") == 1

    def test_bad_members_fail(self, state_file):
        assert run("reconstruct", "--state", state_file, "--members", "1,9") == 1

    def test_three_qubit_state_file_fails(self, tmp_path, capsys):
        path = tmp_path / "three.json"
        amps = [[1.0, 0.0]] + [[0.0, 0.0]] * 7
        path.write_text(json.dumps({"format": 1, "num_qubits": 3, "amplitudes": amps}))
        assert run("reconstruct", "--state", str(path), "--members", "1,2,3") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "five-qubit" in captured.err

    def test_state_outside_code_space_fails(self, tmp_path, capsys):
        path = tmp_path / "zeros.json"
        amps = [[1.0, 0.0]] + [[0.0, 0.0]] * 31
        path.write_text(json.dumps({"format": 1, "num_qubits": 5, "amplitudes": amps}))
        assert run(
            "reconstruct", "--state", str(path), "--members", "1,2,3",
            "--expect-secret", "0",
        ) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "outside the code space: weight 0.0625" in captured.err

    def test_overflowing_expected_amplitude_fails(self, state_file, capsys):
        assert run(
            "reconstruct", "--state", state_file, "--members", "1,2,3",
            "--expect-alpha0", "1e200", "--expect-alpha1", "0",
        ) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: secret is not normalized: |alpha|^2 = inf\n"

    def test_internal_failure_fails_with_2(self, state_file, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise RuntimeError("recovery failed")

        monkeypatch.setattr(access_analysis, "reconstruct_quantum", fail)
        assert run("reconstruct", "--state", state_file, "--members", "1,2,3") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "verification failure: recovery failed\n"


class TestSearchCommand:
    def test_positive_control_json(self, capsys):
        assert run(
            "search-classical", "--n", "2", "--k", "2", "--max-rand", "2",
            "--format", "json",
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "found"
        assert doc["search"]["witness"]["vectors"] == [[0, 1], [1, 1]]
        assert doc["bound"]["satisfied"] is True

    def test_impossible_case_table(self, capsys):
        assert run(
            "search-classical", "--n", "3", "--k", "2", "--max-rand", "2",
        ) == 0
        text = capsys.readouterr().out
        assert "verdict: none" in text
        assert "violated" in text

    def test_bad_parameters_fail(self, capsys):
        assert run("search-classical", "--n", "7", "--k", "2") == 1
        assert "error:" in capsys.readouterr().err

    def test_out_path_in_missing_directory_fails(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.txt"
        assert run(
            "search-classical", "--n", "2", "--k", "2", "--max-rand", "2", "--out", str(out),
        ) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {out}:")
        assert captured.err.count("\n") == 1
        assert not out.parent.exists()


class TestOutOfRangeArguments:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["distance", "--max-weight", "0"], "error: max_weight must be in 1..5"),
            (["distance", "--max-weight", "6"], "error: max_weight must be in 1..5"),
            (["search-classical", "--n", "5", "--k", "0"], "error: need 1 <= k <= n"),
            (
                ["search-classical", "--n", "5", "--k", "3", "--max-rand", "6"],
                "error: m_max must be in 0..5",
            ),
            (["reconstruct", "--members", "0,1"], "error: members must lie in 1..5"),
            (
                ["reconstruct", "--members", "1,2,3", "--prior", "nan"],
                "error: probabilities must be finite",
            ),
            # An empty --out is refused, not read as "write to stdout".
            (["encode", "--secret", "0", "--out="], "error: cannot write : "),
            (["report", "--out="], "error: cannot write : "),
            (["distance", "--out="], "error: cannot write : "),
            (["search-classical", "--n", "2", "--k", "2", "--max-rand", "2", "--out="], "error: cannot write : "),
            (["reconstruct", "--members", "1,2,3", "--out="], "error: cannot write : "),
        ],
        ids=[
            "weight-0", "weight-6", "k-0", "max-rand-6", "member-0", "nan-prior",
            "empty-out-encode", "empty-out-report", "empty-out-distance", "empty-out-search",
            "empty-out-reconstruct",
        ],
    )
    def test_fails_with_one_error_line(self, tmp_path, capsys, argv, message):
        if argv[0] == "reconstruct":
            path = tmp_path / "s1.json"
            assert run("encode", "--secret", "1", "--out", str(path)) == 0
            argv = argv + ["--state", str(path)]
        assert run(*argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(message)
        assert captured.err.count("\n") == 1


class TestDoubleDashValue:
    """argparse reads a value of "--" as an empty list; main refuses it."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["report", "--prior=--"],
            ["distance", "--max-weight=--"],
            ["search-classical", "--n", "3", "--k=--"],
            ["encode", "--alpha0=--", "--alpha1=0"],
            ["encode", "--secret", "0", "--out=--"],
            ["reconstruct", "--state=--", "--members", "1,2,3"],
            ["reconstruct", "--state", "s1.json", "--members=--"],
        ],
        ids=["prior", "max-weight", "k", "alpha0", "out", "state", "members"],
    )
    def test_fails_with_one_error_line(self, tmp_path, capsys, argv):
        path = tmp_path / "s1.json"
        assert run("encode", "--secret", "1", "--out", str(path)) == 0
        argv = [str(path) if arg == "s1.json" else arg for arg in argv]
        assert run(*argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --")
        assert captured.err.endswith(' cannot take the value "--"\n')
        assert captured.err.count("\n") == 1


#: Values no flag should turn into a traceback.
HOSTILE = ("nan", "-nan", "inf", "-inf", "1e400", "1_0", "٣", "1,,2", "", "--", "-1")
#: Paths in the fuzz directory, marked with "@": state files good and bad,
#: and --out paths of which only the first is writable. "" and "--" are the
#: only other values these flags get, so nothing is written outside it.
STATE_PATHS = (
    "@s0.json", "@s1.json", "@plus.json", "@missing.json", "@out", "@notjson.json",
    "@empty.json", "@list.json", "@three.json", "@outside.json", "@nested.json", "", "--",
)
OUT_PATHS = ("@out/result.txt", "@out", "@missing/x.txt", "@s0.json/x.txt", "", "--")
#: Each subcommand's flags with values that are valid or nearly so.
FLAGS = {
    "encode": {
        "--secret": ("0", "1"),
        "--alpha0": ("0.6", "0,0.8", "1", "0", "1e200"),
        "--alpha1": ("0.8", "0,0.8", "0", "1"),
        "--out": OUT_PATHS,
    },
    "report": {
        "--prior": ("0.3", "0.5", "-0.0", "1", "2"),
        "--format": ("json", "table", "csv"),
        "--out": OUT_PATHS,
    },
    "distance": {
        "--max-weight": ("1", "2", "3", "5", "6"),
        "--expect": ("2", "3", "4"),
        "--format": ("json", "table"),
        "--out": OUT_PATHS,
    },
    "reconstruct": {
        "--state": STATE_PATHS,
        "--members": ("1,2,3", "2,4,5", "4,5", "1,2,3,4,5", "0,1", "1,1,2", "1,9"),
        "--prior": ("0.3", "0.5", "1"),
        "--mode": ("classical", "quantum", "both"),
        "--expect-secret": ("0", "1"),
        "--expect-alpha0": ("0.6", "1", "1e200"),
        "--expect-alpha1": ("0,0.8", "0"),
        "--out": OUT_PATHS,
    },
    "search-classical": {
        # n <= 3 keeps every search within milliseconds.
        "--n": ("1", "2", "3"),
        "--k": ("1", "2", "3", "4"),
        "--max-rand": ("0", "2", "5", "6"),
        "--no-prune": (None,),
        "--format": ("json", "table"),
        "--out": OUT_PATHS,
    },
}
REQUIRED = {"--state", "--members", "--n", "--k"}


@st.composite
def argvs(draw) -> list[str]:
    command = draw(st.sampled_from(sorted(FLAGS)))
    flags = FLAGS[command]
    chosen = draw(st.lists(st.sampled_from(sorted(flags)), unique=True))
    # Required flags nine times in ten, so most argvs get past argparse.
    chosen += [f for f in sorted(REQUIRED & (set(flags) - set(chosen))) if draw(st.integers(0, 9))]
    argv = [command]
    for flag in chosen:
        if flags[flag] == (None,):
            argv.append(flag)
            continue
        # Other flags get a hostile value one time in three.
        hostile = flag not in ("--out", "--state") and draw(st.integers(0, 2)) == 0
        value = draw(st.sampled_from(HOSTILE if hostile else flags[flag]))
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    return argv


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "out").mkdir()
    for s in (0, 1):
        (root / f"s{s}.json").write_text(json.dumps(state_to_document(encode_classical(s))))
    assert main(["encode", "--alpha0", "0.6", "--alpha1", "0,0.8", "--out", str(root / "plus.json")]) == 0
    (root / "notjson.json").write_text("{not json")
    (root / "empty.json").write_text("")
    (root / "list.json").write_text("[]")
    amps = [[1.0, 0.0]] + [[0.0, 0.0]] * 7
    (root / "three.json").write_text(json.dumps({"format": 1, "num_qubits": 3, "amplitudes": amps}))
    amps = [[1.0, 0.0]] + [[0.0, 0.0]] * 31
    (root / "outside.json").write_text(json.dumps({"format": 1, "num_qubits": 5, "amplitudes": amps}))
    (root / "nested.json").write_text("[" * 200_000)
    return root


@settings(max_examples=200, deadline=None)
@given(argv=argvs())
def test_every_argv_exits_cleanly(fuzz_dir, argv):
    # No traceback: argparse's usage errors exit 2 with a usage line, and
    # every other failure prints exactly one line, error: or verification fail.
    argv = [arg.replace("@", f"{fuzz_dir}{os.sep}") for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2
            assert err.getvalue().startswith("usage: qsslab")
            return
    lines = err.getvalue().splitlines(keepends=True)
    if code == 0:
        assert lines == []
    elif code == 1:
        assert out.getvalue() == ""
        assert len(lines) == 1 and lines[0].startswith("error: ") and lines[0].endswith("\n")
    else:
        assert code == 2
        assert len(lines) == 1 and lines[0].startswith("verification fail") and lines[0].endswith("\n")
