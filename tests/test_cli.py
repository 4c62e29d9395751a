"""End-to-end tests of the command-line interface and the state file format."""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsslab import access_analysis, cli
from qsslab.cli import main, read_state, state_from_document, state_to_document
from qsslab.code5 import encode_classical
from qsslab.quantum_core import DensityMatrix

from cli_contract import check_exit

#: stdout of ``distance --max-weight 2``, recorded for the benchmark; only read here.
DISTANCE_W2 = Path(__file__).resolve().parent.parent / "perfbench" / "goldens" / "distance_w2.table"


def run(*argv) -> int:
    return main(list(argv))


def checked(capsys, *argv) -> tuple[int, str, str]:
    """Run ``main`` on ``argv`` and check the exit contract: the code, stdout and the one stderr line."""
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, check_exit(code, captured.out, captured.err)


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
        code, out, line = checked(capsys, "report")
        assert (code, out) == (2, "")
        assert line.startswith("verification failure: subset (1, 2, 3):")

    def test_wrong_logical_z_class_fails_with_2(self, monkeypatch, capsys):
        # Every single share gains a logical Z, which its zero trace distance refutes.
        monkeypatch.setattr(access_analysis, "holds_logical_z", lambda members: len(members) < 3)
        code, out, line = checked(capsys, "report")
        assert (code, out) == (2, "")
        assert line.startswith("verification failure: subset (1,): holevo=")

    def test_negative_tolerance_fails_with_2(self, monkeypatch, capsys):
        # A negative tolerance lets no subset agree with its verdict.
        monkeypatch.setattr(access_analysis, "VERDICT_ATOL", -1.0)
        code, out, line = checked(capsys, "report", "--prior", "0.5")
        assert (code, out) == (2, "")
        assert line.startswith("verification failure:")


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
        # The full table is written before the failed check is reported.
        assert run("distance", "--max-weight", "2", "--expect", "3") == 2
        captured = capsys.readouterr()
        assert captured.out.encode("utf-8") == DISTANCE_W2.read_bytes()
        assert captured.err == "verification failed: certified distance None != expected 3\n"

    def test_unexpected_distance_still_writes_out_file(self, tmp_path, capsys):
        out = tmp_path / "distance.table"
        code, stdout, line = checked(capsys, "distance", "--max-weight", "2", "--expect", "3", "--out", str(out))
        assert (code, stdout) == (2, "") and line.startswith("verification failed: ")
        assert out.read_bytes() == DISTANCE_W2.read_bytes()

    def test_table_output(self, capsys):
        assert run("distance", "--max-weight", "2") == 0
        text = capsys.readouterr().out
        assert "no violation up to weight 2" in text


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
        code, out, line = checked(capsys, "reconstruct", "--state", state_file, "--members", "1,2,3", "--mode", "classical")
        assert (code, out) == (2, "")
        assert line.startswith("verification failure: subset (1, 2, 3): success probability ")

    @pytest.mark.parametrize("mode", ["quantum", "both"])
    @pytest.mark.parametrize(
        "flags",
        [["--expect-secret", "0"], ["--expect-alpha0", "0.6", "--expect-alpha1", "0,0.8"]],
        ids=["bit", "amplitudes"],
    )
    def test_expected_secret_mismatch_fails_with_2(self, state_file, capsys, mode, flags):
        code, out, line = checked(capsys, "reconstruct", "--state", state_file, "--members", "1,2,3", "--mode", mode, *flags)
        assert code == 2
        assert json.loads(out)["quantum"]["fidelity"] < 1.0 - 1e-9
        assert line.startswith("verification failed: fidelity ")

    def test_expected_amplitudes_match(self, tmp_path, capsys):
        path = tmp_path / "q.json"
        assert run("encode", "--alpha0", "0.6", "--alpha1", "0,0.8", "--out", str(path)) == 0
        code, out, _ = checked(
            capsys, "reconstruct", "--state", str(path), "--members", "2,4,5", "--mode", "quantum",
            "--expect-alpha0", "0.6", "--expect-alpha1", "0,0.8",
        )
        assert code == 0
        assert json.loads(out)["quantum"]["fidelity"] == pytest.approx(1.0, abs=1e-9)

    def test_internal_failure_fails_with_2(self, state_file, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise RuntimeError("recovery failed")

        monkeypatch.setattr(access_analysis, "reconstruct_quantum", fail)
        code, out, line = checked(capsys, "reconstruct", "--state", state_file, "--members", "1,2,3")
        assert (code, out, line) == (2, "", "verification failure: recovery failed\n")


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


class TestStdoutWrite:
    """A failed write to stdout is one error line and exit 1, not a traceback."""

    def test_closed_pipe(self):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        err = io.StringIO()
        with redirect_stdout(ClosedPipe()), redirect_stderr(err):
            code = main(["encode", "--secret", "0"])
        assert (code, check_exit(code, "", err.getvalue())) == (1, "error: cannot write <stdout>: [Errno 32] Broken pipe\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
    def test_full_device(self):
        # A new interpreter with buffered stdout, as a shell gives it, so a
        # second failure when it flushes at exit would show too.
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        env.pop("PYTHONUNBUFFERED", None)
        with open("/dev/full", "w") as full:
            result = subprocess.run(
                [sys.executable, "-m", "qsslab", "encode", "--secret", "0"],
                stdout=full, stderr=subprocess.PIPE, text=True, env=env,
            )
        line = check_exit(result.returncode, "", result.stderr)
        assert (result.returncode, line) == (1, "error: cannot write <stdout>: [Errno 28] No space left on device\n")


#: Values no flag should turn into a traceback.
HOSTILE = ("nan", "-nan", "inf", "-inf", "1e400", "1_0", "٣", "1,,2", "", "--", "-1")
#: Paths in the fuzz directory, marked with "@": state files good and bad,
#: and --out paths of which only the first is writable. "" and "--" are the
#: only other values these flags get, so nothing is written outside it.
STATE_PATHS = (
    "@s0.json", "@s1.json", "@plus.json", "@missing.json", "@out", "@notjson.json",
    "@empty.json", "@list.json", "@three.json", "@outside.json", "@nested.json", "@latin1.json",
    "@bool.json", "@huge.json", "@format-true.json", "@format-float.json", "@qubits-float.json",
    "@qubits-str.json", "@qubits-true.json", "", "--",
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
    (root / "nested.json").write_text("[" * 200_000)
    (root / "latin1.json").write_bytes(b"\xff\xfe{}")
    documents = {
        "three": {"format": 1, "num_qubits": 3, "amplitudes": [[1.0, 0.0]] + [[0.0, 0.0]] * 7},
        "outside": {"format": 1, "num_qubits": 5, "amplitudes": [[1.0, 0.0]] + [[0.0, 0.0]] * 31},
        "bool": {"format": 1, "num_qubits": 1, "amplitudes": [[True, False], [False, False]]},
        # |psi|^2 of this state overflows to NaN.
        "huge": {"format": 1, "num_qubits": 5, "amplitudes": [[1e308, 1e308]] + [[0.0, 0.0]] * 31},
    }
    for name, field, value in [
        ("format-true", "format", True), ("format-float", "format", 1.0),
        ("qubits-float", "num_qubits", 5.5), ("qubits-str", "num_qubits", "5"), ("qubits-true", "num_qubits", True),
    ]:
        documents[name] = {**state_to_document(encode_classical(0)), field: value}
    for name, doc in documents.items():
        (root / f"{name}.json").write_text(json.dumps(doc))
    return root


#: (argv, exit code, message) for each failure a command must report. The
#: message starts the one stderr line; one ending in a newline is the whole
#: line. "@" stands for the fuzz directory in both argv and message.
FAILURES = [
    # encode
    (["encode"], 1, "error: encode needs --secret or --alpha0/--alpha1\n"),
    (["encode", "--secret", "0", "--alpha0", "1", "--alpha1", "0"], 1, "error: give either --secret or --alpha0/1, not both\n"),
    (["encode", "--alpha0", "1e200", "--alpha1", "0"], 1, "error: secret is not normalized: |alpha|^2 = inf\n"),
    (
        ["encode", "--alpha0", "nan", "--alpha1", "0", "--out", "@nan.json"], 1,
        "error: secret amplitudes must be finite: QubitSecret(alpha0=(nan+0j), alpha1=0j)\n",
    ),
    (["encode", "--alpha0=1,2,3", "--alpha1=0"], 1, "error: cannot parse complex number from '1,2,3' (use 're' or 're,im')\n"),
    (["encode", "--secret", "0", "--out", "@out"], 1, "error: cannot write @out: "),
    # report
    (["report", "--prior", "1.5"], 1, "error: probabilities must be nonnegative: SecretPrior(q0=1.5, q1=-0.5)\n"),
    (["report", "--prior", "nan"], 1, "error: probabilities must be finite: SecretPrior(q0=nan, q1=nan)\n"),
    # distance; no flag may loosen the certificate, and a usage error exits 1
    (["distance", "--tolerance", "2"], 1, "error: unrecognized arguments: --tolerance 2\n"),
    (["distance", "--max-weight", "0"], 1, "error: max_weight must be in 1..5, got 0\n"),
    (["distance", "--max-weight", "6"], 1, "error: max_weight must be in 1..5, got 6\n"),
    (["distance", "--max-weight", "2", "--expect", "3"], 2, "verification failed: certified distance None != expected 3\n"),
    # search-classical
    (["search-classical", "--n", "7", "--k", "2"], 1, "error: n must be in 1..5, got 7\n"),
    (["search-classical", "--n", "5", "--k", "0"], 1, "error: need 1 <= k <= n, got k=0\n"),
    (["search-classical", "--n", "5", "--k", "3", "--max-rand", "6"], 1, "error: m_max must be in 0..5, got 6\n"),
    (["search-classical", "--n", "2", "--k", "2", "--max-rand", "2", "--out", "@missing/x.txt"], 1, "error: cannot write @missing/x.txt: "),
    # reconstruct: members and expected secrets
    (["reconstruct", "--state", "@s1.json", "--members", "1,a"], 1, "error: cannot parse members from '1,a'\n"),
    (["reconstruct", "--state", "@s1.json", "--members", "1,,2,3"], 1, "error: cannot parse members from '1,,2,3'\n"),
    (["reconstruct", "--state", "@s1.json", "--members", ",1,2,3,"], 1, "error: cannot parse members from ',1,2,3,'\n"),
    (["reconstruct", "--state", "@s1.json", "--members", "1,1,2"], 1, "error: duplicate members in (1, 1, 2)\n"),
    (["reconstruct", "--state", "@s1.json", "--members", "1,9"], 1, "error: members must lie in 1..5, got (1, 9)\n"),
    (["reconstruct", "--state", "@s1.json", "--members", "0,1"], 1, "error: members must lie in 1..5, got (0, 1)\n"),
    (
        ["reconstruct", "--state", "@s1.json", "--members", "4,5", "--mode", "quantum"], 1,
        "error: subset (4, 5) is unqualified: reconstruction is impossible\n",
    ),
    (
        ["reconstruct", "--state", "@s1.json", "--members", "1,2,3", "--prior", "nan"], 1,
        "error: probabilities must be finite: SecretPrior(q0=nan, q1=nan)\n",
    ),
    (
        ["reconstruct", "--state", "@s1.json", "--members", "1,2,3", "--mode", "classical", "--expect-alpha0", "1"], 1,
        "error: --expect-alpha0 and --expect-alpha1 must be given together\n",
    ),
    (
        ["reconstruct", "--state", "@s1.json", "--members", "1,2,3", "--mode", "classical",
         "--expect-secret", "1", "--expect-alpha0", "1", "--expect-alpha1", "0"], 1,
        "error: give either --expect-secret or --expect-alpha0/1, not both\n",
    ),
    *(
        (
            ["reconstruct", "--state", "@s1.json", "--members", "1,2,3", "--mode", "classical", *flags], 1,
            "error: --expect-* needs --mode quantum or both: classical mode recovers no state to check\n",
        )
        for flags in (["--expect-secret", "1"], ["--expect-alpha0", "0", "--expect-alpha1", "1"])
    ),
    (
        ["reconstruct", "--state", "@s1.json", "--members", "1,2,3", "--expect-alpha0", "1e200", "--expect-alpha1", "0"], 1,
        "error: secret is not normalized: |alpha|^2 = inf\n",
    ),
    (["reconstruct", "--state", "@s1.json", "--members", "1,2,3", "--expect-secret", "0"], 2, "verification failed: fidelity 0 < 1 - 1e-09\n"),
    # reconstruct: state files
    (["reconstruct", "--state", "@missing.json", "--members", "1,2,3"], 1, "error: cannot read state file @missing.json: "),
    (["reconstruct", "--state", "@.", "--members", "1,2,3"], 1, "error: cannot read state file @.: "),
    (
        ["reconstruct", "--state", "@notjson.json", "--members", "1,2,3"], 1,
        "error: state file @notjson.json is not valid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)\n",
    ),
    (
        ["reconstruct", "--state", "@latin1.json", "--members", "1,2,3"], 1,
        "error: state file @latin1.json is not UTF-8: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n",
    ),
    # The JSON decoder raises RecursionError, a RuntimeError, on this file.
    (["reconstruct", "--state", "@nested.json", "--members", "1,2,3"], 1, "error: state file @nested.json is nested too deeply: "),
    (["reconstruct", "--state", "@format-true.json", "--members", "1,2,3"], 1, "error: unsupported state format: True\n"),
    (["reconstruct", "--state", "@format-float.json", "--members", "1,2,3"], 1, "error: unsupported state format: 1.0\n"),
    (
        ["reconstruct", "--state", "@qubits-float.json", "--members", "1,2,3"], 1,
        "error: malformed state document: num_qubits must be an integer, got 5.5\n",
    ),
    (
        ["reconstruct", "--state", "@qubits-str.json", "--members", "1,2,3"], 1,
        "error: malformed state document: num_qubits must be an integer, got '5'\n",
    ),
    (
        ["reconstruct", "--state", "@qubits-true.json", "--members", "1,2,3"], 1,
        "error: malformed state document: num_qubits must be an integer, got True\n",
    ),
    (
        ["reconstruct", "--state", "@bool.json", "--members", "1,2,3"], 1,
        "error: malformed state document: amplitude parts must be numbers\n",
    ),
    (["reconstruct", "--state", "@huge.json", "--members", "1,2,3"], 1, "error: state is not normalized: |psi|^2 = nan\n"),
    (["reconstruct", "--state", "@three.json", "--members", "1,2,3"], 1, "error: reconstruct needs a five-qubit state, @three.json holds 3\n"),
    (
        ["reconstruct", "--state", "@outside.json", "--members", "1,2,3", "--expect-secret", "0"], 1,
        "error: @outside.json lies outside the code space: weight 0.0625\n",
    ),
    # An empty --out is refused, not read as "write to stdout".
    *(
        (argv + ["--out="], 1, "error: cannot write : ")
        for argv in (
            ["encode", "--secret", "0"],
            ["report"],
            ["distance"],
            ["search-classical", "--n", "2", "--k", "2", "--max-rand", "2"],
            ["reconstruct", "--state", "@s1.json", "--members", "1,2,3"],
        )
    ),
    # argparse reads a value of "--" as an empty list; main refuses it.
    *(
        (argv, 1, f'error: {flag} cannot take the value "--"\n')
        for flag, argv in (
            ("--prior", ["report", "--prior=--"]),
            ("--max-weight", ["distance", "--max-weight=--"]),
            ("--k", ["search-classical", "--n", "3", "--k=--"]),
            ("--alpha0", ["encode", "--alpha0=--", "--alpha1=0"]),
            ("--out", ["encode", "--secret", "0", "--out=--"]),
            ("--state", ["reconstruct", "--state=--", "--members", "1,2,3"]),
            ("--members", ["reconstruct", "--state", "@s1.json", "--members=--"]),
        )
    ),
]


@pytest.mark.parametrize("argv, code, message", FAILURES, ids=[" ".join(argv) for argv, _, _ in FAILURES])
def test_failure_is_reported(fuzz_dir, capsys, argv, code, message):
    at = f"{fuzz_dir}{os.sep}"
    before = sorted(fuzz_dir.rglob("*"))
    got, _, line = checked(capsys, *(arg.replace("@", at) for arg in argv))
    message = message.replace("@", at)
    assert (got, line[: len(message)]) == (code, message)
    # A failed command writes nothing, neither an --out file nor its directory.
    assert sorted(fuzz_dir.rglob("*")) == before


@settings(max_examples=200, deadline=None)
@given(argv=argvs())
def test_every_argv_exits_cleanly(fuzz_dir, argv):
    # No traceback and no SystemExit: every failure, usage errors included,
    # returns from main with exit 1 or 2 and one stderr line.
    argv = [arg.replace("@", f"{fuzz_dir}{os.sep}") for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    check_exit(code, out.getvalue(), err.getvalue())


def test_entry_point_goldens_names_a_missing_console_script(tmp_path):
    script = Path(__file__).with_name("entry_point_goldens.py")
    env = dict(os.environ, PATH=str(tmp_path))
    result = subprocess.run([sys.executable, str(script)], env=env, capture_output=True, text=True)
    line = check_exit(result.returncode, result.stdout, result.stderr)
    assert (result.returncode, line) == (
        1, "error: no qsslab command on PATH; install the entry point with `pip install -e .` first\n"
    )
