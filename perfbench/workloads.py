"""The four benchmark workloads: seeded inputs, one operation each, output checks.

Each workload deals its inputs in rounds. A round holds a fixed mix of
operation kinds in a seeded order with seeded parameters, and a run always
ends on a round boundary, so the share of each kind is the same for every
seed and only the inputs differ.

Every check is independent of the code under test: expected values come
from closed forms, from golden outputs recorded at a reference commit, or
from a brute-force re-derivation in this file. Tolerances are those of the
repository's tests (1e-9 for verdicts and fidelities, 1e-12 for amplitudes).
"""

from __future__ import annotations

import importlib
import itertools
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

TOL = 1e-9
AMPLITUDE_TOL = 1e-12
HERE = Path(__file__).resolve().parent
GOLDEN_DIR = HERE / "goldens"
LAUNCHER = HERE / "launcher.py"

#: The 31 nonempty subsets of {1..5} in the report's (size, members) order.
SUBSETS = [
    combo for size in range(1, 6) for combo in itertools.combinations(range(1, 6), size)
]
#: Violating operators and operators scanned per Pauli weight 1..5.
VIOLATIONS = (0, 0, 30, 0, 18)
OPERATORS = (15, 90, 270, 405, 243)
GOLDEN_PRIORS = (0.5, 0.3)


def _search_argv(n: int, k: int, m: int, prune: bool) -> list[str]:
    argv = ["search-classical", "--n", str(n), "--k", str(k), "--max-rand", str(m)]
    return argv if prune else argv + ["--no-prune"]


def _search_key(n: int, k: int, m: int, prune: bool) -> str:
    return f"search_n{n}_k{k}_m{m}" + ("" if prune else "_noprune")


#: (n, k, m_max, prune) of the CLI's small control searches.
CLI_SEARCHES = ((2, 2, 2, True), (3, 3, 3, True), (4, 4, 4, True), (3, 2, 3, True), (2, 2, 2, False))
PAPER_SEARCH = (5, 3, 5, True)

#: Golden file name -> CLI arguments; stdout of each is recorded byte for byte.
GOLDENS: dict[str, list[str]] = {}
for _q0 in GOLDEN_PRIORS:
    for _fmt in ("table", "csv", "json"):
        GOLDENS[f"report_q{_q0}.{_fmt}"] = ["report", "--prior", str(_q0), "--format", _fmt]
for _w in range(1, 6):
    for _fmt in ("table", "json"):
        GOLDENS[f"distance_w{_w}.{_fmt}"] = ["distance", "--max-weight", str(_w), "--format", _fmt]
for _case in CLI_SEARCHES + (PAPER_SEARCH,):
    for _fmt in ("table", "json"):
        GOLDENS[f"{_search_key(*_case)}.{_fmt}"] = _search_argv(*_case) + ["--format", _fmt]
for _s in (0, 1):
    GOLDENS[f"encode_s{_s}.json"] = ["encode", "--secret", str(_s)]


def load_goldens(directory: Path = GOLDEN_DIR) -> dict[str, bytes]:
    return {name: (directory / name).read_bytes() for name in GOLDENS}


class CheckFailed(Exception):
    """An operation's output disagreed with its expectation."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Op:
    """One timed operation and the check applied to its result."""

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


class Deck:
    """Deals items in seeded shuffled passes, so each item's share stays fixed."""

    def __init__(self, rng, items) -> None:
        self.rng = rng
        self.items = list(items)
        self.pile: list = []

    def draw(self):
        if not self.pile:
            self.pile = list(self.items)
            self.rng.shuffle(self.pile)
        return self.pile.pop()


def binary_entropy(q0: float) -> float:
    return -sum(q * math.log2(q) for q in (q0, 1.0 - q0) if q > 0.0)


def haar_qubit(rng) -> tuple[complex, complex]:
    """Amplitudes of a Haar-random qubit state."""
    a = complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
    b = complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
    norm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
    return a / norm, b / norm


def check_report_rows(rows: list[tuple], q0: float) -> None:
    """Exact (3,5) threshold verdicts: rows are (members, holevo, trace_dist, class)."""
    expect([tuple(r[0]) for r in rows] == SUBSETS, "rows are not the 31 subsets in order")
    h = binary_entropy(q0)
    for members, holevo, dist, cls in rows:
        if len(members) >= 3:
            expect(cls == "Qualified", f"{members} classified {cls}")
            expect(abs(dist - 1.0) <= TOL, f"{members} trace distance {dist!r} != 1")
            expect(abs(holevo - h) <= TOL, f"{members} holevo {holevo!r} != H(prior) {h!r}")
        else:
            expect(cls == "Forbidden", f"{members} classified {cls}")
            expect(abs(dist) <= TOL, f"{members} trace distance {dist!r} != 0")
            expect(abs(holevo) <= TOL, f"{members} holevo {holevo!r} != 0")


def check_distance(report, w: int) -> None:
    got = [c.violations for c in report.checks]
    expect(got == list(VIOLATIONS[:w]), f"violation profile {got} at weight {w}")
    got = [c.operators_checked for c in report.checks]
    expect(got == list(OPERATORS[:w]), f"operators scanned {got} at weight {w}")
    expect(report.certified_distance == (3 if w >= 3 else None), "certified distance")


def threshold_by_brute_force(vectors, k: int) -> bool:
    """Whether a GF(2)-linear scheme's qualified sets are exactly those of size >= k.

    A set is qualified when the share tuples it sees for secret 0 and for
    secret 1, over all randomness, differ as multisets.
    """
    n, m = len(vectors), len(vectors[0]) - 1

    def share(vec, s, r):
        bit = vec[0] & s
        for b, rb in zip(vec[1:], r):
            bit ^= b & rb
        return bit

    for size in range(1, n + 1):
        for combo in itertools.combinations(range(n), size):
            seen = [
                sorted(
                    tuple(share(vectors[i], s, r) for i in combo)
                    for r in itertools.product((0, 1), repeat=m)
                )
                for s in (0, 1)
            ]
            if (seen[0] != seen[1]) != (size >= k):
                return False
    return True


def bound_allows(n: int, k: int) -> bool:
    """Share-size bound q >= n - k + 2 with 1-bit shares (q = 2)."""
    return 2 >= n - k + 2


def check_search(n: int, k: int, found: bool, witness_vectors, reference: Optional[bool]) -> None:
    """A verdict agrees with the unpruned search when given, else with the bound."""
    if reference is not None:
        expect(found == reference, f"({n},{k}) verdict {found} != unpruned {reference}")
    else:
        expect(found == bound_allows(n, k), f"({n},{k}) verdict {found} disagrees with bound")
    if found:
        expect(threshold_by_brute_force(witness_vectors, k), f"({n},{k}) witness is wrong")


def reduce_amplitudes(amps, members: tuple[int, ...]):
    """Partial trace of a five-qubit pure state onto ``members`` (big-endian)."""
    import numpy as np

    kept = [q - 1 for q in members]
    traced = [q for q in range(5) if q not in kept]
    block = np.asarray(amps).reshape([2] * 5).transpose(kept + traced).reshape(2 ** len(kept), -1)
    return block @ block.conj().T


def golden_amplitudes(goldens: dict[str, bytes], s: int) -> list[complex]:
    doc = json.loads(goldens[f"encode_s{s}.json"])
    return [complex(re, im) for re, im in doc["amplitudes"]]


class Workload:
    """Set-up, rounds of operations, and (for in-process workloads) tracing."""

    name = ""

    def setup(self) -> None:
        raise NotImplementedError

    def make_round(self, rng) -> list[Op]:
        raise NotImplementedError

    def start_trace(self, tracer) -> None:
        from tracer import install

        self.restore_trace = install(tracer)

    def finish_trace(self, tracer) -> None:
        tracer.read_caches()
        self.restore_trace()


class PriorSweep(Workload):
    """Full access-structure reports at fresh priors, reductions cached."""

    name = "prior-sweep"

    def setup(self) -> None:
        self.qs = importlib.import_module("qsslab")
        self.qs.access_structure_report()

    def make_round(self, rng) -> list[Op]:
        priors = [0.0, 1.0] + [rng.random() for _ in range(8)]
        rng.shuffle(priors)
        return [self._op(q0) for q0 in priors]

    def _op(self, q0: float) -> Op:
        qs = self.qs

        def check(report) -> None:
            expect(report.is_threshold, "is_threshold is false")
            rows = [
                (v.subset, v.holevo_bits, v.trace_dist, v.classification.value)
                for v in report.verdicts
            ]
            check_report_rows(rows, q0)

        return Op(
            f"report q0={q0!r}",
            lambda: qs.access_structure_report(qs.SecretPrior.from_q0(q0)),
            check,
        )


class SecretRoundtrip(Workload):
    """Encode a random qubit secret, reduce it to a subset, recover it."""

    name = "secret-roundtrip"

    def setup(self) -> None:
        qs = self.qs = importlib.import_module("qsslab")
        w0 = golden_amplitudes(load_goldens(), 0)
        self.word0 = {j: reduce_amplitudes(w0, j) for j in SUBSETS}
        probe = qs.QubitSecret(1.0, 0.0)
        psi = qs.encode_quantum(probe)
        for j in SUBSETS:
            qs.codeword_reductions(j)
            if len(j) >= 3:
                qs.reconstruct_quantum(j, qs.reduced_state(psi, j), probe)

    def make_round(self, rng) -> list[Op]:
        # Qualified subsets are dealt twice, so the median lands inside the
        # recovering operations rather than on their edge with refused ones.
        subsets = SUBSETS + [j for j in SUBSETS if len(j) >= 3]
        rng.shuffle(subsets)
        return [self._op(j, haar_qubit(rng)) for j in subsets]

    def _op(self, j: tuple[int, ...], amps: tuple[complex, complex]) -> Op:
        qs = self.qs
        secret = qs.QubitSecret(*amps)

        def run():
            rho = qs.reduced_state(qs.encode_quantum(secret), j)
            try:
                quantum = qs.reconstruct_quantum(j, rho, secret)
            except qs.UnqualifiedSubsetError:
                quantum = None
            return rho, quantum, qs.reconstruct_classical(j, rho)

        def check(result) -> None:
            import numpy as np

            rho, quantum, classical = result
            p0 = abs(amps[0]) ** 2
            if len(j) >= 3:
                expect(quantum is not None, f"{j}: reconstruction refused")
                expect(abs(quantum.fidelity - 1.0) <= TOL, f"{j}: fidelity {quantum.fidelity!r}")
                expect(abs(classical.success_probability - 1.0) <= TOL, f"{j}: success prob")
                expect(abs(classical.support_overlap - p0) <= TOL, f"{j}: support overlap")
            else:
                expect(quantum is None, f"{j}: unqualified subset was reconstructed")
                diff = float(np.max(np.abs(rho.matrix - self.word0[j])))
                expect(diff <= TOL, f"{j}: reduced state differs from code word 0's by {diff!r}")
                expect(abs(classical.success_probability - 0.5) <= TOL, f"{j}: success prob")

        return Op(f"roundtrip {j}", run, check)


class CertifyScan(Workload):
    """Distance certificates and GF(2) searches: no eigensolver at all."""

    name = "certify-scan"
    #: (n, k, m_max, prune) searched once per round.
    SEARCHES = (
        (2, 2, 2, True), (3, 3, 3, True), (4, 4, 4, True), (3, 2, 3, True),
        (5, 2, 5, True), (4, 3, 4, True), (5, 3, 5, True),
        (2, 2, 2, False), (3, 3, 2, False), (3, 2, 2, False),
    )
    #: Cases whose unpruned search is cheap enough to serve as reference.
    UNPRUNED_REFERENCE = ((2, 2, 2), (3, 3, 3), (3, 3, 2), (3, 2, 2))

    def setup(self) -> None:
        qs = self.qs = importlib.import_module("qsslab")
        qs.verify_distance(1)
        self.reference = {
            case: qs.search_linear_schemes(*case, prune=False).found
            for case in self.UNPRUNED_REFERENCE
        }

    def make_round(self, rng) -> list[Op]:
        ops = [self._distance(w) for w in range(1, 6)]
        ops += [self._search(*case) for case in self.SEARCHES]
        rng.shuffle(ops)
        return ops

    def _distance(self, w: int) -> Op:
        return Op(f"distance w={w}", lambda: self.qs.verify_distance(w), lambda r: check_distance(r, w))

    def _search(self, n: int, k: int, m: int, prune: bool) -> Op:
        def check(report) -> None:
            witness = report.witness.vectors if report.witness is not None else None
            check_search(n, k, report.found, witness, self.reference.get((n, k, m)))

        return Op(
            f"search ({n},{k},{m}) prune={prune}",
            lambda: self.qs.search_linear_schemes(n, k, m, prune=prune),
            check,
        )


@dataclass
class CliResult:
    returncode: int
    stdout: bytes
    stderr: bytes


class CliSession(Workload):
    """``python -m qsslab`` subprocesses drawn from all five subcommands."""

    name = "cli-session"

    def __init__(self, workdir: Path, goldens: Optional[dict[str, bytes]] = None) -> None:
        self.workdir = workdir
        self.goldens = goldens
        self.tracer = None
        self.state_id = 0

    def setup(self) -> None:
        importlib.import_module("qsslab.cli")
        if self.goldens is None:
            self.goldens = load_goldens()
        self.words = [golden_amplitudes(self.goldens, s) for s in (0, 1)]
        self.decks: dict[str, Deck] = {}

    def start_trace(self, tracer) -> None:
        self.tracer = tracer

    def finish_trace(self, tracer) -> None:
        self.tracer = None

    def _deck(self, rng, key: str, items) -> Deck:
        if key not in self.decks or self.decks[key].rng is not rng:
            self.decks[key] = Deck(rng, items)
        return self.decks[key]

    def _invoke(self, argv: list[str]) -> CliResult:
        env = dict(os.environ)
        if self.tracer is None:
            cmd = [sys.executable, "-m", "qsslab", *argv]
        else:
            spans = self.workdir / "spans.json"
            env["PERFBENCH_SPANS"] = str(spans)
            cmd = [sys.executable, str(LAUNCHER), *argv]
        env["PERFBENCH_T0"] = repr(time.monotonic())
        proc = subprocess.run(cmd, capture_output=True, env=env, timeout=60)
        if self.tracer is not None:
            self.tracer.merge(json.loads(spans.read_text()))
            spans.unlink()
        return CliResult(proc.returncode, proc.stdout, proc.stderr)

    def _op(self, label: str, argv: list[str], check: Callable[[CliResult], None]) -> Op:
        return Op(label, lambda: self._invoke(argv), check)

    def _golden(self, name: str, returncode: int = 0) -> Callable[[CliResult], None]:
        def check(res: CliResult) -> None:
            expect(res.returncode == returncode, f"exit {res.returncode}, expected {returncode}")
            expect(res.stdout == self.goldens[name], f"stdout differs from golden {name}")

        return check

    def make_round(self, rng) -> list[Op]:
        prior = self._deck(rng, "prior", GOLDEN_PRIORS + (0.0, 1.0, None, None))
        weight = self._deck(rng, "weight", range(1, 6))
        fmt2 = self._deck(rng, "fmt2", ("table", "json"))
        expect_flag = self._deck(rng, "expect", (True, False))
        few = self._deck(rng, "few", [j for j in SUBSETS if len(j) <= 2])
        three = self._deck(rng, "three", [j for j in SUBSETS if len(j) == 3])
        mode = self._deck(rng, "mode", ("classical", "quantum", "both"))
        secret = self._deck(rng, "secret", ((1.0, 0.0), (0.0, 1.0), None))
        search = self._deck(rng, "search", CLI_SEARCHES)
        # A job is one operation, or an encode followed by the reconstruct
        # that reads its state file; jobs are shuffled, their ops are not.
        jobs = []
        for fmt in ("table", "csv", "json"):
            q0 = prior.draw()
            jobs.append([self._report(round(rng.random(), 6) if q0 is None else q0, fmt)])
        jobs.append([self._distance(weight.draw(), fmt2.draw(), expect_flag.draw())])
        # Every round reconstructs from two or fewer shares and from three.
        # A cold CLI reconstruct costs several eigendecompositions of
        # dimension 2^|J|, so a fixed size mix keeps a round's cost the same
        # for every seed; four and five shares are covered by secret-roundtrip.
        for members in (few, three):
            amps = secret.draw() or haar_qubit(rng)
            jobs.append(self._roundtrip(amps, members.draw(), mode.draw()))
        # The paper's (5,3,5) runs in both formats: at two of eleven operations
        # it is the tail, and p90 falls inside it rather than on its edge.
        for case, fmt in ((search.draw(), fmt2.draw()), (PAPER_SEARCH, "table"), (PAPER_SEARCH, "json")):
            argv = _search_argv(*case) + ["--format", fmt]
            jobs.append([self._op(f"search {case} {fmt}", argv, self._golden(f"{_search_key(*case)}.{fmt}"))])
        rng.shuffle(jobs)
        return [op for job in jobs for op in job]

    def _report(self, q0: float, fmt: str) -> Op:
        argv = ["report", "--prior", repr(q0), "--format", fmt]
        if q0 in GOLDEN_PRIORS:
            return self._op(f"report {q0} {fmt}", argv, self._golden(f"report_q{q0}.{fmt}"))

        def check(res: CliResult) -> None:
            expect(res.returncode == 0, f"exit {res.returncode}")
            check_report_rows(parse_report(res.stdout.decode(), fmt, q0), q0)

        return self._op(f"report {q0} {fmt}", argv, check)

    def _distance(self, w: int, fmt: str, with_expect: bool) -> Op:
        argv = ["distance", "--max-weight", str(w), "--format", fmt]
        returncode = 0
        if with_expect:
            argv += ["--expect", "3"]
            returncode = 0 if w >= 3 else 2
        return self._op(f"distance w={w} {fmt}", argv, self._golden(f"distance_w{w}.{fmt}", returncode))

    def _roundtrip(self, amps: tuple[complex, complex], j: tuple[int, ...], mode: str) -> list[Op]:
        """Two operations: encode a secret to a file, then reconstruct from it."""
        self.state_id += 1
        path = str(self.workdir / f"state{self.state_id}.json")
        if amps in ((1.0, 0.0), (0.0, 1.0)):
            s = 0 if amps[0] else 1
            encode = ["encode", "--secret", str(s), "--out", path]
            expect_args = ["--expect-secret", str(s)]
        else:
            a0, a1 = (f"{z.real!r},{z.imag!r}" for z in amps)
            encode = ["encode", f"--alpha0={a0}", f"--alpha1={a1}", "--out", path]
            expect_args = [f"--expect-alpha0={a0}", f"--expect-alpha1={a1}"]
        reconstruct = ["reconstruct", "--state", path, "--members", ",".join(map(str, j)), "--mode", mode]
        if mode != "classical":
            reconstruct += expect_args

        def check_encode(res: CliResult) -> None:
            expect(res.returncode == 0 and res.stdout == b"", f"encode exit {res.returncode}")
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            expect(doc["format"] == 1 and doc["num_qubits"] == 5, "state header")
            got = [complex(re, im) for re, im in doc["amplitudes"]]
            want = [amps[0] * x + amps[1] * y for x, y in zip(*self.words)]
            expect(len(got) == 32, "state must have 32 amplitudes")
            err = max(abs(g - w) for g, w in zip(got, want))
            expect(err <= AMPLITUDE_TOL, f"encoded amplitudes off by {err!r}")

        def check_reconstruct(res: CliResult) -> None:
            check_reconstruction(res, j, mode, amps)

        return [
            self._op(f"encode {encode[1]}", encode, check_encode),
            self._op(f"reconstruct {j} {mode}", reconstruct, check_reconstruct),
        ]


def check_reconstruction(res: CliResult, j: tuple[int, ...], mode: str, amps) -> None:
    qualified = len(j) >= 3
    if mode != "classical" and not qualified:
        expect(res.returncode == 1, f"unqualified {j}: exit {res.returncode}, expected 1")
        expect(b"unqualified" in res.stderr and res.stdout == b"", "refusal message")
        return
    expect(res.returncode == 0, f"exit {res.returncode}: {res.stderr[-200:]!r}")
    doc = json.loads(res.stdout)
    expect(doc["members"] == list(j), "members echoed wrongly")
    p0 = abs(amps[0]) ** 2
    if mode != "quantum":
        classical = doc["classical"]
        if qualified:
            expect(abs(classical["success_probability"] - 1.0) <= TOL, "success probability")
            expect(abs(classical["support_overlap"] - p0) <= TOL, "support overlap")
            if p0 in (0.0, 1.0):
                expect(classical["guess"] == (0 if p0 else 1), "classical guess")
        else:
            expect(abs(classical["success_probability"] - 0.5) <= TOL, "success probability")
    if mode != "classical":
        quantum = doc["quantum"]
        expect(abs(quantum["fidelity"] - 1.0) <= TOL, f"fidelity {quantum['fidelity']!r}")
        target = [[a * b.conjugate() for b in amps] for a in amps]
        for row, want_row in zip(quantum["recovered"], target):
            for (re, im), want in zip(row, want_row):
                expect(abs(complex(re, im) - want) <= TOL, "recovered state")


def parse_report(text: str, fmt: str, q0: float) -> list[tuple]:
    """(members, holevo, trace_dist, class) rows of a report in any format."""
    if fmt == "json":
        doc = json.loads(text)
        expect(doc["is_threshold"] is True, "is_threshold is false")
        expect(doc["prior"]["q0"] == q0, "prior echoed wrongly")
        return [
            (tuple(r["members"]), r["holevo_bits"], r["trace_dist"], r["classification"])
            for r in doc["subsets"]
        ]
    lines = text.splitlines()
    if fmt == "csv":
        expect(lines[0] == "members,holevo_bits,trace_dist,classification", "csv header")
        split = [line.split(",") for line in lines[1:]]
        return [(tuple(map(int, m.split(";"))), float(h), float(d), c) for m, h, d, c in split]
    expect(lines[-1] == "threshold(3,5) structure: true", "threshold line")
    expect(lines[-2].startswith("prior: q0="), "prior line")
    split = [line.split() for line in lines[1:-2]]
    return [
        (tuple(map(int, m.strip("{}").split(","))), float(h), float(d), c) for m, h, d, c in split
    ]


IN_PROCESS = {cls.name: cls for cls in (PriorSweep, SecretRoundtrip, CertifyScan)}
NAMES = (CliSession.name, *IN_PROCESS)


def make_workload(name: str, workdir: Path) -> Workload:
    return CliSession(workdir) if name == CliSession.name else IN_PROCESS[name]()
