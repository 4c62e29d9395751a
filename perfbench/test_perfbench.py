"""Smoke test and exact-counter gate of the qsslab benchmark.

    python3 -m pytest -q perfbench

Runs every workload at a tiny size through run.py, checks that each named
metric is reported, and gates the seed-independent work counters exactly.
Wall times are reported by the benchmark and never asserted here.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7
#: Per-layer metrics that count work; they must repeat exactly for a seed.
EXACT = [n for n in tracer.per_layer_names() if n.endswith(".calls")]
EXACT += [*tracer.WORK_COUNTERS, "classical_bound.pruned_ratio", "trace.ops"]


def bench(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED)]
    cmd += ["--seconds", "0.01", "--trace", str(trace), "--trace-rounds", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=175)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def traced_twice() -> dict:
    return {name: (bench(name, 1), bench(name, 1)) for name in workloads.NAMES}


def assert_metrics(result: dict, spec: list[dict]) -> None:
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_untraced_run_reports_every_end_to_end_metric(name):
    result = bench(name, 0)
    assert_metrics(result, BENCH["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_run_reports_every_layer_metric(name, traced_twice):
    result = traced_twice[name][0]
    assert_metrics(result, BENCH["per_layer"])
    assert result["metrics"]["trace.uncovered_frac"]["value"] >= 0.0


@pytest.mark.parametrize("name", workloads.NAMES)
def test_counts_repeat_exactly_for_a_seed(name, traced_twice):
    first, second = traced_twice[name]
    assert {k: first["metrics"][k]["value"] for k in EXACT} == {
        k: second["metrics"][k]["value"] for k in EXACT
    }


def test_bypass_predictions_hold_exactly(traced_twice):
    calls = {name: pair[0]["metrics"] for name, pair in traced_twice.items()}
    assert calls["certify-scan"]["quantum_core.hermitian_eig.calls"]["value"] == 0
    for name in ("prior-sweep", "secret-roundtrip"):
        assert calls[name]["code5.apply_pauli.calls"]["value"] == 0


@pytest.fixture
def traced_library():
    t = tracer.Tracer()
    restore = tracer.install(t)
    try:
        yield t
    finally:
        restore()


def test_counters_per_operation(traced_library):
    import qsslab

    counters = traced_library.counters
    for w, expected in zip(range(1, 6), (15, 105, 375, 780, 1023)):
        before = counters["code5.operators_scanned"]
        qsslab.verify_distance(w)
        assert counters["code5.operators_scanned"] - before == expected

    qsslab.search_linear_schemes(5, 3, 5)
    assert counters["classical_bound.assignments_tried"] == 556_890

    qsslab.access_structure_report()  # fills the reduction cache
    calls = traced_library.summary()["spans"]["quantum_core.hermitian_eig"][0]
    qsslab.access_structure_report(qsslab.SecretPrior.from_q0(0.25))
    after = traced_library.summary()["spans"]["quantum_core.hermitian_eig"][0]
    assert after - calls == 62  # one mixture and one trace norm per subset


def test_wrong_expectation_counts_as_failure(monkeypatch):
    monkeypatch.setattr(workloads, "VIOLATIONS", (0, 0, 31, 0, 18))
    scan = workloads.CertifyScan()
    scan.setup()
    out = worker.run_window(scan, random.Random(SEED), rounds=1)
    assert out["failed"] == 3  # distance checks at weights 3, 4 and 5


def test_wrong_golden_counts_as_failure(monkeypatch):
    for var, value in run.worker_env().items():
        monkeypatch.setenv(var, value)
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    goldens = workloads.load_goldens()
    for fmt in ("table", "json"):
        goldens[f"search_n5_k3_m5.{fmt}"] = goldens[f"search_n5_k3_m5.{fmt}"].replace(b"556890", b"556891")
    session = workloads.CliSession(workdir, goldens)
    session.setup()
    try:
        out = worker.run_window(session, random.Random(SEED), rounds=1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    assert out["failed"] == 2, out["failures"]  # (5,3,5) runs once per format
