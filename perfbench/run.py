"""qsslab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload prior-sweep --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout, never from an installed copy. Each run starts
fresh worker processes with OPENBLAS/OMP/MKL threads pinned to 1: several
that only set up (for the ``setup_s`` median) and one that measures.

With ``--trace 0`` the last line of stdout is a JSON object whose metrics
are the end-to-end metrics; with ``--trace 1`` the worker measures half the
time untraced, then runs a fixed number of traced rounds, and the metrics
are the per-layer metrics. ``--workload all`` runs the four workloads in
turn and prefixes each metric with its workload. See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import PER_LAYER_UNITS
from workloads import NAMES as WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Fresh set-ups before and after the measuring worker, which adds one
#: more; ``setup_s`` is the median. Sampling both ends of the run spreads
#: the samples over the machine's slower speed swings.
SETUPS_EACH_SIDE = 4
#: Every run must end well inside the 180 s a run is allowed.
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_worker(args: list[str], deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--t0"]
    t0 = time.monotonic()
    proc = subprocess.Popen(
        cmd + [repr(t0)], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=worker_env(), cwd=ROOT
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {args} ran out of time")
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited {proc.returncode}: {err.decode()[-2000:]}")
    return json.loads(out.decode().splitlines()[-1])


def end_to_end(result: dict, setups: list[float]) -> dict[str, float]:
    lat = result["latencies_ms"]
    ok = result["attempted"] - result["failed"]
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": ok / result["wall_s"],
        "latency_p50_ms": statistics.median(lat),
        "latency_p90_ms": statistics.quantiles(lat, n=10)[-1],
        "cpu_ms_per_op": result["cpu_s"] * 1000.0 / result["attempted"],
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, trace_rounds: int, deadline: float):
    """Metrics (name -> (value, unit)), the worker's result and notes of one workload."""
    base = ["--workload", name, "--seed", str(seed), "--seconds", repr(seconds)]
    notes: dict = {"workload": name, "seed": seed}
    if trace:
        result = run_worker(base + ["--trace", "--trace-rounds", str(trace_rounds)], deadline)
        metrics = {k: (v, PER_LAYER_UNITS[k]) for k, v in result["layers"].items()}
    else:
        setups = [run_worker(base + ["--setup-only"], deadline)["setup_s"] for _ in range(SETUPS_EACH_SIDE)]
        result = run_worker(base, deadline)
        setups.append(result["setup_s"])
        setups += [run_worker(base + ["--setup-only"], deadline)["setup_s"] for _ in range(SETUPS_EACH_SIDE)]
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in end_to_end(result, setups).items()}
        notes["setup_samples_s"] = setups
    lat = result["latencies_ms"]
    p90 = statistics.quantiles(lat, n=10)[-1]
    notes.update(
        rounds=result["rounds"],
        latency_samples=len(lat),
        samples_beyond_p90=sum(1 for x in lat if x > p90),
        failed_frac=result["failed"] / result["attempted"],
        failures=result["failures"],
    )
    return metrics, result, notes


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-rounds", type=int, default=0, help="traced rounds (default: per workload)")
    args = parser.parse_args()
    if not (SRC / "qsslab" / "__init__.py").is_file():
        print(f"error: no qsslab sources under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics: dict[str, dict] = {}
    attempted = failed = 0
    try:
        for name in names:
            got, result, notes = run_workload(
                name, args.seed, args.seconds, bool(args.trace), args.trace_rounds, deadline
            )
            attempted += result["attempted"]
            failed += result["failed"]
            prefix = f"{name}/" if args.workload == "all" else ""
            print(f"== {name} (seed {args.seed}, {'traced' if args.trace else 'untraced'})")
            for key, (value, unit) in got.items():
                print(f"  {key:48s} {value:16.6g} {unit}")
                metrics[prefix + key] = {"value": value, "unit": unit}
            print(f"  {'failed_frac':48s} {notes['failed_frac']:16.6g} ratio")
            print("notes: " + json.dumps(notes))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    prov = result["provenance"]
    prov.update(
        nproc=os.cpu_count(),
        affinity=len(os.sched_getaffinity(0)),
        threads={var: "1" for var in THREAD_VARS},
        seed=args.seed,
        commit=git_commit(),
    )
    print("provenance: " + json.dumps(prov))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
