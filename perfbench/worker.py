"""One workload process: set up, run the timed loop, print one JSON result.

Started by run.py with the BLAS thread variables pinned. ``--t0`` is the
parent's monotonic clock just before it started this process, so the
reported set-up time covers interpreter start, ``import qsslab`` and the
workload's untimed warm-up.

    python perfbench/worker.py --workload prior-sweep --seed 1 --seconds 10 --t0 <monotonic>
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

import workloads
from tracer import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent

#: Traced rounds per workload: a fixed amount of work, so counts are exact
#: for a seed and self times compare across commits. About 5 s each on a
#: 2-core x86 VM at the seed commit.
TRACE_ROUNDS = {"cli-session": 2, "prior-sweep": 10, "secret-roundtrip": 20, "certify-scan": 10}
#: An untraced run goes on past its seconds until it has this many latency
#: samples, so that at least ten lie beyond p90 (exclusive quantiles).
MIN_SAMPLES = 110


def run_window(workload, rng, seconds: float = 0.0, rounds: int = 0, min_samples: int = 0) -> dict:
    """Run whole rounds until ``rounds`` are done, or else until ``seconds``
    have passed and ``min_samples`` operations have run."""
    latencies: list[float] = []
    failures: list[str] = []
    attempted = 0
    done = 0
    clock = time.perf_counter
    before = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    start = clock()
    while True:
        for op in workload.make_round(rng):
            attempted += 1
            t0 = clock()
            try:
                result = op.run()
            except Exception as exc:  # any unexpected raise is a failed operation
                latencies.append((clock() - t0) * 1000.0)
                failures.append(f"{op.label}: raised {exc!r}")
                continue
            latencies.append((clock() - t0) * 1000.0)
            try:
                op.check(result)
            except Exception as exc:  # a malformed output fails its check
                failures.append(f"{op.label}: {exc!r}")
        done += 1
        if rounds:
            if done >= rounds:
                break
        elif clock() - start >= seconds and attempted >= min_samples:
            break
    wall = clock() - start
    after = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = sum(a.ru_utime + a.ru_stime - b.ru_utime - b.ru_stime for a, b in zip(after, before))
    return {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:10],
        "rounds": done,
        "wall_s": wall,
        "cpu_s": cpu,
        "latencies_ms": latencies,
    }


def provenance() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__, "blas": blas}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--trace-rounds", type=int, default=0)
    args = parser.parse_args()

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        workload = workloads.make_workload(args.workload, workdir)
        workload.setup()
        setup_s = time.monotonic() - args.t0
        out: dict = {"setup_s": setup_s}
        if not args.setup_only:
            out.update(measure(workload, args))
            out["provenance"] = provenance()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out))
    return 0


def measure(workload, args) -> dict:
    rng = random.Random(f"{args.workload}/{args.seed}")
    if args.trace:
        out = run_window(workload, rng, seconds=args.seconds / 2)
    else:
        out = run_window(workload, rng, seconds=args.seconds, min_samples=MIN_SAMPLES)
    ru_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ru_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out["peak_rss_kb"] = ru_children if args.workload == "cli-session" else ru_self
    if args.trace:
        tracer = Tracer()
        workload.start_trace(tracer)
        rounds = args.trace_rounds or TRACE_ROUNDS[args.workload]
        traced = run_window(workload, random.Random(f"{args.workload}/{args.seed}/trace"), rounds=rounds)
        workload.finish_trace(tracer)
        untraced_ok = out["attempted"] - out["failed"]
        traced_ok = traced["attempted"] - traced["failed"]
        ratio = (traced_ok / traced["wall_s"]) / (untraced_ok / out["wall_s"]) if untraced_ok else 0.0
        out["layers"] = layer_metrics(
            tracer.summary(), traced["attempted"], sum(traced["latencies_ms"]) / 1000.0, ratio
        )
        for key in ("attempted", "failed"):
            out[key] += traced[key]
        out["failures"] += traced["failures"]
    return out


if __name__ == "__main__":
    sys.exit(main())
