"""Run one qsslab CLI command with the benchmark's layer spans installed.

    PERFBENCH_T0=<monotonic> PERFBENCH_SPANS=<file> python perfbench/launcher.py report --prior 0.5

Behaves like ``python -m qsslab``: same stdout, stderr and exit code. It
also times interpreter start (from PERFBENCH_T0, the parent's monotonic
clock when it started this process), the numpy import and the qsslab
import, and writes the span summary to PERFBENCH_SPANS once ``main``
returns.
"""

import time

STARTED = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    t0 = time.monotonic()
    import numpy  # noqa: F401

    t1 = time.monotonic()
    import qsslab.cli

    t2 = time.monotonic()
    from tracer import Tracer, install

    tracer = Tracer()
    install(tracer)
    cli_main = tracer.span("cli.main", qsslab.cli.main)
    start = time.perf_counter()
    try:
        code = cli_main(sys.argv[1:])
    finally:
        sys.stdout.flush()
        counters = tracer.counters
        counters[f"cli.{sys.argv[1]}.ms"] = (time.perf_counter() - start) * 1000.0
        counters["startup.interpreter_ms"] = (STARTED - float(os.environ["PERFBENCH_T0"])) * 1000.0
        counters["startup.import_numpy_ms"] = (t1 - t0) * 1000.0
        counters["startup.import_qsslab_ms"] = (t2 - t1) * 1000.0
        tracer.read_caches()
        with open(os.environ["PERFBENCH_SPANS"], "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
