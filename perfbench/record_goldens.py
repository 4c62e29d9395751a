"""Record the golden CLI outputs that the cli-session workload compares against.

    python3 perfbench/record_goldens.py

Writes the stdout of every command in ``workloads.GOLDENS`` to
``perfbench/goldens/``. Run it only at a commit whose outputs are the
reference: a later change must reproduce them byte for byte.
"""

import subprocess
import sys

import run
from workloads import GOLDEN_DIR, GOLDENS


def main() -> int:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in GOLDENS.items():
        proc = subprocess.run(
            [sys.executable, "-m", "qsslab", *argv],
            capture_output=True,
            env=run.worker_env(),
            check=True,
            timeout=60,
        )
        (GOLDEN_DIR / name).write_bytes(proc.stdout)
    print(f"wrote {len(GOLDENS)} files to {GOLDEN_DIR}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
