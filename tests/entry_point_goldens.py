"""Diff every benchmark golden against the installed ``qsslab`` entry point.

Run as ``python tests/entry_point_goldens.py`` after ``pip install -e .``.
``tests/test_goldens.py`` compares the same outputs in-process through
``cli.main``; this script runs each argv of ``perfbench/workloads.GOLDENS``
through the console script instead, so it also checks the installed
wiring. Then ``cli_contract.check_exit`` checks the exit contract through
the shell: a usage error exits 1, a failed ``--expect`` exits 2 after
writing its full output, and, where ``/dev/full`` exists, a failed write to
stdout exits 1. Prints a unified diff for each golden mismatch and a line
for each contract case; exit status 1 if any fails, or, with one line,
if no ``qsslab`` command is on ``PATH``.
"""

import difflib
import importlib.util
import os
import shutil
import subprocess
import sys
from pathlib import Path

from cli_contract import check_exit

if shutil.which("qsslab") is None:
    sys.exit("error: no qsslab command on PATH; install the entry point with `pip install -e .` first")

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
_spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)
# Buffered stdout, as a shell gives it, so a failed write that the
# interpreter retries at exit shows too.
os.environ.pop("PYTHONUNBUFFERED", None)


def check(rule: str, argv: list[str], code: int, expected_out: bytes = b"", stdout=subprocess.PIPE) -> bool:
    """Run the installed qsslab; whether it exits ``code`` under the exit contract with ``expected_out``."""
    result = subprocess.run(["qsslab", *argv], stdout=stdout, stderr=subprocess.PIPE)
    out = result.stdout or b""
    try:
        assert result.returncode == code, f"exit {result.returncode}"
        check_exit(code, out.decode("utf-8"), result.stderr.decode("utf-8"))
        assert out == expected_out, "unexpected stdout"
    except AssertionError as exc:
        print(f"BROKEN: {rule}: {exc}")
        return False
    print(f"ok: {rule}")
    return True


failed = []
for name, argv in sorted(workloads.GOLDENS.items()):
    out = subprocess.run(["qsslab", *argv], capture_output=True, check=True).stdout
    golden = (workloads.GOLDEN_DIR / name).read_bytes()
    if out != golden:
        failed.append(name)
        lines = [text.decode("utf-8").splitlines(True) for text in (golden, out)]
        sys.stdout.writelines(difflib.unified_diff(*lines, name, "qsslab " + " ".join(argv)))
print(f"{len(workloads.GOLDENS) - len(failed)} of {len(workloads.GOLDENS)} goldens match")

held = [
    check("a usage error exits 1 with one error: line", ["distance", "--tolerance", "2"], 1),
    check(
        "a failed --expect exits 2 after its full table",
        ["distance", "--max-weight", "2", "--expect", "3"], 2, (workloads.GOLDEN_DIR / "distance_w2.table").read_bytes(),
    ),
]
if os.path.exists("/dev/full"):
    with open("/dev/full", "wb") as full:
        held.append(check("a failed write to stdout exits 1 with one error: line", ["encode", "--secret", "0"], 1, stdout=full))
sys.exit(1 if failed or not all(held) else 0)
