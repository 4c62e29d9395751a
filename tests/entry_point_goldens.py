"""Diff every benchmark golden against the installed ``qsslab`` entry point.

Run as ``python tests/entry_point_goldens.py`` after ``pip install -e .``.
``tests/test_goldens.py`` compares the same outputs in-process through
``cli.main``; this script runs each argv of ``perfbench/workloads.GOLDENS``
through the console script instead, so it also checks the installed
wiring. Prints a unified diff for each mismatch; exit status 1 if any.
"""

import difflib
import importlib.util
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
_spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

failed = []
for name, argv in sorted(workloads.GOLDENS.items()):
    out = subprocess.run(["qsslab", *argv], capture_output=True, check=True).stdout
    golden = (workloads.GOLDEN_DIR / name).read_bytes()
    if out != golden:
        failed.append(name)
        lines = [text.decode("utf-8").splitlines(True) for text in (golden, out)]
        sys.stdout.writelines(difflib.unified_diff(*lines, name, "qsslab " + " ".join(argv)))
print(f"{len(workloads.GOLDENS) - len(failed)} of {len(workloads.GOLDENS)} goldens match")
sys.exit(1 if failed else 0)
