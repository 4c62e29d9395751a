"""Byte-for-byte comparison of CLI output with the recorded benchmark goldens.

The golden files under ``perfbench/goldens/`` hold the stdout of each
command in ``perfbench/workloads.GOLDENS``, recorded at a reference
commit. Any change to formatting or to the last bit of a reported number
shows up here as a failed comparison.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from qsslab.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
_spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


@pytest.mark.parametrize("name", sorted(workloads.GOLDENS))
def test_cli_stdout_matches_golden(name, capsys):
    assert main(workloads.GOLDENS[name]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert out == (workloads.GOLDEN_DIR / name).read_bytes()
