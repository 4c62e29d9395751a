"""The package exports what it documents, and removed names stay removed."""

from pathlib import Path

import pytest

import qsslab
from qsslab import classical_bound, code5

ROOT = Path(__file__).resolve().parents[1]
#: The amplitude-table and Pauli-object API: the code words come from the
#: stabilizer generators, and Pauli strings go through one private kernel.
REMOVED = (
    "CODE_TABLE",
    "CodeTable",
    "WORD_TERMS_0",
    "WORD_TERMS_1",
    "PauliOperator",
    "apply_pauli",
)


@pytest.mark.parametrize("name", qsslab.__all__)
def test_every_exported_name_resolves(name):
    assert getattr(qsslab, name) is not None


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_is_gone(name):
    assert not hasattr(qsslab, name)
    assert not hasattr(code5, name)
    documents = [ROOT / "README.md", *sorted((ROOT / "src" / "qsslab").glob("*.py"))]
    for path in documents:
        assert name not in path.read_text(encoding="utf-8"), path


def test_linear_scheme_has_no_share_evaluator():
    assert not hasattr(classical_bound.LinearScheme, "shares")
