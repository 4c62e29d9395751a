"""The package exports what it documents, and removed names stay removed."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qsslab
from qsslab import classical_bound, cli, code5, quantum_core

ROOT = Path(__file__).resolve().parents[1]
#: The public names, in the order ``__all__`` lists them.
PUBLIC = [
    "AccessReport",
    "Classification",
    "ClassicalReconstruction",
    "DensityMatrix",
    "DistanceReport",
    "LinearScheme",
    "PureState",
    "QuantumReconstruction",
    "QubitSecret",
    "SearchReport",
    "SecretPrior",
    "SubsetVerdict",
    "UNIFORM_PRIOR",
    "UnqualifiedSubsetError",
    "access_structure_report",
    "all_nonempty_subsets",
    "classify_subset",
    "codeword_reductions",
    "encode_classical",
    "encode_quantum",
    "hermitian_eig",
    "holevo_information",
    "reconstruct_classical",
    "reconstruct_quantum",
    "reduced_state",
    "search_linear_schemes",
    "share_size_bound",
    "share_subset",
    "trace_distance",
    "trace_norm",
    "verify_distance",
    "von_neumann_entropy",
]
#: The amplitude-table and Pauli-object API: the code words come from the
#: stabilizer generators, and Pauli strings go through one private kernel on
#: (x | z) ints. The subset-status API: the search decides status on row ints.
#: The general bound API: the bound is share_size_bound(n, k) = n - k + 2.
#: The eigenbasis API: classical reconstruction reads the flat reduction.
#: The echelon GF(2) helpers and the dense Pauli kernel: no program path uses
#: them, so they live on in the tests as oracles (gf2_oracle, test_code5).
#: The "neither class" error: the stabilizer form decides every verdict, and
#: a dense value that disagrees with it raises a plain RuntimeError.
REMOVED = (
    "CODE_TABLE",
    "CodeTable",
    "WORD_TERMS_0",
    "WORD_TERMS_1",
    "PauliOperator",
    "apply_pauli",
    "_pauli_masks",
    "SubsetStatus",
    "realizes_threshold",
    "scheme_subset_status",
    "ThresholdParams",
    "BoundReport",
    "check_bound",
    "support_projector",
    "gf2_rank",
    "gf2_in_span",
    "_pauli_action",
    "IndeterminateClassificationError",
)


@pytest.mark.parametrize("name", qsslab.__all__)
def test_every_exported_name_resolves(name):
    assert getattr(qsslab, name) is not None
    # Resolved once, then a plain package global.
    assert vars(qsslab)[name] is getattr(qsslab, name)


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_is_gone(name):
    assert not hasattr(qsslab, name)
    assert not hasattr(code5, name)
    documents = [ROOT / "README.md", *sorted((ROOT / "src" / "qsslab").glob("*.py"))]
    for path in documents:
        assert name not in path.read_text(encoding="utf-8"), path


def test_linear_scheme_has_no_share_evaluator():
    assert not hasattr(classical_bound.LinearScheme, "shares")


@pytest.mark.parametrize(
    "cls, attribute",
    [
        (quantum_core.DensityMatrix, "eigenvectors"),
        (quantum_core.DensityMatrix, "support_projector"),
        (quantum_core.PureState, "density"),
        (quantum_core.PureState, "dim"),
    ],
)
def test_states_have_no_eigenbasis_or_density_api(cls, attribute):
    assert not hasattr(cls, attribute)


def test_all_lists_the_public_names_in_order():
    assert qsslab.__all__ == PUBLIC


def test_star_import_binds_exactly_the_public_names():
    namespace: dict = {}
    exec("from qsslab import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(PUBLIC)


def test_dir_lists_every_public_name():
    assert set(qsslab.__all__) <= set(dir(qsslab))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="qsslab"):
        qsslab.no_such_name


@pytest.mark.parametrize(
    "name, good, bad",
    [
        ("share_subset", ((1, 2, 3),), ((1, 2, 3.0),)),
        ("share_subset", ((1, 2, 3),), ((1, 2, "3"),)),
        ("share_subset", ((1, 2, 3), 5), ((1, 2, 3), 5.0)),
        ("PureState", (1, [1, 0]), (True, [1, 0])),
        ("PureState", (2, [1, 0, 0, 0]), (2.0, [1, 0, 0, 0])),
        ("classify_subset", ((1, 2, 3),), ((1, 2, 3.0),)),
        ("verify_distance", (3,), (3.0,)),
        ("verify_distance", (1,), (True,)),
        ("search_linear_schemes", (3, 2, 2), (3.0, 2, 2)),
        ("search_linear_schemes", (3, 2, 2), (3, 2, "2")),
        ("all_nonempty_subsets", (5,), (5.0,)),
        ("share_size_bound", (5, 3), (5.0, 3)),
        ("share_size_bound", (5, 1), (5, True)),
        ("encode_classical", (1,), (1.0,)),
        ("encode_classical", (0,), (True,)),
        ("encode_classical", (np.int64(1),), (1.0,)),
    ],
)
def test_integer_arguments_refuse_bool_float_and_str(name, good, bad):
    # The integer call runs first, so a cache keyed on equal values (3.0 == 3,
    # True == 1) would answer the bad call if it reached one. functools keys a
    # lone int by the int itself, which no float or bool key equals, but a
    # numpy integer as the tuple (n,), which (1.0,) and (True,) equal.
    getattr(qsslab, name)(*good)
    with pytest.raises(ValueError, match="must be an integer, got"):
        getattr(qsslab, name)(*bad)


def test_numpy_integer_arguments_become_plain_ints():
    subset = qsslab.share_subset((np.int64(3), np.uint8(1)))
    assert subset == (1, 3) and {type(m) for m in subset} == {int}
    assert type(qsslab.share_size_bound(np.int64(5), np.int8(3))) is int
    assert type(qsslab.verify_distance(np.int16(2)).max_weight) is int
    assert qsslab.all_nonempty_subsets(np.int64(2)) == [(1,), (2,), (1, 2)]
    assert type(qsslab.PureState(np.int64(1), [1, 0]).num_qubits) is int
    assert qsslab.encode_classical(np.int64(1)).amplitudes.tobytes() == qsslab.encode_classical(1).amplitudes.tobytes()


def test_one_distance_certificate_behind_every_name():
    # A span tracer that patches the name in qsslab, code5 and cli sees every
    # call only while the three names bind one function, the one code5
    # defines; the generators and the code words share that one module.
    assert qsslab.verify_distance is code5.verify_distance is cli.verify_distance
    assert code5.verify_distance.__module__ == "qsslab.code5"
    assert importlib.util.find_spec("qsslab.symplectic") is None


def test_readme_layout_lists_every_module():
    # The "  name.py" entries between "src/qsslab/" and the next top-level
    # entry of README's Layout block, against the modules on disk.
    block = (ROOT / "README.md").read_text(encoding="utf-8").split("## Layout", 1)[1].split("```")[1]
    package = re.search(r"^src/qsslab/\n(.*?)^\S", block, re.MULTILINE | re.DOTALL).group(1)
    listed = re.findall(r"^  (\w+\.py) ", package, re.MULTILINE)
    modules = {path.name for path in (ROOT / "src" / "qsslab").glob("*.py")} - {"__init__.py", "__main__.py"}
    assert sorted(listed) == sorted(modules)


def run_fresh(code: str) -> tuple[str, bool]:
    """Run ``code`` in a new interpreter on ``src/``: its stdout, and whether numpy got imported."""
    probe = "\nimport sys\nsys.stderr.write(str('numpy' in sys.modules))"
    result = subprocess.run(
        [sys.executable, "-c", code + probe],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, check=True,
    )
    assert result.stderr in ("True", "False"), result.stderr
    return result.stdout, result.stderr == "True"


class TestImportBoundary:
    """Only the subcommands that compute with numpy import it."""

    def test_package_import_leaves_numpy_out(self):
        assert run_fresh("import qsslab") == ("", False)

    def test_help_leaves_numpy_out(self):
        out, numpy_imported = run_fresh(
            "import runpy, sys\n"
            "sys.argv = ['qsslab', '--help']\n"
            "try:\n"
            "    runpy.run_module('qsslab', run_name='__main__')\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0, exc.code"
        )
        assert out.startswith("usage: qsslab")
        assert not numpy_imported

    def test_search_classical_leaves_numpy_out(self):
        out, numpy_imported = run_fresh(
            "from qsslab import cli\n"
            "assert cli.main(['search-classical', '--n', '2', '--k', '2', '--max-rand', '2']) == 0"
        )
        assert out == (ROOT / "perfbench" / "goldens" / "search_n2_k2_m2.table").read_text()
        assert not numpy_imported

    def test_distance_leaves_numpy_out(self):
        out, numpy_imported = run_fresh(
            "from qsslab import cli\n"
            "assert cli.main(['distance', '--max-weight', '5']) == 0"
        )
        assert out == (ROOT / "perfbench" / "goldens" / "distance_w5.table").read_text()
        assert not numpy_imported

    def test_library_certificates_leave_numpy_out(self):
        out, numpy_imported = run_fresh(
            "import qsslab\n"
            "print(qsslab.verify_distance(5).certified_distance)\n"
            "print(qsslab.search_linear_schemes(5, 3, 5).found)"
        )
        assert out == "3\nFalse\n"
        assert not numpy_imported

    def test_logical_z_predicate_leaves_numpy_out(self):
        out, numpy_imported = run_fresh(
            "from qsslab.code5 import holds_logical_z\n"
            "print(holds_logical_z((1, 2, 3)), holds_logical_z((4, 5)))"
        )
        assert out == "True False\n"
        assert not numpy_imported

    def test_encode_quantum_imports_numpy(self):
        out, numpy_imported = run_fresh(
            "import qsslab\n"
            "print(qsslab.encode_quantum(qsslab.QubitSecret(1, 0)).num_qubits)"
        )
        assert out == "5\n"
        assert numpy_imported

    def test_report_imports_numpy(self):
        out, numpy_imported = run_fresh("from qsslab import cli\nassert cli.main(['report']) == 0")
        assert "threshold(3,5) structure: true" in out
        assert numpy_imported
