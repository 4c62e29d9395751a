"""Replay recorded mutants of the program against the tier-1 suite.

Run as ``python tests/mutants.py``. Each mutant is one exact text patch of
one file. For each, the runner copies what the suite reads (``src``,
``tests``, ``perfbench``, README.md and pyproject.toml) to a temporary
directory, requires the old text to occur exactly once in the file,
applies the patch and runs ``python -m pytest -q -x tests`` on the copy.
Every mutant must make the suite fail; a run past ``TIMEOUT_S`` counts as
a failure. The suites run on a pool of ``WORKERS`` threads, each waiting on
its own pytest process and copy, and the results print in ``MUTANTS``
order. The working tree is only read. Exit status 0 when every mutant is
killed, 1 otherwise.

pytest collects only ``test_*.py``, so the tier-1 run does not collect
this file. Add a mutant here whenever a change is checked by mutating it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: (name, file, old text, new text): each must make tier-1 fail.
MUTANTS = [
    (
        "classify-inverted-predicate",
        "src/qsslab/access_analysis.py",
        "    if holds_logical_z(members):\n        classification, agrees",
        "    if not holds_logical_z(members):\n        classification, agrees",
    ),
    (
        "classify-dense-check-dropped",
        "src/qsslab/access_analysis.py",
        "    if not agrees:\n",
        "    if False:\n",
    ),
    (
        "reconstruct-quantum-inverted-predicate",
        "src/qsslab/access_analysis.py",
        "    if not holds_logical_z(members):\n        raise UnqualifiedSubsetError(",
        "    if holds_logical_z(members):\n        raise UnqualifiedSubsetError(",
    ),
    (
        "helstrom-check-dropped",
        "src/qsslab/access_analysis.py",
        "    if not abs(success - helstrom) <= VERDICT_ATOL:\n",
        "    if False:\n",
    ),
    (
        "isometry-check-dropped",
        "src/qsslab/access_analysis.py",
        "    if not np.max(np.abs(adjoint @ adjoint.conj().T - np.eye(2 * lost))) <= NORM_ATOL:\n",
        "    if False:\n",
    ),
    (
        "classical-guess-inverted",
        "src/qsslab/access_analysis.py",
        "guess, success = (0 if overlap >= 0.5 else 1), 1.0",
        "guess, success = (1 if overlap >= 0.5 else 0), 1.0",
    ),
    (
        "threshold-report-size-two",
        "src/qsslab/access_analysis.py",
        "== (len(v.subset) >= 3)",
        "== (len(v.subset) >= 2)",
    ),
    (
        "logical-z-reads-the-stabilizer-class",
        "src/qsslab/code5.py",
        "        diag_diff == 2.0 and all(",
        "        diag_diff == 0.0 and all(",
    ),
    (
        "normalizer-zbar-xbar-swap",
        "src/qsslab/code5.py",
        "classes = ((0, 0.0, 0.0), (z, 0.0, 2.0), (x, 1.0, 0.0), (z ^ x, 1.0, 0.0))",
        "classes = ((0, 0.0, 0.0), (z, 1.0, 0.0), (x, 0.0, 2.0), (z ^ x, 1.0, 0.0))",
    ),
    (
        "logical-z-support-inverted",
        "src/qsslab/code5.py",
        'all(c == "I" or q in members for',
        'all(c == "I" or q not in members for',
    ),
    (
        "distance-last-violation-reported-first",
        "src/qsslab/code5.py",
        "first_violation=violating[0] if violating else None,",
        "first_violation=violating[-1] if violating else None,",
    ),
    (
        "scan-order-support-inverted",
        "src/qsslab/code5.py",
        'return [c == "I" for c in letters], letters',
        'return [c != "I" for c in letters], letters',
    ),
    (
        "share-subset-integer-check-dropped",
        "src/qsslab/quantum_core.py",
        'sorted(checked_int(m, "member") for m in members)',
        "sorted(members)",
    ),
    (
        "pure-state-integer-check-dropped",
        "src/qsslab/quantum_core.py",
        '        object.__setattr__(self, "num_qubits", checked_int(self.num_qubits, "num_qubits"))\n',
        "",
    ),
    (
        "encode-classical-integer-check-dropped",
        "src/qsslab/code5.py",
        'if checked_int(s, "secret bit") not in (0, 1):',
        "if s not in (0, 1):",
    ),
    (
        "encode-classical-cache-untyped",
        "src/qsslab/code5.py",
        "@functools.lru_cache(maxsize=2, typed=True)\n",
        "@functools.lru_cache(maxsize=2)\n",
    ),
    (
        "checked-int-accepts-bool",
        "src/qsslab/tolerances.py",
        "    if not isinstance(value, bool):\n",
        "    if True:\n",
    ),
    (
        "density-psd-bound-loosened",
        "src/qsslab/quantum_core.py",
        "        if not lowest >= -PSD_ATOL:\n",
        "        if not lowest >= -1.0:\n",
    ),
    (
        "density-isfinite-dropped",
        "src/qsslab/quantum_core.py",
        "        if not np.isfinite(m).all():\n            raise ValueError(\"matrix entries must be finite\")\n",
        "",
    ),
    (
        "density-spectrum-writable",
        "src/qsslab/quantum_core.py",
        "        return _readonly(hermitian_eig(self.matrix)[0])\n",
        "        return hermitian_eig(self.matrix)[0]\n",
    ),
    (
        "eig-dispatch-inverted",
        "src/qsslab/quantum_core.py",
        "    if h.imag.any() or np.abs(h.real).max() >= 2.0**500:\n",
        "    if not (h.imag.any() or np.abs(h.real).max() >= 2.0**500):\n",
    ),
    (
        "eig-range-check-dropped",
        "src/qsslab/quantum_core.py",
        "    if h.imag.any() or np.abs(h.real).max() >= 2.0**500:\n",
        "    if h.imag.any():\n",
    ),
    (
        # Equivalent in values: at 32 x 32 the kernel's norms of entries of
        # exactly 2^500 reach 2^505 and their squares 2^1010, below the float
        # limit 2^1024. The suite's spy on the kernel still tells them apart.
        "eig-range-boundary-exclusive",
        "src/qsslab/quantum_core.py",
        "np.abs(h.real).max() >= 2.0**500:\n",
        "np.abs(h.real).max() > 2.0**500:\n",
    ),
    (
        "eig-empty-check-dropped",
        "src/qsslab/quantum_core.py",
        "    if not m.size:\n",
        "    if False:\n",
    ),
    (
        "real-jacobi-rotation-sign-dropped",
        "src/qsslab/quantum_core.py",
        "                msp = -s * phase\n",
        "                msp = s * phase\n",
    ),
    (
        "real-jacobi-pivot-not-zeroed",
        "src/qsslab/quantum_core.py",
        "                new_p[q] = new_q[p] = 0.0\n",
        "",
    ),
    (
        "real-jacobi-diagonal-fixup-dropped",
        "src/qsslab/quantum_core.py",
        "                new_p[p] = c * new_p[p] + sp * new_p[q]\n                new_q[q] = msp * new_q[p] + c * new_q[q]\n",
        "",
    ),
    (
        "real-jacobi-mirrors-column-p-only",
        "src/qsslab/quantum_core.py",
        "                    row[p], row[q] = x, y\n",
        "                    row[p] = x\n",
    ),
    (
        "search-key-without-secret-coset",
        "src/qsslab/classical_bound.py",
        "    return index.get(x, 0), index.get(x ^ secret_vec, 0)\n",
        "    return index.get(x, 0), 0\n",
    ),
    (
        "search-required-always-everything",
        "src/qsslab/classical_bound.py",
        "                required = sum(\n",
        "                required = everything | sum(\n",
    ),
    (
        "search-index-wrong-shift",
        "src/qsslab/classical_bound.py",
        "| subsets << (1 << depth)",
        "| subsets << depth",
    ),
    (
        "search-memo-drops-large-count",
        "src/qsslab/classical_bound.py",
        "                    memo[child_key] = counts\n",
        "                    memo[child_key] = counts[:3] + (0,)\n",
    ),
    (
        "search-memo-never-read",
        "src/qsslab/classical_bound.py",
        "                if witness is None:\n                    memo[child_key] = counts\n",
        "                if witness is not None:\n                    memo[child_key] = counts\n",
    ),
    (
        "search-witness-counts-every-candidate",
        "src/qsslab/classical_bound.py",
        "                seen = (low << 1) - 1\n",
        "                seen = everything\n",
    ),
    (
        "search-small-ids-one-size-short",
        "src/qsslab/classical_bound.py",
        "if t.bit_count() <= k - 2)",
        "if t.bit_count() <= k - 3)",
    ),
    (
        "search-child-key-without-parent-pairs",
        "src/qsslab/classical_bound.py",
        "            child_key = key + _key_pair(index, x, secret_vec)\n",
        "            child_key = _key_pair(index, x, secret_vec)\n",
    ),
    (
        "search-memo-hit-replays-nothing",
        "src/qsslab/classical_bound.py",
        "            counts = memo.get(child_key)\n            if counts is None:\n",
        "            counts = memo.get(child_key)\n            if counts is not None:\n"
        "                counts = (0, 0, 0, 0)\n            else:\n",
    ),
    (
        "threshold-rows-skip-k-subsets",
        "src/qsslab/classical_bound.py",
        "for t, s in enumerate(sums) if t.bit_count() <= k\n",
        "for t, s in enumerate(sums) if t.bit_count() < k\n",
    ),
    (
        "cli-double-dash-check-dropped",
        "src/qsslab/cli.py",
        "            if isinstance(value, list):\n",
        "            if False:\n",
    ),
    (
        "cli-empty-out-check-dropped",
        "src/qsslab/cli.py",
        "    if out_path is not None:\n",
        "    if out_path:\n",
    ),
    (
        "cli-expect-failure-ignored",
        "src/qsslab/cli.py",
        "    if failure is not None:\n",
        "    if False:\n",
    ),
    (
        "cli-output-dropped-on-failure",
        "src/qsslab/cli.py",
        "        _emit(text, args.out)\n",
        "        if failure is None:\n            _emit(text, args.out)\n",
    ),
    (
        "cli-empty-members-dropped",
        "src/qsslab/cli.py",
        'split(",")]',
        'split(",") if tok]',
    ),
    (
        "cli-usage-error-exits-2",
        "src/qsslab/cli.py",
        "        raise ValueError(message)\n",
        "        raise RuntimeError(message)\n",
    ),
    (
        "cli-nested-state-file-exits-2",
        "src/qsslab/cli.py",
        "    except RecursionError as exc:\n",
        "    except ZeroDivisionError as exc:\n",
    ),
    (
        "cli-non-utf8-state-file-unnamed",
        "src/qsslab/cli.py",
        "    except UnicodeDecodeError as exc:\n",
        "    except ZeroDivisionError as exc:\n",
    ),
    (
        "cli-qubit-count-check-dropped",
        "src/qsslab/cli.py",
        "    if psi.num_qubits != 5:\n",
        "    if False:\n",
    ),
    (
        "cli-code-space-check-dropped",
        "src/qsslab/cli.py",
        "    if not weight >= 1.0 - VERDICT_ATOL:\n",
        "    if False:\n",
    ),
    (
        "cli-format-accepts-bool",
        "src/qsslab/cli.py",
        'if type(doc.get("format")) is not int',
        'if not isinstance(doc.get("format"), int)',
    ),
    (
        "cli-num-qubits-unchecked",
        "src/qsslab/cli.py",
        'num_qubits = checked_int(doc.get("num_qubits"), "num_qubits")',
        'num_qubits = doc.get("num_qubits")',
    ),
    (
        "cli-stdout-unflushed",
        "src/qsslab/cli.py",
        "            sys.stdout.flush()\n",
        "",
    ),
    (
        "cli-failed-stdout-flushed-again-at-exit",
        "src/qsslab/cli.py",
        "            sys.stdout = None\n",
        "            pass\n",
    ),
]

# Known equivalent mutants, not replayed, since a passing suite proves
# nothing about equivalence:
# - classical_bound._search_fixed_m memoizing witness-bearing subtrees
#   (drop the `if witness is None:` guard): a witness returns straight up to
#   search_linear_schemes and the memo lives for one _search_fixed_m call,
#   so no lookup ever reads such an entry.
# - code5.encode_classical halving by `* 0.5` instead of `/ 2`: both halve
#   exactly in binary and give equal tobytes() words, signs of zero included.
# - code5._apply reading the sign parity from the target index, `c & z` for
#   `(c ^ x) & z`: the two differ by popcount(x & z), which is 0 for every
#   operator _apply receives (the generators and XXXXX have no Y).
# - quantum_core._real_jacobi_eig mirroring into every row but p and q: the
#   loop writes those two into the old row lists, which new_p and new_q
#   replace, so skipping them changes no entry.

#: Seconds one suite run may take before it counts as killed (a hung search).
TIMEOUT_S = 300
#: Suites run at once; each is one pytest process.
WORKERS = min(os.cpu_count() or 1, 4)
COPIED = ("src", "tests", "perfbench", "README.md", "pyproject.toml")
IGNORE = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info")


def patched(name: str, path: str, old: str, new: str) -> str:
    """The text of ``path`` with the patch applied; the old text must occur exactly once."""
    text = (ROOT / path).read_text(encoding="utf-8")
    count = text.count(old)
    if count != 1:
        raise SystemExit(f"{name}: the old text occurs {count} times in {path}, not once")
    return text.replace(old, new)


def suite_passes(path: str, text: str) -> bool:
    """Whether ``pytest -q -x tests`` passes on a copy of the tree with ``path`` holding ``text``."""
    with tempfile.TemporaryDirectory(prefix="qsslab-mutant-") as tmp:
        tree = Path(tmp)
        for part in COPIED:
            if (ROOT / part).is_dir():
                shutil.copytree(ROOT / part, tree / part, ignore=IGNORE)
            else:
                shutil.copy2(ROOT / part, tree / part)
        (tree / path).write_text(text, encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
        try:
            result = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "tests"],
                cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                timeout=TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return False
    return result.returncode == 0


def timed_suite(path: str, text: str) -> tuple[bool, float]:
    """``suite_passes`` and its wall time in seconds."""
    start = time.perf_counter()
    return suite_passes(path, text), time.perf_counter() - start


def main() -> int:
    # Every patch is checked before any suite runs, so a stale one fails at once.
    texts = [patched(name, path, old, new) for name, path, old, new in MUTANTS]
    paths = [path for _, path, _, _ in MUTANTS]
    survived = []
    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        # map yields in MUTANTS order, whichever suite ends first.
        for (name, *_), (passed, seconds) in zip(MUTANTS, pool.map(timed_suite, paths, texts)):
            if passed:
                survived.append(name)
            print(f"{'SURVIVED' if passed else 'killed':<8} {name} ({seconds:.1f} s)", flush=True)
    print(
        f"{len(survived)} of {len(MUTANTS)} mutant(s) survived" + (f": {', '.join(survived)}" if survived else "")
        + f" ({time.perf_counter() - start:.0f} s on {WORKERS} worker(s))"
    )
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
