"""The command line's exit contract, stated once for every test of it.

``tests/test_cli.py`` checks it on ``cli.main`` in process and
``tests/entry_point_goldens.py`` through the installed console script:

- exit 0: nothing on stderr;
- exit 1 (a usage or domain error): nothing on stdout and exactly one
  stderr line, which starts with ``error: ``;
- exit 2 (a verification failure): exactly one stderr line, which starts
  with ``verification fail``; the output before it may stand.
"""

PREFIXES = {1: "error: ", 2: "verification fail"}


def check_exit(code: int, stdout: str, stderr: str) -> str:
    """Assert the contract for one run; return its one stderr line ("" on exit 0)."""
    if code == 0:
        assert stderr == "", stderr
        return ""
    assert code in PREFIXES, (code, stderr)
    if code == 1:
        assert stdout == "", stdout
    lines = stderr.splitlines(keepends=True)
    assert len(lines) == 1, stderr
    assert lines[0].startswith(PREFIXES[code]) and lines[0].endswith("\n"), stderr
    return lines[0]
