"""Command-line front end: encode states, emit reports, run verifications.

Exit codes: 0 success, 1 usage or domain error (unknown flags, bad
values, malformed files, states outside the code space, an empty or
unwritable --out path, a failed write to stdout), 2 verification failure
(a failed --expect check or any internal RuntimeError). Each subcommand
returns its output and the reason a check failed; ``main`` alone writes
them and picks the exit code. All numeric table/csv output carries 15
significant digits; JSON uses exact round-trip floats.

``reconstruct --expect-*`` exits 2, after writing its JSON, when the
recovered state's fidelity with the expected secret is below 1 -
VERDICT_ATOL; ``--mode classical`` recovers no state and refuses it.

The certificates take no tolerance or bound flag: ``distance`` compares
with VERDICT_ATOL, ``search-classical`` 1-bit shares with n - k + 2.

The numeric modules, and with them numpy, are imported inside the
subcommands that compute with them: ``distance``, ``search-classical``
and ``--help`` run on pure-Python code alone (``code5``'s (x | z) distance
certificate and the GF(2) search).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from typing import TYPE_CHECKING, NoReturn, Optional, Sequence

from .classical_bound import search_linear_schemes, share_size_bound
from .code5 import verify_distance
from .tolerances import VERDICT_ATOL

if TYPE_CHECKING:
    from .quantum_core import PureState

STATE_FORMAT_VERSION = 1


def state_to_document(psi: PureState) -> dict:
    """JSON-ready document for a pure state (big-endian amplitude order)."""
    return {
        "format": STATE_FORMAT_VERSION,
        "num_qubits": psi.num_qubits,
        "amplitudes": [[float(a.real), float(a.imag)] for a in psi.amplitudes],
    }


def state_from_document(doc: dict) -> PureState:
    """Parse and validate a state document."""
    from .quantum_core import PureState

    if not isinstance(doc, dict):
        raise ValueError("state document must be a JSON object")
    # Integer fields must be JSON integers: not true, 1.0, 5.5 or "5".
    if type(doc.get("format")) is not int or doc["format"] != STATE_FORMAT_VERSION:
        raise ValueError(f"unsupported state format: {doc.get('format')!r}")
    num_qubits = doc.get("num_qubits")
    if type(num_qubits) is not int:
        raise ValueError(f"malformed state document: num_qubits must be an integer, got {num_qubits!r}")
    try:
        pairs = [(re, im) for re, im in doc["amplitudes"]]
        # Amplitude parts must be JSON numbers: not true, null or "0.5".
        if not all(type(part) in (int, float) for pair in pairs for part in pair):
            raise ValueError("amplitude parts must be numbers")
        amps = [complex(re, im) for re, im in pairs]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed state document: {exc}") from exc
    return PureState(num_qubits, amps)


def read_state(path: str) -> PureState:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read state file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"state file {path} is not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValueError(f"state file {path} is not UTF-8: {exc}") from exc
    except RecursionError as exc:
        # A RuntimeError, which main reports as a verification failure.
        raise ValueError(f"state file {path} is nested too deeply: {exc}") from exc
    return state_from_document(doc)


def _dump_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def _emit(text: str, out_path: Optional[str]) -> None:
    # Flushing stdout here makes a full disk or a closed pipe one error
    # line and exit 1, not a traceback.
    try:
        if out_path is not None:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        if out_path is None:
            # Drop the stream and the text still in its buffer, which the
            # interpreter would otherwise fail to flush again at exit.
            sys.stdout = None
        raise ValueError(f"cannot write {'<stdout>' if out_path is None else out_path}: {exc}") from exc


def _fmt(x: float) -> str:
    return f"{x:.15g}"


def _table(rows: list[tuple[str, ...]]) -> list[str]:
    widths = [max(map(len, column)) for column in zip(*rows)]
    return ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) == 1:
        return complex(float(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(float(parts[0]), float(parts[1]))
    raise ValueError(f"cannot parse complex number from {text!r} (use 're' or 're,im')")


def _parse_members(text: str) -> tuple[int, ...]:
    from .quantum_core import share_subset

    try:
        members = [int(tok) for tok in text.replace(" ", "").split(",")]
    except ValueError as exc:
        raise ValueError(f"cannot parse members from {text!r}") from exc
    return share_subset(members)


def _secret(bit: Optional[int], alpha0: Optional[str], alpha1: Optional[str], flag: str):
    """The QubitSecret given as ``--{flag}secret`` or ``--{flag}alpha0/1``, or None."""
    from .code5 import QubitSecret

    if (alpha0 is None) != (alpha1 is None):
        raise ValueError(f"--{flag}alpha0 and --{flag}alpha1 must be given together")
    if bit is not None and alpha0 is not None:
        raise ValueError(f"give either --{flag}secret or --{flag}alpha0/1, not both")
    if alpha0 is not None:
        return QubitSecret(_parse_complex(alpha0), _parse_complex(alpha1))
    return None if bit is None else QubitSecret(float(bit == 0), float(bit == 1))


def _cmd_encode(args: argparse.Namespace) -> tuple[str, None]:
    from .code5 import encode_quantum

    secret = _secret(args.secret, args.alpha0, args.alpha1, "")
    if secret is None:
        raise ValueError("encode needs --secret or --alpha0/--alpha1")
    return _dump_json(state_to_document(encode_quantum(secret))), None


def _cmd_report(args: argparse.Namespace) -> tuple[str, None]:
    from .access_analysis import SecretPrior, access_structure_report

    report = access_structure_report(SecretPrior.from_q0(args.prior))
    records = report.to_records()
    if args.format == "json":
        doc = {
            "prior": {"q0": report.prior.q0, "q1": report.prior.q1},
            "is_threshold": report.is_threshold,
            "subsets": records,
        }
        return _dump_json(doc), None
    table = args.format == "table"
    sep, wrap = (",", "{%s}") if table else (";", "%s")
    rows = [("members", "holevo_bits", "trace_dist", "classification")]
    for rec in records:
        members = wrap % sep.join(str(i) for i in rec["members"])
        rows.append((members, _fmt(rec["holevo_bits"]), _fmt(rec["trace_dist"]), rec["classification"]))
    if table:
        lines = _table(rows)
        lines.append(f"prior: q0={_fmt(report.prior.q0)} q1={_fmt(report.prior.q1)}")
        lines.append(f"threshold(3,5) structure: {str(report.is_threshold).lower()}")
    else:
        lines = [",".join(row) for row in rows]
    return "\n".join(lines) + "\n", None


def _cmd_distance(args: argparse.Namespace) -> tuple[str, Optional[str]]:
    report = verify_distance(args.max_weight)
    if args.format == "json":
        doc = {
            "max_weight": report.max_weight,
            "tolerance": VERDICT_ATOL,
            "certified_distance": report.certified_distance,
            "weights": [asdict(c) for c in report.checks],
        }
        text = _dump_json(doc)
    else:
        rows = [("weight", "operators", "max_off", "max_diagdiff", "violations", "first")]
        for c in report.checks:
            rows.append(
                (
                    str(c.weight),
                    str(c.operators_checked),
                    _fmt(c.max_off_diagonal),
                    _fmt(c.max_diagonal_difference),
                    str(c.violations),
                    c.first_violation or "-",
                )
            )
        lines = _table(rows)
        if report.certified_distance is None:
            lines.append(f"no violation up to weight {report.max_weight}")
        else:
            lines.append(f"certified distance: {report.certified_distance}")
        text = "\n".join(lines) + "\n"
    if args.expect is not None and report.certified_distance != args.expect:
        return text, f"certified distance {report.certified_distance} != expected {args.expect}"
    return text, None


def _cmd_reconstruct(args: argparse.Namespace) -> tuple[str, Optional[str]]:
    from .access_analysis import SecretPrior, reconstruct_classical, reconstruct_quantum
    from .code5 import encode_classical
    from .quantum_core import reduced_state

    secret = _secret(args.expect_secret, args.expect_alpha0, args.expect_alpha1, "expect-")
    if secret is not None and args.mode == "classical":
        raise ValueError("--expect-* needs --mode quantum or both: classical mode recovers no state to check")
    members = _parse_members(args.members)
    psi = read_state(args.state)
    if psi.num_qubits != 5:
        raise ValueError(f"reconstruct needs a five-qubit state, {args.state} holds {psi.num_qubits}")
    weight = sum(abs(encode_classical(s).overlap(psi)) ** 2 for s in (0, 1))
    if not weight >= 1.0 - VERDICT_ATOL:
        raise ValueError(f"{args.state} lies outside the code space: weight {_fmt(weight)}")
    rho = reduced_state(psi, members)
    prior = SecretPrior.from_q0(args.prior)
    doc: dict = {"members": list(members)}

    if args.mode in ("classical", "both"):
        classical = reconstruct_classical(members, rho, prior)
        doc["classical"] = {
            "guess": classical.guess,
            "success_probability": classical.success_probability,
            "support_overlap": classical.support_overlap,
        }
    if args.mode in ("quantum", "both"):
        quantum = reconstruct_quantum(members, rho, secret)
        doc["quantum"] = {
            "recovered": [
                [[float(x.real), float(x.imag)] for x in row]
                for row in quantum.recovered.matrix
            ],
            "fidelity": quantum.fidelity,
        }
    if secret is not None and not quantum.fidelity >= 1.0 - VERDICT_ATOL:
        return _dump_json(doc), f"fidelity {_fmt(quantum.fidelity)} < 1 - {VERDICT_ATOL:g}"
    return _dump_json(doc), None


def _cmd_search_classical(args: argparse.Namespace) -> tuple[str, None]:
    report = search_linear_schemes(args.n, args.k, args.max_rand, prune=not args.no_prune)
    required = share_size_bound(args.n, args.k)
    average = 2.0  # 1-bit shares: every alphabet has two symbols
    satisfied = average >= required
    if args.format == "json":
        doc = {
            "verdict": "found" if report.found else "none",
            "search": asdict(report),
            "bound": {
                "average_share_size": average,
                "required": required,
                "satisfied": satisfied,
            },
        }
        return _dump_json(doc), None
    lines = [
        f"verdict: {'found' if report.found else 'none'}",
        f"assignments tried: {report.assignments_tried}",
        f"schemes completed: {report.schemes_completed}",
        f"pruned (small subset qualified): {report.pruned_small_qualified}",
        f"pruned (k-subset unqualified): {report.pruned_large_unqualified}",
        f"share-size bound: average {_fmt(average)} vs required {required} -> "
        + ("satisfied" if satisfied else "violated"),
    ]
    if report.witness is not None:
        lines.append(f"witness vectors: {report.witness.vectors}")
    return "\n".join(lines) + "\n", None


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as ValueError, so main reports them with exit 1."""

    def error(self, message: str) -> NoReturn:
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qsslab",
        description="Numerical laboratory for the five-qubit (3,5) quantum secret sharing scheme.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_encode = sub.add_parser("encode", help="encode a secret into five quantum shares")
    p_encode.add_argument("--secret", type=int, choices=(0, 1), default=None)
    p_encode.add_argument("--alpha0", type=str, default=None, help="quantum secret amplitude for |0> ('re' or 're,im')")
    p_encode.add_argument("--alpha1", type=str, default=None, help="quantum secret amplitude for |1>")
    p_encode.set_defaults(func=_cmd_encode)

    p_report = sub.add_parser("report", help="classify all 31 share subsets")
    p_report.add_argument("--prior", type=float, default=0.5, help="probability q0 of secret bit 0")
    p_report.add_argument("--format", choices=("json", "table", "csv"), default="table")
    p_report.set_defaults(func=_cmd_report)

    p_dist = sub.add_parser("distance", help="run the error-operator distance certification")
    p_dist.add_argument("--max-weight", type=int, default=3)
    p_dist.add_argument("--expect", type=int, default=None, help="fail (exit 2) unless the certified distance matches")
    p_dist.add_argument("--format", choices=("json", "table"), default="table")
    p_dist.set_defaults(func=_cmd_distance)

    p_rec = sub.add_parser("reconstruct", help="reconstruct the secret from a subset of shares")
    p_rec.add_argument("--state", type=str, required=True, help="path to an encoded five-qubit state file")
    p_rec.add_argument("--members", type=str, required=True, help="comma-separated share indices, e.g. 1,2,3")
    p_rec.add_argument("--prior", type=float, default=0.5)
    p_rec.add_argument("--mode", choices=("classical", "quantum", "both"), default="both")
    p_rec.add_argument("--expect-secret", type=int, choices=(0, 1), default=None, help="expected bit: fail (exit 2) on a fidelity below 1 - 1e-9")
    p_rec.add_argument("--expect-alpha0", type=str, default=None)
    p_rec.add_argument("--expect-alpha1", type=str, default=None)
    p_rec.set_defaults(func=_cmd_reconstruct)

    p_search = sub.add_parser("search-classical", help="search GF(2)-linear classical schemes")
    p_search.add_argument("--n", type=int, required=True)
    p_search.add_argument("--k", type=int, required=True)
    p_search.add_argument("--max-rand", type=int, default=5, help="largest randomness bit count to enumerate")
    p_search.add_argument("--no-prune", action="store_true")
    p_search.add_argument("--format", choices=("json", "table"), default="table")
    p_search.set_defaults(func=_cmd_search_classical)

    for p in sub.choices.values():
        p.add_argument("--out", type=str, default=None)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # argparse reads a value of "--", as in --prior=--, as an empty list.
        for name, value in vars(args).items():
            if isinstance(value, list):
                raise ValueError(f"--{name.replace('_', '-')} cannot take the value \"--\"")
        text, failure = args.func(args)
        _emit(text, args.out)
    except RuntimeError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if failure is not None:
        print(f"verification failed: {failure}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
