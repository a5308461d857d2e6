"""Command-line surface: check suite, classification, algebra utilities."""

from __future__ import annotations

import argparse
import os
import sys
import time
from contextlib import suppress
from pathlib import Path

from .axioms import all_axioms
from .classify import classify
from .documents import (
    dump_document,
    input_from_document,
    output_document,
    read_document,
    report_document,
)
from .errors import InputError, ResourceCapError
from .factorization import factor_over_q
from .polynomials import format_polynomial, parse_polynomial, squarefree_part
from .ramification import splitting_field_odd_ramified
from .towers import splitting_degree
from .verifier import CHECK_IDS, run_all, run_check

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID = 2
EXIT_CAPPED = 3


# ---------------------------------------------------------------------------
# verify


def _print_report(report) -> None:
    state = "pass" if report.passed else "FAIL"
    print(f"check {report.lemma}: {state} ({report.elapsed_seconds:.2f}s)")
    for name, value in report.evidence:
        print(f"  {name} = {value}")
    for failure in report.failures:
        print(f"  FAIL: {failure}")


def cmd_verify(args) -> int:
    reports = [run_check(args.only)] if args.only else run_all()
    passed = all(r.passed for r in reports)
    if args.json:
        print(dump_document({
            "format": "heavenly-verification",
            "version": 1,
            "passed": passed,
            "reports": [report_document(r) for r in reports],
        }))
    else:
        for report in reports:
            _print_report(report)
        print(f"{sum(r.passed for r in reports)}/{len(reports)} "
              "checks passed")
    return EXIT_OK if passed else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# classify


def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text + "\n", encoding="utf-8")
        os.replace(tmp, path)
    except OSError:
        # the original error is the one to report
        with suppress(OSError):
            tmp.unlink(missing_ok=True)
        raise


def _write_failed(path, exc: OSError) -> int:
    print(f"error: cannot write {path}: {exc.strerror or exc}",
          file=sys.stderr)
    return EXIT_INVALID


def _classify_document(doc: dict) -> dict:
    start = time.perf_counter()
    verdict = classify(input_from_document(doc))
    return output_document(doc, verdict, time.perf_counter() - start)


def _status_exit(status: str) -> int:
    return EXIT_CAPPED if status == "unknown" else EXIT_OK


def _classify_batch(in_dir: Path, out_dir: Path) -> int:
    if not in_dir.is_dir():
        print(f"error: {in_dir} is not a directory", file=sys.stderr)
        return EXIT_INVALID
    # a batch's own outputs are not inputs, so a rerun into INDIR reads
    # the same files as the first run
    files = sorted(p for p in in_dir.iterdir()
                   if p.is_file() and p.suffix == ".json"
                   and not p.name.endswith(".cert.json"))
    if not files:
        print(f"error: no .json files under {in_dir}, not counting "
              "*.cert.json outputs", file=sys.stderr)
        return EXIT_INVALID
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return _write_failed(out_dir, exc)
    worst = EXIT_OK
    any_invalid = False
    for path in files:
        try:
            document = _classify_document(read_document(path))
        except InputError as exc:
            print(f"{path.name}: invalid ({exc})", file=sys.stderr)
            any_invalid = True
            continue
        target = out_dir / (path.stem + ".cert.json")
        try:
            _write_atomic(target, dump_document(document))
        except OSError as exc:
            return _write_failed(target, exc)
        status = document["verdict"]["status"]
        print(f"{path.name}: {status} -> {target.name}")
        worst = max(worst, _status_exit(status))
    return EXIT_INVALID if any_invalid else worst


def cmd_classify(args) -> int:
    if args.dir is not None:
        return _classify_batch(Path(args.path), Path(args.dir))
    document = _classify_document(read_document(Path(args.path)))
    text = dump_document(document)
    if args.out is not None:
        try:
            _write_atomic(Path(args.out), text)
        except OSError as exc:
            return _write_failed(args.out, exc)
    else:
        print(text)
    return _status_exit(document["verdict"]["status"])


# ---------------------------------------------------------------------------
# tool


def _tool_factor(expr: str) -> None:
    f = parse_polynomial(expr)
    if f.degree == 0:
        raise InputError("cannot factor a constant polynomial")
    for factor, multiplicity in factor_over_q(f):
        suffix = f"  (multiplicity {multiplicity})" if multiplicity > 1 else ""
        print(format_polynomial(factor) + suffix)


def _tool_splitting_degree(expr: str) -> None:
    f = squarefree_part(parse_polynomial(expr))
    print(splitting_degree(f))


def _tool_ramification(expr: str) -> None:
    f = squarefree_part(parse_polynomial(expr))
    if f.degree < 1:
        raise InputError("cannot split a constant polynomial")
    primes = sorted(splitting_field_odd_ramified([f]))
    print("{" + ", ".join(str(p) for p in primes) + "}")


def _tool_axioms() -> None:
    for record in all_axioms():
        print(record.id)
        print(f"  source: {record.source}")
        print(f"  when:   {record.applies_when}")
        print(f"  then:   {record.conclusion}")


# the tools that take a polynomial, with their help text
_TOOLS = {
    "factor": (_tool_factor, "irreducible factors over the rationals"),
    "splitting-degree": (_tool_splitting_degree,
                         "degree of the splitting field over the rationals"),
    "ramification": (_tool_ramification,
                     "odd primes ramified in the splitting field"),
}


def cmd_tool(args) -> int:
    if args.tool == "axioms":
        _tool_axioms()
    else:
        _TOOLS[args.tool][0](args.polynomial)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heavenly",
        description="Exact verification and classification of two-power "
                    "torsion towers for low-dimensional abelian varieties.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser(
        "verify", help="re-run the finite checks behind the classification")
    p_verify.add_argument(
        "--only", metavar="ID",
        help="run a single check; one of: " + ", ".join(CHECK_IDS))
    p_verify.add_argument(
        "--json", action="store_true", help="emit reports as JSON")

    p_classify = sub.add_parser(
        "classify", help="classify an input document into a certificate")
    p_classify.add_argument(
        "path", help="input JSON file, or an input directory with --dir")
    target = p_classify.add_mutually_exclusive_group()
    target.add_argument(
        "--out", metavar="FILE", help="write the certificate to FILE")
    target.add_argument(
        "--dir", metavar="OUTDIR",
        help="batch mode: certify every .json under PATH into OUTDIR")

    p_tool = sub.add_parser("tool", help="algebra utilities")
    tool_sub = p_tool.add_subparsers(dest="tool", required=True)
    for name, (_, text) in _TOOLS.items():
        tp = tool_sub.add_parser(name, help=text)
        tp.add_argument("polynomial", help="like 'x^4 - 2' or '2*x^2 - 1/3'")
    tool_sub.add_parser("axioms", help="list the cited external statements")

    return parser


_COMMANDS = {
    "verify": cmd_verify,
    "classify": cmd_classify,
    "tool": cmd_tool,
}


def _mark_polynomial(argv: list) -> list:
    """argv with "--" before a tool's polynomial that starts with "-",
    which argparse would otherwise read as an option."""
    if (len(argv) == 3 and argv[0] == "tool" and argv[1] in _TOOLS
            and argv[2].startswith("-")
            and argv[2] not in ("-h", "--help", "--")):
        return argv[:2] + ["--"] + argv[2:]
    return argv


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(_mark_polynomial(argv))
    try:
        return _COMMANDS[args.command](args)
    except (InputError, ResourceCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID if isinstance(exc, InputError) else EXIT_CAPPED


if __name__ == "__main__":
    # the package has one entry point; running this module would otherwise
    # define the commands, run none and exit 0
    print("error: run heavenly as 'python -m heavenly' or the 'heavenly' "
          "script", file=sys.stderr)
    raise SystemExit(EXIT_INVALID)
