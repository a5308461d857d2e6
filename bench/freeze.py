"""Write the frozen expectations under bench/golden from the current program.

Usage: python3 bench/freeze.py

Run it only in a change that deliberately re-freezes the benchmark's
expectations; the benchmark itself never writes them.  It writes:

- ``golden/corpus/<stem>.cert.json``: each corpus certificate body, without
  its ``elapsed_seconds`` timing;
- ``golden/verify.json``: each check's report document, without timing;
- ``golden/hard_truth.json``: one row per member of the three hard families,
  derived from theory (status, torsion degree, odd ramified primes, the odd
  prime that must be reported), checked against the program, with each
  member's single-item time measured once in this process.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from heavenly import cli, documents, verifier  # noqa: E402
from heavenly.classify import classify  # noqa: E402
from heavenly.integers import odd_prime_divisors  # noqa: E402


def freeze_corpus(work: Path) -> None:
    out = work / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["classify", str(ROOT / "corpus"), "--dir", str(out)])
    if code != 0:
        raise SystemExit(f"corpus batch exited {code}")
    target = workloads.GOLDEN / "corpus"
    target.mkdir(parents=True, exist_ok=True)
    for cert in sorted(out.glob("*.cert.json")):
        body = workloads.certificate_body(cert.read_text(encoding="utf-8"))
        (target / cert.name).write_text(body, encoding="utf-8")


def freeze_verify() -> None:
    golden = {}
    for check_id in workloads.CHECK_IDS:
        doc = documents.report_document(verifier.run_check(check_id))
        doc.pop("elapsed_seconds")
        if not doc["passed"]:
            raise SystemExit(f"check {check_id} fails")
        golden[check_id] = doc
    _write("verify.json", golden)


def _truth_row(family: str, doc: dict) -> dict:
    """Expected outcome from theory alone."""
    if family == "jacobian":
        # Q(zeta_5) lies in the splitting field of x^5 - a: 5 ramifies
        a = -doc["poly"][0]
        return {"status": ["not_heavenly"], "torsion_field_degree": 20,
                "ramified_primes": sorted({5, *odd_prime_divisors(a)}),
                "must_report": 5}
    if family == "elliptic":
        # Q(sqrt-3) lies in the splitting field of x^3 - a: 3 ramifies
        a = -doc["cubic"][0]
        return {"status": ["not_heavenly"], "torsion_field_degree": 6,
                "ramified_primes": sorted({3, *odd_prime_divisors(a)}),
                "must_report": 3}
    # the quadratic step ramifies at the odd primes of D; the 72-degree
    # field is past today's ramification cap, so unknown is accepted
    return {"status": ["not_heavenly", "unknown"], "torsion_field_degree": 72,
            "ramified_primes": None,
            "must_report": odd_prime_divisors(doc["D"])[0]}


def freeze_hard() -> None:
    truth = {}
    for family, members in zip(("jacobian", "elliptic", "weil"),
                               workloads.hard_families()):
        for item_id, doc in members:
            row = _truth_row(family, doc)
            start = time.perf_counter()
            verdict = classify(documents.input_from_document(doc))
            seconds = time.perf_counter() - start
            cert = documents.output_document(doc, verdict, seconds)
            error = workloads.check_hard(item_id, cert, {item_id: row})
            if error is not None:
                raise SystemExit(f"{item_id}: {error}")
            truth[item_id] = {"family": family, "input": doc, **row,
                              "status_today": verdict.status,
                              "measured_s": round(seconds, 2)}
            print(f"{item_id}: {verdict.status} in {seconds:.2f}s",
                  flush=True)
    _write("hard_truth.json", truth)


def _write(name: str, data) -> None:
    (workloads.GOLDEN / name).write_text(
        json.dumps(data, indent=2) + "\n", encoding="utf-8")


def main() -> None:
    (BENCH / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=BENCH / ".work"))
    try:
        freeze_corpus(work)
    finally:
        shutil.rmtree(work)
    freeze_verify()
    freeze_hard()


if __name__ == "__main__":
    main()
