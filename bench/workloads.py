"""Seeded inputs of the three workloads and the frozen expectations they meet.

``corpus`` is the shipped ``corpus/*.json`` set, classified in one CLI
batch; the seed only shuffles file order.  ``hard`` draws twelve generic
inputs, four from each of three families; the seed picks and orders them.
``verify`` runs the seven checks of ``run_all()``; the seed orders them.
Seed 0 keeps every list in canonical order, and its first three hard
inputs are the ROADMAP hard set: x^5-2, x^3-2 over Q(sqrt-2), and the
Weil restriction over Q(sqrt3) that stops at the ramification cap.
"""

from __future__ import annotations

import json
import random
import re
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"

WORKLOADS = ("corpus", "hard", "verify")
CHECK_IDS = ("octic", "bounds", "subdirect", "corebound", "dim272", "gl4",
             "flagship")

# one pass over hard covers every Weil member once
HARD_ROUNDS = 4

_BASES = {"Q(sqrt-2)": "sqrt_minus_2", "Q(i)": "i", "Q(sqrt2)": "sqrt2"}


def _jacobian(a: int) -> tuple[str, dict]:
    return (f"jacobian_x5_minus_{a}",
            {"kind": "jacobian", "base_field": "Q",
             "poly": [-a, 0, 0, 0, 0, 1]})


def _elliptic(base: str, a: int) -> tuple[str, dict]:
    return (f"elliptic_x3_minus_{a}_over_{_BASES[base]}",
            {"kind": "elliptic", "base_field": base, "cubic": [-a, 0, 0, 1]})


def _weil(d: int) -> tuple[str, dict]:
    return (f"weil_two_cubic_D{d}",
            {"kind": "weil_restriction", "base_field": "Q", "D": d,
             "cubic": ["-1-s", "-1", "0", "1"]})


def hard_families() -> tuple[list, list, list]:
    """The three generic families, canonical order, ROADMAP members first."""
    jacobians = [_jacobian(a) for a in (2, 3, 5, 6, 7)]
    elliptics = [_elliptic(base, a)
                 for base in ("Q(sqrt-2)", "Q(i)", "Q(sqrt2)")
                 for a in (2, 3, 5)]
    weils = [_weil(d) for d in (3, 5, 6, 7)]
    return jacobians, elliptics, weils


def _shuffled(items: list, rng: random.Random | None) -> list:
    items = list(items)
    if rng is not None:
        rng.shuffle(items)
    return items


def _rng(seed: int) -> random.Random | None:
    return random.Random(seed) if seed != 0 else None


def hard_inputs(seed: int) -> list[tuple[str, dict]]:
    """Twelve (id, document) pairs: four rounds of one input per family."""
    rng = _rng(seed)
    families = [_shuffled(family, rng) for family in hard_families()]
    return [family[k] for k in range(HARD_ROUNDS) for family in families]


def corpus_inputs(root: Path, seed: int) -> list[tuple[str, dict]]:
    """The shipped corpus as (file stem, document), in seeded order."""
    paths = sorted((root / "corpus").glob("*.json"))
    return [(p.stem, json.loads(p.read_text(encoding="utf-8")))
            for p in _shuffled(paths, _rng(seed))]


def verify_order(seed: int) -> list[str]:
    return _shuffled(CHECK_IDS, _rng(seed))


def write_inputs(items: list[tuple[str, dict]], in_dir: Path) -> list[str]:
    """Write the documents so that the CLI's sorted batch keeps their order.

    Returns the file stems, in order.
    """
    in_dir.mkdir(parents=True)
    stems = []
    for k, (item_id, doc) in enumerate(items):
        stem = f"{k:02d}-{item_id}"
        (in_dir / f"{stem}.json").write_text(json.dumps(doc),
                                             encoding="utf-8")
        stems.append(stem)
    return stems


# ---------------------------------------------------------------------------
# Frozen expectations.


_ELAPSED = re.compile(r',\n  "elapsed_seconds": [^\n]*')


def certificate_body(text: str) -> str:
    """A certificate file's text without its elapsed_seconds timing."""
    return _ELAPSED.sub("", text)


def check_corpus(item_id: str, body: str) -> str | None:
    golden = (GOLDEN / "corpus" / f"{item_id}.cert.json").read_text(
        encoding="utf-8")
    if body != golden:
        return "certificate body differs from its golden copy"
    return None


def _reported_primes(doc: dict) -> tuple[list[list[int]], list[int]]:
    """Every ``primes`` list and every ``witness_prime`` in a certificate."""
    lists, witnesses = [], []
    for step in doc["certificate"]:
        values = step["values"]
        if "primes" in values:
            lists.append(values["primes"])
        if "witness_prime" in values:
            witnesses.append(values["witness_prime"])
    return lists, witnesses


def check_hard(item_id: str, doc: dict, truth: dict) -> str | None:
    """Compare one hard certificate with its truth-table row."""
    row = truth[item_id]
    verdict = doc["verdict"]
    if verdict["status"] not in row["status"]:
        return f"status {verdict['status']}, expected one of {row['status']}"
    if verdict["torsion_field_degree"] != row["torsion_field_degree"]:
        return (f"torsion degree {verdict['torsion_field_degree']}, "
                f"expected {row['torsion_field_degree']}")
    if verdict["galois_closure_degree"] is not None:
        return "closure degree reported for an odd-ramified input"
    lists, witnesses = _reported_primes(doc)
    if not any(row["must_report"] in primes for primes in lists):
        return f"odd prime {row['must_report']} not reported"
    if verdict["status"] == "not_heavenly":
        if len(witnesses) != 1:
            return "not_heavenly without exactly one witness prime"
        ramified = row["ramified_primes"]
        if ramified is not None and (lists[-1] != ramified
                                     or witnesses[0] != ramified[0]):
            return (f"ramified primes {lists[-1]} witness {witnesses[0]}, "
                    f"expected {ramified}")
        if witnesses[0] % 2 == 0 or witnesses[0] not in lists[-1]:
            return f"witness prime {witnesses[0]} not an odd ramified prime"
    return None


def check_verify(check_id: str, report: dict, golden: dict) -> str | None:
    """Compare a report document (timing removed) with its golden copy."""
    if report != golden[check_id]:
        if not report["passed"]:
            return "check failed: " + "; ".join(report["failures"])
        return "evidence differs from its golden copy"
    return None


def load_golden(name: str) -> dict:
    return json.loads((GOLDEN / name).read_text(encoding="utf-8"))
