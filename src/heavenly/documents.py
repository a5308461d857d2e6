"""JSON documents: classifier inputs, certificates, and check reports."""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .classify import (
    EllipticInput,
    JacobianInput,
    ProductInput,
    Verdict,
    WeilRestrictionInput,
    classify,
)
from .errors import DigitLimitError, InputError
from .polynomials import (
    UniPoly,
    format_polynomial,
    parse_quadratic_pair,
    quadratic_pair_text,
)
from .towers import base_field
from .verifier import LemmaReport

DOCUMENT_FORMAT = "heavenly-certificate"
DOCUMENT_VERSION = 1

INPUT_KINDS = ("elliptic", "jacobian", "product", "weil_restriction")

# JSON numbers above this magnitude lose exactness in common readers, so
# larger integers travel as decimal strings.
_EXACT_INT_LIMIT = 2 ** 53

_RATIONAL_TEXT = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


# ---------------------------------------------------------------------------
# Scalars.


def parse_rational(value) -> Fraction:
    """A Fraction from a JSON integer or a string like '-3' or '5/4'."""
    if isinstance(value, bool):
        raise InputError(f"expected a rational number, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if not _RATIONAL_TEXT.fullmatch(text):
            raise InputError(f"not an integer or fraction string: {value!r}")
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise InputError(f"zero denominator in {value!r}") from None
        except ValueError as exc:
            raise DigitLimitError(str(exc)) from None
    raise InputError(f"expected a rational number, got {value!r}")


def encode_rational(q: Fraction) -> int | str:
    """JSON encoding of an exact rational: small integers stay numbers."""
    q = Fraction(q)
    if q.denominator == 1:
        n = q.numerator
        return n if abs(n) <= _EXACT_INT_LIMIT else str(n)
    return f"{q.numerator}/{q.denominator}"


# ---------------------------------------------------------------------------
# Input documents.


def _require_keys(doc: dict, keys: tuple[str, ...]) -> None:
    missing = [k for k in keys if k not in doc]
    if missing:
        raise InputError("missing input fields: " + ", ".join(missing))
    extra = [k for k in doc if k not in keys]
    if extra:
        raise InputError("unexpected input fields: " + ", ".join(extra))


def _parse_base_field(doc: dict) -> str:
    tag = doc["base_field"]
    base_field(tag)
    return tag


def _parse_coefficients(value, what: str) -> UniPoly:
    if not isinstance(value, list) or not value:
        raise InputError(f"{what} must be a non-empty coefficient list")
    return UniPoly.of(*[parse_rational(entry) for entry in value])


def _parse_elliptic(doc: dict) -> EllipticInput:
    _require_keys(doc, ("kind", "base_field", "cubic"))
    base = _parse_base_field(doc)
    return EllipticInput.from_cubic(base, _parse_coefficients(
        doc["cubic"], "cubic"))


def _parse_jacobian(doc: dict) -> JacobianInput:
    _require_keys(doc, ("kind", "base_field", "poly"))
    base = _parse_base_field(doc)
    return JacobianInput.from_poly(base, _parse_coefficients(
        doc["poly"], "poly"))


def _parse_product(doc: dict) -> ProductInput:
    _require_keys(doc, ("kind", "base_field", "first", "second"))
    base = _parse_base_field(doc)
    factors = []
    for name in ("first", "second"):
        sub = doc[name]
        if not isinstance(sub, dict):
            raise InputError(f"{name} must be an elliptic input document")
        if sub.get("kind") != "elliptic":
            raise InputError(f"{name} must have kind 'elliptic'")
        if sub.get("base_field") != base:
            raise InputError(f"{name} must share the base field {base!r}")
        factors.append(_parse_elliptic(sub))
    return ProductInput(factors[0], factors[1])


def _parse_weil(doc: dict) -> WeilRestrictionInput:
    _require_keys(doc, ("kind", "base_field", "D", "cubic"))
    base = _parse_base_field(doc)
    radicand = parse_rational(doc["D"])
    entries = doc["cubic"]
    if not isinstance(entries, list) or len(entries) != 4:
        raise InputError("weil_restriction cubic needs 4 'a+b*s' entries")
    pairs = tuple(parse_quadratic_pair(entry) for entry in entries)
    return WeilRestrictionInput.of(base, radicand, pairs)


_PARSERS = {
    "elliptic": _parse_elliptic,
    "jacobian": _parse_jacobian,
    "product": _parse_product,
    "weil_restriction": _parse_weil,
}


def input_from_document(doc):
    """The classifier input described by a parsed JSON document."""
    if not isinstance(doc, dict):
        raise InputError("input document must be a JSON object")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in _PARSERS:
        known = ", ".join(INPUT_KINDS)
        raise InputError(f"unknown kind {kind!r}; expected one of {known}")
    return _PARSERS[kind](doc)


def read_document(path):
    """The parsed JSON of a UTF-8 file; InputError when it cannot be read,
    is not UTF-8, or is not JSON."""
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:
        # undecodable bytes, malformed JSON, an integer past Python's digit
        # limit, or nesting past the recursion limit
        raise InputError(f"invalid JSON in {path}: {exc}") from None


def document_from_input(item) -> dict:
    """The JSON document describing a classifier input."""
    if isinstance(item, EllipticInput):
        return {"kind": "elliptic", "base_field": item.base,
                "cubic": [encode_rational(c) for c in item.cubic.coeffs]}
    if isinstance(item, JacobianInput):
        return {"kind": "jacobian", "base_field": item.base,
                "poly": [encode_rational(c) for c in item.poly.coeffs]}
    if isinstance(item, ProductInput):
        return {"kind": "product", "base_field": item.base,
                "first": document_from_input(item.first),
                "second": document_from_input(item.second)}
    if isinstance(item, WeilRestrictionInput):
        return {"kind": "weil_restriction", "base_field": item.base,
                "D": encode_rational(item.radicand),
                "cubic": [quadratic_pair_text(p) for p in item.cubic]}
    raise InputError(f"not a classifier input: {item!r}")


# ---------------------------------------------------------------------------
# Output documents.


def _encode_value(value):
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return value if abs(value) <= _EXACT_INT_LIMIT else str(value)
    if isinstance(value, Fraction):
        return encode_rational(value)
    if isinstance(value, str) or value is None:
        return value
    if isinstance(value, UniPoly):
        return format_polynomial(value)
    if isinstance(value, (tuple, list, set, frozenset)):
        items = sorted(value) if isinstance(value, (set, frozenset)) else value
        return [_encode_value(v) for v in items]
    raise InputError(f"cannot encode value {value!r} in a document")


def output_document(input_doc: dict, verdict: Verdict,
                    elapsed_seconds: float) -> dict:
    """The certificate document for a classified input."""
    certificate = []
    for step in verdict.steps:
        certificate.append({
            "kind": step.kind,
            "description": step.description,
            "values": {name: _encode_value(value)
                       for name, value in step.values},
        })
    return {
        "format": DOCUMENT_FORMAT,
        "version": DOCUMENT_VERSION,
        "input": input_doc,
        "verdict": {
            "status": verdict.status,
            "torsion_field_degree": verdict.torsion_degree,
            "galois_closure_degree": verdict.closure_degree,
            "screen": verdict.screen,
        },
        "certificate": certificate,
        "elapsed_seconds": round(float(elapsed_seconds), 6),
    }


def replayed_verdict(doc: dict) -> Verdict:
    """Re-run the pipeline on a certificate document's embedded input."""
    if not isinstance(doc, dict) or "input" not in doc:
        raise InputError("certificate document has no input section")
    return classify(input_from_document(doc["input"]))


def report_document(report: LemmaReport) -> dict:
    """The JSON rendering of a verification report."""
    return {
        "lemma": report.lemma,
        "passed": report.passed,
        "elapsed_seconds": round(report.elapsed_seconds, 6),
        "evidence": [{"name": name, "value": _encode_value(value)}
                     for name, value in report.evidence],
        "failures": list(report.failures),
    }


def dump_document(doc: dict) -> str:
    """Serialize a document as UTF-8-friendly, key-stable JSON text."""
    return json.dumps(doc, indent=2, ensure_ascii=False, sort_keys=False)
