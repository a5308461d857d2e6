"""Tests for the JSON document layer."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from heavenly.classify import COMPUTED, EllipticInput, Step, Verdict, classify
from heavenly.documents import (
    document_from_input,
    dump_document,
    encode_rational,
    input_from_document,
    output_document,
    parse_rational,
    read_document,
    replayed_verdict,
    report_document,
)
from heavenly.errors import InputError
from heavenly.polynomials import (
    UniPoly,
    parse_quadratic_pair,
    quadratic_pair_text,
)
from heavenly.verifier import LemmaReport, verify_bounds

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

ELLIPTIC_DOC = {"kind": "elliptic", "base_field": "Q", "cubic": [0, -1, 0, 1]}
JACOBIAN_DOC = {"kind": "jacobian", "base_field": "Q",
                "poly": [0, -1, 0, 0, 0, 1]}
PRODUCT_DOC = {"kind": "product", "base_field": "Q",
               "first": {"kind": "elliptic", "base_field": "Q",
                         "cubic": [0, -1, 0, 1]},
               "second": {"kind": "elliptic", "base_field": "Q",
                          "cubic": [0, -4, 0, 1]}}
WEIL_DOC = {"kind": "weil_restriction", "base_field": "Q", "D": 2,
            "cubic": ["0", "-s", "0", "1"]}


def test_parse_rational_accepts_ints_and_fraction_strings():
    assert parse_rational(7) == Fraction(7)
    assert parse_rational("-3") == Fraction(-3)
    assert parse_rational("5/4") == Fraction(5, 4)
    assert parse_rational(" -7/2 ") == Fraction(-7, 2)
    assert parse_rational(" -1 ") == Fraction(-1)
    assert parse_rational("3\n") == Fraction(3)


@pytest.mark.parametrize("bad", [1.5, True, False, "1.5", "1e3", "1/0",
                                 "a", "", None, [1],
                                 "\u0663", "-\u0663/4", "\uff11\uff12",
                                 "1/\u0662"])
def test_parse_rational_rejects_inexact_forms(bad):
    with pytest.raises(InputError):
        parse_rational(bad)


def test_encode_rational_keeps_small_ints_and_strings_large_ones():
    assert encode_rational(Fraction(7)) == 7
    assert encode_rational(Fraction(-2) ** 53) == -(2 ** 53)
    assert encode_rational(Fraction(2 ** 53 + 1)) == str(2 ** 53 + 1)
    assert encode_rational(Fraction(1, 2)) == "1/2"
    assert parse_rational(encode_rational(Fraction(10 ** 30, 7))) \
        == Fraction(10 ** 30, 7)


def test_quadratic_pair_grammar():
    # a + b*s entries are polynomials of degree at most 1 in s, in the
    # grammar of parse_polynomial without exponents; terms may repeat
    cases = {
        "s": (0, 1), "-s": (0, -1), "2*s": (0, 2), "1+2*s": (1, 2),
        "1-s": (1, -1), "-1/2+3/4*s": (Fraction(-1, 2), Fraction(3, 4)),
        "0": (0, 0), " 1 + 2*s ": (1, 2), "-1": (-1, 0),
        "1+1": (2, 0), "+s": (0, 1), "1/2*s": (0, Fraction(1, 2)),
        "s-s": (0, 0), "0*s": (0, 0), "2*s+3*s-1": (-1, 5),
        "1 / 2 * s": (0, Fraction(1, 2)), "-0/7": (0, 0), "007*s": (0, 7),
        "s+1-2/4": (Fraction(1, 2), 1),
    }
    for text, (a, b) in cases.items():
        assert parse_quadratic_pair(text) == (Fraction(a), Fraction(b))


@pytest.mark.parametrize("bad", ["2s", "s*2", "--1", "", "1.5", "x",
                                 "1+*s", "1/0", "s+t", 3,
                                 "s^0", "s^1", "s^2", "2*s*s", "sqrt2",
                                 "s-", "+", "-", " ", "1-+s", "++s", "s*",
                                 "*s", "1/2/3*s", "1/*s", "/2", "x+s",
                                 "1+x", "2*x", None, ("1", "s"),
                                 "s\n+1", "1\n+s", "2*s\n-1",
                                 "\u0663*s", "s+\u0661"])
def test_quadratic_pair_rejects(bad):
    with pytest.raises(InputError):
        parse_quadratic_pair(bad)


def test_quadratic_pair_strips_surrounding_whitespace():
    # as parse_rational does for a scalar entry
    assert parse_quadratic_pair("\t1+s\n") == (Fraction(1), Fraction(1))


def test_quadratic_pair_format_round_trip():
    pairs = [(0, 1), (0, -1), (1, 2), (1, -1), (Fraction(-1, 2),
             Fraction(3, 4)), (3, 0), (0, 2), (-2, -3)]
    for a, b in pairs:
        pair = (Fraction(a), Fraction(b))
        assert parse_quadratic_pair(quadratic_pair_text(pair)) == pair


def test_document_from_input_prints_pairs_as_certificates_do():
    # one a + b*s printer: documents spell a unit b as certificates do
    doc = dict(WEIL_DOC, cubic=["s", "-s", "1-s", "1"])
    back = document_from_input(input_from_document(doc))
    assert back["cubic"] == ["1*s", "-1*s", "1-1*s", "1"]
    assert input_from_document(back) == input_from_document(doc)


@pytest.mark.parametrize("doc", [ELLIPTIC_DOC, JACOBIAN_DOC, PRODUCT_DOC,
                                 WEIL_DOC])
def test_input_document_round_trip(doc):
    item = input_from_document(doc)
    back = document_from_input(item)
    assert input_from_document(back) == item


def test_a_twisted_sextic_round_trips_as_its_model():
    # y^2 = -2/3 x^6 + x + 1/2 is y^2 = c g(x) with c = -6, the signed
    # squarefree part of -2 * 3, and g = x^6 - 1536x - 3072 monic
    item = input_from_document({"kind": "jacobian", "base_field": "Q",
                                "poly": ["1/2", 1, 0, 0, 0, 0, "-2/3"]})
    back = document_from_input(item)
    assert back["poly"] == [18432, 9216, 0, 0, 0, 0, -6]
    assert input_from_document(back) == item


def test_document_from_input_rejects_other_objects():
    with pytest.raises(InputError, match="not a classifier input"):
        document_from_input(object())


@pytest.mark.parametrize("doc", [
    "not a dict",
    {"kind": "mystery", "base_field": "Q"},
    {"kind": "elliptic", "base_field": "Q(sqrt5)", "cubic": [0, -1, 0, 1]},
    {"kind": "elliptic", "base_field": ["Q"], "cubic": [0, -1, 0, 1]},
    {"kind": ["elliptic"], "base_field": "Q", "cubic": [0, -1, 0, 1]},
    {"kind": "weil_restriction", "base_field": {"Q": 1}, "D": 2,
     "cubic": ["0", "-s", "0", "1"]},
    {"kind": "elliptic", "base_field": "Q"},
    {"kind": "elliptic", "base_field": "Q", "cubic": [0, -1, 0, 1],
     "extra": 1},
    {"kind": "elliptic", "base_field": "Q", "cubic": [0, -1.0, 0, 1]},
    {"kind": "elliptic", "base_field": "Q", "cubic": []},
    {"kind": "elliptic", "base_field": "Q", "cubic": [1, 1]},
    {"kind": "jacobian", "base_field": "Q", "poly": [1, 0, 0, 1]},
    {"kind": "product", "base_field": "Q", "first": ELLIPTIC_DOC,
     "second": "nope"},
    {"kind": "product", "base_field": "Q", "first": ELLIPTIC_DOC,
     "second": JACOBIAN_DOC},
    {"kind": "product", "base_field": "Q", "first": ELLIPTIC_DOC,
     "second": {"kind": "elliptic", "base_field": "Q(i)",
                "cubic": [0, -1, 0, 1]}},
    {"kind": "weil_restriction", "base_field": "Q", "D": 4,
     "cubic": ["0", "-s", "0", "1"]},
    {"kind": "weil_restriction", "base_field": "Q", "D": 2,
     "cubic": ["0", "-s", "0"]},
    {"kind": "weil_restriction", "base_field": "Q", "D": 2,
     "cubic": ["0", "-s", "0", "2"]},
])
def test_input_document_rejects(doc):
    with pytest.raises(InputError):
        input_from_document(doc)


def test_output_document_shape():
    verdict = classify(input_from_document(ELLIPTIC_DOC))
    doc = output_document(ELLIPTIC_DOC, verdict, 0.25)
    assert doc["format"] == "heavenly-certificate"
    assert doc["version"] == 1
    assert doc["input"] == ELLIPTIC_DOC
    assert doc["verdict"]["status"] == "heavenly"
    assert doc["verdict"]["torsion_field_degree"] == 1
    assert doc["verdict"]["galois_closure_degree"] == 1
    assert doc["verdict"]["screen"] == "plausible"
    assert doc["elapsed_seconds"] == 0.25
    assert len(doc["certificate"]) == len(verdict.steps)
    for entry, step in zip(doc["certificate"], verdict.steps):
        assert entry["kind"] == step.kind
        assert entry["description"] == step.description
        assert set(entry["values"]) == {name for name, _ in step.values}
    text = dump_document(doc)
    assert json.loads(text) == doc


def test_output_document_stringifies_big_integers():
    item = EllipticInput.from_cubic("Q", UniPoly.of(-10 ** 10, 0, 0, 1))
    verdict = classify(item)
    doc = output_document(document_from_input(item), verdict, 0.0)
    screen = next(entry for entry in doc["certificate"]
                  if "discriminant" in entry["values"])
    value = screen["values"]["discriminant"]
    assert isinstance(value, str)
    assert int(value) == -27 * 10 ** 20


def test_tuple_values_become_lists():
    verdict = classify(input_from_document(JACOBIAN_DOC))
    doc = output_document(JACOBIAN_DOC, verdict, 0.0)
    degrees = next(entry for entry in doc["certificate"]
                   if "factor_degrees" in entry["values"])
    assert degrees["values"]["factor_degrees"] == [2, 1, 1, 1, 1]


@pytest.mark.parametrize("value, encoded", [
    (Fraction(-3, 4), "-3/4"),
    (Fraction(6), 6),
    (UniPoly.of(-2, 0, 1), "x^2 - 2"),
    (frozenset({7, 3, 5}), [3, 5, 7]),
])
def test_step_and_evidence_values_encode(value, encoded):
    verdict = Verdict("heavenly", (Step(COMPUTED, "a step", (("v", value),)),),
                      1, 1, "plausible")
    doc = output_document(ELLIPTIC_DOC, verdict, 0.0)
    assert doc["certificate"][0]["values"]["v"] == encoded
    report = report_document(LemmaReport("demo", True, 0.0, (("v", value),), ()))
    assert report["evidence"][0]["value"] == encoded


def test_unencodable_values_are_rejected():
    verdict = Verdict("heavenly", (Step(COMPUTED, "a step",
                                        (("v", object()),)),),
                      1, 1, "plausible")
    with pytest.raises(InputError, match="cannot encode"):
        output_document(ELLIPTIC_DOC, verdict, 0.0)
    with pytest.raises(InputError, match="cannot encode"):
        report_document(LemmaReport("demo", True, 0.0, (("v", object()),), ()))


@pytest.mark.parametrize("doc", [ELLIPTIC_DOC, JACOBIAN_DOC, PRODUCT_DOC,
                                 WEIL_DOC])
def test_certificates_replay_to_the_same_verdict(doc):
    verdict = classify(input_from_document(doc))
    output = output_document(doc, verdict, 0.0)
    replay = replayed_verdict(output)
    assert replay.status == verdict.status
    assert replay.steps == verdict.steps
    assert replay.closure_degree == verdict.closure_degree


def test_replay_requires_an_input_section():
    with pytest.raises(InputError):
        replayed_verdict({"verdict": {"status": "heavenly"}})


def test_report_document_shape():
    report = verify_bounds()
    doc = report_document(report)
    assert doc["lemma"] == "bounds"
    assert doc["passed"] is True
    assert doc["failures"] == []
    names = [entry["name"] for entry in doc["evidence"]]
    assert names[0] == "bound_4_2"
    assert json.loads(dump_document(doc)) == doc


def test_corpus_documents_all_load():
    paths = sorted(CORPUS.glob("*.json"))
    assert len(paths) == 9
    kinds = set()
    for path in paths:
        doc = read_document(path)
        kinds.add(doc["kind"])
        input_from_document(doc)
    assert kinds == {"elliptic", "jacobian", "product", "weil_restriction"}


def test_read_document_rejects_bad_files(tmp_path):
    missing = tmp_path / "missing.json"
    with pytest.raises(InputError):
        read_document(missing)
    garbled = tmp_path / "garbled.json"
    garbled.write_text("not json", encoding="utf-8")
    with pytest.raises(InputError):
        read_document(garbled)
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"kind": "elliptic", "base_field": "Q\xe9"}')
    with pytest.raises(InputError, match="can't decode"):
        read_document(latin1)
