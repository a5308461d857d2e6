"""Tests for the one-command re-verification suite."""

import json
from pathlib import Path

import pytest

import heavenly.verifier as verifier
from heavenly.documents import report_document
from heavenly.errors import InputError
from heavenly.permgroups import SubdirectProduct, group_from_cycles
from heavenly.verifier import (
    BOUND_ROWS,
    CHECK_IDS,
    LemmaReport,
    run_all,
    run_check,
    verify_bounds,
    verify_corebound,
    verify_dim272,
    verify_flagship,
    verify_gl4,
    verify_octic,
    verify_subdirect,
)


def test_check_ids_are_canonical():
    assert CHECK_IDS == ("octic", "bounds", "subdirect", "corebound",
                         "dim272", "gl4", "flagship")


def test_octic_report():
    report = verify_octic()
    assert report.lemma == "octic"
    assert report.passed
    assert report.failures == ()
    assert report.value("order") == 128
    assert report.value("is_two_group") is True
    assert report.value("pair_search_generates") is False
    assert report.value("pairs_examined") == 128 * 128
    assert report.value("involution_search_generates") is False


def test_octic_involution_count_oracle():
    # Independent recount: elements of order dividing 2 in the Sylow group.
    from heavenly.permgroups import sylow_two_subgroup_s8

    involutions = sum(1 for p in sylow_two_subgroup_s8().elements
                      if p.order() <= 2)
    report = verify_octic()
    assert report.value("involution_count") == involutions
    assert report.value("involution_pairs_examined") == 128 * involutions


def test_bounds_report():
    report = verify_bounds()
    assert report.passed
    assert report.value("rows_checked") == 6
    assert report.value("bound_4_2") == 256
    assert report.value("bound_2_1_1_1_1") == 8
    assert len(BOUND_ROWS) == 6
    assert all(bound == report.value(
        "bound_" + "_".join(str(d) for d in degrees))
        for degrees, bound in BOUND_ROWS)


def test_subdirect_report():
    report = verify_subdirect()
    assert report.passed
    assert report.value("order_set") == (6, 18, 36)
    assert report.value("order_36_count") == 1
    assert report.value("all_have_index_three_subgroup") is True
    # Six graphs of automorphisms of S3, one order-18 product, the full group.
    assert report.value("orders") == (6, 6, 6, 6, 6, 6, 18, 36)
    assert report.value("count") == 8


def test_a_false_check_fails_its_report(monkeypatch):
    records = [SubdirectProduct(r.group, r.order, False)
               for r in verifier.subdirect_products_s3()]
    monkeypatch.setattr(verifier, "subdirect_products_s3", lambda: records)
    report = verify_subdirect()
    assert not report.passed
    assert report.value("all_have_index_three_subgroup") is False
    assert report.failures == (
        "all_have_index_three_subgroup: expected to hold",)


def test_corebound_report():
    report = verify_corebound()
    assert report.passed
    assert report.value("violations") == 0
    assert report.value("violations_s4") == 0
    assert report.value("violations_s3xs3") == 0
    assert report.value("chains_checked") > 0
    assert report.has_value("scope")


def test_dim272_report():
    report = verify_dim272()
    assert report.passed
    assert report.value("order") == 272
    assert report.value("order_factorization") == ((2, 4), (17, 1))
    assert report.value("is_two_group") is False
    assert report.value("regular_distinct_images") == 272
    assert report.value("regular_kernel_size") == 1
    assert report.value("regular_image_order") == 272
    assert report.value("torsion_degree_32a2") == 1
    assert report.value("torsion_degree_64a1") == 1


def test_dim272_two_group_flag_needs_the_prime_2(monkeypatch):
    # a group of odd prime-power order is a p-group but not a 2-group
    cycle = "(" + " ".join(str(i) for i in range(1, 18)) + ")"
    cyclic = group_from_cycles(17, cycle)
    monkeypatch.setattr(verifier, "affine_group_f17", lambda: cyclic)
    report = verify_dim272()
    assert report.value("order") == 17
    assert report.value("is_two_group") is False


def test_gl4_report():
    report = verify_gl4()
    assert report.passed
    assert report.value("nonzero_vectors") == 15
    assert report.value("group_order") == 20160
    assert report.value("citation") == "JONES_DEGREES"


def test_flagship_report():
    report = verify_flagship()
    assert report.passed
    assert report.value("status_jacobian_x5_minus_x") == "heavenly"
    assert report.value("closure_jacobian_x5_minus_x") == 2
    assert report.value("status_jacobian_x5_plus_x") == "heavenly"
    assert report.value("closure_jacobian_x5_plus_x") == 4
    assert report.value("status_jacobian_x6_minus_1") == "not_heavenly"
    assert report.value("witness_prime_x6_minus_1") == 3
    assert report.value("status_elliptic_x3_minus_2") == "not_heavenly"


def test_run_all_passes_in_order():
    reports = run_all()
    assert [r.lemma for r in reports] == list(CHECK_IDS)
    assert all(r.passed for r in reports)
    assert all(r.failures == () for r in reports)
    assert all(r.elapsed_seconds >= 0.0 for r in reports)
    assert sum(r.elapsed_seconds for r in reports) < 120.0


def test_evidence_is_reproducible():
    # Timing varies between runs; the evidence must not.
    for lemma in CHECK_IDS:
        first = run_check(lemma)
        second = run_check(lemma)
        assert first.evidence == second.evidence
        assert first.passed == second.passed


GOLDEN_VERIFY = (Path(__file__).resolve().parents[1] / "bench" / "golden"
                 / "verify.json")


@pytest.mark.parametrize("lemma", CHECK_IDS)
def test_check_evidence_matches_its_golden_copy(lemma):
    # report evidence is frozen under bench/golden/verify.json; only the
    # elapsed_seconds timing may differ
    doc = report_document(run_check(lemma))
    doc.pop("elapsed_seconds")
    golden = json.loads(GOLDEN_VERIFY.read_text(encoding="utf-8"))
    assert doc == golden[lemma]


def test_run_check_rejects_unknown_id():
    with pytest.raises(InputError):
        run_check("heptic")


def test_report_value_accessors():
    report = LemmaReport("demo", True, 0.0, (("answer", 42),))
    assert report.value("answer") == 42
    assert report.has_value("answer")
    assert not report.has_value("question")
    with pytest.raises(KeyError):
        report.value("question")
