"""Tests for the command-line interface."""

import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import heavenly.cli as cli
import heavenly.permgroups as permgroups
import heavenly.ramification as ramification
import heavenly.towers as towers
from heavenly.cli import main
from heavenly.errors import ResourceCapError
from heavenly.polynomials import UniPoly
from heavenly.verifier import CHECK_IDS, LemmaReport

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
GOLDEN = ROOT / "bench" / "golden" / "corpus"
ELAPSED = re.compile(r',\n  "elapsed_seconds": [^\n]*')


def write_doc(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


GOOD_DOC = {"kind": "elliptic", "base_field": "Q", "cubic": [0, -1, 0, 1]}
# documents that once escaped as TypeError, UnicodeDecodeError, ValueError
# (an integer past Python's digit limit) or RecursionError
MALFORMED = {
    "list_base.json": json.dumps({"kind": "elliptic", "base_field": ["Q"],
                                  "cubic": [0, -1, 0, 1]}).encode(),
    "list_kind.json": json.dumps({"kind": ["elliptic"], "base_field": "Q",
                                  "cubic": [0, -1, 0, 1]}).encode(),
    "latin1.json": b'{"kind": "elliptic", "base_field": "Q\xff"}',
    "long_int.json": b'{"kind": "elliptic", "base_field": "Q", "cubic": [' +
                     b"1" * 5000 + b", 0, 0, 1]}",
    "deep.json": b"[" * 100000 + b"]" * 100000,
}
# a number written with more digits than Python's int() reads, and the
# limit the error must name
LONG_NUMBER = "9" * 5000
DIGIT_LIMIT = f"({sys.get_int_max_str_digits()} digits)"
# with the field degree cap at 24, this input's tower refuses the degree-40
# norm of the quartic cofactor of x^5 - 2 over Q(i, theta)
CAP_DOC = {"kind": "jacobian", "base_field": "Q(i)",
           "poly": [-2, 0, 0, 0, 0, 1]}
# with a cap met while factoring x^2 - 15016 in the screen, this input
# stops before the screen has an outcome
SCREEN_CAP_DOC = {"kind": "weil_restriction", "base_field": "Q",
                  "D": 15016, "cubic": ["-1-s", "-1", "0", "1"]}
SCREEN_CAP_DETAIL = "factoring x^2 - 15016 capped"


def cap_the_screen(monkeypatch):
    real = ramification.factor_over_q

    def capped(f):
        if f == UniPoly.of(-15016, 0, 1):
            raise ResourceCapError(SCREEN_CAP_DETAIL)
        return real(f)

    monkeypatch.setattr(ramification, "factor_over_q", capped)


def test_verify_single_check(capsys):
    assert main(["verify", "--only", "octic"]) == 0
    out = capsys.readouterr().out
    assert "check octic: pass" in out
    assert "pairs_examined = 16384" in out
    assert "1/1 checks passed" in out


def test_verify_unknown_check(capsys):
    assert main(["verify", "--only", "nope"]) == 2
    assert "unknown check" in capsys.readouterr().err


def test_verify_full_suite(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert f"{len(CHECK_IDS)}/{len(CHECK_IDS)} checks passed" in out
    for lemma in CHECK_IDS:
        assert f"check {lemma}: pass" in out


def test_verify_json_output(capsys):
    assert main(["verify", "--only", "bounds", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["format"] == "heavenly-verification"
    assert doc["passed"] is True
    assert [r["lemma"] for r in doc["reports"]] == ["bounds"]


def test_verify_failure_exit_code(capsys, monkeypatch):
    broken = LemmaReport("demo", False, 0.0, (("answer", 41),),
                         ("answer: expected 42, got 41",))
    monkeypatch.setattr(cli, "run_all", lambda: [broken])
    assert main(["verify"]) == 1
    out = capsys.readouterr().out
    assert "check demo: FAIL" in out
    assert "FAIL: answer" in out


def test_classify_to_stdout(capsys, tmp_path):
    path = write_doc(tmp_path / "curve.json", GOOD_DOC)
    assert main(["classify", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"]["status"] == "heavenly"
    assert doc["input"] == GOOD_DOC
    assert doc["certificate"]


def test_classify_to_file(tmp_path):
    path = write_doc(tmp_path / "curve.json", GOOD_DOC)
    target = tmp_path / "curve.cert.json"
    assert main(["classify", str(path), "--out", str(target)]) == 0
    doc = json.loads(target.read_text(encoding="utf-8"))
    assert doc["verdict"]["status"] == "heavenly"
    assert not list(tmp_path.glob("*.tmp"))


def test_classify_invalid_document(capsys, tmp_path):
    path = write_doc(tmp_path / "bad.json", {"kind": "elliptic"})
    assert main(["classify", str(path)]) == 2
    assert "missing input fields" in capsys.readouterr().err


def test_classify_certifies_a_twisted_sextic(tmp_path):
    # y^2 = 3x^6 - 3 is the twist by 3 of y^2 = x^6 - 1, which no monic
    # model carries: the model keeps the twist as its leading coefficient
    path = write_doc(tmp_path / "sextic.json", {
        "kind": "jacobian", "base_field": "Q",
        "poly": ["-3", 0, 0, 0, 0, 0, "3"]})
    target = tmp_path / "sextic.cert.json"
    assert main(["classify", str(path), "--out", str(target)]) == 0
    doc = json.loads(target.read_text(encoding="utf-8"))
    assert doc["verdict"]["status"] == "not_heavenly"
    model = [step["values"] for step in doc["certificate"]
             if step["description"] == "normalized genus-2 model y^2 = f(x)"]
    assert model[0]["polynomial"] == "3*x^6 - 3"
    assert doc["certificate"][-1]["values"]["witness_prime"] == 3


def test_classify_unreadable_file(capsys, tmp_path):
    assert main(["classify", str(tmp_path / "absent.json")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_classify_resource_cap_exit(capsys, tmp_path, monkeypatch):
    # the lowered field degree cap stops this input's tower; uncapped it
    # decides not_heavenly at the odd prime 5
    monkeypatch.setattr(towers, "FIELD_DEGREE_CAP", 24)
    path = write_doc(tmp_path / "cap.json", CAP_DOC)
    target = tmp_path / "cap.cert.json"
    assert main(["classify", str(path), "--out", str(target)]) == 3
    doc = json.loads(target.read_text(encoding="utf-8"))
    assert doc["verdict"]["status"] == "unknown"
    assert "resource cap" in doc["certificate"][-1]["description"]
    assert doc["certificate"][-1]["values"]["detail"] == \
        "norm descent: field degree 40 exceeds cap 24"


def test_classify_exits_3_when_odd_good_reduction_is_undecided(tmp_path):
    # 32a2 twisted by 3: its 2-division field passes, its screen does not
    path = write_doc(tmp_path / "twist.json", {
        "kind": "elliptic", "base_field": "Q", "cubic": [0, -9, 0, 1]})
    target = tmp_path / "twist.cert.json"
    assert main(["classify", str(path), "--out", str(target)]) == 3
    doc = json.loads(target.read_text(encoding="utf-8"))
    assert doc["verdict"]["status"] == "unknown"
    assert doc["verdict"]["screen"] == "unknown"
    assert doc["certificate"][-1]["values"] == {
        "status": "unknown", "odd_parts": [729]}


def test_verify_exits_3_on_a_resource_cap(capsys, monkeypatch):
    monkeypatch.setattr(permgroups, "DEFAULT_ELEMENT_CAP", 10)
    assert main(["verify", "--only", "octic"]) == 3
    assert capsys.readouterr().err == \
        "error: group closure exceeded 10 elements\n"


def test_verify_exits_3_on_the_subgroup_order_cap(capsys, monkeypatch):
    monkeypatch.setattr(permgroups, "SUBGROUP_ORDER_CAP", 24)
    assert main(["verify", "--only", "corebound"]) == 3
    assert capsys.readouterr().err == ("error: subgroup enumeration capped "
                                       "at order 24; group has order 36\n")


def test_classify_prints_the_certificate_of_a_cap_in_the_screen(
        capsys, tmp_path, monkeypatch):
    cap_the_screen(monkeypatch)
    path = write_doc(tmp_path / "cap.json", SCREEN_CAP_DOC)
    assert main(["classify", str(path)]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"]["status"] == "unknown"
    assert doc["verdict"]["screen"] is None
    assert doc["certificate"][-1]["values"]["detail"] == SCREEN_CAP_DETAIL


def test_classify_batch_certifies_a_cap_in_the_screen(
        capsys, tmp_path, monkeypatch):
    cap_the_screen(monkeypatch)
    indir = tmp_path / "in"
    outdir = tmp_path / "out"
    indir.mkdir()
    write_doc(indir / "cap.json", SCREEN_CAP_DOC)
    assert main(["classify", str(indir), "--dir", str(outdir)]) == 3
    assert capsys.readouterr().out == "cap.json: unknown -> cap.cert.json\n"
    doc = json.loads((outdir / "cap.cert.json").read_text(encoding="utf-8"))
    assert doc["verdict"]["status"] == "unknown"
    assert doc["certificate"][-1]["values"]["detail"] == SCREEN_CAP_DETAIL


def test_classify_batch(capsys, tmp_path):
    indir = tmp_path / "in"
    outdir = tmp_path / "out"
    indir.mkdir()
    write_doc(indir / "a.json", GOOD_DOC)
    write_doc(indir / "b.json", {"kind": "elliptic", "base_field": "Q",
                                 "cubic": [-2, 0, 0, 1]})
    assert main(["classify", str(indir), "--dir", str(outdir)]) == 0
    out = capsys.readouterr().out
    assert "a.json: heavenly" in out
    assert "b.json: not_heavenly" in out
    for name, status in (("a.cert.json", "heavenly"),
                         ("b.cert.json", "not_heavenly")):
        doc = json.loads((outdir / name).read_text(encoding="utf-8"))
        assert doc["verdict"]["status"] == status
    assert not list(outdir.glob("*.tmp"))


def test_classify_batch_reruns_into_its_input_directory(capsys, tmp_path):
    # the second run reads only a.json, not the a.cert.json the first wrote
    write_doc(tmp_path / "a.json", GOOD_DOC)
    for _ in range(2):
        assert main(["classify", str(tmp_path), "--dir", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert captured.out == "a.json: heavenly -> a.cert.json\n"
        assert captured.err == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.cert.json",
                                                         "a.json"]
    # with the input gone, only an output is left, and it is not an input
    (tmp_path / "a.json").unlink()
    assert main(["classify", str(tmp_path), "--dir", str(tmp_path)]) == 2
    assert "not counting *.cert.json outputs" in capsys.readouterr().err


def test_classify_batch_keeps_going_past_invalid_files(capsys, tmp_path):
    indir = tmp_path / "in"
    outdir = tmp_path / "out"
    indir.mkdir()
    write_doc(indir / "good.json", GOOD_DOC)
    write_doc(indir / "bad.json", {"kind": "elliptic"})
    assert main(["classify", str(indir), "--dir", str(outdir)]) == 2
    assert (outdir / "good.cert.json").exists()
    assert not (outdir / "bad.cert.json").exists()
    assert "bad.json: invalid" in capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_classify_malformed_document_is_invalid(capsys, tmp_path, name):
    path = tmp_path / name
    path.write_bytes(MALFORMED[name])
    assert main(["classify", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_classify_batch_certifies_past_malformed_documents(capsys, tmp_path):
    indir = tmp_path / "in"
    outdir = tmp_path / "out"
    indir.mkdir()
    for name, data in MALFORMED.items():
        (indir / ("a_" + name)).write_bytes(data)   # sorted first
    shutil.copy(CORPUS / "weil_sqrt2.json", indir)
    assert main(["classify", str(indir), "--dir", str(outdir)]) == 2
    doc = json.loads((outdir / "weil_sqrt2.cert.json").read_text(
        encoding="utf-8"))
    assert doc["verdict"]["status"] == "heavenly"
    assert [p.name for p in outdir.iterdir()] == ["weil_sqrt2.cert.json"]
    err = capsys.readouterr().err
    for name in MALFORMED:
        assert f"a_{name}: invalid" in err


def test_classify_batch_rejects_non_directory(capsys, tmp_path):
    path = write_doc(tmp_path / "curve.json", GOOD_DOC)
    assert main(["classify", str(path), "--dir", str(tmp_path / "o")]) == 2
    assert "not a directory" in capsys.readouterr().err


def test_classify_to_missing_directory_is_invalid(capsys, tmp_path):
    path = write_doc(tmp_path / "curve.json", GOOD_DOC)
    target = tmp_path / "missing_dir" / "curve.cert.json"
    assert main(["classify", str(path), "--out", str(target)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write")


def test_classify_batch_into_a_file_is_invalid(capsys, tmp_path):
    indir = tmp_path / "in"
    indir.mkdir()
    write_doc(indir / "a.json", GOOD_DOC)
    taken = write_doc(tmp_path / "taken", GOOD_DOC)
    assert main(["classify", str(indir), "--dir", str(taken)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write")


def test_classify_onto_a_directory_leaves_no_temporary_file(capsys,
                                                            tmp_path):
    path = write_doc(tmp_path / "curve.json", GOOD_DOC)
    target = tmp_path / "taken"
    target.mkdir()
    assert main(["classify", str(path), "--out", str(target)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {target}")
    assert not list(tmp_path.glob("*.tmp"))


def test_classify_batch_onto_a_directory_leaves_no_temporary_file(
        capsys, tmp_path):
    indir = tmp_path / "in"
    indir.mkdir()
    write_doc(indir / "a.json", GOOD_DOC)
    outdir = tmp_path / "out"
    target = outdir / "a.cert.json"
    target.mkdir(parents=True)
    assert main(["classify", str(indir), "--dir", str(outdir)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {target}")
    assert not list(outdir.glob("*.tmp"))


def test_classify_batch_rejects_empty_directory(capsys, tmp_path):
    indir = tmp_path / "empty"
    indir.mkdir()
    assert main(["classify", str(indir), "--dir", str(tmp_path / "o")]) == 2
    assert "no .json files" in capsys.readouterr().err


def test_tool_factor(capsys):
    assert main(["tool", "factor", "x^4-1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["x - 1", "x + 1", "x^2 + 1"]


def test_tool_factor_shows_multiplicity(capsys):
    assert main(["tool", "factor", "x^2 - 2*x + 1"]) == 0
    assert "(multiplicity 2)" in capsys.readouterr().out


def test_tool_splitting_degree(capsys):
    # a D4 quartic's cofactor is refactored over the new level; a C4
    # quartic's is settled by the resolvent test over Q
    assert main(["tool", "splitting-degree", "x^4-2"]) == 0
    assert capsys.readouterr().out.strip() == "8"
    assert main(["tool", "splitting-degree", "x^4+x^3+x^2+x+1"]) == 0
    assert capsys.readouterr().out.strip() == "4"
    # an F20 quintic's stabiliser is settled by a checked proposal, an S5
    # quintic's by the resolvent norm
    assert main(["tool", "splitting-degree", "x^5+15*x+12"]) == 0
    assert capsys.readouterr().out.strip() == "20"
    assert main(["tool", "splitting-degree", "x^5-x-1"]) == 0
    assert capsys.readouterr().out.strip() == "120"


def test_tool_exits_3_on_a_resource_cap(capsys, monkeypatch):
    monkeypatch.setattr(towers, "FIELD_DEGREE_CAP", 4)
    assert main(["tool", "splitting-degree", "x^3 - 2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        "error: splitting tower: field degree 6 exceeds cap 4\n"


def test_tool_ramification(capsys):
    assert main(["tool", "ramification", "x^2-5"]) == 0
    assert capsys.readouterr().out.strip() == "{5}"
    assert main(["tool", "ramification", "x^2+1"]) == 0
    assert capsys.readouterr().out.strip() == "{}"


def test_tool_ramification_reads_rational_factors(capsys):
    # an S6 sextic: its splitting field has degree 720, but the answer
    # comes from the discriminant -101*431 of the sextic itself
    assert main(["tool", "ramification", "x^6+x+1"]) == 0
    assert capsys.readouterr().out.strip() == "{101, 431}"


@pytest.mark.parametrize("tool, expr, lines", [
    ("factor", "-x^2+1", ["x - 1", "x + 1"]),
    ("splitting-degree", "-x^3+2", ["6"]),
    ("ramification", "-x^2+45", ["{5}"]),
])
def test_tool_reads_a_leading_minus(capsys, tool, expr, lines):
    # argparse alone takes such text for an option and exits 2
    assert main(["tool", tool, expr]) == 0
    assert capsys.readouterr().out.splitlines() == lines


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_tool_help_still_works(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["tool", "factor", flag])
    assert exc.value.code == 0
    assert "polynomial" in capsys.readouterr().out


def test_readme_tool_examples(capsys):
    # each `heavenly tool ... # -> out` line of README.md, its output lines
    # written after the arrow and separated by "; "
    examples = [line.split("# ->") for line in
                (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
                if line.startswith("heavenly tool ") and "# ->" in line]
    assert len(examples) >= 4
    for command, expected in examples:
        argv = shlex.split(command)[1:]
        assert main(argv) == 0, command
        assert capsys.readouterr().out.splitlines() == \
            expected.strip().split("; "), command


def test_tool_ramification_rejects_constants(capsys):
    assert main(["tool", "ramification", "7"]) == 2
    assert "constant" in capsys.readouterr().err


@pytest.mark.parametrize("expr", ["5", "-3"])
def test_tool_factor_rejects_constants(capsys, expr):
    assert main(["tool", "factor", expr]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cannot factor a constant polynomial\n"


def test_tool_rejects_zero_denominators(capsys):
    assert main(["tool", "factor", "1/0*x + 1"]) == 2
    assert capsys.readouterr().err.startswith("error: zero denominator")


@pytest.mark.parametrize("expr", ["x\n+1", "x^\u0662 - \u0662"])
def test_tool_rejects_text_outside_the_grammar(capsys, expr):
    # a newline inside the text, or a digit other than 0-9
    assert main(["tool", "factor", expr]) == 2
    assert capsys.readouterr().err.startswith("error: bad term")


def test_tool_rejects_numbers_past_the_digit_limit(capsys):
    assert main(["tool", "factor", f"{LONG_NUMBER}*x"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and DIGIT_LIMIT in err


@pytest.mark.parametrize("doc", [
    {"kind": "elliptic", "base_field": "Q",
     "cubic": ["0", "-1", LONG_NUMBER, "1"]},
    {"kind": "weil_restriction", "base_field": "Q", "D": 3,
     "cubic": ["-1-s", f"{LONG_NUMBER}*s", "0", "1"]},
], ids=["elliptic string", "weil a+b*s entry"])
def test_classify_rejects_numbers_past_the_digit_limit(capsys, tmp_path,
                                                       doc):
    path = write_doc(tmp_path / "long.json", doc)
    assert main(["classify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and DIGIT_LIMIT in err


def test_tool_rejects_floats(capsys):
    assert main(["tool", "factor", "x^2-0.5"]) == 2
    assert "floating point" in capsys.readouterr().err


def test_tool_axioms_lists_all_records(capsys):
    from heavenly.axioms import all_axioms

    assert main(["tool", "axioms"]) == 0
    out = capsys.readouterr().out
    for record in all_axioms():
        assert record.id in out
        assert record.source in out


def test_corpus_files_classify_with_expected_statuses(tmp_path):
    expected = {
        "elliptic_32a2": "heavenly",
        "elliptic_64a1": "heavenly",
        "elliptic_x3_minus_2": "not_heavenly",
        "jacobian_x5_minus_x": "heavenly",
        "jacobian_x5_plus_x": "heavenly",
        "jacobian_x6_minus_1": "not_heavenly",
        "product_32a2_64a1": "heavenly",
        "weil_sqrt2": "heavenly",
        "weil_sqrt_minus_1": "not_heavenly",
    }
    outdir = tmp_path / "certs"
    assert main(["classify", str(CORPUS), "--dir", str(outdir)]) == 0
    for stem, status in expected.items():
        doc = json.loads((outdir / f"{stem}.cert.json").read_text(
            encoding="utf-8"))
        assert doc["verdict"]["status"] == status, stem


def test_corpus_certificates_match_their_golden_bodies(tmp_path):
    # certificate bytes are frozen under bench/golden/corpus; only the
    # elapsed_seconds timing may differ
    outdir = tmp_path / "certs"
    assert main(["classify", str(CORPUS), "--dir", str(outdir)]) == 0
    stems = sorted(p.stem for p in CORPUS.glob("*.json"))
    assert len(stems) == 9
    for stem in stems:
        name = f"{stem}.cert.json"
        body = ELAPSED.sub("", (outdir / name).read_text(encoding="utf-8"))
        assert body == (GOLDEN / name).read_text(encoding="utf-8"), stem


def test_corpus_matches_golden_after_the_intern_table_is_cleared(tmp_path):
    # fields built afresh, with their screen maps, give the same bytes as
    # fields kept from the run before
    stems = sorted(p.stem for p in CORPUS.glob("*.json"))
    assert len(stems) == 9
    bodies = []
    for run in ("first", "second"):
        outdir = tmp_path / run
        assert main(["classify", str(CORPUS), "--dir", str(outdir)]) == 0
        bodies.append([ELAPSED.sub("", (outdir / f"{stem}.cert.json")
                                   .read_text(encoding="utf-8"))
                       for stem in stems])
        towers._interned.cache_clear()
    assert bodies[0] == bodies[1]
    assert bodies[1] == [(GOLDEN / f"{stem}.cert.json").read_text(
        encoding="utf-8") for stem in stems]


def test_corpus_classified_twice_in_one_process_matches_golden(tmp_path):
    # a certificate depends only on its input document: nothing computed
    # for one batch is reused by the next
    stems = sorted(p.stem for p in CORPUS.glob("*.json"))
    for run in ("first", "second"):
        outdir = tmp_path / run
        assert main(["classify", str(CORPUS), "--dir", str(outdir)]) == 0
        for stem in stems:
            name = f"{stem}.cert.json"
            body = ELAPSED.sub("", (outdir / name).read_text(
                encoding="utf-8"))
            assert body == (GOLDEN / name).read_text(encoding="utf-8"), \
                (run, stem)


def run_module(module, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-m", module, *args], cwd=ROOT,
                          env=env, capture_output=True, text=True,
                          timeout=120)


def test_cli_module_is_not_a_second_entry_point():
    # python -m heavenly.cli runs no command: it names the entry point and
    # exits 2 rather than 0
    args = ("classify", "corpus/nonexistent.json")
    stray = run_module("heavenly.cli", *args)
    assert stray.returncode == cli.EXIT_INVALID
    assert stray.stdout == ""
    assert "python -m heavenly" in stray.stderr
    assert "cannot read" not in stray.stderr
    entry = run_module("heavenly", *args)
    assert entry.returncode == cli.EXIT_INVALID
    assert "cannot read" in entry.stderr
