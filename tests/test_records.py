"""The package's immutable records behave as frozen value types: built from
their fields in order or by name, each exactly once, equal only to the
same class with equal fields, hashed as the tuple of their fields, closed
to assignment and deletion, and shown as Name(field=value, ...) unless the
class writes its own repr."""

from fractions import Fraction

import pytest

from heavenly.axioms import AxiomRecord
from heavenly.classify import (
    EllipticInput,
    JacobianInput,
    ProductInput,
    Step,
    Verdict,
    WeilRestrictionInput,
)
from heavenly.permgroups import (
    CoreBoundReport,
    SubdirectProduct,
    TwoGenerationSearch,
    group_from_cycles,
)
from heavenly.permutations import Perm
from heavenly.polynomials import UniPoly
from heavenly.verifier import LemmaReport

CUBIC = UniPoly.of(0, -1, 0, 1)
STEP = Step("computed", "disc", (("disc", 4),))
ELLIPTIC = EllipticInput("Q", CUBIC)
SWAP = Perm((2, 1, 3))


def _records():
    """(record, its field names in order, its repr text)."""
    group = group_from_cycles(3, "(1 2)")
    pair = (Fraction(0), Fraction(0))
    one = (Fraction(1), Fraction(0))
    cubic = (pair, (Fraction(-1), Fraction(0)), pair, one)
    return [
        (CUBIC, ("coeffs",), "UniPoly(x^3 - x)"),
        (SWAP, ("images",), "Perm((1 2), degree=3)"),
        (STEP, ("kind", "description", "values"),
         "Step(kind='computed', description='disc', values=(('disc', 4),))"),
        (Verdict("unknown", (STEP,), 2, None, "plausible"),
         ("status", "steps", "torsion_degree", "closure_degree", "screen"),
         "Verdict(status='unknown', steps=(Step(kind='computed', "
         "description='disc', values=(('disc', 4),)),), torsion_degree=2, "
         "closure_degree=None, screen='plausible')"),
        (ELLIPTIC, ("base", "cubic"),
         "EllipticInput(base='Q', cubic=UniPoly(x^3 - x))"),
        (JacobianInput("Q", UniPoly.of(0, -1, 0, 0, 0, 1)), ("base", "poly"),
         "JacobianInput(base='Q', poly=UniPoly(x^5 - x))"),
        (ProductInput(ELLIPTIC, ELLIPTIC), ("first", "second"),
         "ProductInput(first=EllipticInput(base='Q', cubic=UniPoly(x^3 - x)),"
         " second=EllipticInput(base='Q', cubic=UniPoly(x^3 - x)))"),
        (WeilRestrictionInput("Q", Fraction(2), cubic),
         ("base", "radicand", "cubic"),
         "WeilRestrictionInput(base='Q', radicand=Fraction(2, 1), cubic=("
         "(Fraction(0, 1), Fraction(0, 1)), (Fraction(-1, 1), Fraction(0, 1)),"
         " (Fraction(0, 1), Fraction(0, 1)), (Fraction(1, 1), Fraction(0, 1))"
         "))"),
        (AxiomRecord("ID", "statement", "source", "when", "conclusion"),
         ("id", "statement", "source", "applies_when", "conclusion"),
         "AxiomRecord(id='ID', statement='statement', source='source', "
         "applies_when='when', conclusion='conclusion')"),
        (LemmaReport("octic", True, 0.5, (("count", 3),), ()),
         ("lemma", "passed", "elapsed_seconds", "evidence", "failures"),
         "LemmaReport(lemma='octic', passed=True, elapsed_seconds=0.5, "
         "evidence=(('count', 3),), failures=())"),
        (TwoGenerationSearch(True, 4, (SWAP, SWAP)),
         ("generates", "pairs_examined", "witness"),
         "TwoGenerationSearch(generates=True, pairs_examined=4, witness=("
         "Perm((1 2), degree=3), Perm((1 2), degree=3)))"),
        (SubdirectProduct(group, 2, False),
         ("group", "order", "has_index_three_subgroup"),
         "SubdirectProduct(group=PermGroup(degree=3, order=2), order=2, "
         "has_index_three_subgroup=False)"),
        (CoreBoundReport(3, ((1, 2, 3, 4),)),
         ("chains_checked", "violations"),
         "CoreBoundReport(chains_checked=3, violations=((1, 2, 3, 4),))"),
    ]


RECORDS = _records()


@pytest.mark.parametrize("record, fields, text", RECORDS,
                         ids=[type(r).__name__ for r, _, _ in RECORDS])
def test_record_is_a_frozen_value(record, fields, text):
    cls = type(record)
    values = tuple(getattr(record, name) for name in fields)
    # a copy with the same fields is equal and hashes alike
    twin = cls(*values)
    assert twin == record and not twin != record
    assert hash(record) == hash(values) == hash(twin)

    # another class with the same fields is not equal, either way round
    class Other(cls):
        __slots__ = ()

    other = object.__new__(Other)
    for name, value in zip(fields, values):
        object.__setattr__(other, name, value)
    assert getattr(other, fields[0]) is values[0]
    assert record != other and other != record
    assert record.__eq__(other) is NotImplemented
    assert record != values

    for name in fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert tuple(getattr(record, name) for name in fields) == values
    assert repr(record) == text


@pytest.mark.parametrize("record, fields, text", RECORDS,
                         ids=[type(r).__name__ for r, _, _ in RECORDS])
def test_record_is_built_by_name_or_in_order(record, fields, text):
    cls = type(record)
    values = tuple(getattr(record, name) for name in fields)
    named = dict(zip(fields, values))
    assert cls(**named) == cls(*values) == record
    assert cls(*values[:1], **dict(zip(fields[1:], values[1:]))) == record
    name = cls.__qualname__
    with pytest.raises(TypeError, match=name):
        cls(*values[:-1])
    with pytest.raises(TypeError, match=name):
        cls(*values, **{fields[0]: values[0]})
    with pytest.raises(TypeError, match=name):
        cls(*values, extra=None)
    with pytest.raises(TypeError, match=name):
        cls(*values, None)
