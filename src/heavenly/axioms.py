"""Externally established theorems, encoded as citable read-only records.

Certificates must make explicit which steps are computed here and which
rest on published results; every citation names one of these records, so
a reader can audit exactly what is taken on faith.
"""

from __future__ import annotations

from .errors import InputError
from .records import Record

MUST_BE_2POWER = "must_be_2power"
INAPPLICABLE = "inapplicable"


class AxiomRecord(Record):
    """One externally proven fact: what it says, where it comes from,
    when it applies, and what a certificate may conclude from it."""

    __slots__ = ("id", "statement", "source", "applies_when", "conclusion")


_RECORDS = [
    AxiomRecord(
        id="JONES_DEGREES",
        statement=(
            "A finite extension of Q of degree less than 16 that is "
            "unramified away from {2, infinity} has degree 1, 2, 4, or 8."
        ),
        source="Jones (2010), Number fields unramified away from 2, "
               "with the Jones-Roberts database of number fields",
        applies_when="K/Q finite, unramified away from {2, infinity}, "
                     "[K:Q] < 16",
        conclusion="[K:Q] in {1, 2, 4, 8}",
    ),
    AxiomRecord(
        id="JONES_QUARTIC_GROUPS",
        statement=(
            "If such a field has degree 4, the Galois group of its closure "
            "is the Klein four-group, the cyclic group of order 4, or the "
            "dihedral group of order 8."
        ),
        source="Jones (2010), Number fields unramified away from 2",
        applies_when="K/Q quartic, unramified away from {2, infinity}",
        conclusion="Gal(closure/Q) isomorphic to V, Z/4Z, or D4",
    ),
    AxiomRecord(
        id="JONES_OCTIC_2GROUP",
        statement=(
            "If such a field has degree 8, the Galois group of its closure "
            "is a 2-group of order at most 128."
        ),
        source="Jones (2010), Number fields unramified away from 2",
        applies_when="K/Q octic, unramified away from {2, infinity}",
        conclusion="|Gal(closure/Q)| is a 2-power <= 128",
    ),
    AxiomRecord(
        id="JONES_TWO_GENERATORS",
        statement=(
            "The Galois group of the closure of such a field is generated "
            "by two elements, one of which squares to the identity."
        ),
        source="Jones (2010), Number fields unramified away from 2",
        applies_when="K/Q finite of degree < 16, unramified away from "
                     "{2, infinity}",
        conclusion="Gal(closure/Q) = <s, t> with t^2 = 1",
    ),
    AxiomRecord(
        id="JONES_SMALL_CLOSURE",
        statement=(
            "Over Q, an unramified-away-{2, infinity} field of degree 1 or "
            "2 is its own Galois closure, and the closure of such a "
            "quartic field has degree dividing 8."
        ),
        source="Jones (2010), degree and quartic-group classification",
        applies_when="K/Q of degree 1, 2, or 4, unramified away from "
                     "{2, infinity}",
        conclusion="closure degree = [K:Q] for degree <= 2; divides 8 "
                   "for degree 4",
    ),
    AxiomRecord(
        id="OCTIC_CLOSURE_64",
        statement=(
            "The Galois closure of an octic field unramified away from "
            "{2, infinity} has degree dividing 64: order 128 would force "
            "the group to be a Sylow 2-subgroup of S8, which cannot be "
            "generated by two elements."
        ),
        source="sharpening of the octic bound of Jones (2010); the group "
               "computation is re-verified mechanically by this package "
               "(verifier check 'octic')",
        applies_when="K/Q octic, unramified away from {2, infinity}",
        conclusion="closure degree divides 64",
    ),
    AxiomRecord(
        id="HARBATER_272",
        statement=(
            "A Galois extension of Q unramified away from {2, infinity} "
            "of degree less than 272 has 2-power degree, and 272 is sharp: "
            "a degree-272 example exists with group Z/17 : (Z/17)^x."
        ),
        source="Harbater (1994), Galois groups with prescribed "
               "ramification, Theorem 2.25 and Example 2.24",
        applies_when="L/Q Galois, unramified away from {2, infinity}, "
                     "[L:Q] < 272",
        conclusion="[L:Q] is a power of 2",
    ),
    AxiomRecord(
        id="SERRE_TATE_GOOD_REDUCTION",
        statement=(
            "An abelian variety whose full 2-power torsion tower lies in "
            "the maximal pro-2 extension ramified only above 2 has good "
            "reduction away from 2."
        ),
        source="Serre and Tate (1968), Good reduction of abelian "
               "varieties, Section 1, Theorem 1",
        applies_when="A/k abelian variety with the 2-power torsion "
                     "containment",
        conclusion="A has good reduction at every odd place",
    ),
    AxiomRecord(
        id="GGR_TRICHOTOMY",
        statement=(
            "Every principally polarized abelian surface over a field k "
            "is isomorphic over k, with its natural polarization, to the "
            "Jacobian of a smooth genus-2 curve, a product of two "
            "elliptic curves, or the Weil restriction of an elliptic "
            "curve over a quadratic extension of k."
        ),
        source="Gonzalez, Guardia, and Rotger (2005), Theorem 3.1",
        applies_when="(A, L) a principally polarized abelian surface "
                     "over k",
        conclusion="A is k-isomorphic to a Jacobian, a product, or a "
                   "Weil restriction",
    ),
    AxiomRecord(
        id="PRO2_TOWER",
        statement=(
            "Over a base k unramified away from {2, infinity}, A is "
            "heavenly at 2 exactly when (i) A has good reduction at every "
            "odd place and (ii) [k(A[2]) : k] is a power of 2.  (i) is "
            "necessary by Serre-Tate; together (i) and (ii) suffice by "
            "Neron-Ogg-Shafarevich, which makes the 2-adic Tate module "
            "unramified away from 2, since above the 2-torsion field "
            "each layer of the 2-power division tower is a 2-group "
            "extension."
        ),
        source="structure of 2-division towers: the Galois groups of "
               "successive layers embed into kernels of reduction maps "
               "on symplectic groups over Z/2^k, which are 2-groups",
        applies_when="base field unramified away from {2, infinity}; "
                     "good reduction at every odd place; 2-torsion field "
                     "of 2-power degree over the base",
        conclusion="the variety is heavenly at 2; without good reduction "
                   "at some odd place it is not",
    ),
]

_BY_ID = {record.id: record for record in _RECORDS}


def axiom(axiom_id: str) -> AxiomRecord:
    """The record for an id; unknown ids are an input error."""
    try:
        return _BY_ID[axiom_id]
    except KeyError:
        raise InputError(f"unknown axiom id: {axiom_id!r}") from None


def all_axioms() -> tuple[AxiomRecord, ...]:
    """All records, in fixed citation order."""
    return tuple(_RECORDS)


def apply_small_degree(deg: int):
    """Degree rule for fields unramified away from {2, infinity}.

    For deg < 16 returns True (allowed) or False (excluded); for
    deg >= 16 the hypothesis fails and the answer is None, a result
    distinct from exclusion.
    """
    if deg < 1:
        raise InputError("degree must be at least 1")
    if deg >= 16:
        return None
    return deg in (1, 2, 4, 8)


def apply_harbater(galois_degree: int) -> str:
    """2-power forcing for Galois extensions unramified away from 2."""
    if galois_degree < 1:
        raise InputError("degree must be at least 1")
    return MUST_BE_2POWER if galois_degree < 272 else INAPPLICABLE
