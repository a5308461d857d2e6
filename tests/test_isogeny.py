"""Isogeny invariance as an oracle across input shapes.

Heavenliness at 2 depends only on the field k(A[2^infinity]), which
isogenous varieties share, although their 2-division fields can differ.
So two decided verdicts on an isogenous pair must agree.  Each family
below pairs inputs of different shapes with nothing but Q[x], over the
boxes of ROADMAP item 9; the test classifies a seeded sample of each box.
"""

import random

from heavenly.classify import (
    UNKNOWN,
    EllipticInput,
    JacobianInput,
    ProductInput,
    WeilRestrictionInput,
    classify,
)
from heavenly.polynomials import UniPoly, discriminant

# pairs classified per family; a split Jacobian builds its tower of degree
# up to 48 before its verdict, about 0.14 s on a 2-vCPU host, so that
# family's sample is smaller to keep the test under 5 s
SAMPLES = {"two_isogeny": 30, "restriction": 30, "split_jacobian": 20}


def two_isogenies():
    # y^2 = x(x^2 + ax + b) ~ y^2 = x(x^2 - 2ax + a^2 - 4b)
    # (Silverman, AEC, Example III.4.5)
    for a in range(-8, 9):
        for b in range(-16, 17):
            if b and a * a != 4 * b:
                yield (EllipticInput("Q", UniPoly.of(0, b, a, 1)),
                       EllipticInput("Q",
                                     UniPoly.of(0, a * a - 4 * b, -2 * a, 1)))


def restrictions_of_curves_over_q():
    # Res_{Q(sqrt D)/Q}(E) ~ E x E^D for E over Q (Milne, Invent. Math. 17
    # (1972)); E^D: y^2 = D^3 f(x/D) is the quadratic twist by D
    for D in (-1, 2, -2, 3, 5, 6, 7):
        for a2 in range(-2, 3):
            for a1 in range(-3, 4):
                for a0 in range(-3, 4):
                    f = UniPoly.of(a0, a1, a2, 1)
                    if discriminant(f) == 0:
                        continue
                    twist = UniPoly.of(a0 * D ** 3, a1 * D ** 2, a2 * D, 1)
                    yield (WeilRestrictionInput.of(
                               "Q", D, [(c, 0) for c in f.coeffs]),
                           ProductInput(EllipticInput("Q", f),
                                        EllipticInput("Q", twist)))


def split_jacobians():
    # for g = x^3 + px^2 + qx + r, r != 0, the Jacobian of y^2 = g(x^2) is
    # isogenous to E1 x E2 with E1: y^2 = g(x) and
    # E2: y^2 = x^3 + qx^2 + pr x + r^2 (Cassels-Flynn, LMS LN 230, ch. 14)
    for p in range(-3, 4):
        for q in range(-3, 4):
            for r in range(-4, 5):
                f = UniPoly.of(r, 0, q, 0, p, 0, 1)
                if r == 0 or discriminant(f) == 0:
                    continue
                yield (JacobianInput("Q", f),
                       ProductInput(
                           EllipticInput("Q", UniPoly.of(r, q, p, 1)),
                           EllipticInput("Q",
                                         UniPoly.of(r * r, p * r, q, 1))))


FAMILIES = {
    "two_isogeny": two_isogenies,
    "restriction": restrictions_of_curves_over_q,
    "split_jacobian": split_jacobians,
}


def test_isogenous_pairs_never_get_two_decided_verdicts_that_differ():
    rng = random.Random(9)
    disagreeing, undecided = [], 0
    for name, family in FAMILIES.items():
        for left, right in rng.sample(list(family()), SAMPLES[name]):
            statuses = (classify(left).status, classify(right).status)
            if UNKNOWN in statuses:
                undecided += 1
            elif statuses[0] != statuses[1]:
                disagreeing.append((name, statuses, left, right))
    print(f"isogenous pairs with an unknown side: {undecided} of "
          f"{sum(SAMPLES.values())}")
    assert disagreeing == []
