"""Acceptance gate: the twelve headline checks, each timed against its budget.

Each test prints one PASS line with its measured time (visible with -s);
under plain pytest -v the per-test PASSED/FAILED line carries the verdict.
"""

import random
import time
from fractions import Fraction

from heavenly.classify import (
    EllipticInput,
    JacobianInput,
    classify,
    closure_degree_bound,
    gl4_deduction,
)
from heavenly.cli import main
from heavenly.factorization import factor_over_q
from heavenly.permgroups import close_generators, group_from_cycles
from heavenly.polynomials import UniPoly, discriminant, resultant
from heavenly.ramification import splitting_field_odd_ramified
from heavenly.towers import factor_over_tower, splitting_tower
from heavenly.verifier import (
    verify_corebound,
    verify_dim272,
    verify_octic,
    verify_subdirect,
)


class _Timed:
    """Context manager asserting a wall-time budget and printing the line."""

    def __init__(self, number: int, label: str, budget_seconds: float):
        self.number = number
        self.label = label
        self.budget = budget_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is not None:
            print(f"criterion {self.number:2d} FAIL "
                  f"({elapsed:.2f}s): {self.label}")
            return False
        assert elapsed < self.budget, (
            f"criterion {self.number} exceeded its budget: "
            f"{elapsed:.2f}s >= {self.budget}s")
        print(f"criterion {self.number:2d} PASS "
              f"({elapsed:.2f}s < {self.budget:g}s): {self.label}")
        return False


def test_criterion_01_octic_witness_not_two_generated():
    with _Timed(1, "order-128 witness defeats every ordered pair", 10.0):
        report = verify_octic()
        assert report.passed
        assert report.value("order") == 128
        assert report.value("pair_search_generates") is False
        assert report.value("pairs_examined") == 128 * 128
        assert report.value("involution_search_generates") is False


def test_criterion_02_bound_table_rows():
    with _Timed(2, "all six closure-degree bound rows exact", 1.0):
        rows = {
            (4, 2): 256,
            (4, 1, 1): 64,
            (2, 2, 2): 128,
            (2, 2, 1, 1): 32,
            (2, 1, 1, 1, 1): 8,
            (1, 1, 1, 1, 1, 1): 2,
        }
        for degrees, expected in rows.items():
            assert closure_degree_bound(degrees) == expected, degrees


def test_criterion_03_subdirect_products_of_s3():
    with _Timed(3, "subdirect products have orders {6, 18, 36}, each with "
                   "an index-3 subgroup", 30.0):
        report = verify_subdirect()
        assert report.passed
        assert report.value("order_set") == (6, 18, 36)
        assert report.value("all_have_index_three_subgroup") is True


def test_criterion_04_core_index_bound():
    with _Timed(4, "zero core-bound violations inside S4 and S3 x S3", 60.0):
        report = verify_corebound()
        assert report.passed
        assert report.value("violations_s4") == 0
        assert report.value("violations_s3xs3") == 0
        assert report.value("violations") == 0


def test_criterion_05_affine_272_witness():
    with _Timed(5, "order-272 affine witness with rational 2-torsion "
                   "curves", 5.0):
        report = verify_dim272()
        assert report.passed
        assert report.value("order") == 272
        assert report.value("is_two_group") is False
        assert report.value("regular_kernel_size") == 1
        assert report.value("regular_image_order") == 272
        assert report.value("torsion_degree_32a2") == 1
        assert report.value("torsion_degree_64a1") == 1


def test_criterion_06_rank4_orbit_trace():
    with _Timed(6, "rank-4 mod-2 trace: group order 20160, orbit bound 15, "
                   "citations", 1.0):
        steps = gl4_deduction()
        values = {}
        for step in steps:
            for name, value in step.values:
                values.setdefault(name, value)
        assert values["order"] == 20160
        assert values["count"] == 15
        assert values["orbit_bound"] == 15
        assert values["axiom_id"] == "JONES_DEGREES"


def test_criterion_07_flagship_instances():
    with _Timed(7, "four flagship inputs with exact degrees", 60.0):
        x5_minus_x = classify(JacobianInput("Q", UniPoly.of(0, -1, 0, 0, 0, 1)))
        assert x5_minus_x.status == "heavenly"
        assert x5_minus_x.closure_degree == 2
        screen_disc = next(step.value("discriminant")
                           for step in x5_minus_x.steps
                           if step.has_value("discriminant"))
        assert screen_disc == -256

        x5_plus_x = classify(JacobianInput("Q", UniPoly.of(0, 1, 0, 0, 0, 1)))
        assert x5_plus_x.status == "heavenly"
        assert x5_plus_x.closure_degree == 4

        x6_minus_1 = classify(JacobianInput(
            "Q", UniPoly.of(-1, 0, 0, 0, 0, 0, 1)))
        assert x6_minus_1.status == "not_heavenly"
        witness = next(step.value("witness_prime") for step in x6_minus_1.steps
                       if step.has_value("witness_prime"))
        assert witness == 3

        x3_minus_2 = classify(EllipticInput("Q", UniPoly.of(-2, 0, 0, 1)))
        assert x3_minus_2.status == "not_heavenly"


def test_criterion_08_splitting_degrees_with_linear_refactoring():
    with _Timed(8, "splitting degrees 8 / 6 / 1, cross-checked by linear "
                   "refactoring", 30.0):
        cases = (
            (UniPoly.of(-2, 0, 0, 0, 1), 8),
            (UniPoly.of(-2, 0, 0, 1), 6),
            (UniPoly.of(0, -1, 0, 1), 1),
        )
        for poly, expected in cases:
            tower = splitting_tower(poly)
            assert tower.absolute_degree == expected, poly
            factors = factor_over_tower(tower, poly)
            assert all(len(coeffs) == 2 for coeffs, _ in factors), poly
            assert sum(mult for _, mult in factors) == poly.degree


def test_criterion_09_odd_ramified_primes():
    with _Timed(9, "odd ramification: {} / {5} / {5} via non-maximal order "
                   "/ {} for the eighth roots of unity", 10.0):
        cases = (
            (UniPoly.of(1, 0, 1), set()),
            (UniPoly.of(-5, 0, 1), {5}),
            (UniPoly.of(-45, 0, 1), {5}),
            (UniPoly.of(1, 0, 0, 0, 1), set()),
        )
        for poly, expected in cases:
            assert splitting_field_odd_ramified([poly]) == expected, poly


def _random_poly(rng: random.Random, max_degree: int,
                 monic: bool = False) -> UniPoly:
    degree = rng.randint(1, max_degree)
    coeffs = [Fraction(rng.randint(-9, 9)) for _ in range(degree)]
    coeffs.append(Fraction(1 if monic else rng.choice(
        [c for c in range(-9, 10) if c])))
    return UniPoly.of(*coeffs)


def test_criterion_10_seeded_property_suites():
    with _Timed(10, "randomized property suites, >= 1000 cases total", 60.0):
        rng = random.Random(20260822)
        cases = 0

        # Factorization reconstruction: content times factors rebuilds f.
        for _ in range(300):
            f = _random_poly(rng, 5)
            factors = factor_over_q(f)
            product = UniPoly.of(f.leading_coefficient)
            for factor, mult in factors:
                for _ in range(mult):
                    product = product * factor
            scale = f.leading_coefficient / product.leading_coefficient
            rebuilt = UniPoly.of(scale) * product
            assert rebuilt == f, f
            cases += 1

        # Discriminant multiplicativity for monic polynomials.
        for _ in range(250):
            f = _random_poly(rng, 4, monic=True)
            g = _random_poly(rng, 4, monic=True)
            res = resultant(f, g)
            lhs = discriminant(f * g)
            rhs = discriminant(f) * discriminant(g) * res * res
            assert lhs == rhs, (f, g)
            cases += 1

        # Resultant symmetry up to the degree-product sign.
        for _ in range(250):
            f = _random_poly(rng, 4)
            g = _random_poly(rng, 4)
            sign = -1 if (f.degree * g.degree) % 2 else 1
            assert resultant(f, g) == sign * resultant(g, f), (f, g)
            cases += 1

        # Orbit-stabilizer identity in small permutation groups.
        groups = [
            group_from_cycles(4, "(1 2)", "(1 2 3 4)"),
            group_from_cycles(4, "(1 2 3)", "(2 3 4)"),
            group_from_cycles(5, "(1 2 3 4 5)", "(2 3)"),
            group_from_cycles(6, "(1 2)", "(1 2 3)", "(4 5)", "(4 5 6)"),
            group_from_cycles(4, "(1 2)(3 4)", "(1 3)(2 4)"),
        ]
        for _ in range(120):
            group = rng.choice(groups)
            point = rng.randint(1, group.degree)
            orbit = {g(point) for g in group.elements}
            stabilizer = [g for g in group.elements if g(point) == point]
            assert len(orbit) * len(stabilizer) == group.order
            cases += 1

        # Lagrange: random subgroup closures divide the group order.
        for _ in range(130):
            group = rng.choice(groups)
            seed = [rng.choice(group.elements)
                    for _ in range(rng.randint(1, 2))]
            subgroup = close_generators(seed)
            assert group.order % subgroup.order == 0
            assert all(p in group for p in subgroup.elements)
            cases += 1

        assert cases >= 1000, cases


def test_criterion_11_a_hopeless_jacobian_stops_at_a_cap_in_seconds():
    # its tower factors a degree-60 norm with 30 modular factors, which
    # the recombination cap stops; the odd prime 3 of F then decides it
    with _Timed(11, "Jacobian of x^6 - 32 over Q(i) is decided at a cap",
                10.0):
        verdict = classify(JacobianInput(
            "Q(i)", UniPoly.of(-32, 0, 0, 0, 0, 0, 1)))
        assert verdict.status == "not_heavenly"
        assert (verdict.torsion_degree, verdict.closure_degree) == (None, None)
        assert verdict.steps[-3].description == (
            "resource cap reached; both degrees left unknown")
        assert verdict.steps[-3].value("detail").startswith(
            "factor recombination exceeded")
        assert verdict.steps[-1].value("witness_prime") == 3


def test_criterion_12_a_hopeless_splitting_degree_exits_3_in_seconds(
        capsys):
    # (x^3 - 2)(x^3 - 3)(x^3 - 5)(x^3 - 7), expanded
    with _Timed(12, "tool splitting-degree of four pure cubics exits 3 at "
                    "a cap", 10.0):
        assert main(["tool", "splitting-degree",
                     "x^12-17*x^9+101*x^6-247*x^3+210"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
