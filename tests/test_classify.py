"""Classification pipeline tests: inputs, torsion fields, screens, verdicts."""

import hashlib
import importlib
import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

import heavenly.factorization as factorization
import heavenly.polynomials as polynomials
import heavenly.ramification as ramification
import heavenly.towers as towers
from heavenly.classify import (
    AXIOM,
    COMPUTED,
    HEAVENLY,
    NOT_HEAVENLY,
    PLAUSIBLE,
    UNKNOWN,
    EllipticInput,
    JacobianInput,
    ProductInput,
    WeilRestrictionInput,
    classify,
    closure_degree_bound,
    defining_polynomials,
    factor_degree_vector,
    gl4_deduction,
    screen_good_reduction,
    two_division_tower,
)
from heavenly.documents import input_from_document, output_document
from heavenly.errors import InputError, ResourceCapError
from heavenly.polynomials import UniPoly, discriminant, squarefree_part
from heavenly.ramification import splitting_field_odd_ramified
from heavenly.towers import (
    base_field,
    extend,
    factor_over_tower,
    splitting_degree,
    splitting_tower,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
# the package re-exports the function classify under the module's name
CLASSIFY_MODULE = importlib.import_module("heavenly.classify")

X5_MINUS_X = UniPoly.of(0, -1, 0, 0, 0, 1)
X5_PLUS_X = UniPoly.of(0, 1, 0, 0, 0, 1)
X6_MINUS_1 = UniPoly.of(-1, 0, 0, 0, 0, 0, 1)
CURVE_32A2 = UniPoly.of(0, -1, 0, 1)      # y^2 = x^3 - x
CURVE_64A1 = UniPoly.of(0, -4, 0, 1)      # y^2 = x^3 - 4x
X3_MINUS_2 = UniPoly.of(-2, 0, 0, 1)


def poly_from_roots(*roots) -> UniPoly:
    out = UniPoly.one()
    for r in roots:
        out = out * UniPoly.of(-r, 1)
    return out


def axiom_ids(verdict) -> tuple[str, ...]:
    """The verdict's cited axiom ids in certificate order."""
    return tuple(step.value("axiom_id") for step in verdict.steps
                 if step.kind == AXIOM)


# ---------------------------------------------------------------------------
# Good-reduction screen.


def test_screen_examples():
    assert discriminant(X5_MINUS_X) == -256
    assert screen_good_reduction(X5_MINUS_X) == PLAUSIBLE
    assert screen_good_reduction(X6_MINUS_1) == UNKNOWN
    assert discriminant(CURVE_32A2) == 4
    assert screen_good_reduction(CURVE_32A2) == PLAUSIBLE


def test_screen_rejects_bad_inputs():
    with pytest.raises(InputError):
        screen_good_reduction(UniPoly.of(0, 0, 1))       # double root
    with pytest.raises(InputError, match="integral"):
        screen_good_reduction(UniPoly.of(Fraction(1, 2), 1))
    with pytest.raises(InputError):
        screen_good_reduction(UniPoly.of(3))             # constant


# ---------------------------------------------------------------------------
# Input shapes.


def test_elliptic_input_normalizes():
    e = EllipticInput.from_cubic("Q", UniPoly.of(0, -4, 0, 4))
    assert e.cubic.is_monic
    assert all(c.denominator == 1 for c in e.cubic.coeffs)
    assert splitting_degree(e.cubic) == 1


def test_elliptic_input_validation():
    with pytest.raises(InputError):
        EllipticInput("Q", UniPoly.of(-1, 0, 1))         # not a cubic
    with pytest.raises(InputError):
        EllipticInput("Q", UniPoly.of(0, 0, 0, 1))       # triple root
    with pytest.raises(InputError):
        EllipticInput("Q(sqrt5)", CURVE_32A2)            # unknown base
    with pytest.raises(InputError, match="monic"):
        EllipticInput("Q", UniPoly.of(0, -1, 0, 2))
    with pytest.raises(InputError, match="integral"):
        EllipticInput("Q", UniPoly.of(Fraction(1, 2), -1, 0, 1))


def test_jacobian_input_validation():
    # a sextic model is c g with g monic integral; a quintic is monic
    model = UniPoly.of(-3, 0, 0, 0, 0, 0, 3)
    assert JacobianInput("Q", model).poly == model
    with pytest.raises(InputError, match="integral"):
        JacobianInput("Q", UniPoly.of(1, 0, 0, 0, 0, 0, 3))
    with pytest.raises(InputError, match="monic"):
        JacobianInput("Q", UniPoly.of(1, 0, 0, 0, 0, 0, Fraction(1, 2)))
    with pytest.raises(InputError, match="monic"):
        JacobianInput("Q", UniPoly.of(-3, 0, 0, 0, 0, 3))
    with pytest.raises(InputError, match="squarefree"):
        JacobianInput("Q", UniPoly.of(0, 0, 0, 0, 0, 0, 3))
    with pytest.raises(InputError, match="degree 5 or 6"):
        JacobianInput("Q", UniPoly.of(-1, 0, 0, 1))


def test_product_input_requires_shared_base():
    a = EllipticInput("Q", CURVE_32A2)
    b = EllipticInput("Q(i)", CURVE_64A1)
    with pytest.raises(InputError):
        ProductInput(a, b)


def test_weil_input_validation():
    cubic = ((0, 0), (-1, 0), (0, 0), (1, 0))
    with pytest.raises(InputError):
        WeilRestrictionInput.of("Q", 4, cubic)           # rational square
    with pytest.raises(InputError):
        WeilRestrictionInput.of("Q(sqrt2)", 2, cubic)    # square of sqrt2
    with pytest.raises(InputError):
        WeilRestrictionInput.of("Q(sqrt2)", 8, cubic)    # (2*sqrt2)^2
    with pytest.raises(InputError):
        WeilRestrictionInput.of("Q(i)", -1, cubic)       # i^2
    with pytest.raises(InputError):
        WeilRestrictionInput.of("Q", 2,
                                ((0, 0), (0, 0), (0, 0), (2, 0)))
    with pytest.raises(InputError):
        WeilRestrictionInput.of("Q", 2,
                                ((0, 0), (0, 0), (0, 0), (1, 0)))  # x^3
    with pytest.raises(InputError, match="cubic polynomial"):
        WeilRestrictionInput("Q", Fraction(2), cubic[1:])
    with pytest.raises(InputError, match="pairs"):
        WeilRestrictionInput("Q", Fraction(2), cubic[:3] + ((1,),))
    WeilRestrictionInput.of("Q(sqrt2)", 3, cubic)        # nonsquare is fine


BASES = ("Q", "Q(i)", "Q(sqrt2)", "Q(sqrt-2)")


def _fraction(c) -> Fraction:
    return Fraction(int(c.p), int(c.q))


def test_weil_norm_and_squarefree_test_agree_with_sympy():
    # seeded cubics over Q(s), s^2 = D, every other one with a repeated
    # root; the norm is Res_s(s^2 - D, f), and f is squarefree exactly when
    # its discriminant is nonzero modulo s^2 - D
    sympy = pytest.importorskip("sympy")
    x, s = sympy.symbols("x s")
    rng = random.Random(89)
    rejected = 0
    for k in range(60):
        base = rng.choice(BASES)
        D = sympy.Rational(rng.choice((3, 5, -3, 6, -7, "3/2")))  # no squares
        modulus = s**2 - D
        if k % 2:
            r, t = (rng.randint(-2, 2) + rng.randint(-2, 2) * s for _ in "rt")
            f = sympy.rem(sympy.expand((x - r)**2 * (x - t)), modulus, s)
        else:
            f = x**3 + sum((rng.randint(-3, 3) + rng.randint(-3, 3) * s) * x**i
                           for i in range(3))
        g = sympy.Poly(f, x, s)
        pairs = [(_fraction(g.coeff_monomial(x**i)),
                  _fraction(g.coeff_monomial(x**i * s))) for i in range(4)]
        if g.discriminant().rem(sympy.Poly(modulus, s)).is_zero:
            rejected += 1
            with pytest.raises(InputError, match="squarefree"):
                WeilRestrictionInput.of(base, _fraction(D), pairs)
            continue
        W = WeilRestrictionInput.of(base, _fraction(D), pairs)
        norm = sympy.Poly(modulus, s, x).resultant(sympy.Poly(f, s, x))
        assert W._conjugate_product == UniPoly.of(
            *map(_fraction, reversed(norm.all_coeffs())))
    assert rejected == 30


def test_weil_radicand_check_agrees_with_sympy():
    # x^2 - D factors over the base exactly when the radicand is rejected
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    cubic = ((0, 0), (-1, 0), (0, 0), (1, 0))
    radicands = (0, 1, -1, 2, -2, 3, -4, 8, -8, Fraction(9, 4),
                 Fraction(9, 2), Fraction(-1, 2))
    QQ = sympy.QQ
    domains = [QQ] + [QQ.algebraic_field(root) for root in
                      (sympy.I, sympy.sqrt(2), sympy.sqrt(-2))]
    for base, domain in zip(BASES, domains):
        for D in radicands:
            poly = sympy.Poly(x**2 - sympy.Rational(D), x, domain=domain)
            _, factors = poly.factor_list()
            if len(factors) > 1 or factors[0][1] > 1:
                with pytest.raises(InputError, match="square"):
                    WeilRestrictionInput.of(base, D, cubic)
            else:
                WeilRestrictionInput.of(base, D, cubic)


# ---------------------------------------------------------------------------
# 2-division fields by shape.


def torsion_field_degree(item):
    return two_division_tower(item)[-1].absolute_degree


def test_elliptic_torsion_fields():
    assert torsion_field_degree(EllipticInput("Q", CURVE_32A2)) == 1
    assert torsion_field_degree(EllipticInput("Q", CURVE_64A1)) == 1
    assert torsion_field_degree(EllipticInput("Q", X3_MINUS_2)) == 6
    over_qi = two_division_tower(EllipticInput("Q(i)", CURVE_32A2))
    assert [t.absolute_degree for t in over_qi] == [2, 2]  # the base itself


def test_jacobian_torsion_fields():
    assert torsion_field_degree(JacobianInput("Q", X5_MINUS_X)) == 2
    assert torsion_field_degree(JacobianInput("Q", X5_PLUS_X)) == 4
    split = poly_from_roots(0, 1, -1, 2, -2, 3)
    assert torsion_field_degree(JacobianInput("Q", split)) == 1


def test_product_torsion_fields():
    both_rational = ProductInput(EllipticInput("Q", CURVE_32A2),
                                 EllipticInput("Q", CURVE_64A1))
    assert torsion_field_degree(both_rational) == 1

    mixed = ProductInput(EllipticInput("Q", CURVE_32A2),
                         EllipticInput("Q", X3_MINUS_2))
    swapped = ProductInput(EllipticInput("Q", X3_MINUS_2),
                           EllipticInput("Q", CURVE_32A2))
    assert [t.absolute_degree for t in two_division_tower(mixed)] == \
        [1, 1, 6]
    assert [t.absolute_degree for t in two_division_tower(swapped)] == \
        [1, 6, 6]

    same = ProductInput(EllipticInput("Q", X3_MINUS_2),
                        EllipticInput("Q", X3_MINUS_2))
    assert torsion_field_degree(same) == \
        torsion_field_degree(EllipticInput("Q", X3_MINUS_2))


def quadratic_step_primes(verdict):
    step, = [s for s in verdict.steps
             if s.description == "odd primes ramifying in the quadratic step"]
    return step.value("primes")


def component_degrees(verdict):
    step, = [s for s in verdict.steps if s.has_value("component_degrees")]
    return step.value("component_degrees")


def test_weil_self_conjugate_curve():
    # rational coefficients: the twist is the curve itself, and the
    # compositum is the quadratic step times the curve's own 2-division
    # field Q(sqrt(-3))
    w = WeilRestrictionInput.of("Q", -1, ((-1, 0), (0, 0), (0, 0), (1, 0)))
    quadratic, curve, compositum = two_division_tower(w)
    assert quadratic.absolute_degree == 2
    assert curve.absolute_degree == 4
    assert compositum.absolute_degree == 4
    verdict = classify(w)
    assert component_degrees(verdict) == (2, 2)
    assert quadratic_step_primes(verdict) == ()


def test_weil_irrational_curve():
    # y^2 = x^3 - sqrt(2)*x over Q(sqrt2); the conjugate is x^3 + sqrt(2)*x
    w = WeilRestrictionInput.of("Q", 2, ((0, 0), (0, -1), (0, 0), (1, 0)))
    towers = two_division_tower(w)
    assert [t.absolute_degree for t in towers] == [2, 4, 8]
    verdict = classify(w)
    assert component_degrees(verdict) == (2, 2)
    step, = [s for s in verdict.steps if s.has_value("degree_over_quadratic")]
    assert step.value("degree_over_quadratic") == 4
    assert quadratic_step_primes(verdict) == ()


def pair_poly_mul(f, g, square):
    """Product of two polynomials with (a, b) = a + b*s coefficients."""
    out = [(Fraction(0), Fraction(0))] * (len(f) + len(g) - 1)
    for i, (a, b) in enumerate(f):
        for j, (c, d) in enumerate(g):
            r, t = out[i + j]
            out[i + j] = (r + a * c + b * d * square, t + a * d + b * c)
    return out


def seeded_weil_inputs():
    """Per base field, a restriction of each cubic kind: split, linear
    times quadratic, a translate of the cyclic x^3 - 3x + 1, and x^3 + a
    with a irrational."""
    rng = random.Random(20261018)
    one = (1, 0)

    def element():
        return (rng.randint(-2, 2), rng.randint(-2, 2))

    def linear():
        return [element(), one]

    def split():
        return pair_poly_mul(pair_poly_mul(linear(), linear(), D),
                             linear(), D)

    def linear_times_quadratic():
        return pair_poly_mul(linear(), [element(), element(), one], D)

    def cyclic_translate():
        # f(x + t) = ((x + t)^2 - 3)(x + t) + 1
        t = linear()
        square = pair_poly_mul(t, t, D)
        square[0] = (square[0][0] - 3, square[0][1])
        out = pair_poly_mul(square, t, D)
        out[0] = (out[0][0] + 1, out[0][1])
        return out

    def pure():
        return [(rng.randint(-3, 3), rng.choice((-1, 1))), (0, 0), (0, 0),
                one]

    for base, radicands in (("Q", (-1, 2, 3, 5)), ("Q(i)", (2, 3, 5)),
                            ("Q(sqrt2)", (-1, 3, 5)),
                            ("Q(sqrt-2)", (-1, 2, 3, 5))):
        D = rng.choice(radicands)
        for make in (split, linear_times_quadratic, cyclic_translate, pure):
            while True:
                try:
                    yield WeilRestrictionInput.of(base, D, make())
                    break
                except InputError:      # a repeated root; draw again
                    continue


def test_conjugate_twist_has_the_curves_2_division_degree():
    # the nontrivial automorphism of K(sqrt D)/K carries the curve's
    # 2-division field onto its conjugate twist's
    seen = set()
    for w in seeded_weil_inputs():
        quadratic = extend(base_field(w.base), UniPoly.of(-w.radicand, 0, 1))
        K = quadratic
        original, conjugate = (
            [K.add(K.from_fraction(a), K.scale(K.generator(), sign * b))
             for a, b in w.cubic] for sign in (1, -1))
        c = splitting_degree(original, quadratic)
        assert splitting_degree(conjugate, quadratic) == c, w
        assert component_degrees(classify(w)) == (c, c), w
        seen.add(c)
    assert seen == {1, 2, 3, 6}


# ---------------------------------------------------------------------------
# Verdicts.


def heavenly_certificate_ok(verdict):
    ramified_steps = [s for s in verdict.steps
                      if s.has_value("primes") and
                      "2-division field" in s.description]
    closure_steps = [s for s in verdict.steps if s.has_value("closure_degree")
                     and s.kind == COMPUTED]
    assert ramified_steps and ramified_steps[-1].value("primes") == ()
    assert closure_steps
    degree = closure_steps[0].value("closure_degree")
    assert degree & (degree - 1) == 0


def test_flagship_jacobian_x5_minus_x():
    verdict = classify(JacobianInput("Q", X5_MINUS_X))
    assert verdict.status == HEAVENLY
    assert verdict.torsion_degree == 2
    assert verdict.closure_degree == 2
    assert verdict.screen == PLAUSIBLE
    screen_steps = [s for s in verdict.steps if s.has_value("outcome")]
    assert screen_steps[0].value("discriminant") == -256
    assert set(axiom_ids(verdict)) == {
        "GGR_TRICHOTOMY", "SERRE_TATE_GOOD_REDUCTION",
        "HARBATER_272", "PRO2_TOWER"}
    heavenly_certificate_ok(verdict)


def test_corpus_certificates_cite_serre_tate_once_after_the_screen():
    kinds = set()
    for path in sorted(CORPUS.glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        kinds.add(doc["kind"])
        steps = classify(input_from_document(doc)).steps
        cited = [i for i, step in enumerate(steps) if step.kind == AXIOM
                 and step.value("axiom_id") == "SERRE_TATE_GOOD_REDUCTION"]
        screens = [i for i, step in enumerate(steps)
                   if step.has_value("outcome")]
        assert cited == [screens[-1] + 1], path.name
    assert kinds == {"elliptic", "jacobian", "product", "weil_restriction"}


def test_flagship_jacobian_x5_plus_x():
    verdict = classify(JacobianInput("Q", X5_PLUS_X))
    assert verdict.status == HEAVENLY
    assert verdict.closure_degree == 4
    heavenly_certificate_ok(verdict)


def test_flagship_jacobian_x6_minus_1():
    verdict = classify(JacobianInput("Q", X6_MINUS_1))
    assert verdict.status == NOT_HEAVENLY
    assert verdict.steps[-1].value("witness_prime") == 3
    assert verdict.closure_degree is None
    assert verdict.screen == UNKNOWN


def test_flagship_elliptic_x3_minus_2():
    verdict = classify(EllipticInput("Q", X3_MINUS_2))
    assert verdict.status == NOT_HEAVENLY
    assert verdict.torsion_degree == 6
    assert verdict.steps[-1].value("witness_prime") == 3


# Each curve below has bad reduction at 3, but its 2-division field is
# unramified there, and good reduction at odd primes is not decided yet.
@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
@pytest.mark.parametrize("item", [
    EllipticInput("Q", UniPoly.of(0, -9, 0, 1)),  # 32a2 twisted by 3
    EllipticInput("Q", UniPoly.of(0, -3, 2, 1)),  # x(x - 1)(x + 3)
    # 3x^3 - 3x, whose monic integral model is x^3 - 9x
    input_from_document({"kind": "elliptic", "base_field": "Q",
                         "cubic": ["0", "-3", "0", "3"]}),
], ids=["x3_minus_9x", "x_x_minus_1_x_plus_3", "3x3_minus_3x_document"])
def test_bad_reduction_at_3_is_not_heavenly(item):
    verdict = classify(item)
    assert verdict.status == NOT_HEAVENLY
    assert verdict.steps[-1].value("witness_prime") == 3


def test_odd_degree_model_keeps_the_twist():
    # 3x^3 - 3x is 32a2 twisted by 3; X = 3x, Y = 3y make it x^3 - 9x,
    # additive at 3, where dividing out the content gave x^3 - x
    item = input_from_document({"kind": "elliptic", "base_field": "Q",
                                "cubic": ["0", "-3", "0", "3"]})
    assert item.cubic == UniPoly.of(0, -9, 0, 1)
    assert classify(item).status == UNKNOWN
    # y^2 = x^3/2 - 1/3 at d = 6 and a = 18: X = 18x, Y = 18 * 6y
    item = EllipticInput.from_cubic(
        "Q", UniPoly.of(Fraction(-1, 3), 0, 0, Fraction(1, 2)))
    assert item.cubic == UniPoly.of(-12 * 18 ** 2, 0, 0, 1)


def test_census_models_scaled_by_an_odd_prime_are_never_heavenly():
    # y^2 = c f(x) is the twist by c of a census curve, bad at c, so it is
    # not heavenly
    census = _census()
    for coeffs in census["cubics"]["models"] + census["models"]:
        for c in (3, 5):
            f = UniPoly.of(*coeffs).scale(c)
            item = (EllipticInput.from_cubic("Q", f) if len(coeffs) == 4
                    else JacobianInput.from_poly("Q", f))
            assert classify(item).status != HEAVENLY, (coeffs, c)


def _census_sextics():
    return [UniPoly.of(*coeffs) for coeffs in _census()["models"]
            if len(coeffs) == 7]


@pytest.mark.parametrize("c", [-1, 2, -2])
def test_census_sextics_twisted_away_from_odd_primes_keep_their_degrees(c):
    # a twist by a character unramified outside 2 keeps good reduction
    # away from 2; the model carries c's square class in front
    sextics = _census_sextics()
    assert len(sextics) == 16
    for f in sextics:
        item = JacobianInput.from_poly("Q", f.scale(c))
        assert item.poly == f.scale(c)
        twisted, plain = classify(item), classify(JacobianInput("Q", f))
        assert (twisted.status, twisted.torsion_degree,
                twisted.closure_degree) == (plain.status,
                                            plain.torsion_degree,
                                            plain.closure_degree), f


@pytest.mark.parametrize("c, twist", [(3, 3), (5, 5), (-3, -3), (12, 3)],
                         ids=["3", "5", "-3", "12"])
def test_census_sextics_twisted_at_an_odd_prime_are_never_heavenly(c, twist):
    # the model keeps the square class of c, so the twist is bad at 3 or 5
    for f in _census_sextics():
        item = JacobianInput.from_poly("Q", f.scale(c))
        assert item.poly == f.scale(twist)
        assert classify(item).status != HEAVENLY, (f, c)


def test_weil_restrictions_of_census_twists_by_3_are_never_heavenly():
    # y^2 = g(3x)/27 is y^2 = g(x) twisted by 3, so bad at 3; its
    # restriction from Q(s) is E x E^D, and the conjugate-product screen
    # reads the same model, so it must not prove good reduction
    cubics = [g for g in _census()["cubics"]["models"] if g[0] != 0][:6]
    for g in cubics:
        pairs = [(Fraction(c * 3 ** k, 27), 0) for k, c in enumerate(g)]
        for D in (-1, 2, -2):
            verdict = classify(WeilRestrictionInput.of("Q", D, pairs))
            assert verdict.screen != PLAUSIBLE, (g, D)
            assert verdict.status != HEAVENLY, (g, D)


# Galois group PGL(2,5) of order 120: the quintic factor over the root
# field of the sextic has a C4 stabiliser, which only the norm test
# labels, since that quintic's coefficients are not rational integers
PGL25_SEXTICS = [[-1, 3, 2, -1, 3, -2, 1], [-1, 2, -3, 1, -2, -3, 1]]


@pytest.mark.parametrize("coeffs", PGL25_SEXTICS, ids=["a", "b"])
def test_a_pgl25_jacobian_labels_its_c4_stabiliser_by_the_norm_test(
        coeffs, monkeypatch):
    real, depth, calls = towers._has_root, [0], []

    def spy(F, h, degree=1):
        depth[0] += 1
        try:
            found = real(F, h, degree)
        finally:
            depth[0] -= 1
        if not depth[0]:
            calls.append((F.absolute_degree, found))
        return found

    monkeypatch.setattr(towers, "_has_root", spy)
    verdict = classify(JacobianInput("Q", UniPoly.of(*coeffs)))
    assert verdict.status == NOT_HEAVENLY
    assert verdict.torsion_degree == 120
    # the route that decided: one norm test over the degree-30 field
    assert calls == [(30, True)]
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    group, _ = sympy.galois_group(sympy.Poly(list(reversed(coeffs)), x))
    assert group.order() == 120


# Each input below has bad reduction at an odd prime and a 2-division field
# that passes: no odd ramified prime, 2-power closure degree.  Without a
# plausible screen, good reduction at odd primes is not decided, so the
# verdict is unknown where heavenly would be wrong.
@pytest.mark.parametrize("item, degree", [
    (EllipticInput("Q", UniPoly.of(0, -9, 0, 1)), 1),
    (EllipticInput("Q", UniPoly.of(0, -3, 2, 1)), 1),
    (EllipticInput("Q", UniPoly.of(0, 7, -8, 1)), 1),
    (JacobianInput("Q", UniPoly.of(0, 81, 0, 0, 0, 1)), 4),
    (WeilRestrictionInput.of("Q", -1, [(0, 0), (-9, 0), (0, 0), (1, 0)]), 2),
    (WeilRestrictionInput.of(
        "Q", -1, [(0, 0), (Fraction(-1, 9), 0), (0, 0), (1, 0)]), 2),
], ids=["x3_minus_9x", "x3_plus_2x2_minus_3x", "x3_minus_8x2_plus_7x",
        "jacobian_x5_plus_81x", "weil_i_x3_minus_9x", "weil_i_x3_minus_x_9"])
def test_a_passing_2_division_field_needs_a_plausible_screen(item, degree):
    verdict = classify(item)
    assert verdict.status == UNKNOWN
    assert verdict.screen == UNKNOWN
    assert verdict.torsion_degree == verdict.closure_degree == degree
    assert axiom_ids(verdict)[-1] == "PRO2_TOWER"
    odd_parts = tuple(s.value("odd_part") for s in verdict.steps
                      if s.has_value("odd_part"))
    assert verdict.steps[-1].values == (
        ("status", UNKNOWN), ("odd_parts", odd_parts))


def test_closure_degree_not_a_power_of_2_decides_not_heavenly(monkeypatch):
    # with no odd ramified prime reported, the S3 field of x^3 - 2 reaches
    # the closure-degree verdict: degree 6 is not a power of 2
    monkeypatch.setattr(CLASSIFY_MODULE, "splitting_field_odd_ramified",
                        lambda polys: set())
    verdict = classify(EllipticInput("Q", X3_MINUS_2))
    assert verdict.status == NOT_HEAVENLY
    assert verdict.torsion_degree == 6
    assert verdict.closure_degree == 6
    closure = next(s for s in verdict.steps if s.has_value("power_of_two"))
    assert closure.value("power_of_two") is False
    assert axiom_ids(verdict) == (
        "SERRE_TATE_GOOD_REDUCTION", "HARBATER_272", "PRO2_TOWER")
    last = verdict.steps[-1]
    assert last.values == (("status", NOT_HEAVENLY), ("closure_degree", 6))


def test_cap_in_the_ramification_stage_keeps_the_torsion_degree(
        monkeypatch):
    # the tower is built before the ramification stage runs, so a cap
    # there still reports the torsion degree and the tower's step
    message = "factor recombination exceeded 1 subsets"

    def capped(polys):
        raise ResourceCapError(message)

    monkeypatch.setattr(CLASSIFY_MODULE, "splitting_field_odd_ramified",
                        capped)
    verdict = classify(EllipticInput("Q", X3_MINUS_2))
    assert verdict.status == UNKNOWN
    assert verdict.torsion_degree == 6
    assert verdict.closure_degree is None
    tower_steps = [s for s in verdict.steps if s.has_value("relative_degree")]
    assert [s.value("relative_degree") for s in tower_steps] == [6]
    last = verdict.steps[-1]
    assert last.description == "resource cap reached; verdict left undecided"
    assert last.values == (("detail", message),)


def test_elliptic_degree_invariants():
    cases = [
        ("Q", CURVE_32A2, HEAVENLY, 1),
        ("Q", CURVE_64A1, HEAVENLY, 1),
        ("Q", UniPoly.of(0, 1, 0, 1), HEAVENLY, 2),      # x^3 + x
        ("Q", X3_MINUS_2, NOT_HEAVENLY, 6),
        ("Q", UniPoly.of(1, -1, 0, 1), NOT_HEAVENLY, 6),  # disc -23
        ("Q", UniPoly.of(-1, -3, 0, 1), NOT_HEAVENLY, 3),  # cyclic cubic
        ("Q(i)", UniPoly.of(0, 1, 0, 1), HEAVENLY, 1),
    ]
    for base, cubic, status, degree in cases:
        verdict = classify(EllipticInput(base, cubic))
        assert verdict.status == status, (base, cubic)
        assert verdict.torsion_degree == degree, (base, cubic)
        assert verdict.torsion_degree in (1, 2, 3, 6)
        if verdict.status == HEAVENLY:
            assert verdict.torsion_degree in (1, 2)


def test_weil_verdict_unramified_step():
    w = WeilRestrictionInput.of("Q", 2, ((0, 0), (0, -1), (0, 0), (1, 0)))
    verdict = classify(w)
    assert verdict.status == HEAVENLY
    assert verdict.torsion_degree == 8
    assert verdict.closure_degree == 8
    heavenly_certificate_ok(verdict)


def test_weil_verdict_ramified_step():
    # the quadratic step Q(sqrt3) itself ramifies at 3, so the compositum
    # cannot avoid odd ramification; the exclusion commentary is cited
    w = WeilRestrictionInput.of("Q", 3, ((0, 0), (-1, 0), (0, 0), (1, 0)))
    verdict = classify(w)
    assert verdict.status == NOT_HEAVENLY
    assert verdict.steps[-1].value("witness_prime") == 3
    assert "JONES_DEGREES" in axiom_ids(verdict)
    assert quadratic_step_primes(verdict) == (3,)
    # over Q(i), the quadratic step Q(i, sqrt5) ramifies at 5 alone
    w = WeilRestrictionInput.of("Q(i)", 5, ((0, 0), (-1, 0), (0, 0), (1, 0)))
    assert quadratic_step_primes(classify(w)) == (5,)


TWO_CUBIC_WEIL = ((-1, -1), (-1, 0), (0, 0), (1, 0))


# the Jacobian of x^5 - 2 over Q(i): the quartic cofactor over the quintic
# level has a coefficient outside Q(i), so its norm to Q has degree 40
CAPPED_JACOBIAN = JacobianInput("Q(i)", UniPoly.of(-2, 0, 0, 0, 0, 1))


def test_resource_cap_yields_unknown(monkeypatch):
    # with the field degree cap lowered, factoring the quartic cofactor of
    # x^5 - 2 over Q(i, theta) stops the tower before its degree is known
    monkeypatch.setattr(towers, "FIELD_DEGREE_CAP", 24)
    verdict = classify(CAPPED_JACOBIAN)
    assert verdict.status == UNKNOWN
    assert verdict.torsion_degree is None
    assert verdict.closure_degree is None
    assert "resource cap" in verdict.steps[-1].description
    assert verdict.steps[-1].value("detail") == \
        "norm descent: field degree 40 exceeds cap 24"


def test_a_cap_in_the_screen_yields_unknown(monkeypatch):
    # a cap met while factoring x^2 - 15016 for the quadratic step's odd
    # primes stops the screen before it has an outcome
    real = ramification.factor_over_q

    def capped(f):
        if f == UniPoly.of(-15016, 0, 1):
            raise ResourceCapError("factoring x^2 - 15016 capped")
        return real(f)

    monkeypatch.setattr(ramification, "factor_over_q", capped)
    verdict = classify(WeilRestrictionInput.of("Q", 15016, TWO_CUBIC_WEIL))
    assert verdict.status == UNKNOWN
    assert verdict.screen is None
    assert verdict.torsion_degree is None
    assert verdict.closure_degree is None
    last = verdict.steps[-1]
    assert last.description == "resource cap reached; verdict left undecided"
    assert last.value("detail") == "factoring x^2 - 15016 capped"


def test_capped_certificates_keep_the_steps_of_built_towers(monkeypatch):
    # a cap in the second cubic of a product keeps the first factor's
    # step, and a cap in a Jacobian's only tower keeps its factor degrees
    monkeypatch.setattr(towers, "FIELD_DEGREE_CAP", 6)
    product = classify(ProductInput(
        EllipticInput("Q", X3_MINUS_2),
        EllipticInput("Q", UniPoly.of(-3, 0, 0, 1))))
    jacobian = classify(JacobianInput("Q", UniPoly.of(-2, 0, 0, 0, 0, 1)))
    cap = "resource cap reached; verdict left undecided"
    for verdict in (product, jacobian):
        assert verdict.status == UNKNOWN
        assert verdict.torsion_degree is None
        assert verdict.steps[-1].description == cap
    first, last = product.steps[-2:]
    assert first.description == "2-division field of the first factor"
    assert first.value("relative_degree") == 6
    assert last.value("detail") == \
        "norm descent: field degree 9 exceeds cap 6"
    factors, last = jacobian.steps[-2:]
    assert factors.value("factor_degrees") == (5, 1)
    assert last.value("detail") == \
        "norm descent: field degree 20 exceeds cap 6"


def test_degree_72_weil_decides_at_the_quadratic_step():
    # the same input uncapped: a degree-72 field, decided from the small
    # rational factors of its defining polynomial rather than left unknown
    verdict = classify(WeilRestrictionInput.of("Q", 3, TWO_CUBIC_WEIL))
    assert verdict.status == NOT_HEAVENLY
    assert verdict.torsion_degree == 72
    assert verdict.closure_degree is None
    assert verdict.steps[-1].value("witness_prime") == 3


def test_classify_deterministic():
    for item in (JacobianInput("Q", X5_PLUS_X),
                 WeilRestrictionInput.of(
                     "Q", 2, ((0, 0), (0, -1), (0, 0), (1, 0)))):
        assert classify(item) == classify(item)


def test_a_verdict_depends_only_on_its_input(monkeypatch):
    # classify keeps no answer between calls: the input decided uncapped
    # still meets the lowered field degree cap in the next call
    item = CAPPED_JACOBIAN
    assert classify(item).status == NOT_HEAVENLY
    monkeypatch.setattr(towers, "FIELD_DEGREE_CAP", 24)
    verdict = classify(item)
    assert verdict.status == UNKNOWN
    assert "resource cap" in verdict.steps[-1].description


def test_screen_primes_stay_above_the_default_cap(monkeypatch):
    # a capped call builds the degree-2 and degree-10 fields of the
    # Jacobian of x^5 - 2 over Q(i), and their screen maps with them; the
    # primes they took stay above the cap the module sets, so a later call
    # takes the same route
    item = CAPPED_JACOBIAN
    towers._interned.cache_clear()
    monkeypatch.setattr(towers, "FIELD_DEGREE_CAP", 24)
    assert classify(item).status == UNKNOWN
    monkeypatch.undo()
    fields = towers.field_chain(two_division_tower(item)[-1])[1:]
    assert [F.absolute_degree for F in fields] == [2, 10, 40]
    for F in fields:
        primes = [p for p, *_ in F._residue_maps]
        assert len(primes) == towers._SCREEN_PRIMES, F.absolute_degree
        assert min(primes) > towers.FIELD_DEGREE_CAP, F.absolute_degree


def test_classify_decides_each_odd_ramification_once_per_call(monkeypatch):
    # the Weil screen and the ramification stage both ask about x^2 - D;
    # within a call each irreducible factor's primes are decided once
    divided = []
    real = ramification.odd_prime_divisors

    def counted(n):
        divided.append(n)
        return real(n)

    monkeypatch.setattr(ramification, "odd_prime_divisors", counted)
    for base, D in (("Q", 3), ("Q(i)", 2)):
        divided.clear()
        classify(WeilRestrictionInput.of(base, D, TWO_CUBIC_WEIL))
        assert len(divided) == len(set(divided)), (base, D)
        assert D * 4 in divided, (base, D)


def test_classify_factors_each_polynomial_once_per_call(monkeypatch):
    # within a call a repeated factoring is answered from the call's
    # memo; the next call starts with none and factors the same again
    factored = []
    real = factorization._factor_monic_squarefree_int

    def counted(f):
        factored.append(tuple(f))
        return real(f)

    monkeypatch.setattr(factorization, "_factor_monic_squarefree_int",
                        counted)
    for path in sorted(CORPUS.glob("*.json")):
        item = input_from_document(json.loads(path.read_text("utf-8")))
        factored.clear()
        first = classify(item)
        once = list(factored)
        assert len(once) == len(set(once)), path.name
        factored.clear()
        assert classify(item) == first
        assert factored == once, path.name
        assert polynomials._MEMO.get() is None


def test_classify_rejects_other_types():
    with pytest.raises(InputError):
        classify(X5_MINUS_X)
    with pytest.raises(InputError):
        two_division_tower(X5_MINUS_X)


def test_product_verdict():
    verdict = classify(ProductInput(EllipticInput("Q", CURVE_32A2),
                                    EllipticInput("Q", CURVE_64A1)))
    assert verdict.status == HEAVENLY
    assert verdict.torsion_degree == 1
    assert verdict.closure_degree == 1
    assert verdict.screen == PLAUSIBLE
    heavenly_certificate_ok(verdict)


# ---------------------------------------------------------------------------
# Degree bookkeeping for Jacobians over quadratic bases.


def test_factor_degree_vectors():
    assert factor_degree_vector(JacobianInput("Q", X5_MINUS_X)) == \
        (2, 1, 1, 1, 1)
    assert factor_degree_vector(JacobianInput("Q", X6_MINUS_1)) == \
        (2, 2, 1, 1)
    assert factor_degree_vector(JacobianInput("Q(i)", X5_MINUS_X)) == \
        (1, 1, 1, 1, 1, 1)
    assert factor_degree_vector(JacobianInput("Q(sqrt-2)", X5_PLUS_X)) == \
        (2, 2, 1, 1)
    split = poly_from_roots(0, 1, -1, 2, -2, 3)
    assert factor_degree_vector(JacobianInput("Q", split)) == \
        (1, 1, 1, 1, 1, 1)


def test_closure_degree_bound_rows():
    assert closure_degree_bound((4, 2)) == 256
    assert closure_degree_bound((4, 1, 1)) == 64
    assert closure_degree_bound((2, 2, 2)) == 128
    assert closure_degree_bound((2, 2, 1, 1)) == 32
    assert closure_degree_bound((2, 1, 1, 1, 1)) == 8
    assert closure_degree_bound((1, 1, 1, 1, 1, 1)) == 2


def test_closure_degree_bound_rejects():
    with pytest.raises(InputError):
        closure_degree_bound((2, 4))                    # not descending
    with pytest.raises(InputError):
        closure_degree_bound((3, 2, 1))                 # entry outside table
    with pytest.raises(InputError):
        closure_degree_bound((4, 4))                    # wrong total
    with pytest.raises(InputError):
        closure_degree_bound(())
    with pytest.raises(InputError):
        closure_degree_bound(("a",))                    # not a number
    with pytest.raises(InputError):
        closure_degree_bound((4.0, 2.0))                # floats, not ints
    with pytest.raises(InputError):
        closure_degree_bound((True, 1, 1, 1, 1, 1))     # a bool is no degree


def test_quadratic_base_closure_within_bound():
    for base, poly in (("Q(i)", X5_MINUS_X), ("Q(sqrt-2)", X5_PLUS_X)):
        item = JacobianInput(base, poly)
        verdict = classify(item)
        assert verdict.status == HEAVENLY
        vector = factor_degree_vector(item)
        assert verdict.closure_degree <= closure_degree_bound(vector)


# ---------------------------------------------------------------------------
# The mod-2 orbit trace.


def test_gl4_deduction_trace():
    steps = gl4_deduction()
    assert steps == gl4_deduction()
    counts = [s for s in steps if s.has_value("count")]
    assert counts[0].value("count") == 15
    orders = [s for s in steps if s.has_value("order")]
    assert orders[0].value("order") == 20160
    cited = [s for s in steps if s.kind == AXIOM]
    assert [s.value("axiom_id") for s in cited] == ["JONES_DEGREES"]
    conclusion = steps[-1]
    assert conclusion.value("axiom_dependent") is True
    assert conclusion.value("point_field_degrees") == (1, 2, 4, 8)


def test_step_value_lookup():
    steps = gl4_deduction()
    with pytest.raises(KeyError):
        steps[0].value("missing")
    assert not steps[0].has_value("missing")


# ---------------------------------------------------------------------------
# The 2-division field is the splitting field over Q of the defining
# polynomials: their factor-wise ramification gives the frozen primes, and
# the tower degree agrees with a splitting tower over Q.


# name: (odd ramified primes, absolute degree = Galois closure degree)
SPLITTING_FIELD_TABLE = {
    "elliptic_32a2": ((), 1),
    "elliptic_64a1": ((), 1),
    "elliptic_x3_minus_2": ((3,), 6),
    "jacobian_x5_minus_x": ((), 2),
    "jacobian_x5_plus_x": ((), 4),
    "jacobian_x6_minus_1": ((3,), 2),
    "product_32a2_64a1": ((), 1),
    "weil_sqrt2": ((), 8),
    "weil_sqrt_minus_1": ((3,), 4),
    "x^3-x over Q(i)": ((), 2),
    "x^5-x over Q(sqrt2)": ((), 4),
    "x^3-2 over Q(i)": ((3,), 12),
}


def _splitting_field_items():
    items = {}
    for path in sorted(CORPUS.glob("*.json")):
        items[path.stem] = input_from_document(
            json.loads(path.read_text(encoding="utf-8")))
    items["x^3-x over Q(i)"] = EllipticInput("Q(i)", CURVE_32A2)
    items["x^5-x over Q(sqrt2)"] = JacobianInput("Q(sqrt2)", X5_MINUS_X)
    items["x^3-2 over Q(i)"] = EllipticInput("Q(i)", X3_MINUS_2)
    return items


def test_splitting_field_matches_tower_ramification_and_closure():
    items = _splitting_field_items()
    assert set(items) == set(SPLITTING_FIELD_TABLE)
    for name, item in items.items():
        primes, degree = SPLITTING_FIELD_TABLE[name]
        polys = defining_polynomials(item)
        tower = two_division_tower(item)[-1]
        assert tuple(sorted(splitting_field_odd_ramified(polys))) == primes, \
            name
        assert tower.absolute_degree == degree, name
        product = UniPoly.one()
        for f in polys:
            product = product * f
        assert splitting_tower(squarefree_part(product)).absolute_degree \
            == degree, name


def test_classify_reports_the_tower_degree_as_closure_degree():
    for name, item in _splitting_field_items().items():
        verdict = classify(item)
        primes, degree = SPLITTING_FIELD_TABLE[name]
        ramified = [s for s in verdict.steps if s.has_value("primes")
                    and "2-division field" in s.description]
        assert ramified[-1].value("primes") == primes, name
        if verdict.status == HEAVENLY:
            assert verdict.closure_degree == degree, name


# ---------------------------------------------------------------------------
# The paper's theorem over Q as a census oracle.


def _census():
    return json.loads((Path(__file__).resolve().parent / "data"
                       / "census_q.json").read_text(encoding="utf-8"))


def _census_inputs():
    """The 896 census inputs: the 38 models and the 108 cubics over each
    base, then the 312 restrictions over Q."""
    census = _census()
    items = [JacobianInput(base, UniPoly.of(*coeffs)) for base in BASES
             for coeffs in census["models"]]
    items += [EllipticInput(base, UniPoly.of(*coeffs)) for base in BASES
              for coeffs in census["cubics"]["models"]]
    items += [WeilRestrictionInput.of("Q", radicand, pairs)
              for radicand, pairs in census["weil_restrictions"]["models"]]
    return items


# SHA-256 of the status, degrees, screen and certificate steps of every
# census input, as their documents encode them, frozen from the
# implementation that chose each norm-descent shift by a resultant screen
# modulo p.
CENSUS_DIGEST = (
    "e1799199b79adc99dc153dc9c14a710dcc66b7edea088a0d9b05a15fa0601ac3")


def test_census_verdicts_digest():
    lines = []
    for item in _census_inputs():
        doc = output_document({}, classify(item), 0)
        lines.append(json.dumps([doc["verdict"], doc["certificate"]],
                                sort_keys=True))
    assert len(lines) == 896
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == CENSUS_DIGEST


def test_plausible_census_over_q_is_heavenly():
    # a plausible screen means a discriminant of +-2^k, so good reduction
    # away from 2, and the paper's theorem then makes the 2-power torsion
    # tower pro-2 and unramified away from 2; tests/data/census_q.py wrote
    # the frozen list, and a model that is not heavenly is a defect
    census = _census()
    assert census["count"] == len(census["models"]) == 38
    for coeffs in census["models"]:
        f = UniPoly.of(*coeffs)
        assert screen_good_reduction(f) == PLAUSIBLE, coeffs
        verdict = classify(JacobianInput("Q", f))
        assert verdict.status == HEAVENLY, coeffs
        assert verdict.screen == PLAUSIBLE, coeffs


def test_plausible_products_and_restrictions_over_q_are_heavenly():
    # more surfaces over Q with good reduction away from 2: products of two
    # plausible cubics, and restrictions from Q(i), Q(sqrt2) and Q(sqrt-2)
    # whose conjugate-product screen is plausible; a seeded sample of each
    # frozen list keeps the test short
    census = _census()
    cubics = census["cubics"]["models"]
    restrictions = census["weil_restrictions"]["models"]
    assert census["cubics"]["count"] == len(cubics) == 108
    assert census["weil_restrictions"]["count"] == len(restrictions) == 312
    rng = random.Random(15)
    for _ in range(30):
        first, second = (EllipticInput("Q", UniPoly.of(*c))
                         for c in rng.sample(cubics, 2))
        verdict = classify(ProductInput(first, second))
        assert verdict.status == HEAVENLY, (first, second)
        assert verdict.screen == PLAUSIBLE, (first, second)
    for radicand, pairs in rng.sample(restrictions, 30):
        verdict = classify(WeilRestrictionInput.of("Q", radicand, pairs))
        assert verdict.status == HEAVENLY, (radicand, pairs)
        assert verdict.screen == PLAUSIBLE, (radicand, pairs)


def test_conjugate_product_is_the_norm_from_q_of_s():
    # A^2 - D*B^2 against the norm of the cubic A + s*B from Q(s) to Q,
    # taken as a resultant by towers._norm_poly, for every census
    # restriction over every base where it is a valid input
    compared = 0
    for radicand, pairs in _census()["weil_restrictions"]["models"]:
        K = towers._quadratic_step("Q", Fraction(radicand))
        cubic = tuple((Fraction(a), Fraction(b)) for a, b in pairs)
        norm = UniPoly.from_list(
            towers._norm_poly(K, towers._pair_cubic(K, cubic), 6))
        for base in BASES:
            try:
                W = WeilRestrictionInput.of(base, radicand, pairs)
            except InputError:
                continue
            assert W._conjugate_product == norm, (base, radicand, pairs)
            compared += 1
    assert compared == 936


def _c4_c6(coeffs):
    """The invariants c4, c6 of y^2 = x^3 + a2 x^2 + a4 x + a6, given as
    ascending [a6, a4, a2, 1]."""
    a6, a4, a2, _ = coeffs
    return 16 * a2 * a2 - 48 * a4, -64 * a2 ** 3 + 288 * a2 * a4 - 864 * a6


def _rational_root(q: Fraction, k: int):
    """The nonnegative rational r with r^k = q, or None; q is small."""
    if q < 0:
        return None
    r = Fraction(*(round(x ** (1 / k)) for x in (q.numerator, q.denominator)))
    return r if r ** k == q else None


def _isomorphic_over_q(a, b) -> bool:
    # (d4, d6) = (u^4 c4, u^6 c6) for a rational u; w = u^2 is a square
    (c4, c6), (d4, d6) = a, b
    if c4 and c6:
        w = Fraction(d6 * c4, c6 * d4) if d4 else None
    elif c4:
        w = _rational_root(Fraction(d4, c4), 2)
    else:
        w = _rational_root(Fraction(d6, c6), 3)
    return (w is not None and w > 0 and _rational_root(w, 2) is not None
            and (d4, d6) == (w ** 2 * c4, w ** 3 * c6))


def test_census_cubics_are_oggs_24_curves():
    # the elliptic curves over Q with good reduction away from 2 fall into
    # 24 isomorphism classes (Ogg 1966); the census box holds a model of
    # each, and their j-invariants are the five of that list
    classes = []
    for coeffs in _census()["cubics"]["models"]:
        inv = _c4_c6(coeffs)
        for members in classes:
            if _isomorphic_over_q(members[0], inv):
                members.append(inv)
                break
        else:
            classes.append([inv])
    assert sum(map(len, classes)) == 108
    assert len(classes) == 24
    js = {Fraction(1728 * c4 ** 3, c4 ** 3 - c6 ** 2)
          for members in classes for c4, c6 in members}
    assert js == {128, 1728, 8000, 10976, 287496}


def test_twist_factors_are_the_curves_conjugated():
    # over the quadratic step K, the conjugate twist's irreducible factors
    # are the curve's with s replaced by -s, the automorphism of K over Q;
    # two_division_tower takes the twist's factors this way
    for radicand, pairs in _census()["weil_restrictions"]["models"]:
        K = towers._quadratic_step("Q", Fraction(radicand))
        cubic = [(Fraction(a), Fraction(b)) for a, b in pairs]
        twist = towers._pair_cubic(K, [(a, -b) for a, b in cubic])
        curve = towers.factor_over_tower(K, towers._pair_cubic(K, cubic))
        assert {tuple(g) for g, _ in towers.factor_over_tower(K, twist)} == \
            {tuple(towers._conjugate(K, g)) for g, _ in curve}, \
            (radicand, pairs)


# ---------------------------------------------------------------------------
# Each start-field factor is split once.


def _levels_splitting_each_polynomial_whole(item):
    """Reference levels for two_division_tower: every shape polynomial,
    a restriction's twist included, split whole over the tower so far."""
    if isinstance(item, WeilRestrictionInput):
        start = towers._quadratic_step(item.base, item.radicand)
        twist = tuple((a, -b) for a, b in item.cubic)
        polys = [towers._pair_cubic(start, c) for c in (item.cubic, twist)]
    else:
        start = base_field(item.base)
        polys = CLASSIFY_MODULE._model_polynomials(item)
    levels = [start]
    for f in polys:
        if not isinstance(f, UniPoly) and levels[-1] is not start:
            f = [levels[-1].from_base(c) for c in f]
        levels.append(splitting_tower(f, levels[-1]))
    return levels


def test_splitting_each_factor_once_keeps_the_levels():
    items = [input_from_document(json.loads(p.read_text(encoding="utf-8")))
             for p in sorted(CORPUS.glob("*.json"))]
    census = _census()
    rng = random.Random(26)
    items += [WeilRestrictionInput.of("Q", radicand, pairs) for radicand, pairs
              in rng.sample(census["weil_restrictions"]["models"], 40)]
    cubics = census["cubics"]["models"]
    for base in BASES:
        # every b = 0: the twist is the curve, so the level repeats
        for coeffs in rng.sample(cubics, 2):
            for radicand in (3, -1):
                try:
                    items.append(WeilRestrictionInput.of(
                        base, radicand, [(a, 0) for a in coeffs]))
                except InputError:
                    pass
        pairs = [rng.sample(cubics, 2) for _ in range(4)]
        pairs.append([rng.choice(cubics)] * 2)
        items += [ProductInput(*(EllipticInput(base, UniPoly.of(*c))
                                 for c in pair)) for pair in pairs]
    for item in items:
        whole = _levels_splitting_each_polynomial_whole(item)
        assert [F.levels for F in two_division_tower(item)] == \
            [F.levels for F in whole], item


def _corpus_item(name):
    return input_from_document(json.loads(
        (CORPUS / f"{name}.json").read_text(encoding="utf-8")))


def _recording_splitting_tower(monkeypatch):
    calls = []

    def recording(f, tower):
        calls.append((f, tower))
        return splitting_tower(f, tower)

    monkeypatch.setattr(CLASSIFY_MODULE, "splitting_tower", recording)
    return calls


def test_a_twist_split_by_the_curves_tower_adds_no_level(monkeypatch):
    # y^2 = x^3 - 1 over Q(i): the twist is the curve itself
    calls = _recording_splitting_tower(monkeypatch)
    start, curve, top = two_division_tower(_corpus_item("weil_sqrt_minus_1"))
    assert len(calls) == 1
    assert top is curve


def test_a_twist_sends_only_its_new_nonlinear_factor(monkeypatch):
    # y^2 = x^3 - s x over Q(s), s^2 = 2: the twist x (x^2 + s) sends
    # only x^2 + s over the curve's 2-division field T1
    calls = _recording_splitting_tower(monkeypatch)
    K, T1, _ = two_division_tower(_corpus_item("weil_sqrt2"))
    assert [tower for _, tower in calls] == [K, T1]
    assert calls[1][0] == [T1.from_base(K.generator()), T1.zero(), T1.one()]


def test_the_conjugate_twist_is_never_factored(monkeypatch):
    # s -> -s is an automorphism of K = base(s), so the twist's factors
    # over K, the conjugates of the curve's irreducible factors, are
    # irreducible there: no factoring over K computes one of them
    items = [WeilRestrictionInput.of("Q", D, TWO_CUBIC_WEIL)
             for D in (3, 5, 6, 7)]
    items += [_corpus_item("weil_sqrt2"), _corpus_item("weil_sqrt_minus_1")]
    computed = []
    real = towers._factor_over_tower
    monkeypatch.setattr(towers, "_factor_over_tower",
                        lambda F, f: computed.append((F, f)) or real(F, f))
    for w in items:
        K = towers._quadratic_step(w.base, w.radicand)
        conjugates = [towers._conjugate(K, g) for g, _ in
                      factor_over_tower(K, towers._pair_cubic(K, w.cubic))]
        computed.clear()
        classify(w)
        assert computed, w
        assert not [f for F, f in computed if F == K and f in conjugates], w


def test_the_a6_sextic_never_proves_its_norms_squarefree_twice(
        monkeypatch):
    # the degree-120 norms of the A6 sextic's descent are proven squarefree
    # once, so no exact gcd over Q takes one; the cap detail is unchanged
    largest = [0]

    def spy(real):
        def recording(f, g):
            largest[0] = max(largest[0], f.degree, g.degree)
            return real(f, g)
        return recording

    for module in (factorization, polynomials, towers):
        monkeypatch.setattr(module, "poly_gcd", spy(module.poly_gcd))
    verdict = classify(JacobianInput("Q", UniPoly.of(8, -12, 0, 10, 0, -9, 1)))
    assert verdict.status == UNKNOWN
    assert verdict.steps[-1].value("detail") == (
        "factor recombination exceeded 200000 subsets "
        "(degree 120, 24 factors mod 41)")
    assert largest[0] < 100


def test_dedekind_criterion_at_a_large_prime_is_fast():
    # y^2 = (x - A)^2 (x - B) + p^2 at p = 1000003: the cubic is (x - A)^2
    # (x - B) mod p, so the ramification ladder factors it modulo a large
    # prime, which must not scan Fp
    p = 1000003
    x = UniPoly.of(0, 1)
    f = (x - UniPoly.of(p // 2)) ** 2 * (x - UniPoly.of(p // 3)) \
        + UniPoly.of(p * p)
    start = time.perf_counter()
    verdict = classify(EllipticInput("Q", f))
    assert time.perf_counter() - start < 1.0
    assert verdict.status == NOT_HEAVENLY
    assert verdict.torsion_degree == 6
    ramified = [s for s in verdict.steps if s.has_value("primes")
                and "2-division field" in s.description]
    assert ramified[-1].value("primes") == (5, 1307, 4723, 19889, 30211)
