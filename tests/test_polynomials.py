"""Exact univariate polynomial arithmetic over the rationals."""

from fractions import Fraction

import pytest
import random
import time

import heavenly.factorization as factorization
import heavenly.polynomials as polynomials
from heavenly.errors import InputError
from heavenly.polynomials import (
    UniPoly,
    discriminant,
    format_polynomial,
    has_rational_root,
    integer_roots,
    make_monic_integral,
    monic_integral_with_scale,
    parse_polynomial,
    poly_gcd,
    rational_roots,
    resultant,
    squarefree_part,
)


def P(*coeffs):
    return UniPoly.of(*coeffs)


def test_construction_and_degree():
    assert UniPoly.zero().degree == -1
    assert UniPoly.one().degree == 0
    assert UniPoly.x().degree == 1
    assert P(1, 0, 3).degree == 2
    assert P(0, 0, 0).degree == -1
    assert P(5).leading_coefficient == 5


def test_arithmetic_basics():
    f = P(1, 2, 1)  # (x+1)^2
    g = P(-1, 1)    # x - 1
    assert f + g == P(0, 3, 1)
    assert f - f == UniPoly.zero()
    assert g * g == P(1, -2, 1)
    assert P(1, 1) * P(-1, 1) == P(-1, 0, 1)
    assert g**3 == P(-1, 3, -3, 1)
    assert (-g) == P(1, -1)


def test_divmod_exact():
    f = P(-1, 0, 0, 0, 1)  # x^4 - 1
    g = P(1, 0, 1)         # x^2 + 1
    q, r = divmod(f, g)
    assert q == P(-1, 0, 1)
    assert r == UniPoly.zero()
    q2, r2 = divmod(P(1, 1, 1), P(0, 1))
    assert q2 == P(1, 1)
    assert r2 == P(1)
    with pytest.raises(InputError):
        divmod(f, UniPoly.zero())


def test_evaluate_and_compose():
    f = P(1, -2, 1)
    assert f.evaluate(Fraction(1)) == 0
    assert f.evaluate(Fraction(3)) == 4
    g = f.compose(P(1, 1))  # f(x+1) = x^2
    assert g == P(0, 0, 1)


def test_derivative():
    assert P(5, 3, 0, 2).derivative() == P(3, 0, 6)
    assert P(7).derivative() == UniPoly.zero()


def test_gcd_frozen():
    assert poly_gcd(P(-1, 0, 1), P(-1, 1)) == P(-1, 1)
    assert poly_gcd(P(0, -1, 0, 0, 1), P(1, 0, 1)) == UniPoly.one()
    assert poly_gcd(UniPoly.zero(), UniPoly.zero()) == UniPoly.zero()
    assert poly_gcd(P(0, 2), UniPoly.zero()) == P(0, 1)


def test_squarefree_part():
    f = P(1, 2, 1) * P(-1, 1)  # (x+1)^2 (x-1)
    assert squarefree_part(f) == P(-1, 1) * P(1, 1)
    assert squarefree_part(P(0, 0, 1)) == P(0, 1)


def test_resultant_frozen():
    assert resultant(P(1, 0, 1), P(-1, 0, 1)) == 4
    assert resultant(P(0, 1), P(1, 0, 0, 0, 1)) == 1
    assert resultant(P(-1, 1), P(1, 1)) == 2
    assert resultant(P(2), P(-1, 0, 1)) == 4
    f = P(0, -1, 0, 0, 0, 1)  # x^5 - x
    assert resultant(f, f.derivative()) == -256


def test_resultant_multiplicative():
    rng = random.Random(11)
    for _ in range(50):
        f = P(*[rng.randrange(-4, 5) for _ in range(3)] + [1])
        g = P(*[rng.randrange(-4, 5) for _ in range(2)] + [1])
        h = P(*[rng.randrange(-4, 5) for _ in range(2)] + [1])
        assert resultant(f, g * h) == resultant(f, g) * resultant(f, h)


def test_resultant_is_the_sylvester_determinant():
    # sympy's Sylvester matrix is the oracle, not sympy.resultant, which
    # swaps its arguments' order for some degree pairs; rational
    # coefficients, constants and two constants (the empty matrix) included
    sympy = pytest.importorskip("sympy")
    from sympy.polys.subresultants_qq_zz import sylvester

    x = sympy.Symbol("x")
    rng = random.Random(15)

    def rational_poly(degree):
        coeffs = [Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 7]))
                  for _ in range(degree)]
        return P(*coeffs, Fraction(rng.choice([-3, -1, 1, 2, 5]),
                                   rng.choice([1, 2, 3])))

    degrees = [(0, 0), (0, 3), (4, 0)] + [
        (rng.randint(0, 6), rng.randint(0, 6)) for _ in range(197)]
    for m, n in degrees:
        f, g = rational_poly(m), rational_poly(n)
        fs, gs = (sum(sympy.Rational(c.numerator, c.denominator) * x**k
                      for k, c in enumerate(h.coeffs)) for h in (f, g))
        assert resultant(f, g) == sylvester(fs, gs, x).det(), (f, g)


def test_discriminant_frozen():
    assert discriminant(P(0, -1, 0, 1)) == 4       # x^3 - x
    assert discriminant(P(0, -1, 0, 0, 0, 1)) == -256  # x^5 - x
    assert discriminant(P(1, 0, 0, 0, 1)) == 256   # x^4 + 1
    assert discriminant(P(1, 0, 1)) == -4          # x^2 + 1
    assert discriminant(P(-2, 0, 0, 1)) == -108    # x^3 - 2
    assert discriminant(P(9, 0, -2, 0, 1)) == 2**14 * 3**2


def test_discriminant_quadratic_formula():
    rng = random.Random(5)
    for _ in range(100):
        b = Fraction(rng.randrange(-9, 10))
        c = Fraction(rng.randrange(-9, 10))
        f = P(c, b, 1)
        assert discriminant(f) == b * b - 4 * c


def no_factoring(monkeypatch):
    # rational roots are found by a root lift, never by factoring
    def refuse(f):
        raise AssertionError("factor_over_q reached")

    monkeypatch.setattr(factorization, "factor_over_q", refuse)


def test_rational_roots(monkeypatch):
    no_factoring(monkeypatch)
    f = P(0, -1, 0, 1)  # x^3 - x = x(x-1)(x+1)
    assert rational_roots(f) == [Fraction(-1), Fraction(0), Fraction(1)]
    assert rational_roots(P(1, 0, 1)) == []
    g = P(-1, 0, 2)  # 2x^2 - 1, roots irrational
    assert rational_roots(g) == []
    h = P(-1, 2)  # 2x - 1
    assert rational_roots(h) == [Fraction(1, 2)]
    assert has_rational_root(f)
    assert not has_rational_root(P(1, 0, 1))


def random_rational_poly(rng, degree):
    coeffs = [Fraction(rng.randrange(-12, 13), rng.randrange(1, 6))
              for _ in range(degree)]
    return UniPoly.from_list(coeffs + [Fraction(rng.randrange(1, 7),
                                                rng.randrange(1, 4))])


def test_rational_roots_agree_with_sympy(monkeypatch):
    sympy = pytest.importorskip("sympy")
    no_factoring(monkeypatch)
    x = sympy.Symbol("x")
    rng = random.Random(137)
    for _ in range(40):
        f = P(Fraction(rng.choice((-5, -1, 2, 3)), rng.randrange(1, 4)))
        for _ in range(rng.randrange(0, 4)):
            f = f * random_rational_poly(rng, 1) ** rng.randrange(1, 3)
        for _ in range(rng.randrange(0, 3)):
            f = f * random_rational_poly(rng, rng.randrange(2, 5))
        expected = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                               for c in reversed(f.coeffs)], x).ground_roots()
        assert rational_roots(f) == sorted(
            Fraction(int(sympy.numer(r)), int(sympy.denom(r)))
            for r in expected), f
    with pytest.raises(InputError, match="rational roots of the zero"):
        rational_roots(UniPoly.zero())


def test_rational_roots_of_a_large_constant_are_fast(monkeypatch):
    no_factoring(monkeypatch)
    start = time.perf_counter()
    assert rational_roots(P(-10 ** 40, 0, 1)) == [Fraction(-10 ** 20),
                                                 Fraction(10 ** 20)]
    assert time.perf_counter() - start < 1


def test_integer_roots_skip_primes_with_a_repeated_root():
    # x(x - 105)(x + 2): 0 and 105 meet mod 3, 5 and 7, and 0 and -2 mod 2,
    # so the roots are lifted from 11, where all three are simple
    f = P(0, 1) * P(-105, 1) * P(2, 1)
    assert integer_roots(f.integer_coefficients()) == [-2, 0, 105]
    # roots far beyond p, and none at all
    assert integer_roots([-(7 ** 60), 1]) == [7 ** 60]
    assert integer_roots([1, 0, 1]) == []
    assert integer_roots((P(3, 1) * P(1, 1, 1)).integer_coefficients()) == [-3]


def test_make_monic_integral_frozen():
    assert make_monic_integral(P(-1, 0, 2)) == P(-2, 0, 1)
    f = UniPoly.of(Fraction(0), Fraction(-1), Fraction(0), Fraction(1, 3))
    assert make_monic_integral(f) == P(0, -3, 0, 1)
    assert make_monic_integral(P(-2, 0, 0, 1)) == P(-2, 0, 0, 1)
    with pytest.raises(InputError):
        make_monic_integral(UniPoly.zero())


def test_monic_integral_scale_tracks_roots():
    rng = random.Random(23)
    for _ in range(100):
        coeffs = [Fraction(rng.randrange(-6, 7), rng.randrange(1, 5))
                  for _ in range(rng.randrange(1, 5))]
        coeffs.append(Fraction(rng.randrange(1, 7), rng.randrange(1, 4)))
        f = UniPoly.of(*coeffs)
        g, a = monic_integral_with_scale(f)
        assert g.is_monic and g.integer_coefficients()
        for r in rational_roots(f):
            assert g.evaluate(a * r) == 0


def test_parse_polynomial():
    assert parse_polynomial("x^2+1") == P(1, 0, 1)
    assert parse_polynomial("x^5 - x") == P(0, -1, 0, 0, 0, 1)
    assert parse_polynomial("-x + 3") == P(3, -1)
    assert parse_polynomial("1/2*x^2 - 2") == UniPoly.of(-2, 0, Fraction(1, 2))
    assert parse_polynomial("7") == P(7)
    assert parse_polynomial("-3/4") == UniPoly.of(Fraction(-3, 4))
    assert parse_polynomial("x") == P(0, 1)
    assert parse_polynomial("2*x") == P(0, 2)
    assert parse_polynomial("x^3 - x^3") == UniPoly.zero()
    # surrounding whitespace is stripped
    assert parse_polynomial("x+1\n") == P(1, 1)
    assert parse_polynomial(" -1 ") == P(-1)


def test_parse_polynomial_rejects():
    for bad in ["", "x^", "2x", "1.5*x", "x**2", "x^2 +", "* x", "y+1", "3*", "x^-2",
                "1/0*x", "x^2 - 3/0",
                # a newline inside the text, and digits other than 0-9
                "x\n+1", "2*x\n-3", "x^2\n+x\n+1", "x^\u0662 - \u0662",
                "\u0663", "\uff12*x", "x + 1/\u0662"]:
        with pytest.raises(InputError):
            parse_polynomial(bad)


def test_parse_polynomial_bounds_the_exponent():
    # the dense coefficient list is sized by the largest exponent, so a
    # short text must not ask for a huge one
    bound = polynomials.MAX_EXPONENT
    assert parse_polynomial(f"x^{bound} - 1").degree == bound
    for text in (f"x^{bound + 1}", f"2*x^{bound + 1} + x - 1",
                 "x^" + "9" * 5000):
        with pytest.raises(InputError, match=str(bound)):
            parse_polynomial(text)


def test_format_round_trip():
    rng = random.Random(31)
    for _ in range(200):
        coeffs = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 4))
                  for _ in range(rng.randrange(0, 6))]
        f = UniPoly.of(*coeffs)
        assert parse_polynomial(format_polynomial(f)) == f


def test_format_examples():
    assert format_polynomial(P(0, -1, 0, 0, 0, 1)) == "x^5 - x"
    assert format_polynomial(UniPoly.zero()) == "0"
    assert format_polynomial(P(-2, 0, 1)) == "x^2 - 2"
    assert format_polynomial(UniPoly.of(Fraction(1, 2))) == "1/2"
