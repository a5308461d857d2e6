"""Factorization over prime fields and over the rationals."""

from fractions import Fraction
from itertools import product
from math import gcd

import pytest
import random
import time

import heavenly.factorization as factorization
from heavenly.errors import ResourceCapError
from heavenly.polynomials import UniPoly, poly_gcd, squarefree_part
from heavenly.factorization import (
    factor_mod_p,
    factor_over_q,
    squarefree_decomposition,
)


def P(*coeffs):
    return UniPoly.of(*coeffs)


def derivative(f: UniPoly) -> UniPoly:
    return UniPoly.from_list([k * c for k, c in enumerate(f.coeffs)][1:])


def brute_force_irreducible(f: UniPoly, bound: int = 8) -> bool:
    """Oracle: monic integral f of degree <= 4 has no monic integral
    divisor of degree 1 or 2 with coefficients bounded by the bound."""
    assert f.is_monic and f.degree <= 4
    assert all(c.denominator == 1 for c in f.coeffs)
    for b in range(-bound, bound + 1):
        if sum(c * b ** i for i, c in enumerate(f.coeffs)) == 0:
            return False
    if f.degree >= 2:
        for b, c in product(range(-bound, bound + 1), repeat=2):
            g = P(c, b, 1)
            if (f % g).is_zero and g != f:
                return False
    return True


def test_factor_mod_p_frozen():
    # x^4 + 1 mod 3 = (x^2 + x + 2)(x^2 + 2x + 2)
    facs = factor_mod_p(P(1, 0, 0, 0, 1), 3)
    assert facs == [([2, 1, 1], 1), ([2, 2, 1], 1)]
    # x^2 + 1 mod 5 = (x + 2)(x + 3)
    assert factor_mod_p(P(1, 0, 1), 5) == [([2, 1], 1), ([3, 1], 1)]
    # x^2 + 1 irreducible mod 3
    assert factor_mod_p(P(1, 0, 1), 3) == [([1, 0, 1], 1)]


def test_factor_mod_p_multiplicity():
    # (x+1)^2 (x+2) mod 5
    f = P(1, 1) * P(1, 1) * P(2, 1)
    assert factor_mod_p(f, 5) == [([1, 1], 2), ([2, 1], 1)]
    # x^3 mod 7
    assert factor_mod_p(P(0, 0, 0, 1), 7) == [([0, 1], 3)]


def test_factor_mod_p_derivative_zero():
    # x^5 + 1 = (x + 1)^5 mod 5
    assert factor_mod_p(P(1, 0, 0, 0, 0, 1), 5) == [([1, 1], 5)]
    # x^10 + x^5 + 1 mod 5 = ((x^2 + x + 1))^5
    f = P(1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1)
    assert factor_mod_p(f, 5) == [([1, 1, 1], 5)]


def test_factor_mod_p_reconstructs():
    rng = random.Random(41)
    for _ in range(200):
        p = rng.choice([2, 3, 5, 7, 11, 13])
        deg = rng.randrange(1, 9)
        coeffs = [rng.randrange(p) for _ in range(deg)] + [1]
        f = P(*coeffs)
        facs = factor_mod_p(f, p)
        prod_poly = UniPoly.one()
        for g, mult in facs:
            prod_poly = prod_poly * P(*g) ** mult
        # compare coefficient-wise mod p
        diff = prod_poly - f
        assert all(c.denominator == 1 and c.numerator % p == 0
                   for c in diff.coeffs)


def _sympy_factor_mod_p(sympy, coeffs, p):
    """sympy's factorization over Fp, monic, sorted as factor_mod_p sorts."""
    x = sympy.Symbol("x")
    poly = sympy.Poly(list(reversed(coeffs)), x, modulus=p)
    out = []
    for g, mult in poly.factor_list()[1]:
        ascending = [int(c) % p for c in reversed(g.all_coeffs())]
        inv = pow(ascending[-1], -1, p)
        out.append(([c * inv % p for c in ascending], mult))
    return sorted(out, key=lambda t: (len(t[0]), t[0]))


def test_factor_mod_p_agrees_with_sympy():
    # seeded polynomials with repeated factors and non-unit leading
    # coefficients; for p < 100 one in five is x^(p^k) - x, the product of
    # every monic irreducible of degree dividing k, which gives the
    # equal-degree split many factors of one degree
    sympy = pytest.importorskip("sympy")
    rng = random.Random(15)
    cases = 0
    for p in (2, 3, 5, 7, 11, 193, 1000003):
        for i in range(60):
            if i % 5 == 0 and p < 100:
                k = rng.choice([k for k in range(1, 8) if p ** k <= 128]
                               or [1])
                coeffs = [0, -1] + [0] * (p ** k - 2) + [1]
            else:
                coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(1, 8))]
                coeffs.append(rng.choice([1, 2, 3]))
                for _ in range(rng.choice([0, 0, 1, 2])):
                    a = rng.randint(-3, 3)  # times (x + a)^2
                    for _ in range(2):
                        coeffs = [a * c + d for c, d in
                                  zip(coeffs + [0], [0] + coeffs)]
            if coeffs[-1] % p == 0:
                coeffs[-1] += 1
            assert factor_mod_p(P(*coeffs), p) == \
                _sympy_factor_mod_p(sympy, coeffs, p), (p, coeffs)
            cases += 1
    assert cases == 420


def test_factor_mod_p_at_a_large_prime_is_fast():
    # the split of the linear factors takes probes, not a scan of Fp
    p = 10**9 + 7
    r1, r2, r3 = p // 2, p // 3, p // 5
    f = P(-r1, 1) ** 2 * P(-r2, 1) * P(-r3, 1)
    start = time.perf_counter()
    facs = factor_mod_p(f, p)
    assert time.perf_counter() - start < 1.0
    assert facs == [([p - r1, 1], 2), ([p - r2, 1], 1), ([p - r3, 1], 1)]


def test_squarefree_decomposition():
    f = P(-1, 1) ** 2 * P(1, 1) * P(1, 0, 1) ** 3
    parts = squarefree_decomposition(f)
    assert parts == [(P(1, 1), 1), (P(-1, 1), 2), (P(1, 0, 1), 3)]
    assert squarefree_decomposition(P(0, 1)) == [(P(0, 1), 1)]


def test_a_non_monic_part_keeps_its_own_scale(monkeypatch):
    # each squarefree part goes to the integer factoring in its own monic
    # integral form: (2x^2 + 1)^k takes the key x^2 + 2 for every k, as the
    # part alone does, and (2x^2 + 1)^2 (3x - 1) splits 3x - 1 off as its
    # own part, so its scale 3 never reaches the quadratic's key
    keys = []
    memoized = factorization.memoized

    def recorded(key, compute):
        if key[0] == "factor_monic_squarefree_int":
            keys.append(key[1])
        return memoized(key, compute)

    monkeypatch.setattr(factorization, "memoized", recorded)
    f = P(1, 0, 2)
    half = P(Fraction(1, 2), 0, 1)
    assert factorization._factor_squarefree_over_q(f) == [half]
    for k in (1, 2, 3):
        assert factor_over_q(f ** k) == [(half, k)]
    assert factor_over_q(f ** 2 * P(-1, 3)) == [
        (P(Fraction(-1, 3), 1), 1), (half, 2)]
    assert set(keys) == {(2, 0, 1), (-1, 1)}, keys


def test_factor_over_q_frozen():
    # x^4 - 1 = (x - 1)(x + 1)(x^2 + 1)
    facs = factor_over_q(P(-1, 0, 0, 0, 1))
    assert facs == [(P(-1, 1), 1), (P(1, 1), 1), (P(1, 0, 1), 1)]
    # x^3 - x
    assert factor_over_q(P(0, -1, 0, 1)) == [
        (P(-1, 1), 1), (P(0, 1), 1), (P(1, 1), 1)
    ]
    # x^4 + 1 irreducible over Q
    assert factor_over_q(P(1, 0, 0, 0, 1)) == [(P(1, 0, 0, 0, 1), 1)]
    # x^6 - 1 = (x-1)(x+1)(x^2+x+1)(x^2-x+1)
    assert factor_over_q(P(-1, 0, 0, 0, 0, 0, 1)) == [
        (P(-1, 1), 1), (P(1, 1), 1), (P(1, -1, 1), 1), (P(1, 1, 1), 1)
    ]
    # non-monic with content: 2x^2 - 2 = 2(x-1)(x+1); monic output convention
    assert factor_over_q(P(-2, 0, 2)) == [(P(-1, 1), 1), (P(1, 1), 1)]


def test_factor_over_q_multiplicities():
    f = P(-1, 1) ** 3 * P(1, 0, 1) ** 2
    assert factor_over_q(f) == [(P(-1, 1), 3), (P(1, 0, 1), 2)]


def test_factor_over_q_rational_scaling():
    # (1/3)x^3 - x = (1/3) x (x^2 - 3)
    f = UniPoly.of(0, -1, 0, Fraction(1, 3))
    assert factor_over_q(f) == [(P(0, 1), 1), (P(-3, 0, 1), 1)]


def test_factor_over_q_irreducibility_against_brute_force():
    rng = random.Random(17)
    checked = 0
    for _ in range(300):
        deg = rng.randrange(2, 5)
        coeffs = [rng.randrange(-5, 6) for _ in range(deg)] + [1]
        f = P(*coeffs)
        if poly_gcd(f, derivative(f)).degree > 0:
            continue
        assert ([m for _, m in factor_over_q(f)] == [1]) == \
            brute_force_irreducible(f)
        checked += 1
    assert checked > 200


def test_factor_over_q_reconstructs_products():
    rng = random.Random(29)
    for _ in range(150):
        n_parts = rng.randrange(2, 4)
        f = UniPoly.one()
        for _ in range(n_parts):
            deg = rng.randrange(1, 4)
            coeffs = [rng.randrange(-4, 5) for _ in range(deg)] + [1]
            f = f * P(*coeffs)
        facs = factor_over_q(f)
        rebuilt = UniPoly.one()
        for g, mult in facs:
            assert g.is_monic
            assert factor_over_q(g) == [(g, 1)]
            rebuilt = rebuilt * g**mult
        assert rebuilt == f.monic()


def test_cyclotomic_eight_over_q():
    # x^8 - 1 = (x-1)(x+1)(x^2+1)(x^4+1)
    assert factor_over_q(P(-1, 0, 0, 0, 0, 0, 0, 0, 1)) == [
        (P(-1, 1), 1), (P(1, 1), 1), (P(1, 0, 1), 1), (P(1, 0, 0, 0, 1), 1)
    ]


def test_swinnerton_dyer_quartic():
    # min poly of sqrt(2) + sqrt(3): x^4 - 10x^2 + 1, irreducible but
    # reducible mod every prime; exercises the recombination path.
    f = P(1, 0, -10, 0, 1)
    assert factor_over_q(f) == [(f, 1)]


def test_swinnerton_dyer_cap_names_the_size_reached(monkeypatch):
    # x^4 - 10x^2 + 1 splits into two quadratics at every good prime, so
    # degree sets cannot prune it and recombination tries both of them
    monkeypatch.setattr(factorization, "RECOMBINATION_CAP", 1)
    with pytest.raises(ResourceCapError) as exc:
        factor_over_q(P(1, 0, -10, 0, 1))
    assert str(exc.value) == (
        "factor recombination exceeded 1 subsets (degree 4, 2 factors mod 5)"
    )


def test_bounded_division_stops_past_the_bound():
    # with a bound, the division is None exactly when some quotient
    # coefficient exceeds it, and otherwise is the unbounded one
    rng = random.Random(47)
    stopped = 0
    for _ in range(300):
        g = [rng.randrange(-9, 10) for _ in range(rng.randrange(0, 4))] + [1]
        f = [rng.randrange(-50, 51) for _ in range(rng.randrange(1, 9))]
        bound = rng.randrange(0, 60)
        q, r = factorization._int_divmod_monic(f, g)
        bounded = factorization._int_divmod_monic(f, g, bound)
        if any(abs(c) > bound for c in q):
            assert bounded is None, (f, g, bound)
            stopped += 1
        else:
            assert bounded == (q, r), (f, g, bound)
    assert 0 < stopped < 300


def test_recombination_stops_trial_divisions_at_the_mignotte_bound(
        monkeypatch):
    # a true quotient is a monic divisor of f, so each trial division is
    # bounded by the Mignotte bound on those, and a false candidate stops
    # there: the Swinnerton-Dyer octic for sqrt2 + sqrt3 + sqrt5 is
    # irreducible, and every candidate that passes the constant-term screen
    # stops early, as do most for a product with the quartic
    divmod_monic = factorization._int_divmod_monic
    seen = []

    def recorded(f, g, bound=None):
        division = divmod_monic(f, g, bound)
        seen.append((bound, division is None))
        return division

    monkeypatch.setattr(factorization, "_int_divmod_monic", recorded)
    octic = P(576, 0, -960, 0, 352, 0, -40, 0, 1)
    reducible = P(1, 0, -10, 0, 1) * P(16, 0, 0, 0, 1) * P(-6, 0, 0, 1)
    for f in (octic, reducible):
        ints = [int(c) for c in f.coeffs]
        seen.clear()
        rebuilt = P(1)
        for g in factorization._zassenhaus(ints):
            rebuilt = rebuilt * P(*g)
        assert rebuilt == f
        bound = factorization._mignotte_target(ints) // 2
        assert [b for b, _ in seen] == [bound] * len(seen)
        assert sum(stop for _, stop in seen) == 4


def test_recombination_cap_holds_after_an_uncapped_factoring(monkeypatch):
    # outside a classify call nothing is memoized: the input factored
    # uncapped first still meets the lowered cap
    f = P(1, 0, -10, 0, 1)
    assert [g.degree for g, _ in factor_over_q(f)] == [4]
    monkeypatch.setattr(factorization, "RECOMBINATION_CAP", 1)
    with pytest.raises(ResourceCapError):
        factor_over_q(f)


def test_degree_sets_prove_s5_quintic_irreducible_without_lifting(
        monkeypatch):
    # x^5 - 2x + 3 has factor degrees (1, 2, 2) mod 3, (1, 4) mod 5 and
    # (2, 3) mod 7: no prime keeps it irreducible, but the only degree
    # common to all three subset-sum sets is 5
    def no_lifting(*args):
        raise AssertionError("Hensel lifting reached")

    monkeypatch.setattr(factorization, "_hensel_lift_tree", no_lifting)
    f = P(3, -2, 0, 0, 0, 1)
    assert factor_over_q(f) == [(f, 1)]


def test_linear_factors_split_off_without_lifting(monkeypatch):
    # rational roots are lifted one at a time and a root-free cofactor of
    # degree 2 or 3 is irreducible, so none of these reaches Zassenhaus
    def no_lifting(*args):
        raise AssertionError("Hensel lifting reached")

    monkeypatch.setattr(factorization, "_hensel_lift_tree", no_lifting)
    x = P(0, 1)
    assert factor_over_q(P(0, -1, 0, 1)) == [
        (P(-1, 1), 1), (x, 1), (P(1, 1), 1)]
    assert factor_over_q(P(0, -4, 0, 1)) == [
        (P(-2, 1), 1), (x, 1), (P(2, 1), 1)]
    assert factor_over_q(P(0, -1, 0, 0, 0, 1)) == [
        (P(-1, 1), 1), (x, 1), (P(1, 1), 1), (P(1, 0, 1), 1)]
    # x^6 - 2x^3 + 1 = (x^3 - 1)^2
    assert factor_over_q(P(1, 0, 0, -2, 0, 0, 1)) == [
        (P(-1, 1), 2), (P(1, 1, 1), 2)]
    # 6x^3 - 5x^2 - 2x + 1 = (x - 1)(3x - 1)(2x + 1)
    assert factor_over_q(P(1, -2, -5, 6)) == [
        (P(-1, 1), 1), (P(Fraction(-1, 3), 1), 1),
        (P(Fraction(1, 2), 1), 1)]


def test_large_rational_roots_are_fast():
    start = time.perf_counter()
    root = 3 * 10 ** 30
    assert factor_over_q(P(-root, 1) * P(1, 0, 1)) == [
        (P(-root, 1), 1), (P(1, 0, 1), 1)]
    f = P(-(2 ** 1101), 0, 0, 0, 0, 1)
    assert factor_over_q(f) == [(f, 1)]
    assert time.perf_counter() - start < 1


def _sympy_irreducible(sympy, rng):
    x = sympy.Symbol("x")
    while True:
        deg = rng.randrange(1, 9)
        coeffs = [rng.randrange(1, 4)] + [rng.randrange(-9, 10)
                                          for _ in range(deg)]
        if sympy.Poly(coeffs, x).is_irreducible:
            return P(*reversed(coeffs))


def _sympy_poly(sympy, f):
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(f.coeffs)], sympy.Symbol("x"))


def _from_sympy(g):
    return P(*(Fraction(int(c.p), int(c.q))
               for c in reversed(g.all_coeffs()))).monic()


def _sympy_factor_list(sympy, f):
    out = [(_from_sympy(g), mult)
           for g, mult in _sympy_poly(sympy, f).factor_list()[1]]
    return sorted(out, key=lambda t: (t[0].degree, t[0].coeffs))


def _assert_agrees_with_sympy(sympy, f):
    facs = factor_over_q(f)
    rebuilt = UniPoly.one()
    for g, mult in facs:
        rebuilt = rebuilt * g**mult
    assert rebuilt == f.monic(), f
    assert facs == _sympy_factor_list(sympy, f), f


def test_factor_over_q_agrees_with_sympy_on_random_products():
    # products of 2-3 irreducible integer polynomials of degree <= 8,
    # non-monic ones included; sympy's factor_list is the oracle
    sympy = pytest.importorskip("sympy")
    rng = random.Random(59)
    for _ in range(40):
        f = UniPoly.one()
        for _ in range(rng.randrange(2, 4)):
            f = f * _sympy_irreducible(sympy, rng)
        _assert_agrees_with_sympy(sympy, f)


def test_factor_over_q_agrees_with_sympy_on_products_rich_in_linear_factors():
    # repeated roots, the root 0, and roots far outside the coefficient
    # bounds of the other factors, times 0-2 irreducible factors
    sympy = pytest.importorskip("sympy")
    rng = random.Random(83)
    for _ in range(60):
        f = P(rng.choice((1, -2, 3)))
        for _ in range(rng.randrange(1, 5)):
            root = rng.choice((0, rng.randrange(-9, 10),
                               rng.randrange(-10 ** 15, 10 ** 15)))
            f = f * P(-root, rng.choice((1, 1, 2, 5))) ** rng.randrange(1, 4)
        for _ in range(rng.randrange(0, 3)):
            f = f * _sympy_irreducible(sympy, rng)
        _assert_agrees_with_sympy(sympy, f)


def test_rational_inputs_with_repeated_factors_agree_with_sympy():
    # f = c times a product of powers, at least one repeated, of integer
    # polynomials with leading coefficient >= 2 in size, c non-integral:
    # factors and their order as sympy's factor_list, made monic, the
    # squarefree part as sympy's sqf_part, and Fractions in every result
    sympy = pytest.importorskip("sympy")
    rng = random.Random(45)
    for _ in range(60):
        f = P(Fraction(rng.choice([-3, 2, 5]), rng.choice([3, 4, 7])))
        for k in range(rng.randrange(1, 4)):
            g = P(*[rng.randrange(-6, 7) for _ in range(rng.randrange(1, 4))],
                  rng.choice([-3, -2, 2, 4]))
            f = f * g ** (rng.randrange(2, 4) if k == 0 else
                          rng.randrange(1, 4))
        facs = factor_over_q(f)
        assert facs == _sympy_factor_list(sympy, f), f
        part = squarefree_part(f)
        assert part == _from_sympy(_sympy_poly(sympy, f).sqf_part()), f
        results = [g for g, _ in facs] + [part] + [
            g for g, _ in squarefree_decomposition(f)]
        assert all(type(c) is Fraction for g in results for c in g.coeffs)


def _unreduced(rng, length, m):
    """Entries in [-3m, 3m): unreduced and negative, as callers pass them."""
    return [rng.randrange(-3 * m, 3 * m) for _ in range(length)]


def test_fused_kernels_match_divmod():
    # _mod_mulmod is the remainder of the product by the modulus, and
    # _reduce the remainder of _mod_divmod, for monic and non-monic moduli
    # over small primes and over Z/7^16, a modulus of Hensel size
    rng = random.Random(211)
    for m in (2, 3, 7, 193, 7**16):
        for trial in range(150):
            n = rng.randrange(0, 9)
            lc = 1
            while trial % 2 == 0 and lc == 1 or gcd(lc, m) != 1:
                lc = rng.randrange(-3 * m, 3 * m)
            g = _unreduced(rng, n, m) + [lc]
            a = _unreduced(rng, rng.randrange(0, 2 * n + 3), m)
            b = _unreduced(rng, rng.randrange(0, 2 * n + 3), m)
            red = factorization._reducer(g, m)
            assert factorization._mod_mulmod(a, b, red, m) == \
                factorization._mod_divmod(
                    factorization._mod_mul(a, b, m), g, m)[1], (m, g, a, b)
            assert factorization._reduce(list(a), red, m) == \
                factorization._mod_divmod(a, g, m)[1], (m, g, a)


def test_mod_gcd_matches_euclid_on_divmod():
    # _mod_gcd's inline remainder loop against Euclid on the remainders of
    # _mod_divmod, over primes from 2 to Hensel size; a shared factor
    # makes every other pair's gcd nontrivial
    rng = random.Random(307)
    for p in (2, 3, 7, 193, 65521):
        for trial in range(150):
            common = [1] if trial % 2 else _unreduced(
                rng, rng.randrange(1, 4), p) + [rng.randrange(1, p)]
            f = factorization._mod_mul(
                common, _unreduced(rng, rng.randrange(0, 9), p), p)
            g = factorization._mod_mul(
                common, _unreduced(rng, rng.randrange(0, 9), p), p)
            a, b = f, g
            while b:
                a, b = b, factorization._mod_divmod(a, b, p)[1]
            expected = factorization._mod_monic(a, p) if a else []
            # unreduced operands, as callers pass them
            lifted = [c + p * rng.randrange(-3, 3) for c in f]
            assert factorization._mod_gcd(lifted, g, p) == expected, \
                (p, f, g)


def test_degree_scan_stops_once_a_prime_adds_nothing(monkeypatch):
    # the resolvent norm met by the hard input x^5 - 3: the factor degrees
    # are (1, 2, 4, 4, 4) mod 7 and again mod 13, and with five factors the
    # recombination left is cheaper than a third distinct-degree
    # factorization
    primes = []
    ddf = factorization._distinct_degree_parts

    def counting(f, p):
        primes.append(p)
        return ddf(f, p)

    monkeypatch.setattr(factorization, "_distinct_degree_parts", counting)
    f = P(23328, 0, 0, 0, 0, -28593, 0, 0, 0, 0, -189, 0, 0, 0, 0, 1)
    assert factor_over_q(f) == [
        (P(-288, 0, 0, 0, 0, 1), 1),
        (P(-81, 0, 0, 0, 0, 99, 0, 0, 0, 0, 1), 1),
    ]
    assert primes == [7, 13]
