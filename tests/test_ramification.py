"""Odd ramification: frozen small fields plus closed-form quadratic oracle."""

import random

from heavenly.classify import _base_modulus
from heavenly.factorization import factor_mod_p, factor_over_q
from heavenly.integers import factorize, odd_prime_divisors, valuation
from heavenly.polynomials import UniPoly, discriminant, parse_polynomial
from heavenly.ramification import (
    _dedekind_is_p_maximal,
    _is_ramified_at,
    _lattice_mod_p,
    _odd_ramified_of_polynomial,
    _p_maximal_index_valuation,
    splitting_field_odd_ramified,
)


def odd_primes_of(*texts):
    return splitting_field_odd_ramified(
        [parse_polynomial(text) for text in texts])


def test_rationals_have_no_odd_ramification():
    assert splitting_field_odd_ramified(_base_modulus("Q")) == set()


def test_gaussian_integers_unramified_away_2():
    assert splitting_field_odd_ramified(_base_modulus("Q(i)")) == set()


def test_all_four_base_quadratics_unramified_away_2():
    for tag in ("Q(i)", "Q(sqrt2)", "Q(sqrt-2)"):
        assert not splitting_field_odd_ramified(_base_modulus(tag)), tag


def test_sqrt5_ramified_at_5():
    assert odd_primes_of("x^2-5") == {5}


def test_sqrt45_is_sqrt5_in_disguise():
    # 3^2 divides the polynomial discriminant 180, but the order is not
    # 3-maximal and enlargement removes the 3 entirely
    assert odd_primes_of("x^2-45") == {5}


def test_sqrt_minus_3_ramified_at_3():
    assert odd_primes_of("x^2+3") == {3}


def test_eighth_roots_of_unity_unramified_away_2():
    assert not odd_primes_of("x^4+1")


def test_sqrt2_i_tower_unramified_away_2():
    # Q(sqrt2)(i) is the splitting field of x^2 + 1 and the base modulus
    assert splitting_field_odd_ramified(
        [parse_polynomial("x^2+1")] + _base_modulus("Q(sqrt2)")) == set()


def test_twelfth_cyclotomic_ramified_at_3_with_maximal_order():
    # x^4 - x^2 + 1 has discriminant 144; the order is already 3-maximal
    # and the reduction is a square, so 3 genuinely ramifies
    fl = [1, 0, -1, 0, 1]
    assert _dedekind_is_p_maximal(fl, 3)
    assert _odd_ramified_of_polynomial(UniPoly.of(*fl)) == {3}


def test_scaled_twelfth_cyclotomic_needs_deep_enlargement():
    # root 3*zeta12: same field, index 3^6, several enlargement rounds
    f = parse_polynomial("x^4-9*x^2+81")
    assert _p_maximal_index_valuation([81, 0, -9, 0, 1], 3, 14) == 6
    assert _odd_ramified_of_polynomial(f) == {3}


def test_scaled_root_adds_its_index_to_the_enlargement():
    # f(x) = s^n g(x/s) has root s*alpha, and Z[s*alpha] has index
    # s^(n(n-1)/2) in Z[alpha]: Round-2 on f must find exactly that much
    # more index, and p must ramify in both fields or in neither.
    # Dedekind's criterion must agree with Round-2 on both.
    rng = random.Random(20261018)
    trials = 0
    while trials < 48:
        n = rng.randint(2, 6)
        g = [rng.randint(-5, 5) for _ in range(n)] + [1]
        G = UniPoly.of(*g)
        if discriminant(G) == 0 or [m for _, m in factor_over_q(G)] != [1]:
            continue
        p, e = rng.choice((3, 5, 7)), rng.randint(1, 2)
        s = p ** e
        F = UniPoly.of(*[c * s ** (n - i) for i, c in enumerate(g)])
        f = [int(c) for c in F.coeffs]
        v_g = valuation(int(discriminant(G)), p)
        v_f = valuation(int(discriminant(F)), p)
        assert v_f == v_g + e * n * (n - 1), (g, p, e)
        k_g = _p_maximal_index_valuation(g, p, v_g)
        assert _p_maximal_index_valuation(f, p, v_f) == \
            k_g + e * n * (n - 1) // 2, (g, p, e)
        assert not _dedekind_is_p_maximal(f, p), (g, p, e)
        if v_g:
            assert _dedekind_is_p_maximal(g, p) == (k_g == 0), (g, p)
        assert _is_ramified_at(F, p, v_f) == \
            (v_g > 0 and _is_ramified_at(G, p, v_g)), (g, p, e)
        trials += 1


def test_enlargement_brings_its_basis_to_lowest_terms():
    # irreducible sextics whose enlarged order, after one multiplier step,
    # has a basis whose entries share a factor with its denominator; the
    # scaled root p*alpha adds n(n-1)/2 = 15 to the index valuation
    for text, p, v in (("x^6-8*x^5-x^4-x^3-x^2-7*x-8", 5, 6),
                       ("x^6-x^5+9*x^4-3*x^3+9*x+9", 3, 8)):
        f = parse_polynomial(text)
        assert factor_over_q(f) == [(f, 1)], text
        fl = [int(c) for c in f.coeffs]
        assert valuation(int(discriminant(f)), p) == v, text
        assert _p_maximal_index_valuation(fl, p, v) == 2, text
        assert _is_ramified_at(f, p, v), text
        scaled = [c * p ** (6 - i) for i, c in enumerate(fl)]
        assert _p_maximal_index_valuation(scaled, p, v + 30) == 17, text


def _rank_mod_p(rows, p):
    """Rank over Fp by plain elimination, independent of the package."""
    rows = [[c % p for c in r] for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in rows if r[col]), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        inv = pow(pivot[col], -1, p)
        rows = [[(a - r[col] * inv * b) % p for a, b in zip(r, pivot)]
                for r in rows]
        rank += 1
    return rank


def test_lattice_mod_p_is_the_hermite_basis():
    # the basis of span(rows) + pZ^n is upper triangular with diagonal
    # entries 1 or p, lies in that lattice, and has index p^(n - rank) in
    # Z^n, so it spans the whole lattice
    rng = random.Random(15)
    for _ in range(200):
        p = rng.choice((3, 5, 7))
        n = rng.randint(1, 6)
        rows = [[rng.randint(-2 * p, 2 * p) for _ in range(n)]
                for _ in range(rng.randint(0, n + 1))]
        if rows and rng.random() < 0.3:
            rows.append([a + 2 * b for a, b in zip(rows[0], rows[-1])])
        basis = _lattice_mod_p(rows, p, n)
        assert len(basis) == n
        rank = _rank_mod_p(rows, p)
        det = 1
        for i, row in enumerate(basis):
            assert all(c == 0 for c in row[:i]), (rows, p)
            assert row[i] in (1, p), (rows, p)
            assert _rank_mod_p(rows + [row], p) == rank, (rows, p)
            det *= row[i]
        assert det == p ** (n - rank), (rows, p)


def test_degree_17_field_is_unramified_at_its_17_digit_prime():
    # h is the degree-17 polynomial of ROADMAP item 13, whose Frobenius
    # cycle types 1+16 at 3, 1+8+8 at 7 and 17 at 31 all lie in AGL(1,17);
    # its discriminant carries a 17-digit prime m squared, which the index
    # test at m must show divides the index and not the field discriminant
    h = parse_polynomial(
        "x^17 - 2*x^16 + 8*x^13 + 16*x^12 - 16*x^11 + 64*x^9 - 32*x^8"
        " - 80*x^7 + 32*x^6 + 40*x^5 + 80*x^4 + 16*x^3 - 128*x^2 - 2*x + 68")
    assert factor_over_q(h) == [(h, 1)]
    m = 11563101439788991
    assert factorize(m) == {m: 1}
    assert discriminant(h) == 2**81 * m**2
    assert splitting_field_odd_ramified([h]) == set()
    assert {p: sorted(len(g) - 1 for g, _ in factor_mod_p(h, p))
            for p in (3, 7, 31)} == {3: [1, 16], 7: [1, 8, 8], 31: [17]}


def test_cube_root_2_ramified_at_3():
    assert odd_primes_of("x^3-2") == {3}


def test_fifth_cyclotomic_ramified_at_5():
    assert _odd_ramified_of_polynomial(
        parse_polynomial("x^4+x^3+x^2+x+1")) == {5}


def test_seventh_cyclotomic_ramified_at_7():
    assert _odd_ramified_of_polynomial(
        parse_polynomial("x^6+x^5+x^4+x^3+x^2+x+1")) == {7}


def test_disc_23_cubic():
    assert _odd_ramified_of_polynomial(parse_polynomial("x^3-x-1")) == {23}


def test_splitting_field_reads_rational_factors():
    cases = [
        ("x^6+x+1", {101, 431}),          # disc -101*431
        ("x^5-x-1", {19, 151}),           # disc 19*151
        ("x^5-2", {5}),
        ("x^2-45", {5}),
        ("x^4+1", set()),
        ("x^3-x", set()),                 # linear factors only
    ]
    for text, expected in cases:
        assert splitting_field_odd_ramified([parse_polynomial(text)]) == \
            expected, text
    pieces = [parse_polynomial("x^2-5"), parse_polynomial("x^4+6*x^2+9"),
              parse_polynomial("x^2+1")]
    assert splitting_field_odd_ramified(pieces) == {3, 5}
    assert splitting_field_odd_ramified([]) == set()


# Odd ramified primes of splitting towers, frozen from the ramification of
# their Galois closures (the norms of the level moduli to Q) at a time when
# that route and the factor-wise route agreed on every entry.
SPLITTING_TOWER_PRIMES = {
    "x^4-2": set(),
    "x^3-2": {3},
    "x^3-x-1": {23},
    "x^4-8*x^2+15": {3, 5},
    "x^4+x+1": {229},
}

SPLITTING_TOWER_OVER_BASE_PRIMES = {
    "Q": [(), (3,), (3,), (37,), (3,), (379,), (), (3, 929), (5, 7, 181),
          ()],
    "Q(i)": [(15923,), (7537,), (700499,), (13, 1747), (), (3, 2063),
             (3, 5, 6173), (971,), (431,), (41,)],
    "Q(sqrt2)": [(), (3, 37, 421), (7, 157), (101,), (5,), (3, 7),
                 (3, 31069), (19, 23), (), (3, 13577)],
    "Q(sqrt-2)": [(5, 1663), (1087,), (3,), (3, 1217), (53,), (5, 809),
                  (19, 199), (), (11, 17), (11,)],
}


def test_splitting_field_agrees_with_its_tower():
    for text, expected in SPLITTING_TOWER_PRIMES.items():
        assert odd_primes_of(text) == expected, text


def test_degree_128_tower_over_sqrt2_decides():
    # Q(2^(1/128)), seven quadratic levels over Q(sqrt2), is the splitting
    # field over Q of x^128 - 2 and x^2 - 2: ramified only above 2
    assert odd_primes_of("x^128-2", "x^2-2") == set()


def test_splitting_towers_over_bases_match_rational_factors():
    # the splitting tower of f over a quadratic base is the splitting field
    # of f and the base modulus over Q
    rng = random.Random(20261018)
    for tag, expected in SPLITTING_TOWER_OVER_BASE_PRIMES.items():
        got = []
        while len(got) < 10:
            degree = rng.randint(2, 4)
            f = UniPoly.of(*[rng.randint(-5, 5) for _ in range(degree)],
                           rng.randint(1, 2))
            if discriminant(f) == 0:
                continue
            got.append(tuple(sorted(
                splitting_field_odd_ramified([f] + _base_modulus(tag)))))
        assert got == expected, tag


def test_quadratic_fields_match_squarefree_part_oracle():
    # Q(sqrt m) ramifies at exactly the odd primes of the squarefree part
    rng = random.Random(20260822)
    trials = 0
    while trials < 60:
        m = rng.randint(2, 600)
        r = int(m ** 0.5)
        if r * r == m:
            continue
        square_free = 1
        for p, e in factorize(m).items():
            if e % 2:
                square_free *= p
        expected = set(odd_prime_divisors(square_free)) \
            if square_free != 1 else set()
        got = _odd_ramified_of_polynomial(UniPoly.of(-m, 0, 1))
        assert got == expected, (m, got, expected)
        trials += 1


def test_ramified_set_within_polynomial_discriminant():
    rng = random.Random(97)
    count = 0
    while count < 25:
        coeffs = [rng.randint(-9, 9) for _ in range(3)] + [1]
        f = UniPoly.of(*coeffs)
        d = discriminant(f)
        if d == 0:
            continue
        if [m for _, m in factor_over_q(f)] != [1]:
            continue
        ram = _odd_ramified_of_polynomial(f)
        allowed = set(odd_prime_divisors(int(d)))
        assert ram <= allowed, (coeffs, ram, allowed)
        count += 1
