"""Extension towers: field arithmetic, factoring, splitting fields."""

import hashlib
import json
from fractions import Fraction
from itertools import islice
from math import lcm, prod
from pathlib import Path

import pytest
import random
import time

import heavenly.factorization as factorization
import heavenly.towers as towers
from heavenly.errors import (
    InputError,
    ReducibleExtensionError,
    ResourceCapError,
)
from heavenly.classify import (
    EllipticInput,
    JacobianInput,
    WeilRestrictionInput,
    classify,
    two_division_tower,
)
from heavenly.documents import input_from_document
from heavenly.factorization import factor_over_q
from heavenly.integers import is_probable_prime
from heavenly.polynomials import (
    UniPoly,
    _integer_form,
    memo_scope,
    parse_polynomial,
    poly_gcd,
)
from heavenly.towers import (
    FieldTower,
    base_field,
    extend,
    factor_over_tower,
    field_chain,
    lift_to_field,
    splitting_degree,
    splitting_tower,
)


def derivative(f: UniPoly) -> UniPoly:
    return UniPoly.from_list([k * c for k, c in enumerate(f.coeffs)][1:])


def P(*coeffs):
    return UniPoly.of(*coeffs)


def extends(F, B) -> bool:
    """Whether F's tower starts with B's levels."""
    return F.levels[: len(B.levels)] == B.levels


def gp_product(F, polys):
    acc = [F.one()]
    for g in polys:
        out = [F.zero() for _ in range(len(acc) + len(g) - 1)]
        for i, x in enumerate(acc):
            for j, y in enumerate(g):
                out[i + j] = F.add(out[i + j], F.mul(x, y))
        acc = out
    return acc


def test_base_field_tags():
    assert base_field("Q").absolute_degree == 1
    assert base_field("Q(i)").absolute_degree == 2
    assert base_field("Q(sqrt2)").absolute_degree == 2
    assert base_field("Q(sqrt-2)").absolute_degree == 2
    with pytest.raises(InputError):
        base_field("Q(sqrt3)")


def test_extend_builds_degrees():
    qi = extend(base_field("Q"), P(1, 0, 1))
    assert qi.absolute_degree == 2
    assert qi == base_field("Q(i)")
    zeta8 = extend(base_field("Q(i)"), P(-2, 0, 1))
    assert zeta8.absolute_degree == 4
    assert zeta8.level_degrees() == [2, 2]


def test_extend_rejects_reducible():
    with pytest.raises(ReducibleExtensionError) as exc:
        extend(base_field("Q"), P(-1, 0, 1))
    evidence = exc.value.factors
    assert len(evidence) == 2
    assert all(len(g) - 1 == 1 for g, _ in evidence)


def test_extend_rejects_non_monic_and_linear():
    with pytest.raises(InputError):
        extend(base_field("Q"), P(1, 0, 2))
    with pytest.raises(InputError):
        extend(base_field("Q"), P(1, 1))


def test_factor_x2_plus_1_over_qi():
    t = base_field("Q(i)")
    F = t
    facs = factor_over_tower(t, P(1, 0, 1))
    assert len(facs) == 2
    assert all(mult == 1 and len(g) - 1 == 1 for g, mult in facs)
    roots = [F.neg(g[0]) for g, _ in facs]
    i = F.generator()
    assert set(roots) == {i, F.neg(i)}


def test_x2_plus_1_irreducible_over_sqrt2():
    t = base_field("Q(sqrt2)")
    assert [m for _, m in factor_over_tower(t, P(1, 0, 1))] == [1]


def test_x4_plus_1_over_sqrt2_two_quadratics():
    t = base_field("Q(sqrt2)")
    F = t
    facs = factor_over_tower(t, P(1, 0, 0, 0, 1))
    assert len(facs) == 2
    assert all(len(g) - 1 == 2 and mult == 1 for g, mult in facs)
    rebuilt = gp_product(F, [g for g, _ in facs])
    assert rebuilt == lift_to_field(F, P(1, 0, 0, 0, 1))
    # the factors are x^2 - sqrt2 x + 1 and x^2 + sqrt2 x + 1
    s = F.generator()
    middle_coeffs = {g[1] for g, _ in facs}
    assert middle_coeffs == {s, F.neg(s)}


def test_x4_plus_1_splits_over_zeta8():
    zeta8 = extend(base_field("Q(i)"), P(-2, 0, 1))
    facs = factor_over_tower(zeta8, P(1, 0, 0, 0, 1))
    assert len(facs) == 4
    assert all(len(g) - 1 == 1 for g, _ in facs)


def test_factor_multiplicities_over_tower():
    t = base_field("Q(i)")
    f = P(1, 0, 1) * P(1, 0, 1) * P(-2, 0, 1)
    facs = factor_over_tower(t, f)
    assert [(len(g) - 1, m) for g, m in facs] == [(1, 2), (1, 2), (2, 1)]


def from_flat(F, coords):
    """The element of F with the given flattened coordinates, as text."""
    qs = [Fraction(c) for c in coords]
    den = lcm(*(q.denominator for q in qs))
    return F.from_parts([int(q * den) for q in qs], den)


# factor_over_tower at a commit that still pulled every factor of a norm
# back with a gcd: name -> (base tag, extra level, f, the number of factors
# of f's norm one level down, each factor's flattened coefficients).  f is
# rational, or its flattened coefficients when one lies outside the field
# below.
FROZEN_DESCENT = {
    "x^4 + 1 over Q(i)": ("Q(i)", None, P(1, 0, 0, 0, 1), 2, [
        (("0", "-1"), ("0", "0"), ("1", "0")),
        (("0", "1"), ("0", "0"), ("1", "0"))]),
    "x^4 + 1 over Q(sqrt2)": ("Q(sqrt2)", None, P(1, 0, 0, 0, 1), 2, [
        (("1", "0"), ("0", "-1"), ("1", "0")),
        (("1", "0"), ("0", "1"), ("1", "0"))]),
    "x^3 - x over Q(sqrt-2)": ("Q(sqrt-2)", None, P(0, -1, 0, 1), 3, [
        (("-1", "0"), ("1", "0")), (("0", "0"), ("1", "0")),
        (("1", "0"), ("1", "0"))]),
    "x^4 - 1 over Q(i)": ("Q(i)", None, P(-1, 0, 0, 0, 1), 4, [
        (("-1", "0"), ("1", "0")), (("0", "-1"), ("1", "0")),
        (("0", "1"), ("1", "0")), (("1", "0"), ("1", "0"))]),
    "x^8 - 1 over Q(i)": ("Q(i)", None, P(-1, 0, 0, 0, 0, 0, 0, 0, 1), 6, [
        (("-1", "0"), ("1", "0")), (("0", "-1"), ("1", "0")),
        (("0", "1"), ("1", "0")), (("1", "0"), ("1", "0")),
        (("0", "-1"), ("0", "0"), ("1", "0")),
        (("0", "1"), ("0", "0"), ("1", "0"))]),
    "x^4 + 1 over Q(i)(sqrt2)": ("Q(i)", P(-2, 0, 1), P(1, 0, 0, 0, 1), 4, [
        (("0", "0", "-1/2", "-1/2"), ("1", "0", "0", "0")),
        (("0", "0", "-1/2", "1/2"), ("1", "0", "0", "0")),
        (("0", "0", "1/2", "-1/2"), ("1", "0", "0", "0")),
        (("0", "0", "1/2", "1/2"), ("1", "0", "0", "0"))]),
    "x^6 - 2 over Q(i)(sqrt2)": ("Q(i)", P(-2, 0, 1),
                                 P(-2, 0, 0, 0, 0, 0, 1), 2, [
        (("0", "0", "-1", "0"), ("0", "0", "0", "0"),
         ("0", "0", "0", "0"), ("1", "0", "0", "0")),
        (("0", "0", "1", "0"), ("0", "0", "0", "0"),
         ("0", "0", "0", "0"), ("1", "0", "0", "0"))]),
    "x^2 - 2i over Q(i)": ("Q(i)", None,
                           [("0", "-2"), ("0", "0"), ("1", "0")], 2, [
        (("-1", "-1"), ("1", "0")), (("1", "1"), ("1", "0"))]),
    "(x - sqrt2)(x - i) over Q(i)(sqrt2)": ("Q(i)", P(-2, 0, 1), [
        ("0", "0", "0", "1"), ("0", "-1", "-1", "0"), ("1", "0", "0", "0")],
        2, [(("0", "-1", "0", "0"), ("1", "0", "0", "0")),
            (("0", "0", "-1", "0"), ("1", "0", "0", "0"))]),
}
# the entries whose factors over the field below now decide, so that f
# itself takes no descent over the whole field
FACTORED_BELOW = {"x^3 - x over Q(sqrt-2)", "x^4 - 1 over Q(i)",
                  "x^8 - 1 over Q(i)", "x^4 + 1 over Q(i)(sqrt2)"}
# the entries whose factors over the whole field are now read off square
# roots descending the tower, with no norm taken; their norm descent is run
# through towers._norm_factors directly
DENESTED = {"x^3 - x over Q(sqrt-2)", "x^2 - 2i over Q(i)",
            "(x - sqrt2)(x - i) over Q(i)(sqrt2)"}


def test_norm_descent_factors_frozen(monkeypatch):
    # every factor of the norm but the last is pulled back by a gcd, and
    # the last is what remains of f after dividing the others out; f with
    # every coefficient in the field below is factored there first, and
    # only its factors of degree sharing a factor with the top level's
    # descend, so the whole field's descent of a FACTORED_BELOW entry is
    # run directly; a DENESTED entry takes no norm until its norm descent
    # is run directly
    descent = towers._factor_squarefree
    norm_poly = towers._norm_poly
    found, norms = [], []

    def recorded(F, f):
        out = descent(F, f)
        found.append((F, len(f) - 1, len(out)))
        return out

    def recorded_norm(F, g, norm_deg):
        norms.append(F)
        return norm_poly(F, g, norm_deg)

    monkeypatch.setattr(towers, "_factor_squarefree", recorded)
    monkeypatch.setattr(towers, "_norm_poly", recorded_norm)
    for name, (tag, level, f, norm_factors, frozen) in \
            FROZEN_DESCENT.items():
        tower = base_field(tag)
        if level is not None:
            tower = extend(tower, level)
        F = tower
        f = (lift_to_field(F, f) if isinstance(f, UniPoly)
             else [from_flat(F, c) for c in f])
        found.clear()
        norms.clear()
        facs = factor_over_tower(tower, f)
        deg = len(f) - 1
        descended = (F, deg) in [(K, d) for K, d, _ in found]
        assert descended == (name not in FACTORED_BELOW), name
        if not descended:
            assert towers._factor_squarefree(F, f) == [g for g, _ in facs], \
                name
        assert (not norms) == (name in DENESTED), name
        if name in DENESTED:
            assert towers._norm_factors(F, f) == [g for g, _ in facs], name
        assert (F.base, deg * F.degree, norm_factors) in found, name
        assert all(mult == 1 for _, mult in facs), name
        assert [tuple(tuple(str(q) for q in F.flatten(c)) for c in g)
                for g, _ in facs] == frozen, name
        assert gp_product(F, [g for g, _ in facs]) == f, name


def test_memo_scope_answers_by_tower_levels_with_fresh_lists():
    # Q(i) and Q(sqrt2) print alike, yet x^2 + 1 splits over only one;
    # a caller may mutate what it gets, so each call gets new lists
    qi, sqrt2 = base_field("Q(i)"), base_field("Q(sqrt2)")
    assert repr(qi) == repr(sqrt2)
    f = P(1, 0, 1)
    expected = {tower: factor_over_tower(tower, f) for tower in (qi, sqrt2)}
    rational = factor_over_q(f)
    with memo_scope():
        for _ in range(2):
            for tower in (qi, sqrt2):
                facs = factor_over_tower(tower, f)
                assert facs == expected[tower]
                facs[0][0].pop()
                facs.pop()
            facs = factor_over_q(f)
            assert facs == rational
            facs.pop()
    assert len(expected[qi]) == 2 and len(expected[sqrt2]) == 1


def test_memo_scope_keeps_no_error(monkeypatch):
    # a cap error is never stored: each call in the scope raises again,
    # and the answer computed after the cap is raised is the usual one
    f = P(1, 0, 0, 0, 1)
    expected = factor_over_tower(base_field("Q(i)"), f)
    with memo_scope():
        monkeypatch.setattr(towers, "FIELD_DEGREE_CAP", 4)
        for _ in range(2):
            with pytest.raises(ResourceCapError):
                factor_over_tower(base_field("Q(i)"), f)
        monkeypatch.undo()
        assert factor_over_tower(base_field("Q(i)"), f) == expected


def test_splitting_degrees_frozen():
    assert splitting_degree(P(0, -1, 0, 1)) == 1          # x^3 - x
    assert splitting_degree(P(0, -1, 0, 0, 0, 1)) == 2    # x^5 - x
    assert splitting_degree(P(-2, 0, 0, 0, 1)) == 8       # x^4 - 2
    assert splitting_degree(P(-2, 0, 0, 1)) == 6          # x^3 - 2
    assert splitting_degree(P(1, 0, 0, 0, 1)) == 4        # x^4 + 1


def test_splitting_tower_splits_input():
    f = P(-2, 0, 0, 1)
    t = splitting_tower(f)
    facs = factor_over_tower(t, f)
    assert len(facs) == 3
    assert all(len(g) - 1 == 1 and m == 1 for g, m in facs)


def test_splitting_tower_over_extension():
    # x^4 - 2 over Q(i): relative degree 4 (i is already there)
    t = splitting_tower(P(-2, 0, 0, 0, 1), base_field("Q(i)"))
    assert t.absolute_degree == 8
    assert extends(t, base_field("Q(i)"))


def test_splitting_tower_requires_squarefree():
    with pytest.raises(InputError):
        splitting_tower(P(1, 2, 1))


def test_splitting_tower_cap(monkeypatch):
    monkeypatch.setattr(towers, "FIELD_DEGREE_CAP", 4)
    with pytest.raises(ResourceCapError,
                       match=r"^norm descent: field degree 12 exceeds cap 4$"):
        splitting_tower(P(-2, 0, 0, 0, 1))


def test_norm_degree_cap_fires_before_any_norm(monkeypatch):
    # x^3 - sqrt2 over Q(zeta8) = Q(i)(sqrt2) has a coefficient outside
    # Q(i), so it descends through norms of degree 6, then 12; with the
    # cap at 8 the second is refused before the first is computed
    zeta8 = extend(base_field("Q(i)"), P(-2, 0, 1))
    cubic = [zeta8.neg(zeta8.generator()), zeta8.zero(), zeta8.zero(),
             zeta8.one()]

    def no_norms(*args):
        raise AssertionError("norm computed before the cap check")

    monkeypatch.setattr(towers, "FIELD_DEGREE_CAP", 8)
    monkeypatch.setattr(towers, "_norm_poly", no_norms)
    with pytest.raises(ResourceCapError,
                       match=r"^norm descent: field degree 12 exceeds cap 8$"):
        factor_over_tower(zeta8, cubic)


def test_field_degree_cap_admits_a_field_at_the_cap(monkeypatch):
    # x^3 - 2 over Q(i) splits in a field of degree exactly 12
    monkeypatch.setattr(towers, "FIELD_DEGREE_CAP", 12)
    tower = splitting_tower(P(-2, 0, 0, 1), base_field("Q(i)"))
    assert tower.absolute_degree == 12


def test_field_degree_cap_fires_before_the_field_is_built(monkeypatch):
    # x^4 + x + 1 has group S4: its tower reaches degree 12 through Galois
    # shortcuts, and adjoining the last root would give degree 24
    built = []

    def init(self, base, modulus, build=towers.ExtensionField.__init__):
        build(self, base, modulus)
        built.append(self.absolute_degree)

    monkeypatch.setattr(towers, "FIELD_DEGREE_CAP", 12)
    monkeypatch.setattr(towers.ExtensionField, "__init__", init)
    # fields built earlier would come from the table without an __init__
    towers._interned.cache_clear()
    with pytest.raises(
            ResourceCapError,
            match=r"^splitting tower: field degree 24 exceeds cap 12$"):
        splitting_tower(P(1, 1, 0, 0, 1))
    assert max(built) == 12


def test_field_degree_cap_fires_before_a_norm(monkeypatch):
    # x^4 - theta over Q(i, 2^(1/3)) descends to a rational norm of degree
    # 4 * 6 = 24
    F = extend(base_field("Q(i)"), P(-2, 0, 0, 1))
    quartic = [F.neg(F.generator()), F.zero(), F.zero(), F.zero(), F.one()]

    def no_norms(*args):
        raise AssertionError("norm computed before the cap check")

    monkeypatch.setattr(towers, "FIELD_DEGREE_CAP", 12)
    monkeypatch.setattr(towers, "_norm_poly", no_norms)
    with pytest.raises(
            ResourceCapError,
            match=r"^norm descent: field degree 24 exceeds cap 12$"):
        factor_over_tower(F, quartic)


def test_factor_over_tower_random_products():
    rng = random.Random(47)
    t = base_field("Q(i)")
    F = t
    for _ in range(30):
        parts = []
        for _ in range(rng.randrange(2, 4)):
            deg = rng.randrange(1, 3)
            coeffs = [F.from_fraction(Fraction(rng.randrange(-3, 4)))
                      for _ in range(deg)] + [F.one()]
            parts.append(coeffs)
        f = gp_product(F, parts)
        facs = factor_over_tower(t, f)
        rebuilt = gp_product(F, [g for g, m in facs for _ in range(m)])
        assert rebuilt == f
        for g, _ in facs:
            assert [m for _, m in factor_over_tower(t, g)] == [1]


def test_factoring_from_the_field_below_agrees_with_descent():
    # f with every coefficient in the field below is factored there, and
    # only its factors of degree not prime to the top level's descend; the
    # factors multiply back to f, and on squarefree f they are the ones
    # norm descent over the whole field finds
    rng = random.Random(59)
    # each field with polynomials over the field below that it splits, as
    # ascending pairs (a, b) for a + b s, s the generator below
    cases = [
        (extend(base_field("Q(i)"), P(-2, 0, 1)),
         [((-2, 0), (0, 0), (1, 0)), ((0, -1), (0, 0), (1, 0))]),
        (extend(base_field("Q(sqrt-2)"), P(-2, 0, 0, 1)),
         [((-2, 0), (0, 0), (0, 0), (1, 0)),
          ((-16, 0), (0, 0), (0, 0), (1, 0))])]
    squarefree = 0
    for F, pool in cases:
        B = F.base
        s = B.generator()
        pool = [towers._pair_cubic(B, pairs) for pairs in pool]
        for _ in range(8):
            parts = [rng.choice(pool)]
            while sum(len(g) - 1 for g in parts) < 5:
                deg = rng.randrange(1, 3)
                parts.append([B.add(B.from_fraction(rng.randrange(-3, 4)),
                                    B.scale(s, rng.randrange(-2, 3)))
                              for _ in range(deg)] + [B.one()])
            parts += rng.sample(parts, rng.randrange(2))
            f = [F.from_base(c) for c in gp_product(B, parts)]
            facs = factor_over_tower(F, f)
            assert gp_product(F, [g for g, m in facs for _ in range(m)]) == f
            if all(m == 1 for _, m in facs):
                squarefree += 1
                assert [g for g, _ in facs] == \
                    towers._factor_squarefree(F, f)
    assert squarefree >= 6


def test_factoring_over_q_as_a_tower_is_factor_over_q():
    # height 0 answers with factor_over_q; the route every higher tower
    # takes, Yun's algorithm and then the squarefree factoring of each part
    # over Q, sorted by flatten_poly, gives the same list
    rng = random.Random(131)
    Q = towers.RATIONAL
    cases = [P(5), P(Fraction(-2, 3))]
    for _ in range(40):
        f = P(Fraction(rng.choice((-3, 1, 2, 5)), rng.randrange(1, 4)))
        for _ in range(rng.randrange(1, 4)):
            coeffs = [Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
                      for _ in range(rng.randrange(1, 4))]
            g = UniPoly.from_list(coeffs + [Fraction(rng.randrange(1, 4))])
            f = f * g ** rng.randrange(1, 4)
        cases.append(f)
    assert any(m > 1 for f in cases for _, m in factor_over_q(f))
    for f in cases:
        expected = [(list(g.coeffs), m) for g, m in factor_over_q(f)]
        assert factor_over_tower(FieldTower(), f) == expected, f
        assert factor_over_tower(FieldTower(), list(f.coeffs)) == expected
        if f.degree < 1:
            assert expected == []
            continue
        generic = [(g, m) for part, m in towers._squarefree_parts(
                       Q, towers._gp_monic(Q, list(f.coeffs)))
                   for g in towers._factor_squarefree(Q, part)]
        generic.sort(key=lambda t: towers.flatten_poly(Q, t[0]))
        assert generic == expected, f
    with pytest.raises(InputError) as q_error:
        factor_over_q(UniPoly.zero())
    for zero in (UniPoly.zero(), [Fraction(0)]):
        with pytest.raises(InputError) as tower_error:
            factor_over_tower(FieldTower(), zero)
        assert str(tower_error.value) == str(q_error.value)


def test_splitting_degree_divides_factorial():
    rng = random.Random(53)
    import math
    for _ in range(12):
        deg = rng.randrange(2, 5)
        while True:
            coeffs = [rng.randrange(-4, 5) for _ in range(deg)] + [1]
            f = UniPoly.of(*coeffs)
            from heavenly.polynomials import poly_gcd
            if poly_gcd(f, derivative(f)).degree == 0:
                break
        d = splitting_degree(f)
        assert math.factorial(deg) % d == 0


def test_field_chain_structure():
    zeta8 = extend(base_field("Q(i)"), P(-2, 0, 1))
    chain = field_chain(zeta8)
    assert len(chain) == 3
    assert chain[0].absolute_degree == 1
    assert chain[1].absolute_degree == 2
    assert chain[2].absolute_degree == 4


def test_equal_levels_give_one_field_while_interned():
    tower = splitting_tower(P(-2, 0, 0, 1), base_field("Q(i)"))
    assert FieldTower() is towers.RATIONAL
    assert FieldTower(tower.levels) is tower
    assert field_chain(tower)[1] is base_field("Q(i)")
    towers._interned.cache_clear()
    fresh = FieldTower(tower.levels)
    assert fresh is not tower
    assert fresh == tower and hash(fresh) == hash(tower)
    assert {fresh: 1}[tower] == 1
    assert repr(fresh) == repr(tower) == \
        "FieldTower(degree=12, levels=2x3x2)"
    assert extends(fresh, tower.base) and not extends(tower.base, fresh)
    assert fresh != fresh.base and fresh.base != towers.RATIONAL
    assert towers.RATIONAL.level_degrees() == [] and len(fresh.levels) == 3


def test_parse_polynomial_integration():
    f = parse_polynomial("x^4 - 2")
    assert splitting_degree(f) == 8


# ---------------------------------------------------------------------------
# Element arithmetic against a Fraction reference, and frozen towers.


def random_element(F, rng):
    """A seeded element with small numerators and denominators, built
    coordinate by coordinate over the field below."""
    if F.base is None:
        return Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
    return F.from_coords([random_element(F.base, rng)
                          for _ in range(F.degree)])


def flat_levels(tower):
    """Each level's coefficients, flattened to Fractions over Q."""
    chain = field_chain(tower)
    return [[list(F.flatten(c)) for c in lev]
            for F, lev in zip(chain, tower.levels)]


def reference_mul(levels, a, b):
    """Product of flattened elements by schoolbook multiplication and
    reduction on Fraction lists, one level at a time."""
    if not levels:
        return [a[0] * b[0]]
    below, modulus = levels[:-1], levels[-1]
    d = len(modulus) - 1
    w = len(a) // d
    prod = [[Fraction(0)] * w for _ in range(2 * d - 1)]
    for i in range(d):
        for j in range(d):
            term = reference_mul(below, a[i * w:(i + 1) * w],
                                 b[j * w:(j + 1) * w])
            prod[i + j] = [x + y for x, y in zip(prod[i + j], term)]
    for k in range(2 * d - 2, d - 1, -1):
        for j in range(d):
            term = reference_mul(below, prod[k], modulus[j])
            prod[k - d + j] = [x - y for x, y in zip(prod[k - d + j], term)]
    return [x for piece in prod[:d] for x in piece]


def stacked(*levels):
    """A tower from level makers, each given the field below; irreducibility
    is left to test_non_integral_levels_are_irreducible, so arithmetic
    tests do not depend on factoring."""
    tower = FieldTower()
    for make in levels:
        tower = FieldTower(tower.levels + (tuple(make(tower)),))
    return tower


def non_integral_tower():
    """Q(sqrt2), then z^2 + z/2 + 1, then w^2 + w/3 - z/5: two levels whose
    moduli have non-integral coefficients."""
    return stacked(
        lambda Q: [Q.from_fraction(-2), Q.zero(), Q.one()],
        lambda K: [K.one(), K.from_fraction(Fraction(1, 2)), K.one()],
        lambda F: [F.scale(F.generator(), Fraction(-1, 5)),
                   F.from_fraction(Fraction(1, 3)), F.one()])


def non_integral_over_q():
    """r^2 - r/3 + 1/2 over Q, then y^3 - r/2: non-integral from the first
    level up."""
    return stacked(
        lambda Q: [Fraction(1, 2), Fraction(-1, 3), Q.one()],
        lambda F: [F.scale(F.generator(), Fraction(-1, 2)), F.zero(),
                   F.zero(), F.one()])


def arithmetic_towers():
    """Towers for the arithmetic tests, none of them built by factoring."""
    return [("Q(i)", base_field("Q(i)")),
            ("non-integral over Q(sqrt2)", non_integral_tower()),
            ("non-integral over Q", non_integral_over_q()),
            ("Weil D=3", frozen_tower("Weil D=3"))]


def test_non_integral_levels_are_irreducible():
    for tower in (non_integral_tower(), non_integral_over_q()):
        rebuilt = FieldTower()
        for level in tower.levels:
            rebuilt = extend(rebuilt, list(level))
        assert rebuilt == tower


def test_tower_multiplication_matches_fraction_reference():
    rng = random.Random(61)
    for name, tower in arithmetic_towers():
        F = tower
        levels = flat_levels(tower)
        for _ in range(3 if F.absolute_degree > 8 else 20):
            a, b = random_element(F, rng), random_element(F, rng)
            expected = reference_mul(levels, list(F.flatten(a)),
                                     list(F.flatten(b)))
            assert list(F.flatten(F.mul(a, b))) == expected, name
            assert F.flatten(F.add(a, b)) == tuple(
                x + y for x, y in zip(F.flatten(a), F.flatten(b))), name
            q = Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
            assert F.flatten(F.scale(a, q)) == tuple(
                q * x for x in F.flatten(a)), name


def test_tower_multiplication_is_a_ring_product():
    rng = random.Random(67)
    for name, tower in arithmetic_towers():
        F = tower
        for _ in range(4 if F.absolute_degree > 8 else 25):
            a, b, c = (random_element(F, rng) for _ in range(3))
            assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c)), name
            assert F.mul(a, b) == F.mul(b, a), name
            assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b),
                                                  F.mul(a, c)), name
            assert F.sub(F.add(a, b), b) == a, name
            assert F.mul(a, F.one()) == a, name
            if not F.is_zero(a):
                assert F.mul(a, F.inv(a)) == F.one(), name
            # equal values are equal, hashable elements
            assert hash(F.mul(a, b)) == hash(F.mul(b, a)), name


def test_norm_is_multiplicative_and_a_power_on_the_base():
    rng = random.Random(73)
    for name, tower in arithmetic_towers():
        F = tower
        B = F.base
        for _ in range(3 if F.absolute_degree > 8 else 15):
            a, b = random_element(F, rng), random_element(F, rng)
            assert F.norm(F.mul(a, b)) == B.mul(F.norm(a), F.norm(b)), name
            c = random_element(B, rng)
            power = B.one()
            for _ in range(F.degree):
                power = B.mul(power, c)
            assert F.norm(F.from_base(c)) == power, name
            # the norm of a + generator is (-1)^d modulus(-a) for a below
            y = F.add(F.from_base(c), F.generator())
            value = B.zero()
            for coeff in reversed(F.modulus):
                value = B.add(B.mul(value, B.neg(c)), coeff)
            expected = value if F.degree % 2 == 0 else B.neg(value)
            assert F.norm(y) == expected, name


def test_tower_embeddings_round_trip():
    rng = random.Random(71)
    for name, tower in arithmetic_towers():
        F = tower
        B = F.base
        for _ in range(10):
            q = Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
            assert F.flatten(F.from_fraction(q)) == (
                (q,) + (Fraction(0),) * (F.absolute_degree - 1)), name
            c = random_element(B, rng)
            assert F.coords(F.from_base(c)) == [c] + [B.zero()] * (
                F.degree - 1), name
            a = random_element(F, rng)
            assert F.from_coords(F.coords(a)) == a, name
            assert F.flatten(a) == tuple(
                x for coeff in F.coords(a) for x in B.flatten(coeff)), name


def test_from_base_lifts_from_any_field_below():
    # coordinates of a subfield are a prefix of the field's, so one
    # padding equals the lift through every level between
    rng = random.Random(83)
    for name, tower in arithmetic_towers():
        chain = field_chain(tower)
        for height in range(len(chain) - 2):
            for _ in range(5):
                c = random_element(chain[height], rng)
                assert tower.from_base(c) == embed_to(chain, height, c), (
                    name, height)
    assert frozen_tower("Weil D=3").absolute_degree == 72


def test_non_integral_level_factors_and_splits():
    t = non_integral_tower()
    F = t
    K = F.base
    w = F.generator()
    z = F.from_base(K.generator())
    assert F.mul(w, w) == F.sub(F.scale(z, Fraction(1, 5)),
                                F.scale(w, Fraction(1, 3)))
    # the top modulus splits over its own field, with roots w and -1/3 - w
    facs = factor_over_tower(t, [F.from_base(c) for c in t.levels[-1]])
    roots = {F.neg(g[0]) for g, _ in facs}
    assert roots == {w, F.sub(F.from_fraction(Fraction(-1, 3)), w)}
    # z^2 + z/2 + 1 has the roots z and -1/2 - z
    facs = factor_over_tower(t, [F.from_base(K.from_base(c))
                                 for c in t.levels[1]])
    roots = {F.neg(g[0]) for g, _ in facs}
    assert roots == {z, F.sub(F.from_fraction(Fraction(-1, 2)), z)}


# Flattened FieldTower.levels of the hard set's first round, frozen from
# the nested-Fraction implementation: per level, each coefficient as its
# nonzero (flat index, value) pairs.  Equal levels mean equal tie-breaks.
FROZEN_TOWERS = {
    "x^5 - 2 over Q": ([5, 4], [
        (((0, -2),), (), (), (), (), ((0, 1),)),
        (((4, 1),), ((3, 1),), ((2, 1),), ((1, 1),), ((0, 1),)),
    ]),
    "x^3 - 2 over Q(sqrt-2)": ([2, 3, 2], [
        (((0, 2),), (), ((0, 1),)),
        (((0, -2),), (), (), ((0, 1),)),
        (((4, 1),), ((2, 1),), ((0, 1),)),
    ]),
    "Weil D=3": ([2, 3, 2, 3, 2], [
        (((0, -3),), (), ((0, 1),)),
        (((0, -1), (1, -1)), ((0, -1),), (), ((0, 1),)),
        (((0, -1), (4, 1)), ((2, 1),), ((0, 1),)),
        (((0, -1), (1, 1)), ((0, -1),), (), ((0, 1),)),
        (((0, -1), (24, 1)), ((12, 1),), ((0, 1),)),
    ]),
}


def from_flat(F, flat):
    """The element of F with the given flattened coordinates."""
    if F.base is None:
        return Fraction(flat[0])
    w = F.base.absolute_degree
    return F.from_coords([from_flat(F.base, flat[i * w:(i + 1) * w])
                          for i in range(F.degree)])


def frozen_tower(name):
    """The tower of FROZEN_TOWERS[name], rebuilt level by level."""
    degrees, levels = FROZEN_TOWERS[name]
    makers = []
    width = 1
    for d, level in zip(degrees, levels):
        def make(F, level=level, width=width):
            out = []
            for pairs in level:
                flat = [0] * width
                for k, q in pairs:
                    flat[k] = q
                out.append(from_flat(F, flat))
            return out
        makers.append(make)
        width *= d
    return stacked(*makers)


def sparse_levels(tower):
    return [tuple(tuple((k, q) for k, q in enumerate(coeff) if q)
                  for coeff in lev)
            for lev in flat_levels(tower)]


def test_hard_round_one_towers_frozen():
    weil = WeilRestrictionInput.of("Q", 3, ((-1, -1), (-1, 0), (0, 0), (1, 0)))
    built = {
        "x^5 - 2 over Q": two_division_tower(
            JacobianInput("Q", P(-2, 0, 0, 0, 0, 1)))[-1],
        "x^3 - 2 over Q(sqrt-2)": two_division_tower(
            EllipticInput("Q(sqrt-2)", P(-2, 0, 0, 1)))[-1],
        "Weil D=3": two_division_tower(weil)[-1],
    }
    for name, (degrees, levels) in FROZEN_TOWERS.items():
        tower = built[name]
        assert tower.level_degrees() == degrees, name
        widths = [len(lev[0]) for lev in flat_levels(tower)]
        below = 1
        for width, d in zip(widths, degrees):
            assert width == below, name
            below *= d
        assert sparse_levels(tower) == levels, name
        assert tower == frozen_tower(name), name


# ---------------------------------------------------------------------------
# Screening norm-descent shifts modulo a prime.


def residue_maps(levels):
    """The screen's residue maps of the field with the given levels."""
    return FieldTower(levels)._residue_maps


def embed_to(chain, height, c):
    """c from chain[height] embedded in chain[-1]."""
    for F in chain[height + 1:]:
        c = F.from_base(c)
    return c


def test_screen_map_is_a_ring_map():
    rng = random.Random(79)
    for tower in (non_integral_tower(), non_integral_over_q()):
        F = tower
        # a dummy top level, so the maps below it cover the whole tower
        # field; the tower's own whole-field maps cover it through a root
        # of its top modulus
        top = (F.from_fraction(-3), F.zero(), F.one())
        maps = residue_maps(tower.levels + (top,))
        assert len(maps) == towers._SCREEN_PRIMES
        images = []
        for p, basis, _ in maps:
            assert p > towers.FIELD_DEGREE_CAP
            # the basis map sends the top modulus x^2 - 3 to x^2 - 3 mod p
            modulus = tuple(towers._map_mod(basis, *F.parts(c), p)
                            for c in top)
            assert modulus == (p - 3, 0, 1)
            images.append((p, basis))
        whole = [(p, w) for p, _, w in residue_maps(tower.levels)
                 if w is not None]
        assert whole
        chain = field_chain(tower)
        for p, basis in images + whole:

            def phi(a):
                # None when p divides a's denominator
                return towers._map_mod(basis, *a, p)

            assert phi(F.one()) == 1
            for height, K in enumerate(chain[1:], 1):
                # each generator maps to a simple root of its modulus
                root = phi(embed_to(chain, height, K.generator()))
                value = slope = 0
                for c in reversed(K.modulus):
                    slope = (slope * root + value) % p
                    value = (value * root + phi(
                        embed_to(chain, height - 1, c))) % p
                assert value == 0
                assert slope != 0
            checked = 0
            while checked < 25:
                a, b = random_element(F, rng), random_element(F, rng)
                if None in (phi(a), phi(b), phi(F.mul(a, b))):
                    continue
                assert phi(F.mul(a, b)) == phi(a) * phi(b) % p
                assert phi(F.add(a, b)) == (phi(a) + phi(b)) % p
                checked += 1


def screen_fields():
    weil_quadratic = extend(base_field("Q"), P(-3, 0, 1))
    return [("Q", base_field("Q")), ("Q(i)", base_field("Q(i)")),
            ("Q(sqrt2)", base_field("Q(sqrt2)")),
            ("Q(sqrt-2)", base_field("Q(sqrt-2)")),
            ("Weil D=3 quadratic", weil_quadratic)]


def random_squarefree(F, rng):
    """A monic squarefree product of two or three small random factors."""
    while True:
        parts = []
        for _ in range(rng.randrange(2, 4)):
            deg = rng.randrange(1, 4)
            parts.append([random_element(F, rng) for _ in range(deg)]
                         + [F.one()])
        f = gp_product(F, parts)
        if len(towers._gp_gcd(F, f, towers._gp_deriv(F, f))) == 1:
            return f


def test_screened_and_exact_descent_agree(monkeypatch):
    rng = random.Random(83)
    inputs = []
    for name, tower in screen_fields():
        F = tower
        inputs += [(name, tower, random_squarefree(F, rng))
                   for _ in range(4)]
    inputs += certificate_inputs()
    calls = {"_certified_squarefree": [], "_certified_irreducible": []}
    for attr, seen in calls.items():
        def counted(*args, check=getattr(towers, attr), seen=seen):
            ok = check(*args)
            seen.append(ok)
            return ok

        monkeypatch.setattr(towers, attr, counted)
    # the certificate's verdicts on the norms a shift walk computes, apart
    # from its verdicts on whole inputs before any descent
    norm_checks = []

    def walked(F, f, walk=towers._squarefree_norm):
        before = len(calls["_certified_squarefree"])
        descent = walk(F, f)
        norm_checks.extend(calls["_certified_squarefree"][before:])
        return descent

    monkeypatch.setattr(towers, "_squarefree_norm", walked)
    screened = [factor_over_tower(t, f) for _, t, f in inputs]
    assert any(norm_checks)
    assert any(calls["_certified_irreducible"])
    assert not all(calls["_certified_irreducible"])
    assert any(len(facs) == 1 and facs[0][1] == 1 for facs in screened)
    assert any(m > 1 for facs in screened for _, m in facs)
    exact_tests = []
    squarefree = towers._gp_squarefree

    def exact(*args):
        exact_tests.append(1)
        return squarefree(*args)

    monkeypatch.setattr(towers, "_gp_squarefree", exact)
    # fresh fields, rebuilt from their levels, take their screen maps with
    # no primes
    monkeypatch.setattr(towers, "_SCREEN_PRIMES", 0)
    towers._interned.cache_clear()
    try:
        for (name, tower, f), expected in zip(inputs, screened):
            fresh = FieldTower(tower.levels)
            assert fresh is not tower or not tower.levels, name
            assert factor_over_tower(fresh, f) == expected, name
    finally:
        towers._interned.cache_clear()
    assert exact_tests


def test_screen_never_certifies_a_power_norm(monkeypatch):
    # f over the base field: at shift 0 the norm is f^2, not squarefree, so
    # its image at every screen prime is a square and the walk moves on;
    # the irreducibility certificate is switched off so that the walk runs
    monkeypatch.setattr(towers, "_certified_irreducible", lambda F, f: False)
    for name, tower in screen_fields()[1:]:
        F = tower
        B = F.base
        f = lift_to_field(F, P(-2, 0, 0, 1))
        maps = [(p, basis) for p, basis, *_ in F._residue_maps]
        assert len(maps) == towers._SCREEN_PRIMES, name
        norm = towers._norm_poly(F, f, 6)
        assert norm == gp_product(B, [lift_to_field(B, P(-2, 0, 0, 1))] * 2)
        images = list(towers._images(B, norm, maps))
        assert [p for p, _ in images] == [p for p, _ in maps], name
        for p, basis in maps:
            assert not towers._certified_squarefree(B, norm, [(p, basis)]), \
                (name, p)
        shift, _, _ = towers._squarefree_norm(F, f)
        assert not F.is_zero(shift), name


def screened_out(F, deg):
    """x^deg + P theta over F, theta its top generator and P the product of
    its screen primes: x^deg modulo each, so no norm descent of it has a
    shift certified there."""
    primes = [p for p, *_ in F._residue_maps]
    return [F.scale(F.generator(), prod(primes))] + [F.zero()] * (deg - 1) \
        + [F.one()]


def counted_norms(monkeypatch):
    """The fields of the _norm_poly calls made from now on, in order."""
    norms = []
    norm_poly = towers._norm_poly

    def counting(*args):
        norms.append(args[0])
        return norm_poly(*args)

    monkeypatch.setattr(towers, "_norm_poly", counting)
    return norms


def test_certified_walk_stops_at_its_bound(monkeypatch):
    # x^3 + P theta over the degree-12 splitting field of x^3 - 2 over Q(i):
    # the certified walk stops after deg^2 d (d - 1) + 1 = 19 shifts, d = 2,
    # and the exact test takes the first of those norms, shift 0, with no
    # norm computed again; 23 norms over all fields for the whole factoring
    F = splitting_tower(P(-2, 0, 0, 1), base_field("Q(i)"))
    primes = [p for p, *_ in F._residue_maps]
    assert (F.absolute_degree, F.degree, primes) == (12, 2, [197, 229, 233])
    f = screened_out(F, 3)
    norms = counted_norms(monkeypatch)
    shift, _, _ = towers._squarefree_norm(F, f)
    assert F.is_zero(shift)
    assert norms == [F] * (3 * 3 * 2 * 1 + 1)
    norms.clear()
    assert factor_over_tower(F, f) == [(f, 1)]
    assert len(norms) == 23


def test_certified_walk_stops_at_the_largest_screen_prime(monkeypatch):
    # x^6 + P theta over Q(2^(1/3)): deg^2 d (d - 1) + 1 = 217 exceeds the
    # least screen prime, and the first 199 shifts hold every residue of
    # the largest, so the certified walk stops there and the exact test
    # takes shift 0 from those norms
    F = extend(base_field("Q"), P(-2, 0, 0, 1))
    assert [p for p, *_ in F._residue_maps] == [193, 197, 199]
    f = screened_out(F, 6)
    norms = counted_norms(monkeypatch)
    shift, _, _ = towers._squarefree_norm(F, f)
    assert F.is_zero(shift)
    assert norms == [F] * 199
    assert factor_over_tower(F, f) == [(f, 1)]


def test_no_descent_computes_a_shifts_norm_twice(monkeypatch):
    descents = []
    squarefree_norm = towers._squarefree_norm

    def recorded(F, f):
        descents.append([])
        return squarefree_norm(F, f)

    def norm_poly(F, g, norm_deg, norm=towers._norm_poly):
        # distinct shifts of f give distinct g, by their x^(deg - 1) terms
        descents[-1].append(towers.flatten_poly(F, g))
        return norm(F, g, norm_deg)

    monkeypatch.setattr(towers, "_squarefree_norm", recorded)
    monkeypatch.setattr(towers, "_norm_poly", norm_poly)
    for _, item in descent_inputs():
        classify(item)
    assert sum(map(bool, descents)) == sum(
        k is not None for ks in DESCENT_SHIFTS.values() for k in ks)
    for F, deg in ((splitting_tower(P(-2, 0, 0, 1), base_field("Q(i)")), 3),
                   (extend(base_field("Q"), P(-2, 0, 0, 1)), 6)):
        factor_over_tower(F, screened_out(F, deg))
    for shifts in descents:
        assert len(set(shifts)) == len(shifts)


def test_few_shifts_give_a_norm_that_is_not_squarefree():
    # the roots a + k alpha_i and b + k alpha_j, i != j, of the norm of
    # f(x - k alpha) meet at one k at most, so at most
    # E - 1 = deg^2 d (d - 1)/2 of any E shifts fail (Trager 1976); roots
    # a + b theta with small integers a, b make some of them fail
    rng = random.Random(40)
    failed = 0
    for F in (base_field("Q(i)"), extend(base_field("Q"), P(-2, 0, 0, 1)),
              splitting_tower(P(-2, 0, 0, 1), base_field("Q"))):
        theta = F.generator()
        for deg in (2, 3, 4) * 2:
            roots = set()
            while len(roots) < deg:
                roots.add(F.add(F.from_fraction(rng.randrange(-2, 3)),
                                F.scale(theta, rng.randrange(-2, 3))))
            f = gp_product(F, [[F.neg(r), F.one()] for r in roots])
            E = deg * deg * F.degree * (F.degree - 1) // 2 + 1
            bad = [not towers._gp_squarefree(F.base, norm) for _, _, norm
                   in islice(towers._shifted_norms(F, f), 2 * E)]
            assert sum(bad) <= E - 1, (F, deg)
            failed += sum(bad)
    assert failed


def generic_quadratic_root(f, p):
    """The root the generic route picks for a monic quadratic f: the first
    factor that _equal_degree_split isolates in gcd(f, x^p - x), or None
    when that gcd has no two distinct roots to isolate."""
    x = [0, 1]
    h = factorization._mod_gcd(f, factorization._mod_sub(
        factorization._mod_pow_mod(x, p, f, p), x, p), p)
    if len(h) < 3:
        return None
    return -factorization._equal_degree_split(h, 1, p)[0][0] % p


def test_quadratic_roots_match_the_generic_route():
    # Tonelli-Shanks roots the quadratic moduli; the root it returns must
    # be the one the generic split returns, and double roots and
    # non-residues give None
    rng = random.Random(233)
    primes = [q for q in range(193, 2000) if is_probable_prime(q)]
    outcomes = set()
    for trial in range(5000):
        p = rng.choice(primes)
        if trial % 5 == 0:
            r = rng.randrange(p)
            f = [r * r % p, -2 * r % p, 1]
        else:
            f = [rng.randrange(p), rng.randrange(p), 1]
        root = towers._root_mod(f, p)
        assert root == generic_quadratic_root(f, p), (f, p)
        outcomes.add((trial % 5 == 0, root is None))
    assert outcomes == {(True, True), (False, True), (False, False)}


def test_screen_maps_need_simple_roots():
    # 193 is the first screen prime, and x^2 - 193 has the double root 0
    # modulo 193: no map of Q(sqrt193) may send the generator there
    sqrt193 = extend(base_field("Q"), P(-193, 0, 1))
    F = sqrt193
    assert towers._root_mod([0, 0, 1], 193) is None
    assert towers._root_mod([0, 1, 1], 193) == 192
    maps = F._residue_maps
    assert maps[0][0] == 193 and maps[0][2] is None
    top = (F.from_fraction(-3), F.zero(), F.one())
    above = residue_maps(sqrt193.levels + (top,))
    assert len(above) == towers._SCREEN_PRIMES
    assert 193 not in [p for p, *_ in above]


def test_whole_field_images_skip_denominators():
    # Q(i) has whole-field maps at 193 and 197; a coefficient over 193 is
    # not defined at the first
    F = base_field("Q(i)")
    f = [F.from_fraction(-1), F.from_fraction(Fraction(1, 193)), F.one()]
    images = list(towers._images(F, f, towers._whole_maps(F)))
    assert [p for p, _ in images] == [197]
    assert images[0][1] == [196, pow(193, -1, 197), 1]


def certificate_fields():
    """The screen fields, then degree-5 and degree-12 towers; each has a
    map of its whole field at some screen prime."""
    fifth_root = extend(base_field("Q"), P(-2, 0, 0, 0, 0, 1))
    split = splitting_tower(P(-2, 0, 0, 1), base_field("Q(i)"))
    assert split.absolute_degree == 12
    fields = screen_fields()[1:] + [("Q(2^(1/5))", fifth_root),
                                    ("x^3 - 2 over Q(i)", split)]
    for name, tower in fields:
        assert any(whole is not None
                   for *_, whole in tower._residue_maps), name
    return fields


def random_monic(F, rng, deg):
    return [random_element(F, rng) for _ in range(deg)] + [F.one()]


def test_irreducibility_certificate_never_fires_on_products():
    rng = random.Random(89)
    for name, tower in certificate_fields():
        F = tower
        for _ in range(12):
            degrees = [rng.randrange(1, 4) for _ in range(rng.randrange(2, 4))]
            f = gp_product(F, [random_monic(F, rng, d) for d in degrees])
            assert not towers._certified_irreducible(F, f), name
        # a product of conjugates is reducible though its image mod a
        # screen prime may have any factor degrees
        alpha = F.generator()
        f = gp_product(F, [[F.neg(alpha), F.zero(), F.one()],
                           [F.scale(alpha, -2), F.zero(), F.one()]])
        assert not towers._certified_irreducible(F, f), name
    # over Q(i), with maps at 193 and 197: x^2 - 386 is x^2 modulo 193, so
    # the image of f there is not squarefree; modulo 197 both factors of f
    # stay irreducible
    F = base_field("Q(i)")
    f = lift_to_field(F, P(-386, 0, 1) * P(1, -1, 0, 1))
    assert not towers._certified_irreducible(F, f)


def certificate_inputs():
    """Seeded inputs over the certificate fields: random monic polynomials,
    mostly irreducible, products, and a square times a linear factor."""
    rng = random.Random(97)
    inputs = []
    for name, tower in certificate_fields():
        F = tower
        big = F.absolute_degree > 4
        for _ in range(2 if big else 4):
            inputs.append((name, tower, random_monic(
                F, rng, rng.randrange(2, 4 if big else 5))))
        for _ in range(1 if big else 3):
            degrees = [1, rng.randrange(1, 3)]
            inputs.append((name, tower, gp_product(
                F, [random_monic(F, rng, d) for d in degrees])))
        g = random_monic(F, rng, 1)
        inputs.append((name, tower, gp_product(
            F, [g, g, random_monic(F, rng, 1)])))
    return inputs


def test_quintic_cofactor_is_irreducible_without_norms(monkeypatch):
    # over Q(alpha), alpha^5 = a, (x^5 - a)/(x - alpha) is irreducible;
    # modulo 193, which is 3 mod 5, its image is an irreducible quartic
    def no_norms(*args):
        raise AssertionError("exact norm computed")

    monkeypatch.setattr(towers, "_norm_poly", no_norms)
    for a in (2, 3, 5, 6, 7):
        tower = extend(base_field("Q"), P(-a, 0, 0, 0, 0, 1))
        F = tower
        quintic = lift_to_field(F, P(-a, 0, 0, 0, 0, 1))
        quartic, rem = towers._gp_divmod(
            F, quintic, [F.neg(F.generator()), F.one()])
        assert not rem
        assert factor_over_tower(tower, quartic) == [(quartic, 1)], a


# ---------------------------------------------------------------------------
# Every 2-division tower the benchmarks build, frozen as one digest.


def _hard_documents():
    """The 18 generic hard-set inputs: x^5 - a over Q, x^3 - a over three
    quadratic bases, and the two-cubic Weil restrictions."""
    docs = [{"kind": "jacobian", "base_field": "Q",
             "poly": [-a, 0, 0, 0, 0, 1]} for a in (2, 3, 5, 6, 7)]
    docs += [{"kind": "elliptic", "base_field": base, "cubic": [-a, 0, 0, 1]}
             for base in ("Q(sqrt-2)", "Q(i)", "Q(sqrt2)")
             for a in (2, 3, 5)]
    docs += [{"kind": "weil_restriction", "base_field": "Q", "D": d,
              "cubic": ["-1-s", "-1", "0", "1"]} for d in (3, 5, 6, 7)]
    return docs


# SHA-256 of the flattened levels of the 27 towers below, frozen from the
# implementation that took an exact norm for every candidate shift.
TOWER_DIGEST = (
    "3dc06c63af4575a3c4a13e79dfca44cfc7878e4e9d109ac261e94abc4ea22c6b")


def test_two_division_towers_digest():
    corpus = sorted(Path(__file__).resolve().parents[1].glob(
        "corpus/*.json"))
    docs = _hard_documents() + [json.loads(p.read_text(encoding="utf-8"))
                                for p in corpus]
    assert len(docs) == 27
    lines = []
    for doc in docs:
        tower = two_division_tower(input_from_document(doc))[-1]
        levels = [[[str(q) for q in coeff] for coeff in lev]
                  for lev in flat_levels(tower)]
        lines.append(json.dumps([doc, levels], sort_keys=True))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == TOWER_DIGEST


# ---------------------------------------------------------------------------
# The shift each norm descent picks, frozen.


def descent_inputs():
    """(label, input): the corpus, the 18 hard-set inputs, and a seeded
    slice of the census over Q: five models over each base and twenty
    restrictions."""
    root = Path(__file__).resolve().parents[1]
    items = [(p.stem, input_from_document(json.loads(
        p.read_text(encoding="utf-8"))))
        for p in sorted(root.glob("corpus/*.json"))]
    items += [(f"hard {i}", input_from_document(doc))
              for i, doc in enumerate(_hard_documents())]
    census = json.loads((root / "tests" / "data" / "census_q.json")
                        .read_text(encoding="utf-8"))
    rng = random.Random(34)
    models = census["models"]
    for base in ("Q", "Q(i)", "Q(sqrt2)", "Q(sqrt-2)"):
        items += [(f"model {i} over {base}",
                   JacobianInput(base, P(*models[i])))
                  for i in sorted(rng.sample(range(len(models)), 5))]
    restrictions = census["weil_restrictions"]["models"]
    items += [(f"restriction {i}",
               WeilRestrictionInput.of("Q", *restrictions[i]))
              for i in sorted(rng.sample(range(len(restrictions)), 20))]
    return items


# For each input of descent_inputs that takes a norm descent, the shift k
# of each descent in call order, g(x) = f(x - k alpha), and None where the
# screen primes proved f irreducible with no norm; every other input takes
# none.  Frozen from the implementation that chose each shift by a
# resultant screen modulo p.
DESCENT_SHIFTS = {
    "hard 0": (None,),
    "hard 1": (None,),
    "hard 2": (None,),
    "hard 3": (None,),
    "hard 4": (None,),
    "hard 14": (0, None),
    "hard 15": (0, None),
    "hard 16": (0, None),
    "hard 17": (None, None),
    "model 1 over Q": (2,),
    "model 14 over Q": (2,),
    "model 22 over Q": (None, 2, None, 1),
    "model 33 over Q": (2,),
    "model 37 over Q": (2,),
    "model 1 over Q(i)": (1,),
    "model 4 over Q(i)": (1,),
    "model 23 over Q(i)": (1,),
    "model 24 over Q(i)": (None,),
    "model 27 over Q(i)": (1,),
    "model 19 over Q(sqrt2)": (1,),
    "model 21 over Q(sqrt2)": (1,),
    "model 32 over Q(sqrt2)": (1,),
    "model 37 over Q(sqrt2)": (1,),
    "model 0 over Q(sqrt-2)": (1,),
    "model 9 over Q(sqrt-2)": (1,),
    "model 17 over Q(sqrt-2)": (1,),
    "model 22 over Q(sqrt-2)": (1, 1, 1),
    "restriction 79": (1,),
    "restriction 85": (0,),
    "restriction 91": (1,),
    "restriction 105": (0,),
    "restriction 108": (0,),
    "restriction 130": (1,),
    "restriction 268": (0,),
    "restriction 274": (-1,),
}


def test_norm_descent_shifts_frozen(monkeypatch):
    picked = []
    squarefree_norm = towers._squarefree_norm

    def recorded(F, f):
        descent = squarefree_norm(F, f)
        if descent is None:
            picked.append(None)
        else:
            nums, den = F.parts(descent[0])
            assert den == 1 and not any(nums[:F._width]), nums
            picked.append(-nums[F._width])
        return descent

    monkeypatch.setattr(towers, "_squarefree_norm", recorded)
    table = {}
    for label, item in descent_inputs():
        picked.clear()
        classify(item)
        if picked:
            table[label] = tuple(picked)
    assert table == DESCENT_SHIFTS


# ---------------------------------------------------------------------------
# Splitting towers settle a cubic or quartic level's cofactor from its
# Galois group over the field below.


def reference_splitting_tower(f, tower):
    """splitting_tower as a plain loop that refactors every cofactor over
    the enlarged field with factor_over_tower."""
    current = tower
    pending = [g for g, _ in factor_over_tower(current, f) if len(g) > 2]
    while pending:
        F = current
        pending.sort(key=lambda h: (-(len(h) - 1), towers.flatten_poly(F, h)))
        chosen = pending.pop(0)
        current = FieldTower(current.levels + (tuple(chosen),))
        NF = current
        lifted = [[NF.from_base(c) for c in h] for h in pending + [chosen]]
        theta = [NF.neg(NF.generator()), NF.one()]
        lifted[-1] = towers._gp_divmod(NF, lifted[-1], theta)[0]
        pending = [g for h in lifted for g, _ in factor_over_tower(current, h)
                   if len(g) > 2]
    return current


NAMED_GROUPS = {
    "S3": "x^3 - 2",
    "C3": "x^3 - 3*x + 1",
    "S4": "x^4 + x + 1",
    "A4": "x^4 + 8*x + 12",
    "D4": "x^4 - 2",
    "C4": "x^4 + x^3 + x^2 + x + 1",
    "V4": "x^4 + 1",
}

BASE_TAGS = ("Q", "Q(i)", "Q(sqrt2)", "Q(sqrt-2)")


def seeded_squarefree(rng, deg):
    while True:
        f = UniPoly.of(*[rng.randrange(-3, 4) for _ in range(deg)], 1)
        if poly_gcd(f, derivative(f)).degree == 0:
            return f


def test_galois_class_of_named_polynomials_over_q():
    for name, text in NAMED_GROUPS.items():
        h = lift_to_field(towers.RATIONAL, parse_polynomial(text))
        expected = "A4/S4" if name in ("A4", "S4") else name
        assert towers._galois_class(FieldTower(), h) == expected, name


def test_splitting_tower_matches_refactoring_reference():
    rng = random.Random(89)
    polys = [parse_polynomial(text) for text in NAMED_GROUPS.values()]
    polys += [seeded_squarefree(rng, deg) for deg in (3, 3, 4, 4)]
    for tag in BASE_TAGS:
        base = base_field(tag)
        for f in polys:
            assert splitting_tower(f, base) == \
                reference_splitting_tower(f, base), (tag, f)


def test_galois_class_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(97)
    names = {"A4/S4": {"A4", "S4"}, "V4": {"V"}, "C4": {"C4"},
             "D4": {"D4"}}
    seen = set()
    checked = 0
    while checked < 45:
        if checked % 3 == 0:
            coeffs = [rng.randrange(-6, 7) for _ in range(4)] + [1]
        elif checked % 3 == 1:
            # biquadratics x^4 + b x^2 + d, whose groups lie in D4; a
            # square d gives V4
            d = rng.choice((rng.randrange(-12, 13), rng.randrange(1, 4) ** 2))
            coeffs = [d, 0, rng.randrange(-6, 7), 0, 1]
        else:
            # shifts of x^4 + 5x^2 + 5 and x^4 + x^3 + x^2 + x + 1, cyclic
            base = rng.choice((x**4 + 5 * x**2 + 5, x**4 + x**3 + x**2 + x + 1))
            shifted = sympy.Poly(base.subs(x, x + rng.randrange(-3, 4)), x)
            coeffs = [int(c) for c in reversed(shifted.all_coeffs())]
        poly = sympy.Poly(list(reversed(coeffs)), x)
        if not poly.is_irreducible:
            continue
        group, _ = sympy.galois_group(poly, by_name=True)
        label = towers._galois_class(FieldTower(),
                                     [Fraction(c) for c in coeffs])
        assert group.name in names[label], (coeffs, label, group)
        seen.add(label)
        checked += 1
    assert seen == set(names)
    checked = 0
    while checked < 20:
        coeffs = [rng.randrange(-9, 10) for _ in range(3)] + [1]
        if rng.randrange(2):
            # x^3 - 3x + c has discriminant 27 (4 - c^2): cyclic for c = 1
            coeffs = [rng.choice((-1, 1, 2, 3)), -3, 0, 1]
        poly = sympy.Poly(list(reversed(coeffs)), x)
        if not poly.is_irreducible:
            continue
        group, _ = sympy.galois_group(poly)
        label = towers._galois_class(FieldTower(),
                                     [Fraction(c) for c in coeffs])
        assert (label == "C3") == (group.order() == 3), (coeffs, label)
        seen.add(label)
        checked += 1
    assert {"C3", "S3"} <= seen


def test_cyclic_quartic_decided_by_one_square_test(monkeypatch):
    # (x^5 - 2)/(x - theta) over Q(theta), theta^5 = 2, has group C4, the
    # stabiliser of a root in the Frobenius group of order 20; one square
    # class test settles it, since the two quadratics' discriminants
    # differ by a square factor
    K = extend(base_field("Q"), P(-2, 0, 0, 0, 0, 1))
    F = K
    powers = [F.one()]
    for _ in range(4):
        powers.append(F.mul(powers[-1], F.generator()))
    calls = []
    depth = [0]
    is_square = towers._is_square

    def counting(tower, delta):
        calls.append(depth[0])
        depth[0] += 1
        try:
            return is_square(tower, delta)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(towers, "_is_square", counting)
    assert towers._galois_class(K, powers[::-1]) == "C4"
    assert calls.count(0) == 1


# Quintics by Galois group over Q.  The first three groups are
# 2-transitive, so the quartic cofactor over Q(theta) stays irreducible;
# D5 and C5 are not, and the cofactor factors over Q(theta).
QUINTICS = {
    "F20": ("x^5 - 2", "x^5 - 3", "x^5 + 15*x + 12"),
    "A5": ("x^5 + 20*x + 16",),
    "S5": ("x^5 - x - 1",),
    "D5": ("x^5 - 5*x + 12",),
    "C5": ("x^5 + x^4 - 4*x^3 - 3*x^2 + 3*x + 1",),
}
QUINTIC_ORDERS = {"F20": 20, "A5": 60, "S5": 120, "D5": 10, "C5": 5}

# F20 quintics with huge coefficients, whose resolvent root has
# coordinates of hundreds of digits.  _galois_class takes seconds on
# 2^1101 over a quadratic base, so it is compared there over Q alone;
# test_frobenius_stabiliser_takes_no_norm labels it over every base.
HUGE_QUINTICS = {f"x^5 - {2 ** 1101}": ("Q",),
                 f"x^5 - {3 * 10 ** 30}": BASE_TAGS}


def quartic_cofactor(f, tag):
    """K = B(theta) for a root theta of f over the tagged base B, with the
    factors over K of f/(x - theta); None when f is reducible over B."""
    base = base_field(tag)
    if [m for _, m in factor_over_tower(base, f)] != [1]:
        return None
    K = extend(base, f)
    F = K
    cofactor, rem = towers._gp_divmod(F, lift_to_field(F, f),
                                      [F.neg(F.generator()), F.one()])
    assert not rem
    return K, factor_over_tower(K, cofactor)


def test_stabiliser_class_agrees_with_galois_class():
    rng = random.Random(113)
    quintics = [parse_polynomial(text) for name in ("F20", "A5", "S5")
                for text in QUINTICS[name]]
    while len(quintics) < 7:
        f = seeded_squarefree(rng, 5)
        if [m for _, m in factor_over_tower(FieldTower(), f)] == [1]:
            quintics.append(f)
    cases = [(tag, f) for tag in BASE_TAGS for f in quintics]
    cases += [(tag, parse_polynomial(text))
              for text, tags in HUGE_QUINTICS.items() for tag in tags]
    labels = []
    for tag, f in cases:
        found = quartic_cofactor(f, tag)
        if found is None:
            continue
        K, factors = found
        assert [len(h) - 1 for h, _ in factors] == [4], (tag, f)
        h = factors[0][0]
        label = towers._stabiliser_class(K, h)
        assert label == towers._galois_class(K, h), (tag, f)
        labels.append(label)
    assert len(labels) >= 20 and set(labels) == {"C4", "A4/S4"}
    # a D5 or C5 cofactor is reducible, so splitting_tower never asks
    for tag in BASE_TAGS:
        for name in ("D5", "C5"):
            f = parse_polynomial(QUINTICS[name][0])
            found = quartic_cofactor(f, tag)
            assert found is not None and len(found[1]) > 1, (tag, name)


def test_stabiliser_class_of_a_gaussian_quintic_takes_the_norm_test():
    # x^5 - 2i (F20 over Q(i)) and x^5 + ix + 1 have coefficients outside
    # Z, so no p-adic candidates are formed and the norm test decides
    base = base_field("Q(i)")
    i, zero, one = base.generator(), base.zero(), base.one()
    for low, label in (([base.scale(i, -2), zero], "C4"), ([one, i], "A4/S4")):
        f = low + [zero, zero, zero, one]
        K = extend(base, f)
        cofactor, rem = towers._gp_divmod(K, [K.from_base(c) for c in f],
                                          [K.neg(K.generator()), K.one()])
        assert not rem
        [(h, _)] = factor_over_tower(K, cofactor)
        assert towers._stabiliser_class(K, h) == label
        assert towers._galois_class(K, h) == label


def test_quintic_splitting_degrees_agree_with_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for name, texts in QUINTICS.items():
        for text in texts:
            poly = sympy.Poly(sympy.sympify(text.replace("^", "**")), x)
            order = sympy.galois_group(poly)[0].order()
            assert order == QUINTIC_ORDERS[name], text
            assert splitting_degree(parse_polynomial(text)) == order, text
    for name in ("F20", "D5", "C5"):
        f = parse_polynomial(QUINTICS[name][0])
        assert splitting_tower(f) == \
            reference_splitting_tower(f, FieldTower()), name


def test_quintic_quartic_level_takes_no_square_test(monkeypatch):
    # the quartic cofactor of x^5 - 2 over Q(theta) is settled by one root
    # test of its resolvent: neither _galois_class nor _is_square sees it
    calls = []
    galois_class, is_square = towers._galois_class, towers._is_square

    def counting_class(tower, h):
        calls.append(("_galois_class", len(h) - 1))
        return galois_class(tower, h)

    def counting_square(tower, delta):
        calls.append(("_is_square", len(tower.levels)))
        return is_square(tower, delta)

    monkeypatch.setattr(towers, "_galois_class", counting_class)
    monkeypatch.setattr(towers, "_is_square", counting_square)
    tower = splitting_tower(P(-2, 0, 0, 0, 0, 1))
    assert tower.level_degrees() == [5, 4]
    assert calls == [("_galois_class", 5)]


def test_frobenius_stabiliser_takes_no_norm(monkeypatch):
    # a rational quintic's resolvent root is sought among candidates from
    # its p-adic roots and checked exactly, with no resolvent norm, both
    # when one passes (F20) and when none does (A5, S5); x^5 + 15x + 12's
    # root, 6 - 3/2 a + 1/2 a^2 - 1/2 a^3 + 1/2 a^4, is found only through
    # the scaling by f'(a), and the huge quintics' roots through the lift
    expected = {text: "C4" for text in QUINTICS["F20"] + ("x^5 - 7",)}
    expected.update({text: "C4" for text in HUGE_QUINTICS})
    expected.update({text: "A4/S4" for text in QUINTICS["A5"]
                     + QUINTICS["S5"]})
    cases = []
    for text, label in expected.items():
        for tag in BASE_TAGS:
            found = quartic_cofactor(parse_polynomial(text), tag)
            assert found is not None and len(found[1]) == 1, (text, tag)
            cases.append((text, tag, found[0], found[1][0][0], label))
    assert len(cases) == 4 * len(expected) == 32

    def no_norm(F, f):
        raise AssertionError("resolvent norm taken")

    monkeypatch.setattr(towers, "_squarefree_norm", no_norm)
    for text, tag, K, h, label in cases:
        assert towers._stabiliser_class(K, h) == label, (text, tag)


def test_split_prime_scan_skips_non_square_discriminants():
    # the least odd prime at which a quintic splits into linears is the
    # same with the primes where its discriminant is no nonzero square
    # left out, as Stickelberger's theorem requires of a split prime
    for text, p in (("x^5 - 2", 151), ("x^5 + 20*x + 16", 887),
                    ("x^5 - x - 1", 1973)):
        f = [int(c) for c in parse_polynomial(text).coeffs]
        roots, m = towers._split_prime_roots(f)
        while m % p == 0:
            m //= p
        assert m == 1, text
        assert all(sum(a * z ** i for i, a in enumerate(f)) % p == 0
                   for z in roots), text
        assert len({z % p for z in roots}) == 5, text


def test_a5_and_s5_quintics_label_their_stabiliser_a4_s4():
    # x^5 + 20x + 16 (A5) and x^5 - x - 1 (S5): no pentagon candidate is a
    # root of the resolvent over any base, so the quartic cofactor reads
    # A4/S4, as the group orders from sympy require
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for text, order in (("x^5 + 20*x + 16", 60), ("x^5 - x - 1", 120)):
        poly = sympy.Poly(sympy.sympify(text.replace("^", "**")), x)
        assert sympy.galois_group(poly)[0].order() == order, text
        for tag in BASE_TAGS:
            K, [(h, _)] = quartic_cofactor(parse_polynomial(text), tag)
            assert towers._stabiliser_class(K, h) == "A4/S4", (text, tag)


def test_two_division_towers_take_no_rational_norm_above_36(monkeypatch):
    # the quadratic cofactor over the Weil D=3 field of degree 36, and the
    # cubic cofactor over the degree-20 field of x^5 - 2, are settled by
    # discriminants and resolvents over the field below
    def capped(factor):
        def refusing(f):
            if f.degree > 36:
                raise AssertionError(f"rational norm of degree {f.degree}")
            return factor(f)
        return refusing

    # a proven-squarefree norm is factored by _factor_squarefree_over_q
    for name in ("factor_over_q", "_factor_squarefree_over_q"):
        monkeypatch.setattr(towers, name, capped(getattr(towers, name)))
    weil = WeilRestrictionInput.of("Q", 3, ((-1, -1), (-1, 0), (0, 0), (1, 0)))
    assert two_division_tower(weil)[-1].absolute_degree == 72
    jacobian = JacobianInput("Q", P(-2, 0, 0, 0, 0, 1))
    assert two_division_tower(jacobian)[-1].absolute_degree == 20


def test_weil_conjugate_cubic_takes_no_norm_over_the_degree_12_field(
        monkeypatch):
    # the conjugate twist's cubic has its coefficients in Q(sqrt D); over
    # the curve's degree-12 field, a quadratic level over the sextic field,
    # it stays irreducible by degree once the sextic field leaves it so
    norms = []
    norm_poly = towers._norm_poly

    def recorded(F, g, norm_deg):
        norms.append(F.absolute_degree)
        return norm_poly(F, g, norm_deg)

    monkeypatch.setattr(towers, "_norm_poly", recorded)
    for d in (3, 7):
        weil = WeilRestrictionInput.of("Q", d, ((-1, -1), (-1, 0), (0, 0),
                                                (1, 0)))
        norms.clear()
        top = two_division_tower(weil)[-1]
        assert top.level_degrees() == [2, 3, 2, 3, 2], d
        assert 12 not in norms, d


def test_a_proven_squarefree_norm_is_not_decomposed_again(monkeypatch):
    # norm descent proves each norm squarefree before it is factored over
    # Q, so Yun's algorithm (factorization._squarefree_parts, which takes
    # the primitive integer form of what factor_over_q factors) never
    # takes a norm: neither when factoring (x - 1)(x^2 - s) over Q(s),
    # s^2 = 2, nor in the root test of x^2 - 2 there.  x^3 - s x (the
    # corpus weil_sqrt2 curve) takes no norm at all: x splits off, and
    # x^2 - s is irreducible as 4s is no square
    norms, decomposed, norm_polys = [], [], []
    squarefree_norm = towers._squarefree_norm
    squarefree_parts = factorization._squarefree_parts
    norm_poly = towers._norm_poly

    def recorded_norm(F, f):
        descent = squarefree_norm(F, f)
        if descent is not None:
            norms.append(UniPoly.from_list(descent[2]))
        return descent

    def recorded_parts(f):
        decomposed.append(list(f))
        return squarefree_parts(f)

    def recorded_norm_poly(F, g, norm_deg):
        norm_polys.append(F)
        return norm_poly(F, g, norm_deg)

    monkeypatch.setattr(towers, "_squarefree_norm", recorded_norm)
    monkeypatch.setattr(towers, "_norm_poly", recorded_norm_poly)
    monkeypatch.setattr(factorization, "_squarefree_parts", recorded_parts)
    K = base_field("Q(sqrt2)")
    s = K.generator()
    x = [K.zero(), K.one()]
    x2_minus_s = [K.neg(s), K.zero(), K.one()]
    assert factor_over_tower(K, [K.zero(), K.neg(s), K.zero(), K.one()]) == [
        (x, 1), (x2_minus_s, 1)]
    assert not norms and not norm_polys
    assert factor_over_tower(K, [s, K.neg(s), K.from_fraction(-1),
                                 K.one()]) == [
        ([K.from_fraction(-1), K.one()], 1), (x2_minus_s, 1)]
    assert towers._has_root(K, [K.from_fraction(-2), K.zero(), K.one()])
    assert len(norms) == 2
    assert not [f for f in norms if _integer_form(f)[0] in decomposed]


def divmod_fields():
    """Q(i), Q(i)(sqrt 2) and Q(sqrt-2)(cbrt 2)."""
    qi = base_field("Q(i)")
    return [qi, extend(qi, P(-2, 0, 1)),
            extend(base_field("Q(sqrt-2)"), P(-2, 0, 0, 1))]


def test_gp_divmod_meets_its_contract():
    # q g + r = f with deg r < deg g, for monic and non-monic divisors,
    # divisors with zero coefficients, and dividends of lower degree
    rng = random.Random(113)
    kinds = set()
    for F in divmod_fields():
        for trial in range(30):
            lead = F.one() if trial % 2 else nonzero_element(F, rng)
            g = [F.zero() if rng.randrange(3) == 0 else random_element(F, rng)
                 for _ in range(rng.randrange(4))] + [lead]
            f = towers._gp_trim(F, [random_element(F, rng)
                                    for _ in range(rng.randrange(7))])
            q, r = towers._gp_divmod(F, f, g)
            assert len(r) < len(g)
            assert not q or not F.is_zero(q[-1])
            assert not r or not F.is_zero(r[-1])
            qg = gp_product(F, [q, g]) if q else []
            width = max(len(qg), len(r), len(f))
            padded = [h + [F.zero()] * (width - len(h)) for h in (qg, r, f)]
            assert all(F.is_zero(F.sub(F.add(a, b), c))
                       for a, b, c in zip(*padded)), (F, trial)
            kinds.add(("monic", trial % 2 == 1))
            kinds.add(("zero coefficient",
                       any(F.is_zero(c) for c in g[:-1])))
            kinds.add(("lower degree", len(f) < len(g)))
    assert kinds == {(k, v) for k in ("monic", "zero coefficient",
                                      "lower degree")
                     for v in (True, False)}


# ---------------------------------------------------------------------------
# Square tests that descend the tower, and norms over Q on integer matrices.


def weil_d3_top():
    """The degree-72 2-division field of the restriction to Q of
    y^2 = x^3 - x - 1 - s over Q(s), s^2 = 3, with levels 2, 3, 2, 3, 2."""
    weil = WeilRestrictionInput.of("Q", 3, ((-1, -1), (-1, 0), (0, 0),
                                            (1, 0)))
    return two_division_tower(weil)[-1]


def square_oracle_fields():
    """The fields of absolute degree at most 12 along the 2-division towers
    of the four hard Weil members, x^3 - 2 over Q(i) and x^5 - 2 over Q,
    and the Weil D=3 fields of degree 36 and 72 (see weil_d3_top)."""
    docs = [doc for doc in _hard_documents()
            if doc["kind"] == "weil_restriction"]
    docs += [{"kind": "elliptic", "base_field": "Q(i)", "cubic": [-2, 0, 0, 1]},
             {"kind": "jacobian", "base_field": "Q",
              "poly": [-2, 0, 0, 0, 0, 1]}]
    fields = []
    for doc in docs:
        top = two_division_tower(input_from_document(doc))[-1]
        for height in range(1, len(top.levels) + 1):
            tower = FieldTower(top.levels[:height])
            if tower.absolute_degree <= 12 or doc.get("D") == 3:
                fields.append((doc, tower))
    return fields


def nonzero_element(F, rng):
    while True:
        a = random_element(F, rng)
        if not F.is_zero(a):
            return a


def non_residue_prime(F, delta):
    """An odd prime p below 20000 with a ring map phi of the whole field F
    to F_p (see ExtensionField._residue_map), delta p-integral and phi(delta)
    no square mod p, or None.  A square root of delta would be p-integral
    too, where the power-basis order is regular at the kernel of phi, so
    such a p proves delta no square in F."""
    nums, den = F.parts(delta)
    for p in range(3, 20000, 2):
        if den % p and is_probable_prime(p):
            found = F._residue_map(p)
            if found is not None and found[1] is not None:
                image = towers._map_mod(found[1], nums, den, p)
                if pow(image, (p - 1) // 2, p) == p - 1:
                    return p
    return None


def test_is_square_agrees_with_factoring():
    # the oracle is _has_root, the degrees of the factors of the norm of
    # x^2 - delta down to Q, which shares no step with the descent behind
    # _is_square and _square_root; a root r found is checked by r r = delta.
    # Over the fields of degree 36 and 72, delta comes from their subfields
    # of degree at most 12, a root proves a square, and a non-square is
    # proven by a prime of degree 1 where delta is no residue: the rational
    # norm of degree 2 [F : Q] takes seconds at 72 and exceeds the
    # recombination cap at 144.  A square from the degree-36 subfield, past
    # a cubic level the descent cannot cross, still takes a norm of degree
    # 72 whose recombination runs for minutes, so none is drawn
    rng = random.Random(101)
    outcomes = set()
    checked = 0
    for doc, tower in square_oracle_fields():
        chain = field_chain(tower)
        F = chain[-1]
        large = F.absolute_degree > 12
        deltas = []
        for height, K in enumerate(chain):
            if K.absolute_degree > 12:
                continue
            gamma = nonzero_element(K, rng)
            deltas += [(height, nonzero_element(K, rng)),
                       (height, K.mul(gamma, gamma))]
            if K.base is not None and K.degree == 2:
                # gamma^2 e is a square in K = K'(sqrt e) for gamma in K'
                B = K.base
                c, b, _ = K.modulus
                e = B.sub(B.mul(b, b), B.scale(c, 4))
                gamma = nonzero_element(B, rng)
                deltas.append((height, K.from_base(
                    B.mul(B.mul(gamma, gamma), e))))
        for height, delta in deltas:
            delta = embed_to(chain, height, delta)
            root = towers._square_root(tower, delta)
            square = towers._is_square(tower, delta)
            assert square == (root is not None), (doc, height)
            if square:
                assert F.mul(root, root) == delta, (doc, height)
            elif large:
                assert non_residue_prime(F, delta) is not None, (doc, height)
            if not large:
                assert towers._has_root(
                    F, [F.neg(delta), F.zero(), F.one()]) == square, \
                    (doc, height)
            outcomes.add((large, height < len(tower.levels), square))
            checked += 1
    assert checked == 134
    # squares and non-squares, drawn from the top field and from below it,
    # and over the large fields from below it
    assert outcomes == {(False, True, True), (False, True, False),
                        (False, False, True), (False, False, False),
                        (True, True, True), (True, True, False)}


def sqrt_oracle_fields():
    """Q(i), Q(i)(sqrt 2), the splitting tower of x^3 - 2 over Q(sqrt-2)
    and the degree-12 field of the Weil D=3 tower (see weil_d3_top)."""
    qi = base_field("Q(i)")
    return [qi, extend(qi, P(-2, 0, 1)),
            splitting_tower(P(-2, 0, 0, 1), base_field("Q(sqrt-2)")),
            FieldTower(weil_d3_top().levels[:3])]


def test_square_root_of_every_square_is_plus_or_minus_its_root():
    # gamma^2 for gamma drawn at every height has the root +-gamma; at a
    # quadratic level K = K'(sqrt e), w = 2y + b, gamma^2 e for gamma in K'
    # is no square in K' and the square of gamma w in K; and _is_square
    # agrees with the degree-only norm route _has_root on seeded deltas
    rng = random.Random(109)
    agreed = 0
    kinds = set()
    for F in sqrt_oracle_fields():
        chain = field_chain(F)
        for height, K in enumerate(chain):
            for _ in range(3):
                gamma = embed_to(chain, height, nonzero_element(K, rng))
                root = towers._square_root(F, F.mul(gamma, gamma))
                assert root in (gamma, F.neg(gamma)), (F, height)
            if K.base is not None and K.degree == 2:
                B = K.base
                c, b, _ = K.modulus
                e = B.sub(B.mul(b, b), B.scale(c, 4))
                gamma = nonzero_element(B, rng)
                delta = B.mul(B.mul(gamma, gamma), e)
                assert towers._square_root(B, delta) is None, (F, height)
                root = K.mul(K.from_base(gamma),
                             K.from_coords([b, B.from_fraction(2)]))
                assert towers._square_root(K, K.from_base(delta)) in (
                    root, K.neg(root)), (F, height)
        for trial in range(26):
            height = rng.randrange(len(chain))
            gamma = nonzero_element(chain[height], rng)
            delta = embed_to(chain, height, gamma if trial % 2 else
                             chain[height].mul(gamma, gamma))
            expected = towers._has_root(F, [F.neg(delta), F.zero(), F.one()])
            assert towers._is_square(F, delta) == expected, (F, trial)
            kinds.add((height == len(F.levels), expected))
            agreed += 1
    assert agreed >= 100
    assert kinds == {(True, True), (True, False), (False, True),
                     (False, False)}


def test_quadratics_over_the_degree_72_field_skip_the_recombination_cap():
    # x^2 - 5 and x^2 + 3 are irreducible over the Weil D=3 field: their
    # discriminants are no squares, read off square tests that descend to
    # its subfields, where a norm descent over the whole field meets a
    # rational norm of degree 144 that exceeds the recombination cap
    F = weil_d3_top()
    assert F.absolute_degree == 72
    for c in (-5, 3):
        f = lift_to_field(F, P(c, 0, 1))
        start = time.perf_counter()
        assert factor_over_tower(F, f) == [(f, 1)], c
        assert time.perf_counter() - start < 1, c
    s = embed_to(field_chain(F), 1, field_chain(F)[1].generator())
    assert factor_over_tower(F, P(-3, 0, 1)) == [
        ([F.neg(s), F.one()], 1), ([s, F.one()], 1)]


def test_has_root_pulls_no_root_back(monkeypatch):
    # _has_root reads a root of x^2 - delta off the degrees of its norms'
    # factors down to Q: no gcd pulls a factor back at any level, and it
    # agrees with _is_square, which pulls a root back past a level that is
    # not quadratic
    rng = random.Random(107)
    fields = [base_field("Q(i)"), extend(base_field("Q"),
                                         P(-2, 0, 0, 0, 0, 1)),
              splitting_tower(P(-2, 0, 0, 1), base_field("Q(i)"))]
    cases = []
    for F in fields:
        for k in range(6):
            delta = F.zero()
            while all(F.base.is_zero(c) for c in F.coords(delta)[1:]):
                gamma = nonzero_element(F, rng)
                delta = F.mul(gamma, gamma) if k % 2 else gamma
            factors = factor_over_tower(F, [F.neg(delta), F.zero(), F.one()])
            cases.append((F, delta, len(factors) == 2))
    assert [expected for *_, expected in cases] == [False, True] * 9
    gcd_fields = []
    gp_gcd = towers._gp_gcd

    def recording(F, f, g):
        gcd_fields.append(F)
        return gp_gcd(F, f, g)

    monkeypatch.setattr(towers, "_gp_gcd", recording)
    for F, delta, expected in cases:
        assert towers._is_square(F, delta) == expected, F
        gcd_fields.clear()
        h = [F.neg(delta), F.zero(), F.one()]
        assert towers._has_root(F, h) == expected, F
        assert not gcd_fields, F


def test_square_root_past_an_odd_level_takes_one_descent(monkeypatch):
    # past a level that is not quadratic, the root of a square is pulled
    # back by one norm descent of x^2 - delta, with no second descent to
    # test for a root first
    rng = random.Random(113)
    F = extend(base_field("Q"), P(-2, 0, 0, 0, 0, 1))
    calls = []
    squarefree_norm = towers._squarefree_norm

    def counting(K, f):
        calls.append(K)
        return squarefree_norm(K, f)

    monkeypatch.setattr(towers, "_squarefree_norm", counting)
    for _ in range(3):
        gamma = F.zero()
        while all(F.base.is_zero(c) for c in F.coords(gamma)[1:]):
            gamma = nonzero_element(F, rng)
        calls.clear()
        root = towers._square_root(F, F.mul(gamma, gamma))
        assert root in (gamma, F.neg(gamma))
        assert calls == [F]


def random_rational_modulus(rng, degree):
    """A monic irreducible rational polynomial, often with denominators."""
    while True:
        coeffs = [Fraction(rng.randrange(-6, 7), rng.choice((1, 1, 2, 3)))
                  for _ in range(degree)] + [Fraction(1)]
        f = UniPoly.of(*coeffs)
        if [m for _, m in factor_over_tower(FieldTower(), f)] == [1]:
            return coeffs


def test_width_one_norm_and_inverse_agree_with_sympy():
    sympy = pytest.importorskip("sympy")
    y = sympy.Symbol("y")
    rng = random.Random(103)
    integral = 0
    for degree in (2, 3, 4, 5) * 3:
        modulus = random_rational_modulus(rng, degree)
        integral += all(c.denominator == 1 for c in modulus)
        F = FieldTower((tuple(modulus),))
        m = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                        for c in reversed(modulus)], y)
        for _ in range(4):
            nums = [rng.randrange(-9, 10) for _ in range(degree)]
            if not any(nums[1:]):
                nums[1] = 1
            den = rng.randrange(1, 6)
            a = F.from_parts(nums, den)
            A = sympy.Poly(list(reversed(nums)), y)
            expected = sympy.resultant(m, A) / den ** degree
            assert F.norm(a) == Fraction(int(sympy.numer(expected)),
                                         int(sympy.denom(expected))), \
                (modulus, nums, den)
            assert F.mul(a, F.inv(a)) == F.one(), (modulus, nums, den)
    assert 0 < integral < 12
