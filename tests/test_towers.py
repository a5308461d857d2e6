"""Extension towers: factoring, splitting fields, primitive elements."""

from fractions import Fraction

import pytest
import random

import heavenly.towers as towers
from heavenly.errors import (
    InputError,
    ReducibleExtensionError,
    ResourceCapError,
)
from heavenly.polynomials import UniPoly, parse_polynomial
from heavenly.factorization import is_irreducible_over_q
from heavenly.towers import (
    FieldTower,
    base_field,
    compositum_degree,
    compositum_tower,
    extend,
    factor_over_tower,
    field_chain,
    galois_closure_is_2power,
    is_irreducible_over_tower,
    lift_to_field,
    primitive_element,
    splitting_degree,
    splitting_tower,
    tower_field,
)


def P(*coeffs):
    return UniPoly.of(*coeffs)


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
    F = tower_field(t)
    facs = factor_over_tower(t, P(1, 0, 1))
    assert len(facs) == 2
    assert all(mult == 1 and len(g) - 1 == 1 for g, mult in facs)
    roots = [F.neg(g[0]) for g, _ in facs]
    i = F.generator()
    assert set(roots) == {i, F.neg(i)}


def test_x2_plus_1_irreducible_over_sqrt2():
    t = base_field("Q(sqrt2)")
    assert is_irreducible_over_tower(t, P(1, 0, 1))


def test_x4_plus_1_over_sqrt2_two_quadratics():
    t = base_field("Q(sqrt2)")
    F = tower_field(t)
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
    assert t.extends(base_field("Q(i)"))


def test_splitting_tower_requires_squarefree():
    with pytest.raises(InputError):
        splitting_tower(P(1, 2, 1))


def test_splitting_tower_cap():
    with pytest.raises(ResourceCapError) as exc:
        splitting_tower(P(-2, 0, 0, 0, 1), degree_cap=4)
    assert exc.value.partial is not None
    assert exc.value.partial.absolute_degree == 4


def test_norm_degree_cap_fires_before_any_norm(monkeypatch):
    # x^3 - 2 over Q(zeta8) descends through norms of degree 6, then 12;
    # with the cap at 8 the second is refused before the first is computed
    zeta8 = extend(base_field("Q(i)"), P(-2, 0, 1))

    def no_norms(*args):
        raise AssertionError("norm computed before the cap check")

    monkeypatch.setattr(towers, "NORM_DEGREE_CAP", 8)
    monkeypatch.setattr(towers, "_norm_poly", no_norms)
    with pytest.raises(ResourceCapError,
                       match=r"^norm degree 12 exceeds cap 8$"):
        factor_over_tower(zeta8, P(-2, 0, 0, 1))


def test_primitive_element_frozen():
    assert primitive_element(base_field("Q(i)")) == P(1, 0, 1)
    zeta8 = extend(base_field("Q(sqrt2)"), P(1, 0, 1))
    mu = primitive_element(zeta8)
    assert mu == P(9, 0, -2, 0, 1)  # minimal polynomial of sqrt2 + i
    assert is_irreducible_over_q(mu)
    with pytest.raises(InputError):
        primitive_element(base_field("Q"))


def test_primitive_element_degree_matches():
    t = splitting_tower(P(-2, 0, 0, 1))
    mu = primitive_element(t)
    assert mu.degree == t.absolute_degree == 6
    assert is_irreducible_over_q(mu)
    assert splitting_degree(mu) == 6


def test_galois_closure_frozen():
    assert galois_closure_is_2power(base_field("Q")) == (True, 1)
    assert galois_closure_is_2power(base_field("Q(i)")) == (True, 2)
    quartic_root_2 = extend(base_field("Q"), P(-2, 0, 0, 0, 1))
    assert galois_closure_is_2power(quartic_root_2) == (True, 8)
    cbrt2 = extend(base_field("Q"), P(-2, 0, 0, 1))
    assert galois_closure_is_2power(cbrt2) == (False, 6)


def test_compositum_frozen():
    q = base_field("Q")
    qi = base_field("Q(i)")
    qsqrt2 = base_field("Q(sqrt2)")
    assert compositum_degree(qi, qi, q) == 2
    assert compositum_degree(qi, qsqrt2, q) == 4
    assert compositum_degree(qsqrt2, qi, q) == 4
    assert compositum_degree(qi, q, q) == 2
    assert compositum_degree(q, qi, q) == 2


def test_compositum_of_splitting_towers():
    q = base_field("Q")
    t1 = splitting_tower(P(0, -1, 0, 1))   # x^3 - x: trivial
    t2 = splitting_tower(P(-2, 0, 0, 1))   # x^3 - 2: degree 6
    assert compositum_degree(t1, t2, q) == 6
    comp = compositum_tower(t2, t2, q)
    assert comp.absolute_degree == 6  # idempotent for a normal tower


def test_compositum_requires_common_base():
    with pytest.raises(InputError):
        compositum_tower(base_field("Q(i)"), base_field("Q(sqrt2)"),
                         base_field("Q(i)"))


def test_compositum_invariants():
    q = base_field("Q")
    towers = [
        base_field("Q(i)"),
        base_field("Q(sqrt2)"),
        extend(base_field("Q"), P(-2, 0, 0, 1)),
        splitting_tower(P(1, 0, 0, 0, 1)),
    ]
    for k1 in towers:
        for k2 in towers:
            d = compositum_degree(k1, k2, q)
            assert d <= k1.absolute_degree * k2.absolute_degree
            assert d % k1.absolute_degree == 0


def test_factor_over_tower_random_products():
    rng = random.Random(47)
    t = base_field("Q(i)")
    F = tower_field(t)
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
            assert is_irreducible_over_tower(t, g)


def test_splitting_degree_divides_factorial():
    rng = random.Random(53)
    import math
    for _ in range(12):
        deg = rng.randrange(2, 5)
        while True:
            coeffs = [rng.randrange(-4, 5) for _ in range(deg)] + [1]
            f = UniPoly.of(*coeffs)
            from heavenly.polynomials import poly_gcd
            if poly_gcd(f, f.derivative()).degree == 0:
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


def test_parse_polynomial_integration():
    f = parse_polynomial("x^4 - 2")
    assert splitting_degree(f) == 8
