"""Permutations, composition convention, and cycle notation."""

import pytest
import random

from heavenly.errors import InputError
from heavenly.permutations import (
    Perm,
    compose_images,
    format_cycles,
    parse_cycles,
)


def identity_perm(n: int) -> Perm:
    return Perm(tuple(range(1, n + 1)))


def test_identity_and_call():
    e = identity_perm(5)
    assert all(e(i) == i for i in range(1, 6))
    assert e.is_identity()
    p = Perm((2, 1, 3))
    assert p(1) == 2 and p(2) == 1 and p(3) == 3


def test_composition_left_to_right():
    # (1 2) then (2 3): 1 -> 2 -> 3, so the product is the cycle (1 3 2)
    a = parse_cycles("(1 2)", 3)
    b = parse_cycles("(2 3)", 3)
    assert a * b == parse_cycles("(1 3 2)", 3)
    assert b * a == parse_cycles("(1 2 3)", 3)


def test_inverse_and_order():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randrange(1, 11)
        images = list(range(1, n + 1))
        rng.shuffle(images)
        p = Perm(tuple(images))
        assert p * p.inverse() == identity_perm(n)
        assert p.inverse() * p == identity_perm(n)
        k = p.order()
        acc = identity_perm(n)
        for _ in range(k):
            acc = acc * p
        assert acc.is_identity()
        assert k >= 1


def test_involutions():
    assert identity_perm(4).is_involution()
    assert parse_cycles("(1 2)", 4).is_involution()
    assert parse_cycles("(1 2)(3 4)", 4).is_involution()
    assert not parse_cycles("(1 2 3)", 4).is_involution()


def test_parse_and_format():
    p = parse_cycles("(1 2 3 4)(5 6)", 6)
    assert p.images == (2, 3, 4, 1, 6, 5)
    assert format_cycles(p) == "(1 2 3 4)(5 6)"
    assert parse_cycles("()", 4) == identity_perm(4)
    assert format_cycles(identity_perm(4)) == "()"


def test_parse_rejects():
    with pytest.raises(InputError):
        parse_cycles("(1 2", 4)
    with pytest.raises(InputError):
        parse_cycles("(1 2)(2 3)", 4)  # point reused
    with pytest.raises(InputError):
        parse_cycles("(0 1)", 4)
    with pytest.raises(InputError):
        parse_cycles("(1 5)", 4)  # beyond degree
    with pytest.raises(InputError):
        parse_cycles("(1 1)", 4)


def test_degree_is_not_capped():
    p = parse_cycles("(1 272)", 272)
    assert p.degree == 272 and p(1) == 272 and (p * p).is_identity()
    assert identity_perm(272).is_identity()


def test_validation():
    with pytest.raises(InputError):
        Perm((1, 1, 2))
    with pytest.raises(InputError):
        Perm((0, 1, 2))


def test_cycle_round_trip():
    rng = random.Random(13)
    for _ in range(300):
        n = rng.randrange(1, 13)
        images = list(range(1, n + 1))
        rng.shuffle(images)
        p = Perm(tuple(images))
        assert parse_cycles(format_cycles(p), n) == p


def test_cycles_structure():
    p = parse_cycles("(1 4)(2 3 5)", 5)
    assert p.cycles() == [(1, 4), (2, 3, 5)]
    assert p.order() == 6


def test_constructor_still_validates():
    with pytest.raises(InputError):
        Perm((1, 1, 2))


def test_products_and_inverses_equal_validated_perms():
    rng = random.Random(29)
    for _ in range(300):
        n = rng.randrange(1, 18)
        p, q = (Perm(tuple(rng.sample(range(1, n + 1), n))) for _ in range(2))
        product = p * q
        assert product == Perm(tuple(q(p(i)) for i in range(1, n + 1)))
        assert hash(product) == hash(Perm(product.images))
        inverse = p.inverse()
        expected = [0] * n
        for i in range(1, n + 1):
            expected[p(i) - 1] = i
        assert inverse == Perm(tuple(expected))
        assert type(product) is Perm and type(inverse) is Perm


@pytest.mark.parametrize("n", [0, 1, 2, 3, 17, 272])
def test_gathered_products_match_pointwise_reference(n):
    # degrees 0 and 1 bypass the itemgetter gather, which takes at least two
    # indices to return a tuple
    rng = random.Random(n)
    identity = tuple(range(1, n + 1))
    perms = [tuple(rng.sample(identity, n)) for _ in range(6)]
    pairs = [(a, b) for a in perms for b in perms]
    pairs += [(identity, a) for a in perms] + [(a, identity) for a in perms]
    pairs += [(a, Perm(a).inverse().images) for a in perms]
    for a, b in pairs:
        expected = tuple(b[i - 1] for i in a)
        assert compose_images(a, b) == expected
        assert type(compose_images(a, b)) is tuple
        assert (Perm(a) * Perm(b)).images == expected
    for a in perms:
        assert compose_images(a, Perm(a).inverse().images) == identity


def test_unequal_degree_product_raises():
    with pytest.raises(InputError):
        identity_perm(3) * identity_perm(4)
