"""Explicit permutation groups: closure, subgroups, cores, searches."""

import pytest
import random
from collections import deque
from functools import lru_cache

from heavenly import permgroups, verifier
from heavenly.errors import InputError, ResourceCapError
from heavenly.permutations import Perm, compose_images, parse_cycles
from heavenly.permgroups import (
    PermGroup,
    TwoGenerationSearch,
    affine_group_f17,
    close_generators,
    core_bound_check,
    enumerate_subgroups,
    group_from_cycles,
    has_subgroup_of_index,
    right_regular_images,
    s3_times_s3,
    subdirect_products_s3,
    sylow_two_subgroup_s8,
    two_generation_search,
)


def sym(n: int) -> PermGroup:
    gens = ["(1 2)", "(" + " ".join(str(i) for i in range(1, n + 1)) + ")"]
    return group_from_cycles(n, *gens)


def identity_perm(n: int) -> Perm:
    return Perm(tuple(range(1, n + 1)))


def trivial(degree: int) -> PermGroup:
    return PermGroup(degree, (), (identity_perm(degree),))


# References built from Perm products, for the facts the package computes
# on element indices or does not compute at all.


def orbit(group: PermGroup, point: int) -> list[int]:
    """The orbit of a point, ascending."""
    return sorted({g(point) for g in group.elements})


def stabilizer(group: PermGroup, point: int) -> PermGroup:
    """The point stabilizer, each element listed as a generator."""
    return permgroups._explicit(
        group.degree, [g for g in group.elements if g(point) == point])


def is_normal(sub: PermGroup, group: PermGroup) -> bool:
    """Whether sub is a subgroup of group normalized by its generators."""
    if sub.degree != group.degree or not all(h in group
                                             for h in sub.elements):
        return False
    return all(g.inverse() * h * g in sub
               for g in group.generators or group.elements
               for h in sub.elements)


def normal_core(sub: PermGroup, group: PermGroup) -> set[Perm]:
    """The largest subgroup of sub normal in group: the intersection of
    sub's conjugates by every element of group."""
    core = set(sub.elements)
    for g in group.elements:
        gi = g.inverse()
        core &= {gi * h * g for h in sub.elements}
    return core


def index_core(group: PermGroup, sub: PermGroup) -> set[Perm]:
    """sub's normal core in group as `permgroups._normal_core` computes it
    on the cached multiplication table."""
    table, e_idx = permgroups._mult_table(group)
    inverse = [row.index(e_idx) for row in table]
    index = {p: k for k, p in enumerate(group.elements)}
    gens = [index[p] for p in group.generators]
    h_set = frozenset(index[p] for p in sub.elements)
    core = permgroups._normal_core(table, inverse, gens, h_set)
    return {group.elements[k] for k in core}


def test_closure_small_orders():
    assert sym(3).order == 6
    assert sym(4).order == 24
    assert group_from_cycles(4, "(1 2 3 4)").order == 4
    assert group_from_cycles(4, "(1 2)(3 4)", "(1 3)(2 4)").order == 4
    assert close_generators([identity_perm(5)]).order == 1


def test_closure_order_independent():
    rng = random.Random(19)
    base = [parse_cycles("(1 2 3 4)", 4), parse_cycles("(1 2)", 4)]
    reference = close_generators(base)
    for _ in range(20):
        shuffled = base[:]
        rng.shuffle(shuffled)
        assert close_generators(shuffled) == reference


def reference_closure(generators):
    """The element images of <generators>, closed under right
    multiplication by the generators, one `compose_images` per product."""
    identity = tuple(range(1, generators[0].degree + 1))
    seen = {identity}
    stack = [identity]
    while stack:
        x = stack.pop()
        for g in generators:
            y = compose_images(x, g.images)
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


def regular_image_of_affine_group_f17():
    """The generators of the 272-point right regular action of F17's
    affine group, on element indices read as points 1..272."""
    group = affine_group_f17()
    regular = right_regular_images(group)
    position = {p: k for k, p in enumerate(group.elements)}
    return [Perm(tuple(k + 1 for k in regular[position[g]]))
            for g in group.generators]


def closure_inputs():
    rng = random.Random(41)
    for degree in range(1, 9):
        for count in (1, 2):
            points = list(range(1, degree + 1))
            gens = []
            for _ in range(count):
                rng.shuffle(points)
                gens.append(Perm(tuple(points)))
            yield f"random_{degree}_{count}", gens
    for degree in (0, 1, 5):
        yield f"identity_{degree}", [identity_perm(degree)] * 2
    yield "transposition_2", [parse_cycles("(1 2)", 2)]
    yield "regular_272", regular_image_of_affine_group_f17()


@pytest.mark.parametrize("gens", [g for _, g in closure_inputs()],
                         ids=[name for name, _ in closure_inputs()])
def test_closure_matches_right_multiplication_reference(gens):
    # left multiplication by generators reaches the same element set; the
    # degrees below 2, where an itemgetter returns no tuple, included
    group = close_generators(gens)
    assert {p.images for p in group.elements} == reference_closure(gens)
    assert group.degree == gens[0].degree
    assert group.generators == tuple(gens)


def test_closure_cap(monkeypatch):
    monkeypatch.setattr(permgroups, "DEFAULT_ELEMENT_CAP", 1000)
    with pytest.raises(ResourceCapError):
        close_generators(
            [parse_cycles("(1 2)", 8), parse_cycles("(1 2 3 4 5 6 7 8)", 8)],
        )


@pytest.mark.parametrize("search,stage", [
    (enumerate_subgroups, "subgroup enumeration"),
    (core_bound_check, "core bound check"),
])
def test_order_cap_is_a_resource_cap(monkeypatch, search, stage):
    monkeypatch.setattr(permgroups, "SUBGROUP_ORDER_CAP", 20)
    with pytest.raises(ResourceCapError, match=(
            f"^{stage} capped at order 20; group has order 24$")):
        search(sym(4))


def test_orbit_and_stabilizer():
    g = sym(4)
    assert orbit(g, 1) == [1, 2, 3, 4]
    stab = stabilizer(g, 4)
    assert stab == group_from_cycles(4, "(1 2)", "(1 2 3)")
    assert stab.order == 6
    assert all(p(4) == 4 for p in stab.elements)
    assert g.order == stab.order * len(orbit(g, 4))


def test_transitivity():
    assert orbit(sym(4), 1) == [1, 2, 3, 4]
    assert orbit(group_from_cycles(4, "(1 2)"), 1) == [1, 2]


def test_p_group_detection():
    assert group_from_cycles(4, "(1 2 3 4)").p_group_prime() == 2
    assert sym(3).p_group_prime() is None
    assert trivial(3).p_group_prime() is None
    assert group_from_cycles(3, "(1 2 3)").p_group_prime() == 3


def test_enumerate_subgroups_s3():
    subs = enumerate_subgroups(sym(3))
    assert len(subs) == 6
    assert sorted(h.order for h in subs) == [1, 2, 2, 2, 3, 6]


def test_enumerate_subgroups_cyclic_four():
    subs = enumerate_subgroups(group_from_cycles(4, "(1 2 3 4)"))
    assert sorted(h.order for h in subs) == [1, 2, 4]


def test_enumerate_subgroups_s4_count():
    subs = enumerate_subgroups(sym(4))
    assert len(subs) == 30
    assert all(24 % h.order == 0 for h in subs)


def test_has_subgroup_of_index():
    g = sym(4)
    assert has_subgroup_of_index(g, 2)   # A4
    assert has_subgroup_of_index(g, 4)   # S3 point stabilizers
    assert not has_subgroup_of_index(g, 5)
    with pytest.raises(InputError):
        has_subgroup_of_index(g, 0)


def test_normal_core_s4_dihedral():
    g = sym(4)
    d4 = group_from_cycles(4, "(1 2 3 4)", "(1 3)")
    assert d4.order == 8
    v4 = group_from_cycles(4, "(1 2)(3 4)", "(1 3)(2 4)")
    assert index_core(g, d4) == normal_core(d4, g) == set(v4.elements)
    assert is_normal(v4, g)


def test_normal_core_of_stabilizer_is_trivial():
    g = sym(4)
    stab = stabilizer(g, 1)
    assert index_core(g, stab) == normal_core(stab, g) == {identity_perm(4)}


def test_two_generation_s4():
    result = two_generation_search(sym(4))
    assert result.generates
    a, b = result.witness
    assert close_generators([a, b]).order == 24


def test_two_generation_with_involution_s4():
    result = two_generation_search(sym(4), require_involution=True)
    assert result.generates
    a, b = result.witness
    assert (b * b).is_identity()
    assert close_generators([a, b]).order == 24


def test_two_generation_klein_failure():
    # C2 x C2 x C2 on 6 points is not 2-generated
    g = group_from_cycles(6, "(1 2)", "(3 4)", "(5 6)")
    assert g.order == 8
    result = two_generation_search(g)
    assert not result.generates
    assert result.pairs_examined == 64


def test_sylow_two_subgroup_s8():
    g = sylow_two_subgroup_s8()
    assert g.order == 128
    assert g.p_group_prime() == 2
    assert orbit(g, 1) == [1, 2, 3, 4, 5, 6, 7, 8]


def test_sylow_witness_not_two_generated():
    g = sylow_two_subgroup_s8()
    free = two_generation_search(g)
    assert not free.generates
    assert free.pairs_examined == 128 * 128
    restricted = two_generation_search(g, require_involution=True)
    assert not restricted.generates
    assert restricted.pairs_examined < 128 * 128


def test_affine_group_f17():
    g = affine_group_f17()
    assert g.order == 272
    assert g.p_group_prime() is None
    assert orbit(g, 1) == list(range(1, 18))
    assert g.degree == 17
    stab = stabilizer(g, 1)
    assert stab.order == 16


def test_regular_representation_of_affine_group_f17():
    # the 272-point regular action closes like any other group
    image = close_generators(regular_image_of_affine_group_f17())
    assert (image.degree, image.order) == (272, 272)
    assert len(orbit(image, 1)) == 272
    assert stabilizer(image, 1).order == 1


def test_subdirect_products_s3():
    records = subdirect_products_s3()
    orders = [r.order for r in records]
    assert set(orders) == {6, 18, 36}
    assert orders.count(36) == 1
    assert orders.count(18) == 1
    assert orders.count(6) == 6
    assert all(r.has_index_three_subgroup for r in records)


def test_s3_times_s3_order():
    assert s3_times_s3().order == 36


def test_restriction_matches_pointwise_form():
    for p in s3_times_s3().elements:
        for points in (range(1, 4), range(4, 7)):
            assert permgroups._restriction(p, points) == tuple(
                p(i) - points.start + 1 for i in points)


def test_core_bound_s4():
    report = core_bound_check(sym(4))
    assert report.chains_checked > 0
    assert report.violations == ()


def test_core_bound_s3s3():
    report = core_bound_check(s3_times_s3())
    assert report.chains_checked > 0
    assert report.violations == ()


# ---------------------------------------------------------------------------
# The index-table operations against references built from Perm products.


SMALL_GROUPS = {
    "s4": lambda: sym(4),
    "d4": lambda: group_from_cycles(4, "(1 2 3 4)", "(1 3)"),
    "q8": lambda: group_from_cycles(8, "(1 2 3 4)(5 6 7 8)",
                                    "(1 5 3 7)(2 8 4 6)"),
    "a4": lambda: group_from_cycles(4, "(1 2 3)", "(2 3 4)"),
    "c2_cubed": lambda: group_from_cycles(6, "(1 2)", "(3 4)", "(5 6)"),
    "s3xs3": s3_times_s3,
}


def reference_table(group):
    index = {p: k for k, p in enumerate(group.elements)}
    return [[index[a * b] for b in group.elements] for a in group.elements]


def reference_subgroups(group):
    """The quadratic closure that adjoins every element g to every subgroup."""
    table = reference_table(group)

    def close(seed):
        seen = set(seed)
        stack = list(seed)
        while stack:
            x = stack.pop()
            for y in list(seen):
                for z in (table[x][y], table[y][x]):
                    if z not in seen:
                        seen.add(z)
                        stack.append(z)
        return frozenset(seen)

    identity = group.elements.index(identity_perm(group.degree))
    known = {frozenset({identity})}
    frontier = list(known)
    while frontier:
        h = frontier.pop()
        for g in range(group.order):
            grown = close(h | {g})
            if grown not in known:
                known.add(grown)
                frontier.append(grown)
    return sorted(
        (len(s), tuple(sorted(group.elements[i].images for i in s)))
        for s in known)


def test_mult_table_is_cached_for_traced_runs():
    assert callable(permgroups._mult_table.cache_info)


def test_tables_follow_the_element_order_of_each_group():
    # equal groups given in different element orders must not share one
    # group's element indices through the cached table
    g1 = group_from_cycles(4, "(1 2)", "(1 2 3 4)")
    g2 = PermGroup(4, g1.generators, tuple(reversed(g1.elements)))
    right_regular_images(g1)
    index = {p: k for k, p in enumerate(g2.elements)}
    regular = right_regular_images(g2)
    for k, g in enumerate(g2.elements):
        assert regular[k] == tuple(index[x * g] for x in g2.elements)
    result = two_generation_search(g2)
    assert (result.generates, result.pairs_examined, result.witness) == \
        reference_pair_search(g2, False)
    assert close_generators(list(result.witness)) == g2


@pytest.mark.parametrize("group", [
    trivial(3), trivial(1), sym(3), stabilizer(sym(3), 1), sym(4),
    sylow_two_subgroup_s8(), affine_group_f17(),
], ids=["trivial", "trivial1", "s3", "stabilizer", "s4", "octic", "affine"])
def test_mult_table_matches_perm_products(group):
    # rows gathered through known rows equal rows composed from the elements,
    # and the right regular representation reads the table's columns
    table, e_idx = permgroups._mult_table(group)
    reference = reference_table(group)
    assert table == reference
    assert group.elements[e_idx].is_identity()
    assert right_regular_images(group) == tuple(
        tuple(row[k] for row in reference) for k in range(group.order))


def test_right_regular_images_are_right_multiplication():
    group = affine_group_f17()
    index = {p: k for k, p in enumerate(group.elements)}
    regular = right_regular_images(group)
    for k in (0, 1, 100, 271):
        g = group.elements[k]
        assert regular[k] == tuple(index[x * g] for x in group.elements)


@pytest.mark.parametrize("name,count", [
    ("s4", 30), ("d4", 10), ("q8", 6), ("a4", 10), ("c2_cubed", 16),
    ("s3xs3", 60),
])
def test_enumerate_subgroups_matches_quadratic_closure(name, count):
    group = SMALL_GROUPS[name]()
    subs = enumerate_subgroups(group)
    found = [(h.order, tuple(p.images for p in h.elements)) for h in subs]
    assert len(found) == count
    assert found == reference_subgroups(group)
    assert all(h.generators == h.elements for h in subs)


def reference_core_bound(group):
    subs = enumerate_subgroups(group)
    chains = 0
    violations = []
    for n_sub in subs:
        if not is_normal(n_sub, group):
            continue
        d = group.order // n_sub.order
        for h in subs:
            if not is_normal(h, n_sub):
                continue
            m = n_sub.order // h.order
            chains += 1
            core_index = group.order // len(normal_core(h, group))
            if core_index > d * m**d:
                violations.append((h.order, n_sub.order, core_index, d * m**d))
    return chains, tuple(violations)


@pytest.mark.parametrize("name", sorted(SMALL_GROUPS))
def test_core_bound_matches_perm_reference_on_every_subgroup(name):
    for sub in enumerate_subgroups(SMALL_GROUPS[name]()):
        report = core_bound_check(sub)
        assert (report.chains_checked, report.violations) == \
            reference_core_bound(sub)


@pytest.mark.parametrize("name", ["s4", "s3xs3"])
def test_index_cores_match_normal_core_in(name):
    group = SMALL_GROUPS[name]()
    for h in enumerate_subgroups(group):
        assert index_core(group, h) == normal_core(h, group)


@pytest.mark.parametrize("name,chains", [
    ("s4", 13), ("d4", 22), ("c2_cubed", 66), ("s3xs3", 46),
])
def test_core_bound_chain_counts(name, chains):
    report = core_bound_check(SMALL_GROUPS[name]())
    assert report.chains_checked == chains
    assert report.violations == ()


def reference_pair_search(group, require_involution):
    second = [b for b in group.elements
              if not require_involution or b.is_involution()]
    pairs = 0
    for a in group.elements:
        for b in second:
            pairs += 1
            if close_generators([a, b]).order == group.order:
                return True, pairs, (a, b)
    return False, pairs, None


@pytest.mark.parametrize("name,expected", [
    ("s4", (True, 33)), ("d4", (True, 11)), ("q8", (True, 13)),
    ("a4", (True, 16)), ("s3xs3", (True, 268)), ("c2_cubed", (False, 64)),
])
def test_pair_search_matches_uncached_reference(name, expected):
    group = SMALL_GROUPS[name]()
    for require_involution in (False, True):
        result = two_generation_search(group, require_involution)
        assert (result.generates, result.pairs_examined, result.witness) == \
            reference_pair_search(group, require_involution)
    plain = two_generation_search(group)
    assert (plain.generates, plain.pairs_examined) == expected


def cyclic_pair_reference(group, require_involution):
    """The pair search with one closure per unordered pair of cyclic
    subgroups, its decision reused by later pairs; also the closure count."""
    table = reference_table(group)
    e = group.elements.index(identity_perm(group.degree))
    n = group.order

    def powers(i):
        out = {e}
        x = i
        while x != e:
            out.add(x)
            x = table[x][i]
        return frozenset(out)

    def closure_order(i, j):
        seen = {e}
        stack = [e]
        while stack:
            x = stack.pop()
            for y in (table[x][i], table[x][j]):
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return len(seen)

    cyclic = [powers(i) for i in range(n)]
    second = [j for j in range(n)
              if not require_involution or table[j][j] == e]
    decided = {}
    pairs = 0
    for i in range(n):
        for j in second:
            pairs += 1
            key = frozenset((cyclic[i], cyclic[j]))
            if key not in decided:
                decided[key] = closure_order(i, j) == n
            if decided[key]:
                return (True, pairs, (group.elements[i], group.elements[j]),
                        len(decided))
    return False, pairs, None, len(decided)


@pytest.mark.parametrize("require_involution", [False, True])
def test_pruned_pair_search_matches_cyclic_pair_reference(require_involution):
    group = sylow_two_subgroup_s8()
    result = two_generation_search(group, require_involution)
    generates, pairs, witness, _ = cyclic_pair_reference(
        group, require_involution)
    assert (result.generates, result.pairs_examined, result.witness) == \
        (generates, pairs, witness)


def fresh_pair_facts(monkeypatch):
    """Give the pair search an empty settled-pair cache of its own, so no
    search run before the test has settled a pair for it."""
    monkeypatch.setattr(permgroups, "_pair_facts", lru_cache(maxsize=16)(
        permgroups._pair_facts.__wrapped__))


def count_calls(monkeypatch, name):
    """Wrap permgroups.<name>; the returned list gets one entry per call."""
    calls = []
    original = getattr(permgroups, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(permgroups, name, counting)
    return calls


def test_pair_search_closes_far_fewer_pairs_than_cyclic_pairs(monkeypatch):
    group = sylow_two_subgroup_s8()
    *_, cyclic_pairs = cyclic_pair_reference(group, False)
    assert cyclic_pairs == 3403
    fresh_pair_facts(monkeypatch)
    closures = count_calls(monkeypatch, "_pair_closure")
    assert not two_generation_search(group).generates
    assert not two_generation_search(group, require_involution=True).generates
    assert 0 < len(closures) < cyclic_pairs // 5


def test_involution_search_after_the_plain_search_closes_no_pair(monkeypatch):
    # the plain search settles every pair of the octic group, and the
    # involution search that follows reads them off the kept pair facts
    group = sylow_two_subgroup_s8()
    fresh_pair_facts(monkeypatch)
    closures = count_calls(monkeypatch, "_pair_closure")
    assert not two_generation_search(group).generates
    assert len(closures) > 0
    del closures[:]
    restricted = two_generation_search(group, require_involution=True)
    assert (restricted.generates, restricted.pairs_examined) == (False, 5632)
    assert closures == []


@pytest.mark.parametrize("name", sorted(SMALL_GROUPS))
def test_pair_searches_agree_in_either_order(monkeypatch, name):
    group = SMALL_GROUPS[name]()
    expected = {flag: TwoGenerationSearch(*reference_pair_search(group, flag))
                for flag in (False, True)}
    for flags in ((False, True), (True, False)):
        fresh_pair_facts(monkeypatch)
        for flag in flags:
            assert two_generation_search(group, flag) == expected[flag]


def test_subgroups_read_off_an_ambient_lattice_match_the_reference():
    for h in enumerate_subgroups(s3_times_s3()):
        found = [(k.order, tuple(p.images for p in k.elements))
                 for k in enumerate_subgroups(h)]
        assert found == reference_subgroups(h)


def test_each_ambient_lattice_is_enumerated_once(monkeypatch):
    monkeypatch.setattr(permgroups, "_LATTICES", deque(maxlen=16))
    ambient = s3_times_s3()
    for sub in enumerate_subgroups(ambient):
        core_bound_check(sub)
        has_subgroup_of_index(sub, 3)
    subdirect_products_s3()
    assert len(permgroups._LATTICES) == 1


def test_lattice_adjoins_once_per_double_coset(monkeypatch):
    # <h, x*g*z> = <h, g> for x, z in h, so growing each subgroup h tries
    # one g per double coset h*g*h (one per right coset h*g would be 741)
    monkeypatch.setattr(permgroups, "_LATTICES", deque(maxlen=16))
    adjoins = count_calls(monkeypatch, "_adjoin")
    ambients = [sym(2), sym(3), sym(4), s3_times_s3()]
    found = [[(h.order, tuple(p.images for p in h.elements))
              for h in enumerate_subgroups(group)] for group in ambients]
    assert len(adjoins) <= 450
    assert found == [reference_subgroups(group) for group in ambients]


def test_corebound_tests_each_normality_and_core_once(monkeypatch):
    # its chains ask 1713 normality questions about 578 distinct pairs and
    # 800 cores of 359 distinct (subgroup, group) pairs
    monkeypatch.setattr(permgroups, "_LATTICES", deque(maxlen=16))
    normal = count_calls(monkeypatch, "_is_normal")
    cores = count_calls(monkeypatch, "_normal_core")
    report = verifier.verify_corebound()
    assert report.passed
    assert len(normal) <= 578
    assert len(cores) <= 359
