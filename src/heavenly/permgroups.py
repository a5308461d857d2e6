"""Finite permutation groups by explicit element enumeration.

Groups here are small (a few hundred elements at most), so every operation
works on the full element set.  A group keeps its elements in ascending
order of image tuples, so equal groups have equal element tuples and an
element index means the same permutation in every table cached per group.
`close_generators` is a depth-first closure of image tuples under left
multiplication by the generators, one route for every degree: the
272-point regular representation of the affine group of F17 closes the
same way as S4.  Caps raise `ResourceCapError`: the element count of a
closure, and the group order that subgroup enumeration and
`core_bound_check` accept.  The search-heavy operations (subgroup
enumeration, normality and cores in `core_bound_check`, the pair search
and the regular representation) run on element indices instead: a cached
multiplication table gives the index of every product, and an inverse
index gives conjugates as two table lookups.
Subgroup facts keep those searches short, and each is proved once: a pair
whose closure stops short of G settles every pair of cyclic subgroups
inside that closure, and the settled pairs are kept per group for every
later pair search on it; normality and cores need conjugation by
generators only, and each is computed once per pair of lattice members;
a lattice grows by one adjoin per double coset H*g*H, since <H, x*g*z> =
<H, g> for x, z in H; and the subgroups of a subgroup H of G are the
members of G's lattice that lie in H, so a lattice is enumerated once per
ambient group.  No stabilizer chains; the point is that every answer is
directly auditable.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from operator import attrgetter, itemgetter

from .errors import InputError, ResourceCapError
from .integers import factorize
from .permutations import Perm, _unchecked, compose_images, parse_cycles
from .records import Record

DEFAULT_ELEMENT_CAP = 1_000_000
SUBGROUP_ORDER_CAP = 400

_images = attrgetter("images")


class PermGroup:
    """A concrete permutation group: degree, generators, all elements.

    The elements are stored in ascending order of image tuples, whatever
    order they are given in.
    """

    def __init__(self, degree: int, generators: tuple[Perm, ...],
                 elements: tuple[Perm, ...]):
        self.degree = degree
        self.generators = generators
        self.elements = tuple(sorted(elements, key=_images))
        self._element_set = frozenset(self.elements)

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, p: Perm) -> bool:
        return p in self._element_set

    def __eq__(self, other) -> bool:
        return (isinstance(other, PermGroup)
                and self.degree == other.degree
                and self._element_set == other._element_set)

    def __hash__(self) -> int:
        return hash((self.degree, self._element_set))

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, order={self.order})"

    def p_group_prime(self) -> int | None:
        facs = factorize(self.order) if self.order > 1 else {}
        return next(iter(facs)) if len(facs) == 1 else None


def _explicit(degree: int, elements) -> PermGroup:
    """The group on a known element set, each element listed as a generator."""
    group = PermGroup(degree, (), elements)
    group.generators = group.elements
    return group


def close_generators(generators: list[Perm]) -> PermGroup:
    """The group generated by the given permutations, of any degree.

    Closure is depth-first on image tuples under left multiplication by
    generators, from the identity, so the result is independent of
    generator order.  The product s * x is x's image tuple read at the
    points s sends 1..n to, one gather whose itemgetter is built once per
    generator.  Raises when the element count would exceed the cap.
    """
    if not generators:
        raise InputError("close_generators needs at least one generator")
    degree = generators[0].degree
    for g in generators:
        if g.degree != degree:
            raise InputError("generators act on different point sets")
    identity = tuple(range(1, degree + 1))
    if degree <= 1:
        # the only permutation of at most one point is the identity, and
        # itemgetter returns no tuple for fewer than two indices
        return PermGroup(degree, tuple(generators), (_unchecked(identity),))
    gathers = [itemgetter(*[i - 1 for i in g.images]) for g in generators]
    seen = {identity}
    stack = [identity]
    while stack:
        x = stack.pop()
        for gather in gathers:
            y = gather(x)
            if y not in seen:
                if len(seen) >= DEFAULT_ELEMENT_CAP:
                    raise ResourceCapError(
                        f"group closure exceeded {DEFAULT_ELEMENT_CAP} "
                        "elements"
                    )
                seen.add(y)
                stack.append(y)
    return PermGroup(degree, tuple(generators), map(_unchecked, seen))


def group_from_cycles(degree: int, *cycle_strings: str) -> PermGroup:
    """Closure of generators given in cycle notation."""
    return close_generators([parse_cycles(s, degree) for s in cycle_strings])


# ---------------------------------------------------------------------------
# Multiplication tables on element indices, for the search-heavy operations.


@lru_cache(maxsize=16)
def _mult_table(group: PermGroup) -> tuple[list[list[int]], int]:
    """(table, identity_index); table[i][j] = index of elements[i]*elements[j].

    Only the rows of a few generators, taken greedily in element order, are
    composed from image tuples.  Every other row is a known row read through
    a generator's row: elements[y] = elements[x]*s gives
    table[y][j] = table[x][table[s][j]], one gather per row with an
    itemgetter built once per generator row.
    """
    images = [p.images for p in group.elements]
    index = {im: k for k, im in enumerate(images)}
    n = len(images)
    table: list = [None] * n
    e_idx = index[tuple(range(1, group.degree + 1))]
    table[e_idx] = list(range(n))
    reached = [e_idx]
    gens: list[tuple[int, itemgetter]] = []
    for s in range(n):
        if table[s] is not None:
            continue
        # s is not the identity, so n >= 2 and the row's itemgetter
        # returns a tuple
        table[s] = [index[compose_images(images[s], b)] for b in images]
        gens.append((s, itemgetter(*table[s])))
        reached.append(s)
        stack = reached[:]
        while stack:
            row = table[stack.pop()]
            for g, gather in gens:
                y = row[g]
                if table[y] is None:
                    table[y] = list(gather(row))
                    reached.append(y)
                    stack.append(y)
    return table, e_idx


def right_regular_images(group: PermGroup) -> tuple[tuple[int, ...], ...]:
    """Entry k is the index map x -> x * elements[k] on element indices:
    the right regular representation, read off column k of the table."""
    table, _ = _mult_table(group)
    return tuple(zip(*table))


class TwoGenerationSearch(Record):
    """Outcome of the exhaustive ordered-pair generation search."""

    __slots__ = ("generates", "pairs_examined", "witness")


def two_generation_search(group: PermGroup,
                          require_involution: bool = False) -> TwoGenerationSearch:
    """Search all ordered pairs (a, b) for <a, b> = group.

    With require_involution, only pairs whose second entry squares to the
    identity are examined (the identity counts).  Every pair is examined and
    counted, in order: the search space is exactly |G|^2 ordered pairs, or
    |G| * #involutions with the flag.  <a, b> depends only on the cyclic
    subgroups <a> and <b>, and when it is a proper subgroup K, every pair of
    cyclic subgroups inside K generates a subgroup of K, so that pair is
    settled too.  Settled pairs are kept per group (`_pair_facts`), filled
    as closures run, and their closures are skipped; a settled pair never
    generates, so a later search on the same group, with or without the
    flag, finds the same first generating pair and the same count.
    """
    table, e_idx = _mult_table(group)
    n = group.order
    if require_involution:
        second = [j for j in range(n) if table[j][j] == e_idx]
    else:
        second = list(range(n))
    cyclic, settled = _pair_facts(group)
    second_labels = [cyclic[j] for j in second]
    for i in range(n):
        ci = cyclic[i]
        for pos, cj in enumerate(second_labels):
            if settled[ci] >> cj & 1:
                continue
            j = second[pos]
            closure = _pair_closure(table, e_idx, i, j)
            if len(closure) == n:
                return TwoGenerationSearch(
                    True, i * len(second) + pos + 1,
                    (group.elements[i], group.elements[j]))
            labels = {cyclic[x] for x in closure}
            inside = sum(1 << c for c in labels)
            for c in labels:
                settled[c] |= inside
    return TwoGenerationSearch(False, n * len(second), None)


@lru_cache(maxsize=16)
def _pair_facts(group: PermGroup) -> tuple[list[int], list[int]]:
    """(cyclic, settled) for the pair search on a group.

    cyclic[i] labels the cyclic subgroup generated by elements[i], and bit
    c of settled[l] is set once the pair of cyclic subgroups labelled l
    and c is known to generate a proper subgroup.  Searches extend settled
    in place, so each such fact is proved once per group.
    """
    table, e_idx = _mult_table(group)
    return _cyclic_subgroup_ids(table, e_idx), [0] * group.order


def _cyclic_subgroup_ids(table, e_idx) -> list[int]:
    """For each element index, a label shared exactly by the elements that
    generate the same cyclic subgroup."""
    labels: dict[frozenset[int], int] = {}
    out = []
    for i, row in enumerate(table):
        powers = {e_idx}
        x = i
        while x != e_idx:
            powers.add(x)
            x = row[x]
        out.append(labels.setdefault(frozenset(powers), len(labels)))
    return out


def _pair_closure(table, e_idx, i, j) -> set[int]:
    """The element indices of <elements[i], elements[j]>."""
    seen = {e_idx}
    stack = [e_idx]
    while stack:
        row = table[stack.pop()]
        for y in (row[i], row[j]):
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


# ---------------------------------------------------------------------------
# Subgroup enumeration.


def _adjoin(table, h: frozenset[int], gens: tuple[int, ...],
            g: int) -> frozenset[int]:
    """<h, g> for a subgroup h generated by gens and an element g not in h.

    The coset h*g is new; closing it under right multiplication by gens and
    g costs |<h, g>| * (#gens + 1) lookups.
    """
    seen = set(h)
    stack = [table[x][g] for x in h]
    seen.update(stack)
    gens = gens + (g,)
    while stack:
        row = table[stack.pop()]
        for s in gens:
            y = row[s]
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return frozenset(seen)


class _Lattice:
    """All subgroups of one group, on its multiplication table's indices.

    Members are in `enumerate_subgroups` order, so the group itself is the
    last.  Member k has the index set sets[k], the generating index tuple
    gens[k] it was grown from, and the explicit group groups[k], whose
    generators are all of its elements; position maps each explicit group
    back to its member number.
    """

    def __init__(self, group: PermGroup):
        table, e_idx = _mult_table(group)
        n = group.order
        trivial = frozenset({e_idx})
        found = {trivial: ()}
        frontier = [trivial]
        while frontier:
            h = frontier.pop()
            gens = found[h]
            covered = bytearray(n)
            for x in h:
                covered[x] = 1
            for g in range(n):
                if covered[g]:
                    continue
                # cover the double coset h*g*h: the coset h*g, closed under
                # right multiplication by the generators of h
                stack = [table[x][g] for x in h]
                for y in stack:
                    covered[y] = 1
                while stack:
                    row = table[stack.pop()]
                    for s in gens:
                        y = row[s]
                        if not covered[y]:
                            covered[y] = 1
                            stack.append(y)
                grown = _adjoin(table, h, gens, g)
                if grown not in found:
                    found[grown] = gens + (g,)
                    frontier.append(grown)
        groups = {h: _explicit(group.degree, [group.elements[i] for i in h])
                  for h in found}
        self.sets = sorted(found, key=lambda h: (
            len(h), tuple(map(_images, groups[h].elements))))
        self.gens = [found[h] for h in self.sets]
        self.groups = [groups[h] for h in self.sets]
        self.position = {g: k for k, g in enumerate(self.groups)}
        self.table = table
        self.inverse = [row.index(e_idx) for row in table]
        self._below: dict[int, list[int]] = {}
        self._normal: dict[tuple[int, int], bool] = {}
        self._core_order: dict[tuple[int, int], int] = {}

    def below(self, k: int) -> list[int]:
        """The members inside member k, in order (k itself is the last)."""
        out = self._below.get(k)
        if out is None:
            h = self.sets[k]
            out = self._below[k] = [j for j in range(k + 1)
                                    if self.sets[j] <= h]
        return out

    def is_normal(self, k: int, n: int) -> bool:
        """Whether member k, inside member n, is normal in it; computed once
        per pair."""
        out = self._normal.get((k, n))
        if out is None:
            out = self._normal[k, n] = _is_normal(
                self.table, self.inverse, self.gens[n], self.sets[k])
        return out

    def core_order(self, k: int, n: int) -> int:
        """The order of the normal core of member k in member n; computed
        once per pair."""
        out = self._core_order.get((k, n))
        if out is None:
            out = self._core_order[k, n] = len(_normal_core(
                self.table, self.inverse, self.gens[n], self.sets[k]))
        return out


_LATTICES: deque[_Lattice] = deque(maxlen=16)


def _lattice_of(group: PermGroup) -> tuple[_Lattice, int]:
    """A lattice with the group as a member, and its member number.

    The last 16 enumerated groups keep their lattices; a group that is a
    member of one of them is looked up there, by element set.
    """
    for lattice in _LATTICES:
        k = lattice.position.get(group)
        if k is not None:
            return lattice, k
    lattice = _Lattice(group)
    _LATTICES.append(lattice)
    return lattice, len(lattice.sets) - 1


def _check_order_cap(group: PermGroup, stage: str) -> None:
    if group.order > SUBGROUP_ORDER_CAP:
        raise ResourceCapError(
            f"{stage} capped at order {SUBGROUP_ORDER_CAP}; "
            f"group has order {group.order}")


def enumerate_subgroups(group: PermGroup) -> list[PermGroup]:
    """All subgroups, ascending by order with a deterministic tiebreak.

    Grows closures from the trivial subgroup by repeatedly adjoining single
    elements, deduplicating by element set; this reaches every subgroup.
    Since <h, g> = <h, x*g*z> for x, z in h, one g per double coset h*g*h
    is tried.
    The subgroups of H <= G are exactly the subgroups of G that lie in H,
    so a group inside a recently enumerated group is read off that group's
    lattice instead of being enumerated again.
    """
    _check_order_cap(group, "subgroup enumeration")
    lattice, top = _lattice_of(group)
    return [lattice.groups[k] for k in lattice.below(top)]


def has_subgroup_of_index(group: PermGroup, m: int) -> bool:
    """True when a subgroup of index exactly m exists."""
    if m <= 0:
        raise InputError("index must be positive")
    if group.order % m != 0:
        return False
    target = group.order // m
    return any(h.order == target for h in enumerate_subgroups(group))


# ---------------------------------------------------------------------------
# Subdirect products of S3 x S3.


class SubdirectProduct(Record):
    """A subgroup of S3 x S3 surjecting onto both factors, annotated."""

    __slots__ = ("group", "order", "has_index_three_subgroup")


def s3_times_s3() -> PermGroup:
    """S3 x S3 on points 1..6: first factor on 1-3, second on 4-6."""
    return group_from_cycles(6, "(1 2)", "(1 2 3)", "(4 5)", "(4 5 6)")


def _restriction(p: Perm, points: range) -> tuple[int, ...]:
    """p on a block of points it maps to itself, renumbered from 1."""
    shift = points.start - 1
    block = p.images[shift:points.stop - 1]
    return tuple(map(shift.__rsub__, block))


def subdirect_products_s3() -> list[SubdirectProduct]:
    """Subgroups of S3 x S3 mapping onto both factors, annotated.

    Sorted ascending by order, then by element sets.  The possible orders
    are 6 (graphs of automorphisms), 18, and 36.
    """
    big = s3_times_s3()
    s3_images = {p.images for p in group_from_cycles(3, "(1 2)", "(1 2 3)").elements}
    out = []
    for h in enumerate_subgroups(big):
        proj1 = {_restriction(p, range(1, 4)) for p in h.elements}
        proj2 = {_restriction(p, range(4, 7)) for p in h.elements}
        if proj1 == s3_images and proj2 == s3_images:
            out.append(SubdirectProduct(
                h, h.order, has_subgroup_of_index(h, 3)
            ))
    out.sort(key=lambda r: (r.order, tuple(p.images for p in r.group.elements)))
    return out


# ---------------------------------------------------------------------------
# Core bound: [G : core_G(H)] <= d * m^d over chains H normal in N normal in G.


class CoreBoundReport(Record):
    """Result of checking the core index bound over all chains in a group;
    each violation is (|H|, |N|, core index, bound)."""

    __slots__ = ("chains_checked", "violations")


def _conjugates(table, inverse, h, g):
    """The indices of g^-1 * x * g for x in the index set h."""
    row = table[inverse[g]]
    return (table[row[x]][g] for x in h)


def _is_normal(table, inverse, gens, h: frozenset[int]) -> bool:
    """Whether the group generated by gens normalizes the index set h:
    s^-1 h s lies in h for every generator s."""
    return all(y in h for s in gens for y in _conjugates(table, inverse, h, s))


def _normal_core(table, inverse, gens, h: frozenset[int]) -> frozenset[int]:
    """The normal core of the index set h in the group generated by gens.

    That core is the largest subgroup of h that every generator normalizes:
    the fixed point of C <- C & s^-1 C s over the generators s.
    """
    core = h
    while True:
        size = len(core)
        for s in gens:
            core = core.intersection(_conjugates(table, inverse, core, s))
        if len(core) == size:
            return core


def core_bound_check(group: PermGroup) -> CoreBoundReport:
    """Check [G : core_G(H)] <= d * m^d for every chain H <| N <| G.

    Here d = [G:N] and m = [N:H]; N runs over normal subgroups of G and H
    over subgroups of N that are normal in N.  The chains are read off the
    lattice that `enumerate_subgroups` uses, and conjugation is by
    generators only: N <| G exactly when s^-1 N s lies in N for every
    generator s of G, and normality in N and the core work the same way.
    The lattice keeps each normality answer and core order, so a pair met
    in several chains, or in the checks of several subgroups, is computed
    once.
    """
    _check_order_cap(group, "core bound check")
    lattice, top = _lattice_of(group)
    order = group.order
    chains = 0
    violations = []
    for n in lattice.below(top):
        if not lattice.is_normal(n, top):
            continue
        n_order = len(lattice.sets[n])
        d = order // n_order
        for k in lattice.below(n):
            if not lattice.is_normal(k, n):
                continue
            h_order = len(lattice.sets[k])
            m = n_order // h_order
            chains += 1
            core_index = order // lattice.core_order(k, top)
            bound = d * m**d
            if core_index > bound:
                violations.append((h_order, n_order, core_index, bound))
    return CoreBoundReport(chains, tuple(violations))


# ---------------------------------------------------------------------------
# Named witness groups.


def sylow_two_subgroup_s8() -> PermGroup:
    """The Sylow 2-subgroup of S8 generated by two dihedral blocks and a swap.

    Generators: (1 2 3 4), (1 3), (5 6 7 8), (5 7), and the block swap
    (1 5)(2 6)(3 7)(4 8); the closure has order 128.
    """
    return group_from_cycles(
        8, "(1 2 3 4)", "(1 3)", "(5 6 7 8)", "(5 7)", "(1 5)(2 6)(3 7)(4 8)"
    )


def affine_group_f17() -> PermGroup:
    """The full affine group of the 17-element field, acting on 17 points.

    Point i stands for the residue i - 1.  Generated by translation x -> x+1
    and multiplication by the primitive root 3; order 272 = 16 * 17.
    """
    translation = Perm(tuple((i % 17) + 1 for i in range(1, 18)))
    multiplication = Perm(tuple((3 * (i - 1)) % 17 + 1 for i in range(1, 18)))
    return close_generators([translation, multiplication])
