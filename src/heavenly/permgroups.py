"""Finite permutation groups by explicit element enumeration.

Groups here are small (a few hundred elements at most), so every operation
works on the full element set.  `close_generators` is breadth-first
multiplication of `Perm`s.  The search-heavy operations (subgroup
enumeration, normality and cores in `core_bound_check`, the pair search and
the regular representation) run on element indices instead: a cached
multiplication table gives the index of every product, and an inverse index
gives conjugates as two table lookups.  Subgroups are grown from the trivial
one by adjoining one element g at a time, a single representative for each
right coset h*g, and the closure of <h, g> multiplies only the new elements
by the generators found so far.  No stabilizer chains; the point is that
every answer is directly auditable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import InputError, ResourceCapError
from .integers import factorize
from .permutations import Perm, compose_images, parse_cycles

DEFAULT_ELEMENT_CAP = 1_000_000
SUBGROUP_ORDER_CAP = 400


class PermGroup:
    """A concrete permutation group: degree, generators, all elements."""

    def __init__(self, degree: int, generators: tuple[Perm, ...],
                 elements: tuple[Perm, ...]):
        self.degree = degree
        self.generators = generators
        self.elements = elements
        self._element_set = frozenset(elements)

    @staticmethod
    def trivial(degree: int) -> "PermGroup":
        e = Perm.identity(degree)
        return PermGroup(degree, (), (e,))

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

    def is_subgroup_of(self, other: "PermGroup") -> bool:
        return (self.degree == other.degree
                and self._element_set <= other._element_set)

    def orbit_of(self, point: int) -> list[int]:
        """The orbit of a point, ascending."""
        if not 1 <= point <= self.degree:
            raise InputError(f"point {point} outside 1..{self.degree}")
        return sorted({g(point) for g in self.elements})

    def stabilizer_of(self, point: int) -> "PermGroup":
        """The point stabilizer, as an explicit group."""
        if not 1 <= point <= self.degree:
            raise InputError(f"point {point} outside 1..{self.degree}")
        elems = tuple(sorted((g for g in self.elements if g(point) == point),
                             key=lambda p: p.images))
        return PermGroup(self.degree, elems, elems)

    def is_transitive(self) -> bool:
        return len(self.orbit_of(1)) == self.degree

    def is_normal_in(self, other: "PermGroup") -> bool:
        if not self.is_subgroup_of(other):
            return False
        for g in other.generators or other.elements:
            gi = g.inverse()
            for h in self.elements:
                if gi * h * g not in self._element_set:
                    return False
        return True

    def normal_core_in(self, ambient: "PermGroup") -> "PermGroup":
        """Largest subgroup of self normal in ambient (self <= ambient)."""
        if not self.is_subgroup_of(ambient):
            raise InputError("normal core requires a subgroup")
        core = set(self._element_set)
        for g in ambient.elements:
            gi = g.inverse()
            core &= {gi * h * g for h in self._element_set}
        elems = tuple(sorted(core, key=lambda p: p.images))
        return PermGroup(self.degree, elems, elems)

    def is_p_group(self) -> bool:
        """True when the order is a prime power (trivial group included)."""
        return len(factorize(self.order)) <= 1 if self.order > 1 else True

    def p_group_prime(self) -> int | None:
        facs = factorize(self.order) if self.order > 1 else {}
        return next(iter(facs)) if len(facs) == 1 else None

    def conjugate_subgroup(self, g: Perm) -> "PermGroup":
        gi = g.inverse()
        elems = tuple(sorted((gi * h * g for h in self.elements),
                             key=lambda p: p.images))
        return PermGroup(self.degree, elems, elems)


def close_generators(generators: list[Perm]) -> PermGroup:
    """The group generated by the given permutations.

    Breadth-first closure under right multiplication by generators; the
    result is independent of generator order.  Raises when the element count
    would exceed the cap.
    """
    if not generators:
        raise InputError("close_generators needs at least one generator")
    degree = generators[0].degree
    for g in generators:
        if g.degree != degree:
            raise InputError("generators act on different point sets")
    identity = Perm.identity(degree)
    seen = {identity}
    frontier = [identity]
    while frontier:
        new_frontier = []
        for x in frontier:
            for g in generators:
                y = x * g
                if y not in seen:
                    if len(seen) >= DEFAULT_ELEMENT_CAP:
                        raise ResourceCapError(
                            f"group closure exceeded {DEFAULT_ELEMENT_CAP} "
                            "elements"
                        )
                    seen.add(y)
                    new_frontier.append(y)
        frontier = new_frontier
    elems = tuple(sorted(seen, key=lambda p: p.images))
    return PermGroup(degree, tuple(generators), elems)


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
    table[y][j] = table[x][table[s][j]].
    """
    images = [p.images for p in group.elements]
    index = {im: k for k, im in enumerate(images)}
    n = len(images)
    table: list = [None] * n
    e_idx = index[tuple(range(1, group.degree + 1))]
    table[e_idx] = list(range(n))
    reached = [e_idx]
    gens: list[int] = []
    for s in range(n):
        if table[s] is not None:
            continue
        table[s] = [index[compose_images(images[s], b)] for b in images]
        gens.append(s)
        reached.append(s)
        stack = reached[:]
        while stack:
            row = table[stack.pop()]
            for g in gens:
                y = row[g]
                if table[y] is None:
                    table[y] = list(map(row.__getitem__, table[g]))
                    reached.append(y)
                    stack.append(y)
    return table, e_idx


def right_regular_images(group: PermGroup) -> tuple[tuple[int, ...], ...]:
    """Entry k is the index map x -> x * elements[k] on element indices:
    the right regular representation, read off column k of the table."""
    table, _ = _mult_table(group)
    return tuple(zip(*table))


@dataclass(frozen=True)
class TwoGenerationSearch:
    """Outcome of the exhaustive ordered-pair generation search."""

    generates: bool
    pairs_examined: int
    witness: tuple[Perm, Perm] | None


def two_generation_search(group: PermGroup,
                          require_involution: bool = False) -> TwoGenerationSearch:
    """Search all ordered pairs (a, b) for <a, b> = group.

    With require_involution, only pairs whose second entry squares to the
    identity are examined (the identity counts).  Every pair is examined and
    counted, in order: the search space is exactly |G|^2 ordered pairs, or
    |G| * #involutions with the flag.  Since <a, b> depends only on the
    cyclic subgroups <a> and <b>, the closure runs once per unordered pair
    {<a>, <b>}, and later pairs with the same cyclic subgroups reuse its
    decision.
    """
    table, e_idx = _mult_table(group)
    n = group.order
    if require_involution:
        second = [j for j in range(n) if table[j][j] == e_idx]
    else:
        second = list(range(n))
    cyclic = _cyclic_subgroup_ids(table, e_idx)
    decided: dict[tuple[int, int], bool] = {}
    pairs = 0
    for i in range(n):
        ci = cyclic[i]
        for j in second:
            pairs += 1
            cj = cyclic[j]
            key = (ci, cj) if ci <= cj else (cj, ci)
            full = decided.get(key)
            if full is None:
                full = decided[key] = _pair_closure_is_full(
                    table, e_idx, i, j, n)
            if full:
                return TwoGenerationSearch(
                    True, pairs, (group.elements[i], group.elements[j])
                )
    return TwoGenerationSearch(False, pairs, None)


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


def _pair_closure_is_full(table, e_idx, i, j, target):
    seen = bytearray(target)
    seen[e_idx] = 1
    stack = [e_idx]
    count = 1
    while stack:
        x = stack.pop()
        row = table[x]
        for g in (i, j):
            y = row[g]
            if not seen[y]:
                seen[y] = 1
                count += 1
                stack.append(y)
    return count == target


def two_generated(group: PermGroup, require_involution: bool = False) -> bool:
    """True when some ordered pair generates the whole group."""
    return two_generation_search(group, require_involution).generates


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


def enumerate_subgroups(group: PermGroup) -> list[PermGroup]:
    """All subgroups, ascending by order with a deterministic tiebreak.

    Grows closures from the trivial subgroup by repeatedly adjoining single
    elements, deduplicating by element set; this reaches every subgroup.
    Since <h, g> = <h, x*g> for x in h, one g per right coset h*g is tried.
    """
    if group.order > SUBGROUP_ORDER_CAP:
        raise InputError(
            f"subgroup enumeration capped at order {SUBGROUP_ORDER_CAP}; "
            f"group has order {group.order}"
        )
    table, e_idx = _mult_table(group)
    n = group.order
    trivial = frozenset({e_idx})
    known = {trivial}
    frontier: list[tuple[frozenset[int], tuple[int, ...]]] = [(trivial, ())]
    while frontier:
        h, gens = frontier.pop()
        covered = bytearray(n)
        for x in h:
            covered[x] = 1
        for g in range(n):
            if covered[g]:
                continue
            for x in h:
                covered[table[x][g]] = 1
            grown = _adjoin(table, h, gens, g)
            if grown not in known:
                known.add(grown)
                frontier.append((grown, gens + (g,)))
    out = []
    for idx_set in known:
        elems = tuple(sorted((group.elements[i] for i in idx_set),
                             key=lambda p: p.images))
        out.append(PermGroup(group.degree, elems, elems))
    out.sort(key=lambda h: (h.order, tuple(p.images for p in h.elements)))
    return out


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


@dataclass(frozen=True)
class SubdirectProduct:
    """A subgroup of S3 x S3 surjecting onto both factors, annotated."""

    group: PermGroup
    order: int
    has_index_three_subgroup: bool


def s3_times_s3() -> PermGroup:
    """S3 x S3 on points 1..6: first factor on 1-3, second on 4-6."""
    return group_from_cycles(6, "(1 2)", "(1 2 3)", "(4 5)", "(4 5 6)")


def _restriction(p: Perm, points: range) -> tuple[int, ...]:
    base = points.start
    return tuple(p(i) - base + 1 for i in points)


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


@dataclass(frozen=True)
class CoreBoundReport:
    """Result of checking the core index bound over all chains in a group."""

    chains_checked: int
    violations: tuple[tuple[int, int, int, int], ...]
    # each violation: (|H|, |N|, core index, bound)


def _conjugates(table, inverse, h, g):
    """The indices of g^-1 * x * g for x in the index set h."""
    row = table[inverse[g]]
    return (table[row[x]][g] for x in h)


def _normal_core(table, inverse, h: frozenset[int]) -> frozenset[int]:
    """The intersection of all conjugates of the index set h."""
    core = h
    for g in range(len(table)):
        core = core.intersection(_conjugates(table, inverse, h, g))
    return core


def core_bound_check(group: PermGroup) -> CoreBoundReport:
    """Check [G : core_G(H)] <= d * m^d for every chain H <| N <| G.

    Here d = [G:N] and m = [N:H]; N runs over normal subgroups of G and H
    over subgroups of N that are normal in N.
    """
    if group.order > SUBGROUP_ORDER_CAP:
        raise InputError(
            f"core bound check capped at order {SUBGROUP_ORDER_CAP}")
    subs = enumerate_subgroups(group)
    table, e_idx = _mult_table(group)
    inverse = [row.index(e_idx) for row in table]
    index = {p: k for k, p in enumerate(group.elements)}
    sets = [frozenset(index[p] for p in h.elements) for h in subs]

    def is_normal(h, ambient):
        return all(y in h for g in ambient
                   for y in _conjugates(table, inverse, h, g))

    chains = 0
    violations = []
    for n_set in sets:
        if not is_normal(n_set, range(group.order)):
            continue
        d = group.order // len(n_set)
        for h_set in sets:
            if not (h_set <= n_set and is_normal(h_set, n_set)):
                continue
            m = len(n_set) // len(h_set)
            chains += 1
            core = _normal_core(table, inverse, h_set)
            core_index = group.order // len(core)
            bound = d * m**d
            if core_index > bound:
                violations.append((len(h_set), len(n_set), core_index, bound))
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
