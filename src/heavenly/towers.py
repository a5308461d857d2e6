"""Number fields as towers of explicit monic extensions of Q.

A tower is a sequence of levels; level i is a monic polynomial, irreducible
over the field generated by the levels below, stored as a tuple of that
field's elements in ascending degree order.  Elements of a tower field are
nested tuples: a height-0 element is a Fraction, and an element one level up
is a fixed-length tuple of elements below (length = level degree).

Factoring over a tower runs on norms: shift the variable by multiples of the
top generator until the resultant with the top minimal polynomial (the norm,
computed by evaluation and interpolation over the subfield) is squarefree,
factor that norm one level down recursively, and pull factors back up with
gcds.  Primitive elements come from the same resultant trick, folding the
top two levels until one remains.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import InputError, ReducibleExtensionError, ResourceCapError
from .factorization import factor_over_q
from .polynomials import UniPoly, poly_gcd

NORM_DEGREE_CAP = 192
SPLITTING_DEGREE_CAP = 512

BASE_FIELD_POLYS = {
    "Q": None,
    "Q(i)": (Fraction(1), Fraction(0), Fraction(1)),      # x^2 + 1
    "Q(sqrt2)": (Fraction(-2), Fraction(0), Fraction(1)),  # x^2 - 2
    "Q(sqrt-2)": (Fraction(2), Fraction(0), Fraction(1)),  # x^2 + 2
}


# ---------------------------------------------------------------------------
# Field arithmetic: Q and iterated extensions, elements as nested tuples.


class RationalField:
    """Field operations on Fraction values; ground of every tower."""

    degree = 1
    absolute_degree = 1
    base = None

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def from_fraction(self, q: Fraction):
        return Fraction(q)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise InputError("division by zero")
        return 1 / a

    def is_zero(self, a):
        return a == 0

    def flatten(self, a):
        return (a,)


RATIONAL = RationalField()


class ExtensionField:
    """The field below, extended by a root of a monic minimal polynomial.

    Elements are tuples of `degree` elements of the base field, ascending
    powers of the generator.
    """

    def __init__(self, base, modulus: tuple):
        if len(modulus) < 3:
            raise InputError("extension degree must be at least 2")
        if not base.is_zero(base.sub(modulus[-1], base.one())):
            raise InputError("extension modulus must be monic")
        self.base = base
        self.modulus = tuple(modulus)
        self.degree = len(modulus) - 1
        self.absolute_degree = base.absolute_degree * self.degree

    def zero(self):
        return tuple(self.base.zero() for _ in range(self.degree))

    def one(self):
        return (self.base.one(),) + tuple(
            self.base.zero() for _ in range(self.degree - 1)
        )

    def generator(self):
        coords = [self.base.zero() for _ in range(self.degree)]
        coords[1] = self.base.one()
        return tuple(coords)

    def from_fraction(self, q: Fraction):
        return (self.base.from_fraction(q),) + tuple(
            self.base.zero() for _ in range(self.degree - 1)
        )

    def from_base(self, c):
        return (c,) + tuple(self.base.zero() for _ in range(self.degree - 1))

    def add(self, a, b):
        return tuple(self.base.add(x, y) for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(self.base.sub(x, y) for x, y in zip(a, b))

    def neg(self, a):
        return tuple(self.base.neg(x) for x in a)

    def mul(self, a, b):
        B = self.base
        d = self.degree
        prod = [B.zero() for _ in range(2 * d - 1)]
        for i, x in enumerate(a):
            if B.is_zero(x):
                continue
            for j, y in enumerate(b):
                prod[i + j] = B.add(prod[i + j], B.mul(x, y))
        # reduce modulo the monic modulus
        for k in range(2 * d - 2, d - 1, -1):
            c = prod[k]
            if B.is_zero(c):
                continue
            prod[k] = B.zero()
            for j in range(self.degree):
                prod[k - d + j] = B.sub(prod[k - d + j],
                                        B.mul(c, self.modulus[j]))
        return tuple(prod[:d])

    def inv(self, a):
        if self.is_zero(a):
            raise InputError("division by zero")
        B = self.base
        g, s = _gp_half_xgcd(B, _gp_trim(B, list(a)), list(self.modulus))
        if len(g) != 1:
            raise InputError("element not invertible; modulus is reducible")
        scale = B.inv(g[0])
        coords = [B.mul(scale, c) for c in s]
        coords += [B.zero()] * (self.degree - len(coords))
        return tuple(coords[:self.degree])

    def is_zero(self, a):
        return all(self.base.is_zero(x) for x in a)

    def flatten(self, a):
        out = []
        for x in a:
            out.extend(self.base.flatten(x))
        return tuple(out)


# ---------------------------------------------------------------------------
# Polynomials over an arbitrary field: lists of elements, ascending, trimmed.


def _gp_trim(F, f: list) -> list:
    while f and F.is_zero(f[-1]):
        f.pop()
    return f


def _gp_zero_pad(F, f: list, n: int) -> list:
    return f + [F.zero()] * (n - len(f))


def _gp_add(F, f, g):
    n = max(len(f), len(g))
    a = _gp_zero_pad(F, list(f), n)
    b = _gp_zero_pad(F, list(g), n)
    return _gp_trim(F, [F.add(x, y) for x, y in zip(a, b)])


def _gp_sub(F, f, g):
    n = max(len(f), len(g))
    a = _gp_zero_pad(F, list(f), n)
    b = _gp_zero_pad(F, list(g), n)
    return _gp_trim(F, [F.sub(x, y) for x, y in zip(a, b)])


def _gp_mul(F, f, g):
    if not f or not g:
        return []
    prod = [F.zero() for _ in range(len(f) + len(g) - 1)]
    for i, x in enumerate(f):
        if F.is_zero(x):
            continue
        for j, y in enumerate(g):
            prod[i + j] = F.add(prod[i + j], F.mul(x, y))
    return _gp_trim(F, prod)


def _gp_scale(F, f, c):
    return _gp_trim(F, [F.mul(c, x) for x in f])


def _gp_divmod(F, f, g):
    if not g:
        raise InputError("division by the zero polynomial")
    rem = list(f)
    if len(rem) < len(g):
        return [], _gp_trim(F, rem)
    inv_lc = F.inv(g[-1])
    q = [F.zero() for _ in range(len(rem) - len(g) + 1)]
    for k in range(len(rem) - 1, len(g) - 2, -1):
        if F.is_zero(rem[k]):
            continue
        c = F.mul(rem[k], inv_lc)
        q[k - (len(g) - 1)] = c
        for j in range(len(g)):
            rem[k - (len(g) - 1) + j] = F.sub(
                rem[k - (len(g) - 1) + j], F.mul(c, g[j])
            )
    return _gp_trim(F, q), _gp_trim(F, rem)


def _gp_monic(F, f):
    if not f:
        return []
    lc = f[-1]
    if F.is_zero(F.sub(lc, F.one())):
        return list(f)
    return _gp_scale(F, f, F.inv(lc))


def _gp_rescale(F, f):
    """Scale by a rational constant so flattened coordinates are primitive
    integers; a gcd computed up to scalars is unaffected, and this stops
    fraction growth from compounding across Euclidean steps."""
    if not f:
        return f
    num_g = 0
    den_l = 1
    for c in f:
        for q in F.flatten(c):
            num_g = gcd(num_g, q.numerator)
            den_l = den_l * q.denominator // gcd(den_l, q.denominator)
    if num_g == 0:
        return f
    scale = Fraction(den_l, num_g)
    if scale == 1:
        return f
    s = F.from_fraction(scale)
    return [F.mul(s, c) for c in f]


def _gp_gcd(F, f, g):
    if isinstance(F, RationalField):
        # integer primitive-remainder gcd; the generic Euclidean loop
        # explodes fractionally on the large norms taken over Q
        result = poly_gcd(UniPoly.from_list(list(f)),
                          UniPoly.from_list(list(g)))
        return list(result.coeffs)
    a, b = _gp_rescale(F, list(f)), _gp_rescale(F, list(g))
    while b:
        a, b = b, _gp_rescale(F, _gp_divmod(F, a, b)[1])
    return _gp_monic(F, a)


def _gp_half_xgcd(F, f, g):
    """(gcd, s) with s*f = gcd mod g; enough for inverses mod g."""
    r0, r1 = list(f), list(g)
    s0, s1 = [F.one()], []
    while r1:
        q, r = _gp_divmod(F, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _gp_sub(F, s0, _gp_mul(F, q, s1))
    return r0, s0


def _gp_deriv(F, f):
    out = [F.mul(F.from_fraction(Fraction(k)), f[k]) for k in range(1, len(f))]
    return _gp_trim(F, out)


def _gp_eval(F, f, x):
    acc = F.zero()
    for c in reversed(f):
        acc = F.add(F.mul(acc, x), c)
    return acc


def _gp_taylor_shift(F, f, c):
    """f(x + c) by Horner in the linear polynomial x + c."""
    out: list = []
    linear = [c, F.one()]
    for coeff in reversed(f):
        out = _gp_add(F, _gp_mul(F, out, linear), [coeff])
    return out


def _gp_pow_elem(F, a, e: int):
    acc = F.one()
    base = a
    while e:
        if e & 1:
            acc = F.mul(acc, base)
        base = F.mul(base, base)
        e >>= 1
    return acc


def _gp_resultant(F, f, g):
    """Res(f, g) over the field F, Euclidean recurrence."""
    if not f or not g:
        raise InputError("resultant requires nonzero polynomials")
    a, b = list(f), list(g)
    acc = F.one()
    negate = False
    while True:
        da, db = len(a) - 1, len(b) - 1
        if db == 0:
            acc = F.mul(acc, _gp_pow_elem(F, b[0], da))
            break
        if da == 0:
            acc = F.mul(acc, _gp_pow_elem(F, a[0], db))
            break
        if da < db:
            if (da * db) % 2 == 1:
                negate = not negate
            a, b = b, a
            continue
        r = _gp_divmod(F, a, b)[1]
        if not r:
            return F.zero()
        acc = F.mul(acc, _gp_pow_elem(F, b[-1], da - (len(r) - 1)))
        if (da * db) % 2 == 1:
            negate = not negate
        a, b = b, r
    return F.neg(acc) if negate else acc


def _gp_interpolate(F, points):
    """Lagrange interpolation through [(x, y)] pairs, Newton form."""
    xs = [x for x, _ in points]
    coeffs: list = []
    # divided differences
    table = [y for _, y in points]
    dd = [table[0]]
    for level in range(1, len(points)):
        nxt = []
        for i in range(len(table) - 1):
            num = F.sub(table[i + 1], table[i])
            den = F.sub(xs[i + level], xs[i])
            nxt.append(F.mul(num, F.inv(den)))
        table = nxt
        dd.append(table[0])
    # expand Newton form
    coeffs = []
    for k in range(len(dd) - 1, -1, -1):
        coeffs = _gp_add(F, _gp_mul(F, coeffs,
                                    [F.neg(xs[k]), F.one()]), [dd[k]])
    return coeffs


def _gp_squarefree(F, f):
    return len(_gp_gcd(F, f, _gp_deriv(F, f))) == 1


# ---------------------------------------------------------------------------
# Towers.


@dataclass(frozen=True)
class FieldTower:
    """A number field as a tower of monic irreducible extension levels."""

    levels: tuple[tuple, ...] = ()

    @property
    def height(self) -> int:
        return len(self.levels)

    @property
    def absolute_degree(self) -> int:
        d = 1
        for lev in self.levels:
            d *= len(lev) - 1
        return d

    def level_degrees(self) -> list[int]:
        return [len(lev) - 1 for lev in self.levels]

    def extends(self, other: "FieldTower") -> bool:
        return self.levels[: other.height] == other.levels

    def __repr__(self) -> str:
        degs = "x".join(str(d) for d in self.level_degrees()) or "1"
        return f"FieldTower(degree={self.absolute_degree}, levels={degs})"


def base_field(tag: str) -> FieldTower:
    """The tower for a ground field tag: Q, Q(i), Q(sqrt2), or Q(sqrt-2)."""
    if tag not in BASE_FIELD_POLYS:
        known = ", ".join(sorted(BASE_FIELD_POLYS))
        raise InputError(f"unknown base field {tag!r}; expected one of {known}")
    poly = BASE_FIELD_POLYS[tag]
    if poly is None:
        return FieldTower(())
    return FieldTower((poly,))


def field_chain(tower: FieldTower) -> list:
    """Fields from Q up to the tower's top, one per level."""
    chain = [RATIONAL]
    for lev in tower.levels:
        chain.append(ExtensionField(chain[-1], lev))
    return chain


def tower_field(tower: FieldTower):
    return field_chain(tower)[-1]


def lift_to_field(F, f: UniPoly) -> list:
    """A rational polynomial as a polynomial over the field F."""
    return [F.from_fraction(c) for c in f.coeffs]


def _embed_up(chain_from, chain_to, f):
    """Re-embed a polynomial over chain_to[len(chain_from)-1]'s subfield."""
    out = f
    for F in chain_to[len(chain_from):]:
        out = [F.from_base(c) for c in out]
    return out


def _as_gpoly(F, f):
    """Accept a UniPoly over Q or a coefficient list over F."""
    if isinstance(f, UniPoly):
        return _gp_trim(F, lift_to_field(F, f))
    return _gp_trim(F, list(f))


def flatten_poly(F, f) -> tuple:
    """Deterministic sort key: degree, then flattened coefficients."""
    flat = []
    for c in f:
        flat.extend(F.flatten(c))
    return (len(f), tuple(flat))


# ---------------------------------------------------------------------------
# Factorization over a tower (norm descent).


def _factor_squarefree_chain(chain, f):
    """Monic irreducible factors of a monic squarefree f over chain[-1]."""
    F = chain[-1]
    deg = len(f) - 1
    if deg <= 0:
        return []
    if deg == 1:
        return [list(f)]
    if len(chain) == 1:
        rational = UniPoly.from_list(f)
        return [list(g.coeffs) for g, _ in factor_over_q(rational)]
    # The descent takes norms of degree deg times the level degrees, top
    # level first; refuse before computing any of them if one is too big.
    reached = deg
    for level in reversed(chain[1:]):
        reached *= level.degree
        if reached > NORM_DEGREE_CAP:
            raise ResourceCapError(
                f"norm degree {reached} exceeds cap {NORM_DEGREE_CAP}"
            )
    B = F.base
    norm_deg = deg * F.degree
    alpha = F.generator()
    for k in _shift_values(200):
        shift = F.mul(F.from_fraction(Fraction(-k)), alpha)
        g = _gp_taylor_shift(F, f, shift)  # g(x) = f(x - k*alpha)
        norm = _norm_poly(B, F.modulus, g, norm_deg)
        if not _gp_squarefree(B, norm):
            continue
        sub_factors = _factor_squarefree_chain(chain[:-1], norm)
        unshift = F.neg(shift)
        out = []
        for nj in sub_factors:
            lifted = [F.from_base(c) for c in nj]
            common = _gp_gcd(F, g, lifted)
            if len(common) - 1 >= 1:
                out.append(_gp_monic(F, _gp_taylor_shift(F, common, unshift)))
        out.sort(key=lambda h: flatten_poly(F, h))
        total = sum(len(h) - 1 for h in out)
        if total != deg:
            raise ArithmeticError("norm descent lost factors")
        return out
    raise ArithmeticError("no squarefree shift found for separable input")


def _shift_values(limit: int):
    yield 0
    for k in range(1, limit):
        yield k
        yield -k


def _norm_poly(B, modulus, g, norm_deg):
    """Res_y(modulus(y), g(x) with the generator written as y), monic.

    Evaluation-interpolation over x: the modulus is monic, so the resultant
    at each rational node is the product of g's values at the modulus roots,
    and the interpolated polynomial is monic of degree norm_deg.
    """
    nodes = []
    values = []
    t = 0
    while len(nodes) < norm_deg + 1:
        x0 = B.from_fraction(Fraction(t))
        # h(y) = sum_i rep_y(g_i) * x0^i
        h: list = []
        x_power = B.one()
        for c in g:
            rep = _gp_trim(B, list(c))
            h = _gp_add(B, h, _gp_scale(B, rep, x_power))
            x_power = B.mul(x_power, x0)
        values.append(_gp_resultant(B, list(modulus), h) if h
                      else B.zero())
        nodes.append(x0)
        t = -t if t > 0 else -t + 1
    interp = _gp_interpolate(B, list(zip(nodes, values)))
    if len(interp) - 1 != norm_deg:
        raise ArithmeticError("norm interpolation degree mismatch")
    return _gp_monic(B, interp)


def _squarefree_parts_chain(F, f):
    """Yun's algorithm over an arbitrary char-0 field."""
    out = []
    d = _gp_deriv(F, f)
    g = _gp_gcd(F, f, d)
    w = _gp_divmod(F, f, g)[0]
    i = 1
    while len(w) - 1 >= 1:
        y = _gp_gcd(F, w, g)
        piece = _gp_divmod(F, w, y)[0]
        if len(piece) - 1 >= 1:
            out.append((_gp_monic(F, piece), i))
        w = y
        g = _gp_divmod(F, g, y)[0]
        i += 1
    return out


def factor_over_tower(tower: FieldTower, f) -> list[tuple[list, int]]:
    """Monic irreducible factors over the tower field, with multiplicities.

    f may be a UniPoly over Q or a coefficient list of tower elements.
    The product of factor^multiplicity equals f up to a constant.
    """
    chain = field_chain(tower)
    F = chain[-1]
    g = _as_gpoly(F, f)
    if not g:
        raise InputError("cannot factor the zero polynomial")
    if len(g) - 1 < 1:
        return []
    g = _gp_monic(F, g)
    result = []
    for part, mult in _squarefree_parts_chain(F, g):
        for irr in _factor_squarefree_chain(chain, part):
            result.append((irr, mult))
    result.sort(key=lambda t: flatten_poly(F, t[0]))
    return result


def is_irreducible_over_tower(tower: FieldTower, f) -> bool:
    facs = factor_over_tower(tower, f)
    return len(facs) == 1 and facs[0][1] == 1


def extend(tower: FieldTower, g) -> FieldTower:
    """One more level; g must be monic irreducible over the tower."""
    F = tower_field(tower)
    gp = _as_gpoly(F, g)
    if len(gp) - 1 < 2:
        raise InputError("extension degree must be at least 2")
    if not F.is_zero(F.sub(gp[-1], F.one())):
        raise InputError("extension polynomial must be monic")
    facs = factor_over_tower(tower, gp)
    if len(facs) != 1 or facs[0][1] != 1:
        raise ReducibleExtensionError(
            "extension polynomial is reducible over the tower",
            factors=facs,
        )
    return FieldTower(tower.levels + (tuple(gp),))


def _extend_unchecked(tower: FieldTower, gp: list) -> FieldTower:
    return FieldTower(tower.levels + (tuple(gp),))


# ---------------------------------------------------------------------------
# Splitting towers.


def splitting_tower(f, tower: FieldTower = FieldTower(),
                    degree_cap: int = SPLITTING_DEGREE_CAP) -> FieldTower:
    """The minimal tower over the given one where f splits into linears.

    Repeatedly extends by a largest-degree irreducible factor (ties broken
    by coefficient order) until every root lies in the tower.  Each adjoined
    generator is divided off synthetically, so later stages only refactor
    cofactors of strictly smaller degree, never f itself.  Raises a resource
    error carrying the partial tower when the absolute degree would exceed
    the cap.
    """
    if degree_cap < 1:
        raise InputError("degree cap must be at least 1")
    current = tower
    facs = factor_over_tower(current, f)
    if not facs:
        raise InputError("cannot split a constant polynomial")
    if any(mult > 1 for _, mult in facs):
        raise InputError("splitting tower requires a squarefree input")
    # invariant: pending holds the nonlinear irreducible factors of f over
    # the current tower, as coefficient lists over its top field
    pending = [g for g, _ in facs if len(g) - 1 >= 2]
    while pending:
        F = tower_field(current)
        pending.sort(key=lambda h: (-(len(h) - 1), flatten_poly(F, h)))
        chosen = pending.pop(0)
        new_degree = current.absolute_degree * (len(chosen) - 1)
        if new_degree > degree_cap:
            raise ResourceCapError(
                f"splitting tower degree {new_degree} exceeds cap "
                f"{degree_cap}", partial=current,
            )
        current = _extend_unchecked(current, chosen)
        NF = tower_field(current)
        refactor = []
        for h in pending:
            refactor.append([NF.from_base(c) for c in h])
        lifted = [NF.from_base(c) for c in chosen]
        cofactor, rem = _gp_divmod(
            NF, lifted, [NF.neg(NF.generator()), NF.one()]
        )
        if rem:
            raise ArithmeticError(
                "adjoined generator is not a root of its minimal polynomial"
            )
        if len(cofactor) - 1 >= 2:
            refactor.append(cofactor)
        pending = []
        for h in refactor:
            for irr, _ in factor_over_tower(current, h):
                if len(irr) - 1 >= 2:
                    pending.append(irr)
    return current


def splitting_degree(f, tower: FieldTower = FieldTower(),
                     degree_cap: int = SPLITTING_DEGREE_CAP) -> int:
    """Degree of the splitting tower over the given base tower."""
    result = splitting_tower(f, tower, degree_cap)
    return result.absolute_degree // tower.absolute_degree


# ---------------------------------------------------------------------------
# Primitive elements: fold the top two levels until one remains.


def _fold_two_levels(B, lower, upper):
    """One level over B whose root generates both given levels.

    lower is over B; upper is over Ext(B, lower).  Tries generators
    top + k*lower_generator for k = 1, 2, ...; the resultant in the lower
    variable is squarefree exactly when that combination is primitive, and
    a squarefree characteristic polynomial of full degree is the minimal
    polynomial, hence irreducible.
    """
    d_lower = len(lower) - 1
    d_upper = len(upper) - 1
    m = d_lower * d_upper
    for k in range(1, 64):
        # M(x, y) = sum_i rep_y(upper_i) * (x - k*y)^i; interpolate
        # R(x) = Res_y(lower(y), M(x, y)) through m+1 rational nodes.
        nodes = []
        values = []
        t = 0
        while len(nodes) < m + 1:
            x0 = B.from_fraction(Fraction(t))
            # p(y) = M(x0, y)
            lin = [x0, B.from_fraction(Fraction(-k))]  # x0 - k*y
            p: list = []
            power = [B.one()]
            for c in upper:
                rep = _gp_trim(B, list(c))
                p = _gp_add(B, p, _gp_mul(B, rep, power))
                power = _gp_mul(B, power, lin)
            values.append(_gp_resultant(B, list(lower), p) if p else B.zero())
            nodes.append(x0)
            t = -t if t > 0 else -t + 1
        folded = _gp_interpolate(B, list(zip(nodes, values)))
        if len(folded) - 1 != m:
            raise ArithmeticError("fold interpolation degree mismatch")
        folded = _gp_monic(B, folded)
        if _gp_squarefree(B, folded):
            return folded
    raise ArithmeticError("no primitive shift found in 64 attempts")


def primitive_element(tower: FieldTower) -> UniPoly:
    """Monic irreducible over Q whose root generates the whole tower."""
    if tower.height == 0:
        raise InputError("height-0 tower has no primitive element polynomial")
    chain = field_chain(tower)
    levels = [list(lev) for lev in tower.levels]
    while len(levels) > 1:
        B = chain[len(levels) - 2]
        folded = _fold_two_levels(B, levels[-2], levels[-1])
        levels = levels[:-2] + [folded]
        chain = chain[: len(levels)] + [ExtensionField(chain[len(levels) - 1],
                                                       tuple(folded))]
    return UniPoly.from_list(levels[0])


# ---------------------------------------------------------------------------
# Compositum and Galois closure.


def _relative_primitive(tower: FieldTower, over: FieldTower) -> list:
    """Single polynomial over `over` generating `tower` above it."""
    chain = field_chain(tower)
    base_height = over.height
    levels = [list(lev) for lev in tower.levels[base_height:]]
    while len(levels) > 1:
        B = chain[base_height + len(levels) - 2]
        folded = _fold_two_levels(B, levels[-2], levels[-1])
        levels = levels[:-2] + [folded]
    return levels[0]


def compositum_tower(k1: FieldTower, k2: FieldTower,
                     over: FieldTower) -> FieldTower:
    """A compositum of k1 and k2 over a common prefix tower.

    Folds k2 above `over` to a single relative polynomial, factors it over
    k1, and extends k1 by the first factor of maximal degree (no extension
    when a linear factor is maximal, i.e. k2 embeds into k1 already).
    """
    if not (k1.extends(over) and k2.extends(over)):
        raise InputError("compositum requires both towers to extend the base")
    if k2.height == over.height:
        return k1
    if k1.height == over.height:
        return k2
    rel = _relative_primitive(k2, over)
    chain1 = field_chain(k1)
    lifted = _embed_up(field_chain(over), chain1, rel)
    F = chain1[-1]
    facs = factor_over_tower(k1, lifted)
    best = max(len(g) - 1 for g, _ in facs)
    if best == 1:
        return k1
    chosen = min((g for g, _ in facs if len(g) - 1 == best),
                 key=lambda h: flatten_poly(F, h))
    return _extend_unchecked(k1, chosen)


def compositum_degree(k1: FieldTower, k2: FieldTower,
                      over: FieldTower) -> int:
    """Degree of the compositum of k1 and k2 over the common base tower."""
    comp = compositum_tower(k1, k2, over)
    if over.absolute_degree == 0 or comp.absolute_degree % over.absolute_degree:
        raise ArithmeticError("compositum degree not divisible by base")
    return comp.absolute_degree // over.absolute_degree


def galois_closure_is_2power(tower: FieldTower,
                             degree_cap: int = SPLITTING_DEGREE_CAP
                             ) -> tuple[bool, int]:
    """Whether the Galois closure over Q has 2-power degree, and that degree.

    Computes the splitting tower over Q of the tower's primitive element
    polynomial; the closure degree is its absolute degree.
    """
    if tower.height == 0:
        return True, 1
    mu = primitive_element(tower)
    closure = splitting_tower(mu, FieldTower(), degree_cap)
    d = closure.absolute_degree
    return (d & (d - 1)) == 0, d


__all__ = [
    "NORM_DEGREE_CAP",
    "SPLITTING_DEGREE_CAP",
    "FieldTower",
    "RationalField",
    "ExtensionField",
    "RATIONAL",
    "base_field",
    "field_chain",
    "tower_field",
    "lift_to_field",
    "factor_over_tower",
    "is_irreducible_over_tower",
    "extend",
    "splitting_tower",
    "splitting_degree",
    "primitive_element",
    "compositum_tower",
    "compositum_degree",
    "galois_closure_is_2power",
]
